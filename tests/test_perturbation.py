from __future__ import annotations

import copy
import json
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from exact_reference import (
    lattice_scan_one_operand,
    matrix_lattice_solve,
    renewal_forward_substitution,
    shift_values,
    varpar_residual_stacked,
    volterra_matrix_stacked,
)
from matrix_helpers import matrix_probes, validate
from semiperturb.errors import (
    GuardViolation,
    HorizonExceeded,
    NonConvergence,
    NotInStateSpace,
    StepMismatch,
    StepSizeError,
)
from semiperturb.functions import (
    BoundedMeasure,
    PiecewiseFunction,
    pair_rows,
    reconstruction_nodes,
    sample_lag_kernel,
    sample_sided,
    support_cells,
    tent,
)
from semiperturb import functions, perturbation, semigroup
from semiperturb.implemented import random_stable_pair
from semiperturb.perturbation import (
    MAX_NEUMANN_TERMS,
    AdmissibilityReport,
    PerturbationOperator,
    VectorTrajectory,
    admissibility_check,
    comparison_check,
    comparison_summary,
    generator_check,
    identity_check,
    neumann_nodes,
    neumann_semigroup,
    translation_probes,
    varpar_residual,
    volterra_apply,
    volterra_norm_estimate,
    volterra_trajectory,
)
from semiperturb.semigroup import (
    LatticeStep,
    MatrixSystem,
    TranslationSystem,
    _lattice_steps,
    opnorm2,
)
from semiperturb.transport import (
    TransportProblem,
    build_domain_function,
    build_rank_one,
    bump_function,
    canonical_profile,
    canonical_regularizer,
    make_system,
    oracle_solution,
    oracle_weights,
    run_perturbed,
    sawtooth_profile,
)


def diag_system():
    return MatrixSystem(np.diag([-1.0, -2.0]))


def coupled_op():
    return PerturbationOperator.matrix(np.array([[0.0, 0.1], [0.1, 0.0]]))


def delta_problem(weight=1):
    return TransportProblem(
        measure=BoundedMeasure.dirac(0, weight),
        profile=canonical_profile(),
        initial=tent(),
        regularizer=canonical_regularizer(),
    )


# exact antiderivative of the canonical profile, zero at -infinity
def profile_antiderivative(x):
    if x <= -1.0:
        return 0.0
    if x <= 0.0:
        return (x * x - 1.0) / 2.0
    if x <= 1.0:
        return -0.5 + 2.0 * x - x * x / 2.0
    return 1.0


# ---------------------------------------------------------------------------
# Volterra operator


def test_volterra_zero_operator_matrix():
    sys_m = diag_system()
    op = PerturbationOperator.matrix(np.zeros((2, 2)))
    F = VectorTrajectory.orbit(sys_m, np.array([1.0, -2.0]), 1.0, 1e-2)
    out = volterra_apply(sys_m, op, F, 1.0)
    assert np.all(out == 0.0)


def test_volterra_matrix_closed_form():
    # A = diag(-1,-2), B = 0.1 I, F(r) = e1 constant:
    # (V F)(1) = 0.1 * int_0^1 e^{-(1-r)} dr * e1 = 0.1 (1 - e^{-1}) e1
    sys_m = diag_system()
    op = PerturbationOperator.matrix(0.1 * np.eye(2))
    dt = 1e-3
    m = round(1.0 / dt)
    F = VectorTrajectory(sys_m, dt, np.tile([1.0, 0.0], (m + 1, 1)))
    out = volterra_apply(sys_m, op, F, 1.0)
    exact = 0.1 * (1.0 - math.exp(-1.0))
    assert exact == pytest.approx(0.06321205588285577, abs=1e-16)
    assert out[0] == pytest.approx(exact, abs=2e-8)
    assert abs(out[1]) < 1e-15


def test_volterra_matrix_trapezoid_order():
    sys_m = diag_system()
    op = PerturbationOperator.matrix(0.1 * np.eye(2))
    exact = 0.1 * (1.0 - math.exp(-1.0))
    errs = []
    for dt in (4e-3, 2e-3, 1e-3):
        m = round(1.0 / dt)
        F = VectorTrajectory(sys_m, dt, np.tile([1.0, 0.0], (m + 1, 1)))
        errs.append(abs(volterra_apply(sys_m, op, F, 1.0)[0] - exact))
    assert errs[0] / errs[1] > 3.5
    assert errs[1] / errs[2] > 3.5


@pytest.mark.parametrize("state", [np.array([1.0, -2.0]), np.eye(2)],
                         ids=["vector", "matrix"])
def test_matrix_lattice_of_one_node(state):
    sys_m = diag_system()
    F = VectorTrajectory.orbit(sys_m, state, 0.0, 1e-2)
    assert F.nodes.shape == (1,) + state.shape
    assert np.array_equal(F.nodes[0], state)
    out = volterra_trajectory(sys_m, coupled_op(), F)
    assert out.nodes.shape == F.nodes.shape
    assert np.all(out.nodes == 0.0)


def _per_lag_trapezoid(A, B, nodes, dt):
    """dt * trapezoid over q of expm((m - q) dt A) B F[q], one expm per lag."""
    props = [scipy.linalg.expm(q * dt * A) for q in range(len(nodes))]
    out = np.zeros_like(nodes)
    for m in range(1, len(nodes)):
        terms = [props[m - q] @ B @ nodes[q] for q in range(m + 1)]
        out[m] = dt * (sum(terms) - 0.5 * (terms[0] + terms[m]))
    return out


@pytest.mark.parametrize("state_shape", [(3,), (3, 3)],
                         ids=["vector", "matrix"])
def test_volterra_matrix_matches_per_lag_reference(state_shape):
    rng = np.random.default_rng(21)
    A = rng.standard_normal((3, 3)) - 2.0 * np.eye(3)
    B = 0.3 * rng.standard_normal((3, 3))
    dt, m = 1e-2, 40
    sys_m = MatrixSystem(A)
    F = VectorTrajectory(sys_m, dt, rng.standard_normal((m + 1,)
                                                       + state_shape))
    got = volterra_trajectory(sys_m, PerturbationOperator.matrix(B), F)
    want = _per_lag_trapezoid(A, B, F.nodes, dt)
    assert got.nodes.shape == want.shape
    assert np.max(np.abs(got.nodes - want)) <= 1e-12 * np.max(np.abs(want))


def test_analytic_bound_matches_per_lag_sweep():
    rng = np.random.default_rng(4)
    A = rng.standard_normal((4, 4)) - 2.5 * np.eye(4)
    B = 0.1 * rng.standard_normal((4, 4))
    t0 = 0.5
    want = t0 * opnorm2(B) * max(
        opnorm2(scipy.linalg.expm(q * t0 / 64 * A)) for q in range(65))
    got = PerturbationOperator.matrix(B).analytic_volterra_bound(
        MatrixSystem(A), t0)
    assert got == pytest.approx(want, rel=1e-12)


def _swept_guard(A, B, t0):
    """t0 ||B||_2 max ||expm(rA)||_2 over 2001 points r of [0, t0]."""
    props = scipy.linalg.expm(np.linspace(0.0, t0, 2001)[:, None, None] * A)
    return t0 * opnorm2(B) * float(np.max(np.linalg.norm(props, 2,
                                                         axis=(1, 2))))


@settings(max_examples=60, deadline=None, database=None)
@given(n=st.integers(1, 5), t0=st.floats(0.0, 1.0, exclude_min=True),
       shift=st.sampled_from([-2.0, 0.0, 1.0]), triangular=st.booleans(),
       skew=st.sampled_from([1.0, 10.0, 50.0]),
       seed=st.integers(0, 2**32 - 1))
def test_matrix_guard_is_certified(n, t0, shift, triangular, skew, seed):
    # the log-norm guard is a bound: no smaller than a 2001-point sweep
    # of the propagator norm, to rounding, also for non-normal A
    # (triangular ones with off-diagonal entries scaled by up to 50)
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n)) + shift * np.eye(n)
    if triangular:
        A = np.triu(A, 1) * skew + np.diag(np.diag(A))
    B = rng.standard_normal((n, n))
    guard = PerturbationOperator.matrix(B).analytic_volterra_bound(
        MatrixSystem(A), t0)
    assert guard >= _swept_guard(A, B, t0) * (1 - 1e-12)


def test_matrix_guard_covers_the_sweep_of_a_stable_pair():
    # the 65-sample guard read 0.0508655476 here, below the sweep
    A, B = random_stable_pair(4, 5)
    guard = PerturbationOperator.matrix(B).analytic_volterra_bound(
        MatrixSystem(A), 0.5)
    sweep = _swept_guard(A, B, 0.5)
    assert sweep == pytest.approx(0.0508656320, rel=1e-9)
    assert guard >= sweep
    assert guard == pytest.approx(0.0528061076, rel=1e-9)


def test_matrix_guard_is_never_nan():
    # ||B||_2 = 0 gives 0.0 over an overflowing exponential, and a
    # nonzero B gives inf there, which the series refuses by its guard
    huge = MatrixSystem(1e300 * np.eye(2))
    zero = PerturbationOperator.matrix(np.zeros((2, 2)))
    assert zero.analytic_volterra_bound(huge, 0.5) == 0.0
    op = PerturbationOperator.matrix(0.1 * np.eye(2))
    assert op.analytic_volterra_bound(huge, 0.5) == math.inf
    with pytest.raises(GuardViolation, match="Volterra bound inf >= 1"):
        neumann_semigroup(huge, op, np.ones(2), 0.5, 0.5, 1e-2)


@settings(max_examples=40, deadline=None, database=None)
@given(n=st.integers(1, 5), k=st.sampled_from([None, 1, 3]),
       m1=st.sampled_from([1, 2, 3, 64, 501]),
       seed=st.integers(0, 2**32 - 1))
def test_volterra_matrix_one_product_matches_stacked(n, k, m1, seed):
    # B F as one 2-D product in the scan's row layout moves the stacked
    # products' result in the last digits only, relative to the same sum
    # over the magnitudes |E|, |B|, |F| (its rounding scale; the result
    # itself may cancel); a prepared step changes nothing
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n)) - 2.0 * np.eye(n)
    B = 0.3 * rng.standard_normal((n, n))
    dt = 1e-2
    nodes = rng.standard_normal((m1, n) if k is None else (m1, n, k))
    step = MatrixSystem(A).propagator(dt)
    op = PerturbationOperator.matrix(B)
    want = volterra_matrix_stacked(step, B, nodes, dt)
    got = perturbation._volterra_matrix(step, op, nodes, dt)
    assert got.shape == want.shape == nodes.shape
    scale = np.max(volterra_matrix_stacked(np.abs(step), np.abs(B),
                                           np.abs(nodes), dt))
    assert np.max(np.abs(got - want)) <= 1e-15 * scale
    prepared = perturbation._volterra_matrix(LatticeStep(step), op, nodes,
                                             dt)
    assert prepared.tobytes() == got.tobytes()


def _count_expm(monkeypatch):
    calls = []
    real = semigroup.expm
    monkeypatch.setattr(semigroup, "expm",
                        lambda A: calls.append(A) or real(A))
    return calls


def test_volterra_rank_one_constant_probe_exact():
    # mu = delta_0, F constant 1: result(x) = int_x^{x+t} g = G(x+t) - G(x).
    # The integrand is piecewise linear with lattice-aligned kinks, so the
    # jump-aware trapezoid reproduces it to machine precision.
    prob = delta_problem()
    dx = 1e-2
    t = 0.5
    sys_t = make_system(prob, dx, t, t)
    op = build_rank_one(prob)
    m = _lattice_steps(t, dx)
    ones = np.ones(sys_t.count)
    F = VectorTrajectory(sys_t, dx, np.tile(ones, (m + 1, 1)))
    out = volterra_apply(sys_t, op, F, t)
    xs = sys_t.nodes()
    mask = (xs >= -2.5) & (xs <= 2.5)
    want = np.array([profile_antiderivative(x + t) - profile_antiderivative(x)
                     for x in xs[mask]])
    assert np.max(np.abs(out.values[mask] - want)) < 1e-12


def test_volterra_linear_in_operator_and_trajectory():
    sys_m = diag_system()
    rng = np.random.default_rng(7)
    B1 = rng.standard_normal((2, 2)) * 0.1
    B2 = rng.standard_normal((2, 2)) * 0.1
    dt = 1e-2
    m = round(0.5 / dt)
    F = VectorTrajectory(sys_m, dt, rng.standard_normal((m + 1, 2)))
    G = VectorTrajectory(sys_m, dt, rng.standard_normal((m + 1, 2)))

    opsum = PerturbationOperator.matrix(B1 + 2.0 * B2)
    a = volterra_apply(sys_m, opsum, F, 0.5)
    b = (volterra_apply(sys_m, PerturbationOperator.matrix(B1), F, 0.5)
         + 2.0 * volterra_apply(sys_m, PerturbationOperator.matrix(B2), F, 0.5))
    assert np.max(np.abs(a - b)) < 1e-12 * max(1.0, np.max(np.abs(a)))

    FG = VectorTrajectory(sys_m, dt, F.nodes + G.nodes)
    op1 = PerturbationOperator.matrix(B1)
    c = volterra_apply(sys_m, op1, FG, 0.5)
    d = volterra_apply(sys_m, op1, F, 0.5) + volterra_apply(sys_m, op1, G, 0.5)
    assert np.max(np.abs(c - d)) < 1e-12 * max(1.0, np.max(np.abs(c)))


def test_volterra_rank_one_scales_with_measure_weight():
    dx = 1e-2
    t = 0.3
    base = delta_problem()
    scaled = delta_problem(weight=3)
    sys_t = make_system(base, dx, t, t)
    m = _lattice_steps(t, dx)
    vals = sys_t.sample(tent()).values
    F = VectorTrajectory(sys_t, dx, np.tile(vals, (m + 1, 1)))
    out1 = volterra_apply(sys_t, build_rank_one(base), F, t)
    out3 = volterra_apply(sys_t, build_rank_one(scaled), F, t)
    assert np.max(np.abs(out3.values - 3.0 * out1.values)) < 1e-13


def test_volterra_off_lattice_time_rejected():
    sys_m = diag_system()
    op = coupled_op()
    F = VectorTrajectory.orbit(sys_m, np.array([1.0, 0.0]), 0.5, 1e-2)
    with pytest.raises(StepMismatch):
        volterra_apply(sys_m, op, F, 0.1234567)


# ---------------------------------------------------------------------------
# norm estimate


def test_norm_estimate_zero_operator():
    sys_m = diag_system()
    op = PerturbationOperator.matrix(np.zeros((2, 2)))
    probes = matrix_probes(sys_m, 0.5, 1e-2)
    assert volterra_norm_estimate(sys_m, op, 0.5, 1e-2, probes) == 0.0


def test_norm_estimate_rank_one_below_analytic_bound():
    prob = delta_problem()
    t0 = 0.2
    dx = 4e-3
    sys_t = make_system(prob, dx, t0, t0)
    op = build_rank_one(prob)
    assert op.analytic_volterra_bound(sys_t, t0) == pytest.approx(0.4)
    probes = translation_probes(sys_t, t0, dx)
    est = volterra_norm_estimate(sys_t, op, t0, dx, probes)
    assert 0.0 < est <= 0.4 + 1e-12


def test_norm_estimate_scales_linearly_in_matrix():
    sys_m = diag_system()
    probes = matrix_probes(sys_m, 0.5, 1e-2, seed=3)
    B = np.array([[0.0, 0.2], [0.1, 0.0]])
    e1 = volterra_norm_estimate(sys_m, PerturbationOperator.matrix(B),
                                0.5, 1e-2, probes)
    e3 = volterra_norm_estimate(sys_m, PerturbationOperator.matrix(3.0 * B),
                                0.5, 1e-2, probes)
    assert e3 == pytest.approx(3.0 * e1, rel=1e-10)


def test_norm_estimate_rejects_long_probe():
    sys_m = diag_system()
    op = coupled_op()
    long_probe = VectorTrajectory.orbit(sys_m, np.array([1.0, 0.0]), 1.0, 1e-2)
    with pytest.raises(HorizonExceeded):
        volterra_norm_estimate(sys_m, op, 0.5, 1e-2, [long_probe])


# ---------------------------------------------------------------------------
# Neumann series


def test_neumann_zero_perturbation_matrix():
    sys_m = diag_system()
    op = PerturbationOperator.matrix(np.zeros((2, 2)))
    x = np.array([0.3, -1.1])
    out = neumann_semigroup(sys_m, op, x, 0.7, 0.5, 1e-2)
    want = sys_m.propagator(0.7) @ x
    assert np.max(np.abs(out - want)) < 1e-13


def test_neumann_zero_measure_is_translation():
    prob = delta_problem(weight=0)
    dx = 1e-2
    sys_t = make_system(prob, dx, 0.4, 0.2)
    op = build_rank_one(prob)
    out = neumann_semigroup(sys_t, op, prob.initial, 0.4, 0.2, dx)
    want = sys_t.sample(tent().translate(0.4)).values
    xs = sys_t.nodes()
    mask = (xs >= -3.0) & (xs <= 3.0)
    assert np.max(np.abs(out.values[mask] - want[mask])) < 1e-13


def test_neumann_matrix_exponential_oracle():
    sys_m = diag_system()
    op = coupled_op()
    S = scipy.linalg.expm(sys_m.A + op.matrix_data)
    for x in (np.array([1.0, 0.0]), np.array([0.0, 1.0]),
              np.array([0.6, -0.8])):
        out = neumann_semigroup(sys_m, op, x, 1.0, 0.5, 1e-3)
        assert np.max(np.abs(out - S @ x)) < 1e-6


def test_neumann_matrix_growth_bound_above_one():
    # spectral abscissa 1.2: no resolvent at 1 exists, and none is needed
    A = np.array([[1.2, 0.3], [0.0, -1.0]])
    B = 0.05 * np.eye(2)
    x = np.array([0.6, -0.8])
    out = neumann_semigroup(MatrixSystem(A), PerturbationOperator.matrix(B),
                            x, 0.4, 0.2, 1e-3)
    want = scipy.linalg.expm(0.4 * (A + B)) @ x
    assert np.max(np.abs(out - want)) <= 1e-6


def test_neumann_matrix_multi_segment_split():
    # t = 1.3, t0 = 0.5 -> rest 0.3 plus two full segments
    sys_m = diag_system()
    op = coupled_op()
    x = np.array([0.5, 0.5])
    out, diag = neumann_semigroup(sys_m, op, x, 1.3, 0.5, 1e-3,
                                  diagnostics=True)
    want = scipy.linalg.expm(1.3 * (sys_m.A + op.matrix_data)) @ x
    assert np.max(np.abs(out - want)) < 1e-6
    assert diag.segments == 3


def test_neumann_semigroup_law_matrix():
    sys_m = diag_system()
    op = coupled_op()
    x = np.array([1.0, -1.0])
    dt = 1e-3
    both = neumann_semigroup(sys_m, op, x, 0.9, 0.5, dt)
    inner = neumann_semigroup(sys_m, op, x, 0.4, 0.5, dt)
    outer = neumann_semigroup(sys_m, op, inner, 0.5, 0.5, dt)
    assert np.max(np.abs(both - outer)) < 1e-6


def test_neumann_semigroup_law_transport():
    prob = delta_problem()
    dx = 2e-3
    t0 = 0.2
    sys_t = make_system(prob, dx, 0.5, t0)
    op = build_rank_one(prob)
    both = neumann_semigroup(sys_t, op, prob.initial, 0.5, t0, dx)
    inner = neumann_semigroup(sys_t, op, prob.initial, 0.3, t0, dx)
    outer = neumann_semigroup(sys_t, op, inner, 0.2, t0, dx)
    gap = (both - outer).seminorm(prob.window)
    assert gap < 1e-3


def test_truncation_ratio_below_norm_estimate():
    prob = delta_problem()
    dx = 2e-3
    t0 = 0.2
    sys_t = make_system(prob, dx, t0, t0)
    op = build_rank_one(prob)
    probes = translation_probes(sys_t, t0, dx)
    est = volterra_norm_estimate(sys_t, op, t0, dx, probes)
    _, diag = neumann_nodes(sys_t, op, sys_t.sample(prob.initial), t0,
                            [_lattice_steps(t0, dx)], dx)
    # consecutive term-norm ratios after the first two terms
    tn = diag.term_norms
    ratios = [tn[i + 1] / tn[i] for i in range(2, len(tn) - 1)]
    assert ratios and max(ratios) <= est + 0.05


def test_neumann_guard_violation():
    prob = delta_problem()
    dx = 1e-2
    t0 = 0.6  # guard product 2 * 0.6 = 1.2
    sys_t = make_system(prob, dx, t0, t0)
    op = build_rank_one(prob)
    with pytest.raises(GuardViolation):
        neumann_semigroup(sys_t, op, prob.initial, t0, t0, dx)


def test_neumann_term_cap_respected():
    sys_m = diag_system()
    op = coupled_op()
    _, diag = neumann_semigroup(sys_m, op, np.array([1.0, 1.0]), 0.5, 0.5,
                                1e-2, diagnostics=True)
    assert diag.terms_used <= MAX_NEUMANN_TERMS


def test_neumann_matrix_term_cap_raises(monkeypatch):
    # tol = 0 is never reached, so the series runs into the term cap
    real = perturbation._volterra_matrix
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(perturbation, "_volterra_matrix", counted)
    with pytest.raises(NonConvergence, match=f"{MAX_NEUMANN_TERMS} terms"):
        neumann_semigroup(diag_system(), coupled_op(), np.array([1.0, 1.0]),
                          0.5, 0.5, 1e-2, tol=0.0)
    assert len(calls) == MAX_NEUMANN_TERMS


def test_neumann_matrix_one_step_exponential_per_series(monkeypatch):
    # one expm, for T(dt), shared by the orbit and every term, however
    # many terms the tolerance needs; the guard takes none
    real = semigroup.expm
    calls = []

    def counted(A):
        calls.append(A)
        return real(A)

    monkeypatch.setattr(semigroup, "expm", counted)
    counts, terms = [], []
    for tol in (1e-6, 1e-12):
        sys_m, op = diag_system(), coupled_op()
        calls.clear()
        _, diag = neumann_nodes(sys_m, op, np.array([1.0, 1.0]), 0.5,
                                [0, 50], 1e-2, tol=tol)
        counts.append(len(calls))
        terms.append(diag.terms_used)
    assert terms[1] > terms[0]
    assert counts == [1, 1]
    # the system keeps the prepared T(dt): a repeat series makes no
    # exponential
    calls.clear()
    neumann_nodes(sys_m, op, np.array([1.0, 1.0]), 0.5, [0, 50], 1e-2)
    assert len(calls) == 0


def test_matrix_checks_prepare_one_step_per_dt(monkeypatch):
    # orbits and Volterra applications share the system's T(dt): the
    # identity check makes one exponential for its one dt (nine before),
    # admissibility one for dt (six before)
    A, op = np.diag([-1.0, -2.0]), coupled_op()
    x = np.array([1.0, 0.5])
    probes = matrix_probes(MatrixSystem(A), 0.2, 1e-2)
    system = MatrixSystem(A)
    calls = _count_expm(monkeypatch)
    want = identity_check(system, op, 2, 0.13, 0.21, x, 1e-2)
    assert len(calls) == 1
    assert identity_check(system, op, 2, 0.13, 0.21, x, 1e-2) == want
    assert len(calls) == 1
    calls.clear()
    admissibility_check(MatrixSystem(A), op, 0.2, 1e-2, probes)
    assert len(calls) == 1
    # the step is the one T(dt) of propagator, bit for bit
    assert system.step(1e-2).power(0).tobytes() \
        == system.propagator(1e-2).T.tobytes()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_matrix_perturbation_refuses_non_finite_entries(bad):
    B = np.zeros((3, 3))
    B[1, 2] = B[2, 0] = bad
    with pytest.raises(ValueError, match="B: 2 of 9 entries are NaN or Inf"):
        PerturbationOperator.matrix(B)


def test_huge_generator_raises_by_its_first_series_or_validate():
    # 1e300 I is accepted at construction; its first series is refused
    # by its guard of inf, and validate and a B = 0 series over 800 I
    # raise, never returning NaN, each naming the first time whose
    # exponential overflows
    A = 1e300 * np.eye(2)
    op = PerturbationOperator.matrix(0.1 * np.eye(2))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(GuardViolation, match="Volterra bound inf >= 1"):
            neumann_semigroup(MatrixSystem(A), op, np.ones(2), 0.5, 0.5,
                              1e-2)
        with pytest.raises(ValueError, match=r"T\(t\) at t = 0\.1: 4 of 4"):
            validate(MatrixSystem(A))
        # T(1/64) = e^12.5 I is finite, but T(1) = e^800 I overflows in
        # the orbit of the identity (65 nodes of 2 x 2), which a B = 0
        # guard of 0.0 lets the series reach
        with pytest.raises(ValueError, match=r"T\(j dt\) x at dt = "
                           r"0\.015625, j <= 64: \d+ of 260 entries"):
            neumann_semigroup(MatrixSystem(800.0 * np.eye(2)),
                              PerturbationOperator.matrix(np.zeros((2, 2))),
                              np.ones(2), 1.0, 1.0, 1.0 / 64)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_neumann_refuses_non_finite_matrix_state(bad):
    with pytest.raises(ValueError, match="1 of 2 entries are NaN or Inf"):
        neumann_semigroup(diag_system(), coupled_op(), np.array([bad, 1.0]),
                          0.5, 0.5, 1e-2)


def test_neumann_refuses_non_finite_transport_state():
    prob = delta_problem()
    dx, t0 = 1e-2, 0.2
    sys_t = make_system(prob, dx, t0, t0)
    vals = sys_t.sample(prob.initial).values.copy()
    vals[5] = math.nan
    with pytest.raises(ValueError, match=f"1 of {vals.size} entries"):
        neumann_nodes(sys_t, build_rank_one(prob), sys_t.make(vals), t0,
                      [_lattice_steps(t0, dx)], dx)


@pytest.mark.parametrize("bad", [math.nan, -1.0])
def test_neumann_refuses_nan_or_negative_tol(bad):
    with pytest.raises(ValueError, match="tol must be a nonnegative"):
        neumann_semigroup(diag_system(), coupled_op(), np.array([1.0, 1.0]),
                          0.5, 0.5, 1e-2, tol=bad)


@pytest.mark.parametrize("kind", ["matrix", "rank_one"])
def test_neumann_semigroup_computes_the_guard_once(monkeypatch, kind):
    # t = 2 is four full segments of t0 = 0.5 under one analytic guard
    real = PerturbationOperator.analytic_volterra_bound
    horizons = []

    def counted(self, system, t0):
        horizons.append(t0)
        return real(self, system, t0)

    monkeypatch.setattr(PerturbationOperator, "analytic_volterra_bound",
                        counted)
    if kind == "matrix":
        system, op, x, dt = diag_system(), coupled_op(), np.ones(2), 1e-2
    else:
        prob = TransportProblem(BoundedMeasure.dirac(0, Fraction(1, 2)),
                                canonical_profile(), tent())
        dt = 1e-2
        system = make_system(prob, dt, 2.0, 0.5)
        op, x = build_rank_one(prob), prob.initial
    _, diag = neumann_semigroup(system, op, x, 2.0, 0.5, dt,
                                diagnostics=True)
    assert horizons == [0.5]
    assert diag.segments == 4
    assert diag.guard_bound == real(op, system, 0.5)


def _count_series(monkeypatch):
    """The terms_used of each series run, in order."""
    real = perturbation._neumann_sum
    terms = []

    def counted(*args):
        total, diag = real(*args)
        terms.append(diag.terms_used)
        return total, diag

    monkeypatch.setattr(perturbation, "_neumann_sum", counted)
    return terms


def test_matrix_segments_shared_by_horizons_run_once(monkeypatch):
    # one matrix-oracle unit: t = 0.5, 1, 2 at t0 = 0.5, dt = 1e-3, then
    # t = 0.5 at dt = 2e-3; every segment of one length is one operator,
    # so 2 series run on one operator and 4 on fresh ones
    A, B = random_stable_pair(4, 5)
    x = np.random.default_rng(5).standard_normal(4)
    runs = [(0.5, 1e-3), (1.0, 1e-3), (2.0, 1e-3), (0.5, 2e-3)]
    calls = _count_series(monkeypatch)
    system, op = MatrixSystem(A), PerturbationOperator.matrix(B)
    got = [neumann_semigroup(system, op, x, t, 0.5, dt, tol=1e-6,
                             diagnostics=True) for t, dt in runs]
    assert len(calls) == 2
    calls.clear()
    for (t, dt), (state, diag) in zip(runs, got):
        want, want_diag = neumann_semigroup(
            MatrixSystem(A), PerturbationOperator.matrix(B), x, t, 0.5, dt,
            tol=1e-6, diagnostics=True)
        assert (state == want).all() and diag == want_diag
    assert len(calls) == 4


def test_matrix_oracle_pass_runs_one_series_per_segment_operator(
        monkeypatch):
    # the matrix-oracle pass: ten 4 x 4 pairs, each at t = 0.5, 1, 2 with
    # t0 = 0.5, dt = 1e-3, then t = 0.5 at dt = 2e-3, 80 segments in all;
    # each pair runs two segment operators (50 series when a segment ran
    # once per distinct state), each of five terms
    terms = _count_series(monkeypatch)
    for seed in range(10):
        A, B = random_stable_pair(4, seed)
        x = np.random.default_rng(seed).standard_normal(4)
        system, op = MatrixSystem(A), PerturbationOperator.matrix(B)
        for t, dt in [(0.5, 1e-3), (1.0, 1e-3), (2.0, 1e-3), (0.5, 2e-3)]:
            got = neumann_semigroup(system, op, x, t, 0.5, dt)
            want = scipy.linalg.expm(t * (A + B)) @ x
            assert np.max(np.abs(got - want)) < 1e-5
    assert terms == [5] * 20


@settings(max_examples=40, deadline=None, database=None)
@given(n=st.integers(1, 6), seed=st.integers(0, 50),
       k=st.sampled_from([None, 1, 3]), m=st.sampled_from([1, 7, 32]))
def test_matrix_segment_operator_serves_every_state(n, seed, k, m):
    # one series per segment operator: S(j dt) x is its identity table
    # applied to x, bit for bit, a second state runs no series, and each
    # recorded size s_k bounds the state's term at every node j:
    # ||(V^k T x)[j]||_2 <= s_k ||x||_2, spectral norms for n x k states
    A, B = random_stable_pair(n, seed)
    dt = 1 / 64
    system, op = MatrixSystem(A), PerturbationOperator.matrix(B)
    rng = np.random.default_rng(seed)
    shape = (n,) if k is None else (n, k)
    states = [rng.standard_normal(shape), 1e3 * rng.standard_normal(shape)]
    steps = [0, m // 2, m]
    with pytest.MonkeyPatch.context() as mp:
        calls = _count_series(mp)
        table, diag = neumann_nodes(system, op, np.eye(n), m * dt, steps,
                                    dt)
        for x in states:
            nodes, x_diag = neumann_nodes(system, op, x, m * dt, steps, dt)
            assert all(np.array_equal(a, S @ x)
                       for a, S in zip(nodes, table))
            assert x_diag == diag
    assert len(calls) == 1
    E = system.propagator(dt)
    for x in states:
        impulse = np.zeros((m + 1,) + shape)
        impulse[0] = x
        term = lattice_scan_one_operand(E, impulse)
        for size in diag.term_norms:
            worst = max(np.linalg.norm(node, 2) for node in term)
            assert worst <= size * np.linalg.norm(x, 2) * (1 + 1e-12)
            term = volterra_matrix_stacked(E, B, term, dt)


def test_matrix_segment_memo_keys_on_the_guard_and_tol(monkeypatch):
    # the same 250 steps from x run again under the guard of another t0
    # or another tol; the four segments used last are kept
    system, op, x = diag_system(), coupled_op(), np.array([1.0, -0.5])
    calls = _count_series(monkeypatch)
    for t0, tol in [(0.5, 1e-9), (0.25, 1e-9), (0.5, 1e-6), (0.5, 1e-9)]:
        neumann_semigroup(system, op, x, 0.25, t0, 1e-3, tol=tol)
    assert len(calls) == 3
    for dt in (1e-2, 2e-2, 5e-2, 1e-1):
        neumann_semigroup(system, op, x, 0.5, 0.5, dt)
    assert len(calls) == 7
    neumann_semigroup(system, op, x, 0.5, 0.5, 1e-1)
    assert len(calls) == 7
    neumann_semigroup(system, op, x, 0.25, 0.5, 1e-3)
    assert len(calls) == 8


def test_matrix_segment_memo_returns_copies(monkeypatch):
    # what a caller mutates, state, node or diagnostics, a later hit
    # does not see
    system, op, x = diag_system(), coupled_op(), np.array([1.0, -0.5])
    calls = _count_series(monkeypatch)
    state, diag = neumann_semigroup(system, op, x, 0.5, 0.5, 1e-3,
                                    diagnostics=True)
    nodes, node_diag = neumann_nodes(system, op, x, 0.5, [0, 500], 1e-3)
    assert len(calls) == 2
    keep = (state.copy(), copy.deepcopy(diag), [n.copy() for n in nodes],
            copy.deepcopy(node_diag))
    assert all(a.flags.writeable for a in [state, *nodes])
    state[:] = 7.0
    nodes[1][0] = 7.0
    for d in (diag, node_diag):
        d.term_norms.append(1.0)
        d.terms_used = 0
    again = neumann_semigroup(system, op, x, 0.5, 0.5, 1e-3,
                              diagnostics=True)
    again_nodes, again_diag = neumann_nodes(system, op, x, 0.5, [0, 500],
                                            1e-3)
    assert len(calls) == 2
    assert (again[0] == keep[0]).all() and again[1] == keep[1]
    assert all((a == b).all() for a, b in zip(again_nodes, keep[2]))
    assert again_diag == keep[3]


def test_neumann_semigroup_at_time_zero():
    x = np.array([1.0, -1.0])
    out, diag = neumann_semigroup(diag_system(), coupled_op(), x, 0.0, 0.5,
                                  1e-2, diagnostics=True)
    assert np.array_equal(out, x)
    assert (diag.segments, diag.terms_used, diag.term_norms) == (0, 0, [])
    assert diag.guard_bound == coupled_op().analytic_volterra_bound(
        diag_system(), 0.5)
    with pytest.raises(ValueError, match="tol must be a nonnegative"):
        neumann_semigroup(diag_system(), coupled_op(), x, 0.0, 0.5, 1e-2,
                          tol=math.nan)


@pytest.mark.parametrize("t0", [0.0, 1e-12])
def test_neumann_semigroup_refuses_t0_below_one_step(t0):
    # no full segment fits in t0: refused by name, not divided by zero
    A, B = random_stable_pair(3, 1)
    with pytest.raises(StepMismatch, match=f"t0={t0!r} is shorter than "
                       r"one step dt=0\.001"):
        neumann_semigroup(MatrixSystem(A), PerturbationOperator.matrix(B),
                          np.ones(3), 1.0, t0, 1e-3)


_LATTICE_CALLS = {
    "neumann_semigroup": lambda t, dt: neumann_semigroup(
        diag_system(), coupled_op(), np.ones(2), t, 0.5, dt),
    "neumann_nodes": lambda t, dt: neumann_nodes(
        diag_system(), coupled_op(), np.ones(2), t, [0], dt),
    "orbit": lambda t, dt: VectorTrajectory.orbit(
        diag_system(), np.ones(2), t, dt),
    "from_callable": lambda t, dt: VectorTrajectory.from_callable(
        diag_system(), lambda s: np.ones(2), t, dt),
    "step_of": lambda t, dt: VectorTrajectory(
        diag_system(), dt, np.zeros((3, 2))).step_of(t),
    "oracle_weights": lambda t, dt: oracle_weights(
        BoundedMeasure.dirac(0), canonical_profile(), tent(), t, dt),
}


@pytest.mark.parametrize("t, dt, message", [
    (0.5, 0.0, "dt must be positive and finite, got 0.0"),
    (0.5, -1e-2, "dt must be positive and finite, got -0.01"),
    (0.5, math.nan, "dt must be positive and finite, got nan"),
    (0.5, math.inf, "dt must be positive and finite, got inf"),
    (math.nan, 1e-2, "must be finite, got nan"),
    (math.inf, 1e-2, "must be finite, got inf"),
    (1e300, 1e-10, "1e+300 is past the float range of steps of dt=1e-10"),
    (1e300, 1e-3, "1e+300 is 1e+303 steps of dt=0.001, past the ceiling of "
     "10000000 steps"),
], ids=["zero", "negative", "nan-dt", "inf-dt", "nan-t", "inf-t",
        "overflow", "ceiling"])
@pytest.mark.parametrize("call", sorted(_LATTICE_CALLS))
def test_lattice_rule_refuses_by_name(call, t, dt, message):
    # not ZeroDivisionError, OverflowError or numpy's "cannot convert
    # float NaN to integer"
    with pytest.raises(StepMismatch, match=re.escape(message)):
        _LATTICE_CALLS[call](t, dt)


_EDGE_TIMES = [0.0, 1e-12, math.nan, math.inf, -math.inf, -0.5, 0.25, 0.5,
               1.0, 0.5005, 1 / 3]
_EDGE_STEPS = [0.0, 1e-12, math.nan, math.inf, -math.inf, -1e-2, 1e-2,
               2.5e-2, 1 / 30, 0.1]
_times = st.one_of(st.sampled_from(_EDGE_TIMES), st.floats(-1.0, 4.0))
_steps = st.one_of(st.sampled_from(_EDGE_STEPS), st.floats(1e-3, 0.5))


def _at_most(a, b, bound):
    """False when a / b is finite and above bound: a draw the library
    would run at that many steps or segments, not refuse."""
    with np.errstate(all="ignore"):
        r = abs(np.float64(a) / np.float64(b))
    return not (np.isfinite(r) and r > bound)


@settings(max_examples=80, deadline=None)
@given(n=st.sampled_from([2, 3]), seed=st.integers(0, 20), t=_times,
       t0=_times, dt=_steps)
def test_neumann_semigroup_draw_works_or_is_refused_by_name(n, seed, t, t0,
                                                             dt):
    # at most 512 steps a segment and t / t0 <= 64 segments
    assume(_at_most(t0, dt, 512) and _at_most(t, t0, 64))
    A, B = random_stable_pair(n, seed)
    try:
        out = neumann_semigroup(MatrixSystem(A),
                                PerturbationOperator.matrix(B), np.ones(n),
                                t, t0, dt)
    except (StepMismatch, HorizonExceeded, GuardViolation, NonConvergence):
        return
    assert out.shape == (n,) and np.isfinite(out).all()


@settings(max_examples=80, deadline=None)
@given(t=_times, dt=_steps)
def test_oracle_weights_draw_works_or_is_refused_by_name(t, dt):
    assume(_at_most(t, dt, 4096))
    prob = delta_problem()
    try:
        phi = oracle_weights(prob.measure, prob.profile, prob.initial, t, dt)
    except (StepMismatch, StepSizeError):
        return
    assert phi.ndim == 1 and np.isfinite(phi).all()


def test_grid_state_from_another_grid_is_refused():
    # 645 and 665 nodes: a state sampled on one is refused by the other,
    # not cut to its length or slid over as a window
    prob = delta_problem()
    small = make_system(prob, 1e-2, 0.2, 0.2)
    big = make_system(prob, 1e-2, 0.4, 0.2)
    op = build_rank_one(prob)
    assert (small.count, big.count) == (645, 665)
    for here, there in ((small, big), (big, small)):
        x = there.sample(tent())
        calls = (
            lambda: VectorTrajectory.orbit(here, x, 0.2, 1e-2),
            lambda: neumann_semigroup(here, op, x, 0.2, 0.2, 1e-2),
            lambda: neumann_nodes(here, op, x, 0.2, [20], 1e-2),
        )
        for call in calls:
            with pytest.raises(ValueError,
                               match="does not live on this system's grid"):
                call()
    orbit = VectorTrajectory.orbit(small, small.sample(tent()), 0.2, 1e-2)
    assert orbit.nodes.shape == (21, 645)


def test_raw_node_values_are_refused_as_grid_state():
    # node values of the right length are still not a grid state
    prob = delta_problem()
    system = make_system(prob, 1e-2, 0.2, 0.2)
    op = build_rank_one(prob)
    x = np.zeros(system.count)
    calls = (
        lambda: VectorTrajectory.orbit(system, x, 0.2, 1e-2),
        lambda: neumann_semigroup(system, op, x, 0.2, 0.2, 1e-2),
    )
    for call in calls:
        with pytest.raises(ValueError,
                           match="state of type ndarray is not a grid "
                                 "function"):
            call()


@pytest.mark.parametrize("x", [np.ones(3), np.ones((3, 2)), np.ones(()),
                               np.ones((2, 2, 2))],
                         ids=["length-3", "3x2", "scalar", "2x2x2"])
def test_matrix_state_of_wrong_shape_is_refused(x):
    sys_m, op = diag_system(), coupled_op()
    calls = (
        lambda: VectorTrajectory.orbit(sys_m, x, 0.1, 1e-2),
        lambda: neumann_semigroup(sys_m, op, x, 0.1, 0.1, 1e-2),
        lambda: neumann_nodes(sys_m, op, x, 0.1, [10], 1e-2),
    )
    for call in calls:
        with pytest.raises(ValueError,
                           match=r"does not live on this system's R\^2"):
            call()


# each entry point refuses an operator on the other kind's system
PAIRED_CALLS = {
    "neumann_semigroup":
        lambda s, op, x: neumann_semigroup(s, op, x, 0.2, 0.2, 1e-2),
    "neumann_nodes":
        lambda s, op, x: neumann_nodes(s, op, x, 0.2, [20], 1e-2),
    "volterra_trajectory": lambda s, op, x: volterra_trajectory(
        s, op, VectorTrajectory.orbit(s, x, 0.2, 1e-2)),
    "admissibility_check": lambda s, op, x: admissibility_check(
        s, op, 0.2, 1e-2, [VectorTrajectory.orbit(s, x, 0.2, 1e-2)]),
    "generator_check":
        lambda s, op, x: generator_check(s, op, x, [1e-2], 1e-2, 0.2),
}


@pytest.mark.parametrize("call", PAIRED_CALLS.values(), ids=PAIRED_CALLS)
@pytest.mark.parametrize("kind", ["matrix-on-grid", "rank-one-on-R^n"])
def test_mismatched_system_and_operator_are_refused_by_name(call, kind):
    prob = delta_problem()
    if kind == "matrix-on-grid":
        system = make_system(prob, 1e-2, 0.2, 0.2)
        op, x = coupled_op(), system.sample(tent())
        want = "MatrixOperator acts on a MatrixSystem, not on a " \
               "TranslationSystem"
    else:
        system, op, x = diag_system(), build_rank_one(prob), np.ones(2)
        want = "RankOneOperator acts on a TranslationSystem, not on a " \
               "MatrixSystem"
    with pytest.raises(TypeError, match=want):
        call(system, op, x)


# ---------------------------------------------------------------------------
# composition identity


def test_identity_order_zero_exact():
    sys_m = diag_system()
    op = coupled_op()
    r = identity_check(sys_m, op, 0, 0.2, 0.3, np.array([1.0, -0.5]), 1e-2)
    assert r < 1e-12

    prob = delta_problem()
    sys_t = make_system(prob, 1e-2, 0.5, 0.5)
    rt = identity_check(sys_t, build_rank_one(prob), 0, 0.2, 0.3,
                        prob.initial, 1e-2)
    assert rt < 1e-12


def test_identity_zero_perturbation_any_order():
    sys_m = diag_system()
    op = PerturbationOperator.matrix(np.zeros((2, 2)))
    for n in (1, 2, 3):
        assert identity_check(sys_m, op, n, 0.2, 0.2, np.array([1.0, 2.0]),
                              1e-2) < 1e-14


def test_identity_exact_on_lattice_times():
    # with s, t, s+t all on the time lattice the trapezoid split is exact,
    # so the discrete identity holds to rounding at any step
    sys_m = diag_system()
    op = coupled_op()
    x = np.array([1.0, 1.0])
    for n in (1, 2):
        assert identity_check(sys_m, op, n, 0.2, 0.3, x, 1e-2) < 1e-14


def test_identity_matrix_refinement_second_order():
    # off-lattice s and t probe the genuine quadrature error; keeping the
    # offsets at half a cell per level pins the error constant
    sys_m = diag_system()
    op = coupled_op()
    x = np.array([1.0, 1.0])
    for n in (1, 2):
        res = [identity_check(sys_m, op, n, 0.152 + 0.5 * dt,
                              0.252 + 0.5 * dt, x, dt)
               for dt in (4e-3, 2e-3, 1e-3)]
        assert res[0] / res[1] > 3.5
        assert res[1] / res[2] > 3.5


def test_identity_rank_one_small_residual():
    prob = delta_problem()
    dx = 2e-3
    sys_t = make_system(prob, dx, 0.2, 0.2)
    op = build_rank_one(prob)
    r = identity_check(sys_t, op, 1, 0.1, 0.1, prob.initial, dx)
    assert r < 1e-4


def test_identity_order_capped():
    sys_m = diag_system()
    with pytest.raises(ValueError):
        identity_check(sys_m, coupled_op(), 5, 0.1, 0.1,
                       np.array([1.0, 0.0]), 1e-2)


# ---------------------------------------------------------------------------
# variation of parameters


def test_varpar_zero_perturbation():
    sys_m = diag_system()
    op = PerturbationOperator.matrix(np.zeros((2, 2)))
    x = np.array([0.4, 0.9])
    r = varpar_residual(sys_m, op, lambda r_: sys_m.propagator(r_) @ x,
                        1.0, x, 1e-2)
    assert r < 1e-14


def test_varpar_matrix_oracle():
    sys_m = diag_system()
    op = coupled_op()
    x = np.array([1.0, 0.0])
    C = sys_m.A + op.matrix_data
    r = varpar_residual(sys_m, op, lambda r_: scipy.linalg.expm(r_ * C) @ x,
                        1.0, x, 1e-3)
    assert r < 1e-6


def _oracle_route(prob, dx, t):
    """The transport varpar setup: grid, operator and the renewal oracle
    S(r) x at lattice times r, from one set of weights."""
    system = make_system(prob, dx, t, 0.2)
    phi = oracle_weights(prob.measure, prob.profile, prob.initial, t, dx)

    def oracle_at(r):
        k = int(round(r / dx))
        return oracle_solution(prob.measure, prob.profile, prob.initial,
                               system, r, phi=phi[:k + 1])
    return system, build_rank_one(prob), oracle_at


@pytest.mark.parametrize("kind", ["matrix", "rank_one"])
def test_varpar_residual_matches_stacked_route(kind):
    # the one table and the last orbit row give the residual of the list
    # stack and the copied orbit table, ==
    if kind == "matrix":
        system, op, x = diag_system(), coupled_op(), np.array([1.0, 0.3])
        C = system.A + op.matrix_data
        args = (lambda r: scipy.linalg.expm(r * C) @ x, 0.7, x, 1e-2)
    else:
        prob = delta_problem()
        system, op, oracle_at = _oracle_route(prob, 1e-2, 0.5)
        args = (oracle_at, 0.5, prob.initial, 1e-2)
    got = varpar_residual(system, op, *args)
    assert got == varpar_residual_stacked(system, op, *args)
    assert 0 < got < 1e-2


def test_varpar_transport_peak_memory_is_one_table():
    # the benchmark's varpar setup: Dirac at 0, dx = 2e-3, t = 0.5; the
    # check holds one 251 x count table (6.42 MiB) and little else (the
    # stacked route peaks at 2.05 tables).  The oracle's hat-moment memo
    # is filled first, as every pass after the first finds it.
    prob = delta_problem()
    dx, t = 2e-3, 0.5
    system, op, oracle_at = _oracle_route(prob, dx, t)
    oracle_at(t)
    table = 251 * system.count * 8
    tracemalloc.start()
    try:
        varpar_residual(system, op, oracle_at, t, prob.initial, dx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert system.count == 3355
    assert peak < 1.15 * table


def test_from_callable_refuses_a_row_of_another_shape():
    sys_m = diag_system()
    with pytest.raises(ValueError, match=r"step 3 \(t = 0\.03.*\) gives a "
                       r"row of shape \(3,\), step 0 one of shape \(2,\)"):
        VectorTrajectory.from_callable(
            sys_m, lambda r: np.ones(2 if r < 0.025 else 3), 0.05, 1e-2)
    traj = VectorTrajectory.from_callable(
        sys_m, lambda r: np.array([r, 1.0]), 0.05, 1e-2)
    assert traj.nodes.tobytes() == np.array(
        [[j * 1e-2, 1.0] for j in range(6)]).tobytes()


# ---------------------------------------------------------------------------
# admissibility


def test_admissibility_zero_operator():
    sys_m = diag_system()
    op = PerturbationOperator.matrix(np.zeros((2, 2)))
    probes = matrix_probes(sys_m, 0.5, 1e-2)
    rep = admissibility_check(sys_m, op, 0.5, 1e-2, probes)
    assert rep.admissible
    assert rep.smallness_observed == 0.0
    assert rep.volterra_norm_lower_bound == 0.0


def test_admissibility_rank_one_pass_then_fail():
    prob = delta_problem()
    dx = 4e-3
    reports = {}
    for t0 in (0.2, 0.3):
        sys_t = make_system(prob, dx, t0, t0)
        op = build_rank_one(prob)
        probes = translation_probes(sys_t, t0, dx)
        reports[t0] = admissibility_check(sys_t, op, t0, dx, probes)
    ok = reports[0.2]
    assert ok.admissible
    assert ok.smallness_analytic == pytest.approx(0.4)
    assert ok.smallness_observed <= 0.4 + 1e-12
    assert ok.lands_in_state_space
    assert ok.worst_reconstruction_residual <= 50 * dx
    assert ok.volterra_norm_lower_bound <= ok.smallness_analytic + 1e-12

    bad = reports[0.3]
    assert not bad.smallness_pass
    assert bad.smallness_analytic == pytest.approx(0.6)
    assert not bad.admissible


def test_admissibility_one_volterra_trajectory_per_probe(monkeypatch):
    sys_m, op = diag_system(), coupled_op()
    t0, dt = 0.5, 1e-3
    probes = matrix_probes(sys_m, t0, dt)
    real = perturbation._volterra_matrix
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(perturbation, "_volterra_matrix", counted)
    rep = admissibility_check(sys_m, op, t0, dt, probes)
    assert len(probes) == 5
    assert len(calls) == 5
    monkeypatch.undo()

    # reference: the battery read node by node with volterra_apply
    m = 500
    obs = lower = 0.0
    for F in probes:
        fn = F.norm()
        out = volterra_apply(sys_m, op, F, t0)
        obs = max(obs, float(np.max(np.abs(out))) / fn)
        for j in sorted({max(1, m // 4), m // 2, 3 * m // 4, m}):
            v = volterra_apply(sys_m, op, F, j * dt)
            lower = max(lower, float(np.max(np.abs(v))) / fn)
    analytic = op.analytic_volterra_bound(sys_m, t0)
    want = AdmissibilityReport(
        lands_in_state_space=True, worst_reconstruction_residual=0.0,
        seminorm_constant=obs, seminorm_window=(-math.inf, math.inf),
        smallness_observed=obs, smallness_analytic=analytic,
        smallness_pass=max(obs, analytic) < 0.5,
        volterra_norm_lower_bound=lower, probes_used=5)
    assert rep.to_dict() == want.to_dict()


def test_admissibility_pairs_each_rank_one_probe_once(monkeypatch):
    prob = delta_problem()
    dx, t0 = 4e-3, 0.2
    sys_t = make_system(prob, dx, t0, t0)
    probes = translation_probes(sys_t, t0, dx)
    real = perturbation.pair_rows
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(perturbation, "pair_rows", counted)
    rep = admissibility_check(sys_t, build_rank_one(prob), t0, dx, probes)
    assert len(probes) == 8
    assert len(calls) == 8
    # pinned from the implementation that paired every probe twice, then
    # moved by about 1 ulp when the engine took its node values from the
    # one reconstruction product (0.38 became 0.37999999999999995) and the
    # regularized route became one product (0.0020000000000032214 became
    # 0.002000000000003197), then by 7e-18 when the grid lost its left
    # margin and the FFT products their length (0.00200000000000319)
    assert rep.to_dict() == {
        "lands_in_state_space": True,
        "worst_reconstruction_residual": 0.00200000000000319,
        "seminorm_constant": 0.37999999999999995,
        "seminorm_window": [-3.0, 3.0],
        "smallness_observed": 0.37999999999999995,
        "smallness_analytic": 0.4, "smallness_pass": True,
        "volterra_norm_lower_bound": 0.37999999999999995,
        "probes_used": 8, "admissible": True}


def test_regularized_gap_matches_the_per_step_loop():
    # the regularized route is one product of the trapezoid-weighted
    # pairings with the shifted regularizer rows; the loop of m + 1
    # whole-grid axpys it replaced is the reference, to rounding
    prob = delta_problem()
    dx, t0 = 2e-3, 0.2
    sys_t = make_system(prob, dx, t0, t0)
    m = _lattice_steps(t0, dx)
    phi = np.cos(3.0 * dx * np.arange(m + 1))
    shifted = sys_t.orbit_rows(sys_t.sample(prob.regularizer).values, m, dx)
    u = np.zeros(sys_t.count)
    for j in range(m + 1):
        u += (0.5 if j in (0, m) else 1.0) * phi[j] * shifted[m - j]
    want = sys_t.seminorm(semigroup.reconstruct(sys_t, sys_t.make(dx * u))
                          .values)
    got = build_rank_one(prob)._regularized_gap(sys_t, phi, dx,
                                                np.zeros(sys_t.count))
    assert want > 0.1 and abs(got - want) <= 1e-13 * want


def test_admissibility_rank_one_nodes_match_per_node_reference(monkeypatch):
    prob = delta_problem()
    dx, t0 = 4e-3, 0.2
    sys_t = make_system(prob, dx, t0, t0)
    op = build_rank_one(prob)
    probes = translation_probes(sys_t, t0, dx)
    rep = admissibility_check(sys_t, op, t0, dx, probes)
    real = perturbation._convolved_nodes
    monkeypatch.setattr(perturbation, "_convolved_nodes",
                        lambda s, o, phi, dt, steps:
                        [real(s, o, phi, dt, [m])[0] for m in steps])
    ref = admissibility_check(sys_t, op, t0, dx, probes)
    assert rep.to_dict() == ref.to_dict()


def with_edge(values, edge):
    """Random grid data as drawn ("constant": nonzero edge values that the
    grid continues), or with both edge entries zeroed, so that reads
    beyond the grid give 0 ("zero"), as on every ``make_system`` grid."""
    values = np.array(values)
    if edge == "zero":
        values[..., [0, -1]] = 0.0
    return values


@pytest.mark.parametrize("edge", ["constant", "zero"])
def test_pair_rows_off_lattice_matches_per_row_eval(edge):
    sys_t = TranslationSystem(-1.0, 0.1, 21, 0.2)
    rows = with_edge(np.random.default_rng(5).standard_normal((7, 21)), edge)
    # off the lattice inside the grid, then beyond either edge
    for loc in (Fraction(1, 3), 1.25, -1.35):
        got = pair_rows(BoundedMeasure.dirac(loc, 0.7), sys_t, rows)
        want = [0.7 * float(sys_t.make(r).eval(float(loc))) for r in rows]
        assert np.array_equal(got, want)
    # beyond either edge a row reads its edge value
    for loc, col in ((1.25, -1), (-1.35, 0)):
        got = pair_rows(BoundedMeasure.dirac(loc, 1.0), sys_t, rows)
        assert np.array_equal(got, rows[:, col])


def test_translation_probes_share_read_only_rows():
    # the constant and the three static probes are broadcast views of one
    # row, equal bit for bit to the tiled tables they replace; the orbits
    # are views of the system's orbit window, equal bit for bit to the
    # copies of it they replace; every table is read-only
    prob = delta_problem()
    dx, t0 = 1e-2, 0.2
    system = make_system(prob, dx, t0, t0)
    probes = translation_probes(system, t0, dx)
    shapes = [tent(), tent().translate(-1.5), tent().translate(1.0)]
    rows = [system.sample(s).values for s in shapes]
    want = [np.ones((21, system.count))]
    for row in rows:
        want += [np.tile(row, (21, 1)),
                 VectorTrajectory.orbit(system, system.make(row), t0,
                                        dx).nodes]
    want.append(np.array([np.cos(3.0 * j * dx) * rows[0]
                          for j in range(21)]))
    assert len(probes) == 8
    for probe, table in zip(probes, want):
        assert not probe.nodes.flags.writeable
        assert probe.nodes.shape == table.shape
        assert probe.nodes.tobytes() == table.tobytes()


def test_admissibility_samples_the_regularizer_once_per_grid(monkeypatch):
    # one sample of the regularized profile per (operator, grid), however
    # many probes and checks read it
    prob = delta_problem()
    dx, t0 = 1e-2, 0.2
    real = semigroup._sample_nodes
    sampled = []

    def spy(f, *args):
        sampled.append(f)
        return real(f, *args)

    monkeypatch.setattr(semigroup, "_sample_nodes", spy)
    systems = [make_system(prob, h, t0, t0) for h in (dx, dx / 2)]
    ops = [build_rank_one(prob), build_rank_one(prob)]
    for op in ops:
        for system in systems + systems:
            h = system.spacing
            admissibility_check(system, op, t0, h,
                                translation_probes(system, t0, h))
    regs = [f for f in sampled if f is prob.regularizer]
    assert len(regs) == len(ops) * len(systems)



@pytest.mark.parametrize("edge", ["constant", "zero"])
@pytest.mark.parametrize("k", [1, 3])
def test_translation_orbit_matches_per_row_shift(k, edge):
    sys_t = TranslationSystem(-1.0, 0.1, 21, 0.2)
    vals = with_edge(np.random.default_rng(3).standard_normal(sys_t.count),
                     edge)
    m = 10  # for k = 3 the last rows lie past the grid edge
    F = VectorTrajectory.orbit(sys_t, sys_t.make(vals), m * k * 0.1, k * 0.1)
    want = [shift_values(vals, j * k) for j in range(m + 1)]
    assert np.array_equal(F.nodes, want)
    assert F.nodes.flags.writeable


class _FirstTerm(Exception):
    pass


def series_first_term(mp, system, op, x, t0, dt):
    """The first pairings that neumann_nodes hands to the rank-one
    segment operator; neither its guard nor its series is run, since a
    drawn measure may put the guard past 1."""
    def no_series(total, term, apply_v, size, base, tol, guard):
        return total, perturbation.SeriesDiagnostics(1, [base], guard)

    def stop(series, phi0):
        raise _FirstTerm(phi0)

    mp.setattr(perturbation, "_series_guard", lambda *args: 0.0)
    mp.setattr(perturbation, "_neumann_sum", no_series)
    mp.setattr(perturbation, "_renewal_weights", stop)
    with pytest.raises(_FirstTerm) as caught:
        neumann_nodes(system, op, x, t0, [0], dt)
    return caught.value.args[0]


def assert_first_term_pairs_orbit(system, measure, vals, m):
    dt = system.spacing
    x = system.make(vals)
    op = PerturbationOperator.rank_one(measure, canonical_profile())
    with pytest.MonkeyPatch.context() as mp:
        first = series_first_term(mp, system, op, x, m * dt, dt)
    orbit = VectorTrajectory.orbit(system, x, m * dt, dt)
    assert np.array_equal(first, pair_rows(measure, system, orbit.nodes))


_HALF_BOX = PiecewiseFunction([Fraction(-1, 2), Fraction(1, 2)],
                              [[0], [Fraction(1, 2)], [0]])


@pytest.mark.parametrize("edge", ["constant", "zero"])
@pytest.mark.parametrize("measure", [
    BoundedMeasure.dirac(Fraction(1, 4), 0.7),
    BoundedMeasure.dirac(Fraction(1, 3), 0.5),
    BoundedMeasure.dirac(-1.3, 0.5),
    BoundedMeasure(density=_HALF_BOX),
    BoundedMeasure(atoms=[(0, Fraction(1, 2))], density=_HALF_BOX),
], ids=["on-lattice", "off-lattice", "left-of-origin", "density",
        "atom+density"])
def test_series_first_term_pairs_materialised_orbit(measure, edge):
    # pairing the translate of x on the whole line, instead of the rows
    # the system stores, puts the atom left of the origin 0.98 off here
    sys_t = TranslationSystem(-1.0, 0.01, 201, 0.4)
    vals = with_edge(np.random.default_rng(11).standard_normal(sys_t.count),
                     edge)
    assert_first_term_pairs_orbit(sys_t, measure, vals, 40)


# grid [-1, 1] at spacing 1/16: every node is a binary float
_NODE = st.integers(0, 32).map(lambda k: Fraction(-1) + Fraction(k, 16))
_WEIGHT = st.fractions(min_value=-2, max_value=2, max_denominator=12)


def _place(lo, hi):
    return st.one_of(_NODE.filter(lambda x: lo <= x <= hi),
                     st.fractions(min_value=lo, max_value=hi,
                                  max_denominator=50))


@st.composite
def rational_measures(draw, lo=-1.5, hi=1.5):
    """Atoms on and off the lattice, plus an optional step density."""
    atoms = draw(st.lists(st.tuples(_place(lo, hi), _WEIGHT), max_size=4))
    density = None
    if draw(st.booleans()):
        breaks = sorted(draw(st.sets(_place(lo, hi), min_size=2,
                                     max_size=4)))
        steps = draw(st.lists(_WEIGHT, min_size=len(breaks) - 1,
                              max_size=len(breaks) - 1))
        density = PiecewiseFunction(breaks,
                                    [[0]] + [[c] for c in steps] + [[0]])
    return BoundedMeasure(atoms=atoms, density=density)


@settings(max_examples=60, deadline=None, database=None)
@given(measure=rational_measures(), m=st.integers(1, 24),
       seed=st.integers(0, 2**32 - 1))
def test_series_first_term_pairs_orbit_property(measure, m, seed):
    sys_t = TranslationSystem(-1.0, 1 / 16, 33, 0.25)
    vals = np.random.default_rng(seed).standard_normal(sys_t.count)
    assert_first_term_pairs_orbit(sys_t, measure, vals, m)


def _spy_renewal_weights(mp):
    """Record (first pairings, summed pairings) of each rank-one state."""
    real = perturbation._renewal_weights
    seen = []

    def spy(series, phi0):
        out = real(series, phi0)
        seen.append((phi0.copy(), out.copy()))
        return out

    mp.setattr(perturbation, "_renewal_weights", spy)
    return seen


@settings(max_examples=40, deadline=None, database=None)
@given(measure=rational_measures(), m=st.integers(1, 24),
       seed=st.integers(0, 2**32 - 1), guard=st.sampled_from([0.1, 0.5, 0.9]))
def test_rank_one_segment_operator_serves_every_state(measure, m, seed,
                                                      guard):
    # one renewal series per segment operator: the summed pairings are
    # the per-state iteration sum_{k<N} K^k phi0, a second state runs no
    # series, and each recorded size s bounds the state's term:
    # max|V^(k+1) T x| <= s max|x|, the orbit's size 1 bounding T x;
    # the profile is scaled to put the guard at the drawn value
    sys_t = TranslationSystem(-1.0, 1 / 16, 33, 0.25)
    dt = sys_t.spacing
    g = canonical_profile()
    if measure.total_variation():
        g = g.scale(guard / (m * dt * measure.total_variation()
                             * g.sup_norm()))
    op = PerturbationOperator.rank_one(measure, g)
    rng = np.random.default_rng(seed)
    states = [rng.standard_normal(sys_t.count),
              1e3 * rng.standard_normal(sys_t.count)]
    with pytest.MonkeyPatch.context() as mp:
        calls = _count_series(mp)
        seen = _spy_renewal_weights(mp)
        diags = [neumann_nodes(sys_t, op, sys_t.make(x), m * dt,
                               [0, m // 2, m], dt)[1] for x in states]
    assert len(calls) == 1 and diags[0] == diags[1]
    ker = op._kernel_lattice(dt, m)
    for x, (phi0, got) in zip(states, seen):
        want, term = np.zeros(m + 1), phi0
        for _ in range(diags[0].terms_used - 1):
            want += term
            term = perturbation._kernel_step(term, ker, dt)
        scale = max(np.max(np.abs(want)), np.max(np.abs(phi0)))
        assert np.max(np.abs(got - want)) <= 1e-13 * scale
        window = sys_t.orbit_rows(x, m, dt)
        sizes = diags[0].term_norms
        assert np.max(np.abs(window)) <= sizes[0] * np.max(np.abs(x))
        phi = pair_rows(measure, sys_t, window)
        for size in sizes[1:]:
            nodes = perturbation._convolved_nodes(sys_t, op, phi, dt,
                                                  range(m + 1))
            assert np.max(np.abs(nodes)) \
                <= size * np.max(np.abs(x)) * (1 + 1e-12)
            phi = perturbation._kernel_step(phi, ker, dt)


def test_transport_refine_pass_runs_one_series_per_segment_operator(
        monkeypatch):
    # a transport-refine-shaped run: t = 2 at t0 = 0.2, dx = 2e-3, ten
    # segments of one operator run one renewal series of ten terms (ten
    # series when each segment ran its own)
    prob = delta_problem()
    dx, t, t0 = 2e-3, 2.0, 0.2
    sys_t = make_system(prob, dx, t, t0)
    terms = _count_series(monkeypatch)
    state, diag = neumann_semigroup(sys_t, build_rank_one(prob),
                                    prob.initial, t, t0, dx,
                                    diagnostics=True)
    assert diag.segments == 10 and terms == [10]
    oracle = oracle_solution(prob.measure, prob.profile, prob.initial,
                             sys_t, t)
    assert (state - oracle).seminorm(prob.window) <= 1e-5


@pytest.mark.parametrize("tol", [1e-14, 1e-9])
@pytest.mark.parametrize("dx", [1e-2, 2.5e-4], ids=["direct", "fft"])
def test_rank_one_series_meets_the_renewal_solve(monkeypatch, dx, tol):
    # truncation-only reference: on one segment the summed pairings meet
    # the exact lattice solve of the renewal equation, forward
    # substitution on the same kernel samples, to roundoff at tol 1e-14;
    # at tol 1e-9 they stay within the stated tail bound, the first
    # omitted size over 1 - guard divided by sup|g| m dt |mu|(R), times
    # max|phi0|; at dx = 2.5e-4 (800 steps) both products take the FFT
    prob = TransportProblem(
        BoundedMeasure(atoms=[(0, 1), (Fraction(1, 2), Fraction(1, 2))]),
        canonical_profile(), tent())
    t0 = 0.2
    sys_t = make_system(prob, dx, t0, t0)
    op = build_rank_one(prob)
    seen = _spy_renewal_weights(monkeypatch)
    _, diag = neumann_nodes(sys_t, op, prob.initial, t0, [0], dx, tol=tol)
    (phi0, got), = seen
    want = renewal_forward_substitution(prob.measure, prob.profile,
                                        prob.initial, t0, dx)
    gap = np.max(np.abs(got - want)) / np.max(np.abs(phi0))
    if tol == 1e-14:
        assert gap <= 1e-13
    else:
        const = op.profile_sup * t0 * prob.measure.total_variation()
        tail = diag.term_norms[-1] / (1 - diag.guard_bound) / const
        assert 1e-13 < gap <= tail


@pytest.mark.parametrize("tol", [1e-14, 1e-9])
@pytest.mark.parametrize("n", [2, 4, 8])
def test_matrix_series_meets_the_lattice_solve(n, tol):
    # truncation-only reference: the identity table of one segment meets
    # the exact lattice solve of S = T + V S node by node, in the
    # spectral norm, to roundoff at tol 1e-14; at tol 1e-9 it stays
    # within the stated tail bound, the first omitted size over
    # 1 - guard
    A, B = random_stable_pair(n, 3)
    t0, dt = 0.5, 1e-3
    m = 500
    system, op = MatrixSystem(A), PerturbationOperator.matrix(B)
    table, diag = neumann_nodes(system, op, np.eye(n), t0, range(m + 1), dt,
                                tol=tol)
    want = matrix_lattice_solve(system.propagator(dt), B, m, dt)
    gap = max(opnorm2(a - b) for a, b in zip(table, want))
    if tol == 1e-14:
        assert gap <= 1e-13
    else:
        assert 1e-13 < gap <= diag.term_norms[-1] / (1 - diag.guard_bound)


@st.composite
def node_linear(draw):
    """Continuous piecewise linear function with breakpoints on nodes."""
    breaks = sorted(draw(st.sets(_NODE, min_size=1, max_size=6)))
    vals = draw(st.lists(_WEIGHT, min_size=len(breaks),
                         max_size=len(breaks)))
    pieces = [[vals[0]]]
    for (a, u), (b, v) in zip(zip(breaks, vals), zip(breaks[1:], vals[1:])):
        slope = (v - u) / (b - a)
        pieces.append([u - slope * a, slope])
    return PiecewiseFunction(breaks, pieces + [[vals[-1]]])


@settings(max_examples=60, deadline=None, database=None)
@given(measure=rational_measures(lo=-1, hi=1), f=node_linear())
def test_grid_pairing_matches_exact_pairing(measure, f):
    sys_t = TranslationSystem(-1.0, 1 / 16, 33, 0.25)
    assert abs(measure.pair(sys_t.sample(f))
               - float(measure.pair(f))) <= 1e-12


def test_admissibility_report_serializes():
    sys_m = diag_system()
    rep = admissibility_check(sys_m, coupled_op(), 0.5, 1e-2,
                              matrix_probes(sys_m, 0.5, 1e-2))
    d = rep.to_dict()
    assert set(d) >= {"lands_in_state_space", "seminorm_constant",
                      "smallness_observed", "smallness_analytic",
                      "volterra_norm_lower_bound", "admissible"}
    json.dumps(d)


# ---------------------------------------------------------------------------
# generator difference quotients


def test_generator_matrix_first_order():
    sys_m = diag_system()
    op = coupled_op()
    x = np.array([1.0, 1.0])
    out = generator_check(sys_m, op, x, [4e-2, 2e-2, 1e-2], 1e-3, t0=0.5)
    res = [out[h] for h in (4e-2, 2e-2, 1e-2)]
    assert res[0] > res[1] > res[2]
    # Taylor: residual ~ h/2 * ||(A+B)^2 x||
    C2 = np.linalg.matrix_power(sys_m.A + op.matrix_data, 2)
    assert res[2] <= 0.5 * 1e-2 * np.max(np.abs(C2 @ x)) * 1.5


def test_generator_smooth_function_zero_weight():
    prob = delta_problem(weight=0)
    dx = 2e-3
    sys_t = make_system(prob, dx, 0.2, 0.2)
    op = build_rank_one(prob)
    f = bump_function()
    out = generator_check(sys_t, op, f, [2e-2, 1e-2], dx, t0=0.2)
    assert out[2e-2] > out[1e-2]
    assert out[1e-2] <= 0.05


def test_generator_domain_function_quotients():
    prob = delta_problem()
    dx = 2e-3
    sys_t = make_system(prob, dx, 0.2, 0.2)
    op = build_rank_one(prob)
    f = build_domain_function(prob)
    out = generator_check(sys_t, op, f, [8e-3, 4e-3, 2e-3], dx, t0=0.2)
    vals = [out[h] for h in (8e-3, 4e-3, 2e-3)]
    assert vals[0] > vals[1] > vals[2]
    assert vals[-1] <= 0.05


def test_generator_rejects_mismatched_kinks():
    # doubling the measure breaks the balance between the tent's kinks and
    # the pairing-weighted profile jumps
    prob = delta_problem(weight=2)
    dx = 2e-3
    sys_t = make_system(prob, dx, 0.2, 0.2)
    op = build_rank_one(prob)
    with pytest.raises(NotInStateSpace) as info:
        generator_check(sys_t, op, tent(), [1e-2], dx, t0=0.2)
    assert info.value.curvature is not None
    assert info.value.curvature > 0


# ---------------------------------------------------------------------------
# comparison constants


def test_comparison_zero_operator():
    sys_m = diag_system()
    op = PerturbationOperator.matrix(np.zeros((2, 2)))
    out = comparison_check(sys_m, op, [0.25, 0.5, 1.0])
    assert out["constant"] == 0.0
    assert all(r["constant"] == 0.0 for r in out["rows"])


def test_comparison_matrix_integral_bound():
    sys_m = diag_system()
    op = coupled_op()
    ts = [0.25, 0.5, 1.0]
    out = comparison_check(sys_m, op, ts)
    # ||S(t) - T(t)|| <= t ||B|| sup||T|| sup||S|| for contractive factors
    assert 0.0 < out["constant"] <= opnorm2(op.matrix_data) + 1e-6


def test_comparison_dyadic_stability_neutral_system():
    # a norm-preserving free semigroup keeps the short-time constant flat;
    # strictly decaying generators shrink it by e^{-t} and are the wrong
    # place to look for dyadic stability
    sys_m = MatrixSystem(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    op = coupled_op()
    ts = [1e-3 * 2 ** k for k in range(10)] + [1.0]
    out = comparison_check(sys_m, op, ts)
    assert out["stability_ratio"] <= 2.0
    assert out["constant"] == pytest.approx(opnorm2(op.matrix_data), rel=0.05)


def test_comparison_check_refuses_rank_one():
    prob = delta_problem()
    sys_t = make_system(prob, 1e-2, 0.5, 0.2)
    with pytest.raises(ValueError, match="transport.comparison_curve"):
        comparison_check(sys_t, build_rank_one(prob), [0.25, 0.5])


def test_comparison_summary_edges():
    assert comparison_summary([]) == (0.0, math.inf)
    assert comparison_summary([0.0, 0.0]) == (0.0, math.inf)
    assert comparison_summary([0.5, 0.0, 2.0]) == (2.0, 4.0)


# ---------------------------------------------------------------------------
# probe factories


def test_matrix_probes_deterministic():
    sys_m = diag_system()
    a = matrix_probes(sys_m, 0.5, 1e-2, seed=11)
    b = matrix_probes(sys_m, 0.5, 1e-2, seed=11)
    assert len(a) == len(b) == sys_m.dim + 3
    for p, q in zip(a, b):
        assert np.array_equal(p.nodes, q.nodes)


def _direct_profile_convolution(phi, m, samples, count, dt):
    # the full-grid form: every node, one np.convolve
    left, mid, right = samples
    return (np.convolve(phi[:m + 1], mid)[m:m + count]
            - phi[0] * mid[m:m + count] - phi[m] * mid[:count]
            + 0.5 * phi[0] * left[m:m + count]
            + 0.5 * phi[m] * right[:count]) * dt


def _convolution_case(profile, m, dt=2.5e-4):
    sys_t = TranslationSystem(-3.0, dt, 24001, m * dt)
    op = PerturbationOperator.rank_one(BoundedMeasure.dirac(0), profile)
    phi = np.exp(np.linspace(0.0, 1.0, m + 1)) \
        * np.random.default_rng(5).uniform(0.5, 1.5, m + 1)
    cells = support_cells(profile, sys_t.origin, dt, sys_t.count + m)
    return sys_t, op._profile_lattice(sys_t, m), cells, phi


@pytest.mark.parametrize("m", [100, 200, 400, 800],
                         ids=["direct", "fft-200", "fft-400", "fft"])
@pytest.mark.parametrize("profile", [
    canonical_profile(),
    sawtooth_profile(),
    PiecewiseFunction([-1, 0, 1], [[0], [0, 1], [2, -1], [1]]),
    canonical_profile().translate(-10),
    canonical_profile().translate(5),
], ids=["canonical", "sawtooth", "nonzero-end", "beyond-grid",
        "before-grid"])
def test_profile_convolution_matches_full_grid_direct_form(profile, m):
    # the engine's reconstruction keeps the support cells only and builds
    # the nodes [lo - m, hi), and must agree with the direct form over
    # all count + m cells: on the canonical profile it cuts both sides,
    # the sawtooth covers the grid, a nonzero end piece cuts one side,
    # and a profile wholly right (beyond) or left (before) of the grid
    # leaves zeros
    dt = 2.5e-4
    sys_t, rec, (lo, hi), phi = _convolution_case(profile, m, dt)
    full = sample_sided(profile, sys_t.origin + dt * np.arange(
        sys_t.count + m), snap_tol=1e-6 * dt)
    left, mid, right = (a[lo:hi] for a in full)
    # keeping the support cells only loses no sample
    assert not np.delete(np.array(full), np.s_[lo:hi], axis=1).any()
    assert rec.lo == lo and rec.shift == 0
    assert np.array_equal(rec.operand.values, mid)
    assert np.array_equal(rec.first, mid - 0.5 * left)
    assert np.array_equal(rec.last, mid - 0.5 * right)
    want = _direct_profile_convolution(phi, m, full, sys_t.count, dt)
    k0, vals = reconstruction_nodes(phi, rec, sys_t.count)
    got = np.zeros(sys_t.count)
    got[k0:k0 + vals.size] = dt * vals
    scale = dt * np.abs(phi).sum() * profile.sup_norm()
    assert np.max(np.abs(got - want)) <= 1e-13 * scale
    outside = np.ones(sys_t.count, bool)
    outside[max(lo - m, 0):min(hi, sys_t.count)] = False
    assert not got[outside].any()


def test_profile_convolution_operand_spans_the_support(monkeypatch):
    # on the canonical profile the kept operand is the support cells, not
    # the count + m cells of the lattice, and the one product of a step
    # spans the hi - lo + m entries of the nodes [lo - m, hi): the direct
    # np.convolve at m = 100, one FFT product of that length at m = 800
    real_convolve, real_irfft = np.convolve, np.fft.irfft
    calls = []
    monkeypatch.setattr(np, "convolve", lambda a, b: calls.append(
        ("direct", len(a) + len(b) - 1)) or real_convolve(a, b))
    monkeypatch.setattr(np.fft, "irfft", lambda a, n: calls.append(
        ("fft", n)) or real_irfft(a, n))
    for m in (100, 800):
        sys_t, rec, (lo, hi), phi = _convolution_case(canonical_profile(), m)
        assert 0 < lo - m and hi < sys_t.count  # the cut binds both sides
        assert rec.operand.values.size == hi - lo < (sys_t.count + m) / 2
        calls.clear()
        reconstruction_nodes(phi, rec, sys_t.count)
        span = hi - lo + m
        assert calls == ([("direct", span)] if m == 100
                         else [("fft", functions._fft_length(span))])


def test_each_fixed_operand_is_transformed_once_per_lattice(monkeypatch):
    # one 10-segment run at h = 2.5e-4 (800 steps a segment, both engine
    # products on the FFT path) transforms the renewal kernel once and
    # the profile's kept operand once; the oracle's 8000-step solve
    # transforms k_mid once per level of its step tree, the splits of
    # 512, 1024, 2048 and 4096 steps.  Every real FFT is counted,
    # whichever route calls it
    prob = delta_problem()
    dt, t, t0 = 2.5e-4, 2.0, 0.2
    k_mid = sample_lag_kernel(prob.measure, prob.profile, dt, 8000)[1]
    system = make_system(prob, dt, t, t0)
    rec = PerturbationOperator.rank_one(
        prob.measure, prob.profile)._profile_lattice(system, 800)
    support = np.trim_zeros(rec.operand.values)
    operands = {
        # the folded kernel differs from the samples at entry 0 only
        "kernel": lambda a: a.size == 801 and np.array_equal(
            a[1:], k_mid[1:801]),
        # the profile samples, with or without zero cells around them
        "profile": lambda a: np.array_equal(np.trim_zeros(a), support),
        # k_mid, cut to the spectrum length of a tree level
        "k_mid": lambda a: a.size > 801 and np.array_equal(
            a, k_mid[:a.size]),
    }
    counts = dict.fromkeys(operands, 0)
    k_mid_sizes = []
    real = np.fft.rfft

    def rfft(a, *args, **kwargs):
        for name, match in operands.items():
            counts[name] += bool(match(np.asarray(a)))
        if operands["k_mid"](np.asarray(a)):
            k_mid_sizes.append(np.size(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", rfft)
    run = run_perturbed(prob, t, dt, t0)
    assert run.diagnostics.segments == 10
    assert run.system.count == system.count
    assert counts == {"kernel": 1, "profile": 1, "k_mid": 0}
    oracle_weights(prob.measure, prob.profile, prob.initial, t, dt)
    assert counts == {"kernel": 1, "profile": 1, "k_mid": 4}
    # a split of s steps reads lags below min(2 s, 8000)
    assert k_mid_sizes == [1024, 2048, 4096, 8000]


def test_profile_before_grid_leaves_the_free_translation():
    # g vanishes on the whole extended lattice, so the perturbed orbit
    # is the free one at every node
    prob = delta_problem()
    dx, t0 = 1e-2, 0.2
    sys_t = make_system(prob, dx, t0, t0)
    g = canonical_profile().translate(5.0 - sys_t.origin)
    op = PerturbationOperator.rank_one(prob.measure, g)
    rec = op._profile_lattice(sys_t, _lattice_steps(t0, dx))
    assert (rec.lo, rec.operand.values.size, rec.first.size) == (0, 0, 0)
    x = sys_t.sample(prob.initial)
    (got,), _ = neumann_nodes(sys_t, op, x, t0, [_lattice_steps(t0, dx)], dx)
    free = VectorTrajectory.orbit(sys_t, x, t0, dx).node(-1)
    assert np.array_equal(got.values, free.values)


def test_engine_convolutions_match_direct_form():
    # m = 800 puts the kernel step past the direct size, on the FFT
    # product against the kept folded kernel; the direct np.convolve form
    # of the sided samples is the reference (the profile reconstruction
    # is pinned by the tests above)
    dt, m = 2.5e-4, 800
    op = PerturbationOperator.rank_one(
        BoundedMeasure(atoms=[(0, 1), (Fraction(1, 3), 0.5)]),
        canonical_profile())
    phi = np.exp(np.linspace(0.0, 1.0, m + 1)) \
        * np.random.default_rng(5).uniform(0.5, 1.5, m + 1)
    left, mid, right = sample_lag_kernel(op.measure, op.profile, dt, m)
    want = (np.convolve(phi, mid)[:m + 1] - phi[0] * mid[:m + 1]
            - phi * mid[0] + 0.5 * phi[0] * left[:m + 1]
            + 0.5 * phi * right[0]) * dt
    want[0] = 0.0
    got = perturbation._kernel_step(phi, op._kernel_lattice(dt, m), dt)
    scale = dt * np.abs(phi).sum() * np.abs(mid).max()
    assert np.max(np.abs(got - want)) <= 1e-13 * scale


def test_profile_sup_computed_once_per_operator(monkeypatch):
    # the guard and the term size of every segment read the operator's sup
    calls = []
    real = PiecewiseFunction.sup_norm
    monkeypatch.setattr(PiecewiseFunction, "sup_norm",
                        lambda self: calls.append(self) or real(self))
    prob = delta_problem()
    op = PerturbationOperator.rank_one(prob.measure, prob.profile)
    assert calls == [prob.profile] and op.profile_sup == 2.0
    dx, t0 = 1e-2, 0.1
    sys_t = make_system(prob, dx, 1.0, t0)
    _, diag = neumann_semigroup(sys_t, op, prob.initial, 1.0, t0, dx,
                                diagnostics=True)
    assert diag.segments == 10
    assert calls == [prob.profile]


def test_rank_one_caches_keep_the_four_keys_used_last():
    prob = delta_problem()
    op = build_rank_one(prob)
    systems = [make_system(prob, h, 0.2, 0.2)
               for h in (2e-2, 1e-2, 5e-3, 4e-3, 2.5e-3)]
    for s in systems:
        op._profile_lattice(s, 20)
    assert len(op._profile_cache) == 4
    # the regularizer's samples are kept apart: they evict no lattice
    kept = list(op._profile_cache)
    for s in systems:
        op._regularized_gap(s, np.ones(3), s.spacing, np.zeros(s.count))
    assert list(op._profile_cache) == kept
    assert len(op._regularized_cache) == 4
    key = (systems[0].origin, systems[0].spacing, systems[0].count, 20)
    assert key not in op._profile_cache
    fresh = op._profile_lattice(systems[0], 20)
    lo, hi = support_cells(prob.profile, systems[0].origin,
                           systems[0].spacing, systems[0].count + 20)
    assert (fresh.lo, fresh.operand.values.size) == (lo, hi - lo)
