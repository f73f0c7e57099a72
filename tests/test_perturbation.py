from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from semiperturb.errors import (
    GuardViolation,
    HorizonExceeded,
    NonConvergence,
    NotInStateSpace,
    StepMismatch,
)
from semiperturb.functions import (
    BoundedMeasure,
    CompactInterval,
    PiecewiseFunction,
    pair_rows,
    tent,
)
from semiperturb import perturbation, semigroup
from semiperturb.perturbation import (
    MAX_NEUMANN_TERMS,
    AdmissibilityReport,
    PerturbationOperator,
    VectorTrajectory,
    admissibility_check,
    comparison_check,
    comparison_summary,
    escaping_bumps,
    favard_seminorm,
    generator_check,
    identity_check,
    matrix_probes,
    neumann_nodes,
    neumann_semigroup,
    perturbed_resolvent_check,
    translation_probes,
    varpar_residual,
    volterra_apply,
    volterra_norm_estimate,
    volterra_trajectory,
)
from semiperturb.semigroup import MatrixSystem, TranslationSystem, opnorm2
from semiperturb.transport import (
    TransportProblem,
    build_domain_function,
    build_rank_one,
    bump_function,
    canonical_profile,
    canonical_regularizer,
    make_system,
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


def test_volterra_rank_one_constant_probe_exact():
    # mu = delta_0, F constant 1: result(x) = int_x^{x+t} g = G(x+t) - G(x).
    # The integrand is piecewise linear with lattice-aligned kinks, so the
    # jump-aware trapezoid reproduces it to machine precision.
    prob = delta_problem()
    dx = 1e-2
    t = 0.5
    sys_t = make_system(prob, dx, t, t)
    op = build_rank_one(prob)
    m = sys_t.steps_of(t)
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
    m = sys_t.steps_of(t)
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
                            [sys_t.steps_of(t0)], dx)
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


def test_neumann_divergence_detected():
    sys_m = diag_system()
    op = PerturbationOperator.matrix(10.0 * np.eye(2))
    with pytest.raises(NonConvergence):
        neumann_semigroup(sys_m, op, np.array([1.0, 0.0]), 1.0, 1.0, 1e-2,
                          enforce_guard=False)


def test_neumann_term_cap_respected():
    sys_m = diag_system()
    op = coupled_op()
    _, diag = neumann_semigroup(sys_m, op, np.array([1.0, 1.0]), 0.5, 0.5,
                                1e-2, diagnostics=True)
    assert diag.terms_used <= MAX_NEUMANN_TERMS


def test_neumann_rank_one_divergence_detected():
    # weight 10 puts the guard product at 12; the term sizes grow
    prob = delta_problem(weight=10)
    dx, t0 = 1e-2, 0.6
    sys_t = make_system(prob, dx, t0, t0)
    with pytest.raises(NonConvergence) as err:
        neumann_semigroup(sys_t, build_rank_one(prob), prob.initial, t0, t0,
                          dx, enforce_guard=False)
    msg = str(err.value)
    assert "three consecutive terms" in msg
    assert "[6.1282, 4.0399, 3.018]" in msg
    assert "np.float64" not in msg


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
    # one expm for the guard's power table and one for T(dt), shared by
    # the orbit and every term, however many terms the tolerance needs
    real = semigroup.expm
    calls = []

    def counted(A):
        calls.append(A)
        return real(A)

    monkeypatch.setattr(semigroup, "expm", counted)
    sys_m, op = diag_system(), coupled_op()
    counts, terms = [], []
    for tol in (1e-6, 1e-12):
        calls.clear()
        _, diag = neumann_nodes(sys_m, op, np.array([1.0, 1.0]), 0.5,
                                [0, 50], 1e-2, tol=tol)
        counts.append(len(calls))
        terms.append(diag.terms_used)
    assert terms[1] > terms[0]
    assert counts == [2, 2]


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
                      [sys_t.steps_of(t0)], dx)


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
        op, x = build_rank_one(prob, require_regularized=False), prob.initial
    _, diag = neumann_semigroup(system, op, x, 2.0, 0.5, dt,
                                diagnostics=True)
    assert horizons == [0.5]
    assert diag.segments == 4
    assert diag.guard_bound == real(op, system, 0.5)


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


def test_grid_state_from_another_grid_is_refused():
    # 685 and 725 nodes: a state sampled on one is refused by the other,
    # not cut to its length or slid over as a window
    prob = delta_problem()
    small = make_system(prob, 1e-2, 0.2, 0.2)
    big = make_system(prob, 1e-2, 0.4, 0.2)
    op = build_rank_one(prob)
    assert (small.count, big.count) == (685, 725)
    for here, there in ((small, big), (big, small)):
        x = there.sample(tent())
        calls = (
            lambda: VectorTrajectory.orbit(here, x, 0.2, 1e-2),
            lambda: neumann_semigroup(here, op, x, 0.2, 0.2, 1e-2),
            lambda: neumann_nodes(here, op, x, 0.2, [20], 1e-2),
            lambda: favard_seminorm(here, x, 1.0, [0.1]),
        )
        for call in calls:
            with pytest.raises(ValueError,
                               match="does not live on this system's grid"):
                call()
    orbit = VectorTrajectory.orbit(small, small.sample(tent()), 0.2, 1e-2)
    assert orbit.nodes.shape == (21, 685)


@pytest.mark.parametrize("x", [np.ones(3), np.ones((3, 2)), np.ones(()),
                               np.ones((2, 2, 2))],
                         ids=["length-3", "3x2", "scalar", "2x2x2"])
def test_matrix_state_of_wrong_shape_is_refused(x):
    sys_m, op = diag_system(), coupled_op()
    calls = (
        lambda: VectorTrajectory.orbit(sys_m, x, 0.1, 1e-2),
        lambda: neumann_semigroup(sys_m, op, x, 0.1, 0.1, 1e-2),
        lambda: neumann_nodes(sys_m, op, x, 0.1, [10], 1e-2),
        lambda: favard_seminorm(sys_m, x, 1.0, [0.1]),
    )
    for call in calls:
        with pytest.raises(ValueError,
                           match=r"does not live on this system's R\^2"):
            call()


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
    # pinned from the implementation that paired every probe twice
    assert rep.to_dict() == {
        "lands_in_state_space": True,
        "worst_reconstruction_residual": 0.0020000000000032214,
        "seminorm_constant": 0.38, "seminorm_window": [-3.0, 3.0],
        "smallness_observed": 0.38, "smallness_analytic": 0.4,
        "smallness_pass": True, "volterra_norm_lower_bound": 0.38,
        "probes_used": 8, "admissible": True}


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


@pytest.mark.parametrize("edge", ["constant", "zero"])
@pytest.mark.parametrize("k", [1, 3])
def test_translation_orbit_matches_per_row_shift(k, edge):
    sys_t = TranslationSystem(-1.0, 0.1, 21, 0.2)
    vals = with_edge(np.random.default_rng(3).standard_normal(sys_t.count),
                     edge)
    m = 10  # for k = 3 the last rows lie past the grid edge
    F = VectorTrajectory.orbit(sys_t, sys_t.make(vals), m * k * 0.1, k * 0.1)
    want = [sys_t.shift_values(vals, j * k) for j in range(m + 1)]
    assert np.array_equal(F.nodes, want)
    assert F.nodes.flags.writeable


class _FirstTerm(Exception):
    pass


def series_first_term(mp, system, op, x, t0, dt):
    """The first rank-one term that neumann_nodes hands to the series."""
    def stop(total, term, *rest):
        raise _FirstTerm(term)

    mp.setattr(perturbation, "_neumann_sum", stop)
    with pytest.raises(_FirstTerm) as caught:
        neumann_nodes(system, op, x, t0, [0], dt, enforce_guard=False)
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
# resolvent chain bound


def test_resolvent_zero_operator():
    sys_m = diag_system()
    op = PerturbationOperator.matrix(np.zeros((2, 2)))
    out = perturbed_resolvent_check(sys_m, op, [10.0], 0.5, 1e-2)
    row = out["rows"][0]
    assert row["observed"] == 0.0
    assert row["within"]


def test_resolvent_matrix_chain_bound():
    sys_m = diag_system()
    op = coupled_op()
    out = perturbed_resolvent_check(sys_m, op, [10.0, 20.0, 40.0], 0.5, 1e-3)
    assert out["all_within"]
    assert out["decreasing"]


def test_resolvent_rank_one_chain_bound():
    prob = delta_problem()
    dx = 4e-3
    sys_t = make_system(prob, dx, 0.2, 0.2)
    op = build_rank_one(prob)
    out = perturbed_resolvent_check(sys_t, op, [5.0, 10.0, 20.0], 0.2, dx)
    assert out["all_within"]
    assert out["decreasing"]


def test_resolvent_needs_lambda_above_growth():
    sys_m = diag_system()
    with pytest.raises(ValueError):
        perturbed_resolvent_check(sys_m, coupled_op(), [-2.0], 0.5, 1e-2)


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
# Favard quotients


def test_favard_constant_is_zero():
    prob = delta_problem()
    sys_t = make_system(prob, 1e-2, 0.2, 0.2)
    c = sys_t.make(np.ones(sys_t.count))
    assert favard_seminorm(sys_t, c, 1.0, [0.05, 0.1, 0.2]) == 0.0


def test_favard_tent_lipschitz_constant():
    prob = delta_problem()
    sys_t = make_system(prob, 1e-2, 0.2, 0.2)
    got = favard_seminorm(sys_t, tent(), 1.0, [0.05, 0.1, 0.2])
    assert got == pytest.approx(1.0, rel=1e-12)


def test_favard_half_alpha_scaling():
    prob = delta_problem()
    sys_t = make_system(prob, 1e-2, 0.2, 0.2)
    s_values = [0.04, 0.16, 0.36]
    got = favard_seminorm(sys_t, tent(), 0.5, s_values)
    # ||T(s) h - h|| = s for the tent, so the quotient is sqrt(s)
    assert got == pytest.approx(math.sqrt(max(s_values)), rel=1e-12)


def test_favard_matrix_system():
    sys_m = diag_system()
    x = np.array([1.0, 0.0])
    got = favard_seminorm(sys_m, x, 1.0, [0.01, 0.05, 0.1])
    # |e^{-s} - 1|/s -> 1 as s -> 0, decreasing in s
    assert got == pytest.approx((1.0 - math.exp(-0.01)) / 0.01, rel=1e-12)


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


def test_escaping_bumps_lose_window_mass():
    prob = delta_problem()
    sys_t = make_system(prob, 1e-2, 1.0, 0.2)
    bumps = escaping_bumps(sys_t)
    sups = [b.sup_norm() for b in bumps]
    semis = [b.seminorm(prob.window) for b in bumps]
    assert all(abs(s - 1.0) < 1e-12 for s in sups)
    assert all(semis[i + 1] <= semis[i] + 1e-12 for i in range(len(semis) - 1))
    assert semis[-1] == 0.0


def test_engine_convolutions_match_direct_form():
    # m = 800 puts both lattice convolutions past the direct size, on the
    # FFT product; the direct np.convolve form is the reference
    dt, m = 2.5e-4, 800
    sys_t = TranslationSystem(-3.0, dt, 24001, m * dt)
    op = PerturbationOperator.rank_one(
        BoundedMeasure(atoms=[(0, 1), (Fraction(1, 3), 0.5)]),
        canonical_profile())
    phi = np.exp(np.linspace(0.0, 1.0, m + 1)) \
        * np.random.default_rng(5).uniform(0.5, 1.5, m + 1)
    prof = op._profile_lattice(sys_t, m)
    want = (np.convolve(phi, prof.mid)[m:m + sys_t.count]
            - phi[0] * prof.mid[m:m + sys_t.count]
            - phi[m] * prof.mid[:sys_t.count]
            + 0.5 * phi[0] * prof.left[m:m + sys_t.count]
            + 0.5 * phi[m] * prof.right[:sys_t.count]) * dt
    got = perturbation._profile_convolution(phi, m, prof, sys_t.count, dt)
    scale = dt * np.abs(phi).sum() * np.abs(prof.mid).max()
    assert np.max(np.abs(got - want)) <= 1e-13 * scale

    ker = op._kernel_lattice(dt, m)
    want = (np.convolve(phi, ker.mid)[:m + 1] - phi[0] * ker.mid[:m + 1]
            - phi * ker.mid[0] + 0.5 * phi[0] * ker.left[:m + 1]
            + 0.5 * phi * ker.right[0]) * dt
    want[0] = 0.0
    got = perturbation._kernel_step(phi, ker, dt)
    scale = dt * np.abs(phi).sum() * np.abs(ker.mid).max()
    assert np.max(np.abs(got - want)) <= 1e-13 * scale
