"""Acceptance battery: the ten headline criteria, one verdict line each.

Every test measures the pinned quantity, emits a single PASS/FAIL line
(echoed again in the terminal summary), and asserts both the bound and
the wall-clock budget.  Tolerances here are contractual; do not loosen
them to make a failure go away.
"""

import time
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

from conftest import record_verdict
from semiperturb.functions import BoundedMeasure, tent
from semiperturb.implemented import (
    ImplementedSemigroup,
    SuperOperator,
    comparison_equivalence,
    euler_check,
    extract_perturbation,
    hille_yosida_check,
    lift_perturbation,
    perturbed_implemented,
    pseudoresolvent_extract,
    random_stable_pair,
)
from semiperturb.errors import NonMultiplicative
from semiperturb.perturbation import (
    PerturbationOperator,
    admissibility_check,
    comparison_check,
    generator_check,
    identity_check,
    neumann_nodes,
    neumann_semigroup,
    translation_probes,
    varpar_residual,
)
from semiperturb.semigroup import MatrixSystem, _lattice_steps, opnorm2
from semiperturb.transport import (
    TransportProblem,
    build_domain_function,
    build_rank_one,
    canonical_gap_vector,
    canonical_profile,
    canonical_regularizer,
    comparison_curve,
    domain_check,
    engine_vs_oracle,
    make_system,
    oracle_solution,
    oracle_weights,
    refinement_study,
    sawtooth_profile,
)


def _verdict(num, name, ok, detail, elapsed, budget):
    line = (f"[{num:02d}] {'PASS' if ok else 'FAIL'} {name}: {detail} "
            f"({elapsed:.1f}s / {budget:.0f}s budget)")
    record_verdict(line)
    print(line)
    assert ok, line
    assert elapsed <= budget, f"over budget: {line}"


def _delta_problem(weight=1):
    return TransportProblem(
        measure=BoundedMeasure.dirac(0, weight),
        profile=canonical_profile(), initial=tent(),
        regularizer=canonical_regularizer())


def _two_atom_problem():
    return TransportProblem(
        measure=BoundedMeasure(atoms=((0, 1),
                                      (Fraction(3, 10), Fraction(1, 2)))),
        profile=canonical_profile(), initial=tent(),
        regularizer=canonical_regularizer())


def test_criterion_01_matrix_oracle_equivalence():
    start = time.perf_counter()
    t0, dt = 0.5, 1e-3
    worst = 0.0
    for seed in range(10):
        A, B = random_stable_pair(4, seed)
        system = MatrixSystem(A)
        op = PerturbationOperator.matrix(B)
        assert op.analytic_volterra_bound(system, t0) < 1.0
        rng = np.random.default_rng(100 + seed)
        x = rng.standard_normal(4)
        x /= np.linalg.norm(x)
        for t in (0.5, 1.0, 2.0):
            got = neumann_semigroup(system, op, x, t, t0, dt)
            want = scipy.linalg.expm(t * (A + B)) @ x
            worst = max(worst, float(np.linalg.norm(got - want)))
    _verdict(1, "matrix oracle equivalence", worst <= 1e-6,
             f"max gap over 10 systems x 3 times = {worst:.3e} <= 1e-06",
             time.perf_counter() - start, 30)


def test_criterion_02_composition_identity_second_order():
    start = time.perf_counter()
    system = MatrixSystem(np.diag([-1.0, -2.0]))
    op = PerturbationOperator.matrix(np.array([[0.0, 0.1], [0.1, 0.0]]))
    x = np.array([1.0, 1.0])
    worst_ratio = np.inf
    for n in (1, 2, 3):
        res = [identity_check(system, op, n, 0.152 + 0.5 * dt,
                              0.252 + 0.5 * dt, x, dt)
               for dt in (4e-3, 2e-3, 1e-3)]
        for a, b in zip(res, res[1:]):
            worst_ratio = min(worst_ratio, a / b)
    _verdict(2, "composition identity second order", worst_ratio >= 3.5,
             f"min halving ratio over n in 1..3 = {worst_ratio:.2f} >= 3.5",
             time.perf_counter() - start, 10)


def test_criterion_03_variation_of_parameters():
    start = time.perf_counter()
    # matrix side against the dense exponential
    system = MatrixSystem(np.diag([-1.0, -2.0]))
    op = PerturbationOperator.matrix(np.array([[0.0, 0.1], [0.1, 0.0]]))
    x = np.array([1.0, 0.0])
    C = system.A + op.matrix_data
    r_mat = varpar_residual(system, op,
                            lambda r: scipy.linalg.expm(r * C) @ x,
                            1.0, x, 1e-3)

    # transport side against the scalar renewal oracle, window seminorm
    prob = _delta_problem()
    dx, t = 2e-3, 0.5
    sys_t = make_system(prob, dx, t, 0.2)
    op_t = build_rank_one(prob)
    phi = oracle_weights(prob.measure, prob.profile, prob.initial, t, dx)

    def S_fn(r):
        k = int(round(r / dx))
        return oracle_solution(prob.measure, prob.profile, prob.initial,
                               sys_t, r, phi=phi[:k + 1])

    r_tra = varpar_residual(sys_t, op_t, S_fn, t, prob.initial, dx)
    ok = r_mat <= 1e-6 and r_tra <= 1e-3
    _verdict(3, "variation of parameters", ok,
             f"matrix residual {r_mat:.3e} <= 1e-06, "
             f"transport residual {r_tra:.3e} <= 1e-03",
             time.perf_counter() - start, 60)


def test_criterion_04_transport_oracle_match():
    start = time.perf_counter()
    prob = _two_atom_problem()
    head = engine_vs_oracle(prob, 1.0, 1e-3, 0.2)
    study = refinement_study(prob, 1.0, [5e-3, 2.5e-3, 1.25e-3, 6.25e-4], 0.2)
    min_order = min(study["orders"])
    ok = head["gap"] <= 1e-3 and min_order >= 1.8
    _verdict(4, "transport oracle match", ok,
             f"headline gap {head['gap']:.3e} <= 1e-03, min refinement "
             f"order {min_order:.2f} >= 1.8 over three halvings",
             time.perf_counter() - start, 120)


def test_criterion_05_admissibility_bounds():
    start = time.perf_counter()
    prob = _delta_problem()
    dx, t0 = 4e-3, 0.2  # 2 |mu| t0 = 0.4
    sys_t = make_system(prob, dx, t0, t0)
    op = build_rank_one(prob)
    probes = translation_probes(sys_t, t0, dx)
    rep = admissibility_check(sys_t, op, t0, dx, probes)
    assert rep.smallness_analytic == pytest.approx(0.4)

    _, diag = neumann_nodes(sys_t, op, sys_t.sample(prob.initial), t0,
                            [_lattice_steps(t0, dx)], dx)
    tn = diag.term_norms
    term_ratio = max(tn[i + 1] / tn[i] for i in range(1, len(tn) - 1))
    ok = (rep.volterra_norm_lower_bound <= rep.smallness_analytic + 1e-12
          and rep.smallness_observed <= rep.smallness_analytic + 1e-12
          and term_ratio <= 0.45)
    _verdict(5, "admissibility bounds", ok,
             f"probe norm bound {rep.volterra_norm_lower_bound:.3f} <= "
             f"analytic {rep.smallness_analytic:.3f}, term ratio "
             f"{term_ratio:.3f} <= 0.45",
             time.perf_counter() - start, 30)


def test_criterion_06_domain_conditions():
    start = time.perf_counter()
    prob = _two_atom_problem()
    f = build_domain_function(prob)
    rep = domain_check(f, prob)
    exact = rep.in_domain and rep.worst == 0 \
        and all(r == 0 for _, r in rep.kink_residuals)

    dprob = _delta_problem()
    dx = 1e-3
    sys_t = make_system(dprob, dx, 0.2, 0.2)
    op = build_rank_one(dprob)
    fd = build_domain_function(dprob)
    out = generator_check(sys_t, op, fd, [4e-3, 2e-3, 1e-3], dx, t0=0.2)
    quots = [out[h] for h in (4e-3, 2e-3, 1e-3)]
    quot_ok = quots[0] > quots[1] > quots[2] and quots[2] <= 0.05

    gaps = tuple(int(v) for v in canonical_gap_vector())
    ok = exact and quot_ok and gaps == (-1, 2, -1)
    _verdict(6, "domain conditions", ok,
             f"exact residuals {exact}, quotient at h=1e-3 = "
             f"{quots[2]:.3e} <= 0.05 decreasing, gap vector {gaps}",
             time.perf_counter() - start, 60)


def test_criterion_07_countable_jump_sawtooth():
    start = time.perf_counter()
    g = sawtooth_profile()
    assert len(g.jumps()) == 9
    prob = TransportProblem(measure=BoundedMeasure.dirac(0), profile=g,
                            initial=tent())
    out = engine_vs_oracle(prob, 1.0, 1e-3, 0.2)
    _verdict(7, "countable-jump sawtooth", out["gap"] <= 1e-3,
             f"nine-jump profile, engine-oracle gap {out['gap']:.3e} "
             f"<= 1e-03",
             time.perf_counter() - start, 120)


def test_criterion_08_implemented_correspondences():
    start = time.perf_counter()
    A, B = random_stable_pair(3, 5)
    impl = ImplementedSemigroup(MatrixSystem(A))
    K = lift_perturbation(B)
    rng = np.random.default_rng(5)
    S = rng.standard_normal((3, 3))
    S /= opnorm2(S)
    got = perturbed_implemented(impl, K, S, 1.0, 0.5, 1e-3)
    gap = opnorm2(got - scipy.linalg.expm(A + B) @ S)

    round_trip_exact = np.array_equal(extract_perturbation(K), B)
    w = rng.standard_normal((3, 3))
    bad = SuperOperator.rank_one_functional(w, np.eye(3))
    try:
        extract_perturbation(bad)
        rejected = False
    except NonMultiplicative:
        rejected = True

    ok = gap <= 1e-6 and round_trip_exact and rejected
    _verdict(8, "implemented correspondences", ok,
             f"perturbed gap {gap:.3e} <= 1e-06, extract(lift) exact "
             f"{round_trip_exact}, non-multiplicative rejected {rejected}",
             time.perf_counter() - start, 30)


def test_criterion_09_comparison_equalities():
    start = time.perf_counter()
    ts = [1e-3 * 2 ** k for k in range(10)] + [1.0]
    A = np.array([[0.0, 1.0], [-1.0, 0.0]])
    Bm = np.array([[0.0, 0.1], [0.1, 0.0]])
    eq = comparison_equivalence(MatrixSystem(A), MatrixSystem(A + Bm), ts)
    mat = comparison_check(MatrixSystem(A), PerturbationOperator.matrix(Bm),
                           ts)
    tra = comparison_curve(_delta_problem(), ts)
    ok = (eq["worst_gap"] <= 1e-10 and mat["stability_ratio"] <= 2.0
          and tra["stability_ratio"] <= 2.0)
    _verdict(9, "comparison equalities", ok,
             f"norm equality gap {eq['worst_gap']:.3e} <= 1e-10, dyadic "
             f"stability matrix {mat['stability_ratio']:.3f} / transport "
             f"{tra['stability_ratio']:.3f} <= 2",
             time.perf_counter() - start, 60)


def test_criterion_10_structural_identities():
    start = time.perf_counter()
    n = 4
    rng = np.random.default_rng(17)
    A = rng.standard_normal((n, n))
    A -= (np.max(np.linalg.eigvals(A).real) + 0.5) * np.eye(n)

    def resolvent_fn(lam):
        return SuperOperator.left_multiplication(
            np.linalg.solve(lam * np.eye(n) - A, np.eye(n)))

    residual = pseudoresolvent_extract(resolvent_fn, 2.0, 5.0)["residual"]

    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    eigs = -1.0 - rng.random(n)
    An = Q @ np.diag(eigs) @ Q.T
    hy = hille_yosida_check(An, float(np.max(eigs)), 1.0,
                            [1.0, 2.0, 4.0, 8.0])

    eu = euler_check(SuperOperator.left_multiplication(A), 1.0, np.eye(n),
                     [1, 2, 4, 8, 16])
    ok = residual <= 1e-10 and hy["worst_ratio"] <= 1.0 + 1e-8 \
        and eu["decreasing"]
    _verdict(10, "structural identities", ok,
             f"pseudoresolvent residual {residual:.3e} <= 1e-10, "
             f"Hille-Yosida ratio {hy['worst_ratio']:.10f} <= 1+1e-08, "
             f"Euler residual decreasing {eu['decreasing']}",
             time.perf_counter() - start, 30)
