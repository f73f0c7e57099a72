"""One pass of each benchmark workload: solve, then cross-check.

A pass runs every unit of a workload through the public API and
computes the independent route next to it (``scipy.linalg.expm`` for
the matrix engines, the renewal oracle for transport).  It records what
it measured and the contract each number must meet; ``Unit.misses``
applies the contract after the timed region.  Tolerances are those of
``tests/test_acceptance.py`` and ``semiperturb matrix-demo``.
"""

import dataclasses
import io
import math
import operator

import numpy as np
import scipy.linalg

from semiperturb.cli import deterministic_json, emit_convergence
from semiperturb.implemented import (
    ImplementedSemigroup,
    SuperOperator,
    comparison_equivalence,
    euler_check,
    extract_perturbation,
    lift_perturbation,
    perturbed_implemented,
)
from semiperturb.perturbation import (
    PerturbationOperator,
    admissibility_check,
    generator_check,
    neumann_semigroup,
    translation_probes,
    varpar_residual,
)
from semiperturb.semigroup import MatrixSystem, opnorm2
from semiperturb.transport import (
    build_domain_function,
    build_rank_one,
    comparison_curve,
    make_system,
    oracle_solution,
    oracle_weights,
    refinement_study,
)

# Library errors all derive from ValueError or RuntimeError, and numpy's
# LinAlgError is a ValueError.  A unit that raises one of these, or an
# arithmetic fault, is counted as refused and the run goes on.
REFUSALS = (ValueError, RuntimeError, ArithmeticError)

MATRIX_T0, MATRIX_DT, MATRIX_TOL = 0.5, 1e-3, 1e-6
MATRIX_TIMES = (0.5, 1.0, 2.0)
REFINE_T, REFINE_T0 = 2.0, 0.2
REFINE_SPACINGS = (2e-3, 1e-3, 5e-4, 2.5e-4)
GAP_TOL, MIN_ORDER = 1e-3, 1.8
GENERATOR_STEPS = (4e-3, 2e-3, 1e-3)
DYADIC_TIMES = tuple(1e-3 * 2 ** k for k in range(10)) + (1.0,)
IMPLEMENTED_T = 0.5
# a coarse second run gives the engine's order; at n = 10 it would add a
# quarter to the pass, so only the smaller algebras get one
IMPLEMENTED_ORDER_DIMS = (3, 6)


@dataclasses.dataclass
class Unit:
    """One verified result: measurements, the contract, and any refusal.

    ``gap`` is the distance to the independent route and ``order`` the
    observed refinement order, when the unit has them.  ``checks`` holds
    ``(name, measured, bound, relation)`` with relation one of "le",
    "lt", "ge" or "eq".
    """

    id: str
    lattice: bool = True
    gap: float | None = None
    order: float | None = None
    checks: list = dataclasses.field(default_factory=list)
    error: str | None = None

    def check(self, name, measured, bound, relation):
        self.checks.append((name, measured, bound, relation))

    def misses(self):
        """Names of the checks this unit failed (a refusal is one)."""
        if self.error is not None:
            return [f"refused: {self.error}"]
        return [f"{name}: {measured!r} vs {bound!r} ({relation})"
                for name, measured, bound, relation in self.checks
                if not getattr(operator, relation)(measured, bound)]


def _observed_orders(errors, ratio=2.0):
    return [math.log(a / b) / math.log(ratio) if b > 0 else math.inf
            for a, b in zip(errors, errors[1:])]


# Called after every unit when set; the benchmark's clock uses it to
# time the machine's speed between units (``Clock`` in run.py).
after_unit = None


def run_unit(unit, body):
    """Run ``body(unit)``, recording a refusal on the unit, not raising."""
    try:
        body(unit)
    except REFUSALS as exc:
        unit.error = f"{type(exc).__name__}: {exc}"
    if after_unit is not None:
        after_unit()
    return unit


# ---------------------------------------------------------------------------
# matrix-oracle


def _matrix_pair(case, report):
    def body(unit):
        A, B, x = case["A"], case["B"], case["x"]
        system = MatrixSystem(A)
        op = PerturbationOperator.matrix(B)
        unit.check("guard", op.analytic_volterra_bound(system, MATRIX_T0),
                   1.0, "lt")
        gaps = []
        for t in MATRIX_TIMES:
            got = neumann_semigroup(system, op, x, t, MATRIX_T0, MATRIX_DT)
            want = scipy.linalg.expm(t * (A + B)) @ x
            gaps.append(float(np.linalg.norm(got - want)))
            unit.check(f"gap-t{t:g}", gaps[-1], MATRIX_TOL, "le")
        # one coarser step on the first horizon gives the engine's order
        t = MATRIX_TIMES[0]
        coarse = neumann_semigroup(system, op, x, t, MATRIX_T0,
                                   2 * MATRIX_DT)
        coarse_gap = float(np.linalg.norm(
            coarse - scipy.linalg.expm(t * (A + B)) @ x))
        unit.gap = max(gaps)
        unit.order = _observed_orders([coarse_gap, gaps[0]])[0]
        report[unit.id] = {"gaps": gaps, "coarse_gap": coarse_gap}
    return run_unit(Unit(case["id"]), body)


def matrix_oracle(cases):
    report = {}
    units = [_matrix_pair(case, report) for case in cases]
    return units, deterministic_json(report)


# ---------------------------------------------------------------------------
# transport-refine


def _refine_case(case, report):
    def body(unit):
        study = refinement_study(case["problem"], REFINE_T, REFINE_SPACINGS,
                                 REFINE_T0)
        gaps = [row["gap"] for row in study["rows"]]
        unit.gap = max(gaps)
        unit.order = min(study["orders"])
        csv = io.StringIO()
        emit_convergence([(row["spacing"], row["gap"])
                          for row in study["rows"]], csv)
        report[unit.id] = {"rows": study["rows"], "orders": study["orders"],
                           "csv": csv.getvalue()}
        unit.check("gap", unit.gap, GAP_TOL, "le")
        # the off-lattice atom converges at first order today: its order
        # is reported, not held to the lattice contract
        if case["lattice"]:
            unit.check("order", unit.order, MIN_ORDER, "ge")
    return run_unit(Unit(case["id"], lattice=case["lattice"]), body)


def transport_refine(cases):
    report = {}
    units = [_refine_case(case, report) for case in cases]
    return units, deterministic_json(report)


# ---------------------------------------------------------------------------
# transport-checks


def _varpar(prob, unit):
    dx, t = 2e-3, 0.5
    system = make_system(prob, dx, t, 0.2)
    op = build_rank_one(prob)
    phi = oracle_weights(prob.measure, prob.profile, prob.initial, t, dx)

    def oracle_at(r):
        k = int(round(r / dx))
        return oracle_solution(prob.measure, prob.profile, prob.initial,
                               system, r, phi=phi[:k + 1])

    unit.gap = varpar_residual(system, op, oracle_at, t, prob.initial, dx)
    unit.check("residual", unit.gap, GAP_TOL, "le")


def _admissibility(prob, unit):
    dx, t0 = 4e-3, 0.2
    system = make_system(prob, dx, t0, t0)
    op = build_rank_one(prob)
    rep = admissibility_check(system, op, t0, dx,
                              translation_probes(system, t0, dx))
    unit.check("admissible", rep.admissible, True, "eq")


def _generator(prob, unit):
    dx, t0 = 1e-3, 0.2
    system = make_system(prob, dx, t0, t0)
    out = generator_check(system, build_rank_one(prob),
                          build_domain_function(prob), list(GENERATOR_STEPS),
                          dx, t0=t0)
    quots = [out[h] for h in GENERATOR_STEPS]
    unit.order = min(_observed_orders(quots))
    unit.check("decreasing", all(a > b for a, b in zip(quots, quots[1:])),
               True, "eq")
    unit.check("quotient", quots[-1], 0.05, "le")


def _comparison(prob, unit):
    out = comparison_curve(prob, list(DYADIC_TIMES))
    unit.check("stability", out["stability_ratio"], 2.0, "le")


_CHECKS = (("varpar", _varpar), ("admissibility", _admissibility),
           ("generator", _generator), ("comparison", _comparison))


def transport_checks(cases):
    units = []
    for case in cases:
        for name, fn in _CHECKS:
            units.append(run_unit(
                Unit(f"{case['id']}-{name}", lattice=case["lattice"]),
                lambda unit, fn=fn: fn(case["problem"], unit)))
    return units, None


# ---------------------------------------------------------------------------
# implemented-lift


def _implemented_case(case):
    def body(unit):
        n, A, B, S = case["n"], case["A"], case["B"], case["S"]
        t = t0 = IMPLEMENTED_T
        impl = ImplementedSemigroup(MatrixSystem(A))
        K = lift_perturbation(B)
        want = scipy.linalg.expm(t * (A + B)) @ S
        got = perturbed_implemented(impl, K, S, t, t0, MATRIX_DT)
        unit.gap = opnorm2(got - want)
        unit.check("gap", unit.gap, MATRIX_TOL, "le")
        if n in IMPLEMENTED_ORDER_DIMS:
            coarse = perturbed_implemented(impl, K, S, t, t0, 2 * MATRIX_DT)
            unit.order = _observed_orders([opnorm2(coarse - want),
                                           unit.gap])[0]
        unit.check("extract-lift", bool(np.array_equal(
            extract_perturbation(K), B)), True, "eq")
        eq = comparison_equivalence(MatrixSystem(A), MatrixSystem(A + B),
                                    list(DYADIC_TIMES))
        unit.check("norm-equality", eq["worst_gap"], 1e-10, "le")
        eu = euler_check(SuperOperator.left_multiplication(A), 1.0,
                         np.eye(n), [1, 2, 4, 8, 16])
        unit.check("euler-decreasing", eu["decreasing"], True, "eq")
    return run_unit(Unit(case["id"]), body)


def implemented_lift(cases):
    return [_implemented_case(case) for case in cases], None


PASSES = {
    "matrix-oracle": matrix_oracle,
    "transport-refine": transport_refine,
    "transport-checks": transport_checks,
    "implemented-lift": implemented_lift,
}
