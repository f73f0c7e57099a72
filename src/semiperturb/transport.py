"""Left translation on the line perturbed by a rank-one evaluation operator.

The perturbed generator acts as u' + (pairing of u with a bounded measure)
times a discontinuous profile; its domain consists of continuous functions
whose derivative kinks at the profile jumps are exactly the pairing value
times the jump gaps.  This module owns

* the independent oracle: a blocked exact solve of the implicit
  trapezoid system of the scalar renewal equation for phi(tau) = pairing
  of the perturbed orbit, plus an exact reconstruction of the solution
  from phi;
* domain bookkeeping with exact rational arithmetic (membership residuals
  are identically zero, not merely small, for the canonical examples);
* constructors for the stock profiles and domain functions;
* ``run_perturbed``, the high-level driver wiring a grid system and a
  rank-one operator into the Neumann engine.

Oracle and engine share only low-level sampling primitives, the
exact panel quadrature ``hat_moments``, which the tests check against
exact rational hat products, and the lattice convolution
``lattice_convolve``, which the tests check against ``np.convolve``.
The time stepping (an implicit system solved exactly here, an explicit
truncated series there) and the free-part handling are deliberately
different routes.
"""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction

import numpy as np

from .errors import DegenerateProfile, GuardViolation, StepSizeError
from .functions import (
    BoundedMeasure,
    CompactInterval,
    GridFunction,
    PiecewiseFunction,
    hat_moments,
    lattice_convolve,
    sample_lag_kernel,
    sample_sided,
    tent,
    three_jump_profile,
)
from .perturbation import (
    PerturbationOperator,
    SeriesDiagnostics,
    comparison_summary,
    neumann_semigroup,
)
from .semigroup import TranslationSystem


# ---------------------------------------------------------------------------
# profiles and domain functions


CANONICAL_GAPS = (-1, 2, -1)


def canonical_gap_vector():
    """Recompute the stock profile's gaps from one-sided limits.

    Kept as a startup assertion: the hard-coded vector and the exact
    arithmetic must never drift apart.
    """
    gaps = tuple(hi - lo for _, lo, hi in three_jump_profile().jumps())
    if tuple(int(v) for v in gaps) != CANONICAL_GAPS:
        raise AssertionError(f"canonical gap vector drifted: {gaps}")
    return gaps


def canonical_profile() -> PiecewiseFunction:
    """The stock three-jump profile (gaps -1, 2, -1 at -1, 0, 1)."""
    canonical_gap_vector()
    return three_jump_profile()


def canonical_regularizer() -> PiecewiseFunction:
    """Tent function h with h - h' equal to the canonical profile, exactly."""
    return tent()


def sawtooth_profile() -> PiecewiseFunction:
    """Nine-jump sawtooth: unit teeth on (k, k+1], k = -5..3, then a half
    tooth decaying on (4, 5].

    Gaps are -1 at -4, ..., 3 and -0.5 at 4; no regularizer in closed
    piecewise-polynomial form is supplied, which exercises the engine
    paths that never touch regularized coordinates.
    """
    breaks = list(range(-5, 6))
    pieces = [[0]]
    for k in range(-5, 4):
        pieces.append([-k, 1])          # x - k on (k, k+1]
    pieces.append([Fraction(5, 2), Fraction(-1, 2)])  # (5 - x)/2 on (4, 5]
    pieces.append([0])
    return PiecewiseFunction(breaks, pieces)


def corner_profile(profile: PiecewiseFunction,
                   half_width=Fraction(1, 2)) -> PiecewiseFunction:
    """Piecewise-quadratic w whose derivative kink at each profile jump
    equals that jump's gap, and which is C^1 everywhere else.

    Built from one quadratic corner per jump: supported on
    [z - a, z + a], value a/2 at z, derivative +1 then -1.  Scaling by
    gap/2 makes the kink defect exactly the gap; all arithmetic stays
    rational when the profile is rational.
    """
    a = Fraction(half_width)
    total = None
    for z, lo, hi in profile.jumps():
        gap = hi - lo
        z = Fraction(z)
        c_l = z - a
        c_r = z + a
        inv = Fraction(1, 2) / a
        left = [c_l * c_l * inv, -2 * c_l * inv, inv]
        right = [c_r * c_r * inv, -2 * c_r * inv, inv]
        corner = PiecewiseFunction([c_l, z, c_r],
                                   [[0], left, right, [0]])
        piece = corner.scale(Fraction(gap) / 2)
        total = piece if total is None else total + piece
    if total is None:
        raise ValueError("profile has no jumps to match")
    return total


def bump_function(center=0, radius=1) -> PiecewiseFunction:
    """C^1 bump (1 - ((x-c)/r)^2)^2 on (c - r, c + r], rational arithmetic."""
    c = Fraction(center)
    r = Fraction(radius)
    base = PiecewiseFunction(
        [-r, r],
        [[0],
         [1, 0, Fraction(-2, 1) / (r * r), 0,
          Fraction(1, 1) / (r ** 4)],
         [0]])
    return base if c == 0 else base.translate(-c)


@dataclasses.dataclass
class DomainReport:
    """Exact bookkeeping for membership in the perturbed generator domain."""

    in_domain: bool
    pairing_value: object
    kink_residuals: list      # (location, residual) pairs, exact when rational
    continuity_defects: list  # (location, jump of f) pairs
    worst: float

    def to_dict(self) -> dict:
        return {
            "in_domain": self.in_domain,
            "pairing_value": float(self.pairing_value),
            "kink_residuals": [[float(z), float(r)]
                               for z, r in self.kink_residuals],
            "continuity_defects": [[float(z), float(r)]
                                   for z, r in self.continuity_defects],
            "worst": self.worst,
        }


def domain_check(f: PiecewiseFunction, problem: "TransportProblem"
                 ) -> DomainReport:
    """Does f lie in the perturbed generator's domain?

    Needs f continuous and, at every point where either f' kinks or the
    profile jumps, kink defect of f' == pairing(f) * profile gap, exactly:
    with float data a rounding residual fails too (``worst`` sizes it).
    """
    phi = problem.measure.pair(f)
    cont = [(z, hi - lo) for z, lo, hi in f.jumps()]
    gap_at = {z: hi - lo for z, lo, hi in problem.profile.jumps()}
    locations = {rec[0] for rec in f.derivative_jumps()}
    locations.update(gap_at.keys())
    resids = []
    for z in sorted(locations, key=float):
        defect = (f.one_sided_derivative(z, "left")
                  - f.one_sided_derivative(z, "right"))
        resids.append((z, defect - phi * gap_at.get(z, 0)))
    worst_list = [abs(float(r)) for _, r in resids] \
        + [abs(float(r)) for _, r in cont]
    worst = max(worst_list) if worst_list else 0.0
    ok = not cont and all(r == 0 for _, r in resids)
    return DomainReport(ok, phi, resids, cont, worst)


def build_domain_function(problem: "TransportProblem",
                          smooth_part: PiecewiseFunction | None = None,
                          corner_part: PiecewiseFunction | None = None,
                          ) -> PiecewiseFunction:
    """Smooth function plus scaled corners landing exactly in the domain.

    With w the corner profile (kink defects equal to the profile gaps)
    and f0 smooth, f = f0 + s w needs s = pairing(f0) + s * pairing(w),
    solvable unless pairing(w) == 1, which is reported as a degenerate
    profile rather than divided through.
    """
    f0 = smooth_part if smooth_part is not None else bump_function()
    w = corner_part if corner_part is not None \
        else corner_profile(problem.profile)
    pw = problem.measure.pair(w)
    denom = 1 - pw
    if denom == 0 or abs(float(denom)) < 1e-12:
        raise DegenerateProfile(
            "corner profile pairs to 1; the kink equation s = "
            "pairing(f0) + s * pairing(w) has no solution")
    s = problem.measure.pair(f0) / denom
    return f0 + w.scale(s)


# ---------------------------------------------------------------------------
# scalar renewal oracle


_BLOCK = 512  # at most the direct-convolution size: causal block rounding


def oracle_weights(measure: BoundedMeasure, profile: PiecewiseFunction,
                   u0: PiecewiseFunction, t: float, dt: float) -> np.ndarray:
    """Implicit-trapezoid solve of the scalar renewal equation.

    phi(tau) = pairing(u0 shifted by tau)
               + integral_0^tau phi(r) kernel(tau - r) dr
    on the lattice 0..t, the free term being the left-limit lag sample of
    u0.  Step m > 0 is the lower-triangular Toeplitz system

        diag phi[m] - dt sum_{0<j<m} k_mid[m-j] phi[j]
            = free[m] + dt phi[0] k_left[m] / 2,

    diag = 1 - dt * k_right(0)/2, which must stay positive; otherwise the
    step size is rejected.  It is solved exactly, in blocks of 512 steps:
    the history of earlier blocks enters through one
    :func:`lattice_convolve`, and each block multiplies by the reciprocal
    series of the symbol (diag, -dt k_mid[1], -dt k_mid[2], ...), cut to
    one block and built once per call.  The block products run on the
    direct convolution, so the rounding of phi[m] scales with
    max|phi[:m+1]|, never with later weights: a prefix phi[:k+1] is as
    accurate as a solve that stops at step k.
    """
    m_steps = int(round(t / dt))
    if abs(t - m_steps * dt) > 1e-8 * max(dt, t):
        raise StepSizeError(f"t={t} is not a multiple of dt={dt}")
    k_left, k_mid, k_right = sample_lag_kernel(measure, profile, dt,
                                                m_steps)
    diag = 1.0 - 0.5 * dt * k_right[0]
    if diag <= 0:
        raise StepSizeError(
            f"implicit diagonal {diag:.3e} <= 0 at dt={dt}; refine the step")
    free = sample_lag_kernel(measure, u0, dt, m_steps)[0]
    phi = np.empty(m_steps + 1)
    phi[0] = free[0]
    # psi = phi[1:] solves sum_{j<=i} c[i-j] psi[j] = rhs[i], c the symbol
    rhs = free[1:] + 0.5 * dt * phi[0] * k_left[1:]
    symbol = -dt * k_mid[:_BLOCK]
    symbol[0] = diag
    inverse = _reciprocal_series(symbol)
    psi = phi[1:]
    for lo in range(0, m_steps, _BLOCK):
        hi = min(lo + _BLOCK, m_steps)
        block = rhs[lo:hi]
        if lo:
            block = block + dt * lattice_convolve(psi[:lo], k_mid, hi)[lo:]
        psi[lo:hi] = lattice_convolve(inverse, block, hi - lo)
    return phi


def _reciprocal_series(c):
    """First len(c) terms of the power series 1 / c(x), c[0] != 0.

    Newton doubling: with d exact to k terms, the next terms are
    -d * (c d)[k:2k], since c d = 1 + x^k (c d)[k:].
    """
    d = np.array([1.0 / c[0]])
    while d.size < c.size:
        k = d.size
        top = min(2 * k, c.size)
        defect = lattice_convolve(c, d, top)[k:]
        d = np.concatenate([d, -lattice_convolve(d, defect, top - k)])
    return d


def oracle_solution(measure: BoundedMeasure, profile: PiecewiseFunction,
                    u0: PiecewiseFunction, system: TranslationSystem,
                    t: float, phi: np.ndarray | None = None) -> GridFunction:
    """Oracle value of the perturbed evolution at time t on the grid.

    Free part sampled exactly from the shifted initial profile.  The
    series part integrates the linear interpolant of the renewal weights
    against the exact profile, cell by cell: two :func:`lattice_convolve`
    products of the weights with the profile's :func:`hat_moments`, on
    the FFT once t spans more than 512 steps.  That is a second-order
    reconstruction with different plumbing (and a different error
    constant) than the engine's sampled trapezoid.
    """
    dt = system.spacing
    if phi is None:
        phi = oracle_weights(measure, profile, u0, t, dt)
    m = len(phi) - 1
    vals = system.sample(u0.translate(t)).values.copy()
    if m > 0:
        i0, i1 = hat_moments(profile, system.origin, dt,
                             system.count + m - 1)
        # node k reads cell k + m - j with weights phi[j] (nearer edge)
        # and phi[j - 1], j = 1..m
        n = system.count + m - 1
        vals += dt * (lattice_convolve(i0, phi[1:], n)[m - 1:]
                      + lattice_convolve(i1, phi[:m], n)[m - 1:])
    return system.make(vals)


# ---------------------------------------------------------------------------
# high-level driver


@dataclasses.dataclass
class TransportProblem:
    """Geometry plus data for a perturbed transport run."""

    measure: BoundedMeasure
    profile: PiecewiseFunction
    initial: PiecewiseFunction
    regularizer: PiecewiseFunction | None = None
    window: CompactInterval = CompactInterval(-3.0, 3.0)

    def guard_product(self, t0: float) -> float:
        return (self.measure.total_variation()
                * float(self.profile.sup_norm()) * t0)


def build_rank_one(problem: TransportProblem,
                   require_regularized: bool = True) -> PerturbationOperator:
    """Rank-one operator for the problem; by default insists on having a
    regularizer so the slow cross-check route stays available."""
    if require_regularized and problem.regularizer is None:
        raise ValueError(
            "problem has no regularizer; pass require_regularized=False "
            "to run fast-path only")
    return PerturbationOperator.rank_one(
        problem.measure, problem.profile,
        regularized_profile=problem.regularizer)


def make_system(problem: TransportProblem, spacing: float, t: float,
                t0: float) -> TranslationSystem:
    """Grid sized so the window stays clean for times up to t.

    Left translation pulls values in from the right, so the grid must
    extend ``t + t0`` beyond the window (and past the measure's support)
    on both sides; the origin is snapped to the spacing lattice so that
    lattice-rational atoms land exactly on nodes.  A spacing that is not
    positive and finite, or a t or t0 that is not nonnegative and finite,
    raises ValueError before anything is divided.
    """
    if not (math.isfinite(spacing) and spacing > 0):
        raise ValueError(
            f"spacing must be positive and finite, got {spacing!r}")
    for name, v in (("t", t), ("t0", t0)):
        if not (math.isfinite(v) and v >= 0):
            raise ValueError(
                f"{name} must be nonnegative and finite, got {v!r}")
    pts = [float(p) for p in problem.measure.support_points()]
    lo_pt = min([float(problem.window.lo)] + pts)
    hi_pt = max([float(problem.window.hi)] + pts)
    margin = t + t0 + 2 * spacing
    origin = np.floor((lo_pt - margin) / spacing) * spacing
    x_last = np.ceil((hi_pt + margin) / spacing) * spacing
    count = int(round((x_last - origin) / spacing)) + 1
    return TranslationSystem(origin, spacing, count, horizon=t + t0,
                             window=problem.window)


@dataclasses.dataclass
class TransportRun:
    state: GridFunction
    system: TranslationSystem
    operator: PerturbationOperator
    diagnostics: SeriesDiagnostics
    t: float
    t0: float


def run_perturbed(problem: TransportProblem, t: float, spacing: float,
                  t0: float, tol: float = 1e-9) -> TransportRun:
    """Drive the Neumann engine on the transport problem.

    Guards on total-variation * sup|profile| * t0 < 1, which certifies
    series convergence; the acceptance configurations sit at 0.4 and 0.6
    of that budget.  The engine needs no regularizer, so a problem
    without one runs too.
    """
    guard = problem.guard_product(t0)
    if guard >= 1.0:
        raise GuardViolation(
            f"guard product {guard:.3f} >= 1 at t0={t0}; shorten the horizon")
    system = make_system(problem, spacing, t, t0)
    op = build_rank_one(problem, require_regularized=False)
    state, diag = neumann_semigroup(system, op, problem.initial, t, t0,
                                    spacing, tol=tol, diagnostics=True)
    return TransportRun(state, system, op, diag, t, t0)


def engine_vs_oracle(problem: TransportProblem, t: float, spacing: float,
                     t0: float, tol: float = 1e-9) -> dict:
    """Window sup gap between the Neumann engine and the renewal oracle."""
    run = run_perturbed(problem, t, spacing, t0, tol=tol)
    oracle = oracle_solution(problem.measure, problem.profile,
                             problem.initial, run.system, t)
    gap = (run.state - oracle).seminorm(problem.window)
    return {
        "spacing": spacing,
        "gap": float(gap),
        "terms": run.diagnostics.terms_used,
        "segments": run.diagnostics.segments,
    }


def refinement_study(problem: TransportProblem, t: float, spacings,
                     t0: float) -> dict:
    """Engine-oracle gaps across grid refinements plus observed orders;
    the series runs to tol 1e-11."""
    rows = [engine_vs_oracle(problem, t, h, t0, tol=1e-11)
            for h in spacings]
    orders = []
    for a, b in zip(rows, rows[1:]):
        ratio = a["spacing"] / b["spacing"]
        if b["gap"] == 0:
            orders.append(float("inf"))
        else:
            orders.append(float(np.log(a["gap"] / b["gap"])
                                / np.log(ratio)))
    return {"rows": rows, "orders": orders}


def comparison_curve(problem: TransportProblem, t_values) -> dict:
    """Short-time comparison constants sup|S(t)u - T(t)u| / t for the
    problem's initial state u.

    Evaluated straight from the renewal weights on 601 evenly spaced
    points of the window, with a fresh lattice of 128 time steps per t,
    so dyadic t values need no common grid; per t, one ``sample_sided``
    call on the lag x point lattice and one trapezoid product.
    """
    lo, hi = float(problem.window.lo), float(problem.window.hi)
    xs = np.linspace(lo, hi, 601)
    rows = []
    for t in t_values:
        if t <= 0:
            raise ValueError("comparison times must be positive")
        dt = t / 128
        phi = oracle_weights(problem.measure, problem.profile,
                             problem.initial, t, dt)
        lags = dt * np.arange(len(phi) - 1, -1, -1)
        _, g, _ = sample_sided(problem.profile, xs + lags[:, None],
                               snap_tol=1e-9 * dt)
        phi[[0, -1]] *= 0.5
        worst = float(np.max(np.abs(phi @ g))) * dt
        rows.append({"t": float(t), "constant": worst / t})
    top, ratio = comparison_summary([r["constant"] for r in rows])
    return {"rows": rows, "constant": top, "stability_ratio": ratio}
