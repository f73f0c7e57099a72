"""Left translation on the line perturbed by a rank-one evaluation operator.

The perturbed generator acts as u' + (pairing of u with a bounded measure)
times a discontinuous profile; its domain consists of continuous functions
whose derivative kinks at the profile jumps are exactly the pairing value
times the jump gaps.  This module owns

* the independent oracle: an exact solve of the implicit trapezoid
  system of the scalar renewal equation for phi(tau) = pairing of the
  perturbed orbit, on a tree of step ranges whose histories are FFT
  middle products (O(N log^2 N) for N steps), plus a reconstruction of
  the solution from phi: the exact free sample, and the one
  :func:`reconstruction_nodes` of phi against the profile's hat moments
  on the cells where the profile can be nonzero;
* domain bookkeeping with exact rational arithmetic (membership residuals
  are identically zero, not merely small, for the canonical examples);
* constructors for the stock profiles and domain functions;
* ``run_perturbed``, the high-level driver wiring a grid system and a
  rank-one operator into the Neumann engine.

Oracle and engine solve the same discretisation: the implicit
trapezoid system of the renewal equation over the kernel samples of
``sample_lag_kernel``.  On one segment the engine's summed renewal
weights equal ``oracle_weights`` to about 3e-15, so the gap between
them cannot see an error that both make.  They share the sampling
primitives, the product against a fixed operand (``KeptOperand``, which
the tests check against ``np.convolve``), the rule ``support_cells`` for
where a profile can be nonzero, and the routine that rebuilds the state
from the weights, ``reconstruction_nodes``.  They differ in how the
system is solved (exactly, on the step tree, here; by a truncated
Neumann series with segment restarts there) and in the operand of that
rebuild: the exact panel quadrature ``hat_moments`` of the profile here,
which the tests check against exact rational hat products and which the
oracle keeps for every time on one grid, the sampled trapezoid there.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from fractions import Fraction

import numpy as np

from .errors import (DegenerateProfile, GridTooLarge, StepMismatch,
                     StepSizeError)
from .functions import (
    BoundedMeasure,
    CompactInterval,
    GridFunction,
    KeptOperand,
    PiecewiseFunction,
    Reconstruction,
    _fft_length,
    _sample_nodes,
    _spectrum,
    _spectrum_product,
    hat_moments,
    lattice_convolve,
    poly_eval,
    poly_shift,
    reconstruction_nodes,
    sample_lag_kernel,
    support_cells,
    tent,
    three_jump_profile,
)
from .perturbation import (
    PerturbationOperator,
    SeriesDiagnostics,
    _series_guard,
    comparison_summary,
    neumann_semigroup,
)
from .semigroup import MAX_GRID_NODES, TranslationSystem, _lattice_steps


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


def corner_profile(profile: PiecewiseFunction) -> PiecewiseFunction:
    """Piecewise-quadratic w whose derivative kink at each profile jump
    equals that jump's gap, and which is C^1 everywhere else.

    Built from one quadratic corner per jump: supported on
    [z - 1/2, z + 1/2], value 1/4 at z, derivative +1 then -1.  Scaling
    by gap/2 makes the kink defect exactly the gap; all arithmetic stays
    rational when the profile is rational.
    """
    total = None
    for z, lo, hi in profile.jumps():
        gap = hi - lo
        z = Fraction(z)
        c_l, c_r = z - Fraction(1, 2), z + Fraction(1, 2)
        # (x - c_l)^2 on [c_l, z], (x - c_r)^2 on [z, c_r]
        corner = PiecewiseFunction(
            [c_l, z, c_r],
            [[0], [c_l * c_l, -2 * c_l, 1], [c_r * c_r, -2 * c_r, 1], [0]])
        piece = corner.scale(Fraction(gap) / 2)
        total = piece if total is None else total + piece
    if total is None:
        raise ValueError("profile has no jumps to match")
    return total


def bump_function() -> PiecewiseFunction:
    """C^1 bump (1 - x^2)^2 on (-1, 1], rational arithmetic."""
    return PiecewiseFunction(
        [Fraction(-1), Fraction(1)],
        [[0], [1, 0, Fraction(-2), 0, Fraction(1)], [0]])


@dataclasses.dataclass
class DomainReport:
    """Exact bookkeeping for membership in the perturbed generator domain."""

    in_domain: bool
    pairing_value: object
    kink_residuals: list      # (location, residual) pairs, exact when rational
    continuity_defects: list  # (location, jump of f) pairs
    worst: float


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


def build_domain_function(problem: "TransportProblem") -> PiecewiseFunction:
    """Smooth function plus scaled corners landing exactly in the domain.

    With w the :func:`corner_profile` (kink defects equal to the profile
    gaps) and f0 the :func:`bump_function`, f = f0 + s w needs
    s = pairing(f0) + s * pairing(w), solvable unless pairing(w) == 1,
    which is reported as a degenerate profile rather than divided
    through.
    """
    f0 = bump_function()
    w = corner_profile(problem.profile)
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


_BLOCK = 512  # the leaf size; leaves take the direct product


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
    step size is rejected by StepSizeError (a t off the dt lattice, or
    negative, by StepMismatch).  It is solved exactly on a tree of step
    ranges, the divide-and-conquer schedule of Hairer, Lubich & Schlichte
    (1985), in O(N log^2 N) for N steps.  A range [lo, hi) of more than
    512 steps splits at mid = lo + 512 * 2^j, the largest such point below
    hi.  The left part is solved first; its history on the right part,
    entries [mid, hi) of the product psi[lo:mid] * k_mid, is then one FFT
    middle product, and the right part is solved last.  Every split point
    is a multiple of 512, so the tree runs as one pass over leaves of 512
    steps: the leaf that ends at step e closes the left part of the one
    split at e, whose size is the largest 512 * 2^j that divides e.  The
    splits of one size share one spectrum of k_mid, taken once per call,
    so N steps transform k_mid about log2(N / 512) times.  A leaf
    multiplies by the reciprocal series of the symbol (diag, -dt k_mid[1],
    -dt k_mid[2], ...), cut to one leaf and built once per call, on the
    direct convolution.  Every history product reads earlier weights
    only, so the rounding of phi[m] scales with max|phi[:m+1]|, never with
    later weights: a prefix phi[:k+1] is as accurate as a solve that
    stops at step k.
    """
    m_steps = _lattice_steps(t, dt, "t")
    k_left, k_mid, k_right = sample_lag_kernel(measure, profile, dt,
                                                m_steps)
    diag = 1.0 - 0.5 * dt * k_right[0]
    if diag <= 0:
        raise StepSizeError(
            f"implicit diagonal {diag:.3e} <= 0 at dt={dt}; refine the step")
    free = sample_lag_kernel(measure, u0, dt, m_steps)[0]
    phi = np.empty(m_steps + 1)
    phi[0] = free[0]
    # psi = phi[1:] solves sum_{j<=i} c[i-j] psi[j] = rhs[i], c the symbol;
    # it starts as rhs and gathers the history of each left part
    psi = phi[1:]
    psi[:] = free[1:] + 0.5 * dt * phi[0] * k_left[1:]
    symbol = -dt * k_mid[:_BLOCK]
    symbol[0] = diag
    inverse = _reciprocal_series(symbol)
    spectra = {}
    for lo in range(0, m_steps, _BLOCK):
        hi = min(lo + _BLOCK, m_steps)
        psi[lo:hi] = lattice_convolve(inverse, psi[lo:hi], hi - lo)
        # the split at hi has a left part of size half, the largest
        # 512 * 2^j dividing hi: its history on psi[hi:top] is entries
        # [half, top - hi + half) of psi[hi - half:hi] * k_mid, which read
        # lags below min(2 half, m_steps) <= size only, so the circular
        # product wraps onto entries below half alone
        half = hi & -hi
        top = min(hi + half, m_steps)
        if top > hi:
            if half not in spectra:
                size = _fft_length(min(2 * half, m_steps))
                spectra[half] = _spectrum(k_mid[:size], size)
            psi[hi:top] += dt * _spectrum_product(
                spectra[half], psi[hi - half:hi])[half:top - hi + half]
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

    Free part: u0(x + t) sampled exactly on the kept nodes, with no
    translated function built.  Given weights phi must number t / dt + 1,
    or StepMismatch names t, dt and len(phi).  The series part
    integrates the linear interpolant of phi against the exact profile,
    cell by cell: node k adds

        dt sum_{j=1..m} (phi[j] I0[k+m-j] + phi[j-1] I1[k+m-j]),

    I0, I1 the profile's :func:`hat_moments`: the
    :func:`reconstruction_nodes` of phi against ``_series_operand``, the
    one product with c[x] = I0[x] + I1[x-1] less the phi[0] I0[k+m] and
    phi[m] I1[k-1] it also counts.  The moments are taken only on the
    cells [lo, hi) where the profile can be nonzero, the
    :func:`support_cells` rule the engine uses too.  Unless those reach
    the last node, they do not depend on t, so ``_series_operand`` keeps
    them for every t on one grid; nodes outside [lo - m, hi] get the free
    part alone.  The engine rebuilds its state by the same routine, from
    its trapezoid samples of g where this takes the hat moments.
    """
    dt = system.spacing
    if phi is None:
        phi = oracle_weights(measure, profile, u0, t, dt)
    elif len(phi) != _lattice_steps(t, dt, "t") + 1:
        raise StepMismatch(f"phi of {len(phi)} weights at t={t!r}, dt={dt!r}")
    m = len(phi) - 1
    out = system.make(_sample_nodes(u0, system.nodes(), t))  # edited in place
    lo, hi = support_cells(profile, system.origin, dt, system.count + m - 1)
    if m > 0 and hi > lo:
        rec = _series_operand(profile, system.origin, dt, lo, hi)
        k0, series = reconstruction_nodes(phi, rec, system.count)
        out.values[k0:k0 + series.size] += dt * series
    return out


@functools.lru_cache(maxsize=1)
def _series_operand(profile: PiecewiseFunction, origin, h, lo, hi):
    """The oracle's :class:`Reconstruction` on the cells [lo, hi) of the
    lattice (origin, h): the kept c[x] = I0[x] + I1[x - 1], x <= hi - lo,
    of the read-only :func:`hat_moments` I0, I1 of those cells, first =
    I0, last = I1, shift 1.  Kept for the cells used last: a deeper memo
    would hold more alive and save no time."""
    i0, i1 = hat_moments(profile, origin + lo * h, h, hi - lo)
    c = np.append(i0, 0.0)
    c[1:] += i1
    return Reconstruction(lo, KeptOperand(c), i0, i1, 1)


# ---------------------------------------------------------------------------
# high-level driver


@dataclasses.dataclass
class TransportProblem:
    """Geometry plus data for a perturbed transport run."""

    measure: BoundedMeasure
    profile: PiecewiseFunction
    initial: PiecewiseFunction
    regularizer: PiecewiseFunction | None = None
    # the comparison window, the same for every problem: a class
    # attribute, not a field
    window = CompactInterval(-3.0, 3.0)


def build_rank_one(problem: TransportProblem) -> PerturbationOperator:
    """Rank-one operator for the problem; its regularizer, when there is
    one, keeps the slow cross-check route available."""
    return PerturbationOperator.rank_one(
        problem.measure, problem.profile,
        regularized_profile=problem.regularizer)


def make_system(problem: TransportProblem, spacing: float, t: float,
                t0: float) -> TranslationSystem:
    """Grid sized so the window stays clean for times up to t.

    Left translation pulls values in from the right only, so the grid
    extends ``t + t0`` beyond the window (and past the measure's support)
    on the right, and on the left just the two spacings that the
    system's window needs: no node left of them is ever read into the
    window.  The origin is snapped to the spacing lattice so that
    lattice-rational atoms land exactly on nodes.  A spacing that is not
    positive and finite, or a t or t0 that is not nonnegative and finite,
    raises ValueError before anything is divided, and a grid of more
    than ``MAX_GRID_NODES`` nodes GridTooLarge before any allocation.
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
    origin = np.floor((lo_pt - 2 * spacing) / spacing) * spacing
    x_last = np.ceil((hi_pt + (t + t0 + 2 * spacing)) / spacing) * spacing
    steps = float((x_last - origin) / spacing)
    if not steps < MAX_GRID_NODES:  # inf and NaN too
        raise GridTooLarge(steps + 1, spacing, MAX_GRID_NODES)
    count = int(round(steps)) + 1
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

    The operator's guard t0 * |mu|(R) * sup|g| < 1 certifies series
    convergence; ``_series_guard`` checks it and tol before the grid is
    built.  The acceptance configurations sit at 0.4 and 0.6 of that
    budget.  The engine needs no regularizer, so a problem without one
    runs too.
    """
    op = build_rank_one(problem)
    _series_guard(op, None, t0, tol)
    system = make_system(problem, spacing, t, t0)
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


# refinement_study's floor on the gaps it takes orders from, in units of
# the series tol times sup|u0|: 1e-10 at tol 1e-11 for a unit state
GAP_FLOOR = 10.0


def refinement_study(problem: TransportProblem, t: float, spacings,
                     t0: float) -> dict:
    """Engine-oracle gaps across grid refinements plus observed orders;
    the series runs to tol 1e-11.  Orders are taken between gaps above the
    floor ``GAP_FLOOR`` * tol * sup|u0|, where series truncation and
    roundoff hide the discretisation error: a finer gap at or below it
    reads as exact (order inf), as a zero gap does, and a coarser gap
    below it is taken at the floor.  The floor is returned with the rows
    and orders."""
    tol = 1e-11
    rows = [engine_vs_oracle(problem, t, h, t0, tol=tol) for h in spacings]
    floor = GAP_FLOOR * tol * problem.initial.sup_norm()
    orders = []
    for a, b in zip(rows, rows[1:]):
        ratio = a["spacing"] / b["spacing"]
        if b["gap"] <= floor:
            orders.append(float("inf"))
        else:
            orders.append(float(np.log(max(a["gap"], floor) / b["gap"])
                                / np.log(ratio)))
    return {"rows": rows, "orders": orders, "floor": floor}


def comparison_curve(problem: TransportProblem, t_values) -> dict:
    """Short-time comparison constants sup|S(t)u - T(t)u| / t for the
    problem's initial state u.

    Evaluated straight from the renewal weights on 601 evenly spaced
    points x of the window, with a fresh lattice of 128 time steps per t,
    so dyadic t values need no common grid: the trapezoid sum over the
    lags l = i dt of the weights v times the profile's mid value at
    x + l.  No point is sampled.  At each x, piece k owns a run of lags,
    and p_k(x + l) = sum_s q_s(x) l^s, q_s the coefficients of
    ``poly_shift(p_k, x)``, so the run adds sum_s q_s(x) times the prefix
    moments of v l^s across it, each prefix sum carrying its rounding
    error, so that a short run late in the lags keeps its own accuracy.
    Lags within 1e-9 dt of a breakpoint add its jump midpoint (the left
    one's, when two are in reach), and all-zero pieces exact zeros.  A
    boolean t, or one not positive and finite, raises ValueError naming it.
    """
    t_values = list(t_values)
    for t in t_values:
        if isinstance(t, (bool, np.bool_)) or not (
                math.isfinite(t) and t > 0):
            raise ValueError(
                f"comparison time t must be positive and finite, got {t!r}")
    f = problem.profile
    xs = np.linspace(float(problem.window.lo), float(problem.window.hi), 601)
    breaks = [float(b) for b in f.breakpoints]
    reach = np.array(breaks)[:, None] - xs  # b - x
    # coef[s, r] weighs the order-s moments over run r of each x: run 2k
    # is piece k's, run 2j + 1 the lags at breakpoint j
    floats = dict(f._floats)
    coef = np.zeros((max(map(len, floats.values()), default=1),
                     2 * len(breaks) + 1, xs.size))
    for k, cs in floats.items():
        for s, q in enumerate(poly_shift(cs, xs)):
            coef[s, 2 * k] = q
    for j, b in enumerate(breaks):
        coef[0, 2 * j + 1] = 0.5 * sum(poly_eval(floats.get(k, [0.0]), b)
                                       for k in (j, j + 1))
    rows = []
    for t in t_values:
        dt = t / 128
        v = oracle_weights(problem.measure, f, problem.initial, t, dt)[::-1]
        v[[0, -1]] *= 0.5
        lags = dt * np.arange(v.size)
        terms = v * lags ** np.arange(len(coef))[:, None]
        # sums over lags < i, and the sums of their rounding errors: cumsum
        # adds in sequence, so each step's error is an exact TwoSum (Knuth)
        sums, errs = np.zeros((2, len(coef), v.size + 1))
        np.cumsum(terms, axis=1, out=sums[:, 1:])
        added = sums[:, 1:] - sums[:, :-1]
        np.cumsum((sums[:, :-1] - (sums[:, 1:] - added)) + (terms - added),
                  axis=1, out=errs[:, 1:])
        # run r holds the lags [edges[r], edges[r + 1]); the running max
        # gives a lag in reach of two breakpoints to the left one
        edges = np.zeros((coef.shape[1] + 1, xs.size), dtype=np.intp)
        edges[-1] = v.size
        edges[1:-1:2] = np.searchsorted(lags, reach - 1e-9 * dt)
        edges[2:-1:2] = np.searchsorted(lags, reach + 1e-9 * dt, "right")
        np.maximum.accumulate(edges, axis=0, out=edges)
        value = sum(np.einsum("rx,rx->x", c, np.diff(p.take(edges), axis=0)
                              + np.diff(e.take(edges), axis=0))
                    for c, p, e in zip(coef, sums, errs))
        worst = float(np.max(np.abs(value))) * dt
        rows.append({"t": float(t), "constant": worst / t})
    top, ratio = comparison_summary([r["constant"] for r in rows])
    return {"rows": rows, "constant": top, "stability_ratio": ratio}
