"""Volterra perturbation engine.

Bounded-into-extrapolation-space perturbations and the series machinery
built on them: causal convolution against the unperturbed propagators, the
Neumann series for the perturbed semigroup on a short horizon, and the
battery of consistency checks (composition identity, variation of
parameters, admissibility, generator action, comparison constants).

Each perturbation kind is one class that acts on one system class and
owns its half of the engine, with ``_run_segments`` the one series runner
of ``neumann_nodes`` and ``neumann_semigroup``, and of the checks:

* :class:`MatrixOperator` on a ``MatrixSystem`` -- B is a plain matrix on
  R^n, where the extrapolation space is the state space itself, so B F is
  applied as it stands and the convolution is one doubling scan
  (``lattice_scan``) of the step exponential T(dt) over the lattice.
* :class:`RankOneOperator` on a ``TranslationSystem`` -- B f = <f, mu> * g
  where mu is a bounded measure and g a piecewise-polynomial profile that
  need not lie in the grid state space.  The convolution collapses to
  scalar recursions on the pairings, and the state reads the
  perturbation only through them, so segments are joined in weight
  space and a grid state is built only at the nodes asked for, which is
  what makes fine grids cheap; every product is against a fixed
  operand, a ``functions.KeptOperand``, and none is taken here.

All time quadrature is trapezoid with one-sided endpoint limits and
midpoint values at interior lattice hits of profile jumps; without that
convention every jump crossing would cost an order of accuracy.
"""

from __future__ import annotations

import dataclasses
import math
from collections import namedtuple

import numpy as np

from .errors import (
    GuardViolation,
    HorizonExceeded,
    NonConvergence,
    NotInStateSpace,
    StepMismatch,
)
from .functions import (
    BoundedMeasure,
    CompactInterval,
    GridFunction,
    KeptOperand,
    PiecewiseFunction,
    Reconstruction,
    _extended,
    pair_rows,
    pair_shifts,
    reconstruction_nodes,
    sample_lag_kernel,
    sample_sided,
    seminorm_rows,
    support_cells,
)
from .semigroup import (
    MatrixSystem,
    TranslationSystem,
    _lattice_steps,
    expm,
    opnorm2,
    reconstruct,
    recent_memo,
    require_finite,
    scan_rows,
)

MAX_NEUMANN_TERMS = 60
# how far a kink defect may miss its jump condition in generator_check
KINK_TOL = 1e-9

# the renewal kernel's folded form (_kernel_lattice)
_KernelLattice = namedtuple("_KernelLattice", ["folded", "column"])
# the rank-one segment operator: sum B, kept, and sum A - sum B
# (RankOneOperator._series)
_RenewalSeries = namedtuple("_RenewalSeries", ["kernel", "correction"])


def _sup(a) -> float:
    return float(np.max(np.abs(a))) if a.size else 0.0


class PerturbationOperator:
    """A perturbation acting from the state space into its extrapolation,
    on systems of its ``system_class``; ``matrix`` and ``rank_one`` build
    the two kinds."""

    @staticmethod
    def matrix(B) -> "MatrixOperator":
        """B applied as it stands on R^n."""
        return MatrixOperator(B)

    @staticmethod
    def rank_one(measure: BoundedMeasure, profile: PiecewiseFunction,
                 regularized_profile: PiecewiseFunction | None = None,
                 ) -> "RankOneOperator":
        """B f = (pairing of f with measure) * profile on a grid."""
        return RankOneOperator(measure, profile, regularized_profile)

    def _paired(self, system):
        """Refuse another kind's system by a TypeError naming both."""
        if not isinstance(system, self.system_class):
            raise TypeError(
                f"a {type(self).__name__} acts on a "
                f"{self.system_class.__name__}, not on a "
                f"{type(system).__name__}")

    def analytic_volterra_bound(self, system, t0: float) -> float:
        """Guard for the Volterra operator norm on horizon t0, the kind's
        ``_guard``; guards use this, not an empirical lower estimate."""
        return self._guard(system, t0)


class MatrixOperator(PerturbationOperator):
    """B applied as it stands; its norm ||B||_2 is taken once, as
    ``matrix_norm``."""

    system_class = MatrixSystem

    def __init__(self, B):
        B = np.asarray(B, dtype=float)
        if B.ndim != 2 or B.shape[0] != B.shape[1]:
            raise ValueError("matrix perturbation must be square")
        require_finite("B", B)
        self.matrix_data = B
        self.matrix_norm = opnorm2(B)
        self._segment_cache = {}

    def _guard(self, system, t0):
        """t0 max(1, e^{t0 mu}) ||B||_2, mu the system's ``log_norm``: a
        bound; 0.0 when ||B||_2 = 0, inf past the float range."""
        with np.errstate(over="ignore"):
            growth = float(np.exp(max(0.0, t0 * system.log_norm)))
        return t0 * growth * self.matrix_norm if self.matrix_norm else 0.0

    def _volterra_rows(self, system, F, steps):
        """Rows of the Volterra operator applied to F at the steps."""
        return _volterra_matrix(system.step(F.dt), self, F.nodes,
                                F.dt)[list(steps)]

    def _series_key(self, system, m, node_steps, dt, tol, guard):
        """The table reads the system and is kept at the node steps."""
        return system, m, tuple(node_steps), dt, tol, guard

    def _series(self, system, m, node_steps, dt, tol, guard):
        """The series on [0, m dt], run once on the n x n identity: a term
        is V^k T, its size the largest Frobenius norm over the nodes.  That
        bounds the spectral norm, which the guard bounds, so
        ||(V^k T x)[j]||_2 <= size ||x||_2 for every vector x (spectral
        norms for an n x k state).  Returns the read-only table of S(j dt)
        at the node steps and the diagnostics."""
        step, eye = system.step(dt), np.eye(system.dim)

        def size(term):
            return float(np.sqrt(np.max(np.sum(term * term, axis=(1, 2)))))

        orbit = system.orbit_rows(eye, m, dt)
        total, diag = _neumann_sum(
            orbit, _volterra_matrix(step, self, orbit, dt),
            lambda nodes: _volterra_matrix(step, self, nodes, dt), size,
            size(orbit), tol, guard)
        table = np.ascontiguousarray(total[list(node_steps)])
        table.flags.writeable = False
        return table, diag

    def _run_segments(self, system, vals, lengths, node_steps, dt, tol,
                      guard):
        """S(j dt) x at the node steps j of the last segment, each table
        applied to the state the one before left; the diagnostics."""
        nodes, diags, start = [vals], [], sum(lengths[:-1])
        for i, m in enumerate(lengths):
            steps = [j - start for j in node_steps] \
                if i == len(lengths) - 1 else [m]
            table, diag = _segment_series(system, self, m, steps, dt, tol,
                                          guard)
            nodes = require_finite(f"S(j dt) x, dt = {dt!r}", table @ vals)
            vals = nodes[-1]
            diags.append(diag)
        return [system.make(v) for v in nodes], diags

    def _admissibility_probe(self, system, F, steps, fn):
        """The Volterra rows of F at the steps and its norm; on R^n
        nothing is reconstructed."""
        return self._volterra_rows(system, F, steps), fn, 0.0, None

    def _generator_values(self, system, f):
        """f and (A + B) f."""
        x = system.state_values(f)
        return x, (system.A + self.matrix_data) @ x


class RankOneOperator(PerturbationOperator):
    """B f = (pairing of f with measure) * profile.

    ``regularized_profile`` h, when supplied, must satisfy
    profile = h - h' exactly; it is what the slow regularized route
    and the extrapolation-norm constant use.  The fast path only
    needs ``profile``, whose sup is taken once, as ``profile_sup``.
    """

    system_class = TranslationSystem

    def __init__(self, measure: BoundedMeasure, profile: PiecewiseFunction,
                 regularized_profile: PiecewiseFunction | None = None):
        if regularized_profile is not None:
            resid = (regularized_profile
                     - regularized_profile.derivative()) - profile
            if resid.sup_norm() > 1e-10:
                raise ValueError(
                    "regularized_profile does not regularize profile: "
                    f"residual sup {resid.sup_norm():.3e}")
        self.measure = measure
        self.profile = profile
        self.regularized_profile = regularized_profile
        self.profile_sup = profile.sup_norm()
        self._lattice_cache = {}
        self._segment_cache = {}

    def _guard(self, system, t0):
        """t0 * |mu|(R) * sup|g|, an upper bound, from pulling the
        absolute value through the defining integral; it reads no
        system, so ``system`` may be None."""
        return t0 * self.measure.total_variation() * self.profile_sup

    # -- lattice sample caches ---------------------------------------------

    def _lattice(self, f, system: TranslationSystem, m_extra: int):
        """The :class:`Reconstruction` of f, the profile g or the
        regularizer h, on the grid lattice extended m_extra steps, over
        its ``support_cells`` [lo, hi), the only cells sampled (f's sided
        samples vanish outside): the mid samples kept, first = mid -
        left / 2 and last = mid - right / 2, shift 0, in one read-only
        table.  ``reconstruction_nodes`` then gives node k the trapezoid
        sum of phi[j] f(x_k + (m - j) dt) over j = 0..m, with one-sided
        limits at both ends.  The four lattices used last are kept."""
        def build():
            lo, hi = support_cells(f, system.origin, system.spacing,
                                   system.count + m_extra)
            xs = system.origin + system.spacing * np.arange(lo, hi)
            left, mid, right = sample_sided(
                f, xs, snap_tol=1e-6 * system.spacing)
            # one block: glibc's mmap threshold follows the largest block
            # freed; three smaller ones triple transport-refine's page faults
            table = np.stack([mid, mid - 0.5 * left, mid - 0.5 * right])
            table.flags.writeable = False
            return Reconstruction(lo, KeptOperand(table[0]), *table[1:], 0)
        key = (f, system.origin, system.spacing, system.count, m_extra)
        return recent_memo(self._lattice_cache, key, build)

    def _kernel_lattice(self, dt: float, m_steps: int):
        """Sided samples of s -> pairing of g(. + s) on the time lattice,
        with the step's corrections folded in once for ``_kernel_step``:
        ``folded`` is the kept mid samples with entry 0 set to
        right[0] / 2 (the diagonal term), ``column`` is left / 2 - mid
        (the first column's term).  Its one caller, ``_series``, is
        memoised per segment, so this keeps nothing."""
        left, mid, right = sample_lag_kernel(self.measure, self.profile,
                                             dt, m_steps)
        column = 0.5 * left - mid
        mid[0] = 0.5 * right[0]
        return _KernelLattice(KeptOperand(mid), column)

    # -- the kind's half of the engine -------------------------------------

    def _volterra_rows(self, system, F, steps):
        """Node values of the Volterra operator applied to F at the steps."""
        phi = pair_rows(self.measure, system, F.nodes)
        return _convolved_nodes(system, self, phi, F.dt, steps, (),
                                np.zeros(system.count))

    def _series_key(self, system, m, node_steps, dt, tol, guard):
        """The renewal series reads neither the grid nor the node steps."""
        return m, dt, tol, guard

    def _series(self, system, m, node_steps, dt, tol, guard):
        """The renewal series on [0, m dt], run once for every state.

        The pairings of V^k T x with the measure are K^k phi0, K the
        lattice renewal step ``_kernel_step`` and phi0 the pairings of the
        orbit.  On v with v[0] = 0, K is the product v -> dt (folded * v),
        so K^k phi0 = phi0[0] A_k + B_k * v0 with v0 = phi0 - phi0[0] e0,
        A_0 = e0, A_(k+1) = K A_k, B_0 = delta and B_(k+1) = dt folded *
        B_k cut to m + 1 entries.  A term is the pair (A_k, B_k).  Its
        size is sup|g| m dt |mu|(R) times the row-sum norm of the lattice
        matrix of K^k, max_i (|A_k[i]| + sum_(l<i) |B_k[l]|), so
        max|V^(k+1) T x| <= size max|x| for every state x, and tol is
        relative to max|x|; the orbit's size is 1.  Since the row-sum norm
        of K is at most the guard, a guard below 1 bounds the omitted
        tail by the first omitted size over 1 - guard: times max|x| on
        the node values, and divided by sup|g| m dt |mu|(R) relative to
        max|phi0| on the summed pairings.  Returns the read-only sums
        (``_RenewalSeries``) and the diagnostics.
        """
        ker = self._kernel_lattice(dt, m)
        scale = self.profile_sup * m * dt * self.measure.total_variation()

        def size(term):
            rows = np.abs(term[0])
            rows[1:] += np.cumsum(np.abs(term[1, :-1]))
            return float(scale * np.max(rows))

        def apply_k(term):
            return np.stack([
                _kernel_step(term[0], ker, dt),
                dt * ker.folded.times(term[1], m + 1)])

        first = np.zeros((2, m + 1))
        first[:, 0] = 1.0
        total, diag = _neumann_sum(np.zeros((2, m + 1)), first, apply_k,
                                   size, 1.0, tol, guard)
        total[0] -= total[1]
        total.flags.writeable = False
        return _RenewalSeries(KeptOperand(total[1]), total[0]), diag

    def _run_segments(self, system, vals, lengths, node_steps, dt, tol,
                      guard):
        """S(j dt) x at the node steps j of the last segment (past its
        start when it follows another), and each segment's diagnostics.

        The state reads the perturbation only through the pairings
        <mu, S(r) x>, so a segment carries only its summed pairings
        (``_segment_weights``), and S(j dt) x is T(j dt) x plus the
        ``_convolved_nodes`` of the merged weights, not continued past
        the right edge as a grid state would be: only nodes that read
        beyond the grid see it.  A node that is not finite is refused.
        """
        _require_time_grid(system, dt)
        weights, inner, diags = self._segment_weights(system, vals, lengths,
                                                      dt, tol, guard)
        rows = _convolved_nodes(system, self, weights, dt, node_steps, inner,
                                vals)
        for j, row in zip(node_steps, rows):
            require_finite(f"S(n dt) x at n = {j}, dt = {dt!r}", row)
        return [system.make(row) for row in rows], diags

    def _segment_weights(self, system, vals, lengths, dt, tol, guard):
        """Each segment's summed pairings phi_j, merged into Phi (phi_j
        placed at its start T_j, the entries at a boundary added); the
        inner boundaries (T_j, phi_j[0], phi_(j-1)[m]); the diagnostics.

        A segment's input pairings are the free orbit's, taken once
        (``pair_shifts``), plus the history H of the segments before it:
        each adds the ``reconstruction_nodes`` of its phi against the
        pairings of the shifted lattice (``_history_kernel``, built only
        when a later segment reads it), the pairings of its rebuilt part.
        """
        n = sum(lengths)
        free = pair_shifts(self.measure, system, vals, n + 1, fill=vals[-1])
        if len(lengths) > 1:
            kappa = self._history_kernel(
                system, self._lattice(self.profile, system, n), n + 1)
        history, weights = np.zeros(n + 1), np.zeros(n + 1)
        inner, diags, start = [], [], 0
        for m in lengths:
            series, diag = _segment_series(system, self, m, [m], dt, tol,
                                           guard)
            stop = start + m
            phi = _renewal_weights(series, free[start:stop + 1]
                                   + history[start:stop + 1])
            if start:  # weights[start] holds the last segment's end term
                inner.append((start, phi[0], weights[start]))
            weights[start:stop + 1] += phi
            if stop < n:
                k0, h = reconstruction_nodes(phi, kappa, n - stop + 1)
                history[stop + k0:stop + k0 + h.size] += dt * h
            diags.append(diag)
            start = stop
        return weights, inner, diags

    def _history_kernel(self, system, rec, n):
        """The pairings, by ``pair_rows``' rule (``pair_shifts``), of the
        lattice ``rec``'s three arrays shifted s = 0..n-1 nodes, as one
        :class:`Reconstruction` of s cut to where one is nonzero: node p
        of its ``reconstruction_nodes`` of a segment's phi is the pairing
        of that segment's rebuilt part p steps after its end."""
        table = np.array([
            pair_shifts(self.measure, system, a, n, start=rec.lo)
            for a in (rec.operand.values, rec.first, rec.last)])
        nz = np.flatnonzero(table.any(axis=0))
        lo, hi = (nz[0], nz[-1] + 1) if nz.size else (0, 0)
        return Reconstruction(lo, KeptOperand(table[0, lo:hi]),
                              table[1, lo:hi], table[2, lo:hi], 0)

    def _admissibility_probe(self, system, F, steps, fn):
        """The Volterra rows of F at the steps from one pairing, F's sup
        over the measure's support hull (else its norm ``fn``), and the
        regularized route's gap or NotInStateSpace."""
        phi = pair_rows(self.measure, system, F.nodes)
        rows = _convolved_nodes(system, self, phi, F.dt, steps, (),
                                np.zeros(system.count))
        gap, miss = 0.0, None
        if self.regularized_profile is not None:
            try:
                gap = self._regularized_gap(system, phi, F.dt, rows[-1])
            except NotInStateSpace as exc:
                miss = exc
        pts = self.measure.support_points()
        src = float(np.max(seminorm_rows(
            system, F.nodes, CompactInterval(min(pts), max(pts))))) \
            if pts else fn
        return rows, src, gap, miss

    def _regularized_gap(self, system, phi, dt, fast_out) -> float:
        """Window sup gap between the fast path and the regularized
        detour: the ``reconstruction_nodes`` of phi against h's lattice,
        times dt, then ``reconstruct``, which raises NotInStateSpace when
        the detour does not land."""
        rec = self._lattice(self.regularized_profile, system, len(phi) - 1)
        k0, vals = reconstruction_nodes(phi, rec, system.count)
        u = np.zeros(system.count)
        u[k0:k0 + vals.size] = dt * vals
        recon = reconstruct(system, system.make(u))
        return system.seminorm(recon.values - fast_out)

    def _generator_values(self, system, f):
        """Node values of f and of f' + (pairing of f) g; NotInStateSpace
        unless the kink defects of f match the pairing-weighted profile
        jumps within ``KINK_TOL``."""
        phi_f = float(self.measure.pair(f))
        for z, lo, hi in self.profile.jumps():
            defect = float(f.one_sided_derivative(z, "left")
                           - f.one_sided_derivative(z, "right"))
            resid = defect - phi_f * float(hi - lo)
            if abs(resid) > KINK_TOL:
                raise NotInStateSpace(
                    f"kink defect at {float(z)} misses the jump condition "
                    f"by {resid:.3e}; difference quotients have no "
                    "state-space limit", curvature=float(abs(resid)),
                    threshold=KINK_TOL)
        cf_vals = system.sample(f.derivative()
                                + self.profile.scale(phi_f)).values
        return system.sample(f).values, cf_vals


@dataclasses.dataclass
class VectorTrajectory:
    """State values on the uniform time lattice 0, dt, ..., t0."""

    system: object
    dt: float
    nodes: np.ndarray  # shape (steps+1, n[, k]) or (steps+1, grid count)

    @property
    def steps(self) -> int:
        return self.nodes.shape[0] - 1

    def node(self, j: int):
        return self.system.make(self.nodes[j])

    def step_of(self, t: float) -> int:
        m = _lattice_steps(t, self.dt)
        if m > self.steps:
            raise StepMismatch(f"t={t!r} beyond trajectory horizon "
                               f"{self.dt * self.steps!r}")
        return m

    def norm(self) -> float:
        return _sup(self.nodes)

    @classmethod
    def orbit(cls, system, x, t0: float, dt: float) -> "VectorTrajectory":
        """Unperturbed orbit T(j dt) x, j = 0..t0/dt.

        The system's ``orbit_rows``; on grids a writable copy of the
        read-only window that the trajectory owns (every caller only reads).
        """
        m = _lattice_steps(t0, dt, "t0")
        rows = system.orbit_rows(system.state_values(x), m, dt)
        return cls(system, dt, rows if rows.flags.writeable else rows.copy())

    @classmethod
    def from_callable(cls, system, fn, t0: float, dt: float
                      ) -> "VectorTrajectory":
        """The values fn(j dt), j = 0..t0/dt, written into one table
        allocated at the first row; a row of another shape raises
        ValueError."""
        m = _lattice_steps(t0, dt, "t0")
        table = None
        for j in range(m + 1):
            e = fn(j * dt)
            row = e.values if isinstance(e, GridFunction) \
                else np.asarray(e, dtype=float)
            if table is None:
                table = np.empty((m + 1,) + row.shape)
            elif row.shape != table.shape[1:]:
                raise ValueError(
                    f"step {j} (t = {j * dt!r}) gives a row of shape "
                    f"{row.shape}, step 0 one of shape {table.shape[1:]}")
            table[j] = row
        return cls(system, dt, table)


def _require_time_grid(system: TranslationSystem, dt: float):
    if abs(dt - system.spacing) > 1e-12 * system.spacing:
        raise StepMismatch(
            "translation quadrature needs dt equal to the grid spacing "
            f"(dt={dt!r}, spacing={system.spacing!r})")


# ---------------------------------------------------------------------------
# the Volterra operator


def volterra_trajectory(system, op: PerturbationOperator,
                        F: VectorTrajectory) -> VectorTrajectory:
    """Apply the Volterra operator to a whole trajectory.

    Output node m holds the causal convolution of the extended propagators
    against B F over [0, m dt], reconstructed back into the state space.
    """
    op._paired(system)
    return VectorTrajectory(system, F.dt, np.asarray(
        op._volterra_rows(system, F, range(F.steps + 1))))


def volterra_apply(system, op: PerturbationOperator, F: VectorTrajectory,
                   t: float):
    """Value of the Volterra operator applied to F at one time t."""
    op._paired(system)
    return system.make(op._volterra_rows(system, F, [F.step_of(t)])[0])


def _convolved_nodes(system, op, phi, dt, steps, inner, x):
    """T(m dt) x plus the rank-one Volterra node values of the node
    pairings phi at each step m, one row per step: the
    ``reconstruction_nodes`` of phi[:m + 1], times dt, against the
    profile lattice as long as the largest step, less head first + tail
    last at each ``inner`` boundary (at, head, tail) where phi[at] sums
    two segments' end terms."""
    _require_time_grid(system, dt)
    rec = op._lattice(op.profile, system, max(steps, default=0))
    rows = []
    for m in steps:
        k0, vals = reconstruction_nodes(phi[:m + 1], rec, system.count)
        for at, head, tail in inner:
            # first[0] and last[0] fall on entry -off
            off = k0 + m - at - rec.lo
            a, b = max(-off, 0), min(vals.size, rec.first.size - off)
            vals[a:b] -= (head * rec.first[a + off:b + off]
                          + tail * rec.last[a + off:b + off])
        vals *= dt
        # T(m dt) x after the product, whose freed blocks it can reuse
        row = _extended(x, m, system.count, fill=x[-1])
        row[k0:k0 + vals.size] += vals
        rows.append(row)
    return rows


def _volterra_matrix(step, op, nodes, dt) -> np.ndarray:
    """Trapezoid convolution of T(m dt - r) B F(r) over [0, m dt].

    F holds the lattice ``nodes`` and ``step`` is E = T(dt), a matrix or
    a ``LatticeStep``.  With C the ``lattice_scan`` of E over B F with
    its first row halved, node m is dt (C[m] - B F[m] / 2), zero at
    m = 0.  B F is one product, the columns of every node as rows times
    B^T: the row table ``scan_rows`` works in.
    """
    m1, n = nodes.shape[:2]
    cols = nodes.reshape(m1, n, -1)
    k = cols.shape[2]
    BF = cols.transpose(0, 2, 1).reshape(m1 * k, n) @ op.matrix_data.T
    forcing = BF.copy()
    forcing[:k] *= 0.5
    scan_rows(step, forcing, k)
    forcing -= 0.5 * BF
    forcing *= dt
    return forcing.reshape(m1, k, n).transpose(0, 2, 1).reshape(nodes.shape)


def _kernel_step(phi, ker: _KernelLattice, dt):
    """One scalar Volterra iteration: next(m) = int_0^{m dt} phi kernel.

    The trapezoid is one product of phi with the kept ``folded`` kernel
    plus phi[0] times the ``column`` vector.
    """
    out = ker.folded.times(phi, len(phi))
    out += phi[0] * ker.column[:len(phi)]
    out *= dt
    out[0] = 0.0
    return out


def _renewal_weights(series: _RenewalSeries, phi0):
    """The summed pairings sum_k K^k phi0 of a rank-one segment: with
    sum_k K^k phi0 = phi0[0] sum A + sum B * (phi0 - phi0[0] e0), one
    product of phi0 with sum B plus phi0[0] (sum A - sum B)."""
    out = series.kernel.times(phi0, len(phi0))
    out += phi0[0] * series.correction
    return out


def volterra_norm_estimate(system, op: PerturbationOperator, t0: float,
                           dt: float, probes) -> float:
    """Empirical lower bound for the Volterra operator norm on [0, t0].

    Scans every node of V applied to each probe, normalised by the probe's
    trajectory norm.  Only a lower bound: the true norm is a sup over all
    admissible trajectories.
    """
    best = 0.0
    for F in probes:
        if F.steps * F.dt > t0 + 1e-9 * t0:
            raise HorizonExceeded(
                f"probe horizon {F.steps * F.dt} exceeds t0={t0}")
        fn = F.norm()
        if fn == 0:
            continue
        best = max(best, volterra_trajectory(system, op, F).norm() / fn)
    return best


# ---------------------------------------------------------------------------
# Neumann series for the perturbed semigroup


@dataclasses.dataclass
class SeriesDiagnostics:
    terms_used: int
    term_norms: list
    guard_bound: float
    segments: int = 1

    def merge(self, other: "SeriesDiagnostics"):
        self.terms_used = max(self.terms_used, other.terms_used)
        if len(other.term_norms) > len(self.term_norms):
            self.term_norms = other.term_norms
        self.segments += 1
        return self


def _series_guard(op, system, t0, tol):
    """The analytic guard of the horizon t0, once tol is checked;
    GuardViolation when it reaches 1."""
    if not tol >= 0:
        raise ValueError(f"tol must be a nonnegative number, got {tol!r}")
    bound = op.analytic_volterra_bound(system, t0)
    if not bound < 1.0:
        raise GuardViolation(
            f"Volterra bound {bound:.4f} >= 1 on horizon t0={t0}; "
            "shorten t0 or shrink the perturbation")
    return bound


def _neumann_sum(total, term, apply_v, size, base, tol, guard):
    """Add ``term``, ``apply_v(term)``, ... to ``total`` until a term's
    size is below tol (1 - guard); ``base`` is the recorded size of the
    orbit."""
    norms = [base]
    k = 1
    while True:
        norms.append(size(term))
        if norms[-1] < tol * (1.0 - guard):
            break
        if k >= MAX_NEUMANN_TERMS:
            raise NonConvergence(
                "Neumann series did not reach tolerance within "
                f"{MAX_NEUMANN_TERMS} terms")
        total += term
        term = apply_v(term)
        k += 1
    return total, SeriesDiagnostics(k, norms, guard)


def neumann_nodes(system, op: PerturbationOperator, x, t0: float,
                  node_steps, dt: float, tol: float = 1e-9):
    """One Neumann series on [0, t0]: S(j dt) x at the given steps and
    the series' diagnostics, by the kind's ``_run_segments`` of one
    segment, the hook that ``neumann_semigroup`` runs too.

    The trajectory of S is the sum of V^k T x, V the Volterra operator.
    The kind's ``_series`` runs it once per segment operator, for every
    state, and sizes its terms so that tol is relative to ||x||_2 on R^n
    and to max|x| on grids.  The guard g bounds V in the norm of the
    sizes, so the sum stops at the first term of size below tol (1 - g):
    the omitted tail is at most that size over 1 - g, below tol.  A guard
    >= 1 raises GuardViolation and MAX_NEUMANN_TERMS terms raise
    NonConvergence; a step outside [0, t0] raises StepMismatch; a NaN or
    Inf state or node, or a NaN or negative tol, raises ValueError.
    """
    op._paired(system)
    m = _lattice_steps(t0, dt, "t0")
    guard = _series_guard(op, system, t0, tol)
    if any(j < 0 or j > m for j in node_steps):
        raise StepMismatch("requested node outside [0, t0]")
    vals = require_finite("state x", system.state_values(x))
    nodes, (diag,) = op._run_segments(system, vals, [m], node_steps, dt,
                                      tol, guard)
    return nodes, diag


def _segment_series(system, op, m, node_steps, dt, tol, guard):
    """The kind's ``_series`` on [0, m dt], run once per ``_series_key``;
    the segment operators of the four keys used last are kept
    (``recent_memo``), and every call gets a copy of the diagnostics."""
    key = op._series_key(system, m, node_steps, dt, tol, guard)
    series, diag = recent_memo(
        op._segment_cache, key,
        lambda: op._series(system, m, node_steps, dt, tol, guard))
    return series, dataclasses.replace(diag, term_norms=list(diag.term_norms))


def neumann_semigroup(system, op: PerturbationOperator, x, t: float,
                      t0: float, dt: float, tol: float = 1e-9,
                      diagnostics: bool = False):
    """Perturbed semigroup S(t) x via Neumann series plus horizon splitting.

    t is split as n * t0 + t1 with both parts on the dt lattice, the
    short segment first, all under the one analytic guard of the horizon
    t0.  The series of S(m dt) runs once for all states and segments of
    that length.  Like ``neumann_nodes`` it drives the kind's
    ``_run_segments``, here for the one node at t, so tol is relative
    to ||x||_2 on R^n and to max|x| on grids.
    Raises GuardViolation when that bound reaches 1, NonConvergence when
    MAX_NEUMANN_TERMS terms do not reach tol, ValueError for a NaN or
    negative tol, for a NaN or Inf state and for a result that is not
    finite, HorizonExceeded for a negative t, and StepMismatch for a t0
    shorter than one step, a dt that is not positive and finite, a t or
    t0 that is not finite or not on the dt lattice, or a t of more than
    ``MAX_GRID_NODES`` steps, before any table is built.
    """
    op._paired(system)
    if t < -1e-12:
        raise HorizonExceeded(f"t must be nonnegative, got {t!r}")
    # no segment is longer than t, so only t's steps meet the ceiling
    m0 = _lattice_steps(t0, dt, "t0", ceiling=math.inf)
    if m0 == 0:
        raise StepMismatch(f"t0={t0!r} is shorter than one step dt={dt!r}")
    n_full, m_rest = divmod(_lattice_steps(t, dt, "t"), m0)
    guard = _series_guard(op, system, t0, tol)
    vals = require_finite("state x", system.state_values(x))
    lengths = [m_rest] * bool(m_rest) + [m0] * n_full
    (state,), diags = op._run_segments(system, vals, lengths, [sum(lengths)],
                                       dt, tol, guard)
    diag_all = SeriesDiagnostics(0, [], guard, segments=0)
    for diag in diags:
        diag_all = diag_all.merge(diag)
    return (state, diag_all) if diagnostics else state


# ---------------------------------------------------------------------------
# identity and residual checks


def _element_diff_norm(system, a, b):
    """The system's seminorm of a - b: over the window on grids, the
    max-abs entry on R^n."""
    return system.seminorm(system.state_values(a) - system.state_values(b))


def _ceil_steps(t: float, dt: float) -> int:
    m = int(np.ceil(t / dt - 1e-9))
    return max(m, 1)


def _traj_at(traj: VectorTrajectory, time: float):
    """Trajectory value at an arbitrary time in [0, t0].

    Lattice times read the stored node; anything else interpolates
    linearly between the two neighbours, the evaluation consistent with
    the trapezoid order of the surrounding quadratures.
    """
    dt = traj.dt
    pos = time / dt
    j = int(np.floor(pos + 1e-9))
    theta = pos - j
    if theta < 1e-9:
        return traj.node(j)
    return traj.system.make((1.0 - theta) * traj.nodes[j]
                            + theta * traj.nodes[j + 1])


def identity_check(system, op: PerturbationOperator, n: int, s: float,
                   t: float, x, dt: float) -> float:
    """Residual of the n-th iterated composition identity.

    The n-fold Volterra power of the orbit, evaluated at s + t, must match
    the binomial-style splice of lower powers propagated from t to s + t.
    Exact for n = 0 up to the semigroup law.  For lattice-aligned s and t
    the trapezoid split is exact as well, so the interesting second-order
    behaviour is probed with off-lattice times, where node values are
    interpolated in time.
    """
    if not 0 <= n <= 4:
        raise ValueError("n must be between 0 and 4")
    top = _ceil_steps(s + t, dt)
    chain = [VectorTrajectory.orbit(system, x, top * dt, dt)]
    for _ in range(n):
        chain.append(volterra_trajectory(system, op, chain[-1]))
    lhs = _traj_at(chain[n], s + t)

    m_s = _ceil_steps(s, dt)
    rhs = None
    for k in range(n + 1):
        y = _traj_at(chain[k], t)
        leg = VectorTrajectory.orbit(system, y, m_s * dt, dt)
        for _ in range(n - k):
            leg = volterra_trajectory(system, op, leg)
        val = _traj_at(leg, s)
        rhs = val if rhs is None else rhs + val
    return _element_diff_norm(system, lhs, rhs)


def varpar_residual(system, op: PerturbationOperator, S_fn, t: float,
                    x, dt: float) -> float:
    """Defect of S in the variation-of-parameters equation at time t.

    S_fn(r) must return S(r) x for lattice times r.  The residual is
    S(t) x - T(t) x - (Volterra applied to the S trajectory at t).  The
    S trajectory is the one table of ``from_callable``; T(t) x is read
    as the last of the system's ``orbit_rows``, no orbit table copied.
    """
    traj = VectorTrajectory.from_callable(system, S_fn, t, dt)
    integral = volterra_apply(system, op, traj, t)
    free = system.orbit_rows(system.state_values(x), traj.steps, dt)[-1]
    return _element_diff_norm(system, traj.node(traj.steps),
                              system.make(free) + integral)


# ---------------------------------------------------------------------------
# admissibility


@dataclasses.dataclass
class AdmissibilityReport:
    lands_in_state_space: bool
    worst_reconstruction_residual: float
    seminorm_constant: float
    seminorm_window: tuple
    smallness_observed: float
    smallness_analytic: float
    smallness_pass: bool
    volterra_norm_lower_bound: float
    probes_used: int
    # the NotInStateSpace of the worst probe whose regularized route did
    # not land; the residual above covers the probes that did
    escape: NotInStateSpace | None = None

    @property
    def admissible(self) -> bool:
        return self.lands_in_state_space and self.smallness_pass

    def to_dict(self) -> dict:
        """Every field but ``escape`` in field order, then ``admissible``
        and, when a probe did not land, ``landing``."""
        out = {f.name: getattr(self, f.name)
               for f in dataclasses.fields(self) if f.name != "escape"}
        out["seminorm_window"] = list(self.seminorm_window)
        out["admissible"] = self.admissible
        if self.escape is not None:
            out["landing"] = {"outcome": "did not land",
                              "curvature": self.escape.curvature,
                              "threshold": self.escape.threshold}
        return out


def admissibility_check(system, op: PerturbationOperator, t0: float,
                        dt: float, probes) -> AdmissibilityReport:
    """Three-part admissibility battery over a family of probe trajectories.

    (a) the Volterra output at t0 lands back in the state space (for
        rank-one ops with a regularized profile this cross-checks the fast
        path against the reconstructed regularized route; a probe whose
        route fails ``reconstruct`` did not land, and the report keeps
        the worst such NotInStateSpace as ``escape``);
    (b) the output's seminorm on the system window (its sup norm on R^n)
        is controlled by the probe's sup over the measure's support hull
        (its norm on R^n); probes that vanish there are skipped;
    (c) the operator norm surrogate stays below one half, where pass/fail
        uses the analytic bound and the observed value is reported.
    """
    op._paired(system)
    m_steps = _lattice_steps(t0, dt, "t0")

    worst_recon = 0.0
    escape = None
    khat = 0.0
    m_obs = 0.0
    v_lower = 0.0
    sample_steps = sorted({max(1, m_steps // 4), m_steps // 2,
                           3 * m_steps // 4, m_steps})
    for F in probes:
        fn = F.norm()
        if fn == 0:
            continue
        # the last sample step is t0's: step_of refuses a shorter probe
        steps = [F.step_of(j * dt) for j in sample_steps]
        rows, src, gap, miss = op._admissibility_probe(system, F, steps, fn)
        out = rows[-1]
        worst_recon = max(worst_recon, gap)
        if miss is not None and (escape is None
                                 or miss.curvature > escape.curvature):
            escape = miss
        m_obs = max(m_obs, _sup(out) / fn)
        if src > 1e-300:
            khat = max(khat, system.seminorm(out) / src)
        for v in rows:
            v_lower = max(v_lower, _sup(v) / fn)

    analytic = op.analytic_volterra_bound(system, t0)
    return AdmissibilityReport(
        lands_in_state_space=escape is None and worst_recon <= 50 * dt,
        worst_reconstruction_residual=worst_recon,
        seminorm_constant=khat,
        seminorm_window=(float(system.window.lo), float(system.window.hi)),
        smallness_observed=m_obs,
        smallness_analytic=analytic,
        smallness_pass=max(m_obs, analytic) < 0.5,
        volterra_norm_lower_bound=v_lower,
        probes_used=len(probes),
        escape=escape,
    )


# ---------------------------------------------------------------------------
# generator and comparison checks


def generator_check(system, op: PerturbationOperator, f, h_steps,
                    dt: float, t0: float) -> dict:
    """Difference quotients of the perturbed semigroup against the exact
    generator action.

    One Neumann series on [0, t0] gives every h.  The operator's
    ``_generator_values`` give the values of f and of the perturbed
    generator applied to f; for rank-one ops that refuses f whose kinks
    miss the profile jumps.  Returns per-h sup residuals on the window.
    """
    op._paired(system)
    steps = [_lattice_steps(h, dt, "h") for h in h_steps]
    fvals, cf = op._generator_values(system, f)
    nodes, _ = neumann_nodes(system, op, system.make(fvals), t0, steps, dt)
    return {h: system.seminorm((system.state_values(v) - fvals) / h - cf)
            for h, v in zip(h_steps, nodes)}


def comparison_check(system, op: PerturbationOperator, t_values) -> dict:
    """Short-time comparison constants ||S(t) - T(t)|| / t, matrix kind.

    S is the dense exponential of A + B.  Rank-one transport operators
    are refused: ``transport.comparison_curve`` computes their constants
    from the renewal weights.
    """
    op._paired(system)
    if not isinstance(op, MatrixOperator):
        raise ValueError(
            "comparison_check takes matrix perturbations; use "
            "transport.comparison_curve for a rank-one transport operator")
    C = system.A + op.matrix_data
    return comparison_constants(
        t_values, lambda t: opnorm2(expm(t * C) - system.propagator(t)))


def comparison_constants(t_values, distance) -> dict:
    """The constants distance(t) / t of every comparison routine, on
    R^n, C_b and L(E): the per-t ``rows``, the largest ``constant`` (0.0
    when there are none) and the ``stability_ratio``, max/min over the
    positive constants (inf when none is positive).  A boolean t, or one
    not positive and finite, raises ValueError naming it before any
    distance is taken."""
    t_values = list(t_values)
    for t in t_values:
        if isinstance(t, (bool, np.bool_)) or not (
                math.isfinite(t) and t > 0):
            raise ValueError(
                f"comparison time t must be positive and finite, got {t!r}")
    rows = [{"t": float(t), "constant": float(distance(t)) / t}
            for t in t_values]
    consts = [r["constant"] for r in rows]
    pos = [c for c in consts if c > 0]
    top = max(consts, default=0.0)
    return {"rows": rows, "constant": top,
            "stability_ratio": (top / min(pos)) if pos else math.inf}


# ---------------------------------------------------------------------------
# probe factories


def translation_probes(system: TranslationSystem, t0: float, dt: float):
    """Constant, static, orbit, and oscillating trajectories on the grid.

    The shapes are the unit tent and its copies centred at 1.5 and -1,
    each sampled once; each gives a static probe and an orbit, and the
    tent also oscillates.  All are read-only: the constant and static
    probes broadcast views of one row, the orbits ``orbit_rows`` views.
    """
    from .functions import tent
    shapes = [tent(), tent().translate(-1.5), tent().translate(1.0)]
    m = _lattice_steps(t0, dt, "t0")
    shape = (m + 1, system.count)
    probes = [VectorTrajectory(system, dt, np.broadcast_to(1.0, shape))]
    samples = [system.sample(s).values for s in shapes]
    for row in samples:
        probes += [VectorTrajectory(system, dt, np.broadcast_to(row, shape)),
                   VectorTrajectory(system, dt, system.orbit_rows(row, m, dt))]
    rows = np.array([np.cos(3.0 * j * dt) * samples[0] for j in range(m + 1)])
    rows.flags.writeable = False
    probes.append(VectorTrajectory(system, dt, rows))
    return probes

