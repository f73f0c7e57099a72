"""Volterra perturbation engine.

Bounded-into-extrapolation-space perturbations and the series machinery
built on them: causal convolution against the unperturbed propagators, the
Neumann series for the perturbed semigroup on a short horizon, and the
battery of consistency checks (composition identity, variation of
parameters, admissibility, resolvent bounds, generator action).

Two perturbation kinds are supported:

* ``matrix``   -- B is a plain matrix on R^n, where the extrapolation
  space is the state space itself, so B F is applied as it stands and the
  convolution is one doubling scan (``lattice_scan``) of the step
  exponential T(dt) over the lattice.
* ``rank_one`` -- B f = <f, mu> * g where mu is a bounded measure and g a
  piecewise-polynomial profile that need not lie in the grid state space.
  The convolution collapses to scalar recursions plus one profile
  convolution per evaluation point, which is what makes fine grids cheap.

All time quadrature is trapezoid with one-sided endpoint limits and
midpoint values at interior lattice hits of profile jumps; without that
convention every jump crossing would cost an order of accuracy.
"""

from __future__ import annotations

import dataclasses
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
    PiecewiseFunction,
    lattice_convolve,
    pair_rows,
    sample_lag_kernel,
    sample_sided,
)
from .semigroup import (
    MatrixSystem,
    TranslationSystem,
    expm,
    lattice_orbit,
    lattice_scan,
    opnorm2,
    reconstruct,
)

MAX_NEUMANN_TERMS = 60
# how far a kink defect may miss its jump condition in generator_check
KINK_TOL = 1e-9

_SidedSamples = namedtuple("_SidedSamples", ["left", "mid", "right"])


def _sup(a) -> float:
    return float(np.max(np.abs(a))) if a.size else 0.0


def _lattice_steps(t, dt, what="time"):
    m = int(round(t / dt))
    if abs(t - m * dt) > 1e-8 * max(dt, abs(t)) or m < 0:
        raise StepMismatch(f"{what} {t!r} is not a multiple of dt={dt!r}")
    return m


class PerturbationOperator:
    """A perturbation acting from the state space into its extrapolation.

    Use the ``matrix`` / ``rank_one`` constructors; the generic
    ``__init__`` is internal.
    """

    def __init__(self, kind, *, matrix=None, measure=None, profile=None,
                 regularized_profile=None):
        self.kind = kind
        self.matrix_data = matrix
        self.measure = measure
        self.profile = profile
        self.regularized_profile = regularized_profile
        self._profile_cache = {}
        self._kernel_cache = {}

    @classmethod
    def matrix(cls, B) -> "PerturbationOperator":
        B = np.asarray(B, dtype=float)
        if B.ndim != 2 or B.shape[0] != B.shape[1]:
            raise ValueError("matrix perturbation must be square")
        return cls("matrix", matrix=B)

    @classmethod
    def rank_one(cls, measure: BoundedMeasure, profile: PiecewiseFunction,
                 regularized_profile: PiecewiseFunction | None = None,
                 ) -> "PerturbationOperator":
        """B f = (pairing of f with measure) * profile.

        ``regularized_profile`` h, when supplied, must satisfy
        profile = h - h' exactly; it is what the slow regularized route
        and the extrapolation-norm constant use.  The fast path only
        needs ``profile``.
        """
        if regularized_profile is not None:
            resid = (regularized_profile
                     - regularized_profile.derivative()) - profile
            if resid.sup_norm() > 1e-10:
                raise ValueError(
                    "regularized_profile does not regularize profile: "
                    f"residual sup {resid.sup_norm():.3e}")
        return cls("rank_one", measure=measure, profile=profile,
                    regularized_profile=regularized_profile)

    # -- constants ---------------------------------------------------------

    def analytic_volterra_bound(self, system, t0: float) -> float:
        """Upper bound for the Volterra operator norm on horizon t0.

        Matrix kind: t0 * sup ||T(r)|| * ||B||.  Rank-one kind:
        t0 * |mu|(R) * sup|g|, from pulling the absolute value through
        the defining integral.  Guards must use this, not an empirical
        estimate, so that the resolvent inequality is certified.
        """
        if self.kind == "matrix":
            props = system.powers(t0 / 64.0, 64)
            mhat = float(np.max(np.linalg.norm(props, 2, axis=(1, 2))))
            return t0 * mhat * opnorm2(self.matrix_data)
        return t0 * self.measure.total_variation() * self.profile.sup_norm()

    # -- lattice sample caches (rank-one) ----------------------------------

    def _profile_lattice(self, system: TranslationSystem, m_extra: int):
        """Sided samples of g on the grid lattice extended m_extra steps."""
        key = (system.origin, system.spacing, system.count, m_extra)
        hit = self._profile_cache.get(key)
        if hit is None:
            xs = system.origin + system.spacing * np.arange(
                system.count + m_extra)
            hit = _SidedSamples(*sample_sided(
                self.profile, xs, snap_tol=1e-6 * system.spacing))
            self._profile_cache[key] = hit
        return hit

    def _kernel_lattice(self, dt: float, m_steps: int):
        """Sided samples of s -> pairing of g(. + s) on the time lattice."""
        key = (dt, m_steps)
        hit = self._kernel_cache.get(key)
        if hit is None:
            hit = _SidedSamples(*sample_lag_kernel(
                self.measure, self.profile, dt, m_steps))
            self._kernel_cache[key] = hit
        return hit


@dataclasses.dataclass
class VectorTrajectory:
    """State values on the uniform time lattice 0, dt, ..., t0."""

    system: object
    dt: float
    nodes: np.ndarray  # shape (steps+1, n[, k]) or (steps+1, grid count)

    @property
    def steps(self) -> int:
        return self.nodes.shape[0] - 1

    @property
    def t0(self) -> float:
        return self.dt * self.steps

    def node(self, j: int):
        if self.system.kind == "translation":
            return self.system.make(self.nodes[j])
        return self.nodes[j].copy()

    def step_of(self, t: float) -> int:
        m = _lattice_steps(t, self.dt)
        if m > self.steps:
            raise StepMismatch(f"t={t!r} beyond trajectory horizon {self.t0!r}")
        return m

    def norm(self) -> float:
        return _sup(self.nodes)

    @classmethod
    def orbit(cls, system, x, t0: float, dt: float) -> "VectorTrajectory":
        """Unperturbed orbit T(j dt) x, j = 0..t0/dt.

        Matrix kind: the ``lattice_orbit`` of T(dt) and x.  Translation
        kind: a copy of the orbit window ``_orbit_window``, the rows the
        Neumann series pairs in place.
        """
        m = _lattice_steps(t0, dt, "t0")
        vals = system.state_values(x)
        if system.kind == "translation":
            return cls(system, dt, _orbit_window(
                system, vals, m, system.steps_of(dt)).copy())
        return cls(system, dt, lattice_orbit(system.propagator(dt), vals, m))

    @classmethod
    def from_callable(cls, system, fn, t0: float, dt: float
                      ) -> "VectorTrajectory":
        m = _lattice_steps(t0, dt, "t0")
        rows = []
        for j in range(m + 1):
            e = fn(j * dt)
            rows.append(e.values if isinstance(e, GridFunction)
                        else np.asarray(e, dtype=float))
        return cls(system, dt, np.array(rows))


def _orbit_window(system: TranslationSystem, vals, m: int, k: int = 1):
    """Read-only (m+1) x count view whose row j is T(j k spacing) vals.

    Row j starts j k entries into vals padded with m k copies of its edge
    value, so the rows share one buffer of count + m k doubles.
    """
    padded = np.concatenate([vals, np.full(m * k, vals[-1])])
    return np.lib.stride_tricks.sliding_window_view(padded, system.count)[::k]


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
    if op.kind == "matrix":
        rows = _volterra_matrix(system.propagator(F.dt), op, F.nodes, F.dt)
    else:
        rows = np.array([r.values for r in _volterra_nodes(
            system, op, F, range(F.steps + 1))])
    return VectorTrajectory(system, F.dt, rows)


def volterra_apply(system, op: PerturbationOperator, F: VectorTrajectory,
                   t: float):
    """Value of the Volterra operator applied to F at one time t."""
    return _volterra_nodes(system, op, F, [F.step_of(t)])[0]


def _volterra_nodes(system, op, F: VectorTrajectory, steps):
    """Values of the Volterra operator applied to F at the lattice steps."""
    if op.kind == "matrix":
        out = _volterra_matrix(system.propagator(F.dt), op, F.nodes, F.dt)
        return [out[m].copy() for m in steps]
    phi = pair_rows(op.measure, system, F.nodes)
    return _convolved_nodes(system, op, phi, F.dt, steps)


def _convolved_nodes(system, op, phi, dt, steps):
    """Rank-one Volterra values at the steps from the node pairings phi."""
    _require_time_grid(system, dt)
    prof = op._profile_lattice(system, len(phi) - 1)
    return [system.make(_profile_convolution(phi, m, prof, system.count, dt))
            for m in steps]


def _volterra_matrix(step, op, nodes, dt) -> np.ndarray:
    """Trapezoid convolution of T(m dt - r) B F(r) over [0, m dt].

    F holds the lattice ``nodes`` and ``step`` is E = T(dt).  With C the
    ``lattice_scan`` of E over B F with its first row halved, node m is
    dt (C[m] - B F[m] / 2), zero at m = 0.
    """
    B = op.matrix_data
    BF = B @ nodes.reshape(len(nodes), len(B), -1)
    forcing = BF.copy()
    forcing[0] *= 0.5
    return (dt * (lattice_scan(step, forcing) - 0.5 * BF)).reshape(
        nodes.shape)


def _profile_convolution(phi, m, prof: _SidedSamples, count, dt):
    """Trapezoid of phi(r) g(x + (m-j) dt) over j = 0..m on every grid node."""
    if m == 0:
        return np.zeros(count)
    conv = lattice_convolve(phi[:m + 1], prof.mid, m + count)[m:]
    out = conv - phi[0] * prof.mid[m:m + count] - phi[m] * prof.mid[:count]
    out += 0.5 * phi[0] * prof.left[m:m + count]
    out += 0.5 * phi[m] * prof.right[:count]
    return dt * out


def _kernel_step(phi, ker: _SidedSamples, dt):
    """One scalar Volterra iteration: next(m) = int_0^{m dt} phi kernel."""
    m_top = len(phi) - 1
    conv = lattice_convolve(phi, ker.mid, m_top + 1)
    out = conv - phi[0] * ker.mid[:m_top + 1] - phi * ker.mid[0]
    out += 0.5 * phi[0] * ker.left[:m_top + 1]
    out += 0.5 * phi * ker.right[0]
    out *= dt
    out[0] = 0.0
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
    ratios: list
    guard_bound: float
    segments: int = 1

    def merge(self, other: "SeriesDiagnostics"):
        self.terms_used = max(self.terms_used, other.terms_used)
        if len(other.term_norms) > len(self.term_norms):
            self.term_norms = other.term_norms
            self.ratios = other.ratios
        self.segments += 1
        return self


def _series_guard(op, system, t0, enforce, tol):
    """The analytic guard of the horizon t0, once tol is checked."""
    if not tol >= 0:
        raise ValueError(f"tol must be a nonnegative number, got {tol!r}")
    bound = op.analytic_volterra_bound(system, t0)
    if enforce and bound >= 1.0:
        raise GuardViolation(
            f"Volterra bound {bound:.4f} >= 1 on horizon t0={t0}; "
            "shorten t0 or shrink the perturbation")
    return bound


def _neumann_sum(total, term, apply_v, size, base, tol, guard):
    """Add ``term``, ``apply_v(term)``, ... to ``total`` by the stop rule
    of ``neumann_nodes``; ``base`` is the recorded size of the orbit."""
    norms = [base]
    ratios = []
    k = 1
    while True:
        nrm = size(term)
        norms.append(nrm)
        if len(norms) >= 3:
            ratios.append(norms[-1] / max(norms[-2], 1e-300))
            if len(ratios) >= 3 and all(r >= 1.0 for r in ratios[-3:]):
                raise NonConvergence(
                    "Neumann term norms failed to decay for three "
                    "consecutive terms (latest ratios "
                    f"{[round(r, 4) for r in ratios[-3:]]})")
        q = ratios[-1] if ratios else guard
        if nrm < tol * (1.0 - min(max(q, 0.0), 0.999)):
            break
        if k >= MAX_NEUMANN_TERMS:
            raise NonConvergence(
                "Neumann series did not reach tolerance within "
                f"{MAX_NEUMANN_TERMS} terms")
        total += term
        term = apply_v(term)
        k += 1
    return total, SeriesDiagnostics(k, norms, ratios, guard)


def neumann_nodes(system, op: PerturbationOperator, x, t0: float,
                  node_steps, dt: float, tol: float = 1e-9,
                  enforce_guard: bool = True):
    """One Neumann series on [0, t0]; returns S(j dt) x at the given steps.

    The trajectory of S is the sum of V^k T x, V the Volterra operator.
    Matrix kind: a term is V^k T x on the lattice, its size the max-abs
    entry.  Rank-one kind: a term is the pairings phi of V^(k-1) T x with
    the measure, advanced by the renewal kernel, its size sup|g| times the
    trapezoid of |phi|; S adds one profile convolution of their sum to T x.
    The first pairings are ``pair_rows`` over the orbit window of x (the
    rows ``VectorTrajectory.orbit`` copies), read in place.
    The sum stops at the first term of size below tol (1 - q), q the last
    ratio of consecutive sizes clipped to [0, 0.999] (the guard before
    the first ratio).  Three ratios >= 1 in a row, or MAX_NEUMANN_TERMS
    terms, raise NonConvergence; a NaN or Inf state, or a NaN or negative
    tol, raises ValueError.
    """
    m_steps = _lattice_steps(t0, dt, "t0")
    guard = _series_guard(op, system, t0, enforce_guard, tol)
    return _neumann_segment(system, op, x, m_steps, node_steps, dt, tol,
                            guard)


def _neumann_segment(system, op, x, m, node_steps, dt, tol, guard):
    """The series of ``neumann_nodes`` on [0, m dt] under a given guard."""
    if any(j < 0 or j > m for j in node_steps):
        raise StepMismatch("requested node outside [0, t0]")
    vals = system.state_values(x)
    bad = int(np.count_nonzero(~np.isfinite(vals)))
    if bad:
        raise ValueError(
            f"state x: {bad} of {vals.size} entries are NaN or Inf; the "
            "Neumann series needs a finite state")
    if op.kind == "matrix":
        step = system.propagator(dt)
        orbit = lattice_orbit(step, vals, m)
        total, diag = _neumann_sum(
            orbit, _volterra_matrix(step, op, orbit, dt),
            lambda nodes: _volterra_matrix(step, op, nodes, dt), _sup,
            _sup(orbit), tol, guard)
        return [total[j].copy() for j in node_steps], diag
    _require_time_grid(system, dt)
    ker = op._kernel_lattice(dt, m)
    gsup = float(op.profile.sup_norm())

    def size(phi):
        w = np.abs(phi)
        return float(gsup * dt * (w.sum() - 0.5 * w[0] - 0.5 * w[-1]))

    window = _orbit_window(system, vals, m)
    phi_total, diag = _neumann_sum(
        np.zeros(m + 1), pair_rows(op.measure, system, window),
        lambda phi: _kernel_step(phi, ker, dt), size, _sup(vals), tol, guard)
    conv = _convolved_nodes(system, op, phi_total, dt, node_steps)
    return [system.make(window[j]) + c
            for j, c in zip(node_steps, conv)], diag


def neumann_semigroup(system, op: PerturbationOperator, x, t: float,
                      t0: float, dt: float, tol: float = 1e-9,
                      enforce_guard: bool = True, diagnostics: bool = False):
    """Perturbed semigroup S(t) x via Neumann series plus horizon splitting.

    t is split as n * t0 + t1 with both parts on the dt lattice; each
    segment runs a fresh series seeded by the previous output, the short
    one first, all under the one analytic guard of the horizon t0.
    Raises GuardViolation when that bound reaches 1, NonConvergence when
    term norms refuse to decay, and ValueError for a NaN or negative tol.
    """
    if t < -1e-12:
        raise ValueError("t must be nonnegative")
    m0 = _lattice_steps(t0, dt, "t0")
    n_full, m_rest = divmod(_lattice_steps(t, dt, "t"), m0)
    guard = _series_guard(op, system, t0, enforce_guard, tol)
    state = system.state_values(x)
    if system.kind == "translation":
        state = system.make(state)
    diag_all = SeriesDiagnostics(0, [], [], guard, segments=0)
    for steps in ([m_rest] if m_rest else []) + [m0] * n_full:
        out, diag = _neumann_segment(system, op, state, steps, [steps], dt,
                                     tol, guard)
        state = out[0]
        diag_all = diag_all.merge(diag)
    return (state, diag_all) if diagnostics else state


# ---------------------------------------------------------------------------
# identity and residual checks


def _element_diff_norm(system, a, b):
    """Window seminorm of a - b on grids, max-abs entry otherwise."""
    if isinstance(a, GridFunction):
        return (a - b).seminorm(system.window)
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


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
    a, b = traj.node(j), traj.node(j + 1)
    if isinstance(a, GridFunction):
        return a.with_values((1.0 - theta) * a.values + theta * b.values)
    return (1.0 - theta) * a + theta * b


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
    S(t) x - T(t) x - (Volterra applied to the S trajectory at t).
    """
    traj = VectorTrajectory.from_callable(system, S_fn, t, dt)
    integral = volterra_apply(system, op, traj, t)
    free = VectorTrajectory.orbit(system, x, t, dt)
    lhs = traj.node(traj.steps)
    rhs = free.node(free.steps) + integral
    return _element_diff_norm(system, lhs, rhs)


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

    @property
    def admissible(self) -> bool:
        return self.lands_in_state_space and self.smallness_pass

    def to_dict(self) -> dict:
        return {
            "lands_in_state_space": self.lands_in_state_space,
            "worst_reconstruction_residual":
                self.worst_reconstruction_residual,
            "seminorm_constant": self.seminorm_constant,
            "seminorm_window": list(self.seminorm_window),
            "smallness_observed": self.smallness_observed,
            "smallness_analytic": self.smallness_analytic,
            "smallness_pass": self.smallness_pass,
            "volterra_norm_lower_bound": self.volterra_norm_lower_bound,
            "probes_used": self.probes_used,
            "admissible": self.admissible,
        }


def admissibility_check(system, op: PerturbationOperator, t0: float,
                        dt: float, probes) -> AdmissibilityReport:
    """Three-part admissibility battery over a family of probe trajectories.

    (a) the Volterra output at t0 lands back in the state space (for
        rank-one ops with a regularized profile this cross-checks the fast
        path against the reconstructed regularized route);
    (b) the output's seminorm on the system window (its sup norm on R^n)
        is controlled by the probe's sup over the measure's support hull
        (its norm on R^n); probes that vanish there are skipped;
    (c) the operator norm surrogate stays below one half, where pass/fail
        uses the analytic bound and the observed value is reported.
    """
    m_steps = _lattice_steps(t0, dt, "t0")
    src_window = _measure_window(op) if op.kind == "rank_one" else None

    worst_recon = 0.0
    lands = True
    khat = 0.0
    m_obs = 0.0
    v_lower = 0.0
    sample_steps = sorted({max(1, m_steps // 4), m_steps // 2,
                           3 * m_steps // 4, m_steps})
    for F in probes:
        fn = F.norm()
        if fn == 0:
            continue
        steps = [F.step_of(r) for r in [t0] + [j * dt for j in sample_steps]]
        if op.kind == "matrix":
            out, *sampled = _volterra_nodes(system, op, F, steps)
            out_norm = _sup(out)
            semi = out_norm
            src = fn
        else:
            phi = pair_rows(op.measure, system, F.nodes)
            out, *sampled = _convolved_nodes(system, op, phi, F.dt, steps)
            if op.regularized_profile is not None:
                worst_recon = max(worst_recon, _regularized_residual(
                    system, op, phi, F.dt, out))
            out_norm = out.sup_norm()
            semi = out.seminorm(system.window)
            src = max(F.node(j).seminorm(src_window)
                      for j in range(F.steps + 1)) if src_window else fn
        m_obs = max(m_obs, out_norm / fn)
        if src > 1e-300:
            khat = max(khat, semi / src)
        for v in sampled:
            vn = _sup(v) if op.kind == "matrix" else v.sup_norm()
            v_lower = max(v_lower, vn / fn)

    analytic = op.analytic_volterra_bound(system, t0)
    win = (float(system.window.lo), float(system.window.hi)) \
        if op.kind == "rank_one" else (float("-inf"), float("inf"))
    if lands and op.kind == "rank_one":
        lands = worst_recon <= 50 * dt
    return AdmissibilityReport(
        lands_in_state_space=lands,
        worst_reconstruction_residual=worst_recon,
        seminorm_constant=khat,
        seminorm_window=win,
        smallness_observed=m_obs,
        smallness_analytic=analytic,
        smallness_pass=max(m_obs, analytic) < 0.5,
        volterra_norm_lower_bound=v_lower,
        probes_used=len(probes),
    )


def _measure_window(op) -> CompactInterval | None:
    pts = op.measure.support_points()
    if not pts:
        return None
    return CompactInterval(float(min(pts)), float(max(pts)))


def _regularized_residual(system, op, phi, dt, fast_out) -> float:
    """Sup gap between the fast path and the regularized detour on the window."""
    h = op.regularized_profile
    m = len(phi) - 1
    hvals = system.sample(h).values
    u = np.zeros(system.count)
    for j in range(m + 1):
        w = 0.5 if j in (0, m) else 1.0
        u += w * phi[j] * system.shift_values(hvals, m - j)
    u *= dt
    try:
        recon = reconstruct(system, system.make(u))
    except NotInStateSpace:
        return float("inf")
    return (recon - fast_out).seminorm(system.window)


# ---------------------------------------------------------------------------
# resolvent, generator, regularity checks


def perturbed_resolvent_check(system, op: PerturbationOperator,
                              lam_values, t0: float, dt: float) -> dict:
    """Resolvent-composed-with-B norms against the certified chain bound.

    For each lambda above the growth bound, computes (or bounds) the norm
    of R(lambda) composed with B as a map on the state space and compares
    with V + M q/(1-q) V where q = exp((growth - lambda) t0) and V is the
    analytic Volterra bound.  Returns per-lambda numbers plus flags.
    """
    vb = op.analytic_volterra_bound(system, t0)
    omega = system.growth_bound
    mconst = system.bound_constant
    rows = []
    for lam in lam_values:
        if lam <= omega:
            raise ValueError("lambda must exceed the growth bound")
        q = float(np.exp((omega - lam) * t0))
        bound = vb + mconst * q / (1.0 - q) * vb
        if op.kind == "matrix":
            R = np.linalg.solve(lam * np.eye(system.dim) - system.A,
                                op.matrix_data)
            observed = opnorm2(R)
        else:
            observed = (op.measure.total_variation()
                        * _resolvent_profile_sup(system, op.profile, lam))
        rows.append({"lam": float(lam), "observed": float(observed),
                     "bound": float(bound),
                     "within": bool(observed <= bound * (1 + 1e-8) + 1e-12)})
    obs = [r["observed"] for r in rows]
    return {
        "rows": rows,
        "all_within": all(r["within"] for r in rows),
        "decreasing": all(obs[i + 1] <= obs[i] * (1 + 1e-8)
                          for i in range(len(obs) - 1)),
    }


def _resolvent_profile_sup(system: TranslationSystem,
                           g: PiecewiseFunction, lam: float) -> float:
    """Sup over the window of the resolvent applied to the profile."""
    lo, hi = g.support_bounds()
    dt = system.spacing
    win = system.window
    x0 = min(float(win.lo), float(lo))
    n = int(np.ceil((float(hi) - x0) / dt)) + 2
    lattice = TranslationSystem(x0, dt, n, 0.0)
    xs = lattice.nodes()
    _, gm, _ = sample_sided(g, xs, snap_tol=1e-6 * dt)
    out = lattice.resolvent(lam, lattice.make(gm)).values
    mask = (xs >= float(win.lo) - 1e-12) & (xs <= float(win.hi) + 1e-12)
    return float(np.max(np.abs(out[mask])))


def generator_check(system, op: PerturbationOperator, f, h_steps,
                    dt: float, t0: float) -> dict:
    """Difference quotients of the perturbed semigroup against the exact
    generator action.

    One Neumann series on [0, t0] gives every h.  For rank-one ops, f
    must be continuous piecewise-polynomial and its kink defects must
    match the pairing-weighted profile jumps within ``KINK_TOL``;
    otherwise the quotient has no state-space limit and NotInStateSpace
    is raised.  Returns per-h sup residuals on the window.
    """
    steps = [_lattice_steps(h, dt, "h") for h in h_steps]
    if op.kind == "matrix":
        x = np.asarray(f, dtype=float)
        Cf = (system.A + op.matrix_data) @ x
        nodes, _ = neumann_nodes(system, op, x, t0, steps, dt)
        return {h: float(np.max(np.abs((v - x) / h - Cf)))
                for h, v in zip(h_steps, nodes)}

    phi_f = float(op.measure.pair(f))
    for z, lo, hi in op.profile.jumps():
        defect = float(f.one_sided_derivative(z, "left")
                       - f.one_sided_derivative(z, "right"))
        resid = defect - phi_f * float(hi - lo)
        if abs(resid) > KINK_TOL:
            raise NotInStateSpace(
                f"kink defect at {float(z)} misses the jump condition by "
                f"{resid:.3e}; difference quotients have no state-space "
                "limit", curvature=float(abs(resid)), threshold=KINK_TOL)
    Cf_fun = f.derivative() + op.profile.scale(phi_f)
    cf_vals = system.sample(Cf_fun).values
    fvals = system.sample(f).values
    nodes, _ = neumann_nodes(system, op, system.make(fvals), t0, steps, dt)
    return {h: system.make((v.values - fvals) / h - cf_vals).seminorm(
        system.window) for h, v in zip(h_steps, nodes)}


def favard_seminorm(system, x, alpha: float, s_values) -> float:
    """sup over the sample times of ||T(s) x - x|| / s^alpha."""
    vals = system.state_values(x)
    best = 0.0
    for s in s_values:
        if s <= 0:
            raise ValueError("sample times must be positive")
        if system.kind == "translation":
            moved = system.shift_values(vals, system.steps_of(s))
        else:
            moved = system.propagator(s) @ vals
        gap = _sup(moved - vals)
        best = max(best, gap / s ** alpha)
    return best


def comparison_check(system, op: PerturbationOperator, t_values) -> dict:
    """Short-time comparison constants ||S(t) - T(t)|| / t, matrix kind.

    S is the dense exponential of A + B.  Rank-one transport operators
    are refused: ``transport.comparison_curve`` computes their constants
    from the renewal weights.  Returns per-t constants, their max, and
    the max/min stability ratio.
    """
    if op.kind != "matrix":
        raise ValueError(
            "comparison_check takes matrix perturbations; use "
            "transport.comparison_curve for a rank-one transport operator")
    rows = []
    for t in t_values:
        if t <= 0:
            raise ValueError("comparison times must be positive")
        S = expm(t * (system.A + op.matrix_data))
        c = opnorm2(S - system.propagator(t)) / t
        rows.append({"t": float(t), "constant": float(c)})
    top, ratio = comparison_summary([r["constant"] for r in rows])
    return {"rows": rows, "constant": top, "stability_ratio": ratio}


def comparison_summary(consts):
    """(largest constant, max/min ratio of the positive constants).

    The ratio is inf when no constant is positive, and the largest
    constant 0.0 when there are none.
    """
    pos = [c for c in consts if c > 0]
    top = max(consts, default=0.0)
    return top, (top / min(pos)) if pos else float("inf")


# ---------------------------------------------------------------------------
# probe factories


def matrix_probes(system: MatrixSystem, t0: float, dt: float,
                  seed: int = 0):
    """The orbits of the unit vectors and three seeded oscillatory
    trajectories, for matrix admissibility runs."""
    rng = np.random.default_rng(np.random.PCG64(seed))
    m = _lattice_steps(t0, dt, "t0")
    props = system.powers(dt, m)
    out = [VectorTrajectory(system, dt, props[:, :, i].copy())
           for i in range(system.dim)]
    for _ in range(3):
        v = rng.standard_normal(system.dim)
        v /= np.max(np.abs(v))
        freq = rng.uniform(0.5, 4.0)
        out.append(VectorTrajectory(system, dt, np.outer(
            np.cos(freq * np.arange(m + 1) * dt), v)))
    return out


def translation_probes(system: TranslationSystem, t0: float, dt: float):
    """Constant, static, orbit, and oscillating trajectories on the grid.

    The shapes are the unit tent and its copies centred at 1.5 and -1;
    each gives a static probe and an orbit, and the tent also oscillates.
    """
    from .functions import tent
    shapes = [tent(), tent().translate(-1.5), tent().translate(1.0)]
    m = _lattice_steps(t0, dt, "t0")
    probes = []
    ones = np.ones(system.count)
    probes.append(VectorTrajectory(system, dt,
                                   np.tile(ones, (m + 1, 1))))
    for s in shapes:
        vals = system.sample(s).values
        probes.append(VectorTrajectory(system, dt, np.tile(vals, (m + 1, 1))))
        probes.append(VectorTrajectory.orbit(system, system.make(vals),
                                             t0, dt))
    vals = system.sample(shapes[0]).values
    rows = np.array([np.cos(3.0 * j * dt) * vals for j in range(m + 1)])
    probes.append(VectorTrajectory(system, dt, rows))
    return probes


def escaping_bumps(system: TranslationSystem):
    """Four unit hat bumps of half-width 1/2 marching from the window's
    right end toward the right grid edge.

    A unit-norm family that leaves every fixed compact window behind;
    its window seminorms decay while the sup norm stays 1, which is the
    signature the coarser topology is meant to see.
    """
    xs = system.nodes()
    dx = system.spacing
    width = 0.5
    hi = system.x_last - width - dx
    lo = min(system.window.hi, hi - 1.0)
    out = []
    for c in np.linspace(lo, hi, 4):
        c = system.origin + round((c - system.origin) / dx) * dx
        out.append(system.make(
            np.maximum(0.0, 1.0 - np.abs(xs - c) / width)))
    return out
