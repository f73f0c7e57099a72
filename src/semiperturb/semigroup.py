"""Concrete semigroup systems.

Two system kinds back every experiment:

* :class:`MatrixSystem` -- T(t) = exp(tA) on R^n, exponentials by
  scaling-and-squaring.
* :class:`TranslationSystem` -- (T(t)f)(x) = f(x + t) on a uniform grid,
  applied as an exact index shift (time steps are locked to the grid
  spacing); grids continue their edge values, so translation pulls the
  right edge value in.

On grids, :func:`reconstruct` applies (1 - A) to an element u of
regularized coordinates, u = R(1, A_ext) F for F in the extrapolation
completion, and rejects results whose discrete curvature blows up like
1/spacing (the signature of a function that left the state space).
"""

from __future__ import annotations

from math import ceil, inf, isfinite, log2

import numpy as np

from .errors import GridTooLarge, HorizonExceeded, NotInStateSpace, StepMismatch
from .functions import (CompactInterval, GridFunction, PiecewiseFunction,
                        _grid_nodes, _sample_nodes, seminorm_rows)

# the most grid nodes: 300 times the largest stock or benchmark grid (32 805)
MAX_GRID_NODES = 10_000_000


def _lattice_steps(t, dt, what="time", step="dt", ceiling=MAX_GRID_NODES):
    """The m with t = m dt; StepMismatch names t ``what`` and dt ``step``
    when dt is not positive and finite, t is not finite, t / dt overflows
    or passes the ceiling of steps, or t is negative or off the lattice."""
    if not 0.0 < dt < inf:
        raise StepMismatch(f"{step} must be positive and finite, got {dt!r}")
    if not isfinite(t):
        raise StepMismatch(f"{what} must be finite, got {t!r}")
    ratio = float(t) / float(dt)
    if not isfinite(ratio):
        raise StepMismatch(f"{what} {t!r} is past the float range of "
                           f"steps of {step}={dt!r}")
    if ratio > ceiling:
        raise StepMismatch(f"{what} {t!r} is {ratio:.6g} steps of {step}="
                           f"{dt!r}, past the ceiling of {ceiling} steps")
    m = int(round(ratio))
    if abs(t - m * dt) > 1e-8 * max(dt, abs(t)) or m < 0:
        raise StepMismatch(f"{what} {t!r} is not a multiple of {step}={dt!r}")
    return m


# Pade-13 numerator coefficients for the matrix exponential
_PADE13 = (
    64764752532480000.0,
    32382376266240000.0,
    7771770303897600.0,
    1187353796428800.0,
    129060195264000.0,
    10559470521600.0,
    670442572800.0,
    33522128640.0,
    1323241920.0,
    40840800.0,
    960960.0,
    16380.0,
    182.0,
    1.0,
)
_THETA13 = 5.371920351148152


def expm(A: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring with a fixed Pade-13 core.

    Accurate to ~1e-15 relative for moderate norms; the design target is
    1e-12 relative for ||A|| <= 20.
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError("expm needs a square matrix")
    norm1 = float(np.max(np.sum(np.abs(A), axis=0))) if n else 0.0
    squarings = max(0, ceil(log2(norm1 / _THETA13))) if norm1 > _THETA13 else 0
    As = A / (2.0**squarings)
    b = _PADE13
    ident = np.eye(n)
    A2 = As @ As
    A4 = A2 @ A2
    A6 = A2 @ A4
    U = As @ (
        A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
        + b[7] * A6
        + b[5] * A4
        + b[3] * A2
        + b[1] * ident
    )
    V = (
        A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
        + b[6] * A6
        + b[4] * A4
        + b[2] * A2
        + b[0] * ident
    )
    R = np.linalg.solve(V - U, V + U)
    for _ in range(squarings):
        R = R @ R
    return R


def require_finite(what: str, values: np.ndarray):
    """The values, refused if they have NaN or Inf entries, by a
    ValueError that says how many there are."""
    bad = int(np.count_nonzero(~np.isfinite(values)))
    if bad:
        raise ValueError(
            f"{what}: {bad} of {values.size} entries are NaN or Inf")
    return values


def recent_memo(cache: dict, key, build):
    """cache[key], built on a miss; the four keys used last are kept."""
    hit = cache.pop(key, None)
    cache[key] = build() if hit is None else hit
    if len(cache) > 4:
        del cache[next(iter(cache))]
    return cache[key]


def opnorm2(M: np.ndarray) -> float:
    """Spectral (operator 2-) norm."""
    return float(np.linalg.norm(M, 2))


class LatticeStep:
    """A step matrix E = T(dt) and its doubling powers, prepared once.

    ``power(i)`` is (E^T)^(2^i), the operand of level i of every
    ``lattice_scan`` over E: built by squaring the first time a scan
    needs it and kept, so the scans of one series square E once.
    """

    def __init__(self, E: np.ndarray):
        self._powers = [E.T]

    def power(self, i: int) -> np.ndarray:
        while len(self._powers) <= i:
            self._powers.append(self._powers[-1] @ self._powers[-1])
        return self._powers[i]


def lattice_scan(E, b: np.ndarray) -> np.ndarray:
    """c[0] = b[0], c[q] = E c[q-1] + b[q] for rows b[q] that are vectors
    (n,) or n x k matrices, by a Hillis--Steele doubling scan (Blelloch
    1990, "Prefix sums and their applications").

    E is a matrix or a prepared ``LatticeStep``.  The columns of the rows
    are kept as rows of one table, the layout of ``scan_rows``.
    """
    m1, n = np.shape(b)[:2]
    cols = np.asarray(b, dtype=float).reshape(m1, n, -1)
    # a C-ordered copy: its flat view is scanned in place, b never written
    cols = cols.transpose(0, 2, 1).copy()
    scan_rows(E, cols.reshape(-1, n), cols.shape[1])
    return cols.transpose(0, 2, 1).reshape(np.shape(b))


def scan_rows(E, flat: np.ndarray, k: int):
    """``lattice_scan`` in place on its row table: row q k + j of flat is
    column j of b[q], and c[q] = E c[q-1] + b[q] acts on every column.

    The level with shift s adds E^s c[q-s] to c[q], s k rows back, as one
    matrix product with (E^T)^s, so ceil(log2(rows / k)) levels suffice.
    """
    step = E if isinstance(E, LatticeStep) else LatticeStep(E)
    m1, s, level = len(flat) // k, 1, 0
    while s < m1:
        flat[s * k:] += flat[:-s * k] @ step.power(level)
        s, level = 2 * s, level + 1


def lattice_orbit(E, x: np.ndarray, m: int) -> np.ndarray:
    """E^q x for q = 0..m: the ``lattice_scan`` of E (a matrix or a
    ``LatticeStep``) over [x, 0, ..., 0]."""
    impulse = np.zeros((m + 1,) + np.shape(x))
    impulse[0] = x
    return lattice_scan(E, impulse)


class MatrixSystem:
    """Uniformly continuous semigroup T(t) = exp(tA) on R^n.

    log_norm, the logarithmic norm mu_2(A) = lambda_max((A + A^T) / 2),
    gives the certified bound ||T(t)||_2 <= e^{log_norm t} (Soderlind
    2006, "The logarithmic norm").  Every exponential and every ``orbit_rows`` table passes
    ``require_finite``, so an overflowing generator is refused by a
    ValueError naming the time.  The state may be a vector or an n x k
    matrix; T(t) acts from the left.  ``window`` is (-inf, inf):
    seminorms see the whole space.
    """

    window = CompactInterval(-inf, inf)

    def __init__(self, A):
        self.A = np.asarray(A, dtype=float)
        n = self.A.shape[0]
        if self.A.shape != (n, n):
            raise ValueError("A must be square")
        require_finite("A", self.A)
        self.dim = n
        # halves first: A + A^T may overflow where A does not
        self.log_norm = float(np.linalg.eigvalsh(
            0.5 * self.A + 0.5 * self.A.T)[-1])
        self._step_cache = {}

    def state_values(self, x) -> np.ndarray:
        """x as floats; refused unless it is a vector or an n x k matrix
        on this system's R^n."""
        x = np.asarray(x, dtype=float)
        if x.ndim not in (1, 2) or x.shape[0] != self.dim:
            raise ValueError(f"state of shape {x.shape} does not live on "
                             f"this system's R^{self.dim}")
        return x

    def make(self, values) -> np.ndarray:
        """Node values as a state: a fresh float array."""
        return np.array(values, dtype=float)

    def seminorm(self, values) -> float:
        """The largest |entry|: the seminorm over the whole space."""
        return float(np.max(np.abs(values)))

    def orbit_rows(self, vals, m: int, dt: float) -> np.ndarray:
        """T(j dt) vals for j = 0..m; refused if an entry is not finite."""
        table = lattice_orbit(self.step(dt), vals, m)
        require_finite(f"T(j dt) x at dt = {dt!r}, j <= {m}", table)
        return table

    def propagator(self, t: float) -> np.ndarray:
        if t < 0:
            raise HorizonExceeded("negative time")
        E = expm(t * self.A)
        require_finite(f"T(t) at t = {t!r}", E)
        return E

    def step(self, dt: float) -> LatticeStep:
        """The prepared step T(dt); the four steps used last are kept."""
        return recent_memo(self._step_cache, dt,
                           lambda: LatticeStep(self.propagator(dt)))


class TranslationSystem:
    """Left translation semigroup on a uniform grid.

    Time steps must be lattice multiples of the spacing so translation is
    an exact index shift.  ``window`` is the interior comparison region.
    The value at x at time t reads only the forward orbit [x, x + t], so a
    continued edge value moves leftward from the right edge alone: the
    window keeps ``horizon`` away from the right edge, and from the left
    edge only the two spacings that the centred differences of
    :func:`reconstruct` and the interpolation at ``window.lo`` read.
    """

    log_norm = 0.0  # translation is a contraction

    def __init__(self, origin, spacing, count, horizon, window=None):
        if not (isfinite(spacing) and spacing > 0):
            raise ValueError(
                f"spacing must be positive and finite, got {spacing!r}")
        if not (isfinite(horizon) and horizon >= 0):
            raise ValueError(
                f"horizon must be nonnegative and finite, got {horizon!r}")
        if not count <= MAX_GRID_NODES:
            raise GridTooLarge(count, spacing, MAX_GRID_NODES)
        if count < 4:
            raise ValueError("grid too small")
        self.origin = float(origin)
        self.spacing = float(spacing)
        self.count = int(count)
        self.horizon = float(horizon)
        x_last = self.origin + self.spacing * (self.count - 1)
        self.x_last = x_last
        safe_lo = self.origin + 2 * self.spacing
        safe_hi = x_last - self.horizon
        if window is None:
            if safe_lo >= safe_hi:
                raise ValueError("horizon leaves no interior window")
            window = CompactInterval(safe_lo, safe_hi)
        if window.lo < safe_lo - 1e-12:
            raise ValueError(f"window [{window.lo}, {window.hi}] must start "
                             f"two spacings right of the origin {self.origin}")
        if window.hi > safe_hi + 1e-12:
            raise ValueError(f"window [{window.lo}, {window.hi}] must end "
                             f"{horizon} left of the right edge {x_last}")
        self.window = window
        self._nodes = None

    # -- grid plumbing ------------------------------------------------

    def nodes(self) -> np.ndarray:
        """The read-only node array, built on first use and kept."""
        if self._nodes is None:
            self._nodes = _grid_nodes(self.origin, self.spacing, self.count)
        return self._nodes

    def make(self, values) -> GridFunction:
        return GridFunction(self.origin, self.spacing, values)

    def sample(self, f: PiecewiseFunction) -> GridFunction:
        return self.make(_sample_nodes(f, self.nodes()))

    def window_mask(self) -> np.ndarray:
        xs = self.nodes()
        return (xs >= self.window.lo - 1e-12) & (xs <= self.window.hi + 1e-12)

    def _check_grid(self, f: GridFunction):
        if not isinstance(f, GridFunction):
            raise ValueError(
                f"state of type {type(f).__name__} is not a grid function; "
                f"wrap node values with make()")
        if not f.same_grid(self):
            raise ValueError("grid function does not live on this system's grid")

    def state_values(self, x) -> np.ndarray:
        """Node values of a state: a piecewise function is sampled, a grid
        function must live on this grid; anything else, raw node values
        included, is refused."""
        if isinstance(x, PiecewiseFunction):
            return self.sample(x).values
        self._check_grid(x)
        return x.values

    def seminorm(self, values) -> float:
        """The seminorm over ``window`` of these node values, read off the
        kept nodes."""
        rows = self.make(values).values[None]
        return float(seminorm_rows(self, rows, self.window)[0])

    # -- semigroup action ---------------------------------------------

    def orbit_rows(self, vals, m: int, dt: float) -> np.ndarray:
        """Read-only (m+1) x count view whose row j is T(j dt) vals: for
        dt = k spacings, j k entries into vals padded with m k copies of
        its edge value, so the rows share one buffer.  A dt that is not
        a lattice multiple of at least one spacing, or not finite, or
        past the ceiling of steps, is refused by StepMismatch."""
        k = _lattice_steps(dt, self.spacing, "dt", "spacing")
        if k < 1:
            raise StepMismatch(f"dt = {dt!r} is {k} lattice steps of "
                               f"spacing {self.spacing!r}")
        padded = np.concatenate([vals, np.full(m * k, vals[-1])])
        return np.lib.stride_tricks.sliding_window_view(
            padded, self.count)[::k]

    def derivative_values(self, values: np.ndarray) -> np.ndarray:
        """Centered differences, one-sided at the edges."""
        d = np.empty_like(values)
        d[1:-1] = (values[2:] - values[:-2]) / (2 * self.spacing)
        d[0] = (values[1] - values[0]) / self.spacing
        d[-1] = (values[-1] - values[-2]) / self.spacing
        return d


# ---------------------------------------------------------------------------
# regularized coordinates for the extrapolation completion


def reconstruct(system: TranslationSystem, u):
    """Recover the grid element (1 - A) u from regularized coordinates u.

    Applies u - u' with centered differences and then tests the discrete
    curvature max |second difference| / spacing^2 on the interior window
    against the threshold 10 / spacing: genuine state elements keep
    bounded curvature under refinement while jump artifacts grow like
    1/spacing past any fixed bound.  Failing the test raises
    NotInStateSpace, which is a legitimate diagnostic outcome.  Other
    systems are refused by a TypeError: on R^n there is nothing to
    recover, the extrapolation space being the state space.
    """
    if not isinstance(system, TranslationSystem):
        raise TypeError("reconstruct works on a TranslationSystem, not on "
                        f"a {type(system).__name__}")
    vals = system.state_values(u)
    r = vals - system.derivative_values(vals)
    threshold = 10.0 / system.spacing
    mask = system.window_mask()
    idx = np.flatnonzero(mask)
    idx = idx[(idx > 0) & (idx < system.count - 1)]
    second = np.abs(r[idx + 1] - 2 * r[idx] + r[idx - 1]) / system.spacing**2
    curvature = float(second.max()) if second.size else 0.0
    if curvature > threshold:
        raise NotInStateSpace(
            f"discrete curvature {curvature:.3g} exceeds threshold {threshold:.3g}",
            curvature=curvature,
            threshold=threshold,
        )
    return system.make(r)
