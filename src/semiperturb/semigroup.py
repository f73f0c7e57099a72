"""Concrete semigroup systems and extrapolation-space coordinates.

Two system kinds back every experiment:

* :class:`MatrixSystem` -- T(t) = exp(tA) on R^n, exponentials by
  scaling-and-squaring.
* :class:`TranslationSystem` -- (T(t)f)(x) = f(x + t) on a uniform grid,
  applied as an exact index shift (time steps are locked to the grid
  spacing); grids continue their edge values, so translation pulls the
  right edge value in.

Elements of the extrapolation completion are stored in regularized
coordinates: the element F is represented by u = R(1, A_ext) F, an
ordinary state-space element, with norm and seminorms read off u.  The
embedding of a state x is u = R(1, A) x, the generator image A_ext x is
u = R(1, A) x - x (the resolvent identity, no derivative of x formed),
and the extended semigroup acts on u as T(t) does.  :func:`reconstruct`
applies (1 - A) to u and, on grids, rejects results whose discrete
curvature blows up like 1/spacing (the signature of a function that left
the state space).
"""

from __future__ import annotations

from math import ceil, exp, isfinite, log2

import numpy as np

from .errors import HorizonExceeded, NotInStateSpace, StepMismatch
from .functions import CompactInterval, GridFunction, PiecewiseFunction, to_grid

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


def opnorm2(M: np.ndarray) -> float:
    """Spectral (operator 2-) norm."""
    return float(np.linalg.norm(M, 2))


def lattice_scan(E: np.ndarray, b: np.ndarray) -> np.ndarray:
    """c[0] = b[0], c[q] = E c[q-1] + b[q] for rows b[q] that are vectors
    (n,) or n x k matrices, by a Hillis--Steele doubling scan (Blelloch
    1990, "Prefix sums and their applications").

    The level with shift s adds E^s c[q-s] to c[q] and squares E^s, so
    ceil(log2(len(b))) levels suffice.  The columns of the rows are kept
    as rows of one table, where s steps are s k rows: a level is one
    matrix product.
    """
    m1, n = np.shape(b)[:2]
    cols = np.asarray(b, dtype=float).reshape(m1, n, -1)
    # a C-ordered copy: flat is a view of it, and b is never written
    cols = cols.transpose(0, 2, 1).copy()
    k = cols.shape[1]
    flat, power, s = cols.reshape(m1 * k, n), E.T, 1
    while s < m1:
        flat[s * k:] += flat[:-s * k] @ power
        s *= 2
        if s < m1:
            power = power @ power
    return cols.transpose(0, 2, 1).reshape(np.shape(b))


def lattice_orbit(E: np.ndarray, x: np.ndarray, m: int) -> np.ndarray:
    """E^q x for q = 0..m: the ``lattice_scan`` of E over [x, 0, ..., 0]."""
    impulse = np.zeros((m + 1,) + np.shape(x))
    impulse[0] = x
    return lattice_scan(E, impulse)


class MatrixSystem:
    """Uniformly continuous semigroup T(t) = exp(tA) on R^n.

    growth_bound is the spectral abscissa of A; bound_constant M (with
    ||T(t)|| <= M e^{growth_bound t}) is calibrated on an 81-point
    lattice of [0, 2].  Lattice propagators T(q dt) come from
    ``powers``, the ``lattice_orbit`` of the one step exponential T(dt).
    The state may be a vector or an n x k matrix; T(t) acts from the left.
    """

    kind = "matrix"

    def __init__(self, A):
        self.A = np.asarray(A, dtype=float)
        n = self.A.shape[0]
        if self.A.shape != (n, n):
            raise ValueError("A must be square")
        self.dim = n
        self.growth_bound = float(np.max(np.linalg.eigvals(self.A).real))
        dt = 2.0 / 80
        norms = np.linalg.norm(self.powers(dt, 80), 2, axis=(1, 2))
        decay = np.exp(-self.growth_bound * dt * np.arange(81))
        self.bound_constant = float(np.max(norms * decay))

    def _check_time(self, t: float):
        if t < 0:
            raise HorizonExceeded("negative time")

    def state_values(self, x) -> np.ndarray:
        """x as floats; refused unless it is a vector or an n x k matrix
        on this system's R^n."""
        x = np.asarray(x, dtype=float)
        if x.ndim not in (1, 2) or x.shape[0] != self.dim:
            raise ValueError(f"state of shape {x.shape} does not live on "
                             f"this system's R^{self.dim}")
        return x

    def propagator(self, t: float) -> np.ndarray:
        self._check_time(t)
        return expm(t * self.A)

    def powers(self, dt: float, m: int) -> np.ndarray:
        """T(q dt) = T(dt)^q for q = 0..m, stacked; row 0 is exactly I."""
        self._check_time(m * dt)
        return lattice_orbit(expm(dt * self.A), np.eye(self.dim), m)

    def apply(self, t: float, x: np.ndarray) -> np.ndarray:
        return self.propagator(t) @ np.asarray(x, dtype=float)

    def resolvent(self, lam: float, x: np.ndarray) -> np.ndarray:
        if lam <= self.growth_bound:
            raise ValueError(
                f"resolvent needs lam > growth bound ({lam} <= {self.growth_bound})"
            )
        return np.linalg.solve(lam * np.eye(self.dim) - self.A, np.asarray(x, dtype=float))

    def norm(self, x) -> float:
        return float(np.linalg.norm(x, np.inf)) if np.ndim(x) == 1 else opnorm2(x)

    def validate(self):
        """T(0) = I, the semigroup law and the growth bound at the sample
        times 0, 0.1, 0.35 and 0.8; AssertionError names the first that
        fails."""
        t_samples = (0.0, 0.1, 0.35, 0.8)
        gap = opnorm2(self.propagator(0.0) - np.eye(self.dim))
        if not gap <= 1e-12:
            raise AssertionError(f"T(0) misses the identity by {gap:.3e}")
        for s in t_samples:
            for t in t_samples:
                lhs = self.propagator(s) @ self.propagator(t)
                rhs = expm((s + t) * self.A)
                scale = max(1.0, opnorm2(rhs))
                if opnorm2(lhs - rhs) > 1e-12 * scale * 10:
                    raise AssertionError(f"semigroup law violated at s={s}, t={t}")
        for t in t_samples:
            bound = self.bound_constant * exp(self.growth_bound * t)
            if opnorm2(self.propagator(t)) > bound * (1 + 1e-9):
                raise AssertionError(f"growth bound violated at t={t}")
        return True


class TranslationSystem:
    """Left translation semigroup on a uniform grid.

    Time steps must be lattice multiples of the spacing so translation is
    an exact index shift.  ``window`` is the interior comparison region,
    kept ``horizon`` away from both grid edges so no admissible operation
    reads continued edge values inside it.
    """

    kind = "translation"
    growth_bound = 0.0
    bound_constant = 1.0

    def __init__(self, origin, spacing, count, horizon, window=None):
        if not (isfinite(spacing) and spacing > 0):
            raise ValueError(
                f"spacing must be positive and finite, got {spacing!r}")
        if not (isfinite(horizon) and horizon >= 0):
            raise ValueError(
                f"horizon must be nonnegative and finite, got {horizon!r}")
        if count < 4:
            raise ValueError("grid too small")
        self.origin = float(origin)
        self.spacing = float(spacing)
        self.count = int(count)
        self.horizon = float(horizon)
        x_last = self.origin + self.spacing * (self.count - 1)
        self.x_last = x_last
        safe_lo = self.origin + self.horizon
        safe_hi = x_last - self.horizon
        if window is None:
            if safe_lo >= safe_hi:
                raise ValueError("horizon leaves no interior window")
            window = CompactInterval(safe_lo, safe_hi)
        if window.lo < safe_lo - 1e-12 or window.hi > safe_hi + 1e-12:
            raise ValueError(
                f"window [{window.lo}, {window.hi}] must stay {horizon} away from grid edges"
            )
        self.window = window

    # -- grid plumbing ------------------------------------------------

    def nodes(self) -> np.ndarray:
        return self.origin + self.spacing * np.arange(self.count)

    def make(self, values) -> GridFunction:
        return GridFunction(self.origin, self.spacing, values)

    def sample(self, f: PiecewiseFunction) -> GridFunction:
        return to_grid(f, self.origin, self.spacing, self.count)

    def zeros(self) -> GridFunction:
        return self.make(np.zeros(self.count))

    def steps_of(self, t: float) -> int:
        """Lattice step count for t; rejects off-lattice times."""
        k = t / self.spacing
        kr = round(k)
        if abs(k - kr) > 1e-8 * max(1.0, abs(k)):
            raise StepMismatch(f"t = {t} is not a lattice multiple of {self.spacing}")
        return int(kr)

    def window_mask(self) -> np.ndarray:
        xs = self.nodes()
        return (xs >= self.window.lo - 1e-12) & (xs <= self.window.hi + 1e-12)

    def _check_grid(self, f: GridFunction):
        if (
            f.count != self.count
            or abs(f.origin - self.origin) > 1e-12 * max(1.0, abs(self.origin))
            or abs(f.spacing - self.spacing) > 1e-12 * self.spacing
        ):
            raise ValueError("grid function does not live on this system's grid")

    def state_values(self, x) -> np.ndarray:
        """Node values of a state: a piecewise function is sampled, a grid
        function must live on this grid."""
        if isinstance(x, PiecewiseFunction):
            return self.sample(x).values
        self._check_grid(x)
        return x.values

    # -- semigroup action ---------------------------------------------

    def apply(self, t: float, f: GridFunction) -> GridFunction:
        if t < -1e-15:
            raise HorizonExceeded("negative time")
        if t > self.horizon + 1e-12:
            raise HorizonExceeded(f"t = {t} beyond horizon {self.horizon}")
        self._check_grid(f)
        k = self.steps_of(t)
        return self.make(self.shift_values(f.values, k))

    def shift_values(self, values: np.ndarray, k: int) -> np.ndarray:
        """values[i + k], the edge value filling past the edge."""
        if k == 0:
            return values.copy()
        out = np.empty_like(values)
        if k >= values.size:
            out[:] = values[-1]
            return out
        out[:-k] = values[k:]
        out[-k:] = values[-1]
        return out

    # -- resolvent ----------------------------------------------------

    def resolvent(self, lam: float, f: GridFunction) -> GridFunction:
        """R(lam, A) f(x) = int_0^inf e^{-lam s} f(x + s) ds.

        Composite trapezoid at the grid spacing via the exact backward
        recursion I_i = (dt/2)(f_i + a f_{i+1}) + a I_{i+1}, a = e^{-lam dt};
        the tail beyond the grid, where f continues its edge value, is
        summed in closed form, so the truncation error is zero by
        construction.
        """
        if lam <= self.growth_bound:
            raise ValueError(f"resolvent needs lam > {self.growth_bound}")
        self._check_grid(f)
        dt = self.spacing
        a = exp(-lam * dt)
        vals = f.values.tolist()
        n = len(vals)
        out = [0.0] * n
        # geometric tail of the trapezoid sum for a constant integrand
        out[-1] = vals[-1] * dt * (1 + a) / (2 * (1 - a))
        half = 0.5 * dt
        for i in range(n - 2, -1, -1):
            out[i] = half * (vals[i] + a * vals[i + 1]) + a * out[i + 1]
        return self.make(np.array(out))

    def derivative_values(self, values: np.ndarray) -> np.ndarray:
        """Centered differences, one-sided at the edges."""
        d = np.empty_like(values)
        d[1:-1] = (values[2:] - values[:-2]) / (2 * self.spacing)
        d[0] = (values[1] - values[0]) / self.spacing
        d[-1] = (values[-1] - values[-2]) / self.spacing
        return d


# ---------------------------------------------------------------------------
# regularized coordinates for the extrapolation completion


def reconstruct(system, u):
    """Recover the state element (1 - A) u from regularized coordinates u.

    Matrix systems invert exactly.  Grid systems apply u - u' with
    centered differences and then test the discrete curvature
    max |second difference| / spacing^2 on the interior window against
    the threshold 10 / spacing: genuine state elements keep bounded
    curvature under refinement while jump artifacts grow like 1/spacing
    past any fixed bound.  Failing the test raises NotInStateSpace,
    which is a legitimate diagnostic outcome.
    """
    vals = system.state_values(u)
    if system.kind == "matrix":
        return (np.eye(system.dim) - system.A) @ vals
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
