"""Scalar function spaces used by the perturbation laboratory.

Two concrete representations:

* :class:`PiecewiseFunction` -- exact piecewise polynomials on half-open
  pieces ``(a, b]``, closed under add/scale/multiply/translate and with
  exact integration.  Coefficient arithmetic is scalar-generic: feed it
  floats for ordinary numerics or :class:`fractions.Fraction` throughout
  to get exact rational results (the domain checks rely on this).
* :class:`GridFunction` -- uniform-grid samples that continue their edge
  values beyond the grid, the working representation for semigroup
  trajectories.

A :class:`BoundedMeasure` (finite atoms plus an optional compactly
supported piecewise-polynomial density) pairs against both; grid data,
one function or a stack of rows, is paired by the one rule
:func:`pair_rows`, with the exact panel quadrature :func:`hat_moments`.
"""

from __future__ import annotations

import functools
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np


# ---------------------------------------------------------------------------
# polynomial helpers, ascending coefficients, scalar-generic


def poly_eval(coeffs, x):
    """Horner evaluation of ``sum(c[k] * x**k)``."""
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * x + c
    return acc


def poly_derivative(coeffs):
    if len(coeffs) <= 1:
        return [0 * coeffs[0]] if coeffs else [0]
    return [k * c for k, c in enumerate(coeffs)][1:]


def poly_antiderivative(coeffs):
    # constant of integration zero; exact for Fraction inputs
    out = [0 * coeffs[0]]
    for k, c in enumerate(coeffs):
        out.append(c / (k + 1))
    return out


def poly_add(a, b):
    n = max(len(a), len(b))
    a = list(a) + [0] * (n - len(a))
    b = list(b) + [0] * (n - len(b))
    return [x + y for x, y in zip(a, b)]


def poly_scale(coeffs, s):
    return [s * c for c in coeffs]


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = out[i + j] + ai * bj
    return out


def poly_shift(coeffs, s):
    """Coefficients of ``p(x + s)``; binomial expansion, exact on rationals."""
    n = len(coeffs)
    out = [0 * coeffs[0]] * n
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        for j in range(k + 1):
            out[j] = out[j] + c * comb(k, j) * s ** (k - j)
    return out


def _poly_extrema_candidates(coeffs, lo, hi):
    """Points in [lo, hi] where |p| can attain its max (floats only)."""
    pts = [float(lo), float(hi)]
    d = poly_derivative([float(c) for c in coeffs])
    if any(c != 0 for c in d) and len(d) > 1:
        roots = np.roots(list(reversed(d)))
        for r in roots:
            if abs(r.imag) < 1e-12 and lo < r.real < hi:
                pts.append(float(r.real))
    return pts


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CompactInterval:
    """Closed bounded interval [lo, hi], the index set for seminorms."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo <= self.hi:
            raise ValueError(f"empty interval: [{self.lo}, {self.hi}]")


class PiecewiseFunction:
    """Piecewise polynomial with half-open pieces.

    ``breakpoints = [b_1 < ... < b_m]`` splits the line into
    ``(-inf, b_1], (b_1, b_2], ..., (b_m, inf)``; ``pieces[i]`` holds the
    ascending coefficients of the polynomial on piece ``i``.  Evaluation at
    a breakpoint uses the piece whose half-open interval contains it, i.e.
    the left piece, so ``eval`` returns left limits at discontinuities.
    The two unbounded pieces must be constants so the function is bounded.
    """

    def __init__(self, breakpoints, pieces):
        breakpoints = list(breakpoints)
        pieces = [list(p) for p in pieces]
        if len(pieces) != len(breakpoints) + 1:
            raise ValueError("need len(pieces) == len(breakpoints) + 1")
        if any(b2 <= b1 for b1, b2 in zip(breakpoints, breakpoints[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        if not pieces[0] or not pieces[-1]:
            raise ValueError("empty coefficient list")
        for p in (pieces[0], pieces[-1]):
            if any(c != 0 for c in p[1:]):
                raise ValueError("unbounded pieces must be constant")
        self.breakpoints = breakpoints
        self.pieces = pieces

    @classmethod
    def constant(cls, c):
        return cls([], [[c]])

    # -- evaluation ---------------------------------------------------

    def _piece_index(self, x, side="left"):
        if side == "left":
            return bisect_left(self.breakpoints, x)
        return bisect_right(self.breakpoints, x)

    def eval(self, x):
        """Value at x under the half-open convention (left limit at jumps)."""
        return poly_eval(self.pieces[self._piece_index(x)], x)

    def __call__(self, x):
        return self.eval(x)

    def one_sided_limit(self, x, side):
        if side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right'")
        return poly_eval(self.pieces[self._piece_index(x, side)], x)

    def one_sided_derivative(self, x, side):
        coeffs = self.pieces[self._piece_index(x, side)]
        return poly_eval(poly_derivative(coeffs), x)

    # -- calculus -----------------------------------------------------

    def derivative(self) -> "PiecewiseFunction":
        pieces = [poly_derivative(p) for p in self.pieces]
        return PiecewiseFunction(self.breakpoints, pieces)

    def definite_integral(self, a, b):
        """Exact integral over [a, b] (jumps are null sets, sides ignored)."""
        if b < a:
            return -self.definite_integral(b, a)
        total = 0
        cuts = [a] + [c for c in self.breakpoints if a < c < b] + [b]
        for lo, hi in zip(cuts, cuts[1:]):
            anti = poly_antiderivative(self.pieces[self._piece_index(hi)])
            total = total + poly_eval(anti, hi) - poly_eval(anti, lo)
        return total

    def integral_abs(self, a, b) -> float:
        """Integral of |f| over [a, b]; splits at sign changes (float)."""
        total = 0.0
        cuts = [a] + [c for c in self.breakpoints if a < c < b] + [b]
        for lo, hi in zip(cuts, cuts[1:]):
            coeffs = [float(c) for c in self.pieces[self._piece_index(hi)]]
            marks = [float(lo), float(hi)]
            if len(coeffs) > 1:
                for r in np.roots(list(reversed(coeffs))):
                    if abs(r.imag) < 1e-12 and lo < r.real < hi:
                        marks.append(float(r.real))
            marks.sort()
            anti = poly_antiderivative(coeffs)
            for u, v in zip(marks, marks[1:]):
                total += abs(poly_eval(anti, v) - poly_eval(anti, u))
        return total

    # -- algebra ------------------------------------------------------

    def _merged_with(self, other):
        cuts = sorted(set(self.breakpoints) | set(other.breakpoints))
        return cuts

    def _coeffs_on(self, cuts, j):
        # representative point of merged piece j: its right endpoint, or
        # anything beyond the last cut for the unbounded tail
        rep = cuts[j] if j < len(cuts) else (cuts[-1] + 1 if cuts else 0)
        return self.pieces[self._piece_index(rep)]

    def __add__(self, other):
        if not isinstance(other, PiecewiseFunction):
            return NotImplemented
        cuts = self._merged_with(other)
        pieces = [
            poly_add(self._coeffs_on(cuts, j), other._coeffs_on(cuts, j))
            for j in range(len(cuts) + 1)
        ]
        return PiecewiseFunction(cuts, pieces)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, s) -> "PiecewiseFunction":
        return PiecewiseFunction(self.breakpoints, [poly_scale(p, s) for p in self.pieces])

    def __mul__(self, other):
        if isinstance(other, PiecewiseFunction):
            cuts = self._merged_with(other)
            pieces = [
                poly_mul(self._coeffs_on(cuts, j), other._coeffs_on(cuts, j))
                for j in range(len(cuts) + 1)
            ]
            return PiecewiseFunction(cuts, pieces)
        return self.scale(other)

    __rmul__ = __mul__

    def translate(self, dx) -> "PiecewiseFunction":
        """The function x -> f(x + dx)."""
        cuts = [b - dx for b in self.breakpoints]
        pieces = [poly_shift(p, dx) for p in self.pieces]
        return PiecewiseFunction(cuts, pieces)

    # -- norms and jump structure ------------------------------------

    def sup_norm(self) -> float:
        """Exact sup of |f|: piece maxima plus one-sided limits at breaks."""
        best = 0.0
        m = len(self.breakpoints)
        for i, coeffs in enumerate(self.pieces):
            if i == 0 or i == m:
                best = max(best, abs(float(coeffs[0])))
                continue
            lo, hi = self.breakpoints[i - 1], self.breakpoints[i]
            for x in _poly_extrema_candidates(coeffs, lo, hi):
                best = max(best, abs(float(poly_eval([float(c) for c in coeffs], x))))
        return best

    def seminorm(self, K: CompactInterval) -> float:
        """sup of |f| over K (one-sided limits included where approached)."""
        best = 0.0
        m = len(self.breakpoints)
        for i, coeffs in enumerate(self.pieces):
            lo = -np.inf if i == 0 else float(self.breakpoints[i - 1])
            hi = np.inf if i == m else float(self.breakpoints[i])
            # half-open (lo, hi] meets [K.lo, K.hi] iff K.hi > lo and K.lo <= hi
            if not (K.hi > lo and K.lo <= hi):
                continue
            a, b = max(lo, K.lo), min(hi, K.hi)
            fl = [float(c) for c in coeffs]
            for x in _poly_extrema_candidates(fl, a, b):
                best = max(best, abs(float(poly_eval(fl, x))))
        return best

    def jumps(self):
        """(x, left_limit, right_limit) at every genuine discontinuity."""
        out = []
        for b in self.breakpoints:
            lo = self.one_sided_limit(b, "left")
            hi = self.one_sided_limit(b, "right")
            if lo != hi:
                out.append((b, lo, hi))
        return out

    def derivative_jumps(self):
        """(x, left_slope, right_slope) where the derivative jumps."""
        out = []
        for b in self.breakpoints:
            lo = self.one_sided_derivative(b, "left")
            hi = self.one_sided_derivative(b, "right")
            if lo != hi:
                out.append((b, lo, hi))
        return out

    def support_bounds(self):
        """Outermost breakpoints; beyond them the function is constant."""
        if not self.breakpoints:
            return (0.0, 0.0)
        return (self.breakpoints[0], self.breakpoints[-1])


# ---------------------------------------------------------------------------


class GridFunction:
    """Samples on the uniform grid ``origin + spacing * k``.

    Values beyond the grid continue the edge values; off-node evaluation
    is linear interpolation.
    """

    __slots__ = ("origin", "spacing", "values")

    def __init__(self, origin, spacing, values):
        if spacing <= 0:
            raise ValueError("spacing must be positive")
        self.origin = float(origin)
        self.spacing = float(spacing)
        self.values = np.asarray(values, dtype=float)
        if self.values.ndim != 1 or self.values.size < 2:
            raise ValueError("values must be a 1-d array with >= 2 samples")

    @property
    def count(self) -> int:
        return self.values.size

    @property
    def x_last(self) -> float:
        return self.origin + self.spacing * (self.count - 1)

    def nodes(self) -> np.ndarray:
        return self.origin + self.spacing * np.arange(self.count)

    def same_grid(self, other: "GridFunction") -> bool:
        return (
            self.count == other.count
            and abs(self.origin - other.origin) <= 1e-12 * max(1.0, abs(self.origin))
            and abs(self.spacing - other.spacing) <= 1e-12 * self.spacing
        )

    def _require_same_grid(self, other):
        if not self.same_grid(other):
            raise ValueError("grid mismatch")

    def with_values(self, values) -> "GridFunction":
        return GridFunction(self.origin, self.spacing, values)

    def eval(self, x):
        x = np.asarray(x, dtype=float)
        out = np.interp(x, self.nodes(), self.values)
        return out if out.ndim else float(out)

    def __call__(self, x):
        return self.eval(x)

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))

    def seminorm(self, K: CompactInterval) -> float:
        xs = self.nodes()
        mask = (xs >= K.lo) & (xs <= K.hi)
        cand = [abs(self.eval(K.lo)), abs(self.eval(K.hi))]
        if mask.any():
            cand.append(float(np.max(np.abs(self.values[mask]))))
        return max(cand)

    def __add__(self, other):
        if not isinstance(other, GridFunction):
            return NotImplemented
        self._require_same_grid(other)
        return self.with_values(self.values + other.values)

    def __sub__(self, other):
        if not isinstance(other, GridFunction):
            return NotImplemented
        self._require_same_grid(other)
        return self.with_values(self.values - other.values)

    def __mul__(self, s):
        return self.with_values(self.values * float(s))

    __rmul__ = __mul__

    def to_csv(self, fh) -> None:
        """Write (x, value) rows; comma separated, '.' decimals, header."""
        close = False
        if isinstance(fh, (str, bytes)):
            fh = open(fh, "w")
            close = True
        try:
            fh.write("x,value\n")
            for x, v in zip(self.nodes(), self.values):
                fh.write(f"{x:.17g},{v:.17g}\n")
        finally:
            if close:
                fh.close()


def to_grid(f: PiecewiseFunction, origin, spacing, count) -> GridFunction:
    """Sample a piecewise function on a uniform grid (left-limit values),
    bit for bit ``float(f.eval(x))``: rational breakpoints compare exactly."""
    xs = float(origin) + float(spacing) * np.arange(count)
    floors = [np.nextafter(float(b), -np.inf) if Fraction(float(b)) > b
              else float(b) for b in f.breakpoints]
    vals = _eval_pieces(f, xs, np.searchsorted(floors, xs))
    return GridFunction(origin, spacing, vals)


# ---------------------------------------------------------------------------


class BoundedMeasure:
    """Finite signed measure: atoms plus an optional compact density.

    ``atoms`` is a sequence of ``(location, weight)`` pairs; ``density`` a
    PiecewiseFunction that must vanish on its unbounded pieces.  Pairing
    integrates exactly against piecewise polynomials and against the
    linear interpolant of grid functions.
    """

    def __init__(self, atoms=(), density: PiecewiseFunction | None = None):
        self.atoms = [(loc, w) for loc, w in atoms]
        if density is not None:
            if density.pieces[0][0] != 0 or density.pieces[-1][0] != 0:
                raise ValueError("density must have compact support")
        self.density = density
        self._weight_cache = {}

    @classmethod
    def dirac(cls, location, weight=1) -> "BoundedMeasure":
        return cls(atoms=[(location, weight)])

    def total_variation(self) -> float:
        tv = float(sum(abs(float(w)) for _, w in self.atoms))
        if self.density is not None:
            a, b = self.density.support_bounds()
            tv += self.density.integral_abs(a, b)
        return tv

    def pair(self, f):
        """Integral of f against the measure.

        Exact for PiecewiseFunction arguments (rational in, rational out);
        a GridFunction is paired by :func:`pair_rows`, the density
        integrated exactly against the linear interpolant.
        """
        if isinstance(f, PiecewiseFunction):
            total = 0
            for loc, w in self.atoms:
                total = total + w * f.eval(loc)
            if self.density is not None:
                prod = self.density * f
                a, b = self.density.support_bounds()
                total = total + prod.definite_integral(a, b)
            return total
        if isinstance(f, GridFunction):
            return pair_rows(self, f, f.values[None])[0]
        raise TypeError(f"cannot pair with {type(f).__name__}")

    def _density_weights(self, grid) -> np.ndarray:
        key = (grid.origin, grid.spacing, grid.count)
        w = self._weight_cache.get(key)
        if w is None:
            w = _density_node_weights(self.density, grid)
            self._weight_cache[key] = w
        return w

    def support_points(self):
        pts = [float(loc) for loc, _ in self.atoms]
        if self.density is not None:
            pts.extend(float(b) for b in self.density.breakpoints)
        return pts


def _density_node_weights(density: PiecewiseFunction, grid) -> np.ndarray:
    """W with integral(density * f) == dot(W, f.values), exact, for f the
    linear interpolant of the values on ``grid``: h I0 of each cell's
    :func:`hat_moments` lands on its left node and h I1 on its right one,
    and density mass beyond an edge lands on that edge node."""
    w = np.zeros(grid.count)
    a, b = density.support_bounds()
    dx = grid.spacing
    lo_i = max(0, int(np.floor((a - grid.origin) / dx)))
    hi_i = min(grid.count - 1, int(np.ceil((b - grid.origin) / dx)))
    if hi_i > lo_i:
        i0, i1 = hat_moments(density, grid.origin + lo_i * dx, dx,
                             hi_i - lo_i)
        w[lo_i:hi_i] += dx * i0
        w[lo_i + 1:hi_i + 1] += dx * i1
    if a < grid.origin:
        w[0] += float(density.definite_integral(a, min(b, grid.origin)))
    if b > grid.x_last:
        w[-1] += float(density.definite_integral(max(a, grid.x_last), b))
    return w


def pair_rows(measure: BoundedMeasure, grid, rows) -> np.ndarray:
    """Pairing of the measure with every row of ``rows`` at once.

    Each row holds values on the nodes of ``grid`` (a GridFunction or a
    TranslationSystem).  An atom on a node reads that column; any other
    atom interpolates its two neighbour columns in np.interp's arithmetic
    (the edge column beyond the grid); the density reads the span of its
    nonzero node weights.  No other column is touched, so ``rows`` may be
    a read-only strided view, such as the sliding window of an orbit, and
    is never copied whole.
    """
    out = np.zeros(rows.shape[0])
    for loc, w in measure.atoms:
        x = float(loc)
        pos = (x - grid.origin) / grid.spacing
        i = int(round(pos))
        if abs(pos - i) <= 1e-8 and 0 <= i < grid.count:
            out += float(w) * rows[:, i]
        else:
            out += float(w) * _interp_rows(grid, rows, x)
    if measure.density is not None:
        wts = measure._density_weights(grid)
        nz = np.flatnonzero(wts)
        if nz.size:
            lo, hi = nz[0], nz[-1] + 1
            out += np.ascontiguousarray(rows[:, lo:hi]) @ wts[lo:hi]
    return out


def _interp_rows(grid, rows, x: float):
    """``GridFunction.eval(x)`` of every row, in np.interp's arithmetic."""
    xp = grid.nodes()
    j = int(np.searchsorted(xp, x, side="right")) - 1
    if 0 <= j < len(xp) - 1 and xp[j] != x:
        slope = (rows[:, j + 1] - rows[:, j]) / (xp[j + 1] - xp[j])
        return slope * (x - xp[j]) + rows[:, j]
    return rows[:, max(j, 0)]


def _eval_pieces(f: PiecewiseFunction, xs, piece):
    """``poly_eval`` of piece ``piece[i]`` at ``xs[i]``, one degree at a time."""
    width = max(len(p) for p in f.pieces)
    table = np.array([[0.0] * (width - len(p)) + [float(c) for c in p[::-1]]
                      for p in f.pieces])
    acc = np.zeros(np.shape(xs))
    for k in range(width):
        acc *= xs
        acc += table[piece, k]
    return acc


@functools.cache
def _gauss_rule(points):
    """Read-only Gauss-Legendre (nodes, weights) on [0, 1]."""
    t, w = np.polynomial.legendre.leggauss(points)
    rule = (0.5 * t + 0.5, 0.5 * w)
    for a in rule:
        a.flags.writeable = False
    return rule


def _gauss_panels(lo, width, degree):
    """(points, weights) on the panels [lo, lo + width], node by node, of
    the Gauss-Legendre rule exact for polynomials of that degree."""
    for tj, wj in zip(*_gauss_rule(degree // 2 + 1)):
        yield lo + tj * width, wj * width


def hat_moments(f: PiecewiseFunction, origin, h, n):
    """(I0, I1) on the cells [x_k, x_k + h], x_k = origin + k h, k < n:
    I0[k] = integral over sigma in (0, 1) of (1 - sigma) f(x_k + sigma h),
    I1[k] its sigma-weighted twin.

    Each cell is cut at f's float breakpoints, and each panel gets the
    Gauss-Legendre rule exact for f's degree.  Cuts are held in lattice
    units, cell k and sigma = (b - x_k) / h, so none loses digits to
    |x_k| / h; a panel reads its piece at its start, node or breakpoint.
    """
    xk = origin + h * np.arange(n + 1)
    breaks = np.array([float(b) for b in f.breakpoints])
    # x_k + h and x_{k+1} differ by rounding: a breakpoint by a node may
    # cut the cell on either side of it
    near = np.searchsorted(xk, breaks, side="right") - 1
    cell = np.concatenate([near, near - 1])
    at = np.concatenate([breaks, breaks])
    sig = (at - xk[np.clip(cell, 0, n)]) / h
    inner = (cell >= 0) & (cell < n) & (sig > 0) & (sig < 1)
    order = np.lexsort((sig[inner], cell[inner]))
    cut_cell, cut_sig, cut_at = (v[inner][order] for v in (cell, sig, at))
    # panels in lattice order: each cell's start, then its inner cuts
    cell = np.insert(np.arange(n), cut_cell + 1, cut_cell)
    lo = np.insert(np.zeros(n), cut_cell + 1, cut_sig)
    piece = np.searchsorted(breaks, np.insert(xk[:n], cut_cell + 1, cut_at),
                            side="right")
    width = np.append(lo[1:], 0.0)
    width[width == 0.0] = 1.0  # the next panel starts a new cell
    width -= lo
    x0, i0, i1 = xk[cell], np.zeros(lo.size), np.zeros(lo.size)
    for sigma, wts in _gauss_panels(lo, width, max(len(p) for p in f.pieces)):
        vals = _eval_pieces(f, x0 + h * sigma, piece)
        vals *= wts
        i0 += (1.0 - sigma) * vals
        i1 += sigma * vals
    return np.bincount(cell, i0, n), np.bincount(cell, i1, n)


_DIRECT_CONVOLVE_MAX = 512


def lattice_convolve(a, b, n):
    """First n entries (all, when fewer) of the linear convolution of
    the 1-d arrays a and b.

    Entries past n need no operand entry past n, so both are cut there.
    When the shorter operand has at most 512 entries this is the direct
    ``np.convolve``, whose rounding is causal: entry k reads a[:k+1] and
    b[:k+1] only.  Longer operands go through one power-of-two real FFT
    product, O(L log L) for L = len(a) + len(b) - 1, with rounding that is
    global: about eps * ||a||_1 ||b||_inf on every entry.
    """
    a = np.asarray(a, dtype=float)[:n]
    b = np.asarray(b, dtype=float)[:n]
    if min(a.size, b.size) <= _DIRECT_CONVOLVE_MAX:
        return np.convolve(a, b)[:n]
    full = a.size + b.size - 1
    size = 1 << (full - 1).bit_length()
    spec = np.fft.rfft(a, size)
    spec *= np.fft.rfft(b, size)
    return np.fft.irfft(spec, size)[:min(n, full)]


def sample_sided(f: PiecewiseFunction, xs, snap_tol=0.0):
    """Vectorized (left, mid, right) limit samples of f at the points xs.

    Limits are taken against the float breakpoints ``float(b)``, so at a
    point on one ``left`` is the half-open ``eval`` value.  Points within
    ``snap_tol`` of a breakpoint are treated as exact hits so that
    one-sided limits and the jump midpoint are taken there; this is what
    quadrature rules need when a discontinuity sits on (or within float
    rounding of) a sample lattice.  Away from breakpoints all three
    values coincide with ``f.eval``.
    """
    xs = np.asarray(xs, dtype=float)
    breaks = np.array([float(b) for b in f.breakpoints])
    xeff = xs.copy()
    if snap_tol > 0 and breaks.size:
        j = np.clip(np.searchsorted(breaks, xs), 0, breaks.size - 1)
        for cand in (j, np.maximum(j - 1, 0)):
            b = breaks[cand]
            hit = np.abs(xs - b) <= snap_tol
            xeff = np.where(hit, b, xeff)
    left = _eval_pieces(f, xeff, np.searchsorted(breaks, xeff, side="left"))
    right = _eval_pieces(f, xeff, np.searchsorted(breaks, xeff, side="right"))
    return left, 0.5 * (left + right), right


def sample_lag_kernel(measure: BoundedMeasure, profile: PiecewiseFunction,
                      dt: float, m_steps: int):
    """Sided samples of the renewal kernel k(s) = pairing of profile(. + s).

    Returns (left, mid, right) at the lags s = 0, dt, ..., m_steps dt,
    taking one-sided limits where a shifted profile jump meets an atom.
    The density part, integral of d(x) profile(x + s) dx, is continuous;
    it is :func:`hat_moments`' panel rule on one (lags x panels) table,
    row s cut at d's breakpoints and the profile's, shifted by -s.
    """
    s = dt * np.arange(m_steps + 1)
    left = np.zeros(m_steps + 1)
    mid = np.zeros(m_steps + 1)
    right = np.zeros(m_steps + 1)
    for loc, w in measure.atoms:
        a_l, a_m, a_r = sample_sided(profile, float(loc) + s,
                                     snap_tol=1e-6 * dt)
        left += float(w) * a_l
        mid += float(w) * a_m
        right += float(w) * a_r
    if measure.density is not None:
        d, g = measure.density, profile
        a, b = (float(v) for v in d.support_bounds())
        d_breaks = np.array([float(v) for v in d.breakpoints])
        g_breaks = np.array([float(v) for v in g.breakpoints])
        cuts = np.sort(np.concatenate(
            [np.broadcast_to(d_breaks, (s.size, d_breaks.size)),
             np.clip(g_breaks - s[:, None], a, b)], axis=1), axis=1)
        lo, width = cuts[:, :-1], np.diff(cuts, axis=1)
        mid_x, shift = lo + 0.5 * width, s[:, None]
        d_piece = np.searchsorted(d_breaks, mid_x)
        g_piece = np.searchsorted(g_breaks, mid_x + shift)
        dens = np.zeros(s.size)
        for x, wts in _gauss_panels(lo, width, max(len(p) for p in d.pieces)
                                    + max(len(p) for p in g.pieces) - 2):
            dens += (wts * _eval_pieces(d, x, d_piece)
                     * _eval_pieces(g, x + shift, g_piece)).sum(axis=1)
        left += dens
        mid += dens
        right += dens
    return left, mid, right


# ---------------------------------------------------------------------------
# stock profiles


def tent() -> PiecewiseFunction:
    """The unit tent: x+1 on (-1,0], 1-x on (0,1], zero outside."""
    return PiecewiseFunction([-1, 0, 1], [[0], [1, 1], [1, -1], [0]])


def three_jump_profile() -> PiecewiseFunction:
    """Discontinuous profile x on (-1,0], 2-x on (0,1], zero outside.

    Equals tent() minus its derivative piece-by-piece; jump gaps at
    (-1, 0, 1) are (-1, 2, -1).
    """
    return PiecewiseFunction([-1, 0, 1], [[0], [0, 1], [2, -1], [0]])


# ---------------------------------------------------------------------------
# JSON input


def piecewise_from_dict(d: dict) -> PiecewiseFunction:
    return PiecewiseFunction(d["breakpoints"], d["pieces"])
