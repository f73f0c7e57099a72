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
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, comb, copysign, floor, inf, isfinite, ulp

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
            if any(p[1:]):
                raise ValueError("unbounded pieces must be constant")
        self.breakpoints = breakpoints
        self.pieces = pieces

    @functools.cached_property
    def _floats(self):
        """(i, float coefficients) of the pieces not all +0.0; built once."""
        floats = [[float(c) for c in p] for p in self.pieces]
        return [(i, cs) for i, cs in enumerate(floats)
                if any(cs) or any(copysign(1.0, c) < 0 for c in cs)]

    # -- evaluation ---------------------------------------------------

    def _piece_index(self, x, side="left"):
        if side == "left":
            return bisect_left(self.breakpoints, x)
        return bisect_right(self.breakpoints, x)

    def eval(self, x):
        """Value at x under the half-open convention (left limit at jumps)."""
        return poly_eval(self.pieces[self._piece_index(x)], x)

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
        """The function x -> f(x + dx).  A piece whose two cuts b - dx
        round onto one float owns no point, and is dropped."""
        cuts, pieces = [], [poly_shift(self.pieces[0], dx)]
        for b, p in zip(self.breakpoints, self.pieces[1:]):
            if cuts and b - dx == cuts[-1]:
                pieces.pop()
            else:
                cuts.append(b - dx)
            pieces.append(poly_shift(p, dx))
        return PiecewiseFunction(cuts, pieces)

    # -- norms and jump structure ------------------------------------

    def sup_norm(self) -> float:
        """Exact sup of |f|: the seminorm over the whole line."""
        return self.seminorm(CompactInterval(-np.inf, np.inf))

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
        if not 0.0 < spacing < inf:  # NaN too
            raise ValueError(
                f"spacing must be positive and finite, got {spacing!r}")
        if not isfinite(origin):
            raise ValueError(f"origin must be finite, got {origin!r}")
        self.origin = float(origin)
        self.spacing = float(spacing)
        self.values = np.asarray(values, dtype=float)
        if self.values.ndim != 1 or self.values.size < 2:
            raise ValueError("values must be a 1-d array with >= 2 samples")

    @property
    def count(self) -> int:
        return self.values.size

    def nodes(self) -> np.ndarray:
        return _grid_nodes(self.origin, self.spacing, self.count)

    def same_grid(self, other) -> bool:
        """Whether the grid function or system ``other`` has this grid."""
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

    def seminorm(self, K: CompactInterval) -> float:
        return float(seminorm_rows(self, self.values[None], K)[0])

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

    def to_csv(self, fh) -> None:
        """Write (x, value) rows to the open text handle ``fh``; comma
        separated, '.' decimals, header."""
        fh.write("x,value\n")
        for x, v in zip(self.nodes(), self.values):
            fh.write(f"{x:.17g},{v:.17g}\n")


def _grid_nodes(origin, spacing, count) -> np.ndarray:
    """The read-only nodes origin + spacing * k, k < count."""
    xs = float(origin) + float(spacing) * np.arange(count)
    xs.flags.writeable = False
    return xs


def to_grid(f: PiecewiseFunction, origin, spacing, count) -> GridFunction:
    """Sample a piecewise function on the grid origin + spacing * k,
    k < count (left-limit values), bit for bit ``float(f.eval(x))``:
    rational breakpoints compare exactly."""
    # the nodes are finite whenever origin and spacing are
    return GridFunction(origin, spacing,
                        _sample_nodes(f, _grid_nodes(origin, spacing, count)))


def _sample_nodes(f: PiecewiseFunction, xs, shift=None) -> np.ndarray:
    """``to_grid``'s values at the sorted finite nodes xs: one search of
    the breakpoint floors in them gives the run of nodes each piece owns,
    evaluated on its slice.  A ``shift`` t gives ``f.translate(t)``'s
    bits with no function built (0.0 too, which rounds exact cuts)."""
    cuts = f.breakpoints if shift is None else [b - shift
                                                for b in f.breakpoints]
    # a float breakpoint is its own floor; an exact one may round up
    floors = [b if isinstance(b, float)
              else np.nextafter(float(b), -np.inf) if Fraction(float(b)) > b
              else float(b) for b in cuts]
    # piece i owns the nodes x with floors[i - 1] < x <= floors[i]
    ends = [0, *np.searchsorted(xs, floors, side="right").tolist(), xs.size]
    runs = [slice(a, b) for a, b in zip(ends, ends[1:])]
    # poly_shift leaves a constant piece's float as it is, and a shifted
    # piece of +0.0 alone writes the +0.0 its nodes start at
    floats = f._floats if shift is None else [
        (i, cs) for i, cs in f._floats if len(cs) == 1] + [
        (i, [float(c) for c in poly_shift(p, shift)]) for i, (p, run) in
        enumerate(zip(f.pieces, runs)) if len(p) > 1 and run.stop > run.start]
    return _horner_pieces(floats, xs, runs)


# ---------------------------------------------------------------------------


class BoundedMeasure:
    """Finite signed measure: atoms plus an optional compact density.

    ``atoms`` is a sequence of ``(location, weight)`` pairs; ``density`` a
    PiecewiseFunction that must vanish on its unbounded pieces.  Pairing
    integrates exactly against piecewise polynomials and against the
    linear interpolant of grid functions.  Atoms and density data that
    are not finite are refused by a ValueError.
    """

    def __init__(self, atoms=(), density: PiecewiseFunction | None = None):
        self.atoms = [(loc, w) for loc, w in atoms]
        for i, (loc, w) in enumerate(self.atoms):
            if not (isfinite(loc) and isfinite(w)):
                raise ValueError(f"atom {i} ({loc!r}, {w!r}) is not finite")
        if density is not None:
            if density.pieces[0][0] != 0 or density.pieces[-1][0] != 0:
                raise ValueError("density must have compact support")
            if not all(map(isfinite, sum(density.pieces,
                                         density.breakpoints))):
                raise ValueError("density breakpoints and coefficients "
                                 "must be finite")
        self.density = density

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
            total = Fraction(0)  # an empty sum stays rational too
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
    x_last = grid.origin + dx * (grid.count - 1)
    if b > x_last:
        w[-1] += float(density.definite_integral(max(a, x_last), b))
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
    return _pair_reads(
        measure, grid, rows.shape[0], lambda i: rows[:, i],
        lambda lo, wts: np.ascontiguousarray(rows[:, lo:lo + wts.size]) @ wts)


def pair_shifts(measure: BoundedMeasure, grid, values, n, start=0,
                fill=0.0) -> np.ndarray:
    """``pair_rows`` of the n rows v(k + s), s = 0..n-1, k the nodes of
    ``grid``, with v(z) = values[z - start] on [start, start +
    len(values)), 0 below and ``fill`` above: the rows of an orbit
    (start 0, fill the edge value) or of a lattice's shifts, never
    built.  An atom reads one slice of v (two off the lattice), the
    density one correlation of its node weights with v."""
    def column(i):
        return _extended(values, i, n, start, fill)

    def weighted(lo, wts):
        span = wts.size - 1
        return KeptOperand(wts[::-1]).times(
            _extended(values, lo, span + n, start, fill), span + n)[span:]

    return _pair_reads(measure, grid, n, column, weighted)


def _pair_reads(measure: BoundedMeasure, grid, n, column, weighted):
    """The one pairing rule of :func:`pair_rows`, over n rows read by
    ``column(i)``, the n entries of column i, and ``weighted(lo, wts)``,
    the n sums of wts[k] times column lo + k."""
    out = np.zeros(n)
    for loc, w in measure.atoms:
        x = float(loc)
        pos = (x - grid.origin) / grid.spacing
        i = int(round(pos))
        if abs(pos - i) <= 1e-8 and 0 <= i < grid.count:
            out += float(w) * column(i)
        else:
            out += float(w) * _interp_columns(grid, column, x)
    if measure.density is not None:
        wts = _density_node_weights(measure.density, grid)
        nz = np.flatnonzero(wts)
        if nz.size:
            out += weighted(nz[0], wts[nz[0]:nz[-1] + 1])
    return out


def _extended(values, lo, size, start=0, fill=0.0) -> np.ndarray:
    """v(z), z = lo..lo+size-1, for v(z) = values[z - start] on [start,
    start + len(values)), 0 below and ``fill`` above."""
    i = lo - start
    head = min(max(-i, 0), size)
    body = values[max(i, 0):max(i + size, 0)]
    return np.concatenate([np.zeros(head), body,
                           np.full(size - head - body.size, fill)])


def seminorm_rows(grid, rows, K: CompactInterval) -> np.ndarray:
    """``GridFunction.seminorm(K)`` of every row of ``rows`` at once: the
    largest |value| over the nodes in K and the interpolated values at
    its two ends."""
    def column(i):
        return rows[:, i]

    xs = grid.nodes()
    inside = np.flatnonzero((xs >= K.lo) & (xs <= K.hi))
    out = np.maximum(np.abs(_interp_columns(grid, column, K.lo)),
                     np.abs(_interp_columns(grid, column, K.hi)))
    if inside.size:
        out = np.maximum(out, np.max(
            np.abs(rows[:, inside[0]:inside[-1] + 1]), axis=1))
    return out


def _interp_columns(grid, column, x: float):
    """``GridFunction.eval(x)`` of every row, read by ``column(i)``, in
    np.interp's arithmetic."""
    xp = grid.nodes()
    j = int(np.searchsorted(xp, x, side="right")) - 1
    if 0 <= j < len(xp) - 1 and xp[j] != x:
        left = column(j)
        slope = (column(j + 1) - left) / (xp[j + 1] - xp[j])
        return slope * (x - xp[j]) + left
    return column(max(j, 0))


def _eval_pieces(f: PiecewiseFunction, xs, piece):
    """``poly_eval`` of piece ``piece[i]`` at ``xs[i]`` (any shape): the
    ``_horner_pieces`` of finite points.  A point at +-inf reads its
    piece's constant (the end pieces are constant), and a NaN point reads
    NaN."""
    if np.isfinite(xs).all():
        return _horner_pieces(f._floats, xs, piece)
    bad = ~np.isfinite(xs)
    out = _horner_pieces(f._floats, np.where(bad, 0.0, xs), piece)
    constants = np.array([np.nan if any(p[1:]) else float(p[0])
                          for p in f.pieces])
    out[bad] = np.where(np.isnan(xs[bad]), np.nan, constants[piece[bad]])
    return out


def _horner_pieces(floats, xs, piece):
    """``poly_eval`` of piece ``piece[i]`` at the finite point ``xs[i]``,
    or of piece i at ``xs[piece[i]]`` for a list, for the (i, float
    coefficients) in ``floats``: Horner once per piece, the coefficients
    as scalars, over the points it owns.  The output starts at +0.0, as a
    zero-padded table's leading zero steps leave it."""
    out = np.zeros(np.shape(xs))
    for i, cs in floats:
        own = piece[i] if isinstance(piece, list) else piece == i
        x = xs[own]
        # a slice of out is a view of it, so Horner runs in place there
        acc = out[own] if isinstance(own, slice) else np.empty_like(x)
        np.multiply(0.0, x, out=acc)
        acc += cs[-1]
        for c in cs[-2::-1]:
            acc *= x
            acc += c
        out[own] = acc  # on a slice, acc onto itself
    return out


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
    The rule runs on whole cells first, over the run of cells whose start
    each piece owns (slices, as in :func:`to_grid`); panels are built
    only for the few cells a breakpoint cuts (about two per breakpoint),
    whose moments are then taken again.  Every cell gets the bits of one
    panel list over the whole lattice, summed back cell by cell.  The
    arrays are read-only, so a caller may keep them.
    """
    xk = _grid_nodes(origin, h, n + 1)
    breaks = np.array([float(b) for b in f.breakpoints])
    degree = max(len(p) for p in f.pieces)
    # whole cells first: piece i owns the cells whose start x_k lies in
    # [breaks[i - 1], breaks[i]), the piece a cell's first panel reads
    ends = [0, *np.searchsorted(xk[:n], breaks).tolist(), n]
    runs = [slice(a, b) for a, b in zip(ends, ends[1:])]
    i0, i1 = np.zeros(n), np.zeros(n)
    for sigma, wts in _gauss_panels(0.0, 1.0, degree):
        vals = _horner_pieces(f._floats, xk[:n] + h * sigma, runs)
        vals *= wts
        i0 += (1.0 - sigma) * vals
        i1 += sigma * vals
    # x_k + h and x_{k+1} differ by rounding: a breakpoint by a node may
    # cut the cell on either side of it
    near = np.searchsorted(xk, breaks, side="right") - 1
    cell = np.concatenate([near, near - 1])
    at = np.concatenate([breaks, breaks])
    sig = (at - xk[np.maximum(cell, 0)]) / h
    inner = (cell >= 0) & (cell < n) & (sig > 0) & (sig < 1)
    # the cut cells again, as panels in lattice order: each cell's start,
    # then its inner cuts; the sort is stable, so ties keep their order
    cells = np.unique(cell[inner])
    slot = np.concatenate([cells, cell[inner]])
    lo = np.concatenate([np.zeros(cells.size), sig[inner]])
    order = np.lexsort((lo, slot))
    slot, lo = np.searchsorted(cells, slot[order]), lo[order]
    piece = np.searchsorted(
        breaks, np.concatenate([xk[cells], at[inner]])[order], side="right")
    end = np.concatenate([lo[1:], lo[:1]])  # the next panel's start
    end[end == 0.0] = 1.0  # the next panel starts a new cell
    width = end - lo
    x0, p0, p1 = xk[cells][slot], np.zeros(lo.size), np.zeros(lo.size)
    for sigma, wts in _gauss_panels(lo, width, degree):
        vals = _eval_pieces(f, x0 + h * sigma, piece)
        vals *= wts
        p0 += (1.0 - sigma) * vals
        p1 += sigma * vals
    i0[cells] = np.bincount(slot, p0, cells.size)
    i1[cells] = np.bincount(slot, p1, cells.size)
    for a in (i0, i1):
        a.flags.writeable = False
    return i0, i1


def support_cells(f: PiecewiseFunction, origin: float, h: float, n: int):
    """Cells [lo, hi) of the lattice origin + x h, 0 <= x < n, outside
    which f vanishes: each outer breakpoint bounds its side when the end
    piece beyond it is zero, padded by one cell, so every node outside
    (lo, hi), and each one-sided limit there, is zero.  Always
    0 <= lo <= hi <= n, so [lo, hi) slices the lattice; empty (lo == hi)
    when f vanishes on the whole lattice."""
    a, b = f.support_bounds()
    lo, hi = 0, n
    if not any(f.pieces[0]):
        lo = min(max(floor((float(a) - origin) / h) - 1, 0), n)
    if not any(f.pieces[-1]):
        hi = min(ceil((float(b) - origin) / h) + 1, n)
    return lo, max(hi, lo)


def _smooth_numbers(limit):
    """Every 5-smooth number 2^a 3^b 5^c below limit, ascending."""
    out = []
    p5 = 1
    while p5 < limit:
        p35 = p5
        while p35 < limit:
            out.extend(p35 << a
                       for a in range(((limit - 1) // p35).bit_length()))
            p35 *= 3
        p5 *= 5
    return sorted(out)


# the FFT lengths up to 2^40, past any array that fits in memory
_FFT_LENGTHS = _smooth_numbers((1 << 40) + 1)


def _fft_length(n: int) -> int:
    """The smallest 5-smooth number 2^a 3^b 5^c >= n, 1 <= n <= 2^40."""
    return _FFT_LENGTHS[bisect_left(_FFT_LENGTHS, n)]


_Spectrum = namedtuple("_Spectrum", ["size", "values"])


def _spectrum(a, size) -> _Spectrum:
    """The read-only real FFT of the operand a, zero-padded to ``size``:
    an operand that many products share is transformed once."""
    values = np.fft.rfft(a, size)
    values.flags.writeable = False
    return _Spectrum(size, values)


def _spectrum_product(spec: _Spectrum, b) -> np.ndarray:
    """The circular convolution, of length ``spec.size``, of the operand
    of ``spec`` with b zero-padded to that length: the linear product
    wherever the two operands' lengths sum to at most ``spec.size`` + 1."""
    prod = np.fft.rfft(b, spec.size)
    np.multiply(spec.values, prod, out=prod)
    return np.fft.irfft(prod, spec.size)


def lattice_convolve(a, b, n):
    """First n entries (all, when fewer) of the linear convolution of
    the 1-d arrays a and b: the direct ``np.convolve`` of both cut to n,
    since entries past n read no operand entry past n.  Its rounding is
    causal: entry k reads a[:k+1] and b[:k+1] only."""
    return np.convolve(a[:n], b[:n])[:n]


class KeptOperand:
    """Read-only values c that many products phi * c share.

    ``times`` takes the direct :func:`lattice_convolve` while c has at
    most 512 entries or phi at most 128, where transforms cost more than
    they save.  Past both it is one real FFT product at the product's
    5-smooth length, the least 2^a 3^b 5^c >= len(phi) + len(c) - 1,
    against the spectrum of c at that length, taken on the length's
    first use and kept.  Its rounding is global, about
    eps ||phi||_1 ||c||_inf on every entry, where the direct one is causal.
    """

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)
        self.values.flags.writeable = False
        self._spectra = {}

    def times(self, phi, n=None):
        """The first n entries (all, when None or fewer) of phi * c."""
        c = self.values
        full = len(phi) + c.size - 1
        n = full if n is None else min(n, full)
        if c.size <= 512 or len(phi) <= 128:
            return lattice_convolve(phi, c, n)
        size = _fft_length(full)
        if size not in self._spectra:
            self._spectra[size] = _spectrum(c, size)
        return _spectrum_product(self._spectra[size], phi)[:n]


# a rank-one reconstruction (reconstruction_nodes): the operand c of the
# lattice cells from lo on and its two end corrections
Reconstruction = namedtuple("Reconstruction",
                            ["lo", "operand", "first", "last", "shift"])


def reconstruction_nodes(phi, rec: Reconstruction, count):
    """Grid node values of the rank-one weights phi, m = len(phi) - 1.

    Entry e of phi * c, less phi[0] first[e] and phi[m] last[e - m -
    shift] where those exist, is node lo - m + e.  Returns (k0, values),
    the nodes from k0 = max(lo - m, 0) on, cut at the ``count`` grid
    nodes; all other nodes, and all nodes when m = 0, are zero.
    """
    m = len(phi) - 1
    start = rec.lo - m
    k0 = max(start, 0)
    end = min(start + m + rec.operand.values.size, count)
    if m == 0 or end <= k0:
        return k0, np.zeros(0)
    series = rec.operand.times(phi, end - start)
    head = series[:rec.first.size]
    head -= phi[0] * rec.first[:head.size]
    tail = series[m + rec.shift:]
    tail -= phi[m] * rec.last[:tail.size]
    return k0, series[k0 - start:]


def sample_sided(f: PiecewiseFunction, xs, snap_tol=0.0):
    """Vectorized (left, mid, right) limit samples of f at the points xs.

    Limits are taken against the float breakpoints ``float(b)``, so at a
    point on one ``left`` is the half-open ``eval`` value.  Points within
    ``snap_tol`` of a breakpoint are treated as exact hits so that
    one-sided limits and the jump midpoint are taken there; this is what
    quadrature rules need when a discontinuity sits on (or within float
    rounding of) a sample lattice.  Away from breakpoints all three
    values coincide with ``f.eval``.  A point snaps to its left neighbour
    when two breakpoints are in reach.  One search of the points in the
    intervals b +- w around the breakpoints b, w a little over snap_tol,
    gives the piece of every point outside them; only the points inside
    are snapped, searched again, and evaluated apart, ``left`` included.
    """
    xs = np.asarray(xs, dtype=float)
    flat = xs.reshape(-1)
    breaks = [float(b) for b in f.breakpoints]
    # w: twice snap_tol and four ulps, so no rounding of |x - b| <= snap_tol
    # puts a point in reach outside its interval b +- w
    w = 2.0 * snap_tol + 4.0 * max(map(ulp, breaks), default=0.0)
    edges = []  # the intervals b +- w, overlapping ones merged
    for b in breaks:
        if edges and b - w <= edges[-1]:
            edges[-1] = b + w
        else:
            edges += [b - w, b + w]
    pos = np.searchsorted(edges, flat, side="right")
    near = np.flatnonzero(pos & 1)  # inside an interval
    breaks = np.array(breaks)
    if len(edges) == 2 * breaks.size:
        # outside the intervals, the pos // 2 intervals passed are the piece
        piece = np.right_shift(pos, 1, out=pos)
    else:
        piece = np.searchsorted(breaks, flat, side="right")
    x0 = xn = flat[near]
    first = np.searchsorted(breaks, x0)
    if snap_tol > 0:
        j = np.minimum(first, breaks.size - 1)
        for cand in (j, np.maximum(j - 1, 0)):
            b = breaks[cand]
            xn = np.where(np.abs(x0 - b) <= snap_tol, b, xn)
        first = np.searchsorted(breaks, xn)
    last = np.searchsorted(breaks, xn, side="right")
    piece[near] = last
    on = first != last  # on a breakpoint: the limits differ only there
    # one evaluation: every point at its piece, then the left limits there
    pts = np.concatenate([flat, xn[on]])
    pts[near] = xn
    vals = _eval_pieces(f, pts, np.concatenate([piece, first[on]]))
    right = vals[:flat.size].reshape(xs.shape)
    left = right.copy()
    left.reshape(-1)[near[on]] = vals[flat.size:]
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
    sided = np.zeros((3, m_steps + 1))  # left, mid, right
    for loc, w in measure.atoms:
        sided += float(w) * np.array(sample_sided(profile, float(loc) + s,
                                                  snap_tol=1e-6 * dt))
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
        sided += dens
    return tuple(sided)


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
