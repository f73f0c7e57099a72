"""Exact rational references for the library's quadratures.

They share no code path with ``functions.hat_moments`` or the density
branch of ``functions.sample_lag_kernel``: every integral here is a
``PiecewiseFunction`` product integrated in closed form, so with
``Fraction`` data the results are exact.
"""

from __future__ import annotations

from fractions import Fraction

from semiperturb.functions import BoundedMeasure, PiecewiseFunction


def kernel(measure: BoundedMeasure, profile: PiecewiseFunction,
           s, side: str = "left"):
    """Pairing of the shifted profile: the renewal kernel at lag s.

    Exact piecewise evaluation (rational in, rational out); ``side``
    selects the one-sided limit taken at profile jumps, with "mid" the
    jump midpoint that trapezoid stepping wants at interior lattice hits.
    """
    total = 0
    for loc, w in measure.atoms:
        x = loc + s
        if side == "mid":
            val = (profile.one_sided_limit(x, "left")
                   + profile.one_sided_limit(x, "right")) / 2
        else:
            val = profile.one_sided_limit(x, side)
        total = total + w * val
    if measure.density is not None:
        total = total + (measure.density * profile.translate(s)
                         ).definite_integral(*measure.density.support_bounds())
    return total


def hat_moments_exact(f: PiecewiseFunction, origin, h, n):
    """(I0, I1) of ``functions.hat_moments`` as exact rationals.

    Cell k is [x_k, x_k + h] with x_k = origin + k h taken in float
    arithmetic, as the library's grids take it, then read exactly.  Each
    cell integrates the product of f with its rising hat
    (x - x_k) / h, one ``PiecewiseFunction`` product per cell.
    """
    h_q = Fraction(float(h))
    i0, i1 = [], []
    for k in range(n):
        x0 = Fraction(float(origin) + float(h) * k)
        x1 = x0 + h_q
        up = PiecewiseFunction([x0, x1], [[0], [-x0 / h_q, 1 / h_q], [0]])
        cell = f.definite_integral(x0, x1) / h_q
        rise = (f * up).definite_integral(x0, x1) / h_q
        i0.append(cell - rise)
        i1.append(rise)
    return i0, i1
