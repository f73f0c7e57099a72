"""References for the library's quadratures and its renewal solve.

The quadrature references share no code path with
``functions.hat_moments`` or the density branch of
``functions.sample_lag_kernel``: every integral here is a
``PiecewiseFunction`` product integrated in closed form, so with
``Fraction`` data the results are exact.  The renewal reference solves
the oracle's implicit-trapezoid system by plain forward substitution,
one step at a time, on the library's kernel samples, and the
reconstruction reference rebuilds the oracle's state from its weights
over the whole grid, with one product per hat moment.  The point-by-point
samplers are the library's earlier ``_eval_pieces``, ``to_grid`` and
``sample_sided``, kept verbatim but for the rule at +-inf and NaN
points, with the uncut comparison table built on them: the
piece-by-piece samplers must match them bit for bit, and the prefix
moments of ``comparison_curve`` the table to rounding.  The one-operand
matrix scan and the stacked B F product
are the library's earlier forms, kept verbatim: its prepared step must
scan bit for bit as the first does, and its one 2-D product must match
the second to rounding.  The stacked variation-of-parameters residual is
the library's earlier route, a list of rows stacked into the S table and
a whole copied orbit table for T(t) x: the one-table route must give the
same residual.  The per-row shift is the translation system's earlier
``shift_values``, kept verbatim: every row of ``orbit_rows`` must equal
it.  The matrix lattice solve is the truncation-only reference of the
matrix series: it solves S = T + V S on the lattice step by step, so the
Neumann table may differ from it only by the omitted tail and rounding.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from semiperturb.errors import StepSizeError
from semiperturb.functions import (
    BoundedMeasure,
    GridFunction,
    PiecewiseFunction,
    _eval_pieces,
    _gauss_panels,
    hat_moments,
    lattice_convolve,
    sample_lag_kernel,
)
from semiperturb.perturbation import (
    VectorTrajectory,
    _element_diff_norm,
    volterra_apply,
)
from semiperturb.semigroup import TranslationSystem, lattice_orbit
from semiperturb.transport import oracle_weights


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


def hat_moments_by_panels(f: PiecewiseFunction, origin, h, n):
    """``functions.hat_moments`` with every cell cut into panels: each
    cell's start, then its inner cuts at f's breakpoints, one panel
    list over the whole lattice, summed back per cell by ``bincount``."""
    xk = origin + h * np.arange(n + 1)
    breaks = np.array([float(b) for b in f.breakpoints])
    near = np.searchsorted(xk, breaks, side="right") - 1
    cell = np.concatenate([near, near - 1])
    at = np.concatenate([breaks, breaks])
    sig = (at - xk[np.clip(cell, 0, n)]) / h
    inner = (cell >= 0) & (cell < n) & (sig > 0) & (sig < 1)
    order = np.lexsort((sig[inner], cell[inner]))
    cut_cell, cut_sig, cut_at = (v[inner][order] for v in (cell, sig, at))
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


def renewal_forward_substitution(measure: BoundedMeasure,
                                 profile: PiecewiseFunction,
                                 u0: PiecewiseFunction, t: float, dt: float):
    """``transport.oracle_weights`` step by step: phi[m] from phi[:m] by
    one dot product, O(m^2) in all; rounding is causal by construction."""
    m_steps = int(round(t / dt))
    k_left, k_mid, k_right = sample_lag_kernel(measure, profile, dt,
                                                m_steps)
    diag = 1.0 - 0.5 * dt * k_right[0]
    if diag <= 0:
        raise StepSizeError(f"implicit diagonal {diag:.3e} <= 0")
    free = sample_lag_kernel(measure, u0, dt, m_steps)[0]
    phi = np.empty(m_steps + 1)
    phi[0] = free[0]
    for m in range(1, m_steps + 1):
        acc = 0.5 * phi[0] * k_left[m]
        if m > 1:
            acc += float(np.dot(phi[1:m], k_mid[m - 1:0:-1]))
        phi[m] = (free[m] + dt * acc) / diag
    return phi


def oracle_reconstruction_two_products(profile: PiecewiseFunction,
                                       u0: PiecewiseFunction, system,
                                       t: float, phi):
    """``transport.oracle_solution`` values from the weights phi, on every
    cell of the grid: the exact free sample plus dt times the products of
    phi[1:] with I0 and of phi[:m] with I1, the profile's hat moments on
    all count + m - 1 cells, read at node k from entry k + m - 1."""
    dt = system.spacing
    m = len(phi) - 1
    vals = system.sample(u0.translate(t)).values.copy()
    if m > 0:
        n = system.count + m - 1
        i0, i1 = hat_moments(profile, system.origin, dt, n)
        vals += dt * (lattice_convolve(i0, phi[1:], n)[m - 1:]
                      + lattice_convolve(i1, phi[:m], n)[m - 1:])
    return vals


def eval_pieces_by_point(f: PiecewiseFunction, xs, piece):
    """``poly_eval`` of piece ``piece[i]`` at ``xs[i]``: Horner over a
    zero-padded (pieces x degree) float table, gathered point by point.
    A point at +-inf reads the constant of a constant piece (NaN on any
    other piece), and a NaN point reads NaN."""
    width = max(len(p) for p in f.pieces)
    table = np.array([[0.0] * (width - len(p)) + [float(c) for c in p[::-1]]
                      for p in f.pieces])
    inf = np.isinf(xs)
    x = np.where(inf, 0.0, xs)
    acc = np.zeros(np.shape(xs))
    for k in range(width):
        acc *= x
        acc += table[piece, k]
    constant = ~table[:, :-1].any(axis=1)
    at_inf = np.where(constant[piece], table[piece, -1], np.nan)
    return np.where(inf, at_inf, acc)


def to_grid_by_point(f: PiecewiseFunction, origin, spacing, count):
    """``functions.to_grid`` with one piece search per node."""
    xs = float(origin) + float(spacing) * np.arange(count)
    floors = [b if isinstance(b, float)
              else np.nextafter(float(b), -np.inf) if Fraction(float(b)) > b
              else float(b) for b in f.breakpoints]
    vals = eval_pieces_by_point(f, xs, np.searchsorted(floors, xs))
    return GridFunction(origin, spacing, vals)


def sample_sided_by_point(f: PiecewiseFunction, xs, snap_tol=0.0):
    """``functions.sample_sided`` with both limits evaluated at every
    point: a point within snap_tol of a breakpoint moves onto it, the
    left neighbour winning over the right one."""
    xs = np.asarray(xs, dtype=float)
    breaks = np.array([float(b) for b in f.breakpoints])
    xeff = xs.copy()
    if snap_tol > 0 and breaks.size:
        j = np.clip(np.searchsorted(breaks, xs), 0, breaks.size - 1)
        for cand in (j, np.maximum(j - 1, 0)):
            b = breaks[cand]
            hit = np.abs(xs - b) <= snap_tol
            xeff = np.where(hit, b, xeff)
    left = eval_pieces_by_point(
        f, xeff, np.searchsorted(breaks, xeff, side="left"))
    right = eval_pieces_by_point(
        f, xeff, np.searchsorted(breaks, xeff, side="right"))
    return left, 0.5 * (left + right), right


def comparison_curve_uncut(problem, t_values) -> dict:
    """``transport.comparison_curve``'s constants from the profile's mid
    samples on the whole 129 x 601 lag-by-point table for every t, with
    its own max and max/min ratio: no code shared with the summary of
    ``perturbation.comparison_constants``."""
    lo, hi = float(problem.window.lo), float(problem.window.hi)
    xs = np.linspace(lo, hi, 601)
    rows = []
    for t in t_values:
        dt = t / 128
        phi = oracle_weights(problem.measure, problem.profile,
                             problem.initial, t, dt)
        lags = dt * np.arange(len(phi) - 1, -1, -1)
        _, g, _ = sample_sided_by_point(problem.profile, xs + lags[:, None],
                                        snap_tol=1e-9 * dt)
        phi[[0, -1]] *= 0.5
        worst = float(np.max(np.abs(phi @ g))) * dt
        rows.append({"t": float(t), "constant": worst / t})
    consts = sorted(r["constant"] for r in rows)
    pos = [c for c in consts if c > 0]
    top = consts[-1] if consts else 0.0
    return {"rows": rows, "constant": top,
            "stability_ratio": top / pos[0] if pos else float("inf")}


def lattice_scan_one_operand(E: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``semigroup.lattice_scan`` squaring E^T itself on every call."""
    m1, n = np.shape(b)[:2]
    cols = np.asarray(b, dtype=float).reshape(m1, n, -1)
    cols = cols.transpose(0, 2, 1).copy()
    k = cols.shape[1]
    flat, power, s = cols.reshape(m1 * k, n), E.T, 1
    while s < m1:
        flat[s * k:] += flat[:-s * k] @ power
        s *= 2
        if s < m1:
            power = power @ power
    return cols.transpose(0, 2, 1).reshape(np.shape(b))


def shift_values(values: np.ndarray, k: int) -> np.ndarray:
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


def matrix_lattice_solve(E: np.ndarray, B: np.ndarray, m: int,
                         dt: float) -> np.ndarray:
    """The exact lattice solution S[0..m] of S = T + V S on R^n, V the
    trapezoid ``perturbation._volterra_matrix`` and E = T(dt): S[0] = I
    and (I - dt B / 2) S[j] = E^j + dt E C[j-1], with C[0] = B / 2 and
    C[j] = E C[j-1] + B S[j]."""
    n = len(E)
    eye = np.eye(n)
    lhs = eye - 0.5 * dt * B
    S = np.empty((m + 1, n, n))
    S[0] = eye
    power, C = eye, 0.5 * B
    for j in range(1, m + 1):
        power = E @ power
        S[j] = np.linalg.solve(lhs, power + dt * (E @ C))
        C = E @ C + B @ S[j]
    return S


def volterra_matrix_stacked(step, B, nodes, dt) -> np.ndarray:
    """``perturbation._volterra_matrix`` with B F as m + 1 stacked products
    B @ F[q] and the scan above."""
    BF = B @ nodes.reshape(len(nodes), len(B), -1)
    forcing = BF.copy()
    forcing[0] *= 0.5
    return (dt * (lattice_scan_one_operand(step, forcing) - 0.5 * BF)
            ).reshape(nodes.shape)


def varpar_residual_stacked(system, op, S_fn, t, x, dt) -> float:
    """``perturbation.varpar_residual`` stacking a list of the rows S_fn(r)
    and reading T(t) x off a copy of the whole orbit table."""
    m = int(round(t / dt))
    rows = []
    for j in range(m + 1):
        e = S_fn(j * dt)
        rows.append(e.values if isinstance(e, GridFunction)
                    else np.asarray(e, dtype=float))
    traj = VectorTrajectory(system, dt, np.array(rows))
    integral = volterra_apply(system, op, traj, t)
    vals = system.state_values(x)
    if isinstance(system, TranslationSystem):
        orbit = system.orbit_rows(vals, m, dt).copy()
    else:
        orbit = lattice_orbit(system.propagator(dt), vals, m)
    free = VectorTrajectory(system, dt, orbit)
    return _element_diff_norm(system, traj.node(m), free.node(m) + integral)
