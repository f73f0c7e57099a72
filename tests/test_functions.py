from __future__ import annotations

import io
import json
import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

from exact_reference import hat_moments_exact, kernel
from semiperturb import functions
from semiperturb.functions import (
    BoundedMeasure,
    CompactInterval,
    GridFunction,
    PiecewiseFunction,
    hat_moments,
    lattice_convolve,
    pair_rows,
    piecewise_from_dict,
    poly_eval,
    sample_lag_kernel,
    sample_sided,
    tent,
    three_jump_profile,
    to_grid,
)


def test_eval_half_open_convention():
    g = three_jump_profile()
    assert g.eval(-0.5) == -0.5
    assert g.eval(0.5) == 1.5
    assert g.eval(2.0) == 0.0
    # value at a jump is the left limit
    assert g.eval(0.0) == 0.0
    assert g.one_sided_limit(0.0, "right") == 2.0


def test_sup_norm_includes_one_sided_limits():
    assert tent().sup_norm() == 1.0
    # max of |g| is approached from the right of 0, never attained
    assert three_jump_profile().sup_norm() == 2.0


def test_sup_norm_interior_critical_point():
    # -(x-1)(x+1) on (-1, 1], peak 1 at x = 0
    f = PiecewiseFunction([-1, 1], [[0], [1, 0, -1], [0]])
    assert f.sup_norm() == pytest.approx(1.0, abs=1e-14)


def test_seminorm_respects_half_open_pieces():
    g = three_jump_profile()
    K = CompactInterval(-2.0, -1.0)
    assert g.seminorm(K) == 0.0
    assert g.seminorm(CompactInterval(-1.0, 0.0)) == 1.0
    assert g.seminorm(CompactInterval(0.0, 0.25)) == 2.0


def test_seminorm_dominated_by_sup_norm():
    rng = np.random.default_rng(7)
    for _ in range(20):
        cuts = np.sort(rng.uniform(-3, 3, size=3))
        pieces = [[0]] + [list(rng.uniform(-2, 2, size=3)) for _ in range(3)] + [[0]]
        f = PiecewiseFunction(list(cuts) + [4.0], pieces)
        lo, hi = np.sort(rng.uniform(-4, 4, size=2))
        K = CompactInterval(float(lo), float(hi))
        assert f.seminorm(K) <= f.sup_norm() + 1e-12


def test_one_sided_derivatives_of_tent():
    h = tent()
    assert h.one_sided_derivative(0.0, "left") == 1.0
    assert h.one_sided_derivative(0.0, "right") == -1.0
    assert h.one_sided_derivative(5.0, "left") == 0.0


def test_profile_is_tent_minus_derivative():
    h, g = tent(), three_jump_profile()
    diff = h - h.derivative()
    assert diff.breakpoints == g.breakpoints
    for a, b in zip(diff.pieces, g.pieces):
        n = max(len(a), len(b))
        assert [*a, *([0] * (n - len(a)))] == [*b, *([0] * (n - len(b)))]


def test_jump_gaps_of_profile():
    gaps = [(x, hi - lo) for x, lo, hi in three_jump_profile().jumps()]
    assert gaps == [(-1, -1), (0, 2), (1, -1)]


def test_derivative_jumps_of_tent_match_profile_gaps():
    dj = [(x, hi - lo) for x, lo, hi in tent().derivative_jumps()]
    assert dj == [(-1, 1), (0, -2), (1, 1)]


def test_definite_integral_exact():
    h = tent()
    assert h.definite_integral(-1, 1) == 1.0
    assert h.definite_integral(-5, 5) == 1.0
    g = three_jump_profile()
    # int_{-1}^0 x dx + int_0^1 (2-x) dx = -1/2 + 3/2
    assert g.definite_integral(-1, 1) == 1.0
    assert g.definite_integral(0.25, 0.75) == pytest.approx(0.75, abs=1e-15)


def test_integral_abs_splits_sign_changes():
    g = three_jump_profile()
    assert g.integral_abs(-1, 1) == pytest.approx(2.0, abs=1e-12)


def test_translate():
    h = tent()
    ht = h.translate(0.5)  # x -> h(x + 0.5)
    assert ht.eval(-0.5) == pytest.approx(1.0)
    assert ht.eval(0.5) == pytest.approx(0.0)
    xs = np.linspace(-3, 3, 101)
    for x in xs:
        assert ht.eval(float(x)) == pytest.approx(h.eval(float(x) + 0.5), abs=1e-12)


def test_algebra_exact_with_fractions():
    h = tent()
    f = h.scale(Fraction(1, 3)) + h
    val = f.eval(Fraction(-1, 2))
    assert val == Fraction(2, 3)
    assert isinstance(val, Fraction)


def test_product_integration():
    h = tent()
    prod = h * h
    # int h^2 = 2 * int_0^1 (1-x)^2 = 2/3
    assert prod.definite_integral(-1, 1) == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_grid_function_basics():
    f = GridFunction(0.0, 0.5, [0.0, 1.0, 0.0])
    assert f.count == 3
    assert f.eval(0.25) == pytest.approx(0.5)
    assert f.eval(5.0) == 0.0  # constant extension of the edge value
    c = GridFunction(0.0, 0.5, [1.0, 1.0, 2.0])
    assert c.eval(2.0) == 2.0 and c.eval(-1.0) == 1.0
    assert c.eval(1.0) == 2.0


def test_grid_arithmetic_and_mismatch():
    a = GridFunction(0.0, 1.0, [1.0, 2.0, 3.0])
    b = GridFunction(0.0, 1.0, [1.0, 1.0, 1.0])
    assert np.allclose((a + b).values, [2, 3, 4])
    assert np.allclose((a - b).values, [0, 1, 2])
    assert np.allclose((2.0 * a).values, [2, 4, 6])
    c = GridFunction(0.5, 1.0, [0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        _ = a + c


def test_to_grid_matches_spec_example():
    vals = to_grid(tent(), -2.0, 0.5, 9).values
    assert np.allclose(vals, [0, 0, 0, 0.5, 1.0, 0.5, 0, 0, 0])


def test_to_grid_rational_breakpoint_regression():
    # float(1/10) lies above 1/10, so the node 0.1 is right of the break;
    # comparing it against float(1/10) would read the left piece
    f = PiecewiseFunction([Fraction(1, 10)], [[0], [1]])
    assert to_grid(f, 0.0, 0.1, 3).values.tolist() == [0.0, 1.0, 1.0]
    assert [float(f.eval(x)) for x in (0.0, 0.1, 0.2)] == [0.0, 1.0, 1.0]


_COEFF = st.fractions(min_value=-5, max_value=5, max_denominator=20)


@st.composite
def rational_piecewise(draw):
    """Rational piecewise polynomials: at most 8 pieces, degree at most 4."""
    breaks = sorted(draw(st.sets(
        st.fractions(min_value=-3, max_value=3, max_denominator=50),
        max_size=7)))
    if not breaks:
        return PiecewiseFunction([], [[draw(_COEFF)]])
    inner = [draw(st.lists(_COEFF, min_size=1, max_size=5))
             for _ in breaks[1:]]
    return PiecewiseFunction(breaks, [[draw(_COEFF)]] + inner
                             + [[draw(_COEFF)]])


@settings(max_examples=100, deadline=None, database=None)
@given(f=rational_piecewise(), data=st.data())
def test_to_grid_matches_per_node_eval(f, data):
    spacing = data.draw(st.sampled_from([0.1, 0.05, 1 / 3, 0.25, 1e-3]))
    anchors = [float(b) for b in f.breakpoints] + [-1.7]
    k = data.draw(st.integers(0, 20))
    # node k sits on float(b) exactly when the origin is float(b) and k = 0
    origin = data.draw(st.sampled_from(anchors)) - k * spacing
    grid = to_grid(f, origin, spacing, 80)
    ref = [float(f.eval(float(x))) for x in grid.nodes()]
    assert np.array_equal(grid.values, ref)


@settings(max_examples=100, deadline=None, database=None)
@given(f=rational_piecewise(),
       extra=st.lists(st.floats(-4, 4), max_size=20))
def test_sample_sided_matches_one_sided_limits(f, extra):
    ff = PiecewiseFunction([float(b) for b in f.breakpoints], f.pieces)
    xs = np.array([float(b) for b in f.breakpoints] + extra, dtype=float)
    left, mid, right = sample_sided(f, xs)
    for side, got in (("left", left), ("right", right)):
        ref = [float(ff.one_sided_limit(x, side)) for x in xs]
        assert np.array_equal(got, ref)
    assert np.array_equal(mid, 0.5 * (left + right))


def test_to_grid_round_trip_error_bounded_by_lipschitz():
    h = tent()  # Lipschitz constant 1
    for spacing in (0.1, 0.05, 0.025):
        f = to_grid(h, -2.0, spacing, int(4 / spacing) + 1)
        xs = np.linspace(-2, 2, 1234)
        err = max(abs(f.eval(float(x)) - h.eval(float(x))) for x in xs)
        assert err <= 1.0 * spacing


def test_pair_atom_half_open():
    g = three_jump_profile()
    mu = BoundedMeasure.dirac(0.0)
    assert mu.pair(g) == 0.0
    assert mu.pair(tent()) == 1.0


def test_pair_linearity_and_bound():
    rng = np.random.default_rng(3)
    mu = BoundedMeasure(
        atoms=[(0.0, 1.0), (0.3, -0.5)],
        density=PiecewiseFunction([-1, 1], [[0], [0.25, 0, -0.25], [0]]),
    )
    h, g = tent(), three_jump_profile()
    for _ in range(10):
        a, b = rng.uniform(-2, 2, size=2)
        lhs = mu.pair(h.scale(a) + g.scale(b))
        rhs = a * mu.pair(h) + b * mu.pair(g)
        assert lhs == pytest.approx(rhs, abs=1e-12)
    assert abs(mu.pair(h)) <= mu.total_variation() * h.sup_norm() + 1e-12


def test_total_variation():
    mu = BoundedMeasure(atoms=[(0.0, 1.0), (0.3, -0.5)])
    assert mu.total_variation() == 1.5
    dens = PiecewiseFunction([-1, 0, 1], [[0], [1], [-1], [0]])
    nu = BoundedMeasure(density=dens)
    assert nu.total_variation() == pytest.approx(2.0, abs=1e-12)


def test_pair_grid_function_against_density():
    # density 1 on (-1, 0], so pairing integrates f over [-1, 0]
    dens = PiecewiseFunction([-1, 0], [[0], [1], [0]])
    mu = BoundedMeasure(density=dens)
    f = GridFunction(-2.0, 0.01, np.linspace(-2, 2, 401) ** 2)
    # int_{-1}^0 x^2 dx = 1/3 up to interpolation error O(dx^2)
    assert mu.pair(f) == pytest.approx(1.0 / 3.0, abs=1e-4)
    exact = mu.pair(PiecewiseFunction([-9, 9], [[0], [0, 0, 1], [0]]))
    assert exact == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_pair_grid_exact_for_piecewise_linear():
    # the node-weight route is exact when f is the interpolant itself
    dens = PiecewiseFunction([-1, 1], [[0], [0.5, 0.25], [0]])
    mu = BoundedMeasure(density=dens)
    grid = to_grid(tent(), -2.0, 0.25, 17)
    exact = mu.pair(tent())
    assert mu.pair(grid) == pytest.approx(float(exact), abs=1e-14)


def test_density_must_have_compact_support():
    with pytest.raises(ValueError):
        BoundedMeasure(density=PiecewiseFunction.constant(1.0))


def test_measure_density_beyond_grid_uses_extension():
    dens = PiecewiseFunction([-4, -3], [[0], [1], [0]])
    mu = BoundedMeasure(density=dens)
    f = GridFunction(-2.0, 0.5, np.full(9, 2.0))
    assert mu.pair(f) == pytest.approx(2.0)
    # mass beyond the left edge reads the left edge value only
    g = GridFunction(-2.0, 0.5, np.r_[3.0, np.full(8, 2.0)])
    assert mu.pair(g) == pytest.approx(3.0)


def test_json_round_trip():
    # the config layout the CLI reads: float breakpoints, ascending pieces
    g = three_jump_profile()
    g2 = piecewise_from_dict(json.loads(json.dumps({
        "breakpoints": [float(b) for b in g.breakpoints],
        "pieces": [[float(c) for c in p] for p in g.pieces]})))
    xs = np.linspace(-2, 2, 57)
    for x in xs:
        assert g2.eval(float(x)) == g.eval(float(x))


def test_grid_csv_round_trip():
    f = GridFunction(-1.0, 0.25, np.sin(np.linspace(0, 3, 9)))
    buf = io.StringIO()
    f.to_csv(buf)
    buf.seek(0)
    assert buf.readline() == "x,value\n"
    xs, vals = np.loadtxt(buf, delimiter=",", unpack=True)
    assert np.array_equal(xs, f.nodes())
    assert np.array_equal(vals, f.values)


def test_breakpoint_validation():
    with pytest.raises(ValueError):
        PiecewiseFunction([1, 1], [[0], [1], [0]])
    with pytest.raises(ValueError):
        PiecewiseFunction([0], [[0, 1], [0]])  # unbounded piece not constant


def test_compact_interval():
    K = CompactInterval(-1.0, 2.0)
    assert (K.lo, K.hi) == (-1.0, 2.0)
    assert CompactInterval(1.0, 1.0).hi == 1.0
    with pytest.raises(ValueError):
        CompactInterval(1.0, 0.0)


# ---------------------------------------------------------------------------
# panel quadrature: hat moments and the density lag kernel


def _float_scale(pieces, x_abs):
    """Largest sum |c_j| |x|^j over the pieces: the size of the terms that
    float Horner evaluation adds up at |x| <= x_abs."""
    return max(sum(abs(float(c)) * x_abs ** j for j, c in enumerate(p))
               for p in pieces)


@st.composite
def hat_inputs(draw):
    """A rational piecewise polynomial of degree 0-7 with breakpoints on,
    within 1e-12 of, and off a float lattice, and that lattice."""
    h = draw(st.sampled_from([2.5e-4, 1e-3, 1 / 300, 0.05, 0.5]))
    origin = draw(st.floats(-6, 6))
    n = draw(st.integers(1, 6))
    nodes = [origin + h * k for k in range(n + 1)]
    breaks = set()
    for _ in range(draw(st.integers(1, 5))):
        x = draw(st.sampled_from(nodes))
        kind = draw(st.sampled_from(["on", "near", "off"]))
        if kind == "near":
            x += draw(st.sampled_from([-1e-12, 1e-12]))
        elif kind == "off":
            x += h * draw(st.floats(-0.5, 0.99))
        breaks.add(Fraction(x))
    breaks = sorted(breaks)
    coeff = st.fractions(min_value=-5, max_value=5, max_denominator=12)
    inner = [draw(st.lists(coeff, min_size=1, max_size=8))
             for _ in breaks[1:]]
    f = PiecewiseFunction(breaks, [[draw(coeff)]] + inner + [[draw(coeff)]])
    return f, origin, h, n


def _cell_scale(f, x0: float, h: float) -> float:
    """Size of the float terms of the pieces that cell [x0, x0 + h] meets."""
    lo = f._piece_index(Fraction(x0), "right")
    hi = f._piece_index(Fraction(x0) + Fraction(h), "left")
    return _float_scale(f.pieces[lo:hi + 1], abs(x0) + h)


def _quad_hat(f, x0: float, h: float):
    """(I0, I1) of one cell by scipy quad, one panel per piece: sigma is
    cut exactly where f's breakpoints fall, and each panel integrates its
    own polynomial, so no quadrature node reads across a jump."""
    x0_q, h_q = Fraction(x0), Fraction(h)
    cuts = sorted({Fraction(0), Fraction(1)}
                  | {(b - x0_q) / h_q for b in f.breakpoints
                     if x0_q < b < x0_q + h_q})
    m0 = m1 = 0.0
    for lo, hi in zip(cuts, cuts[1:]):
        c = [float(v) for v in
             f.pieces[f._piece_index(x0_q + h_q * (lo + hi) / 2)]]
        tol = 1e-14 * _float_scale([c], abs(x0) + h) + 1e-300
        m0 += scipy.integrate.quad(
            lambda sg: (1 - sg) * poly_eval(c, x0 + sg * h),
            float(lo), float(hi), epsabs=tol, epsrel=0)[0]
        m1 += scipy.integrate.quad(
            lambda sg: sg * poly_eval(c, x0 + sg * h),
            float(lo), float(hi), epsabs=tol, epsrel=0)[0]
    return m0, m1


@settings(max_examples=100, deadline=None, database=None)
@given(hat_inputs())
def test_hat_moments_exact_for_every_degree(args):
    f, origin, h, n = args
    i0, i1 = hat_moments(f, origin, h, n)
    e0, e1 = hat_moments_exact(f, origin, h, n)
    for k in range(n):
        scale = _cell_scale(f, origin + h * k, h)
        assert abs(i0[k] - e0[k]) <= 1e-13 * scale
        assert abs(i1[k] - e1[k]) <= 1e-13 * scale
    q0, q1 = _quad_hat(f, origin, h)
    assert abs(i0[0] - q0) <= 1e-13 * _cell_scale(f, origin, h)
    assert abs(i1[0] - q1) <= 1e-13 * _cell_scale(f, origin, h)


def test_hat_moments_degree_seven_cell():
    # sigma * x^7 has degree 8, one more than a 4-point Gauss rule
    # integrates exactly; that rule misses I1 = 1/9 by 2.3e-5
    f = PiecewiseFunction([0, 1], [[0], [0] * 7 + [1], [0]])
    i0, i1 = hat_moments(f, 0.0, 1.0, 1)
    assert abs(i0[0] - 1 / 72) <= 1e-16
    assert abs(i1[0] - 1 / 9) <= 1e-16
    t, w = np.polynomial.legendre.leggauss(4)
    assert abs(0.5 * w @ (0.5 * t + 0.5) ** 8 - 1 / 9) > 1e-6


def test_hat_moments_build_each_gauss_rule_once(monkeypatch):
    real = np.polynomial.legendre.leggauss
    calls = []

    def counted(points):
        calls.append(points)
        return real(points)

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counted)
    functions._gauss_rule.cache_clear()
    cubic = PiecewiseFunction([0, 1], [[0], [0, 0, 0, 1], [0]])
    first = [hat_moments(f, -0.35, 0.1, 20) for f in (tent(), cubic)]
    for _ in range(5):
        for f, want in zip((tent(), cubic), first):
            got = hat_moments(f, -0.35, 0.1, 20)
            assert all(np.array_equal(a, b) for a, b in zip(got, want))
    # two coefficients take the 2-point rule, four the 3-point one
    assert calls == [2, 3]
    nodes, weights = functions._gauss_rule(3)
    t, w = real(3)
    assert np.array_equal(nodes, 0.5 * t + 0.5)
    assert np.array_equal(weights, 0.5 * w)
    with pytest.raises(ValueError, match="read-only"):
        nodes[0] = 0.0
    functions._gauss_rule.cache_clear()


@st.composite
def rational_density(draw):
    """Compactly supported rational density: 1-4 pieces of degree 0-7."""
    breaks = sorted(draw(st.sets(
        st.fractions(min_value=-2, max_value=2, max_denominator=40),
        min_size=2, max_size=5)))
    coeff = st.fractions(min_value=-5, max_value=5, max_denominator=12)
    inner = [draw(st.lists(coeff, min_size=1, max_size=8))
             for _ in breaks[1:]]
    return PiecewiseFunction(breaks, [[0]] + inner + [[0]])


@settings(max_examples=50, deadline=None, database=None)
@given(d=rational_density(), g=rational_piecewise(),
       dt=st.sampled_from([0.3, 0.05, 1 / 64, 2.5e-4]),
       m=st.integers(0, 12))
def test_density_lag_kernel_matches_exact(d, g, dt, m):
    mu = BoundedMeasure(density=d)
    left, mid, right = sample_lag_kernel(mu, g, dt, m)
    assert np.array_equal(left, mid) and np.array_equal(mid, right)
    a, b = d.support_bounds()
    reach = float(max(abs(a), abs(b)))
    scale = (float(b - a) * _float_scale(d.pieces, reach)
             * _float_scale(g.pieces, reach + m * dt))
    for j in range(m + 1):
        want = kernel(mu, g, Fraction(float(dt * j)))
        assert abs(mid[j] - float(want)) <= 1e-13 * scale


@settings(max_examples=60, deadline=None, database=None)
@given(data=st.data())
def test_pair_rows_is_linear(data):
    grid = GridFunction(-1.0, 1 / 16, np.zeros(33))
    on_node = st.integers(-20, 52).map(lambda k: -1.0 + k / 16)
    atoms = data.draw(st.lists(st.tuples(
        st.one_of(on_node, st.floats(-1.5, 1.5)), st.floats(-2, 2)),
        max_size=4))
    density = data.draw(st.one_of(st.none(), rational_density()))
    mu = BoundedMeasure(atoms=atoms, density=density)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    U, V = rng.uniform(-1, 1, size=(2, 3, 33))
    a, b = data.draw(st.floats(-2, 2)), data.draw(st.floats(-2, 2))
    lhs = pair_rows(mu, grid, a * U + b * V)
    rhs = a * pair_rows(mu, grid, U) + b * pair_rows(mu, grid, V)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


@settings(max_examples=100, deadline=None, database=None)
@given(f=rational_piecewise(),
       d=st.fractions(min_value=-3, max_value=3, max_denominator=50),
       x=st.fractions(min_value=-6, max_value=6, max_denominator=50))
def test_translate_matches_shifted_eval(f, d, x):
    g = f.translate(d)
    # the shifted breakpoints are where the half-open convention bites
    for y in [b - d for b in f.breakpoints] + [x]:
        assert g.eval(y) == f.eval(y + d)
        for side in ("left", "right"):
            assert g.one_sided_limit(y, side) == f.one_sided_limit(y + d, side)


@settings(max_examples=80, deadline=None, database=None)
@given(la=st.integers(1, 2000), lb=st.integers(1, 2000),
       ea=st.integers(-8, 8), eb=st.integers(-8, 8), data=st.data())
def test_lattice_convolve_matches_np_convolve(la, lb, ea, eb, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    a = rng.standard_normal(la) * 10.0 ** ea
    b = rng.standard_normal(lb) * 10.0 ** eb
    n = data.draw(st.integers(1, la + lb - 1))
    got = lattice_convolve(a, b, n)
    want = np.convolve(a, b)[:n]
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) \
        <= 1e-12 * np.abs(a).sum() * np.abs(b).max()


@pytest.mark.parametrize("la, lb, direct", [
    (512, 2000, True), (2000, 512, True), (513, 513, False),
    (2000, 1500, False)])
def test_lattice_convolve_crossover(la, lb, direct):
    # the direct side is np.convolve itself; past it a cut to n still
    # gives the first n entries, and more than the length gives them all
    rng = np.random.default_rng(la + lb)
    a, b = rng.standard_normal(la), rng.standard_normal(lb)
    want = np.convolve(a, b)
    for n in (1, 600, la + lb - 1, la + lb + 5):
        got = lattice_convolve(a, b, n)
        assert got.shape == want[:n].shape
        if direct:
            assert np.array_equal(got, want[:n])
        else:
            assert np.max(np.abs(got - want[:n])) \
                <= 1e-12 * np.abs(a).sum() * np.abs(b).max()
