from __future__ import annotations

import io
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semiperturb.functions import (
    BoundedMeasure,
    CompactInterval,
    GridFunction,
    PiecewiseFunction,
    measure_from_dict,
    measure_to_dict,
    piecewise_from_dict,
    piecewise_to_dict,
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
    assert g.eval_mid(0.0) == 1.0


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
    z = GridFunction(0.0, 0.5, [1.0, 1.0, 1.0], extension="zero")
    assert z.eval(2.0) == 0.0
    assert z.eval(1.0) == 1.0


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
    fz = GridFunction(-2.0, 0.5, np.full(9, 2.0), extension="zero")
    assert mu.pair(fz) == pytest.approx(0.0)


def test_json_round_trip():
    g = three_jump_profile()
    g2 = piecewise_from_dict(piecewise_to_dict(g))
    xs = np.linspace(-2, 2, 57)
    for x in xs:
        assert g2.eval(float(x)) == g.eval(float(x))
    mu = BoundedMeasure(
        atoms=[(0.0, 1.0), (0.3, 0.5)],
        density=PiecewiseFunction([-1, 1], [[0], [0.5], [0]]),
    )
    mu2 = measure_from_dict(measure_to_dict(mu))
    assert mu2.pair(tent()) == pytest.approx(float(mu.pair(tent())), abs=1e-15)


def test_grid_csv_round_trip():
    f = GridFunction(-1.0, 0.25, np.sin(np.linspace(0, 3, 9)))
    buf = io.StringIO()
    f.to_csv(buf)
    buf.seek(0)
    f2 = GridFunction.from_csv(buf)
    assert f.same_grid(f2)
    assert np.array_equal(f.values, f2.values)


def test_breakpoint_validation():
    with pytest.raises(ValueError):
        PiecewiseFunction([1, 1], [[0], [1], [0]])
    with pytest.raises(ValueError):
        PiecewiseFunction([0], [[0, 1], [0]])  # unbounded piece not constant


def test_compact_interval():
    K = CompactInterval(-1.0, 2.0)
    assert K.contains(0.0) and not K.contains(3.0)
    assert K.length == 3.0
    with pytest.raises(ValueError):
        CompactInterval(1.0, 0.0)
