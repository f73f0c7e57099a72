from __future__ import annotations

import io
import json
import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

from exact_reference import (
    eval_pieces_by_point,
    hat_moments_by_panels,
    hat_moments_exact,
    kernel,
    sample_sided_by_point,
    to_grid_by_point,
)
from semiperturb import functions
from semiperturb.functions import (
    BoundedMeasure,
    CompactInterval,
    GridFunction,
    KeptOperand,
    PiecewiseFunction,
    hat_moments,
    lattice_convolve,
    pair_rows,
    pair_shifts,
    piecewise_from_dict,
    poly_eval,
    sample_lag_kernel,
    sample_sided,
    tent,
    support_cells,
    three_jump_profile,
    to_grid,
)
from semiperturb.transport import sawtooth_profile


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


@pytest.mark.parametrize("f, t", [
    # the shift rounds both cuts onto -1.0: the middle piece owns nothing
    (PiecewiseFunction([1e-17, 2e-17], [[0.0], [1.0], [0.0]]), 1.0),
    # three cuts onto -1.0, between nonzero end pieces
    (PiecewiseFunction([1e-17, 2e-17, 3e-17],
                       [[0.5], [1.0], [2.0], [3.0]]), 1.0),
    (three_jump_profile(), 0.1),
    (sawtooth_profile(), Fraction(1, 3)),
])
def test_translate_drops_the_pieces_a_shift_empties(f, t):
    # the translated function samples as the shifted sampler, bit for bit
    g = f.translate(t)
    assert len(g.pieces) == len(g.breakpoints) + 1
    cuts = np.array([float(b - t) for b in f.breakpoints])
    near = np.concatenate([np.nextafter(cuts, -np.inf), cuts,
                           np.nextafter(cuts, np.inf)])
    xs = np.unique(np.concatenate([np.linspace(-7, 7, 141), near]))
    assert (functions._sample_nodes(g, xs).tobytes()
            == functions._sample_nodes(f, xs, t).tobytes())


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


@pytest.mark.parametrize("origin, spacing, message", [
    (0.0, math.nan, "spacing must be positive and finite, got nan"),
    (0.0, math.inf, "spacing must be positive and finite, got inf"),
    (0.0, 0.0, "spacing must be positive and finite, got 0.0"),
    (0.0, -0.5, "spacing must be positive and finite, got -0.5"),
    (math.nan, 0.5, "origin must be finite, got nan"),
    (-math.inf, 0.5, "origin must be finite, got -inf"),
])
def test_grid_function_refuses_a_bad_grid_by_value(origin, spacing, message):
    # not a grid of NaN or infinite nodes
    with pytest.raises(ValueError, match=re.escape(message)):
        GridFunction(origin, spacing, [1.0, 2.0, 3.0])


def test_grid_arithmetic_and_mismatch():
    a = GridFunction(0.0, 1.0, [1.0, 2.0, 3.0])
    b = GridFunction(0.0, 1.0, [1.0, 1.0, 1.0])
    assert np.allclose((a + b).values, [2, 3, 4])
    assert np.allclose((a - b).values, [0, 1, 2])
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
@given(f=rational_piecewise(), data=st.data())
def test_to_grid_float_breakpoints_match_per_node_eval(f, data):
    # a float breakpoint is its own floor: nodes on it take the left piece
    ff = PiecewiseFunction([float(b) for b in f.breakpoints], f.pieces)
    spacing = data.draw(st.sampled_from([0.1, 0.05, 1 / 3, 0.25, 1e-3]))
    k = data.draw(st.integers(0, 20))
    origin = data.draw(st.sampled_from(ff.breakpoints + [-1.7])) \
        - k * spacing
    grid = to_grid(ff, origin, spacing, 80)
    ref = [float(ff.eval(float(x))) for x in grid.nodes()]
    assert np.array_equal(grid.values, ref)


@settings(max_examples=100, deadline=None, database=None)
@given(lo=st.floats(-3, 3), width=st.floats(0, 4),
       count=st.integers(2, 40), data=st.data())
def test_seminorm_rows_matches_interp_form(lo, width, count, data):
    # the window may end off the nodes, beyond the grid or hold no node
    grid = GridFunction(-1.0, 0.1, np.zeros(count))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    rows = rng.standard_normal((3, count))
    K = CompactInterval(lo, lo + width)
    xs = grid.nodes()
    mask = (xs >= K.lo) & (xs <= K.hi)
    for row, got in zip(rows, functions.seminorm_rows(grid, rows, K)):
        cand = [abs(np.interp(K.lo, xs, row)), abs(np.interp(K.hi, xs, row))]
        if mask.any():
            cand.append(np.max(np.abs(row[mask])))
        assert got == max(cand)


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


def _with_float_breaks(f):
    return PiecewiseFunction([float(b) for b in f.breakpoints], f.pieces)


def _same_bits(got, want):
    return len(got) == len(want) and all(
        np.asarray(a).tobytes() == np.asarray(b).tobytes()
        for a, b in zip(got, want))


@settings(max_examples=60, deadline=None, database=None)
@given(f=rational_piecewise(), floats=st.booleans(), data=st.data())
def test_to_grid_by_piece_matches_point_by_point_bits(f, floats, data):
    # one piece run per slice against one piece search per node
    if floats:
        f = _with_float_breaks(f)
    spacing = data.draw(st.sampled_from([0.1, 0.05, 1 / 3, 0.25, 1e-3]))
    k = data.draw(st.integers(0, 20))
    origin = data.draw(st.sampled_from(
        [float(b) for b in f.breakpoints] + [-1.7])) - k * spacing
    count = data.draw(st.integers(2, 120))
    assert to_grid(f, origin, spacing, count).values.tobytes() \
        == to_grid_by_point(f, origin, spacing, count).values.tobytes()


@settings(max_examples=50, deadline=None, database=None)
@given(f=rational_piecewise(), data=st.data())
def test_eval_pieces_matches_point_by_point_bits(f, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    shape = data.draw(st.sampled_from([(0,), (17,), (5, 9)]))
    xs = rng.uniform(-4, 4, shape)
    piece = rng.integers(0, len(f.pieces), shape)
    assert functions._eval_pieces(f, xs, piece).tobytes() \
        == eval_pieces_by_point(f, xs, piece).tobytes()


@pytest.mark.parametrize("f, ends", [
    (tent(), (0.0, 0.0)),
    (PiecewiseFunction([0], [[1], [2]]), (1.0, 2.0)),
], ids=["zero-ends", "nonzero-ends"])
def test_samples_at_infinity_read_the_end_constants_nan_reads_nan(f, ends):
    # -inf and +inf read the constant of their end piece, NaN reads NaN,
    # in the library and in the point-by-point references alike, with no
    # 0 * inf on the way
    xs = np.array([-np.inf, np.inf, np.nan, 0.5])
    want = np.array([*ends, np.nan, f.eval(0.5)])
    last = len(f.pieces) - 1
    piece = np.array([0, last, 0, f._piece_index(0.5)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for tol in (0.0, 1e-3):
            got = sample_sided(f, xs, tol)
            assert _same_bits(got, sample_sided_by_point(f, xs, tol))
            for a in got:
                np.testing.assert_array_equal(a, want)
        got = functions._eval_pieces(f, xs, piece)
        assert got.tobytes() == eval_pieces_by_point(f, xs, piece).tobytes()
    np.testing.assert_array_equal(got, want)


_SNAP_TOLS = [0.0, 1e-9, 1e-3, 0.05]


@settings(max_examples=80, deadline=None, database=None)
@given(f=rational_piecewise(), tol=st.sampled_from(_SNAP_TOLS),
       data=st.data())
def test_sample_sided_by_piece_matches_point_by_point_bits(f, tol, data):
    # unsorted points on a breakpoint, within snap_tol of one, on its
    # edge, just outside it, and anywhere
    pts = [float(b) + o * tol for b in f.breakpoints
           for o in (0.0, 0.5, -0.5, 1.0, -1.0, 1.5, -2.0)]
    pts += data.draw(st.lists(st.floats(-4, 4), max_size=30))
    xs = np.array(data.draw(st.permutations(pts)), dtype=float)
    assert _same_bits(sample_sided(f, xs, tol),
                      sample_sided_by_point(f, xs, tol))


@settings(max_examples=50, deadline=None, database=None)
@given(f=rational_piecewise(), t=st.sampled_from([1e-3, 0.128, 0.5, 1.0]),
       lo=st.sampled_from([-3.0, -1.0, 0.3]))
def test_sample_sided_lag_table_matches_point_by_point_bits(f, t, lo):
    # the lag x point table of the comparison curve, 2-d
    dt = t / 128
    xs = np.linspace(lo, lo + 6.0, 61) + dt * np.arange(128, -1, -1)[:, None]
    assert _same_bits(sample_sided(f, xs, 1e-9 * dt),
                      sample_sided_by_point(f, xs, 1e-9 * dt))


@pytest.mark.parametrize("tol", _SNAP_TOLS)
@pytest.mark.parametrize("gap", [1e-4, 0.02])
def test_sample_sided_close_breakpoints_keep_left_precedence(tol, gap):
    # two breakpoints closer together than snap_tol: a point in reach of
    # both snaps to the left one, as it did point by point
    f = PiecewiseFunction([0.5, 0.5 + gap, 2.0],
                          [[0], [1, 2], [-3, 0.5], [0]])
    xs = 0.5 + np.linspace(-0.1, 0.1 + gap, 401)
    xs = np.concatenate([xs[::-1], xs])
    assert _same_bits(sample_sided(f, xs, tol),
                      sample_sided_by_point(f, xs, tol))
    if tol > gap:
        _, mid, _ = sample_sided(f, np.array([0.5 + gap]), tol)
        assert mid[0] == 0.5 * (f.eval(0.5) + f.one_sided_limit(0.5, "right"))


def test_hat_moments_sawtooth_matches_point_by_point_bits(monkeypatch):
    f = sawtooth_profile()
    for origin, h, n in [(-6.0, 1e-2, 1300), (-5.3, 1 / 3, 40),
                         (-3.702, 2e-3, 3000)]:
        got = hat_moments(f, origin, h, n)
        with monkeypatch.context() as m:
            m.setattr(functions, "_eval_pieces", eval_pieces_by_point)
            want = hat_moments(f, origin, h, n)
        assert _same_bits(got, want)


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
        BoundedMeasure(density=PiecewiseFunction([], [[1.0]]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["location", "weight"])
def test_measure_refuses_non_finite_atom_by_name(field, bad):
    # a NaN location once crashed the engine's pairing on an int cast,
    # paired a piecewise function to 0.0 and the oracle to NaN; a NaN or
    # inf weight surfaced only as a NaN guard
    atom = (bad, 1) if field == "location" else (Fraction(1, 3), bad)
    with pytest.raises(ValueError, match=re.escape(
            f"atom 1 ({atom[0]!r}, {atom[1]!r}) is not finite")):
        BoundedMeasure(atoms=[(Fraction(1, 4), Fraction(1, 2)), atom])
    # exact atoms still pass
    assert BoundedMeasure(atoms=[(Fraction(1, 3), Fraction(2, 3))]) \
        .total_variation() == 2 / 3


@pytest.mark.parametrize("breaks, value", [
    ([-1, 1], math.nan), ([-1, math.inf], 1), ([-math.inf, 1], 1)],
    ids=["nan-coefficient", "inf-breakpoint", "-inf-breakpoint"])
def test_measure_refuses_non_finite_density(breaks, value):
    # a NaN coefficient once gave a NaN total variation
    density = PiecewiseFunction(breaks, [[0], [Fraction(1, 2), value], [0]])
    with pytest.raises(ValueError, match="density breakpoints and "
                       "coefficients must be finite"):
        BoundedMeasure(density=density)


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


@st.composite
def panel_inputs(draw):
    """A piecewise polynomial of degree 0-4, with float or Fraction
    coefficients, and a float lattice; its rational breakpoints sit on
    nodes, within a few half ulps of them (so two may round to one
    float), or two to one cell."""
    h = draw(st.sampled_from([2.5e-4, 1e-3, 1 / 3, 0.1, 0.5]))
    origin = draw(st.floats(-6, 6))
    n = draw(st.integers(1, 40))
    # one node beyond each edge too
    nodes = [origin + h * k for k in range(-1, n + 2)]
    breaks = set()
    for _ in range(draw(st.integers(1, 6))):
        x = draw(st.sampled_from(nodes))
        kind = draw(st.sampled_from(["on", "ulps", "two"]))
        if kind == "on":
            breaks.add(Fraction(x))
        elif kind == "ulps":
            breaks.add(Fraction(x) + Fraction(math.ulp(x)) / 2
                       * draw(st.integers(-6, 6)))
        else:
            sigmas = draw(st.sets(st.fractions(0, 1, max_denominator=40),
                                  min_size=2, max_size=2))
            breaks.update(Fraction(x) + Fraction(h) * s for s in sigmas)
    breaks = sorted(breaks)
    kind = draw(st.sampled_from([float, Fraction]))
    coeff = st.fractions(min_value=-5, max_value=5,
                         max_denominator=12).map(kind)
    inner = [draw(st.lists(coeff, min_size=1, max_size=5))
             for _ in breaks[1:]]
    f = PiecewiseFunction(breaks, [[draw(coeff)]] + inner + [[draw(coeff)]])
    return f, origin, h, n


@settings(max_examples=100, deadline=None, database=None)
@given(panel_inputs())
def test_hat_moments_match_the_panel_rule_bit_for_bit(args):
    # whole cells plus the cut cells' panels give the bits of one panel
    # list over the whole lattice
    f, origin, h, n = args
    got = hat_moments(f, origin, h, n)
    want = hat_moments_by_panels(f, origin, h, n)
    assert [a.tobytes() for a in got] == [b.tobytes() for b in want]


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


@settings(max_examples=60, deadline=None, database=None)
@given(data=st.data())
def test_pair_shifts_pairs_the_rows_it_never_builds(data):
    # row s is v(k + s) over the 33 nodes k, v the values placed at
    # ``start``, 0 below and ``fill`` above; atoms read the same entries
    # as pair_rows in the same arithmetic, bit for bit, and the density's
    # correlation matches its matrix product to rounding
    grid = GridFunction(-1.0, 1 / 16, np.zeros(33))
    on_node = st.integers(-20, 52).map(lambda k: -1.0 + k / 16)
    atoms = data.draw(st.lists(st.tuples(
        st.one_of(on_node, st.floats(-1.5, 1.5)), st.floats(-2, 2)),
        max_size=4))
    density = data.draw(st.one_of(st.none(), rational_density()))
    mu = BoundedMeasure(atoms=atoms, density=density)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    values = rng.uniform(-1, 1, data.draw(st.integers(0, 60)))
    start = data.draw(st.integers(-40, 40))
    n = data.draw(st.integers(1, 30))
    fill = data.draw(st.sampled_from([0.0, 0.5]))
    z = np.arange(33 + n - 1) - start
    inside = (z >= 0) & (z < values.size)
    v = np.where(inside, values[np.clip(z, 0, max(values.size - 1, 0))]
                 if values.size else 0.0, np.where(z < 0, 0.0, fill))
    rows = np.lib.stride_tricks.sliding_window_view(v, 33)
    want = pair_rows(mu, grid, rows)
    got = pair_shifts(mu, grid, values, n, start=start, fill=fill)
    if density is None:
        assert np.array_equal(got, want)
    assert np.max(np.abs(got - want)) <= 1e-13 * (1 + mu.total_variation())


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
    # and so does the kept operand b's product, on either side of its
    # crossover
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    a = rng.standard_normal(la) * 10.0 ** ea
    b = rng.standard_normal(lb) * 10.0 ** eb
    n = data.draw(st.integers(1, la + lb - 1))
    want = np.convolve(a, b)[:n]
    for got in (lattice_convolve(a, b, n), KeptOperand(b).times(a, n)):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) \
            <= 1e-12 * np.abs(a).sum() * np.abs(b).max()


def _five_smooth(k):
    for p in (2, 3, 5):
        while k % p == 0:
            k //= p
    return k == 1


@settings(max_examples=200, deadline=None, database=None)
@given(a=st.integers(-400, 400), width=st.integers(1, 100),
       origin=st.integers(-50, 50), n=st.integers(1, 200),
       ends=st.tuples(st.booleans(), st.booleans()))
def test_support_cells_slice_the_lattice(a, width, origin, n, ends):
    # [lo, hi) is a slice of the n cells wherever the support lies, even
    # wholly before or beyond them, and g vanishes at every node outside
    h = 0.25
    f = PiecewiseFunction([a / 4, (a + width) / 4],
                          [[int(ends[0])], [1], [int(ends[1])]])
    lo, hi = support_cells(f, origin * h, h, n)
    assert 0 <= lo <= hi <= n
    xs = origin * h + h * np.arange(n)
    outside = np.ones(n, bool)
    outside[lo:hi] = False
    assert not np.any(sample_sided(f, xs[outside]))


@settings(max_examples=200, deadline=None, database=None)
@given(n=st.one_of(st.integers(1, 3000), st.integers(1, 300000)))
def test_fft_length_is_the_next_five_smooth_number(n):
    size = functions._fft_length(n)
    assert size >= n and _five_smooth(size)
    assert not any(_five_smooth(k) for k in range(n, size))


@pytest.mark.parametrize("la, lb, direct", [
    (512, 2000, True), (2000, 512, True), (513, 513, False),
    (2000, 1500, False)])
def test_lattice_convolve_crossover(la, lb, direct):
    # `direct` marks the side of the crossover lattice_convolve once had
    # (the shorter operand at most 512 entries).  The FFT side moved to
    # KeptOperand: on both sides the first n entries are np.convolve's,
    # bit for bit, and more than the length gives them all
    assert (min(la, lb) <= 512) == direct
    rng = np.random.default_rng(la + lb)
    a, b = rng.standard_normal(la), rng.standard_normal(lb)
    want = np.convolve(a, b)
    for n in (1, 600, la + lb - 1, la + lb + 5):
        got = lattice_convolve(a, b, n)
        assert got.shape == want[:n].shape
        assert np.array_equal(got, want[:n])


@pytest.mark.parametrize("lc, lphi, direct", [
    (512, 2000, True), (2000, 128, True), (513, 129, False),
    (2000, 1500, False)])
def test_kept_operand_on_both_sides_of_the_crossover(lc, lphi, direct,
                                                      monkeypatch):
    # direct while c has at most 512 entries or phi at most 128; past
    # both, one rfft of c per FFT length, whatever phi is or how far the
    # product is cut.  Values and spectra are read-only
    rng = np.random.default_rng(lc + lphi)
    c = rng.standard_normal(lc)
    op = KeptOperand(c.copy())
    with pytest.raises(ValueError, match="read-only"):
        op.values[0] = 0.0
    transformed = []
    real = np.fft.rfft

    def rfft(a, *args, **kwargs):
        if np.array_equal(np.asarray(a), c):
            transformed.append(args[0] if args else kwargs["n"])
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", rfft)
    lengths = set()
    # phi one entry shorter crosses over on the phi side, (513, 128)
    for size in (lphi, lphi - 1, lphi):
        phi = rng.standard_normal(size)
        want = np.convolve(phi, c)
        if lc > 512 and size > 128:
            lengths.add(functions._fft_length(want.size))
        for n in (None, 1, 600, want.size + 5):
            got = op.times(phi, n)
            assert got.shape == want[:n].shape
            assert np.max(np.abs(got - want[:n])) \
                <= 1e-13 * np.abs(phi).sum() * np.abs(c).max()
    assert bool(lengths) != direct
    assert sorted(transformed) == sorted(lengths)
    for spec in op._spectra.values():
        with pytest.raises(ValueError, match="read-only"):
            spec.values[0] = 0.0
