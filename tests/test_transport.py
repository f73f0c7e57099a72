from __future__ import annotations

import math
import re
import sys
from fractions import Fraction

import numpy as np
import pytest
import scipy.integrate
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from semiperturb.errors import (
    DegenerateProfile,
    GridTooLarge,
    GuardViolation,
    StepMismatch,
    StepSizeError,
)
from semiperturb.functions import (
    BoundedMeasure,
    PiecewiseFunction,
    hat_moments,
    poly_eval,
    sample_lag_kernel,
    sample_sided,
    support_cells,
    tent,
    three_jump_profile,
    to_grid,
)
from semiperturb import functions, transport
from semiperturb.semigroup import MAX_GRID_NODES, TranslationSystem
from semiperturb.transport import (
    TransportProblem,
    _series_operand,
    build_domain_function,
    build_rank_one,
    bump_function,
    canonical_gap_vector,
    canonical_profile,
    canonical_regularizer,
    comparison_curve,
    corner_profile,
    domain_check,
    engine_vs_oracle,
    make_system,
    oracle_solution,
    oracle_weights,
    refinement_study,
    run_perturbed,
    sawtooth_profile,
)

from exact_reference import (
    comparison_curve_uncut,
    kernel,
    oracle_reconstruction_two_products,
    renewal_forward_substitution,
)


def delta_problem(weight=1):
    return TransportProblem(
        measure=BoundedMeasure.dirac(0, weight),
        profile=canonical_profile(),
        initial=tent(),
        regularizer=canonical_regularizer(),
    )


def two_atom_problem():
    return TransportProblem(
        measure=BoundedMeasure(atoms=((0, 1), (Fraction(3, 10),
                                      Fraction(1, 2)))),
        profile=canonical_profile(),
        initial=tent(),
        regularizer=canonical_regularizer(),
    )


def half_box_density():
    # density 1/2 on (-1/2, 1/2], total mass 1
    return PiecewiseFunction([Fraction(-1, 2), Fraction(1, 2)],
                             [[0], [Fraction(1, 2)], [0]])


# ---------------------------------------------------------------------------
# profiles


def test_canonical_profile_pointwise():
    g = canonical_profile()
    assert g.eval(-0.5) == -0.5
    assert g.eval(0.5) == 1.5
    assert g.eval(2.0) == 0
    assert g.eval(-3.0) == 0
    assert float(g.sup_norm()) == 2.0


def test_canonical_gap_vector_recomputed():
    gaps = canonical_gap_vector()
    assert tuple(int(v) for v in gaps) == (-1, 2, -1)
    jumps = canonical_profile().jumps()
    assert [float(z) for z, _, _ in jumps] == [-1.0, 0.0, 1.0]
    assert [hi - lo for _, lo, hi in jumps] == list(gaps)


def test_regularizer_solves_profile_equation():
    # h - h' must reproduce the profile between and at the kinks
    h = canonical_regularizer()
    g = canonical_profile()
    diff = h + h.derivative().scale(-1)
    for x in (-2.0, -0.75, -0.25, 0.25, 0.6, 0.99, 1.5):
        assert diff.one_sided_limit(x, "left") \
            == g.one_sided_limit(x, "left")
        assert diff.one_sided_limit(x, "right") \
            == g.one_sided_limit(x, "right")


def test_sawtooth_profile_jump_ladder():
    g = sawtooth_profile()
    jumps = g.jumps()
    assert len(jumps) == 9
    locs = [float(z) for z, _, _ in jumps]
    gaps = [float(hi - lo) for _, lo, hi in jumps]
    assert locs == [float(k) for k in range(-4, 5)]
    assert gaps[:8] == [-1.0] * 8
    assert gaps[8] == -0.5
    assert float(g.sup_norm()) == 1.0
    assert g.eval(10.0) == 0 and g.eval(-10.0) == 0


def test_corner_profile_matches_gaps():
    g = canonical_profile()
    w = corner_profile(g)
    assert not w.jumps()
    gap_at = {z: hi - lo for z, lo, hi in g.jumps()}
    for z, gap in gap_at.items():
        defect = (w.one_sided_derivative(z, "left")
                  - w.one_sided_derivative(z, "right"))
        assert defect == gap
    # C^1 away from the profile jumps
    for z, lo, hi in w.derivative_jumps():
        if z not in gap_at:
            assert lo == hi


def test_bump_function_shape():
    f = bump_function()
    assert f.eval(0) == 1
    assert f.eval(1) == 0 and f.eval(-2) == 0
    d = f.derivative()
    assert d.one_sided_limit(1, "left") == 0
    assert d.one_sided_limit(-1, "right") == 0


# ---------------------------------------------------------------------------
# renewal kernel and pairings


def test_kernel_shift_value():
    prob = delta_problem()
    assert kernel(prob.measure, prob.profile, Fraction(1, 2)) \
        == Fraction(3, 2)


def test_kernel_one_sided_at_jump():
    prob = delta_problem()
    assert kernel(prob.measure, prob.profile, 1, side="left") == 1
    assert kernel(prob.measure, prob.profile, 1, side="right") == 0
    assert kernel(prob.measure, prob.profile, 1, side="mid") \
        == Fraction(1, 2)


def test_two_atom_pairings_exact():
    prob = two_atom_problem()
    f0 = bump_function()
    w = corner_profile(prob.profile)
    assert prob.measure.pair(f0) == Fraction(28281, 20000)
    assert prob.measure.pair(w) == Fraction(27, 100)


# ---------------------------------------------------------------------------
# domain conditions


def test_tent_in_domain_for_unit_atom():
    # the tent's kink defects (-1, 2, -1) match pairing(tent) = 1 times the
    # profile gaps, so it sits in the domain with exactly zero residuals
    prob = delta_problem()
    rep = domain_check(tent(), prob)
    assert rep.in_domain
    assert rep.pairing_value == 1
    assert all(r == 0 for _, r in rep.kink_residuals)
    assert rep.worst == 0


def test_tent_rejected_for_doubled_atom():
    # pairing doubles to 2, so the residual at the middle jump is 2 - 4
    rep = domain_check(tent(), delta_problem(weight=2))
    assert not rep.in_domain
    assert rep.worst == 2.0


def test_build_domain_function_exact():
    prob = two_atom_problem()
    f = build_domain_function(prob)
    rep = domain_check(f, prob)
    assert rep.in_domain
    assert rep.worst == 0
    assert all(r == 0 for _, r in rep.kink_residuals)
    # the corner scale solves s = pairing(f0) + s * pairing(w) exactly
    assert prob.measure.pair(f) == Fraction(28281, 14600)


def test_build_domain_function_without_atoms_stays_exact():
    # the pairing of the empty measure is an exact zero, so the corner
    # scale is too and the domain function keeps rational coefficients
    prob = TransportProblem(BoundedMeasure(), canonical_profile(), tent())
    f = build_domain_function(prob)
    assert all(isinstance(c, (int, Fraction)) for p in f.pieces for c in p)
    assert all(isinstance(r, Fraction) and r == 0
               for _, r in domain_check(f, prob).kink_residuals)


def test_build_domain_function_degenerate_profile():
    # the two-atom weights scaled by 100/27 pair the stock corner to 1
    prob = two_atom_problem()
    prob.measure = BoundedMeasure(atoms=tuple(
        (x, w * Fraction(100, 27)) for x, w in prob.measure.atoms))
    assert prob.measure.pair(corner_profile(prob.profile)) == 1
    with pytest.raises(DegenerateProfile):
        build_domain_function(prob)


_RATIONAL = st.fractions(min_value=-3, max_value=3, max_denominator=12)
_GAP = st.fractions(min_value=-2, max_value=2, max_denominator=6).filter(
    lambda g: g != 0)
_WEIGHT = st.fractions(min_value=-1, max_value=1, max_denominator=8)
# rationals inside (-1, 1), the support of bump_function
_INNER = st.fractions(min_value=-1, max_value=1, max_denominator=12).filter(
    lambda x: abs(x) < 1)


@st.composite
def rational_jump_problems(draw, inner=False):
    """A profile with rational jumps (locations, nonzero gaps) and linear
    pieces between them, and a measure of zero to three rational atoms;
    with ``inner``, the first atom has a nonzero weight and lies in
    ``_INNER``."""
    locs = sorted(draw(st.sets(_RATIONAL, min_size=1, max_size=4)))
    gaps = draw(st.lists(_GAP, min_size=len(locs), max_size=len(locs)))
    slopes = draw(st.lists(
        st.fractions(min_value=-1, max_value=1, max_denominator=4),
        min_size=len(locs) - 1, max_size=len(locs) - 1))
    pieces = [[draw(_RATIONAL)]]
    for i, (z, gap) in enumerate(zip(locs, gaps)):
        right = poly_eval(pieces[-1], z) + gap
        slope = slopes[i] if i < len(slopes) else 0
        pieces.append([right - slope * z, slope] if slope else [right])
    atoms = []
    if inner:
        atoms.append((draw(_INNER), draw(_WEIGHT.filter(lambda w: w != 0))))
    atoms += draw(st.lists(st.tuples(_RATIONAL, _WEIGHT),
                           max_size=3 - len(atoms)))
    profile = PiecewiseFunction(locs, pieces)
    assert [hi - lo for _, lo, hi in profile.jumps()] == gaps
    return TransportProblem(BoundedMeasure(atoms=atoms), profile, tent())


def _domain_function(problem):
    try:
        return build_domain_function(problem)
    except DegenerateProfile:
        assume(False)


@settings(max_examples=60, deadline=None, database=None)
@given(problem=rational_jump_problems())
def test_domain_check_accepts_built_function(problem):
    rep = domain_check(_domain_function(problem), problem)
    assert rep.in_domain and rep.worst == 0
    assert not rep.continuity_defects
    zs = [z for z, _, _ in problem.profile.jumps()]
    assert set(zs) <= {z for z, _ in rep.kink_residuals}
    for _, r in rep.kink_residuals:
        assert isinstance(r, Fraction) and r == 0


@settings(max_examples=60, deadline=None, database=None)
@given(problem=rational_jump_problems(inner=True),
       eps=st.fractions(min_value=Fraction(-1, 2), max_value=Fraction(1, 2),
                        max_denominator=20).filter(lambda e: e != 0))
def test_domain_check_residual_of_scaled_corner(problem, eps):
    # with f = f0 + s w and s (1 - pairing(w)) = pairing(f0), scaling the
    # corner part s w by 1 + eps leaves eps pairing(f0) gap at each jump;
    # an atom inside the bump's support makes pairing(f0) rarely zero
    f0 = bump_function()
    f = _domain_function(problem)
    pair_f0 = problem.measure.pair(f0)
    assume(pair_f0 != 0)
    rep = domain_check(f + (f - f0).scale(eps), problem)
    assert not rep.in_domain
    want = {z: eps * pair_f0 * (hi - lo)
            for z, lo, hi in problem.profile.jumps()}
    assert dict(rep.kink_residuals) == want
    assert all(isinstance(r, Fraction) and r != 0 for r in want.values())


# ---------------------------------------------------------------------------
# scalar renewal oracle


def test_oracle_weights_start_at_pairing():
    prob = delta_problem()
    phi = oracle_weights(prob.measure, prob.profile, prob.initial, 0.5, 1e-2)
    assert phi[0] == 1.0  # pairing of the tent against the unit atom


def test_oracle_weights_exponential_closed_form():
    # unit atom, tent start: the renewal weight is exactly e^tau on [0, 1]
    prob = delta_problem()
    dt = 1e-3
    phi = oracle_weights(prob.measure, prob.profile, prob.initial, 1.0, dt)
    taus = dt * np.arange(len(phi))
    err = np.max(np.abs(phi - np.exp(taus)))
    assert err < 2e-6
    k = round(0.5 / dt)
    assert phi[k] == pytest.approx(1.6487212707001282, abs=1e-6)


def test_oracle_weights_second_order_in_dt():
    prob = delta_problem()
    errs = []
    for dt in (4e-3, 2e-3, 1e-3):
        phi = oracle_weights(prob.measure, prob.profile, prob.initial,
                             1.0, dt)
        errs.append(abs(phi[-1] - math.e))
    assert errs[0] / errs[1] > 3.5
    assert errs[1] / errs[2] > 3.5


@pytest.mark.parametrize("initial", [tent, three_jump_profile])
def test_oracle_free_term_is_left_limit_lag_sample(initial):
    # with a zero profile the renewal kernel vanishes and phi is the free term
    u0 = initial()
    mu = BoundedMeasure(atoms=[(0, 1), (Fraction(3, 10), Fraction(1, 2))])
    dt, m_steps = 1e-3, 1500
    free = oracle_weights(mu, PiecewiseFunction([], [[0]]), u0,
                          m_steps * dt, dt)
    exact = np.array([float(mu.pair(u0.translate(Fraction(m, 1000))))
                      for m in range(m_steps + 1)])
    assert np.max(np.abs(free - exact)) <= 1e-12
    # the float shift agrees except where an atom meets a jump of u0: at
    # 3/10 + 700 dt the rounded breakpoint 1 - 0.7000000000000001 falls
    # left of the atom, so the per-step pairing reads the right limit
    per_step = np.array([float(mu.pair(u0.translate(m * dt)))
                         for m in range(m_steps + 1)])
    jumps = {z for z, _, _ in u0.jumps()}
    hits = [m for m in range(m_steps + 1)
            if any(loc + Fraction(m, 1000) in jumps for loc, _ in mu.atoms)]
    off = np.ones(m_steps + 1, dtype=bool)
    off[hits] = False
    assert np.max(np.abs(free - per_step)[off]) <= 1e-12
    if u0.jumps():
        assert hits == [0, 700, 1000]
        assert abs(per_step[700] - exact[700]) == pytest.approx(0.5)


def test_oracle_step_size_guard():
    prob = delta_problem()
    with pytest.raises(StepSizeError):
        oracle_weights(prob.measure, prob.profile, prob.initial, 3.0, 1.5)


@pytest.mark.parametrize("t", [0.5005, -0.5], ids=["off-lattice",
                                                     "negative"])
def test_oracle_refuses_a_time_off_the_lattice(t):
    # the engine's lattice rule: StepMismatch, not StepSizeError (kept
    # for a non-positive diagonal) or numpy's negative dimensions
    prob = delta_problem()
    with pytest.raises(StepMismatch, match=f"t {t!r} is not a multiple "
                       r"of dt=0\.001"):
        oracle_weights(prob.measure, prob.profile, prob.initial, t, 1e-3)


@pytest.mark.parametrize("measure, profile, t, dt", [
    (BoundedMeasure.dirac(0), three_jump_profile(), 2.0, 1e-3),
    (BoundedMeasure.dirac(Fraction(1, 3)), three_jump_profile(), 2.0, 1e-3),
    (two_atom_problem().measure, three_jump_profile(), 1.5, 1e-3),
    (two_atom_problem().measure, sawtooth_profile(), 1.5, 1e-3),
    (BoundedMeasure(density=half_box_density()), three_jump_profile(),
     1.2, 1e-3),
    (BoundedMeasure.dirac(0, 3), three_jump_profile(), 4.0, 1e-3),
    (BoundedMeasure.dirac(0), three_jump_profile(), 1e-3, 1e-3),
    (BoundedMeasure.dirac(0), three_jump_profile(), 0.3, 1e-3),
    (BoundedMeasure.dirac(0), three_jump_profile(), 0.512, 1e-3),
    (BoundedMeasure.dirac(0), three_jump_profile(), 0.513, 1e-3),
    (BoundedMeasure.dirac(0), three_jump_profile(), 1.024, 1e-3),
    (BoundedMeasure.dirac(0), three_jump_profile(), 1.025, 1e-3),
    (BoundedMeasure.dirac(0), three_jump_profile(), 1.536, 1e-3),
    (BoundedMeasure.dirac(0), three_jump_profile(), 2.049, 1e-3),
    (two_atom_problem().measure, three_jump_profile(), 2.0, 2.5e-4),
    (BoundedMeasure.dirac(0), sawtooth_profile(), 2.0, 2.5e-4),
], ids=["dirac-0", "dirac-third", "two-atoms", "two-atoms-sawtooth",
        "density", "weight-3-t4", "m1", "m300", "m512", "m513", "m1024",
        "m1025", "m1536", "m2049", "m8000-two-atoms", "m8000-sawtooth"])
def test_oracle_weights_match_forward_substitution(measure, profile, t, dt):
    # the tree solve (leaves of at most 512 steps) against the
    # step-by-step one, entry by entry, relative to the largest weight so
    # far: its rounding stays causal.  1024 steps are two whole leaves,
    # 513, 1025 and 2049 steps split one step off the top, 1536 steps
    # split at 1024 with one leaf right of it, and 2000 and 8000 steps
    # (the benchmark's finest) end inside a leaf, below splits of every
    # size up to 4096
    phi = oracle_weights(measure, profile, tent(), t, dt)
    want = renewal_forward_substitution(measure, profile, tent(), t, dt)
    assert phi.shape == want.shape
    prefix = np.maximum.accumulate(np.abs(want))
    assert np.all(np.abs(phi - want) <= 1e-13 * prefix)


@pytest.mark.parametrize("solve", [oracle_weights,
                                   renewal_forward_substitution])
def test_oracle_step_size_guard_at_zero_diagonal(solve):
    # canonical profile, unit atom at 0: diag = 1 - dt is exactly 0
    prob = delta_problem()
    with pytest.raises(StepSizeError):
        solve(prob.measure, prob.profile, prob.initial, 3.0, 1.0)


@pytest.mark.parametrize("t, dt", [(0.5, 2e-3), (2.0, 2e-3)],
                         ids=["direct", "fft"])
def test_oracle_solution_matches_correlation_form(t, dt):
    prob = two_atom_problem()
    system = make_system(prob, dt, t, 0.0)
    phi = oracle_weights(prob.measure, prob.profile, prob.initial, t, dt)
    got = oracle_solution(prob.measure, prob.profile, prob.initial, system,
                          t, phi=phi).values
    m = len(phi) - 1
    i0, i1 = hat_moments(prob.profile, system.origin, dt,
                         system.count + m - 1)
    want = system.sample(prob.initial.translate(t)).values + dt * (
        np.correlate(i0, phi[m:0:-1], mode="valid")
        + np.correlate(i1, phi[m - 1::-1], mode="valid"))
    scale = dt * np.abs(phi).sum() * float(prob.profile.sup_norm())
    assert np.max(np.abs(got - want)) <= 1e-13 * scale


def _assert_every_prefix_row(prob, dt, t):
    # row k is the oracle at k dt from the prefix phi[:k + 1], the way the
    # variation-of-parameters check reads it
    system = make_system(prob, dt, t, 0.0)
    phi = oracle_weights(prob.measure, prob.profile, prob.initial, t, dt)
    for k in range(len(phi)):
        got = oracle_solution(prob.measure, prob.profile, prob.initial,
                              system, k * dt, phi=phi[:k + 1]).values
        want = oracle_reconstruction_two_products(
            prob.profile, prob.initial, system, k * dt, phi[:k + 1])
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("t", [0.5, 1.1], ids=["direct", "fft"])
@pytest.mark.parametrize("measure", [
    BoundedMeasure.dirac(0),
    BoundedMeasure.dirac(Fraction(1, 3)),
    two_atom_problem().measure,
], ids=["dirac-0", "dirac-third", "two-atoms"])
def test_oracle_solution_matches_two_product_reference(measure, t):
    # at dt = 2e-3 the profile covers about 1000 cells, so 250 steps take
    # the direct product and 550 the FFT
    prob = TransportProblem(measure, three_jump_profile(), tent())
    _assert_every_prefix_row(prob, 2e-3, t)


@pytest.mark.parametrize("profile", [
    PiecewiseFunction([-1, 0, 1], [[0], [0, 1], [2, -1], [Fraction(1, 2)]]),
    PiecewiseFunction([-1, 0, 1], [[Fraction(-1, 2)], [0, 1], [2, -1], [0]]),
    PiecewiseFunction([-40, -2], [[0], [1], [0]]),
    PiecewiseFunction([1, 40], [[0], [Fraction(3, 2)], [0]]),
    PiecewiseFunction([60, 61], [[0], [1], [0]]),
    PiecewiseFunction([-61, -60], [[0], [1], [0]]),
], ids=["constant-right-end", "constant-left-end", "off-grid-left",
        "off-grid-right", "all-off-grid", "all-before-grid"])
def test_oracle_solution_support_cells_match_reference(profile):
    # the support reaches past a grid edge, or misses the grid altogether
    prob = TransportProblem(BoundedMeasure.dirac(Fraction(1, 3)), profile,
                            tent())
    _assert_every_prefix_row(prob, 1e-2, 0.5)


def test_oracle_per_step_loop_computes_hat_moments_once(monkeypatch):
    # criterion 03's loop: one oracle call per lattice time on one grid
    prob = delta_problem()
    dx, t = 2e-3, 0.5
    system = make_system(prob, dx, t, 0.2)
    phi = oracle_weights(prob.measure, prob.profile, prob.initial, t, dx)
    real, calls = transport.hat_moments, []
    monkeypatch.setattr(transport, "hat_moments",
                        lambda *args: calls.append(args) or real(*args))
    _series_operand.cache_clear()
    for k in range(len(phi)):
        oracle_solution(prob.measure, prob.profile, prob.initial, system,
                        k * dx, phi=phi[:k + 1])
    # the operand is built once per grid and reused at every k > 0
    assert len(calls) == 1
    info = _series_operand.cache_info()
    assert (info.misses, info.hits) == (1, len(phi) - 2)
    # what the memo holds is read-only
    lo, hi = support_cells(prob.profile, system.origin, dx,
                           system.count + len(phi) - 2)
    rec = _series_operand(prob.profile, system.origin, dx, lo, hi)
    for a in (rec.operand.values, rec.first, rec.last):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0


def _oracle_by_the_formula(prob, system, t, phi):
    # the reconstruction as one function of t: a fresh sample of the
    # shifted initial profile, the moments on the support cells, the
    # operand c, one product cut at the last grid node and its two
    # corrections.  The product follows the one rule: np.convolve while c
    # has at most 512 entries or phi at most 128, else one real FFT
    # product at the 5-smooth length of the whole product
    dt, m = system.spacing, len(phi) - 1
    vals = to_grid(prob.initial.translate(t), system.origin, dt,
                   system.count).values
    lo, hi = support_cells(prob.profile, system.origin, dt,
                           system.count + m - 1)
    if m > 0 and hi > lo:
        i0, i1 = hat_moments(prob.profile, system.origin + lo * dt, dt,
                             hi - lo)
        c = np.append(i0, 0.0)
        c[1:] += i1
        first = lo - m
        k0, k1 = max(first, 0), min(first + c.size + m, system.count)
        n = k1 - first
        if c.size <= 512 or m + 1 <= 128:
            series = np.convolve(phi[:n], c[:n])[:n]
        else:
            size = functions._fft_length(c.size + m)
            series = np.fft.irfft(np.fft.rfft(c, size)
                                  * np.fft.rfft(phi, size), size)[:n]
        series[:hi - lo] -= phi[0] * i0[:n]
        series[m + 1:] -= phi[m] * i1[:max(n - m - 1, 0)]
        if k1 > k0:
            vals[k0:k1] += dt * series[k0 - first:]
    return vals


@pytest.mark.parametrize("t", [0.5, 1.1], ids=["direct", "fft"])
@pytest.mark.parametrize("profile, u0", [
    (three_jump_profile(), tent()),
    (PiecewiseFunction([1, 40], [[0], [Fraction(3, 2)], [0]]), tent()),
    (three_jump_profile(), three_jump_profile()),
    # float(1/10) > 1/10 is node 50 of the grid from 0.0: at k = 0 the
    # free part reads translate(0.0)'s float cut there, not its floor
    (three_jump_profile(),
     PiecewiseFunction([Fraction(-1, 2), Fraction(1, 10)], [[0], [1], [0]])),
    # x^2 - x with a -0.0 constant: -0.0 at the node 0.0, but +0.0 after
    # translate(0.0)
    (three_jump_profile(),
     PiecewiseFunction([-1.0, 1.0], [[0.0], [-0.0, -1.0, 1.0], [0.0]])),
], ids=["inside-grid", "past-right-edge", "jump-u0", "fraction-cut-u0",
        "negative-zero-u0"])
def test_oracle_solution_is_the_formula_bit_for_bit(profile, u0, t):
    # every prefix row, k = 0 too, on three grids called in turn: an
    # operand kept for one grid and read on another changes the bits.
    # The second is half a spacing off the first; the third starts at 0.0
    prob = TransportProblem(BoundedMeasure.dirac(0), profile, u0)
    dt = 2e-3
    grid = make_system(prob, dt, t, 0.2)
    grids = (grid, TranslationSystem(grid.origin - dt / 2, dt, grid.count,
                                     grid.horizon, window=grid.window),
             TranslationSystem(0.0, dt, grid.count, grid.horizon))
    assert grids[2].nodes()[50] == 0.1 and 0.0 in grid.nodes()
    phi = oracle_weights(prob.measure, prob.profile, prob.initial, t, dt)
    for k in range(len(phi)):
        for system in grids:
            got = oracle_solution(prob.measure, prob.profile, prob.initial,
                                  system, k * dt, phi=phi[:k + 1])
            want = _oracle_by_the_formula(prob, system, k * dt, phi[:k + 1])
            assert got.values.tobytes() == want.tobytes(), (k, system.origin)


def test_oracle_solution_refuses_weights_that_do_not_end_at_t():
    prob = delta_problem()
    dx = 1e-2
    system = make_system(prob, dx, 0.5, 0.2)
    args = prob.measure, prob.profile, prob.initial, system
    # a prefix of 2 steps at a t of 50
    with pytest.raises(StepMismatch,
                       match=r"phi of 3 weights at t=0\.5, dt=0\.01"):
        oracle_solution(*args, 0.5, phi=np.ones(3))
    # a t off the lattice, whatever the weights
    with pytest.raises(StepMismatch,
                       match=r"t 0\.505 is not a multiple of dt=0\.01"):
        oracle_solution(*args, 0.505, phi=np.ones(51))
    # the matching prefix is taken
    phi = oracle_weights(prob.measure, prob.profile, prob.initial, 0.5, dx)
    assert np.array_equal(oracle_solution(*args, 0.02, phi=phi[:3]).values,
                          oracle_solution(*args, 0.02).values)


def test_oracle_solution_zero_measure_is_translation():
    prob = delta_problem(weight=0)
    dx = 1e-2
    sys_t = make_system(prob, dx, 0.5, 0.0)
    u = oracle_solution(prob.measure, prob.profile, prob.initial, sys_t, 0.5)
    want = sys_t.sample(tent().translate(0.5)).values
    assert np.max(np.abs(u.values - want)) < 1e-15


def test_oracle_weights_and_state_on_make_system_grid():
    prob = delta_problem()
    phi = oracle_weights(prob.measure, prob.profile, prob.initial, 0.5, 2e-3)
    u = oracle_solution(prob.measure, prob.profile, prob.initial,
                        make_system(prob, 2e-3, 0.5, 0.0), 0.5, phi=phi)
    assert len(phi) == round(0.5 / 2e-3) + 1
    assert u.values.shape[0] > 0
    assert float(np.max(np.abs(u.values))) < 10.0


# ---------------------------------------------------------------------------
# engine vs oracle


def test_engine_matches_oracle_single_atom():
    prob = delta_problem()
    out = engine_vs_oracle(prob, 0.5, 2e-3, 0.2)
    assert out["gap"] <= 1e-3
    assert out["segments"] == 3  # 0.1 rest + two 0.2 segments


def test_engine_oracle_refinement_order():
    prob = delta_problem()
    study = refinement_study(prob, 0.5, [4e-3, 2e-3], 0.2)
    assert study["orders"][0] >= 1.8
    gaps = [r["gap"] for r in study["rows"]]
    assert gaps[1] < gaps[0]


@pytest.mark.parametrize("atoms", [(), ((0, Fraction(1, 2)),)],
                         ids=["density", "density+atom"])
def test_density_measure_engine_oracle_order(atoms):
    prob = TransportProblem(
        measure=BoundedMeasure(atoms=atoms, density=half_box_density()),
        profile=canonical_profile(),
        initial=tent(),
        regularizer=canonical_regularizer(),
    )
    study = refinement_study(prob, 0.5, [4e-3, 2e-3, 1e-3], 0.2)
    assert min(study["orders"]) >= 1.9
    assert study["rows"][-1]["gap"] <= 1e-6


def test_kernel_with_density_matches_quadrature():
    density = half_box_density()
    mu = BoundedMeasure(density=density)
    g = canonical_profile()
    # the library's density branch, at lattice lags 0, 2, 5 and 8 of 0.15
    lagged = sample_lag_kernel(mu, g, 0.15, 8)
    for j, s in ((0, 0.0), (2, 0.3), (5, 0.75), (8, 1.2)):
        breaks = [float(b) - s for b in g.breakpoints]
        want, _ = scipy.integrate.quad(
            lambda x: float(density.eval(x)) * float(g.eval(x + s)),
            -0.5, 0.5, points=[b for b in breaks if -0.5 < b < 0.5],
            epsabs=1e-13, epsrel=1e-13)
        assert float(kernel(mu, g, s)) == pytest.approx(want, abs=1e-12)
        for samples in lagged:
            assert samples[j] == pytest.approx(want, abs=1e-12)


def test_two_atom_headline_configuration():
    # the flagship configuration at a coarser grid than the pinned one
    prob = two_atom_problem()
    out = engine_vs_oracle(prob, 1.0, 5e-3, 0.2)
    assert out["gap"] <= 1e-3


def test_sawtooth_problem_runs_without_regularizer():
    prob = TransportProblem(
        measure=BoundedMeasure.dirac(0),
        profile=sawtooth_profile(),
        initial=tent(),
    )
    op = build_rank_one(prob)
    assert op.analytic_volterra_bound(None, 0.3) == pytest.approx(0.3)
    out = engine_vs_oracle(prob, 0.5, 4e-3, 0.3)
    assert out["gap"] <= 1e-3


def test_run_perturbed_guard_violation():
    prob = delta_problem()
    with pytest.raises(GuardViolation):
        run_perturbed(prob, 0.5, 1e-2, 0.5)  # guard product exactly 1


def test_run_perturbed_zero_measure_identity():
    prob = delta_problem(weight=0)
    run = run_perturbed(prob, 0.4, 1e-2, 0.2)
    want = run.system.sample(tent().translate(0.4)).values
    xs = run.system.nodes()
    mask = (xs >= -3.0) & (xs <= 3.0)
    assert np.max(np.abs(run.state.values[mask] - want[mask])) < 1e-14


# ---------------------------------------------------------------------------
# geometry helpers


def test_make_system_origin_on_lattice():
    prob = two_atom_problem()
    sys_t = make_system(prob, 1e-3, 1.0, 0.2)
    assert sys_t.origin / 1e-3 == pytest.approx(round(sys_t.origin / 1e-3))
    # atoms land on grid nodes
    for loc, _ in prob.measure.atoms:
        pos = (float(loc) - sys_t.origin) / sys_t.spacing
        assert pos == pytest.approx(round(pos), abs=1e-9)
    assert sys_t.window.lo >= sys_t.origin
    assert sys_t.window.hi <= sys_t.x_last


@pytest.mark.parametrize("spacing, t, t0, what", [
    (0.0, 0.4, 0.2, "spacing"),
    (-1e-2, 0.4, 0.2, "spacing"),
    (math.nan, 0.4, 0.2, "spacing"),
    (math.inf, 0.4, 0.2, "spacing"),
    (1e-2, -0.4, 0.2, "t"),
    (1e-2, math.nan, 0.2, "t"),
    (1e-2, math.inf, 0.2, "t"),
    (1e-2, 0.4, -0.2, "t0"),
    (1e-2, 0.4, math.nan, "t0"),
])
def test_make_system_refuses_bad_geometry(spacing, t, t0, what):
    prob = delta_problem()
    match = f"^{what} must be"
    with pytest.raises(ValueError, match=match):
        make_system(prob, spacing, t, t0)
    if what == "spacing":
        with pytest.raises(ValueError, match=match):
            run_perturbed(prob, t, spacing, t0)


_EDGE_VALUES = [0.0, 1e-12, math.nan, math.inf, -math.inf, -0.25]


@settings(max_examples=80, deadline=None, database=None)
@given(spacing=st.one_of(st.sampled_from(_EDGE_VALUES),
                         st.floats(1e-3, 0.5)),
       t=st.one_of(st.sampled_from(_EDGE_VALUES), st.floats(-1.0, 4.0)),
       t0=st.one_of(st.sampled_from(_EDGE_VALUES), st.floats(-1.0, 1.0)))
def test_make_system_draw_works_or_is_refused_by_name(spacing, t, t0):
    # drawn spacings are at least 1e-3 (or 1e-12, refused by the ceiling
    # before anything is allocated), so a grid has at most ~2e4 nodes
    prob = delta_problem()
    try:
        system = make_system(prob, spacing, t, t0)
    except GridTooLarge as exc:
        assert spacing == 1e-12 and not exc.count <= MAX_GRID_NODES
        return
    except ValueError as exc:
        assert re.match(r"(spacing|t|t0) must be", str(exc))
        return
    assert system.spacing == spacing and system.count <= MAX_GRID_NODES
    assert system.origin <= float(prob.window.lo) - t - t0
    assert system.x_last >= float(prob.window.hi) + t + t0
    assert (system.window.lo, system.window.hi) == (prob.window.lo,
                                                    prob.window.hi)


@pytest.mark.parametrize("atom, spacing, t", [
    (1e300, 2e-3, 0.5),   # a far atom: about 5e302 nodes
    (0, 1e-9, 1e-8),      # a fine spacing: about 6.4e9 nodes, 48 GiB
    (1e308, 1e-9, 0.5),   # the node count overflows to inf
], ids=["far-atom", "fine-spacing", "overflow"])
def test_make_system_refuses_a_grid_past_the_ceiling(capped_address_space,
                                                     atom, spacing, t):
    prob = TransportProblem(BoundedMeasure.dirac(atom), canonical_profile(),
                            tent())
    with pytest.raises(GridTooLarge) as info:
        make_system(prob, spacing, t, 0.2)
    err = info.value
    assert not err.count <= MAX_GRID_NODES and err.spacing == spacing
    assert err.span == spacing * (err.count - 1)
    with pytest.raises(GridTooLarge):
        run_perturbed(prob, t, spacing, 0.2)


# ---------------------------------------------------------------------------
# comparison constants


def test_comparison_curve_short_time_limit():
    # sup|S(t)u - T(t)u|/t tends to |pairing(u)| sup|g| = 2 as t drops
    prob = delta_problem()
    out = comparison_curve(prob, [1e-3])
    assert out["rows"][0]["constant"] == pytest.approx(2.0, rel=5e-3)


def test_comparison_curve_matches_per_lag_loop():
    prob = two_atom_problem()
    xs = np.linspace(-3.0, 3.0, 601)
    for t in (1e-3, 0.25):
        dt = t / 128
        phi = oracle_weights(prob.measure, prob.profile, prob.initial, t, dt)
        acc = np.zeros(xs.size)
        for j in range(129):
            _, g, _ = sample_sided(prob.profile, xs + (128 - j) * dt,
                                   snap_tol=1e-9 * dt)
            acc += (0.5 if j in (0, 128) else 1.0) * phi[j] * g
        want = float(np.max(np.abs(acc))) * dt / t
        got = comparison_curve(prob, [t])["rows"][0]["constant"]
        assert got == pytest.approx(want, rel=1e-12)


_CUT_TIMES = [1e-3, 0.016, 0.128, 0.5, 1.0]


def _comparison_profiles():
    return {
        "canonical": canonical_profile(),
        "sawtooth": sawtooth_profile(),
        # nonzero on both ends: no column can be cut
        "open-ends": PiecewiseFunction([-1, 1], [[0.5], [1, 1], [0.25]]),
        # wholly left of the window [-3, 3]: nothing to sample
        "outside": canonical_profile().translate(10),
        # on [3.5, 5.5], right of the window: only the points within t
        # of its left edge reach it
        "beyond-right": canonical_profile().translate(-4.5),
        # two breakpoints within the snap tolerance 1e-9 dt of each other
        # for t >= 0.016: a lag in reach of both takes the left one's
        # jump midpoint, 3, not the right one's, 2.5
        "close-breaks": PiecewiseFunction([0.0, 1e-13], [[1], [5], [0]]),
    }


@pytest.mark.parametrize("name", list(_comparison_profiles()))
def test_comparison_curve_cut_matches_uncut_table(monkeypatch, name):
    # the prefix moments give the uncut table's constants to 1e-14
    # relative, with no profile sample of their own: every sample_sided
    # call comes from the weight solve's kernel and free term
    profile = _comparison_profiles()[name]
    prob = TransportProblem(BoundedMeasure.dirac(Fraction(1, 3)), profile,
                            tent())
    want = comparison_curve_uncut(prob, _CUT_TIMES)
    callers = []
    real = functions.sample_sided

    def spy(f, xs, **kw):
        callers.append(sys._getframe(1).f_code.co_name)
        return real(f, xs, **kw)

    monkeypatch.setattr(functions, "sample_sided", spy)
    monkeypatch.setattr(transport, "sample_sided", spy, raising=False)
    got = comparison_curve(prob, _CUT_TIMES)
    assert callers == ["sample_lag_kernel"] * (2 * len(_CUT_TIMES))
    for g, w in zip(got["rows"], want["rows"]):
        assert g["t"] == w["t"]
        assert g["constant"] == pytest.approx(w["constant"], rel=1e-14,
                                              abs=0.0)
    if name == "outside":
        assert [r["constant"] for r in got["rows"]] == [0.0] * len(_CUT_TIMES)
        assert got["constant"] == 0.0
    if name == "beyond-right":
        assert got["constant"] > 0


@pytest.mark.parametrize("t", [True, np.True_, float("nan"), float("inf"),
                               -float("inf"), 0.0, -0.5])
def test_comparison_curve_refuses_a_bad_time_by_name(monkeypatch, t):
    # refused up front: no weight solve runs, not even for the good t
    monkeypatch.setattr(transport, "oracle_weights",
                        lambda *args: pytest.fail("solved before refusing"))
    with pytest.raises(ValueError, match=r"comparison time t .* got "
                       + re.escape(repr(t))):
        comparison_curve(delta_problem(), [0.5, t])


@st.composite
def comparison_profiles(draw):
    """Piecewise polynomials of degree <= 3 on 1-4 breakpoints in
    [-2, 2] whose denominators divide 100, so that lags x + i dt of the
    0.01 window lattice can land on them, with nonzero constant ends."""
    denominators = [1, 2, 4, 5, 10, 20, 25, 50, 100]
    breaks = draw(st.lists(
        st.builds(lambda d, k: Fraction(k, d), st.sampled_from(denominators),
                  st.integers(-200, 200)).filter(lambda b: abs(b) <= 2),
        min_size=1, max_size=4, unique=True))
    coeff = st.fractions(-2, 2, max_denominator=8)
    nonzero = coeff.filter(lambda c: c != 0)
    inner = [draw(st.lists(coeff, min_size=1, max_size=4))
             for _ in breaks[1:]]
    return PiecewiseFunction(sorted(breaks),
                             [[draw(nonzero)], *inner, [draw(nonzero)]])


@settings(max_examples=150, deadline=None, database=None)
@given(profile=comparison_profiles(),
       atom=st.sampled_from([Fraction(0), Fraction(1, 3)]),
       t=st.sampled_from([1e-3 * 2 ** k for k in range(10)] + [1.0]))
def test_comparison_curve_matches_uncut_table_on_drawn_profiles(profile, atom,
                                                                 t):
    prob = TransportProblem(BoundedMeasure.dirac(atom), profile, tent())
    got = comparison_curve(prob, [t])["rows"][0]["constant"]
    want = comparison_curve_uncut(prob, [t])["rows"][0]["constant"]
    assert got == pytest.approx(want, rel=1e-13, abs=0.0)


def test_comparison_curve_dyadic_stability():
    prob = delta_problem()
    ts = [1e-3 * 2 ** k for k in range(10)] + [1.0]
    out = comparison_curve(prob, ts)
    assert out["stability_ratio"] <= 2.0
    consts = [r["constant"] for r in out["rows"]]
    assert all(c > 0 for c in consts)
