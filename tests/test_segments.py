"""Rank-one segments joined in weight space.

``neumann_semigroup`` on a grid carries each segment's summed pairings
and builds the grid state once, at t.  Its reference is the per-segment
restart: each segment's series applied to the grid state the segment
before it left, by ``neumann_nodes`` or by a one-segment
``_run_segments`` under the run's guard.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semiperturb import perturbation
from semiperturb.errors import StepMismatch
from semiperturb.functions import (
    BoundedMeasure,
    PiecewiseFunction,
    pair_rows,
    reconstruction_nodes,
    tent,
)
from semiperturb.perturbation import (
    PerturbationOperator,
    SeriesDiagnostics,
    neumann_nodes,
    neumann_semigroup,
)
from semiperturb.semigroup import _lattice_steps
from semiperturb.transport import (
    TransportProblem,
    build_rank_one,
    canonical_profile,
    canonical_regularizer,
    make_system,
    sawtooth_profile,
)


def half_box_density():
    # density 1/2 on (-1/2, 1/2], total mass 1
    return PiecewiseFunction([Fraction(-1, 2), Fraction(1, 2)],
                             [[0], [Fraction(1, 2)], [0]])


def _problem(measure, profile=None):
    return TransportProblem(
        measure=measure,
        profile=canonical_profile() if profile is None else profile,
        initial=tent(), regularizer=canonical_regularizer())


PROBLEMS = {
    "two-atom": lambda: _problem(BoundedMeasure(
        atoms=((0, 1), (Fraction(3, 10), Fraction(1, 2))))),
    "dirac-1/3": lambda: _problem(BoundedMeasure.dirac(Fraction(1, 3))),
    "density": lambda: _problem(BoundedMeasure(density=half_box_density())),
    "density+atom": lambda: _problem(BoundedMeasure(
        atoms=((0, Fraction(1, 2)),), density=half_box_density())),
    "sawtooth": lambda: TransportProblem(
        BoundedMeasure.dirac(0), sawtooth_profile(), tent()),
}


def _lengths(t, t0, dt):
    """The segment lengths of ``neumann_semigroup``: the short one
    first."""
    n_full, m_rest = divmod(_lattice_steps(t, dt), _lattice_steps(t0, dt))
    return [m_rest] * bool(m_rest) + [_lattice_steps(t0, dt)] * n_full


def _restarted(system, op, x, t, t0, dt, tol, segment):
    """The per-segment restart: ``segment(state, m)`` maps a grid state
    to S(m dt) of it and that segment's diagnostics; merged as
    ``neumann_semigroup`` merges them, under the guard of t0."""
    state = system.make(system.state_values(x))
    merged = SeriesDiagnostics(0, [], op.analytic_volterra_bound(system, t0),
                               segments=0)
    for m in _lengths(t, t0, dt):
        state, diag = segment(state, m)
        merged = merged.merge(diag)
    return state, merged


def _assert_agrees(system, got, want, rtol=1e-12):
    (got, got_diag), (want, want_diag) = got, want
    mask = system.window_mask()
    scale = np.max(np.abs(want.values[mask]))
    assert np.max(np.abs(got.values - want.values)[mask]) <= rtol * scale
    assert (got_diag.terms_used, got_diag.segments, got_diag.term_norms) \
        == (want_diag.terms_used, want_diag.segments, want_diag.term_norms)


@pytest.mark.parametrize("name", PROBLEMS)
@pytest.mark.parametrize("t, t0", [(2.0, 0.2), (0.5, 0.2), (0.1, 0.2),
                                   (0.0, 0.2)],
                         ids=["ten-segments", "remainder-first", "below-t0",
                              "zero"])
def test_weight_space_run_matches_per_segment_restarts(name, t, t0):
    # on and off the lattice, with a density, and with a profile that
    # reaches past the grid; every segment restarted by neumann_nodes
    prob = PROBLEMS[name]()
    dt, tol = 4e-3, 1e-11
    system = make_system(prob, dt, t, t0)

    def restart(state, m):
        (out,), diag = neumann_nodes(system, build_rank_one(prob), state,
                                     m * dt, [m], dt, tol)
        return out, diag

    got = neumann_semigroup(system, build_rank_one(prob), prob.initial, t,
                            t0, dt, tol=tol, diagnostics=True)
    want = _restarted(system, build_rank_one(prob), prob.initial, t, t0, dt,
                      tol, restart)
    assert got[1].segments == len(_lengths(t, t0, dt))
    _assert_agrees(system, got, want)


@settings(max_examples=60, deadline=None, database=None)
@given(atoms=st.lists(st.tuples(st.integers(-6, 6), st.integers(1, 7),
                                st.integers(-3, 3).filter(bool)),
                      min_size=1, max_size=2),
       density=st.booleans(), dt=st.sampled_from([4e-3, 5e-3, 1e-2]),
       m0=st.integers(5, 40), n_full=st.integers(0, 4),
       m_rest=st.integers(1, 39), budget=st.floats(0.05, 0.95))
def test_weight_space_run_matches_restarts_on_drawn_problems(
        atoms, density, dt, m0, n_full, m_rest, budget):
    # rational atoms k/d on and off the lattice, an optional density, a
    # lattice t with a remainder; the profile is scaled to the drawn
    # share of the guard budget.  The restarts run the per-segment
    # series under the run's one guard, as the weight-space run does:
    # neumann_nodes would guard a short segment by its own horizon,
    # which may stop its series one term apart
    m_rest = m_rest % m0 or 1
    measure = BoundedMeasure(
        atoms=[(Fraction(k, d), Fraction(w, 2)) for k, d, w in atoms],
        density=half_box_density() if density else None)
    t0, t = m0 * dt, (n_full * m0 + m_rest) * dt
    g = canonical_profile()
    g = g.scale(budget / (t0 * measure.total_variation() * g.sup_norm()))
    prob = TransportProblem(measure, g, tent())
    system = make_system(prob, dt, t, t0)
    op = build_rank_one(prob)
    guard = op.analytic_volterra_bound(system, t0)
    assert guard < 1

    def restart(state, m):
        (out,), (diag,) = op._run_segments(system, state.values, [m], [m],
                                           dt, 1e-11, guard)
        return out, diag

    got = neumann_semigroup(system, op, prob.initial, t, t0, dt, tol=1e-11,
                            diagnostics=True)
    want = _restarted(system, op, prob.initial, t, t0, dt, 1e-11, restart)
    _assert_agrees(system, got, want)


def _per_state_nodes(system, op, x, m, steps, dt, tol):
    """The retired per-state formula of one segment: the materialised
    orbit window of x plus the reconstruction of the renewal weights of
    the window's ``pair_rows`` pairings, at the steps."""
    series, _ = perturbation._segment_series(
        system, op, m, [m], dt, tol, op.analytic_volterra_bound(system,
                                                                m * dt))
    window = system.orbit_rows(system.state_values(x), m, dt)
    phi = perturbation._renewal_weights(series,
                                        pair_rows(op.measure, system, window))
    conv = perturbation._convolved_nodes(system, op, phi, dt, steps, (),
                                         np.zeros(system.count))
    return [window[j] + c for j, c in zip(steps, conv)]


@pytest.mark.parametrize("name, rtol", [
    ("two-atom", 0.0), ("dirac-1/3", 0.0), ("sawtooth", 0.0),
    ("density", 1e-15)])
def test_neumann_nodes_keeps_the_per_state_formula(name, rtol):
    # neumann_nodes now runs the one segment hook, whose free pairings
    # come from pair_shifts; the atoms read it bit for bit as pair_rows
    # of the materialised window, the density's correlation to rounding
    prob = PROBLEMS[name]()
    dt, t0, tol = 4e-3, 0.2, 1e-11
    m = _lattice_steps(t0, dt)
    steps = [0, 1, m // 4, m // 2, m]
    system = make_system(prob, dt, t0, t0)
    op = build_rank_one(prob)
    got, _ = neumann_nodes(system, op, prob.initial, t0, steps, dt, tol)
    want = _per_state_nodes(system, op, prob.initial, m, steps, dt, tol)
    for g, w in zip(got, want):
        assert np.max(np.abs(g.values - w)) <= rtol * np.max(np.abs(w))


@pytest.mark.parametrize("run, builds", [
    (lambda s, op, x: neumann_nodes(s, op, x, 0.2, [0, 25, 50], 4e-3), 0),
    (lambda s, op, x: neumann_semigroup(s, op, x, 0.2, 0.2, 4e-3), 0),
    (lambda s, op, x: neumann_semigroup(s, op, x, 0.1, 0.2, 4e-3), 0),
    (lambda s, op, x: neumann_semigroup(s, op, x, 2.0, 0.2, 4e-3), 1)],
    ids=["nodes", "semigroup-t0", "semigroup-below-t0",
         "semigroup-ten-segments"])
def test_history_kernel_is_built_only_for_a_later_segment(monkeypatch, run,
                                                           builds):
    # a single segment reads no history, so its run builds no kernel
    prob = PROBLEMS["two-atom"]()
    system = make_system(prob, 4e-3, 2.0, 0.2)
    real = perturbation.RankOneOperator._history_kernel
    calls = []
    monkeypatch.setattr(perturbation.RankOneOperator, "_history_kernel",
                        lambda *args: calls.append(args) or real(*args))
    run(system, build_rank_one(prob), prob.initial)
    assert len(calls) == builds


@pytest.mark.parametrize("name", ["two-atom", "dirac-1/3", "density+atom"])
def test_history_kernel_pairs_the_shifted_rebuild(name):
    # node p of the history kernel's reconstruction of a segment's
    # weights is pair_rows of that segment's rebuilt part p nodes later:
    # the reconstruction against the lattice extended n steps, not
    # continued past the grid
    prob = PROBLEMS[name]()
    dt, n, m = 4e-3, 400, 50
    system = make_system(prob, dt, n * dt, m * dt)
    op = build_rank_one(prob)
    rec = op._lattice(op.profile, system, n)
    phi = np.cos(np.linspace(0.0, 3.0, m + 1)) + 0.5
    k0, vals = reconstruction_nodes(phi, rec, system.count + n)
    rebuilt = np.zeros(system.count + n)
    rebuilt[k0:k0 + vals.size] = vals
    rows = np.lib.stride_tricks.sliding_window_view(
        rebuilt, system.count)[:n - m + 1]
    want = pair_rows(op.measure, system, rows)
    kappa = op._history_kernel(system, rec, n + 1)
    k0, vals = reconstruction_nodes(phi, kappa, n - m + 1)
    got = np.zeros(n - m + 1)
    got[k0:k0 + vals.size] = vals
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    # cut to its support: well short of the n + 1 shifts
    assert 0 < kappa.operand.values.size < n + 1


def test_ten_segment_run_rebuilds_the_grid_once(monkeypatch):
    # one whole-grid reconstruction per run (one per segment when every
    # segment rebuilt its grid state); the nine history products are
    # n - T + 1 nodes long
    prob = PROBLEMS["two-atom"]()
    dt, t, t0 = 4e-3, 2.0, 0.2
    system = make_system(prob, dt, t, t0)
    real = perturbation.reconstruction_nodes
    counts = []
    monkeypatch.setattr(perturbation, "reconstruction_nodes",
                        lambda phi, rec, count: counts.append(count)
                        or real(phi, rec, count))
    _, diag = neumann_semigroup(system, build_rank_one(prob), prob.initial,
                                t, t0, dt, diagnostics=True)
    n, m0 = _lattice_steps(t, dt), _lattice_steps(t0, dt)
    assert diag.segments == 10
    assert counts.count(system.count) == 1
    assert sorted(c for c in counts if c != system.count) \
        == sorted(n - j * m0 + 1 for j in range(1, 10))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_state_is_refused_before_any_series(monkeypatch, bad):
    prob = PROBLEMS["two-atom"]()
    dt = 1e-2
    system = make_system(prob, dt, 1.0, 0.2)
    vals = system.sample(prob.initial).values.copy()
    vals[7] = bad
    runs = []
    monkeypatch.setattr(perturbation.RankOneOperator, "_series",
                        lambda *args: runs.append(args))
    with pytest.raises(ValueError, match=f"state x: 1 of {vals.size} "
                       "entries are NaN or Inf"):
        neumann_semigroup(system, build_rank_one(prob), system.make(vals),
                          1.0, 0.2, dt)
    assert runs == []


def test_non_finite_result_is_refused_by_name():
    # a finite state near the float range whose weights overflow
    prob = PROBLEMS["two-atom"]()
    dt = 1e-2
    system = make_system(prob, dt, 1.0, 0.2)
    x = system.make(1.7e308 * system.sample(prob.initial).values)
    op = PerturbationOperator.rank_one(prob.measure, prob.profile)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match=r"S\(n dt\) x at n = 100, "
                           r"dt = 0\.01: \d+ of \d+ entries are NaN or Inf"):
            neumann_semigroup(system, op, x, 1.0, 0.2, dt)


def test_step_other_than_the_spacing_is_refused_before_any_table(
        monkeypatch):
    # translation quadrature needs dt equal to the grid spacing; a run at
    # twice the spacing builds no lattice before it is refused
    prob = PROBLEMS["two-atom"]()
    system = make_system(prob, 1e-2, 1.0, 0.2)
    built = []
    monkeypatch.setattr(perturbation.RankOneOperator, "_lattice",
                        lambda *args: built.append(args))
    with pytest.raises(StepMismatch, match="needs dt equal to the grid "
                       r"spacing \(dt=0\.02, spacing=0\.01\)"):
        neumann_semigroup(system, build_rank_one(prob), prob.initial, 1.0,
                          0.2, 2e-2)
    assert built == []
