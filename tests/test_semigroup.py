from __future__ import annotations

import math
import os
import re
import subprocess
from pathlib import Path
from sys import executable

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from exact_reference import lattice_scan_one_operand
from matrix_helpers import validate
from semiperturb.errors import (
    GridTooLarge,
    HorizonExceeded,
    NotInStateSpace,
    StepMismatch,
)
from semiperturb.functions import (
    CompactInterval,
    tent,
    three_jump_profile,
    to_grid,
)
from semiperturb.semigroup import (
    MAX_GRID_NODES,
    LatticeStep,
    MatrixSystem,
    TranslationSystem,
    _lattice_steps,
    expm,
    lattice_scan,
    opnorm2,
    reconstruct,
)
from semiperturb.transport import (bump_function, corner_profile,
                                   sawtooth_profile)


# ---------------------------------------------------------------------------
# matrix exponential


def test_expm_diagonal_closed_form():
    A = np.diag([-1.0, -2.0, 0.5])
    E = expm(A)
    assert np.allclose(np.diag(E), np.exp(np.diag(A)), rtol=1e-14)
    assert np.allclose(E - np.diag(np.diag(E)), 0.0, atol=1e-15)


def test_expm_nilpotent_closed_form():
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert np.allclose(expm(A), [[1, 1], [0, 1]], atol=1e-15)


def test_expm_against_scipy_random():
    rng = np.random.default_rng(42)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        A = rng.normal(scale=2.0, size=(n, n))
        ours = expm(A)
        ref = scipy.linalg.expm(A)
        assert np.allclose(ours, ref, rtol=1e-12, atol=1e-12 * opnorm2(ref))


def test_expm_large_norm_scaling_branch():
    rng = np.random.default_rng(0)
    A = rng.normal(size=(5, 5))
    A *= 20.0 / opnorm2(A)
    ours = expm(A)
    ref = scipy.linalg.expm(A)
    assert opnorm2(ours - ref) <= 1e-12 * opnorm2(ref)


# ---------------------------------------------------------------------------
# matrix system


def _stable_system(seed=1, n=4):
    rng = np.random.default_rng(seed)
    A = rng.normal(scale=0.6, size=(n, n))
    A -= (max(np.linalg.eigvals(A).real) + 0.5) * np.eye(n)
    return MatrixSystem(A)


def test_matrix_system_validate():
    sys = _stable_system()
    assert validate(sys)


def test_matrix_log_norm_is_the_top_eigenvalue_of_the_symmetric_part():
    # non-normal A: mu_2 lies well above the spectral abscissa, and
    # validate checks ||T(t)||_2 <= e^{mu_2 t}; a generator whose
    # exponentials underflow to 0 passes too
    A = np.array([[-1.0, 20.0], [0.0, -2.0]])
    sys = MatrixSystem(A)
    want = scipy.linalg.eigh((A + A.T) / 2, eigvals_only=True)[-1]
    assert sys.log_norm == pytest.approx(want, rel=1e-14)
    assert sys.log_norm > 8.0 > np.max(np.linalg.eigvals(A).real)
    assert validate(sys)
    assert validate(MatrixSystem(-1e300 * np.eye(2)))
    assert TranslationSystem.log_norm == 0.0


def test_matrix_system_validate_reports_identity_gap():
    # T(0) = exp(0) + 1e-9 I misses the identity; a bare assert would
    # let that pass silently under python -O
    code = ("import numpy as np\n"
            "from matrix_helpers import validate\n"
            "from semiperturb.semigroup import MatrixSystem\n"
            "class S(MatrixSystem):\n"
            "    def propagator(self, t):\n"
            "        return super().propagator(t) + 1e-9 * np.eye(2)\n"
            "try:\n"
            "    validate(S(np.diag([-1.0, -2.0])))\n"
            "except AssertionError as exc:\n"
            "    print(exc)\n")
    here = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(here.parent / "src"), str(here)]
        + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    for flags in ([], ["-O"]):
        proc = subprocess.run([executable, *flags, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        assert proc.stdout.strip() == "T(0) misses the identity by 1.000e-09"


def test_matrix_horizon():
    # the matrix semigroup runs on [0, inf): only negative times are refused
    sys = MatrixSystem(np.diag([-1.0]))
    assert (sys.propagator(50.0) @ np.array([1.0]))[0] \
        == pytest.approx(math.exp(-50))
    with pytest.raises(HorizonExceeded):
        sys.propagator(-0.5)
    with pytest.raises(HorizonExceeded):
        sys.orbit_rows(np.eye(1), 3, -0.4)


def test_matrix_powers_match_per_lag_expm():
    # the lattice powers T(dt)^q are the orbit of the identity
    sys = _stable_system(seed=3)
    P = sys.orbit_rows(np.eye(4), 40, 0.05)
    assert P.shape == (41, 4, 4)
    assert np.array_equal(P[0], np.eye(4))
    for q in (1, 7, 40):
        ref = scipy.linalg.expm(q * 0.05 * sys.A)
        assert opnorm2(P[q] - ref) <= 1e-13 * opnorm2(ref)


def test_matrix_powers_of_zero_steps_is_identity():
    sys = _stable_system(seed=3)
    P = sys.orbit_rows(np.eye(4), 0, 0.05)
    assert P.shape == (1, 4, 4)
    assert np.array_equal(P[0], np.eye(4))


def _sequential_scan(E, b):
    """c[q] = E c[q-1] + b[q], one lattice step at a time."""
    c = np.array(b, dtype=float)
    for q in range(1, len(c)):
        c[q] = E @ c[q - 1] + c[q]
    return c


_SCAN_LENGTHS = sorted({1, 2} | {2**j + d for j in range(1, 10)
                                 for d in (-1, 0, 1)})


@settings(max_examples=150, deadline=None, database=None)
@given(n=st.integers(1, 6), k=st.sampled_from([None, 1, 2, 5]),
       length=st.sampled_from(_SCAN_LENGTHS),
       radius=st.floats(0.0, 1.05), seed=st.integers(0, 2**32 - 1))
def test_lattice_scan_matches_sequential_recurrence(n, k, length, radius,
                                                    seed):
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((n, n))
    E = G * (radius / max(abs(np.linalg.eigvals(G))))
    b = rng.standard_normal((length, n) if k is None else (length, n, k))
    before = b.copy()
    got = lattice_scan(E, b)
    want = _sequential_scan(E, b)
    assert got.shape == b.shape
    assert np.array_equal(b, before)
    assert np.array_equal(got[0], b[0])
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@settings(max_examples=60, deadline=None, database=None)
@given(n=st.integers(1, 5), k=st.sampled_from([None, 1, 3]),
       m1=st.sampled_from([1, 2, 3, 64, 501]),
       seed=st.integers(0, 2**32 - 1))
def test_prepared_step_scans_bit_for_bit_as_one_operand(n, k, m1, seed):
    # a fresh step, one whose powers an earlier scan squared, and one
    # squared past this scan's need all give the one-operand products
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((n, n))
    E = G * (0.95 / max(abs(np.linalg.eigvals(G))))
    b = rng.standard_normal((m1, n) if k is None else (m1, n, k))
    want = lattice_scan_one_operand(E, b).tobytes()
    step = LatticeStep(E)
    assert lattice_scan(step, b).tobytes() == want
    assert lattice_scan(step, b).tobytes() == want
    squared = LatticeStep(E)
    squared.power(12)
    assert lattice_scan(squared, b).tobytes() == want
    assert lattice_scan(E, b).tobytes() == want


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_matrix_system_refuses_non_finite_entries(bad):
    A = np.diag([-1.0, -2.0])
    A[0, 1] = bad
    with pytest.raises(ValueError, match="A: 1 of 4 entries are NaN or Inf"):
        MatrixSystem(A)


# ---------------------------------------------------------------------------
# translation system


def make_translation(spacing=0.01, half_width=4.0, horizon=1.5):
    count = int(round(2 * half_width / spacing)) + 1
    return TranslationSystem(-half_width, spacing, count, horizon)


def test_translation_shift_is_exact():
    sys = make_translation()
    f = sys.sample(tent())
    k = _lattice_steps(0.5, sys.spacing)
    g = sys.make(sys.orbit_rows(f.values, 1, 0.5)[1])
    # exact index shift, no interpolation
    assert np.array_equal(g.values[:-k], f.values[k:])
    shifted = sys.sample(tent().translate(0.5))
    mask = sys.window_mask()
    assert np.max(np.abs(g.values[mask] - shifted.values[mask])) <= 1e-12


def test_translation_semigroup_law_exact_on_window():
    sys = make_translation()
    f = sys.sample(tent()).values
    lhs = sys.orbit_rows(sys.orbit_rows(f, 1, 0.2)[1], 1, 0.3)[1]
    rhs = sys.orbit_rows(f, 1, 0.5)[1]
    assert np.array_equal(lhs, rhs)


def test_translation_rejects_off_lattice_steps():
    with pytest.raises(StepMismatch, match=re.escape(
            "dt 0.005 is not a multiple of spacing=0.01")):
        make_translation().orbit_rows(np.zeros(801), 1, 0.005)


@pytest.mark.parametrize("dt, words", [
    (math.inf, "dt must be finite, got inf"),
    (math.nan, "dt must be finite, got nan"),
    (1e300, "dt 1e+300 is 1e+302 steps of spacing=0.01, past the "
     "ceiling"),
], ids=["inf", "nan", "past-ceiling"])
def test_translation_orbit_refuses_non_finite_or_huge_dt(dt, words):
    # refused by the one lattice-step rule, before any padding is built:
    # not an OverflowError, a float-to-int ValueError or numpy's
    # "Maximum allowed dimension exceeded"
    with pytest.raises(StepMismatch, match=re.escape(words)):
        make_translation().orbit_rows(np.zeros(801), 1, dt)


def test_window_stays_clear_of_edges():
    with pytest.raises(ValueError):
        TranslationSystem(-4.0, 0.01, 801, 1.0, window=CompactInterval(-4.0, 4.0))


def test_translation_orbit_step_below_one_spacing_is_refused():
    # dt = 1e-12 rounds to 0 lattice steps: a named StepMismatch, not
    # numpy's "slice step cannot be zero"
    sys = TranslationSystem(0.0, 1e-2, 101, 0.1)
    with pytest.raises(StepMismatch, match=r"dt = 1e-12 is 0 lattice "
                       r"steps of spacing 0\.01"):
        sys.orbit_rows(np.zeros(101), 1, 1e-12)


@pytest.mark.parametrize("spacing", [0.0, -0.01, math.nan, math.inf])
def test_translation_refuses_bad_spacing(spacing):
    with pytest.raises(ValueError, match="spacing must be positive"):
        TranslationSystem(-1.0, spacing, 100, 0.2)


@pytest.mark.parametrize("horizon", [-1.0, math.nan, math.inf])
def test_translation_refuses_bad_horizon(horizon):
    with pytest.raises(ValueError, match="horizon must be nonnegative"):
        TranslationSystem(-1.0, 0.01, 100, horizon)


@pytest.mark.parametrize("origin, spacing, count", [
    (-4.0, 0.01, 801), (-3.7, 0.013, 700), (-6.254, 2e-3, 3705)])
def test_translation_nodes_are_kept_read_only(origin, spacing, count):
    sys = TranslationSystem(origin, spacing, count, 0.5)
    xs = sys.nodes()
    assert xs is sys.nodes()
    assert xs.tobytes() == (origin + spacing * np.arange(count)).tobytes()
    with pytest.raises(ValueError, match="read-only"):
        xs[0] = 0.0
    stock = [three_jump_profile(), tent(), tent().translate(0.37),
             sawtooth_profile(), bump_function(),
             corner_profile(three_jump_profile())]
    for f in stock:
        want = to_grid(f, origin, spacing, count)
        got = sys.sample(f)
        assert got.values.tobytes() == want.values.tobytes()
        assert (got.origin, got.spacing) == (want.origin, want.spacing)


# ---------------------------------------------------------------------------
# reconstruct: (1 - A) u from regularized coordinates u


def test_matrix_reconstruct_is_refused():
    # on R^n the extrapolation space is the state space: nothing to recover
    sys = _stable_system(seed=11)
    with pytest.raises(TypeError, match="TranslationSystem, not on a "
                                        "MatrixSystem"):
        reconstruct(sys, np.ones(4))


def test_translation_reconstruct_smooth_round_trip():
    # (1 - d/dx) exp(-x^2) = (1 + 2x) exp(-x^2), to O(spacing^2)
    sys = make_translation(spacing=0.005)
    xs = sys.nodes()
    out = reconstruct(sys, sys.make(np.exp(-(xs**2))))
    want = (1 + 2 * xs) * np.exp(-(xs**2))
    mask = sys.window_mask()
    assert np.max(np.abs(out.values[mask] - want[mask])) <= 5e-5


def test_reconstruct_rejects_tent_difference():
    # (1 - d/dx) of the tent has jumps: the curvature test must fire
    sys = make_translation(spacing=0.005)
    with pytest.raises(NotInStateSpace) as exc:
        reconstruct(sys, sys.sample(tent()))
    assert exc.value.curvature > exc.value.threshold


def test_translation_system_refuses_a_grid_past_the_ceiling(
        capped_address_space):
    # the count is checked before anything is allocated; a system at the
    # ceiling itself allocates nothing either
    assert TranslationSystem(0.0, 1e-3, MAX_GRID_NODES, 0.0).count \
        == MAX_GRID_NODES
    with pytest.raises(GridTooLarge, match="6e\\+09 nodes") as info:
        TranslationSystem(-3.0, 1e-9, 6_000_000_001, 0.0)
    err = info.value
    assert (err.count, err.spacing, err.span) == (6_000_000_001, 1e-9, 6.0)
