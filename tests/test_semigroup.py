from __future__ import annotations

import math
import os
import subprocess
from pathlib import Path
from sys import executable

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from semiperturb.errors import HorizonExceeded, NotInStateSpace, StepMismatch
from semiperturb.functions import CompactInterval, PiecewiseFunction, tent
from semiperturb.semigroup import (
    MatrixSystem,
    TranslationSystem,
    expm,
    lattice_scan,
    opnorm2,
    reconstruct,
)


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
    assert sys.validate()


def test_matrix_system_validate_reports_identity_gap():
    # T(0) = exp(0) + 1e-9 I misses the identity; a bare assert would
    # let that pass silently under python -O
    code = ("import numpy as np\n"
            "from semiperturb.semigroup import MatrixSystem\n"
            "class S(MatrixSystem):\n"
            "    def propagator(self, t):\n"
            "        return super().propagator(t) + 1e-9 * np.eye(2)\n"
            "try:\n"
            "    S(np.diag([-1.0, -2.0])).validate()\n"
            "except AssertionError as exc:\n"
            "    print(exc)\n")
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    for flags in ([], ["-O"]):
        proc = subprocess.run([executable, *flags, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        assert proc.stdout.strip() == "T(0) misses the identity by 1.000e-09"


def test_matrix_resolvent_identity():
    sys = _stable_system(seed=5)
    lam, mu = 1.0, 2.5
    Rl = sys.resolvent(lam, np.eye(4))
    Rm = sys.resolvent(mu, np.eye(4))
    assert opnorm2(Rl - Rm - (mu - lam) * Rl @ Rm) <= 1e-13


def test_matrix_resolvent_inverts():
    sys = _stable_system(seed=9)
    x = np.array([1.0, -2.0, 0.5, 3.0])
    y = sys.resolvent(1.0, x)
    assert np.allclose((np.eye(4) - sys.A) @ y, x, atol=1e-12)
    with pytest.raises(ValueError):
        sys.resolvent(sys.growth_bound - 0.1, x)


def test_matrix_horizon():
    # the matrix semigroup runs on [0, inf): only negative times are refused
    sys = MatrixSystem(np.diag([-1.0]))
    assert sys.apply(50.0, np.array([1.0]))[0] == pytest.approx(math.exp(-50))
    with pytest.raises(HorizonExceeded):
        sys.apply(-0.5, np.array([1.0]))
    with pytest.raises(HorizonExceeded):
        sys.powers(-0.4, 3)


def test_matrix_powers_match_per_lag_expm():
    sys = _stable_system(seed=3)
    P = sys.powers(0.05, 40)
    assert P.shape == (41, 4, 4)
    assert np.array_equal(P[0], np.eye(4))
    for q in (1, 7, 40):
        ref = scipy.linalg.expm(q * 0.05 * sys.A)
        assert opnorm2(P[q] - ref) <= 1e-13 * opnorm2(ref)


def test_matrix_powers_of_zero_steps_is_identity():
    sys = _stable_system(seed=3)
    P = sys.powers(0.05, 0)
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


def test_matrix_bound_constant_matches_linspace_sweep():
    sys = _stable_system(seed=4)
    want = max(opnorm2(scipy.linalg.expm(t * sys.A)) * math.exp(
        -sys.growth_bound * t) for t in np.linspace(0.0, 2.0, 81))
    assert sys.bound_constant == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# translation system


def make_translation(spacing=0.01, half_width=4.0, horizon=1.5):
    count = int(round(2 * half_width / spacing)) + 1
    return TranslationSystem(-half_width, spacing, count, horizon)


def test_translation_shift_is_exact():
    sys = make_translation()
    f = sys.sample(tent())
    g = sys.apply(0.5, f)
    k = sys.steps_of(0.5)
    # exact index shift, no interpolation
    assert np.array_equal(g.values[:-k], f.values[k:])
    shifted = sys.sample(tent().translate(0.5))
    mask = sys.window_mask()
    assert np.max(np.abs(g.values[mask] - shifted.values[mask])) <= 1e-12


def test_translation_semigroup_law_exact_on_window():
    sys = make_translation()
    f = sys.sample(tent())
    lhs = sys.apply(0.3, sys.apply(0.2, f))
    rhs = sys.apply(0.5, f)
    assert np.array_equal(lhs.values, rhs.values)


def test_translation_rejects_off_lattice_and_beyond_horizon():
    sys = make_translation()
    f = sys.sample(tent())
    with pytest.raises(StepMismatch):
        sys.apply(0.005, f)
    with pytest.raises(HorizonExceeded):
        sys.apply(2.0, f)


def test_window_stays_clear_of_edges():
    with pytest.raises(ValueError):
        TranslationSystem(-4.0, 0.01, 801, 1.0, window=CompactInterval(-4.0, 4.0))


@pytest.mark.parametrize("spacing", [0.0, -0.01, math.nan, math.inf])
def test_translation_refuses_bad_spacing(spacing):
    with pytest.raises(ValueError, match="spacing must be positive"):
        TranslationSystem(-1.0, spacing, 100, 0.2)


@pytest.mark.parametrize("horizon", [-1.0, math.nan, math.inf])
def test_translation_refuses_bad_horizon(horizon):
    with pytest.raises(ValueError, match="horizon must be nonnegative"):
        TranslationSystem(-1.0, 0.01, 100, horizon)


def test_resolvent_of_constant_one():
    sys = make_translation(spacing=0.01)
    one = sys.make(np.ones(sys.count))
    r = sys.resolvent(1.0, one)
    assert abs(r.values[sys.count // 2] - 1.0) <= 2e-5  # O(spacing^2)


def test_resolvent_of_tent_closed_form():
    # int_0^inf e^{-s} h(s) ds = 1/e at x = 0
    errs = []
    for spacing in (0.02, 0.01):
        sys = make_translation(spacing=spacing)
        r = sys.resolvent(1.0, sys.sample(tent()))
        i0 = sys.steps_of(0.0 - sys.origin)
        errs.append(abs(r.values[i0] - math.exp(-1.0)))
    assert errs[1] <= errs[0] / 3.0  # second-order refinement
    assert errs[1] <= 5e-5


def test_resolvent_residual_on_window():
    # (lam - d/dx) R f = f up to O(spacing^2), checked by centered differences
    sys = make_translation(spacing=0.005)
    xs = sys.nodes()
    f = sys.make(np.exp(-(xs**2)))  # smooth probe keeps the check second order
    lam = 1.5
    r = sys.resolvent(lam, f)
    dr = sys.derivative_values(r.values)
    resid = lam * r.values - dr - f.values
    mask = sys.window_mask()
    assert np.max(np.abs(resid[mask])) <= 5e-4
    # kinked probes lose one order only at the kink nodes
    rk = sys.resolvent(lam, sys.sample(tent()))
    resid_k = lam * rk.values - sys.derivative_values(rk.values) - sys.sample(tent()).values
    assert np.max(np.abs(resid_k[mask])) <= 5 * sys.spacing


def test_resolvent_requires_lam_above_growth_bound():
    sys = make_translation()
    with pytest.raises(ValueError):
        sys.resolvent(0.0, sys.sample(tent()))


# ---------------------------------------------------------------------------
# regularized coordinates: x embeds as u = R(1, A) x, the generator image
# A_ext x is u = R(1, A) x - x, and the extended semigroup acts on u


def lift(sys, x):
    return sys.resolvent(1.0, x)


def generator_image(sys, x):
    return sys.resolvent(1.0, x) - x


def test_matrix_embedding_example():
    sys = MatrixSystem(np.diag([-1.0]))
    x = np.array([1.0])
    assert np.allclose(lift(sys, x), [0.5])
    assert np.allclose(generator_image(sys, x), [-0.5])


def test_matrix_reconstruct_round_trip():
    sys = _stable_system(seed=11)
    rng = np.random.default_rng(2)
    for _ in range(5):
        x = rng.normal(size=4)
        assert np.allclose(reconstruct(sys, lift(sys, x)), x, atol=1e-12)


def test_translation_reconstruct_smooth_round_trip():
    sys = make_translation(spacing=0.005)
    xs = sys.nodes()
    smooth = sys.make(np.exp(-(xs**2)))
    out = reconstruct(sys, lift(sys, smooth))
    mask = sys.window_mask()
    assert np.max(np.abs(out.values[mask] - smooth.values[mask])) <= 5e-4


def test_reconstruct_rejects_tent_difference():
    # lift(h) - generator_image(h) has regularized part h itself, and
    # (1 - d/dx) h has jumps: the curvature test must fire
    sys = make_translation(spacing=0.005)
    h = sys.sample(tent())
    u = lift(sys, h) - generator_image(sys, h)
    assert np.max(np.abs(u.values - h.values)) <= 1e-12
    with pytest.raises(NotInStateSpace) as exc:
        reconstruct(sys, u)
    assert exc.value.curvature > exc.value.threshold


def test_extrapolation_norm_and_seminorm():
    sys = make_translation()
    h = sys.sample(tent())
    u = generator_image(sys, h)
    assert u.sup_norm() <= 1.0 + 1e-12  # ||R(1)h - h|| <= 2 ||h||, usually smaller
    K = CompactInterval(-1.0, 1.0)
    assert u.seminorm(K) <= u.sup_norm() + 1e-12


def test_seminorm_domination_identity():
    # x = u - u_A pointwise, so p_K(x) <= p_K(u) + p_K(u_A) with L = 1
    sys = make_translation()
    K = CompactInterval(-2.0, 2.0)
    for probe in (tent(), tent().translate(1.0)):
        x = sys.sample(probe)
        u = lift(sys, x)
        uA = generator_image(sys, x)
        assert x.seminorm(K) <= u.seminorm(K) + uA.seminorm(K) + 1e-10


def test_extended_apply_commutes_with_lift():
    sys = make_translation(spacing=0.01)
    x = sys.sample(tent())
    lhs = sys.apply(0.3, lift(sys, x))
    rhs = lift(sys, sys.apply(0.3, x))
    mask = sys.window_mask()
    assert np.max(np.abs(lhs.values[mask] - rhs.values[mask])) <= 1e-12


def test_extrapolated_element_algebra():
    # regularized coordinates are linear in the state
    sys = MatrixSystem(np.diag([-1.0, -2.0]))
    a = lift(sys, np.array([1.0, 0.0]))
    b = lift(sys, np.array([0.0, 1.0]))
    assert np.allclose(a + b, lift(sys, np.array([1.0, 1.0])))
    assert np.allclose(lift(sys, np.array([2.0, 0.0])), 2 * a)
