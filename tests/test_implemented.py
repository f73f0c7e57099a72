from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg

from semiperturb.errors import NonMultiplicative
from semiperturb.implemented import (
    ImplementedSemigroup,
    SuperOperator,
    comparison_equivalence,
    euler_check,
    extract_perturbation,
    hille_yosida_check,
    lift_perturbation,
    perturbed_implemented,
    pseudoresolvent_extract,
    random_stable_pair,
    superop_norm,
)
from semiperturb.perturbation import PerturbationOperator, varpar_residual
from semiperturb.semigroup import MatrixSystem, opnorm2


def resolvent_family(A):
    n = A.shape[0]

    def fn(lam):
        return SuperOperator.left_multiplication(
            np.linalg.solve(lam * np.eye(n) - A, np.eye(n)))

    return fn


# ---------------------------------------------------------------------------
# superoperators


def test_left_multiplication_action():
    B = np.array([[1.0, 2.0], [3.0, 4.0]])
    C = np.array([[0.0, 1.0], [1.0, 0.0]])
    K = SuperOperator.left_multiplication(B)
    assert np.array_equal(K.apply(C), B @ C)


def test_left_multiplication_module_property_exact():
    rng = np.random.default_rng(2)
    B, C, D = (rng.standard_normal((3, 3)) for _ in range(3))
    K = SuperOperator.left_multiplication(B)
    # algebraically exact; float matmul association leaves ulp noise
    assert np.max(np.abs(K.apply(C @ D) - K.apply(C) @ D)) < 1e-14


def test_dense_representation_consistent():
    rng = np.random.default_rng(3)
    B = rng.standard_normal((3, 3))
    C = rng.standard_normal((3, 3))
    K = SuperOperator.left_multiplication(B)
    flat = K.as_dense() @ C.reshape(-1)
    assert np.allclose(flat.reshape(3, 3), B @ C, atol=1e-14)


def test_superop_norm_equals_matrix_norm():
    worst = 0.0
    for seed in range(100):
        B = np.random.default_rng(seed).standard_normal((4, 4))
        got = superop_norm(SuperOperator.left_multiplication(B))
        worst = max(worst, abs(got - opnorm2(B)))
    assert worst <= 1e-12


def test_superop_norm_converged_at_n10():
    # singular values 1 and 1 - 1e-6 defeat a 200-step power iteration
    rng = np.random.default_rng(11)
    U = np.linalg.qr(rng.standard_normal((10, 10)))[0]
    V = np.linalg.qr(rng.standard_normal((10, 10)))[0]
    sv = np.concatenate([[1.0, 1.0 - 1e-6], np.linspace(0.9, 0.1, 8)])
    D = U @ np.diag(sv) @ V.T
    got = superop_norm(SuperOperator.general(np.kron(D, np.eye(10)), 10))
    assert abs(got - opnorm2(D)) <= 1e-12


def test_superop_norm_power_iteration_branch():
    # n = 9: an 81 x 81 flat map, still normed exactly by a dense SVD
    rng = np.random.default_rng(9)
    B = rng.standard_normal((9, 9))
    got = superop_norm(SuperOperator.left_multiplication(B))
    assert got == pytest.approx(opnorm2(B), rel=1e-9)


# ---------------------------------------------------------------------------
# implementation and lift/extract


def test_implement_identity_time_zero():
    A, _ = random_stable_pair(3, seed=0)
    impl = ImplementedSemigroup(MatrixSystem(A))
    S = np.random.default_rng(0).standard_normal((3, 3))
    assert np.allclose(impl.system.propagator(0.0) @ S, S, atol=1e-15)


def test_implement_semigroup_law():
    A, _ = random_stable_pair(3, seed=2)
    impl = ImplementedSemigroup(MatrixSystem(A))
    S = np.random.default_rng(4).standard_normal((3, 3))
    U = impl.system.propagator
    assert opnorm2(U(0.8) @ S - U(0.3) @ (U(0.5) @ S)) <= 1e-12


def test_lift_extract_round_trip_exact():
    _, B = random_stable_pair(4, seed=7)
    assert np.array_equal(extract_perturbation(lift_perturbation(B)), B)


def test_extract_zero_map():
    K = SuperOperator.general(np.zeros((9, 9)), 3)
    assert np.array_equal(extract_perturbation(K), np.zeros((3, 3)))


def test_extract_rejects_rank_one_functional():
    rng = np.random.default_rng(5)
    K = SuperOperator.rank_one_functional(np.eye(3),
                                          rng.standard_normal((3, 3)))
    with pytest.raises(NonMultiplicative):
        extract_perturbation(K)


def test_perturbed_implemented_matches_exponential():
    A, B = random_stable_pair(3, seed=5)
    impl = ImplementedSemigroup(MatrixSystem(A))
    K = lift_perturbation(B)
    S = np.random.default_rng(1).standard_normal((3, 3))
    out = perturbed_implemented(impl, K, S, 1.0, 0.5, 1e-3)
    want = scipy.linalg.expm(A + B) @ S
    assert opnorm2(out - want) <= 1e-6


def test_perturbed_implemented_rejects_non_multiplicative():
    A, _ = random_stable_pair(3, seed=5)
    impl = ImplementedSemigroup(MatrixSystem(A))
    rng = np.random.default_rng(6)
    K = SuperOperator.rank_one_functional(rng.standard_normal((3, 3)),
                                          np.eye(3))
    with pytest.raises(NonMultiplicative):
        perturbed_implemented(impl, K, np.eye(3), 0.5, 0.5, 1e-2)


def test_perturbed_implemented_zero_perturbation():
    A, _ = random_stable_pair(2, seed=6)
    impl = ImplementedSemigroup(MatrixSystem(A))
    K = lift_perturbation(np.zeros((2, 2)))
    S = np.array([[1.0, 2.0], [0.0, 1.0]])
    out = perturbed_implemented(impl, K, S, 0.6, 0.3, 1e-2)
    assert opnorm2(out - impl.system.propagator(0.6) @ S) <= 1e-12


def test_superlevel_variation_of_parameters():
    # the flat system satisfies the same fixed-point equation as any
    # matrix system; checked against the dense exponential oracle
    A, B = random_stable_pair(3, seed=8)
    super_system = MatrixSystem(np.kron(A, np.eye(3)))
    K = lift_perturbation(B)
    S = np.eye(3)
    op = PerturbationOperator.matrix(K.as_dense())
    C = super_system.A + K.as_dense()
    vec = S.reshape(-1)
    r = varpar_residual(super_system, op,
                        lambda r_: scipy.linalg.expm(r_ * C) @ vec,
                        1.0, vec, 1e-3)
    assert r <= 1e-6


# ---------------------------------------------------------------------------
# pseudoresolvent and Hille-Yosida


def test_pseudoresolvent_identity_exact():
    A, _ = random_stable_pair(3, seed=5)
    out = pseudoresolvent_extract(resolvent_family(A), 2.0, 5.0)
    assert out["residual"] <= 1e-12
    assert out["injective"]
    assert out["sigma_min"] > 0


def test_pseudoresolvent_same_lambda_zero():
    A, _ = random_stable_pair(3, seed=5)
    out = pseudoresolvent_extract(resolvent_family(A), 3.0, 3.0)
    assert out["residual"] == 0.0


def test_pseudoresolvent_matches_direct_solve():
    A, _ = random_stable_pair(2, seed=4)
    out = pseudoresolvent_extract(resolvent_family(A), 2.0, 4.0)
    want = np.linalg.solve(2.0 * np.eye(2) - A, np.eye(2))
    assert np.allclose(out["R_lam"], want, atol=1e-14)


def test_hille_yosida_scalar_sharp():
    # R(lam)^n (lam + 1)^n is exactly 1 for every n
    out = hille_yosida_check(np.diag([-1.0]), -1.0, 1.0, [0.0, 1.0, 5.0])
    assert out["worst_ratio"] == pytest.approx(1.0, abs=1e-12)
    assert out["passed"]


def test_hille_yosida_normal_matrix():
    An = np.array([[-1.0, 1.0], [1.0, -2.0]])
    sa = float(np.max(np.linalg.eigvalsh(An)))
    out = hille_yosida_check(An, sa, 1.0, [sa + 0.5, sa + 2.0, sa + 10.0])
    assert out["passed"]


def test_hille_yosida_low_omega_fails():
    An = np.array([[-1.0, 1.0], [1.0, -2.0]])
    sa = float(np.max(np.linalg.eigvalsh(An)))
    out = hille_yosida_check(An, sa - 1.0, 1.0, [sa + 0.5, sa + 2.0])
    assert not out["passed"]


def test_hille_yosida_needs_lambda_above_omega():
    with pytest.raises(ValueError):
        hille_yosida_check(np.diag([-1.0]), 0.0, 1.0, [-0.5])


# ---------------------------------------------------------------------------
# comparison equality and Euler formula


def test_comparison_equivalence_zero_perturbation():
    A, _ = random_stable_pair(3, seed=0)
    sys_T = MatrixSystem(A)
    out = comparison_equivalence(sys_T, sys_T, [0.25, 1.0])
    for row in out["rows"]:
        assert row["lhs"] == 0.0 and row["rhs"] == 0.0


def test_comparison_equivalence_norm_equality():
    A, B = random_stable_pair(3, seed=11)
    out = comparison_equivalence(MatrixSystem(A), MatrixSystem(A + B),
                                 [0.1, 0.5, 1.0])
    assert out["worst_gap"] <= 1e-10


def test_euler_scalar_bound_and_decrease():
    K = SuperOperator.left_multiplication(np.diag([-1.0]))
    out = euler_check(K, 1.0, np.eye(1), [4, 8, 16, 32])
    assert out["decreasing"]
    for row in out["rows"]:
        assert row["residual"] <= 2.0 / row["n"]  # 2 t^2 / n at t = 1


def test_euler_zero_generator_exact():
    K = SuperOperator.left_multiplication(np.zeros((2, 2)))
    out = euler_check(K, 1.0, np.eye(2), [1, 2, 4])
    assert all(r["residual"] < 1e-14 for r in out["rows"])


def test_euler_requires_left_kind():
    K = SuperOperator.general(np.zeros((4, 4)), 2)
    with pytest.raises(ValueError):
        euler_check(K, 1.0, np.eye(2), [2])
