"""Implemented semigroups on the matrix algebra.

The state space here is the algebra of n x n matrices; the free dynamics
act by left multiplication with a matrix semigroup, U(t) S = T(t) S, and
a multiplicative perturbation is left multiplication C -> B C.  So the
perturbation engine runs on the n x n state S itself, with the matrix
system T and the multiplier B; the n^2 x n^2 flat form kron(B, I) of a
map is only built to measure norms and module defects.

Finite dimension flattens the analytic subtleties: the extrapolated
algebra coincides with the algebra itself and every Favard-type space is
everything.  What survives, and what this module checks, are the exact
algebraic correspondences: the norm equality for left multiplications,
lift/extract being mutually inverse, the pseudoresolvent identity, the
Hille--Yosida power bounds, and the Euler approximation.
"""

from __future__ import annotations

import numpy as np

from .errors import NonMultiplicative
from .perturbation import (
    PerturbationOperator,
    comparison_summary,
    neumann_semigroup,
)
from .semigroup import MatrixSystem, expm, opnorm2

__all__ = [
    "SuperOperator",
    "LeftMultiplication",
    "DenseSuperOperator",
    "ImplementedSemigroup",
    "lift_perturbation",
    "extract_perturbation",
    "perturbed_implemented",
    "pseudoresolvent_extract",
    "hille_yosida_check",
    "comparison_equivalence",
    "euler_check",
    "superop_norm",
    "random_stable_pair",
]

def _vec(S: np.ndarray) -> np.ndarray:
    return np.asarray(S, dtype=float).reshape(-1)


def _unvec(v: np.ndarray, n: int) -> np.ndarray:
    return np.asarray(v, dtype=float).reshape(n, n)


class SuperOperator:
    """Linear map on n x n matrices: ``left_multiplication`` gives a
    :class:`LeftMultiplication` C -> B C, ``general`` a
    :class:`DenseSuperOperator`.  Left multiplications satisfy
    K(C D) = K(C) D exactly; general ones usually do not, which is what
    ``extract_perturbation`` polices.
    """

    @staticmethod
    def left_multiplication(B) -> "LeftMultiplication":
        return LeftMultiplication(B)

    @staticmethod
    def general(dense, dim) -> "DenseSuperOperator":
        return DenseSuperOperator(dense, dim)

    @classmethod
    def rank_one_functional(cls, weights, target) -> "SuperOperator":
        """K(C) = trace-pairing(weights, C) * target.

        The standard counterexample to multiplicativity: a nonzero
        functional times a fixed matrix fails K(C D) = K(C) D unless the
        functional happens to factor through right multiplication.
        """
        w = np.asarray(weights, dtype=float)
        G = np.asarray(target, dtype=float)
        n = G.shape[0]
        dense = np.outer(_vec(G), _vec(w))
        return cls.general(dense, n)


class LeftMultiplication(SuperOperator):
    """C -> B C for the multiplier B."""

    def __init__(self, multiplier):
        self.multiplier = np.asarray(multiplier, dtype=float)
        self.dim = self.multiplier.shape[0]
        if self.multiplier.shape != (self.dim, self.dim):
            raise ValueError("multiplier must be square")

    def apply(self, C: np.ndarray) -> np.ndarray:
        return self.multiplier @ np.asarray(C, dtype=float)

    def as_dense(self) -> np.ndarray:
        return np.kron(self.multiplier, np.eye(self.dim))


class DenseSuperOperator(SuperOperator):
    """The n^2 x n^2 matrix ``dense_data`` on flattened n x n inputs."""

    def __init__(self, dense, dim):
        self.dense_data = np.asarray(dense, dtype=float)
        self.dim = int(dim)
        if self.dense_data.shape != (self.dim ** 2, self.dim ** 2):
            raise ValueError("dense map must be n^2 x n^2")

    def apply(self, C: np.ndarray) -> np.ndarray:
        return _unvec(self.dense_data @ _vec(C), self.dim)

    def as_dense(self) -> np.ndarray:
        return self.dense_data


def superop_norm(K: SuperOperator) -> float:
    """Norm of the flattened map (Frobenius-induced), by a dense SVD.

    For left multiplications this coincides with the norm induced by the
    spectral norm on matrices, and equals the spectral norm of the
    multiplier; that equality is itself one of the checked identities, so
    the computation here deliberately goes through the flat
    representation instead of shortcutting to the multiplier.
    """
    return float(np.linalg.norm(K.as_dense(), 2))


class ImplementedSemigroup:
    """Left implementation of a matrix semigroup on the matrix algebra."""

    def __init__(self, system: MatrixSystem):
        self.system = system
        self.dim = system.dim


def lift_perturbation(B) -> SuperOperator:
    return SuperOperator.left_multiplication(B)


def extract_perturbation(K: SuperOperator) -> np.ndarray:
    """Multiplier of a module homomorphism, recovered from K(Id).

    A map on the algebra is a left multiplication exactly when it agrees
    with multiplication by its value at the identity; the defect of that
    agreement is measured in the flat norm and anything above 1e-10
    relative to the map's size (at least 1) is rejected.
    """
    tol = 1e-10
    B = K.apply(np.eye(K.dim))
    recon = np.kron(B, np.eye(K.dim))
    dense = K.as_dense()
    scale = max(1.0, float(np.linalg.norm(dense, 2)))
    defect = float(np.linalg.norm(dense - recon, 2))
    if defect > tol * scale:
        raise NonMultiplicative(
            f"map is not a left multiplication: module defect {defect:.3e} "
            f"exceeds {tol:.1e} (relative)")
    return B


def perturbed_implemented(impl: ImplementedSemigroup, K: SuperOperator,
                          S, t: float, t0: float, dt: float) -> np.ndarray:
    """Perturbed implemented semigroup applied to one matrix.

    K must be a left multiplication C -> B C (``extract_perturbation``
    raises NonMultiplicative otherwise).  The Neumann engine then runs on
    the matrix system with the n x n state S itself: U(t) S = T(t) S, and
    the lift acts as B C; the series runs to its default tol.
    """
    op = PerturbationOperator.matrix(extract_perturbation(K))
    return neumann_semigroup(impl.system, op, np.asarray(S, dtype=float),
                             t, t0, dt)


def pseudoresolvent_extract(resolvent_fn, lam: float, mu: float) -> dict:
    """Resolvent identity residual for a superoperator resolvent family.

    Evaluates R(lam) := resolvent_fn(lam) applied to the identity, same
    for mu, and returns the matrix-level residual of
    R(lam) - R(mu) = (mu - lam) R(lam) R(mu) plus the injectivity margin
    (smallest singular value of R(lam)).
    """
    Kl = resolvent_fn(lam)
    Km = resolvent_fn(mu)
    n = Kl.dim
    Rl = Kl.apply(np.eye(n))
    Rm = Km.apply(np.eye(n))
    residual = opnorm2(Rl - Rm - (mu - lam) * (Rl @ Rm))
    sigma_min = float(np.linalg.svd(Rl, compute_uv=False)[-1])
    return {
        "R_lam": Rl,
        "R_mu": Rm,
        "residual": float(residual),
        "sigma_min": sigma_min,
        "injective": sigma_min > 0.0,
    }


def hille_yosida_check(A, omega: float, M: float, lam_values) -> dict:
    """Worst power-resolvent ratio ||R(lam,A)^n|| (lam-omega)^n / M over
    n = 1..6.

    At or below 1 (plus rounding) certifies the Hille--Yosida bounds on
    the sampled ray; omega below the spectral abscissa must fail.
    """
    A = np.asarray(A, dtype=float)
    n_dim = A.shape[0]
    worst = 0.0
    rows = []
    for lam in lam_values:
        if lam <= omega:
            raise ValueError("lambda samples must exceed omega")
        R = np.linalg.solve(lam * np.eye(n_dim) - A, np.eye(n_dim))
        P = np.eye(n_dim)
        for n in range(1, 7):
            P = P @ R
            ratio = opnorm2(P) * (lam - omega) ** n / M
            worst = max(worst, ratio)
            rows.append({"lam": float(lam), "n": n, "ratio": float(ratio)})
    return {
        "rows": rows,
        "worst_ratio": float(worst),
        "passed": bool(worst <= 1.0 + 1e-8),
    }


def comparison_equivalence(T_system: MatrixSystem, S_system: MatrixSystem,
                           t_values) -> dict:
    """Implemented-vs-matrix distance equality at sampled times.

    lhs is the flat-norm distance of the two implemented semigroups,
    rhs the spectral-norm distance of the matrix semigroups; the two are
    computed by independent decompositions (n^2 and n dimensional) and
    must agree to rounding.
    """
    n = T_system.dim
    eye = np.eye(n)
    rows = []
    worst = 0.0
    for t in t_values:
        D = T_system.propagator(t) - S_system.propagator(t)
        lhs = superop_norm(SuperOperator.general(np.kron(D, eye), n))
        rhs = opnorm2(D)
        gap = abs(lhs - rhs)
        worst = max(worst, gap)
        rows.append({"t": float(t), "lhs": float(lhs), "rhs": float(rhs),
                     "gap": float(gap)})
    top, ratio = comparison_summary([r["rhs"] / r["t"] for r in rows
                                     if r["t"] > 0])
    return {"rows": rows, "worst_gap": float(worst), "linear_constant": top,
            "stability_ratio": ratio}


def euler_check(K: SuperOperator, t: float, C, n_values) -> dict:
    """Euler approximation (n/t R(n/t, A))^n C against the semigroup.

    Only left multiplications carry an obvious semigroup here, so K must
    be of that kind; the resolvent of the lift is the lift of the
    resolvent, which keeps everything at matrix level.
    """
    if not isinstance(K, LeftMultiplication):
        raise ValueError("euler_check needs a left multiplication")
    if t <= 0:
        raise ValueError("t must be positive")
    A = K.multiplier
    n_dim = A.shape[0]
    C = np.asarray(C, dtype=float)
    target = expm(t * A) @ C
    rows = []
    for n in n_values:
        lam = n / t
        R = np.linalg.solve(lam * np.eye(n_dim) - A, np.eye(n_dim))
        P = np.linalg.matrix_power(lam * R, int(n))
        rows.append({"n": int(n),
                     "residual": float(opnorm2(P @ C - target))})
    res = [r["residual"] for r in rows]
    return {
        "rows": rows,
        "decreasing": all(res[i + 1] <= res[i] * (1 + 1e-12)
                          for i in range(len(res) - 1)),
    }


def random_stable_pair(n: int, seed: int, shift: float = 0.5,
                       b_scale: float = 0.1):
    """Seeded (A, B): A stable by spectral shift, B small against it."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    A -= (np.max(np.linalg.eigvals(A).real) + shift) * np.eye(n)
    B = rng.standard_normal((n, n))
    B *= b_scale / opnorm2(B)
    return A, B
