"""Matrix-system helpers that only the tests use.

``validate`` checks a ``MatrixSystem``'s propagators against the
semigroup law and the log-norm bound; ``matrix_probes`` builds the probe
trajectories of the matrix admissibility tests.
"""

from __future__ import annotations

import numpy as np

from semiperturb.perturbation import VectorTrajectory
from semiperturb.semigroup import _lattice_steps
from semiperturb.semigroup import MatrixSystem, opnorm2


def validate(system: MatrixSystem):
    """T(0) = I, the semigroup law and ||T(t)||_2 <= e^{log_norm t} at
    the sample times 0, 0.1, 0.35 and 0.8; AssertionError names the
    first that fails."""
    t_samples = (0.0, 0.1, 0.35, 0.8)
    gap = opnorm2(system.propagator(0.0) - np.eye(system.dim))
    if not gap <= 1e-12:
        raise AssertionError(f"T(0) misses the identity by {gap:.3e}")
    for s in t_samples:
        for t in t_samples:
            lhs = system.propagator(s) @ system.propagator(t)
            rhs = system.propagator(s + t)
            scale = max(1.0, opnorm2(rhs))
            if opnorm2(lhs - rhs) > 1e-12 * scale * 10:
                raise AssertionError(f"semigroup law violated at s={s}, t={t}")
    for t in t_samples:
        with np.errstate(over="ignore"):
            bound = float(np.exp(system.log_norm * t))
        if opnorm2(system.propagator(t)) > bound * (1 + 1e-9):
            raise AssertionError(f"log-norm bound violated at t={t}")
    return True


def matrix_probes(system: MatrixSystem, t0: float, dt: float,
                  seed: int = 0):
    """The orbits of the unit vectors and three seeded oscillatory
    trajectories, for matrix admissibility runs."""
    rng = np.random.default_rng(np.random.PCG64(seed))
    m = _lattice_steps(t0, dt, "t0")
    props = system.orbit_rows(np.eye(system.dim), m, dt)
    out = [VectorTrajectory(system, dt, props[:, :, i].copy())
           for i in range(system.dim)]
    for _ in range(3):
        v = rng.standard_normal(system.dim)
        v /= np.max(np.abs(v))
        freq = rng.uniform(0.5, 4.0)
        out.append(VectorTrajectory(system, dt, np.outer(
            np.cos(freq * np.arange(m + 1) * dt), v)))
    return out
