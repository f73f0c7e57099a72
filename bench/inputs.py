"""Seeded inputs for the benchmark workloads.

Everything random comes from one PCG64 stream per run, seeded by the
benchmark's ``--seed``; the library only ever sees the generated
matrices and problems.  The transport problems are the fixed data of
acceptance criteria 04, 05 and 07 plus an off-lattice atom at 1/3, so
for them the seed only decides the order in which the problems run.

This module imports numpy and semiperturb but not scipy: its import and
``make_inputs`` are what the benchmark times as set-up.
"""

from fractions import Fraction

import numpy as np

from semiperturb import (
    BoundedMeasure,
    TransportProblem,
    canonical_profile,
    canonical_regularizer,
    sawtooth_profile,
    tent,
)

MATRIX_PAIRS = 10
MATRIX_DIM = 4
IMPLEMENTED_DIMS = (3, 6, 10)


def random_stable_pair(rng, n, shift=0.5, b_scale=0.1):
    """The library's ``random_stable_pair`` recipe on a caller's stream.

    A is shifted so its spectral abscissa is -shift; B is scaled to
    spectral norm b_scale.
    """
    A = rng.standard_normal((n, n))
    A -= (np.max(np.linalg.eigvals(A).real) + shift) * np.eye(n)
    B = rng.standard_normal((n, n))
    B *= b_scale / np.linalg.norm(B, 2)
    return A, B


def _unit_vector(rng, n):
    x = rng.standard_normal(n)
    return x / np.linalg.norm(x)


def _matrix_oracle(rng):
    pairs = []
    for k in range(MATRIX_PAIRS):
        A, B = random_stable_pair(rng, MATRIX_DIM)
        pairs.append({"id": f"pair{k}", "A": A, "B": B,
                      "x": _unit_vector(rng, MATRIX_DIM)})
    return pairs


def _implemented_lift(rng):
    cases = []
    for n in IMPLEMENTED_DIMS:
        A, B = random_stable_pair(rng, n)
        S = rng.standard_normal((n, n))
        S /= np.linalg.norm(S, 2)
        cases.append({"id": f"n{n}", "n": n, "A": A, "B": B, "S": S})
    return cases


def _problem(measure, profile=None, regularizer=True):
    return TransportProblem(
        measure=measure,
        profile=canonical_profile() if profile is None else profile,
        initial=tent(),
        regularizer=canonical_regularizer() if regularizer else None)


def _dirac(location):
    return BoundedMeasure.dirac(location)


def _shuffled(rng, cases):
    return [cases[i] for i in rng.permutation(len(cases))]


def _transport_refine(rng):
    two_atom = BoundedMeasure(atoms=((0, 1), (Fraction(3, 10),
                                               Fraction(1, 2))))
    return _shuffled(rng, [
        {"id": "two-atom", "lattice": True, "problem": _problem(two_atom)},
        {"id": "sawtooth", "lattice": True,
         "problem": _problem(_dirac(0), sawtooth_profile(),
                             regularizer=False)},
        {"id": "atom-1/3", "lattice": False,
         "problem": _problem(_dirac(Fraction(1, 3)))},
    ])


def _transport_checks(rng):
    return _shuffled(rng, [
        {"id": "dirac-0", "lattice": True, "problem": _problem(_dirac(0))},
        {"id": "dirac-1/3", "lattice": False,
         "problem": _problem(_dirac(Fraction(1, 3)))},
    ])


_MAKERS = {
    "matrix-oracle": _matrix_oracle,
    "transport-refine": _transport_refine,
    "transport-checks": _transport_checks,
    "implemented-lift": _implemented_lift,
}

WORKLOADS = tuple(_MAKERS)


def make_inputs(workload, seed):
    """Fresh input objects for one pass; equal seeds give equal inputs."""
    return _MAKERS[workload](np.random.Generator(np.random.PCG64(seed)))
