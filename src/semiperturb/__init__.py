"""Numerical laboratory for norm-bounded perturbations of operator
semigroups, built around a Volterra operator on trajectories and the
Neumann series it generates.

Five layers: exact piecewise-polynomial functions and measures
(``functions``), the free dynamics (``semigroup``), the perturbation
engine with its diagnostics and admissibility battery
(``perturbation``), the transport testbed with an independent renewal
oracle (``transport``), and the matrix-algebra correspondences
(``implemented``).  ``cli`` wraps the lot as reproducible experiments.
"""

# Cap BLAS parallelism before numpy first loads; after that the pools
# are already sized and the setting has no effect.
import os as _os

_cap = _os.environ.get("SEMIPERTURB_THREADS")
if _cap:
    for _key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        _os.environ.setdefault(_key, _cap)
del _os, _cap

from .errors import (
    ConfigError,
    DegenerateProfile,
    GridTooLarge,
    GuardViolation,
    HorizonExceeded,
    NonConvergence,
    NonMultiplicative,
    NotInStateSpace,
    StepMismatch,
    StepSizeError,
)
from .functions import (
    BoundedMeasure,
    CompactInterval,
    GridFunction,
    PiecewiseFunction,
    tent,
)
from .semigroup import MatrixSystem, TranslationSystem, expm, opnorm2
from .perturbation import (
    PerturbationOperator,
    SeriesDiagnostics,
    VectorTrajectory,
    admissibility_check,
    comparison_check,
    generator_check,
    identity_check,
    neumann_semigroup,
    varpar_residual,
    volterra_apply,
    volterra_norm_estimate,
    volterra_trajectory,
)
from .transport import (
    TransportProblem,
    build_domain_function,
    build_rank_one,
    canonical_profile,
    canonical_regularizer,
    domain_check,
    engine_vs_oracle,
    oracle_solution,
    refinement_study,
    run_perturbed,
    sawtooth_profile,
)
from .implemented import (
    ImplementedSemigroup,
    SuperOperator,
    comparison_equivalence,
    euler_check,
    extract_perturbation,
    hille_yosida_check,
    lift_perturbation,
    perturbed_implemented,
    pseudoresolvent_extract,
    superop_norm,
)

__version__ = "0.1.0"

__all__ = [
    "BoundedMeasure",
    "CompactInterval",
    "ConfigError",
    "DegenerateProfile",
    "GridFunction",
    "GridTooLarge",
    "GuardViolation",
    "HorizonExceeded",
    "ImplementedSemigroup",
    "MatrixSystem",
    "NonConvergence",
    "NonMultiplicative",
    "NotInStateSpace",
    "PerturbationOperator",
    "PiecewiseFunction",
    "SeriesDiagnostics",
    "StepMismatch",
    "StepSizeError",
    "SuperOperator",
    "TranslationSystem",
    "TransportProblem",
    "VectorTrajectory",
    "admissibility_check",
    "build_domain_function",
    "build_rank_one",
    "canonical_profile",
    "canonical_regularizer",
    "comparison_check",
    "comparison_equivalence",
    "domain_check",
    "engine_vs_oracle",
    "euler_check",
    "expm",
    "extract_perturbation",
    "generator_check",
    "hille_yosida_check",
    "identity_check",
    "lift_perturbation",
    "neumann_semigroup",
    "opnorm2",
    "oracle_solution",
    "perturbed_implemented",
    "pseudoresolvent_extract",
    "refinement_study",
    "run_perturbed",
    "sawtooth_profile",
    "superop_norm",
    "tent",
    "varpar_residual",
    "volterra_apply",
    "volterra_norm_estimate",
    "volterra_trajectory",
    "__version__",
]
