"""Grid-based certificate checks for skew-evolution semiflows.

The package builds nonautonomous models (a scalar oscillating example,
a diagonal integral-kernel family, and pure exponentials), fits and
re-checks growth/decay certificates in log space on sample grids, and
validates the constructive transformations between the certificate
kinds.  A scenario-driven CLI (``cocycle-lab``) fronts the same
pipelines and writes deterministic JSON/CSV artifacts.

Every name in ``__all__`` imports from here.  The theorem validators
(``FORMULAS``, ``TheoremRun``, ``thm2_validate``, ...) load from
``cocycle_lab.theorems`` on first access, so importing the package, or
running any CLI command but ``theorem``, does not compile them.
"""

import os
import sys

# The package makes no large BLAS calls, and the OpenBLAS thread pool that
# numpy starts at import costs start-up CPU time on every command.  A value
# the user set is kept, and nothing changes once numpy is loaded.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from ._version import __version__
from .core import (
    CheckReport,
    Counterexample,
    DomainError,
    NormChoice,
    PreconditionError,
    SampleGrid,
    ShiftedGenerator,
    SkewEvolutionSemiflow,
    Trivial,
    check_cocycle_laws,
    check_semiflow_laws,
    norm,
    shift_cocycle,
)
from .models import (
    build_model,
    default_base_points,
    default_vectors,
    diag_integral_model,
    generator_value,
    integrate_generator,
    pure_exponential_model,
    sin_scalar_exponent,
    sin_scalar_model,
)
from .quadrature import (
    QuadratureConfig,
    QuadratureDepthError,
    adaptive_simpson,
    integrate_norm_trajectory,
    norm_integral_prefix,
)
from .certificates import (
    ExpInstabilityCertificate,
    ExpWitness,
    InstabilityCertificate,
    IntegralInstabilityCertificate,
    NoCertificate,
    ParametricDecay,
    TabulatedDecay,
    TabulatedWitness,
    certificate_from_json_dict,
    certificate_to_json_dict,
    check_decay,
    check_exp_instability,
    check_instability,
    check_integral_instability,
    decay_limit_witnessed,
    decay_to_exponential,
    estimate_decay,
    estimate_exp_instability,
    estimate_instability,
    estimate_integral_instability,
    integrate_kernel,
)

# Resolved on first access by ``__getattr__`` (PEP 562) below.
_THEOREM_NAMES = (
    "FORMULAS",
    "TheoremRun",
    "corollary_equivalence",
    "prop_integral_decay_to_instability",
    "prop_shift_necessity",
    "prop_shift_sufficiency",
    "remark_obs2",
    "thm1_necessity",
    "thm1_sufficiency",
    "thm2_validate",
)

__all__ = [
    "__version__",
    "CheckReport",
    "Counterexample",
    "DomainError",
    "NormChoice",
    "PreconditionError",
    "SampleGrid",
    "ShiftedGenerator",
    "SkewEvolutionSemiflow",
    "Trivial",
    "check_cocycle_laws",
    "check_semiflow_laws",
    "norm",
    "shift_cocycle",
    "build_model",
    "default_base_points",
    "default_vectors",
    "diag_integral_model",
    "generator_value",
    "integrate_generator",
    "pure_exponential_model",
    "sin_scalar_exponent",
    "sin_scalar_model",
    "QuadratureConfig",
    "QuadratureDepthError",
    "adaptive_simpson",
    "integrate_norm_trajectory",
    "norm_integral_prefix",
    "ExpInstabilityCertificate",
    "ExpWitness",
    "InstabilityCertificate",
    "IntegralInstabilityCertificate",
    "NoCertificate",
    "ParametricDecay",
    "TabulatedDecay",
    "TabulatedWitness",
    "certificate_from_json_dict",
    "certificate_to_json_dict",
    "check_decay",
    "check_exp_instability",
    "check_instability",
    "check_integral_instability",
    "decay_limit_witnessed",
    "decay_to_exponential",
    "estimate_decay",
    "estimate_exp_instability",
    "estimate_instability",
    "estimate_integral_instability",
    "integrate_kernel",
    *_THEOREM_NAMES,
]


def __getattr__(name):
    if name in _THEOREM_NAMES:
        from . import theorems

        return getattr(theorems, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
