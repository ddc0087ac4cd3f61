"""Grid-based certificate checks for skew-evolution semiflows.

The package builds nonautonomous models (a scalar oscillating example,
a diagonal integral-kernel family, and pure exponentials), fits and
re-checks growth/decay certificates in log space on sample grids, and
validates the constructive transformations between the certificate
kinds.  A scenario-driven CLI (``cocycle-lab``) fronts the same
pipelines and writes deterministic JSON/CSV artifacts.

Every name in ``__all__``, and every module that defines one, imports
from here.  Each loads from its defining module on first access (PEP
562), so ``import cocycle_lab`` alone loads neither numpy nor any
submodule, and a CLI command loads only the modules it uses.
"""

import os
import sys

# The package makes no large BLAS calls, and the OpenBLAS thread pool that
# numpy starts at import costs start-up CPU time on every command.  A value
# the user set is kept, and nothing changes once numpy is loaded.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# Defining module -> the public names it exports, in ``__all__`` order.
_EXPORTS = {
    "_version": ("__version__",),
    "core": (
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
        "shift_cocycle",
    ),
    "models": (
        "build_model",
        "default_base_points",
        "default_vectors",
        "diag_integral_model",
        "generator_value",
        "integrate_generator",
        "pure_exponential_model",
        "sin_scalar_exponent",
        "sin_scalar_model",
    ),
    "quadrature": (
        "QuadratureConfig",
        "QuadratureDepthError",
        "adaptive_simpson",
        "integrate_norm_trajectory",
        "norm_integral_prefix",
    ),
    "certificates": (
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
    ),
    "theorems": (
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
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name, name)
    if module not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    __import__(f"{__name__}.{module}")  # the import binds the submodule here
    if name != module:
        globals()[name] = getattr(globals()[module], name)
    return globals()[name]


def __dir__():
    return sorted({*globals(), *__all__})
