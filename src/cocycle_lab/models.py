"""Worked models: closed-form cocycles used as test beds and fixtures.

Three analytic models ship here.  A scalar model whose exponent mixes
linear growth with a sine oscillation, a diagonal model driven by
integrals of a fixed family of decreasing generator functions, and a
pure exponential used to calibrate estimators.  Two deliberately broken
variants exist so the law checkers have something to catch.

All evaluations use closed forms; no quadrature is involved.  Every
``semiflow`` and ``log_factors`` accepts arrays of times and a base point
whose coordinate is an array; these broadcast together.  ``log_factors``
puts the components on the first axis: the result has shape
``(dimension,)`` plus the broadcast shape of t, s and the coordinate.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Sequence

import numpy as np

from .core import (
    BasePoint,
    DomainError,
    NormChoice,
    PreconditionError,
    ShiftedGenerator,
    SkewEvolutionSemiflow,
    Trivial,
    _float_list,
    _is_number,
    _require_keys,
)


def generator_value(n: int, sigma: float, t: float | np.ndarray) -> float | np.ndarray:
    """Value of the n-th generator function shifted by sigma at time t.

    x_n(t) = 1/(2n+1) + (beta_n / 2) e^{-t} with beta_n = 1/(2n(2n+1)),
    evaluated at t + sigma.  The family is strictly decreasing from
    1/(2n+1) + beta_n/2 toward the limit 1/(2n+1), and stays strictly
    between 1/(2n+1) and 1/(2n).
    """
    if not (isinstance(n, int) and n >= 1):
        raise PreconditionError(f"generator index must be an integer >= 1, got {n!r}")
    if not (math.isfinite(sigma) and sigma >= 0.0):
        raise PreconditionError(f"generator shift must be finite and >= 0, got {sigma}")
    arr = np.asarray(t, dtype=float)
    if np.any(arr < 0.0):
        raise PreconditionError("generator times must be >= 0")
    beta = 1.0 / (2 * n * (2 * n + 1))
    out = 1.0 / (2 * n + 1) + (beta / 2.0) * np.exp(-(arr + sigma))
    return float(out) if np.isscalar(t) or arr.ndim == 0 else out


def integrate_generator(n: int, sigma: float, length: float) -> float:
    """Closed-form integral of the shifted generator over [0, length].

    Equals length/(2n+1) + (beta_n/2) e^{-sigma} (1 - e^{-length}); this
    is what the diagonal model's exponent uses, so cocycle composition
    telescopes exactly.
    """
    if not (isinstance(n, int) and n >= 1):
        raise PreconditionError(f"generator index must be an integer >= 1, got {n!r}")
    if not (math.isfinite(sigma) and sigma >= 0.0):
        raise PreconditionError(f"generator shift must be finite and >= 0, got {sigma}")
    if not (math.isfinite(length) and length >= 0.0):
        raise PreconditionError(f"integration length must be finite and >= 0, got {length}")
    return float(_generator_integral(n, sigma, length))


def _generator_integral(
    n: int, sigma: float | np.ndarray, length: float | np.ndarray
) -> float | np.ndarray:
    """The closed form of ``integrate_generator``, unvalidated and array-aware."""
    beta = 1.0 / (2 * n * (2 * n + 1))
    # np.exp differs from math.exp in the last bit on a few percent of inputs;
    # math.exp keeps the bits of every estimator and checker.
    shift = np.exp(-sigma) if isinstance(sigma, np.ndarray) else math.exp(-sigma)
    return length / (2 * n + 1) + (beta / 2.0) * shift * (-np.expm1(-length))


def sin_scalar_exponent(t: float | np.ndarray, s: float | np.ndarray) -> float | np.ndarray:
    """Exponent of the oscillating scalar cocycle between times s and t.

    E(t, s) = (t - s) - 2 t sin(pi t / 4) + 2 s sin(pi s / 4); it
    telescopes, E(t, s) + E(s, r) = E(t, r), which is what makes the
    scalar map a cocycle.
    """
    return (t - s) - 2.0 * t * np.sin(np.pi * t / 4.0) + 2.0 * s * np.sin(np.pi * s / 4.0)


def _require(x: BasePoint, variant: type, kind: str) -> BasePoint:
    if not isinstance(x, variant):
        raise DomainError(f"{kind} model acts on {variant.__name__} base points, got {x!r}")
    return x


def _trivial_model(descriptor: dict, exponent, norm_choice: NormChoice) -> SkewEvolutionSemiflow:
    """The scalar cocycle v -> v e^{exponent(t, s)} over the drift x -> x + (t - s)."""
    kind = descriptor["kind"]

    def semiflow(t, s, x: BasePoint) -> BasePoint:
        return Trivial(_require(x, Trivial, kind).value + (t - s))

    def log_factors(t, s, x: BasePoint) -> np.ndarray:
        e = np.asarray(exponent(t, s))
        shape = np.broadcast_shapes(e.shape, np.shape(_require(x, Trivial, kind).value))
        return np.broadcast_to(e, shape)[None]

    return SkewEvolutionSemiflow(
        semiflow=semiflow, dimension=1, norm_choice=norm_choice, log_factors=log_factors,
        descriptor=descriptor,
    )


def sin_scalar_model(norm_choice: NormChoice = NormChoice.SUM_ABS) -> SkewEvolutionSemiflow:
    """Scalar cocycle v -> v e^{E(t, s)} over the trivial drift semiflow."""
    return _trivial_model({"kind": "sin_scalar"}, sin_scalar_exponent, norm_choice)


def pure_exponential_model(
    rate: float, norm_choice: NormChoice = NormChoice.SUM_ABS
) -> SkewEvolutionSemiflow:
    """Scalar cocycle v -> v e^{rate (t - s)}; the estimator calibration model."""
    if not (_is_number(rate) and math.isfinite(rate)):
        raise PreconditionError(f"rate must be a finite number, got {rate!r}")
    rate = float(rate)
    return _trivial_model(
        {"kind": "pure_exponential", "rate": rate}, lambda t, s: rate * (t - s), norm_choice
    )


def diag_integral_model(
    alphas: Sequence[float], norm_choice: NormChoice = NormChoice.SUM_ABS
) -> SkewEvolutionSemiflow:
    """Diagonal cocycle with component gains exp(alpha_k * integral of the base point).

    The base point x_n^sigma flows to x_n^{sigma + t - s}, and component k
    of the fiber map multiplies by exp(alpha_k I) where I is the integral
    of the shifted generator over a window of length t - s.
    """
    rates = tuple(float(a) for a in alphas)
    if not rates:
        raise PreconditionError("diag_integral needs at least one component rate")
    if not all(math.isfinite(a) for a in rates):
        raise PreconditionError(f"component rates must be finite, got {rates}")
    rate_arr = np.asarray(rates, dtype=float)

    def semiflow(t, s, x: BasePoint) -> BasePoint:
        g = _require(x, ShiftedGenerator, "diag_integral")
        return ShiftedGenerator(g.n, g.sigma + (t - s))

    def log_factors(t, s, x: BasePoint) -> np.ndarray:
        g = _require(x, ShiftedGenerator, "diag_integral")
        window = np.asarray(_generator_integral(g.n, g.sigma, t - s))
        return rate_arr.reshape((-1,) + (1,) * window.ndim) * window

    return SkewEvolutionSemiflow(
        semiflow=semiflow,
        dimension=len(rates),
        norm_choice=norm_choice,
        log_factors=log_factors,
        descriptor={"kind": "diag_integral", "alphas": list(rates)},
    )


def broken_semiflow_model(norm_choice: NormChoice = NormChoice.SUM_ABS) -> SkewEvolutionSemiflow:
    """Test fixture: the base point advances by t + s instead of t - s.

    Violates the semiflow composition law (and drags the cocycle
    composition down with it); the law checkers must flag it.
    """

    def semiflow(t, s, x: BasePoint) -> BasePoint:
        g = _require(x, ShiftedGenerator, "broken_semiflow")
        return ShiftedGenerator(g.n, g.sigma + (t + s))

    good = diag_integral_model([1.0], norm_choice)
    return replace(good, semiflow=semiflow, descriptor={"kind": "broken_semiflow"})


def broken_cocycle_model(norm_choice: NormChoice = NormChoice.SUM_ABS) -> SkewEvolutionSemiflow:
    """Test fixture: v -> v (1 + t - s) passes the identity law but not composition."""
    return _trivial_model({"kind": "broken_cocycle"}, lambda t, s: np.log1p(t - s), norm_choice)


# Model kind -> (descriptor keys besides "kind", all required; builder(descriptor, norm choice)).
MODEL_KINDS = {
    "sin_scalar": (set(), lambda d, nc: sin_scalar_model(nc)),
    "diag_integral": ({"alphas"}, lambda d, nc: diag_integral_model(
        _float_list(d["alphas"], "diag_integral alphas"), nc)),
    "pure_exponential": ({"rate"}, lambda d, nc: pure_exponential_model(d["rate"], nc)),
    "broken_semiflow": (set(), lambda d, nc: broken_semiflow_model(nc)),
    "broken_cocycle": (set(), lambda d, nc: broken_cocycle_model(nc)),
}


def build_model(
    descriptor: dict, norm_choice: NormChoice = NormChoice.SUM_ABS
) -> SkewEvolutionSemiflow:
    """Construct a model from a descriptor dict, e.g. parsed scenario JSON.

    The kind selects the keys a descriptor must have and may have
    (``MODEL_KINDS``); any other key is an error.
    """
    if not isinstance(descriptor, dict) or "kind" not in descriptor:
        raise PreconditionError(f"model descriptor needs a 'kind' key, got {descriptor!r}")
    kind = descriptor["kind"]
    if not isinstance(kind, str) or kind not in MODEL_KINDS:
        raise PreconditionError(f"unknown model kind {kind!r}")
    keys, builder = MODEL_KINDS[kind]
    _require_keys(descriptor, {"kind", *keys}, set(), f"{kind} model descriptor")
    return builder(descriptor, norm_choice)


def default_base_points(xi: SkewEvolutionSemiflow) -> tuple[BasePoint, ...]:
    """Default grid base points for a model: Trivial(0) for scalar models,
    the first two generators plus one shifted copy for generator models."""
    kind = xi.descriptor.get("kind")
    if kind in ("diag_integral", "broken_semiflow"):
        return (ShiftedGenerator(1, 0.0), ShiftedGenerator(2, 0.0), ShiftedGenerator(1, 1.0))
    return (Trivial(0.0),)


def default_vectors(dimension: int) -> tuple[tuple[float, ...], ...]:
    """Canonical basis vectors plus the all-ones vector with both signs."""
    if dimension == 1:
        return ((1.0,), (-1.0,))
    vecs = [tuple(1.0 if i == k else 0.0 for i in range(dimension)) for k in range(dimension)]
    vecs.append(tuple(1.0 for _ in range(dimension)))
    vecs.append(tuple(-1.0 for _ in range(dimension)))
    return tuple(vecs)
