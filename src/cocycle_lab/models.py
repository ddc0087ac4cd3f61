"""Worked models: closed-form cocycles used as test beds and fixtures.

Three analytic models ship here.  A scalar model whose exponent mixes
linear growth with a sine oscillation, a diagonal model driven by
integrals of a fixed family of decreasing generator functions, and a
pure exponential used to calibrate estimators.  Two deliberately broken
variants exist so the law checkers have something to catch.

All evaluations use closed forms; no quadrature is involved.  Every
``log_factors`` accepts arrays of times and puts the components on the
first axis: the result has shape ``(dimension,) + np.broadcast(t, s).shape``.
"""

from __future__ import annotations

import math
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


def _generator_integral(n: int, sigma: float, length: float | np.ndarray) -> float | np.ndarray:
    """The closed form of ``integrate_generator``, unvalidated and array-aware."""
    beta = 1.0 / (2 * n * (2 * n + 1))
    return length / (2 * n + 1) + (beta / 2.0) * math.exp(-sigma) * (-np.expm1(-length))


def sin_scalar_exponent(t: float | np.ndarray, s: float | np.ndarray) -> float | np.ndarray:
    """Exponent of the oscillating scalar cocycle between times s and t.

    E(t, s) = (t - s) - 2 t sin(pi t / 4) + 2 s sin(pi s / 4); it
    telescopes, E(t, s) + E(s, r) = E(t, r), which is what makes the
    scalar map a cocycle.
    """
    return (t - s) - 2.0 * t * np.sin(np.pi * t / 4.0) + 2.0 * s * np.sin(np.pi * s / 4.0)


def _require_trivial(x: BasePoint, kind: str) -> Trivial:
    if not isinstance(x, Trivial):
        raise DomainError(f"{kind} model acts on Trivial base points, got {x!r}")
    return x


def _require_generator(x: BasePoint, kind: str) -> ShiftedGenerator:
    if not isinstance(x, ShiftedGenerator):
        raise DomainError(f"{kind} model acts on ShiftedGenerator base points, got {x!r}")
    return x


def _trivial_semiflow(kind: str):
    def flow(t: float, s: float, x: BasePoint) -> BasePoint:
        return Trivial(_require_trivial(x, kind).value + (t - s))

    return flow


def sin_scalar_model(norm_choice: NormChoice = NormChoice.SUM_ABS) -> SkewEvolutionSemiflow:
    """Scalar cocycle v -> v e^{E(t, s)} over the trivial drift semiflow."""

    def log_factors(t, s, x: BasePoint) -> np.ndarray:
        _require_trivial(x, "sin_scalar")
        return np.asarray(sin_scalar_exponent(t, s))[None]

    return SkewEvolutionSemiflow(
        semiflow=_trivial_semiflow("sin_scalar"),
        dimension=1,
        norm_choice=norm_choice,
        log_factors=log_factors,
        descriptor={"kind": "sin_scalar"},
    )


def pure_exponential_model(
    rate: float, norm_choice: NormChoice = NormChoice.SUM_ABS
) -> SkewEvolutionSemiflow:
    """Scalar cocycle v -> v e^{rate (t - s)}; the estimator calibration model."""
    if not math.isfinite(rate):
        raise PreconditionError(f"rate must be finite, got {rate}")

    def log_factors(t, s, x: BasePoint) -> np.ndarray:
        _require_trivial(x, "pure_exponential")
        return np.asarray(rate * (t - s))[None]

    return SkewEvolutionSemiflow(
        semiflow=_trivial_semiflow("pure_exponential"),
        dimension=1,
        norm_choice=norm_choice,
        log_factors=log_factors,
        descriptor={"kind": "pure_exponential", "rate": rate},
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

    def semiflow(t: float, s: float, x: BasePoint) -> BasePoint:
        g = _require_generator(x, "diag_integral")
        return ShiftedGenerator(g.n, g.sigma + (t - s))

    def log_factors(t, s, x: BasePoint) -> np.ndarray:
        g = _require_generator(x, "diag_integral")
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
    good = diag_integral_model([1.0], norm_choice)

    def semiflow(t: float, s: float, x: BasePoint) -> BasePoint:
        g = _require_generator(x, "broken_semiflow")
        return ShiftedGenerator(g.n, g.sigma + (t + s))

    return SkewEvolutionSemiflow(
        semiflow=semiflow,
        dimension=1,
        norm_choice=norm_choice,
        log_factors=good.log_factors,
        descriptor={"kind": "broken_semiflow"},
    )


def broken_cocycle_model(norm_choice: NormChoice = NormChoice.SUM_ABS) -> SkewEvolutionSemiflow:
    """Test fixture: v -> v (1 + t - s) passes the identity law but not composition."""

    def log_factors(t, s, x: BasePoint) -> np.ndarray:
        _require_trivial(x, "broken_cocycle")
        return np.log1p(np.asarray(t - s))[None]

    return SkewEvolutionSemiflow(
        semiflow=_trivial_semiflow("broken_cocycle"),
        dimension=1,
        norm_choice=norm_choice,
        log_factors=log_factors,
        descriptor={"kind": "broken_cocycle"},
    )


def build_model(
    descriptor: dict, norm_choice: NormChoice = NormChoice.SUM_ABS
) -> SkewEvolutionSemiflow:
    """Construct a model from a descriptor dict, e.g. parsed scenario JSON.

    Recognized kinds: sin_scalar, diag_integral (needs "alphas"),
    pure_exponential (needs "rate"), and the two broken fixtures.
    """
    if not isinstance(descriptor, dict) or "kind" not in descriptor:
        raise PreconditionError(f"model descriptor needs a 'kind' key, got {descriptor!r}")
    kind = descriptor["kind"]
    known = {"kind", "alphas", "rate"}
    extra = set(descriptor) - known
    if extra:
        raise PreconditionError(f"unknown model descriptor keys: {sorted(extra)}")
    if kind == "sin_scalar":
        return sin_scalar_model(norm_choice)
    if kind == "diag_integral":
        if "alphas" not in descriptor:
            raise PreconditionError("diag_integral descriptor needs 'alphas'")
        return diag_integral_model(_float_list(descriptor["alphas"], "diag_integral alphas"), norm_choice)
    if kind == "pure_exponential":
        if "rate" not in descriptor:
            raise PreconditionError("pure_exponential descriptor needs 'rate'")
        if not _is_number(descriptor["rate"]):
            raise PreconditionError(f"pure_exponential rate must be a number, got {descriptor['rate']!r}")
        return pure_exponential_model(float(descriptor["rate"]), norm_choice)
    if kind == "broken_semiflow":
        return broken_semiflow_model(norm_choice)
    if kind == "broken_cocycle":
        return broken_cocycle_model(norm_choice)
    raise PreconditionError(f"unknown model kind {kind!r}")


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
