"""Adaptive Simpson quadrature for norm trajectories and weighted kernels.

The integral-instability side of the certificate calculus needs two
integrals: the running integral of ||Phi(tau, t0, x) v|| along a
trajectory, and kernels of the form integral_0^L e^{-alpha u} f(u) du
for a decay witness f.  Both use the same adaptive Simpson core with the
standard |S2 - S1| / 15 error estimate and Richardson correction.

The lower limit of the trajectory integral is t0, recorded in the config
as ``datko_lower_limit`` so serialized outputs show the convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import (
    BasePoint,
    DomainError,
    NormChoice,
    PreconditionError,
    SkewEvolutionSemiflow,
)


class QuadratureDepthError(RuntimeError):
    """Raised when refinement hits max_depth; carries the partial estimate."""

    def __init__(self, message: str, partial: float):
        super().__init__(message)
        self.partial = partial


@dataclass(frozen=True)
class QuadratureConfig:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_depth: int = 48
    # Only supported value; present so the lower-limit convention for the
    # trajectory integral is visible wherever the config is serialized.
    datko_lower_limit: str = "t0"

    def __post_init__(self) -> None:
        if not (math.isfinite(self.rel_tol) and self.rel_tol >= 1e-13):
            raise PreconditionError(f"rel_tol must be >= 1e-13, got {self.rel_tol}")
        if not (math.isfinite(self.abs_tol) and self.abs_tol > 0.0):
            raise PreconditionError(f"abs_tol must be > 0, got {self.abs_tol}")
        if not (isinstance(self.max_depth, int) and 1 <= self.max_depth <= 60):
            raise PreconditionError(f"max_depth must be an integer in [1, 60], got {self.max_depth}")
        if self.datko_lower_limit != "t0":
            raise PreconditionError(
                f"datko_lower_limit supports only 't0', got {self.datko_lower_limit!r}"
            )

    def to_json_dict(self) -> dict:
        return {
            "rel_tol": self.rel_tol,
            "abs_tol": self.abs_tol,
            "max_depth": self.max_depth,
            "datko_lower_limit": self.datko_lower_limit,
        }


def _simpson(fa: float, fm: float, fb: float, h: float) -> float:
    return h / 6.0 * (fa + 4.0 * fm + fb)


def adaptive_simpson(f: Callable[[float], float], a: float, b: float, cfg: QuadratureConfig) -> float:
    """Integrate f over [a, b] to max(abs_tol, rel_tol * |estimate|).

    Interval halving stops once the local Richardson error estimate
    |S2 - S1| / 15 meets the locally split tolerance.  If any subinterval
    still fails at max_depth, the partial result is wrapped in a
    QuadratureDepthError instead of being returned silently; a non-finite
    error estimate raises DomainError at once.
    """
    if not (math.isfinite(a) and math.isfinite(b) and b >= a):
        raise DomainError(f"bad integration interval [{a}, {b}]")
    if a == b:
        return 0.0
    fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)
    whole = _simpson(fa, fm, fb, b - a)
    tol = max(cfg.abs_tol, cfg.rel_tol * abs(whole))

    total = 0.0
    exhausted = False
    # Stack entries: (a, fa, m, fm, b, fb, S, tol, depth)
    stack = [(a, fa, 0.5 * (a + b), fm, b, fb, whole, tol, 0)]
    while stack:
        xa, ya, xm, ym, xb, yb, s_whole, loc_tol, depth = stack.pop()
        lm = 0.5 * (xa + xm)
        rm = 0.5 * (xm + xb)
        ylm, yrm = f(lm), f(rm)
        s_left = _simpson(ya, ylm, ym, xm - xa)
        s_right = _simpson(ym, yrm, yb, xb - xm)
        err = (s_left + s_right - s_whole) / 15.0
        if abs(err) <= loc_tol or xm <= xa or xb <= xm:
            total += s_left + s_right + err
        elif not math.isfinite(err):
            # Halving cannot repair an overflowed integrand; without this
            # check every subinterval would refine to max_depth.
            raise DomainError(f"integrand is not finite on [{xa}, {xb}]")
        elif depth >= cfg.max_depth:
            total += s_left + s_right + err
            exhausted = True
        else:
            half = 0.5 * loc_tol
            stack.append((xa, ya, lm, ylm, xm, ym, s_left, half, depth + 1))
            stack.append((xm, ym, rm, yrm, xb, yb, s_right, half, depth + 1))
    if exhausted:
        raise QuadratureDepthError(
            f"adaptive refinement hit max_depth={cfg.max_depth} on [{a}, {b}]", partial=total
        )
    return total


def composite_simpson(f: Callable[[float], float], a: float, b: float, panels: int) -> float:
    """Fixed-step Simpson rule; the independent cross-check for the adaptive path."""
    if panels < 1:
        raise PreconditionError("panels must be >= 1")
    if a == b:
        return 0.0
    xs = np.linspace(a, b, 2 * panels + 1)
    ys = np.array([f(float(x)) for x in xs])
    h = (b - a) / panels
    return float(h / 6.0 * (ys[0] + ys[-1] + 4.0 * np.sum(ys[1::2]) + 2.0 * np.sum(ys[2:-2:2])))


def _norm_trajectory_fn(
    xi: SkewEvolutionSemiflow, t0: float, x: BasePoint, arr: np.ndarray
):
    """Integrand tau -> ||Phi(tau, t0, x) arr||.

    The norm is assembled directly from the model's log factors, skipping
    a per-call log/exp round trip; this is the hot inner function of
    every Datko-style integral.
    """
    factors = xi.log_factors
    mags = np.abs(arr)
    if xi.norm_choice is NormChoice.SUM_ABS:

        def integrand(tau: float) -> float:
            return float(np.sum(mags * np.exp(factors(tau, t0, x))))

    elif xi.norm_choice is NormChoice.EUCLID:
        sq = mags * mags

        def integrand(tau: float) -> float:
            return math.sqrt(float(np.sum(sq * np.exp(2.0 * factors(tau, t0, x)))))

    else:

        def integrand(tau: float) -> float:
            return float(np.max(mags * np.exp(factors(tau, t0, x))))

    return integrand


def integrate_norm_trajectory(
    xi: SkewEvolutionSemiflow,
    t0: float,
    x: BasePoint,
    v: Sequence[float] | np.ndarray,
    t: float,
    cfg: QuadratureConfig = QuadratureConfig(),
) -> float:
    """Integral of tau -> ||Phi(tau, t0, x) v|| over [t0, t].

    Nonnegative, zero exactly when t == t0, and additive across a split
    point up to the combined tolerances.
    """
    if not (math.isfinite(t0) and math.isfinite(t)) or t0 < 0.0 or t < t0:
        raise DomainError(f"need t >= t0 >= 0, got (t={t}, t0={t0})")
    arr = np.asarray(v, dtype=float)
    if not np.any(arr != 0.0):
        raise PreconditionError("trajectory integral needs a nonzero vector")
    if t == t0:
        return 0.0
    return adaptive_simpson(_norm_trajectory_fn(xi, t0, x, arr), t0, t, cfg)


def norm_integral_prefix(
    xi: SkewEvolutionSemiflow,
    x: BasePoint,
    v: Sequence[float] | np.ndarray,
    times: Sequence[float],
    cfg: QuadratureConfig = QuadratureConfig(),
) -> np.ndarray:
    """Cumulative trajectory integrals from times[0] to every grid time.

    Integrates each segment adaptively and prefix-sums, so all endpoints
    share one consistent set of segment values.  The integral and check
    paths both call this, which keeps their margins bit-identical.
    """
    ts = [float(u) for u in times]
    if not ts:
        raise PreconditionError("grid nonempty")
    if any(b >= a for a, b in zip(ts[1:], ts)) or ts[0] < 0.0:
        raise PreconditionError("times must be strictly increasing and >= 0")
    arr = np.asarray(v, dtype=float)
    if not np.any(arr != 0.0):
        raise PreconditionError("trajectory integral needs a nonzero vector")
    t0 = ts[0]
    integrand = _norm_trajectory_fn(xi, t0, x, arr)
    out = np.zeros(len(ts))
    # An overflowing norm reaches adaptive_simpson as inf, which raises
    # "integrand is not finite"; numpy need not warn about it first.
    with np.errstate(over="ignore"):
        for i in range(1, len(ts)):
            out[i] = out[i - 1] + adaptive_simpson(integrand, ts[i - 1], ts[i], cfg)
    return out


def integrate_kernel(
    f: Callable[[float], float],
    alpha: float,
    length: float,
    cfg: QuadratureConfig = QuadratureConfig(),
    breakpoints: Sequence[float] = (),
) -> float:
    """Integral of e^{-alpha u} f(u) over [0, length] for a positive witness f.

    ``breakpoints`` lets tabulated (step-interpolated) witnesses pass
    their knots so each smooth piece is integrated separately; without
    them the adaptive core would chase the jumps forever.  Any
    nonpositive sample of f aborts the integration.
    """
    if not (math.isfinite(alpha) and math.isfinite(length)) or length <= 0.0:
        raise PreconditionError(f"kernel integral needs finite alpha and length > 0, got ({alpha}, {length})")

    def integrand(u: float) -> float:
        val = f(u)
        if not (val > 0.0) or not math.isfinite(val):
            raise PreconditionError(f"nonpositive f sample detected at u={u}: {val}")
        return math.exp(-alpha * u) * val

    cuts = sorted({float(b) for b in breakpoints if 0.0 < float(b) < length})
    edges = [0.0] + cuts + [length]
    total = 0.0
    for lo, hi in zip(edges, edges[1:]):
        # Step witnesses are right-closed: on (lo, hi] they take the value
        # at hi, so sampling f exactly at lo would see the previous piece
        # and the refinement loop would chase that jump to max_depth.
        # Evaluating the left edge a half-ulp inside keeps step pieces
        # exactly constant and is invisible for continuous integrands.
        inside = math.nextafter(lo, hi)

        def piece(u: float, _lo: float = lo, _inside: float = inside) -> float:
            return integrand(u if u > _lo else _inside)

        total += adaptive_simpson(piece, lo, hi, cfg)
    return total
