"""Adaptive Simpson quadrature for norm trajectories and weighted kernels.

The integral-instability side of the certificate calculus needs two
integrals: the running integral of ||Phi(tau, t0, x) v|| along a
trajectory, and kernels of the form integral_0^L e^{-alpha u} f(u) du
for a decay witness f.  Both use the same adaptive Simpson core with the
standard |S2 - S1| / 15 error estimate and Richardson correction.  The
core refines many intervals at once, so the running integral from one
base time t0 over every later grid segment is a single call.

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


def _simpson(fa, fm, fb, h):
    return h / 6.0 * (fa + 4.0 * fm + fb)


# inf and nan end in DomainError below, so numpy need not warn first
@np.errstate(over="ignore", invalid="ignore")
def adaptive_simpson(f: Callable[[np.ndarray], np.ndarray], a, b, cfg: QuadratureConfig):
    """Integrate f over each [a, b] to max(abs_tol, rel_tol * |estimate|).

    ``a`` and ``b`` are floats or equal-length 1-D arrays; ``f`` maps a
    1-D array of nodes to their values.  All intervals refine level by
    level, one ``f`` call per depth, and a subinterval stops once its
    Richardson estimate |S2 - S1| / 15 meets its tolerance, halved at each
    split.  Each interval's leaves are summed right to left in strict
    sequence, as a depth-first stack popping right halves first would, so
    a batch returns bit for bit what one call per interval would.  A
    non-finite error estimate raises DomainError at once; reaching
    max_depth raises QuadratureDepthError with the estimate (an array for
    array input) as ``partial``.  Both name the leftmost failing interval
    at the shallowest failing depth.
    """
    scalar = np.ndim(a) == 0 and np.ndim(b) == 0
    lo, hi = (np.atleast_1d(np.asarray(end, dtype=float)) for end in (a, b))
    if lo.ndim != 1 or lo.shape != hi.shape:
        raise PreconditionError(f"interval ends must be equal-length 1-D arrays, got {lo.shape} and {hi.shape}")
    bad = ~(np.isfinite(lo) & np.isfinite(hi) & (hi >= lo))
    if bad.any():
        i = int(np.argmax(bad))
        raise DomainError(f"bad integration interval [{float(lo[i])}, {float(hi[i])}]")

    # One entry per live subinterval, kept in (interval, position) order,
    # so the first flagged entry is always the leftmost one.
    owner = np.flatnonzero(hi > lo)
    if not len(owner):
        return 0.0 if scalar else np.zeros(len(lo))
    xa, xb = lo[owner], hi[owner]
    xm = 0.5 * (xa + xb)
    ya, ym, yb = np.reshape(f(np.concatenate([xa, xm, xb])), (3, -1))
    s_whole = _simpson(ya, ym, yb, xb - xa)
    loc_tol = np.fmax(cfg.abs_tol, cfg.rel_tol * np.abs(s_whole))  # nan -> abs_tol, as max() does

    leaves = []  # (owner, left end, value) of every finished subinterval
    exhausted = owner[:0]
    for depth in range(cfg.max_depth + 1):
        if not len(owner):
            break
        lm, rm = 0.5 * (xa + xm), 0.5 * (xm + xb)
        ylm, yrm = np.reshape(f(np.concatenate([lm, rm])), (2, -1))
        s_left = _simpson(ya, ylm, ym, xm - xa)
        s_right = _simpson(ym, yrm, yb, xb - xm)
        err = (s_left + s_right - s_whole) / 15.0
        done = (np.abs(err) <= loc_tol) | (xm <= xa) | (xb <= xm)
        # Halving cannot repair an overflowed integrand; without this
        # check every subinterval would refine to max_depth.
        broken = ~done & ~np.isfinite(err)
        if broken.any():
            i = int(np.argmax(broken))
            raise DomainError(f"integrand is not finite on [{float(xa[i])}, {float(xb[i])}]")
        if depth == cfg.max_depth:
            exhausted = owner[~done]
            done[:] = True
        leaves.append((owner[done], xa[done], s_left[done] + s_right[done] + err[done]))
        keep = np.flatnonzero(~done)
        owner = np.repeat(owner[keep], 2)
        # each split subinterval becomes its left half, then its right half
        xa, ya, xm, ym, xb, yb, s_whole = [
            np.stack([left[keep], right[keep]], axis=1).ravel()
            for left, right in ((xa, xm), (ya, ym), (lm, rm), (ylm, yrm), (xm, xb), (ym, yb), (s_left, s_right))
        ]
        loc_tol = np.repeat(0.5 * loc_tol[keep], 2)

    who, left_end, value = (np.concatenate(col) for col in zip(*leaves))
    order = np.lexsort((-left_end, who))  # by interval, then right to left
    who, value = who[order], value[order]
    col = 1 + np.arange(len(who)) - np.searchsorted(who, who)
    rows = np.zeros((len(lo), 1 + col.max()))
    rows[who, col] = value
    total = np.cumsum(rows, axis=1)[:, -1]  # strictly sequential, from 0.0
    result = float(total[0]) if scalar else total
    if len(exhausted):
        i = int(exhausted[0])
        raise QuadratureDepthError(
            f"adaptive refinement hit max_depth={cfg.max_depth} on [{float(lo[i])}, {float(hi[i])}]",
            partial=result,
        )
    return result


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
    """Integrand taus -> ||Phi(tau, t0, x) arr|| for a 1-D array of taus.

    The norm is assembled directly from the model's log factors, skipping
    a per-call log/exp round trip; this is the hot inner function of
    every Datko-style integral.  Sums run along a contiguous last axis,
    which adds each node's components in the order np.sum does for one.
    """
    factors = xi.log_factors
    mags = np.abs(arr)[:, None]
    if xi.norm_choice is NormChoice.SUM_ABS:

        def integrand(taus: np.ndarray) -> np.ndarray:
            return np.ascontiguousarray((mags * np.exp(factors(taus, t0, x))).T).sum(axis=1)

    elif xi.norm_choice is NormChoice.EUCLID:
        sq = mags * mags

        def integrand(taus: np.ndarray) -> np.ndarray:
            return np.sqrt(np.ascontiguousarray((sq * np.exp(2.0 * factors(taus, t0, x))).T).sum(axis=1))

    else:

        def integrand(taus: np.ndarray) -> np.ndarray:
            return np.max(mags * np.exp(factors(taus, t0, x)), axis=0)

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
    return adaptive_simpson(_norm_trajectory_fn(xi, t0, x, arr), t0, t, cfg)


def norm_integral_prefix(
    xi: SkewEvolutionSemiflow,
    x: BasePoint,
    v: Sequence[float] | np.ndarray,
    times: Sequence[float],
    cfg: QuadratureConfig = QuadratureConfig(),
) -> np.ndarray:
    """Cumulative trajectory integrals from times[0] to every grid time.

    Integrates every grid segment in one batched adaptive_simpson call and
    prefix-sums, so all endpoints share one consistent set of segment
    values.  The integral and check paths both call this, which keeps
    their margins bit-identical.
    """
    ts = np.asarray(times, dtype=float)
    if not len(ts):
        raise PreconditionError("grid nonempty")
    if np.any(ts[1:] <= ts[:-1]) or ts[0] < 0.0:
        raise PreconditionError("times must be strictly increasing and >= 0")
    arr = np.asarray(v, dtype=float)
    if not np.any(arr != 0.0):
        raise PreconditionError("trajectory integral needs a nonzero vector")
    segments = adaptive_simpson(_norm_trajectory_fn(xi, float(ts[0]), x, arr), ts[:-1], ts[1:], cfg)
    return np.cumsum(np.concatenate([[0.0], segments]))


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

        def piece(us: np.ndarray, _lo: float = lo, _inside: float = inside) -> np.ndarray:
            return np.array([integrand(u if u > _lo else _inside) for u in us.tolist()])

        total += adaptive_simpson(piece, lo, hi, cfg)
    return total
