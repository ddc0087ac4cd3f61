"""Adaptive Simpson quadrature for norm trajectories.

The integral-instability side of the certificate calculus needs the
running integral of ||Phi(tau, t0, x) v|| along a trajectory.  It uses
an adaptive Simpson core with the standard |S2 - S1| / 15 error
estimate and Richardson correction.  The core refines many intervals at
once, so the running integral from one base time t0 over every later
grid segment is a single call.  The kernel integrals of a decay witness
have closed forms (``certificates.integrate_kernel``).

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

    ``a`` and ``b`` are floats, equal-length 1-D arrays, or 2-D arrays of
    one shape (F, m): F families of m intervals.  ``f`` maps a 1-D array of
    nodes to their values, or for 2-D ends to an (F, n) array whose row r
    is family r's integrand; interval (r, c) reads row r.  All intervals
    refine level by level, one ``f`` call per depth, and a subinterval
    stops once its Richardson estimate |S2 - S1| / 15 meets its tolerance,
    halved at each split.  Each interval's leaves are summed right to left
    in strict sequence, as a depth-first stack popping right halves first
    would, so a batch returns bit for bit what one call per interval (and
    per family) would.  A non-finite error estimate raises DomainError at
    once; reaching max_depth raises QuadratureDepthError with the estimate
    (an array shaped like the ends for array input) as ``partial``.  Both
    name the interval of the first failing (family, interval) pair at the
    shallowest failing depth.
    """
    scalar = np.ndim(a) == 0 and np.ndim(b) == 0
    lo, hi = (np.atleast_1d(np.asarray(end, dtype=float)) for end in (a, b))
    if lo.ndim > 2 or lo.shape != hi.shape:
        raise PreconditionError(f"interval ends must be 1-D or 2-D arrays of one shape, got {lo.shape} and {hi.shape}")
    shape, families = lo.shape, len(lo) if lo.ndim == 2 else 1
    lo, hi = lo.ravel(), hi.ravel()
    bad = ~(np.isfinite(lo) & np.isfinite(hi) & (hi >= lo))
    if bad.any():
        i = int(np.argmax(bad))
        raise DomainError(f"bad integration interval [{float(lo[i])}, {float(hi[i])}]")

    # One entry per live subinterval, kept in (family, interval, position)
    # order, so the first flagged entry is always the leftmost one.
    owner = np.flatnonzero(hi > lo)
    if not len(owner):
        return 0.0 if scalar else np.zeros(shape)
    per_family = len(lo) // families

    def values(live: np.ndarray, *parts: np.ndarray) -> np.ndarray:
        """f at the nodes of ``parts``, one row per part, each node read from its owner's family row."""
        ys = np.reshape(f(np.concatenate(parts)), (families, len(parts), len(live)))
        return ys[live // per_family, :, np.arange(len(live))].T

    xa, xb = lo[owner], hi[owner]
    xm = 0.5 * (xa + xb)
    ya, ym, yb = values(owner, xa, xm, xb)
    s_whole = _simpson(ya, ym, yb, xb - xa)
    loc_tol = np.fmax(cfg.abs_tol, cfg.rel_tol * np.abs(s_whole))  # nan -> abs_tol, as max() does

    leaves = []  # (owner, left end, value) of every finished subinterval
    exhausted = owner[:0]
    for depth in range(cfg.max_depth + 1):
        if not len(owner):
            break
        lm, rm = 0.5 * (xa + xm), 0.5 * (xm + xb)
        ylm, yrm = values(owner, lm, rm)
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
        left = np.array([xa, ya, lm, ylm, xm, ym, s_left])[:, keep]
        right = np.array([xm, ym, rm, yrm, xb, yb, s_right])[:, keep]
        xa, ya, xm, ym, xb, yb, s_whole = np.stack([left, right], axis=2).reshape(7, -1)
        loc_tol = np.repeat(0.5 * loc_tol[keep], 2)

    who, left_end, value = (np.concatenate(col) for col in zip(*leaves))
    order = np.lexsort((-left_end, who))  # by interval, then right to left
    who, value = who[order], value[order]
    col = 1 + np.arange(len(who)) - np.searchsorted(who, who)
    rows = np.zeros((len(lo), 1 + col.max()))
    rows[who, col] = value
    total = np.cumsum(rows, axis=1)[:, -1]  # strictly sequential, from 0.0
    result = float(total[0]) if scalar else total.reshape(shape)
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
    xi: SkewEvolutionSemiflow, t0: float, x: BasePoint, block: np.ndarray
):
    """Integrand taus -> ||Phi(tau, t0, x) v|| for every row v of a (V, dim) block.

    Maps a 1-D array of n taus to a (V, n) array.  The norm is assembled
    directly from the model's log factors, skipping a per-call log/exp
    round trip, and one ``log_factors`` call per node array serves every
    vector; this is the hot inner function of every Datko-style integral.
    Sums run along a contiguous last axis, which adds each node's
    components in the order np.sum does for one.
    """
    factors = xi.log_factors
    euclid = xi.norm_choice is NormChoice.EUCLID
    p = 2.0 if euclid else 1.0
    mags = np.abs(block)[:, None, :]
    weights = mags * mags if euclid else mags

    def terms(taus: np.ndarray) -> np.ndarray:  # [vector, node, component]
        return weights * np.ascontiguousarray(np.exp(p * factors(taus, t0, x)).T)

    if xi.norm_choice is NormChoice.SUM_ABS:
        return lambda taus: terms(taus).sum(axis=2)
    if euclid:
        return lambda taus: np.sqrt(terms(taus).sum(axis=2))
    return lambda taus: np.max(terms(taus), axis=2)


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
    return adaptive_simpson(_norm_trajectory_fn(xi, t0, x, arr[None]), t0, t, cfg)


def norm_integral_prefix(
    xi: SkewEvolutionSemiflow,
    x: BasePoint,
    v: Sequence[float] | np.ndarray,
    times: Sequence[float],
    cfg: QuadratureConfig = QuadratureConfig(),
) -> np.ndarray:
    """Cumulative trajectory integrals from times[0] to every grid time.

    ``v`` is one vector, giving an (n,) prefix, or a (V, dim) block of
    vectors, giving one prefix per row in a (V, n) array.  Every grid
    segment of every vector is refined in one batched adaptive_simpson
    call, bit for bit as one call per vector would, and prefix-summed, so
    all endpoints share one consistent set of segment values.  The
    integral and check paths both call this, which keeps their margins
    bit-identical.
    """
    ts = np.asarray(times, dtype=float)
    if not len(ts):
        raise PreconditionError("grid nonempty")
    if np.any(ts[1:] <= ts[:-1]) or ts[0] < 0.0:
        raise PreconditionError("times must be strictly increasing and >= 0")
    arr = np.asarray(v, dtype=float)
    block = np.atleast_2d(arr)
    if not np.all(np.any(block != 0.0, axis=1)):
        raise PreconditionError("trajectory integral needs a nonzero vector")
    ends = [np.broadcast_to(end, (len(block), len(ts) - 1)) for end in (ts[:-1], ts[1:])]
    segments = adaptive_simpson(_norm_trajectory_fn(xi, float(ts[0]), x, block), *ends, cfg)
    prefix = np.cumsum(np.concatenate([np.zeros((len(block), 1)), segments], axis=1), axis=1)
    return prefix if arr.ndim == 2 else prefix[0]

