"""Adaptive Simpson quadrature for norm trajectories.

The integral-instability side of the certificate calculus needs the
running integral of ||Phi(tau, t0, x) v|| along a trajectory.  It uses
an adaptive Simpson core with the standard |S2 - S1| / 15 error
estimate and Richardson correction.  The core refines many families of
intervals at once, each node evaluated only in its own family, so the
running integrals of one base point from every base time t0, for every
distinct |v|, over every later grid segment take a few calls.  The
kernel integrals of a decay witness have closed forms
(``certificates.integrate_kernel``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import (
    BasePoint,
    DomainError,
    PreconditionError,
    SkewEvolutionSemiflow,
    _coordinate,
    _finite,
    _floats,
    _int,
    _integer,
    _log_factors,
    _log_norm,
    _number,
    _require_keys,
    _time_axis,
)


class QuadratureDepthError(RuntimeError):
    """Raised when refinement hits max_depth or the live-subinterval budget."""


@dataclass(frozen=True)
class QuadratureConfig:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_depth: int = 48

    def __post_init__(self) -> None:
        _finite(self.rel_tol, "rel_tol", minimum=1e-13)
        _finite(self.abs_tol, "abs_tol", positive=True)
        _int(self.max_depth, "max_depth", 1, 60)

    def to_json_dict(self) -> dict:
        return {"rel_tol": self.rel_tol, "abs_tol": self.abs_tol, "max_depth": self.max_depth}

    @classmethod
    def from_json_dict(cls, doc, what: str) -> QuadratureConfig:
        """The config of the JSON object ``doc``; absent keys take the defaults, and messages name ``what``."""
        _require_keys(doc, set(), {"rel_tol", "abs_tol", "max_depth", "datko_lower_limit"}, what)
        # Older files name the trajectory integral's lower limit, which is always t0.
        if doc.get("datko_lower_limit", "t0") != "t0":
            raise PreconditionError(f"{what}.datko_lower_limit supports only 't0', got {doc['datko_lower_limit']!r}")
        defaults = cls()
        return cls(
            rel_tol=_number(doc, "rel_tol", defaults.rel_tol, name=f"{what}.rel_tol"),
            abs_tol=_number(doc, "abs_tol", defaults.abs_tol, name=f"{what}.abs_tol"),
            max_depth=_integer(doc, "max_depth", defaults.max_depth, name=f"{what}.max_depth"),
        )


# The most subintervals one adaptive_simpson call keeps live at once, which
# bounds its memory: a split past it stops the call as max_depth does.
MAX_LIVE_SUBINTERVALS = 2**20


def _simpson(fa, fm, fb, h):
    return h / 6.0 * (fa + 4.0 * fm + fb)


# inf and nan end in DomainError below, so numpy need not warn first
@np.errstate(over="ignore", invalid="ignore")
def adaptive_simpson(
    f: Callable[[np.ndarray | tuple[np.ndarray, np.ndarray]], np.ndarray], a, b, cfg: QuadratureConfig
):
    """Integrate f over each [a, b] to max(abs_tol, rel_tol * |estimate|).

    ``a`` and ``b`` are floats, equal-length 1-D arrays, or 2-D arrays of
    one shape (F, m): F families of m intervals.  For float and 1-D ends
    ``f`` maps a 1-D array of nodes to their values.  For 2-D ends ``f``
    takes one argument, the pair ``(nodes, rows)`` of two equal-length
    1-D arrays, and returns the value at each node of the integrand of
    family ``rows[p]``; interval (r, c) belongs to family r.  All
    intervals refine level by level, one ``f`` call per depth, and a
    subinterval stops once its Richardson estimate |S2 - S1| / 15 meets
    its tolerance, halved at each split.  Each interval's leaves are summed
    right to left in strict sequence from 0.0, as a depth-first stack
    popping right halves first would, so a batch returns bit for bit what
    one call per interval (and per family) would.  A non-finite error
    estimate raises DomainError at once; reaching max_depth, or a split
    past ``MAX_LIVE_SUBINTERVALS`` live subintervals, raises
    QuadratureDepthError at that level.  Both name the interval of the
    first failing (family, interval) pair at the shallowest failing depth.
    """
    scalar = np.ndim(a) == 0 and np.ndim(b) == 0
    lo, hi = (np.atleast_1d(np.asarray(end, dtype=float)) for end in (a, b))
    if lo.ndim > 2 or lo.shape != hi.shape:
        raise PreconditionError(f"interval ends must be 1-D or 2-D arrays of one shape, got {lo.shape} and {hi.shape}")
    shape, batched = lo.shape, lo.ndim == 2
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
    per_family = shape[-1]

    def values(live: np.ndarray, *parts: np.ndarray) -> np.ndarray:
        """f at the nodes of ``parts``, one row per part, each node in its owner's family."""
        nodes = np.concatenate(parts)
        ys = f((nodes, np.tile(live // per_family, len(parts)))) if batched else f(nodes)
        return np.reshape(ys, (len(parts), len(live)))

    xa, xb = lo[owner], hi[owner]
    xm = 0.5 * (xa + xb)
    ya, ym, yb = values(owner, xa, xm, xb)
    s_whole = _simpson(ya, ym, yb, xb - xa)
    loc_tol = np.fmax(cfg.abs_tol, cfg.rel_tol * np.abs(s_whole))  # nan -> abs_tol, as max() does

    leaves = []  # (owner, left end, value) of every finished subinterval
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
        splits = np.count_nonzero(~done)
        if splits and (depth == cfg.max_depth or 2 * splits > MAX_LIVE_SUBINTERVALS):
            limit = f"max_depth={cfg.max_depth}" if depth == cfg.max_depth else (
                f"the budget of {MAX_LIVE_SUBINTERVALS} live subintervals")
            i = int(owner[np.argmin(done)])
            raise QuadratureDepthError(f"adaptive refinement hit {limit} on [{float(lo[i])}, {float(hi[i])}]")
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
    total = np.zeros(len(lo))
    np.add.at(total, who[order], value[order])  # adds in index order: strictly sequential, from 0.0
    return float(total[0]) if scalar else total.reshape(shape)


def _norm_trajectory_fn(
    xi: SkewEvolutionSemiflow, t0s: np.ndarray, x: BasePoint, log_mags: np.ndarray
):
    """Integrand (taus, rows) -> ||Phi(taus[p], t0s[r], x) v_r|| with r = rows[p], per node p.

    Family r is the trajectory from base time ``t0s[r]`` of the v_r with
    log |v_r| = ``log_mags[r]``, and one checked ``core._log_factors`` call
    serves every node of every family.  The norm is exp of
    ``core._log_norm``, the kernel of ``log_norms``, without its domain
    checks (every node lies in [t0, t]).  Each node's terms lie on a
    contiguous last axis, so a node is reduced as it would be alone.
    """
    def integrand(nodes) -> np.ndarray:
        taus, rows = nodes
        terms = np.ascontiguousarray(_log_factors(xi, taus, t0s[rows], x).T) + log_mags[rows]  # [node, component]
        return np.exp(_log_norm(terms, xi.norm_choice))

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
    point up to the combined tolerances.  The one-segment case of
    ``norm_integral_prefix`` on log |v|, with its bits and its checks;
    t == t0 is its one-knot axis (t0,), whose prefix is 0.
    """
    t0, t = _coordinate(t0, "trajectory start t0", arrays=False), _coordinate(t, "trajectory end t", arrays=False)
    if t < t0:
        raise DomainError(f"need t >= t0 >= 0, got (t={t}, t0={t0})")
    with np.errstate(divide="ignore"):
        log_mags = np.log(np.abs(np.asarray(_floats(v, "trajectory vector"))))
    return float(norm_integral_prefix(xi, x, log_mags, (t0, t) if t > t0 else (t0,), cfg)[0, -1])


# The most real grid segments (over base times and distinct |v|) that one
# adaptive_simpson call of norm_integral_prefix holds, which bounds its memory.
MAX_BATCH_SEGMENTS = 4096


def norm_integral_prefix(
    xi: SkewEvolutionSemiflow,
    x: BasePoint,
    log_mags: Sequence[float] | np.ndarray,
    times: Sequence[float],
    cfg: QuadratureConfig = QuadratureConfig(),
) -> np.ndarray:
    """Cumulative trajectory integrals from every grid time to every later one.

    ``log_mags`` is log |v| of one vector v (-inf for a zero component),
    giving an (n, n) array P, or a (V, dim) block of such rows, giving one
    such array per row in a (V, n, n) array.  P[..., k, i] is the integral
    of ||Phi(tau, t_k, x) v|| over [t_k, t_i], and 0 for i <= k; row k is
    the prefix over the grid ``times[k:]``, each grid segment refined on
    its own and the segments summed left to right.

    Equal rows have the same integrand, so each distinct row is
    integrated once.  Families (base time k, distinct |v|) are batched in
    one adaptive_simpson call per group of consecutive base times, each
    group holding at most ``MAX_BATCH_SEGMENTS`` real segments (or one
    base time); a family's segments before t_k have zero length.  Every
    segment ends with the bits that one call for it alone would give.  A
    failing integral raises from the first failing group, naming the
    interval of the first failing (base time, vector, segment) at the
    shallowest failing depth within that group, so a non-finite integrand
    there is named before any segment that runs out of depth.  The
    integral and check paths both read their integrals here, which keeps
    their margins bit-identical.
    """
    ts = np.asarray(_time_axis(times, "times"))
    if not len(ts):
        raise PreconditionError("grid nonempty")
    arr = np.asarray(log_mags, dtype=float)
    block = np.atleast_2d(arr)
    if not np.all(np.any(np.isfinite(block), axis=1)):
        raise PreconditionError("trajectory integral needs a nonzero vector")
    # distinct rows, in order of first appearance; inverse maps each row to its own
    _, first, inverse = np.unique(block, axis=0, return_index=True, return_inverse=True)
    order = np.argsort(first)
    distinct, inverse = block[first[order]], np.argsort(order)[inverse.ravel()]
    n, d = len(ts), len(distinct)
    prefix = np.zeros((d, n, n))
    real = (n - 1 - np.arange(n - 1)) * d  # real segments of each base time
    k0 = 0
    while k0 < n - 1:
        k1 = k0 + max(1, int(np.searchsorted(np.cumsum(real[k0:]), MAX_BATCH_SEGMENTS, side="right")))
        ks, j = np.arange(k0, k1), np.arange(k0, n - 1)
        live = j >= ks[:, None]  # (base time, segment j), both from k0
        lo = np.repeat(np.broadcast_to(ts[j], live.shape), d, axis=0)
        hi = np.repeat(np.where(live, ts[j + 1], ts[j]), d, axis=0)
        fn = _norm_trajectory_fn(xi, np.repeat(ts[ks], d), x, np.tile(distinct, (len(ks), 1)))
        segments = adaptive_simpson(fn, lo, hi, cfg).reshape(len(ks), d, -1)
        prefix[:, k0:k1, k0 + 1:] = np.cumsum(segments, axis=2).transpose(1, 0, 2)
        k0 = k1
    prefix = prefix[inverse]
    return prefix if arr.ndim == 2 else prefix[0]
