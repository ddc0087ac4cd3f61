"""Core algebra for skew-evolution semiflows and their evolution cocycles.

A skew-evolution semiflow is a pair: a semiflow on a base space of
trajectories, plus a linear cocycle acting on R^p fibers above it.  This
module owns the base-point and grid types, the evaluation entry points
with their domain checks (pairs (t, s) must satisfy t >= s >= 0), the
exponential shift, the algebraic law checkers, and the metric on the
base space of shifted generator functions.

Norms of cocycle values span many orders of magnitude, so every margin
that feeds a pass/fail decision is computed in log-space from the
model's per-component log factors.  ``log_norms`` evaluates them for
whole arrays of time pairs at once and is the one path every estimator,
checker and validator reads; the scalar ``log_cocycle_norm`` is kept as
an independent reference for tests.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Callable, Iterable, Sequence

import numpy as np


class DomainError(ValueError):
    """Evaluation outside t >= s >= 0, wrong base variant, or bad dimension."""


class PreconditionError(ValueError):
    """An operation's stated precondition was violated."""


# JSON numbers: bools are ints in Python, but not numbers in a document.
def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _float_list(value, what: str) -> list[float]:
    if not isinstance(value, list) or not all(_is_number(v) for v in value):
        raise PreconditionError(f"{what} must be a list of numbers")
    return [float(v) for v in value]


def _require_keys(doc: dict, required: set[str], optional: set[str], what: str) -> None:
    keys = set(doc)
    missing = required - keys
    unknown = keys - required - optional
    if missing:
        raise PreconditionError(f"{what} is missing keys {sorted(missing)}")
    if unknown:
        raise PreconditionError(f"{what} has unknown keys {sorted(unknown)}")


class NormChoice(Enum):
    SUM_ABS = "sum_abs"
    EUCLID = "euclid"
    MAX_ABS = "max_abs"


# ---------------------------------------------------------------------------
# Base points
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Trivial:
    """Base point for scalar models: a nonnegative time-like coordinate, or an array of them."""

    value: float | np.ndarray = 0.0

    def __post_init__(self) -> None:
        if not np.all(np.isfinite(self.value) & (np.asarray(self.value) >= 0.0)):
            raise DomainError(f"Trivial base point needs a finite value >= 0, got {self.value}")

    def label(self) -> str:
        return f"trivial({self.value:.17g})"


@dataclass(frozen=True)
class ShiftedGenerator:
    """The n-th generator function shifted left by sigma.

    Represents u -> x_n(u + sigma) where (x_n) is the fixed decreasing
    family implemented in :mod:`cocycle_lab.models`.  ``sigma`` may be
    an array, like ``Trivial.value``.
    """

    n: int
    sigma: float | np.ndarray = 0.0

    def __post_init__(self) -> None:
        if not (isinstance(self.n, int) and self.n >= 1):
            raise DomainError(f"generator index must be an integer >= 1, got {self.n!r}")
        if not np.all(np.isfinite(self.sigma) & (np.asarray(self.sigma) >= 0.0)):
            raise DomainError(f"generator shift must be finite and >= 0, got {self.sigma}")

    def label(self) -> str:
        return f"x{self.n}^{self.sigma:.17g}"


BasePoint = Trivial | ShiftedGenerator


def base_discrepancy(a: BasePoint, b: BasePoint) -> float | np.ndarray:
    """Coordinate discrepancy between base points (inf across variants);
    array coordinates broadcast."""
    if isinstance(a, Trivial) and isinstance(b, Trivial):
        return abs(a.value - b.value)
    if isinstance(a, ShiftedGenerator) and isinstance(b, ShiftedGenerator) and a.n == b.n:
        return abs(a.sigma - b.sigma)
    return math.inf


# ---------------------------------------------------------------------------
# Vectors and norms
# ---------------------------------------------------------------------------


def norm(v: Sequence[float] | np.ndarray, choice: NormChoice = NormChoice.SUM_ABS) -> float:
    arr = np.asarray(v, dtype=float)
    if choice is NormChoice.SUM_ABS:
        return math.fsum(np.abs(arr).flat)  # correctly rounded: np.sum's order error broke the triangle inequality
    if choice is NormChoice.EUCLID:
        return math.hypot(*arr)  # scaled: components below 1e-154 do not square to 0
    return float(np.max(np.abs(arr)))


# ---------------------------------------------------------------------------
# The pair (semiflow, cocycle)
# ---------------------------------------------------------------------------

SemiflowFn = Callable[[float | np.ndarray, float | np.ndarray, BasePoint], BasePoint]
LogFactorsFn = Callable[[float | np.ndarray, float | np.ndarray, BasePoint], np.ndarray]


@dataclass(frozen=True, eq=False)
class SkewEvolutionSemiflow:
    """An evolution semiflow on base points plus a cocycle on R^p fibers.

    A model is ``semiflow`` plus ``log_factors``.  ``log_factors(t, s, x)``
    returns the per-component log gains lf of the diagonal cocycle,
    Phi(t, s, x) v = v * exp(lf(t, s, x)), so norms are evaluated in
    log-space without overflow.  Both functions accept arrays: t, s and
    the coordinate of x (``Trivial.value`` or ``ShiftedGenerator.sigma``)
    broadcast together, so ``semiflow`` returns one base point with an
    array coordinate and ``log_factors`` has shape ``(dimension,)`` plus
    the broadcast shape.  Every law check, estimator, checker and
    validator reads the cocycle through it.  The cocycle laws ask for
    lf(t, t, x) = 0 and lf(t, s, phi(s, t0, x)) + lf(s, t0, x) = lf(t, t0, x);
    ``check_cocycle_laws`` measures both in log space, as the relative
    residual ||w * expm1(gap)|| / ||w|| with weights w = |v| exp(lf(t, t0, x)),
    net of a roundoff allowance on each gap.
    ``strongly_measurable`` gates the integral-instability operations.
    ``descriptor`` records how the model was built, for reports.
    """

    semiflow: SemiflowFn
    dimension: int
    log_factors: LogFactorsFn
    norm_choice: NormChoice = NormChoice.SUM_ABS
    strongly_measurable: bool = True
    descriptor: dict = field(default_factory=dict)
    # Read by nothing: it exists only because the benchmark tracer's
    # counted_model replaces a ``cocycle`` field by name.
    cocycle: None = None


def _require_pair(t: float, s: float) -> None:
    if not (math.isfinite(t) and math.isfinite(s)):
        raise DomainError(f"times must be finite, got (t={t}, s={s})")
    if s < 0.0 or t < s:
        raise DomainError(f"(t, s) = ({t}, {s}) outside the admissible region t >= s >= 0")


def eval_semiflow(xi: SkewEvolutionSemiflow, t: float, s: float, x: BasePoint) -> BasePoint:
    _require_pair(t, s)
    return xi.semiflow(t, s, x)


def log_cocycle_norm(
    xi: SkewEvolutionSemiflow, t: float, s: float, x: BasePoint, v: Sequence[float] | np.ndarray
) -> float:
    """log ||Phi(t, s, x) v|| for one pair and one vector, in plain Python.

    The scalar reference that tests hold ``log_norms`` to.  Returns -inf
    for an exactly zero image.
    """
    _require_pair(t, s)
    arr = np.asarray(v, dtype=float)
    if arr.shape != (xi.dimension,):
        raise DomainError(f"vector has shape {arr.shape}, model dimension is {xi.dimension}")
    g = np.asarray(xi.log_factors(t, s, x), dtype=float)
    terms = [float(gk) + math.log(abs(c)) for gk, c in zip(g, arr.tolist()) if c != 0.0]
    if not terms:
        return -math.inf
    m = max(terms)
    if xi.norm_choice is NormChoice.MAX_ABS or len(terms) == 1 or not math.isfinite(m):
        return m
    p = 2.0 if xi.norm_choice is NormChoice.EUCLID else 1.0
    return m + math.log(math.fsum(math.exp(p * (a - m)) for a in terms)) / p


def _log_norm(terms: np.ndarray, choice: NormChoice) -> np.ndarray:
    """log of the ``choice`` norm over axis 1, from log |component| terms.

    The sum and Euclidean norms are a log-sum-exp, so no norm is formed in
    linear space; a non-finite maximum passes through.
    """
    m = np.max(terms, axis=1)
    if choice is NormChoice.MAX_ABS:
        return m
    p = 2.0 if choice is NormChoice.EUCLID else 1.0
    with np.errstate(invalid="ignore"):
        out = m + np.log(np.sum(np.exp(p * (terms - m[:, None])), axis=1)) / p
    return np.where(np.isfinite(m), out, m)


def _log_factors(
    xi: SkewEvolutionSemiflow, t, s, x: BasePoint, vanished_ok: bool = True
) -> np.ndarray:
    """``xi.log_factors(t, s, x)`` as a float array, with every factor checked.

    Raises DomainError at the first (t, s) whose factors hold +inf or NaN,
    and also -inf unless ``vanished_ok``: a -inf factor is a component
    that vanished.  The model's overflow warnings give way to that error.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        g = np.asarray(xi.log_factors(t, s, x), dtype=float)
    if np.isfinite(g).all():
        return g
    bad = (np.isnan(g) | (g == math.inf) if vanished_ok else ~np.isfinite(g)).any(axis=0)
    if bad.any():
        t, s = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(s, dtype=float))
        at = np.unravel_index(np.argmax(bad), bad.shape)
        raise DomainError(
            f"log factors {g[(slice(None),) + at].tolist()} at (t={t[at]}, s={s[at]}) are not all finite"
        )
    return g


def log_norms(
    xi: SkewEvolutionSemiflow,
    t: float | np.ndarray,
    s: float | np.ndarray,
    x: BasePoint,
    vectors: Sequence[Sequence[float]] | np.ndarray,
) -> np.ndarray:
    """L[b, ...] = log ||Phi(t, s, x) vectors[b]|| over arrays of time pairs.

    ``t`` and ``s`` broadcast together, and the result has shape
    ``(len(vectors),) + np.broadcast(t, s).shape``.  One ``log_factors``
    call serves every pair and vector; the components are combined by a
    log-sum-exp, so no norm is formed in linear space.  Raises DomainError
    when a pair leaves t >= s >= 0 and PreconditionError when an image
    vanishes.  A log factor of +inf or NaN raises DomainError.
    """
    t, s = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(s, dtype=float))
    outside = ~(np.isfinite(t) & np.isfinite(s) & (s >= 0.0) & (t >= s))
    if outside.any():
        at = np.unravel_index(np.argmax(outside), outside.shape)
        raise DomainError(f"(t, s) = ({t[at]}, {s[at]}) outside the admissible region t >= s >= 0")
    vecs = np.asarray(vectors, dtype=float)
    if vecs.ndim != 2 or vecs.shape[1] != xi.dimension:
        raise DomainError(f"vectors have shape {vecs.shape}, model dimension is {xi.dimension}")
    g = _log_factors(xi, t, s, x)
    with np.errstate(divide="ignore"):
        # Zero components give -inf terms, which drop out of every norm.
        log_mags = np.log(np.abs(vecs)).reshape(vecs.shape + (1,) * t.ndim)
    out = _log_norm(g[None] + log_mags, xi.norm_choice)
    vanished = np.isneginf(out)
    if vanished.any():
        at = np.unravel_index(np.argmax(vanished), vanished.shape)[1:]
        raise PreconditionError(
            f"model degeneracy: cocycle image vanished at (t={t[at]}, s={s[at]})"
        )
    return out


def shift_cocycle(xi: SkewEvolutionSemiflow, gamma: float) -> SkewEvolutionSemiflow:
    """Damp the cocycle by exp(-gamma (t - s)), leaving the semiflow alone.

    Acts as a group in gamma: shifting by gamma1 then gamma2 agrees with
    shifting by gamma1 + gamma2 up to roundoff, and gamma = 0 is the
    identity.
    """
    if not math.isfinite(gamma):
        raise PreconditionError(f"shift parameter must be finite, got {gamma}")

    def shifted_log(t, s, x: BasePoint) -> np.ndarray:
        return np.asarray(xi.log_factors(t, s, x), dtype=float) - gamma * (t - s)

    return replace(
        xi, log_factors=shifted_log, descriptor={"kind": "shifted", "gamma": gamma, "base": xi.descriptor}
    )


# ---------------------------------------------------------------------------
# Sample grids
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SampleGrid:
    """Times, base points, and nonzero vectors to sample inequalities on.

    Admissible triples are (t, s, t0) drawn from ``times`` with
    t >= s >= t0, crossed with every base point and vector.
    """

    times: tuple[float, ...]
    base_points: tuple[BasePoint, ...]
    vectors: tuple[tuple[float, ...], ...]

    @classmethod
    def create(
        cls,
        times: Iterable[float],
        base_points: Iterable[BasePoint],
        vectors: Iterable[Sequence[float]],
    ) -> "SampleGrid":
        ts = tuple(float(t) for t in times)
        for t in ts:
            if not (math.isfinite(t) and t >= 0.0):
                raise PreconditionError(f"grid times must be finite and >= 0, got {t}")
        if any(b >= a for a, b in zip(ts[1:], ts)):
            raise PreconditionError("grid times must be strictly increasing")
        vecs = []
        for v in vectors:
            tup = tuple(float(c) for c in v)
            if not all(math.isfinite(c) for c in tup):
                raise PreconditionError(f"vector components must be finite, got {tup}")
            if all(c == 0.0 for c in tup):
                raise PreconditionError("zero vectors are not allowed in a sample grid")
            vecs.append(tup)
        return cls(times=ts, base_points=tuple(base_points), vectors=tuple(vecs))

    def require_nonempty(self) -> None:
        if not (self.times and self.base_points and self.vectors):
            raise PreconditionError("grid nonempty")

    def vector_arrays(self) -> list[np.ndarray]:
        return [np.asarray(v, dtype=float) for v in self.vectors]

    def vector_labels(self) -> list[str]:
        return [format_vector(v) for v in self.vectors]

    @property
    def grid_hash(self) -> str:
        parts = ["times:" + ",".join(f"{t:.17g}" for t in self.times)]
        parts.append("base:" + ";".join(x.label() for x in self.base_points))
        parts.append("vectors:" + ";".join(self.vector_labels()))
        return hashlib.sha256("|".join(parts).encode("ascii")).hexdigest()


def format_vector(v: Sequence[float]) -> str:
    return "[" + ",".join(f"{c:.17g}" for c in v) + "]"


# The sample layout.  Grid triples t_i >= t_j >= t_k are sampled in
# lexicographic (k, j, i) order, which fixes the row order of margins.csv and
# of every counterexample list; the s = t0 samples are those with j = k.


def _triples(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index arrays (k, j, i) of the triples k <= j <= i, in lexicographic order."""
    upper = np.triu(np.ones((n, n), dtype=bool))
    return np.nonzero(upper[:, :, None] & upper[None, :, :])


def _pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays (k, i) of the s = t0 samples k <= i, by k then i."""
    return np.triu_indices(n)


# ---------------------------------------------------------------------------
# Check reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Counterexample:
    t: float
    s: float
    t0: float
    base: str
    vector: str
    margin: float

    def sort_key(self) -> tuple:
        return (self.t, self.s, self.t0, self.base, self.vector)

    def to_json_dict(self) -> dict:
        return {
            "t": self.t,
            "s": self.s,
            "t0": self.t0,
            "base": self.base,
            "vector": self.vector,
            "margin": self.margin,
        }


# A sink receives one call per batch of samples that share a base point and a
# vector: (ts, ss, t0s, base_label, vector_label, margins), where ts, ss, t0s
# and margins are equal-length 1-D float arrays in sample order.  The arrays
# may be shared between batches, so a sink that keeps them must not write to
# them.
MarginSink = Callable[[np.ndarray, np.ndarray, np.ndarray, str, str, np.ndarray], None]


@dataclass(frozen=True)
class CheckReport:
    """Outcome of sampling one certificate inequality over a grid.

    ``worst_margin`` is the minimum log-margin over all samples and the
    verdict is Pass exactly when no sample fell below -tol.  The cocycle
    laws set ``roundoff_allowance``; JSON holds it only when it is set.
    """

    check: str
    tol: float
    samples_checked: int
    worst_margin: float
    counterexamples: tuple[Counterexample, ...]
    roundoff_allowance: float | None = None

    @property
    def verdict(self) -> str:
        return "pass" if not self.counterexamples else "fail"

    @property
    def passed(self) -> bool:
        return not self.counterexamples

    def to_json_dict(self) -> dict:
        doc = {
            "check": self.check,
            "tol": self.tol,
            "samples_checked": self.samples_checked,
            "worst_margin": self.worst_margin,
            "counterexamples": [c.to_json_dict() for c in self.counterexamples],
            "verdict": self.verdict,
        }
        if self.roundoff_allowance is not None:
            doc["roundoff_allowance"] = self.roundoff_allowance
        return doc


def _report(
    check: str, tol: float, sink: MarginSink | None, coords: tuple, rows
) -> CheckReport:
    """Sample one inequality: the report over (base label, vector label, margins) rows.

    Every row holds the margins of one base point and vector at the same
    samples, whose (t, s, t0) arrays are ``coords``; the rows go to the
    sink in order.  Only failures cost per-sample work.
    """
    if not (math.isfinite(tol) and tol >= 0.0):
        raise PreconditionError(f"margin tolerance must be finite and >= 0, got {tol}")
    samples, worst, failures = 0, math.inf, []
    ts, ss, t0s = coords
    for base, vector, margins in rows:
        if margins.size == 0:
            continue
        samples += margins.size
        # fmin skips NaN, and min keeps worst against the NaN of an all-NaN row.
        worst = min(worst, float(np.fmin.reduce(margins)))
        for idx in np.flatnonzero((margins < -tol) | np.isnan(margins)):
            failures.append(
                Counterexample(
                    float(ts[idx]), float(ss[idx]), float(t0s[idx]), base, vector, float(margins[idx])
                )
            )
        if sink is not None:
            sink(ts, ss, t0s, base, vector, margins)
    if samples == 0:
        raise PreconditionError("grid nonempty")
    return CheckReport(
        check=check,
        tol=tol,
        samples_checked=samples,
        worst_margin=worst,
        counterexamples=tuple(sorted(failures, key=Counterexample.sort_key)),
    )


# ---------------------------------------------------------------------------
# Law checkers
# ---------------------------------------------------------------------------

# Rounding bound of a cocycle gap, per unit of |lf(t, s, phi)| + |lf(s, t0)| +
# |lf(t, t0)|.  Each shipped log factor is a closed form of at most six
# roundings relative to its value, so it is off by at most gamma_6 |lf|
# (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., ch. 3);
# the two additions that join the three add gamma_2 times the sum (ch. 4).
# To first order in u = 2^-53 that is 8 u.  A factor that cancels inside its
# own formula, like the sin exponent, can round by more; tol covers that.
_GAP_ROUNDING = 8.0 * 2.0**-53

# Rounding bound of a semiflow discrepancy, per unit of 2 (t - t0) plus the
# coordinates passed through.  Each shipped semiflow maps c to c + (t - s) in
# two roundings, off by at most u (|t - s| + |result|) (Higham, ch. 2).  The
# through route takes two steps and the direct route one, with time gaps that
# add up to 2 (t - t0).  Forming the discrepancy adds at most u of itself (none
# within a factor 2, by Sterbenz), which the factor 2 covers.
_FLOW_ROUNDING = 2.0 * 2.0**-53


def _flow(xi: SkewEvolutionSemiflow, t, s, x: BasePoint) -> BasePoint:
    """``xi.semiflow(t, s, x)`` without numpy's overflow warnings: a coordinate
    that overflows fails the base point's own check, which names it."""
    with np.errstate(over="ignore", invalid="ignore"):
        return xi.semiflow(t, s, x)


def _law_samples(T: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(t, s, t0) of every law sample of one (base, vector), in sink order.

    The identity samples (t, t, t) come first, then the composition
    triples in the grid's sample order, which the checkers' passes over
    ``np.triu_indices(n - k)`` for each base time t_k follow.
    """
    k, j, i = _triples(len(T))
    return tuple(np.concatenate((T, T[c])) for c in (i, j, k))


def check_semiflow_laws(
    xi: SkewEvolutionSemiflow,
    grid: SampleGrid,
    tol: float = 1e-9,
    margin_sink: MarginSink | None = None,
) -> CheckReport:
    """Verify the identity and composition laws of the base semiflow.

    Margins are the negated coordinate discrepancies, each first shrunk
    toward 0 by its rounding bound (``_FLOW_ROUNDING``), so a clean model
    reports worst_margin 0 and any violation shows up as margin < -tol.
    The report records the largest bound as ``roundoff_allowance``.
    """
    grid.require_nonempty()
    T = np.asarray(grid.times, dtype=float)
    allowance = 0.0

    def margin(a: BasePoint, b: BasePoint, span, *points: BasePoint) -> np.ndarray:
        nonlocal allowance
        coords = (p.value if isinstance(p, Trivial) else p.sigma for p in points)
        bound = _FLOW_ROUNDING * 2.0 * span + sum(_FLOW_ROUNDING * c for c in coords)  # scaled first: no overflow
        allowance = max(allowance, float(np.max(bound)))
        # A scalar inf (variant or index mismatch) stands for every sample.
        return -np.maximum(base_discrepancy(a, b) - bound, 0.0)

    def margins(x: BasePoint) -> np.ndarray:
        identity = _flow(xi, T, T, x)
        pieces = [margin(identity, x, T - T, identity, x)]  # the samples (t, t, t) span t - t0 = 0
        for k in range(len(T)):
            j, i = np.triu_indices(len(T) - k)
            tail = T[k:]
            # phi(t_i, t_j, phi(t_j, t_k, x)) against phi(t_i, t_k, x)
            mid = _flow(xi, tail[j], T[k], x)
            through, direct = _flow(xi, tail[i], tail[j], mid), _flow(xi, tail[i], T[k], x)
            pieces.append(margin(through, direct, tail[i] - T[k], mid, through, direct))
        return np.concatenate(pieces)

    rows = ((x.label(), "-", margins(x)) for x in grid.base_points)
    report = _report("semiflow-laws", tol, margin_sink, _law_samples(T), rows)
    return replace(report, roundoff_allowance=allowance)


def check_cocycle_laws(
    xi: SkewEvolutionSemiflow,
    grid: SampleGrid,
    tol: float = 1e-9,
    margin_sink: MarginSink | None = None,
) -> CheckReport:
    """Verify the cocycle identity and composition over the semiflow.

    Both laws are read from ``log_factors``.  With lf = log_factors, the
    composition residual at (t, s, t0) is the relative error

        ||w * expm1(lf(t, s, phi(s, t0, x)) + lf(s, t0, x) - lf(t, t0, x))|| / ||w||

    with weights w = |v| exp(lf(t, t0, x)), the through route
    Phi(t, s, phi(s, t0, x)) Phi(s, t0, x) v against the direct
    Phi(t, t0, x) v.  The identity law uses the same residual with
    lf(t, t, x) against 0.  Norms are formed in log space, for every
    vector at once, so no cocycle value is formed in linear space.

    Each component of a gap is first shrunk toward 0 by its rounding
    bound, ``_GAP_ROUNDING`` times the sum of the |lf| that form it; the
    report records the largest bound as ``roundoff_allowance``.
    """
    grid.require_nonempty()
    for v in grid.vectors:
        if len(v) != xi.dimension:
            raise DomainError(f"vector has shape ({len(v)},), model dimension is {xi.dimension}")
    T = np.asarray(grid.times, dtype=float)
    with np.errstate(divide="ignore"):
        # log |v| per (vector, component); zero components drop out of every norm
        log_v = np.log(np.abs(np.asarray(grid.vectors, dtype=float)))[:, :, None]

    def lf(t, s, x: BasePoint) -> np.ndarray:
        # A vanished component leaves the relative residual undefined.
        return _log_factors(xi, t, s, x, vanished_ok=False)

    allowance = 0.0

    def residual(gap: np.ndarray, log_w: np.ndarray, cols, *terms: np.ndarray) -> np.ndarray:
        """Margins of ``gap``, formed from the log factors ``terms``, weighed by
        exp(log_w[:, :, cols])."""
        nonlocal allowance
        bound = sum(_GAP_ROUNDING * np.abs(g) for g in terms)  # scaled first: no overflow
        allowance = max(allowance, float(np.max(bound)))
        # A roundoff gap of a huge log factor overflows expm1 to inf: that
        # residual is the margin -inf, and numpy need not warn about it.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            err = np.abs(np.expm1(gap - np.clip(gap, -bound, bound)))
            log_err = _log_norm(log_w[:, :, cols] + np.log(err), xi.norm_choice)
            return -np.exp(log_err - _log_norm(log_w, xi.norm_choice)[:, cols])

    def margins(x: BasePoint) -> np.ndarray:
        identity = lf(T, T, x)
        # The identity samples all weigh by |v| alone.
        pieces = [residual(identity, log_v, slice(None), identity)]
        for k in range(len(T)):
            j, i = np.triu_indices(len(T) - k)
            tail = T[k:]
            direct = lf(tail, T[k], x)  # lf(t_i, t_k, x) at column i - k
            through = lf(tail[i], tail[j], _flow(xi, tail[j], T[k], x))
            d_j, d_i = direct[:, j], direct[:, i]
            pieces.append(residual(through + d_j - d_i, log_v + direct, i, through, d_j, d_i))
        return np.concatenate(pieces, axis=1)

    rows = (
        (x.label(), vlabel, row)
        for x in grid.base_points
        for vlabel, row in zip(grid.vector_labels(), margins(x))
    )
    report = _report("cocycle-laws", tol, margin_sink, _law_samples(T), rows)
    return replace(report, roundoff_allowance=allowance)


# ---------------------------------------------------------------------------
# Metric on the generator base space
# ---------------------------------------------------------------------------


def metric_distance(
    x: BasePoint, y: BasePoint, n_max: int = 20, samples_per_unit: int = 16
) -> float:
    """Weighted sup-metric between two shifted generator functions.

    Sums 2^{-n} d_n / (1 + d_n) for n = 1 .. n_max, where d_n is the sup
    of |x(u) - y(u)| over [0, n] approximated on a uniform grid with
    ``samples_per_unit`` subintervals per unit.  Truncation error is at
    most 2^{-n_max}.
    """
    from .models import generator_value  # deferred: models builds on this module

    if not (isinstance(x, ShiftedGenerator) and isinstance(y, ShiftedGenerator)):
        raise PreconditionError("metric_distance is defined on shifted generator points")
    if n_max < 1 or samples_per_unit < 1:
        raise PreconditionError("n_max and samples_per_unit must be >= 1")
    total = 0.0
    for n in range(1, n_max + 1):
        u = np.linspace(0.0, float(n), n * samples_per_unit + 1)
        dn = float(
            np.max(np.abs(generator_value(x.n, x.sigma, u) - generator_value(y.n, y.sigma, u)))
        )
        total += 2.0 ** (-n) * dn / (1.0 + dn)
    return total
