"""Core algebra for skew-evolution semiflows and their evolution cocycles.

A skew-evolution semiflow is a pair: a semiflow on a base space of
trajectories, plus a linear cocycle acting on R^p fibers above it.  This
module owns the base-point and grid types, the evaluation entry points
with their domain checks (pairs (t, s) must satisfy t >= s >= 0), the
exponential shift and the algebraic law checkers.

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
import sys
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Callable, Iterable, Sequence

import numpy as np


class DomainError(ValueError):
    """Evaluation outside t >= s >= 0, wrong base variant, or bad dimension."""


class PreconditionError(ValueError):
    """An operation's stated precondition was violated."""


# The default margin tolerance of every checker, validator and scenario.
DEFAULT_TOL = 1e-9


# Bools are ints in Python, but neither integers nor numbers in a document or an argument.
def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return isinstance(v, float) or _is_int(v)


def _is_finite_number(v) -> bool:
    # math.isfinite(10**400) raises OverflowError; this comparison is exact for ints too
    return _is_number(v) and abs(v) <= sys.float_info.max


def _shown(value) -> str:
    """``repr(value)``, but an int beyond the float range by its size: repr refuses past 4,300 digits."""
    huge = _is_int(value) and not _is_finite_number(value)
    return f"{'a negative' if value < 0 else 'an'} int of {value.bit_length()} bits" if huge else repr(value)


def _finite(value, name: str, positive: bool = False, minimum: float | None = None) -> float:
    """``value`` as a finite float (> 0 if ``positive``, >= ``minimum`` if given), for a document
    field and an argument alike: a float or an int within the float range, but not a bool or a
    numpy scalar that is not a float64, which ``json`` cannot write.  Messages name ``name``."""
    if not (_is_finite_number(value) and (value > 0.0 or not positive) and (minimum is None or value >= minimum)):
        bound = f"a finite number{' > 0' if positive else ''}" if minimum is None else f"finite and >= {minimum:g}"
        raise PreconditionError(f"{name} must be {bound}, got {_shown(value)}")
    return float(value)


def _int(value, name: str, minimum: int | None = None, maximum: int | None = None) -> int:
    """``value`` as an int that is not a bool, in [``minimum``, ``maximum``] where given: the integer
    rule of an argument, as ``_finite`` is of a float.  Messages name ``name``.  A maximum past 2**53
    is a limit of floats or of memory, not of what the argument means, so a message states it only
    to a value above it, and a power of two there as 2**k."""
    if not (_is_int(value) and (minimum is None or value >= minimum) and (maximum is None or value <= maximum)):
        hi = maximum
        if maximum is not None and maximum > 2**53:
            shown = f"2**{maximum.bit_length() - 1}" if not maximum & (maximum - 1) else maximum
            hi = shown if _is_int(value) and value > maximum else None
        bound = (f" in [{minimum}, {hi}]" if None not in (minimum, hi) else f" >= {minimum}" if minimum is not None
                 else f" <= {hi}" if hi is not None else "")
        raise PreconditionError(f"{name} must be an integer{bound}, got {_shown(value)}")
    return value


def _coordinate(value, name: str, arrays: bool = True) -> float | np.ndarray:
    """``value`` as a base-point coordinate or a time, finite and >= 0: a number as for ``_finite``,
    as a float, or (if ``arrays``) a float64 array of such numbers, which the semiflow and the law
    checks build.  Messages name ``name``."""
    if not (isinstance(value, np.ndarray) and arrays):
        return _finite(value, name, minimum=0.0)
    if not (value.dtype == np.float64 and bool(np.all((value >= 0.0) & (value < math.inf)))):
        raise PreconditionError(f"{name} must be finite and >= 0, got {_shown(value)}")
    return value


def _floats(values, name: str) -> tuple[float, ...]:
    """``values``, a JSON list or another iterable but not a string or a mapping, as floats: each item a
    number as for ``_finite``, but nan and +-inf are left to the caller.  Messages name ``name``."""
    items = tuple(values) if isinstance(values, Iterable) and not isinstance(values, (str, bytes, dict)) else None
    if items is None or not all(map(_is_number, items)):
        raise PreconditionError(f"{name} must be a list of numbers")
    if huge := [v for v in items if not (isinstance(v, float) or _is_finite_number(v))]:
        raise PreconditionError(f"{name} must be a list of numbers within the float range, got {_shown(huge[0])}")
    return tuple(float(v) for v in items)


def _time_axis(times, name: str) -> tuple[float, ...]:
    """``times`` through ``_floats``, finite, >= 0 and strictly increasing: grid times, witness knots and the like."""
    axis = tuple(_coordinate(t, name) for t in _floats(times, name))
    if any(b >= a for a, b in zip(axis[1:], axis)):
        raise PreconditionError(f"{name} must be strictly increasing")
    return axis


def _number(doc: dict, key: str, default: float | None = None, positive: bool = False, name: str | None = None) -> float:
    """The JSON field ``doc[key]``, or ``default`` when it is absent, through ``_finite``; with no
    default the key is required.  Messages name ``name``, or else the key."""
    return _finite(doc.get(key, default), name or key, positive)


def _integer(
    doc: dict, key: str, default: int | None = None, minimum: int | None = None, name: str | None = None,
    maximum: int | None = None,
) -> int:
    """Like ``_number``, through ``_int``."""
    return _int(doc.get(key, default), name or key, minimum, maximum)


def _require_keys(doc: dict, required: set[str], optional: set[str], what: str) -> None:
    if not isinstance(doc, dict):
        raise PreconditionError(f"{what} must be a JSON object")
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
    """Base point for scalar models: a nonnegative time-like coordinate, or a float64 array of them."""

    value: float | np.ndarray = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", _coordinate(self.value, "Trivial base point value"))

    def label(self) -> str:
        return f"trivial({self.value:.17g})"


@dataclass(frozen=True)
class ShiftedGenerator:
    """The n-th generator function shifted left by sigma.

    Represents u -> x_n(u + sigma) where (x_n) is the fixed decreasing
    family implemented in :mod:`cocycle_lab.models`.  ``sigma`` may be
    a float64 array, like ``Trivial.value``.
    """

    n: int
    sigma: float | np.ndarray = 0.0

    def __post_init__(self) -> None:
        # 2**510 is the largest power of two n whose 2n(2n+1), in the models' beta_n, converts to a float
        _int(self.n, "generator index", 1, 2**510)
        object.__setattr__(self, "sigma", _coordinate(self.sigma, "generator shift"))

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
    log_mags: np.ndarray,
) -> np.ndarray:
    """L[b, ...] = log ||Phi(t, s, x) v_b|| over arrays of time pairs, from log |v_b| = ``log_mags[b]``.

    ``t`` and ``s`` broadcast together, and the result has shape
    ``(len(log_mags),) + np.broadcast(t, s).shape``.  One ``log_factors``
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
    log_mags = np.asarray(log_mags, dtype=float)
    if log_mags.ndim != 2 or log_mags.shape[1] != xi.dimension:
        raise DomainError(f"vectors have shape {log_mags.shape}, model dimension is {xi.dimension}")
    g = _log_factors(xi, t, s, x)
    # Zero components are -inf terms, which drop out of every norm.
    out = _log_norm(g[None] + log_mags.reshape(log_mags.shape + (1,) * t.ndim), xi.norm_choice)
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
    _finite(gamma, "shift parameter")

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
    t >= s >= t0, crossed with every base point and vector.  However it is
    built, ``dataclasses.replace`` included, a grid checks itself and holds
    tuples of floats: at least one time, base point and vector; times that
    follow ``_time_axis``; finite, nonzero vectors of one length.
    """

    times: tuple[float, ...]
    base_points: tuple[BasePoint, ...]
    vectors: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "times", _time_axis(self.times, "grid times"))
        object.__setattr__(self, "vectors", tuple(
            tuple(_finite(c, "grid vector component") for c in _floats(v, "grid vectors entry")) for v in self.vectors))
        if not (self.times and self.base_points and self.vectors):
            raise PreconditionError("grid nonempty")
        for v in self.vectors:
            if all(c == 0.0 for c in v):
                raise PreconditionError("zero vectors are not allowed in a sample grid")
            if len(v) != len(self.vectors[0]):
                raise PreconditionError(f"grid vectors must all have one length, got {format_vector(v)}")

    @classmethod
    def create(
        cls,
        times: Iterable[float],
        base_points: Iterable[BasePoint],
        vectors: Iterable[Sequence[float]],
    ) -> "SampleGrid":
        return cls(times, tuple(base_points), vectors)

    @property
    def log_magnitudes(self) -> np.ndarray:
        """log |v| per (vector, component), -inf for a zero component: the
        one form in which grid vectors reach every norm."""
        with np.errstate(divide="ignore"):
            return np.log(np.abs(np.asarray(self.vectors, dtype=float)))

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
# of every counterexample list: base time t_k takes the tail j >= k of the
# pairs (j, i) of _pairs(n), and the s = t0 samples are those with j = k.


def _pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays (k, i) of the s = t0 samples k <= i, by k then i."""
    return np.triu_indices(n)


def _base_time_blocks(times: np.ndarray, j: np.ndarray, i: np.ndarray):
    """Yield the triples (k, j, i, (t, s, t0)) of each base time t_k from the pairs (j, i),
    sorted by j, as views: of the index tails, of read-only t and s, and a broadcast t0."""
    t, s = times[i], times[j]
    t.flags.writeable = s.flags.writeable = False
    for k in range(len(times)):
        a = int(np.searchsorted(j, k))
        yield k, j[a:], i[a:], (t[a:], s[a:], np.broadcast_to(times[k], len(j) - a))


# ---------------------------------------------------------------------------
# Check reports
# ---------------------------------------------------------------------------


def _json_float(x: float) -> float | str:
    """``x`` for strict JSON: a finite float as is, inf, -inf and nan as the strings "inf", "-inf" and "nan"."""
    return x if math.isfinite(x) else repr(x)


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
            "margin": _json_float(self.margin),
        }


# A sink receives each row of samples that share a base point and a vector as
# ``_report`` holds it: (base_label, vector_label, (ts, ss, t0s), margins), with
# ts, ss, t0s and margins equal-length 1-D float arrays in sample order.  The
# triple checks send one row per base time t0; the law checkers send a base
# point's identity samples (t, t, t) first.  The coordinate arrays may be shared
# between rows (read-only views, for the triple checks): a sink must not write to them.
MarginSink = Callable[[str, str, tuple[np.ndarray, np.ndarray, np.ndarray], np.ndarray], None]


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
            "worst_margin": _json_float(self.worst_margin),
            "counterexamples": [c.to_json_dict() for c in self.counterexamples],
            "verdict": self.verdict,
        }
        if self.roundoff_allowance is not None:
            doc["roundoff_allowance"] = self.roundoff_allowance
        return doc


def _report(check: str, tol: float, sink: MarginSink | None, rows) -> CheckReport:
    """Sample one inequality: the report over (base label, vector label, (t, s, t0), margins) rows.

    Every row holds the margins of one base point and vector at the
    samples whose (t, s, t0) arrays it carries; the rows go to the sink in
    order.  Only failures cost per-sample work.
    """
    _finite(tol, "margin tolerance", minimum=0.0)
    samples, worst, failures = 0, math.inf, []
    for row in rows:
        base, vector, (ts, ss, t0s), margins = row
        if margins.size == 0:
            continue
        samples += margins.size
        # fmin skips NaN, and min keeps worst against the NaN of an all-NaN row.
        worst = min(worst, float(np.fmin.reduce(margins)))
        for idx in (~(margins >= -tol)).nonzero()[0]:  # below -tol, or NaN
            failures.append(
                Counterexample(
                    float(ts[idx]), float(ss[idx]), float(t0s[idx]), base, vector, float(margins[idx])
                )
            )
        if sink is not None:
            sink(*row)
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


def check_semiflow_laws(
    xi: SkewEvolutionSemiflow,
    grid: SampleGrid,
    tol: float = DEFAULT_TOL,
    margin_sink: MarginSink | None = None,
) -> CheckReport:
    """Verify the identity and composition laws of the base semiflow.

    Margins are the negated coordinate discrepancies, each first shrunk
    toward 0 by its rounding bound (``_FLOW_ROUNDING``), so a clean model
    reports worst_margin 0 and any violation shows up as margin < -tol.
    The report records the largest bound as ``roundoff_allowance``.
    """
    T = np.asarray(grid.times, dtype=float)
    allowance = 0.0

    def margin(a: BasePoint, b: BasePoint, span, *points: BasePoint) -> np.ndarray:
        nonlocal allowance
        coords = (p.value if isinstance(p, Trivial) else p.sigma for p in points)
        bound = _FLOW_ROUNDING * 2.0 * span + sum(_FLOW_ROUNDING * c for c in coords)  # scaled first: no overflow
        allowance = max(allowance, float(np.max(bound)))
        # A scalar inf (variant or index mismatch) stands for every sample.
        return -np.maximum(base_discrepancy(a, b) - bound, 0.0)

    def rows(x: BasePoint):
        label = x.label()
        identity = _flow(xi, T, T, x)
        yield label, "-", (T, T, T), margin(identity, x, T - T, identity, x)  # (t, t, t) spans t - t0 = 0
        for k, _, _, (t, s, t0) in _base_time_blocks(T, *_pairs(len(T))):
            # phi(t, s, phi(s, t_k, x)) against phi(t, t_k, x)
            mid = _flow(xi, s, T[k], x)
            through, direct = _flow(xi, t, s, mid), _flow(xi, t, T[k], x)
            yield label, "-", (t, s, t0), margin(through, direct, t - T[k], mid, through, direct)

    report = _report("semiflow-laws", tol, margin_sink, (row for x in grid.base_points for row in rows(x)))
    return replace(report, roundoff_allowance=allowance)


def check_cocycle_laws(
    xi: SkewEvolutionSemiflow,
    grid: SampleGrid,
    tol: float = DEFAULT_TOL,
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
    log_v = grid.log_magnitudes[:, :, None]
    if log_v.shape[1] != xi.dimension:  # a grid's vectors share one length
        raise DomainError(f"vector has shape ({log_v.shape[1]},), model dimension is {xi.dimension}")
    T = np.asarray(grid.times, dtype=float)

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

    vlabels = grid.vector_labels()

    def rows(x: BasePoint):
        label = x.label()
        identity = lf(T, T, x)
        # The identity samples all weigh by |v| alone.
        for vlabel, row in zip(vlabels, residual(identity, log_v, slice(None), identity)):
            yield label, vlabel, (T, T, T), row
        for k, j, i, (t, s, t0) in _base_time_blocks(T, *_pairs(len(T))):
            direct = lf(T[k:], T[k], x)  # lf(t_c, t_k, x) at column c - k
            through = lf(t, s, _flow(xi, s, T[k], x))
            d_j, d_i = direct[:, j - k], direct[:, i - k]
            margins = residual(through + d_j - d_i, log_v + direct, i - k, through, d_j, d_i)
            for vlabel, row in zip(vlabels, margins):
                yield label, vlabel, (t, s, t0), row

    report = _report("cocycle-laws", tol, margin_sink, (row for x in grid.base_points for row in rows(x)))
    return replace(report, roundoff_allowance=allowance)
