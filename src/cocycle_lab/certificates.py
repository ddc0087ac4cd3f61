"""Witness certificates for the four asymptotic properties, with fitters.

Each property is an inequality with a witness function:

* decay: ||Phi(t + t0, t0, x) v|| >= f(t) ||v|| for a positive
  nonincreasing f, with a parametric form e^{-omega t} / n_tilde;
* instability: N(t) ||Phi(t, t0, x) v|| >= ||v||;
* exp-instability: N(t) e^{-nu (t - s)} ||Phi(t, t0, x) v|| >=
  ||Phi(s, t0, x) v||;
* integral-instability: the running integral of the trajectory norm is
  at most M(t) ||Phi(t, t0, x) v||.

Estimators fit the tightest grid witness (plus headroom), checkers
sample the inequality and report log-margins.  Every estimate/check pair
routes the per-sample statistic through one shared code path, so a
fitted certificate re-checks cleanly on its own grid even at tol = 0.

Four sample statistics are named once, one per property: the decay
statistic log ||Phi(u + t0, t0, x)v|| - log ||v||, the pair statistic
log ||v|| - log ||Phi(t, t0, x)v||, the backward ratio
log ||Phi(s, t0, x)v|| - log ||Phi(t, t0, x)v||, and the Datko statistic
log(integral of the trajectory norm over [t0, t]) - log ||Phi(t, t0, x)v||.
Each checker, like each theorem sampler, keeps only its sample selection
and its margin formula over one of them and reports through ``core._report``;
the estimators reduce the same floats.  The sample order, and so the row
order of margins.csv, is defined once, by ``core._pairs``: the triples of
each base time are a tail of that pair layout (``core._base_time_blocks``),
so the triple checks sweep one base time at a time.

Witnesses store a log-value table alongside linear values; margins only
ever touch the log side, which every witness evaluates on a whole array
of times at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ._version import __version__
from .core import (
    CheckReport,
    MarginSink,
    PreconditionError,
    SampleGrid,
    SkewEvolutionSemiflow,
    _base_time_blocks,
    _float_list,
    _integer,
    _json_float,
    _number,
    _pairs,
    _report,
    _require_keys,
    log_norms,
    norm,
)
from .quadrature import QuadratureConfig, norm_integral_prefix

DEFAULT_HEADROOM = 0.01
DEFAULT_GROWTH_CAP = 8.0
DEFAULT_NU_CANDIDATES = tuple(0.25 * k for k in range(1, 17))

# Admissibility slack for the realized-rate gate in the exp-instability
# estimator; covers roundoff in the rate quotients, nothing more.
_RATE_TOL = 1e-9


# ---------------------------------------------------------------------------
# Witness functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExpWitness:
    """Parametric witness coef * e^{rate * t}."""

    coef: float
    rate: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.coef) and self.coef > 0.0):
            raise PreconditionError(f"witness coefficient must be finite and > 0, got {self.coef}")
        if not math.isfinite(self.rate):
            raise PreconditionError(f"witness rate must be finite, got {self.rate}")

    @property
    def form(self) -> str:
        return "parametric"

    def value(self, t: float) -> float:
        return self.coef * math.exp(self.rate * t)

    def log_value(self, t: float | np.ndarray) -> float | np.ndarray:
        return math.log(self.coef) + self.rate * np.asarray(t)


@dataclass(frozen=True)
class TabulatedWitness:
    """Step-interpolated witness: value at the nearest knot time >= t.

    Past the last knot the last value extends; the log table is the
    authoritative side for margin arithmetic.  The constructors pass any
    further ``fields`` (a subclass's) through.
    """

    times: tuple[float, ...]
    values: tuple[float, ...]
    log_values: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.times:
            raise PreconditionError("tabulated witness needs at least one knot")
        if len(self.times) != len(self.values) or len(self.times) != len(self.log_values):
            raise PreconditionError("tabulated witness arrays must have equal length")
        if not all(map(math.isfinite, self.times)):
            raise PreconditionError(f"witness knot times must be finite, got {list(self.times)}")
        if any(b >= a for a, b in zip(self.times[1:], self.times)) or self.times[0] < 0.0:
            raise PreconditionError("witness knot times must be strictly increasing and >= 0")
        for lv in self.log_values:
            if math.isnan(lv) or lv == math.inf:
                raise PreconditionError(f"witness log-values must be finite or -inf, got {lv}")

    @classmethod
    def from_values(cls, times: Sequence[float], values: Sequence[float], **fields):
        vals = tuple(float(v) for v in values)
        if any(not (v > 0.0) or not math.isfinite(v) for v in vals):
            raise PreconditionError("tabulated witness values must be positive and finite")
        return cls(tuple(float(t) for t in times), vals, tuple(math.log(v) for v in vals), **fields)

    @classmethod
    def from_log_values(cls, times: Sequence[float], logs: Sequence[float], **fields):
        lv = tuple(float(v) for v in logs)
        return cls(tuple(float(t) for t in times), tuple(math.exp(v) for v in lv), lv, **fields)

    @property
    def form(self) -> str:
        return "tabulated"

    def _index(self, t: float | np.ndarray):
        """Index of the first knot >= t, or of the last knot past the table."""
        return np.minimum(np.searchsorted(self.times, t), len(self.times) - 1)

    def value(self, t: float) -> float:
        return self.values[self._index(t)]

    def log_value(self, t: float | np.ndarray) -> float | np.ndarray:
        return np.asarray(self.log_values)[self._index(t)]


Witness = ExpWitness | TabulatedWitness


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParametricDecay:
    """Decay witness f(t) = e^{-omega t} / n_tilde.

    Derived certificates always have n_tilde > 1; the boundary n_tilde = 1
    is accepted so plain exponentials are expressible by hand.
    """

    n_tilde: float
    omega: float
    grid_hash: str = ""
    tool_version: str = __version__

    def __post_init__(self) -> None:
        if not (math.isfinite(self.n_tilde) and self.n_tilde >= 1.0):
            raise PreconditionError(f"n_tilde must be finite and >= 1, got {self.n_tilde}")
        if not (math.isfinite(self.omega) and self.omega > 0.0):
            raise PreconditionError(f"omega must be finite and > 0, got {self.omega}")

    @property
    def form(self) -> str:
        return "parametric"

    def value(self, t: float) -> float:
        return math.exp(-self.omega * t) / self.n_tilde

    def log_value(self, t: float | np.ndarray) -> float | np.ndarray:
        return -self.omega * np.asarray(t) - math.log(self.n_tilde)


@dataclass(frozen=True)
class TabulatedDecay(TabulatedWitness):
    """Tabulated decay witness: positive, nonincreasing, step-interpolated."""

    grid_hash: str = ""
    tool_version: str = __version__

    def __post_init__(self) -> None:
        super().__post_init__()
        if any(b > a for a, b in zip(self.log_values, self.log_values[1:])):
            raise PreconditionError("decay witness values must be nonincreasing")
        if self.log_values[0] == -math.inf:
            raise PreconditionError("decay witness values must be positive")


DecayCertificate = ParametricDecay | TabulatedDecay


def decay_limit_witnessed(cert: DecayCertificate) -> bool:
    """Whether the table shows actual decay toward 0 (vacuous for parametric).

    A finite table cannot prove a limit; strict overall decrease is the
    evidence the theorem runs ask for before trusting a tabulated f.
    """
    if isinstance(cert, ParametricDecay):
        return True
    return cert.log_values[-1] < cert.log_values[0]


def _log_exprel(x: float) -> float:
    """log((1 - e^{-x}) / x) for x >= 0, with its limit 0 at x = 0."""
    if x < 1.0:
        return math.log(-math.expm1(-x) / x) if x else 0.0
    return math.log1p(-math.exp(-x)) - math.log(x)


def integrate_kernel(f: DecayCertificate, alpha: float) -> float:
    """log of integral_0^1 e^{-alpha u} f(u) du, in closed form, for a finite alpha >= 0.

    A table is constant on each piece (lo, hi] between its knots; the
    parametric form is one piece (0, 1] of rate alpha + omega.  A piece of
    log-value c and rate r adds c - r lo + log((1 - e^{-r (hi - lo)}) / r),
    or c + log(hi - lo) at r = 0, by log-sum-exp.  An f that is 0 on all
    of (0, 1] raises PreconditionError.
    """
    if not (math.isfinite(alpha) and alpha >= 0.0):
        raise PreconditionError(f"kernel integral needs a finite alpha >= 0, got {alpha}")
    if isinstance(f, ParametricDecay):
        pieces = [(-math.log(f.n_tilde), 0.0, 1.0, alpha + f.omega)]
    else:
        edges = [0.0, *(t for t in f.times if 0.0 < t < 1.0), 1.0]
        pieces = [(f.log_value(hi), lo, hi, alpha) for lo, hi in zip(edges, edges[1:])]
    log_k = float(np.logaddexp.reduce([
        c - rate * lo + math.log(hi - lo) + _log_exprel(rate * (hi - lo)) for c, lo, hi, rate in pieces
    ]))
    if log_k == -math.inf:
        raise PreconditionError("kernel integral vanishes: f is 0 on all of (0, 1]")
    return log_k


def _validate_instability_witness(w: Witness, strict_above_one: bool) -> None:
    if isinstance(w, ExpWitness):
        if w.coef < 1.0 or w.rate < 0.0:
            raise PreconditionError(
                f"witness needs coef >= 1 and rate >= 0, got ({w.coef}, {w.rate})"
            )
        if strict_above_one and w.coef == 1.0 and w.rate == 0.0:
            raise PreconditionError("instability witness must exceed 1 for t > 0")
    elif strict_above_one:
        if min(w.log_values) <= 0.0:
            raise PreconditionError("instability witness values must be > 1")
    elif min(w.log_values) < 0.0:
        raise PreconditionError("integral witness values must be >= 1")


@dataclass(frozen=True)
class InstabilityCertificate:
    N: Witness
    grid_hash: str = ""
    tool_version: str = __version__

    def __post_init__(self) -> None:
        _validate_instability_witness(self.N, strict_above_one=True)


@dataclass(frozen=True)
class ExpInstabilityCertificate:
    N: Witness
    nu: float
    grid_hash: str = ""
    tool_version: str = __version__
    # Envelope cap active when the certificate was fitted; None for
    # hand-written certificates.
    growth_cap: float | None = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.nu) and self.nu > 0.0):
            raise PreconditionError(f"nu must be finite and > 0, got {self.nu}")
        if self.growth_cap is not None and not (math.isfinite(self.growth_cap) and self.growth_cap > 0.0):
            raise PreconditionError(f"growth_cap must be None or finite and > 0, got {self.growth_cap}")
        _validate_instability_witness(self.N, strict_above_one=True)


@dataclass(frozen=True)
class IntegralInstabilityCertificate:
    M: Witness
    grid_hash: str = ""
    tool_version: str = __version__
    quad: QuadratureConfig | None = None

    def __post_init__(self) -> None:
        _validate_instability_witness(self.M, strict_above_one=False)


@dataclass(frozen=True)
class NoCertificate:
    """Estimator outcome when no candidate parameter was admissible."""

    property_name: str
    reason: str
    grid_hash: str = ""
    tool_version: str = __version__
    details: dict = field(default_factory=dict)


def decay_to_exponential(f: DecayCertificate, mu: float) -> ParametricDecay:
    """Convert any decay witness into the parametric form via one pivot time.

    Needs f(mu) < 1; returns n_tilde = 1 / f(mu) and
    omega = -ln f(mu) / mu, which bounds f from below at multiples of mu.
    """
    if not (math.isfinite(mu) and mu > 0.0):
        raise PreconditionError(f"pivot time mu must be > 0, got {mu}")
    log_fmu = f.log_value(mu)
    if not log_fmu < 0.0:
        raise PreconditionError(f"decay_to_exponential needs f(mu) < 1, got f({mu}) = {f.value(mu)}")
    return ParametricDecay(
        n_tilde=math.exp(-log_fmu), omega=-log_fmu / mu, grid_hash=f.grid_hash
    )


# ---------------------------------------------------------------------------
# Shared sample statistics
# ---------------------------------------------------------------------------


def _vector_norms(xi: SkewEvolutionSemiflow, grid: SampleGrid) -> tuple[np.ndarray, np.ndarray]:
    """(log ||v_b||, v_b / ||v_b||) for every grid vector, under the model's norm.

    A vector whose norm overflows a float (``math.fsum`` raises, ``hypot``
    returns inf) is first scaled by 2^-e, exactly, with 2^e above its
    largest component; every other vector keeps ``core.norm``'s bits.
    """
    logs, units = [], []
    for v in grid.vector_arrays():
        e = 0
        try:
            r = norm(v, xi.norm_choice)
        except OverflowError:
            r = math.inf
        if r == math.inf:
            e = math.frexp(float(np.max(np.abs(v))))[1]
            v = np.ldexp(v, -e)
            r = norm(v, xi.norm_choice)
        logs.append(math.log(r) + e * math.log(2.0))
        units.append(v / r)
    return np.array(logs), np.array(units)


def _pair_tables(xi: SkewEvolutionSemiflow, grid: SampleGrid):
    """Yield (base label, vector label, log ||v||, L) per (base, vector) pair.

    L[i, k] = log ||Phi(t_i, t_k, x) v|| at the ``_pairs`` samples k <= i
    and nan above the diagonal; one ``log_norms`` call per base point
    fills every vector's table.  Pairs come base-major, in grid order.
    """
    times = np.asarray(grid.times)
    n = len(times)
    k, i = _pairs(n)
    log_v, _ = _vector_norms(xi, grid)
    labels = grid.vector_labels()
    for x in grid.base_points:
        table = np.full((len(labels), n, n), np.nan)
        table[:, i, k] = log_norms(xi, times[i], times[k], x, grid.vectors)
        for b, vlabel in enumerate(labels):
            yield x.label(), vlabel, log_v[b], table[b]


def _pair_stats(xi: SkewEvolutionSemiflow, grid: SampleGrid, k: np.ndarray, i: np.ndarray):
    """Yield (base label, vector label, log ||v|| - L[i, k]) at the pair samples (k, i).

    The pair statistic: the loss of norm from t0 = t_k to t = t_i that an
    instability witness N(t_i) has to make up.
    """
    for xlabel, vlabel, log_v, table in _pair_tables(xi, grid):
        yield xlabel, vlabel, log_v - table[i, k]


def _backward_ratios(xi: SkewEvolutionSemiflow, grid: SampleGrid, j: np.ndarray, i: np.ndarray):
    """Yield (base label, vector label, block, L[j, k] - L[i, k]) per base point, vector and
    base time t_k, with ``block`` = (k, j, i, (t, s, t0)) from ``core._base_time_blocks``.

    The triple statistic, the backward ratio log ||Phi(s, t0, x)v|| -
    log ||Phi(t, t0, x)v||, read from column k of each pair table.
    """
    blocks = list(_base_time_blocks(np.asarray(grid.times), j, i))
    for xlabel, vlabel, _, table in _pair_tables(xi, grid):
        for block in blocks:
            k, jk, ik, _ = block
            column = table[:, k]  # one 1-D gather is cheaper than a (row array, column) index
            yield xlabel, vlabel, block, column[jk] - column[ik]


def _decay_stats(xi: SkewEvolutionSemiflow, grid: SampleGrid):
    """Yield (base label, vector label, m) per (base, vector) pair, with
    m[j, i] = log ||Phi(u_i + t0_j, t0_j, x) v|| - log ||v||.

    The decay statistic, over every grid u and t0; one ``log_norms`` call
    per base point fills every vector's table.
    """
    times = np.asarray(grid.times)
    t0 = times[:, None]
    with np.errstate(over="ignore"):  # an infinite u + t0 is log_norms' DomainError
        t = times + t0
    log_v, _ = _vector_norms(xi, grid)
    labels = grid.vector_labels()
    for x in grid.base_points:
        table = log_norms(xi, t, t0, x, grid.vectors)
        for b, vlabel in enumerate(labels):
            yield x.label(), vlabel, table[b] - log_v[b]


def _datko_stats(xi: SkewEvolutionSemiflow, grid: SampleGrid, quad_cfg: QuadratureConfig):
    """Yield (base label, vector label, d) per (base, vector) pair, with
    d[p] = log(integral over [t_k, t_i]) - log ||Phi(t_i, t_k, x)v|| at the pair samples p = (k, i).

    The Datko statistic, in ``_pairs`` order; each base point takes one
    ``norm_integral_prefix`` call, which integrates from every base time
    for every vector, and one ``log_norms`` call on the pair samples.  The
    t = t0 samples are -inf.  The ratio has degree 0 in v, so each v is
    normalized before the quadrature: otherwise the integrator's absolute
    tolerance floor would make the refinement depth, and hence the last
    few digits, depend on the scale of v.
    """
    times = np.asarray(grid.times)
    k, i = _pairs(len(times))
    _, block = _vector_norms(xi, grid)
    labels = grid.vector_labels()
    for x in grid.base_points:
        prefix = norm_integral_prefix(xi, x, block, times, quad_cfg)
        with np.errstate(divide="ignore"):
            stats = np.log(prefix[:, k, i]) - log_norms(xi, times[i], times[k], x, block)
        for vlabel, row in zip(labels, stats):
            yield x.label(), vlabel, row


def _at(grid: SampleGrid, k: np.ndarray, i: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(t, s, t0) = (t_i, t_k, t_k) of the s = t0 samples (k, i)."""
    times = np.asarray(grid.times)
    return times[i], times[k], times[k]


def _sample(check: str, tol: float, sink: MarginSink | None, coords, stats, margin) -> CheckReport:
    """Report ``margin(statistic)`` of every (base, vector) row of ``stats``.

    ``stats`` yields the rows of one named statistic, taken at the samples
    whose (t, s, t0) arrays are ``coords``, in sample order.
    """
    rows = ((xlabel, vlabel, coords, margin(stat)) for xlabel, vlabel, stat in stats)
    return _report(check, tol, sink, rows)


# ---------------------------------------------------------------------------
# Estimators
# ---------------------------------------------------------------------------


def estimate_decay(xi: SkewEvolutionSemiflow, grid: SampleGrid) -> TabulatedDecay:
    """Fit the tightest grid lower bound f_hat(u) = min ratio, monotonized.

    The running minimum over increasing u makes the table nonincreasing;
    f_hat(0) is 1 up to one rounding: the u = 0 ratio is identically one,
    but log ||v|| comes from a math.fsum norm and log ||Phi(t, t, x)v|| from
    a numpy log-sum-exp, and the two may differ in the last bit.
    """
    per_u = np.full(len(grid.times), np.inf)
    for *_, m in _decay_stats(xi, grid):
        np.minimum(per_u, m.min(axis=0), out=per_u)  # the worst decay statistic over t0
    logs = np.minimum.accumulate(per_u)
    return TabulatedDecay.from_log_values(grid.times, logs, grid_hash=grid.grid_hash)


def estimate_instability(
    xi: SkewEvolutionSemiflow, grid: SampleGrid, headroom: float = DEFAULT_HEADROOM
) -> InstabilityCertificate:
    """Fit N_hat(t) = (1 + headroom) * max(1, worst inverse growth up to t)."""
    if not (math.isfinite(headroom) and headroom > 0.0):
        raise PreconditionError(f"headroom must be > 0, got {headroom}")
    k, i = _pairs(len(grid.times))
    need = np.zeros(len(grid.times))
    for *_, stat in _pair_stats(xi, grid, k, i):
        np.fmax.at(need, i, stat)  # the worst pair statistic over t0_k <= t_i
    logs = math.log1p(headroom) + need
    witness = TabulatedWitness.from_log_values(grid.times, logs)
    return InstabilityCertificate(N=witness, grid_hash=grid.grid_hash)


def _ls_slope(times: Sequence[float], values: np.ndarray) -> float:
    """Least-squares slope of values over times, in closed form.

    The times are divided by their spread and centred first, so a grid of
    tiny or huge times neither underflows nor overflows the fit.
    """
    if len(times) < 2:
        return 0.0
    ts = np.asarray(times, dtype=float)
    spread = float(ts[-1] - ts[0])
    u = ts / spread
    u -= u.mean()
    return float(np.dot(u, values - values.mean()) / np.dot(u, u)) / spread


def _nu_ladder(candidates: Sequence[float]) -> tuple[float, ...]:
    """The rate candidates as floats: a nonempty, increasing list of positive reals."""
    ladder = tuple(float(c) for c in candidates)
    if not ladder or any(not (math.isfinite(c) and c > 0.0) for c in ladder):
        raise PreconditionError("nu candidates must be a nonempty list of positive reals")
    if any(b >= a for a, b in zip(ladder[1:], ladder)):
        raise PreconditionError("nu candidates must be sorted increasing")
    return ladder


def estimate_exp_instability(
    xi: SkewEvolutionSemiflow,
    grid: SampleGrid,
    nu_candidates: Sequence[float] | None = None,
    growth_cap: float = DEFAULT_GROWTH_CAP,
    headroom: float = DEFAULT_HEADROOM,
) -> ExpInstabilityCertificate | NoCertificate:
    """Pick the largest admissible rate and fit its required witness.

    A candidate nu is admissible when (a) it does not exceed the best
    growth rate actually realized on the sample set, so the witness never
    has to absorb a rate deficit that grows with the window length, and
    (b) the least-squares slope of the fitted log-witness over the grid
    times stays within ``growth_cap``.  If no candidate qualifies a
    NoCertificate result is returned rather than an exception.

    Both read the pair tables L[i, k] = log ||Phi(t_i, t_k, x)v||, in O(n^2)
    per candidate.  The required log-witness
    y_i = max over s_j <= t_i, t0_k <= s_j of nu (t_i - s_j) + L[j, k] - L[i, k]
    is nu t_i + max over k of (C[i, k] - L[i, k]), with the running maximum
    C[i, k] = max over k <= j <= i of (L[j, k] - nu t_j) down each column.
    A chord slope (L[i, k] - L[j, k]) / (t_i - t_j) is a weighted mean of
    the consecutive slopes it spans, so the best realized rate rho_star is
    the largest consecutive slope (-inf on a one-time grid).
    """
    if not (math.isfinite(growth_cap) and growth_cap > 0.0):
        raise PreconditionError(f"growth_cap must be > 0, got {growth_cap}")
    if not (math.isfinite(headroom) and headroom > 0.0):
        raise PreconditionError(f"headroom must be > 0, got {headroom}")
    candidates = DEFAULT_NU_CANDIDATES if nu_candidates is None else _nu_ladder(nu_candidates)

    times = np.asarray(grid.times)
    # (pairs, n, n), nan above each diagonal: fmax skips the nan entries.
    L = np.stack([table for *_, table in _pair_tables(xi, grid)])
    rates = np.diff(L, axis=1) / np.diff(times)[:, None]
    rho_star = float(np.fmax.reduce(rates, axis=None, initial=-np.inf))
    slopes: dict[float, float] = {}
    for nu in reversed(candidates):
        if nu > rho_star + _RATE_TOL:
            continue
        C = np.fmax.accumulate(L - nu * times[:, None], axis=1)
        y = nu * times + np.fmax.reduce(C - L, axis=(0, 2), initial=-np.inf)
        slope = _ls_slope(grid.times, y)
        slopes[nu] = slope
        if slope <= growth_cap:
            logs = math.log1p(headroom) + np.maximum(y, 0.0)
            witness = TabulatedWitness.from_log_values(grid.times, logs)
            return ExpInstabilityCertificate(
                N=witness, nu=nu, grid_hash=grid.grid_hash, growth_cap=growth_cap
            )
    if rho_star + _RATE_TOL < candidates[0]:
        reason = (
            f"no candidate is covered by the realized growth rate {rho_star:.6g}; "
            "the required witness would grow without bound in the window length"
        )
    else:
        reason = f"every rate-covered candidate needs an envelope slope above growth_cap={growth_cap}"
    return NoCertificate(
        property_name="exp-instability",
        reason=reason,
        grid_hash=grid.grid_hash,
        details={
            "candidates": list(candidates),
            "realized_rate": _json_float(rho_star),
            "envelope_slopes": {f"{nu:.17g}": _json_float(s) for nu, s in sorted(slopes.items())},
            "growth_cap": growth_cap,
        },
    )


def estimate_integral_instability(
    xi: SkewEvolutionSemiflow,
    grid: SampleGrid,
    quad_cfg: QuadratureConfig = QuadratureConfig(),
    headroom: float = DEFAULT_HEADROOM,
) -> IntegralInstabilityCertificate:
    """Fit M_hat(t) = max(1, (1 + headroom) * worst integral-to-norm ratio)."""
    if not xi.strongly_measurable:
        raise PreconditionError("integral instability needs a strongly measurable model")
    if not (math.isfinite(headroom) and headroom > 0.0):
        raise PreconditionError(f"headroom must be > 0, got {headroom}")
    _, i = _pairs(len(grid.times))
    need = np.full(len(grid.times), -np.inf)
    for *_, stat in _datko_stats(xi, grid, quad_cfg):
        np.fmax.at(need, i, stat)  # the worst Datko statistic over t0_k <= t_i
    logs = np.maximum(0.0, math.log1p(headroom) + need)
    witness = TabulatedWitness.from_log_values(grid.times, logs)
    return IntegralInstabilityCertificate(M=witness, grid_hash=grid.grid_hash, quad=quad_cfg)


# ---------------------------------------------------------------------------
# Checkers
# ---------------------------------------------------------------------------


def _require_kind(cert, kinds, expected: str) -> None:
    """The certificate-kind gate: PreconditionError "``expected``, got <type>"
    unless ``cert`` is an instance of ``kinds`` (a class or a union)."""
    if not isinstance(cert, kinds):
        raise PreconditionError(f"{expected}, got {type(cert).__name__}")


def check_decay(
    xi: SkewEvolutionSemiflow,
    cert: DecayCertificate,
    grid: SampleGrid,
    tol: float = 1e-9,
    margin_sink: MarginSink | None = None,
) -> CheckReport:
    """Sample log ||Phi(u + t0, t0, x)v|| - log f(u) - log ||v|| over the grid."""
    _require_kind(cert, DecayCertificate, "check_decay needs a decay certificate")
    # Samples (u_i + t0_j, t0_j) over every grid u and t0, by t0 then u.
    times = np.asarray(grid.times)
    t0 = np.repeat(times, len(times))
    with np.errstate(over="ignore"):  # an infinite u + t0 is log_norms' DomainError
        t = (times + times[:, None]).ravel()
    log_f = cert.log_value(times)
    return _sample("decay", tol, margin_sink, (t, t0, t0), _decay_stats(xi, grid), lambda m: (m - log_f).ravel())


def check_instability(
    xi: SkewEvolutionSemiflow,
    cert: InstabilityCertificate,
    grid: SampleGrid,
    tol: float = 1e-9,
    margin_sink: MarginSink | None = None,
) -> CheckReport:
    """Sample log N(t) + log ||Phi(t, t0, x)v|| - log ||v|| over t >= t0."""
    _require_kind(cert, InstabilityCertificate, "check_instability needs an instability certificate")
    k, i = _pairs(len(grid.times))
    log_n = cert.N.log_value(grid.times)
    return _sample(
        "instability", tol, margin_sink, _at(grid, k, i), _pair_stats(xi, grid, k, i), lambda stat: log_n[i] - stat
    )


def check_exp_instability(
    xi: SkewEvolutionSemiflow,
    cert: ExpInstabilityCertificate,
    grid: SampleGrid,
    tol: float = 1e-9,
    margin_sink: MarginSink | None = None,
) -> CheckReport:
    """Sample the two-time inequality over all triples t >= s >= t0.

    Margin: log N(t) - (nu (t - s) + log ||Phi(s, t0, x)v|| -
    log ||Phi(t, t0, x)v||), evaluated per base point, vector and base time.
    """
    _require_kind(cert, ExpInstabilityCertificate, "check_exp_instability needs an exp-instability certificate")
    times = np.asarray(grid.times)
    j, i = _pairs(len(times))
    # log N(t) and nu (t - s) over the pairs once: every base time's block is a tail of them
    log_n, gap = cert.N.log_value(grid.times)[i], cert.nu * (times[i] - times[j])
    ratios = _backward_ratios(xi, grid, j, i)
    return _report("exp-instability", tol, margin_sink, (
        (xl, vl, coords, log_n[-len(r):] - (r + gap[-len(r):])) for xl, vl, (*_, coords), r in ratios
    ))


def check_integral_instability(
    xi: SkewEvolutionSemiflow,
    cert: IntegralInstabilityCertificate,
    grid: SampleGrid,
    tol: float = 1e-9,
    quad_cfg: QuadratureConfig | None = None,
    margin_sink: MarginSink | None = None,
) -> CheckReport:
    """Sample log M(t) + log ||Phi(t, t0, x)v|| - log integral over t >= t0.

    The t = t0 samples have a zero integral and count as margin +inf.
    The quadrature config is ``quad_cfg`` when given; only when it is None
    does the certificate's own ``quad`` apply, and then the default.  The
    CLI always passes the scenario's ``tolerances.quad``.
    """
    _require_kind(cert, IntegralInstabilityCertificate, "check_integral_instability needs an integral certificate")
    if not xi.strongly_measurable:
        raise PreconditionError("integral instability needs a strongly measurable model")
    cfg = quad_cfg or cert.quad or QuadratureConfig()
    k, i = _pairs(len(grid.times))
    log_m = cert.M.log_value(grid.times)
    return _sample(
        "integral-instability", tol, margin_sink, _at(grid, k, i), _datko_stats(xi, grid, cfg),
        lambda stat: log_m[i] - stat,
    )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def witness_to_json_dict(w: Witness) -> dict:
    if isinstance(w, ExpWitness):
        return {"coef": w.coef, "rate": w.rate}
    return {"times": list(w.times), "values": list(w.values)}


def witness_from_json_dict(doc: dict, form: str, what: str) -> Witness:
    if form == "parametric":
        _require_keys(doc, {"coef", "rate"}, set(), what)
        return ExpWitness(_number(doc, "coef", name=f"{what}.coef"), _number(doc, "rate", name=f"{what}.rate"))
    if form == "tabulated":
        _require_keys(doc, {"times", "values"}, set(), what)
        return TabulatedWitness.from_values(
            _float_list(doc["times"], f"{what}.times"), _float_list(doc["values"], f"{what}.values")
        )
    raise PreconditionError(f"unknown witness form {form!r}")


def _quad_to_json(quad: QuadratureConfig | None):
    return None if quad is None else quad.to_json_dict()


def _quad_from_json(doc, what: str) -> QuadratureConfig | None:
    if doc is None:
        return None
    _require_keys(doc, set(), {"rel_tol", "abs_tol", "max_depth", "datko_lower_limit"}, what)
    # Older files name the trajectory integral's lower limit, which is always t0.
    if doc.get("datko_lower_limit", "t0") != "t0":
        raise PreconditionError(f"{what}.datko_lower_limit supports only 't0', got {doc['datko_lower_limit']!r}")
    defaults = QuadratureConfig()
    return QuadratureConfig(
        rel_tol=_number(doc, "rel_tol", defaults.rel_tol, name=f"{what}.rel_tol"),
        abs_tol=_number(doc, "abs_tol", defaults.abs_tol, name=f"{what}.abs_tol"),
        max_depth=_integer(doc, "max_depth", defaults.max_depth, name=f"{what}.max_depth"),
    )


def certificate_to_json_dict(cert) -> dict:
    """Serialize any certificate (or a no-certificate outcome) to a JSON dict."""
    if isinstance(cert, ParametricDecay):
        body = {"kind": "decay", "form": "parametric", "n_tilde": cert.n_tilde, "omega": cert.omega}
    elif isinstance(cert, TabulatedDecay):
        body = {"kind": "decay", "form": "tabulated", **witness_to_json_dict(cert)}
    elif isinstance(cert, InstabilityCertificate):
        body = {"kind": "instability", "form": cert.N.form, "N": witness_to_json_dict(cert.N)}
    elif isinstance(cert, ExpInstabilityCertificate):
        body = {
            "kind": "exp_instability",
            "form": cert.N.form,
            "N": witness_to_json_dict(cert.N),
            "nu": cert.nu,
            "growth_cap": cert.growth_cap,
        }
    elif isinstance(cert, IntegralInstabilityCertificate):
        body = {
            "kind": "integral_instability",
            "form": cert.M.form,
            "M": witness_to_json_dict(cert.M),
            "quad": _quad_to_json(cert.quad),
        }
    elif isinstance(cert, NoCertificate):
        body = {
            "kind": "no_certificate",
            "property": cert.property_name,
            "reason": cert.reason,
            "details": cert.details,
        }
    else:
        raise PreconditionError(f"cannot serialize object of type {type(cert).__name__}")
    body["grid_hash"] = cert.grid_hash
    body["tool_version"] = cert.tool_version
    return body


def certificate_from_json_dict(doc: dict):
    """Parse a certificate document, validating shape and invariants.

    Tabulated log tables are rebuilt from the stored linear values, so a
    file round trip preserves values exactly and logs to one rounding.
    """
    if not isinstance(doc, dict):
        raise PreconditionError("certificate document must be an object")
    kind = doc.get("kind")
    common = {"kind", "grid_hash", "tool_version"}
    grid_hash = doc.get("grid_hash", "")
    version = doc.get("tool_version", __version__)
    if not isinstance(grid_hash, str) or not isinstance(version, str):
        raise PreconditionError("grid_hash and tool_version must be strings")

    if kind == "decay":
        form = doc.get("form")
        if form == "parametric":
            _require_keys(doc, common | {"form", "n_tilde", "omega"}, set(), "decay certificate")
            return ParametricDecay(_number(doc, "n_tilde"), _number(doc, "omega"), grid_hash, version)
        if form == "tabulated":
            _require_keys(doc, common | {"form", "times", "values"}, set(), "decay certificate")
            return TabulatedDecay.from_values(
                _float_list(doc["times"], "times"), _float_list(doc["values"], "values"),
                grid_hash=grid_hash, tool_version=version,
            )
        raise PreconditionError(f"unknown decay form {form!r}")
    if kind == "instability":
        _require_keys(doc, common | {"form", "N"}, set(), "instability certificate")
        return InstabilityCertificate(
            witness_from_json_dict(doc["N"], doc["form"], "N"), grid_hash, version
        )
    if kind == "exp_instability":
        _require_keys(
            doc, common | {"form", "N", "nu"}, {"growth_cap"}, "exp-instability certificate"
        )
        return ExpInstabilityCertificate(
            witness_from_json_dict(doc["N"], doc["form"], "N"),
            _number(doc, "nu"),
            grid_hash,
            version,
            growth_cap=None if doc.get("growth_cap") is None else _number(doc, "growth_cap"),
        )
    if kind == "integral_instability":
        _require_keys(doc, common | {"form", "M"}, {"quad"}, "integral certificate")
        return IntegralInstabilityCertificate(
            witness_from_json_dict(doc["M"], doc["form"], "M"),
            grid_hash,
            version,
            quad=_quad_from_json(doc.get("quad"), "quad"),
        )
    if kind == "no_certificate":
        _require_keys(doc, common | {"property", "reason"}, {"details"}, "no-certificate document")
        details = doc.get("details", {})
        if not isinstance(details, dict):
            raise PreconditionError("details must be an object")
        if not isinstance(doc["property"], str) or not isinstance(doc["reason"], str):
            raise PreconditionError("property and reason must be strings")
        return NoCertificate(
            property_name=doc["property"],
            reason=doc["reason"],
            grid_hash=grid_hash,
            tool_version=version,
            details=details,
        )
    raise PreconditionError(f"unknown certificate kind {kind!r}")
