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

Each checker, like each theorem sampler, keeps only its sample selection
and its margin formula, and ``core._report`` is the one report loop.  The
sample order, and so the row order of margins.csv, is defined once, by
``core._triples`` and ``core._pairs``.

Witnesses store a log-value table alongside linear values; margins only
ever touch the log side.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from ._version import __version__
from .core import (
    CheckReport,
    MarginSink,
    PreconditionError,
    SampleGrid,
    SkewEvolutionSemiflow,
    _float_list,
    _is_number,
    _pairs,
    _report,
    _triples,
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

    def log_value(self, t: float) -> float:
        return math.log(self.coef) + self.rate * t

    def breakpoints(self) -> tuple[float, ...]:
        return ()


@dataclass(frozen=True)
class TabulatedWitness:
    """Step-interpolated witness: value at the nearest knot time >= t.

    Past the last knot the last value extends; the log table is the
    authoritative side for margin arithmetic.
    """

    times: tuple[float, ...]
    values: tuple[float, ...]
    log_values: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.times:
            raise PreconditionError("tabulated witness needs at least one knot")
        if len(self.times) != len(self.values) or len(self.times) != len(self.log_values):
            raise PreconditionError("tabulated witness arrays must have equal length")
        if any(b >= a for a, b in zip(self.times[1:], self.times)) or self.times[0] < 0.0:
            raise PreconditionError("witness knot times must be strictly increasing and >= 0")
        for lv in self.log_values:
            if math.isnan(lv) or lv == math.inf:
                raise PreconditionError(f"witness log-values must be finite or -inf, got {lv}")

    @classmethod
    def from_values(cls, times: Sequence[float], values: Sequence[float]) -> "TabulatedWitness":
        vals = tuple(float(v) for v in values)
        if any(not (v > 0.0) or not math.isfinite(v) for v in vals):
            raise PreconditionError("tabulated witness values must be positive and finite")
        return cls(tuple(float(t) for t in times), vals, tuple(math.log(v) for v in vals))

    @classmethod
    def from_log_values(cls, times: Sequence[float], logs: Sequence[float]) -> "TabulatedWitness":
        lv = tuple(float(v) for v in logs)
        return cls(tuple(float(t) for t in times), tuple(math.exp(v) for v in lv), lv)

    @property
    def form(self) -> str:
        return "tabulated"

    def _index(self, t: float) -> int:
        idx = bisect.bisect_left(self.times, t)
        return idx if idx < len(self.times) else len(self.times) - 1

    def value(self, t: float) -> float:
        return self.values[self._index(t)]

    def log_value(self, t: float) -> float:
        return self.log_values[self._index(t)]

    def breakpoints(self) -> tuple[float, ...]:
        return self.times


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

    def log_value(self, t: float) -> float:
        return -self.omega * t - math.log(self.n_tilde)

    def breakpoints(self) -> tuple[float, ...]:
        return ()


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

    @classmethod
    def from_values(
        cls, times: Sequence[float], values: Sequence[float], grid_hash: str = ""
    ) -> "TabulatedDecay":
        return replace(super().from_values(times, values), grid_hash=grid_hash)

    @classmethod
    def from_log_values(
        cls, times: Sequence[float], logs: Sequence[float], grid_hash: str = ""
    ) -> "TabulatedDecay":
        return replace(super().from_log_values(times, logs), grid_hash=grid_hash)


DecayCertificate = ParametricDecay | TabulatedDecay


def decay_limit_witnessed(cert: DecayCertificate) -> bool:
    """Whether the table shows actual decay toward 0 (vacuous for parametric).

    A finite table cannot prove a limit; strict overall decrease is the
    evidence the theorem runs ask for before trusting a tabulated f.
    """
    if isinstance(cert, ParametricDecay):
        return True
    return cert.log_values[-1] < cert.log_values[0]


def _validate_instability_witness(w: Witness, strict_above_one: bool) -> None:
    if isinstance(w, ExpWitness):
        if w.coef < 1.0 or w.rate < 0.0:
            raise PreconditionError(
                f"witness needs coef >= 1 and rate >= 0, got ({w.coef}, {w.rate})"
            )
        if strict_above_one and w.coef == 1.0 and w.rate == 0.0:
            raise PreconditionError("instability witness must exceed 1 for t > 0")
    else:
        floor = 0.0
        if strict_above_one:
            if any(lv <= floor for lv in w.log_values):
                raise PreconditionError("instability witness values must be > 1")
        else:
            if any(lv < floor for lv in w.log_values):
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


Certificate = DecayCertificate | InstabilityCertificate | ExpInstabilityCertificate | IntegralInstabilityCertificate


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


def _log_vector_norms(xi: SkewEvolutionSemiflow, grid: SampleGrid) -> np.ndarray:
    """log ||v_b|| for every grid vector, under the model's norm."""
    return np.array([math.log(norm(v, xi.norm_choice)) for v in grid.vector_arrays()])


def _pair_tables(xi: SkewEvolutionSemiflow, grid: SampleGrid):
    """Yield (base label, vector label, log ||v||, L) per (base, vector) pair.

    L[i, j] = log ||Phi(t_i, t_j, x) v|| for i >= j and nan above the
    diagonal; one ``log_norms`` call per base point fills every vector's
    table.  Pairs come base-major, in grid order.
    """
    times = np.asarray(grid.times)
    n = len(times)
    i, j = np.tril_indices(n)
    log_v = _log_vector_norms(xi, grid)
    labels = grid.vector_labels()
    for x in grid.base_points:
        table = np.full((len(labels), n, n), np.nan)
        table[:, i, j] = log_norms(xi, times[i], times[j], x, grid.vectors)
        for b, vlabel in enumerate(labels):
            yield x.label(), vlabel, log_v[b], table[b]


def _sample(
    check: str,
    xi: SkewEvolutionSemiflow,
    grid: SampleGrid,
    tol: float,
    sink: MarginSink | None,
    samples: tuple[np.ndarray, np.ndarray, np.ndarray],
    margin,
) -> CheckReport:
    """Report ``margin(log ||v||, L)`` of every ``_pair_tables`` pair.

    ``samples`` holds the index arrays (k, j, i) of the grid triples
    t_i >= t_j >= t_k that ``margin`` evaluates, in sample order.
    """
    times = np.asarray(grid.times)
    k, j, i = samples
    rows = ((xlabel, vlabel, margin(log_v, table)) for xlabel, vlabel, log_v, table in _pair_tables(xi, grid))
    return _report(check, tol, sink, (times[i], times[j], times[k]), rows)


def _exp_margin(cert: ExpInstabilityCertificate, grid: SampleGrid, samples):
    """The exp-instability margin at the samples (k, j, i), for ``_sample``."""
    times = np.asarray(grid.times)
    k, j, i = samples
    log_n = np.array([cert.N.log_value(t) for t in grid.times])
    return lambda log_v, table: log_n[i] - (cert.nu * (times[i] - times[j]) + (table[j, k] - table[i, k]))


def _decay_stats(xi: SkewEvolutionSemiflow, grid: SampleGrid) -> np.ndarray:
    """m[a, b, j, i] = log ||Phi(u_i + t0_j, t0_j, x_a) v_b|| - log ||v_b||."""
    times = np.asarray(grid.times)
    t0 = times[:, None]
    with np.errstate(over="ignore"):  # an infinite u + t0 is log_norms' DomainError
        t = times + t0
    log_v = _log_vector_norms(xi, grid)[:, None, None]
    return np.stack([log_norms(xi, t, t0, x, grid.vectors) - log_v for x in grid.base_points])


# ---------------------------------------------------------------------------
# Estimators
# ---------------------------------------------------------------------------


def estimate_decay(xi: SkewEvolutionSemiflow, grid: SampleGrid) -> TabulatedDecay:
    """Fit the tightest grid lower bound f_hat(u) = min ratio, monotonized.

    The running minimum over increasing u makes the table nonincreasing;
    f_hat(0) is exactly 1 because the u = 0 ratio is identically one.
    """
    grid.require_nonempty()
    stats = _decay_stats(xi, grid)
    per_u = np.min(stats, axis=(0, 1, 2))
    logs = np.minimum.accumulate(per_u)
    return TabulatedDecay.from_log_values(grid.times, logs, grid_hash=grid.grid_hash)


def estimate_instability(
    xi: SkewEvolutionSemiflow, grid: SampleGrid, headroom: float = DEFAULT_HEADROOM
) -> InstabilityCertificate:
    """Fit N_hat(t) = (1 + headroom) * max(1, worst inverse growth up to t)."""
    grid.require_nonempty()
    if not (math.isfinite(headroom) and headroom > 0.0):
        raise PreconditionError(f"headroom must be > 0, got {headroom}")
    lower = np.tri(len(grid.times), dtype=bool)
    need = np.zeros(len(grid.times))
    for _, _, log_v, table in _pair_tables(xi, grid):
        # worst log ||v|| - log ||Phi(t_i, t0_k)v|| over t0_k <= t_i
        need = np.fmax(need, np.max(log_v - table, axis=1, where=lower, initial=-np.inf))
    logs = math.log1p(headroom) + need
    witness = TabulatedWitness.from_log_values(grid.times, logs)
    return InstabilityCertificate(N=witness, grid_hash=grid.grid_hash)


def _pair_envelopes(
    xi: SkewEvolutionSemiflow, grid: SampleGrid
) -> tuple[np.ndarray, float]:
    """Worst backward ratio per time pair, and the best realized growth rate.

    Returns R[i, j] = max over t0 <= s_j, x, v of
    log ||Phi(s_j, t0)v|| - log ||Phi(t_i, t0)v|| (for i >= j), together
    with rho_star = max over samples of the forward growth rate
    (log ||Phi(t_i, t0)v|| - log ||Phi(s_j, t0)v||) / (t_i - s_j).
    """
    times = np.asarray(grid.times)
    n = len(times)
    lower = np.tri(n, dtype=bool)
    within = lower[:, :, None] & lower[None, :, :]  # [i, j, k]: k <= j <= i
    forward = within & ~np.eye(n, dtype=bool)[:, :, None]  # and j < i
    gaps = (times[:, None] - times[None, :])[:, :, None]
    R = np.full((n, n), -np.inf)
    rho_star = -math.inf
    for *_, table in _pair_tables(xi, grid):
        rise = table[:, None, :] - table[None, :, :]  # [i, j, k] = L[i, k] - L[j, k]
        R = np.maximum(R, np.max(-rise, axis=2, where=within, initial=-np.inf))
        with np.errstate(divide="ignore", invalid="ignore"):
            rates = rise / gaps
        rho_star = max(rho_star, float(np.max(rates, where=forward, initial=-np.inf)))
    return R, rho_star


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
    """
    grid.require_nonempty()
    if not (math.isfinite(growth_cap) and growth_cap > 0.0):
        raise PreconditionError(f"growth_cap must be > 0, got {growth_cap}")
    if not (math.isfinite(headroom) and headroom > 0.0):
        raise PreconditionError(f"headroom must be > 0, got {headroom}")
    if nu_candidates is None:
        nu_candidates = DEFAULT_NU_CANDIDATES
    candidates = tuple(float(c) for c in nu_candidates)
    if not candidates or any(not (math.isfinite(c) and c > 0.0) for c in candidates):
        raise PreconditionError("nu candidates must be positive reals")
    if any(b >= a for a, b in zip(candidates[1:], candidates)):
        raise PreconditionError("nu candidates must be sorted increasing")

    times = np.asarray(grid.times)
    R, rho_star = _pair_envelopes(xi, grid)
    gaps = times[:, None] - times[None, :]
    slopes: dict[float, float] = {}
    for nu in reversed(candidates):
        if nu > rho_star + _RATE_TOL:
            continue
        with np.errstate(invalid="ignore"):
            needed = nu * gaps + R
        # R is -inf above the diagonal, so each row's maximum runs over s <= t.
        y = np.max(needed, axis=1)
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
            "realized_rate": rho_star,
            "envelope_slopes": {f"{nu:.17g}": s for nu, s in sorted(slopes.items())},
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
    grid.require_nonempty()
    if not xi.strongly_measurable:
        raise PreconditionError("integral instability needs a strongly measurable model")
    if not (math.isfinite(headroom) and headroom > 0.0):
        raise PreconditionError(f"headroom must be > 0, got {headroom}")
    times = grid.times
    vectors = grid.vector_arrays()
    _, i = _pairs(len(times))
    need = np.full(len(times), -np.inf)
    for x in grid.base_points:
        np.fmax.at(need, i, np.fmax.reduce(_datko_stats(xi, x, vectors, times, quad_cfg)))
    logs = np.maximum(0.0, math.log1p(headroom) + need)
    witness = TabulatedWitness.from_log_values(times, logs)
    return IntegralInstabilityCertificate(M=witness, grid_hash=grid.grid_hash, quad=quad_cfg)


def _datko_stats(
    xi: SkewEvolutionSemiflow,
    x,
    vectors: Sequence[np.ndarray],
    times: Sequence[float],
    quad_cfg: QuadratureConfig,
) -> np.ndarray:
    """d[b, p] = log(integral over [t_k, t_i]) - log ||Phi(t_i, t_k, x)v_b|| at the pair samples p = (k, i).

    One row per vector, in ``_pairs`` order; each base time t_k takes one
    ``norm_integral_prefix`` call and one ``log_norms`` call.  The t = t0
    samples are -inf; both the estimator and the checker consume
    exactly these floats.  The ratio has degree 0 in v, so each v is
    normalized before the quadrature: otherwise the integrator's absolute
    tolerance floor would make the refinement depth, and hence the last
    few digits, depend on the scale of v.
    """
    block = np.array([v / norm(v, xi.norm_choice) for v in vectors])
    stats = []
    for k, t0 in enumerate(times):
        prefix = norm_integral_prefix(xi, x, block, times[k:], quad_cfg)
        with np.errstate(divide="ignore"):
            stats.append(np.log(prefix) - log_norms(xi, np.asarray(times[k:]), t0, x, block))
    return np.concatenate(stats, axis=1)


# ---------------------------------------------------------------------------
# Checkers
# ---------------------------------------------------------------------------


def _checker_inputs(checker: str, cert, kinds, what: str, grid: SampleGrid) -> None:
    """The checkers' shared preconditions: a certificate of the checked kind, a nonempty grid."""
    if not isinstance(cert, kinds):
        raise PreconditionError(f"{checker} needs {what}, got {type(cert).__name__}")
    grid.require_nonempty()


def check_decay(
    xi: SkewEvolutionSemiflow,
    cert: DecayCertificate,
    grid: SampleGrid,
    tol: float = 1e-9,
    margin_sink: MarginSink | None = None,
) -> CheckReport:
    """Sample log ||Phi(u + t0, t0, x)v|| - log f(u) - log ||v|| over the grid."""
    _checker_inputs("check_decay", cert, (ParametricDecay, TabulatedDecay), "a decay certificate", grid)
    # Samples (u_i + t0_j, t0_j) over every grid u and t0, by t0 then u.
    times = np.asarray(grid.times)
    t0 = np.repeat(times, len(times))
    t = (times + times[:, None]).ravel()
    log_f = np.array([cert.log_value(u) for u in grid.times])
    rows = (
        (x.label(), vlabel, (stats - log_f).ravel())
        for x, per_vector in zip(grid.base_points, _decay_stats(xi, grid))
        for vlabel, stats in zip(grid.vector_labels(), per_vector)
    )
    return _report("decay", tol, margin_sink, (t, t0, t0), rows)


def check_instability(
    xi: SkewEvolutionSemiflow,
    cert: InstabilityCertificate,
    grid: SampleGrid,
    tol: float = 1e-9,
    margin_sink: MarginSink | None = None,
) -> CheckReport:
    """Sample log N(t) + log ||Phi(t, t0, x)v|| - log ||v|| over t >= t0."""
    _checker_inputs("check_instability", cert, InstabilityCertificate, "an instability certificate", grid)
    k, i = _pairs(len(grid.times))
    log_n = np.array([cert.N.log_value(t) for t in grid.times])
    return _sample(
        "instability", xi, grid, tol, margin_sink, (k, k, i),
        lambda log_v, table: log_n[i] - (log_v - table[i, k]),
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
    log ||Phi(t, t0, x)v||), evaluated per base point and vector.
    """
    _checker_inputs(
        "check_exp_instability", cert, ExpInstabilityCertificate, "an exp-instability certificate", grid
    )
    samples = _triples(len(grid.times))
    return _sample(
        "exp-instability", xi, grid, tol, margin_sink, samples, _exp_margin(cert, grid, samples)
    )


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
    Uses the certificate's own quadrature config when it carries one.
    """
    _checker_inputs(
        "check_integral_instability", cert, IntegralInstabilityCertificate, "an integral certificate", grid
    )
    if not xi.strongly_measurable:
        raise PreconditionError("integral instability needs a strongly measurable model")
    cfg = quad_cfg or cert.quad or QuadratureConfig()
    times = np.asarray(grid.times)
    k, i = _pairs(len(times))
    log_m = np.array([cert.M.log_value(t) for t in grid.times])
    vectors = grid.vector_arrays()
    rows = (
        (x.label(), vlabel, log_m[i] - row)
        for x in grid.base_points
        for vlabel, row in zip(grid.vector_labels(), _datko_stats(xi, x, vectors, grid.times, cfg))
    )
    return _report("integral-instability", tol, margin_sink, (times[i], times[k], times[k]), rows)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _require_keys(doc: dict, required: set[str], optional: set[str], what: str) -> None:
    keys = set(doc)
    missing = required - keys
    unknown = keys - required - optional
    if missing:
        raise PreconditionError(f"{what} is missing keys {sorted(missing)}")
    if unknown:
        raise PreconditionError(f"{what} has unknown keys {sorted(unknown)}")


def witness_to_json_dict(w: Witness) -> dict:
    if isinstance(w, ExpWitness):
        return {"coef": w.coef, "rate": w.rate}
    return {"times": list(w.times), "values": list(w.values)}


def witness_from_json_dict(doc: dict, form: str, what: str) -> Witness:
    if not isinstance(doc, dict):
        raise PreconditionError(f"{what} must be an object")
    if form == "parametric":
        _require_keys(doc, {"coef", "rate"}, set(), what)
        if not (_is_number(doc["coef"]) and _is_number(doc["rate"])):
            raise PreconditionError(f"{what} coef and rate must be numbers")
        return ExpWitness(float(doc["coef"]), float(doc["rate"]))
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
    if not isinstance(doc, dict):
        raise PreconditionError(f"{what} must be an object or null")
    _require_keys(doc, set(), {"rel_tol", "abs_tol", "max_depth", "datko_lower_limit"}, what)
    # max_depth is passed through as is: QuadratureConfig rejects non-integers.
    for key in ("rel_tol", "abs_tol", "max_depth"):
        if key in doc and not _is_number(doc[key]):
            raise PreconditionError(f"{what}.{key} must be a number, got {doc[key]!r}")
    defaults = QuadratureConfig()
    return QuadratureConfig(
        rel_tol=float(doc.get("rel_tol", defaults.rel_tol)),
        abs_tol=float(doc.get("abs_tol", defaults.abs_tol)),
        max_depth=doc.get("max_depth", defaults.max_depth),
        datko_lower_limit=doc.get("datko_lower_limit", defaults.datko_lower_limit),
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

    def number(key: str) -> float:
        if key not in doc or not isinstance(doc[key], (int, float)) or isinstance(doc[key], bool):
            raise PreconditionError(f"certificate field {key!r} must be a number")
        return float(doc[key])

    if kind == "decay":
        form = doc.get("form")
        if form == "parametric":
            _require_keys(doc, common | {"form", "n_tilde", "omega"}, set(), "decay certificate")
            return ParametricDecay(number("n_tilde"), number("omega"), grid_hash, version)
        if form == "tabulated":
            _require_keys(doc, common | {"form", "times", "values"}, set(), "decay certificate")
            w = TabulatedWitness.from_values(
                _float_list(doc["times"], "times"), _float_list(doc["values"], "values")
            )
            return TabulatedDecay(w.times, w.values, w.log_values, grid_hash, version)
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
        cap = doc.get("growth_cap")
        if cap is not None and (not isinstance(cap, (int, float)) or isinstance(cap, bool)):
            raise PreconditionError("growth_cap must be a number or null")
        return ExpInstabilityCertificate(
            witness_from_json_dict(doc["N"], doc["form"], "N"),
            number("nu"),
            grid_hash,
            version,
            growth_cap=None if cap is None else float(cap),
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
        return NoCertificate(
            property_name=str(doc["property"]),
            reason=str(doc["reason"]),
            grid_hash=grid_hash,
            tool_version=version,
            details=details,
        )
    raise PreconditionError(f"unknown certificate kind {kind!r}")
