"""Constructive transformations between the four witness properties.

Each operation here takes certificates for some properties, derives a
certificate for another property by an explicit formula, and re-checks
every inequality involved on the sample grid.  The derivation formulas
are frozen as strings in ``FORMULAS`` so reports can be audited; a run
records its inputs, derived objects, check reports, and a verdict.

Verdicts: "pass" when every embedded report passes, "fail" otherwise,
"input-invalid" when a precondition gate fails, and "no-certificate"
when a required parameter search comes up empty.  Auxiliary reports
(context, not conclusions) never influence the verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .certificates import (
    DEFAULT_GROWTH_CAP,
    DEFAULT_HEADROOM,
    DecayCertificate,
    ExpInstabilityCertificate,
    ExpWitness,
    InstabilityCertificate,
    IntegralInstabilityCertificate,
    NoCertificate,
    ParametricDecay,
    TabulatedDecay,
    TabulatedWitness,
    _exp_margin,
    _sample,
    certificate_to_json_dict,
    check_decay,
    check_exp_instability,
    check_instability,
    check_integral_instability,
    decay_limit_witnessed,
    estimate_decay,
    estimate_exp_instability,
    estimate_instability,
    estimate_integral_instability,
    integrate_kernel,
    witness_to_json_dict,
)
from .core import (
    CheckReport,
    PreconditionError,
    SampleGrid,
    SkewEvolutionSemiflow,
    _pairs,
    _triples,
    shift_cocycle,
)
from .quadrature import QuadratureConfig

DEFAULT_TOL = 1e-9

# Frozen derivation formulas; tests audit runs against these strings
# byte-for-byte, so edit them only together with the constructions.
FORMULAS = {
    "remark_obs2.instability": "N_is(t) = N(t)",
    "remark_obs2.decay": "f_hat = estimate_decay(xi, grid)",
    "prop_integral_decay_to_instability.K": "K = integral_0^1 f(u) du",
    "prop_integral_decay_to_instability.instability": "N(t) = 1/f(1) + M(t)/K",
    "prop_shift_necessity.alpha": "alpha = nu/2",
    "prop_shift_necessity.integral": "M_alpha(t) = max(1, N(t)/alpha)",
    "prop_shift_sufficiency.K": "K = integral_0^1 exp(-alpha*u) f(u) du",
    "prop_shift_sufficiency.exp_instability": "nu = alpha; N(t) = max(M_alpha(t)/K, 1 + headroom)",
    "thm1_necessity.integral": "M(t) = max(1, N(t)/nu)",
    "thm1_necessity.instability": "N_is(t) = N(t)",
    "thm1_sufficiency.decay": "f_hat = estimate_decay(xi, grid)",
    "thm1_sufficiency.linear_growth": "Mtilde(t) = M(t)/f_hat(t)",
    "thm1_sufficiency.exp_instability_estimate": "nu, N = estimate_exp_instability(xi, grid)",
    "thm2_validate.lambda": "lambda = smallest integer grid time > 1 with f(lambda) < 1",
    "thm2_validate.K1": "K1 = integral_0^1 f(u) du",
    "thm2_validate.instability": "N(t) = 1/f(lambda) + Mtilde(t); Mtilde(t) = M(t)/f(t)",
    "thm2_validate.exp_instability_estimate": "nu, N = estimate_exp_instability(xi, grid)",
    "corollary_equivalence.integral": "M_hat = estimate_integral_instability(xi, grid, quad_cfg)",
    "corollary_equivalence.decay": "f_hat = estimate_decay(xi, grid)",
    "corollary_equivalence.instability": "N_hat = estimate_instability(xi, grid, headroom)",
    "corollary_equivalence.exp_instability": "nu, N = estimate_exp_instability(xi, grid, nu_candidates, growth_cap)",
}


@dataclass(frozen=True)
class DerivedItem:
    """A derived object plus the formula that produced it.

    Exactly one of ``certificate`` (a certificate or bare witness) and
    ``value`` (a scalar constant) is set.
    """

    name: str
    formula: str
    certificate: object | None = None
    value: float | None = None

    def to_json_dict(self) -> dict:
        cert, payload = self.certificate, None
        # A TabulatedDecay is a TabulatedWitness too, but serializes as a certificate.
        if isinstance(cert, (ExpWitness, TabulatedWitness)) and not isinstance(cert, TabulatedDecay):
            payload = {"form": cert.form, **witness_to_json_dict(cert)}
        elif cert is not None:
            payload = certificate_to_json_dict(cert)
        return {
            "name": self.name,
            "formula": self.formula,
            "certificate": payload,
            "value": self.value,
        }


@dataclass(frozen=True)
class TheoremRun:
    theorem: str
    inputs: tuple[tuple[str, object], ...]
    derived: tuple[DerivedItem, ...]
    reports: tuple[CheckReport, ...]
    verdict: str
    aux_reports: tuple[CheckReport, ...] = ()
    constants: dict = field(default_factory=dict)
    notes: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_json_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "inputs": [
                {"name": name, "certificate": certificate_to_json_dict(cert)}
                for name, cert in self.inputs
            ],
            "derived": [item.to_json_dict() for item in self.derived],
            "reports": [r.to_json_dict() for r in self.reports],
            "aux_reports": [r.to_json_dict() for r in self.aux_reports],
            "verdict": self.verdict,
            "constants": self.constants,
            "notes": list(self.notes),
        }


def _finish(
    theorem: str,
    inputs,
    derived,
    reports,
    aux_reports=(),
    constants=None,
    notes=(),
) -> TheoremRun:
    verdict = "pass" if all(r.passed for r in reports) else "fail"
    return TheoremRun(
        theorem=theorem,
        inputs=tuple(inputs),
        derived=tuple(derived),
        reports=tuple(reports),
        verdict=verdict,
        aux_reports=tuple(aux_reports),
        constants=dict(constants or {}),
        notes=tuple(notes),
    )


def _invalid(theorem, inputs, reports, note, constants=None) -> TheoremRun:
    return TheoremRun(
        theorem=theorem,
        inputs=tuple(inputs),
        derived=(),
        reports=tuple(reports),
        verdict="input-invalid",
        constants=dict(constants or {}),
        notes=(note,),
    )


def _gate(theorem, inputs, gates, constants=None) -> TheoremRun | None:
    """The input-invalid run when an input certificate fails its own check."""
    if all(g.passed for g in gates):
        return None
    which = "input certificate" if len(gates) == 1 else "an input certificate"
    return _invalid(theorem, inputs, gates, f"{which} fails its own check on this grid", constants)


def _require(cert, kind: type, what: str) -> None:
    if not isinstance(cert, kind):
        raise PreconditionError(f"{what} must be a {kind.__name__}, got {type(cert).__name__}")


def _require_decay(cert, what: str = "f") -> None:
    if not isinstance(cert, (ParametricDecay, TabulatedDecay)):
        raise PreconditionError(f"{what} must be a decay certificate, got {type(cert).__name__}")


# ---------------------------------------------------------------------------
# Custom inequality samplers shared by the validators
# ---------------------------------------------------------------------------


def _check_linear_growth(
    xi: SkewEvolutionSemiflow,
    mtilde_logs: np.ndarray,
    grid: SampleGrid,
    tol: float,
) -> CheckReport:
    """Margins of (t - t0) ||v|| <= Mtilde(t) ||Phi(t, t0, x) v||.

    The t = t0 samples compare against a zero left side and count as
    +inf margins.
    """
    times = np.asarray(grid.times)
    k, i = _pairs(len(times))
    with np.errstate(divide="ignore"):
        log_gap = np.log(times[i] - times[k])
    return _sample(
        "linear-growth", xi, grid, tol, None, (k, k, i),
        lambda log_v, table: np.where(i == k, math.inf, mtilde_logs[i] + (table[i, k] - log_v) - log_gap),
    )


def _check_window_bound(
    xi: SkewEvolutionSemiflow,
    log_f_lam: float,
    grid: SampleGrid,
    tol: float,
) -> CheckReport:
    """Margins of ||Phi(t, t0, x)v|| >= f(lambda) ||Phi(s, t0, x)v||, t in [s, s+1)."""
    times = np.asarray(grid.times)
    k, j, i = _triples(len(times))
    window = times[i] < times[j] + 1.0
    k, j, i = k[window], j[window], i[window]
    return _sample(
        "window-bound", xi, grid, tol, None, (k, j, i),
        lambda log_v, table: (table[i, k] - table[j, k]) - log_f_lam,
    )


def _check_integral_chain(
    xi: SkewEvolutionSemiflow,
    m_cert: IntegralInstabilityCertificate,
    log_k1: float,
    grid: SampleGrid,
    tol: float,
) -> CheckReport:
    """Margins of K1 ||v|| <= M(t) ||Phi(t, t0, x) v|| for t >= t0 + 1.

    The chain K1 ||v|| <= integral over [t0, t0 + 1] of ||Phi(tau, t0, x)v||
    <= M(t) ||Phi(t, t0, x)v|| needs [t0, t0 + 1] inside [t0, t], so it
    says nothing about t < t0 + 1 and those pairs are not sampled.
    """
    times = np.asarray(grid.times)
    k, i = _pairs(len(times))
    unit = times[i] >= times[k] + 1.0
    k, i = k[unit], i[unit]
    log_m = np.array([m_cert.M.log_value(t) for t in grid.times])
    return _sample(
        "integral-chain", xi, grid, tol, None, (k, k, i),
        lambda log_v, table: log_m[i] + (table[i, k] - log_v) - log_k1,
    )


def _clamped_log_witness(logs: list[float], times) -> tuple[TabulatedWitness, int]:
    """Clamp log-values up to 0 (witness >= 1), counting how often it fires."""
    clamped = [max(0.0, lv) for lv in logs]
    fired = sum(1 for lv in logs if lv < 0.0)
    return TabulatedWitness.from_log_values(times, clamped), fired


def _exp_estimate_aux(
    xi: SkewEvolutionSemiflow, grid: SampleGrid, tol: float, formula: str
) -> tuple[DerivedItem, tuple[CheckReport, ...], str]:
    """Fit an exp-instability certificate for context, derived under ``FORMULAS[formula]``."""
    fitted = estimate_exp_instability(xi, grid)
    item = DerivedItem("exp_instability_estimate", FORMULAS[formula], fitted)
    if isinstance(fitted, NoCertificate):
        return item, (), f"exp-instability estimate: no certificate ({fitted.reason})"
    report = check_exp_instability(xi, fitted, grid, tol)
    return item, (report,), f"exp-instability estimate: nu = {fitted.nu:.17g}, check {report.verdict}"


# ---------------------------------------------------------------------------
# Validators
# ---------------------------------------------------------------------------


def remark_obs2(
    cert: ExpInstabilityCertificate,
    xi: SkewEvolutionSemiflow,
    grid: SampleGrid,
    tol: float = DEFAULT_TOL,
) -> TheoremRun:
    """Exp-instability implies plain instability (with the same witness)
    and a grid decay witness.

    Sets s = t0 in the two-time inequality; the damping factor is at
    most one there, so N itself witnesses instability.  The decay side
    is fitted from the grid and round-trip checked.
    """
    _require(cert, ExpInstabilityCertificate, "cert")
    inputs = (("exp_instability", cert),)
    gates = (check_exp_instability(xi, cert, grid, tol),)
    if invalid := _gate("remark_obs2", inputs, gates):
        return invalid
    derived_n = InstabilityCertificate(N=cert.N, grid_hash=grid.grid_hash)
    inst_report = check_instability(xi, derived_n, grid, tol)
    f_hat = estimate_decay(xi, grid)
    decay_report = check_decay(xi, f_hat, grid, tol)
    derived = (
        DerivedItem("instability", FORMULAS["remark_obs2.instability"], derived_n),
        DerivedItem("decay", FORMULAS["remark_obs2.decay"], f_hat),
    )
    return _finish("remark_obs2", inputs, derived, (*gates, inst_report, decay_report))


def prop_integral_decay_to_instability(
    f: DecayCertificate,
    m_cert: IntegralInstabilityCertificate,
    xi: SkewEvolutionSemiflow,
    grid: SampleGrid,
    quad_cfg: QuadratureConfig = QuadratureConfig(),
    tol: float = DEFAULT_TOL,
) -> TheoremRun:
    """Decay plus integral-instability yields plain instability.

    The instability witness is N(t) = 1/f(1) + M(t)/K with K the unit
    integral of f; K is recorded in the run's constants.
    """
    _require_decay(f)
    _require(m_cert, IntegralInstabilityCertificate, "M")
    inputs = (("f", f), ("M", m_cert))
    gates = (check_decay(xi, f, grid, tol), check_integral_instability(xi, m_cert, grid, tol, quad_cfg))
    if invalid := _gate("prop_integral_decay_to_instability", inputs, gates):
        return invalid
    log_k = integrate_kernel(f, 0.0)
    k_val = math.exp(log_k)
    logs = [
        float(np.logaddexp(-f.log_value(1.0), m_cert.M.log_value(t) - log_k)) for t in grid.times
    ]
    derived_n = InstabilityCertificate(
        TabulatedWitness.from_log_values(grid.times, logs), grid_hash=grid.grid_hash
    )
    report = check_instability(xi, derived_n, grid, tol)
    derived = (
        DerivedItem("K", FORMULAS["prop_integral_decay_to_instability.K"], value=k_val),
        DerivedItem(
            "instability", FORMULAS["prop_integral_decay_to_instability.instability"], derived_n
        ),
    )
    return _finish(
        "prop_integral_decay_to_instability",
        inputs,
        derived,
        (*gates, report),
        constants={"K": k_val},
    )


def prop_shift_necessity(
    cert: ExpInstabilityCertificate,
    xi: SkewEvolutionSemiflow,
    grid: SampleGrid,
    quad_cfg: QuadratureConfig = QuadratureConfig(),
    tol: float = DEFAULT_TOL,
) -> TheoremRun:
    """Exp-instability of xi yields integral-instability of the shifted
    system at half the rate.

    Uses alpha = nu/2, M(t) = max(1, N(t)/alpha), and checks on the
    alpha-shifted cocycle; alpha is recorded in the constants.
    """
    _require(cert, ExpInstabilityCertificate, "cert")
    inputs = (("exp_instability", cert),)
    gates = (check_exp_instability(xi, cert, grid, tol),)
    if invalid := _gate("prop_shift_necessity", inputs, gates):
        return invalid
    alpha = cert.nu / 2.0
    log_alpha = math.log(alpha)
    witness, clamp_count = _clamped_log_witness(
        [cert.N.log_value(t) - log_alpha for t in grid.times], grid.times
    )
    derived_m = IntegralInstabilityCertificate(witness, grid_hash=grid.grid_hash, quad=quad_cfg)
    shifted = shift_cocycle(xi, alpha)
    report = check_integral_instability(shifted, derived_m, grid, tol, quad_cfg)
    notes = []
    if clamp_count:
        notes.append(f"clamped M to 1 at {clamp_count} of {len(grid.times)} grid times")
    derived = (
        DerivedItem("alpha", FORMULAS["prop_shift_necessity.alpha"], value=alpha),
        DerivedItem("integral", FORMULAS["prop_shift_necessity.integral"], derived_m),
    )
    return _finish(
        "prop_shift_necessity",
        inputs,
        derived,
        (*gates, report),
        constants={"alpha": alpha},
        notes=notes,
    )


def prop_shift_sufficiency(
    alpha: float,
    m_alpha: IntegralInstabilityCertificate,
    f: DecayCertificate,
    xi: SkewEvolutionSemiflow,
    grid: SampleGrid,
    quad_cfg: QuadratureConfig = QuadratureConfig(),
    tol: float = DEFAULT_TOL,
    headroom: float = DEFAULT_HEADROOM,
) -> TheoremRun:
    """Integral-instability of the alpha-shifted system plus decay of xi
    yields exp-instability of xi at rate alpha.

    The witness is N(t) = max(M_alpha(t)/K, 1 + headroom) with
    K = integral_0^1 e^{-alpha u} f(u) du.  The constructed chain proves
    the s = t0 instances, so that restricted check carries the verdict;
    the full two-time check is attached as context only.
    """
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise PreconditionError(f"alpha must be finite and > 0, got {alpha}")
    _require(m_alpha, IntegralInstabilityCertificate, "M_alpha")
    _require_decay(f)
    inputs = (("M_alpha", m_alpha), ("f", f))
    shifted = shift_cocycle(xi, alpha)
    gates = (check_integral_instability(shifted, m_alpha, grid, tol, quad_cfg), check_decay(xi, f, grid, tol))
    if invalid := _gate("prop_shift_sufficiency", inputs, gates, {"alpha": alpha}):
        return invalid
    log_k = integrate_kernel(f, alpha)
    k_val = math.exp(log_k)
    floor = math.log1p(headroom)
    logs = [max(m_alpha.M.log_value(t) - log_k, floor) for t in grid.times]
    derived_cert = ExpInstabilityCertificate(
        TabulatedWitness.from_log_values(grid.times, logs), nu=alpha, grid_hash=grid.grid_hash
    )
    k, i = _pairs(len(grid.times))
    diag = (k, k, i)
    diag_report = _sample(
        "exp-instability-diagonal", xi, grid, tol, None, diag, _exp_margin(derived_cert, grid, diag)
    )
    full_report = check_exp_instability(xi, derived_cert, grid, tol)
    notes = [f"full two-time check (context): {full_report.verdict}"]
    if not decay_limit_witnessed(f):
        notes.append("decay witness table never decreases; vanishing limit not evidenced")
    derived = (
        DerivedItem("K", FORMULAS["prop_shift_sufficiency.K"], value=k_val),
        DerivedItem(
            "exp_instability", FORMULAS["prop_shift_sufficiency.exp_instability"], derived_cert
        ),
    )
    return _finish(
        "prop_shift_sufficiency",
        inputs,
        derived,
        (*gates, diag_report),
        aux_reports=(full_report,),
        constants={"alpha": alpha, "K": k_val},
        notes=notes,
    )


def thm1_necessity(
    cert: ExpInstabilityCertificate,
    xi: SkewEvolutionSemiflow,
    grid: SampleGrid,
    quad_cfg: QuadratureConfig = QuadratureConfig(),
    tol: float = DEFAULT_TOL,
) -> TheoremRun:
    """Exp-instability yields both plain and integral instability.

    Derives M(t) = max(1, N(t)/nu) for the integral side and reuses N
    for the plain side; the verdict aggregates both checks.
    """
    _require(cert, ExpInstabilityCertificate, "cert")
    inputs = (("exp_instability", cert),)
    gates = (check_exp_instability(xi, cert, grid, tol),)
    if invalid := _gate("thm1_necessity", inputs, gates):
        return invalid
    log_nu = math.log(cert.nu)
    witness, clamp_count = _clamped_log_witness(
        [cert.N.log_value(t) - log_nu for t in grid.times], grid.times
    )
    derived_m = IntegralInstabilityCertificate(witness, grid_hash=grid.grid_hash, quad=quad_cfg)
    int_report = check_integral_instability(xi, derived_m, grid, tol, quad_cfg)
    derived_n = InstabilityCertificate(N=cert.N, grid_hash=grid.grid_hash)
    inst_report = check_instability(xi, derived_n, grid, tol)
    notes = []
    if clamp_count:
        notes.append(f"clamped M to 1 at {clamp_count} of {len(grid.times)} grid times")
    derived = (
        DerivedItem("integral", FORMULAS["thm1_necessity.integral"], derived_m),
        DerivedItem("instability", FORMULAS["thm1_necessity.instability"], derived_n),
    )
    return _finish(
        "thm1_necessity",
        inputs,
        derived,
        (*gates, int_report, inst_report),
        constants={"nu": cert.nu},
        notes=notes,
    )


def thm1_sufficiency(
    n_cert: InstabilityCertificate,
    m_cert: IntegralInstabilityCertificate,
    xi: SkewEvolutionSemiflow,
    grid: SampleGrid,
    quad_cfg: QuadratureConfig = QuadratureConfig(),
    tol: float = DEFAULT_TOL,
) -> TheoremRun:
    """Plain plus integral instability yields at least linear growth.

    Fits a grid decay witness, builds Mtilde(t) = M(t)/f_hat(t), and
    checks (t - t0) ||v|| <= Mtilde(t) ||Phi(t, t0, x) v||.  Whether an
    exponential-rate certificate is also attainable on this grid is
    reported as context, not folded into the verdict.
    """
    _require(n_cert, InstabilityCertificate, "N")
    _require(m_cert, IntegralInstabilityCertificate, "M")
    inputs = (("N", n_cert), ("M", m_cert))
    gates = (check_instability(xi, n_cert, grid, tol), check_integral_instability(xi, m_cert, grid, tol, quad_cfg))
    if invalid := _gate("thm1_sufficiency", inputs, gates):
        return invalid
    f_hat = estimate_decay(xi, grid)
    decay_report = check_decay(xi, f_hat, grid, tol)
    mtilde_logs = np.array([m_cert.M.log_value(t) - f_hat.log_value(t) for t in grid.times])
    mtilde = TabulatedWitness.from_log_values(grid.times, mtilde_logs)
    growth_report = _check_linear_growth(xi, mtilde_logs, grid, tol)
    aux_item, aux_reports, aux_note = _exp_estimate_aux(
        xi, grid, tol, "thm1_sufficiency.exp_instability_estimate"
    )
    derived = (
        DerivedItem("decay", FORMULAS["thm1_sufficiency.decay"], f_hat),
        DerivedItem("linear_growth", FORMULAS["thm1_sufficiency.linear_growth"], mtilde),
        aux_item,
    )
    return _finish(
        "thm1_sufficiency",
        inputs,
        derived,
        (*gates, decay_report, growth_report),
        aux_reports=aux_reports,
        notes=("skipped_samples: 0", aux_note),
    )


def thm2_validate(
    f: DecayCertificate,
    m_cert: IntegralInstabilityCertificate,
    xi: SkewEvolutionSemiflow,
    grid: SampleGrid,
    quad_cfg: QuadratureConfig = QuadratureConfig(),
    tol: float = DEFAULT_TOL,
) -> TheoremRun:
    """Decay plus integral-instability, validated along the constructive
    chain that produces an instability witness.

    Pipeline: pick lambda (smallest integer grid time above 1 with
    f(lambda) < 1), build N(t) = 1/f(lambda) + M(t)/f(t), then check the
    short-window lower bound, the unit-kernel integral chain, the derived
    instability witness, and the linear-growth inequality.
    """
    _require_decay(f)
    _require(m_cert, IntegralInstabilityCertificate, "M")
    inputs = (("f", f), ("M", m_cert))
    if not xi.strongly_measurable:
        return _invalid(
            "thm2_validate", inputs, (), "model is not flagged strongly measurable"
        )
    if not decay_limit_witnessed(f):
        return _invalid(
            "thm2_validate", inputs, (),
            "decay witness table never decreases; vanishing limit not evidenced",
        )
    gates = (check_decay(xi, f, grid, tol), check_integral_instability(xi, m_cert, grid, tol, quad_cfg))
    if invalid := _gate("thm2_validate", inputs, gates):
        return invalid
    lam = None
    for t in grid.times:
        if t > 1.0 and float(t).is_integer() and f.log_value(t) < 0.0:
            lam = float(t)
            break
    missing = None
    if lam is None:
        missing = "no integer grid time above 1 has f(lambda) < 1"
    elif grid.times[-1] < grid.times[0] + 1.0:
        missing = "no grid pair spans the unit window t >= t0 + 1 of the integral chain"
    if missing is not None:
        return TheoremRun(
            theorem="thm2_validate",
            inputs=inputs,
            derived=(),
            reports=gates,
            verdict="no-certificate",
            notes=(missing,),
        )
    log_k1 = integrate_kernel(f, 0.0)
    k1 = math.exp(log_k1)
    log_f_lam = f.log_value(lam)
    mtilde_logs = np.array([m_cert.M.log_value(t) - f.log_value(t) for t in grid.times])
    n_logs = np.logaddexp(-log_f_lam, mtilde_logs)
    derived_n = InstabilityCertificate(
        TabulatedWitness.from_log_values(grid.times, n_logs), grid_hash=grid.grid_hash
    )
    window_report = _check_window_bound(xi, log_f_lam, grid, tol)
    chain_report = _check_integral_chain(xi, m_cert, log_k1, grid, tol)
    inst_report = check_instability(xi, derived_n, grid, tol)
    growth_report = _check_linear_growth(xi, mtilde_logs, grid, tol)
    aux_item, aux_reports, aux_note = _exp_estimate_aux(
        xi, grid, tol, "thm2_validate.exp_instability_estimate"
    )
    derived = (
        DerivedItem("lambda", FORMULAS["thm2_validate.lambda"], value=lam),
        DerivedItem("K1", FORMULAS["thm2_validate.K1"], value=k1),
        DerivedItem("instability", FORMULAS["thm2_validate.instability"], derived_n),
        aux_item,
    )
    return _finish(
        "thm2_validate",
        inputs,
        derived,
        (*gates, window_report, chain_report, inst_report, growth_report),
        aux_reports=aux_reports,
        constants={"lambda": lam, "f_lambda": math.exp(log_f_lam), "K1": k1},
        notes=(aux_note,),
    )


def corollary_equivalence(
    xi: SkewEvolutionSemiflow,
    grid: SampleGrid,
    quad_cfg: QuadratureConfig = QuadratureConfig(),
    tol: float = DEFAULT_TOL,
    nu_candidates=None,
    growth_cap: float = DEFAULT_GROWTH_CAP,
) -> TheoremRun:
    """Under a fitted integral-instability certificate, the three point
    properties (decay, instability, exp-instability) should be witnessed
    together.

    Verdict: pass when all three fitted certificates check out,
    no-certificate when the exp-instability search fails while the other
    two succeed (the disagreement context lands in the notes), fail when
    a fitted certificate fails its own check.
    """
    m_hat = estimate_integral_instability(xi, grid, quad_cfg)
    gate = check_integral_instability(xi, m_hat, grid, tol, quad_cfg)
    if not gate.passed:
        return _invalid(
            "corollary_equivalence", (), (gate,),
            "fitted integral-instability certificate fails its own check",
        )
    f_hat = estimate_decay(xi, grid)
    decay_report = check_decay(xi, f_hat, grid, tol)
    n_hat = estimate_instability(xi, grid)
    inst_report = check_instability(xi, n_hat, grid, tol)
    fitted = estimate_exp_instability(
        xi, grid, nu_candidates=nu_candidates, growth_cap=growth_cap
    )
    derived = [
        DerivedItem("integral", FORMULAS["corollary_equivalence.integral"], m_hat),
        DerivedItem("decay", FORMULAS["corollary_equivalence.decay"], f_hat),
        DerivedItem("instability", FORMULAS["corollary_equivalence.instability"], n_hat),
        DerivedItem("exp_instability", FORMULAS["corollary_equivalence.exp_instability"], fitted),
    ]
    reports = [gate, decay_report, inst_report]
    outcomes = {
        "decay": decay_report.verdict,
        "instability": inst_report.verdict,
    }
    if isinstance(fitted, NoCertificate):
        outcomes["exp-instability"] = "no-certificate"
        exp_note = f"no-certificate ({fitted.reason})"
    else:
        exp_report = check_exp_instability(xi, fitted, grid, tol)
        reports.append(exp_report)
        outcomes["exp-instability"] = exp_report.verdict
        exp_note = f"nu = {fitted.nu:.17g}, check {exp_report.verdict}"
    notes = (
        f"decay: {outcomes['decay']}; instability: {outcomes['instability']}; "
        f"exp-instability: {exp_note}",
    )
    verdicts = set(outcomes.values())
    if verdicts == {"pass"}:
        verdict = "pass"
    elif outcomes["exp-instability"] == "no-certificate" and verdicts == {"pass", "no-certificate"}:
        verdict = "no-certificate"
    else:
        verdict = "fail"
    return TheoremRun(
        theorem="corollary_equivalence",
        inputs=(),
        derived=tuple(derived),
        reports=tuple(reports),
        verdict=verdict,
        constants={},
        notes=notes,
    )
