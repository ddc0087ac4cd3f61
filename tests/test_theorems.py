"""Constructive validators: derivations, gates, verdicts, serialization."""

import ast
import dataclasses
import inspect
import itertools
import json
import math
import re
import textwrap

import numpy as np
import pytest

from cocycle_lab import (
    CheckReport,
    Counterexample,
    ExpInstabilityCertificate,
    ExpWitness,
    FORMULAS,
    InstabilityCertificate,
    IntegralInstabilityCertificate,
    ParametricDecay,
    PreconditionError,
    TabulatedDecay,
    TheoremRun,
    corollary_equivalence,
    diag_integral_model,
    estimate_decay,
    estimate_exp_instability,
    estimate_integral_instability,
    prop_integral_decay_to_instability,
    prop_shift_necessity,
    prop_shift_sufficiency,
    pure_exponential_model,
    remark_obs2,
    shift_cocycle,
    sin_scalar_model,
    thm1_necessity,
    thm1_sufficiency,
    thm2_validate,
)
from cocycle_lab.certificates import check_exp_instability
from cocycle_lab.core import log_cocycle_norm
from cocycle_lab.theorems import (
    _check_integral_chain,
    _check_linear_growth,
    _check_window_bound,
    _finish,
)

from conftest import grid_for, plain_norm, row_sink

UNIT_F = ParametricDecay(1.0, 1.0)  # f(t) = e^{-t}
UNIT_M = IntegralInstabilityCertificate(M=ExpWitness(1.0, 0.0))
UNIT_N = InstabilityCertificate(N=ExpWitness(1.01, 0.0))

# thm2 needs an integer grid time above 1 where f dips below 1
THM2_TIMES = [0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0]


@pytest.fixture(scope="module")
def pexp3():
    return pure_exponential_model(3.0)


@pytest.fixture(scope="module")
def exp_cert(pexp3, short_times_module):
    cert = estimate_exp_instability(pexp3, grid_for(pexp3, short_times_module))
    assert isinstance(cert, ExpInstabilityCertificate)
    return cert


@pytest.fixture(scope="module")
def short_times_module():
    return [0.0, 0.5, 1.0, 1.75, 2.5, 3.25, 4.0, 5.0, 6.25, 8.0]


# ---------------------------------------------------------------------------
# Pass path on the calibration model
# ---------------------------------------------------------------------------


def test_every_validator_passes_on_calibration_model(pexp3, exp_cert, short_times_module):
    g = grid_for(pexp3, short_times_module)
    g2 = grid_for(pexp3, THM2_TIMES)
    runs = [
        remark_obs2(exp_cert, pexp3, g),
        prop_integral_decay_to_instability(UNIT_F, UNIT_M, pexp3, g),
        prop_shift_necessity(exp_cert, pexp3, g),
        prop_shift_sufficiency(1.5, UNIT_M, UNIT_F, pexp3, g),
        thm1_necessity(exp_cert, pexp3, g),
        thm1_sufficiency(UNIT_N, UNIT_M, pexp3, g),
        thm2_validate(UNIT_F, UNIT_M, pexp3, g2),
        corollary_equivalence(pexp3, g),
    ]
    for run in runs:
        assert run.verdict == "pass", f"{run.theorem}: {run.notes}"
        assert run.passed
        assert all(r.passed for r in run.reports)
    assert tuple(r.theorem for r in runs) == (
        "remark_obs2", "prop_integral_decay_to_instability", "prop_shift_necessity",
        "prop_shift_sufficiency", "thm1_necessity", "thm1_sufficiency", "thm2_validate",
        "corollary_equivalence",
    )
    # every frozen formula is reached, and only frozen formulas are
    assert {f"{run.theorem}.{d.name}" for run in runs for d in run.derived} == set(FORMULAS)


def test_formula_table_is_pinned():
    assert FORMULAS["remark_obs2.instability"] == "N_is(t) = N(t)"
    assert FORMULAS["prop_integral_decay_to_instability.K"] == "K = integral_0^1 f(u) du"
    assert FORMULAS["prop_shift_necessity.alpha"] == "alpha = nu/2"
    assert FORMULAS["prop_shift_sufficiency.K"] == "K = integral_0^1 exp(-alpha*u) f(u) du"
    assert FORMULAS["thm1_necessity.integral"] == "M(t) = max(1, N(t)/nu)"
    assert FORMULAS["thm1_sufficiency.linear_growth"] == "Mtilde(t) = M(t)/f_hat(t)"
    assert (FORMULAS["thm2_validate.lambda"]
            == "lambda = smallest integer grid time > 1 with f(lambda) < 1")
    assert (FORMULAS["thm2_validate.instability"]
            == "N(t) = 1/f(lambda) + Mtilde(t); Mtilde(t) = M(t)/f(t)")
    assert all(isinstance(v, str) and v for v in FORMULAS.values())


# ---------------------------------------------------------------------------
# Derived objects and constants
# ---------------------------------------------------------------------------


def test_prop_integral_constants(pexp3, short_times_module):
    run = prop_integral_decay_to_instability(
        UNIT_F, UNIT_M, pexp3, grid_for(pexp3, short_times_module))
    assert run.constants["K"] == pytest.approx(1.0 - 1.0 / math.e, rel=1e-10)
    names = [d.name for d in run.derived]
    assert names == ["K", "instability"]
    witness = run.derived[1].certificate.N
    expected = math.e + 1.0 / (1.0 - 1.0 / math.e)
    assert witness.value(0.0) == pytest.approx(expected, rel=1e-10)


def test_shift_pair_constants(pexp3, exp_cert, short_times_module):
    g = grid_for(pexp3, short_times_module)
    nec = prop_shift_necessity(exp_cert, pexp3, g)
    assert nec.constants["alpha"] == 1.5
    m_witness = nec.derived[1].certificate.M
    assert all(m_witness.value(t) == 1.0 for t in short_times_module)
    assert any("clamped M to 1" in note for note in nec.notes)

    suf = prop_shift_sufficiency(1.5, UNIT_M, UNIT_F, pexp3, g)
    assert suf.constants["alpha"] == 1.5
    assert suf.constants["K"] == pytest.approx((1.0 - math.exp(-2.5)) / 2.5, rel=1e-10)
    assert len(suf.aux_reports) == 1
    assert suf.derived[1].certificate.nu == 1.5


def test_thm2_constants_and_derived_witness(pexp3):
    g = grid_for(pexp3, THM2_TIMES)
    run = thm2_validate(UNIT_F, UNIT_M, pexp3, g)
    assert run.constants["lambda"] == 2.0
    assert run.constants["f_lambda"] == pytest.approx(math.exp(-2.0), rel=1e-12)
    assert run.constants["K1"] == pytest.approx(1.0 - 1.0 / math.e, rel=1e-10)
    witness = run.derived[2].certificate.N
    for t in THM2_TIMES:
        assert witness.value(t) == pytest.approx(
            math.exp(2.0) + math.exp(t), rel=1e-10)
    assert len(run.reports) == 6


def test_vanishing_kernel_is_a_precondition_error(pexp3):
    # f(0) = 1 passes the decay gate, but f is 0 on all of (0, 1], so K = K1 = 0
    f = TabulatedDecay.from_log_values([0.0, 0.5, 1.0], [0.0, -math.inf, -math.inf])
    g = grid_for(pexp3, THM2_TIMES)
    for run in (prop_integral_decay_to_instability, thm2_validate):
        with pytest.raises(PreconditionError, match="kernel integral vanishes"):
            run(f, UNIT_M, pexp3, g)


def test_thm2_integral_chain_samples_only_unit_windows():
    # K1 ||v|| <= M(t) ||Phi(t, t0) v|| follows from the chain only for
    # t >= t0 + 1; sampling shorter windows reported false counterexamples
    xi = diag_integral_model([1.0, -1.0])
    g = grid_for(xi, [0.25 * k for k in range(9)])
    run = thm2_validate(estimate_decay(xi, g), estimate_integral_instability(xi, g), xi, g)
    chain = next(r for r in run.reports if r.check == "integral-chain")
    assert chain.passed
    assert chain.samples_checked == 15 * len(g.base_points) * len(g.vectors)
    assert run.verdict == "pass"


def test_shift_sufficiency_samples_only_unit_windows(full_times):
    # the chain K ||v|| <= integral over [t0, t0 + 1] <= M_alpha(t) ||Phi_alpha(t, t0) v||
    # needs t >= t0 + 1; sampling t = 0.75, t0 = 0 here reported false counterexamples
    xi = diag_integral_model([1.0, -1.0])
    g = grid_for(xi, full_times)
    m_alpha = estimate_integral_instability(shift_cocycle(xi, 0.1), g)
    run = prop_shift_sufficiency(0.1, m_alpha, estimate_decay(xi, g), xi, g)
    diagonal = next(r for r in run.reports if r.check == "exp-instability-diagonal")
    unit_pairs = sum(1 for k, i in itertools.combinations_with_replacement(full_times, 2) if i >= k + 1.0)
    assert diagonal.samples_checked == unit_pairs * len(g.base_points) * len(g.vectors)
    assert diagonal.passed
    assert run.verdict == "pass"


def test_thm1_sufficiency_reports_and_notes(pexp3, short_times_module):
    run = thm1_sufficiency(UNIT_N, UNIT_M, pexp3, grid_for(pexp3, short_times_module))
    assert run.passed
    assert "skipped_samples: 0" in run.notes
    assert [d.name for d in run.derived][:2] == ["decay", "linear_growth"]
    assert len(run.aux_reports) >= 1


# ---------------------------------------------------------------------------
# Gates and degenerate outcomes
# ---------------------------------------------------------------------------


def test_thm2_rejects_unmeasurable_model(pexp3):
    blocked = dataclasses.replace(pexp3, strongly_measurable=False)
    run = thm2_validate(UNIT_F, UNIT_M, blocked, grid_for(blocked, THM2_TIMES))
    assert run.verdict == "input-invalid"
    assert not run.passed
    assert "strongly measurable" in run.notes[0]
    assert run.derived == ()


def test_thm2_rejects_flat_decay_table(pexp3):
    flat = TabulatedDecay.from_values([0.0], [0.9])
    run = thm2_validate(flat, UNIT_M, pexp3, grid_for(pexp3, THM2_TIMES))
    assert run.verdict == "input-invalid"
    assert "limit" in run.notes[0]


def test_thm2_rejects_failing_input_certificate():
    xi = pure_exponential_model(-5.0)
    run = thm2_validate(UNIT_F, UNIT_M, xi, grid_for(xi, THM2_TIMES))
    assert run.verdict == "input-invalid"
    assert "fails its own check" in run.notes[0]
    assert any(not r.passed for r in run.reports)


# Each validator on an input certificate that fails its own check: nu = 4
# outruns the growth of e^t, and UNIT_N and UNIT_M fail on the contracting e^{-5t}.
TOO_FAST = ExpInstabilityCertificate(N=ExpWitness(1.01, 0.0), nu=4.0)
GATE_FAILURES = {
    "remark_obs2": (1.0, lambda xi, g: remark_obs2(TOO_FAST, xi, g)),
    "prop_shift_necessity": (1.0, lambda xi, g: prop_shift_necessity(TOO_FAST, xi, g)),
    "thm1_necessity": (1.0, lambda xi, g: thm1_necessity(TOO_FAST, xi, g)),
    "thm1_sufficiency": (-5.0, lambda xi, g: thm1_sufficiency(UNIT_N, UNIT_M, xi, g)),
    "prop_integral_decay": (-5.0, lambda xi, g: prop_integral_decay_to_instability(UNIT_F, UNIT_M, xi, g)),
}


@pytest.mark.parametrize("name", sorted(GATE_FAILURES))
def test_validators_refuse_a_failing_input_certificate(name):
    rate, validate = GATE_FAILURES[name]
    xi = pure_exponential_model(rate)
    run = validate(xi, grid_for(xi, THM2_TIMES))
    assert run.verdict == "input-invalid"
    assert not run.passed
    assert run.derived == ()
    assert run.notes[0].endswith("input certificate fails its own check on this grid")
    assert any(not r.passed for r in run.reports)


def test_thm2_no_eligible_pivot_time(pexp3, full_times):
    # f never drops below 1 at any integer grid time inside the window
    f = TabulatedDecay.from_values([0.0, 16.5, 17.0], [1.0, 1.0, 0.5])
    run = thm2_validate(f, UNIT_M, pexp3, grid_for(pexp3, full_times))
    assert run.verdict == "no-certificate"
    assert not run.passed
    assert "no integer grid time" in run.notes[0]
    assert len(run.reports) == 2  # the input gates still ran and passed
    assert all(r.passed for r in run.reports)


def test_thm2_grid_without_unit_window():
    xi = diag_integral_model([1.0, -1.0])
    g = grid_for(xi, [1.5, 2.0])
    run = thm2_validate(estimate_decay(xi, g), estimate_integral_instability(xi, g), xi, g)
    assert run.verdict == "no-certificate"
    assert "unit window" in run.notes[0]


def test_shift_sufficiency_grid_without_unit_window():
    xi = diag_integral_model([1.0, -1.0])
    g = grid_for(xi, [1.5, 2.0])
    m_alpha = estimate_integral_instability(shift_cocycle(xi, 0.5), g)
    run = prop_shift_sufficiency(0.5, m_alpha, estimate_decay(xi, g), xi, g)
    assert run.verdict == "no-certificate"
    assert run.notes == ("no grid pair spans the unit window t >= t0 + 1 of the integral chain",)
    assert len(run.reports) == 2 and all(r.passed for r in run.reports)  # the input gates still ran and passed
    assert run.derived == ()


def test_validators_reject_wrong_input_types(pexp3, short_times_module):
    g = grid_for(pexp3, short_times_module)
    with pytest.raises(PreconditionError, match="^cert must be an ExpInstabilityCertificate, got InstabilityCertificate$"):
        remark_obs2(UNIT_N, pexp3, g)
    with pytest.raises(PreconditionError, match="^f must be a decay certificate, got InstabilityCertificate$"):
        prop_integral_decay_to_instability(UNIT_N, UNIT_M, pexp3, g)
    with pytest.raises(PreconditionError, match="^N must be an InstabilityCertificate, got IntegralInstabilityCertificate$"):
        thm1_sufficiency(UNIT_M, UNIT_M, pexp3, g)
    with pytest.raises(PreconditionError):
        prop_shift_sufficiency(0.0, UNIT_M, UNIT_F, pexp3, g)


# ---------------------------------------------------------------------------
# corollary_equivalence verdict mapping
# ---------------------------------------------------------------------------


def test_corollary_contracting_model_reports_disagreement(short_times_module):
    xi = pure_exponential_model(-1.0)
    run = corollary_equivalence(xi, grid_for(xi, short_times_module))
    assert run.verdict == "no-certificate"
    assert not run.passed
    note = run.notes[0]
    assert note.startswith("decay: pass; instability: pass; exp-instability: no-certificate")
    fitted = run.derived[3].certificate
    assert type(fitted).__name__ == "NoCertificate"


def test_corollary_fit_formulas_name_every_estimator_input():
    """Each corollary fit formula ``... = estimate_*(args)`` names exactly the
    arguments that corollary_equivalence passes to that estimator."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(corollary_equivalence)))
    passed = {
        node.func.id: {a.id for a in node.args} | {kw.value.id for kw in node.keywords}
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id.startswith("estimate_")
    }
    formulas = {key: text for key, text in FORMULAS.items() if key.startswith("corollary_equivalence.")}
    assert len(formulas) == len(passed) == 4
    for key, text in formulas.items():
        estimator, args = re.fullmatch(r".* = (estimate_\w+)\((.*)\)", text).groups()
        assert set(args.split(", ")) == passed[estimator], key


def test_corollary_gate_failure(pexp3, short_times_module):
    blocked = dataclasses.replace(pexp3, strongly_measurable=False)
    with pytest.raises(PreconditionError, match="strongly measurable"):
        corollary_equivalence(blocked, grid_for(blocked, short_times_module))


# ---------------------------------------------------------------------------
# Verdict mechanics and serialization
# ---------------------------------------------------------------------------


def _fake_report(passed: bool) -> CheckReport:
    from cocycle_lab import Counterexample

    bad = () if passed else (Counterexample(1.0, 0.0, 0.0, "x", "[1]", -1.0),)
    return CheckReport(check="fake", tol=0.0, samples_checked=1,
                       worst_margin=0.0 if passed else -1.0, counterexamples=bad)


def test_verdict_ignores_aux_reports():
    ok = _finish("remark_obs2", (), (), (_fake_report(True),),
                 aux_reports=(_fake_report(False),))
    assert ok.verdict == "pass"
    bad = _finish("remark_obs2", (), (), (_fake_report(True), _fake_report(False)),
                  aux_reports=(_fake_report(True),))
    assert bad.verdict == "fail"


def test_theorem_run_json_shape(pexp3, exp_cert, short_times_module):
    run = thm1_necessity(exp_cert, pexp3, grid_for(pexp3, short_times_module))
    doc = run.to_json_dict()
    assert set(doc) == {
        "theorem", "inputs", "derived", "reports", "aux_reports",
        "verdict", "constants", "notes",
    }
    assert doc["theorem"] == "thm1_necessity"
    assert doc["inputs"][0]["name"] == "exp_instability"
    assert doc["inputs"][0]["certificate"]["kind"] == "exp_instability"
    for item in doc["derived"]:
        assert set(item) == {"name", "formula", "certificate", "value"}
    payloads = [item["certificate"] for item in doc["derived"] if item["certificate"]]
    assert all("form" in p or "kind" in p for p in payloads)
    json.dumps(doc)


def test_theorem_run_passed_property():
    run = TheoremRun(theorem="remark_obs2", inputs=(), derived=(), reports=(),
                     verdict="no-certificate")
    assert not run.passed


# ---------------------------------------------------------------------------
# The validators' own samplers against the scalar reference path
# ---------------------------------------------------------------------------

SAMPLER_GRIDS = {
    "diag_integral": (lambda: diag_integral_model([1.0, -1.0]), [0.0, 0.5, 1.0, 1.75, 2.5, 3.0]),
    "sin_scalar": (sin_scalar_model, [0.25 * k for k in range(13)]),
}


def _reference_worst(xi, grid, keep, margin):
    """(count, min) of margin(L, log ||v||, k, j, i) over the grid triples that keep(k, j, i) selects.

    L(a, b) is the scalar log_cocycle_norm of Phi(t_a, t_b, x) v."""
    times = grid.times
    n, count, worst = len(times), 0, math.inf
    for x in grid.base_points:
        for v in grid.vectors:
            log_v = math.log(plain_norm(v, xi.norm_choice))

            def L(a, b):
                return log_cocycle_norm(xi, times[a], times[b], x, v)

            for k, j, i in itertools.product(range(n), repeat=3):
                if k <= j <= i and keep(k, j, i):
                    count += 1
                    worst = min(worst, margin(L, log_v, k, j, i))
    return count, worst


def _shift_sufficiency_run(xi, grid, alpha=0.5):
    m_alpha = estimate_integral_instability(shift_cocycle(xi, alpha), grid)
    run = prop_shift_sufficiency(alpha, m_alpha, estimate_decay(xi, grid), xi, grid)
    assert run.verdict != "input-invalid"
    diagonal = next(r for r in run.reports if r.check == "exp-instability-diagonal")
    return diagonal, run.derived[1].certificate


@pytest.mark.parametrize("model", sorted(SAMPLER_GRIDS))
def test_theorem_samplers_match_scalar_reference(model):
    make, times = SAMPLER_GRIDS[model]
    xi = make()
    g = grid_for(xi, times)
    log_f_lam, log_k1 = -0.75, math.log(0.6)
    m_cert = IntegralInstabilityCertificate(M=ExpWitness(1.5, 0.25))
    log_m = [m_cert.M.log_value(t) for t in times]
    mtilde = np.array([0.5 + 0.1 * t for t in times])
    diagonal, exp_cert = _shift_sufficiency_run(xi, g)
    log_n = [exp_cert.N.log_value(t) for t in times]
    cases = [
        (_check_window_bound(xi, log_f_lam, g, 0.0),
         lambda k, j, i: times[i] < times[j] + 1.0,
         lambda L, log_v, k, j, i: (L(i, k) - L(j, k)) - log_f_lam),
        (_check_linear_growth(xi, mtilde, g, 0.0),
         lambda k, j, i: j == k,
         lambda L, log_v, k, j, i: math.inf if i == k else (
             mtilde[i] + (L(i, k) - log_v) - math.log(times[i] - times[k]))),
        (_check_integral_chain(xi, m_cert, log_k1, g, 0.0),
         lambda k, j, i: j == k and times[i] >= times[k] + 1.0,
         lambda L, log_v, k, j, i: log_m[i] + (L(i, k) - log_v) - log_k1),
        (diagonal,
         lambda k, j, i: j == k and times[i] >= times[k] + 1.0,
         lambda L, log_v, k, j, i: log_n[i] - (exp_cert.nu * (times[i] - times[k]) + (L(k, k) - L(i, k)))),
    ]
    for report, keep, margin in cases:
        count, worst = _reference_worst(xi, g, keep, margin)
        assert report.samples_checked == count, report.check
        assert report.worst_margin == pytest.approx(worst, rel=1e-12, abs=1e-12), report.check


@pytest.mark.parametrize("model", sorted(SAMPLER_GRIDS))
def test_diagonal_report_is_the_s_equals_t0_rows_of_the_exp_check(model):
    make, times = SAMPLER_GRIDS[model]
    xi = make()
    g = grid_for(xi, times)
    diagonal, exp_cert = _shift_sufficiency_run(xi, g)
    rows = []
    check_exp_instability(xi, exp_cert, g, diagonal.tol, row_sink(rows))
    rows = [r for r in rows if r[1] == r[2] and r[0] >= r[2] + 1.0]
    assert diagonal.samples_checked == len(rows)
    assert diagonal.worst_margin == min(r[5] for r in rows)
    failing = [Counterexample(*r) for r in rows if r[5] < -diagonal.tol or math.isnan(r[5])]
    assert diagonal.counterexamples == tuple(sorted(failing, key=Counterexample.sort_key))


def test_derived_decay_table_serializes_as_certificate(pexp3, exp_cert, short_times_module):
    run = remark_obs2(exp_cert, pexp3, grid_for(pexp3, short_times_module))
    payload = next(d for d in run.to_json_dict()["derived"] if d["name"] == "decay")["certificate"]
    assert payload["kind"] == "decay" and payload["form"] == "tabulated"
    assert "grid_hash" in payload
