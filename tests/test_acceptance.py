"""Release acceptance suite: one test per numbered criterion.

Each test exercises its criterion end to end at the stated tolerance and
prints a single "criterion N: PASS" line with the measured quantities.
Oracle constants are frozen closed forms, computed independently of the
library code under test.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from cocycle_lab import (
    ExpInstabilityCertificate,
    ExpWitness,
    IntegralInstabilityCertificate,
    NoCertificate,
    ParametricDecay,
    QuadratureConfig,
    SampleGrid,
    TabulatedDecay,
    Trivial,
    adaptive_simpson,
    check_cocycle_laws,
    check_decay,
    check_exp_instability,
    check_instability,
    check_integral_instability,
    check_semiflow_laws,
    decay_to_exponential,
    estimate_decay,
    estimate_exp_instability,
    estimate_instability,
    estimate_integral_instability,
    generator_value,
    integrate_generator,
    integrate_norm_trajectory,
    prop_integral_decay_to_instability,
    prop_shift_necessity,
    prop_shift_sufficiency,
    shift_cocycle,
    thm1_necessity,
    thm2_validate,
)
from cocycle_lab.cli import main
from cocycle_lab.core import log_cocycle_norm
from cocycle_lab.models import (
    broken_cocycle_model,
    broken_semiflow_model,
    default_base_points,
    default_vectors,
)

from conftest import grid_for

# Closed-form oracle constants, frozen here so a regression in the
# library's own math cannot silently move the targets.
EXP3_INTEGRAL_0_2 = (math.e ** 6 - 1.0) / 3.0          # int_0^2 e^{3u} du
K_UNIT_DECAY = 1.0 - 1.0 / math.e                      # int_0^1 e^{-u} du
K_SHIFTED = (1.0 - math.exp(-2.5)) / 2.5               # int_0^1 e^{-2.5u} du
DATKO_RATIO_C_MINUS1_D2 = math.e ** 2 - 1.0            # (1-e^{-2}) e^2

# Derivation formulas recorded by the validators, frozen byte-for-byte.
FROZEN_FORMULAS = {
    "thm1_necessity.integral": "M(t) = max(1, N(t)/nu)",
    "thm1_necessity.instability": "N_is(t) = N(t)",
    "prop_integral_decay_to_instability.K": "K = integral_0^1 f(u) du",
    "prop_integral_decay_to_instability.instability": "N(t) = 1/f(1) + M(t)/K",
    "prop_shift_necessity.alpha": "alpha = nu/2",
    "prop_shift_necessity.integral": "M_alpha(t) = max(1, N(t)/alpha)",
    "prop_shift_sufficiency.K": "K = integral_0^1 exp(-alpha*u) f(u) du",
    "prop_shift_sufficiency.exp_instability": "nu = alpha; N(t) = max(M_alpha(t)/K, 1 + headroom)",
    "thm2_validate.lambda": "lambda = smallest integer grid time > 1 with f(lambda) < 1",
    "thm2_validate.K1": "K1 = integral_0^1 f(u) du",
    "thm2_validate.instability": "N(t) = 1/f(lambda) + Mtilde(t); Mtilde(t) = M(t)/f(t)",
    "thm2_validate.exp_instability_estimate": "nu, N = estimate_exp_instability(xi, grid)",
}

UNIT_M = IntegralInstabilityCertificate(M=ExpWitness(1.0, 0.0))
UNIT_F = ParametricDecay(1.0, 1.0)


def report_line(num: int, detail: str) -> None:
    print(f"criterion {num}: PASS - {detail}")


def closed_form_margin(t: float, s: float) -> float:
    """Log-margin of the (N = e^{4t}, nu = 3) certificate on the
    oscillating scalar model, in closed form."""
    return (2.0 * t * (1.0 - math.sin(math.pi * t / 4.0))
            + 2.0 * s * (1.0 + math.sin(math.pi * s / 4.0)))


def test_criterion_1_known_certificate_on_dense_grid(sin_model, full_times):
    assert default_vectors(1) == ((1.0,), (-1.0,))
    grid = grid_for(sin_model, full_times)
    cert = ExpInstabilityCertificate(N=ExpWitness(1.0, 4.0), nu=3.0)

    start = time.perf_counter()
    report = check_exp_instability(sin_model, cert, grid)
    elapsed = time.perf_counter() - start
    assert report.passed
    assert report.worst_margin >= -1e-9
    # 65 times give C(67, 3) ordered triples, times two vectors
    assert report.samples_checked == 95810
    assert elapsed <= 10.0

    rng = np.random.default_rng(20260825)
    base = Trivial(0.0)
    worst_gap = 0.0
    for _ in range(100):
        t0, s, t = np.sort(rng.uniform(0.0, 16.0, size=3))
        v = np.array([1.0 if rng.random() < 0.5 else -1.0])
        computed = 4.0 * t - (
            3.0 * (t - s)
            + log_cocycle_norm(sin_model, s, t0, base, v)
            - log_cocycle_norm(sin_model, t, t0, base, v)
        )
        worst_gap = max(worst_gap, abs(computed - closed_form_margin(t, s)))
    assert worst_gap <= 1e-10
    report_line(1, f"worst margin {report.worst_margin:g} over "
                   f"{report.samples_checked} samples in {elapsed:.2f}s, "
                   f"closed-form gap {worst_gap:.2e}")


def test_criterion_2_algebraic_laws(sin_model, diag_model, pexp3_model, short_times):
    labels = [x.label() for x in default_base_points(diag_model)]
    assert labels == ["x1^0", "x2^0", "x1^1"]

    worst = math.inf
    for model in (sin_model, diag_model, pexp3_model):
        grid = grid_for(model, short_times)
        for checker in (check_semiflow_laws, check_cocycle_laws):
            report = checker(model, grid, tol=1e-9)
            assert report.passed
            assert report.worst_margin >= -1e-9
            worst = min(worst, report.worst_margin)

    bad_flow = broken_semiflow_model()
    flow_report = check_semiflow_laws(bad_flow, grid_for(bad_flow, short_times))
    assert not flow_report.passed and len(flow_report.counterexamples) >= 1
    bad_coc = broken_cocycle_model()
    coc_report = check_cocycle_laws(bad_coc, grid_for(bad_coc, short_times))
    assert not coc_report.passed and len(coc_report.counterexamples) >= 1
    report_line(2, f"three models pass both law checks (worst residual "
                   f"{-worst:.2e}); both broken fixtures produce counterexamples")


def test_criterion_3_quadrature_oracles(pexp3_model):
    value = integrate_norm_trajectory(pexp3_model, 0.0, Trivial(0.0), [1.0], 2.0)
    assert value == pytest.approx(EXP3_INTEGRAL_0_2, rel=1e-8)

    cfg = QuadratureConfig()
    rng = np.random.default_rng(7)
    worst_rel = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 4))
        sigma = float(rng.uniform(0.0, 4.0))
        length = float(rng.uniform(0.0, 8.0))
        closed = integrate_generator(n, sigma, length)
        quad = adaptive_simpson(lambda u: generator_value(n, sigma, u), 0.0, length, cfg)
        assert math.isclose(quad, closed, rel_tol=1e-10, abs_tol=1e-15)
        if closed != 0.0:
            worst_rel = max(worst_rel, abs(quad - closed) / abs(closed))
    report_line(3, f"trajectory integral matches (e^6-1)/3; 50 random "
                   f"generator integrals agree (worst rel {worst_rel:.2e})")


def test_criterion_4_estimates_on_the_analytic_model(pexp3_model, full_times):
    grid = grid_for(pexp3_model, full_times)

    exp_cert = estimate_exp_instability(pexp3_model, grid)
    assert isinstance(exp_cert, ExpInstabilityCertificate)
    assert exp_cert.nu == 3.0
    n_max = max(exp_cert.N.value(t) for t in full_times)
    assert n_max <= 1.02

    m_cert = estimate_integral_instability(pexp3_model, grid)
    assert all(m_cert.M.value(t) == 1.0 for t in full_times)

    tab = TabulatedDecay.from_values(full_times, [math.exp(-t) for t in full_times])
    par = decay_to_exponential(tab, 1.0)
    assert abs(par.n_tilde - math.e) <= 1e-12
    assert abs(par.omega - 1.0) <= 1e-12
    report_line(4, f"nu = {exp_cert.nu}, max N = {n_max}, M identically 1, "
                   f"tabulated e^-t converts to (e, 1)")


def test_criterion_5_constructive_validators(pexp3_model, full_times):
    grid = grid_for(pexp3_model, full_times)
    exp_cert = estimate_exp_instability(pexp3_model, grid)
    assert isinstance(exp_cert, ExpInstabilityCertificate)

    runs = [
        thm1_necessity(exp_cert, pexp3_model, grid),
        prop_integral_decay_to_instability(UNIT_F, UNIT_M, pexp3_model, grid),
        prop_shift_necessity(exp_cert, pexp3_model, grid),
        prop_shift_sufficiency(1.5, UNIT_M, UNIT_F, pexp3_model, grid),
        thm2_validate(UNIT_F, UNIT_M, pexp3_model, grid),
    ]
    assert all(run.verdict == "pass" for run in runs)

    necessity, _, shift_nec, shift_suf, thm2 = runs
    assert shift_nec.constants["alpha"] == 1.5
    assert shift_suf.constants["K"] == pytest.approx(K_SHIFTED, abs=1e-10)
    assert thm2.constants["lambda"] == 2.0
    assert thm2.constants["K1"] == pytest.approx(K_UNIT_DECAY, abs=1e-10)
    witness = next(d for d in thm2.derived if d.name == "instability").certificate.N
    for t in full_times:
        expected = math.exp(2.0) + math.exp(t)
        assert witness.value(t) == pytest.approx(expected, rel=1e-10)

    for run in runs:
        for item in run.derived:
            assert item.formula == FROZEN_FORMULAS[f"{run.theorem}.{item.name}"]
    report_line(5, "five validators pass; alpha = 1.5, "
                   f"K = {shift_suf.constants['K']:.12f}, lambda = 2, "
                   "N(t) = e^2 + e^t; formulas match the frozen table")


def _collect_margins(checker, model, cert, grid):
    margins = []
    checker(model, cert, grid, margin_sink=lambda *batch: margins.extend(batch[-1].tolist()))
    return margins


def test_criterion_6_round_trip_scale_and_shift(
    sin_model, diag_model, pexp3_model, short_times
):
    pairs = [
        (estimate_decay, check_decay),
        (estimate_instability, check_instability),
        (estimate_exp_instability, check_exp_instability),
        (estimate_integral_instability, check_integral_instability),
    ]
    for model in (sin_model, diag_model, pexp3_model):
        grid = grid_for(model, short_times)
        for estimator, checker in pairs:
            cert = estimator(model, grid)
            assert not isinstance(cert, NoCertificate)
            assert checker(model, cert, grid, tol=0.0).passed

    # margins are homogeneous of degree zero in the sampled vector
    scale_times = [0.0, 0.5, 1.0, 1.75, 2.5, 3.25, 4.0]
    worst_scale = 0.0
    for model in (sin_model, diag_model):
        grid = grid_for(model, scale_times)
        certs = [(est(model, grid), chk) for est, chk in pairs]
        for lam in (1e3, 1e-3):
            scaled_vectors = tuple(
                tuple(lam * c for c in v) for v in default_vectors(model.dimension)
            )
            scaled = SampleGrid.create(
                scale_times, default_base_points(model), scaled_vectors
            )
            for cert, checker in certs:
                for a, b in zip(
                    _collect_margins(checker, model, cert, grid),
                    _collect_margins(checker, model, cert, scaled),
                ):
                    if math.isinf(a) or math.isinf(b):
                        assert a == b
                    else:
                        worst_scale = max(worst_scale, abs(a - b))
    assert worst_scale <= 1e-12

    # shifting the cocycle by gamma equals raising the rate by gamma
    rng = np.random.default_rng(42)
    witness = ExpWitness(2.0, 0.5)
    worst_shift = 0.0
    for _ in range(100):
        model = sin_model if rng.random() < 0.5 else diag_model
        base = default_base_points(model)[0]
        t0, s, t = np.sort(rng.uniform(0.0, 16.0, size=3))
        gamma = float(rng.uniform(-2.0, 2.0))
        nu = float(rng.uniform(0.1, 4.0))
        v = rng.standard_normal(model.dimension)
        shifted = shift_cocycle(model, gamma)
        shifted_margin = witness.log_value(t) - (
            nu * (t - s)
            + log_cocycle_norm(shifted, s, t0, base, v)
            - log_cocycle_norm(shifted, t, t0, base, v)
        )
        plain_margin = witness.log_value(t) - (
            (nu + gamma) * (t - s)
            + log_cocycle_norm(model, s, t0, base, v)
            - log_cocycle_norm(model, t, t0, base, v)
        )
        worst_shift = max(worst_shift, abs(shifted_margin - plain_margin))
    assert worst_shift <= 1e-12
    report_line(6, "12 estimate/check round trips pass at tol 0; scale "
                   f"gap {worst_scale:.2e}; shift gap {worst_shift:.2e}")


def test_criterion_7_contracting_model_negative_controls(tmp_path):
    from cocycle_lab import pure_exponential_model

    model = pure_exponential_model(-1.0)
    times = [0.0, 0.5, 1.0, 1.5, 2.0]
    grid = grid_for(model, times)

    report = check_integral_instability(model, UNIT_M, grid)
    assert not report.passed
    hit = next(c for c in report.counterexamples if c.t == 2.0 and c.t0 == 0.0)
    ratio = math.exp(-hit.margin)
    assert ratio == pytest.approx(DATKO_RATIO_C_MINUS1_D2, rel=1e-9)

    assert isinstance(estimate_exp_instability(model, grid), NoCertificate)

    scenario = tmp_path / "contracting.json"
    scenario.write_text(json.dumps({
        "model": {"kind": "pure_exponential", "rate": -1.0},
        "grid": {"times": times},
    }))
    out = tmp_path / "out"
    code = main(["theorem", "--scenario", str(scenario), "--out-dir", str(out),
                 "--theorem", "corollary"])
    assert code == 1
    doc = json.loads((out / "theorem_corollary.json").read_text())
    assert doc["verdict"] == "no-certificate"
    assert any(
        note.startswith("decay: pass; instability: pass; exp-instability: no-certificate")
        for note in doc["notes"]
    )
    report_line(7, f"unit-M check fails with ratio {ratio:.6f} at (t, t0) = (2, 0); "
                   "rate search yields no certificate; equivalence run exits 1")


def _run_cli(args):
    proc = subprocess.run(
        [sys.executable, "-m", "cocycle_lab.cli", *args],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def _run_default_pipeline(scenario, out):
    props = ["decay", "instability", "exp-instability", "integral-instability"]
    _run_cli(["laws", "--scenario", str(scenario), "--out-dir", str(out)])
    for prop in props:
        _run_cli(["estimate", "--scenario", str(scenario), "--out-dir", str(out),
                  "--property", prop])
        _run_cli(["check", "--scenario", str(scenario), "--out-dir", str(out),
                  "--property", prop, "--cert", str(out / f"cert_{prop}.json")])
    cert_args = [a for prop in props for a in ("--cert", str(out / f"cert_{prop}.json"))]
    _run_cli(["report", "--scenario", str(scenario), "--out-dir", str(out), *cert_args])


MALFORMED_SCENARIOS = [
    "{not valid json",
    "[]",
    "{}",
    '{"model": {"kind": "mystery"}}',
    '{"model": {"kind": "sin_scalar"}, "grid": {"times": [1.0, 1.0]}}',
    '{"model": {"kind": "sin_scalar"}, "grid": {"times": [-1.0, 2.0]}}',
]


def test_criterion_8_determinism_and_exit_codes(tmp_path):
    scenario = tmp_path / "default_sin.json"
    scenario.write_text(json.dumps({"model": {"kind": "sin_scalar"}}))

    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    _run_default_pipeline(scenario, out1)
    _run_default_pipeline(scenario, out2)
    names = sorted(p.name for p in out1.iterdir())
    assert names == sorted(p.name for p in out2.iterdir())
    assert any(n.endswith(".csv") for n in names)
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    # exit code 1: a well-formed run whose check finds counterexamples
    from cocycle_lab import InstabilityCertificate, certificate_to_json_dict

    decaying = tmp_path / "decaying.json"
    decaying.write_text(json.dumps({
        "model": {"kind": "pure_exponential", "rate": -5.0},
        "grid": {"times": [0.0, 4.0, 8.0]},
    }))
    flat = tmp_path / "flat_cert.json"
    flat.write_text(json.dumps(
        certificate_to_json_dict(InstabilityCertificate(N=ExpWitness(2.0, 0.0)))
    ))
    code = main(["check", "--scenario", str(decaying), "--out-dir",
                 str(tmp_path / "chk"), "--property", "instability",
                 "--cert", str(flat)])
    assert code == 1

    # exit code 2: malformed scenarios of several shapes
    for k, text in enumerate(MALFORMED_SCENARIOS):
        bad = tmp_path / f"bad_{k}.json"
        bad.write_text(text)
        assert main(["laws", "--scenario", str(bad),
                     "--out-dir", str(tmp_path / "bad_out")]) == 2
    report_line(8, f"{len(names)} output files byte-identical across two "
                   f"pipeline runs; exit codes 0/1/2 observed "
                   f"({len(MALFORMED_SCENARIOS)} malformed fixtures)")
