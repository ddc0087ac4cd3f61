"""Command line front end: scenarios, subcommands, exit codes, artifacts."""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cocycle_lab import DomainError, PreconditionError
from cocycle_lab.cli import ScenarioError, main, parse_scenario

SMALL_TIMES = [0.0, 0.5, 1.0, 1.5, 2.0]
# long enough that the oscillating model realizes growth above the
# smallest rate candidate, so exp-instability estimates succeed
LONG_TIMES = [0.5 * k for k in range(13)]


def write_scenario(path, model, *, times=SMALL_TIMES, out_dir=None, **extra):
    doc = {"model": model, "grid": {"times": times}, **extra}
    if out_dir is not None:
        doc["out_dir"] = str(out_dir)
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture
def sin_scenario(tmp_path):
    return write_scenario(tmp_path / "sin.json", {"kind": "sin_scalar"}, times=LONG_TIMES)


@pytest.fixture
def pexp3_scenario(tmp_path):
    return write_scenario(tmp_path / "pexp3.json", {"kind": "pure_exponential", "rate": 3.0})


@pytest.fixture
def contracting_scenario(tmp_path):
    return write_scenario(tmp_path / "down.json", {"kind": "pure_exponential", "rate": -1.0})


def read_json(path):
    return json.loads(path.read_text())


# ---------------------------------------------------------------------------
# Scenario parsing
# ---------------------------------------------------------------------------


def test_scenario_round_trip_is_identity():
    doc = {
        "model": {"kind": "diag_integral", "alphas": [1.0, -1.0]},
        "grid": {"times": [0.0, 1.0, 2.0]},
        "seed": 7,
        "random_vectors": 2,
        "gamma": 0.5,
        "alpha": 2.0,
        "out_dir": "somewhere",
    }
    sc1, _ = parse_scenario(doc)
    normalized = sc1.to_json_dict()
    sc2, _ = parse_scenario(normalized)
    assert sc2.to_json_dict() == normalized
    assert sc2.grid.grid_hash == sc1.grid.grid_hash
    # the two seeded extra vectors were materialized into the grid
    assert len(sc1.grid.vectors) == 6


def test_scenario_defaults():
    sc, xi = parse_scenario({"model": {"kind": "sin_scalar"}})
    assert len(sc.grid.times) == 65
    assert sc.grid.times[1] == 0.25
    assert sc.margin_tol == 1e-9
    assert sc.headroom == 0.01
    assert sc.growth_cap == 8.0
    assert sc.alpha == 1.5
    assert sc.gamma == 0.0
    assert sc.nu_candidates is None
    assert xi.descriptor["kind"] == "sin_scalar"


def test_scenario_gamma_shifts_model():
    sc, xi = parse_scenario({"model": {"kind": "sin_scalar"}, "gamma": 1.0})
    assert xi.descriptor["kind"] == "shifted"
    assert xi.descriptor["gamma"] == 1.0


def test_scenario_grid_spec_object():
    sc, _ = parse_scenario(
        {"model": {"kind": "sin_scalar"}, "grid": {"times": {"min": 0, "max": 4, "count": 9}}})
    assert sc.grid.times == tuple(0.5 * k for k in range(9))


@pytest.mark.parametrize("doc", [
    {"model": {"kind": "sin_scalar"}, "mystery": 1},
    {"model": {"kind": "unheard_of"}},
    {"model": {"kind": "sin_scalar"}, "tolerances": {"margin_tol": -1.0}},
    {"model": {"kind": "sin_scalar"}, "grid": {"times": [1.0, 0.5]}},
    {"model": {"kind": "sin_scalar"}, "grid": {"times": [0.0], "base_points": [{"kind": "odd"}]}},
    {"model": {"kind": "sin_scalar"}, "random_vectors": 2},
    {"model": {"kind": "sin_scalar"}, "seed": "zero"},
    {"model": {"kind": "sin_scalar"}, "tolerances": []},
    {"model": {"kind": "sin_scalar"}, "alpha": -2.0},
    {"model": {"kind": "pure_exponential", "rate": 3.0}, "nu_candidates": []},
    {"model": {"kind": "sin_scalar"}, "nu_candidates": {"1": 2}},
    {"model": {"kind": "diag_integral", "alphas": [1.0]},
     "grid": {"base_points": [{"kind": "generator", "n": 1.9}]}},
    {"model": {"kind": "diag_integral", "alphas": [1.0]},
     "grid": {"base_points": [{"kind": "generator", "n": True}]}},
    {"model": {"kind": "sin_scalar"}, "tolerances": {"headroom": -0.5}},
    {"model": {"kind": "sin_scalar"}, "tolerances": {"growth_cap": -1.0}},
    {"model": {"kind": "sin_scalar"}, "tolerances": {"margin_tol": "1e-9"}},
    {"model": {"kind": "sin_scalar"}, "grid": []},
    {"model": {"kind": "sin_scalar"}, "tolerances": {"quad": []}},
    # numbers must be JSON numbers, never strings or bools
    {"model": {"kind": "sin_scalar"}, "gamma": "0.5"},
    {"model": {"kind": "sin_scalar"}, "gamma": True},
    {"model": {"kind": "sin_scalar"}, "grid": {"times": ["0", "0.5", "1"]}},
    {"model": {"kind": "sin_scalar"}, "grid": {"times": [0.0, True]}},
    {"model": {"kind": "sin_scalar"}, "grid": {"times": {"min": "0", "max": 4, "count": 9}}},
    {"model": {"kind": "sin_scalar"}, "grid": {"times": {"min": 0, "max": True, "count": 9}}},
    {"model": {"kind": "sin_scalar"},
     "grid": {"times": [0.0], "base_points": [{"kind": "trivial", "value": "0"}]}},
    {"model": {"kind": "diag_integral", "alphas": [1.0]},
     "grid": {"base_points": [{"kind": "generator", "n": 1, "sigma": "1"}]}},
    {"model": {"kind": "sin_scalar"}, "grid": {"vectors": [["1"]]}},
    {"model": {"kind": "sin_scalar"}, "grid": {"vectors": [[True]]}},
    {"model": {"kind": "sin_scalar"}, "tolerances": {"quad": {"rel_tol": "1e-10"}}},
    {"model": {"kind": "sin_scalar"}, "tolerances": {"quad": {"abs_tol": True}}},
    {"model": {"kind": "sin_scalar"}, "tolerances": {"quad": {"max_depth": 1.9}}},
    {"model": {"kind": "sin_scalar"}, "tolerances": {"quad": {"max_depth": True}}},
    {"model": {"kind": "pure_exponential", "rate": "3"}},
    {"model": {"kind": "pure_exponential", "rate": True}},
    {"model": {"kind": "diag_integral", "alphas": ["1"]}},
    {"model": {"kind": "diag_integral", "alphas": [1.0, False]}},
    {"model": {"kind": "diag_integral", "alphas": "1"}},
])
def test_scenario_rejects_malformed_documents(doc):
    with pytest.raises((ScenarioError, PreconditionError, DomainError)):
        parse_scenario(doc)


# ---------------------------------------------------------------------------
# Exit codes for malformed inputs
# ---------------------------------------------------------------------------


def test_malformed_scenarios_exit_2(tmp_path):
    fixtures = {
        "not_json.json": "{ definitely not json",
        "extra_key.json": json.dumps({"model": {"kind": "sin_scalar"}, "shape": "round"}),
        "no_kind.json": json.dumps({"model": {"rate": 1.0}}),
        "bad_tol.json": json.dumps(
            {"model": {"kind": "sin_scalar"}, "tolerances": {"margin_tol": 0.0}}),
        "bad_times.json": json.dumps(
            {"model": {"kind": "sin_scalar"}, "grid": {"times": [0.0, 0.0]}}),
        # an integer literal too large for a float
        "huge_rate.json": json.dumps({"model": {"kind": "pure_exponential", "rate": 10**400}}),
    }
    for name, text in fixtures.items():
        p = tmp_path / name
        p.write_text(text)
        code = main(["laws", "--scenario", str(p), "--out-dir", str(tmp_path / "out")])
        assert code == 2, name


def test_overflowing_integral_exits_2_quickly(tmp_path):
    # e^{50 t} overflows past t = 14.2, and the Datko quadrature over
    # [12, 16] must fail at once instead of refining every half to max_depth
    p = write_scenario(tmp_path / "p50.json", {"kind": "pure_exponential", "rate": 50},
                       times={"min": 0, "max": 16, "count": 5})
    proc = subprocess.run(
        [sys.executable, "-m", "cocycle_lab.cli", "estimate", "--property", "integral-instability",
         "--scenario", str(p), "--out-dir", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "cocycle-lab: error: integrand is not finite on [12.0, 16.0]" in proc.stderr
    assert "RuntimeWarning" not in proc.stderr


def test_quadrature_depth_exhaustion_exits_2(tmp_path, capsys):
    p = write_scenario(tmp_path / "shallow.json", {"kind": "sin_scalar"}, times=LONG_TIMES,
                       tolerances={"quad": {"max_depth": 1}})
    code = main(["estimate", "--property", "integral-instability",
                 "--scenario", str(p), "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert "cocycle-lab: error: adaptive refinement hit max_depth=1" in capsys.readouterr().err


def test_missing_scenario_file_exits_2(tmp_path):
    assert main(["laws", "--scenario", str(tmp_path / "nope.json"),
                 "--out-dir", str(tmp_path)]) == 2


# ---------------------------------------------------------------------------
# laws
# ---------------------------------------------------------------------------


def test_laws_pass_and_report(tmp_path, pexp3_scenario):
    out = tmp_path / "out"
    assert main(["laws", "--scenario", str(pexp3_scenario), "--out-dir", str(out)]) == 0
    doc = read_json(out / "laws_report.json")
    assert doc["semiflow"]["verdict"] == "pass"
    assert doc["cocycle"]["verdict"] == "pass"
    assert doc["model"] == {"kind": "pure_exponential", "rate": 3.0}
    assert doc["grid_hash"]
    assert doc["tool_version"]


def test_laws_pass_where_linear_cocycle_values_overflow(tmp_path):
    # e^{50 * 16} is past the float range; the laws never leave log space
    p = write_scenario(tmp_path / "p50.json", {"kind": "pure_exponential", "rate": 50},
                       times={"min": 0, "max": 16, "count": 5})
    out = tmp_path / "out"
    assert main(["laws", "--scenario", str(p), "--out-dir", str(out)]) == 0
    doc = read_json(out / "laws_report.json")
    assert doc["semiflow"]["verdict"] == "pass"
    assert doc["cocycle"]["verdict"] == "pass"


def test_laws_reject_vector_of_wrong_dimension(tmp_path, capsys):
    p = write_scenario(tmp_path / "diag.json", {"kind": "diag_integral", "alphas": [1, -1]},
                       grid={"times": SMALL_TIMES, "vectors": [[1.0]]})
    assert main(["laws", "--scenario", str(p), "--out-dir", str(tmp_path / "out")]) == 2
    assert "model dimension is 2" in capsys.readouterr().err


def test_laws_fail_on_broken_model(tmp_path):
    p = write_scenario(tmp_path / "broken.json", {"kind": "broken_cocycle"})
    out = tmp_path / "out"
    assert main(["laws", "--scenario", str(p), "--out-dir", str(out)]) == 1
    doc = read_json(out / "laws_report.json")
    assert doc["cocycle"]["verdict"] == "fail"
    assert doc["semiflow"]["verdict"] == "pass"


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("prop,kind", [
    ("decay", "decay"),
    ("instability", "instability"),
    ("exp-instability", "exp_instability"),
    ("integral-instability", "integral_instability"),
])
def test_estimate_writes_certificate(tmp_path, sin_scenario, prop, kind):
    out = tmp_path / "out"
    code = main(["estimate", "--scenario", str(sin_scenario),
                 "--out-dir", str(out), "--property", prop])
    assert code == 0
    doc = read_json(out / f"cert_{prop}.json")
    assert doc["kind"] == kind
    assert doc["grid_hash"]


def test_estimate_no_certificate_exits_1(tmp_path, contracting_scenario):
    out = tmp_path / "out"
    code = main(["estimate", "--scenario", str(contracting_scenario),
                 "--out-dir", str(out), "--property", "exp-instability"])
    assert code == 1
    doc = read_json(out / "cert_exp-instability.json")
    assert doc["kind"] == "no_certificate"
    assert doc["property"] == "exp-instability"
    assert "details" in doc


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def estimate_into(scenario, out, prop):
    assert main(["estimate", "--scenario", str(scenario),
                 "--out-dir", str(out), "--property", prop]) == 0
    return out / f"cert_{prop}.json"


def test_check_round_trip(tmp_path, sin_scenario):
    out = tmp_path / "out"
    cert = estimate_into(sin_scenario, out, "decay")
    code = main(["check", "--scenario", str(sin_scenario), "--out-dir", str(out),
                 "--property", "decay", "--cert", str(cert)])
    assert code == 0
    doc = read_json(out / "check_decay.json")
    assert doc["report"]["verdict"] == "pass"
    assert doc["certificate_grid_hash"] == doc["scenario_grid_hash"]


def test_check_on_different_grid_records_both_hashes(tmp_path, sin_scenario):
    out = tmp_path / "out"
    cert = estimate_into(sin_scenario, out, "decay")
    other = write_scenario(tmp_path / "other.json", {"kind": "sin_scalar"},
                           times=[0.0, 0.25, 0.75, 1.25])
    code = main(["check", "--scenario", str(other), "--out-dir", str(out),
                 "--property", "decay", "--cert", str(cert)])
    assert code == 0
    doc = read_json(out / "check_decay.json")
    assert doc["certificate_grid_hash"] != doc["scenario_grid_hash"]


def test_check_kind_mismatch_exits_2(tmp_path, sin_scenario):
    out = tmp_path / "out"
    cert = estimate_into(sin_scenario, out, "decay")
    code = main(["check", "--scenario", str(sin_scenario), "--out-dir", str(out),
                 "--property", "instability", "--cert", str(cert)])
    assert code == 2


def test_check_accepts_embedded_certificate_from_check_file(tmp_path, sin_scenario):
    out = tmp_path / "out"
    cert = estimate_into(sin_scenario, out, "decay")
    assert main(["check", "--scenario", str(sin_scenario), "--out-dir", str(out),
                 "--property", "decay", "--cert", str(cert)]) == 0
    nested = out / "check_decay.json"
    code = main(["check", "--scenario", str(sin_scenario), "--out-dir", str(out),
                 "--property", "decay", "--cert", str(nested)])
    assert code == 0


def test_check_rejects_no_certificate_file(tmp_path, contracting_scenario):
    out = tmp_path / "out"
    assert main(["estimate", "--scenario", str(contracting_scenario),
                 "--out-dir", str(out), "--property", "exp-instability"]) == 1
    code = main(["check", "--scenario", str(contracting_scenario), "--out-dir", str(out),
                 "--property", "exp-instability",
                 "--cert", str(out / "cert_exp-instability.json")])
    assert code == 2


def test_check_failing_certificate_exits_1(tmp_path, contracting_scenario):
    # hand-written flat N = 2 witness cannot cover e^{5 t} contraction
    p = write_scenario(tmp_path / "steep.json", {"kind": "pure_exponential", "rate": -5.0})
    cert_path = tmp_path / "n2.json"
    cert_path.write_text(json.dumps({
        "kind": "instability", "form": "parametric", "N": {"coef": 2.0, "rate": 0.0},
        "grid_hash": "", "tool_version": "0",
    }))
    out = tmp_path / "out"
    code = main(["check", "--scenario", str(p), "--out-dir", str(out),
                 "--property", "instability", "--cert", str(cert_path)])
    assert code == 1
    doc = read_json(out / "check_instability.json")
    assert doc["report"]["verdict"] == "fail"
    assert doc["report"]["counterexamples"]


# ---------------------------------------------------------------------------
# theorem
# ---------------------------------------------------------------------------


def test_theorem_requires_all_inputs(tmp_path, pexp3_scenario):
    out = tmp_path / "out"
    m_cert = tmp_path / "m.json"
    m_cert.write_text(json.dumps({
        "kind": "integral_instability", "form": "parametric",
        "M": {"coef": 1.0, "rate": 0.0}, "quad": None,
        "grid_hash": "", "tool_version": "0",
    }))
    code = main(["theorem", "--scenario", str(pexp3_scenario), "--out-dir", str(out),
                 "--theorem", "thm2", "--cert", str(m_cert)])
    assert code == 2


def test_theorem_rejects_unused_and_duplicate_inputs(tmp_path, pexp3_scenario, capsys):
    out = tmp_path / "out"
    exp_cert = estimate_into(pexp3_scenario, out, "exp-instability")
    capsys.readouterr()
    code = main(["theorem", "--scenario", str(pexp3_scenario), "--out-dir", str(out),
                 "--theorem", "corollary", "--cert", str(exp_cert)])
    assert code == 2
    assert "theorem corollary takes no exp-instability certificate" in capsys.readouterr().err
    code = main(["theorem", "--scenario", str(pexp3_scenario), "--out-dir", str(out),
                 "--theorem", "remark-obs2", "--cert", str(exp_cert), "--cert", str(exp_cert)])
    assert code == 2


def test_theorem_pass_writes_run(tmp_path, pexp3_scenario):
    out = tmp_path / "out"
    exp_cert = estimate_into(pexp3_scenario, out, "exp-instability")
    code = main(["theorem", "--scenario", str(pexp3_scenario), "--out-dir", str(out),
                 "--theorem", "remark-obs2", "--cert", str(exp_cert)])
    assert code == 0
    doc = read_json(out / "theorem_remark-obs2.json")
    assert doc["verdict"] == "pass"
    assert doc["theorem"] == "remark_obs2"
    assert doc["scenario_grid_hash"]
    assert doc["tool_version"]


def test_theorem_corollary_disagreement_exits_1(tmp_path, contracting_scenario):
    out = tmp_path / "out"
    code = main(["theorem", "--scenario", str(contracting_scenario), "--out-dir", str(out),
                 "--theorem", "corollary"])
    assert code == 1
    doc = read_json(out / "theorem_corollary.json")
    assert doc["verdict"] == "no-certificate"
    assert "exp-instability: no-certificate" in doc["notes"][0]


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_report_tables_and_margins(tmp_path, sin_scenario):
    out = tmp_path / "out"
    f_cert = estimate_into(sin_scenario, out, "decay")
    e_cert = estimate_into(sin_scenario, out, "exp-instability")
    code = main(["report", "--scenario", str(sin_scenario), "--out-dir", str(out),
                 "--cert", str(f_cert), "--cert", str(e_cert)])
    assert code == 0

    rows = read_csv(out / "margins.csv")
    assert rows[0] == ["property", "t", "s", "t0", "base", "vector", "margin"]
    props = {r[0] for r in rows[1:]}
    assert props == {"decay", "exp-instability"}
    assert all(float(r[6]) >= -1e-9 for r in rows[1:])

    table = read_csv(out / "witness_tables.csv")
    assert table[0] == ["t", "f_hat", "N_hat", "nu"]
    for row in table[1:]:
        t, f_hat, n_hat, nu = map(float, row)
        assert 0.0 < f_hat <= 1.0
        assert n_hat > 0.0
        assert nu == 4.0


def test_report_plain_witness_stays_under_analytic_envelope(tmp_path, sin_scenario):
    out = tmp_path / "out"
    f_cert = estimate_into(sin_scenario, out, "decay")
    n_cert = estimate_into(sin_scenario, out, "instability")
    code = main(["report", "--scenario", str(sin_scenario), "--out-dir", str(out),
                 "--cert", str(f_cert), "--cert", str(n_cert)])
    assert code == 0
    table = read_csv(out / "witness_tables.csv")
    assert table[0] == ["t", "f_hat", "N_hat"]
    for row in table[1:]:
        t, _, n_hat = map(float, row)
        # the model admits the closed-form bound N(t) = e^{4t}, and the
        # fitted worst-ratio witness never exceeds it (up to headroom)
        assert n_hat <= math.exp(4.0 * t) * 1.01 + 1e-12


def test_report_m_hat_column(tmp_path, pexp3_scenario):
    out = tmp_path / "out"
    m_cert = estimate_into(pexp3_scenario, out, "integral-instability")
    assert main(["report", "--scenario", str(pexp3_scenario), "--out-dir", str(out),
                 "--cert", str(m_cert)]) == 0
    table = read_csv(out / "witness_tables.csv")
    assert table[0] == ["t", "M_hat"]
    assert all(float(r[1]) == 1.0 for r in table[1:])


def test_report_without_inputs_exits_2(tmp_path, sin_scenario):
    assert main(["report", "--scenario", str(sin_scenario),
                 "--out-dir", str(tmp_path / "out")]) == 2


# ---------------------------------------------------------------------------
# Determinism and environment
# ---------------------------------------------------------------------------


def run_pipeline(scenario, out):
    assert main(["laws", "--scenario", str(scenario), "--out-dir", str(out)]) == 0
    cert = estimate_into(scenario, out, "decay")
    assert main(["check", "--scenario", str(scenario), "--out-dir", str(out),
                 "--property", "decay", "--cert", str(cert)]) == 0
    assert main(["report", "--scenario", str(scenario), "--out-dir", str(out),
                 "--cert", str(cert)]) == 0


def test_outputs_are_byte_identical_across_runs(tmp_path, sin_scenario):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_pipeline(sin_scenario, out1)
    run_pipeline(sin_scenario, out2)
    names = sorted(p.name for p in out1.iterdir())
    assert names == sorted(p.name for p in out2.iterdir())
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_thread_count_env_validation(tmp_path, sin_scenario, monkeypatch):
    out = tmp_path / "out"
    monkeypatch.setenv("COCYCLE_LAB_THREADS", "2")
    assert main(["laws", "--scenario", str(sin_scenario), "--out-dir", str(out)]) == 0
    monkeypatch.setenv("COCYCLE_LAB_THREADS", "0")
    assert main(["laws", "--scenario", str(sin_scenario), "--out-dir", str(out)]) == 2
    monkeypatch.setenv("COCYCLE_LAB_THREADS", "many")
    assert main(["laws", "--scenario", str(sin_scenario), "--out-dir", str(out)]) == 2


def test_single_thread_matches_parallel(tmp_path, sin_scenario, monkeypatch):
    out1, out2 = tmp_path / "seq", tmp_path / "par"
    monkeypatch.setenv("COCYCLE_LAB_THREADS", "1")
    run_pipeline(sin_scenario, out1)
    monkeypatch.setenv("COCYCLE_LAB_THREADS", "4")
    run_pipeline(sin_scenario, out2)
    for p in sorted(out1.iterdir()):
        assert p.read_bytes() == (out2 / p.name).read_bytes(), p.name


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def test_version_flag_exits_zero():
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0


def test_console_script_runs(tmp_path, sin_scenario):
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "cocycle_lab.cli", "laws",
         "--scenario", str(sin_scenario), "--out-dir", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert (out / "laws_report.json").exists()


def test_cli_import_leaves_scipy_unloaded():
    # scipy costs about a third of a second at every start-up; the CLI needs none of it
    code = ("import sys, cocycle_lab.cli; "
            "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_console_script_error_message(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "cocycle_lab.cli", "laws",
         "--scenario", str(tmp_path / "absent.json")],
        capture_output=True, text=True)
    assert proc.returncode == 2
    assert "cocycle-lab: error:" in proc.stderr


# ---------------------------------------------------------------------------
# Benchmark tracer contract
# ---------------------------------------------------------------------------


def test_benchmark_tracer_reaches_every_layer(tmp_path):
    """perfbench/tracer.py wraps functions by module attribute name; a renamed
    function, or a table that captured one at import, would leave its layer
    at zero without failing the command."""
    root = Path(__file__).resolve().parents[1]
    scenario = write_scenario(tmp_path / "sin7.json", {"kind": "sin_scalar"},
                              times={"min": 0, "max": 6, "count": 7})
    out = tmp_path / "out"
    env = {**os.environ, "PYTHONPATH": str(root / "src")}

    def traced(name, *argv):
        summary = tmp_path / f"{name}.json"
        proc = subprocess.run(
            [sys.executable, str(root / "perfbench" / "tracer.py"), str(summary), *argv,
             "--scenario", str(scenario), "--out-dir", str(out)],
            capture_output=True, text=True, env=env, cwd=root)
        assert proc.returncode == 0, proc.stderr
        return read_json(summary)["layers"]

    assert traced("laws", "laws")["core.laws_samples"] > 0
    traced("estimate_exp", "estimate", "--property", "exp-instability")
    layers = traced("estimate", "estimate", "--property", "integral-instability")
    assert layers["certificates.estimate_s"] > 0
    assert layers["quadrature.segments"] > 0
    cert = str(out / "cert_integral-instability.json")
    assert traced("check", "check", "--property", "integral-instability",
                  "--cert", cert)["certificates.samples"] > 0
    assert traced("theorem", "theorem", "--theorem", "remark-obs2",
                  "--cert", str(out / "cert_exp-instability.json"))["theorems.s"] > 0
    assert traced("report", "report", "--cert", cert)["certificates.samples"] > 0
