"""Command line front end: scenarios, subcommands, exit codes, artifacts."""

import contextlib
import csv
import gc
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cocycle_lab import DomainError, PreconditionError, QuadratureConfig
from cocycle_lab.cli import THEOREMS, _load_json_file, _margin_rows, main, parse_scenario

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
    sc2, _ = parse_scenario(doc)
    assert sc2.grid.grid_hash == sc1.grid.grid_hash
    # the two seeded extra vectors were materialized into the grid: listing
    # them as plain vectors gives the same grid
    assert len(sc1.grid.vectors) == 6
    listed = {"model": doc["model"], "grid": {"times": [0.0, 1.0, 2.0], "vectors": [list(v) for v in sc1.grid.vectors]}}
    assert parse_scenario(listed)[0].grid.grid_hash == sc1.grid.grid_hash


def test_scenario_defaults():
    sc, xi = parse_scenario({"model": {"kind": "sin_scalar"}})
    assert len(sc.grid.times) == 65
    assert sc.grid.times[1] == 0.25
    assert sc.margin_tol == 1e-9
    assert sc.headroom == 0.01
    assert sc.growth_cap == 8.0
    assert sc.alpha == 1.5
    assert sc.nu_candidates is None
    assert xi.descriptor["kind"] == "sin_scalar"


@pytest.mark.parametrize("out_dir", [5, ["a"], {"x": 1}, False, True, 0.0])
def test_non_string_out_dir_exits_2(tmp_path, capsys, monkeypatch, out_dir):
    # never coerced to a directory name such as "5", nor to "."
    monkeypatch.chdir(tmp_path)
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps({"model": {"kind": "sin_scalar"}, "grid": {"times": SMALL_TIMES},
                                    "out_dir": out_dir}))
    assert main(["laws", "--scenario", str(scenario)]) == 2
    assert "out_dir must be a string or null" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["s.json"]


@pytest.mark.parametrize("doc", [{}, {"out_dir": None}, {"out_dir": ""}])
def test_absent_or_null_out_dir_means_current_directory(doc):
    sc, _ = parse_scenario({"model": {"kind": "sin_scalar"}, **doc})
    assert sc.out_dir == "."
    assert parse_scenario({"model": {"kind": "sin_scalar"}, **doc}, "elsewhere")[0].out_dir == "elsewhere"


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
    # grid entries must be JSON lists, never iterated as one
    {"model": {"kind": "sin_scalar"}, "grid": {"vectors": {}}},
    {"model": {"kind": "sin_scalar"}, "grid": {"vectors": "x"}},
    {"model": {"kind": "sin_scalar"}, "grid": {"base_points": {"kind": "trivial"}}},
    {"model": {"kind": "sin_scalar"}, "grid": {"base_points": ""}},
])
def test_scenario_rejects_malformed_documents(doc):
    with pytest.raises((PreconditionError, DomainError)):
        parse_scenario(doc)


def test_scenario_quad_accepts_the_old_lower_limit_key():
    sc, _ = parse_scenario({"model": {"kind": "sin_scalar"}, "tolerances": {"quad": {"datko_lower_limit": "t0"}}})
    assert sc.quad == QuadratureConfig()


# ---------------------------------------------------------------------------
# Exit codes for malformed inputs
# ---------------------------------------------------------------------------


HUGE = 10**400  # an integer literal too large for a float


# file name -> (scenario text, a part of its error message)
MALFORMED_SCENARIOS = {
    "not_json.json": ("{ definitely not json", "is not valid JSON"),
    "extra_key.json": (json.dumps({"model": {"kind": "sin_scalar"}, "shape": "round"}),
                       "scenario has unknown keys ['shape']"),
    "no_kind.json": (json.dumps({"model": {"rate": 1.0}}), "model descriptor needs a 'kind' key"),
    "bad_tol.json": (json.dumps({"model": {"kind": "sin_scalar"}, "tolerances": {"margin_tol": 0.0}}),
                     "margin_tol must be a finite number > 0"),
    "bad_times.json": (json.dumps({"model": {"kind": "sin_scalar"}, "grid": {"times": [0.0, 0.0]}}),
                       "grid times must be strictly increasing"),
    "huge_rate.json": (json.dumps({"model": {"kind": "pure_exponential", "rate": HUGE}}),
                       "pure_exponential rate must be a finite number"),
    "huge_alpha.json": (json.dumps({"model": {"kind": "diag_integral", "alphas": [1, HUGE]}}),
                        "diag_integral alphas must be a list of numbers within the float range"),
    "huge_time.json": (json.dumps({"model": {"kind": "sin_scalar"}, "grid": {"times": [0, HUGE]}}),
                       "grid times must be a list of numbers within the float range"),
    "huge_vector.json": (json.dumps({"model": {"kind": "sin_scalar"}, "grid": {"vectors": [[HUGE]]}}),
                         "grid vectors entry must be a list of numbers within the float range"),
    "huge_random_vectors.json": (json.dumps({"model": {"kind": "sin_scalar"}, "seed": 1, "random_vectors": HUGE}),
                                 "random_vectors must be at most"),
    # counts that no float64 array can hold; the largest used to escape as an IndexError (exit 1)
    **{f"huge_count_{name}.json": (json.dumps({"model": {"kind": "sin_scalar"},
                                               "grid": {"times": {"min": 0, "max": 1, "count": count}}}),
                                   "grid times count must be at most")
       for name, count in [("maxsize", sys.maxsize), ("2_62", 2**62), ("1e29", 10**29)]},
    "bad_lower_limit.json": (json.dumps({"model": {"kind": "sin_scalar"},
                                         "tolerances": {"quad": {"datko_lower_limit": "s"}}}),
                             "tolerances.quad.datko_lower_limit supports only 't0'"),
    "huge_nu.json": (json.dumps({"model": {"kind": "sin_scalar"}, "nu_candidates": [0.5, HUGE]}),
                     "nu_candidates must be a list of numbers within the float range"),
    # a non-number is not out of range: the message ends at "numbers"
    "string_vector.json": (json.dumps({"model": {"kind": "sin_scalar"}, "grid": {"vectors": ["x"]}}),
                           "grid vectors entry must be a list of numbers\n"),
    "string_entry.json": (json.dumps({"model": {"kind": "sin_scalar"}, "grid": {"vectors": [["x"]]}}),
                          "grid vectors entry must be a list of numbers\n"),
    "string_time.json": (json.dumps({"model": {"kind": "sin_scalar"}, "grid": {"times": ["x", 1]}}),
                         "grid times must be a list of numbers\n"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_SCENARIOS))
def test_malformed_scenarios_exit_2(tmp_path, capsys, name):
    text, message = MALFORMED_SCENARIOS[name]
    p = tmp_path / name
    p.write_text(text)
    code = main(["laws", "--scenario", str(p), "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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


@pytest.mark.parametrize("model", [{"kind": "sin_scalar"}, {"kind": "diag_integral", "alphas": [1, -1]}])
def test_default_integral_commands_raise_no_warning(tmp_path, model):
    # the vector-batched Datko integrand must not form inf * 0 or inf - inf
    p = tmp_path / "default.json"
    p.write_text(json.dumps({"model": model}))
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for prop in ("decay", "instability", "exp-instability", "integral-instability"):
            estimate_into(p, out, prop)
        assert main(["check", "--scenario", str(p), "--out-dir", str(out), "--property",
                     "integral-instability", "--cert", str(out / "cert_integral-instability.json")]) == 0


@pytest.mark.parametrize("times", [[0, 1e-300, 2e-300], [0, 1e300]])
def test_exp_instability_fit_on_tiny_or_huge_times(tmp_path, times):
    # the least-squares slope once underflowed (SVD error, exit 2) or overflowed
    p = write_scenario(tmp_path / "scale.json", {"kind": "sin_scalar"}, times=times)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["estimate", "--property", "exp-instability", "--scenario", str(p),
                     "--out-dir", str(tmp_path / "out")])
    assert code in (0, 1)


def test_quadrature_depth_exhaustion_exits_2(tmp_path, capsys):
    p = write_scenario(tmp_path / "shallow.json", {"kind": "sin_scalar"}, times=LONG_TIMES,
                       tolerances={"quad": {"max_depth": 1}})
    code = main(["estimate", "--property", "integral-instability",
                 "--scenario", str(p), "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert "cocycle-lab: error: adaptive refinement hit max_depth=1" in capsys.readouterr().err


def test_quadrature_breadth_budget_exits_2(tmp_path, capsys):
    p = write_scenario(tmp_path / "wide.json", {"kind": "sin_scalar"}, times=[0, 2, 226, 227, 228])
    code = main(["estimate", "--property", "integral-instability",
                 "--scenario", str(p), "--out-dir", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "cocycle-lab: error: adaptive refinement hit the budget of 1048576 live subintervals on [2.0, 226.0]" in err


def test_missing_scenario_file_exits_2(tmp_path):
    assert main(["laws", "--scenario", str(tmp_path / "nope.json"),
                 "--out-dir", str(tmp_path)]) == 2


# Python's json reads these three literals, which are not JSON numbers.
NON_FINITE_CERTIFICATES = {
    "decay NaN knot": ("decay", '{"kind": "decay", "form": "tabulated", "times": [0, 1, NaN, 3], '
                                '"values": [1, 0.5, 0.2, 0.1], "grid_hash": "", "tool_version": "0"}'),
    "decay Infinity knot": ("decay", '{"kind": "decay", "form": "tabulated", "times": [0, 1, 2, Infinity], '
                                     '"values": [1, 0.5, 0.2, 0.1], "grid_hash": "", "tool_version": "0"}'),
    "growth_cap NaN": ("exp-instability", '{"kind": "exp_instability", "form": "parametric", '
                                          '"N": {"coef": 2, "rate": 1}, "nu": 1, "growth_cap": NaN, '
                                          '"grid_hash": "", "tool_version": "0"}'),
    "N rate -Infinity": ("instability", '{"kind": "instability", "form": "parametric", '
                                        '"N": {"coef": 2, "rate": -Infinity}, "grid_hash": "", "tool_version": "0"}'),
}


@pytest.mark.parametrize("prop, text", NON_FINITE_CERTIFICATES.values(), ids=NON_FINITE_CERTIFICATES)
def test_certificate_files_with_non_finite_literals_exit_2(tmp_path, capsys, prop, text):
    scenario = write_scenario(tmp_path / "s.json", {"kind": "pure_exponential", "rate": 1.0}, times=[0, 1, 2, 3])
    cert = tmp_path / "cert.json"
    cert.write_text(text)
    out = tmp_path / "out"
    for argv in (["check", "--property", prop, "--cert", str(cert)], ["report", "--cert", str(cert)]):
        assert main([*argv, "--scenario", str(scenario), "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{cert} is not valid JSON" in err and "is not a JSON number" in err
    assert not out.exists()


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_scenario_files_with_non_finite_literals_exit_2(tmp_path, capsys, literal):
    scenario = tmp_path / "s.json"
    scenario.write_text('{"model": {"kind": "pure_exponential", "rate": %s}}' % literal)
    assert main(["laws", "--scenario", str(scenario), "--out-dir", str(tmp_path / "out")]) == 2
    assert f"{scenario} is not valid JSON: {literal} is not a JSON number" in capsys.readouterr().err


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


@pytest.mark.parametrize("argv", [["laws"], ["estimate", "--property", "decay"]])
def test_overflowing_log_factors_exit_2(tmp_path, capsys, argv):
    # rate * (t - s) passes the float range at t = 2, which used to give NaN
    # law margins (laws) or a certificate from infinite norms (estimate)
    p = write_scenario(tmp_path / "huge.json", {"kind": "pure_exponential", "rate": 1e308})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([*argv, "--scenario", str(p), "--out-dir", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "cocycle-lab: error: log factors [inf] at (t=2.0, s=0.0) are not all finite" in err
    assert not (tmp_path / "out").exists()


def test_decay_check_on_overflowing_sample_times_exits_2(tmp_path, capsys):
    # the decay samples t = u + t0 pass the float range at u = t0 = 1e308,
    # which once printed numpy's overflow warning before the error
    p = write_scenario(tmp_path / "far.json", {"kind": "sin_scalar"}, times=[0.0, 1e308])
    cert = tmp_path / "f.json"
    cert.write_text(json.dumps({"kind": "decay", "form": "parametric", "n_tilde": 2.0, "omega": 1.0,
                                "grid_hash": "", "tool_version": "0"}))
    argv = ["check", "--property", "decay", "--cert", str(cert), "--scenario", str(p), "--out-dir", str(tmp_path)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 2
    assert "(t, s) = (inf, 1e+308) outside the admissible region" in capsys.readouterr().err


@pytest.mark.parametrize("rate", [1e12, 1e15])
def test_laws_allow_roundoff_of_huge_exact_log_factors(tmp_path, rate):
    # without the allowance, rate 1e12 fails by one ulp of lf(2.7, 0) at
    # (2.7, 0.3, 0), and rate 1e15 by a relative residual of 0.61
    p = write_scenario(tmp_path / "steep.json", {"kind": "pure_exponential", "rate": rate},
                       times=[0, 0.3, 1.1, 2.7])
    out = tmp_path / "out"
    assert main(["laws", "--scenario", str(p), "--out-dir", str(out)]) == 0
    doc = read_json(out / "laws_report.json")
    assert doc["cocycle"]["verdict"] == "pass"
    # 8 u (|lf(t, s)| + |lf(s, t0)| + |lf(t, t0)|) is largest at t = 2.7, t0 = 0
    assert doc["cocycle"]["roundoff_allowance"] == pytest.approx(8 * 2.0**-53 * 5.4 * rate, rel=1e-12)
    # 2 u (2 (t - t0) + phi(s, t0) + phi(t, s, .) + phi(t, t0)) from the base point 0, at t = s = 2.7, t0 = 0
    assert doc["semiflow"]["roundoff_allowance"] == pytest.approx(2 * 2.0**-53 * 5 * 2.7, rel=1e-12)


def test_laws_allow_semiflow_roundoff_at_large_times(tmp_path):
    # without the allowance the drift x + (t - s) failed by one ulp of t (2.4e-7)
    p = write_scenario(tmp_path / "far.json", {"kind": "pure_exponential", "rate": 1},
                       grid={"times": [0.7579544029403025, 0.8444218515250481, 1841143161.66169],
                             "base_points": [{"kind": "trivial", "value": 0.25891675029296335}]})
    out = tmp_path / "out"
    assert main(["laws", "--scenario", str(p), "--out-dir", str(out)]) == 0
    doc = read_json(out / "laws_report.json")
    assert doc["semiflow"]["verdict"] == "pass"
    assert 2.4e-7 < doc["semiflow"]["roundoff_allowance"] < 1e-5


def test_laws_reject_vector_of_wrong_dimension(tmp_path, capsys):
    p = write_scenario(tmp_path / "diag.json", {"kind": "diag_integral", "alphas": [1, -1]},
                       grid={"times": SMALL_TIMES, "vectors": [[1.0]]})
    assert main(["laws", "--scenario", str(p), "--out-dir", str(tmp_path / "out")]) == 2
    assert "model dimension is 2" in capsys.readouterr().err


def test_integer_literal_too_large_for_a_float_names_the_field():
    # it used to exit 2 with only "int too large to convert to float"
    with pytest.raises(PreconditionError, match="gamma must be a finite number"):
        parse_scenario({"model": {"kind": "sin_scalar"}, "gamma": 10**400})


@pytest.mark.parametrize("key, value", [("vectors", {}), ("vectors", "x"), ("base_points", {"kind": "trivial"}),
                                        ("base_points", "")])
def test_grid_entries_must_be_lists(key, value):
    with pytest.raises(PreconditionError, match=f"grid.{key} must be a JSON list"):
        parse_scenario({"model": {"kind": "sin_scalar"}, "grid": {key: value}})


@pytest.mark.parametrize("argv", [
    ["laws"], *(["estimate", "--property", prop] for prop in ("decay", "instability", "exp-instability",
                                                             "integral-instability")),
    ["check", "--property", "decay", "--cert", "cert.json"], ["theorem", "--theorem", "thm2"], ["report"],
])
def test_ragged_vectors_exit_2_with_the_grid_message(tmp_path, capsys, argv):
    # estimate used to print numpy's "inhomogeneous shape" instead
    p = write_scenario(tmp_path / "ragged.json", {"kind": "diag_integral", "alphas": [1, -1]},
                       grid={"times": [0, 1, 2], "vectors": [[1, 0], [1]]})
    assert main([*argv[:1], "--scenario", str(p), "--out-dir", str(tmp_path / "out"), *argv[1:]]) == 2
    assert "grid vectors must all have one length, got [1]" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("ladder", [[0.5, 0.25, -1], [0.5, 0.25]])
def test_bad_nu_candidates_exit_2_for_every_command(tmp_path, capsys, ladder):
    # only estimate --property exp-instability used to check the ladder
    p = write_scenario(tmp_path / "nu.json", {"kind": "pure_exponential", "rate": 1.0}, times=[0, 1, 2],
                       nu_candidates=ladder)
    assert main(["laws", "--scenario", str(p), "--out-dir", str(tmp_path / "out")]) == 2
    assert "nu candidates must be" in capsys.readouterr().err


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


def test_one_time_grid_writes_strict_json(tmp_path):
    """Infinite margins and rates are written as strings, so every file
    reads back, a check file through ``report`` too."""
    scenario = write_scenario(tmp_path / "one.json", {"kind": "pure_exponential", "rate": 2.0}, times=[0.0])
    out = tmp_path / "out"
    common = ["--scenario", str(scenario), "--out-dir", str(out)]
    codes = {}
    for prop in ("decay", "instability", "exp-instability", "integral-instability"):
        cert, check = out / f"cert_{prop}.json", out / f"check_{prop}.json"
        codes[prop] = (
            main(["estimate", "--property", prop, *common]),
            main(["check", "--property", prop, "--cert", str(cert), *common]),
            main(["report", "--cert", str(check), *common]) if check.exists() else None,
        )
    assert codes == {"decay": (0, 0, 0), "instability": (0, 0, 0), "exp-instability": (1, 2, None),
                     "integral-instability": (0, 0, 0)}
    docs = {path.name: _load_json_file(str(path)) for path in out.glob("*.json")}
    assert len(docs) == 7
    assert docs["cert_exp-instability.json"]["details"]["realized_rate"] == "-inf"
    assert docs["check_integral-instability.json"]["report"]["worst_margin"] == "inf"


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


def test_every_command_accepts_a_vector_whose_norm_overflows(tmp_path):
    # laws passed, but every other command exited 2 with "intermediate overflow in fsum"
    p = tmp_path / "huge.json"
    p.write_text(json.dumps({"model": {"kind": "diag_integral", "alphas": [1, -1]},
                             "grid": {"times": LONG_TIMES, "vectors": [[1e308, 1e308]]}}))
    out = tmp_path / "out"
    assert main(["laws", "--scenario", str(p), "--out-dir", str(out)]) == 0
    props = ("decay", "instability", "exp-instability", "integral-instability")
    certs = [estimate_into(p, out, prop) for prop in props]
    for prop, cert in zip(props, certs):
        assert main(["check", "--scenario", str(p), "--out-dir", str(out),
                     "--property", prop, "--cert", str(cert)]) == 0
    assert main(["report", "--scenario", str(p), "--out-dir", str(out),
                 *(arg for cert in certs for arg in ("--cert", str(cert)))]) == 0


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


def test_certificate_from_another_grid_is_noted(tmp_path, sin_scenario, capsys):
    out = tmp_path / "out"
    decay = estimate_into(sin_scenario, out, "decay")
    exp = estimate_into(sin_scenario, out, "exp-instability")
    capsys.readouterr()
    check = ["check", "--property", "decay", "--cert", str(decay), "--out-dir", str(out)]
    assert main([*check, "--scenario", str(sin_scenario)]) == 0
    assert capsys.readouterr().err == ""
    same_doc = read_json(out / "check_decay.json")

    other = write_scenario(tmp_path / "other.json", {"kind": "sin_scalar"}, times=SMALL_TIMES)
    other_hash = parse_scenario(read_json(other))[0].grid.grid_hash
    assert main([*check, "--scenario", str(other)]) == 0
    err = capsys.readouterr().err
    assert err.startswith(f"cocycle-lab: note: {decay} was fitted on another grid")
    assert same_doc["certificate_grid_hash"] in err and other_hash in err
    # the note goes to stderr only: the check JSON gains no key
    assert sorted(read_json(out / "check_decay.json")) == sorted(same_doc)

    assert main(["theorem", "--theorem", "remark-obs2", "--cert", str(exp),
                 "--scenario", str(other), "--out-dir", str(out)]) in (0, 1)
    assert f"cocycle-lab: note: {exp} was fitted on another grid" in capsys.readouterr().err


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


def test_report_rejects_two_certificates_of_one_property(tmp_path, sin_scenario, capsys):
    # two certificates of one property would mix their margins.csv rows
    # and share one witness_tables.csv column
    out = tmp_path / "out"
    n_cert = estimate_into(sin_scenario, out, "instability")
    e_cert = estimate_into(sin_scenario, out, "exp-instability")
    before = sorted(os.listdir(out))
    capsys.readouterr()
    code = main(["report", "--scenario", str(sin_scenario), "--out-dir", str(out),
                 "--cert", str(n_cert), "--cert", str(e_cert), "--cert", str(n_cert)])
    assert code == 2
    assert "duplicate instability certificate input" in capsys.readouterr().err
    assert sorted(os.listdir(out)) == before
    # instability and exp-instability are different properties
    assert main(["report", "--scenario", str(sin_scenario), "--out-dir", str(out),
                 "--cert", str(n_cert), "--cert", str(e_cert)]) == 0


def test_failing_commands_leave_no_output_directory(tmp_path, sin_scenario, capsys):
    missing = tmp_path / "missing"
    assert main(["check", "--scenario", str(sin_scenario), "--out-dir", str(missing),
                 "--property", "decay", "--cert", str(tmp_path / "missing.json")]) == 2
    assert "input file not found" in capsys.readouterr().err
    assert not missing.exists()
    cert = estimate_into(sin_scenario, tmp_path / "certs", "instability")
    duplicate = tmp_path / "duplicate"
    assert main(["report", "--scenario", str(sin_scenario), "--out-dir", str(duplicate),
                 "--cert", str(cert), "--cert", str(cert)]) == 2
    assert "duplicate instability certificate input" in capsys.readouterr().err
    assert not duplicate.exists()


def test_report_writes_no_margins_when_a_later_check_fails(tmp_path, sin_scenario, capsys):
    out = tmp_path / "out"
    f_cert = estimate_into(sin_scenario, out, "decay")
    m_cert = estimate_into(sin_scenario, out, "integral-instability")
    # same grid, but a quadrature budget the integral check exhausts
    shallow = write_scenario(tmp_path / "shallow.json", {"kind": "sin_scalar"}, times=LONG_TIMES,
                             tolerances={"quad": {"max_depth": 1}})
    code = main(["report", "--scenario", str(shallow), "--out-dir", str(out),
                 "--cert", str(f_cert), "--cert", str(m_cert)])
    assert code == 2
    assert "adaptive refinement hit max_depth=1" in capsys.readouterr().err
    assert not (out / "margins.csv").exists()
    assert not (out / "witness_tables.csv").exists()


def test_report_writes_nothing_when_a_witness_value_overflows(tmp_path, capsys):
    # N(t) = 2 e^{100 t} passes its check in log space, but its linear
    # witness_tables.csv value overflows a float near t = 7 of the default grid
    scenario = tmp_path / "pexp1.json"
    scenario.write_text(json.dumps({"model": {"kind": "pure_exponential", "rate": 1.0}}))
    cert = tmp_path / "steep.json"
    cert.write_text(json.dumps({
        "kind": "instability", "form": "parametric", "N": {"coef": 2.0, "rate": 100.0},
        "grid_hash": "", "tool_version": "0.1.0",
    }))
    assert main(["check", "--scenario", str(scenario), "--out-dir", str(tmp_path / "checked"),
                 "--property", "instability", "--cert", str(cert)]) == 0
    out = tmp_path / "out"
    assert main(["report", "--scenario", str(scenario), "--out-dir", str(out),
                 "--cert", str(cert)]) == 2
    assert "math range error" in capsys.readouterr().err
    assert not out.exists()


def reference_margin_rows(prop, ts, ss, t0s, base, vector, margins):
    """One batch written row by row through csv.writer: the reference for _margin_rows."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    for t, s, t0, m in zip(ts.tolist(), ss.tolist(), t0s.tolist(), margins.tolist()):
        writer.writerow([prop, f"{t:.17g}", f"{s:.17g}", f"{t0:.17g}", base, vector, f"{m:.17g}"])
    return buf.getvalue()


SPECIAL_MARGINS = [math.inf, -math.inf, math.nan, -0.0, 5e-324, 1e308, 0.0, -1.5, 0.1]


@pytest.mark.parametrize("label", [
    "decay", "x1^0", "[1,0]", 'say "hi"', "two words", " lead", "", "a\nb", "a\rb", "trivial(0)",
])
def test_margin_rows_match_csv_writer(label):
    n = len(SPECIAL_MARGINS)
    # repeated grid values, and both signed zeros in one column
    ts = np.array([0.0, -0.0, 0.25, 0.25, 5e-324, 16.0, 0.0, 3.0, 0.1])
    ss, t0s, margins = ts[::-1], np.full(n, 2.5), np.array(SPECIAL_MARGINS)
    for prop, base, vector in ((label, "x1^0", "[1,0]"), ("decay", label, label)):
        got = _margin_rows(prop, [(ts, ss, t0s, base, vector, margins)])
        assert got == reference_margin_rows(prop, ts, ss, t0s, base, vector, margins)
    assert _margin_rows(label, [(ts[:0], ts[:0], ts[:0], label, label, margins[:0])]) == ""


@given(
    st.lists(st.tuples(st.floats(0.0, 20.0), st.floats(0.0, 20.0), st.floats(0.0, 20.0), st.floats()),
             min_size=1, max_size=12),
    st.lists(st.text(alphabet=' ,"abc01[]\r\n', max_size=5), min_size=3, max_size=3),
    st.lists(st.integers(0, 12), max_size=4),
)
@settings(max_examples=200)
def test_margin_rows_match_csv_writer_on_random_batches(rows, labels, cuts):
    # one (base, vector)'s samples, cut into batches at the sorted ``cuts`` (empty batches included)
    ts, ss, t0s, margins = (np.array(col, dtype=float) for col in zip(*rows))
    prop, base, vector = labels
    bounds = [0, *sorted(min(c, len(rows)) for c in cuts), len(rows)]
    batches = [(ts[a:b], ss[a:b], t0s[a:b], base, vector, margins[a:b]) for a, b in zip(bounds, bounds[1:])]
    assert _margin_rows(prop, batches) == reference_margin_rows(prop, ts, ss, t0s, base, vector, margins)


# ---------------------------------------------------------------------------
# Fuzzed scenarios
# ---------------------------------------------------------------------------

# Extreme floats, repeated so that about one field in eight is malformed.
FUZZ_FLOATS = [0.0, 5e-324, 1e-300, 0.25, 1.0, 3.5, 1e300, 1e308, -1.0, -1e308]
NOT_NUMBERS = ["1", None, True, [], {}]
FUZZ_NUMBERS = st.sampled_from(FUZZ_FLOATS * 3 + NOT_NUMBERS[:3] + [10**400])
FUZZ_TIMES = st.one_of(
    st.lists(st.sampled_from([0.0, 5e-324, 1e-300, 2e-300, 0.5, 1.0, 2.5, 1e300, 1e308]),
             unique=True, min_size=1, max_size=5).map(sorted),
    st.lists(FUZZ_NUMBERS, max_size=5),
    st.fixed_dictionaries({"min": FUZZ_NUMBERS, "max": FUZZ_NUMBERS, "count": st.integers(-1, 5)}),
    st.sampled_from(NOT_NUMBERS),
)
FUZZ_BASE_POINT = st.one_of(
    st.fixed_dictionaries({"kind": st.just("trivial")}, optional={"value": FUZZ_NUMBERS}),
    st.fixed_dictionaries({"kind": st.just("generator"), "n": st.sampled_from([-1, 0, 3, True, 1.5])},
                          optional={"sigma": FUZZ_NUMBERS}),
    st.sampled_from(NOT_NUMBERS),
)
FUZZ_MODEL = st.one_of(
    st.just({"kind": "sin_scalar"}),
    st.fixed_dictionaries({"kind": st.just("pure_exponential"), "rate": FUZZ_NUMBERS}),
    st.fixed_dictionaries({"kind": st.just("diag_integral"), "alphas": st.lists(FUZZ_NUMBERS, min_size=1, max_size=2)}),
    st.sampled_from([{"kind": "broken_cocycle"}, {"kind": "nope"}, {"rate": 1.0}, "sin_scalar"]),
)
FUZZ_SCENARIO = st.fixed_dictionaries(
    {
        "model": FUZZ_MODEL,
        # always a small grid: the default one holds 65 times
        "grid": st.fixed_dictionaries({"times": FUZZ_TIMES}, optional={
            "base_points": st.lists(FUZZ_BASE_POINT, max_size=2),
            "vectors": st.lists(st.lists(FUZZ_NUMBERS, min_size=1, max_size=2), min_size=1, max_size=2),
        }),
    },
    optional={
        "tolerances": st.fixed_dictionaries({}, optional={
            "margin_tol": FUZZ_NUMBERS,
            "headroom": FUZZ_NUMBERS,
            "growth_cap": FUZZ_NUMBERS,
            "quad": st.fixed_dictionaries({}, optional={
                "rel_tol": FUZZ_NUMBERS, "abs_tol": FUZZ_NUMBERS, "max_depth": st.sampled_from([0, 1, 8, 61, 2.0]),
            }),
        }),
        "gamma": FUZZ_NUMBERS,
        "alpha": FUZZ_NUMBERS,
        "nu_candidates": st.one_of(st.lists(st.sampled_from(FUZZ_FLOATS), max_size=3).map(sorted),
                                   st.lists(FUZZ_NUMBERS, max_size=3), st.sampled_from(NOT_NUMBERS)),
        "random_vectors": st.sampled_from([0, 1, -1, True]),
        "seed": st.sampled_from([None, 3, "3"]),
    },
)
FUZZ_PROPERTIES = ("decay", "instability", "exp-instability", "integral-instability")
# one theorem for each set of input certificates, and every caller of the kernel integral
FUZZ_THEOREMS = ("remark-obs2", "prop-integral-decay", "prop-shift-sufficiency", "thm1-sufficiency", "thm2",
                 "corollary")


@given(FUZZ_SCENARIO)
@example({"model": {"kind": "sin_scalar"}, "grid": {"times": [0, 1e-300, 2e-300]}})
@example({"model": {"kind": "sin_scalar"}, "grid": {"times": [0, 1e300]}})
# log factors of 1.2e308 once overflowed the sum of the cocycle roundoff bound
@example({"model": {"kind": "diag_integral", "alphas": [3.5]}, "grid": {"times": [0.0, 1e308]}})
# a base point coordinate that the semiflow overflows once raised numpy's overflow warning
@example({"model": {"kind": "sin_scalar"},
          "grid": {"times": [0.0, 1e308], "base_points": [{"kind": "trivial", "value": 1e308}]}})
@settings(max_examples=150, deadline=None)
def test_fuzzed_scenarios_exit_0_1_or_2(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scenario.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        out = os.path.join(tmp, "out")

        def run(argv):
            with contextlib.redirect_stderr(io.StringIO()):
                code = main([*argv, "--scenario", path, "--out-dir", out])
            assert code in (0, 1, 2), argv
            return code

        # check, report and theorem read the certificates of the scenario's own estimates
        run(["laws"])
        estimated = [prop for prop in FUZZ_PROPERTIES if run(["estimate", "--property", prop]) == 0]
        cert = {prop: os.path.join(out, f"cert_{prop}.json") for prop in FUZZ_PROPERTIES}
        checked = [prop for prop in FUZZ_PROPERTIES if run(["check", "--property", prop, "--cert", cert[prop]]) < 2]
        run(["report", *(arg for prop in estimated for arg in ("--cert", cert[prop]))])
        run(["report", *(arg for prop in checked for arg in ("--cert", os.path.join(out, f"check_{prop}.json")))])
        for theorem in FUZZ_THEOREMS:
            run(["theorem", "--theorem", theorem,
                 *(arg for prop in THEOREMS[theorem][0] for arg in ("--cert", cert[prop]))])
        # every JSON file written is strict JSON, which the CLI's own reader accepts
        for name in os.listdir(out) if os.path.isdir(out) else ():
            if name.endswith(".json"):
                _load_json_file(os.path.join(out, name))


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


def test_memory_error_exits_2(tmp_path, sin_scenario, monkeypatch, capsys):
    from cocycle_lab import cli

    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 74.5 GiB for an array")

    monkeypatch.setattr(cli, "check_semiflow_laws", exhausted)
    assert main(["laws", "--scenario", str(sin_scenario), "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err == "cocycle-lab: error: out of memory: Unable to allocate 74.5 GiB for an array\n"
    assert not (tmp_path / "out").exists()


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


def imported_modules(argv):
    """Run ``python -X importtime -m cocycle_lab.cli ARGV``; return its exit
    code and the names of the modules it imported."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "cocycle_lab.cli", *argv],
                          capture_output=True, text=True)
    names = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
             if line.startswith("import time:")}
    assert "cocycle_lab.core" in names, proc.stderr
    return proc.returncode, names


def test_only_theorem_imports_theorem_code(tmp_path):
    # theorems.py is the largest module, and every other command skips it
    sc = write_scenario(tmp_path / "sin5.json", {"kind": "sin_scalar"},
                        times={"min": 0, "max": 6, "count": 5})
    out = tmp_path / "out"
    common = ["--scenario", str(sc), "--out-dir", str(out)]
    certs = [str(estimate_into(sc, out, prop)) for prop in ("decay", "instability")]
    commands = (["laws"], ["estimate", "--property", "exp-instability"],
                ["check", "--property", "decay", "--cert", certs[0]],
                ["report", "--cert", certs[0], "--cert", certs[1]])
    for argv in [[*cmd, *common] for cmd in commands] + [["--version"]]:
        code, names = imported_modules(argv)
        assert code == 0, argv
        assert "cocycle_lab.theorems" not in names, argv
    code, names = imported_modules(["theorem", "--theorem", "remark-obs2", "--cert",
                                    str(out / "cert_exp-instability.json"), *common])
    assert code == 0
    assert "cocycle_lab.theorems" in names


def test_package_names_resolve_lazily():
    code = ("import sys, cocycle_lab; loaded = 'cocycle_lab.theorems' in sys.modules; "
            "from cocycle_lab import thm2_validate; "
            "print(loaded, thm2_validate is sys.modules['cocycle_lab.theorems'].thm2_validate)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]
    import cocycle_lab

    for name in cocycle_lab.__all__:
        assert getattr(cocycle_lab, name) is not None, name
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        getattr(cocycle_lab, "no_such_name")


def launchers():
    """The two ways to start the CLI: ``python -m`` and the console script
    that pyproject.toml declares."""
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    (line,) = [ln for ln in text.splitlines() if ln.startswith("cocycle-lab = ")]
    module, function = line.split("=", 1)[1].strip().strip('"').split(":")
    script = f"import sys; from {module} import {function}; sys.exit({function}())"
    return {"module": [sys.executable, "-m", "cocycle_lab.cli"], "script": [sys.executable, "-c", script]}


@pytest.mark.parametrize("launcher", ["module", "script"])
def test_entry_point_exit_paths(tmp_path, launcher):
    prog = launchers()[launcher]

    def run(*argv):
        return subprocess.run([*prog, *argv], capture_output=True, text=True)

    # a failing certificate still writes its check file
    steep = write_scenario(tmp_path / "steep.json", {"kind": "pure_exponential", "rate": -5.0})
    cert = tmp_path / "n2.json"
    cert.write_text(json.dumps({
        "kind": "instability", "form": "parametric", "N": {"coef": 2.0, "rate": 0.0},
        "grid_hash": "", "tool_version": "0",
    }))
    out = tmp_path / "out"
    proc = run("check", "--property", "instability", "--cert", str(cert),
               "--scenario", str(steep), "--out-dir", str(out))
    assert proc.returncode == 1, proc.stderr
    assert read_json(out / "check_instability.json")["report"]["verdict"] == "fail"

    proc = run("laws", "--no-such-flag")
    assert proc.returncode == 2
    assert proc.stderr.startswith("usage: cocycle-lab")

    proc = run("--version")
    assert (proc.returncode, proc.stdout) == (0, "cocycle-lab 0.1.0\n")

    proc = run("laws", "--scenario", str(tmp_path / "absent.json"))
    assert proc.returncode == 2
    assert proc.stderr.startswith("cocycle-lab: error:")


def test_entry_point_freezes_and_main_does_not(tmp_path, sin_scenario, monkeypatch):
    from cocycle_lab import cli

    frozen = gc.get_freeze_count()
    assert main(["laws", "--scenario", str(sin_scenario), "--out-dir", str(tmp_path)]) == 0
    with pytest.raises(SystemExit):
        main(["--version"])
    assert gc.get_freeze_count() == frozen

    calls = []
    monkeypatch.setattr(cli.gc, "freeze", lambda: calls.append(None))
    monkeypatch.setattr(sys, "argv", ["cocycle-lab", "laws", "--scenario", str(sin_scenario),
                                      "--out-dir", str(tmp_path)])
    assert cli.entry_point() == 0
    monkeypatch.setattr(sys, "argv", ["cocycle-lab", "--version"])
    with contextlib.redirect_stdout(io.StringIO()), pytest.raises(SystemExit):
        cli.entry_point()
    assert len(calls) == 2


@pytest.mark.parametrize("preset, numpy_first, want", [
    (None, False, "1"),  # unset: the package pins OpenBLAS to one thread
    ("3", False, "3"),  # the user's value is kept
    (None, True, "None"),  # numpy loaded first: too late to matter, left alone
])
def test_openblas_threads_pinned_before_numpy_loads(preset, numpy_first, want):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    code = (f"import os{', numpy' if numpy_first else ''}, cocycle_lab; "
            "print(os.environ.get('OPENBLAS_NUM_THREADS'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == want


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
    assert layers["quadrature.s"] > 0
    cert = str(out / "cert_integral-instability.json")
    assert traced("check", "check", "--property", "integral-instability",
                  "--cert", cert)["certificates.samples"] > 0
    assert traced("theorem", "theorem", "--theorem", "remark-obs2",
                  "--cert", str(out / "cert_exp-instability.json"))["theorems.s"] > 0
    assert traced("report", "report", "--cert", cert)["certificates.samples"] > 0
