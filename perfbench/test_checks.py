"""Tests of the benchmark's own output checks.

    python3 -m pytest perfbench/test_checks.py

Each workload runs once through the real CLI on a 9-point time grid, so
the checks see genuine outputs; then a witness value nudged by 1e-6
relative, or a margins.csv missing a row, must fail the command that
wrote it (negative controls).
"""

from __future__ import annotations

import json
import math
import os
import shutil
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(HERE)


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def finished(request, tmp_path_factory):
    """A workload on a small grid, its round directory and the processes' exit codes."""
    wl = workloads.WORKLOADS[request.param](3)
    for doc in wl.scenarios.values():
        times = doc.setdefault("grid", {}).setdefault("times", {"min": 0.0, "max": 16.0})
        times["count"] = 9
    base = tmp_path_factory.mktemp(request.param)
    inputs, round_dir = base / "inputs", base / "round"
    inputs.mkdir()
    round_dir.mkdir()
    for name, doc in wl.scenarios.items():
        (inputs / f"{name}.json").write_text(json.dumps(doc))
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        procs = run.run_round(
            wl, str(inputs), str(round_dir), run.child_env(), trace=False,
            deadline=time.perf_counter() + run.RUN_LIMIT_S,
        )
    finally:
        os.chdir(cwd)
    return wl, round_dir, [p.exit_code for p in procs]


def failing(wl, round_dir, exits) -> set[str]:
    problems = checks.check_round(wl, str(round_dir), exits)
    return {cmd.label for cmd, found in zip(wl.commands, problems) if found}


def damaged_copy(round_dir, tmp_path):
    copy = tmp_path / "damaged"
    shutil.copytree(round_dir, copy)
    return copy


def test_outputs_pass_the_checks(finished):
    wl, round_dir, exits = finished
    known = {cmd.label for cmd in wl.commands if cmd.known_fault}
    assert failing(wl, round_dir, exits) <= known


def test_nudged_witness_value_fails_its_estimate(finished, tmp_path):
    wl, round_dir, exits = finished
    for cmd in wl.commands:
        if cmd.verb != "estimate" or cmd.expect_exit != 0:
            continue
        copy = damaged_copy(round_dir, tmp_path / cmd.label.replace(" ", "_"))
        path = copy / cmd.scenario / f"cert_{cmd.target}.json"
        doc = json.loads(path.read_text())
        table = doc if cmd.target == "decay" else doc["M" if "M" in doc else "N"]
        table["values"][len(table["values"]) // 2] *= 1.0 + 1e-6
        path.write_text(json.dumps(doc))
        assert cmd.label in failing(wl, copy, exits)


def test_margins_missing_a_row_fails_the_report(finished, tmp_path):
    wl, round_dir, exits = finished
    for cmd in wl.commands:
        if cmd.verb != "report":
            continue
        copy = damaged_copy(round_dir, tmp_path / cmd.scenario)
        path = copy / cmd.scenario / "margins.csv"
        lines = path.read_text().splitlines(keepends=True)
        del lines[len(lines) // 2]
        path.write_text("".join(lines))
        assert cmd.label in failing(wl, copy, exits)


@pytest.mark.parametrize("rate", [2.3, 0.6, -1.2])
def test_reference_reduces_to_the_exponential_closed_forms(rate):
    """On e^{r (t - s)} the reference witnesses are the closed forms of the README."""
    ref = checks.Reference(
        {"model": {"kind": "pure_exponential", "rate": rate},
         "grid": {"times": {"min": 0.0, "max": 8.0, "count": 17}}}
    )
    t, h = ref.times, ref.headroom
    f_hat = np.minimum.accumulate(np.minimum(1.0, np.exp(rate * t)))
    n_hat = (1 + h) * np.maximum(1.0, np.exp(-rate * t))
    m_hat = np.maximum(1.0, (1 + h) * -np.expm1(-rate * t) / rate)
    np.testing.assert_allclose(np.exp(ref.decay_logs()), f_hat, rtol=1e-12)
    np.testing.assert_allclose(np.exp(ref.instability_logs()), n_hat, rtol=1e-12)
    np.testing.assert_allclose(np.exp(ref.integral_logs()), m_hat, rtol=1e-12)
    nu, logs = ref.exp_fit()
    if rate > 0:
        assert nu == max(c for c in checks.DEFAULT_LADDER if c <= rate)
        np.testing.assert_allclose(np.exp(logs), 1 + h, rtol=1e-12)
    else:
        assert nu is None
        assert math.isclose(ref.envelopes[1], rate, rel_tol=1e-12)
