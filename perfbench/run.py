"""Benchmark runner: drives the cocycle-lab CLI the way a user's shell script does.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every command of the workload is a
fresh ``python -m cocycle_lab.cli`` process on the checkout's ``src/``,
started only after the previous one ended: one client in a closed loop.
A run is one round of the workload's commands; the workloads are sized
so that a round lasts about ``--seconds`` (30 s).  The outputs are then
checked (see checks.py), and the sha256 of every output file is printed
so that runs of the same code and seed can be compared byte for byte.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` starts each
command through tracer.py instead and reports the per-layer metrics.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import checks
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_ROOT = ".perfbench_out"
SETUP_REPEATS = 9
# A run must end within 180 s; a hung command is killed at this limit.
RUN_LIMIT_S = 160.0

STAGES = (
    "laws",
    "estimate.decay",
    "estimate.instability",
    "estimate.exp-instability",
    "estimate.integral-instability",
    "check",
    "report",
    "theorem",
)
LAYER_TIMES = (
    "cli.parse_s",
    "cli.output_s",
    "core.laws_s",
    "certificates.estimate_s",
    "certificates.check_s",
    "quadrature.s",
    "theorems.s",
)
LAYER_COUNTS = (
    "models.calls",
    "models.points",
    "core.laws_samples",
    "certificates.samples",
    "quadrature.segments",
    "quadrature.integrand_evals",
)


@dataclass
class Process:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int


def spawn(argv: list[str], env: dict, log_path: str, deadline: float) -> Process:
    """Run one process to its end, or kill it at the deadline (a perf_counter time);
    CPU time and peak RSS come from its wait4 rusage."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(max(0.0, deadline - time.perf_counter()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Process(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss * 1024 / 1e6, proc.returncode)


def child_env() -> dict:
    """The user's environment with the checkout's src/ first on the path and
    COCYCLE_LAB_THREADS unset, as a user leaves it."""
    env = dict(os.environ)
    env.pop("COCYCLE_LAB_THREADS", None)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_round(
    wl: workloads.Workload, inputs: str, round_dir: str, env: dict, trace: bool, deadline: float
) -> list[Process]:
    procs = []
    for idx, cmd in enumerate(wl.commands):
        argv = cmd.argv(os.path.join(inputs, f"{cmd.scenario}.json"), os.path.join(round_dir, cmd.scenario))
        if trace:
            prog = [sys.executable, os.path.join(HERE, "tracer.py"), os.path.join(round_dir, f"trace{idx}.json")]
        else:
            prog = [sys.executable, "-m", "cocycle_lab.cli"]
        procs.append(spawn(prog + argv, env, os.path.join(round_dir, f"log{idx}.txt"), deadline))
    return procs


def output_digests(wl: workloads.Workload, round_dir: str) -> dict[str, str]:
    digests = {}
    for scenario in wl.scenarios:
        folder = os.path.join(round_dir, scenario)
        for name in sorted(os.listdir(folder)) if os.path.isdir(folder) else ():
            with open(os.path.join(folder, name), "rb") as fh:
                digests[f"{scenario}/{name}"] = hashlib.file_digest(fh, "sha256").hexdigest()
    return digests


def folder_mb(path: str) -> float:
    total = 0
    for folder, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(folder, f)) for f in files)
    return total / 1e6


def layer_metrics(wl: workloads.Workload, round_dir: str, procs: list[Process]) -> dict[str, float]:
    out = {f"cli.stage.{stage}_s": 0.0 for stage in STAGES}
    out.update({name: 0.0 for name in LAYER_TIMES})
    out.update({name: 0 for name in LAYER_COUNTS})
    for idx, (cmd, proc) in enumerate(zip(wl.commands, procs)):
        out[f"cli.stage.{cmd.stage}_s"] += proc.wall_s
        with open(os.path.join(round_dir, f"trace{idx}.json"), encoding="utf-8") as fh:
            for name, value in json.load(fh)["layers"].items():
                out[name] += value
    out["cli.output_mb"] = sum(folder_mb(os.path.join(round_dir, s)) for s in wl.scenarios)
    out["quadrature.evals_per_segment"] = out["quadrature.integrand_evals"] / out["quadrature.segments"]
    return out


UNITS = {
    "pipeline_s": "s", "pipeline_cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
    "cli.output_mb": "MB", "quadrature.evals_per_segment": "ratio",
    **{name: "count" for name in LAYER_COUNTS},
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    # The workloads fix a round's length; a run is always one round.
    parser.add_argument("--seconds", type=float, required=True, help="nominal run length (one round)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.perf_counter() + RUN_LIMIT_S
    # A terminated run still stops the command it is waiting on (see spawn).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join("src", "cocycle_lab", "cli.py")):
        print("perfbench: run from the root of a cocycle-lab checkout (src/cocycle_lab missing)", file=sys.stderr)
        return 2

    wl = workloads.WORKLOADS[args.workload](args.seed)
    run_dir = os.path.join(OUT_ROOT, f"{wl.name}-{args.seed}-{os.getpid()}")
    inputs = os.path.join(run_dir, "inputs")
    os.makedirs(inputs)
    try:
        return measure(wl, args, run_dir, inputs, deadline)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def measure(wl: workloads.Workload, args, run_dir: str, inputs: str, deadline: float) -> int:
    for name, doc in wl.scenarios.items():
        with open(os.path.join(inputs, f"{name}.json"), "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
    env = child_env()
    metrics: dict[str, float] = {}
    if not args.trace:
        version = [sys.executable, "-m", "cocycle_lab.cli", "--version"]
        setups = [spawn(version, env, os.path.join(run_dir, "setup.txt"), deadline) for _ in range(SETUP_REPEATS)]
        if any(p.exit_code != 0 for p in setups):
            print("perfbench: `python -m cocycle_lab.cli --version` failed", file=sys.stderr)
            return 1
        metrics["setup_s"] = statistics.median(p.wall_s for p in setups)

    round_dir = os.path.join(run_dir, "round")
    os.makedirs(round_dir)
    start = time.perf_counter()
    procs = run_round(wl, inputs, round_dir, env, bool(args.trace), deadline)
    pipeline_s = time.perf_counter() - start

    failed = 0
    unexplained = 0
    found = checks.check_round(wl, round_dir, [p.exit_code for p in procs])
    for cmd, proc, problems in zip(wl.commands, procs, found):
        status = "FAILED" if problems else "ok"
        print(f"{proc.wall_s:8.3f}s exit={proc.exit_code} {status:6} {cmd.label}")
        for problem in problems:
            print(f"          {problem}")
        if problems:
            failed += 1
            if cmd.known_fault is None:
                unexplained += 1
            else:
                print(f"          known fault: {cmd.known_fault}")
    for path, digest in output_digests(wl, round_dir).items():
        print(f"sha256 {digest} {path}")

    if args.trace:
        metrics.update(layer_metrics(wl, round_dir, procs))
        print(f"traced pipeline_s {pipeline_s:.3f}")
    else:
        metrics["pipeline_s"] = pipeline_s
        metrics["pipeline_cpu_s"] = sum(p.cpu_s for p in procs)
        metrics["peak_rss_mb"] = max(p.peak_rss_mb for p in procs)

    result = {
        "correct": unexplained == 0,
        "attempted": len(wl.commands),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS.get(name, "s")} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
