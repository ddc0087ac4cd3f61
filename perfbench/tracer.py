"""Traced entry point: run one cocycle-lab command with its layer calls timed.

    python3 perfbench/tracer.py SUMMARY.json ARGS...

runs ``cocycle_lab.cli.main(ARGS)`` after wrapping, from outside the
program:

* the public functions that modules call through module attributes
  (``cocycle_lab.cli.check_cocycle_laws``, ``cocycle_lab.theorems.check_decay``,
  ``cocycle_lab.certificates.norm_integral_prefix``, ...), which record spans;
* the model that ``build_model`` returns, whose ``log_factors``,
  ``cocycle`` and ``semiflow`` calls are counted;
* ``adaptive_simpson``, whose calls and integrand evaluations are counted.

Spans (name, start, end, parent) stay in memory, with one stack per
thread, until the command returns; then the per-layer totals are written
to SUMMARY.json and the process exits with the command's exit code.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
import threading
import time

import numpy as np

# Span name of each wrapped function, by module.  Estimators and checkers
# are wrapped in every module that calls them.
CERTIFICATE_FUNCTIONS = {
    "estimate_decay": "certificates.estimate",
    "estimate_instability": "certificates.estimate",
    "estimate_exp_instability": "certificates.estimate",
    "estimate_integral_instability": "certificates.estimate",
    "check_decay": "certificates.check",
    "check_instability": "certificates.check",
    "check_exp_instability": "certificates.check",
    "check_integral_instability": "certificates.check",
}
SPANS = {
    "cocycle_lab.cli": {
        "load_scenario": "cli.parse",
        "cmd_laws": "cli.cmd",
        "cmd_estimate": "cli.cmd",
        "cmd_check": "cli.cmd",
        "cmd_theorem": "cli.cmd",
        "cmd_report": "cli.cmd",
        "check_semiflow_laws": "core.laws",
        "check_cocycle_laws": "core.laws",
        **CERTIFICATE_FUNCTIONS,
    },
    "cocycle_lab.theorems": {
        "remark_obs2": "theorems",
        "prop_integral_decay_to_instability": "theorems",
        "prop_shift_necessity": "theorems",
        "prop_shift_sufficiency": "theorems",
        "thm1_necessity": "theorems",
        "thm1_sufficiency": "theorems",
        "thm2_validate": "theorems",
        "corollary_equivalence": "theorems",
        "integrate_kernel": "quadrature",
        **CERTIFICATE_FUNCTIONS,
    },
    "cocycle_lab.certificates": {"norm_integral_prefix": "quadrature"},
}
# Reports whose samples_checked a span's result adds to a counter.
SAMPLE_COUNTERS = {"core.laws": "core.laws_samples", "certificates.check": "certificates.samples"}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._lock = threading.Lock()
        self._local = threading.local()
        self._counters: list[dict[str, float]] = []

    def _thread(self):
        """This thread's (span stack, counters, [parent for an empty stack])."""
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], {}, [-1])
            with self._lock:
                self._counters.append(state[1])
        return state

    def count(self, key: str, n: float) -> None:
        counters = self._thread()[1]
        counters[key] = counters.get(key, 0) + n

    def _open(self, name: str) -> int:
        stack, _, root = self._thread()
        with self._lock:
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, stack[-1] if stack else root[0]])
        stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._thread()[0].pop()

    def span(self, name: str, fn):
        counter = SAMPLE_COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counter is not None:
                self.count(counter, result.samples_checked)
            return result

        return wrapper

    def pool(self, run_parallel):
        """Open a cli.pool span around the thread pool and make it the
        parent of the spans its worker threads open."""

        @functools.wraps(run_parallel)
        def wrapper(tasks):
            idx = self._open("cli.pool")

            def adopt(task):
                root = self._thread()[2]
                saved, root[0] = root[0], idx
                try:
                    return task()
                finally:
                    root[0] = saved

            try:
                return run_parallel([functools.partial(adopt, task) for task in tasks])
            finally:
                self._close(idx)

        return wrapper

    def counted(self, fn, calls: str, points: str):
        """Count calls of a model function and the (t, s) points they evaluate."""
        if fn is None:
            return None

        @functools.wraps(fn)
        def wrapper(t, s, *rest):
            counters = self._thread()[1]
            counters[calls] = counters.get(calls, 0) + 1
            size = np.broadcast(t, s).size if isinstance(t, np.ndarray) or isinstance(s, np.ndarray) else 1
            counters[points] = counters.get(points, 0) + size
            return fn(t, s, *rest)

        return wrapper

    def summary(self) -> dict[str, float]:
        """Per-layer totals: time in a layer's spans, their self time, and the counters."""
        children: dict[int, list[int]] = {}
        for idx, span in enumerate(self.spans):
            children.setdefault(span[3], []).append(idx)
        total: dict[str, float] = {}
        self_time: dict[str, float] = {}
        for idx, (name, start, end, _) in enumerate(self.spans):
            covered, reach = 0.0, start
            for lo, hi in sorted((self.spans[c][1], self.spans[c][2]) for c in children.get(idx, ())):
                lo, hi = max(lo, reach), min(hi, end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            total[name] = total.get(name, 0.0) + (end - start)
            self_time[name] = self_time.get(name, 0.0) + (end - start - covered)
        counts: dict[str, float] = {}
        for counters in self._counters:
            for key, value in counters.items():
                counts[key] = counts.get(key, 0) + value
        sink = counts.pop("cli.sink_s", 0.0)
        return {
            "cli.parse_s": total.get("cli.parse", 0.0),
            "cli.output_s": self_time.get("cli.cmd", 0.0) + sink,
            "core.laws_s": total.get("core.laws", 0.0),
            "certificates.estimate_s": self_time.get("certificates.estimate", 0.0),
            "certificates.check_s": self_time.get("certificates.check", 0.0) - sink,
            "quadrature.s": total.get("quadrature", 0.0),
            "theorems.s": self_time.get("theorems", 0.0),
            **counts,
        }


def install(tracer: Tracer) -> None:
    import importlib

    from cocycle_lab import cli, quadrature

    for module_name, functions in SPANS.items():
        module = importlib.import_module(module_name)
        for attr, name in functions.items():
            setattr(module, attr, tracer.span(name, getattr(module, attr)))
    cli._run_parallel = tracer.pool(cli._run_parallel)

    build_model = cli.build_model

    @functools.wraps(build_model)
    def counted_model(*args, **kwargs):
        xi = build_model(*args, **kwargs)
        return dataclasses.replace(
            xi,
            **{
                name: tracer.counted(getattr(xi, name), "models.calls", "models.points")
                for name in ("semiflow", "cocycle", "log_factors")
            },
        )

    cli.build_model = counted_model

    run_check = cli._run_check

    @functools.wraps(run_check)
    def timed_sink(sc, xi, prop, cert, margin_sink=None):
        """Time the report's margin sink, which runs inside the checkers but is cli output."""
        if margin_sink is None:
            return run_check(sc, xi, prop, cert)
        spent = [0.0]

        def sink(*row):
            t0 = time.perf_counter()
            margin_sink(*row)
            spent[0] += time.perf_counter() - t0

        try:
            return run_check(sc, xi, prop, cert, sink)
        finally:
            tracer.count("cli.sink_s", spent[0])

    cli._run_check = timed_sink

    simpson = quadrature.adaptive_simpson

    @functools.wraps(simpson)
    def counted_simpson(f, a, b, cfg):
        evals = [0]

        def integrand(x):
            evals[0] += 1
            return f(x)

        try:
            return simpson(integrand, a, b, cfg)
        finally:
            tracer.count("quadrature.segments", 1)
            tracer.count("quadrature.integrand_evals", evals[0])

    quadrature.adaptive_simpson = counted_simpson


def main(argv: list[str]) -> int:
    summary_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    from cocycle_lab import cli

    try:
        code = cli.main(cli_args)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump({"spans": len(tracer.spans), "layers": tracer.summary()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
