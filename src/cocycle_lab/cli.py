"""Scenario-driven command line front end.

Subcommands: ``laws`` (algebraic law checks), ``estimate`` (fit a
certificate), ``check`` (re-check a certificate file), ``theorem``
(run a validator), and ``report`` (emit CSV witness tables and margins).

A scenario is a JSON file selecting a model, a sample grid, and
tolerances.  All outputs are deterministic: JSON is written with sorted
keys and CSV floats use 17 significant digits, so identical scenarios
produce byte-identical files.

Exit codes: 0 when everything passed, 1 when a check failed or an
estimator found no certificate, 2 on usage, schema, or evaluation
errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import theorems
from ._version import __version__
from .certificates import (
    DEFAULT_GROWTH_CAP,
    DEFAULT_HEADROOM,
    ExpInstabilityCertificate,
    InstabilityCertificate,
    IntegralInstabilityCertificate,
    NoCertificate,
    ParametricDecay,
    TabulatedDecay,
    _float_list,
    _is_number,
    _quad_from_json,
    _require_keys,
    certificate_from_json_dict,
    certificate_to_json_dict,
    check_decay,
    check_exp_instability,
    check_instability,
    check_integral_instability,
    estimate_decay,
    estimate_exp_instability,
    estimate_instability,
    estimate_integral_instability,
)
from .core import (
    DomainError,
    PreconditionError,
    SampleGrid,
    ShiftedGenerator,
    SkewEvolutionSemiflow,
    Trivial,
    check_cocycle_laws,
    check_semiflow_laws,
    shift_cocycle,
)
from .models import build_model, default_base_points, default_vectors
from .quadrature import QuadratureConfig

PROPERTIES = ("decay", "instability", "exp-instability", "integral-instability")

_KIND_BY_PROPERTY = {
    "decay": "decay",
    "instability": "instability",
    "exp-instability": "exp_instability",
    "integral-instability": "integral_instability",
}
_PROPERTY_BY_KIND = {kind: prop for prop, kind in _KIND_BY_PROPERTY.items()}

THEOREM_CHOICES = (
    "remark-obs2",
    "prop-integral-decay",
    "prop-shift-necessity",
    "prop-shift-sufficiency",
    "thm1-necessity",
    "thm1-sufficiency",
    "thm2",
    "corollary",
)

# Input certificate kinds each validator consumes, keyed by CLI id.
_THEOREM_INPUTS = {
    "remark-obs2": ("exp_instability",),
    "prop-integral-decay": ("decay", "integral_instability"),
    "prop-shift-necessity": ("exp_instability",),
    "prop-shift-sufficiency": ("decay", "integral_instability"),
    "thm1-necessity": ("exp_instability",),
    "thm1-sufficiency": ("instability", "integral_instability"),
    "thm2": ("decay", "integral_instability"),
    "corollary": (),
}


class ScenarioError(ValueError):
    """Malformed scenario or input file; maps to exit code 2."""


# ---------------------------------------------------------------------------
# Scenario parsing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    model: dict
    grid: SampleGrid
    quad: QuadratureConfig
    margin_tol: float
    headroom: float
    growth_cap: float
    gamma: float
    seed: int | None
    nu_candidates: tuple[float, ...] | None
    alpha: float
    out_dir: str

    def to_json_dict(self) -> dict:
        return {
            "model": dict(self.model),
            "grid": {
                "times": list(self.grid.times),
                "base_points": [_base_point_doc(b) for b in self.grid.base_points],
                "vectors": [list(v) for v in self.grid.vectors],
            },
            "tolerances": {
                "quad": self.quad.to_json_dict(),
                "margin_tol": self.margin_tol,
                "headroom": self.headroom,
                "growth_cap": self.growth_cap,
            },
            "gamma": self.gamma,
            "seed": self.seed,
            "nu_candidates": None if self.nu_candidates is None else list(self.nu_candidates),
            "alpha": self.alpha,
            "out_dir": self.out_dir,
        }


def _base_point_doc(b) -> dict:
    if isinstance(b, Trivial):
        return {"kind": "trivial", "value": b.value}
    return {"kind": "generator", "n": b.n, "sigma": b.sigma}


def _parse_base_point(doc) -> Trivial | ShiftedGenerator:
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ScenarioError(f"base point entries need a 'kind' key, got {doc!r}")
    if doc["kind"] == "trivial":
        _require_keys(doc, {"kind"}, {"value"}, "trivial base point")
        return Trivial(float(doc.get("value", 0.0)))
    if doc["kind"] == "generator":
        _require_keys(doc, {"kind", "n"}, {"sigma"}, "generator base point")
        n = doc["n"]
        if not isinstance(n, int) or isinstance(n, bool):
            raise ScenarioError(f"generator n must be an integer, got {n!r}")
        return ShiftedGenerator(n, float(doc.get("sigma", 0.0)))
    raise ScenarioError(f"unknown base point kind {doc['kind']!r}")


def _parse_times(doc) -> list[float]:
    if isinstance(doc, list):
        return [float(t) for t in doc]
    if isinstance(doc, dict):
        _require_keys(doc, {"min", "max", "count"}, set(), "grid times")
        count = doc["count"]
        if not (isinstance(count, int) and not isinstance(count, bool) and count >= 1):
            raise ScenarioError(f"grid times count must be a positive integer, got {count!r}")
        return [float(t) for t in np.linspace(float(doc["min"]), float(doc["max"]), count)]
    raise ScenarioError("grid times must be a list or a {min, max, count} object")


def default_times() -> list[float]:
    return [float(t) for t in np.linspace(0.0, 16.0, 65)]


def _object(doc: dict, key: str) -> dict:
    value = doc.get(key, {})
    if not isinstance(value, dict):
        raise ScenarioError(f"{key} must be a JSON object")
    return value


def _positive(doc: dict, key: str, default: float) -> float:
    value = doc.get(key, default)
    if not (_is_number(value) and math.isfinite(value) and value > 0.0):
        raise ScenarioError(f"{key} must be a finite number > 0, got {value!r}")
    return float(value)


def parse_scenario(doc: dict, out_dir_override: str | None = None) -> tuple[Scenario, SkewEvolutionSemiflow]:
    """Validate a scenario document and build its model and grid.

    Returns the normalized scenario plus the model with any gamma shift
    applied.  Randomized vector augmentation is materialized here, so
    serializing the result and parsing it again is the identity.
    """
    if not isinstance(doc, dict):
        raise ScenarioError("scenario must be a JSON object")
    _require_keys(
        doc,
        {"model"},
        {"grid", "tolerances", "gamma", "seed", "random_vectors", "nu_candidates", "alpha", "out_dir"},
        "scenario",
    )
    base_model = build_model(doc["model"])

    tols = _object(doc, "tolerances")
    _require_keys(tols, set(), {"quad", "margin_tol", "headroom", "growth_cap"}, "tolerances")
    quad = _quad_from_json(_object(tols, "quad"), "tolerances.quad")
    margin_tol = _positive(tols, "margin_tol", 1e-9)
    headroom = _positive(tols, "headroom", DEFAULT_HEADROOM)
    growth_cap = _positive(tols, "growth_cap", DEFAULT_GROWTH_CAP)

    grid_doc = _object(doc, "grid")
    _require_keys(grid_doc, set(), {"times", "base_points", "vectors"}, "grid")
    times = _parse_times(grid_doc["times"]) if "times" in grid_doc else default_times()
    if "base_points" in grid_doc:
        bases = [_parse_base_point(b) for b in grid_doc["base_points"]]
    else:
        bases = list(default_base_points(base_model))
    if "vectors" in grid_doc:
        vectors = [[float(c) for c in v] for v in grid_doc["vectors"]]
    else:
        vectors = [list(v) for v in default_vectors(base_model.dimension)]

    seed = doc.get("seed")
    if seed is not None and not (isinstance(seed, int) and not isinstance(seed, bool)):
        raise ScenarioError(f"seed must be an integer or null, got {seed!r}")
    extra = doc.get("random_vectors", 0)
    if not (isinstance(extra, int) and not isinstance(extra, bool) and extra >= 0):
        raise ScenarioError(f"random_vectors must be a nonnegative integer, got {extra!r}")
    if extra > 0:
        if seed is None:
            raise ScenarioError("random_vectors needs an explicit seed")
        rng = np.random.default_rng(seed)
        for row in rng.standard_normal((extra, base_model.dimension)):
            vectors.append([float(c) for c in row])

    grid = SampleGrid.create(times, bases, vectors)
    grid.require_nonempty()

    gamma = float(doc.get("gamma", 0.0))
    if not math.isfinite(gamma):
        raise ScenarioError(f"gamma must be finite, got {gamma}")
    xi = shift_cocycle(base_model, gamma) if gamma != 0.0 else base_model

    nu_candidates = doc.get("nu_candidates")
    if nu_candidates is not None:
        nu_candidates = tuple(_float_list(nu_candidates, "nu_candidates"))
        if not nu_candidates:
            raise ScenarioError("nu_candidates must be null or a nonempty list")
    alpha = _positive(doc, "alpha", 1.5)

    out_dir = out_dir_override or doc.get("out_dir") or "."
    scenario = Scenario(
        model=dict(doc["model"]),
        grid=grid,
        quad=quad,
        margin_tol=margin_tol,
        headroom=headroom,
        growth_cap=growth_cap,
        gamma=gamma,
        seed=seed,
        nu_candidates=nu_candidates,
        alpha=alpha,
        out_dir=str(out_dir),
    )
    return scenario, xi


def load_scenario(path: str, out_dir_override: str | None = None) -> tuple[Scenario, SkewEvolutionSemiflow]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario {path} is not valid JSON: {exc}") from exc
    return parse_scenario(doc, out_dir_override)


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------


def _write_json(path: str, doc: dict) -> None:
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _worker_count() -> int:
    raw = os.environ.get("COCYCLE_LAB_THREADS")
    if raw is None:
        return min(4, os.cpu_count() or 1)
    try:
        n = int(raw)
    except ValueError:
        raise ScenarioError(f"COCYCLE_LAB_THREADS must be a positive integer, got {raw!r}")
    if n < 1:
        raise ScenarioError(f"COCYCLE_LAB_THREADS must be a positive integer, got {raw!r}")
    return n


def _run_parallel(tasks):
    """Run zero-argument callables, preserving submission order."""
    workers = _worker_count()
    if workers == 1 or len(tasks) <= 1:
        return [task() for task in tasks]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(task) for task in tasks]
        return [f.result() for f in futures]


def _load_json_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise ScenarioError(f"input file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path} is not valid JSON: {exc}") from exc


def _load_certificate(path: str):
    doc = _load_json_file(path)
    if isinstance(doc, dict) and "certificate" in doc and "kind" not in doc:
        doc = doc["certificate"]
    cert = certificate_from_json_dict(doc)
    if isinstance(cert, NoCertificate):
        raise ScenarioError(f"{path} records a no-certificate outcome, not a usable certificate")
    return cert


def _cert_kind(cert) -> str:
    if isinstance(cert, (ParametricDecay, TabulatedDecay)):
        return "decay"
    if isinstance(cert, InstabilityCertificate):
        return "instability"
    if isinstance(cert, ExpInstabilityCertificate):
        return "exp_instability"
    if isinstance(cert, IntegralInstabilityCertificate):
        return "integral_instability"
    raise ScenarioError(f"unsupported certificate type {type(cert).__name__}")


def _run_check(sc: Scenario, xi, prop: str, cert, margin_sink=None):
    if prop == "decay":
        return check_decay(xi, cert, sc.grid, sc.margin_tol, margin_sink)
    if prop == "instability":
        return check_instability(xi, cert, sc.grid, sc.margin_tol, margin_sink)
    if prop == "exp-instability":
        return check_exp_instability(xi, cert, sc.grid, sc.margin_tol, margin_sink)
    return check_integral_instability(xi, cert, sc.grid, sc.margin_tol, sc.quad, margin_sink)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_laws(sc: Scenario, xi) -> int:
    semiflow_report, cocycle_report = _run_parallel(
        [
            lambda: check_semiflow_laws(xi, sc.grid, sc.margin_tol),
            lambda: check_cocycle_laws(xi, sc.grid, sc.margin_tol),
        ]
    )
    doc = {
        "model": xi.descriptor,
        "grid_hash": sc.grid.grid_hash,
        "tool_version": __version__,
        "semiflow": semiflow_report.to_json_dict(),
        "cocycle": cocycle_report.to_json_dict(),
    }
    _write_json(os.path.join(sc.out_dir, "laws_report.json"), doc)
    return 0 if semiflow_report.passed and cocycle_report.passed else 1


def cmd_estimate(sc: Scenario, xi, prop: str) -> int:
    if prop == "decay":
        cert = estimate_decay(xi, sc.grid)
    elif prop == "instability":
        cert = estimate_instability(xi, sc.grid, sc.headroom)
    elif prop == "exp-instability":
        cert = estimate_exp_instability(
            xi, sc.grid, nu_candidates=sc.nu_candidates,
            growth_cap=sc.growth_cap, headroom=sc.headroom,
        )
    else:
        cert = estimate_integral_instability(xi, sc.grid, sc.quad, sc.headroom)
    _write_json(os.path.join(sc.out_dir, f"cert_{prop}.json"), certificate_to_json_dict(cert))
    return 1 if isinstance(cert, NoCertificate) else 0


def cmd_check(sc: Scenario, xi, prop: str, cert_path: str) -> int:
    cert = _load_certificate(cert_path)
    kind = _cert_kind(cert)
    if kind != _KIND_BY_PROPERTY[prop]:
        raise ScenarioError(
            f"certificate kind {kind!r} does not match property {prop!r}"
        )
    report = _run_check(sc, xi, prop, cert)
    doc = {
        "property": prop,
        "certificate": certificate_to_json_dict(cert),
        "certificate_grid_hash": cert.grid_hash,
        "scenario_grid_hash": sc.grid.grid_hash,
        "tool_version": __version__,
        "report": report.to_json_dict(),
    }
    _write_json(os.path.join(sc.out_dir, f"check_{prop}.json"), doc)
    return 0 if report.passed else 1


def cmd_theorem(sc: Scenario, xi, theorem_id: str, cert_paths: list[str]) -> int:
    wanted = _THEOREM_INPUTS[theorem_id]
    slots: dict[str, object] = {}
    for path in cert_paths:
        cert = _load_certificate(path)
        kind = _cert_kind(cert)
        if kind not in wanted:
            raise ScenarioError(
                f"theorem {theorem_id} does not take a {kind} certificate ({path})"
            )
        if kind in slots:
            raise ScenarioError(f"duplicate {kind} certificate input ({path})")
        slots[kind] = cert
    missing = [kind for kind in wanted if kind not in slots]
    if missing:
        raise ScenarioError(
            f"theorem {theorem_id} is missing input certificates: {', '.join(missing)}"
        )
    grid, quad, tol = sc.grid, sc.quad, sc.margin_tol
    if theorem_id == "remark-obs2":
        run = theorems.remark_obs2(slots["exp_instability"], xi, grid, tol)
    elif theorem_id == "prop-integral-decay":
        run = theorems.prop_integral_decay_to_instability(
            slots["decay"], slots["integral_instability"], xi, grid, quad, tol
        )
    elif theorem_id == "prop-shift-necessity":
        run = theorems.prop_shift_necessity(slots["exp_instability"], xi, grid, quad, tol)
    elif theorem_id == "prop-shift-sufficiency":
        run = theorems.prop_shift_sufficiency(
            sc.alpha, slots["integral_instability"], slots["decay"], xi, grid, quad, tol,
            headroom=sc.headroom,
        )
    elif theorem_id == "thm1-necessity":
        run = theorems.thm1_necessity(slots["exp_instability"], xi, grid, quad, tol)
    elif theorem_id == "thm1-sufficiency":
        run = theorems.thm1_sufficiency(
            slots["instability"], slots["integral_instability"], xi, grid, quad, tol
        )
    elif theorem_id == "thm2":
        run = theorems.thm2_validate(
            slots["decay"], slots["integral_instability"], xi, grid, quad, tol
        )
    else:
        run = theorems.corollary_equivalence(
            xi, grid, quad, tol, nu_candidates=sc.nu_candidates, growth_cap=sc.growth_cap
        )
    doc = run.to_json_dict()
    doc["tool_version"] = __version__
    doc["scenario_grid_hash"] = sc.grid.grid_hash
    _write_json(os.path.join(sc.out_dir, f"theorem_{theorem_id}.json"), doc)
    return 0 if run.verdict == "pass" else 1


def cmd_report(sc: Scenario, xi, input_paths: list[str]) -> int:
    if not input_paths:
        raise ScenarioError("report needs at least one certificate or check file (--cert)")
    loaded = []
    for path in input_paths:
        cert = _load_certificate(path)
        loaded.append((_PROPERTY_BY_KIND[_cert_kind(cert)], cert))

    def margins_for(item):
        prop, cert = item
        rows = []

        def sink(t, s, t0, base, vector, margin):
            rows.append((prop, t, s, t0, base, vector, margin))

        _run_check(sc, xi, prop, cert, sink)
        return rows

    all_rows = _run_parallel([lambda item=item: margins_for(item) for item in loaded])

    margins_path = os.path.join(sc.out_dir, "margins.csv")
    with open(margins_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["property", "t", "s", "t0", "base", "vector", "margin"])
        for rows in all_rows:
            for prop, t, s, t0, base, vector, margin in rows:
                writer.writerow([prop, _fmt(t), _fmt(s), _fmt(t0), base, vector, _fmt(margin)])

    columns: dict[str, object] = {}
    for prop, cert in loaded:
        if prop == "decay":
            columns.setdefault("f_hat", cert)
        elif prop == "instability":
            columns.setdefault("N_hat", cert.N)
        elif prop == "exp-instability":
            # The exp-instability witness takes the N_hat column even if a
            # plain instability certificate was also supplied.
            columns["N_hat"] = cert.N
            columns["nu"] = cert.nu
        else:
            columns.setdefault("M_hat", cert.M)
    header = ["t"] + [name for name in ("f_hat", "N_hat", "M_hat", "nu") if name in columns]
    tables_path = os.path.join(sc.out_dir, "witness_tables.csv")
    with open(tables_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for t in sc.grid.times:
            row = [_fmt(t)]
            for name in header[1:]:
                source = columns[name]
                row.append(_fmt(source if name == "nu" else source.value(t)))
            writer.writerow(row)
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cocycle-lab",
        description="Grid-based certificate checks for skew-evolution semiflows.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--scenario", required=True, help="path to a scenario JSON file")
        p.add_argument("--out-dir", default=None, help="output directory (overrides the scenario)")

    p_laws = sub.add_parser("laws", help="check the semiflow and cocycle laws")
    common(p_laws)

    p_est = sub.add_parser("estimate", help="fit a certificate from grid data")
    common(p_est)
    p_est.add_argument("--property", required=True, choices=PROPERTIES)

    p_check = sub.add_parser("check", help="re-check a certificate file on the scenario grid")
    common(p_check)
    p_check.add_argument("--property", required=True, choices=PROPERTIES)
    p_check.add_argument("--cert", required=True, help="certificate JSON file")

    p_thm = sub.add_parser("theorem", help="run a certificate transformation validator")
    common(p_thm)
    p_thm.add_argument("--theorem", required=True, choices=THEOREM_CHOICES)
    p_thm.add_argument("--cert", action="append", default=[], help="input certificate file (repeatable)")

    p_rep = sub.add_parser("report", help="emit witness_tables.csv and margins.csv")
    common(p_rep)
    p_rep.add_argument("--cert", action="append", default=[], help="certificate or check file (repeatable)")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        sc, xi = load_scenario(args.scenario, args.out_dir)
        os.makedirs(sc.out_dir, exist_ok=True)
        if args.command == "laws":
            return cmd_laws(sc, xi)
        if args.command == "estimate":
            return cmd_estimate(sc, xi, args.property)
        if args.command == "check":
            return cmd_check(sc, xi, args.property, args.cert)
        if args.command == "theorem":
            return cmd_theorem(sc, xi, args.theorem, args.cert)
        return cmd_report(sc, xi, args.cert)
    except (
        ScenarioError, PreconditionError, DomainError, OSError, ValueError, TypeError, OverflowError
    ) as exc:
        print(f"cocycle-lab: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
