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
errors, and when the run ran out of memory.
"""

from __future__ import annotations

import argparse
import csv
import gc
import io
import json
import os
import sys
from dataclasses import dataclass
from itertools import chain, groupby, repeat
from types import UnionType
from typing import Callable

import numpy as np

from ._version import __version__
from .certificates import (
    DEFAULT_GROWTH_CAP,
    DEFAULT_HEADROOM,
    DecayCertificate,
    ExpInstabilityCertificate,
    InstabilityCertificate,
    IntegralInstabilityCertificate,
    NoCertificate,
    _nu_ladder,
    _quad_from_json,
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
    PreconditionError,
    SampleGrid,
    ShiftedGenerator,
    SkewEvolutionSemiflow,
    Trivial,
    _float_list,
    _integer,
    _number,
    _require_keys,
    check_cocycle_laws,
    check_semiflow_laws,
    shift_cocycle,
)
from .models import build_model, default_base_points, default_vectors
from .quadrature import QuadratureConfig, QuadratureDepthError


# The tables call estimators, checkers and validators by their module-level
# names at call time, never through function objects bound at import, so
# wrappers installed on those names (perfbench/tracer.py) see every call.


@dataclass(frozen=True)
class _Property:
    certificates: type | UnionType
    estimate: Callable  # (scenario, model) -> certificate
    check: Callable  # (scenario, model, certificate, margin sink) -> CheckReport
    columns: Callable  # certificate -> {witness_tables.csv column: function of t}


PROPERTIES = {
    "decay": _Property(
        DecayCertificate,
        lambda sc, xi: estimate_decay(xi, sc.grid),
        lambda sc, xi, cert, sink: check_decay(xi, cert, sc.grid, sc.margin_tol, sink),
        lambda cert: {"f_hat": cert.value},
    ),
    "instability": _Property(
        InstabilityCertificate,
        lambda sc, xi: estimate_instability(xi, sc.grid, sc.headroom),
        lambda sc, xi, cert, sink: check_instability(xi, cert, sc.grid, sc.margin_tol, sink),
        lambda cert: {"N_hat": cert.N.value},
    ),
    # Columns are filled in this order, so the exp-instability witness takes
    # the N_hat column even if a plain instability certificate was also supplied.
    "exp-instability": _Property(
        ExpInstabilityCertificate,
        lambda sc, xi: estimate_exp_instability(
            xi, sc.grid, nu_candidates=sc.nu_candidates, growth_cap=sc.growth_cap, headroom=sc.headroom
        ),
        lambda sc, xi, cert, sink: check_exp_instability(xi, cert, sc.grid, sc.margin_tol, sink),
        lambda cert: {"N_hat": cert.N.value, "nu": lambda t: cert.nu},
    ),
    "integral-instability": _Property(
        IntegralInstabilityCertificate,
        lambda sc, xi: estimate_integral_instability(xi, sc.grid, sc.quad, sc.headroom),
        lambda sc, xi, cert, sink: check_integral_instability(
            xi, cert, sc.grid, sc.margin_tol, sc.quad, sink
        ),
        lambda cert: {"M_hat": cert.M.value},
    ),
}

# Theorem id -> (input properties, runner(theorems module, scenario, model,
# certificates by property)).  Only ``theorem`` imports the theorems module.
THEOREMS = {
    "remark-obs2": (("exp-instability",), lambda thm, sc, xi, c: thm.remark_obs2(
        c["exp-instability"], xi, sc.grid, sc.margin_tol)),
    "prop-integral-decay": (("decay", "integral-instability"), lambda thm, sc, xi, c: (
        thm.prop_integral_decay_to_instability(
            c["decay"], c["integral-instability"], xi, sc.grid, sc.quad, sc.margin_tol))),
    "prop-shift-necessity": (("exp-instability",), lambda thm, sc, xi, c: thm.prop_shift_necessity(
        c["exp-instability"], xi, sc.grid, sc.quad, sc.margin_tol)),
    "prop-shift-sufficiency": (("decay", "integral-instability"), lambda thm, sc, xi, c: (
        thm.prop_shift_sufficiency(
            sc.alpha, c["integral-instability"], c["decay"], xi, sc.grid, sc.quad, sc.margin_tol,
            headroom=sc.headroom))),
    "thm1-necessity": (("exp-instability",), lambda thm, sc, xi, c: thm.thm1_necessity(
        c["exp-instability"], xi, sc.grid, sc.quad, sc.margin_tol)),
    "thm1-sufficiency": (("instability", "integral-instability"), lambda thm, sc, xi, c: thm.thm1_sufficiency(
        c["instability"], c["integral-instability"], xi, sc.grid, sc.quad, sc.margin_tol)),
    "thm2": (("decay", "integral-instability"), lambda thm, sc, xi, c: thm.thm2_validate(
        c["decay"], c["integral-instability"], xi, sc.grid, sc.quad, sc.margin_tol)),
    "corollary": ((), lambda thm, sc, xi, c: thm.corollary_equivalence(
        xi, sc.grid, sc.quad, sc.margin_tol, nu_candidates=sc.nu_candidates, growth_cap=sc.growth_cap)),
}


# ---------------------------------------------------------------------------
# Scenario parsing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    grid: SampleGrid
    quad: QuadratureConfig
    margin_tol: float
    headroom: float
    growth_cap: float
    nu_candidates: tuple[float, ...] | None
    alpha: float
    out_dir: str


def _parse_base_point(doc) -> Trivial | ShiftedGenerator:
    if not isinstance(doc, dict) or "kind" not in doc:
        raise PreconditionError(f"base point entries need a 'kind' key, got {doc!r}")
    if doc["kind"] == "trivial":
        _require_keys(doc, {"kind"}, {"value"}, "trivial base point")
        return Trivial(_number(doc, "value", 0.0))
    if doc["kind"] == "generator":
        _require_keys(doc, {"kind", "n"}, {"sigma"}, "generator base point")
        return ShiftedGenerator(_integer(doc, "n", name="generator n"), _number(doc, "sigma", 0.0))
    raise PreconditionError(f"unknown base point kind {doc['kind']!r}")


def _parse_times(doc) -> list[float]:
    if isinstance(doc, list):
        return _float_list(doc, "grid times")
    if isinstance(doc, dict):
        _require_keys(doc, {"min", "max", "count"}, set(), "grid times")
        count = _integer(doc, "count", minimum=1, name="grid times count")
        if count > sys.maxsize // 8:  # no float64 array of that many entries can exist
            raise PreconditionError(f"grid times count must be at most {sys.maxsize // 8}")
        lo, hi = _number(doc, "min", 0.0), _number(doc, "max", 0.0)
        with np.errstate(over="ignore", invalid="ignore"):  # an overflowed span fails the grid's checks
            return [float(t) for t in np.linspace(lo, hi, count)]
    raise PreconditionError("grid times must be a list or a {min, max, count} object")


def default_times() -> list[float]:
    return [float(t) for t in np.linspace(0.0, 16.0, 65)]


def _object(doc: dict, key: str) -> dict:
    value = doc.get(key, {})
    if not isinstance(value, dict):
        raise PreconditionError(f"{key} must be a JSON object")
    return value


def _grid_list(grid_doc: dict, key: str) -> list:
    value = grid_doc[key]
    if not isinstance(value, list):
        raise PreconditionError(f"grid.{key} must be a JSON list, got {value!r}")
    return value


def parse_scenario(doc: dict, out_dir_override: str | None = None) -> tuple[Scenario, SkewEvolutionSemiflow]:
    """Validate a scenario document and build its model and grid.

    Returns the normalized scenario plus the model with any gamma shift
    applied.  Seeded random vectors are materialized into the grid here,
    so the grid (and its hash) depends only on the document.
    """
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
    margin_tol = _number(tols, "margin_tol", 1e-9, positive=True)
    headroom = _number(tols, "headroom", DEFAULT_HEADROOM, positive=True)
    growth_cap = _number(tols, "growth_cap", DEFAULT_GROWTH_CAP, positive=True)

    grid_doc = _object(doc, "grid")
    _require_keys(grid_doc, set(), {"times", "base_points", "vectors"}, "grid")
    times = _parse_times(grid_doc["times"]) if "times" in grid_doc else default_times()
    if "base_points" in grid_doc:
        bases = [_parse_base_point(b) for b in _grid_list(grid_doc, "base_points")]
    else:
        bases = list(default_base_points(base_model))
    if "vectors" in grid_doc:
        vectors = [_float_list(v, "grid vectors entry") for v in _grid_list(grid_doc, "vectors")]
    else:
        vectors = [list(v) for v in default_vectors(base_model.dimension)]

    seed = None if doc.get("seed") is None else _integer(doc, "seed")
    extra = _integer(doc, "random_vectors", 0, minimum=0)
    if extra > 0:
        if seed is None:
            raise PreconditionError("random_vectors needs an explicit seed")
        if extra * base_model.dimension > sys.maxsize:  # no numpy array of that many entries can exist
            raise PreconditionError(f"random_vectors must be at most {sys.maxsize // base_model.dimension}")
        rng = np.random.default_rng(seed)
        for row in rng.standard_normal((extra, base_model.dimension)):
            vectors.append([float(c) for c in row])

    grid = SampleGrid.create(times, bases, vectors)

    gamma = _number(doc, "gamma", 0.0)
    xi = shift_cocycle(base_model, gamma) if gamma != 0.0 else base_model

    nu_candidates = doc.get("nu_candidates")
    if nu_candidates is not None:
        nu_candidates = _nu_ladder(_float_list(nu_candidates, "nu_candidates"))
    alpha = _number(doc, "alpha", 1.5, positive=True)

    out_dir = doc.get("out_dir")
    if out_dir is not None and not isinstance(out_dir, str):
        raise PreconditionError(f"out_dir must be a string or null, got {out_dir!r}")
    scenario = Scenario(
        grid=grid,
        quad=quad,
        margin_tol=margin_tol,
        headroom=headroom,
        growth_cap=growth_cap,
        nu_candidates=nu_candidates,
        alpha=alpha,
        out_dir=out_dir_override or out_dir or ".",
    )
    return scenario, xi


def load_scenario(path: str, out_dir_override: str | None = None) -> tuple[Scenario, SkewEvolutionSemiflow]:
    return parse_scenario(_load_json_file(path), out_dir_override)


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------


def _create(sc: Scenario, name: str):
    """Open the output file ``name`` for writing, making the output directory
    first: a command that fails before its first write leaves no directory."""
    os.makedirs(sc.out_dir, exist_ok=True)
    return open(os.path.join(sc.out_dir, name), "w", encoding="utf-8", newline="")


def _write_json(sc: Scenario, name: str, doc: dict) -> None:
    """Write ``doc`` as strict JSON: a non-finite float raises ValueError, so
    reports spell such margins out as strings (``core._json_float``)."""
    text = json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"
    with _create(sc, name) as fh:
        fh.write(text)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _csv_field(text: str) -> str:
    """``text`` as ``csv.writer`` writes it as one field of a longer row."""
    buf = io.StringIO()
    csv.writer(buf).writerow([text, ""])
    return buf.getvalue()[: -len(",\r\n")]


def _grid_texts(pieces) -> list[str]:
    """``_fmt`` of every value of the arrays ``pieces``, in order, formatting each distinct float once."""
    bits, inverse = np.unique(np.concatenate(pieces, dtype=float).view(np.int64), return_inverse=True)
    texts = np.array(list(map(_fmt, bits.view(float).tolist())), dtype=object)
    return texts[inverse].tolist()


def _margin_rows(prop: str, batches) -> str:
    """The margin sink batches of one base point and vector as the margins.csv
    rows that ``csv.writer`` writes for
    ``[prop, _fmt(t), _fmt(s), _fmt(t0), base, vector, _fmt(margin)]``, each
    ending in CRLF.  Formatted together, the batches pay the per-call costs once."""
    ts, ss, t0s, bases, vectors, margins = zip(*batches)
    if not any(map(len, margins)):
        return ""
    rows = zip(
        repeat(_csv_field(prop)),
        _grid_texts(ts),
        _grid_texts(ss),
        _grid_texts(t0s),
        repeat(f"{_csv_field(bases[0])},{_csv_field(vectors[0])}"),
        map(format, chain.from_iterable(m.tolist() for m in margins), repeat(".17g")),
    )
    return "\r\n".join(map(",".join, rows)) + "\r\n"


def _run_parallel(tasks):
    """Run zero-argument callables in order on the calling thread.

    perfbench/tracer.py wraps this function by name.
    """
    return [task() for task in tasks]


def _load_json_file(path: str) -> dict:
    """Parse the JSON file ``path``; NaN, Infinity and -Infinity, which
    ``json`` accepts although JSON has no such numbers, are rejected."""

    def no_constant(name: str):
        raise PreconditionError(f"{path} is not valid JSON: {name} is not a JSON number")

    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_constant=no_constant)
    except FileNotFoundError as exc:
        raise PreconditionError(f"input file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise PreconditionError(f"{path} is not valid JSON: {exc}") from exc


def _load_certificate(path: str, sc: Scenario):
    """Read a certificate (or the one a check file embeds), noting on stderr
    when it records a grid other than the scenario's."""
    doc = _load_json_file(path)
    if isinstance(doc, dict) and "certificate" in doc and "kind" not in doc:
        doc = doc["certificate"]
    cert = certificate_from_json_dict(doc)
    if isinstance(cert, NoCertificate):
        raise PreconditionError(f"{path} records a no-certificate outcome, not a usable certificate")
    if cert.grid_hash and cert.grid_hash != sc.grid.grid_hash:
        print(
            f"cocycle-lab: note: {path} was fitted on another grid (grid_hash {cert.grid_hash}, "
            f"scenario {sc.grid.grid_hash})",
            file=sys.stderr,
        )
    return cert


def _property_of(cert) -> str:
    for prop, entry in PROPERTIES.items():
        if isinstance(cert, entry.certificates):
            return prop
    raise PreconditionError(f"unsupported certificate type {type(cert).__name__}")


def _load_inputs(paths: list[str], sc: Scenario, user: str, takes) -> dict[str, object]:
    """The input certificates by property: one per property, of the properties ``user`` takes."""
    certs: dict[str, object] = {}
    for path in paths:
        cert = _load_certificate(path, sc)
        prop = _property_of(cert)
        if prop not in takes:
            raise PreconditionError(f"{user} takes no {prop} certificate ({path})")
        if prop in certs:
            raise PreconditionError(f"duplicate {prop} certificate input ({path})")
        certs[prop] = cert
    return certs


def _run_check(sc: Scenario, xi, prop: str, cert, margin_sink=None):
    return PROPERTIES[prop].check(sc, xi, cert, margin_sink)


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
    _write_json(sc, "laws_report.json", doc)
    return 0 if semiflow_report.passed and cocycle_report.passed else 1


def cmd_estimate(sc: Scenario, xi, prop: str) -> int:
    cert = PROPERTIES[prop].estimate(sc, xi)
    _write_json(sc, f"cert_{prop}.json", certificate_to_json_dict(cert))
    return 1 if isinstance(cert, NoCertificate) else 0


def cmd_check(sc: Scenario, xi, prop: str, cert_path: str) -> int:
    cert = _load_certificate(cert_path, sc)
    found = _property_of(cert)
    if found != prop:
        raise PreconditionError(f"a {found} certificate does not match property {prop!r}")
    report = _run_check(sc, xi, prop, cert)
    doc = {
        "property": prop,
        "certificate": certificate_to_json_dict(cert),
        "certificate_grid_hash": cert.grid_hash,
        "scenario_grid_hash": sc.grid.grid_hash,
        "tool_version": __version__,
        "report": report.to_json_dict(),
    }
    _write_json(sc, f"check_{prop}.json", doc)
    return 0 if report.passed else 1


def cmd_theorem(sc: Scenario, xi, theorem_id: str, cert_paths: list[str]) -> int:
    wanted, runner = THEOREMS[theorem_id]
    slots = _load_inputs(cert_paths, sc, f"theorem {theorem_id}", wanted)
    missing = [prop for prop in wanted if prop not in slots]
    if missing:
        raise PreconditionError(
            f"theorem {theorem_id} is missing input certificates: {', '.join(missing)}"
        )
    from . import theorems

    run = runner(theorems, sc, xi, slots)
    doc = run.to_json_dict()
    doc["tool_version"] = __version__
    doc["scenario_grid_hash"] = sc.grid.grid_hash
    _write_json(sc, f"theorem_{theorem_id}.json", doc)
    return 0 if run.verdict == "pass" else 1


def cmd_report(sc: Scenario, xi, input_paths: list[str]) -> int:
    if not input_paths:
        raise PreconditionError("report needs at least one certificate or check file (--cert)")
    loaded = _load_inputs(input_paths, sc, "report", PROPERTIES)

    def margins_for(item):
        prop, cert = item
        batches = []
        _run_check(sc, xi, prop, cert, lambda *batch: batches.append(batch))
        return batches

    # Every check runs and every witness table row is formatted before
    # either file is opened, so a failure leaves no partial file behind.
    all_batches = _run_parallel([lambda item=item: margins_for(item) for item in loaded.items()])
    columns: dict[str, Callable] = {}
    for prop, entry in PROPERTIES.items():
        if prop in loaded:
            columns.update(entry.columns(loaded[prop]))
    header = ["t"] + [name for name in ("f_hat", "N_hat", "M_hat", "nu") if name in columns]
    table = [[_fmt(t)] + [_fmt(columns[name](t)) for name in header[1:]] for t in sc.grid.times]

    with _create(sc, "margins.csv") as fh:
        csv.writer(fh).writerow(["property", "t", "s", "t0", "base", "vector", "margin"])
        for prop, batches in zip(loaded, all_batches):
            for _, group in groupby(batches, key=lambda batch: batch[3:5]):  # one (base, vector) at a time
                fh.write(_margin_rows(prop, group))
    with _create(sc, "witness_tables.csv") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(table)
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
    p_est.add_argument("--property", required=True, choices=tuple(PROPERTIES))

    p_check = sub.add_parser("check", help="re-check a certificate file on the scenario grid")
    common(p_check)
    p_check.add_argument("--property", required=True, choices=tuple(PROPERTIES))
    p_check.add_argument("--cert", required=True, help="certificate JSON file")

    p_thm = sub.add_parser("theorem", help="run a certificate transformation validator")
    common(p_thm)
    p_thm.add_argument("--theorem", required=True, choices=tuple(THEOREMS))
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
        if args.command == "laws":
            return cmd_laws(sc, xi)
        if args.command == "estimate":
            return cmd_estimate(sc, xi, args.property)
        if args.command == "check":
            return cmd_check(sc, xi, args.property, args.cert)
        if args.command == "theorem":
            return cmd_theorem(sc, xi, args.theorem, args.cert)
        return cmd_report(sc, xi, args.cert)
    except (ValueError, QuadratureDepthError, OSError, TypeError, OverflowError) as exc:
        print(f"cocycle-lab: error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"cocycle-lab: error: out of memory{f': {exc}' if str(exc) else ''}", file=sys.stderr)
        return 2


def entry_point() -> int:
    """Process entry point (``cocycle-lab`` and ``python -m cocycle_lab.cli``).

    Runs ``main`` and then freezes the garbage collector, so that the
    collections at interpreter shutdown skip every object still alive,
    numpy's included.  Streams are still flushed and atexit handlers still
    run.  ``main`` itself never freezes, because callers (the tests among
    them) run it many times in one process.
    """
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(entry_point())
