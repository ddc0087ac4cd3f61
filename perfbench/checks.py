"""Output checks computed apart from the program.

Scenario files are read with the package README's default for every
key the workloads leave out (a key the checks do not model is refused),
and every fitted witness is recomputed from the models' closed forms
with numpy:

* log-norm tables ``L[i, j] = log ||Phi(t_i, t_j, x) v||`` under the
  sum-abs norm, for every base point x and vector v of the grid;
* Datko integrals of ``||Phi(tau, t0, x) v||`` by 20-node Gauss-Legendre
  quadrature on each grid segment, spot-checked against
  ``scipy.integrate.quad``;
* the sample count of every check, from the grid sizes alone.

Nothing is compared with a stored copy of earlier output.  Each check
returns a list of problems; an empty list means the command's outputs
are right.
"""

from __future__ import annotations

import json
import math
import os
from functools import cached_property

import numpy as np
from scipy import integrate
from scipy.special import logsumexp

from workloads import Command, Workload

# Witness values may differ from the program's by rounding and, for the
# Datko integrals, by the program's adaptive-Simpson rel_tol (1e-10).
RTOL = 1e-8
MARGIN_ATOL = 1e-7
QUAD_RTOL = 1e-9
RATE_TOL = 1e-9
DEFAULT_LADDER = tuple(0.25 * k for k in range(1, 17))
GL_NODES, GL_WEIGHTS = np.polynomial.legendre.leggauss(20)

DEFAULT_DIAG_BASES = (
    {"kind": "generator", "n": 1, "sigma": 0.0},
    {"kind": "generator", "n": 2, "sigma": 0.0},
    {"kind": "generator", "n": 1, "sigma": 1.0},
)


def default_vectors(dim: int) -> list[list[float]]:
    if dim == 1:
        return [[1.0], [-1.0]]
    vecs = [[1.0 if i == k else 0.0 for i in range(dim)] for k in range(dim)]
    return vecs + [[1.0] * dim, [-1.0] * dim]


class Reference:
    """Independent witnesses, worst margins and sample counts for one scenario."""

    def __init__(self, doc: dict):
        grid = doc.get("grid", {})
        unmodelled = (set(doc) - {"model", "grid", "gamma"}) | (set(grid) - {"times", "vectors"})
        if unmodelled:
            raise ValueError(f"the checks do not model scenario keys {sorted(unmodelled)}")
        self.model = doc["model"]
        times = grid.get("times", {"min": 0.0, "max": 16.0, "count": 65})
        self.times = np.linspace(float(times["min"]), float(times["max"]), times["count"])
        diag = self.model["kind"] == "diag_integral"
        dim = len(self.model["alphas"]) if diag else 1
        self.bases = list(DEFAULT_DIAG_BASES if diag else ({"kind": "trivial", "value": 0.0},))
        self.vectors = [np.asarray(v, dtype=float) for v in grid.get("vectors", default_vectors(dim))]
        self.gamma = float(doc.get("gamma", 0.0))
        self.tol = 1e-9
        self.headroom = 0.01
        self.growth_cap = 8.0
        self.ladder = DEFAULT_LADDER

    # -- closed forms ------------------------------------------------------

    def log_gains(self, base: dict, t, s) -> np.ndarray:
        """Per-component log gains of Phi(t, s, x); shape broadcast(t, s) + (dim,)."""
        t, s = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(s, dtype=float))
        d = t - s
        kind = self.model["kind"]
        if kind == "sin_scalar":
            g = (d - 2.0 * t * np.sin(np.pi * t / 4.0) + 2.0 * s * np.sin(np.pi * s / 4.0))[..., None]
        elif kind == "pure_exponential":
            g = (float(self.model["rate"]) * d)[..., None]
        elif kind == "diag_integral":
            n, sigma = base["n"], float(base.get("sigma", 0.0))
            beta = 1.0 / (2 * n * (2 * n + 1))
            window = d / (2 * n + 1) + (beta / 2.0) * math.exp(-sigma) * -np.expm1(-d)
            g = window[..., None] * np.asarray(self.model["alphas"], dtype=float)
        else:
            raise ValueError(f"no closed form for model kind {kind!r}")
        return g - self.gamma * d[..., None]

    def log_norm(self, base: dict, v: np.ndarray, t, s) -> np.ndarray:
        """log ||Phi(t, s, x) v|| under the sum-abs norm."""
        nz = v != 0.0
        return logsumexp(self.log_gains(base, t, s)[..., nz] + np.log(np.abs(v[nz])), axis=-1)

    # -- per (base, vector) tables ------------------------------------------

    @property
    def n(self) -> int:
        return len(self.times)

    @property
    def samples(self) -> int:
        return len(self.bases) * len(self.vectors)

    @cached_property
    def tables(self) -> list[tuple[dict, np.ndarray, float, np.ndarray, np.ndarray]]:
        """(base, v, log ||v||, L, D) per grid pair, L[i, j] for i >= j (nan above),
        D[i, j] = log ||Phi(t_i + t_j, t_j, x) v|| - log ||v||."""
        T = self.times
        lower = np.tril(np.ones((self.n, self.n), dtype=bool))
        out = []
        for base in self.bases:
            for v in self.vectors:
                logv = math.log(float(np.sum(np.abs(v))))
                L = np.where(lower, self.log_norm(base, v, T[:, None], T[None, :]), np.nan)
                D = self.log_norm(base, v, T[:, None] + T[None, :], T[None, :]) - logv
                out.append((base, v, logv, L, D))
        return out

    @cached_property
    def datko(self) -> list[np.ndarray]:
        """Q[i, k] = log(integral_{t_k}^{t_i} ||Phi(tau, t_k) v|| dtau) - log ||Phi(t_i, t_k) v||
        for i > k (nan elsewhere), per grid pair."""
        T = self.times
        n = self.n
        half = 0.5 * np.diff(T)
        tau = (0.5 * (T[1:] + T[:-1]))[:, None] + half[:, None] * GL_NODES  # (segment, node)
        k_idx = np.arange(n)[:, None]
        after = np.arange(n - 1)[None, :] >= k_idx  # segment m lies in [t_k, ...)
        out = []
        for pair, (base, v, logv, L, _) in enumerate(self.tables):
            logs = self.log_norm(base, v, tau[None, :, :], T[:, None, None]) - logv
            logs = np.where(after[:, :, None], logs, -np.inf)
            segs = (np.exp(logs) * GL_WEIGHTS).sum(axis=2) * half  # (k, segment)
            prefix = np.concatenate([np.zeros((n, 1)), np.cumsum(segs, axis=1)], axis=1)  # (k, i)
            if pair in (0, len(self.tables) - 1):
                self._spot_check(base, v, logv, prefix)
            with np.errstate(divide="ignore"):
                Q = np.log(prefix.T) - (L - logv)
            out.append(np.where(np.tril(np.ones((n, n), dtype=bool), k=-1), Q, np.nan))
        return out

    def _spot_check(self, base: dict, v: np.ndarray, logv: float, prefix: np.ndarray) -> None:
        T = self.times
        last = self.n - 1
        for k, i in {(0, last), (0, min(3, last)), (last // 2, last)}:
            if i <= k:
                continue
            value, _ = integrate.quad(
                lambda tau: math.exp(float(self.log_norm(base, v, tau, T[k])) - logv),
                T[k], T[i], epsabs=0.0, epsrel=1e-12, limit=500,
            )
            if not math.isclose(value, prefix[k, i], rel_tol=QUAD_RTOL):
                raise RuntimeError(
                    f"reference quadratures disagree on [{T[k]}, {T[i]}]: "
                    f"quad {value!r} vs Gauss-Legendre {prefix[k, i]!r}"
                )

    @cached_property
    def envelopes(self) -> tuple[np.ndarray, float]:
        """R[i, j] = max over k <= j and grid pairs of L[j, k] - L[i, k] (i >= j),
        and the best forward rate (L[i, k] - L[j, k]) / (t_i - t_j) over k <= j < i."""
        T = self.times
        i, j, k = np.ix_(range(self.n), range(self.n), range(self.n))
        valid = (k <= j) & (j <= i)
        gap = (T[:, None] - T[None, :])[:, :, None]
        R = np.full((self.n, self.n), -np.inf)
        rho = -math.inf
        for _, _, _, L, _ in self.tables:
            A = np.where(valid, L[None, :, :] - L[:, None, :], -np.inf)
            R = np.maximum(R, A.max(axis=2))
            with np.errstate(divide="ignore", invalid="ignore"):
                rates = np.where(valid & (j < i), -A / gap, -np.inf)
            rho = max(rho, float(rates.max()))
        return R, rho

    # -- fitted witnesses (log values at the grid times) --------------------

    def decay_logs(self) -> np.ndarray:
        per_u = np.min([D.min(axis=1) for *_, D in self.tables], axis=0)
        return np.minimum.accumulate(per_u)

    def instability_logs(self) -> np.ndarray:
        need = np.max([np.nanmax(logv - L, axis=1) for _, _, logv, L, _ in self.tables], axis=0)
        return math.log1p(self.headroom) + np.maximum(need, 0.0)

    def exp_fit(self) -> tuple[float | None, np.ndarray | None]:
        """The largest ladder rate covered by the realized rate whose envelope slope
        stays within growth_cap, with its witness; (None, None) when none qualifies."""
        R, rho = self.envelopes
        T = self.times
        lower = np.tril(np.ones((self.n, self.n), dtype=bool))
        for nu in sorted(self.ladder, reverse=True):
            if nu > rho + RATE_TOL:
                continue
            y = np.where(lower, nu * (T[:, None] - T[None, :]) + R, -np.inf).max(axis=1)
            dt = T - T.mean()
            if float(dt @ (y - y.mean()) / (dt @ dt)) <= self.growth_cap:
                return nu, math.log1p(self.headroom) + np.maximum(y, 0.0)
        return None, None

    def integral_logs(self) -> np.ndarray:
        rows = [np.max(np.where(np.isnan(Q), -np.inf, Q), axis=1) for Q in self.datko]
        return np.maximum(0.0, math.log1p(self.headroom) + np.max(rows, axis=0))

    def fitted_logs(self, prop: str):
        """(nu, log witness) for a property; nu is None except for exp-instability."""
        if prop == "exp-instability":
            return self.exp_fit()
        return None, {
            "decay": self.decay_logs,
            "instability": self.instability_logs,
            "integral-instability": self.integral_logs,
        }[prop]()

    # -- checks of a given certificate ---------------------------------------

    def count(self, prop: str) -> int:
        n = self.n
        per_pair = {
            "decay": n * n,
            "instability": n * (n + 1) // 2,
            "integral-instability": n * (n + 1) // 2,
            "exp-instability": math.comb(n + 2, 3),
        }[prop]
        return per_pair * self.samples

    def worst_margin(self, prop: str, logs: np.ndarray, nu: float | None) -> float:
        """Minimum log-margin of a certificate's inequality over every grid sample."""
        w = logs[:, None]
        if prop == "decay":
            return min(float(np.min(D - w)) for *_, D in self.tables)
        if prop == "instability":
            return min(float(np.nanmin(w - (logv - L))) for _, _, logv, L, _ in self.tables)
        if prop == "integral-instability":
            return min(float(np.nanmin(w - Q)) for Q in self.datko)
        R, _ = self.envelopes
        gaps = self.times[:, None] - self.times[None, :]
        margins = np.where(np.tril(np.ones_like(R, dtype=bool)), w - nu * gaps - R, np.inf)
        return float(margins.min())


# ---------------------------------------------------------------------------
# Output files
# ---------------------------------------------------------------------------


def load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def witness(doc: dict) -> tuple[np.ndarray, np.ndarray]:
    """(times, values) of a tabulated certificate document."""
    if doc.get("form") != "tabulated":
        raise ValueError(f"expected a tabulated certificate, got form {doc.get('form')!r}")
    table = {
        "decay": doc, "instability": doc.get("N"), "exp_instability": doc.get("N"),
        "integral_instability": doc.get("M"),
    }[doc["kind"]]
    return np.asarray(table["times"], dtype=float), np.asarray(table["values"], dtype=float)


def read_margins(path: str) -> tuple[dict[str, int], dict[str, float]]:
    """Row count and minimum margin per property of margins.csv.

    The property is the first field and the margin the last; labels in
    between may be quoted and hold commas, the two ends never do.
    """
    counts: dict[str, int] = {}
    worst: dict[str, float] = {}
    with open(path, encoding="utf-8") as fh:
        if fh.readline().strip() != "property,t,s,t0,base,vector,margin":
            raise ValueError("margins.csv header differs")
        for line in fh:
            prop = line[: line.index(",")]
            margin = float(line[line.rindex(",") + 1 :])
            counts[prop] = counts.get(prop, 0) + 1
            if margin < worst.get(prop, math.inf):
                worst[prop] = margin
    return counts, worst


def _witness_problems(ref: Reference, doc: dict, prop: str) -> list[str]:
    nu, logs = ref.fitted_logs(prop)
    if prop == "exp-instability" and nu is None:
        if doc.get("kind") != "no_certificate":
            return [f"expected no exp-instability certificate, got kind {doc.get('kind')!r}"]
        _, rho = ref.envelopes
        realized = doc["details"]["realized_rate"]
        if not math.isclose(realized, rho, rel_tol=RTOL, abs_tol=RATE_TOL):
            return [f"realized rate {realized!r}, expected {rho!r}"]
        return []
    times, values = witness(doc)
    problems = []
    if prop == "exp-instability" and doc["nu"] != nu:
        problems.append(f"nu {doc['nu']!r}, expected {nu!r}")
    if not np.array_equal(times, ref.times):
        problems.append("witness times differ from the grid times")
    elif not np.allclose(values, np.exp(logs), rtol=RTOL, atol=0.0):
        bad = int(np.argmax(np.abs(values / np.exp(logs) - 1.0)))
        problems.append(
            f"witness value at t={times[bad]!r} is {values[bad]!r}, expected {math.exp(logs[bad])!r}"
        )
    return problems


def _certificate_margin(ref: Reference, out: str, prop: str) -> float:
    doc = load_json(os.path.join(out, f"cert_{prop}.json"))
    _, values = witness(doc)
    return ref.worst_margin(prop, np.log(values), doc.get("nu"))


def check_laws(ref: Reference, cmd: Command, out: str) -> list[str]:
    doc = load_json(os.path.join(out, "laws_report.json"))
    per_base = ref.n + math.comb(ref.n + 2, 3)
    expected = {"semiflow": len(ref.bases) * per_base, "cocycle": ref.samples * per_base}
    problems = []
    for key, count in expected.items():
        report = doc[key]
        if report["samples_checked"] != count:
            problems.append(f"{key} samples_checked {report['samples_checked']}, expected {count}")
        if not report["worst_margin"] >= -ref.tol or report["verdict"] != "pass":
            problems.append(f"{key} laws: worst margin {report['worst_margin']!r}, {report['verdict']}")
    return problems


def check_estimate(ref: Reference, cmd: Command, out: str) -> list[str]:
    doc = load_json(os.path.join(out, f"cert_{cmd.target}.json"))
    return _witness_problems(ref, doc, cmd.target)


def check_check(ref: Reference, cmd: Command, out: str) -> list[str]:
    report = load_json(os.path.join(out, f"check_{cmd.target}.json"))["report"]
    problems = []
    if report["samples_checked"] != ref.count(cmd.target):
        problems.append(f"samples_checked {report['samples_checked']}, expected {ref.count(cmd.target)}")
    if report["verdict"] != "pass":
        problems.append(f"verdict {report['verdict']} on a fitted certificate")
    expected = _certificate_margin(ref, out, cmd.target)
    if not math.isclose(report["worst_margin"], expected, rel_tol=0.0, abs_tol=MARGIN_ATOL):
        problems.append(f"worst_margin {report['worst_margin']!r}, expected {expected!r}")
    return problems


def check_report(ref: Reference, cmd: Command, out: str) -> list[str]:
    problems = []
    counts, worst = read_margins(os.path.join(out, "margins.csv"))
    if sorted(counts) != sorted(cmd.certs):
        problems.append(f"margins.csv properties {sorted(counts)}, expected {sorted(cmd.certs)}")
    for prop in cmd.certs:
        if counts.get(prop) != ref.count(prop):
            problems.append(f"margins.csv has {counts.get(prop)} {prop} rows, expected {ref.count(prop)}")
            continue
        expected = _certificate_margin(ref, out, prop)
        if not math.isclose(worst[prop], expected, rel_tol=0.0, abs_tol=MARGIN_ATOL):
            problems.append(f"margins.csv minimum {prop} margin {worst[prop]!r}, expected {expected!r}")
        check_path = os.path.join(out, f"check_{prop}.json")
        if os.path.exists(check_path):
            reported = load_json(check_path)["report"]["worst_margin"]
            if worst[prop] != reported:
                problems.append(f"margins.csv minimum {prop} margin {worst[prop]!r} != check {reported!r}")
    problems += _table_problems(ref, cmd, out)
    return problems


def _table_problems(ref: Reference, cmd: Command, out: str) -> list[str]:
    """witness_tables.csv columns must repeat the certificates' values exactly."""
    columns = {}
    for prop in cmd.certs:
        doc = load_json(os.path.join(out, f"cert_{prop}.json"))
        name = {"decay": "f_hat", "instability": "N_hat", "integral-instability": "M_hat"}.get(prop)
        if prop == "exp-instability":
            columns["N_hat"] = witness(doc)[1]
            columns["nu"] = np.full(ref.n, doc["nu"])
        else:
            columns.setdefault(name, witness(doc)[1])
    with open(os.path.join(out, "witness_tables.csv"), encoding="utf-8") as fh:
        header, *rows = [line.rstrip("\n").split(",") for line in fh]
    expected_header = ["t"] + [c for c in ("f_hat", "N_hat", "M_hat", "nu") if c in columns]
    if header != expected_header:
        return [f"witness_tables.csv header {header}, expected {expected_header}"]
    table = np.asarray(rows, dtype=float)
    if table.shape != (ref.n, len(header)) or not np.array_equal(table[:, 0], ref.times):
        return ["witness_tables.csv rows differ from the grid times"]
    return [
        f"witness_tables.csv column {name} differs from the certificate"
        for col, name in enumerate(header[1:], start=1)
        if not np.array_equal(table[:, col], columns[name])
    ]


def check_theorem(ref: Reference, cmd: Command, out: str) -> list[str]:
    doc = load_json(os.path.join(out, f"theorem_{cmd.target}.json"))
    if doc["verdict"] == "pass":
        return []
    failing = [r["check"] for r in doc["reports"] if r["verdict"] != "pass"]
    return [f"verdict {doc['verdict']} (failing reports: {', '.join(failing) or 'none'})"]


CHECKS = {
    "laws": check_laws,
    "estimate": check_estimate,
    "check": check_check,
    "report": check_report,
    "theorem": check_theorem,
}


def check_round(workload: Workload, out_root: str, exits: list[int]) -> list[list[str]]:
    """Problems found per command of one round, in command order."""
    refs = {name: Reference(doc) for name, doc in workload.scenarios.items()}
    problems = []
    for cmd, code in zip(workload.commands, exits):
        found = [] if code == cmd.expect_exit else [f"exit code {code}, expected {cmd.expect_exit}"]
        try:
            found += CHECKS[cmd.verb](refs[cmd.scenario], cmd, os.path.join(out_root, cmd.scenario))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            found.append(f"unreadable output: {exc!r}")
        problems.append(found)
    for reference, shifted in workload.same_certificates:
        for idx, cmd in enumerate(workload.commands):
            if cmd.verb == "estimate" and cmd.scenario == shifted:
                problems[idx] += _same_certificate(out_root, reference, shifted, cmd.target)
    return problems


def _same_certificate(out_root: str, reference: str, shifted: str, prop: str) -> list[str]:
    a = load_json(os.path.join(out_root, reference, f"cert_{prop}.json"))
    b = load_json(os.path.join(out_root, shifted, f"cert_{prop}.json"))
    if a["kind"] != b["kind"] or a.get("nu") != b.get("nu"):
        return [f"{prop} certificate differs from the {reference} scenario's"]
    if a["kind"] == "no_certificate":
        return []
    (ta, va), (tb, vb) = witness(a), witness(b)
    if not (np.array_equal(ta, tb) and np.allclose(va, vb, rtol=RTOL, atol=0.0)):
        return [f"{prop} witness differs from the {reference} scenario's"]
    return []
