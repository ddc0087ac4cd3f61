"""Benchmark workloads: scenario files and the command sequence run on them.

A workload is built from a seed alone.  The program sees only the
scenario files written from ``Workload.scenarios``; every command is one
``cocycle-lab`` invocation, run as its own process in list order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

PROPERTIES = ("decay", "instability", "exp-instability", "integral-instability")


@dataclass(frozen=True)
class Command:
    """One CLI invocation on one scenario, with the exit code a correct program gives.

    ``certs`` names the properties whose ``cert_<property>.json`` (from
    the same scenario's output directory) the command reads.
    """

    verb: str
    scenario: str
    target: str | None = None
    certs: tuple[str, ...] = ()
    expect_exit: int = 0
    known_fault: str | None = None

    @property
    def stage(self) -> str:
        return f"estimate.{self.target}" if self.verb == "estimate" else self.verb

    @property
    def label(self) -> str:
        return " ".join(x for x in (self.scenario, self.verb, self.target) if x)

    def argv(self, scenario_path: str, out_dir: str) -> list[str]:
        args = [self.verb, "--scenario", scenario_path, "--out-dir", out_dir]
        if self.verb in ("estimate", "check"):
            args += ["--property", self.target]
        elif self.verb == "theorem":
            args += ["--theorem", self.target]
        for prop in self.certs:
            args += ["--cert", f"{out_dir}/cert_{prop}.json"]
        return args


@dataclass
class Workload:
    name: str
    scenarios: dict[str, dict]
    commands: list[Command]
    # (reference, shifted): scenarios whose fitted certificates must agree.
    same_certificates: list[tuple[str, str]] = field(default_factory=list)


def pipeline(scenario: str, exp_certificate: bool = True) -> list[Command]:
    """laws, then estimate and check for each property, then report on every certificate.

    Without an exp-instability certificate (a correct ``no_certificate``
    outcome, exit 1) that property is neither checked nor reported.
    """
    fitted = PROPERTIES if exp_certificate else tuple(p for p in PROPERTIES if p != "exp-instability")
    cmds = [Command("laws", scenario)]
    cmds += [
        Command("estimate", scenario, p, expect_exit=0 if p in fitted else 1) for p in PROPERTIES
    ]
    cmds += [Command("check", scenario, p, certs=(p,)) for p in fitted]
    cmds.append(Command("report", scenario, certs=fitted))
    return cmds


def sin_datko(seed: int) -> Workload:
    """The default sin_scalar scenario; the seed does not change it."""
    doc = {"model": {"kind": "sin_scalar"}}
    cmds = pipeline("sin")
    cmds.append(Command("theorem", "sin", "remark-obs2", certs=("exp-instability",)))
    return Workload("sin-datko", {"sin": doc}, cmds)


DIAG_MODEL = {"kind": "diag_integral", "alphas": [1, -1]}
DIAG_DEFAULT_VECTORS = [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [-1.0, -1.0]]
THM2_FAULT = "thm2 samples the integral chain at t < t0 + 1, where it does not follow"


def diag_theorems(seed: int) -> Workload:
    """diag_integral [1, -1]: a seeded scenario and the seed-free default one that thm2 runs on.

    The seeded scenario adds two Gaussian 2-D vectors to the default
    vectors, on 41 times over [0, 10] (the default step) so that a run
    fits the benchmark's time budget.  thm2 fails on the default
    scenario because of a fault in the program, so it runs there, on
    inputs the seed does not touch.
    """
    rng = random.Random(seed)
    extra = [[rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)] for _ in range(2)]
    seeded = {
        "model": dict(DIAG_MODEL),
        "grid": {"times": {"min": 0.0, "max": 10.0, "count": 41}, "vectors": DIAG_DEFAULT_VECTORS + extra},
    }
    fixed = {"model": dict(DIAG_MODEL)}
    cmds = [Command("laws", "seeded")]
    cmds += [Command("estimate", "seeded", p) for p in PROPERTIES]
    cmds.append(Command("report", "seeded", certs=PROPERTIES))
    cmds += [
        Command("estimate", "fixed", "decay"),
        Command("estimate", "fixed", "integral-instability"),
        Command("check", "fixed", "decay", certs=("decay",)),
        Command(
            "theorem", "fixed", "thm2", certs=("decay", "integral-instability"),
            known_fault=THM2_FAULT,
        ),
    ]
    return Workload("diag-theorems", {"seeded": seeded, "fixed": fixed}, cmds)


# Rate ranges of the exp-sweep draws.  Growth rates stay inside the
# default nu ladder (0.25 .. 4.0); a decaying rate has no exp-instability
# certificate; the shifted scenario must reproduce the first growth scenario.
GROWTH_RATES = (0.3, 3.9)
DECAY_RATES = (-2.0, -0.25)
GAMMAS = (0.5, 2.0)


def exp_sweep(seed: int) -> Workload:
    """pure_exponential at two growth rates, two decaying rates, and the first
    growth rate reached by a gamma shift."""
    rng = random.Random(seed)
    grow = [rng.uniform(*GROWTH_RATES) for _ in range(2)]
    decay = [rng.uniform(*DECAY_RATES) for _ in range(2)]
    gamma = rng.uniform(*GAMMAS)
    grid = {"times": {"min": 0.0, "max": 8.0, "count": 17}}

    def scenario(rate: float, **extra) -> dict:
        return {"model": {"kind": "pure_exponential", "rate": rate}, "grid": dict(grid), **extra}

    scenarios = {
        "grow1": scenario(grow[0]),
        "grow2": scenario(grow[1]),
        "decay1": scenario(decay[0]),
        "decay2": scenario(decay[1]),
        "shifted": scenario(grow[0] + gamma, gamma=gamma),
    }
    cmds = []
    for name in ("grow1", "grow2", "shifted"):
        cmds += pipeline(name)
        cmds.append(Command("theorem", name, "thm1-necessity", certs=("exp-instability",)))
        if name == "grow1":
            cmds += [
                Command("theorem", name, "thm1-sufficiency", certs=("instability", "integral-instability")),
                Command("theorem", name, "corollary"),
            ]
    for name in ("decay1", "decay2"):
        cmds += pipeline(name, exp_certificate=False)
    return Workload("exp-sweep", scenarios, cmds, same_certificates=[("grow1", "shifted")])


WORKLOADS = {"sin-datko": sin_datko, "diag-theorems": diag_theorems, "exp-sweep": exp_sweep}
