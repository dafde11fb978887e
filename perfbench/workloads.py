"""The benchmark's three workloads: seeded inputs and `mqrank` command lines.

Every input is a pure function of the benchmark seed and the call index, so
the same seed gives the same CLI calls. Each workload describes one call by
its CLI arguments plus the context its output check needs; the checks
themselves live in checks.py.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

ALPHA = 0.05

# closure-k9: one fresh dataset per `mqrank test` call
CLOSURE_TAUS = tuple(round(0.1 * i, 1) for i in range(1, 10))
CLOSURE_N = 200
CLOSURE_RHO = 0.3          # correlation of the target with the nuisance covariate
CLOSURE_BETA = 0.05        # modest target effect: local p-values spread over (0, 1)

# montecarlo-k5: the bundled null scenario, one fresh --seed per call
MC_SCENARIO = "null_calibration"
MC_METHODS = ("closed", "bonferroni", "holm", "raw", "wald")
MC_WEIGHTINGS = ("inverse", "identity")
MC_REPLICATIONS = 100

# power-k5: weightings and directions cycled in a fixed order
POWER_TAUS = (0.1, 0.25, 0.5, 0.75, 0.9)
POWER_WEIGHTINGS = ("identity", "diag-delta", "density:normal")
POWER_DIRECTIONS = (
    ("flat", (1.0, 1.0, 1.0, 1.0, 1.0)),
    ("lower-tail", (1.0, 0.75, 0.5, 0.25, 0.0)),
    ("upper-tail", (0.0, 0.25, 0.5, 0.75, 1.0)),
    ("zero", (0.0, 0.0, 0.0, 0.0, 0.0)),
)
POWER_SCALE = (0.2, 0.5)   # range of the seeded magnitude of g
POWER_VN = (0.8, 1.25)     # range of the seeded projection scale vn


def _rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed % 2 ** 64, index])


def _floats(values) -> str:
    return ",".join(repr(float(v)) for v in values)


@dataclass
class Call:
    """One CLI call: its arguments after `mqrank` and what its check needs."""

    args: list
    context: dict


# --- closure-k9 ----------------------------------------------------------------

def closure_dataset(seed: int, index: int):
    """n = 200 rows: target x, one nuisance z, heteroscedastic normal errors."""
    rng = _rng(seed, index)
    n = CLOSURE_N
    x = rng.standard_normal(n)
    z = CLOSURE_RHO * x + np.sqrt(1.0 - CLOSURE_RHO ** 2) * rng.standard_normal(n)
    y = (0.5 + CLOSURE_BETA * x + 0.5 * z
         + np.sqrt(1.0 + np.abs(x)) * rng.standard_normal(n))
    return y, x, z


def closure_call(seed: int, index: int, workdir: Path) -> Call:
    y, x, z = closure_dataset(seed, index)
    path = workdir / f"closure-{index}.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["y", "x", "z"])
        # repr round-trips, so the CLI reads back exactly these floats
        writer.writerows([repr(float(a)), repr(float(b)), repr(float(c))]
                         for a, b, c in zip(y, x, z))
    args = ["test", "--input", str(path), "--response", "y", "--target", "x",
            "--nuisance", "z", "--taus", _floats(CLOSURE_TAUS),
            "--weighting", "identity", "--verbose", "--format", "json"]
    return Call(args, {"y": y, "x": x, "z": z, "taus": CLOSURE_TAUS,
                       "alpha": ALPHA})


# --- montecarlo-k5 -------------------------------------------------------------

def montecarlo_call(seed: int, index: int, workdir: Path) -> Call:
    sim_seed = int(_rng(seed, index).integers(0, 2 ** 32))
    args = ["simulate", "--scenario", MC_SCENARIO,
            "--methods", ",".join(MC_METHODS),
            "--weightings", ",".join(MC_WEIGHTINGS), "--format", "json",
            "--seed", str(sim_seed), "--replications", str(MC_REPLICATIONS)]
    return Call(args, {"seed": sim_seed, "replications": MC_REPLICATIONS,
                       "weightings": MC_WEIGHTINGS, "alpha": ALPHA})


# --- power-k5 ------------------------------------------------------------------

def power_call(seed: int, index: int, workdir: Path) -> Call:
    """Call i uses weighting i mod 3 and direction i mod 4."""
    rng = _rng(seed, index)
    scale = rng.uniform(*POWER_SCALE)
    vn = rng.uniform(*POWER_VN)
    weighting = POWER_WEIGHTINGS[index % len(POWER_WEIGHTINGS)]
    _, shape = POWER_DIRECTIONS[index % len(POWER_DIRECTIONS)]
    g = tuple(scale * v for v in shape)
    args = ["power", "--taus", _floats(POWER_TAUS), "--g", _floats(g),
            "--vn", repr(float(vn)), "--weighting", weighting,
            "--format", "json"]
    return Call(args, {"taus": POWER_TAUS, "g": g, "vn": float(vn),
                       "weighting": weighting, "alpha": ALPHA,
                       "mc_seed": (seed % 2 ** 64, index)})


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    calls_per_round: int
    make_call: object


WORKLOADS = {
    w.name: w for w in (
        Workload("closure-k9", "test", 1, closure_call),
        Workload("montecarlo-k5", "simulate", 1, montecarlo_call),
        Workload("power-k5", "power", len(POWER_WEIGHTINGS), power_call),
    )
}
