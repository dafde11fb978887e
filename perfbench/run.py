"""Benchmark of the `mqrank` CLI: end to end, and layer by layer when traced.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload closure-k9 --seed 1 --seconds 30 --trace 0

Each CLI call runs in a fresh interpreter with `src` on PYTHONPATH, one call
at a time, the way a user runs `mqrank`. The run first times one cold
`import mqrank` in a fresh interpreter (setup_s), then runs whole rounds of
the workload's calls until --seconds have passed, checking every output
(checks.py). The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, from untraced calls only.
--trace 1 runs every call twice, untraced and then under traced_cli.py, and
reports the per-layer metrics as means per traced call, plus the tracing
overhead (traced minus untraced wall time of the same call).

The exit code is 0 when every check passed, 1 when a check failed or no
call succeeded, and 2 when mqrank cannot be imported from the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import MC_REPLICATIONS, ROOT, SRC, WORKLOADS

HERE = Path(__file__).resolve().parent
WORKDIR = HERE / "_work"
# a run ends well inside the 180 s any single run may take
DEADLINE_S = 150.0

# what call_s measures on the workload that runs each command; simulate's
# summary line gives it as replications per second
CALL_METRIC = {"test": "test_s", "simulate": "simulate_reps_per_s",
               "power": "power_s"}

SPAN_NAMES = (
    "qrsolver.fit", "qrsolver.linprog",
    "rankscore.score_state", "rankscore.estimate_sparsity",
    "rankscore.weighted_projection", "rankscore.statistic_generalized",
    "rankscore.mixture_weights", "rankscore.materialize",
    "rankscore.analytic_power",
    "distributions.imhof_upper", "distributions.quad",
    "distributions.mixture_quantile",
    "multiplicity.closed_test",
    "simulation.run_monte_carlo", "simulation.generate",
    "simulation.wald_test", "simulation.target_coefficients",
    "datamodel.validate", "datamodel.all_subsets",
    "cli.main",
)
CALL_COUNTS = ("qrsolver.fit", "qrsolver.linprog",
               "rankscore.statistic_generalized", "distributions.imhof_upper",
               "distributions.quad", "distributions.mixture_quantile")
RESULT_COUNTS = ("qrsolver.linprog.iterations", "qrsolver.linprog.nonoptimal",
                 "rankscore.estimate_sparsity.floor_hits",
                 "rankscore.estimate_sparsity.bandwidth_clips",
                 "distributions.imhof_upper.zero_results",
                 "distributions.integrand.evals")


def cli_env() -> dict:
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
    return env


def spawn(argv, env, stdout_path: Path, timeout: float):
    """Run argv to completion: wall seconds, exit code, peak RSS in MiB."""
    with open(stdout_path, "wb") as out, \
            open(stdout_path.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        killer = threading.Timer(max(timeout, 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def time_setup(env, workdir: Path) -> float:
    wall, code, _ = spawn([sys.executable, "-c", "import mqrank"], env,
                          workdir / "setup.out", 60.0)
    if code != 0:
        message = (workdir / "setup.err").read_text(errors="replace").strip()
        raise RuntimeError(f"`import mqrank` from {SRC} failed: {message}")
    return wall


def self_times(spans) -> dict:
    """Per span name: [call count, total self seconds]."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    totals = {}
    for (name, *_), t in zip(spans, own):
        entry = totals.setdefault(name, [0, 0.0])
        entry[0] += 1
        entry[1] += t
    return totals


class Run:
    def __init__(self, workload, find_failure, seed: int, trace: bool,
                 workdir: Path, env):
        self.workload = workload
        self.find_failure = find_failure
        self.seed = seed
        self.trace = trace
        self.workdir = workdir
        self.env = env
        self.attempted = 0
        self.failed = 0
        self.check_failures = []
        self.walls = []          # untraced calls that succeeded
        self.round_means = []    # mean untraced wall per round
        self.peak_rss = 0.0
        self.overheads = []      # traced minus untraced wall, per call
        self.layer_totals = {}
        self.traced_calls = 0
        self.import_s = []

    def round(self, first_index: int, deadline: float) -> None:
        """One call per weighting (power-k5) or one call (other workloads)."""
        walls = []
        for index in range(first_index, first_index + self.workload.calls_per_round):
            wall = self.call(index, deadline)
            if wall is not None:
                walls.append(wall)
        if walls:
            self.round_means.append(statistics.fmean(walls))

    def call(self, index: int, deadline: float):
        """Run one call, untraced and, with --trace 1, traced; check each
        output. Returns the untraced wall time, or None if a call failed."""
        call = self.workload.make_call(self.seed, index, self.workdir)
        out = self.workdir / f"call-{index}.out"
        cli = [sys.executable, "-c",
               "import sys; from mqrank.cli import main; sys.exit(main())"]
        variants = [(cli + call.args, out, None)]
        if self.trace:
            spans = self.workdir / f"call-{index}.spans.json"
            traced = [sys.executable, str(HERE / "traced_cli.py"), str(spans),
                      f"{self.workload.name}:{self.seed}:{index}"]
            variants.append((traced + call.args,
                             self.workdir / f"call-{index}.traced.out", spans))

        walls = []
        for argv, stdout_path, spans_path in variants:
            self.attempted += 1
            wall, code, rss = spawn(argv, self.env, stdout_path,
                                    deadline - time.perf_counter())
            if code != 0:
                self.failed += 1
                err = stdout_path.with_suffix(".err").read_text(errors="replace")
                print(f"call {index} exited {code}: {err.strip()[-300:]}",
                      file=sys.stderr)
                return None
            failure = self.find_failure(self.workload.command,
                                        stdout_path.read_text(), call.context)
            if failure is not None:
                self.check_failures.append(
                    f"call {index} ({' '.join(call.args)}): {failure}")
            walls.append(wall)
            print(f"call {index}{' traced' if spans_path else ''}: {wall:.4f} s",
                  file=sys.stderr)
            if spans_path is None:
                self.walls.append(wall)
                self.peak_rss = max(self.peak_rss, rss)
            else:
                self.add_trace(json.loads(spans_path.read_text()))
        if self.trace:
            self.overheads.append(walls[1] - walls[0])
        return walls[0]

    def add_trace(self, record: dict) -> None:
        self.traced_calls += 1
        self.import_s.append(record["import_s"])
        for name, (calls, own) in self_times(record["spans"]).items():
            entry = self.layer_totals.setdefault(name, [0, 0.0])
            entry[0] += calls
            entry[1] += own
        for name, value in record["counts"].items():
            entry = self.layer_totals.setdefault(name, [0, 0.0])
            entry[0] += value

    def end_to_end(self, setup_s: float) -> dict:
        return {"setup_s": (setup_s, "s"),
                "call_s": (statistics.median(self.round_means), "s"),
                "peak_rss_mib": (self.peak_rss, "MiB")}

    def per_layer(self) -> dict:
        n = self.traced_calls
        metrics = {}
        for name in SPAN_NAMES:
            calls, own = self.layer_totals.get(name, (0, 0.0))
            if name in CALL_COUNTS:
                metrics[f"{name}.calls"] = (calls / n, "count")
            metrics[f"{name}.self_s"] = (own / n, "s")
        for name in RESULT_COUNTS:
            metrics[name] = (self.layer_totals.get(name, (0, 0.0))[0] / n, "count")
        metrics["cli.import_s"] = (statistics.fmean(self.import_s), "s")
        metrics["trace.overhead_s"] = (statistics.median(self.overheads), "s")
        return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.perf_counter()
    if not (SRC / "mqrank" / "__init__.py").is_file():
        print(f"error: no mqrank package under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    env = cli_env()
    workdir = WORKDIR / f"{workload.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        try:
            setup_s = time_setup(env, workdir)
            sys.path.insert(0, str(SRC))
            # imported only now: set-up is timed before this process loads mqrank
            from checks import find_failure
        except (RuntimeError, ImportError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

        run = Run(workload, find_failure, args.seed, bool(args.trace), workdir,
                  env)
        deadline = started + DEADLINE_S
        measure_start = time.perf_counter()
        index = 0
        while True:
            run.round(index, deadline)
            index += workload.calls_per_round
            if time.perf_counter() - measure_start >= args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            WORKDIR.rmdir()

    for failure in run.check_failures:
        print(f"check failed: {failure}", file=sys.stderr)
    if not run.round_means or (args.trace and not run.traced_calls):
        print("error: no CLI call succeeded", file=sys.stderr)
        return 1

    if args.trace:
        metrics = run.per_layer()
    else:
        metrics = run.end_to_end(setup_s)
        name = CALL_METRIC[workload.command]
        if workload.command == "simulate":
            value = statistics.median(MC_REPLICATIONS / w for w in run.walls)
            unit = "replications/s"
        else:
            value, unit = metrics["call_s"][0], "s"
        print(f"{workload.name}: {name} = {value:.4f} {unit} "
              f"({len(run.walls)} calls in {len(run.round_means)} rounds)")
    result = {"correct": not run.check_failures, "attempted": run.attempted,
              "failed": run.failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
