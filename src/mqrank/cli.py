"""Command-line interface: test CSV data, run simulations, analytic power.

Exit codes: 0 success; 2 for a ``ValueError``, ``ValidationError`` or
I/O error, an unwritable ``--out`` among them; 3 for any other
``MqrankError``. :func:`main` applies this rule for every command.

Importing this module sets ``OPENBLAS_NUM_THREADS`` to 1 unless it is
already set, before numpy loads, so the process starts no OpenBLAS thread
pool. Each command imports the modules it alone runs: ``power`` loads
neither :mod:`mqrank.multiplicity` nor :mod:`mqrank.simulation`.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import replace
from importlib import resources

# numpy and scipy each start a thread pool, which costs start-up and exit
# time, while every BLAS call mqrank makes is a small p x p or K x K
# system or an (n, p) product. On 2 CPUs, one thread was no slower at
# n = 10^4, K = 9; at n = 10^5, p = 9 two were 16% faster, so large n
# should set the variable (README, Install). Set before numpy loads; a
# value the user sets wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from .datamodel import Dataset, QuantileSpec, validate
from .exceptions import MqrankError, ValidationError
from .rankscore import WeightingMatrix, analytic_power, score_state

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NUMERICAL = 3


def _parse_floats(text: str, flag: str):
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError:
        raise ValueError(f"{flag} expects a comma-separated list of numbers, "
                         f"got {text!r}")


def _write(out_path, output) -> None:
    """Write JSON text (a str) or CSV rows (a list) to ``out_path``, or to
    stdout when no path is given."""
    if isinstance(output, str):
        text = output + "\n"
    else:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(output)
        text = buf.getvalue()
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _read_csv_columns(path: str, names):
    """Read the named numeric columns from a headered CSV file."""
    if not os.path.exists(path):
        raise ValueError(f"input file not found: {path}")
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file")
        header = [h.strip() for h in header]
        missing = [n for n in names if n not in header]
        if missing:
            raise ValueError(f"{path}: missing column(s) {', '.join(missing)}")
        idx = {n: header.index(n) for n in names}
        cols = {n: [] for n in names}
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            for n in names:
                try:
                    cols[n].append(float(row[idx[n]]))
                except (ValueError, IndexError):
                    raise ValueError(
                        f"{path}, line {lineno}: column {n!r} is not numeric")
    return {n: np.asarray(v) for n, v in cols.items()}


def _load_weighting(text: str, k: int) -> WeightingMatrix:
    if "," in text:
        raise ValueError(
            "exactly one weighting per test run: the weighting must be chosen "
            "before seeing the data")
    if text.startswith("custom:"):
        path = text.split(":", 1)[1]
        mat = np.loadtxt(path)
        mat = np.atleast_2d(mat)
        if mat.shape != (k, k):
            raise ValueError(
                f"custom weighting must be {k}x{k}, got {mat.shape[0]}x{mat.shape[1]}")
        return WeightingMatrix.custom(mat)
    return WeightingMatrix.parse(text)


# --- test ----------------------------------------------------------------------

def cmd_test(args) -> str | list:
    from .multiplicity import closed_test
    from .simulation import target_coefficients

    nuisance = [c for c in (args.nuisance.split(",") if args.nuisance else []) if c]
    columns = [args.response, args.target] + nuisance

    taus = _parse_floats(args.taus, "--taus")
    nulls = (_parse_floats(args.null_values, "--null-values")
             if args.null_values else None)
    data = _read_csv_columns(args.input, columns)
    if not 0.0 < args.alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")

    n = data[args.response].shape[0]
    Z = np.column_stack([np.ones(n)] + [data[c] for c in nuisance])
    dataset = Dataset(y=data[args.response], x=data[args.target], Z=Z)
    spec = QuantileSpec(taus, nulls)

    validate(dataset, spec)
    weighting = _load_weighting(args.weighting, spec.k)
    state = score_state(dataset, spec)
    report = closed_test(state, weighting, alpha=args.alpha)
    beta_hat = target_coefficients(dataset, spec)

    hypotheses = []
    for j, tau in enumerate(spec.taus):
        single = report.subset_p((j + 1,))
        hypotheses.append({
            "hypothesis": j + 1,
            "tau": tau,
            "null_value": spec.null_values[j],
            "beta_hat": float(beta_hat[j]),
            "local_p": float(single),
            "adjusted_p": float(report.adjusted_p[j]),
            "reject": bool(report.rejected[j]),
        })

    if args.format == "json":
        payload = {"alpha": args.alpha, "weighting": args.weighting,
                   "hypotheses": hypotheses}
        if args.verbose:
            payload["subsets"] = [
                {"subset": str(s), "size": s.size, "local_p": float(p)}
                for s, p in report.local_p.items()]
        return json.dumps(payload, indent=2)
    rows = [["hypothesis", "tau", "null_value", "beta_hat", "local_p",
             "adjusted_p", "reject"]]
    rows += [[h["hypothesis"], repr(h["tau"]), repr(h["null_value"]),
              repr(h["beta_hat"]), repr(h["local_p"]), repr(h["adjusted_p"]),
              int(h["reject"])] for h in hypotheses]
    if args.verbose:
        rows += [[], ["subset", "size", "local_p"]]
        rows += [[str(s), s.size, repr(float(p))]
                 for s, p in report.local_p.items()]
    return rows


# --- simulate ------------------------------------------------------------------

def _resolve_scenario(name: str):
    """The scenario in the file ``name``, or else the bundled one of that
    name."""
    from .simulation import load_scenario, parse_scenario_text

    if os.path.exists(name):
        return load_scenario(name)
    resource = resources.files("mqrank").joinpath(f"scenarios/{name}.scenario")
    if resource.is_file():
        return parse_scenario_text(resource.read_text(encoding="utf-8"))
    raise ValueError(f"scenario {name!r} is neither a file nor a bundled scenario")


def cmd_simulate(args) -> str | list:
    from .simulation import run_monte_carlo

    scenario = _resolve_scenario(args.scenario)
    if args.seed is not None:
        scenario = replace(scenario, seed=args.seed)
    if args.replications is not None:
        scenario = replace(scenario, replications=args.replications)
    methods = tuple(args.methods.split(","))
    weightings = tuple(args.weightings.split(","))
    report = run_monte_carlo(scenario, methods=methods,
                             weightings=weightings, alpha=args.alpha)
    if report.replications_used == 0:
        raise MqrankError(f"all {report.error_count} replications failed; "
                          f"first: {report.error_messages[0]}")

    print(f"seed: {scenario.seed}", file=sys.stderr)
    return report.to_json() if args.format == "json" else report.to_csv_rows()


# --- power ---------------------------------------------------------------------

def cmd_power(args) -> str | list:
    taus = _parse_floats(args.taus, "--taus")
    g = _parse_floats(args.g, "--g")
    if len(g) != len(taus):
        raise ValueError(f"--g has {len(g)} entries but --taus has {len(taus)}")
    weighting = _load_weighting(args.weighting, len(taus))
    table = analytic_power(taus, g, args.vn, weighting, args.alpha)

    rows = [{"subset": str(s), "size": s.size, "power": float(p)}
            for s, p in table.items()]
    if args.format == "json":
        return json.dumps({"alpha": args.alpha, "taus": list(taus),
                           "g": list(g), "vn": args.vn,
                           "weighting": args.weighting, "power": rows},
                          indent=2)
    return [["subset", "size", "power"]] + [
        [r["subset"], r["size"], repr(r["power"])] for r in rows]


# --- parser --------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mqrank",
        description="Simultaneous quantile-regression rank-score inference "
                    "with closed-testing FWER control.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_test = sub.add_parser("test", help="run the multi-quantile test on CSV data")
    p_test.add_argument("--input", required=True, help="CSV file with header row")
    p_test.add_argument("--response", required=True, help="response column name")
    p_test.add_argument("--target", required=True, help="target covariate column")
    p_test.add_argument("--nuisance", default="",
                        help="comma-separated nuisance columns (intercept is "
                             "always added)")
    p_test.add_argument("--taus", required=True,
                        help="comma-separated quantile levels")
    p_test.add_argument("--null-values", default=None,
                        help="comma-separated null values, one per level "
                             "(default all zero)")
    p_test.add_argument("--weighting", default="identity",
                        help="identity | inverse | diag-delta | density:normal "
                             "| density:t:<df> | custom:<path>")
    p_test.add_argument("--alpha", type=float, default=0.05)
    p_test.add_argument("--format", choices=("json", "csv"), default="json")
    p_test.add_argument("--verbose", action="store_true",
                        help="include every intersection subset in the output")
    p_test.add_argument("--out", default=None, help="write output to this file")
    p_test.set_defaults(func=cmd_test)

    p_sim = sub.add_parser("simulate", help="run a Monte Carlo scenario")
    p_sim.add_argument("--scenario", required=True,
                       help="scenario file path or bundled scenario name")
    p_sim.add_argument("--methods", default="closed,bonferroni,holm,raw",
                       help="comma-separated: closed,bonferroni,holm,raw,wald")
    p_sim.add_argument("--weightings", default="identity",
                       help="comma-separated weighting names for the local tests")
    p_sim.add_argument("--alpha", type=float, default=0.05)
    p_sim.add_argument("--seed", type=int, default=None,
                       help="override the scenario seed")
    p_sim.add_argument("--replications", type=int, default=None,
                       help="override the scenario replication count")
    p_sim.add_argument("--format", choices=("json", "csv"), default="csv")
    p_sim.add_argument("--out", default=None)
    p_sim.set_defaults(func=cmd_simulate)

    p_pow = sub.add_parser("power", help="analytic power under local alternatives")
    p_pow.add_argument("--taus", required=True)
    p_pow.add_argument("--g", required=True,
                       help="comma-separated local-alternative mean vector")
    p_pow.add_argument("--vn", type=float, default=1.0,
                       help="projection mean-square scale of the score covariance")
    p_pow.add_argument("--weighting", default="identity")
    p_pow.add_argument("--alpha", type=float, default=0.05)
    p_pow.add_argument("--format", choices=("json", "csv"), default="json")
    p_pow.add_argument("--out", default=None)
    p_pow.set_defaults(func=cmd_power)
    return parser


def main(argv=None) -> int:
    """Run one command and write its output: JSON text or a list of CSV
    rows, as each ``cmd_*`` returns it. Errors map to exit codes here."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _write(args.out, args.func(args))
        return EXIT_OK
    # ValidationError subclasses MqrankError, so it is caught first
    except (ValueError, ValidationError, OSError) as exc:
        error, code = exc, EXIT_INVALID
    except MqrankError as exc:
        error, code = exc, EXIT_NUMERICAL
    print(f"error: {error}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
