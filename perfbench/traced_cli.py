"""Run one `mqrank` CLI call with a span around every call into each layer.

Usage: python3 traced_cli.py SPANS_JSON CALL_ID MQRANK_ARGS...

Imports mqrank, wraps the functions in LAYERS wherever the package binds
them (modules import `fit`, `score_state` and others by name, so each
module's own binding is replaced), wraps `linprog` and `scipy.integrate.quad`
where mqrank calls them, then runs `mqrank.cli.main(MQRANK_ARGS)`. Spans are
kept in memory as (name, start, end, parent, call id) and written to
SPANS_JSON when the call returns, together with the counts read from the
wrapped functions' return values. The exit code is the CLI's.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

_t0 = time.perf_counter()
import mqrank.cli  # noqa: E402  (the import is what cli.import_s times)
IMPORT_S = time.perf_counter() - _t0

from scipy import integrate  # noqa: E402

from mqrank import (datamodel, distributions, multiplicity,  # noqa: E402
                    qrsolver, rankscore, simulation)

# estimate_sparsity documents that it floors each density estimate at 0.01
DENSITY_FLOOR = 0.01


class Tracer:
    def __init__(self, call_id: str):
        self.call_id = call_id
        self.spans = []        # [name, start, end, parent index]
        self.stack = []
        self.counts = Counter()

    def wrap(self, name: str, fn, on_result=None):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def dump(self, path: str, exit_code: int) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"call_id": self.call_id, "import_s": IMPORT_S,
                       "exit_code": exit_code, "counts": dict(self.counts),
                       "spans": [s + [self.call_id] for s in self.spans]}, fh)


class TracedIntegrate:
    """Stands in for `scipy.integrate` inside mqrank.distributions: `quad`
    gets a span and the integrand it is handed counts its evaluations."""

    def __init__(self, tracer: Tracer):
        counts = tracer.counts

        def quad(func, *args, **kwargs):
            def integrand(*x):
                counts["distributions.integrand.evals"] += 1
                return func(*x)
            return integrate.quad(integrand, *args, **kwargs)

        self.quad = tracer.wrap("distributions.quad", quad)

    def __getattr__(self, name):
        return getattr(integrate, name)


def _replace_bindings(original, replacement) -> None:
    for name, module in list(sys.modules.items()):
        if name == "mqrank" or name.startswith("mqrank."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    counts = tracer.counts

    def on_linprog(res):
        counts["qrsolver.linprog.iterations"] += int(res.nit)
        counts["qrsolver.linprog.nonoptimal"] += int(res.status != 0)

    def on_sparsity(sp):
        counts["rankscore.estimate_sparsity.floor_hits"] += int(
            (sp.f_hat <= DENSITY_FLOOR).sum())
        counts["rankscore.estimate_sparsity.bandwidth_clips"] += int(sp.clipped)

    def on_imhof(p):
        counts["distributions.imhof_upper.zero_results"] += int(p == 0.0)

    layers = [
        (qrsolver, "fit", "qrsolver.fit", None),
        (qrsolver, "linprog", "qrsolver.linprog", on_linprog),
        (rankscore, "score_state", "rankscore.score_state", None),
        (rankscore, "estimate_sparsity", "rankscore.estimate_sparsity", on_sparsity),
        (rankscore, "weighted_projection", "rankscore.weighted_projection", None),
        (rankscore, "statistic_generalized", "rankscore.statistic_generalized", None),
        (rankscore, "mixture_weights", "rankscore.mixture_weights", None),
        (rankscore, "analytic_power", "rankscore.analytic_power", None),
        (distributions, "imhof_upper", "distributions.imhof_upper", on_imhof),
        (distributions, "mixture_quantile", "distributions.mixture_quantile", None),
        (multiplicity, "closed_test", "multiplicity.closed_test", None),
        (simulation, "run_monte_carlo", "simulation.run_monte_carlo", None),
        (simulation, "generate", "simulation.generate", None),
        (simulation, "wald_test", "simulation.wald_test", None),
        (simulation, "target_coefficients", "simulation.target_coefficients", None),
        (datamodel, "validate", "datamodel.validate", None),
        (datamodel, "all_subsets", "datamodel.all_subsets", None),
    ]
    for module, attr, name, on_result in layers:
        original = getattr(module, attr)
        _replace_bindings(original, tracer.wrap(name, original, on_result))
    matrix = rankscore.WeightingMatrix
    matrix.materialize = tracer.wrap("rankscore.materialize", matrix.materialize)
    distributions.integrate = TracedIntegrate(tracer)


def main(argv) -> int:
    spans_path, call_id, cli_args = argv[0], argv[1], argv[2:]
    tracer = Tracer(call_id)
    install(tracer)
    code = 1
    try:
        code = tracer.wrap("cli.main", mqrank.cli.main)(cli_args)
    finally:
        tracer.dump(spans_path, code)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
