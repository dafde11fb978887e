"""Each output check of the benchmark rejects a corrupted copy of a real output.

Run from the root of the repository:  python3 -m pytest perfbench
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import sys

import pytest

from workloads import SRC, closure_call, montecarlo_call, power_call

sys.path.insert(0, str(SRC))

from checks import (CheckFailed, check_closure, check_montecarlo,  # noqa: E402
                    check_power, two_chisq_upper)
from mqrank.cli import main  # noqa: E402

SEED = 20260812


def cli_output(args) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(args) == 0
    return json.loads(buf.getvalue())


@pytest.fixture(scope="module")
def closure(tmp_path_factory):
    call = closure_call(SEED, 0, tmp_path_factory.mktemp("closure"))
    return cli_output(call.args), call.context


@pytest.fixture(scope="module")
def montecarlo(tmp_path_factory):
    call = montecarlo_call(SEED, 0, tmp_path_factory.mktemp("montecarlo"))
    return cli_output(call.args), call.context


@pytest.fixture(scope="module", params=[0, 3], ids=["flat", "zero"])
def power(request, tmp_path_factory):
    call = power_call(SEED, request.param, tmp_path_factory.mktemp("power"))
    return cli_output(call.args), call.context


def rejects(check, payload, context, match):
    with pytest.raises(CheckFailed, match=match):
        check(payload, context)


def test_two_chisq_upper_matches_exponential_tail_at_equal_weights():
    for lam in (0.05, 0.3, 2.0):
        for x in (0.01, 0.5, 3.0, 20.0):
            assert two_chisq_upper(lam, lam, x) == pytest.approx(
                math.exp(-x / (2.0 * lam)), abs=1e-12)


# --- closure-k9 ----------------------------------------------------------------

def test_closure_accepts_real_output(closure):
    check_closure(*closure)


def test_closure_rejects_flipped_reject(closure):
    payload, context = copy.deepcopy(closure)
    hyp = payload["hypotheses"][4]
    hyp["reject"] = not hyp["reject"]
    rejects(check_closure, payload, context, "reject=")


def test_closure_rejects_nudged_adjusted_p(closure):
    payload, context = copy.deepcopy(closure)
    payload["hypotheses"][2]["adjusted_p"] += 1e-9
    rejects(check_closure, payload, context, "adjusted_p")


def test_closure_rejects_dropped_subset(closure):
    payload, context = copy.deepcopy(closure)
    del payload["subsets"][100]
    rejects(check_closure, payload, context, "expected all 511 subsets")


def test_closure_rejects_nudged_singleton_p(closure):
    payload, context = copy.deepcopy(closure)
    for record in payload["subsets"]:
        if record["subset"] == "6":
            record["local_p"] *= 1.0 + 1e-7
    payload["hypotheses"][5]["local_p"] = next(
        r["local_p"] for r in payload["subsets"] if r["subset"] == "6")
    # keep the closure consistent so that only the reference check can fail
    for j, hyp in enumerate(payload["hypotheses"]):
        hyp["adjusted_p"] = max(r["local_p"] for r in payload["subsets"]
                                if str(j + 1) in r["subset"].split(","))
        hyp["reject"] = hyp["adjusted_p"] <= payload["alpha"]
    rejects(check_closure, payload, context, "chi-square")


def test_closure_rejects_pair_p_off_by_more_than_imhof_accuracy(closure):
    payload, context = copy.deepcopy(closure)
    pairs = [r for r in payload["subsets"] if r["size"] == 2]
    smallest = min(pairs, key=lambda r: r["local_p"])
    smallest["local_p"] -= 3e-6
    rejects(check_closure, payload, context, "convolution")


# --- montecarlo-k5 -------------------------------------------------------------

def test_montecarlo_accepts_real_output(montecarlo):
    check_montecarlo(*montecarlo)


def test_montecarlo_rejects_nonzero_error_count(montecarlo):
    payload, context = copy.deepcopy(montecarlo)
    payload["error_count"] = 1
    rejects(check_montecarlo, payload, context, "error_count")


def test_montecarlo_rejects_short_replication_count(montecarlo):
    payload, context = copy.deepcopy(montecarlo)
    payload["replications_used"] -= 1
    rejects(check_montecarlo, payload, context, "replications_used")


def test_montecarlo_rejects_diverging_singleton_rates(montecarlo):
    payload, context = copy.deepcopy(montecarlo)
    payload["subset_rejections"]["rankscore:identity"]["2"] += 0.01
    rejects(check_montecarlo, payload, context, "singleton rate")


def test_montecarlo_rejects_closed_rate_above_singleton(montecarlo):
    payload, context = copy.deepcopy(montecarlo)
    rates = payload["hypothesis_rejections"]["closed:identity"]
    rates[0] = payload["subset_rejections"]["rankscore:identity"]["1"] + 0.01
    rejects(check_montecarlo, payload, context, "exceeds its singleton")


def test_montecarlo_rejects_holm_above_raw(montecarlo):
    payload, context = copy.deepcopy(montecarlo)
    hyp = payload["hypothesis_rejections"]
    hyp["holm"][3] = hyp["raw"][3] + 0.01
    rejects(check_montecarlo, payload, context, "raw >= holm >= bonferroni")


def test_montecarlo_rejects_familywise_error_above_limit(montecarlo):
    payload, context = copy.deepcopy(montecarlo)
    payload["familywise"]["holm"] = 0.5
    rejects(check_montecarlo, payload, context, "familywise error rate")


# --- power-k5 ------------------------------------------------------------------

def test_power_accepts_real_output(power):
    check_power(*power)


def test_power_rejects_nudged_singleton(power):
    payload, context = copy.deepcopy(power)
    payload["power"][1]["power"] += 1e-6
    match = "!= alpha" if not any(context["g"]) else "noncentral"
    rejects(check_power, payload, context, match)


def test_power_rejects_full_set_outside_simulation(power):
    payload, context = copy.deepcopy(power)
    payload["power"][-1]["power"] += 0.05
    match = "!= alpha" if not any(context["g"]) else "simulated band"
    rejects(check_power, payload, context, match)


def test_power_rejects_power_below_alpha(power):
    payload, context = copy.deepcopy(power)
    payload["power"][7]["power"] = context["alpha"] - 0.01
    rejects(check_power, payload, context, r"outside \[alpha, 1\]")


def test_power_rejects_dropped_subset(power):
    payload, context = copy.deepcopy(power)
    del payload["power"][10]
    rejects(check_power, payload, context, "expected all 31 subsets")
