"""Checks of every CLI output the benchmark reads.

Each check compares an output against an independent computation or a
property the method must have, never against a stored copy of an earlier
output. A failed check raises CheckFailed. The package is imported only for
public `score_state`, which supplies the score vector of a dataset.
"""

from __future__ import annotations

import json
import math
from itertools import combinations
from statistics import NormalDist

import numpy as np
from scipy import integrate
from scipy.stats import chi2, ncx2

from mqrank import Dataset, QuantileSpec, score_state

# absolute accuracy that imhof_upper documents for a tail probability
IMHOF_TOL = 1e-6
# singleton p-values and powers have closed forms; allow rounding only
CLOSED_FORM_TOL = 1e-10
# standard errors of Monte Carlo margins: one false alarm in ~10^6 checks
MC_SIGMAS = 6.0
# draws of the benchmark's own simulation of the full-set power
POWER_DRAWS = 200_000


class CheckFailed(Exception):
    """A CLI output contradicts the method."""


def _require(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _subset_keys(k: int) -> list:
    return [",".join(str(i) for i in c)
            for size in range(1, k + 1)
            for c in combinations(range(1, k + 1), size)]


def _indices(key: str) -> tuple:
    return tuple(int(i) for i in key.split(","))


def bridge(taus) -> np.ndarray:
    t = np.asarray(taus, dtype=float)
    return np.minimum.outer(t, t) - np.outer(t, t)


def two_chisq_upper(l1: float, l2: float, x: float) -> float:
    """P(l1*X1 + l2*X2 > x) for independent chi-square(1) X1, X2.

    One-dimensional convolution, independent of Imhof's inversion: with
    X1 = t^2, t ~ N(0, 1), the tail is E[P(l2*X2 > x - l1*t^2)]. The
    substitution t = sqrt(x/l1) sin(theta) makes the integrand smooth.
    """
    if x <= 0.0:
        return 1.0
    l1, l2 = max(l1, l2), min(l1, l2)
    a = math.sqrt(x / l1)
    b = math.sqrt(x / (2.0 * l2))
    c = 2.0 * a / math.sqrt(2.0 * math.pi)

    def integrand(theta):
        return (c * math.exp(-0.5 * (a * math.sin(theta)) ** 2)
                * math.erfc(b * math.cos(theta)) * math.cos(theta))

    head, _ = integrate.quad(integrand, 0.0, 0.5 * math.pi,
                             epsabs=1e-13, epsrel=1e-12, limit=200)
    return math.erfc(a / math.sqrt(2.0)) + head


# --- closure-k9 ----------------------------------------------------------------

def check_closure(payload: dict, context: dict) -> None:
    taus = context["taus"]
    alpha = context["alpha"]
    k = len(taus)
    y, x, z = context["y"], context["x"], context["z"]
    dataset = Dataset(y=y, x=x, Z=np.column_stack([np.ones(y.shape[0]), z]))
    state = score_state(dataset, QuantileSpec(taus))
    score, v_bar = state.score, state.v_bar

    keys = [s["subset"] for s in payload["subsets"]]
    expected = _subset_keys(k)
    _require(len(keys) == len(expected) and set(keys) == set(expected),
             f"expected all {len(expected)} subsets, got {len(set(keys))} "
             f"distinct of {len(keys)}")
    local = {s["subset"]: s["local_p"] for s in payload["subsets"]}
    _require(payload["alpha"] == alpha, f"alpha {payload['alpha']} != {alpha}")

    hyps = payload["hypotheses"]
    _require(len(hyps) == k, f"expected {k} hypotheses, got {len(hyps)}")
    for j, h in enumerate(hyps):
        idx = j + 1
        _require(h["hypothesis"] == idx and h["tau"] == taus[j],
                 f"hypothesis {idx} is out of order")
        adjusted = max(p for key, p in local.items() if idx in _indices(key))
        _require(h["adjusted_p"] == adjusted,
                 f"H{idx}: adjusted_p {h['adjusted_p']!r} != max local p "
                 f"{adjusted!r} over the subsets containing it")
        _require(h["reject"] == (h["adjusted_p"] <= alpha),
                 f"H{idx}: reject={h['reject']} but adjusted_p="
                 f"{h['adjusted_p']!r}, alpha={alpha}")
        _require(h["local_p"] == local[str(idx)],
                 f"H{idx}: local_p differs from subset {{{idx}}}")
        ref = float(chi2.sf(score[j] ** 2 / (v_bar * taus[j] * (1.0 - taus[j])), 1))
        _require(abs(local[str(idx)] - ref) <= CLOSED_FORM_TOL,
                 f"subset {idx}: p {local[str(idx)]!r} != chi-square(1) "
                 f"reference {ref!r}")

    cov = v_bar * bridge(taus)
    for i, j in combinations(range(k), 2):
        key = f"{i + 1},{j + 1}"
        lam = np.linalg.eigvalsh(cov[np.ix_([i, j], [i, j])])
        ref = two_chisq_upper(float(lam[1]), float(lam[0]),
                              float(score[i] ** 2 + score[j] ** 2))
        _require(abs(local[key] - ref) <= IMHOF_TOL,
                 f"subset {key}: p {local[key]!r} != convolution {ref!r}")


# --- montecarlo-k5 -------------------------------------------------------------

def fwer_limit(alpha: float, replications: int) -> float:
    return alpha + MC_SIGMAS * math.sqrt(alpha * (1.0 - alpha) / replications)


def check_montecarlo(payload: dict, context: dict) -> None:
    reps = context["replications"]
    alpha = context["alpha"]
    _require(payload["error_count"] == 0,
             f"error_count is {payload['error_count']}: "
             f"{payload['error_messages']}")
    _require(payload["replications_used"] == reps,
             f"replications_used {payload['replications_used']} != {reps}")
    _require(payload["scenario"]["seed"] == context["seed"],
             f"scenario seed {payload['scenario']['seed']} != {context['seed']}")

    k = len(payload["scenario"]["taus"])
    keys = _subset_keys(k)
    hyp = payload["hypothesis_rejections"]
    sub = payload["subset_rejections"]
    fw = payload["familywise"]
    for name, table in sub.items():
        _require(sorted(table) == sorted(keys),
                 f"{name}: expected all {len(keys)} subsets")

    raw = hyp["raw"]
    for w in context["weightings"]:
        closed = hyp[f"closed:{w}"]
        local = sub[f"rankscore:{w}"]
        for j in range(k):
            single = local[str(j + 1)]
            _require(single == raw[j],
                     f"H{j + 1}: rankscore:{w} singleton rate {single} != raw "
                     f"rate {raw[j]}")
            _require(closed[j] <= single,
                     f"H{j + 1}: closed:{w} rate {closed[j]} exceeds its "
                     f"singleton rate {single}")
        _require(fw[f"closed:{w}"] <= local[keys[-1]],
                 f"closed:{w} familywise rate {fw[f'closed:{w}']} exceeds the "
                 f"full-set rate {local[keys[-1]]}")

    holm, bonf = hyp["holm"], hyp["bonferroni"]
    for j in range(k):
        _require(raw[j] >= holm[j] >= bonf[j],
                 f"H{j + 1}: expected raw >= holm >= bonferroni, got "
                 f"{raw[j]}, {holm[j]}, {bonf[j]}")

    limit = fwer_limit(alpha, reps)
    for name in [f"closed:{w}" for w in context["weightings"]] + ["holm"]:
        _require(fw[name] <= limit,
                 f"{name} familywise error rate {fw[name]} exceeds {limit:.4f} "
                 f"under the null")


# --- power-k5 ------------------------------------------------------------------

def weighting_matrix(name: str, taus) -> np.ndarray:
    t = np.asarray(taus, dtype=float)
    if name == "identity":
        return np.eye(t.size)
    if name == "diag-delta":
        return np.diag(1.0 / (t * (1.0 - t)))
    if name == "density:normal":
        std = NormalDist()
        dens = np.array([std.pdf(std.inv_cdf(v)) for v in t])
        return np.diag(1.0 / dens ** 2)
    raise ValueError(f"no reference for weighting {name!r}")


def simulated_power_band(g, vn: float, taus, weighting: str, alpha: float,
                         seed) -> tuple:
    """Band that holds the full-set power unless Monte Carlo error exceeds
    MC_SIGMAS standard errors.

    The quadratic form s' B s is simulated under N(0, vn*bridge) for its
    critical value and under N(g, vn*bridge) for its power. A distribution-
    free interval on the (1 - alpha) order statistic widens the band for the
    critical value's own error.
    """
    rng = np.random.default_rng(seed)
    k = len(taus)
    root = np.linalg.cholesky(vn * bridge(taus))
    b = weighting_matrix(weighting, taus)
    m = POWER_DRAWS

    def forms(mean):
        s = rng.standard_normal((m, k)) @ root.T + mean
        return np.einsum("ij,jk,ik->i", s, b, s)

    q = 1.0 - alpha
    half = MC_SIGMAS * math.sqrt(m * q * (1.0 - q))
    lo_rank = int(math.floor(m * q - half))
    hi_rank = int(math.ceil(m * q + half))
    null = np.partition(forms(np.zeros(k)), (lo_rank, hi_rank))
    crit_lo, crit_hi = null[lo_rank], null[hi_rank]
    alt = forms(np.asarray(g, dtype=float))

    def rate(crit):
        p = float(np.mean(alt > crit))
        return p, MC_SIGMAS * math.sqrt(max(p * (1.0 - p), 1.0 / m) / m)

    p_hi, e_hi = rate(crit_lo)
    p_lo, e_lo = rate(crit_hi)
    return p_lo - e_lo, p_hi + e_hi


def check_power(payload: dict, context: dict) -> None:
    taus, g, vn = context["taus"], context["g"], context["vn"]
    alpha = context["alpha"]
    k = len(taus)
    keys = _subset_keys(k)
    rows = {r["subset"]: r["power"] for r in payload["power"]}
    _require(len(payload["power"]) == len(keys) and sorted(rows) == sorted(keys),
             f"expected all {len(keys)} subsets")

    for key, p in rows.items():
        _require(alpha - IMHOF_TOL <= p <= 1.0,
                 f"subset {key}: power {p!r} outside [alpha, 1]")
        if not any(g):
            _require(abs(p - alpha) <= IMHOF_TOL,
                     f"subset {key}: power {p!r} != alpha at g = 0")

    crit = float(chi2.isf(alpha, 1))
    for j in range(k):
        nc = g[j] ** 2 / (vn * taus[j] * (1.0 - taus[j]))
        ref = float(ncx2.sf(crit, 1, nc)) if nc > 0.0 else float(chi2.sf(crit, 1))
        p = rows[str(j + 1)]
        _require(abs(p - ref) <= CLOSED_FORM_TOL,
                 f"subset {j + 1}: power {p!r} != noncentral chi-square "
                 f"reference {ref!r}")

    lo, hi = simulated_power_band(g, vn, taus, context["weighting"], alpha,
                                  context["mc_seed"])
    p = rows[keys[-1]]
    _require(lo <= p <= hi,
             f"full-set power {p!r} outside simulated band [{lo:.5f}, {hi:.5f}]")


CHECKS = {"test": check_closure, "simulate": check_montecarlo,
          "power": check_power}


def find_failure(command: str, output: str, context: dict):
    """Why the output of a `mqrank <command>` call is wrong, or None."""
    try:
        CHECKS[command](json.loads(output), context)
    except (CheckFailed, KeyError, TypeError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return None
