"""Monte Carlo harness: data-generating processes, Wald comparator, engine.

Replications are keyed by a counter-based generator (Philox) seeded with
(seed, replication_index), so a run is a pure function of its scenario no
matter how replications are scheduled. Rejection decisions inside the
engine avoid per-replication numerical inversion: each weighting's
:class:`~mqrank.rankscore.SubsetPlan` gives every subset's unit-scale
critical value once per run, and a replication rejects a subset when its
unit-scale statistic s_c' B_c s_c / v_bar reaches that value. Failed
replications are counted by exception class.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .datamodel import Dataset, QuantileSpec, all_subsets, validate_spec
from .distributions import chisq_upper
from .exceptions import MqrankError, SingularCovariance
from .multiplicity import bonferroni, holm
from .qrsolver import fit_levels
from .rankscore import (SubsetPlan, WeightingMatrix, bridge_covariance,
                        fit_with_sparsity, score_state)

DGP_NAMES = ("null_normal", "scaled_t5", "skew_normal", "hetero_normal")
METHOD_NAMES = ("closed", "bonferroni", "holm", "raw", "wald")

# shape parameter of the skew-normal error and its centering shift
_SKEW_SHAPE = 2.2
_SKEW_SHIFT = -1.453


@dataclass(frozen=True)
class Scenario:
    """One simulation design: generating mechanism plus its parameters."""

    dgp: str
    beta: float = 0.0
    gamma: float = 0.5
    n: int = 100
    rho: float = 0.3
    taus: tuple = (0.1, 0.25, 0.5, 0.75, 0.9)
    replications: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.dgp not in DGP_NAMES:
            raise ValueError(
                f"unknown dgp {self.dgp!r}; expected one of {DGP_NAMES}")
        if self.n < 10:
            raise ValueError("scenario needs n >= 10")
        if self.replications < 1:
            raise ValueError("scenario needs at least one replication")
        if not -1.0 < self.rho < 1.0:
            raise ValueError("correlation must lie in (-1, 1)")
        object.__setattr__(self, "taus", tuple(float(t) for t in self.taus))
        object.__setattr__(self, "seed", int(self.seed) % 2 ** 64)

    def to_dict(self) -> dict:
        return {"dgp": self.dgp, "beta": self.beta, "gamma": self.gamma,
                "n": self.n, "rho": self.rho, "taus": list(self.taus),
                "replications": self.replications, "seed": self.seed}


def _rng_for(seed: int, replication_index: int) -> np.random.Generator:
    key = np.array([seed, replication_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def generate(scenario: Scenario, replication_index: int) -> Dataset:
    """Draw one dataset; bit-identical for identical (seed, index).

    Covariates are bivariate standard normal with the scenario's
    correlation; the response follows the scenario's mechanism with
    conditional location 0.5 + beta*x + gamma*z.
    """
    rng = _rng_for(scenario.seed, replication_index)
    n = scenario.n
    e = rng.standard_normal((n, 2))
    x = e[:, 0]
    z = scenario.rho * e[:, 0] + np.sqrt(1.0 - scenario.rho ** 2) * e[:, 1]
    mu = 0.5 + scenario.beta * x + scenario.gamma * z

    if scenario.dgp == "null_normal":
        y = mu + rng.standard_normal(n)
    elif scenario.dgp == "scaled_t5":
        y = mu + (1.0 + np.abs(x)) * np.sqrt(3.0 / 5.0) * rng.standard_t(5, n)
    elif scenario.dgp == "skew_normal":
        delta = _SKEW_SHAPE / np.sqrt(1.0 + _SKEW_SHAPE ** 2)
        u0 = rng.standard_normal(n)
        u1 = rng.standard_normal(n)
        sn = delta * np.abs(u0) + np.sqrt(1.0 - delta ** 2) * u1
        y = mu + _SKEW_SHIFT + np.sqrt(3.0 + np.abs(x)) * sn
    elif scenario.dgp == "hetero_normal":
        y = mu + np.sqrt(1.0 + np.abs(x)) * rng.standard_normal(n)
    else:  # unreachable; Scenario validates
        raise ValueError(scenario.dgp)

    Z = np.column_stack([np.ones(n), z])
    return Dataset(y=y, x=x, Z=Z)


# --- Wald-type comparator -----------------------------------------------------

def target_coefficients(dataset: Dataset, spec: QuantileSpec) -> np.ndarray:
    """Full-model target coefficient estimates, one per quantile level."""
    fits = fit_levels(dataset.full_design(), [dataset.y] * spec.k, spec.taus)
    return np.array([qfit.gamma_hat[0] for qfit in fits])


def wald_covariance(dataset: Dataset, spec: QuantileSpec):
    """Sandwich covariance of the target coefficients across levels.

    Per level, the bread inverts the density-weighted Gram matrix of the
    full design with difference-quotient densities; cross-level blocks
    scale with the Brownian-bridge covariance of the levels.
    """
    m = dataset.full_design()
    n = dataset.n
    j_mat = m.T @ m / n
    fits, sparsity = fit_with_sparsity(m, [dataset.y] * spec.k, spec.taus)
    beta_hat = np.array([qfit.gamma_hat[0] for qfit in fits])
    bread_rows = np.empty((spec.k, m.shape[1]))
    for idx, sp in enumerate(sparsity):
        h_mat = (m * sp.f_hat[:, None]).T @ m / n
        try:
            hinv = np.linalg.inv(h_mat)
        except np.linalg.LinAlgError as exc:
            raise SingularCovariance(
                f"density-weighted Gram matrix singular at tau={sp.tau}") from exc
        bread_rows[idx] = hinv[0]
    cov = bridge_covariance(spec.taus) * (bread_rows @ j_mat @ bread_rows.T) / n
    return beta_hat, cov


def wald_test(dataset: Dataset, spec: QuantileSpec) -> dict:
    """Joint Wald p-value for every nonempty subset of the hypotheses."""
    beta_hat, cov = wald_covariance(dataset, spec)
    dev = beta_hat - np.asarray(spec.null_values)
    out = {}
    for subset in all_subsets(spec.k):
        pos = subset.positions()
        sub = cov[np.ix_(pos, pos)]
        try:
            stat = float(dev[pos] @ np.linalg.solve(sub, dev[pos]))
        except np.linalg.LinAlgError as exc:
            raise SingularCovariance(
                f"Wald covariance singular for subset {subset}") from exc
        if not np.isfinite(stat) or stat < 0.0:
            raise SingularCovariance(
                f"Wald statistic ill-conditioned for subset {subset}")
        out[subset] = chisq_upper(stat, subset.size)
    return out


# --- Monte Carlo engine --------------------------------------------------------

@dataclass
class MonteCarloReport:
    """Rejection frequencies per method and hypothesis, with subset detail."""

    scenario: Scenario
    alpha: float
    methods: tuple
    weightings: tuple
    replications_used: int
    error_count: int
    error_messages: list
    error_classes: dict
    hypothesis_rejections: dict
    familywise: dict
    subset_rejections: dict

    def standard_error(self, frequency: float) -> float:
        r = max(self.replications_used, 1)
        return float(np.sqrt(frequency * (1.0 - frequency) / r))

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario.to_dict(),
            "alpha": self.alpha,
            "methods": list(self.methods),
            "weightings": list(self.weightings),
            "replications_used": self.replications_used,
            "error_count": self.error_count,
            "error_messages": list(self.error_messages),
            "error_classes": dict(self.error_classes),
            "hypothesis_rejections": {
                name: [float(v) for v in freq]
                for name, freq in self.hypothesis_rejections.items()},
            "familywise": {name: float(v) for name, v in self.familywise.items()},
            "subset_rejections": {
                name: {str(sub): float(v) for sub, v in table.items()}
                for name, table in self.subset_rejections.items()},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def to_csv_rows(self):
        """One row per method and hypothesis, plus a familywise row each."""
        rows = [("method", "hypothesis", "tau", "rejection_rate", "std_error")]
        taus = self.scenario.taus
        for name in sorted(self.hypothesis_rejections):
            freq = self.hypothesis_rejections[name]
            for j, f in enumerate(freq):
                rows.append((name, str(j + 1), repr(taus[j]),
                             repr(float(f)), repr(self.standard_error(f))))
            fw = self.familywise[name]
            rows.append((name, "familywise", "", repr(float(fw)),
                         repr(self.standard_error(fw))))
        return rows


def _weighting_name(w: WeightingMatrix) -> str:
    if w.kind == "density":
        suffix = f":{w.family.name}"
        if w.family.df is not None:
            suffix += f":{w.family.df:g}"
        return "density" + suffix
    return w.kind


def _closed_decisions(local_reject: np.ndarray, containing: list) -> np.ndarray:
    """Hypothesis j is rejected when every subset containing it is."""
    return np.array([bool(np.all(local_reject[idx])) for idx in containing])


def run_monte_carlo(scenario: Scenario,
                    methods: tuple = ("closed", "bonferroni", "holm", "raw"),
                    weightings=("identity",),
                    alpha: float = 0.05,
                    null_values=None,
                    on_error: str = "record") -> MonteCarloReport:
    """Replicate the scenario and tally rejections for each method.

    ``methods`` picks the per-hypothesis procedures; subset-level
    rejection rates of the local rank-score tests (one table per
    weighting) and of the Wald test (when requested) are always included
    for whatever is computed. An invalid level set raises ValidationError,
    and an alpha outside (0, 1) ValueError, before the first replication.
    Replications that raise are either
    recorded and excluded (`on_error="record"`) or re-raised
    (`on_error="raise"`); acceptance-grade runs must end with a zero error
    count.
    """
    for m in methods:
        if m not in METHOD_NAMES:
            raise ValueError(f"unknown method {m!r}; expected from {METHOD_NAMES}")
    if on_error not in ("record", "raise"):
        raise ValueError("on_error must be 'record' or 'raise'")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    k = len(scenario.taus)

    weightings = tuple(
        WeightingMatrix.parse(w) if isinstance(w, str) else w for w in weightings)
    w_names = tuple(_weighting_name(w) for w in weightings)
    if len(set(w_names)) != len(w_names):
        raise ValueError(f"duplicate weighting names in {w_names}")
    spec = validate_spec(QuantileSpec(scenario.taus, null_values))
    taus = spec.taus
    subsets = all_subsets(k)
    n_subsets = len(subsets)
    containing = [np.array([i for i, s in enumerate(subsets) if s.contains(j + 1)])
                  for j in range(k)]
    tau_var = np.array([t * (1.0 - t) for t in taus])

    want_closed = "closed" in methods
    want_wald = "wald" in methods
    plans = [SubsetPlan(taus, w) for w in weightings]
    crits = [plan.critical_values(alpha) for plan in plans]

    hyp_counts = {}
    fw_counts = {}
    for name in w_names:
        if want_closed:
            hyp_counts[f"closed:{name}"] = np.zeros(k, dtype=int)
            fw_counts[f"closed:{name}"] = 0
    for m in ("bonferroni", "holm", "raw"):
        if m in methods:
            hyp_counts[m] = np.zeros(k, dtype=int)
            fw_counts[m] = 0
    if want_wald:
        hyp_counts["wald"] = np.zeros(k, dtype=int)
        fw_counts["wald"] = 0
    subset_counts = {f"rankscore:{name}": np.zeros(n_subsets, dtype=int)
                     for name in w_names}
    if want_wald:
        subset_counts["wald"] = np.zeros(n_subsets, dtype=int)

    used = 0
    error_count = 0
    error_messages = []
    error_classes = {}
    for rep in range(scenario.replications):
        try:
            dataset = generate(scenario, rep)
            state = score_state(dataset, spec)
            v_bar = state.v_bar
            score = state.score

            single_p = np.array([
                chisq_upper(score[j] ** 2 / (v_bar * tau_var[j]), 1)
                for j in range(k)])

            for plan, crit, name in zip(plans, crits, w_names):
                local_reject = plan.statistics(score, v_bar) >= crit
                subset_counts[f"rankscore:{name}"] += local_reject
                if want_closed:
                    decisions = _closed_decisions(local_reject, containing)
                    hyp_counts[f"closed:{name}"] += decisions
                    fw_counts[f"closed:{name}"] += bool(decisions.any())

            if "bonferroni" in methods:
                rej = bonferroni(single_p) <= alpha
                hyp_counts["bonferroni"] += rej
                fw_counts["bonferroni"] += bool(rej.any())
            if "holm" in methods:
                rej = holm(single_p) <= alpha
                hyp_counts["holm"] += rej
                fw_counts["holm"] += bool(rej.any())
            if "raw" in methods:
                rej = single_p <= alpha
                hyp_counts["raw"] += rej
                fw_counts["raw"] += bool(rej.any())

            if want_wald:
                wald_p = wald_test(dataset, spec)
                wald_reject = np.array([wald_p[s] <= alpha for s in subsets])
                subset_counts["wald"] += wald_reject
                singles = wald_reject[:k]
                hyp_counts["wald"] += singles
                fw_counts["wald"] += bool(singles.any())
        except MqrankError as exc:
            if on_error == "raise":
                raise
            error_count += 1
            cls = type(exc).__name__
            error_classes[cls] = error_classes.get(cls, 0) + 1
            if len(error_messages) < 8:
                error_messages.append(f"replication {rep}: {exc}")
            continue
        used += 1

    denom = max(used, 1)
    hypothesis_rejections = {name: counts / denom
                             for name, counts in hyp_counts.items()}
    familywise = {name: c / denom for name, c in fw_counts.items()}
    subset_rejections = {
        name: {subsets[i]: counts[i] / denom for i in range(n_subsets)}
        for name, counts in subset_counts.items()}

    return MonteCarloReport(scenario=scenario, alpha=alpha, methods=tuple(methods),
                            weightings=w_names, replications_used=used,
                            error_count=error_count,
                            error_messages=error_messages,
                            error_classes=error_classes,
                            hypothesis_rejections=hypothesis_rejections,
                            familywise=familywise,
                            subset_rejections=subset_rejections)


# --- scenario files ------------------------------------------------------------

_SCENARIO_FIELDS = {
    "dgp": str,
    "beta": float,
    "gamma": float,
    "n": int,
    "rho": float,
    "replications": int,
    "seed": int,
}


def parse_scenario_text(text: str) -> Scenario:
    """Parse the key-value scenario grammar.

    One ``key = value`` pair per line; ``#`` starts a comment; ``taus``
    is a comma-separated list; unknown keys are rejected.
    """
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"scenario line {lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        key = key.strip().lower()
        val = val.strip()
        if key == "taus":
            values["taus"] = tuple(float(v) for v in val.split(","))
        elif key in _SCENARIO_FIELDS:
            values[key] = _SCENARIO_FIELDS[key](val)
        else:
            raise ValueError(f"scenario line {lineno}: unknown key {key!r}")
    if "dgp" not in values:
        raise ValueError("scenario file must set 'dgp'")
    return Scenario(**values)


def load_scenario(path) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scenario_text(fh.read())
