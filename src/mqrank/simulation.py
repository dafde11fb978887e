"""Monte Carlo harness: data-generating processes, Wald comparator, engine.

Replications are keyed by a counter-based generator (Philox) seeded with
(seed, replication_index), so a run is a pure function of its scenario no
matter how replications are scheduled. Rejection decisions inside the
engine avoid per-replication numerical inversion: each weighting's
:class:`~mqrank.rankscore.SubsetPlan` gives every subset's unit-scale
critical value once per run, and a replication rejects a subset when its
unit-scale statistic s_c' B_c s_c / v_bar reaches that value. The
closed decisions are :func:`~mqrank.multiplicity.closure_adjust` over the
plan's membership matrix, the same reduction as
:func:`~mqrank.multiplicity.closed_test`. Each chunk of replications
fills one dict of decisions, a row per replication, which is tallied
only once the whole chunk has succeeded; failed replications are
counted by exception class.

The engine cuts the replications once into near-equal chunks of at most
_CHUNK, at least one per CPU of the process's affinity mask, and maps a
pool of forked workers, one per CPU, over the chunks. A chunk is sent
with the run's plans and critical values, as one argument; its decisions
or failures come back with the warnings raised, and the caller counts
them in order and divides once, so a report is the same bits for any
number of CPUs.

A chunk is one pass: its datasets' score states are one
:func:`~mqrank.rankscore.score_states` batch and their Wald fits one
:func:`wald_covariances` batch, each one
:func:`~mqrank.qrsolver.fit_levels` call with every dataset's design at
every level, and every decision is an array operation over the chunk's
rows. Each fit, product and solve in a pass is a row's own call, so a
replication gets the same bits in any chunk. When a pass raises, its
chunk is replayed one replication at a time, so each failure is that of
its own replication, with its class and message, and the report is the
same bits for any chunk length.
"""

from __future__ import annotations

import functools
import json
import os
import warnings
from collections import Counter
from dataclasses import dataclass

import numpy as np

from ._special import chdtrc
from .datamodel import (Dataset, HypothesisSubset, QuantileSpec, all_subsets,
                        subset_positions, validate_spec)
from .exceptions import MqrankError, SingularCovariance
from .multiplicity import bonferroni, closure_adjust, holm
from .qrsolver import fit_levels, solve_regular
from .rankscore import (SubsetPlan, WeightingMatrix, bridge_covariance,
                        fit_with_sparsity, principal, score_states)

DGP_NAMES = ("null_normal", "scaled_t5", "skew_normal", "hetero_normal")
METHOD_NAMES = ("closed", "bonferroni", "holm", "raw", "wald")
# per-level methods: adjusted p-values from the K single-level p-values
_SINGLE_LEVEL = {"bonferroni": bonferroni, "holm": holm, "raw": np.asarray}
# failure messages a Monte Carlo report keeps, the first in replication order
_KEPT_MESSAGES = 8
# replications per engine pass: their LP programs are one fit_levels
# batch and their decisions one array operation. At n = 100, K = 5 (2-core
# x86) the 15 score programs cost 0.97 ms for one replication alone and
# 0.44-0.47 ms each in batches of 8 to 24; a chunk of 10 holds 150 such
# programs, one interior-point batch under _MAX_IPM_COLUMNS
_CHUNK = 10

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
        if not np.isfinite([self.beta, self.gamma]).all():
            raise ValueError("beta and gamma must be finite")
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
    """Sandwich covariance of the target coefficients across levels: the
    one-dataset case of :func:`wald_covariances`."""
    beta_hat, cov = wald_covariances([dataset], spec)
    return beta_hat[0], cov[0]


def wald_covariances(datasets, spec: QuantileSpec):
    """Target coefficients (R, K) and their sandwich covariances (R, K, K)
    across levels, for every dataset, datasets of one shape.

    Per level, the bread inverts the density-weighted Gram matrix of the
    full design with difference-quotient densities; cross-level blocks
    scale with the Brownian-bridge covariance of the levels. The fits of
    every dataset are one :func:`fit_with_sparsity` batch, and each matrix
    product and inverse is its own call.
    """
    m = np.array([ds.full_design() for ds in datasets])
    n = m.shape[1]
    j_mat = np.swapaxes(m, 1, 2) @ m / n
    fits, sparsity = fit_with_sparsity(
        m, np.array([[ds.y] * spec.k for ds in datasets]), spec.taus)
    beta_hat = np.array([[qfit.gamma_hat[0] for qfit in row] for row in fits])
    f_hat = np.array([[sp.f_hat for sp in row] for row in sparsity])
    h_mat = np.swapaxes(m[:, None] * f_hat[..., None], -1, -2) @ m[:, None] / n
    try:
        bread_rows = np.ascontiguousarray(np.linalg.inv(h_mat)[..., 0, :])
    except np.linalg.LinAlgError as exc:
        singular = np.nonzero(np.linalg.slogdet(h_mat)[0] == 0.0)[1]
        raise SingularCovariance(f"density-weighted Gram matrix singular at "
                                 f"tau={spec.taus[singular[0]]}") from exc
    cov = (bridge_covariance(spec.taus)
           * (bread_rows @ j_mat @ np.swapaxes(bread_rows, 1, 2)) / n)
    return beta_hat, cov


def wald_test(dataset: Dataset, spec: QuantileSpec) -> dict:
    """Joint Wald p-value for every nonempty subset of the hypotheses, in
    :func:`all_subsets` order: the one-dataset case of
    :func:`wald_p_values`."""
    beta_hat, cov = wald_covariance(dataset, spec)
    p_values = wald_p_values(beta_hat[None], cov[None], spec)[0]
    return dict(zip(all_subsets(spec.k), p_values.tolist()))


def wald_p_values(beta_hat: np.ndarray, cov: np.ndarray,
                  spec: QuantileSpec) -> np.ndarray:
    """Joint Wald p-values (R, 2^K - 1) in :func:`all_subsets` order, for
    each row of the (R, K) coefficients with its (R, K, K) covariance, from
    one stacked solve per subset size. SingularCovariance names the first
    subset, in that order and of the first row where several fail, whose
    covariance block is exactly singular or whose statistic is not finite
    and nonnegative."""
    dev = beta_hat - np.asarray(spec.null_values)
    p_values = []
    for pos in subset_positions(spec.k):
        sub = principal(cov, pos)
        # contiguous rows: BLAS gives other bits for strided vectors
        d = np.ascontiguousarray(dev[:, pos])
        stat = (d[..., None, :] @ solve_regular(sub, d)[..., :, None])[..., 0, 0]
        bad = np.argwhere(~np.isfinite(stat) | (stat < 0.0))
        if bad.size:
            problem = ("covariance singular"
                       if np.linalg.slogdet(sub[tuple(bad[0])])[0] == 0.0
                       else "statistic ill-conditioned")
            raise SingularCovariance(f"Wald {problem} for subset "
                                     f"{HypothesisSubset(tuple(pos[bad[0][1]] + 1))}")
        p_values.append(chdtrc(pos.shape[1], stat))
    return np.concatenate(p_values, axis=-1)


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


@dataclass(frozen=True)
class _Job:
    """What every replication of one run shares, built once per run."""

    scenario: Scenario
    spec: QuantileSpec
    alpha: float
    on_error: str
    tests: tuple        # (weighting name, SubsetPlan, critical values)
    closed: bool
    singles: tuple
    wald: bool


def _replicate(job: _Job, reps: range):
    """The decisions of the ``rows`` replications in ``reps``, computed as
    one chunk: ``(rows, rejected, local)``, each method's per-hypothesis
    and each local test's per-subset decisions, a row per replication.
    Raises where any of them fails.

    The chunk's score states and Wald fits are one batch each, and every
    decision is an array operation over the chunk's rows; a row has the
    bits of its replication run alone.
    """
    datasets = [generate(job.scenario, rep) for rep in reps]
    states = score_states(datasets, job.spec)
    score = np.array([state.score for state in states])
    v_bar = np.array([state.v_bar for state in states])
    t = np.asarray(job.spec.taus)
    # squared by libm's pow, as a scalar score ** 2 is; numpy's array
    # square (x * x) differs from it in the last bit for about 1 value in
    # 1,200
    single_p = chdtrc(1, np.float_power(score, 2) / (v_bar[:, None] * t * (1.0 - t)))

    rejected = {}
    local = {}
    for name, plan, crit in job.tests:
        local_reject = plan.statistics(score, v_bar) >= crit
        local[f"rankscore:{name}"] = local_reject
        if job.closed:
            rejected[f"closed:{name}"] = ~closure_adjust(~local_reject,
                                                         plan.member)
    for m in job.singles:
        rejected[m] = np.array([_SINGLE_LEVEL[m](p) for p in single_p]) <= job.alpha

    if job.wald:
        wald_p = wald_p_values(*wald_covariances(datasets, job.spec), job.spec)
        local["wald"] = wald_p <= job.alpha
        rejected["wald"] = local["wald"][:, :len(t)]
    return len(reps), rejected, local


def _run_chunk(job: _Job, reps: range):
    """The outcomes of the chunk ``reps``, in order, and the warnings they
    raised as (category, message).

    The chunk is one :func:`_replicate` pass, whose decisions are its one
    outcome. When the pass raises, the chunk is run again one replication
    at a time, and each outcome is that replication's decisions, the
    ``(class name, message)`` of a failure that ``job.on_error`` records,
    or the index of a failure that it does not record, which ends the
    chunk; the caller replays that one to raise. The warnings of a pass
    that raised are kept: a pass reaches a step only when all its
    replications got through the steps before, so the replay would raise
    them too, and the warnings registry may not show them twice.
    """
    with warnings.catch_warnings(record=True) as caught:
        try:
            outcomes = [_replicate(job, reps)]
        except Exception:
            outcomes = []
            for rep in reps:
                try:
                    outcomes.append(_replicate(job, range(rep, rep + 1)))
                except Exception as exc:
                    if job.on_error == "raise" or not isinstance(exc, MqrankError):
                        outcomes.append(rep)
                        break
                    outcomes.append((type(exc).__name__,
                                     f"replication {rep}: {exc}"))
    return outcomes, [(w.category, str(w.message)) for w in caught]


def _worker_count(replications: int) -> int:
    """The CPUs this process may run on, at most one per replication."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:      # no affinity masks on this platform
        cpus = 1
    return min(cpus, replications)


def _run_chunks(job: _Job, chunks: list, workers: int) -> list:
    """Each chunk's outcomes and warnings, in order: mapped over a pool of
    ``workers`` forked processes, or all in this process where there is
    one worker, no fork, or this process is itself a daemonic worker
    (which may not have children)."""
    # imported here, not on the import path of every command (about 10 ms)
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    run = functools.partial(_run_chunk, job)
    if (workers == 1
            or "fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.current_process().daemon):
        return list(map(run, chunks))
    # each chunk is sent with the job, as one pickled argument, and its
    # decisions come back to be counted by the caller. A worker that dies
    # raises BrokenProcessPool here instead of leaving its chunk unanswered.
    fork = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(workers, mp_context=fork) as pool:
        return list(pool.map(run, chunks))


def run_monte_carlo(scenario: Scenario,
                    methods: tuple = ("closed", "bonferroni", "holm", "raw"),
                    weightings=("identity",),
                    alpha: float = 0.05,
                    on_error: str = "record") -> MonteCarloReport:
    """Replicate the scenario and count rejections for each method.

    ``methods`` picks the per-hypothesis procedures; subset-level
    rejection rates of the local rank-score tests (one table per
    weighting) and of the Wald test (when requested) are always included
    for whatever is computed. An invalid level set raises ValidationError,
    and an alpha outside (0, 1) ValueError, before the first replication.
    Replications that raise are either
    recorded and excluded (`on_error="record"`) or re-raised
    (`on_error="raise"`); acceptance-grade runs must end with a zero error
    count. A failed replication adds to no tally, whatever step it failed
    in, so every rate is over the ``replications_used`` that succeeded.

    The replications are cut into near-equal chunks of at most _CHUNK,
    at least one per CPU of this process's affinity mask, and a pool of
    forked workers, one per CPU, runs the chunks, each passed with the
    run's plans and critical values (``taskset -c 0`` runs them all in
    this process). This process counts the chunks' decisions in
    replication order and divides once, so the report is the same for
    any number of workers: ``error_messages`` keeps the first eight,
    each distinct warning is issued once, and a failure that is
    re-raised, or that is not an ``MqrankError``, is replayed here so the
    caller gets the original exception. A worker that dies raises
    ``concurrent.futures.process.BrokenProcessPool``.
    """
    for m in methods:
        if m not in METHOD_NAMES:
            raise ValueError(f"unknown method {m!r}; expected from {METHOD_NAMES}")
    if on_error not in ("record", "raise"):
        raise ValueError("on_error must be 'record' or 'raise'")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")

    weightings = tuple(
        WeightingMatrix.parse(w) if isinstance(w, str) else w for w in weightings)
    w_names = tuple(w.name for w in weightings)
    if len(set(w_names)) != len(w_names):
        raise ValueError(f"duplicate weighting names in {w_names}")
    spec = validate_spec(QuantileSpec(scenario.taus))
    plans = [SubsetPlan(spec.taus, w) for w in weightings]
    job = _Job(
        scenario=scenario, spec=spec, alpha=alpha, on_error=on_error,
        tests=tuple((name, plan, plan.critical_values(alpha))
                    for name, plan in zip(w_names, plans)),
        closed="closed" in methods, wald="wald" in methods,
        singles=tuple(m for m in _SINGLE_LEVEL if m in methods))

    reps = scenario.replications
    # near-equal chunks of at most _CHUNK replications, at least one per
    # worker and none empty
    workers = _worker_count(reps)
    count = min(reps, max(workers, -(-reps // _CHUNK)))
    cuts = [reps * i // count for i in range(count + 1)]
    chunks = _run_chunks(job, list(map(range, cuts[:-1], cuts[1:])), workers)
    # each distinct warning once per run, at the caller's line
    for category, message in dict.fromkeys(w for _, caught in chunks for w in caught):
        warnings.warn(message, category, stacklevel=2)

    wald = ["wald"] if job.wald else []
    hyp_counts = {m: np.zeros(len(spec.taus), dtype=int)
                  for m in [f"closed:{w}" for w in w_names if job.closed]
                  + list(job.singles) + wald}
    fw_counts = dict.fromkeys(hyp_counts, 0)
    subsets = all_subsets(len(spec.taus))
    subset_counts = {t: np.zeros(len(subsets), dtype=int)
                     for t in [f"rankscore:{w}" for w in w_names] + wald}
    used = 0
    error_messages = []
    error_classes = Counter()
    for outcome in (o for outcomes, _ in chunks for o in outcomes):
        if isinstance(outcome, int):
            _replicate(job, range(outcome, outcome + 1))   # raises again
            raise RuntimeError(f"replication {outcome} raised in a worker "
                               "process but not when run again")
        if len(outcome) == 2:               # a recorded failure
            error_classes[outcome[0]] += 1
            if len(error_messages) < _KEPT_MESSAGES:
                error_messages.append(outcome[1])
            continue
        rows, rejected, local = outcome
        for name, rej in rejected.items():
            hyp_counts[name] += rej.sum(axis=0)
            fw_counts[name] += int(rej.any(axis=1).sum())
        for name, rej in local.items():
            subset_counts[name] += rej.sum(axis=0)
        used += rows

    denom = max(used, 1)
    return MonteCarloReport(
        scenario=scenario, alpha=alpha, methods=tuple(methods),
        weightings=w_names, replications_used=used,
        error_count=sum(error_classes.values()),
        error_messages=error_messages, error_classes=dict(error_classes),
        hypothesis_rejections={name: counts / denom
                               for name, counts in hyp_counts.items()},
        familywise={name: c / denom for name, c in fw_counts.items()},
        subset_rejections={
            name: {sub: c / denom for sub, c in zip(subsets, counts)}
            for name, counts in subset_counts.items()})


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
