import json
import multiprocessing
import os
import signal
import warnings
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
from scipy.stats import kstest, skew

import mqrank.simulation as sim
from mqrank import (HypothesisSubset, MqrankError, QuantileSpec, Scenario,
                    WeightingMatrix, bridge_covariance, closed_test,
                    estimate_sparsity, fit, generate, run_monte_carlo,
                    score_state, wald_test)
from mqrank.exceptions import (BandwidthInfeasible, SingularCovariance,
                               SingularProjection, TooManyHypotheses,
                               ValidationError, ValidationIssue)
from mqrank.datamodel import MAX_HYPOTHESES, all_subsets
from mqrank.distributions import chisq_upper
from mqrank.simulation import (load_scenario, parse_scenario_text,
                               target_coefficients, wald_covariance,
                               wald_covariances, wald_p_values)


def test_generate_is_deterministic():
    sc = Scenario(dgp="skew_normal", beta=0.3, n=50, replications=1, seed=123)
    a = generate(sc, 7)
    b = generate(sc, 7)
    assert np.array_equal(a.y, b.y)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.Z, b.Z)
    c = generate(sc, 8)
    assert not np.array_equal(a.y, c.y)


def test_scenario_validation():
    with pytest.raises(ValueError):
        Scenario(dgp="cauchy")
    with pytest.raises(ValueError):
        Scenario(dgp="null_normal", n=5)
    with pytest.raises(ValueError):
        Scenario(dgp="null_normal", replications=0)
    with pytest.raises(ValueError):
        Scenario(dgp="null_normal", rho=1.0)
    for field in ("beta", "gamma"):
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError, match="finite"):
                Scenario(dgp="null_normal", **{field: bad})


def test_null_normal_moments():
    sc = Scenario(dgp="null_normal", beta=0.0, gamma=0.5, n=100,
                  replications=100, seed=5)
    resid = []
    for rep in range(100):
        ds = generate(sc, rep)
        resid.append(ds.y - 0.5 - 0.5 * ds.Z[:, 1])
    pooled = np.concatenate(resid)
    n = pooled.size
    assert abs(pooled.mean()) < 4 / np.sqrt(n)
    assert abs(pooled.var() - 1.0) < 0.05


def test_covariate_correlation():
    sc = Scenario(dgp="null_normal", n=100, replications=100, seed=8)
    xs, zs = [], []
    for rep in range(100):
        ds = generate(sc, rep)
        xs.append(ds.x)
        zs.append(ds.Z[:, 1])
    r = np.corrcoef(np.concatenate(xs), np.concatenate(zs))[0, 1]
    assert abs(r - 0.3) < 0.03


def test_scaled_t5_unit_variance_factor():
    # Var(t5) = 5/3, so the 3/5 scaling makes the base error unit variance
    assert (3.0 / 5.0) * (5.0 / 3.0) == 1.0
    sc = Scenario(dgp="scaled_t5", beta=0.4, gamma=0.5, n=100,
                  replications=200, seed=9)
    standardized = []
    for rep in range(200):
        ds = generate(sc, rep)
        mu = 0.5 + 0.4 * ds.x + 0.5 * ds.Z[:, 1]
        standardized.append((ds.y - mu) / (1.0 + np.abs(ds.x)))
    pooled = np.concatenate(standardized)
    assert abs(pooled.var() - 1.0) < 0.05


def test_hetero_normal_variance_structure():
    sc = Scenario(dgp="hetero_normal", beta=0.2, gamma=0.5, n=100,
                  replications=200, seed=10)
    ratios = []
    for rep in range(200):
        ds = generate(sc, rep)
        mu = 0.5 + 0.2 * ds.x + 0.5 * ds.Z[:, 1]
        ratios.append((ds.y - mu) ** 2 / (1.0 + np.abs(ds.x)))
    assert abs(np.concatenate(ratios).mean() - 1.0) < 0.05


def test_skew_normal_errors_are_right_skewed():
    sc = Scenario(dgp="skew_normal", beta=0.0, gamma=0.5, n=100,
                  replications=100, seed=11)
    resid = []
    for rep in range(100):
        ds = generate(sc, rep)
        resid.append(ds.y - 0.5 - 0.5 * ds.Z[:, 1])
    assert skew(np.concatenate(resid)) > 0.2


# --- scenario files -----------------------------------------------------------

def test_parse_scenario_text_grammar():
    text = """
    # power design
    dgp = hetero_normal
    beta = 0.6   # inline comment
    gamma = 0.5
    n = 100
    rho = 0.3
    taus = 0.05, 0.1, 0.15
    replications = 250
    seed = 17
    """
    sc = parse_scenario_text(text)
    assert sc.dgp == "hetero_normal"
    assert sc.taus == (0.05, 0.1, 0.15)
    assert sc.replications == 250 and sc.seed == 17


def test_parse_scenario_errors():
    with pytest.raises(ValueError):
        parse_scenario_text("dgp = not_a_dgp")
    with pytest.raises(ValueError):
        parse_scenario_text("dgp = null_normal\nwhatever = 3")
    with pytest.raises(ValueError):
        parse_scenario_text("beta = 0.5")
    with pytest.raises(ValueError):
        parse_scenario_text("dgp null_normal")


def test_load_scenario_file(tmp_path):
    path = tmp_path / "design.scenario"
    path.write_text("dgp = null_normal\nn = 40\ntaus = 0.5\nseed = 3\n")
    sc = load_scenario(path)
    assert sc.n == 40 and sc.taus == (0.5,)


# --- Wald comparator ------------------------------------------------------------

def test_wald_deterministic_and_complete():
    sc = Scenario(dgp="null_normal", n=100, replications=1, seed=21)
    ds = generate(sc, 0)
    spec = QuantileSpec((0.25, 0.5, 0.75))
    p1 = wald_test(ds, spec)
    p2 = wald_test(ds, spec)
    assert p1 == p2
    assert len(p1) == 7
    assert all(0.0 <= v <= 1.0 for v in p1.values())


def test_target_coefficients_recover_signal():
    rng_sc = Scenario(dgp="null_normal", beta=1.0, n=400, replications=1, seed=33)
    ds = generate(rng_sc, 0)
    spec = QuantileSpec((0.25, 0.5, 0.75))
    beta_hat = target_coefficients(ds, spec)
    assert np.all(np.abs(beta_hat - 1.0) < 0.25)


def test_wald_batches_equal_per_level_fits():
    ds = generate(Scenario(dgp="hetero_normal", beta=0.3, n=150,
                           replications=1, seed=41), 0)
    spec = QuantileSpec((0.1, 0.3, 0.5, 0.7, 0.9))
    m = ds.full_design()
    beta_loop = np.array([fit(m, ds.y, tau).gamma_hat[0] for tau in spec.taus])
    bread = np.array([
        np.linalg.inv((m * estimate_sparsity(m, ds.y, tau).f_hat[:, None]).T
                      @ m / ds.n)[0]
        for tau in spec.taus])
    cov_loop = (bridge_covariance(spec.taus)
                * (bread @ (m.T @ m / ds.n) @ bread.T) / ds.n)
    assert np.array_equal(target_coefficients(ds, spec), beta_loop)
    beta_hat, cov = wald_covariance(ds, spec)
    assert np.array_equal(beta_hat, beta_loop)
    assert np.array_equal(cov, cov_loop)


def test_wald_of_a_batch_equals_one_dataset_wald():
    # every dataset's coefficients, covariance and p-values have the same
    # bits in a batch as alone
    sc = Scenario(dgp="scaled_t5", beta=0.2, n=120, replications=6, seed=42)
    spec = QuantileSpec((0.1, 0.3, 0.5, 0.7, 0.9), (0.0, 0.1, -0.1, 0.0, 0.2))
    datasets = [generate(sc, rep) for rep in range(6)]
    beta_hat, cov = wald_covariances(datasets, spec)
    p_values = wald_p_values(beta_hat, cov, spec)
    for r, ds in enumerate(datasets):
        beta_one, cov_one = wald_covariance(ds, spec)
        assert np.array_equal(beta_hat[r], beta_one)
        assert np.array_equal(cov[r], cov_one)
        assert p_values[r].tolist() == list(wald_test(ds, spec).values())


def _per_subset_wald(dataset, spec):
    """wald_test one subset at a time, from its definition."""
    beta_hat, cov = wald_covariance(dataset, spec)
    dev = beta_hat - np.asarray(spec.null_values)
    out = {}
    for subset in all_subsets(spec.k):
        pos = subset.positions()
        stat = float(dev[pos] @ np.linalg.solve(cov[np.ix_(pos, pos)], dev[pos]))
        out[subset] = chisq_upper(stat, subset.size)
    return out


@pytest.mark.parametrize("k", [3, 5, 9])
def test_wald_test_equals_per_subset_solves(k):
    taus = tuple(np.linspace(0.1, 0.9, k))
    spec = QuantileSpec(taus, tuple(np.linspace(-0.1, 0.1, k)))
    sc = Scenario(dgp="hetero_normal", beta=0.2, n=150, replications=3, seed=53)
    for rep in range(3):
        ds = generate(sc, rep)
        got = wald_test(ds, spec)
        want = _per_subset_wald(ds, spec)
        assert list(got) == list(want)
        assert all(type(got[s]) is float and got[s] == want[s] for s in want)


def _fixed_wald_covariance(monkeypatch, beta_hat, cov):
    monkeypatch.setattr(sim, "wald_covariance",
                        lambda dataset, spec: (np.asarray(beta_hat), np.asarray(cov)))


def test_wald_test_names_first_singular_subset(monkeypatch):
    # hypotheses 1 and 2 have identical rows: every subset holding both is
    # singular, and 1,2 comes first
    _fixed_wald_covariance(monkeypatch, [0.3, -0.2, 0.1],
                           [[1.0, 1.0, 0.2], [1.0, 1.0, 0.2], [0.2, 0.2, 1.0]])
    with pytest.raises(SingularCovariance,
                       match=r"^Wald covariance singular for subset 1,2$"):
        wald_test(None, QuantileSpec((0.25, 0.5, 0.75)))


def test_wald_test_names_first_ill_conditioned_subset(monkeypatch):
    # an indefinite covariance: the blocks of 1,3 and of 2,3 both give a
    # negative statistic, while 1,2 is positive definite
    _fixed_wald_covariance(monkeypatch, [1.0, 1.0, 0.0],
                           [[1.0, 0.1, 2.0], [0.1, 1.0, 3.0], [2.0, 3.0, 1.0]])
    with pytest.raises(SingularCovariance,
                       match=r"^Wald statistic ill-conditioned for subset 1,3$"):
        wald_test(None, QuantileSpec((0.25, 0.5, 0.75)))


def test_wald_test_stops_above_the_cap(monkeypatch):
    k = MAX_HYPOTHESES + 1
    _fixed_wald_covariance(monkeypatch, np.zeros(k), np.eye(k))
    with pytest.raises(TooManyHypotheses, match=str(2 ** k - 1)):
        wald_test(None, QuantileSpec(tuple(np.linspace(0.04, 0.96, k))))


def test_wald_pvalues_approach_uniformity_at_large_n():
    sc = Scenario(dgp="null_normal", beta=0.0, gamma=0.5, n=2000,
                  taus=(0.5,), replications=1000, seed=37)
    spec = QuantileSpec((0.5,))
    sub = HypothesisSubset((1,))
    pvals = np.empty(1000)
    for rep in range(1000):
        ds = generate(sc, rep)
        pvals[rep] = wald_test(ds, spec)[sub]
    ks = kstest(pvals, "uniform").statistic
    assert ks < 1.358 / np.sqrt(1000)


# --- Monte Carlo engine -----------------------------------------------------------

def test_run_monte_carlo_reproducible():
    sc = Scenario(dgp="hetero_normal", beta=0.5, n=100,
                  taus=(0.25, 0.5, 0.75), replications=25, seed=44)
    r1 = run_monte_carlo(sc, methods=("closed", "bonferroni", "holm", "raw"),
                         weightings=("identity", "inverse"), on_error="raise")
    r2 = run_monte_carlo(sc, methods=("closed", "bonferroni", "holm", "raw"),
                         weightings=("identity", "inverse"), on_error="raise")
    assert r1.to_dict() == r2.to_dict()
    assert r1.to_csv_rows() == r2.to_csv_rows()
    assert r1.to_json() == r2.to_json()
    assert r1.error_count == 0


def test_run_monte_carlo_holm_dominates_bonferroni():
    sc = Scenario(dgp="hetero_normal", beta=0.6, n=100,
                  taus=(0.25, 0.5, 0.75), replications=60, seed=45)
    rep = run_monte_carlo(sc, methods=("bonferroni", "holm"), on_error="raise")
    assert np.all(rep.hypothesis_rejections["holm"]
                  >= rep.hypothesis_rejections["bonferroni"] - 1e-12)


def test_run_monte_carlo_singleton_pvalues_weighting_free():
    # singleton local tests coincide across weightings, so their subset
    # rejection rates must match exactly
    sc = Scenario(dgp="hetero_normal", beta=0.5, n=100,
                  taus=(0.25, 0.75), replications=40, seed=46)
    rep = run_monte_carlo(sc, methods=("closed",),
                          weightings=("identity", "diag-delta", "inverse"),
                          on_error="raise")
    for j in (1, 2):
        single = HypothesisSubset((j,))
        vals = {name: rep.subset_rejections[name][single]
                for name in rep.subset_rejections}
        assert len(set(vals.values())) == 1


def _replication_of(sc):
    """Map a generated dataset back to its replication index, so a stub
    fails on the same replications whichever process runs them."""
    index = {generate(sc, r).y.tobytes(): r for r in range(sc.replications)}
    return lambda dataset: index[dataset.y.tobytes()]


def _failing_on(sc, real, failures):
    """Stand-in for the batched step ``real`` that raises a new
    ``failures[r]()`` on a batch holding replication r: the engine's pass
    over a chunk, and the replay of replication r alone."""
    replication = _replication_of(sc)

    def stub(datasets, spec):
        for dataset in datasets:
            r = replication(dataset)
            if r in failures:
                raise failures[r]()
        return real(datasets, spec)
    return stub


def test_run_monte_carlo_records_errors(monkeypatch):
    sc = Scenario(dgp="null_normal", n=100, taus=(0.5,),
                  replications=10, seed=47)
    flaky = _failing_on(sc, sim.score_states, dict.fromkeys(
        (2, 5, 8), lambda: MqrankError("synthetic failure")))

    monkeypatch.setattr(sim, "score_states", flaky)
    rep = run_monte_carlo(sc, methods=("raw",), on_error="record")
    assert rep.error_count == 3
    assert rep.replications_used == 7
    assert any("synthetic failure" in m for m in rep.error_messages)
    assert rep.error_classes == {"MqrankError": 3}
    assert rep.to_dict()["error_classes"] == {"MqrankError": 3}

    with pytest.raises(MqrankError):
        run_monte_carlo(sc, methods=("raw",), on_error="raise")


@pytest.mark.parametrize("workers", [1, 3])
def test_failed_replication_adds_to_no_tally(monkeypatch, workers):
    # the Wald fits run last in a replication: when they raise, the rank-score,
    # closed and raw decisions of that replication must not be counted,
    # whether the replication ran in this process or in a forked worker
    sc = Scenario(dgp="null_normal", beta=2.0, n=100, taus=(0.25, 0.5, 0.75),
                  replications=9, seed=1)
    flaky = _failing_on(sc, sim.wald_covariances, dict.fromkeys(
        (2, 5, 8), lambda: SingularCovariance("synthetic failure")))

    monkeypatch.setattr(sim, "wald_covariances", flaky)
    monkeypatch.setattr(sim, "_worker_count", lambda reps: workers)
    rep = run_monte_carlo(sc, methods=("closed", "raw", "wald"))
    assert rep.replications_used == 6
    assert rep.error_classes == {"SingularCovariance": 3}
    for name, rates in rep.hypothesis_rejections.items():
        assert rates.tolist() == [1.0] * 3, name
    assert rep.familywise == dict.fromkeys(rep.hypothesis_rejections, 1.0)
    for name, table in rep.subset_rejections.items():
        assert set(table.values()) == {1.0}, name


def test_report_identical_for_any_worker_count(monkeypatch):
    # nine failures of two classes over 11 replications: every range of
    # every split below holds some, and only the first eight are kept
    sc = Scenario(dgp="hetero_normal", beta=0.4, n=100, taus=(0.25, 0.5, 0.75),
                  replications=11, seed=53)
    failures = {r: (lambda r=r, cls=cls: cls(f"synthetic failure {r}"))
                for r, cls in zip((0, 1, 3, 4, 5, 7, 8, 9, 10),
                                  [SingularProjection, BandwidthInfeasible] * 5)}
    monkeypatch.setattr(sim, "score_states",
                        _failing_on(sc, sim.score_states, failures))
    reports = []
    for workers in (1, 2, 3, 12):
        monkeypatch.setattr(sim, "_worker_count", lambda reps, w=workers: w)
        reports.append(run_monte_carlo(
            sc, methods=("closed", "holm", "raw"),
            weightings=("identity", "inverse")).to_dict())
        assert multiprocessing.active_children() == []
    assert all(rep == reports[0] for rep in reports[1:])
    assert reports[0]["replications_used"] == 2
    assert reports[0]["error_messages"] == [
        f"replication {r}: synthetic failure {r}" for r in (0, 1, 3, 4, 5, 7, 8, 9)]
    assert reports[0]["error_classes"] == {"SingularProjection": 5,
                                           "BandwidthInfeasible": 4}


def test_no_chunk_is_empty(monkeypatch, tmp_path):
    # more workers than replications, and chunks of uneven length; the
    # sizes are appended to a file, as forked workers share no list
    sc = Scenario(dgp="hetero_normal", beta=0.4, n=100, taus=(0.25, 0.5, 0.75),
                  replications=11, seed=60)
    monkeypatch.setattr(sim, "_worker_count", lambda reps: 1)
    serial = run_monte_carlo(sc, methods=("closed", "raw")).to_dict()
    log = tmp_path / "sizes"
    real = sim._replicate

    def logged(job, reps):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{len(reps)}\n")
        return real(job, reps)

    monkeypatch.setattr(sim, "_replicate", logged)
    for workers in (1, 2, 3, 12):
        monkeypatch.setattr(sim, "_worker_count", lambda reps, w=workers: w)
        assert run_monte_carlo(sc, methods=("closed", "raw")).to_dict() == serial
        sizes = [int(v) for v in log.read_text().split()]
        log.unlink()
        assert sum(sizes) == sc.replications
        assert min(sizes) >= 1
        assert len(sizes) >= min(workers, sc.replications)
        assert max(sizes) <= sim._CHUNK
        assert multiprocessing.active_children() == []


def _counting(real, sizes):
    """``real`` that records the number of datasets of every batch it gets."""
    def counted(datasets, spec):
        sizes.append(len(datasets))
        return real(datasets, spec)
    return counted


@pytest.mark.parametrize("on_error", ["record", "raise"])
def test_failure_in_the_middle_of_a_chunk(monkeypatch, on_error):
    # replication 5 fails inside the first chunk: the chunk's batch raises,
    # its replications run again one at a time, and the report (or the
    # raised error) is the one of a run with chunks of one replication
    sc = Scenario(dgp="hetero_normal", beta=0.4, n=100, taus=(0.25, 0.5, 0.75),
                  replications=2 * sim._CHUNK + 3, seed=58)
    sizes = []
    monkeypatch.setattr(sim, "score_states", _counting(_failing_on(
        sc, sim.score_states, {5: lambda: BandwidthInfeasible("synthetic 5")}),
        sizes))
    monkeypatch.setattr(sim, "_worker_count", lambda reps: 1)
    outcomes = []
    for chunk in (sim._CHUNK, 1):
        monkeypatch.setattr(sim, "_CHUNK", chunk)
        if on_error == "raise":
            with pytest.raises(BandwidthInfeasible, match="^synthetic 5$"):
                run_monte_carlo(sc, methods=("closed", "holm", "wald"),
                                on_error=on_error)
        else:
            outcomes.append(run_monte_carlo(
                sc, methods=("closed", "holm", "wald"), on_error=on_error).to_json())
        # the failure fired in a batch of several replications, then alone
        assert max(sizes) > 1 if chunk > 1 else set(sizes) == {1}
        sizes.clear()
    if on_error == "record":
        chunked, single = outcomes
        assert chunked == single
        report = json.loads(chunked)
        assert report["error_messages"] == ["replication 5: synthetic 5"]
        assert report["replications_used"] == sc.replications - 1


@pytest.mark.parametrize("workers", [1, 3])
def test_report_identical_for_any_chunk_length(monkeypatch, workers):
    # a replication's decisions have the same bits in any chunk, failures
    # and warnings included (tau = 0.02 clips its bandwidth at n = 40)
    sc = Scenario(dgp="scaled_t5", beta=0.3, n=40, taus=(0.02, 0.3, 0.7),
                  replications=3 * sim._CHUNK + 4, seed=59)
    failures = {r: (lambda r=r: SingularProjection(f"synthetic {r}"))
                for r in (1, sim._CHUNK + 2)}
    monkeypatch.setattr(sim, "wald_covariances",
                        _failing_on(sc, sim.wald_covariances, failures))
    monkeypatch.setattr(sim, "_worker_count", lambda reps: workers)
    reports = []
    for chunk in (sim._CHUNK, 1):
        monkeypatch.setattr(sim, "_CHUNK", chunk)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")
            report = run_monte_carlo(
                sc, methods=("closed", "bonferroni", "holm", "raw", "wald"),
                weightings=("identity", "inverse"))
        reports.append((report.to_json(),
                        [(w.category, str(w.message)) for w in caught]))
        assert multiprocessing.active_children() == []
    assert reports[0] == reports[1]
    assert json.loads(reports[0][0])["error_count"] == 2
    assert len(reports[0][1]) == 1     # the clip, once for the score and Wald fits


def test_raised_failure_is_replayed_in_caller(monkeypatch):
    # a worker stops at its failing replication and the caller runs that
    # replication again, so the caller sees the original exception; a
    # pickled ValidationError would not rebuild, since it takes issues
    sc = Scenario(dgp="null_normal", n=100, taus=(0.25, 0.75),
                  replications=9, seed=54)
    issues = [ValidationIssue("FirstCode", "first issue"),
              ValidationIssue("SecondCode", "second issue")]
    monkeypatch.setattr(sim, "score_states", _failing_on(
        sc, sim.score_states, {8: lambda: ValidationError(issues)}))
    raised = []
    for workers in (1, 3):
        monkeypatch.setattr(sim, "_worker_count", lambda reps, w=workers: w)
        with pytest.raises(ValidationError) as info:
            run_monte_carlo(sc, methods=("raw",), on_error="raise")
        raised.append(info.value)
        assert multiprocessing.active_children() == []
    serial, parallel = raised
    assert type(parallel) is type(serial) is ValidationError
    assert str(parallel) == str(serial)
    assert parallel.codes == serial.codes == ["FirstCode", "SecondCode"]


@pytest.mark.parametrize("workers", [1, 3])
def test_unrecorded_failure_is_replayed_under_record(monkeypatch, workers):
    # on_error="record" records only MqrankError; any other exception
    # reaches the caller as itself, wherever its replication ran
    sc = Scenario(dgp="null_normal", n=100, taus=(0.5,), replications=9, seed=57)
    monkeypatch.setattr(sim, "score_states", _failing_on(
        sc, sim.score_states, {4: lambda: ZeroDivisionError("synthetic")}))
    monkeypatch.setattr(sim, "_worker_count", lambda reps: workers)
    with pytest.raises(ZeroDivisionError, match="synthetic"):
        run_monte_carlo(sc, methods=("raw",), on_error="record")
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_warning_issued_once_per_run(monkeypatch, workers):
    # every replication clips the bandwidth at tau = 0.02 (n = 40); each
    # worker sees the warning, and the caller issues it once
    sc = Scenario(dgp="null_normal", n=40, taus=(0.02, 0.5), replications=6,
                  seed=3)
    monkeypatch.setattr(sim, "_worker_count", lambda reps: workers)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        run_monte_carlo(sc, methods=("raw",))
    assert [(w.category, str(w.message)) for w in caught] == [
        (RuntimeWarning,
         "bandwidth at tau=0.02 clipped to 0.018 to stay inside (0, 1)")]
    assert multiprocessing.active_children() == []


def test_clip_warning_names_the_callers_line(monkeypatch):
    # the warning names the first frame outside mqrank, here this file,
    # whichever public function reached the clipped bandwidth; the Monte
    # Carlo caller gets it once, from whichever worker and fit raised it
    sc = Scenario(dgp="null_normal", n=40, taus=(0.02, 0.5), replications=4,
                  seed=3)
    spec = QuantileSpec(sc.taus)
    ds = generate(sc, 0)
    monkeypatch.setattr(sim, "_worker_count", lambda reps: 2)
    calls = [lambda: score_state(ds, spec),
             lambda: estimate_sparsity(ds.Z, ds.y, 0.02),
             lambda: wald_test(ds, spec),
             lambda: run_monte_carlo(sc, methods=("raw", "wald"))]
    for call in calls:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")
            call()
        assert [(w.category, w.filename) for w in caught] == \
            [(RuntimeWarning, __file__)]
    assert multiprocessing.active_children() == []


def test_dead_worker_raises_instead_of_hanging(monkeypatch):
    # a worker killed mid-run (say, by the kernel's out-of-memory killer)
    # fails the call; its range is not silently dropped or waited on
    sc = Scenario(dgp="null_normal", n=100, taus=(0.5,), replications=4, seed=56)
    real = sim.score_states

    def killed_in_worker(datasets, spec):
        if multiprocessing.parent_process() is not None:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(datasets, spec)

    monkeypatch.setattr(sim, "score_states", killed_in_worker)
    monkeypatch.setattr(sim, "_worker_count", lambda reps: 2)
    with pytest.raises(BrokenProcessPool):
        run_monte_carlo(sc, methods=("raw",))
    assert multiprocessing.active_children() == []


def _report_in_daemon(sc):
    assert multiprocessing.current_process().daemon
    return run_monte_carlo(sc, methods=("closed", "raw")).to_dict()


def test_daemonic_caller_runs_replications_in_process(monkeypatch):
    # pool workers are daemonic and may not fork workers of their own
    sc = Scenario(dgp="hetero_normal", beta=0.4, n=100, taus=(0.25, 0.75),
                  replications=6, seed=55)
    monkeypatch.setattr(sim, "_worker_count", lambda reps: 1)
    serial = run_monte_carlo(sc, methods=("closed", "raw")).to_dict()
    monkeypatch.setattr(sim, "_worker_count", lambda reps: 2)
    with multiprocessing.get_context("fork").Pool(1) as pool:
        in_daemon = pool.apply_async(_report_in_daemon, (sc,)).get(timeout=300)
        pool.close()
        pool.join()
    assert in_daemon == serial


def test_run_monte_carlo_rejects_unknown_method():
    sc = Scenario(dgp="null_normal", n=100, taus=(0.5,), replications=1)
    with pytest.raises(ValueError):
        run_monte_carlo(sc, methods=("fisher",))


@pytest.mark.parametrize("weighting", [
    WeightingMatrix.identity(), WeightingMatrix.inverse(),
    WeightingMatrix.inverse_diag_delta(),
    WeightingMatrix.density_reciprocal("normal"),
    WeightingMatrix.custom([[2.0, 0.3, 0.0], [0.3, 1.0, 0.1], [0.0, 0.1, 0.5]]),
], ids=["identity", "inverse", "diag-delta", "density-normal", "custom"])
def test_engine_decisions_match_closed_test(weighting):
    # the engine thresholds unit-scale statistics against critical values;
    # the user-facing path compares inversion p-values against alpha — the
    # decisions must coincide replication by replication and subset by subset
    sc = Scenario(dgp="hetero_normal", beta=0.6, n=100,
                  taus=(0.1, 0.5, 0.9), replications=20, seed=52)
    rep = run_monte_carlo(sc, methods=("closed", "raw"),
                          weightings=(weighting,), on_error="raise")
    name = rep.weightings[0]
    spec = QuantileSpec(sc.taus)
    counts = np.zeros(3)
    subset_counts = {}
    for r in range(sc.replications):
        ds = generate(sc, r)
        state = score_state(ds, spec)
        direct = closed_test(state, weighting, alpha=0.05)
        counts += direct.rejected
        for sub, p in direct.local_p.items():
            subset_counts[sub] = subset_counts.get(sub, 0) + (p <= 0.05)
    assert np.allclose(counts / sc.replications,
                       rep.hypothesis_rejections[f"closed:{name}"])
    assert rep.subset_rejections[f"rankscore:{name}"] == {
        sub: c / sc.replications for sub, c in subset_counts.items()}
    # singleton local tests are the raw per-level tests
    for j in range(3):
        single = HypothesisSubset((j + 1,))
        assert rep.subset_rejections[f"rankscore:{name}"][single] == \
            rep.hypothesis_rejections["raw"][j]


def test_raw_singleton_size_where_null_holds():
    # beta = 0 only removes every x-effect in the homoscedastic mechanism;
    # with scale sqrt(1+|x|) the non-median quantiles still depend on x, so
    # only the median of the symmetric-error mechanisms is a true null
    sc = Scenario(dgp="null_normal", beta=0.0, gamma=0.5, n=100,
                  taus=(0.1, 0.25, 0.5, 0.75, 0.9), replications=1000, seed=50)
    rep = run_monte_carlo(sc, methods=("raw",), on_error="raise")
    rates = rep.hypothesis_rejections["raw"]
    assert np.all(rates >= 0.0365) and np.all(rates <= 0.0635)

    # supplementary: 3-SE band for the single-run heteroscedastic checks
    # (a 2-SE band on one 1000-rep draw would be flaky by construction)
    for dgp in ("scaled_t5", "hetero_normal"):
        sc = Scenario(dgp=dgp, beta=0.0, gamma=0.5, n=100, taus=(0.5,),
                      replications=1000, seed=51)
        rep = run_monte_carlo(sc, methods=("raw",), on_error="raise")
        rate = rep.hypothesis_rejections["raw"][0]
        assert 0.0293 <= rate <= 0.0707


def test_power_monotone_in_signal_strength():
    rates = []
    for beta in (0.4, 0.6, 0.8, 1.2):
        sc = Scenario(dgp="hetero_normal", beta=beta, gamma=0.5, n=100,
                      taus=(0.1, 0.25, 0.5, 0.75, 0.9),
                      replications=300, seed=48)
        rep = run_monte_carlo(sc, methods=("closed",), weightings=("identity",),
                              on_error="raise")
        rates.append(rep.hypothesis_rejections["closed:identity"])
    se = np.sqrt(0.25 / 300)
    for lo, hi in zip(rates, rates[1:]):
        assert np.all(hi >= lo - 2 * np.sqrt(2) * se)
