import numpy as np
import pytest
from scipy.stats import kstest, skew

import mqrank.simulation as sim
from mqrank import (HypothesisSubset, MqrankError, QuantileSpec, Scenario,
                    WeightingMatrix, bridge_covariance, closed_test,
                    estimate_sparsity, fit, generate, run_monte_carlo,
                    score_state, wald_test)
from mqrank.exceptions import SingularCovariance
from mqrank.simulation import (load_scenario, parse_scenario_text,
                               target_coefficients, wald_covariance)


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


def test_run_monte_carlo_records_errors(monkeypatch):
    sc = Scenario(dgp="null_normal", n=100, taus=(0.5,),
                  replications=10, seed=47)
    real = sim.score_state
    calls = {"i": 0}

    def flaky(dataset, spec):
        calls["i"] += 1
        if calls["i"] % 3 == 0:
            raise MqrankError("synthetic failure")
        return real(dataset, spec)

    monkeypatch.setattr(sim, "score_state", flaky)
    rep = run_monte_carlo(sc, methods=("raw",), on_error="record")
    assert rep.error_count == 3
    assert rep.replications_used == 7
    assert any("synthetic failure" in m for m in rep.error_messages)
    assert rep.error_classes == {"MqrankError": 3}
    assert rep.to_dict()["error_classes"] == {"MqrankError": 3}

    calls["i"] = 0
    with pytest.raises(MqrankError):
        run_monte_carlo(sc, methods=("raw",), on_error="raise")


def test_failed_replication_adds_to_no_tally(monkeypatch):
    # wald_test runs last in a replication: when it raises, the rank-score,
    # closed and raw decisions of that replication must not be counted
    sc = Scenario(dgp="null_normal", beta=2.0, n=100, taus=(0.25, 0.5, 0.75),
                  replications=9, seed=1)
    real = sim.wald_test
    calls = {"i": 0}

    def flaky(dataset, spec):
        calls["i"] += 1
        if calls["i"] % 3 == 0:
            raise SingularCovariance("synthetic failure")
        return real(dataset, spec)

    monkeypatch.setattr(sim, "wald_test", flaky)
    rep = run_monte_carlo(sc, methods=("closed", "raw", "wald"))
    assert rep.replications_used == 6
    assert rep.error_classes == {"SingularCovariance": 3}
    for name, rates in rep.hypothesis_rejections.items():
        assert rates.tolist() == [1.0] * 3, name
    assert rep.familywise == dict.fromkeys(rep.hypothesis_rejections, 1.0)
    for name, table in rep.subset_rejections.items():
        assert set(table.values()) == {1.0}, name


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
