import re
import warnings
from itertools import combinations

import mpmath
import numpy as np
import pytest
from scipy.special import stdtrit
from scipy.stats import chi2, norm

from mqrank import (Dataset, HypothesisSubset, QuantileSpec,
                    NotPositiveDefinite, SingularProjection, WeightingMatrix,
                    analytic_power, bridge_covariance, estimate_sparsity,
                    fit, noncentrality_generalized, noncentrality_standard,
                    rank_score_function, score_state, statistic_generalized,
                    statistic_standard, weighted_projection)
from mqrank.distributions import (WeightedChiSquareMixture, imhof_upper,
                                  mixture_quantile)
from mqrank.multiplicity import closed_test
from mqrank.rankscore import (ErrorFamily, SubsetPlan, _mixture, bandwidth,
                              hall_sheather_bandwidth, score_states)
from helpers import intercept_only_duals, make_dataset, synthetic_state

# frozen from the same 1e7-draw oracle run as the distribution tests
MC_POWER_K2_Z8 = (0.7174789, 0.000142)


# --- bandwidth and sparsity ---------------------------------------------------

def test_hall_sheather_formula():
    n, tau = 100, 0.1
    z = norm.ppf(tau)
    expected = (n ** (-1 / 3) * norm.ppf(0.975) ** (2 / 3)
                * (1.5 * norm.pdf(z) ** 2 / (2 * z ** 2 + 1)) ** (1 / 3))
    assert hall_sheather_bandwidth(n, tau) == pytest.approx(expected, rel=1e-12)
    h, clipped = bandwidth(100, 0.05)
    assert not clipped
    assert 0 < h < 0.05


def test_hall_sheather_matches_scipy_stats_form_exactly():
    def reference(n, tau, alpha=0.05):
        z = norm.ppf(tau)
        num = 1.5 * norm.pdf(z) ** 2
        return float(n ** (-1.0 / 3.0) * norm.ppf(1.0 - alpha / 2.0) ** (2.0 / 3.0)
                     * (num / (2.0 * z ** 2 + 1.0)) ** (1.0 / 3.0))

    taus = np.concatenate([np.linspace(0.001, 0.999, 999),
                           np.random.default_rng(11).random(500)])
    for n in (20, 100, 1000):
        for alpha in (0.01, 0.05):
            for tau in taus:
                assert hall_sheather_bandwidth(n, float(tau), alpha) == \
                    reference(n, float(tau), alpha)


def test_bandwidth_clipping_warns():
    with pytest.warns(RuntimeWarning):
        sp = estimate_sparsity(np.ones((20, 1)),
                               np.random.default_rng(0).standard_normal(20),
                               0.05)
    assert sp.clipped
    assert sp.bandwidth == pytest.approx(0.9 * 0.05)


def test_sparsity_floor_applies_to_nonpositive_spread():
    # an atom at the median makes the tau +/- h fits coincide, so the
    # difference quotient is nonpositive and every entry hits the floor
    y = np.concatenate([np.full(30, 5.0), -10 + np.arange(10.0),
                        20 + np.arange(10.0)])
    sp = estimate_sparsity(np.ones((50, 1)), y, 0.5)
    assert np.all(sp.f_hat >= 0.01)
    assert np.any(sp.f_hat == 0.01)


def test_sparsity_intercept_only_all_equal():
    rng = np.random.default_rng(4)
    sp = estimate_sparsity(np.ones((60, 1)), rng.standard_normal(60), 0.3)
    assert np.allclose(sp.f_hat, sp.f_hat[0])


def test_sparsity_recovers_normal_density_at_median():
    rng = np.random.default_rng(11)
    n = 2000
    z = rng.standard_normal(n)
    Z = np.column_stack([np.ones(n), z])
    y = 1.0 + 0.5 * z + rng.standard_normal(n)
    sp = estimate_sparsity(Z, y, 0.5)
    assert abs(np.median(sp.f_hat) - norm.pdf(0.0)) < 0.05


# --- weighted projection --------------------------------------------------------

def test_projection_annihilates_nuisance_span():
    rng = np.random.default_rng(2)
    n = 40
    Z = np.column_stack([np.ones(n), rng.standard_normal(n)])
    x = Z @ np.array([2.0, -1.0])
    resid, v = weighted_projection(Z, x, np.ones(n))
    assert np.max(np.abs(resid)) < 1e-10
    assert v < 1e-20
    dataset = Dataset(y=rng.standard_normal(n), x=x, Z=Z)
    with pytest.raises(SingularProjection, match="span of the nuisance"):
        score_state(dataset, QuantileSpec((0.5,)))


def _hetero_dataset(x=None):
    """The n = 200 heteroscedastic dataset of the units tests, optionally
    with another target column."""
    ds = make_dataset(np.random.default_rng(20261020), n=200, scale="hetero")
    return ds if x is None else Dataset(y=ds.y, x=x, Z=ds.Z)


@pytest.mark.parametrize("name", ["identity", "inverse"])
def test_adjusted_p_values_do_not_depend_on_the_units_of_x(name):
    # x -> 2^k x scales the residual, the score and sqrt(v_bar) exactly, so
    # every statistic keeps its bits, down to x of order 1e-18
    ds = _hetero_dataset()
    spec = QuantileSpec((0.25, 0.5, 0.75))
    weighting = WeightingMatrix.parse(name)
    want = closed_test(score_state(ds, spec), weighting)
    for k in range(-60, 61):
        got = closed_test(score_state(_hetero_dataset(np.ldexp(ds.x, k)), spec),
                          weighting)
        assert np.array_equal(got.adjusted_p, want.adjusted_p), k
        assert got.local_p == want.local_p, k


def test_score_state_rejects_a_collinear_target_at_any_scale():
    ds = _hetero_dataset()
    spec = QuantileSpec((0.25, 0.5, 0.75))
    for x in (ds.Z @ np.array([2.0, -1.0]), np.full(ds.n, 3.7)):
        for scale in (1.0, 2.0 ** -40):
            with pytest.raises(SingularProjection, match="span of the nuisance"):
                score_state(_hetero_dataset(scale * x), spec)


def test_score_state_accepts_a_target_with_a_large_nuisance_part():
    # x + 1e7 z and 1.7e9 + x are not collinear, though their nuisance
    # part dwarfs their residual; an absolute bound on v_bar would flag both
    # once scaled by 2^-40, a scaling that keeps every bit of their p-values
    ds = _hetero_dataset()
    spec = QuantileSpec((0.25, 0.5, 0.75))
    want = closed_test(score_state(ds, spec), WeightingMatrix.identity())
    for x in (ds.x + 1e7 * ds.Z[:, 1], 1.7e9 + ds.x):
        got = closed_test(score_state(_hetero_dataset(x), spec),
                          WeightingMatrix.identity())
        assert np.allclose(got.adjusted_p, want.adjusted_p, rtol=0.0, atol=1e-6)
        scaled = closed_test(score_state(_hetero_dataset(2.0 ** -40 * x), spec),
                             WeightingMatrix.identity())
        assert np.array_equal(scaled.adjusted_p, got.adjusted_p)


def test_projection_weight_scale_cancels():
    rng = np.random.default_rng(3)
    n = 30
    Z = np.column_stack([np.ones(n), rng.standard_normal(n)])
    x = rng.standard_normal(n)
    w = rng.uniform(0.2, 2.0, size=n)
    d1, v1 = weighted_projection(Z, x, w)
    d2, v2 = weighted_projection(Z, x, 7.3 * w)
    assert np.allclose(d1, d2, atol=1e-12)
    assert v1 == pytest.approx(v2, rel=1e-12)


def test_projection_weighted_orthogonality():
    rng = np.random.default_rng(8)
    n = 80
    Z = np.column_stack([np.ones(n), rng.standard_normal((n, 2))])
    x = rng.standard_normal(n)
    w = rng.uniform(0.05, 3.0, size=n)
    resid, _ = weighted_projection(Z, x, w)
    assert np.max(np.abs(Z.T @ (w * resid))) <= 1e-6 * n


def test_projection_matches_extended_precision_oracle():
    from mpmath import mp, matrix, lu_solve
    rng = np.random.default_rng(17)
    n, p = 8, 2
    Z = np.column_stack([np.ones(n), rng.standard_normal(n)])
    x = rng.standard_normal(n)
    w = rng.uniform(0.1, 2.0, size=n)
    resid, v = weighted_projection(Z, x, w)

    with mp.workdps(50):
        Zm = matrix([[mp.mpf(v_) for v_ in row] for row in Z])
        gram = matrix(p, p)
        rhs = matrix(p, 1)
        for a in range(p):
            for b in range(p):
                gram[a, b] = mp.fsum(mp.mpf(w[i]) * Zm[i, a] * Zm[i, b]
                                     for i in range(n))
            rhs[a] = mp.fsum(mp.mpf(w[i]) * Zm[i, a] * mp.mpf(x[i])
                             for i in range(n))
        coef = lu_solve(gram, rhs)
        oracle = [mp.mpf(x[i]) - mp.fsum(Zm[i, a] * coef[a] for a in range(p))
                  for i in range(n)]
        err = max(abs(mp.mpf(resid[i]) - oracle[i]) for i in range(n))
    assert float(err) < 1e-10


# --- bridge covariance -----------------------------------------------------------

def test_bridge_covariance_values():
    delta = bridge_covariance((0.25, 0.75))
    assert np.allclose(delta, [[0.1875, 0.0625], [0.0625, 0.1875]])
    taus = (0.1, 0.25, 0.5, 0.75, 0.9)
    big = bridge_covariance(taus)
    assert np.allclose(np.diag(big), [t * (1 - t) for t in taus])
    assert np.allclose(big, big.T)
    assert np.linalg.eigvalsh(big)[0] > 0


# --- score state ------------------------------------------------------------------

def test_score_zero_when_target_orthogonal_to_duals():
    rng = np.random.default_rng(21)
    n = 40
    taus = (0.25, 0.5, 0.75)
    z = rng.standard_normal(n)
    Z = np.column_stack([np.ones(n), z])
    y = 0.5 + 0.4 * z + rng.standard_normal(n)
    b_rows = np.array([rank_score_function(fit(Z, y, t)) for t in taus])
    x = rng.standard_normal(n)
    x -= np.linalg.lstsq(b_rows.T, x, rcond=None)[0] @ b_rows
    assert np.max(np.abs(b_rows @ x)) < 1e-10
    state = score_state(Dataset(y=y, x=x, Z=Z), QuantileSpec(taus))
    assert np.max(np.abs(state.score)) < 1e-8


def test_score_intercept_only_matches_direct_formula():
    rng = np.random.default_rng(23)
    n = 10
    y = rng.standard_normal(n)
    x = rng.standard_normal(n)
    tau = 0.3
    with pytest.warns(RuntimeWarning, match="clipped"):
        state = score_state(Dataset(y=y, x=x, Z=np.ones((n, 1))),
                            QuantileSpec((tau,)))
    a = intercept_only_duals(y, tau)
    direct = np.sum((x - x.mean()) * (a - (1 - tau))) / np.sqrt(n)
    assert state.score[0] == pytest.approx(direct, abs=1e-10)


@pytest.mark.parametrize("n, taus", [
    (100, (0.1, 0.5, 0.9)),
    # 27 programs of 400 observations: one interior-point batch
    (400, tuple(np.round(np.arange(1, 10) / 10, 1))),
    # two programs are over the interior point's column cap: one batch per
    # program
    (10_000, (0.25, 0.5, 0.75)),
])
def test_score_state_fits_equal_per_level_solves(n, taus):
    ds = make_dataset(np.random.default_rng(37), n=n, beta=0.2, scale="hetero")
    nulls = tuple(0.05 * j - 0.12 for j in range(len(taus)))
    state = score_state(ds, QuantileSpec(taus, null_values=nulls))
    for j, (tau, null) in enumerate(zip(taus, nulls)):
        y_adj = ds.y - ds.x * null
        want = fit(ds.Z, y_adj, tau)
        got = state.fits[j]
        assert got.tau == want.tau and got.objective == want.objective
        assert np.array_equal(got.gamma_hat, want.gamma_hat)
        assert np.array_equal(got.a_hat, want.a_hat)
        want_sp = estimate_sparsity(ds.Z, y_adj, tau)
        got_sp = state.sparsity[j]
        assert (got_sp.tau, got_sp.bandwidth, got_sp.clipped) == \
            (want_sp.tau, want_sp.bandwidth, want_sp.clipped)
        for field in ("f_hat", "gamma_lo", "gamma_hi"):
            assert np.array_equal(getattr(got_sp, field), getattr(want_sp, field))


def test_score_states_of_a_batch_equal_one_dataset_states():
    # a dataset's state has the same bits in any batch, clipped bandwidths
    # and nonzero null values included; so has each of several datasets
    # that share one design and have tied four-level responses, whose
    # programs the simplex fallback solves
    rng = np.random.default_rng(47)
    datasets = [make_dataset(rng, n=40, beta=0.3, scale="hetero") for _ in range(7)]
    datasets += [Dataset(y=rng.integers(0, 4, 40).astype(float),
                         x=rng.standard_normal(40), Z=datasets[0].Z)
                 for _ in range(4)]
    spec = QuantileSpec((0.02, 0.3, 0.6, 0.9), null_values=(0.1, -0.2, 0.0, 0.3))
    with pytest.warns(RuntimeWarning, match="clipped"):
        states = score_states(datasets, spec)
    with pytest.warns(RuntimeWarning, match="clipped"):
        alone = [score_state(ds, spec) for ds in datasets]
    for got, want in zip(states, alone, strict=True):
        assert got.v_bar == want.v_bar
        for field in ("score", "v_per_tau", "proj_resid", "bridge"):
            assert np.array_equal(getattr(got, field), getattr(want, field))
        for g, w in zip(got.fits + got.sparsity, want.fits + want.sparsity):
            assert g.tau == w.tau
            for field in ("a_hat", "gamma_hat", "f_hat", "gamma_lo", "gamma_hi"):
                if hasattr(w, field):
                    assert np.array_equal(getattr(g, field), getattr(w, field))


def test_score_entries_on_integer_responses_do_not_depend_on_the_other_levels():
    # hypothesis j's entry comes from the fits at tau_j and tau_j +/- h
    # alone: on integer responses, whose ties leave programs to the simplex
    # fallback, testing more levels must not move it
    ds = make_dataset(np.random.default_rng(2), n=100)
    ds = Dataset(y=np.round(ds.y), x=ds.x, Z=ds.Z)
    taus = (0.25, 0.5, 0.75)
    full = score_state(ds, QuantileSpec(taus)).score
    for subset in ((0.5,), (0.25, 0.5), (0.5, 0.75)):
        got = score_state(ds, QuantileSpec(subset)).score
        assert np.array_equal(got, full[[taus.index(t) for t in subset]])


def test_score_states_rejects_datasets_of_different_shapes():
    rng = np.random.default_rng(48)
    with pytest.raises(ValueError, match="one shape"):
        score_states([make_dataset(rng, n=40), make_dataset(rng, n=41)],
                     QuantileSpec((0.25, 0.75)))


def test_score_state_bookkeeping():
    rng = np.random.default_rng(29)
    ds = make_dataset(rng, n=80)
    spec = QuantileSpec((0.2, 0.5, 0.8))
    state = score_state(ds, spec)
    assert state.k == 3 and state.n == 80
    for j in range(3):
        assert state.v_per_tau[j] == pytest.approx(
            float(state.proj_resid[j] @ state.proj_resid[j]) / 80, rel=1e-12)
    assert state.v_bar == pytest.approx(state.v_per_tau.mean(), rel=1e-12)
    # offsets shift the restricted fit: nonzero nulls change the score
    shifted = score_state(ds, QuantileSpec((0.2, 0.5, 0.8),
                                           null_values=(0.5, 0.5, 0.5)))
    assert not np.allclose(shifted.score, state.score)


# --- statistics -------------------------------------------------------------------

def test_subset_out_of_range_rejected():
    state = synthetic_state((0.25, 0.75), [0.1, 0.2])
    with pytest.raises(ValueError):
        statistic_standard(state, HypothesisSubset((1, 3)))
    with pytest.raises(ValueError):
        statistic_generalized(state, HypothesisSubset((5,)),
                              WeightingMatrix.identity())


def test_statistic_standard_zero_score():
    state = synthetic_state((0.25, 0.75), [0.0, 0.0])
    out = statistic_standard(state, HypothesisSubset((1, 2)))
    assert out.statistic == 0.0
    assert out.p_value == 1.0


def test_statistic_standard_scalar_formula():
    state = synthetic_state((0.5,), [0.3], v_bar=0.8)
    out = statistic_standard(state, HypothesisSubset((1,)))
    assert out.statistic == pytest.approx(0.3 ** 2 / (0.8 * 0.25), rel=1e-12)
    assert out.p_value == pytest.approx(chi2.sf(out.statistic, 1), rel=1e-12)


def test_generalized_inverse_weighting_equals_standard():
    rng = np.random.default_rng(31)
    ds = make_dataset(rng, n=90, beta=0.4, scale="hetero")
    state = score_state(ds, QuantileSpec((0.1, 0.5, 0.9)))
    inverse = WeightingMatrix.inverse()
    for indices in [(1,), (2,), (1, 2), (1, 3), (2, 3), (1, 2, 3)]:
        sub = HypothesisSubset(indices)
        std = statistic_standard(state, sub)
        gen = statistic_generalized(state, sub, inverse)
        assert abs(gen.statistic - std.statistic) <= 1e-10
        assert abs(gen.p_value - std.p_value) <= 1e-10


def test_generalized_singleton_scalar_weights():
    state = synthetic_state((0.5,), [0.4], v_bar=0.9)
    out = statistic_generalized(state, HypothesisSubset((1,)),
                                WeightingMatrix.identity())
    assert out.statistic == pytest.approx(0.16, rel=1e-12)
    lam = 0.9 * 0.25
    assert out.p_value == pytest.approx(chi2.sf(0.16 / lam, 1), rel=1e-10)


def test_generalized_identity_weights_are_bridge_eigenvalues():
    state = synthetic_state((0.25, 0.75), [0.1, 0.2], v_bar=1.0)
    out = statistic_generalized(state, HypothesisSubset((1, 2)),
                                WeightingMatrix.identity())
    assert sorted(out.reference.weights) == pytest.approx([0.125, 0.25], abs=1e-12)
    assert out.statistic == pytest.approx(0.1 ** 2 + 0.2 ** 2, rel=1e-12)


@pytest.mark.parametrize("v_bar", [0.3, 3.0])
def test_generalized_pvalues_scale_with_v_bar(v_bar):
    # oracle: the raw statistic against v_bar times the bridge eigenvalues
    taus = (0.1, 0.4, 0.6, 0.9)
    score = np.sqrt(v_bar) * np.array([0.3, -0.5, 0.4, 0.6])
    state = synthetic_state(taus, score, v_bar=v_bar)
    bridge = bridge_covariance(taus)
    for w in (WeightingMatrix.identity(), WeightingMatrix.inverse_diag_delta()):
        for indices in [(1, 2), (2, 4), (1, 3, 4), (1, 2, 3, 4)]:
            sub = HypothesisSubset(indices)
            pos = sub.positions()
            b = w.materialize(taus, sub)
            chol = np.linalg.cholesky(bridge[np.ix_(pos, pos)])
            weights = v_bar * np.linalg.eigvalsh(chol.T @ b @ chol)
            raw = float(score[pos] @ b @ score[pos])
            oracle = imhof_upper(WeightedChiSquareMixture(tuple(weights)), raw)
            out = statistic_generalized(state, sub, w)
            assert out.statistic == pytest.approx(raw, rel=1e-12)
            assert abs(out.p_value - oracle) <= 1e-9


def test_analytic_power_scales_with_v_bar():
    # oracle: score ~ N(g, vn * bridge); with chol the Cholesky factor of
    # that covariance, chol' chol = U diag(lam) U' and zeta = (U' chol^-1 g)^2
    taus = (0.1, 0.25, 0.5, 0.75, 0.9)
    g = np.array([0.9, 0.6, 0.3, 0.0, -0.3])
    vn = 0.8
    table = analytic_power(taus, g, vn, WeightingMatrix.identity(), 0.05)
    bridge = bridge_covariance(taus)
    for sub, power in table.items():
        pos = sub.positions()
        chol = np.linalg.cholesky(vn * bridge[np.ix_(pos, pos)])
        lam, vecs = np.linalg.eigh(chol.T @ chol)
        zetas = (vecs.T @ np.linalg.solve(chol, g[pos])) ** 2
        crit = mixture_quantile(WeightedChiSquareMixture(tuple(lam)), 0.05)
        oracle = imhof_upper(WeightedChiSquareMixture(tuple(lam), tuple(zetas)),
                             crit)
        assert abs(power - oracle) <= 1e-9


def test_statistics_nonnegative_and_subset_consistent():
    rng = np.random.default_rng(37)
    ds = make_dataset(rng, n=70, beta=0.3)
    taus = (0.2, 0.4, 0.6, 0.8)
    state = score_state(ds, QuantileSpec(taus))
    full = HypothesisSubset((1, 2, 3, 4))
    for indices in [(1,), (2, 4), (1, 3, 4), (1, 2, 3, 4)]:
        sub = HypothesisSubset(indices)
        out = statistic_standard(state, sub)
        assert out.statistic >= 0.0
        pos = sub.positions()
        assert np.array_equal(state.score[pos],
                              state.score[full.positions()][pos])
        assert np.allclose(state.covariance(sub),
                           state.covariance(full)[np.ix_(pos, pos)])


def test_statistics_invariant_under_affine_response_maps():
    rng = np.random.default_rng(41)
    ds = make_dataset(rng, n=60, beta=0.5)
    spec = QuantileSpec((0.25, 0.5, 0.75))
    state = score_state(ds, spec)
    sub = HypothesisSubset((1, 2, 3))
    base_std = statistic_standard(state, sub).statistic
    base_gen = statistic_generalized(state, sub,
                                     WeightingMatrix.identity()).statistic
    for _ in range(10):
        c = float(rng.uniform(0.1, 8.0))
        delta = rng.standard_normal(2) * 4
        mapped = Dataset(y=c * ds.y + ds.Z @ delta, x=ds.x, Z=ds.Z)
        st = score_state(mapped, spec)
        assert statistic_standard(st, sub).statistic == pytest.approx(
            base_std, abs=1e-8)
        assert statistic_generalized(st, sub, WeightingMatrix.identity()
                                     ).statistic == pytest.approx(base_gen, abs=1e-8)


def test_null_calibration_95th_percentile():
    rng = np.random.default_rng(43)
    spec = QuantileSpec((0.25, 0.75))
    sub = HypothesisSubset((1, 2))
    stats = np.empty(1000)
    for r in range(1000):
        ds = make_dataset(rng, n=100, beta=0.0)
        state = score_state(ds, spec)
        stats[r] = statistic_standard(state, sub).statistic
    q95 = np.quantile(stats, 0.95)
    assert abs(q95 - 5.991) < 0.6


# --- noncentrality and power -------------------------------------------------------

def test_noncentrality_standard_cases():
    a = bridge_covariance((0.25, 0.75))
    assert noncentrality_standard(np.zeros(2), a) == 0.0
    assert noncentrality_standard(np.array([0.5]), np.array([[0.2]])) \
        == pytest.approx(0.25 / 0.2)
    assert noncentrality_standard(np.ones(2), a) == pytest.approx(8.0, rel=1e-12)


def test_noncentrality_generalized_consistency():
    a = bridge_covariance((0.25, 0.75)) * 0.7
    g = np.array([0.3, -0.4])
    lam, zetas = noncentrality_generalized(g, a, np.linalg.inv(a))
    assert np.allclose(lam, 1.0, atol=1e-10)
    assert zetas.sum() == pytest.approx(noncentrality_standard(g, a), rel=1e-10)
    lam0, zetas0 = noncentrality_generalized(np.zeros(2), a, np.eye(2))
    assert np.allclose(zetas0, 0.0)


def test_mixture_of_a_stack_equals_single_calls_bit_for_bit():
    rng = np.random.default_rng(61)
    for m in (1, 2, 5):
        g, h = rng.standard_normal((2, 7, m, m))
        a = g @ np.swapaxes(g, -1, -2) + m * np.eye(m)
        b = h @ np.swapaxes(h, -1, -2) + 0.1 * np.eye(m)
        stacked = _mixture(a, b)
        for c in range(7):
            for got, want in zip(stacked, _mixture(a[c], b[c])):
                assert np.array_equal(got[c], want)


@pytest.mark.parametrize("k", [5, 9])
@pytest.mark.parametrize("name", ["identity", "inverse", "diag-delta",
                                  "density:normal", "custom"])
def test_plan_stacks_equal_per_subset_terms(k, name):
    """Each size's stack holds, row by row, what the per-subset
    decomposition gives, bit for bit; the closure's local p-values agree
    with statistic_generalized's one-row tails."""
    taus = tuple(np.linspace(0.1, 0.9, k))
    if name == "custom":
        g = np.random.default_rng(k).standard_normal((k, k))
        weighting = WeightingMatrix.custom(g @ g.T + k * np.eye(k))
    else:
        weighting = WeightingMatrix.parse(name)
    v_bar = 1.3
    state = synthetic_state(taus, np.random.default_rng(67).standard_normal(k),
                            v_bar=v_bar)
    plan = SubsetPlan(taus, weighting)
    rows = [row for _, *stack in plan._stacks for row in zip(*stack)]
    assert len(rows) == len(plan.subsets)
    stats = plan.statistics(state.score, v_bar)
    for subset, (pos, b_c, lam, proj), stat in zip(plan.subsets, rows, stats):
        assert np.array_equal(pos, subset.positions())
        assert np.array_equal(b_c, weighting.materialize(taus, subset))
        want_lam, vecs, a_inv_half = _mixture(state.bridge[pos][:, pos], b_c)
        assert np.array_equal(lam, want_lam)
        assert np.array_equal(proj, vecs.T @ a_inv_half)
        s_c = state.score[pos]
        assert stat == max(float(s_c @ b_c @ s_c), 0.0) / v_bar
    local_p = closed_test(state, weighting).local_p
    assert min(local_p.values()) < 0.05 < max(local_p.values())
    for subset, p in local_p.items():
        assert p == pytest.approx(
            statistic_generalized(state, subset, weighting).p_value, abs=1e-12)


@pytest.mark.parametrize("k", [5, 9])
@pytest.mark.parametrize("name", ["identity", "inverse", "density:normal"])
def test_plan_statistics_of_a_score_stack_equal_one_row_calls(k, name):
    # the Monte Carlo engine takes a chunk's statistics from one (R, K)
    # stack of scores: each row must have the bits of its own call
    plan = SubsetPlan(tuple(np.linspace(0.1, 0.9, k)), WeightingMatrix.parse(name))
    rng = np.random.default_rng(k)
    score = rng.standard_normal((9, k)) * rng.uniform(0.1, 3.0, (9, 1))
    v_bar = rng.uniform(0.2, 2.0, 9)
    stack = plan.statistics(score, v_bar)
    assert stack.shape == (9, 2 ** k - 1)
    for row, s, v in zip(stack, score, v_bar):
        assert np.array_equal(row, plan.statistics(s, float(v)))


@pytest.mark.parametrize("k", [5, 9])
def test_plan_weighting_stacks_equal_independent_reference(k):
    """Every subset's B_c in the plan's stacks, bit for bit against a
    per-subset construction from its definition."""
    taus = tuple(np.linspace(0.1, 0.9, k))
    t = np.asarray(taus)
    bridge = bridge_covariance(taus)
    g = np.random.default_rng(k).standard_normal((k, k))
    custom = g @ g.T + k * np.eye(k)
    families = {"density:normal": ErrorFamily("normal"),
                "density:t:3": ErrorFamily("t", 3.0)}

    def reference(name, pos):
        if name == "identity":
            return np.eye(pos.size)
        if name == "diag-delta":
            return np.diag(1.0 / (t[pos] * (1.0 - t[pos])))
        if name in families:
            dens = np.array([families[name].density_at_quantile(tau)
                             for tau in t[pos]])
            return np.diag(1.0 / dens ** 2)
        if name == "custom":
            return custom[np.ix_(pos, pos)]
        inv = np.linalg.inv(bridge[np.ix_(pos, pos)])
        return 0.5 * (inv + inv.T)

    for name in ("identity", "inverse", "diag-delta", "density:normal",
                 "density:t:3", "custom"):
        weighting = (WeightingMatrix.custom(custom) if name == "custom"
                     else WeightingMatrix.parse(name))
        plan = SubsetPlan(taus, weighting)
        stacked = [b_c for _, _, b, *_ in plan._stacks for b_c in b]
        assert len(stacked) == len(plan.subsets)
        for subset, b_c in zip(plan.subsets, stacked):
            assert np.array_equal(b_c, reference(name, subset.positions())), \
                (name, str(subset))
    with pytest.raises(ValueError, match=f"but K={k - 1}"):
        SubsetPlan(taus[:-1], WeightingMatrix.custom(custom))


def test_noncentrality_generalized_moment_matches_mc():
    rng = np.random.default_rng(47)
    a = bridge_covariance((0.25, 0.75))
    b = np.eye(2)
    g = np.ones(2)
    lam, zetas = noncentrality_generalized(g, a, b)
    expected = float(np.sum(lam * (1 + zetas)))
    chol = np.linalg.cholesky(a)
    draws = g + (chol @ rng.standard_normal((2, 10 ** 6))).T
    mc = float(np.mean(np.einsum("ij,jk,ik->i", draws, b, draws)))
    assert abs(mc - expected) / expected < 0.01
    assert expected == pytest.approx(np.trace(b @ a) + g @ b @ g, rel=1e-12)


def test_analytic_power_null_recovers_alpha():
    table = analytic_power((0.25, 0.5, 0.75), np.zeros(3), 1.0,
                           WeightingMatrix.identity(), alpha=0.05)
    for p in table.values():
        assert p == pytest.approx(0.05, abs=1e-6)


def test_analytic_power_at_k9_leaks_no_overflow_warning():
    # some of these noncentral mixtures overflow the contour's expm1; their
    # rows go to the certified rule, and numpy's overflow and invalid-value
    # warnings stay inside the evaluator
    taus = (0.144, 0.158, 0.174, 0.236, 0.318, 0.539, 0.613, 0.822, 0.834)
    g = (-1.542, 2.550, -1.554, -0.262, 1.410, 2.668, -1.430, -3.006, 4.557)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = analytic_power(taus, np.array(g), 0.9, WeightingMatrix.identity())
    assert len(table) == 511
    assert all(0.0 <= p <= 1.0 for p in table.values())


def test_analytic_power_inverse_matches_mc_oracle():
    est, se = MC_POWER_K2_Z8
    table = analytic_power((0.25, 0.75), np.ones(2), 1.0,
                           WeightingMatrix.inverse(), alpha=0.05)
    p = table[HypothesisSubset((1, 2))]
    assert abs(p - est) <= 3 * se


def test_analytic_power_inverse_equals_explicit_standard():
    from mqrank.distributions import chisq_noncentral_upper, chisq_quantile
    taus = (0.1, 0.5, 0.9)
    g = np.array([0.8, 1.0, 0.4])
    v_bar = 0.83
    table = analytic_power(taus, g, v_bar, WeightingMatrix.inverse(), 0.05)
    bridge = bridge_covariance(taus)
    for sub, p in table.items():
        pos = sub.positions()
        zeta = noncentrality_standard(g[pos], v_bar * bridge[np.ix_(pos, pos)])
        direct = chisq_noncentral_upper(chisq_quantile(0.05, sub.size),
                                        sub.size, zeta)
        assert p == pytest.approx(direct, abs=1e-8)


@pytest.mark.parametrize("g", [0.5, [[0.5, 0.5]]])
def test_analytic_power_names_the_shape_of_a_misshapen_g(g):
    with pytest.raises(ValueError, match=re.escape(f"got shape {np.shape(g)} for K=2")):
        analytic_power((0.25, 0.75), g, 1.0, WeightingMatrix.identity())


def test_analytic_power_increases_with_signal():
    taus = (0.25, 0.75)
    weak = analytic_power(taus, np.full(2, 0.5), 1.0,
                          WeightingMatrix.identity(), 0.05)
    strong = analytic_power(taus, np.full(2, 2.0), 1.0,
                            WeightingMatrix.identity(), 0.05)
    for sub in weak:
        assert strong[sub] > weak[sub]


# --- weighting matrices --------------------------------------------------------------

def test_weighting_parse_round_trip():
    assert WeightingMatrix.parse("identity").kind == "identity"
    assert WeightingMatrix.parse("inverse").kind == "inverse"
    assert WeightingMatrix.parse("diag-delta").kind == "diag-delta"
    w = WeightingMatrix.parse("density:normal")
    assert w.kind == "density" and w.family.name == "normal"
    wt = WeightingMatrix.parse("density:t:5")
    assert wt.family.df == 5.0
    with pytest.raises(ValueError):
        WeightingMatrix.parse("density:cauchy")
    with pytest.raises(ValueError):
        WeightingMatrix.parse("nonsense")


@pytest.mark.parametrize("text", ["identity", "inverse", "diag-delta",
                                  "density:normal", "density:t:3.5"])
def test_weighting_name_round_trips_through_parse(text):
    w = WeightingMatrix.parse(text)
    assert w.name == text
    assert WeightingMatrix.parse(w.name) == w


def test_weighting_materialization():
    taus = (0.25, 0.5, 0.75)
    sub = HypothesisSubset((1, 3))
    ident = WeightingMatrix.identity().materialize(taus, sub)
    assert np.array_equal(ident, np.eye(2))
    diag = WeightingMatrix.inverse_diag_delta().materialize(taus, sub)
    assert np.allclose(np.diag(diag), [1 / 0.1875, 1 / 0.1875])
    dens = WeightingMatrix.density_reciprocal("normal").materialize(taus, sub)
    f25 = norm.pdf(norm.ppf(0.25))
    assert dens[0, 0] == pytest.approx(1 / f25 ** 2)
    inv = WeightingMatrix.inverse().materialize(taus, sub)
    expected = np.linalg.inv(bridge_covariance(taus)[np.ix_([0, 2], [0, 2])])
    assert np.allclose(inv, expected)


def test_normal_family_density_equals_scipy_stats_exactly():
    family = ErrorFamily("normal")
    for tau in np.linspace(0.001, 0.999, 999):
        assert family.density_at_quantile(float(tau)) == \
            float(norm.pdf(norm.ppf(tau)))


def test_t_family_density_matches_mpmath():
    # scipy.stats itself is 1.3e-13 off at df = 300 (a log-gamma
    # difference), so the reference is the density in extended precision
    # at the same double-precision quantile
    taus = np.linspace(0.001, 0.999, 99)
    for df in (1.0, 2.5, 3.0, 5.0, 30.0, 300.0, 3e3, 1e5, 1e8, 1e15, 1e20, 1e300):
        family = ErrorFamily("t", df)
        with mpmath.workdps(int(np.log10(df)) + 30):
            nu = mpmath.mpf(df)
            norm_const = mpmath.exp(mpmath.loggamma((nu + 1) / 2)
                                    - mpmath.loggamma(nu / 2)) / mpmath.sqrt(nu * mpmath.pi)
            for tau in taus:
                q = mpmath.mpf(float(stdtrit(df, tau)))
                want = norm_const * (1 + q * q / nu) ** (-(nu + 1) / 2)
                got = family.density_at_quantile(float(tau))
                assert abs(float(got / want) - 1.0) <= 1e-14, (df, tau)


def test_t_family_density_tends_to_normal():
    """Beyond df = 1e16 the t density equals the normal one in double
    precision; a difference of log-gammas was 21 times too large at 1e15."""
    for df in (1e16, 1e20, 1e100, 1e300):
        family = ErrorFamily("t", df)
        for tau in (0.01, 0.1, 0.5, 0.9, 0.99):
            assert family.density_at_quantile(tau) == pytest.approx(
                norm.pdf(norm.ppf(tau)), rel=1e-13)


@pytest.mark.parametrize("df", [float("nan"), float("inf"), 0.0, -1.0])
def test_t_family_rejects_non_finite_or_non_positive_df(df):
    with pytest.raises(ValueError, match="finite positive degrees of freedom"):
        WeightingMatrix.density_reciprocal("t", df)


def test_custom_weighting_validation_and_subsetting():
    mat = np.array([[2.0, 0.3, 0.0], [0.3, 1.0, 0.1], [0.0, 0.1, 0.5]])
    w = WeightingMatrix.custom(mat)
    sub = w.materialize((0.2, 0.5, 0.8), HypothesisSubset((1, 3)))
    assert np.allclose(sub, mat[np.ix_([0, 2], [0, 2])])
    with pytest.raises(NotPositiveDefinite):
        WeightingMatrix.custom(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(NotPositiveDefinite):
        WeightingMatrix.custom(np.array([[1.0, 0.0], [0.0, -2.0]]))
    with pytest.raises(ValueError):
        WeightingMatrix.density_reciprocal("t")
    # the 1e-6 asymmetry is within 1e-10 of the largest entry, 1e6, though
    # not of the lower block's: accepted once, the matrix builds every plan
    mat = np.diag([1e6, 1.0, 2.0])
    mat[1, 2], mat[2, 1] = 0.3, 0.3 + 1e-6
    plan = SubsetPlan((0.2, 0.5, 0.8), WeightingMatrix.custom(mat))
    assert np.array_equal(plan._stacks[1][2][2], mat[1:, 1:])


def _fails_spd_rule(b):
    """The per-matrix rule of a weighting: finite, symmetric within 1e-10
    of max(1, max |b|), smallest eigenvalue above 1e-10 times the largest,
    which is positive."""
    if not np.isfinite(b).all():
        return True
    if np.abs(b - b.T).max() > 1e-10 * max(1.0, np.abs(b).max()):
        return True
    eig = np.linalg.eigvalsh(0.5 * (b + b.T))
    return eig[0] <= 1e-10 * eig[-1] or eig[-1] <= 0.0


def _random_weightings(rng, count):
    """(taus, weighting, K x K matrix) triples: density weightings at
    levels out to 1e-6 from the ends, and symmetric custom matrices with
    eigenvalues spread over 13 decades, one in five with a negative one."""
    for _ in range(count):
        k = int(rng.integers(2, 7))
        ends = 10.0 ** rng.uniform(-6.0, np.log10(0.5), k)
        taus = tuple(np.unique(np.where(rng.random(k) < 0.5, ends, 1.0 - ends)))
        if rng.random() < 0.5:
            family = (("normal",) if rng.random() < 0.3
                      else ("t", 10.0 ** rng.uniform(-0.5, 1.0)))
            weighting = WeightingMatrix.density_reciprocal(*family)
            dens = np.array([weighting.family.density_at_quantile(t) for t in taus])
            yield taus, weighting, np.diag(1.0 / dens ** 2)
        else:
            q = np.linalg.qr(rng.standard_normal((len(taus), len(taus))))[0]
            eig = 10.0 ** rng.uniform(-13.0, 0.0, len(taus))
            if rng.random() < 0.2:
                eig[0] = -eig[0]
            m = (q * eig) @ q.T
            m = 0.5 * (m + m.T)
            yield taus, WeightingMatrix(kind="custom", matrix=m), m


def test_plan_rejects_a_weighting_exactly_when_some_sub_block_fails():
    """The K x K check stands for all 2^K - 1 per-subset checks (Cauchy
    interlacing), and its message gives the K x K eigenvalues. A weighting
    that passes can still meet the plan's separate check on the mixture
    weights (see the next test)."""
    outcomes = []
    for taus, weighting, full in _random_weightings(np.random.default_rng(29), 80):
        k = len(taus)
        oracle = any(_fails_spd_rule(full[np.ix_(pos, pos)])
                     for m in range(1, k + 1)
                     for pos in map(list, combinations(range(k), m)))
        outcomes.append(oracle)
        if weighting.kind == "custom" and oracle:
            with pytest.raises(NotPositiveDefinite):
                WeightingMatrix.custom(full)
        elif weighting.kind == "custom":
            WeightingMatrix.custom(full)
        try:
            SubsetPlan(taus, weighting)
            message = ""
        except NotPositiveDefinite as exc:
            message = str(exc)
        assert message.startswith(f"{weighting.kind} weighting matrix") == oracle
        if message and not oracle:
            assert message.startswith(f"{weighting.kind} weighting at levels ")
        if oracle:
            eig = np.linalg.eigvalsh(0.5 * (full + full.T))
            assert message.endswith(f"(eigenvalues {eig[0]:.3e} .. {eig[-1]:.3e})")
    assert 10 <= sum(outcomes) <= 70


def test_plan_names_the_weighting_and_subset_whose_mixture_weights_fail():
    """diag(2e-10, 1, 1) passes the weighting's 1e-10 eigenvalue-ratio rule,
    but with level 1 at tau = 1e-3 the smallest mixture weight of subset
    {1, 2} is below 1e-12 of its largest. For a diagonal B the weights are
    the eigenvalues of B^{1/2} A B^{1/2}, whose determinant b_1 det(A)
    gives the small one without cancellation."""
    taus = (1e-3, 0.5, 0.9)
    with pytest.raises(NotPositiveDefinite) as info:
        SubsetPlan(taus, WeightingMatrix.custom(np.diag([2e-10, 1.0, 1.0])))
    match = re.fullmatch(r"custom weighting at levels 1,2: mixture weights are "
                         r"not all strictly positive \(smallest/largest (\S+)\)",
                         str(info.value))
    assert match
    t1, t2 = taus[:2]
    trace = 2e-10 * t1 * (1.0 - t1) + t2 * (1.0 - t2)
    det = 2e-10 * t1 * (1.0 - t2) * (t2 - t1)
    large = 0.5 * (trace + np.sqrt(trace * trace - 4.0 * det))
    assert float(match.group(1)) == pytest.approx(det / large ** 2, rel=1e-3)
    # the singletons and subset {1, 3} (ratio 2.2e-12) pass on their own
    SubsetPlan((1e-3, 0.9), WeightingMatrix.custom(np.diag([2e-10, 1.0])))


def test_theorem_style_uniformity_of_null_pvalues():
    # one-sample KS distance of 1000 null p-values against Uniform(0,1),
    # repeated across meta-replications; at least 9 of 10 must pass at 5%
    from scipy.stats import kstest
    spec = QuantileSpec((0.5,))
    sub = HypothesisSubset((1,))
    passes = 0
    for meta in range(10):
        rng = np.random.default_rng(1000 + meta)
        pvals = np.empty(1000)
        for r in range(1000):
            ds = make_dataset(rng, n=100)
            state = score_state(ds, spec)
            pvals[r] = statistic_standard(state, sub).p_value
        ks = kstest(pvals, "uniform").statistic
        passes += ks < 1.358 / np.sqrt(1000)
    assert passes >= 9
