import numpy as np
import pytest
from scipy.stats import chi2, norm, t as student_t

from mqrank import (Dataset, HypothesisSubset, QuantileSpec,
                    NotPositiveDefinite, SingularProjection, WeightingMatrix,
                    analytic_power, bridge_covariance, estimate_sparsity,
                    fit, noncentrality_generalized, noncentrality_standard,
                    rank_score_function, score_state, statistic_generalized,
                    statistic_standard, weighted_projection)
from mqrank.distributions import (WeightedChiSquareMixture, imhof_upper,
                                  mixture_quantile)
from mqrank.rankscore import ErrorFamily, bandwidth, hall_sheather_bandwidth
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
    state = synthetic_state((0.5,), [0.0], v_bar=v)
    with pytest.raises(SingularProjection):
        statistic_standard(state, HypothesisSubset((1,)))


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
    # 27 programs of 400 observations: the column cap splits the batch
    (400, tuple(np.round(np.arange(1, 10) / 10, 1))),
    # every program is over the column cap: one linprog call per level
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


def test_t_family_density_matches_scipy_stats():
    # gammaln differences in place of scipy's log(poch): a few ulps apart
    taus = np.linspace(0.001, 0.999, 999)
    for df in (1.0, 2.5, 3.0, 5.0, 30.0, 300.0):
        family = ErrorFamily("t", df)
        got = np.array([family.density_at_quantile(float(tau)) for tau in taus])
        expected = student_t.pdf(student_t.ppf(taus, df), df)
        assert np.max(np.abs(got / expected - 1.0)) <= 1e-14


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
