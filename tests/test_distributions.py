import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate
from scipy.stats import chi2, ncx2

from mqrank import (WeightedChiSquareMixture, chisq_noncentral_upper,
                    chisq_upper, imhof_upper, mixture_quantile)
from mqrank.distributions import chisq_quantile

# Monte Carlo oracle values, frozen from 1e7-draw runs (helpers/oracle
# draws with numpy Philox-family generators, seed 20260809); each entry
# is (estimate, standard error).
MC_NCX2_K2_Z8_AT_5991 = (0.7175106, 0.000142)
MC_MIX_25_125_AT_05 = (0.2574601, 0.000138)
MC_MIX_25_125_Q95 = (1.157131, 0.00057)
MC_NCMIX_3Z3_15Z1_AT_2 = (0.2705645, 0.000141)

# imhof_upper's quadrature budgets keep its p-value error below 1e-10, and
# its deep-tail shortcut returns 0 only where the tail is below 1e-9
RULE_TOL = 1e-9


def test_chisq_upper_canonical_quantiles():
    assert chisq_upper(3.841, 1) == pytest.approx(0.05, abs=1e-3)
    assert chisq_upper(5.991, 2) == pytest.approx(0.05, abs=1e-3)
    assert chisq_upper(0.0, 3) == 1.0


def test_chisq_closed_forms_equal_scipy_stats_exactly():
    rng = np.random.default_rng(31)
    xs = np.concatenate([[-5.0, -1e-12, 0.0, 1e-300, 1e-8, 1e3],
                         rng.exponential(8.0, 200)])
    alphas = np.concatenate([[1e-15, 1e-9, 0.05, 0.5, 1.0 - 1e-9],
                             rng.random(200)])
    for k in range(1, 16):
        for x in xs:
            assert chisq_upper(float(x), k) == float(chi2.sf(x, k))
        for alpha in alphas:
            assert chisq_quantile(float(alpha), k) == float(chi2.isf(alpha, k))


def test_chisq_noncentral_zero_equals_central():
    for x in (0.5, 3.0, 10.0):
        for k in (1, 2, 5):
            assert chisq_noncentral_upper(x, k, 0.0) == chisq_upper(x, k)


def test_chisq_noncentral_monotone_in_zeta():
    grid = [0.0, 0.5, 2.0, 8.0, 20.0]
    for x in (1.0, 5.991, 12.0):
        vals = [chisq_noncentral_upper(x, 2, z) for z in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))


def test_chisq_noncentral_vs_mc_oracle():
    est, se = MC_NCX2_K2_Z8_AT_5991
    assert abs(chisq_noncentral_upper(5.991, 2, 8.0) - est) <= 3 * se


def test_imhof_equal_weights_reduces_to_chisq():
    for k in (1, 2, 5):
        for w in (1.0, 0.5, 2.0):
            mix = WeightedChiSquareMixture(weights=(w,) * k)
            for x in (0.2, 1.0, 3.0, 5.991, 12.0):
                assert imhof_upper(mix, x) == pytest.approx(
                    chisq_upper(x / w, k), abs=1e-6)


def test_imhof_single_scaled_component():
    mix = WeightedChiSquareMixture(weights=(2.0,))
    assert imhof_upper(mix, 7.682) == pytest.approx(chisq_upper(3.841, 1), abs=1e-6)


def test_imhof_vs_mc_oracle_central():
    est, se = MC_MIX_25_125_AT_05
    mix = WeightedChiSquareMixture(weights=(0.25, 0.125))
    assert abs(imhof_upper(mix, 0.5) - est) <= 3 * se


def test_imhof_vs_mc_oracle_noncentral():
    est, se = MC_NCMIX_3Z3_15Z1_AT_2
    mix = WeightedChiSquareMixture(weights=(0.3, 0.15), noncentralities=(3.0, 1.0))
    assert abs(imhof_upper(mix, 2.0) - est) <= 3 * se


def test_imhof_monotone_and_limits():
    mix = WeightedChiSquareMixture(weights=(0.7, 0.2, 0.05))
    xs = np.linspace(0.0, 25.0, 40)
    ps = [imhof_upper(mix, x) for x in xs]
    assert ps[0] == 1.0
    assert all(b <= a + 1e-9 for a, b in zip(ps, ps[1:]))
    assert ps[-1] < 1e-6
    assert imhof_upper(mix, 1e-12) >= 1.0 - 1e-6


def test_imhof_noncentral_reduction_to_ncx2():
    mix = WeightedChiSquareMixture(weights=(1.0, 1.0), noncentralities=(3.0, 5.0))
    for x in (2.0, 5.991, 15.0):
        assert imhof_upper(mix, x) == pytest.approx(
            chisq_noncentral_upper(x, 2, 8.0), abs=1e-6)


def test_mixture_quantile_chisq_cases():
    mix = WeightedChiSquareMixture(weights=(1.0, 1.0))
    assert mixture_quantile(mix, 0.05) == pytest.approx(5.991, abs=1e-3)
    single = WeightedChiSquareMixture(weights=(2.0,))
    assert mixture_quantile(single, 0.05) == pytest.approx(7.682, abs=1e-3)


def test_mixture_quantile_vs_mc_percentile():
    est, se = MC_MIX_25_125_Q95
    mix = WeightedChiSquareMixture(weights=(0.25, 0.125))
    assert abs(mixture_quantile(mix, 0.05) - est) <= 3 * se


def test_mixture_quantile_roundtrip():
    mix = WeightedChiSquareMixture(weights=(0.9, 0.3, 0.1),
                                   noncentralities=(0.0, 1.0, 2.0))
    for x in (0.8, 2.5, 6.0):
        alpha = imhof_upper(mix, x)
        assert mixture_quantile(mix, alpha) == pytest.approx(x, abs=1e-4)


def test_mixture_validation():
    with pytest.raises(ValueError):
        WeightedChiSquareMixture(weights=(1.0, -0.5))
    with pytest.raises(ValueError):
        WeightedChiSquareMixture(weights=(1.0,), noncentralities=(-1.0,))
    with pytest.raises(ValueError):
        WeightedChiSquareMixture(weights=(1.0, 2.0), noncentralities=(0.0,))
    with pytest.raises(ValueError):
        mixture_quantile(WeightedChiSquareMixture(weights=(1.0,)), 1.5)


def test_mixture_moments():
    mix = WeightedChiSquareMixture(weights=(2.0, 0.5), noncentralities=(1.0, 3.0))
    assert mix.mean() == pytest.approx(2 * 2 + 0.5 * 4)
    assert mix.variance() == pytest.approx(4 * (2 + 4) + 0.25 * (2 + 12))


def _pair_upper_by_convolution(l1, l2, x):
    """P(l1 X1 + l2 X2 > x), X1, X2 iid chi-square(1), without Imhof.

    Conditioning on X1 = t gives P(X1 > x/l1) plus the integral over
    t < x/l1 of the chi-square(1) density times P(X2 > (x - l1 t)/l2);
    t = (x/l1) sin^2(phi) removes the density's singularity at 0.
    """
    a = x / l1

    def integrand(phi):
        return (2.0 * np.sqrt(a / (2.0 * np.pi)) * np.cos(phi)
                * np.exp(-0.5 * a * np.sin(phi) ** 2)
                * chi2.sf(x * np.cos(phi) ** 2 / l2, 1))

    body, _ = integrate.quad(integrand, 0.0, 0.5 * np.pi,
                             epsabs=1e-13, epsrel=1e-13, limit=200)
    return chi2.sf(a, 1) + body


@pytest.mark.parametrize("l1, l2", [(1.0, 0.3), (0.2, 0.05), (5.0, 0.01),
                                    (0.02, 20.0), (0.7, 0.69)])
def test_imhof_pairs_match_convolution(l1, l2):
    mix = WeightedChiSquareMixture(weights=(l1, l2))
    top = 45.0 * max(l1, l2)   # past the 1e-9 deep tail
    for x in np.geomspace(1e-3, top, 40):
        assert imhof_upper(mix, x) == pytest.approx(
            _pair_upper_by_convolution(l1, l2, x), abs=RULE_TOL)


_weights = st.lists(st.floats(1e-3, 1e2), min_size=1, max_size=9)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(weights=_weights, x=st.floats(1e-3, 60.0), step=st.floats(1e-6, 5.0))
def test_imhof_non_increasing_in_x(weights, x, step):
    mix = WeightedChiSquareMixture(weights=tuple(weights))
    scale = sum(weights)
    assert imhof_upper(mix, (x + step) * scale) <= \
        imhof_upper(mix, x * scale) + RULE_TOL


@settings(max_examples=60, deadline=None, derandomize=True)
@given(k=st.integers(1, 9), w=st.floats(1e-2, 1e2),
       level=st.floats(-9.0, -1e-6))
def test_imhof_equal_weights_match_chisq_property(k, w, level):
    x = w * chi2.isf(10.0 ** level, k)
    mix = WeightedChiSquareMixture(weights=(w,) * k)
    assert imhof_upper(mix, x) == pytest.approx(chisq_upper(x / w, k),
                                                 abs=RULE_TOL)


@pytest.mark.parametrize("k", [1, 2, 3, 5, 9])
def test_imhof_noncentral_equal_weights_match_ncx2(k):
    rng = np.random.default_rng(100 + k)
    for w in (0.05, 1.0, 12.0):
        zetas = rng.uniform(0.0, 6.0, size=k)
        mix = WeightedChiSquareMixture(weights=(w,) * k,
                                       noncentralities=tuple(zetas))
        for level in (-9.0, -6.0, -3.0, -1.0, -0.1, -1e-4):
            x = w * ncx2.isf(10.0 ** level, k, zetas.sum())
            assert imhof_upper(mix, x) == pytest.approx(
                ncx2.sf(x / w, k, zetas.sum()), abs=RULE_TOL)
