import numpy as np
import pytest

from mqrank import (HypothesisSubset, QuantileSpec, Scenario,
                    TooManyHypotheses, WeightingMatrix, analytic_power,
                    bonferroni, closed_test, holm, run_monte_carlo,
                    score_state)
from mqrank.datamodel import MAX_HYPOTHESES, all_subsets
from mqrank.multiplicity import closure_adjust
from helpers import make_dataset, synthetic_state


def subset(*idx):
    return HypothesisSubset(idx)


def test_closure_adjust_three_hypotheses():
    local_p = {
        subset(1, 2, 3): 0.01,
        subset(1, 2): 0.02,
        subset(1, 3): 0.03,
        subset(1): 0.04,
        subset(2, 3): 0.20,
        subset(2): 0.50,
        subset(3): 0.30,
    }
    adjusted = closure_adjust(local_p, 3)
    assert np.allclose(adjusted, [0.04, 0.50, 0.30])
    assert list(adjusted <= 0.05) == [True, False, False]


def test_closure_all_ones_rejects_nothing():
    local_p = {s: 1.0 for s in all_subsets(3)}
    adjusted = closure_adjust(local_p, 3)
    assert np.all(adjusted == 1.0)


def test_bonferroni_examples():
    assert np.allclose(bonferroni([0.01, 0.2, 0.03]), [0.03, 0.6, 0.09])
    assert np.all(bonferroni([0.0, 0.0]) == 0.0)
    assert np.all(bonferroni([0.5, 0.5]) == 1.0)


def test_holm_examples():
    assert np.allclose(holm([0.01, 0.04, 0.03]), [0.03, 0.06, 0.06])
    p = np.array([0.2, 0.2, 0.2])
    assert np.allclose(holm(p), [0.6, 0.6, 0.6])


def test_holm_dominates_bonferroni():
    rng = np.random.default_rng(0)
    for _ in range(50):
        p = rng.uniform(size=int(rng.integers(1, 8)))
        assert np.all(holm(p) <= bonferroni(p) + 1e-15)


def test_holm_rejections_superset_of_bonferroni():
    rng = np.random.default_rng(1)
    for _ in range(50):
        p = rng.uniform(0, 0.2, size=6)
        alpha = 0.05
        holm_rej = holm(p) <= alpha
        bonf_rej = bonferroni(p) <= alpha
        assert np.all(bonf_rej <= holm_rej)


def test_closed_test_end_to_end_properties():
    rng = np.random.default_rng(7)
    ds = make_dataset(rng, n=100, beta=0.8)
    state = score_state(ds, QuantileSpec((0.25, 0.5, 0.75)))
    report = closed_test(state, WeightingMatrix.identity(), alpha=0.05)
    assert len(report.local_p) == 7
    # adjusted >= own singleton p
    for j in range(3):
        assert report.adjusted_p[j] >= report.local_p[subset(j + 1)] - 1e-15
    # coherence: a rejected hypothesis needs every containing subset rejected
    for j in range(3):
        if report.rejected[j]:
            for s, p in report.local_p.items():
                if s.contains(j + 1):
                    assert p <= 0.05
    # determinism
    again = closed_test(state, WeightingMatrix.identity(), alpha=0.05)
    assert np.array_equal(report.adjusted_p, again.adjusted_p)
    assert report.local_p == again.local_p


def test_closed_test_rejects_strong_signal_everywhere():
    sc = Scenario(dgp="null_normal", beta=2.0, gamma=0.5, n=100,
                  taus=(0.1, 0.25, 0.5, 0.75, 0.9), replications=200, seed=99)
    rep = run_monte_carlo(sc, methods=("closed",), weightings=("identity",),
                          on_error="raise")
    rates = rep.hypothesis_rejections["closed:identity"]
    assert np.all(rates >= 0.99)


def test_too_many_hypotheses_cap():
    taus = tuple(np.linspace(0.04, 0.96, 21))
    state = synthetic_state(taus, np.zeros(len(taus)))
    with pytest.raises(TooManyHypotheses):
        closed_test(state, WeightingMatrix.identity())


def test_too_many_hypotheses_just_above_cap():
    k = MAX_HYPOTHESES + 1
    taus = tuple(np.linspace(0.04, 0.96, k))
    state = synthetic_state(taus, np.zeros(k))
    with pytest.raises(TooManyHypotheses, match=str(2 ** k - 1)):
        closed_test(state, WeightingMatrix.identity())
    with pytest.raises(TooManyHypotheses, match=str(2 ** k - 1)):
        analytic_power(taus, np.zeros(k), 1.0, WeightingMatrix.inverse())
