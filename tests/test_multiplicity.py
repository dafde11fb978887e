from types import SimpleNamespace

import numpy as np
import pytest

import mqrank.simulation as sim
from mqrank import (Dataset, HypothesisSubset, QuantileSpec, Scenario,
                    TooManyHypotheses, WeightingMatrix, analytic_power,
                    bonferroni, closed_test, holm, run_monte_carlo,
                    score_state)
from mqrank.datamodel import MAX_HYPOTHESES, all_subsets
from mqrank.multiplicity import closure_adjust
from mqrank.rankscore import SubsetPlan
from helpers import make_dataset, synthetic_state


def subset(*idx):
    return HypothesisSubset(idx)


def membership(k):
    """Row i marks the hypotheses of the i-th subset in all_subsets order."""
    return np.array([[s.contains(j) for j in range(1, k + 1)]
                     for s in all_subsets(k)])


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
    p = [local_p[s] for s in all_subsets(3)]
    adjusted = closure_adjust(p, membership(3))
    assert np.allclose(adjusted, [0.04, 0.50, 0.30])
    assert list(adjusted <= 0.05) == [True, False, False]


def test_closure_all_ones_rejects_nothing():
    adjusted = closure_adjust(np.ones(7), membership(3))
    assert np.all(adjusted == 1.0)


@pytest.mark.parametrize("k", [1, 2, 5])
def test_subset_plan_membership_matrix(k):
    plan = SubsetPlan(tuple(np.linspace(0.2, 0.8, k)), WeightingMatrix.identity())
    assert plan.member.shape == (2 ** k - 1, k)
    assert np.array_equal(plan.member, membership(k))


def test_engine_closed_decisions_match_closure_adjust(monkeypatch):
    # the engine closes boolean local decisions, closed_test closes p-values:
    # on the same local p-values, ties at alpha included, both must agree
    alpha = 0.05
    rng = np.random.default_rng(8)
    draws = {}

    class FixedLocalP:
        """Stands in for SubsetPlan: statistic -p against critical value
        -alpha rejects exactly where p <= alpha."""

        def __init__(self, taus, weighting):
            self.member = SubsetPlan(taus, weighting).member

        def critical_values(self, alpha):
            return np.full(len(self.member), -alpha)

        def statistics(self, score, v_bar):
            # one row of local statistics per replication of the chunk
            return np.broadcast_to(-draws["p"], score.shape[:-1] + draws["p"].shape)

    monkeypatch.setattr(sim, "SubsetPlan", FixedLocalP)
    monkeypatch.setattr(sim, "score_states", lambda datasets, spec: [
        SimpleNamespace(score=np.ones(spec.k), v_bar=1.0) for _ in datasets])
    for k in range(1, 7):
        sc = Scenario(dgp="null_normal", n=10, taus=np.linspace(0.2, 0.8, k),
                      replications=1, seed=k)
        for _ in range(12):
            p = rng.uniform(0.0, 2.5 * alpha, 2 ** k - 1)
            p[rng.uniform(size=p.size) < 0.3] = alpha
            draws["p"] = p
            rep = run_monte_carlo(sc, methods=("closed",), alpha=alpha,
                                  on_error="raise")
            engine = rep.hypothesis_rejections["closed:identity"] == 1.0
            expected = closure_adjust(p, membership(k)) <= alpha
            assert np.array_equal(engine, expected)
            assert list(rep.subset_rejections["rankscore:identity"].values()) \
                == (p <= alpha).astype(float).tolist()


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


METAMORPHIC_TAUS = (0.1, 0.25, 0.5, 0.75, 0.9)
METAMORPHIC_WEIGHTINGS = ("identity", "diag-delta")


def _continuous_dataset(rng, n=150):
    x = rng.standard_normal(n)
    z = 0.3 * x[:, None] + rng.standard_normal((n, 2))
    y = (0.5 + 0.2 * x + z @ [0.5, -0.4]
         + np.sqrt(1.0 + np.abs(x)) * rng.standard_normal(n))
    return Dataset(y=y, x=x, Z=np.column_stack([np.ones(n), z]))


def _local_p(ds):
    state = score_state(ds, QuantileSpec(METAMORPHIC_TAUS))
    return np.array([list(closed_test(state, WeightingMatrix.parse(w))
                          .local_p.values())
                     for w in METAMORPHIC_WEIGHTINGS])


def test_local_p_invariant_under_target_shift_and_scale():
    # x -> c x + Z d multiplies the projection residual by c: the score
    # scales by c and v_bar by c^2, so every statistic is unchanged
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng([20261019, seed])
        ds = _continuous_dataset(rng)
        c = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3.0, 3.0)
        d = rng.standard_normal(ds.p)
        mapped = Dataset(y=ds.y, x=c * ds.x + ds.Z @ d, Z=ds.Z)
        worst = max(worst, np.max(np.abs(_local_p(mapped) - _local_p(ds))))
    assert worst <= 1e-9


def test_local_p_invariant_under_nuisance_reparametrization():
    # Z -> Z A with A e_1 = e_1 keeps the intercept and the column space,
    # so the restricted fits, densities and projections are unchanged
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng([20261020, seed])
        ds = _continuous_dataset(rng)
        a = np.eye(ds.p)
        a[:, 1:] += rng.standard_normal((ds.p, ds.p - 1))
        mapped = Dataset(y=ds.y, x=ds.x, Z=ds.Z @ a)
        assert np.all(mapped.Z[:, 0] == 1.0)
        worst = max(worst, np.max(np.abs(_local_p(mapped) - _local_p(ds))))
    assert worst <= 1e-9


def test_scores_and_adjusted_p_invariant_under_row_permutation():
    # on continuous data each restricted fit's optimal vertex is unique, so
    # a row permutation permutes the duals, densities and projection
    # residuals with the rows, and every sum over rows changes only by
    # rounding. Tied responses, whose vertex depends on row order, are not
    # covered here.
    worst_score = worst_p = 0.0
    spec = QuantileSpec(METAMORPHIC_TAUS, null_values=(0.1, 0.0, 0.2, -0.1, 0.0))
    for seed in range(20):
        rng = np.random.default_rng([20261021, seed])
        ds = _continuous_dataset(rng, n=int(rng.integers(40, 200)))
        perm = rng.permutation(ds.n)
        permuted = Dataset(y=ds.y[perm], x=ds.x[perm], Z=ds.Z[perm])
        state, moved = score_state(ds, spec), score_state(permuted, spec)
        assert np.unique(ds.y).size == ds.n
        worst_score = max(worst_score, np.max(np.abs(moved.score - state.score)))
        for w in METAMORPHIC_WEIGHTINGS + ("inverse",):
            weighting = WeightingMatrix.parse(w)
            worst_p = max(worst_p, np.max(np.abs(
                closed_test(moved, weighting).adjusted_p
                - closed_test(state, weighting).adjusted_p)))
    assert worst_score <= 1e-10
    assert worst_p <= 1e-10
