import numpy as np
import pytest
from scipy.linalg import block_diag
from scipy.optimize import linprog
from scipy.sparse import csc_array

import mqrank.qrsolver as qrsolver
from mqrank import Degenerate, NotConverged, fit, fit_levels, rank_score_function
from mqrank.qrsolver import dual_objective, quantile_loss
from helpers import intercept_only_duals, vertex_enumeration_fit


def random_instance(rng, n, p):
    Z = np.column_stack([np.ones(n), rng.standard_normal((n, p - 1))]) \
        if p > 1 else np.ones((n, 1))
    y = rng.standard_normal(n) + Z @ rng.standard_normal(p)
    return Z, y


def test_intercept_only_median():
    qfit = fit(np.ones((5, 1)), np.array([1.0, 2.0, 3.0, 4.0, 5.0]), 0.5)
    assert qfit.gamma_hat == pytest.approx([3.0], abs=1e-10)
    assert qfit.a_hat.sum() == pytest.approx(2.5, abs=1e-10)


def test_intercept_only_dual_sum():
    rng = np.random.default_rng(0)
    y = rng.standard_normal(11)
    for tau in (0.1, 0.3, 0.5, 0.8):
        qfit = fit(np.ones((11, 1)), y, tau)
        assert qfit.a_hat.sum() == pytest.approx((1 - tau) * 11, abs=1e-8)


def test_dual_feasibility_and_vertex_property():
    rng = np.random.default_rng(42)
    for trial in range(20):
        n = int(rng.integers(20, 120))
        p = int(rng.integers(1, 4))
        Z, y = random_instance(rng, n, p)
        tau = float(rng.uniform(0.05, 0.95))
        qfit = fit(Z, y, tau)
        a = qfit.a_hat
        assert np.all(a >= -1e-8) and np.all(a <= 1 + 1e-8)
        resid = Z.T @ a - (1 - tau) * Z.sum(axis=0)
        assert np.max(np.abs(resid)) <= 1e-8 * n
        inside = np.sum((a > 1e-8) & (a < 1 - 1e-8))
        assert inside <= p


def test_objective_matches_vertex_enumeration_oracle():
    rng = np.random.default_rng(7)
    for trial in range(30):
        n = int(rng.integers(4, 9))
        p = int(rng.integers(1, 4))
        if n <= p:
            continue
        Z, y = random_instance(rng, n, p)
        tau = float(rng.uniform(0.1, 0.9))
        qfit = fit(Z, y, tau)
        oracle_obj, _ = vertex_enumeration_fit(Z, y, tau)
        assert qfit.objective == pytest.approx(oracle_obj, abs=1e-10)


def test_duality_gap():
    rng = np.random.default_rng(3)
    for trial in range(10):
        Z, y = random_instance(rng, 50, 2)
        tau = float(rng.uniform(0.1, 0.9))
        qfit = fit(Z, y, tau)
        gap = abs(qfit.objective - dual_objective(qfit, y))
        assert gap <= 1e-8 * (1 + abs(qfit.objective))


def test_intercept_only_duals_non_increasing_in_tau():
    # Pointwise monotonicity holds exactly when the design is a single
    # intercept column (clipped rank functions); with regression
    # covariates individual dual paths can locally increase between
    # breakpoints, so only the endpoint behavior is universal.
    rng = np.random.default_rng(5)
    y = rng.standard_normal(40)
    Z = np.ones((40, 1))
    grid = np.linspace(0.02, 0.98, 49)
    prev = None
    for tau in grid:
        a = fit(Z, y, tau).a_hat
        if prev is not None:
            assert np.all(a <= prev + 1e-9)
        prev = a


def test_duals_decrease_from_one_to_zero():
    rng = np.random.default_rng(5)
    n = 40
    Z, y = random_instance(rng, n, 2)
    near_zero = fit(Z, y, 0.01).a_hat
    near_one = fit(Z, y, 0.99).a_hat
    # at most p coordinates can sit away from the active bound
    assert np.sum(near_zero > 1 - 1e-8) >= n - 2
    assert np.sum(near_one < 1e-8) >= n - 2
    assert np.all(near_one <= near_zero + 1e-7)


def test_duals_shift_and_scale_invariant():
    rng = np.random.default_rng(9)
    Z, y = random_instance(rng, 45, 2)
    tau = 0.3
    base = fit(Z, y, tau).a_hat
    for _ in range(5):
        delta = rng.standard_normal(2) * 3
        c = float(rng.uniform(0.2, 5.0))
        shifted = fit(Z, y + Z @ delta, tau).a_hat
        scaled = fit(Z, c * y, tau).a_hat
        assert np.max(np.abs(shifted - base)) <= 1e-8
        assert np.max(np.abs(scaled - base)) <= 1e-8


def test_rank_score_function_values():
    qfit = fit(np.ones((5, 1)), np.array([1.0, 2.0, 3.0, 4.0, 5.0]), 0.25)
    b = rank_score_function(qfit)
    assert np.all(b >= -(1 - 0.25) - 1e-12)
    assert np.all(b <= 0.25 + 1e-12)
    # direct formula at the bounds
    assert b[np.argmax(qfit.a_hat)] == pytest.approx(qfit.a_hat.max() - 0.75)
    at_zero = qfit.a_hat < 1e-10
    assert np.allclose(b[at_zero], -0.75)


def test_rank_scores_sum_to_zero_with_intercept():
    qfit = fit(np.ones((5, 1)), np.arange(1.0, 6.0), 0.5)
    assert rank_score_function(qfit).sum() == pytest.approx(0.0, abs=1e-10)


def test_intercept_only_duals_match_order_statistic_oracle():
    rng = np.random.default_rng(13)
    y = rng.standard_normal(10)
    for tau in (0.2, 0.5, 0.65):
        a = fit(np.ones((10, 1)), y, tau).a_hat
        assert np.allclose(a, intercept_only_duals(y, tau), atol=1e-9)


def test_rank_deficient_design_raises():
    rng = np.random.default_rng(1)
    z = rng.standard_normal(20)
    Z = np.column_stack([np.ones(20), z, 2 * z])
    with pytest.raises(Degenerate):
        fit(Z, rng.standard_normal(20), 0.5)


def test_bad_tau_raises():
    with pytest.raises(ValueError):
        fit(np.ones((5, 1)), np.arange(5.0), 1.0)


def test_quantile_loss_formula():
    assert quantile_loss(np.array([1.0, -1.0]), 0.25) == pytest.approx(1.0)
    assert quantile_loss(np.zeros(3), 0.7) == 0.0


# --- stacked solves -------------------------------------------------------------

def assert_same_fit(got, want):
    assert got.tau == want.tau
    assert np.array_equal(got.gamma_hat, want.gamma_hat)
    assert np.array_equal(got.a_hat, want.a_hat)
    assert got.objective == want.objective


def count_linprog_calls(monkeypatch):
    """Record the constraint-matrix shape of every linprog call."""
    calls = []
    real = qrsolver.linprog

    def counted(*args, **kwargs):
        calls.append(kwargs["A_eq"].shape)
        return real(*args, **kwargs)

    monkeypatch.setattr(qrsolver, "linprog", counted)
    return calls


def test_block_diagonal_matches_scipy_layout():
    # zeros in Z (dummy columns) are left out, as a dense Z' converts
    rng = np.random.default_rng(11)
    Z = np.column_stack([np.ones(9), rng.integers(0, 2, 9), rng.standard_normal(9)])
    got = qrsolver._block_diagonal(Z, 4)
    want = csc_array(block_diag(*[Z.T] * 4))
    for field in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(got, field), getattr(want, field))
    assert got.shape == want.shape


def test_fit_levels_equals_per_level_fits_on_continuous_data():
    rng = np.random.default_rng(17)
    Z, _ = random_instance(rng, 80, 3)
    taus = [0.1, 0.25, 0.5, 0.5, 0.75, 0.9, 0.33]
    ys = [Z @ rng.standard_normal(3) + rng.standard_normal(80) for _ in taus]
    for got, y, tau in zip(fit_levels(Z, ys, taus), ys, taus):
        assert_same_fit(got, fit(Z, y, tau))


def test_fit_levels_column_cap_splits_batch(monkeypatch):
    # 27 blocks of 400 observations: 5 blocks per call under the cap
    rng = np.random.default_rng(19)
    Z, y = random_instance(rng, 400, 2)
    taus = [float(t) for t in rng.uniform(0.05, 0.95, 27)]
    ys = [y + 0.1 * rng.standard_normal(400) for _ in taus]
    calls = count_linprog_calls(monkeypatch)
    fits = fit_levels(Z, ys, taus)
    per_call = qrsolver._MAX_COLUMNS // 400
    assert len(calls) == -(-27 // per_call)
    assert all(cols <= qrsolver._MAX_COLUMNS for _, cols in calls)
    assert sum(cols for _, cols in calls) == 27 * 400
    for got, y_i, tau in zip(fits, ys, taus):
        assert_same_fit(got, fit(Z, y_i, tau))


def test_fit_levels_on_tied_responses_is_an_optimal_vertex():
    # three-level responses admit several optimal vertices per block; any
    # of them must be optimal, feasible and a vertex
    rng = np.random.default_rng(23)
    for trial in range(12):
        n = int(rng.integers(6, 10))
        p = int(rng.integers(1, 3))
        Z, _ = random_instance(rng, n, p)
        taus = [0.2, 0.5, 0.8, 0.35]
        ys = [rng.integers(0, 3, n).astype(float) for _ in taus]
        for qfit, y, tau in zip(fit_levels(Z, ys, taus), ys, taus):
            oracle_obj, _ = vertex_enumeration_fit(Z, y, tau)
            assert qfit.objective == pytest.approx(oracle_obj, abs=1e-10)
            a = qfit.a_hat
            resid = Z.T @ a - (1 - tau) * Z.sum(axis=0)
            assert np.linalg.norm(resid) / n <= 1e-8
            assert np.sum((a > 1e-8) & (a < 1 - 1e-8)) <= p


def test_fit_levels_bad_tau_raises_before_any_solve(monkeypatch):
    calls = count_linprog_calls(monkeypatch)
    rng = np.random.default_rng(2)
    Z, y = random_instance(rng, 30, 2)
    for bad in (0.0, 1.0, -0.2, float("nan")):
        with pytest.raises(ValueError):
            fit_levels(Z, [y, y, y], [0.3, 0.5, bad])
    assert calls == []


def test_fit_levels_rank_deficient_design_raises():
    rng = np.random.default_rng(1)
    z = rng.standard_normal(20)
    Z = np.column_stack([np.ones(20), z, 2 * z])
    y = rng.standard_normal(20)
    with pytest.raises(Degenerate):
        fit_levels(Z, [y, y], [0.25, 0.75])


@pytest.mark.parametrize("status, error", [(1, NotConverged), (2, Degenerate),
                                           (4, Degenerate)])
def test_failed_stacked_solve_names_its_levels(monkeypatch, status, error):
    class Failed:
        success = False
        message = "solver says no"

    Failed.status = status
    monkeypatch.setattr(qrsolver, "linprog", lambda *a, **k: Failed())
    rng = np.random.default_rng(3)
    Z, y = random_instance(rng, 25, 2)
    with pytest.raises(error, match=r"0\.25, 0\.5, 0\.75"):
        fit_levels(Z, [y, y, y], [0.25, 0.5, 0.75])


@pytest.mark.parametrize("n", [30, 100, 400, 2500])
def test_fit_levels_reaches_the_vertex_of_a_presolved_solve(monkeypatch, n):
    # the stacked solves run without presolve; on continuous data each
    # block's optimal vertex is unique, so an independent one-level solve
    # with HiGHS's default options (presolve on) must land on it too
    rng = np.random.default_rng(n)
    Z, _ = random_instance(rng, n, 3)
    taus = [0.1, 0.35, 0.5, 0.9]
    ys = [Z @ rng.standard_normal(3) + rng.standard_t(5, n) for _ in taus]
    calls = count_linprog_calls(monkeypatch)
    fits = fit_levels(Z, ys, taus)
    # above the column cap every level is its own call
    assert len(calls) == -(-len(taus) // max(1, qrsolver._MAX_COLUMNS // n))
    tol = qrsolver._BOUND_TOL
    for qfit, y, tau in zip(fits, ys, taus):
        ref = linprog(c=-y, A_eq=Z.T, b_eq=(1.0 - tau) * Z.sum(axis=0),
                      bounds=(0.0, 1.0), method="highs-ds")
        assert ref.status == 0
        for a in (qfit.a_hat, ref.x):
            assert np.sum((a > tol) & (a < 1.0 - tol)) == 3
        assert np.array_equal(qfit.a_hat > 1.0 - tol, ref.x > 1.0 - tol)
        assert np.array_equal(qfit.a_hat > tol, ref.x > tol)
        assert np.max(np.abs(qfit.gamma_hat + ref.eqlin.marginals)) <= 1e-9


def one_level_vertex(Z, y, tau):
    """Simplex vertex and equality multipliers of one level's dual LP."""
    res = linprog(c=-y, A_eq=Z.T, b_eq=(1.0 - tau) * Z.sum(axis=0),
                  bounds=(0.0, 1.0), method="highs-ds",
                  options=qrsolver._HIGHS_OPTIONS)
    return res.x, res.eqlin.marginals


def report_vertices(monkeypatch, Z, vertices):
    """Have linprog report vertices[key] = (x, marginals) as the solution
    of every block whose response has bytes `key`; record each block's
    reported x."""
    n, p = Z.shape
    reported = {}
    real = qrsolver.linprog

    def crafted(*args, **kwargs):
        res = real(*args, **kwargs)
        x = res.x.reshape(-1, n)
        marginals = res.eqlin.marginals.reshape(-1, p)
        for b, y in enumerate(-kwargs["c"].reshape(-1, n)):
            if y.tobytes() in vertices:
                x[b], marginals[b] = vertices[y.tobytes()]
            reported[y.tobytes()] = x[b].copy()
        res.x = x.ravel()
        res.eqlin.marginals = marginals.ravel()
        return res

    monkeypatch.setattr(qrsolver, "linprog", crafted)
    return reported


def test_mixed_batch_polishes_each_block_as_its_own_solve(monkeypatch):
    # one batch through every branch of the polish: generic blocks; tied
    # responses at a degenerate vertex with no interior dual (integer
    # covariate, tau 0.5) and at a vertex whose interpolation line leaves
    # more than p rows at zero residual (tau 0.3); an interpolation system
    # made singular by two equal design rows; and a free-row solve that
    # leaves [0, 1]. The last two are crafted vertices, since an optimal
    # simplex vertex reaches neither. Every block but the generic ones
    # reports its vertex and multipliers, so that the stacked and the
    # one-level solve polish the same input: with ties, a stacked solve may
    # pick another, equally optimal vertex.
    n, p = 12, 2
    rng = np.random.default_rng(1)
    z = rng.integers(0, 4, n).astype(float)
    Z = np.column_stack([np.ones(n), z])
    tied = np.array([2, 2, 1, 1, 0, 0, 2, 0, 1, 2, 1, 0], dtype=float)
    ys = [rng.standard_normal(n) + z for _ in range(5)] + [tied, tied + 1.0]
    taus = [0.3, 0.5, 0.7, 0.5, 0.5, 0.5, 0.3]
    kinds = ["generic", "singular", "generic", "outside", "generic",
             "no interior", "ties"]

    twins = np.flatnonzero(z == z[0])[:2]
    singular = np.where(np.arange(n) < 6, 1.0, 0.0)
    singular[twins] = 0.5
    y_out = ys[3]
    low = [np.argmin(np.where(z == v, y_out, np.inf)) for v in np.unique(z)[:2]]
    outside = np.where(y_out > np.median(y_out), 1.0, 0.0)
    outside[low] = 0.5
    vertices = {y.tobytes(): one_level_vertex(Z, y, tau)
                for y, tau, kind in zip(ys, taus, kinds) if kind != "generic"}
    vertices[ys[1].tobytes()] = (singular, vertices[ys[1].tobytes()][1])
    vertices[y_out.tobytes()] = (outside, vertices[y_out.tobytes()][1])
    reported = report_vertices(monkeypatch, Z, vertices)
    fits = fit_levels(Z, ys, taus)
    tol = qrsolver._BOUND_TOL

    # the interpolation line through the two lowest rows leaves every
    # other row above it, more than the (1 - tau) n the duals may carry
    gamma = np.linalg.solve(Z[low], y_out[low])
    at_one = y_out - Z @ gamma > 1e-9 * (1.0 + np.max(np.abs(y_out)))
    a_free = np.linalg.solve(Z[np.sort(low)].T,
                             0.5 * Z.sum(axis=0) - Z[at_one].sum(axis=0))
    assert np.sum(at_one) == n - p and np.any((a_free < 0.0) | (a_free > 1.0))

    for qfit, y, tau, kind in zip(fits, ys, taus, kinds):
        x = reported[y.tobytes()]
        interior = np.flatnonzero((x > tol) & (x < 1.0 - tol))
        assert (interior.size == p) == (kind != "no interior")
        if kind == "singular":
            assert np.linalg.matrix_rank(Z[interior]) < p
        if kind == "ties":
            gamma = np.linalg.solve(Z[interior], y[interior])
            assert np.sum(np.abs(y - Z @ gamma) <= 1e-9) > p
        if kind != "generic":
            assert np.array_equal(qfit.a_hat, np.clip(x, 0.0, 1.0))
        assert_same_fit(qfit, fit(Z, y, tau))
