import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import linprog

import mqrank.qrsolver as qrsolver
from mqrank import Degenerate, NotConverged, fit, fit_levels, rank_score_function
from mqrank.qrsolver import dual_objective, quantile_loss
from mqrank.rankscore import bandwidth
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


@pytest.mark.parametrize("where", ["design", "response"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_input_raises_before_any_solve(where, bad):
    rng = np.random.default_rng(4)
    Z, y = random_instance(rng, 30, 2)
    if where == "design":
        Z[5, 1] = bad
    else:
        y[5] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite"):
            fit(Z, y, 0.5)


def test_quantile_loss_formula():
    assert quantile_loss(np.array([1.0, -1.0]), 0.25) == pytest.approx(1.0)
    assert quantile_loss(np.zeros(3), 0.7) == 0.0


# --- batches and the simplex fallback ----------------------------------------------

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


def simplex_only(monkeypatch):
    """Give the interior point no step: no block converges, so every block
    goes to the simplex."""
    monkeypatch.setattr(qrsolver, "_MAX_ITERATIONS", 0)


def simplex_path(Z, ys, taus):
    """The one-program simplex solve of every level, block by block."""
    return [qrsolver._solve_simplex(Z, y, tau, (1.0 - tau) * Z.sum(axis=0))
            for y, tau in zip(ys, taus)]


def test_fit_levels_equals_per_level_fits_on_continuous_data():
    rng = np.random.default_rng(17)
    Z, _ = random_instance(rng, 80, 3)
    taus = [0.1, 0.25, 0.5, 0.5, 0.75, 0.9, 0.33]
    ys = [Z @ rng.standard_normal(3) + rng.standard_normal(80) for _ in taus]
    for got, y, tau in zip(fit_levels(Z, ys, taus), ys, taus):
        assert_same_fit(got, fit(Z, y, tau))


def test_fit_levels_column_cap_splits_batch(monkeypatch):
    # 27 blocks of 400 observations: no simplex call holds more than one
    # block, so the batch splits into one (p, n) call per block, and each
    # fit is that of a call at its level alone
    rng = np.random.default_rng(19)
    Z, y = random_instance(rng, 400, 2)
    taus = [float(t) for t in rng.uniform(0.05, 0.95, 27)]
    ys = [y + 0.1 * rng.standard_normal(400) for _ in taus]
    simplex_only(monkeypatch)
    calls = count_linprog_calls(monkeypatch)
    fits = fit_levels(Z, ys, taus)
    assert calls == [(2, 400)] * 27
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
            # the vertex is the one its own program gives, whatever else
            # the batch holds
            assert_same_fit(qfit, fit(Z, y, tau))


def test_fit_levels_bad_tau_raises_before_any_solve(monkeypatch):
    # every block that reached a solve would end in a linprog call
    simplex_only(monkeypatch)
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
    # blocks reach the simplex when the certificate rejects them: tied
    # responses on a dummy design leave more than p zero residuals. They
    # also reach it when the interior point takes no step. The first failed
    # solve raises, naming the level of its program's right-hand side.
    class Failed:
        success = False
        message = "solver says no"

    Failed.status = status
    solved = []

    def failed(*args, **kwargs):
        solved.append(kwargs["b_eq"])
        return Failed()

    monkeypatch.setattr(qrsolver, "linprog", failed)
    rng = np.random.default_rng(3)
    Z, y = random_instance(rng, 25, 2)
    dummy = np.column_stack([np.ones(25), rng.integers(0, 2, 25)])
    tied = rng.integers(0, 3, 25).astype(float)
    taus = [0.25, 0.5, 0.75]
    for design, ys in ((dummy, [tied, tied, tied]), (Z, [y, y, y])):
        if design is Z:
            simplex_only(monkeypatch)
        solved.clear()
        with pytest.raises(error) as raised:
            fit_levels(design, ys, taus)
        assert len(solved) == 1
        level, = [t for t in taus
                  if np.array_equal(solved[0], (1.0 - t) * design.sum(axis=0))]
        assert f"at tau={level}" in str(raised.value)


@pytest.mark.parametrize("n", [30, 100, 400, 2500])
def test_fit_levels_reaches_the_vertex_of_a_presolved_solve(monkeypatch, n):
    # the certified interior point and the simplex solves (run without
    # presolve) both end at a vertex; on continuous data each block's
    # optimal vertex is unique, so an independent one-level solve with
    # HiGHS's default options (presolve on) must land on it too
    rng = np.random.default_rng(n)
    Z, _ = random_instance(rng, n, 3)
    taus = [0.1, 0.35, 0.5, 0.9]
    ys = [Z @ rng.standard_normal(3) + rng.standard_t(5, n) for _ in taus]
    calls = count_linprog_calls(monkeypatch)
    fits = fit_levels(Z, ys, taus)
    # every block is certified
    assert calls == []
    simplex_only(monkeypatch)
    simplex_fits = fit_levels(Z, ys, taus)
    # every level is its own call
    assert len(calls) == len(taus)
    tol = qrsolver._BOUND_TOL
    for qfit, sfit, y, tau in zip(fits, simplex_fits, ys, taus):
        ref = linprog(c=-y, A_eq=Z.T, b_eq=(1.0 - tau) * Z.sum(axis=0),
                      bounds=(0.0, 1.0), method="highs-ds")
        assert ref.status == 0
        for a in (qfit.a_hat, sfit.a_hat, ref.x):
            assert np.sum((a > tol) & (a < 1.0 - tol)) == 3
        for got in (qfit, sfit):
            assert np.array_equal(got.a_hat > 1.0 - tol, ref.x > 1.0 - tol)
            assert np.array_equal(got.a_hat > tol, ref.x > tol)
            assert np.max(np.abs(got.gamma_hat + ref.eqlin.marginals)) <= 1e-9


def scaled(y):
    """y divided by the power of two that the simplex solve divides its
    objective by."""
    return y / qrsolver._objective_scale(y)


def report_vertices(monkeypatch, vertices):
    """Have linprog report vertices[key] as the vertex of every program
    whose scaled response (-c) has bytes `key`, with the solve's own
    multipliers; record each program's reported vertex under its key."""
    reported = {}
    real = qrsolver.linprog

    def crafted(*args, **kwargs):
        res = real(*args, **kwargs)
        key = (-kwargs["c"]).tobytes()
        res.x = vertices.get(key, res.x)
        reported[key] = res.x.copy()
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
    # simplex vertex reaches neither. The interior point takes no step, so
    # every block, in the batch and alone, reaches the simplex.
    simplex_only(monkeypatch)
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
    reported = report_vertices(monkeypatch, {scaled(ys[1]).tobytes(): singular,
                                             scaled(y_out).tobytes(): outside})
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
        x = reported[scaled(y).tobytes()]
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


def test_fit_levels_without_interior_point_steps_is_the_simplex_path(monkeypatch):
    # no block converges, so every block goes to the simplex: the same
    # solves, ties included, as the one-program solve block by block
    rng = np.random.default_rng(29)
    n = 150
    Z, _ = random_instance(rng, n, 2)
    taus = [float(t) for t in rng.uniform(0.05, 0.95, 30)]
    ys = np.array([rng.integers(0, 3, n).astype(float) if b % 2
                   else Z @ rng.standard_normal(2) + rng.standard_normal(n)
                   for b in range(len(taus))])
    want = simplex_path(Z, ys, taus)
    simplex_only(monkeypatch)
    for got, ref in zip(fit_levels(Z, ys, taus), want, strict=True):
        assert_same_fit(got, ref)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(5, 300),
       p=st.integers(1, 3),
       taus=st.lists(st.floats(0.02, 0.98), min_size=1, max_size=8))
@example(seed=0, n=20, p=1, taus=[0.5, 0.25, 0.3])
def test_fit_levels_equals_the_simplex_path_bit_for_bit(seed, n, p, taus):
    # on continuous data each block's optimal vertex is unique: a block the
    # certificate accepts gets the bits that the simplex and its polish
    # give, and any other block goes to that solve. With an intercept only
    # and (1 - tau) n an integer, the optimal vertex has no interior dual
    # and the simplex's multiplier is one of many optimal coefficients: the
    # certificate must leave such a block to the simplex.
    rng = np.random.default_rng(seed)
    Z, _ = random_instance(rng, n, p)
    ys = np.array([Z @ rng.standard_normal(p) + rng.standard_normal(n)
                   for _ in taus])
    want = simplex_path(Z, ys, taus)
    for got, ref in zip(fit_levels(Z, ys, taus), want, strict=True):
        assert_same_fit(got, ref)


@pytest.mark.parametrize("scale", [1e6, 1e9])
def test_fit_levels_on_tied_responses_at_a_large_scale(scale):
    # HiGHS fails ("Status 0: Not Set") on objectives of order 1e6 and
    # beyond; with each objective divided by a power of two at or above its
    # max|y|, tied responses at any scale give feasible optimal vertices,
    # whose losses are those at unit scale times the scale
    rng = np.random.default_rng(53)
    taus = [0.02, 0.1, 0.25, 0.5, 0.75, 0.9, 0.98]
    n, p = 50, 3
    for trial in range(40):
        Z, _ = random_instance(rng, n, p)
        ys = rng.integers(0, 5, (len(taus), n)).astype(float)
        unit = fit_levels(Z, ys, taus)
        for qfit, ref, tau in zip(fit_levels(Z, scale * ys, taus), unit, taus):
            assert qfit.objective == pytest.approx(scale * ref.objective, rel=1e-9)
            a = qfit.a_hat
            assert np.linalg.norm(Z.T @ a - (1 - tau) * Z.sum(axis=0)) / n <= 1e-8
            assert np.sum((a > 1e-8) & (a < 1 - 1e-8)) <= p


def hard_instance(kind):
    """Continuous data on an input the interior point finds hard, with its
    levels."""
    rng = np.random.default_rng(31)
    taus = [0.02, 0.1, 0.25, 0.5, 0.75, 0.9, 0.98]
    n = 200
    if kind == "high leverage":
        Z, _ = random_instance(rng, n, 3)
        Z[0, 1:] = [40.0, -25.0]
    elif kind == "near-collinear":
        z = rng.standard_normal(n)
        Z = np.column_stack([np.ones(n), z, z + 1e-6 * rng.standard_normal(n)])
    elif kind == "large n":
        n = 10_000
        Z, _ = random_instance(rng, n, 3)
        taus = [0.1, 0.5, 0.9]
    else:  # extreme levels whose density bandwidths are clipped
        n = 20
        Z, _ = random_instance(rng, n, 2)
        bands = [(tau, *bandwidth(n, tau)) for tau in (0.02, 0.05, 0.95, 0.98)]
        assert all(clipped for _, _, clipped in bands)
        taus = [t for tau, h, _ in bands for t in (tau, tau - h, tau + h)]
    p = Z.shape[1]
    ys = np.array([Z @ rng.standard_normal(p) + rng.standard_t(5, n) for _ in taus])
    return Z, ys, taus


@pytest.mark.parametrize("kind", ["high leverage", "near-collinear", "large n",
                                  "clipped bandwidth"])
def test_fit_levels_equals_the_simplex_path_on_hard_inputs(monkeypatch, kind):
    # each block is either certified, and then bit-identical to the
    # simplex, or falls back to it; the certificate takes some
    Z, ys, taus = hard_instance(kind)
    want = simplex_path(Z, ys, taus)
    calls = count_linprog_calls(monkeypatch)
    for got, ref in zip(fit_levels(Z, ys, taus), want, strict=True):
        assert_same_fit(got, ref)
    assert len(calls) < len(taus)


# --- stacks of designs -------------------------------------------------------------

def design_stack(rng, n, p, designs):
    """Distinct (n, p) designs: random_instance's, or for p = 1 a distinct
    constant column each, so that no two of them are equal."""
    if p == 1:
        return [np.full((n, 1), 1.0 + g) for g in range(designs)]
    return [random_instance(rng, n, p)[0] for _ in range(designs)]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(5, 300),
       p=st.integers(1, 3), designs=st.integers(1, 4),
       taus=st.lists(st.floats(0.02, 0.98), min_size=1, max_size=6))
def test_fit_levels_on_a_design_stack_equals_per_design_calls(seed, n, p,
                                                             designs, taus):
    # each design's blocks give the bits of one fit_levels call on that
    # design alone; every other block has tied three-level responses, which
    # the certificate may leave to the simplex, one solve per block
    rng = np.random.default_rng(seed)
    Zs = design_stack(rng, n, p, designs)
    ys = [np.array([rng.integers(0, 3, n).astype(float) if b % 2
                    else Z @ rng.standard_normal(p) + rng.standard_normal(n)
                    for b in range(len(taus))]) for Z in Zs]
    got = fit_levels(np.array(Zs), np.array(ys), taus)
    want = [qfit for Z, y in zip(Zs, ys) for qfit in fit_levels(Z, y, taus)]
    for g, w in zip(got, want, strict=True):
        assert_same_fit(g, w)


def test_fallback_blocks_share_one_simplex_solve_per_design(monkeypatch):
    # with no interior-point step every block falls back: the blocks of
    # each design are solved as in a call on that design alone, one
    # linprog call per block on its own (p, n) program
    rng = np.random.default_rng(43)
    n = 60
    Zs = design_stack(rng, n, 2, 3)
    taus = [0.2, 0.5, 0.8]
    ys = np.array([Z @ rng.standard_normal(2) + rng.standard_normal(n)
                   for Z in Zs for _ in taus])
    simplex_only(monkeypatch)
    calls = count_linprog_calls(monkeypatch)
    fits = fit_levels(np.array(Zs), ys.reshape(3, len(taus), n), taus)
    assert calls == [(2, n)] * (len(Zs) * len(taus))
    for g, Z in enumerate(Zs):
        want = fit_levels(Z, ys[3 * g:3 * g + 3], taus)
        for got, ref in zip(fits[3 * g:3 * g + 3], want, strict=True):
            assert_same_fit(got, ref)


def test_fit_levels_on_a_stack_with_a_rank_deficient_design_raises(monkeypatch):
    rng = np.random.default_rng(1)
    Z, y = random_instance(rng, 20, 3)
    deficient = Z.copy()
    deficient[:, 2] = 2 * deficient[:, 1]
    calls = count_linprog_calls(monkeypatch)
    with pytest.raises(Degenerate, match="rank deficient"):
        fit_levels(np.array([Z, Z, deficient, Z]), [[y, y]] * 4, [0.25, 0.75])
    assert calls == []


def test_fit_levels_rejects_a_stack_of_the_wrong_length():
    rng = np.random.default_rng(2)
    Z, y = random_instance(rng, 20, 2)
    with pytest.raises(ValueError, match="one per level"):
        fit_levels(np.array([Z, Z]), [[y, y, y]] * 3, [0.25, 0.5, 0.75])
