"""Shared test utilities: dataset builders and independent oracles."""

from itertools import combinations

import numpy as np

from mqrank import Dataset
from mqrank.qrsolver import quantile_loss


def make_dataset(rng, n=60, beta=0.0, gamma=0.5, rho=0.3, scale="const"):
    """Simulated dataset matching the bivariate-covariate designs."""
    e = rng.standard_normal((n, 2))
    x = e[:, 0]
    z = rho * e[:, 0] + np.sqrt(1 - rho ** 2) * e[:, 1]
    mu = 0.5 + beta * x + gamma * z
    if scale == "const":
        sig = 1.0
    elif scale == "hetero":
        sig = np.sqrt(1.0 + np.abs(x))
    else:
        raise ValueError(scale)
    y = mu + sig * rng.standard_normal(n)
    return Dataset(y=y, x=x, Z=np.column_stack([np.ones(n), z]))


def vertex_enumeration_fit(Z, y, tau):
    """Exhaustive quantile-regression oracle for tiny problems.

    Some optimal basic solution interpolates p observations exactly, so
    minimizing the loss over every nonsingular p-subset's exact fit finds
    the LP optimum.
    """
    n, p = Z.shape
    best = np.inf
    best_gamma = None
    for rows in combinations(range(n), p):
        sub = Z[list(rows)]
        if abs(np.linalg.det(sub)) < 1e-12:
            continue
        gamma = np.linalg.solve(sub, y[list(rows)])
        loss = quantile_loss(y - Z @ gamma, tau)
        if loss < best:
            best = loss
            best_gamma = gamma
    return best, best_gamma


def synthetic_state(taus, score, v_bar=1.0, n=50):
    """Hand-built RankScoreState for unit tests of the statistics."""
    from mqrank.rankscore import RankScoreState, bridge_covariance

    taus = tuple(taus)
    k = len(taus)
    return RankScoreState(
        taus=taus, null_values=(0.0,) * k,
        score=np.asarray(score, dtype=float), bridge=bridge_covariance(taus),
        v_bar=float(v_bar), v_per_tau=np.full(k, float(v_bar)),
        proj_resid=np.zeros((k, n)), fits=(), sparsity=())


def intercept_only_duals(y, tau):
    """Exact rank-scores of the intercept-only model via order statistics.

    With a single all-ones column the dual program puts full mass on the
    largest responses subject to sum(a) = (1 - tau) n: the k-th order
    statistic gets clip(k - n tau, 0, 1).
    """
    n = len(y)
    order = np.argsort(y, kind="stable")
    a = np.zeros(n)
    for rank, idx in enumerate(order, start=1):
        a[idx] = min(1.0, max(0.0, rank - n * tau))
    return a


def mixture_grid(seed, count, harsh=False):
    """Seeded (weights, noncentralities, x) triples for comparing tail rules.

    The default grid has K = 1-11 weights log-uniform on 1e-3..1e2, 40% of
    mixtures noncentral with each component noncentral with probability
    0.4 and noncentrality up to 20, and x log-uniform on 1e-2..10 times the
    mean. The harsh grid has K <= 16, weights 1e-4..1e3, noncentralities up
    to 50 and x from 1e-8 to 20 times the mean.
    """
    rng = np.random.default_rng(seed)
    grid = []
    for _ in range(count):
        if harsh:
            k = int(rng.integers(1, 17))
            lam = 10.0 ** rng.uniform(-4.0, 3.0, k)
            zet = np.where(rng.random(k) < 0.4, rng.uniform(0.0, 50.0, k), 0.0)
            low, high = -8.0, 1.3
        else:
            k = int(rng.integers(1, 12))
            lam = 10.0 ** rng.uniform(-3.0, 2.0, k)
            zet = np.where(rng.random(k) < 0.4, rng.uniform(0.0, 20.0, k), 0.0)
            if rng.random() >= 0.4:
                zet = np.zeros(k)
            low, high = -2.0, 1.0
        x = float(lam @ (1.0 + zet)) * 10.0 ** rng.uniform(low, high)
        grid.append((lam, zet, x))
    return grid


def contour_rule_gaps(grid):
    """|contour rule - certified rule| for every (weights, noncentralities,
    x) triple: the N = 20 hyperbolic rule, clipped to [0, 1] and without
    the agreement check or the 1e-12 zero floor, against the certified
    Imhof quadrature."""
    from mqrank.distributions import _certified_upper, _log_phi, _rule_sums

    gaps = []
    for lam, zet, x in grid:
        log_phi = _log_phi(lam[None], zet[None], np.array([x]))
        tail = _rule_sums(-np.expm1(log_phi))[0, -1]
        gaps.append(abs(min(max(tail, 0.0), 1.0)
                        - _certified_upper(lam, zet, x)))
    return np.array(gaps)
