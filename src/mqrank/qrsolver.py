"""Quantile regression by linear programming, with exact dual rank-scores.

The regression rank-scores are the dual solution of the quantile-loss
program. We solve the dual directly,

    maximize    a' y
    subject to  Z' a = (1 - tau) Z' 1,   0 <= a <= 1,

with a simplex method (HiGHS), so the returned vector is a vertex of the
dual polytope: at most p entries lie strictly inside (0, 1). The primal
coefficients fall out of the equality-constraint multipliers and, in the
generic case of exactly p interpolated observations, are polished to the
exact-fit solution of that p-by-p system. Strong duality ties the two
solutions together:

    sum_i rho_tau(y_i - z_i' gamma) = a' y - (1 - tau) * sum_i y_i.

A rank-score test needs many such programs on one design: every level,
and the levels tau +/- h of its density estimate. They share no variable,
so :func:`fit_levels` stacks them into one LP whose constraint matrix is
block-diagonal in Z' (built directly in CSC form), solves it with one
``linprog`` call, and splits the solution and multipliers back by block.
The polish then runs once per call, over all generic blocks together:
one batched p-by-p solve for the interpolation systems, one sign
classification and one batched solve for the free duals. Each block's
residuals are its own matrix-vector product, so its rounding does not
depend on the batch it came in. Most of a small solve's cost is
``linprog``'s per-call input handling, not the simplex itself, so one call
per batch costs a fraction of one call per level. A vertex of the stacked
polytope is a vertex of every block, and on continuous data each block's
optimal vertex is unique, so the results equal the one-level solves. With
tied responses a block may have several optimal vertices and the stacked
solve may pick a different, equally optimal one. A call stacks at most
_MAX_COLUMNS observations; longer batches are split into several calls,
which bounds the solver's working memory. :func:`fit` is the one-level
batch.

HiGHS presolve is off. Each block is already in reduced form (box bounds
[0, 1], p independent equality rows, no empty or duplicate row), so
presolve finds nothing to remove and only adds work: over the 200 stacked
solves of a 100-replication K = 5 Monte Carlo run, HiGHS's own time fell
from 0.38 s to 0.15 s (2-core x86), with bit-identical fits.

``scipy.optimize`` and ``scipy.sparse`` are imported at the first solve,
not with the package: together they cost about 0.1 s, a third of a CLI
call that solves no LP (``mqrank power``). The module-level ``linprog``
is a thin function that imports scipy's ``linprog`` on its first call and
forwards to it, so it stays one module attribute that callers can
replace.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import Degenerate, NotConverged

# entries of a within this distance of 0/1 are treated as at their bound
_BOUND_TOL = 1e-8

# stacked observations (LP columns) per linprog call; HiGHS holds about
# 0.8 kB per column, so one call stays near 1.6 MB
_MAX_COLUMNS = 2048

# fixed solver settings; presolve cannot shrink a block-diagonal dual LP
# (see the module docstring), so it is skipped
_HIGHS_OPTIONS = {
    "presolve": False,
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
}


@dataclass(frozen=True)
class QuantileFit:
    """One quantile-regression solve: primal coefficients and dual scores.

    a_hat lies in [0, 1]^n, satisfies Z' a_hat = (1 - tau) Z' 1 to solver
    tolerance, and has at most p entries strictly inside (0, 1).
    """

    tau: float
    gamma_hat: np.ndarray
    a_hat: np.ndarray
    objective: float

    @property
    def n(self) -> int:
        return self.a_hat.shape[0]


def quantile_loss(residuals: np.ndarray, tau):
    """Asymmetric absolute loss sum_i u_i (tau - 1{u_i < 0}), over the last
    axis; a stack of residual rows may come with one level per row."""
    u = np.asarray(residuals, dtype=float)
    return np.sum(u * (tau - (u < 0.0)), axis=-1)


def fit(Z: np.ndarray, y: np.ndarray, tau: float) -> QuantileFit:
    """Fit the tau-th quantile regression of y on Z: the one-level case of
    :func:`fit_levels`.

    Parameters
    ----------
    Z : (n, p) design matrix, full column rank.
    y : (n,) response (already offset-adjusted if a nonzero null value is
        being tested).
    tau : quantile level in (0, 1).

    Raises
    ------
    Degenerate
        If rank(Z) < p or the LP solve fails structurally.
    NotConverged
        If the solver stops on its iteration cap.
    """
    return fit_levels(Z, [y], [tau])[0]


def fit_levels(Z: np.ndarray, ys, taus) -> list:
    """Fit the taus[i]-th quantile regression of ys[i] on Z, for every i.

    The dual programs are solved as one block-diagonal LP per chunk of at
    most _MAX_COLUMNS stacked observations (see the module docstring).
    Levels, n > p and the rank of Z are checked once, before any solve.
    Returns one :class:`QuantileFit` per level, in the order given.

    Raises
    ------
    ValueError
        If any level lies outside (0, 1) or ys and taus disagree in shape.
    Degenerate
        If n <= p, rank(Z) < p or a stacked solve fails structurally.
    NotConverged
        If a stacked solve stops on its iteration cap.
    """
    Z = np.asarray(Z, dtype=float)
    ys = np.asarray(ys, dtype=float)
    taus = [float(t) for t in taus]
    n, p = Z.shape
    for tau in taus:
        if not 0.0 < tau < 1.0:
            raise ValueError(f"tau must be in (0, 1), got {tau}")
    if ys.shape != (len(taus), n):
        raise ValueError(f"need one length-{n} response per level, got "
                         f"shape {ys.shape} for {len(taus)} levels")
    if n <= p:
        raise Degenerate(f"need n > p, got n={n}, p={p}")
    if np.linalg.matrix_rank(Z) < p:
        raise Degenerate("design matrix is rank deficient")

    col_sum = Z.sum(axis=0)
    per_call = max(1, _MAX_COLUMNS // n)
    fits = []
    for lo in range(0, len(taus), per_call):
        chunk = slice(lo, lo + per_call)
        fits += _solve_stacked(Z, ys[chunk], taus[chunk], col_sum)
    return fits


def linprog(*args, **kwargs):
    """scipy.optimize.linprog, imported on the first call (see the module
    docstring)."""
    from scipy.optimize import linprog as scipy_linprog
    return scipy_linprog(*args, **kwargs)


def _block_diagonal(Z: np.ndarray, blocks: int):
    """scipy.sparse CSC form of the block-diagonal matrix with `blocks`
    copies of Z'.

    Column b*n + i holds the nonzero entries of row i of Z in constraint
    rows b*p .. b*p + p - 1, the layout a dense Z' converts to.
    """
    from scipy.sparse import csc_matrix
    n, p = Z.shape
    nonzero = Z != 0.0
    rows = np.nonzero(nonzero)[1]
    data = np.tile(Z[nonzero], blocks)
    indices = np.tile(rows, blocks) + np.repeat(p * np.arange(blocks), rows.size)
    indptr = np.concatenate(([0], np.cumsum(np.tile(nonzero.sum(axis=1), blocks))))
    return csc_matrix((data, indices, indptr), shape=(blocks * p, blocks * n))


def _solve_stacked(Z: np.ndarray, ys: np.ndarray, taus: list,
                   col_sum: np.ndarray) -> list:
    """One linprog call for the independent dual programs of one chunk."""
    n, p = Z.shape
    blocks = len(taus)
    tau_col = np.asarray(taus)[:, None]
    rhs = (1.0 - tau_col) * col_sum
    res = linprog(c=-ys.ravel(), A_eq=_block_diagonal(Z, blocks),
                  b_eq=rhs.ravel(), bounds=(0.0, 1.0),
                  method="highs-ds", options=_HIGHS_OPTIONS)
    if res.status == 1:
        raise NotConverged(f"simplex iteration cap reached at taus={taus}")
    if not res.success:
        raise Degenerate(f"LP solve failed at taus={taus}: {res.message}")
    a_hat = np.clip(res.x.reshape(blocks, n), 0.0, 1.0)
    gamma_hat = -np.asarray(res.eqlin.marginals, dtype=float).reshape(blocks, p)
    _polish(Z, ys, rhs, a_hat, gamma_hat)
    objective = quantile_loss(ys - _apply(Z, gamma_hat), tau_col)
    return [QuantileFit(tau=tau, gamma_hat=g, a_hat=a, objective=float(obj))
            for tau, g, a, obj in zip(taus, gamma_hat, a_hat, objective)]


def _polish(Z: np.ndarray, ys: np.ndarray, rhs: np.ndarray,
            a_hat: np.ndarray, gamma_hat: np.ndarray) -> None:
    """Polish, in place, every generic block of one stacked solve.

    A block is generic when exactly p duals are interior. Its primal
    solution then solves that p-by-p interpolation system exactly, and
    when the residual signs leave exactly p free rows whose duals solve
    the equality constraints inside [0, 1], the block's duals are replaced
    by that exact solution. All generic blocks go through each step as one
    batch; every other block keeps its clipped simplex vertex and
    multipliers.
    """
    n, p = Z.shape
    interior = (a_hat > _BOUND_TOL) & (a_hat < 1.0 - _BOUND_TOL)
    generic = np.flatnonzero(interior.sum(axis=1) == p)
    rows = np.nonzero(interior[generic])[1].reshape(-1, p)
    gamma = solve_regular(Z[rows], np.take_along_axis(ys[generic], rows, axis=1))
    finite = np.isfinite(gamma).all(axis=1)
    generic, gamma = generic[finite], gamma[finite]

    y = ys[generic]
    resid = y - _apply(Z, gamma)
    sign_tol = 1e-9 * (1.0 + np.max(np.abs(y), axis=1, keepdims=True))
    at_one = resid > sign_tol
    free = ~(at_one | (resid < -sign_tol))
    square = free.sum(axis=1) == p
    generic, gamma = generic[square], gamma[square]
    at_one, free = at_one[square], free[square]

    free_rows = np.nonzero(free)[1].reshape(-1, p)
    # Z[at_one].sum(axis=0) per block, summed over rows in the same order
    pinned = (at_one[:, :, None] * Z).sum(axis=1)
    a_free = solve_regular(np.swapaxes(Z[free_rows], 1, 2), rhs[generic] - pinned)
    inside = np.all((a_free > -1e-9) & (a_free < 1.0 + 1e-9), axis=1)

    done = generic[inside]
    a_hat[done] = at_one[inside]
    a_hat[done[:, None], free_rows[inside]] = np.clip(a_free[inside], 0.0, 1.0)
    gamma_hat[done] = gamma[inside]


def _apply(Z: np.ndarray, gammas: np.ndarray) -> np.ndarray:
    """Z @ gammas[b] for every row b, one matrix-vector product each, so a
    block's rounding does not depend on the other blocks in its batch."""
    return (Z @ gammas[:, :, None])[:, :, 0]


def solve_regular(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A[g] x = b[g] for a stack of square systems; rows of NaN where
    the LU factorization of A[g] meets an exactly zero pivot."""
    regular = np.linalg.slogdet(A)[0] != 0.0
    x = np.full(b.shape, np.nan)
    if regular.any():
        x[regular] = np.linalg.solve(A[regular], b[regular][:, :, None])[:, :, 0]
    return x


def rank_score_function(qfit: QuantileFit) -> np.ndarray:
    """Quantile score function b_i = a_i - (1 - tau), entries in [-(1-tau), tau]."""
    return qfit.a_hat - (1.0 - qfit.tau)


def dual_objective(qfit: QuantileFit, y: np.ndarray) -> float:
    """a' y - (1 - tau) sum(y); equals the primal loss at optimality."""
    y = np.asarray(y, dtype=float)
    return float(qfit.a_hat @ y - (1.0 - qfit.tau) * y.sum())
