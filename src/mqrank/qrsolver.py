"""Quantile regression by linear programming, with exact dual rank-scores.

The regression rank-scores are the dual solution of the quantile-loss
program. We solve the dual directly,

    maximize    a' y
    subject to  Z' a = (1 - tau) Z' 1,   0 <= a <= 1,

and return a vertex of the dual polytope: at most p entries lie strictly
inside (0, 1). In the generic case of exactly p interpolated observations
the primal coefficients are the exact-fit solution of that p-by-p system.
Strong duality ties the two solutions together:

    sum_i rho_tau(y_i - z_i' gamma) = a' y - (1 - tau) * sum_i y_i.

A rank-score test needs many such programs: every level, and the levels
tau +/- h of its density estimate, and a Monte Carlo run needs them for
every replication's dataset. They share no variable, so :func:`fit_levels`
solves them as one batch, in two stages. Its batch is every one of R
designs at every one of M levels: each (design, level) pair is a program
(a block), and the blocks come design-major, so block r * M + j is design
r at level j.

First, a Frisch-Newton interior point (Portnoy & Koenker 1997, Statistical
Science 12:279; the rqfnb routine of quantreg) runs on every block at
once: Mehrotra predictor-corrector steps, each direction one stacked
p-by-p solve of Z'DZ, until a block's duality gap is small. An interior
point is not a vertex, so each converged block hands its p smallest
|residuals|, in row order, to the polish as its basis. The polish
interpolates those rows, classifies the residual signs and solves for the
p free duals. A block is certified when they lie strictly inside (0, 1):
the result then satisfies the KKT conditions at a nondegenerate vertex,
the kind of vertex the simplex stage below polishes. On continuous data
each block's optimal vertex is unique, so a certified block is
bit-identical to that stage's result. Every product with a design, Z'DZ
included, is the block's own product and each p-by-p solve its own LAPACK
call, so a block's bits, and whether it is certified, do not depend on the
other blocks of its batch. The interior point starts no threads and needs
no scipy.

Second, every block the certificate rejects (tied responses that leave
more than p zero residuals, a degenerate vertex, a block that did not
converge within _MAX_ITERATIONS) goes to HiGHS's dual simplex, one
``linprog`` call per block on its own program: constraint matrix Z' and
that block's right-hand side. HiGHS fails on objectives of order 1e6 and
beyond, so the objective is divided by a power of two at or above max|y|
(no bits lost) and the multipliers are multiplied back by it. A generic
vertex (exactly p interior duals) goes through the same polish, on the
unscaled response. So every fit depends only on its own design, response
and level, ties included: with tied responses a program may have several
optimal vertices, and the simplex picks one from that program alone.
:func:`fit` is the one-design, one-level batch.

HiGHS presolve is off. Each program is already in reduced form (box
bounds [0, 1], p independent equality rows, no empty or duplicate row), so
presolve finds nothing to remove and only adds work: over the 200 stacked
simplex solves of a 100-replication K = 5 Monte Carlo run, before the
interior point took them over, HiGHS's own time fell from 0.38 s to
0.15 s (2-core x86), with bit-identical fits.

``scipy.optimize`` is imported only when a block reaches the simplex
stage: it costs about 0.1 s, a third of a CLI call, and on continuous data
no block does. The module-level ``linprog`` is a thin function that
imports scipy's ``linprog`` on its first call and forwards to it, so it
stays one module attribute that callers can replace.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import Degenerate, NotConverged

# entries of a within this distance of 0/1 are treated as at their bound
_BOUND_TOL = 1e-8

# stacked observations per interior-point batch; a 150-block fit_levels
# call at n = 100 peaks at about 225 B per column for p = 2 and 240 B for
# p = 3 (designs, state, directions and fits), so a batch near 4 MB
_MAX_IPM_COLUMNS = 16384

# interior point: a block stops at a duality gap of _GAP_TOL (1 + max|y|),
# or is left to the simplex after _MAX_ITERATIONS steps; each step goes
# _STEP of the way to the boundary (rqfnb's factor)
_GAP_TOL = 1e-8
_MAX_ITERATIONS = 50
_STEP = 0.99995

# fixed solver settings; presolve cannot shrink a dual program (see the
# module docstring), so it is skipped
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
        If rank(Z) < p or the simplex fallback fails structurally.
    NotConverged
        If the simplex fallback stops on its iteration cap.
    """
    return fit_levels(Z, [y], [tau])[0]


def fit_levels(Z: np.ndarray, ys, taus) -> list:
    """Fit the taus[j]-th quantile regression of each design's j-th
    response on that design, for every design and level j.

    Z is one (n, p) design with ys of shape (M, n), or an (R, n, p) stack
    of designs with ys of shape (R, M, n), for M = len(taus) levels. Each
    chunk of at most _MAX_IPM_COLUMNS stacked observations goes through
    the batched interior point and its vertex certificate. Each block left
    uncertified is one simplex solve of its own program (see the module
    docstring), so every fit depends only on its own design, response and
    level, whatever else the batch holds. Levels, shapes, finiteness,
    n > p and the rank of each design are checked once, before any
    solve. Returns one :class:`QuantileFit` per block, design-major: the
    fit of ys[r][j] is at r * M + j.

    Raises
    ------
    ValueError
        If any level lies outside (0, 1), Z, ys and taus disagree in shape,
        or Z or ys holds a value that is not finite.
    Degenerate
        If n <= p, a design is rank deficient or a simplex solve fails
        structurally.
    NotConverged
        If a simplex solve stops on its iteration cap.
    """
    Z = np.asarray(Z, dtype=float)
    ys = np.asarray(ys, dtype=float)
    taus = [float(t) for t in taus]
    for tau in taus:
        if not 0.0 < tau < 1.0:
            raise ValueError(f"tau must be in (0, 1), got {tau}")
    if Z.ndim not in (2, 3):
        raise ValueError(f"need one (n, p) design or an (R, n, p) stack, got "
                         f"shape {Z.shape}")
    designs = Z.reshape((-1,) + Z.shape[-2:])
    count, n, p = designs.shape
    levels = len(taus)
    if ys.shape != Z.shape[:-2] + (levels, n):
        raise ValueError(f"need responses of shape {Z.shape[:-2] + (levels, n)}, "
                         f"one per level of each design, got shape {ys.shape}")
    if not (np.isfinite(designs).all() and np.isfinite(ys).all()):
        raise ValueError("design and responses must be finite")
    if n <= p:
        raise Degenerate(f"need n > p, got n={n}, p={p}")
    if np.any(np.linalg.matrix_rank(designs) < p):
        raise Degenerate("design matrix is rank deficient")

    ys = ys.reshape(-1, n)
    block_taus = taus * count
    blocks = len(block_taus)
    Zs = designs[np.arange(blocks) // levels]
    tau_col = np.asarray(block_taus)[:, None]
    rhs = (1.0 - tau_col) * Zs.sum(axis=1)
    a_hat = np.zeros((blocks, n))
    gamma_hat = np.zeros((blocks, p))
    certified = np.zeros(blocks, dtype=bool)
    # near-equal chunks of at most _MAX_IPM_COLUMNS observations each
    chunks = -(-blocks // max(1, _MAX_IPM_COLUMNS // n))
    cuts = [blocks * i // chunks for i in range(chunks + 1)]
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        done, gamma = _interior_point(Zs[lo:hi], ys[lo:hi], tau_col[lo:hi],
                                      rhs[lo:hi])
        done += lo
        Zb, yb = Zs[done], ys[done]
        # near the optimum, the p smallest |residuals| are the rows the
        # optimal vertex interpolates
        resid = np.abs(yb - _apply(Zb, gamma))
        rows = np.sort(np.argpartition(resid, p - 1, axis=1)[:, :p], axis=1)
        polished, a, g = _polish(Zb, yb, rhs[done], rows)
        generic = _interior(a).sum(axis=1) == p
        b = done[polished[generic]]
        a_hat[b], gamma_hat[b], certified[b] = a[generic], g[generic], True
    fits = _fits(Zs, ys, block_taus, a_hat, gamma_hat)
    for b in np.flatnonzero(~certified):
        fits[b] = _solve_simplex(designs[b // levels], ys[b], block_taus[b], rhs[b])
    return fits


def _interior_point(Zs: np.ndarray, ys: np.ndarray, tau_col: np.ndarray,
                    rhs: np.ndarray):
    """Frisch-Newton interior point for every block's dual program, block b
    on design Zs[b].

    Solves  min c'x  s.t.  Z'x = rhs,  x + s = 1,  x, s >= 0  with c = -y;
    its dual is  max rhs'v - 1'w  s.t.  Zv + z - w = c,  z, w >= 0, and
    gamma = -v. Starts from the feasible x = 1 - tau and the least-squares
    v, then takes one Mehrotra predictor-corrector step per iteration for
    every open block, each direction one stacked p-by-p solve of Z'DZ
    (Portnoy & Koenker 1997; quantreg's rqfnb). A block is done when its
    gap z'x + w's is at most _GAP_TOL (1 + max|y|). One still open after
    _MAX_ITERATIONS steps, or whose gap is not finite, is dropped. Returns
    the indices of the done blocks and their coefficients.
    """
    n, p = Zs.shape[1:]
    x = np.repeat(1.0 - tau_col, n, axis=1)
    s = 1.0 - x
    v = -solve_regular(np.swapaxes(Zs, 1, 2) @ Zs, _times(ys, Zs))
    r = -ys - _apply(Zs, v)
    # rqfnb's start: z - w = r, neither of them zero
    lift = _GAP_TOL * (np.abs(r) < _GAP_TOL)
    z = np.maximum(r, 0.0) + lift
    w = np.maximum(-r, 0.0) + lift
    gap = _dots(x, z) + _dots(s, w)
    tol = _GAP_TOL * (1.0 + np.max(np.abs(ys), axis=1))
    live = np.arange(len(ys))
    blocks, gammas = [], []
    # a state that reaches 0 makes its ratios infinite and its block's step
    # 0; a block whose state degenerates may also overflow, and is dropped
    # once its gap is not finite
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for _ in range(_MAX_ITERATIONS):
            if not live.size:
                break
            xi, si = 1.0 / x, 1.0 / s
            d = 1.0 / (z * xi + w * si)
            zw = z - w
            rb = rhs - _times(x - d * zw, Zs)
            ZDZ = (np.swapaxes(Zs, 1, 2) * d[:, None, :]) @ Zs
            # predictor: the affine-scaling direction, whose dz = -z (1 + dx/x)
            # and dw = -w (1 - dx/s) give both step lengths from dx alone
            dv = solve_regular(ZDZ, rb)
            dx = d * (_apply(Zs, dv) - zw)
            dxx, dxs = dx * xi, dx * si
            ap = _step(np.maximum(-dxx, dxs))
            ad = _step(1.0 + np.maximum(dxx, -dxs))
            dz = -z * (1.0 + dxx)
            dw = -w * (1.0 - dxs)
            # corrector: centre on sigma * mu, sigma = (gap after the
            # predictor / gap)^3, with the predictor's second-order terms
            apdx = ap * dx
            g = _dots(x + apdx, z + ad * dz) + _dots(s - apdx, w + ad * dw)
            mu = (gap * (g / gap) ** 3 / (2 * n))[:, None]
            dr = d * (mu * (si - xi) + dx * (dz * xi + dw * si))
            dv = solve_regular(ZDZ, rb + _times(dr, Zs))
            dx2 = d * (_apply(Zs, dv) - zw) - dr
            dz = mu * xi - z - (z * dx2 + dx * dz) * xi
            dw = mu * si - w + (w * dx2 + dx * dw) * si
            dx = dx2
            ap = _step(np.maximum(-dx * xi, dx * si))
            ad = _step(-np.minimum(dz / z, dw / w))
            apdx = ap * dx
            x = x + apdx
            s = s - apdx
            v = v + ad * dv
            z = z + ad * dz
            w = w + ad * dw

            gap = _dots(x, z) + _dots(s, w)
            done = gap <= tol
            blocks.append(live[done])
            gammas.append(-v[done])
            keep = ~done & np.isfinite(gap)
            if not keep.all():
                Zs, live, x, s, v, z, w, gap, rhs, tol = (
                    t[keep] for t in (Zs, live, x, s, v, z, w, gap, rhs, tol))
    if not blocks:
        return np.zeros(0, dtype=int), np.zeros((0, p))
    return np.concatenate(blocks), np.concatenate(gammas)


def _step(shrink: np.ndarray) -> np.ndarray:
    """_STEP of the longest step, at most 1, that keeps every state u >= 0
    along its direction du, from each block's -du/u; one per block, as a
    column."""
    return (_STEP / np.maximum(shrink.max(axis=1), _STEP))[:, None]


def linprog(*args, **kwargs):
    """scipy.optimize.linprog, imported on the first call (see the module
    docstring)."""
    from scipy.optimize import linprog as scipy_linprog
    return scipy_linprog(*args, **kwargs)


def _solve_simplex(Z: np.ndarray, y: np.ndarray, tau: float,
                   rhs: np.ndarray) -> QuantileFit:
    """One linprog call for one dual program, its objective divided by a
    power of two at or above max|y|."""
    scale = _objective_scale(y)
    res = linprog(c=-y / scale, A_eq=Z.T, b_eq=rhs, bounds=(0.0, 1.0),
                  method="highs-ds", options=_HIGHS_OPTIONS)
    if res.status == 1:
        raise NotConverged(f"simplex iteration cap reached at tau={tau}")
    if not res.success:
        raise Degenerate(f"LP solve failed at tau={tau}: {res.message}")
    a_hat = np.clip(res.x, 0.0, 1.0)
    gamma_hat = -np.asarray(res.eqlin.marginals, dtype=float) * scale
    # a generic vertex (exactly p interior duals) is polished through
    # those rows; any other keeps its clipped simplex vertex and multipliers
    interior = np.flatnonzero(_interior(a_hat))
    if interior.size == Z.shape[1]:
        polished, a_exact, gamma_exact = _polish(Z[None], y[None], rhs[None],
                                                 interior[None])
        if polished.size:
            a_hat, gamma_hat = a_exact[0], gamma_exact[0]
    return _fits(Z[None], y[None], [tau], a_hat[None], gamma_hat[None])[0]


def _objective_scale(y: np.ndarray) -> float:
    """The power of two at or above max|y| (1 for zeros): dividing by it
    leaves |y| < 1 and loses no bits short of underflow."""
    return np.ldexp(1.0, np.frexp(np.max(np.abs(y)))[1])


def _polish(Zs: np.ndarray, ys: np.ndarray, rhs: np.ndarray, rows: np.ndarray):
    """The exact vertex through each block's p basis rows, where it is an
    optimal one; block b on design Zs[b].

    The primal solution interpolates ys[b] at rows[b] (one batched p-by-p
    solve). When the residual signs then leave exactly p free rows whose
    duals solve the equality constraints inside [0, 1] (one more batched
    solve), the duals are 1 above the fit, 0 below it and that solution on
    the free rows: a point that satisfies the KKT conditions. Returns the
    indices of those blocks, with their duals and coefficients.
    """
    p = Zs.shape[2]
    blocks = np.arange(len(ys))
    gamma = solve_regular(_rows_of(Zs, rows), np.take_along_axis(ys, rows, axis=1))
    finite = np.isfinite(gamma).all(axis=1)
    blocks, gamma = blocks[finite], gamma[finite]

    y = ys[blocks]
    Zb = Zs[blocks]
    resid = y - _apply(Zb, gamma)
    sign_tol = 1e-9 * (1.0 + np.max(np.abs(y), axis=1, keepdims=True))
    at_one = resid > sign_tol
    free = ~(at_one | (resid < -sign_tol))
    square = free.sum(axis=1) == p
    blocks, gamma = blocks[square], gamma[square]
    at_one, free, Zb = at_one[square], free[square], Zb[square]

    free_rows = np.nonzero(free)[1].reshape(-1, p)
    # Z[at_one].sum(axis=0) per block, summed over rows in the same order
    pinned = (at_one[:, :, None] * Zb).sum(axis=1)
    a_free = solve_regular(np.swapaxes(_rows_of(Zb, free_rows), 1, 2),
                           rhs[blocks] - pinned)
    inside = np.all((a_free > -1e-9) & (a_free < 1.0 + 1e-9), axis=1)

    a_hat = at_one[inside].astype(float)
    np.put_along_axis(a_hat, free_rows[inside], np.clip(a_free[inside], 0.0, 1.0),
                      axis=1)
    return blocks[inside], a_hat, gamma[inside]


def _interior(a_hat: np.ndarray) -> np.ndarray:
    """Which duals lie strictly inside (0, 1), beyond _BOUND_TOL."""
    return (a_hat > _BOUND_TOL) & (a_hat < 1.0 - _BOUND_TOL)


def _fits(Zs: np.ndarray, ys: np.ndarray, taus: list, a_hat: np.ndarray,
          gamma_hat: np.ndarray) -> list:
    """One QuantileFit per block, its objective the primal loss."""
    objective = quantile_loss(ys - _apply(Zs, gamma_hat), np.asarray(taus)[:, None])
    return [QuantileFit(tau=tau, gamma_hat=g, a_hat=a, objective=float(obj))
            for tau, g, a, obj in zip(taus, gamma_hat, a_hat, objective)]


def _rows_of(Zs: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Zs[b][rows[b]] for every block b: a (B, m, p) stack."""
    return np.take_along_axis(Zs, rows[:, :, None], axis=1)


def _apply(Zs: np.ndarray, gammas: np.ndarray) -> np.ndarray:
    """Zs[b] @ gammas[b] for every block b, one matrix-vector product each,
    so a block's rounding does not depend on the other blocks in its
    batch."""
    return (Zs @ gammas[:, :, None])[:, :, 0]


def _dots(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """u[..., i] @ v[..., i] over the last axis, one dot product each."""
    return (u[..., None, :] @ v[..., :, None])[..., 0, 0]


def _times(u: np.ndarray, Zs: np.ndarray) -> np.ndarray:
    """u[b] @ Zs[b] for every block b, one product each."""
    return (u[:, None, :] @ Zs)[:, 0, :]


def solve_regular(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A[g] x = b[g] for a stack (..., m, m) of square systems; rows
    of NaN where the LU factorization of A[g] meets an exactly zero pivot.
    Each system is its own LAPACK call, so its bits do not depend on the
    stack."""
    try:
        return np.linalg.solve(A, b[..., None])[..., 0]
    except np.linalg.LinAlgError:   # some A[g] is exactly singular
        pass
    regular = np.linalg.slogdet(A)[0] != 0.0
    x = np.full(b.shape, np.nan)
    if regular.any():
        x[regular] = np.linalg.solve(A[regular], b[regular][..., None])[..., 0]
    return x


def rank_score_function(qfit: QuantileFit) -> np.ndarray:
    """Quantile score function b_i = a_i - (1 - tau), entries in [-(1-tau), tau]."""
    return qfit.a_hat - (1.0 - qfit.tau)


def dual_objective(qfit: QuantileFit, y: np.ndarray) -> float:
    """a' y - (1 - tau) sum(y); equals the primal loss at optimality."""
    y = np.asarray(y, dtype=float)
    return float(qfit.a_hat @ y - (1.0 - qfit.tau) * y.sum())
