"""Multivariate rank-score machinery for simultaneous quantile inference.

For each quantile level the target covariate is removed from the model,
the restricted fit's dual rank-scores are centered into score residuals,
and their inner product with the weighted projection residual of the
target on the nuisance design yields one entry of the score vector. Under
the intersection null the score vector is asymptotically centered normal
with covariance ``v_bar * bridge``, where ``bridge`` is the Brownian-bridge
covariance min(t_l, t_r) - t_l t_r of the chosen levels and ``v_bar`` the
mean-square projection residual. Quadratic forms in the score vector give
chi-square local tests (inverse-covariance weighting) or weighted
chi-square mixtures (any other positive-definite weighting).

Heteroscedasticity enters through the projection weights: per-observation
conditional densities at each level are estimated by a difference quotient
of restricted fits at tau +/- h (Hall-Sheather bandwidth), floored at 0.01,
and their reciprocals form the weighting of the projection. A dataset's
3K restricted fits, at every tau and tau +/- h, are one stacked LP batch
(:func:`~mqrank.qrsolver.fit_levels`); :func:`score_states` puts several
datasets' fits in one batch, every design at every level, and each
dataset's state has the same bits as alone, whatever the other designs.
The density scale cancels in the projection, so only relative weights
matter. Because the estimated weights differ across levels in finite
samples, one projection is computed per level and the covariance scalar
averages the per-level mean squares.

Every subset's null law is v_bar times a mixture that depends only on the
levels and the weighting, so :class:`SubsetPlan` works it out once per
call at unit scale: positions, weighting sub-matrix B_c, mixture weights
and the noncentrality projection for all 2^K - 1 subsets, plus their
membership matrix. The subsets of each size are one stack, and one
batched eigendecomposition per size (``_mixture``) gives both the weights
and the projections. The closure's p-values, the Monte Carlo engine's
critical values and the analytic power are all read off that plan:
statistics as s_c' B_c s_c / v_bar, alternative means as g / sqrt(v_bar).
The inverse weighting is B_c = inv(bridge_c), whose equal mixture weights
select the chi-square closed form.
"""

from __future__ import annotations

import sys
import warnings
from dataclasses import dataclass

import numpy as np

from ._special import betaln, ndtri, stdtrit
from .datamodel import (Dataset, HypothesisSubset, QuantileSpec, all_subsets,
                        subset_positions, validate, validate_spec)
from .distributions import (_EQUAL_WEIGHT_RTOL, _equal_weights,
                            _newton_quantiles, chisq_upper, upper_tails)
from .exceptions import (BandwidthInfeasible, NotPositiveDefinite, SingularA,
                         SingularProjection)
from .qrsolver import _dots, fit_levels, rank_score_function

# floor and division guard for the difference-quotient density estimate
_DENSITY_FLOOR = 0.01
_DENOM_GUARD = 1e-8

_SQRT_2PI = np.sqrt(2.0 * np.pi)

# log(Gamma(x + 1/2) / (Gamma(x) sqrt(x))) = sum_k c_k x^(1 - 2k), the
# asymptotic series with c_k = (2^(1 - 2k) - 2) B_2k / (2k (2k - 1));
# five terms leave under 1e-15 from x = 15 on
_LOG_GAMMA_RATIO = (-1 / 8, 1 / 192, -1 / 640, 17 / 14336, -31 / 18432)


def _normal_density(z: float) -> float:
    """Standard normal density in closed form, bit for bit norm.pdf: z is
    squared by multiplication, as norm.pdf does on arrays; numpy's scalar
    ``z ** 2`` can differ from it in the last bit."""
    return np.exp(-(z * z) / 2.0) / _SQRT_2PI


def hall_sheather_bandwidth(n: int, tau: float, alpha: float = 0.05) -> float:
    """Hall-Sheather rate-optimal bandwidth for quantile density estimation.

    Uses ndtri (through mqrank._special) and the normal density in closed
    form rather than scipy.stats.norm, whose argument handling costs ~100x
    the arithmetic.
    """
    z_tau = ndtri(tau)
    num = 1.5 * _normal_density(z_tau) ** 2
    den = 2.0 * z_tau ** 2 + 1.0
    return float(n ** (-1.0 / 3.0) * ndtri(1.0 - alpha / 2.0) ** (2.0 / 3.0)
                 * (num / den) ** (1.0 / 3.0))


def bandwidth(n: int, tau: float) -> tuple[float, bool]:
    """Usable difference-quotient bandwidth, shrunk when tau +/- h leaves (0,1)."""
    h = hall_sheather_bandwidth(n, tau)
    clipped = False
    if tau - h <= 0.0 or tau + h >= 1.0:
        h = 0.9 * min(tau, 1.0 - tau)
        clipped = True
    if tau - h <= 0.0 or tau + h >= 1.0 or h <= 0.0:
        raise BandwidthInfeasible(f"no usable bandwidth at tau={tau}, n={n}")
    return h, clipped


def bridge_covariance(taus) -> np.ndarray:
    """K x K matrix with entries min(t_l, t_r) - t_l * t_r."""
    t = np.asarray(taus, dtype=float)
    return np.minimum.outer(t, t) - np.outer(t, t)


def principal(a: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """Principal sub-matrices of a square matrix a, or of each of a stack
    (..., K, K): (m, m) for one position vector (m,), (C, m, m) for a
    (C, m) stack of them, behind the stack's leading axes."""
    return a[..., pos[..., :, None], pos[..., None, :]]


@dataclass(frozen=True)
class SparsityEstimates:
    """Difference-quotient density estimates at one quantile level.

    f_hat holds the floored per-observation estimates; gamma_lo/gamma_hi
    are the restricted fits at tau -/+ bandwidth that form the quotient.
    """

    tau: float
    bandwidth: float
    f_hat: np.ndarray
    gamma_lo: np.ndarray
    gamma_hi: np.ndarray
    clipped: bool = False


def estimate_sparsity(Z: np.ndarray, y: np.ndarray, tau: float) -> SparsityEstimates:
    """Estimate conditional densities at the tau-th restricted quantile fit.

    The density at observation i is 2h over the fitted quantile spread
    z_i'(gamma(tau+h) - gamma(tau-h)), guarded by a small epsilon in the
    denominator and floored at 0.01 so nonpositive spreads cannot produce
    negative estimates: the one-dataset, one-level case of
    :func:`fit_with_sparsity`.
    """
    sparsity = fit_with_sparsity(np.asarray(Z, dtype=float)[None],
                                 np.asarray(y, dtype=float)[None, None], [tau])[1]
    return sparsity[0][0]


def fit_with_sparsity(Zs: np.ndarray, ys, taus) -> tuple[list, list]:
    """Fit ys[r][j] on the design Zs[r] at taus[j] and estimate its
    densities, for every dataset r and level j.

    Zs is an (R, n, p) stack of designs and ys an (R, K, n) array. All 3RK
    programs (each design at tau_j, tau_j - h_j and tau_j + h_j for every
    level j) go to :func:`fit_levels` as one batch; each level's densities
    are the floored difference quotients that :func:`estimate_sparsity`
    describes. Returns, per dataset, its K fits at taus and its K
    :class:`SparsityEstimates`.
    """
    Zs = np.asarray(Zs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    count, n, p = Zs.shape
    k = len(taus)
    bands = _bandwidths(n, taus)
    levels = [t for tau, (h, _) in zip(taus, bands) for t in (tau, tau - h, tau + h)]
    fits = fit_levels(Zs, np.repeat(ys, 3, axis=1), levels)
    gammas = np.array([qfit.gamma_hat for qfit in fits]).reshape(count, k, 3, p)
    sparsity = _difference_quotients(Zs, taus, bands, gammas[:, :, 1], gammas[:, :, 2])
    return [fits[r * 3 * k:(r + 1) * 3 * k:3] for r in range(count)], sparsity


def _bandwidths(n: int, taus) -> list:
    """bandwidth(n, tau) for each level, warning for each bandwidth that had
    to be clipped at the line of the first caller outside mqrank."""
    out = []
    for tau in taus:
        h, clipped = bandwidth(n, tau)
        if clipped:
            warnings.warn(
                f"bandwidth at tau={tau} clipped to {h:.4g} to stay inside (0, 1)",
                RuntimeWarning, stacklevel=_outside_stacklevel())
        out.append((h, clipped))
    return out


def _outside_stacklevel() -> int:
    """The stacklevel that makes a warning issued by this function's caller
    name the first frame outside the mqrank package."""
    frame, level = sys._getframe(1), 1
    while (frame.f_back is not None
           and frame.f_globals.get("__name__", "").split(".")[0] == __package__):
        frame, level = frame.f_back, level + 1
    return level


def _difference_quotients(Zs: np.ndarray, taus, bands: list, gamma_lo: np.ndarray,
                          gamma_hi: np.ndarray) -> list:
    """Floored density estimates of every dataset r at every level j, from
    its (R, K, p) fits at tau_j -/+ h_j on the design Zs[r]: one list of K
    :class:`SparsityEstimates` per dataset. Each spread is its own
    matrix-vector product."""
    h = np.array([h for h, _ in bands])
    spread = (Zs[:, None] @ (gamma_hi - gamma_lo)[..., None])[..., 0]
    with np.errstate(divide="ignore"):
        f = 2.0 * h[:, None] / (spread - _DENOM_GUARD)
    f_hat = np.maximum(_DENSITY_FLOOR, f)
    collapsed = np.nonzero(~np.isfinite(f_hat).all(axis=2))[1]
    if collapsed.size:
        raise BandwidthInfeasible(
            f"difference quotient collapsed at tau={taus[collapsed[0]]}")
    return [[SparsityEstimates(tau=float(tau), bandwidth=h, f_hat=f_hat[r, j],
                               gamma_lo=gamma_lo[r, j], gamma_hi=gamma_hi[r, j],
                               clipped=clipped)
             for j, (tau, (h, clipped)) in enumerate(zip(taus, bands))]
            for r in range(len(Zs))]


def weighted_projection(Z: np.ndarray, x: np.ndarray,
                        f_hat: np.ndarray) -> tuple[np.ndarray, float]:
    """Residual of the density-weighted projection of x on the columns of Z.

    Weights are the density estimates themselves (reciprocal conditional
    scales); any common factor cancels. Returns the residual vector and
    its mean square: the one-level case of :func:`_weighted_projections`.
    """
    Z = np.asarray(Z, dtype=float)
    x = np.asarray(x, dtype=float)
    w = np.asarray(f_hat, dtype=float)
    resid, v = _weighted_projections(Z[None], x[None], w[None, None])
    return resid[0, 0], float(v[0, 0])


def _weighted_projections(Zs: np.ndarray, x: np.ndarray, f_hat: np.ndarray):
    """Residuals (R, K, n) and mean squares (R, K) of the projection of
    x[r] on the columns of Zs[r] weighted by f_hat[r, j], for every dataset
    r and level j; each Gram matrix, solve and product its own call."""
    n = Zs.shape[1]
    Z = Zs[:, None]
    Zw_t = np.swapaxes(Z * f_hat[..., None], -1, -2)
    try:
        coef = np.linalg.solve(Zw_t @ Z, Zw_t @ x[:, None, :, None])
    except np.linalg.LinAlgError as exc:
        raise SingularProjection("weighted nuisance Gram matrix is singular") from exc
    if not np.all(np.isfinite(coef)):
        raise SingularProjection("weighted projection produced non-finite coefficients")
    resid = x[:, None, :] - (Z @ coef)[..., 0]
    return resid, _dots(resid, resid) / n


@dataclass(frozen=True)
class RankScoreState:
    """Everything the subset tests reuse, computed once per dataset.

    score[j] is the normalized inner product of the j-th projection
    residual with the j-th centered dual vector; all 2^K - 1 subset
    statistics are quadratic forms in sub-vectors of it.
    """

    taus: tuple
    null_values: tuple
    score: np.ndarray
    bridge: np.ndarray
    v_bar: float
    v_per_tau: np.ndarray
    proj_resid: np.ndarray
    fits: tuple
    sparsity: tuple

    @property
    def k(self) -> int:
        return len(self.taus)

    @property
    def n(self) -> int:
        return self.proj_resid.shape[1]

    def covariance(self, subset: HypothesisSubset = None) -> np.ndarray:
        """Score covariance v_bar * bridge, optionally restricted to a subset."""
        a = self.v_bar * self.bridge
        return a if subset is None else principal(a, subset.positions())


def score_state(dataset: Dataset, spec: QuantileSpec) -> RankScoreState:
    """Fit all restricted models and assemble the shared test state: the
    one-dataset case of :func:`score_states`."""
    return score_states([dataset], spec)[0]


def score_states(datasets, spec: QuantileSpec) -> list:
    """The :class:`RankScoreState` of every dataset, datasets of one shape.

    Each dataset is validated first. For each level the response is offset
    by x times the null value; the restricted fits (nuisance design only)
    of every dataset at every level and its density bandwidths are one
    :func:`fit_with_sparsity` batch. Each level's projection residual and
    centered duals then form its score entry. Every fit, projection and
    product is its own call, so a dataset's state has the same bits in any
    batch.

    SingularProjection when some v_bar is at most 1e-20 times the mean
    square of its x: a residual below 1e-10 of x's norm, which rounding
    leaves with under six correct digits. That flags x in the span of the
    nuisance design, a constant x included, in any units of x. This is the
    one collinearity check; the statistics take v_bar > 0 as given.
    """
    for dataset in datasets:
        validate(dataset, spec)
    if len({(ds.n, ds.p) for ds in datasets}) != 1:
        raise ValueError("score_states needs one or more datasets of one "
                         "shape (n, p)")
    Zs = np.array([ds.Z for ds in datasets])
    x = np.array([ds.x for ds in datasets])
    null = np.asarray(spec.null_values, dtype=float)
    ys = np.array([ds.y for ds in datasets])[:, None, :] - x[:, None, :] * null[:, None]
    fits, sparsity = fit_with_sparsity(Zs, ys, spec.taus)
    f_hat = np.array([[sp.f_hat for sp in row] for row in sparsity])
    resid, v_per_tau = _weighted_projections(Zs, x, f_hat)
    v_bar = [float(v.mean()) for v in v_per_tau]
    if np.any(np.array(v_bar) <= 1e-20 * (x * x).mean(axis=1)):
        raise SingularProjection(
            "target covariate lies in the span of the nuisance design")
    centered = np.array([[rank_score_function(qfit) for qfit in row] for row in fits])
    score = _dots(resid, centered) / np.sqrt(Zs.shape[1])
    bridge = bridge_covariance(spec.taus)
    return [RankScoreState(taus=spec.taus, null_values=spec.null_values,
                           score=score[r], bridge=bridge, v_bar=v_bar[r],
                           v_per_tau=v_per_tau[r], proj_resid=resid[r],
                           fits=tuple(fits[r]), sparsity=tuple(sparsity[r]))
            for r in range(len(datasets))]


# --- reference-distribution descriptors ------------------------------------

@dataclass(frozen=True)
class ChiSquareRef:
    df: int


@dataclass(frozen=True)
class WeightedChiSquareRef:
    weights: tuple


@dataclass(frozen=True)
class TestOutcome:
    statistic: float
    reference: object
    p_value: float
    subset: HypothesisSubset


# --- weighting matrices -----------------------------------------------------

@dataclass(frozen=True)
class ErrorFamily:
    """Assumed error distribution for density-reciprocal weighting."""

    name: str
    df: float = None

    def density_at_quantile(self, tau: float) -> float:
        """Density at the tau-quantile, from scipy.special's ufuncs ndtri,
        stdtrit and betaln, which come through mqrank._special, so that
        neither scipy.stats nor scipy.special's package init runs."""
        if self.name == "normal":
            return float(_normal_density(ndtri(tau)))
        if self.name == "t":
            nu = float(self.df)
            q = stdtrit(nu, tau)
            return float(np.exp(_t_log_normalizer(nu)
                                - 0.5 * (nu + 1.0) * np.log1p(q * q / nu)))
        raise ValueError(f"unknown error family {self.name!r}")


def _t_log_normalizer(nu: float) -> float:
    """log of Gamma((nu + 1) / 2) / (Gamma(nu / 2) sqrt(nu pi)), within
    2e-15 for every nu > 0. Any difference of log-gammas cancels as nu
    grows (betaln's too, from nu of about 300 to 3e6), so from nu = 30 on
    the ratio comes from its asymptotic series."""
    if nu < 30.0:
        return -betaln(0.5, 0.5 * nu) - 0.5 * np.log(nu)
    x = 0.5 * nu
    return (np.polynomial.polynomial.polyval(x ** -2.0, _LOG_GAMMA_RATIO) / x
            - np.log(_SQRT_2PI))


@dataclass(frozen=True)
class WeightingMatrix:
    """Positive-definite weighting of the score quadratic form.

    kind is one of "inverse" (inverse score covariance: the chi-square
    statistic), "identity", "diag-delta" (reciprocal bridge variances),
    "density" (squared reciprocal densities of an assumed error family at
    each level; misspecifying the family redistributes power against a
    blend of the assumed and true alternatives rather than the intended
    ones), or "custom" (explicit K x K matrix, subset via principal
    sub-matrices).
    """

    kind: str
    family: ErrorFamily = None
    matrix: np.ndarray = None

    @staticmethod
    def identity() -> "WeightingMatrix":
        return WeightingMatrix(kind="identity")

    @staticmethod
    def inverse() -> "WeightingMatrix":
        return WeightingMatrix(kind="inverse")

    @staticmethod
    def inverse_diag_delta() -> "WeightingMatrix":
        return WeightingMatrix(kind="diag-delta")

    @staticmethod
    def density_reciprocal(name: str, df: float = None) -> "WeightingMatrix":
        if name == "t" and (df is None or not 0.0 < df < np.inf):
            raise ValueError(
                f"t error family needs finite positive degrees of freedom, got {df}")
        return WeightingMatrix(kind="density", family=ErrorFamily(name, df))

    @staticmethod
    def custom(matrix) -> "WeightingMatrix":
        m = np.asarray(matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("custom weighting must be a square matrix")
        _check_spd(m, what="custom weighting matrix")
        return WeightingMatrix(kind="custom", matrix=m)

    @staticmethod
    def parse(text: str) -> "WeightingMatrix":
        """Parse CLI-style names: identity | inverse | diag-delta |
        density:normal | density:t:<df>."""
        if text == "identity":
            return WeightingMatrix.identity()
        if text == "inverse":
            return WeightingMatrix.inverse()
        if text == "diag-delta":
            return WeightingMatrix.inverse_diag_delta()
        if text.startswith("density:"):
            parts = text.split(":")
            if parts[1] == "normal" and len(parts) == 2:
                return WeightingMatrix.density_reciprocal("normal")
            if parts[1] == "t" and len(parts) == 3:
                return WeightingMatrix.density_reciprocal("t", float(parts[2]))
            raise ValueError(f"unknown density weighting {text!r}")
        raise ValueError(f"unknown weighting {text!r}")

    @property
    def name(self) -> str:
        """The name :meth:`parse` reads, degrees of freedom in ``:g`` form;
        "custom" for an explicit matrix."""
        if self.kind == "density":
            df = "" if self.family.df is None else f":{self.family.df:g}"
            return f"density:{self.family.name}{df}"
        return self.kind

    def materialize(self, taus, subset: HypothesisSubset) -> np.ndarray:
        """Unit-scale weighting matrix B_c for one subset of hypotheses."""
        return self._sub_matrices(taus, [subset.positions()])[0]

    def _sub_matrices(self, taus, positions) -> list:
        """B_c for each position vector (m,) or (C, m) stack in positions.

        The "inverse" kind is inv(bridge_c), the inverse of the subset's
        score covariance at v_bar = 1, so its mixture weights are all one
        and its statistic is chi-square; every other kind cuts principal
        sub-matrices from one fixed K x K specification. That K x K matrix,
        inv(bridge) for the inverse kind, is checked once, before any B_c
        is cut: by Cauchy interlacing no principal sub-matrix of a symmetric
        matrix, and no inverse of a principal sub-matrix of the bridge, has
        a smaller eigenvalue ratio, so it fails exactly when some B_c would.
        """
        t = np.asarray(taus, dtype=float)
        if self.kind == "identity":
            full = np.eye(t.size)
        elif self.kind == "inverse":
            bridge = bridge_covariance(t)
            full = np.linalg.inv(bridge)
        elif self.kind == "diag-delta":
            full = np.diag(1.0 / (t * (1.0 - t)))
        elif self.kind == "density":
            dens = np.array([self.family.density_at_quantile(tau) for tau in t])
            full = np.diag(1.0 / dens ** 2)
        elif self.kind == "custom":
            if self.matrix.shape[0] != t.size:
                raise ValueError(
                    f"custom weighting is {self.matrix.shape[0]}x"
                    f"{self.matrix.shape[0]} but K={t.size}")
            full = self.matrix
        else:
            raise ValueError(f"unknown weighting kind {self.kind!r}")
        _check_spd(full, what=f"{self.kind} weighting matrix")
        if self.kind == "inverse":
            inverses = [np.linalg.inv(principal(bridge, pos)) for pos in positions]
            return [0.5 * (b + np.swapaxes(b, -1, -2)) for b in inverses]
        return [principal(full, pos) for pos in positions]


def _check_spd(b: np.ndarray, what: str) -> None:
    """NotPositiveDefinite unless the matrix b is finite, symmetric (within
    1e-10 of max(1, max |b|)) and positive definite (smallest eigenvalue
    above 1e-10 times the largest, which is positive)."""
    if not np.isfinite(b).all():
        raise NotPositiveDefinite(f"{what} has non-finite entries")
    asym = np.abs(b - b.T).max()
    if asym > 1e-10 * max(1.0, np.abs(b).max()):
        raise NotPositiveDefinite(
            f"{what} is not symmetric (max asymmetry {asym:.2e})")
    eig = np.linalg.eigvalsh(0.5 * (b + b.T))
    if eig[0] <= 1e-10 * eig[-1] or eig[-1] <= 0.0:
        raise NotPositiveDefinite(
            f"{what} is not positive definite (eigenvalues {eig[0]:.3e}"
            f" .. {eig[-1]:.3e})")


# --- test statistics ---------------------------------------------------------

def _check_subset(state: RankScoreState, subset: HypothesisSubset) -> None:
    if subset.indices[-1] > state.k:
        raise ValueError(f"subset {subset} references hypotheses beyond K={state.k}")


def statistic_standard(state: RankScoreState,
                       subset: HypothesisSubset) -> TestOutcome:
    """Chi-square local test: score sub-vector against its own covariance."""
    _check_subset(state, subset)
    pos = subset.positions()
    s_c = state.score[pos]
    a_c = state.covariance(subset)
    try:
        stat = float(s_c @ np.linalg.solve(a_c, s_c))
    except np.linalg.LinAlgError as exc:
        raise SingularA("score covariance sub-matrix is singular") from exc
    stat = max(stat, 0.0)
    k = subset.size
    return TestOutcome(statistic=stat, reference=ChiSquareRef(df=k),
                       p_value=chisq_upper(stat, k), subset=subset)


def _mixture(a: np.ndarray, b: np.ndarray, where=None):
    """Eigendecomposition of a^{1/2} b a^{1/2}, the one behind every
    generalized test, for one pair or a stack (..., m, m) of pairs: returns
    its eigenvalues lam (the mixture weights; same spectrum as b @ a but
    numerically symmetric), its eigenvectors and a^{-1/2}.

    NotPositiveDefinite when some pair's smallest weight is at most 1e-12
    of its largest; its message gives the first such pair's ratio, and
    ``where(i)``, when given, names the i-th pair (flat index) of a stack."""
    eigval, eigvec = np.linalg.eigh(a)
    low = eigval[..., 0]
    if (low <= 0.0).any() or (low <= 1e-14 * eigval[..., -1]).any():
        raise SingularA("covariance matrix is numerically singular")
    root = np.sqrt(eigval)[..., None, :]
    eigvec_t = np.swapaxes(eigvec, -1, -2)
    a_half = (eigvec * root) @ eigvec_t
    sym = a_half @ b @ a_half
    lam, vecs = np.linalg.eigh(0.5 * (sym + np.swapaxes(sym, -1, -2)))
    bad = np.flatnonzero(lam[..., 0] <= 1e-12 * lam[..., -1])
    if bad.size:
        w = lam.reshape(-1, lam.shape[-1])[bad[0]]
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = w[0] / w[-1]
        place = "" if where is None else f"{where(bad[0])}: "
        raise NotPositiveDefinite(
            f"{place}mixture weights are not all strictly positive "
            f"(smallest/largest {ratio:.3e})")
    return lam, vecs, (eigvec / root) @ eigvec_t


def mixture_weights(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Eigenvalues of a^{1/2} b a^{1/2}, the mixture weights of the
    generalized statistic."""
    return _mixture(a, b)[0]


def statistic_generalized(state: RankScoreState, subset: HypothesisSubset,
                          weighting: WeightingMatrix) -> TestOutcome:
    """Weighted score quadratic form with a weighted chi-square reference.

    The p-value is the unit-scale tail that SubsetPlan evaluates. The
    statistic and reference weights are reported on the score's scale:
    v_bar times the unit-scale ones, except for the inverse weighting,
    inv(v_bar * bridge_c), whose statistic is the chi-square one.
    """
    _check_subset(state, subset)
    pos = subset.positions()
    b_c = weighting.materialize(state.taus, subset)
    lam = mixture_weights(principal(state.bridge, pos), b_c)
    s_c = state.score[pos]
    q = max(float(s_c @ b_c @ s_c), 0.0) / state.v_bar
    scale = 1.0 if weighting.kind == "inverse" else state.v_bar
    weights = scale * lam
    if _equal_weights(weights) and abs(weights.mean() - 1.0) <= _EQUAL_WEIGHT_RTOL:
        reference = ChiSquareRef(df=subset.size)
    else:
        reference = WeightedChiSquareRef(weights=tuple(weights))
    return TestOutcome(statistic=scale * q, reference=reference,
                       p_value=float(upper_tails(lam[None], np.array([q]))[0]),
                       subset=subset)


# --- analytic power ingredients ---------------------------------------------

def noncentrality_standard(g: np.ndarray, a: np.ndarray) -> float:
    """g' a^{-1} g: noncentrality of the chi-square statistic under local
    alternatives with mean vector g and covariance a."""
    g = np.asarray(g, dtype=float)
    a = np.asarray(a, dtype=float)
    eig = np.linalg.eigvalsh(0.5 * (a + a.T))
    if eig[0] <= 0.0 or eig[0] <= 1e-14 * eig[-1]:
        raise SingularA("covariance matrix is numerically singular")
    return float(g @ np.linalg.solve(a, g))


def noncentrality_generalized(g: np.ndarray, a: np.ndarray,
                              b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mixture weights and per-component noncentralities under alternatives.

    Components follow the eigenvectors of a^{1/2} b a^{1/2}; each
    noncentrality is the squared projection of the standardized mean
    a^{-1/2} g onto the corresponding eigenvector.
    """
    g = np.asarray(g, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    _check_spd(b, what="weighting matrix")
    lam, vecs, a_inv_half = _mixture(0.5 * (a + a.T), b)
    return lam, (vecs.T @ (a_inv_half @ g)) ** 2


class SubsetPlan:
    """Every subset's local test at unit scale (see the module docstring),
    in :func:`all_subsets` order, which puts the C = comb(K, m) subsets of
    each size m in one block of rows. Each size is one stack: its rows (a
    slice), positions (C, m), B_c (C, m, m), mixture weights lam_c (C, m)
    and projections vecs_c' bridge_c^{-1/2} (C, m, m), all from one batched
    eigendecomposition. ``member`` is the (2^K - 1) x K membership matrix,
    True where subset i contains hypothesis j + 1."""

    def __init__(self, taus, weighting: WeightingMatrix):
        k = len(taus)
        self.subsets = all_subsets(k)
        bridge = bridge_covariance(taus)
        self._stacks = []
        start = 0
        positions = subset_positions(k)
        for pos, b in zip(positions, weighting._sub_matrices(taus, positions)):
            rows = slice(start, start + len(pos))
            start = rows.stop
            lam, vecs, a_inv_half = _mixture(
                principal(bridge, pos), b,
                where=lambda i: (f"{weighting.kind} weighting at levels "
                                 f"{self.subsets[rows.start + i]}"))
            self._stacks.append(
                (rows, pos, b, lam, np.swapaxes(vecs, -1, -2) @ a_inv_half))
        self.member = np.concatenate([np.eye(k, dtype=bool)[pos].any(axis=1)
                                      for _, pos, *_ in self._stacks])

    def statistics(self, score: np.ndarray, v_bar) -> np.ndarray:
        """Unit-scale statistic s_c' B_c s_c / v_bar of every subset, for
        one (K,) score or for each row of an (R, K) stack with its (R,)
        v_bar; each quadratic form is its own product, on contiguous rows
        as BLAS gives other bits for strided vectors."""
        quad = []
        for _, pos, b, *_ in self._stacks:
            s = np.ascontiguousarray(score[..., pos])
            quad.append((s[..., None, :] @ b @ s[..., :, None])[..., 0, 0])
        return (np.maximum(np.concatenate(quad, axis=-1), 0.0)
                / np.asarray(v_bar)[..., None])

    def p_values(self, score: np.ndarray, v_bar: float) -> np.ndarray:
        """Null tail probability of every subset's statistic."""
        q = self.statistics(score, v_bar)
        return np.concatenate([upper_tails(lam, q[rows])
                               for rows, _, _, lam, _ in self._stacks])

    def critical_values(self, alpha: float) -> np.ndarray:
        """Unit-scale level-alpha critical value of every subset; subsets of
        one size with the same rounded mixture weights (mirror images) share
        the quantile of the first of them. The distinct rows of a size are
        one batched quantile solve."""
        out = []
        for _, _, _, lam, _ in self._stacks:
            _, first, inverse = np.unique(np.round(lam, 14), axis=0,
                                          return_index=True, return_inverse=True)
            rows = lam[first]
            values = _newton_quantiles(rows, np.zeros_like(rows), alpha)
            # the shape of the inverse index differs across numpy releases
            out.append(values[inverse.ravel()])
        return np.concatenate(out)

    def power(self, g: np.ndarray, v_bar: float, alpha: float) -> list:
        """Rejection probability of every subset test when the score has
        mean g and covariance v_bar * bridge."""
        g_unit = np.asarray(g, dtype=float) / np.sqrt(v_bar)
        crit = self.critical_values(alpha)
        return np.concatenate([
            upper_tails(lam, crit[rows], (proj @ g_unit[pos][:, :, None])[:, :, 0] ** 2)
            for rows, pos, _, lam, proj in self._stacks]).tolist()


def analytic_power(taus, g, v_bar: float, weighting: WeightingMatrix,
                   alpha: float = 0.05) -> dict:
    """Asymptotic power of every subset test under a local alternative.

    ``g`` is the limiting mean of the score vector; the covariance is
    ``v_bar`` times the bridge covariance of the levels. Each subset's
    noncentral mixture is compared against its null mixture's critical
    value (:meth:`SubsetPlan.power`); equal mixture weights, the inverse
    weighting among them, use the noncentral chi-square in closed form.
    Levels outside (0, 1) or repeated raise ValidationError; the table
    follows ``taus`` in the order given.
    """
    validate_spec(QuantileSpec(taus))
    k = len(taus)
    g = np.asarray(g, dtype=float)
    if g.shape != (k,):
        raise ValueError(f"g must have one entry per quantile level, got "
                         f"shape {g.shape} for K={k}")
    if not np.all(np.isfinite(g)):
        raise ValueError(f"g must be finite, got {g.tolist()}")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    if not (np.isfinite(v_bar) and v_bar > 0.0):
        raise ValueError(f"v_bar must be finite and positive, got {v_bar}")
    plan = SubsetPlan(taus, weighting)
    return dict(zip(plan.subsets, plan.power(g, v_bar, alpha)))
