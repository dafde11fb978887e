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
(:func:`~mqrank.qrsolver.fit_levels`). The density scale cancels in the
projection, so only relative weights matter. Because the estimated
weights differ across levels in finite samples, one projection is
computed per level and the covariance scalar averages the
per-level mean squares.

Every subset's null law is v_bar times a mixture that depends only on the
levels and the weighting, so :class:`SubsetPlan` works it out once per
call at unit scale: positions, weighting sub-matrix B_c, mixture weights
and the noncentrality projection for all 2^K - 1 subsets, plus their
membership matrix. One eigendecomposition per subset (``_mixture``) gives
both the weights and the projection. The closure's p-values, the Monte
Carlo engine's critical values and the analytic power are all read off
that plan: statistics as s_c' B_c s_c / v_bar, alternative means as
g / sqrt(v_bar). The inverse weighting is B_c = inv(bridge_c), whose
equal mixture weights select the chi-square closed form.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, ndtri, stdtrit

from .datamodel import Dataset, HypothesisSubset, QuantileSpec, all_subsets, validate
from .distributions import (WeightedChiSquareMixture, chisq_noncentral_upper,
                            chisq_quantile, chisq_upper, mixture_quantile,
                            upper_tails)
from .exceptions import (BandwidthInfeasible, NotPositiveDefinite, SingularA,
                         SingularProjection)
from .qrsolver import QuantileFit, fit_levels, rank_score_function

# floor and division guard for the difference-quotient density estimate
_DENSITY_FLOOR = 0.01
_DENOM_GUARD = 1e-8

# relative spread below which mixture weights are treated as equal, making
# the reference distribution an exactly scaled chi-square
_EQUAL_WEIGHT_RTOL = 1e-9

_SQRT_2PI = np.sqrt(2.0 * np.pi)


def _normal_density(z: float) -> float:
    """Standard normal density in closed form, bit for bit norm.pdf: z is
    squared by multiplication, as norm.pdf does on arrays; numpy's scalar
    ``z ** 2`` can differ from it in the last bit."""
    return np.exp(-(z * z) / 2.0) / _SQRT_2PI


def hall_sheather_bandwidth(n: int, tau: float, alpha: float = 0.05) -> float:
    """Hall-Sheather rate-optimal bandwidth for quantile density estimation.

    Uses ndtri and the normal density in closed form rather than
    scipy.stats.norm, whose argument handling costs ~100x the arithmetic.
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
    negative estimates. The fits at tau -/+ h are one :func:`fit_levels`
    batch.
    """
    Z = np.asarray(Z, dtype=float)
    y = np.asarray(y, dtype=float)
    [(h, clipped)] = _bandwidths(Z.shape[0], [tau])
    lo, hi = fit_levels(Z, [y, y], [tau - h, tau + h])
    return _difference_quotient(Z, tau, h, clipped, lo, hi)


def fit_with_sparsity(Z: np.ndarray, ys, taus) -> tuple[list, list]:
    """Fit ys[j] at taus[j] and estimate its densities, for every j.

    All 3K programs (tau_j, tau_j - h_j, tau_j + h_j for each level) go to
    :func:`fit_levels` as one batch; each level's densities are the
    difference quotient of :func:`estimate_sparsity`. Returns the K fits
    at taus and their K :class:`SparsityEstimates`.
    """
    Z = np.asarray(Z, dtype=float)
    bands = _bandwidths(Z.shape[0], taus)
    levels = [t for tau, (h, _) in zip(taus, bands) for t in (tau, tau - h, tau + h)]
    fits = fit_levels(Z, np.repeat(np.asarray(ys, dtype=float), 3, axis=0), levels)
    sparsity = [_difference_quotient(Z, tau, h, clipped, lo, hi)
                for tau, (h, clipped), lo, hi
                in zip(taus, bands, fits[1::3], fits[2::3])]
    return fits[0::3], sparsity


def _bandwidths(n: int, taus) -> list:
    """bandwidth(n, tau) for each level, warning on behalf of the caller's
    caller for each bandwidth that had to be clipped."""
    out = []
    for tau in taus:
        h, clipped = bandwidth(n, tau)
        if clipped:
            warnings.warn(
                f"bandwidth at tau={tau} clipped to {h:.4g} to stay inside (0, 1)",
                RuntimeWarning, stacklevel=3)
        out.append((h, clipped))
    return out


def _difference_quotient(Z: np.ndarray, tau: float, h: float, clipped: bool,
                         lo: QuantileFit, hi: QuantileFit) -> SparsityEstimates:
    """Floored density estimates from the fits at tau -/+ h."""
    spread = Z @ (hi.gamma_hat - lo.gamma_hat)
    with np.errstate(divide="ignore"):
        f = 2.0 * h / (spread - _DENOM_GUARD)
    f_hat = np.maximum(_DENSITY_FLOOR, f)
    if not np.all(np.isfinite(f_hat)):
        raise BandwidthInfeasible(
            f"difference quotient collapsed at tau={tau}")
    return SparsityEstimates(tau=float(tau), bandwidth=h, f_hat=f_hat,
                             gamma_lo=lo.gamma_hat, gamma_hi=hi.gamma_hat,
                             clipped=clipped)


def weighted_projection(Z: np.ndarray, x: np.ndarray,
                        f_hat: np.ndarray) -> tuple[np.ndarray, float]:
    """Residual of the density-weighted projection of x on the columns of Z.

    Weights are the density estimates themselves (reciprocal conditional
    scales); any common factor cancels. Returns the residual vector and
    its mean square.
    """
    Z = np.asarray(Z, dtype=float)
    x = np.asarray(x, dtype=float)
    w = np.asarray(f_hat, dtype=float)
    n = Z.shape[0]
    Zw = Z * w[:, None]
    gram = Zw.T @ Z
    try:
        coef = np.linalg.solve(gram, Zw.T @ x)
    except np.linalg.LinAlgError as exc:
        raise SingularProjection("weighted nuisance Gram matrix is singular") from exc
    if not np.all(np.isfinite(coef)):
        raise SingularProjection("weighted projection produced non-finite coefficients")
    resid = x - Z @ coef
    return resid, float(resid @ resid / n)


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
        if subset is None:
            return a
        pos = subset.positions()
        return a[np.ix_(pos, pos)]


def score_state(dataset: Dataset, spec: QuantileSpec) -> RankScoreState:
    """Fit all restricted models and assemble the shared test state.

    For each level the response is offset by x times the null value; the
    restricted fits (nuisance design only) at every level and its density
    bandwidths are one :func:`fit_with_sparsity` batch. Each level's
    projection residual and centered duals then form its score entry.
    """
    validate(dataset, spec)
    n = dataset.n
    k = spec.k
    root_n = np.sqrt(n)

    ys = [dataset.y - dataset.x * null for null in spec.null_values]
    fits, sparsity = fit_with_sparsity(dataset.Z, ys, spec.taus)
    score = np.empty(k)
    v_per_tau = np.empty(k)
    proj_resid = np.empty((k, n))
    for j, (qfit, sp) in enumerate(zip(fits, sparsity)):
        resid, v_tau = weighted_projection(dataset.Z, dataset.x, sp.f_hat)
        score[j] = resid @ rank_score_function(qfit) / root_n
        v_per_tau[j] = v_tau
        proj_resid[j] = resid

    return RankScoreState(taus=spec.taus, null_values=spec.null_values,
                          score=score, bridge=bridge_covariance(spec.taus),
                          v_bar=float(v_per_tau.mean()), v_per_tau=v_per_tau,
                          proj_resid=proj_resid, fits=tuple(fits),
                          sparsity=tuple(sparsity))


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
        """Density at the tau-quantile, from scipy.special closed forms
        (ndtri, stdtrit, gammaln) so that scipy.stats is never imported."""
        if self.name == "normal":
            return float(_normal_density(ndtri(tau)))
        if self.name == "t":
            nu = float(self.df)
            q = stdtrit(nu, tau)
            return float(np.exp(gammaln(0.5 * (nu + 1.0)) - gammaln(0.5 * nu)
                                - 0.5 * np.log(nu * np.pi)
                                - 0.5 * (nu + 1.0) * np.log1p(q * q / nu)))
        raise ValueError(f"unknown error family {self.name!r}")


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
        if name == "t" and (df is None or df <= 0):
            raise ValueError("t error family needs positive degrees of freedom")
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

    def materialize(self, taus, subset: HypothesisSubset) -> np.ndarray:
        """Unit-scale weighting matrix B_c for one subset of hypotheses.

        The "inverse" kind is inv(bridge_c), the inverse of the subset's
        score covariance at v_bar = 1, so its mixture weights are all one
        and its statistic is chi-square; every other kind restricts a
        fixed K x K specification to the subset's principal sub-matrix.
        """
        pos = subset.positions()
        taus = tuple(taus)
        if self.kind == "identity":
            b = np.eye(len(pos))
        elif self.kind == "inverse":
            b = np.linalg.inv(bridge_covariance(taus)[np.ix_(pos, pos)])
            b = 0.5 * (b + b.T)
        elif self.kind == "diag-delta":
            t = np.asarray(taus)[pos]
            b = np.diag(1.0 / (t * (1.0 - t)))
        elif self.kind == "density":
            dens = np.array([self.family.density_at_quantile(taus[i]) for i in pos])
            b = np.diag(1.0 / dens ** 2)
        elif self.kind == "custom":
            if self.matrix.shape[0] != len(taus):
                raise ValueError(
                    f"custom weighting is {self.matrix.shape[0]}x"
                    f"{self.matrix.shape[0]} but K={len(taus)}")
            b = self.matrix[np.ix_(pos, pos)]
        else:
            raise ValueError(f"unknown weighting kind {self.kind!r}")
        _check_spd(b, what=f"{self.kind} weighting matrix")
        return b


def _check_spd(b: np.ndarray, what: str) -> None:
    if not np.isfinite(b).all():
        raise NotPositiveDefinite(f"{what} has non-finite entries")
    asym = np.abs(b - b.T).max()
    scale = max(1.0, float(np.abs(b).max()))
    if asym > 1e-10 * scale:
        raise NotPositiveDefinite(f"{what} is not symmetric (max asymmetry {asym:.2e})")
    eig = np.linalg.eigvalsh(0.5 * (b + b.T))
    if eig[0] <= 1e-10 * eig[-1] or eig[-1] <= 0.0:
        raise NotPositiveDefinite(
            f"{what} is not positive definite (eigenvalues {eig.min():.3e}"
            f" .. {eig.max():.3e})")


# --- test statistics ---------------------------------------------------------

def _check_subset(state: RankScoreState, subset: HypothesisSubset) -> None:
    if subset.indices[-1] > state.k:
        raise ValueError(f"subset {subset} references hypotheses beyond K={state.k}")


def statistic_standard(state: RankScoreState,
                       subset: HypothesisSubset) -> TestOutcome:
    """Chi-square local test: score sub-vector against its own covariance."""
    _check_subset(state, subset)
    pos = subset.positions()
    if state.v_bar <= 1e-12:
        raise SingularProjection(
            "target covariate lies in the span of the nuisance design")
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


def _mixture(a: np.ndarray, b: np.ndarray):
    """Eigendecomposition of a^{1/2} b a^{1/2}, the one behind every
    generalized test: returns its eigenvalues lam (the mixture weights;
    same spectrum as b @ a but numerically symmetric), its eigenvectors
    and a^{-1/2}."""
    eigval, eigvec = np.linalg.eigh(a)
    if eigval[0] <= 0.0 or eigval[0] <= 1e-14 * eigval[-1]:
        raise SingularA("covariance matrix is numerically singular")
    root = np.sqrt(eigval)
    a_half = (eigvec * root) @ eigvec.T
    sym = a_half @ b @ a_half
    lam, vecs = np.linalg.eigh(0.5 * (sym + sym.T))
    if lam[0] <= 1e-12 * lam[-1]:
        raise NotPositiveDefinite("mixture weights are not all strictly positive")
    return lam, vecs, (eigvec / root) @ eigvec.T


def mixture_weights(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Eigenvalues of a^{1/2} b a^{1/2}, the mixture weights of the
    generalized statistic."""
    return _mixture(a, b)[0]


def _unit_reference(taus, bridge: np.ndarray, weighting: WeightingMatrix,
                    subset: HypothesisSubset):
    """Positions, unit-scale weighting B_c, mixture weights and projection
    vecs' bridge_c^{-1/2} of one subset."""
    pos = subset.positions()
    b_c = weighting.materialize(taus, subset)
    lam, vecs, a_inv_half = _mixture(bridge[pos][:, pos], b_c)
    return pos, b_c, lam, vecs.T @ a_inv_half


def _equal_weights(lam: np.ndarray) -> bool:
    return lam[-1] - lam[0] <= _EQUAL_WEIGHT_RTOL * lam[-1]


def _upper_tails(weights: list, q, zetas: list = None) -> np.ndarray:
    """P(sum_i lam_i chi2_1(zeta_i) > q) for each subset's lam, q and
    zetas, central when zetas is None. Equal weights use the exact scaled
    chi-square; the others take one :func:`upper_tails` call per subset
    size."""
    q = np.asarray(q, dtype=float)
    out = np.empty(q.size)
    by_size = {}
    for i, lam in enumerate(weights):
        if _equal_weights(lam):
            zeta = 0.0 if zetas is None else float(zetas[i].sum())
            out[i] = chisq_noncentral_upper(q[i] / float(lam.mean()), lam.size, zeta)
        else:
            by_size.setdefault(lam.size, []).append(i)
    for idx in by_size.values():
        out[idx] = upper_tails([weights[i] for i in idx], q[idx],
                               None if zetas is None else [zetas[i] for i in idx])
    return out


def statistic_generalized(state: RankScoreState, subset: HypothesisSubset,
                          weighting: WeightingMatrix) -> TestOutcome:
    """Weighted score quadratic form with a weighted chi-square reference.

    The p-value is the unit-scale tail that SubsetPlan evaluates. The
    statistic and reference weights are reported on the score's scale:
    v_bar times the unit-scale ones, except for the inverse weighting,
    inv(v_bar * bridge_c), whose statistic is the chi-square one.
    """
    _check_subset(state, subset)
    if state.v_bar <= 1e-12:
        raise SingularProjection(
            "target covariate lies in the span of the nuisance design")
    pos, b_c, lam, _ = _unit_reference(state.taus, state.bridge, weighting, subset)
    s_c = state.score[pos]
    q = max(float(s_c @ b_c @ s_c), 0.0) / state.v_bar
    scale = 1.0 if weighting.kind == "inverse" else state.v_bar
    weights = scale * lam
    if _equal_weights(weights) and abs(weights.mean() - 1.0) <= _EQUAL_WEIGHT_RTOL:
        reference = ChiSquareRef(df=subset.size)
    else:
        reference = WeightedChiSquareRef(weights=tuple(weights))
    return TestOutcome(statistic=scale * q, reference=reference,
                       p_value=float(_upper_tails([lam], [q])[0]),
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
    in :func:`all_subsets` order: positions, B_c, mixture weights lam_c and
    the projection vecs_c' bridge_c^{-1/2} taken from the eigendecomposition
    that gives lam_c. ``member`` is the (2^K - 1) x K membership matrix,
    True where subset i contains hypothesis j + 1."""

    def __init__(self, taus, weighting: WeightingMatrix):
        self.subsets = all_subsets(len(taus))
        bridge = bridge_covariance(taus)
        terms = [_unit_reference(taus, bridge, weighting, s) for s in self.subsets]
        (self.positions, self.matrices, self.weights,
         self.projections) = map(list, zip(*terms))
        self.member = np.zeros((len(self.subsets), len(taus)), dtype=bool)
        for row, pos in zip(self.member, self.positions):
            row[pos] = True

    def statistics(self, score: np.ndarray, v_bar: float) -> np.ndarray:
        """Unit-scale statistic s_c' B_c s_c / v_bar of every subset."""
        if v_bar <= 1e-12:
            raise SingularProjection(
                "target covariate lies in the span of the nuisance design")
        return np.array([max(float(score[pos] @ b_c @ score[pos]), 0.0) / v_bar
                         for pos, b_c in zip(self.positions, self.matrices)])

    def p_values(self, score: np.ndarray, v_bar: float) -> np.ndarray:
        """Null tail probability of every subset's statistic."""
        return _upper_tails(self.weights, self.statistics(score, v_bar))

    def critical_values(self, alpha: float) -> np.ndarray:
        """Unit-scale level-alpha critical value of every subset; subsets with
        the same mixture weights (mirror images) share one quantile."""
        by_weights = {}
        out = np.empty(len(self.subsets))
        for i, lam in enumerate(self.weights):
            key = tuple(np.round(lam, 14))
            if key not in by_weights:
                if _equal_weights(lam):
                    by_weights[key] = float(lam.mean()) * chisq_quantile(
                        alpha, lam.size)
                else:
                    by_weights[key] = mixture_quantile(
                        WeightedChiSquareMixture(weights=tuple(lam)), alpha)
            out[i] = by_weights[key]
        return out

    def power(self, g: np.ndarray, v_bar: float, alpha: float) -> list:
        """Rejection probability of every subset test when the score has
        mean g and covariance v_bar * bridge."""
        g_unit = np.asarray(g, dtype=float) / np.sqrt(v_bar)
        zetas = [(proj @ g_unit[pos]) ** 2
                 for pos, proj in zip(self.positions, self.projections)]
        return _upper_tails(self.weights, self.critical_values(alpha),
                            zetas).tolist()


def analytic_power(taus, g, v_bar: float, weighting: WeightingMatrix,
                   alpha: float = 0.05) -> dict:
    """Asymptotic power of every subset test under a local alternative.

    ``g`` is the limiting mean of the score vector; the covariance is
    ``v_bar`` times the bridge covariance of the levels. Each subset's
    noncentral mixture is compared against its null mixture's critical
    value (:meth:`SubsetPlan.power`); equal mixture weights, the inverse
    weighting among them, use the noncentral chi-square in closed form.
    """
    k = len(taus)
    g = np.asarray(g, dtype=float)
    if g.shape != (k,):
        raise ValueError(f"g must have one entry per quantile level, got "
                         f"{g.shape[0]} for K={k}")
    if not np.all(np.isfinite(g)):
        raise ValueError(f"g must be finite, got {g.tolist()}")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    if not np.isfinite(v_bar):
        raise ValueError(f"v_bar must be finite, got {v_bar}")
    if v_bar <= 0.0:
        raise SingularProjection("score covariance scale must be positive")
    plan = SubsetPlan(taus, weighting)
    return dict(zip(plan.subsets, plan.power(g, v_bar, alpha)))
