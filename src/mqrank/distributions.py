"""Reference-distribution numerics for the test statistics.

Central chi-square tails and quantiles are scipy.special's closed forms
(chdtrc, chdtri; chi2.sf and chi2.isf call the same functions behind
their argument handling), and noncentral tails come from scipy.stats. Tail
probabilities of positively weighted sums of independent (noncentral)
chi-square variables are computed by numerical inversion of the
characteristic function (Imhof's method):

    P(Q > x) = 1/2 + (1/pi) * int_0^inf A(u) sin(theta(u)) du,

    theta(u) = 1/2 * sum_i [ h_i * atan(l_i u) + z_i l_i u / (1 + l_i^2 u^2) ]
               - x u / 2,
    A(u)     = 1 / (u * rho(u)),
    rho(u)   = prod_i (1 + l_i^2 u^2)^{h_i/4}
               * exp( 1/2 * sum_i z_i l_i^2 u^2 / (1 + l_i^2 u^2) ),

with weights l_i > 0, noncentralities z_i >= 0 and per-component degrees
of freedom h_i. The integrand oscillates at asymptotic frequency x/2 and
decays like u^(-1 - sum(h)/2). As in Davies (1980, AS 155), the integral
is cut at a point U with an explicit truncation bound instead of being
chased to infinity by oscillatory quadrature. One integration by parts
gives, with g = A / theta',

    int_U^inf A sin(theta) du = g(U) cos(theta(U)) + R,
    |R| <= 2 |g'(U) / theta'(U)|,

which holds once theta' stays negative beyond U and g' / theta' decays
there without turning back. U starts at one oscillation cycle, 4 pi / x,
or at 1 / max(l_i) if that is larger, and doubles until the bound is
below 1e-10; the boundary term is added. The head
(0, U] is integrated by the 21-point Gauss-Kronrod rule on panels no
longer than one cycle, with all nodes of a round evaluated as numpy
arrays in bounded blocks. Panels whose |K21 - G10| exceeds their share
of a 1e-10 budget are bisected and evaluated again.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq
from scipy.special import chdtrc, chdtri
from scipy.stats import ncx2

from .exceptions import QuadratureFailure

# absolute budgets on the integral, so the p-value error is below 1e-10;
# the contract promises 1e-6, but neighbouring deep-tail values must also
# stay monotone to 1e-9
_HEAD_TOL = 1e-10
_TAIL_TOL = 1e-10
_MAX_PANELS = 1 << 18
_MAX_ROUNDS = 40
# |K21 - G10| below this multiple of K21(|f|) is rounding, not truncation
_ROUNDOFF = 50.0 * np.finfo(float).eps
# nodes x components evaluated per numpy block; bounds the working memory
_BLOCK = 1 << 16

_CHERNOFF_GRID = 0.5 * (1.0 - 0.5 ** np.arange(1, 13))

# 21-point Gauss-Kronrod rule on [-1, 1] (QUADPACK qk21). The half tables
# run from the outermost abscissa to 0; the 10-point Gauss rule uses every
# other abscissa, starting with the second.
_XK_HALF = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0])
_WK_HALF = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077600525478780, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821])
_WG_HALF = np.zeros(11)
_WG_HALF[1::2] = [
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338]
_GK_NODES = np.concatenate([-_XK_HALF[:-1], _XK_HALF[::-1]])
_GK_WEIGHTS = np.concatenate([_WK_HALF[:-1], _WK_HALF[::-1]])
_KRONROD_MINUS_GAUSS = _GK_WEIGHTS - np.concatenate([_WG_HALF[:-1],
                                                     _WG_HALF[::-1]])


@dataclass(frozen=True)
class WeightedChiSquareMixture:
    """Distribution of sum_i weights_i * chisq(dfs_i, noncentralities_i)."""

    weights: tuple
    noncentralities: tuple = None
    dfs: tuple = None

    def __post_init__(self):
        w = tuple(float(v) for v in np.atleast_1d(self.weights))
        z = self.noncentralities
        z = (0.0,) * len(w) if z is None else tuple(float(v) for v in np.atleast_1d(z))
        d = self.dfs
        d = (1,) * len(w) if d is None else tuple(int(v) for v in np.atleast_1d(d))
        if not (len(w) == len(z) == len(d)):
            raise ValueError("weights, noncentralities and dfs must have equal length")
        if any(v <= 0.0 for v in w):
            raise ValueError("mixture weights must be strictly positive")
        if any(v < 0.0 for v in z):
            raise ValueError("noncentralities must be nonnegative")
        if any(v < 1 for v in d):
            raise ValueError("degrees of freedom must be >= 1")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "noncentralities", z)
        object.__setattr__(self, "dfs", d)

    @property
    def k(self) -> int:
        return len(self.weights)

    def mean(self) -> float:
        w, z, d = map(np.asarray, (self.weights, self.noncentralities, self.dfs))
        return float(np.sum(w * (d + z)))

    def variance(self) -> float:
        w, z, d = map(np.asarray, (self.weights, self.noncentralities, self.dfs))
        return float(np.sum(w ** 2 * (2 * d + 4 * z)))


def chisq_upper(x: float, k: int) -> float:
    """Upper tail of the central chi-square with k degrees of freedom."""
    if k < 1:
        raise ValueError("degrees of freedom must be >= 1")
    if x <= 0.0:
        return 1.0
    return float(chdtrc(k, x))


def chisq_quantile(alpha: float, k: int) -> float:
    """x with chisq_upper(x, k) = alpha."""
    return float(chdtri(k, alpha))


def chisq_noncentral_upper(x: float, k: int, zeta: float) -> float:
    """Upper tail of the noncentral chi-square; zeta = 0 falls back to central."""
    if zeta < 0.0:
        raise ValueError("noncentrality must be nonnegative")
    if x <= 0.0:
        return 1.0
    if zeta == 0.0:
        return chisq_upper(x, k)
    return float(ncx2.sf(x, k, zeta))


def _chernoff_tail_bound(mix: WeightedChiSquareMixture, x: float) -> float:
    """Upper bound on P(Q > x): exp(log MGF(t) - t x), least over a grid
    of t = (1 - 2^-j) / (2 max weight), j = 1..12; any t in that range
    gives a valid bound."""
    lam = np.asarray(mix.weights, dtype=float)
    zet = np.asarray(mix.noncentralities, dtype=float)
    dfs = np.asarray(mix.dfs, dtype=float)
    t = _CHERNOFF_GRID / float(np.max(lam))
    tl = t[:, None] * lam
    log_mgf = (-0.5 * np.log1p(-2.0 * tl)) @ dfs + (tl / (1.0 - 2.0 * tl)) @ zet
    return float(np.exp(min(float(np.min(log_mgf - t * x)), 0.0)))


def _integrand(u, lam, zet, dfs, x):
    """A(u) sin(theta(u)) at every entry of the 1-D array u > 0."""
    s = u[:, None] * lam
    s2 = s * s
    theta = 0.5 * (np.arctan(s) @ dfs) - 0.5 * x * u
    log_rho = 0.25 * (np.log1p(s2) @ dfs)
    if zet.any():
        r = 1.0 / (1.0 + s2)
        theta += 0.5 * ((s * r) @ zet)
        log_rho += 0.5 * ((s2 * r) @ zet)
    return np.sin(theta) * np.exp(-log_rho) / u


def _tail_beyond(upper, lam, zet, dfs, x):
    """Boundary term g cos(theta) at `upper` and the bound 2 |g' / theta'|
    on the rest of the integral beyond it, where g = A / theta'.

    The bound is infinite unless theta' < 0 on all of [upper, inf). The
    central part of theta' falls with u, and each noncentral part is
    positive only while l u < 1, where it falls too, so their values at
    `upper` bound theta' beyond it. |g'| is bounded term by term, so g'
    passing through zero at `upper` cannot fake a small bound.
    """
    s = lam * upper
    s2 = s * s
    r = 1.0 / (1.0 + s2)
    d_sup = 0.5 * (lam @ (r * (dfs + zet * np.maximum(1.0 - s2, 0.0) * r))) \
        - 0.5 * x
    if not d_sup < 0.0:
        return 0.0, np.inf
    theta = 0.5 * (dfs @ np.arctan(s) + zet @ (s * r)) - 0.5 * x * upper
    amp = np.exp(-(0.25 * (dfs @ np.log1p(s2)) + 0.5 * (zet @ (s2 * r)))) / upper
    d1 = 0.5 * (lam @ (r * (dfs + zet * (1.0 - s2) * r))) - 0.5 * x
    d2 = (lam * lam * s * r * r) @ (zet * (s2 - 3.0) * r - dfs)
    d_log_amp = -1.0 / upper - (lam * s * r) @ (0.5 * dfs + zet * r)
    bound = 2.0 * amp * (abs(d_log_amp) + abs(d2 / d1)) / (d1 * d1)
    return float(amp / d1 * np.cos(theta)), float(bound)


def _gauss_kronrod(a, b, f, block):
    """K21 value, |K21 - G10| and K21 of |f| on each panel (a_i, b_i)."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    val, err, absval = np.empty(a.size), np.empty(a.size), np.empty(a.size)
    for i in range(0, a.size, block):
        sl = slice(i, i + block)
        fu = f((mid[sl, None] + half[sl, None] * _GK_NODES).ravel())
        fu = fu.reshape(-1, _GK_NODES.size)
        val[sl] = (fu @ _GK_WEIGHTS) * half[sl]
        err[sl] = np.abs(fu @ _KRONROD_MINUS_GAUSS) * half[sl]
        absval[sl] = (np.abs(fu) @ _GK_WEIGHTS) * half[sl]
    return val, err, absval


def _integrate_head(f, upper, cycle, lmax, block):
    """int_0^upper f over K21 panels, bisecting those over their error share.

    Panels double in length from 0.5 / lmax up to one oscillation cycle,
    then stay one cycle long. Half of the budget is shared in proportion
    to panel length and half equally, so the short panels near the
    origin keep a share that rounding does not swamp.
    """
    top = min(cycle, upper)
    edges = [0.0]
    s = min(0.5 / lmax, top)
    while s < top:
        edges.append(s)
        s *= 2.0
    m = int(np.ceil((upper - edges[-1]) / cycle))
    if len(edges) + m > _MAX_PANELS:
        raise QuadratureFailure("too many quadrature panels")
    edges = np.concatenate([edges, np.linspace(edges[-1], upper, m + 1)[1:]])
    a, b = edges[:-1], edges[1:]
    share = 0.5 * _HEAD_TOL * ((b - a) / upper + 1.0 / a.size)

    total = 0.0
    for _ in range(_MAX_ROUNDS):
        val, err, absval = _gauss_kronrod(a, b, f, block)
        done = (err <= share) | (err <= _ROUNDOFF * absval)
        total += float(val[done].sum())
        if done.all():
            return total
        a, b, share = a[~done], b[~done], 0.5 * share[~done]
        mid = 0.5 * (a + b)
        a, b = np.concatenate([a, mid]), np.concatenate([mid, b])
        share = np.concatenate([share, share])
        if a.size > _MAX_PANELS:
            break
    raise QuadratureFailure("quadrature panels did not meet the error budget")


def imhof_upper(mix: WeightedChiSquareMixture, x: float) -> float:
    """P(Q > x) for the weighted mixture, absolute error <= 1e-6.

    Raises QuadratureFailure when the quadrature cannot certify the
    tolerance.
    """
    x = float(x)
    if x <= 0.0:
        return 1.0
    # deep tail: when an exponential bound already certifies p < 1e-9,
    # skip the (increasingly oscillatory) inversion altogether
    if _chernoff_tail_bound(mix, x) < 1e-9:
        return 0.0

    lam = np.asarray(mix.weights, dtype=float)
    zet = np.asarray(mix.noncentralities, dtype=float)
    dfs = np.asarray(mix.dfs, dtype=float)
    lmax = float(lam.max())
    cycle = 4.0 * np.pi / x

    upper = max(cycle, 1.0 / lmax)
    tail, bound = _tail_beyond(upper, lam, zet, dfs, x)
    while bound > _TAIL_TOL:
        upper *= 2.0
        if upper > _MAX_PANELS * cycle or upper * lmax > 1e100:
            raise QuadratureFailure("could not certify the truncated tail")
        tail, bound = _tail_beyond(upper, lam, zet, dfs, x)

    block = max(1, _BLOCK // (_GK_NODES.size * lam.size))
    head = _integrate_head(lambda u: _integrand(u, lam, zet, dfs, x),
                           upper, cycle, lmax, block)
    p = 0.5 + (head + tail) / np.pi
    return float(min(1.0, max(0.0, p)))


def mixture_quantile(mix: WeightedChiSquareMixture, alpha: float) -> float:
    """Critical value x with imhof_upper(mix, x) = alpha, within 1e-6 in p."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    hi = mix.mean() + 10.0 * np.sqrt(mix.variance())
    for _ in range(200):
        if imhof_upper(mix, hi) < alpha:
            break
        hi *= 2.0
    else:
        raise QuadratureFailure("failed to bracket the mixture quantile")
    return float(brentq(lambda t: imhof_upper(mix, t) - alpha, 0.0, hi,
                        xtol=1e-9, rtol=1e-12))
