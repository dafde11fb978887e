"""Reference-distribution numerics for the test statistics.

Central chi-square tails and quantiles are scipy.special's closed forms
(chdtrc, chdtri; chi2.sf and chi2.isf call the same functions behind
their argument handling), and the noncentral tail is 1 - chndtr. These
ufuncs come through mqrank._special, which loads them without running
scipy.special's package init (its docstring says why and at what risk).
Equal mixture weights w (max - min within 1e-9 of the largest) make a
scaled chi-square, w chisq_K(sum_i z_i), whose tail and central quantile
take these closed forms in every public function, with no floor.
scipy.stats is not imported: its import alone costs more than a typical
closed test. Nor are scipy.optimize and scipy.linalg: quantiles have a
solver of their own (below).

Tail probabilities of positively weighted sums of independent
(noncentral) chi-square variables with one degree of freedom each,
Q = sum_i l_i chisq_1(z_i), come from numerical Laplace inversion. The
tail function P(Q > x) has the Laplace transform (1 - phi(s)) / s, where

    phi(s) = E exp(-s Q)
           = prod_i (1 + 2 l_i s)^(-1/2) * exp(-sum_i z_i l_i s / (1 + 2 l_i s)),

whose singularities all lie on the negative real axis. For such
transforms the trapezoid rule on the hyperbolic contour

    s(theta) = mu (1 + sin(i theta - alpha)),    theta real,

converges geometrically in the number of nodes N, whatever x or the
noncentralities (Weideman & Trefethen 2007, Math. Comp. 76:1341;
Trefethen & Weideman 2014, SIAM Review 56:385). With their optimal
parameters alpha = 1.1721, step 1.0818 / N and mu = 4.4921 N / x, and
the conjugate symmetry of the integrand,

    P(Q > x) ~= (step / pi) Im sum'_{k=0..N} e^{s x} (1 - phi(s)) / s * s'(theta)

at theta = k * step, the k = 0 term halved; 1 - phi is taken as
-expm1(log phi) so that it keeps its relative accuracy where phi is
near 1. Since mu x is fixed, e^{s x} s' / s is one constant vector per N,
and rounding grows like e^{0.355 N} eps, so N stays near 20.
:func:`upper_tails` and the quantile solver share one contour evaluator
(``_tail_and_density``). It evaluates every row of a block at N = 16 and
N = 20 as one complex array, sums each row's nodes on their own, so that
a row's value does not depend on its batch, and takes the N = 20 value
where the two agree within 1e-10. A row whose two node counts disagree,
or whose rule overflows to a non-finite value, goes to the certified rule
below. The evaluator clips every tail to [0, 1] and returns a tail below
1e-12, about four times the rule's rounding level, as 0, whichever rule
gave it. The rule costs the same at any x, so the deep tail takes it too.

The certified rule inverts the characteristic function instead (Imhof's
method):

    P(Q > x) = 1/2 + (1/pi) * int_0^inf A(u) sin(theta(u)) du,

    theta(u) = 1/2 * sum_i [ atan(l_i u) + z_i l_i u / (1 + l_i^2 u^2) ]
               - x u / 2,
    A(u)     = 1 / (u * rho(u)),
    rho(u)   = prod_i (1 + l_i^2 u^2)^{1/4}
               * exp( 1/2 * sum_i z_i l_i^2 u^2 / (1 + l_i^2 u^2) ).

The integrand oscillates at asymptotic frequency x/2 and decays like
u^(-1 - K/2) for K components. As in Davies (1980, AS 155), the integral
is cut at a point U with an explicit truncation bound instead of being
chased to infinity by oscillatory quadrature. One integration by parts gives,
with g = A / theta',

    int_U^inf A sin(theta) du = g(U) cos(theta(U)) + R,
    |R| <= 2 |g'(U) / theta'(U)|,

which holds once theta' stays negative beyond U and g' / theta' decays
there without turning back. U starts at one oscillation cycle, 4 pi / x,
or at 1 / max(l_i) if that is larger, and doubles until the bound is
below 1e-10; the boundary term is added. The head (0, U] is integrated
by the 21-point Gauss-Kronrod rule on panels no longer than one cycle,
with all nodes of a round evaluated as numpy arrays in bounded blocks.
Panels whose |K21 - G10| exceeds their share of a 1e-10 budget are
bisected and evaluated again.

Quantiles, x with P(Q > x) = alpha, come from one solver for a whole
batch of mixtures: safeguarded Newton steps on log P(Q > x). The density
of Q has the Laplace transform phi(s) itself, so on the same nodes

    f(x) ~= Im sum_k c_k phi(s_k) s_k,    s_k = nodes_k / x,

and one log phi array gives both the tail and the density. Each row
starts at the moment-matched scaled chi-square a chisq_nu(alpha), with
a = var / (2 mean) and nu = 2 mean^2 / var (noncentralities included),
and keeps a bracket of the points whose tails lie above and below alpha.
It bisects the bracket (doubles x while it has no upper point) wherever
its Newton step is not finite, would leave the bracket, or is not half
the step two iterations back. That last rule, from Numerical Recipes'
rtsafe, ends the iteration where the tail's rounding, about 1e-14,
stops Newton steps from shrinking. A row whose N = 16 and N = 20 tails
disagree takes the certified tail and bisects. A row stops once its step
is within 1e-13 x, or as soon as its tail equals alpha exactly. Rows
share no arithmetic, so a row's quantile is the same bits in any batch.
Tails below 1e-12 read 0, so the solver refuses alpha <= 1e-12 unless
every row is central with equal weights. The step tolerance is not the
accuracy: against 40-digit Talbot inversion (mpmath) on 30 mixtures of 2
to 9 components, the tail at the returned x was within 3e-13 of alpha,
a relative error in x of at most 5e-12 at alpha = .05 and .01, 9e-9 at
1e-6 and 4e-5 at 1e-10.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._special import chdtrc, chdtri, chndtr
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
# agreeing contour tails below this are returned as 0: about four times
# the rule's rounding level e^(0.355 * 20) eps = 2.7e-13
_DEEP_TAIL = 1e-12
# relative spread below which mixture weights are treated as equal, making
# the mixture an exactly scaled chi-square
_EQUAL_WEIGHT_RTOL = 1e-9

# Hyperbolic contour of Weideman & Trefethen (2007) for N nodes:
# s(theta) = mu (1 + sin(i theta - alpha)), step 1.0818 / N, mu = 4.4921 N / x.
# A tail is accepted when the two node counts agree within _AGREE_TOL.
_ALPHA = 1.1721
_STEP = 1.0818
_MU = 4.4921
_NODE_COUNTS = (16, 20)
_AGREE_TOL = 1e-10

# A quantile iteration stops once its step is within _STEP_RTOL of x, so
# that weights differing in their last bits give powers within 1e-12; a
# row still moving after _MAX_ITERATIONS steps raises QuadratureFailure.
_STEP_RTOL = 1e-13
_MAX_ITERATIONS = 100

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


def _check_mixture(lam: np.ndarray, zet: np.ndarray) -> None:
    """ValueError unless every weight is finite and positive and every
    noncentrality finite and nonnegative."""
    if not (np.isfinite(lam).all() and np.isfinite(zet).all()):
        raise ValueError("mixture weights and noncentralities must be finite")
    if not (lam > 0.0).all():
        raise ValueError("mixture weights must be strictly positive")
    if not (zet >= 0.0).all():
        raise ValueError("noncentralities must be nonnegative")


@dataclass(frozen=True)
class WeightedChiSquareMixture:
    """Distribution of sum_i weights_i * chisq_1(noncentralities_i)."""

    weights: tuple
    noncentralities: tuple = None

    def __post_init__(self):
        w = tuple(float(v) for v in np.atleast_1d(self.weights))
        z = self.noncentralities
        z = (0.0,) * len(w) if z is None else tuple(float(v) for v in np.atleast_1d(z))
        if not w:
            raise ValueError("a mixture needs at least one weight")
        if len(w) != len(z):
            raise ValueError("weights and noncentralities must have equal length")
        _check_mixture(np.array(w), np.array(z))
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "noncentralities", z)

    @property
    def k(self) -> int:
        return len(self.weights)

    def mean(self) -> float:
        w, z = map(np.asarray, (self.weights, self.noncentralities))
        return float(np.sum(w * (1.0 + z)))

    def variance(self) -> float:
        w, z = map(np.asarray, (self.weights, self.noncentralities))
        return float(np.sum(w ** 2 * (2.0 + 4.0 * z)))


def chisq_upper(x: float, k: int) -> float:
    """Upper tail of the central chi-square with k degrees of freedom."""
    if k < 1:
        raise ValueError("degrees of freedom must be >= 1")
    if x <= 0.0:
        return 1.0
    return float(chdtrc(k, x))


def chisq_quantile(alpha: float, k: int) -> float:
    """x with chisq_upper(x, k) = alpha; ValueError unless 0 < alpha < 1."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    return float(chdtri(k, alpha))


def chisq_noncentral_upper(x: float, k: int, zeta: float) -> float:
    """Upper tail of the noncentral chi-square; zeta = 0 falls back to central."""
    if zeta < 0.0:
        raise ValueError("noncentrality must be nonnegative")
    if x <= 0.0:
        return 1.0
    if zeta == 0.0:
        return chisq_upper(x, k)
    return float(1.0 - chndtr(x, k, zeta))


def _contour(n):
    """Nodes s_k x and coefficients c_k of the N = n hyperbolic rule, so
    that P(Q > x) ~= Im sum_k c_k (1 - phi(s_k))."""
    step = _STEP / n
    arg = 1j * step * np.arange(n + 1) - _ALPHA
    sigma = 1.0 + np.sin(arg)
    weights = np.full(n + 1, step / np.pi)
    weights[0] *= 0.5
    nodes = _MU * n * sigma
    return nodes, weights * np.exp(nodes) * 1j * np.cos(arg) / sigma


def _contour_rules():
    """Nodes and coefficients of every rule in _NODE_COUNTS, concatenated,
    and the slice of each rule in them."""
    parts = [_contour(n) for n in _NODE_COUNTS]
    ends = np.cumsum([z.size for z, _ in parts])
    return (np.concatenate([z for z, _ in parts]),
            np.concatenate([c for _, c in parts]),
            [slice(end - z.size, end) for end, (z, _) in zip(ends, parts)])


_NODES, _COEF, _RULES = _contour_rules()


def _log_phi(lam, zet, x):
    """log phi(s) at the nodes s = _NODES / x_r of every rule, for each row
    r; shape (rows, nodes)."""
    t = (2.0 / x)[:, None, None] * lam[:, None, :] * _NODES[:, None]
    log_phi = -0.5 * np.log1p(t).sum(axis=2)
    if zet.any():
        log_phi -= (t / (1.0 + t) * (0.5 * zet)[:, None, :]).sum(axis=2)
    return log_phi


def _rule_sums(values):
    """Im sum_k c_k values_k over the nodes of every rule in _NODE_COUNTS,
    shape (rows, rules). Each row is summed on its own, in one fixed
    order, so its value does not depend on the batch it came in."""
    terms = values.real * _COEF.imag + values.imag * _COEF.real
    return np.column_stack([terms[:, rule].sum(axis=1) for rule in _RULES])


def _integrand(u, lam, zet, x):
    """A(u) sin(theta(u)) at every entry of the 1-D array u > 0."""
    s = u[:, None] * lam
    s2 = s * s
    theta = 0.5 * np.arctan(s).sum(axis=1) - 0.5 * x * u
    log_rho = 0.25 * np.log1p(s2).sum(axis=1)
    if zet.any():
        r = 1.0 / (1.0 + s2)
        theta += 0.5 * ((s * r) @ zet)
        log_rho += 0.5 * ((s2 * r) @ zet)
    return np.sin(theta) * np.exp(-log_rho) / u


def _tail_beyond(upper, lam, zet, x):
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
    d_sup = 0.5 * (lam @ (r * (1.0 + zet * np.maximum(1.0 - s2, 0.0) * r))) \
        - 0.5 * x
    if not d_sup < 0.0:
        return 0.0, np.inf
    theta = 0.5 * (np.arctan(s).sum() + zet @ (s * r)) - 0.5 * x * upper
    amp = np.exp(-(0.25 * np.log1p(s2).sum() + 0.5 * (zet @ (s2 * r)))) / upper
    d1 = 0.5 * (lam @ (r * (1.0 + zet * (1.0 - s2) * r))) - 0.5 * x
    d2 = (lam * lam * s * r * r) @ (zet * (s2 - 3.0) * r - 1.0)
    d_log_amp = -1.0 / upper - (lam * s * r) @ (0.5 + zet * r)
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


def _certified_upper(lam, zet, x):
    """P(Q > x) for one mixture by Imhof's inversion with a certified
    truncation point and Gauss-Kronrod panels (see the module docstring).

    Raises QuadratureFailure when the quadrature cannot certify its budget.
    """
    lmax = float(lam.max())
    cycle = 4.0 * np.pi / x

    upper = max(cycle, 1.0 / lmax)
    tail, bound = _tail_beyond(upper, lam, zet, x)
    while bound > _TAIL_TOL:
        upper *= 2.0
        if upper > _MAX_PANELS * cycle or upper * lmax > 1e100:
            raise QuadratureFailure("could not certify the truncated tail")
        tail, bound = _tail_beyond(upper, lam, zet, x)

    block = max(1, _BLOCK // (_GK_NODES.size * lam.size))
    head = _integrate_head(lambda u: _integrand(u, lam, zet, x),
                           upper, cycle, lmax, block)
    p = 0.5 + (head + tail) / np.pi
    return float(min(1.0, max(0.0, p)))


def _equal_weights(lam):
    """Rows of a (..., K) weight array whose spread max - min is within
    _EQUAL_WEIGHT_RTOL of their largest weight."""
    top = lam.max(axis=-1)
    return top - lam.min(axis=-1) <= _EQUAL_WEIGHT_RTOL * top


def upper_tails(weights, x, noncentralities=None) -> np.ndarray:
    """P(Q_r > x_r) for every row r of a batch of mixtures with K
    one-degree-of-freedom components.

    weights and noncentralities have shape (rows, K); x has shape
    (rows,). Missing noncentralities are 0. Rows with x <= 0 get 1 and
    rows with x = nan get nan. A row of equal weights (spread within
    1e-9 of the largest) is the scaled chi-square w chisq_K(sum z), in
    closed form. Every other tail is the contour evaluator's (see the
    module docstring), with absolute error about 1e-10 and 0 below 1e-12.
    Raises ValueError when a weight is not finite and positive or a
    noncentrality not finite and nonnegative, and QuadratureFailure when a
    row reaches the certified rule and it cannot certify its budget.
    """
    lam = np.atleast_2d(np.asarray(weights, dtype=float))
    rows, k = lam.shape
    x = np.asarray(x, dtype=float).reshape(rows)
    zet = np.zeros((rows, k)) if noncentralities is None else \
        np.atleast_2d(np.asarray(noncentralities, dtype=float))
    _check_mixture(lam, zet)

    out = np.where(x <= 0.0, 1.0, np.nan)
    equal = _equal_weights(lam)
    q = x[equal] / lam[equal].mean(axis=1)
    z = zet[equal].sum(axis=1)
    p = np.where(z == 0.0, chdtrc(k, q), 1.0 - chndtr(q, k, z))
    out[equal] = np.where(q <= 0.0, 1.0, p)
    r = np.flatnonzero(~equal & (x > 0.0))
    out[r] = _tail_and_density(lam[r], zet[r], x[r], density=False)[0]
    return out


def imhof_upper(mix: WeightedChiSquareMixture, x: float) -> float:
    """P(Q > x) for one mixture: the one-row case of :func:`upper_tails`.

    Raises QuadratureFailure when the certified fallback cannot meet its
    budget.
    """
    return float(upper_tails([mix.weights], [x], [mix.noncentralities])[0])


def _tail_and_density(lam, zet, x, density=True):
    """The contour evaluator: P(Q > x) and, unless density is False (then
    None), the density of Q at x for each row, x > 0, in bounded blocks of
    rows. Both come from one log phi array by the N = 20 rule where N = 16
    agrees on the tail within 1e-10; otherwise, a non-finite rule value
    included, the tail is the certified rule's and the density nan. Tails
    below 1e-12 read 0, above 1 read 1."""
    rules = np.empty((x.size, len(_RULES)))
    density = np.empty(x.size) if density else None
    block = max(1, _BLOCK // (_NODES.size * lam.shape[1]))
    for start in range(0, x.size, block):
        sl = slice(start, start + block)
        # a rule value that overflows is not finite, and its row is certified
        with np.errstate(over="ignore", invalid="ignore"):
            log_phi = _log_phi(lam[sl], zet[sl], x[sl])
            rules[sl] = _rule_sums(-np.expm1(log_phi))
            if density is not None:
                density[sl] = _rule_sums(np.exp(log_phi) * _NODES)[:, -1] / x[sl]
    tail = rules[:, -1]
    for i in np.flatnonzero(~(np.abs(rules[:, 0] - tail) <= _AGREE_TOL)):
        tail[i] = _certified_upper(lam[i], zet[i], x[i])
        if density is not None:
            density[i] = np.nan
    return np.where(tail < _DEEP_TAIL, 0.0, np.minimum(tail, 1.0)), density


def _newton_quantiles(lam, zet, alpha):
    """x_r with P(Q_r > x_r) = alpha for every row r of a batch of
    mixtures, lam and zet of shape (rows, K) (see the module docstring).
    Central rows of equal weights take mean(lam_r) chdtri(K, alpha).
    Raises ValueError unless 0 < alpha < 1, or unless alpha > 1e-12 where
    some row needs the Newton solve, and QuadratureFailure when a row
    still moves after _MAX_ITERATIONS steps or its certified tail fails."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    rows, k = lam.shape
    out = np.empty(rows)
    closed = _equal_weights(lam) & ~zet.any(axis=1)
    out[closed] = lam[closed].mean(axis=1) * chdtri(k, alpha)
    if not closed.all() and alpha <= _DEEP_TAIL:
        raise ValueError(f"alpha must be above {_DEEP_TAIL:g} for a chi-square "
                         f"mixture quantile, the floor of its tail rule; got {alpha}")
    out[~closed] = _newton_iteration(lam[~closed], zet[~closed], alpha)
    return out


def _newton_iteration(lam, zet, alpha):
    """The Newton iteration of :func:`_newton_quantiles` for its rows."""
    mean = np.sum(lam * (1.0 + zet), axis=1)
    var = np.sum(lam * lam * (2.0 + 4.0 * zet), axis=1)
    x = var / (2.0 * mean) * chdtri(2.0 * mean * mean / var, alpha)
    out = np.empty(x.size)
    live = np.arange(x.size)
    lo, hi = np.zeros(x.size), np.full(x.size, np.inf)
    # |step| of the last two iterations
    older, last = np.full(x.size, np.inf), np.full(x.size, np.inf)
    for _ in range(_MAX_ITERATIONS):
        tail, density = _tail_and_density(lam[live], zet[live], x)
        lo = np.where(tail > alpha, x, lo)
        hi = np.where(tail < alpha, x, hi)
        hit = tail == alpha
        # a non-finite tail or density gives a non-finite step: bisect
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            newton = x + np.log(tail / alpha) * tail / density
        inside = (newton > lo) & (newton < hi) & (np.abs(newton - x) <= 0.5 * older)
        new = np.where(inside, newton,
                       np.where(np.isfinite(hi), 0.5 * (lo + hi), 2.0 * x))
        step = np.abs(new - x)
        done = hit | (step <= _STEP_RTOL * new)
        out[live[done]] = np.where(hit, x, new)[done]
        keep = ~done
        live, x, lo, hi = live[keep], new[keep], lo[keep], hi[keep]
        older, last = last[keep], step[keep]
        if live.size == 0:
            return out
    raise QuadratureFailure("mixture quantile did not converge in "
                            f"{_MAX_ITERATIONS} steps")


def mixture_quantile(mix: WeightedChiSquareMixture, alpha: float) -> float:
    """Critical value x with imhof_upper(mix, x) = alpha: the one-row case
    of the batched quantile solver (see the module docstring). Equal
    central weights give w chdtri(K, alpha) exactly; otherwise the tail at
    x is within about 3e-13 of alpha. Raises ValueError unless 0 < alpha
    < 1, or unless alpha > 1e-12 for unequal or noncentral weights, and
    QuadratureFailure when the solver does not converge."""
    return float(_newton_quantiles(np.array([mix.weights]),
                                   np.array([mix.noncentralities]), alpha)[0])
