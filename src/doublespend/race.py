"""Double-spend race probabilities.

Exact success probability of an attacker rewriting z confirmations, the
classic Nakamoto approximation, the probability conditioned on the
observed confirmation time (through the dimensionless deviation factor
kappa), and the confirmation-count solver.

Conventions used throughout:

* q is the attacker share of hash power, p = 1 - q, with 0 < q <= 0.5.
  q = 0.5 makes every success probability exactly 1; q > 0.5 is
  rejected because the race model presumes q < p.
* z = 0 means "nothing to catch up": all success probabilities are 1.
* kappa = p * tau1 / (z * tau0) measures the observed time to z
  confirmations against its expectation; kappa = 1 is "on schedule".
"""

import functools
import math
import operator
import sys
from dataclasses import dataclass

import numpy as np
from scipy.special import cython_special

from . import specfun

__all__ = [
    "HashSplit",
    "NetworkParams",
    "MAX_CONFIRMATIONS",
    "catchup_probability",
    "negbin_pmf",
    "attacker_success_closed",
    "nakamoto_probability",
    "conditional_probability",
    "kappa_density",
    "recover_p_by_quadrature",
    "deviation_tail",
    "kappa_from_times",
    "confirmations_required",
]

# Guard for the confirmation solver; q too close to 0.5 for the risk asked.
MAX_CONFIRMATIONS = 10_000_000

# Bitcoin's mean block interval in minutes, the default tau0
_DEFAULT_TAU0 = 10.0

# recover_p_by_quadrature cuts the integrand where its log falls _QUAD_DEPTH
# below the peak, and sums _QUAD_NODES Gauss-Legendre nodes over the cut.
# 48 nodes already hold 1e-12; 32 do not.  The cut's ends stop their Newton
# iterations once the bound is within _QUAD_EDGE_TOL below the cut level.
_QUAD_DEPTH = 40.0
_QUAD_NODES = 64
_QUAD_EDGE_TOL = 0.01
_LN2 = math.log(2.0)
_DBL_MAX = sys.float_info.max


def _check_share(q):
    if not 0.0 < q <= 0.5:
        raise ValueError(f"attacker share q must satisfy 0 < q <= 0.5, got q={q}")


def _check_count(name, n, least):
    """n as an int, so no numpy integer reaches the arithmetic; reject a count
    that is not an integer (bools included) or is below ``least``."""
    if type(n) is not int:
        if isinstance(n, bool) or not hasattr(n, "__index__"):
            raise ValueError(f"{name} must be an integer, got {n!r}")
        n = operator.index(n)
    if n < least:
        raise ValueError(f"{name} must be >= {least}, got {n}")
    return n


def _check_positive(name, x):
    """Reject a value that is not a positive finite number (nan included)."""
    if not 0.0 < x < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {x}")


@dataclass(frozen=True)
class HashSplit:
    """Attacker/honest hash-power split with its derived quantities.

    q: attacker fraction, the only value stored; p = 1 - q, lam = q/p, s = 4pq
    and d = 1 - 2q (exact for q >= 1/4) are computed from it on access.
    What vanishes at q = 1/2 is taken from d, as 1 - s = d^2 and 1 - lam = d/p.
    """

    q: float

    def __post_init__(self):
        _check_share(self.q)

    @property
    def p(self) -> float:
        return 1.0 - self.q

    @property
    def lam(self) -> float:
        return self.q / (1.0 - self.q)

    @property
    def s(self) -> float:
        return 4.0 * (1.0 - self.q) * self.q

    @property
    def d(self) -> float:
        return 1.0 - 2.0 * self.q

    @classmethod
    def from_attacker_share(cls, q: float) -> "HashSplit":
        """HashSplit(q).  Kept because perfbench/worker.py calls and wraps it."""
        return cls(q)


def _one_minus_lam(split):
    return split.d / split.p


def _c_lam(split):
    """c(lam) = lam - 1 - ln lam, the decay rate of P_SN, without cancellation."""
    return specfun._c(-_one_minus_lam(split), math.log(split.lam))


@dataclass(frozen=True)
class NetworkParams:
    """Network timing: the mean block interval tau0, the only value stored.

    P(z) and P(z, kappa) depend on q alone; tau0 enters only through
    kappa = p tau1 / (z tau0), so the block rates p/tau0 and q/tau0 are
    formed where they are used, from tau0 and the HashSplit's q.
    """

    tau0: float

    def __post_init__(self):
        _check_positive("tau0", self.tau0)

    @classmethod
    def for_split(cls, split: HashSplit, tau0: float = _DEFAULT_TAU0) -> "NetworkParams":
        """NetworkParams(tau0); split is ignored.  Kept, with this signature,
        because perfbench/worker.py calls it."""
        return cls(tau0)


def _logaddexp(a, b):
    if isinstance(a, np.ndarray):
        return np.logaddexp(a, b)
    m = max(a, b)
    if m == -math.inf:
        return -math.inf
    return m + math.log1p(math.exp(-abs(a - b)))


def _log_lam(q):
    """ln(q/p), elementwise if q is a numpy array.  With d = 1 - 2q it is
    log1p(-d) - log1p(d) where d < 1/2, so near q = 1/2 it does not come from
    the rounded q/p; elsewhere log(q/p), since log1p(-d) fails where d rounds to 1."""
    d = 1.0 - 2.0 * q
    if isinstance(q, np.ndarray):
        # capped, so that no cell takes log1p(-1), not even one np.where drops
        capped = np.minimum(d, 0.5)
        return np.where(d < 0.5, np.log1p(-capped) - np.log1p(capped), np.log(q / (1.0 - q)))
    if d < 0.5:
        return math.log1p(-d) - math.log1p(d)
    return math.log(q / (1.0 - q))


def catchup_probability(split: HashSplit, n: int) -> float:
    """Probability (q/p)^n that an attacker n blocks behind ever leads."""
    n = _check_count("n", n, 0)
    if n == 0 or split.q == 0.5:
        return 1.0
    return math.exp(n * _log_lam(split.q))


def negbin_pmf(split: HashSplit, n: int, k: int) -> float:
    """P[attacker mined k blocks while honest miners mined their n-th],
    the negative binomial pmf p^n q^k C(k+n-1, k)."""
    n = _check_count("n", n, 1)
    k = _check_count("k", k, 0)
    return math.exp(
        n * math.log(split.p)
        + k * math.log(split.q)
        + specfun.log_binomial(k + n - 1, k)
    )


def attacker_success_closed(split: HashSplit, z: int) -> float:
    """Exact success probability in closed form, I_s(z, 1/2) with s=4pq."""
    z = _check_count("z", z, 0)
    if z == 0:
        return 1.0
    return specfun.reg_inc_beta(split.s, z, 0.5)


def _log_success_closed(split, z):
    """ln P(z), elementwise if z is an integer numpy array."""
    return specfun.log_reg_inc_beta(split.s, z, 0.5)


def nakamoto_probability(split: HashSplit, z: int) -> float:
    """Nakamoto's approximation: the attacker block count over the whole
    race is taken Poisson with mean z q/p instead of negative binomial.
    This is the conditional probability on schedule, P(z, kappa=1)."""
    z = _check_count("z", z, 0)
    if z == 0:
        return 1.0
    return conditional_probability(split, z, 1.0)


def _log_conditional(q, z, kappa):
    """ln[P(z, kappa z lam) + lam^z e^{kappa z (1-lam)} Q(z, kappa z)] at
    lam = q/p, the tail summed in log space because e^{kappa z (1-lam)}
    overflows where Q(z, kappa z) underflows.  With d = 1 - 2q, 1 - lam is
    d/p, and ln lam is _log_lam's, so near q = 1/2 neither comes from the
    rounded lam.

    Elementwise over the broadcast of q, z and kappa if any is a numpy
    array (z then of integer dtype).  The gamma kernels take their array
    path from any array argument, so z goes to them as it is: an int
    against an array of kappa z, or an array of ranks.  ln Q(z, kappa z)
    does not depend on q, so it is evaluated over the broadcast of z and
    kappa alone: a grid of q against kappa computes each Q once.
    """
    p, d = 1.0 - q, 1.0 - 2.0 * q
    lam = q / p
    log_lam = _log_lam(q)
    x = kappa * z
    growth = x * (d / p)
    # x (1 - lam) is inf only where kappa z overflows; Q(z, x) = 0 there, and
    # taking it as finite makes the tail -inf rather than inf - inf
    if isinstance(growth, np.ndarray):
        np.minimum(growth, _DBL_MAX, out=growth)
    elif growth == math.inf:
        growth = 0.0
    head = specfun.log_reg_lower_gamma_p(z, x * lam)
    tail = z * log_lam + growth + specfun.log_reg_upper_gamma_q(z, x)
    return _logaddexp(head, tail)


def _log_nakamoto(split, z):
    return _log_conditional(split.q, z, 1.0)


def conditional_probability(split: HashSplit, z: int, kappa: float) -> float:
    """Success probability given that the z confirmations took
    kappa times their expected duration:

        P(z, kappa) = 1 - Q(z, kappa z q/p)
                      + (q/p)^z e^{kappa z (p-q)/p} Q(z, kappa z)
    """
    z = _check_count("z", z, 1)
    _check_positive("kappa", kappa)
    if split.q == 0.5:
        return 1.0
    return specfun._clamp01(math.exp(_log_conditional(split.q, z, kappa)))


def _conditional_over_kappa(q, z, kappa):
    """conditional_probability over the broadcast of q, z and kappa (numbers
    or arrays), in one call of each kernel; a cell at q = 1/2 is exactly 1.

    The satoshi tables pass a column of kappa against a row of q, so each
    Q(z, kappa z) is computed once per kappa; curve passes a column of z
    against a row of kappa.
    """
    q = np.asarray(q, dtype=float)
    z = np.asarray(z)
    kappa = np.asarray(kappa, dtype=float)
    if not ((0.0 < q) & (q <= 0.5)).all():
        raise ValueError(f"attacker share q must satisfy 0 < q <= 0.5, got q={q.tolist()}")
    if z.dtype.kind not in "iu" or not (z >= 1).all():
        raise ValueError(f"z must be integers >= 1, got {z.ravel().tolist()}")
    # kappa z may overflow to inf, where Q(z, inf) = 0; at q = 1/2 that makes
    # the growth inf * 0, in a cell that is set to 1
    with np.errstate(over="ignore", invalid="ignore"):
        log_p = _log_conditional(q, z, kappa)
    return np.where(q == 0.5, 1.0, np.clip(np.exp(log_p), 0.0, 1.0))


def _log_kappa_density(z, kappa):
    """ln f_z(kappa), elementwise if kappa is a numpy array, else a float.

    Written as -z (kappa - 1 - ln kappa) - ln kappa + ln(z^z e^{-z} / Gamma(z)),
    where no two terms of size z ln z cancel; the last term is
    specfun._log_gamma_norm.
    """
    log_kappa = np.log(kappa) if isinstance(kappa, np.ndarray) else math.log(kappa)
    # plain c: specfun._c loops per element, and _log_conditional's error hides its gain
    return specfun._log_gamma_norm(z) - z * (kappa - 1.0 - log_kappa) - log_kappa


def kappa_density(z: int, kappa: float) -> float:
    """Density of the observed deviation factor: Gamma(z, z) at kappa."""
    z = _check_count("z", z, 1)
    _check_positive("kappa", kappa)
    return math.exp(_log_kappa_density(z, kappa))


def deviation_tail(z: int, kappa: float) -> float:
    """P[observed deviation factor > kappa] = Q(z, kappa z).

    Depends only on z and kappa, not on the hash split.
    """
    z = _check_count("z", z, 1)
    _check_positive("kappa", kappa)
    return specfun.reg_upper_gamma_q(z, kappa * z)


@functools.cache
def _gauss_legendre():
    from numpy.polynomial.legendre import leggauss

    return leggauss(_QUAD_NODES)


def _log_quadrature_integrand(split, z, kappa):
    """ln[P(z, kappa) f_z(kappa)] over an array of kappa, in one kernel call."""
    return _log_conditional(split.q, z, kappa) + _log_kappa_density(z, kappa)


def _log_bound(z, lam, log_lam, kappa):
    """(h, dh/dkappa) for the bound h = min(U, 0) + ln f_z of the
    quadrature's integrand (see recover_p_by_quadrature), less the constant
    ln(z^z e^{-z} / Gamma(z)) of ln f_z."""
    log_kappa = math.log(kappa)
    # plain c, not specfun._c: h only places the window, and runs 3-9 times a quadrature
    h = -z * (kappa - 1.0 - log_kappa) - log_kappa
    slope = (z - 1.0) / kappa - z
    if kappa < 1.0:
        upper = _LN2 + z * (log_lam + kappa * (1.0 - lam))
        rise = z * (1.0 - lam)
    elif kappa * lam < 1.0:
        upper = _LN2 - z * (kappa * lam - 1.0 - log_kappa - log_lam)
        rise = z * (1.0 / kappa - lam)
    else:  # c(kappa lam) = 0 from kappa lam = 1 on
        return h, slope
    if upper >= 0.0:  # capped
        return h, slope
    return h + upper, slope + rise


def _bound_peak(z, lam, log_lam):
    """The kappa > 0 where the bound h of _log_bound peaks, or a point just
    above kappa = 0 at z = 1, where h falls from kappa = 0 on.

    U rises in kappa up to 1/lam, where it is ln 2, so the cap holds from
    one kappa_c on: explicitly U = 0 there if kappa_c <= 1, and otherwise
    c(kappa_c lam) = ln 2 / z.  On each piece h = A + B kappa + C ln kappa
    with B < 0: below min(1, kappa_c), B = -z lam and C = z - 1; from 1 to
    kappa_c, B = -z (1 + lam) and C = 2z - 1; from kappa_c on, B = -z and
    C = z - 1.  h is concave, so it peaks in the first piece whose
    C / (-B) lies below the piece's right end, at C / (-B) or at the
    piece's left end, whichever is larger.

    For z >= 2 that is never the first piece (lam = e^-t).  At kappa_c <= 1 it
    would need (z - 1)(e^t - 1) < z t - ln 2, so t > ln 2, but the left side is
    the larger at t = ln 2 and rises faster.  kappa_c > 1 means z c(lam) > ln 2,
    yet (z - 1)/(z lam) < 1 means lam > 1 - 1/z, where z c(lam) <= 1/(2(z - 1)) <= 1/2.
    """
    if z == 1:
        return 1e-9  # g is within 1e-9 of its supremum, ln lam, there
    at_zero = _LN2 + z * log_lam  # U at kappa = 0
    cap = 0.0 if at_zero >= 0.0 else -at_zero / (z * (1.0 - lam))
    if cap > 1.0:
        # c(x) - ln 2 / z is convex and decreasing on (0, 1), so Newton from
        # the left of its root rises to it; c(1 - e) >= e^2 / 2 puts
        # 1 - sqrt(2 ln 2 / z) at or left of the root, as is lam
        target = _LN2 / z
        x = max(lam, 1.0 - math.sqrt(2.0 * target))
        while True:  # plain c, not specfun._c: x only places the peak
            step = (x - 1.0 - math.log(x) - target) * x / (1.0 - x)
            x += step
            if step <= 1e-12:
                break
        cap = x / lam
    above_one = (2.0 * z - 1.0) / (z * (1.0 + lam))
    if 1.0 < cap and above_one < cap:
        return max(above_one, 1.0)
    return max((z - 1.0) / z, cap)


def _bound_edge(z, lam, log_lam, level, kappa, right):
    """A kappa where the bound h of _log_bound lies between level - _QUAD_EDGE_TOL
    and level, outside the window where h >= level: on its right if
    ``right``, else on its left.  Newton's method, in kappa on the right and
    in ln kappa on the left, where h is linear in them far out.

    h is concave in both, so each tangent lies above h and crosses the level
    outside the window: from any start on the window's side of the peak,
    the iterates after the first move monotonically inward, and each is a
    safe end for the window.
    """
    while True:
        h, slope = _log_bound(z, lam, log_lam, kappa)
        gap = h - level
        if -_QUAD_EDGE_TOL < gap <= 0.0:
            return kappa
        if right:
            kappa -= gap / slope
        else:
            kappa *= math.exp(-gap / (kappa * slope))


def recover_p_by_quadrature(split: HashSplit, z: int) -> float:
    """Rebuild the unconditional probability by integrating the
    conditional one against the kappa density.  Independent cross-check
    of the closed form.

    The integrand is handled in log space, g = ln[P(z, kappa) f_z(kappa)].
    With lam = q/p, Chernoff's bounds on both Poisson parts of P(z, kappa)
    give ln P(z, kappa) <= U(kappa), capped at 0, where

        U = ln 2 + z ln lam + kappa z (1 - lam)      for kappa <= 1,
        U = ln 2 - z c(kappa lam)                    for 1 <= kappa < 1/lam,

    and 0 beyond 1/lam.  h = min(U, 0) + ln f_z is concave, so each
    superlevel set of h is one interval, and h >= g.  g is evaluated once,
    at the peak of h, found in closed form (_bound_peak); the window where
    h lies within 40 of that value contains the window where g lies within
    40 of its own peak.  That one value comes from the scalar kernels.  The
    window's ends are the crossings of that level by h, found by Newton's
    method from outside (_bound_edge); at z = 1, h falls from kappa = 0 on
    and the window starts at 0.  A 64-node Gauss-Legendre rule sums
    w exp(g - g_max) over the window, in the one array kernel call.  The
    result is exp(g_max) times that sum, so it keeps its relative accuracy
    below 1e-300 until it underflows.

    Measured against 40-digit mpmath P(z) = I_{4pq}(z, 1/2) at nine values
    of q in [0.001, 0.499] and nine z from 1 to 2 10^4, wherever P(z) is
    above 1e-300: within 5.2e-13 relative, the worst at q = 0.3, z = 2000,
    where ln P(z) is about -352 and one ulp of it is 5.7e-14 of P(z); at
    z = 10^5 within 3.6e-13 for q >= 0.47, and at z = 10^6 within 3.2e-13
    for q >= 0.4995.  Beyond that the error comes from ln P(z, kappa).  At
    z = 10^6 that is off by up to 1.7e-7 (q = 0.498, kappa = 1.002), and
    the result for q in [0.495, 0.499] by 2e-10 to 1e-6.
    """
    z = _check_count("z", z, 1)
    if split.q == 0.5:
        return 1.0
    lam, log_lam = split.lam, _log_lam(split.q)
    peak = _bound_peak(z, lam, log_lam)
    # g <= h, so h is above this level wherever g is within the depth of its
    # peak; at one point the scalar kernels cost an order of magnitude less
    # than an array call.  Like h, the level leaves out ln f_z's constant
    level = (
        _log_conditional(split.q, z, peak)
        + _log_kappa_density(z, peak)
        - specfun._log_gamma_norm(z)
        - _QUAD_DEPTH
    )
    # start each Newton iteration where a parabola of curvature z in ln kappa
    # through the peak reaches the level
    width = math.sqrt(2.0 * (_log_bound(z, lam, log_lam, peak)[0] - level) / z)
    lo = 0.0 if z == 1 else _bound_edge(z, lam, log_lam, level, peak * math.exp(-width), False)
    hi = _bound_edge(z, lam, log_lam, level, peak * (1.0 + width), True)
    nodes, weights = _gauss_legendre()
    half = 0.5 * (hi - lo)
    g = _log_quadrature_integrand(split, z, lo + half * (nodes + 1.0))
    peak = g.max()
    return specfun._clamp01(math.exp(peak + math.log(half * np.dot(weights, np.exp(g - peak)))))


def kappa_from_times(net: NetworkParams, split: HashSplit, z: int, tau1: float) -> float:
    """Deviation factor from the observed time: kappa = p tau1 / (z tau0)."""
    z = _check_count("z", z, 1)
    _check_positive("tau1", tau1)
    return split.p * tau1 / (z * net.tau0)


def _asymptotic_start(split, risk):
    """The rank at which the paper's asymptotics, to next order, put the
    crossing of ``risk`` by Nakamoto's probability; in [1, MAX_CONFIRMATIONS].

    With lam = q/p and c = lam - 1 - ln lam > 0, the two parts of
    P_SN(z) = P[Poisson(z lam) >= z] + e^{-c z} P[Poisson(z) < z] give
    P_SN(z) ~ a(z) e^{-c z} with
    a(z) = erfcx((1-lam) sqrt(z/2)) / 2 + 1/2 - 1 / (3 sqrt(2 pi z)),
    which tends to the paper's 1/2.  The rank solves
    z = ln(a(z) / risk) / c, by three fixed-point steps from z = 1.
    """
    gap, c = _one_minus_lam(split), _c_lam(split)

    def a(z):
        above = 0.5 * cython_special.erfcx(gap * math.sqrt(0.5 * z))
        return above + 0.5 - 1.0 / (3.0 * math.sqrt(2.0 * math.pi * z))

    z = 1.0
    for _ in range(3):
        z = min(max(1.0, math.log(a(z) / risk) / c), MAX_CONFIRMATIONS - 1)
    return int(z) + 1


def _last_at_least(fn, split, floor, start, lo, hi):
    """The largest r in [lo, hi] with fn(split, r) >= floor, for an fn that
    decreases in r and meets the floor at lo, unevaluated.  From start, in
    (lo, hi + 1], it gallops in steps 1, 2, 4, ... to a bracket and bisects it."""
    if start <= hi and fn(split, start) >= floor:
        bottom, top, step = start, min(start + 1, hi), 1
        while bottom < hi and fn(split, top) >= floor:
            bottom, step = top, 2 * step
            top = min(bottom + step, hi)
    else:  # fn(hi + 1) is taken as below the floor, unevaluated
        bottom, top, step = max(start - 1, lo), start, 1
        while bottom > lo and fn(split, bottom) < floor:
            top, step = bottom, 2 * step
            bottom = max(top - step, lo)
    while top - bottom > 1:
        mid = (bottom + top) // 2
        if fn(split, mid) < floor:
            top = mid
        else:
            bottom = mid
    return bottom


def confirmations_required(
    split: HashSplit, risk: float, use_nakamoto: bool = False
) -> int:
    """Smallest z >= 1 with success probability strictly below ``risk``.

    Uses the closed form by default, Nakamoto's approximation when
    ``use_nakamoto`` is set.  The closed form's search starts one above
    the a with I_s(a, 1/2) = risk, from scipy's inverse btdtria; Nakamoto's
    where the paper's asymptotics cross ``risk`` (see _asymptotic_start).
    From there it gallops in steps of 1, 2, 4, ... until it brackets the
    crossing, and bisects the bracket (_last_at_least).  Both
    probabilities strictly decrease in z, so the answer is their strict
    crossing wherever the search starts.

    Proof: with f(x) = min(1, lam^x), the catch-up chance from a deficit
    x, P_SN(z) = E f(z - N) with N ~ Poisson(z lam), and P(z) = E f(z - N)
    with N negative binomial.  Going from z to z + 1 adds to N an
    independent M, Poisson(lam) for P_SN and geometric, P[M = m] = p q^m,
    for P; so the probability at z + 1 is E g(z - N) with
    g(x) = E f(x + 1 - M).  For P_SN, E lam^-M = e^(1 - lam), so at x >= 1
    g(x) <= lam^x lam e^(1 - lam) = f(x) e^(-c(lam)) < f(x), since
    c(lam) = lam - 1 - ln lam > 0.  For P, E lam^-M = 1/lam, so
    E lam^(x + 1 - M) = lam^x, and the clip at 1 makes g(x) < f(x) at
    x >= 0, since M >= x + 2 has positive probability.  At x <= 0,
    g(x) <= 1 = f(x).  N <= z - 1 has positive probability, so the
    probability at z + 1 is strictly below the one at z.
    """
    if not 0.0 < risk < 1.0:
        raise ValueError(f"risk must lie strictly between 0 and 1, got {risk}")
    if split.q >= 0.5:
        raise ValueError(
            f"confirmations_required needs q < 0.5 (got q={split.q}): "
            "at q = 0.5 the attack always succeeds"
        )
    if use_nakamoto:
        prob, z, a = nakamoto_probability, _asymptotic_start(split, risk), math.nan
    else:
        prob = attacker_success_closed
        a = cython_special.btdtria(risk, 0.5, split.s)
        # a is nan where s rounds to 1, which fails the comparison
        z = int(a) + 1 if a < MAX_CONFIRMATIONS else MAX_CONFIRMATIONS
    # prob(0) = 1 >= risk
    last = _last_at_least(prob, split, risk, z, 0, MAX_CONFIRMATIONS)
    if last == MAX_CONFIRMATIONS:
        near = f"; btdtria puts the crossing near z = {a:.3g}" if a < math.inf else ""
        raise OverflowError(
            f"no z <= {MAX_CONFIRMATIONS} reaches risk {risk} at q={split.q}{near}"
        )
    return last + 1
