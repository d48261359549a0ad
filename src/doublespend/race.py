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
# below the peak, locates the cut from an upper bound evaluated on a grid of
# _QUAD_GRID points, and sums _QUAD_NODES Gauss-Legendre nodes over it.
# 48 nodes already hold 1e-12; 32 do not.  A grid of 256 points lost four
# digits at q >= 0.4999, z = 10^6, where the cut spans two of its cells.
_QUAD_DEPTH = 40.0
_QUAD_GRID = 1024
_QUAD_NODES = 64


def _check_share(q):
    if not 0.0 < q <= 0.5:
        raise ValueError(f"attacker share q must satisfy 0 < q <= 0.5, got q={q}")


def _check_count(name, n, least):
    """Reject a count that is not an integer (bools included) or is below ``least``."""
    if isinstance(n, bool) or not hasattr(n, "__index__"):
        raise ValueError(f"{name} must be an integer, got {n!r}")
    if n < least:
        raise ValueError(f"{name} must be >= {least}, got {n}")


def _check_positive(name, x):
    """Reject a value that is not a positive finite number (nan included)."""
    if not 0.0 < x < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {x}")


@dataclass(frozen=True)
class HashSplit:
    """Attacker/honest hash-power split with its derived quantities.

    q: attacker fraction, the only value stored; p = 1 - q, lam = q/p and
    s = 4pq are computed from it on access.
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

    @classmethod
    def from_attacker_share(cls, q: float) -> "HashSplit":
        """HashSplit(q).  Kept because perfbench/worker.py calls and wraps it."""
        return cls(q)


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


def catchup_probability(split: HashSplit, n: int) -> float:
    """Probability (q/p)^n that an attacker n blocks behind ever leads."""
    _check_count("n", n, 0)
    if n == 0 or split.q == 0.5:
        return 1.0
    return math.exp(n * math.log(split.lam))


def negbin_pmf(split: HashSplit, n: int, k: int) -> float:
    """P[attacker mined k blocks while honest miners mined their n-th],
    the negative binomial pmf p^n q^k C(k+n-1, k)."""
    _check_count("n", n, 1)
    _check_count("k", k, 0)
    return math.exp(
        n * math.log(split.p)
        + k * math.log(split.q)
        + specfun.log_binomial(k + n - 1, k)
    )


def attacker_success_closed(split: HashSplit, z: int) -> float:
    """Exact success probability in closed form, I_s(z, 1/2) with s=4pq."""
    _check_count("z", z, 0)
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
    _check_count("z", z, 0)
    if z == 0:
        return 1.0
    return conditional_probability(split, z, 1.0)


def _log_conditional(lam, z, kappa):
    """ln[P(z, kappa z lam) + lam^z e^{kappa z (1-lam)} Q(z, kappa z)] at
    lam = q/p, the tail summed in log space because e^{kappa z (1-lam)}
    overflows where Q(z, kappa z) underflows.

    Elementwise over the broadcast of lam, z and kappa if any is a numpy
    array (z then of integer dtype).  ln Q(z, kappa z) does not depend on
    lam, so it is evaluated over the broadcast of z and kappa alone: a grid
    of lam against kappa computes each Q once.
    """
    x = kappa * z
    growth = x * (1.0 - lam)
    # x (1 - lam) is inf only where kappa z overflows; Q(z, x) = 0 there, and
    # taking it as 0 makes the tail -inf rather than inf - inf
    if isinstance(growth, np.ndarray):
        z = np.broadcast_to(z, np.shape(x))  # the kernels take their array path on z
        growth[growth == math.inf] = 0.0
        log_lam = np.log(lam) if isinstance(lam, np.ndarray) else math.log(lam)
    else:
        if growth == math.inf:
            growth = 0.0
        log_lam = math.log(lam)
    head = specfun.log_reg_lower_gamma_p(z, x * lam)
    tail = z * log_lam + growth + specfun.log_reg_upper_gamma_q(z, x)
    return _logaddexp(head, tail)


def _log_nakamoto(split, z):
    return _log_conditional(split.lam, z, 1.0)


def conditional_probability(split: HashSplit, z: int, kappa: float) -> float:
    """Success probability given that the z confirmations took
    kappa times their expected duration:

        P(z, kappa) = 1 - Q(z, kappa z q/p)
                      + (q/p)^z e^{kappa z (p-q)/p} Q(z, kappa z)
    """
    _check_count("z", z, 1)
    _check_positive("kappa", kappa)
    if split.q == 0.5:
        return 1.0
    return specfun._clamp01(math.exp(_log_conditional(split.lam, z, kappa)))


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
        log_p = _log_conditional(q / (1.0 - q), z, kappa)
    return np.where(q == 0.5, 1.0, np.clip(np.exp(log_p), 0.0, 1.0))


def _log_kappa_density(z, kappa):
    """ln f_z(kappa), elementwise if kappa is a numpy array.

    Written as -z (kappa - 1 - ln kappa) - ln kappa + ln(z^z e^{-z} / Gamma(z)),
    where no two terms of size z ln z cancel; the last term is
    specfun._log_gamma_norm.
    """
    log_kappa = np.log(kappa)
    return specfun._log_gamma_norm(z) - z * (kappa - 1.0 - log_kappa) - log_kappa


def kappa_density(z: int, kappa: float) -> float:
    """Density of the observed deviation factor: Gamma(z, z) at kappa."""
    _check_count("z", z, 1)
    _check_positive("kappa", kappa)
    return math.exp(_log_kappa_density(z, kappa))


def deviation_tail(z: int, kappa: float) -> float:
    """P[observed deviation factor > kappa] = Q(z, kappa z).

    Depends only on z and kappa, not on the hash split.
    """
    _check_count("z", z, 1)
    _check_positive("kappa", kappa)
    return specfun.reg_upper_gamma_q(z, kappa * z)


@functools.cache
def _gauss_legendre():
    from numpy.polynomial.legendre import leggauss

    return leggauss(_QUAD_NODES)


def _log_quadrature_integrand(split, z, kappa):
    """ln[P(z, kappa) f_z(kappa)] over an array of kappa, in one kernel call."""
    return _log_conditional(split.lam, z, kappa) + _log_kappa_density(z, kappa)


def recover_p_by_quadrature(split: HashSplit, z: int) -> float:
    """Rebuild the unconditional probability by integrating the
    conditional one against the kappa density.  Independent cross-check
    of the closed form.

    The integrand is handled in log space, g = ln[P(z, kappa) f_z(kappa)].
    With lam = q/p, Chernoff's bounds on both Poisson parts of P(z, kappa)
    give ln P(z, kappa) <= U(kappa), capped at 0, where

        U = ln 2 + z ln lam + kappa z (1 - lam)      for kappa <= 1,
        U = ln 2 - z c(kappa lam)                    for 1 <= kappa < 1/lam,

    and 0 beyond 1/lam.  h = U + ln f_z is concave, so each superlevel set
    of h is one interval, and h >= g.  g is evaluated once, at the peak of
    h on a grid of 1024 points; the window where h lies within 40 of that
    value contains the window where g lies within 40 of its own peak.  That
    one value comes from the scalar kernels.  The window's ends are taken
    one grid cell outside the outermost grid points in it, and a 64-node
    Gauss-Legendre rule sums w exp(g - g_max) over it, in the one array
    kernel call.  The result is exp(g_max) times that sum, so it keeps its
    relative accuracy below 1e-300 until it underflows.

    Measured against 40-digit mpmath P(z) = I_{4pq}(z, 1/2) at ten values
    of q in [0.001, 0.499]: within 8.5e-13 relative up to z = 5000, the
    worst at z = 2000; at z = 10^5 within 2.2e-13 for q >= 0.47, and at
    z = 10^6 within 8e-14 for q >= 0.4995.  What error there is comes from
    ln P(z, kappa).  At z = 10^6 that is off by up to 1.7e-7 (q = 0.498,
    kappa = 1.002), and the result for q in [0.495, 0.499] by 2e-10 to 3e-7.
    """
    _check_count("z", z, 1)
    if split.q == 0.5:
        return 1.0
    # P(z, kappa) >= lam^z puts the peak of g at most -z ln lam below that of
    # ln f_z, and for kappa >= 1, ln f_z(kappa) - ln f_z(1) <= z(1 - kappa/2),
    # so past 2(1 + depth/z - ln lam) g is more than the depth below its peak
    lam, log_lam = split.lam, math.log(split.lam)
    step = 2.0 * (1.0 + _QUAD_DEPTH / z - log_lam) / _QUAD_GRID
    kappa = step * np.arange(1, _QUAD_GRID + 1)
    # c(kappa lam) at kappa lam >= 1 is taken at 1, where c is 0
    klam = np.minimum(kappa * lam, 1.0)
    upper = np.where(
        kappa < 1.0, z * (log_lam + kappa * (1.0 - lam)), -z * (klam - 1.0 - np.log(klam))
    )
    h = np.minimum(math.log(2.0) + upper, 0.0) + _log_kappa_density(z, kappa)
    # g <= h, so h is above this level wherever g is within the depth of its
    # peak; at one point the scalar kernels cost an order of magnitude less
    # than an array call
    peak_kappa = float(kappa[np.argmax(h)])
    level = (
        _log_conditional(lam, z, peak_kappa) + _log_kappa_density(z, peak_kappa) - _QUAD_DEPTH
    )
    # h is concave, so the window ends within one cell of its outer grid points
    inside = np.flatnonzero(h >= level)
    lo, hi = step * inside[0], step * (inside[-1] + 2)
    nodes, weights = _gauss_legendre()
    half = 0.5 * (hi - lo)
    g = _log_quadrature_integrand(split, z, lo + half * (nodes + 1.0))
    peak = g.max()
    return specfun._clamp01(math.exp(peak + math.log(half * np.dot(weights, np.exp(g - peak)))))


def kappa_from_times(net: NetworkParams, split: HashSplit, z: int, tau1: float) -> float:
    """Deviation factor from the observed time: kappa = p tau1 / (z tau0)."""
    _check_count("z", z, 1)
    _check_positive("tau1", tau1)
    return split.p * tau1 / (z * net.tau0)


def _asymptotic_start(split, risk):
    """The rank at which the paper's asymptotics, to next order, put the
    crossing of ``risk`` by Nakamoto's probability; in [1, MAX_CONFIRMATIONS].

    With lam = q/p and c = lam - 1 - ln lam, the two parts of
    P_SN(z) = P[Poisson(z lam) >= z] + e^{-c z} P[Poisson(z) < z] give
    P_SN(z) ~ a(z) e^{-c z} with
    a(z) = erfcx((1-lam) sqrt(z/2)) / 2 + 1/2 - 1 / (3 sqrt(2 pi z)),
    which tends to the paper's 1/2.  The rank solves
    z = ln(a(z) / risk) / c, by three fixed-point steps from z = 1.
    """
    lam = split.lam
    c = lam - 1.0 - math.log(lam)
    if c <= 0.0:  # q so close to 1/2 that the decay rate rounds to 0
        return MAX_CONFIRMATIONS

    def a(z):
        above = 0.5 * cython_special.erfcx((1.0 - lam) * math.sqrt(0.5 * z))
        return above + 0.5 - 1.0 / (3.0 * math.sqrt(2.0 * math.pi * z))

    z = 1.0
    for _ in range(3):
        z = min(max(1.0, math.log(a(z) / risk) / c), MAX_CONFIRMATIONS - 1)
    return int(z) + 1


def confirmations_required(
    split: HashSplit, risk: float, use_nakamoto: bool = False
) -> int:
    """Smallest z >= 1 with success probability strictly below ``risk``.

    Uses the closed form by default, Nakamoto's approximation when
    ``use_nakamoto`` is set.  The closed form's search starts one above
    the a with I_s(a, 1/2) = risk, from scipy's inverse btdtria; Nakamoto's
    where the paper's asymptotics cross ``risk`` (see _asymptotic_start).
    From there it gallops in steps of 1, 2, 4, ... until it brackets the
    crossing, and bisects the bracket.  Both probabilities decrease in z,
    so the answer is their strict crossing wherever the search starts.
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
    # find lo < hi with prob(lo) >= risk > prob(hi); prob(0) = 1 >= risk
    step = 1
    if prob(split, z) < risk:
        hi = z
        lo = max(hi - step, 0)
        while lo > 0 and prob(split, lo) < risk:
            hi, step = lo, 2 * step
            lo = max(hi - step, 0)
    else:
        lo = z
        hi = min(lo + step, MAX_CONFIRMATIONS)
        while lo < MAX_CONFIRMATIONS and prob(split, hi) >= risk:
            lo, step = hi, 2 * step
            hi = min(lo + step, MAX_CONFIRMATIONS)
        if lo == MAX_CONFIRMATIONS:
            near = f"; btdtria puts the crossing near z = {a:.3g}" if a < math.inf else ""
            raise OverflowError(
                f"no z <= {MAX_CONFIRMATIONS} reaches risk {risk} at q={split.q}{near}"
            )
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if prob(split, mid) < risk:
            hi = mid
        else:
            lo = mid
    return hi
