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

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.integrate import quad

from . import specfun

__all__ = [
    "HashSplit",
    "NetworkParams",
    "RaceQuery",
    "MAX_SUM_Z",
    "MAX_CONFIRMATIONS",
    "catchup_probability",
    "negbin_pmf",
    "attacker_success_sum",
    "attacker_success_closed",
    "nakamoto_probability",
    "conditional_probability",
    "kappa_density",
    "recover_p_by_quadrature",
    "deviation_tail",
    "kappa_from_times",
    "confirmations_required",
]

# The finite sum is trusted (and kept as an oracle) only up to this z;
# beyond it the signed log-space differences lose precision and only the
# closed form is exposed.
MAX_SUM_Z = 200

# Guard for the confirmation solver; q too close to 0.5 for the risk asked.
MAX_CONFIRMATIONS = 10_000_000


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

    q: attacker fraction; p = 1 - q, lam = q/p and s = 4pq are derived
    from it at construction.
    """

    q: float
    p: float = field(init=False)
    lam: float = field(init=False)
    s: float = field(init=False)

    def __post_init__(self):
        _check_share(self.q)
        p = 1.0 - self.q
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "lam", self.q / p)
        object.__setattr__(self, "s", 4.0 * p * self.q)

    @classmethod
    def from_attacker_share(cls, q: float) -> "HashSplit":
        return cls(q)


@dataclass(frozen=True)
class NetworkParams:
    """Network timing: mean block interval tau0 and the per-group rates.

    alpha = p/tau0 and alpha_prime = q/tau0 are the honest and attacker
    block rates; t0 = tau0/p is the honest-only mean interval.  All three
    are derived from tau0 and the attacker share q at construction.
    """

    tau0: float
    q: float
    alpha: float = field(init=False)
    alpha_prime: float = field(init=False)
    t0: float = field(init=False)

    def __post_init__(self):
        _check_positive("tau0", self.tau0)
        _check_share(self.q)
        p = 1.0 - self.q
        object.__setattr__(self, "alpha", p / self.tau0)
        object.__setattr__(self, "alpha_prime", self.q / self.tau0)
        object.__setattr__(self, "t0", self.tau0 / p)

    @classmethod
    def for_split(cls, split: HashSplit, tau0: float = 10.0) -> "NetworkParams":
        return cls(tau0=tau0, q=split.q)


@dataclass(frozen=True)
class RaceQuery:
    """One risk question: z confirmations, optionally a kappa or an
    observed elapsed time tau1.  When both are given tau1 wins and kappa
    is recomputed; disagreement beyond 1e-9 is an error."""

    z: int
    kappa: Optional[float] = None
    tau1: Optional[float] = None

    def __post_init__(self):
        _check_count("z", self.z, 0)
        if self.kappa is not None:
            _check_positive("kappa", self.kappa)
        if self.tau1 is not None:
            _check_positive("tau1", self.tau1)

    def resolved_kappa(self, net: NetworkParams, split: HashSplit) -> Optional[float]:
        """kappa implied by the query; observed time is the ground truth."""
        if self.tau1 is None:
            return self.kappa
        derived = kappa_from_times(net, split, self.z, self.tau1)
        if self.kappa is not None and abs(self.kappa - derived) > 1e-9:
            raise ValueError(
                f"kappa={self.kappa} inconsistent with tau1={self.tau1} "
                f"(implies kappa={derived})"
            )
        return derived


def _logaddexp(a, b):
    if isinstance(a, np.ndarray):
        return np.logaddexp(a, b)
    m = max(a, b)
    if m == -math.inf:
        return -math.inf
    return m + math.log(math.exp(a - m) + math.exp(b - m))


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


def attacker_success_sum(split: HashSplit, z: int) -> float:
    """Exact success probability by the finite sum
    1 - sum_{k<z} (p^z q^k - q^z p^k) C(k+z-1, k).

    Each term is a signed difference of two log-space exponentials,
    evaluated with expm1 so nothing cancels.  Only valid up to
    MAX_SUM_Z; the closed form is authoritative above that.
    """
    _check_count("z", z, 0)
    if z == 0:
        return 1.0
    if z > MAX_SUM_Z:
        raise ValueError(
            f"finite sum is only trustworthy for z <= {MAX_SUM_Z}; "
            f"use attacker_success_closed for z={z}"
        )
    if split.q == 0.5:
        return 1.0
    lq = math.log(split.q)
    lp = math.log(split.p)
    log_ratio = lp - lq  # > 0
    terms = []
    for k in range(z):
        lc = specfun.log_binomial(k + z - 1, k)
        # p^z q^k C - q^z p^k C  ==  q^z p^k C * (exp((z-k) log(p/q)) - 1)
        terms.append(math.exp(z * lq + k * lp + lc) * math.expm1((z - k) * log_ratio))
    return specfun._clamp01(1.0 - math.fsum(terms))


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


def _log_conditional(split, z, kappa):
    # ln[ P(z, kappa z lam) + lam^z e^{kappa z (1-lam)} Q(z, kappa z) ],
    # elementwise if z is an integer numpy array;
    # the tail is summed in log space because e^{kappa z (1-lam)} overflows
    # where Q(z, kappa z) underflows
    lam = split.lam
    x = kappa * z
    head = specfun.log_reg_lower_gamma_p(z, x * lam)
    tail = z * math.log(lam) + x * (1.0 - lam) + specfun.log_reg_upper_gamma_q(z, x)
    return _logaddexp(head, tail)


def _log_nakamoto(split, z):
    return _log_conditional(split, z, 1.0)


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
    return specfun._clamp01(math.exp(_log_conditional(split, z, kappa)))


def kappa_density(z: int, kappa: float) -> float:
    """Density of the observed deviation factor: Gamma(z, z) at kappa."""
    _check_count("z", z, 1)
    _check_positive("kappa", kappa)
    return math.exp(
        z * math.log(z)
        - specfun.log_gamma(float(z))
        + (z - 1) * math.log(kappa)
        - z * kappa
    )


def deviation_tail(z: int, kappa: float) -> float:
    """P[observed deviation factor > kappa] = Q(z, kappa z).

    Depends only on z and kappa, not on the hash split.
    """
    _check_count("z", z, 1)
    _check_positive("kappa", kappa)
    return specfun.reg_upper_gamma_q(z, kappa * z)


def recover_p_by_quadrature(split: HashSplit, z: int) -> float:
    """Rebuild the unconditional probability by integrating the
    conditional one against the kappa density.  Independent cross-check
    of the closed form; agreement within 1e-8."""
    _check_count("z", z, 1)
    kappa_up = 4.0
    while deviation_tail(z, kappa_up) >= 1e-12:
        kappa_up *= 2.0
        if kappa_up > 1e6:
            raise specfun.ConvergenceError("kappa tail cutoff search did not terminate")

    def integrand(k):
        return conditional_probability(split, z, k) * kappa_density(z, k)

    value, abserr = quad(integrand, 0.0, kappa_up, epsabs=1e-10, epsrel=1e-10, limit=200)
    if abserr > 1e-8:
        raise specfun.ConvergenceError(
            f"quadrature error estimate {abserr} too large for z={z}"
        )
    return specfun._clamp01(value)


def kappa_from_times(net: NetworkParams, split: HashSplit, z: int, tau1: float) -> float:
    """Deviation factor from the observed time: kappa = p tau1 / (z tau0)."""
    _check_count("z", z, 1)
    _check_positive("tau1", tau1)
    return split.p * tau1 / (z * net.tau0)


def confirmations_required(
    split: HashSplit, risk: float, use_nakamoto: bool = False
) -> int:
    """Smallest z >= 1 with success probability strictly below ``risk``.

    Doubling search then bisection on the monotone-decreasing
    probability.  Uses the closed form by default, Nakamoto's
    approximation when ``use_nakamoto`` is set.
    """
    if not 0.0 < risk < 1.0:
        raise ValueError(f"risk must lie strictly between 0 and 1, got {risk}")
    if split.q >= 0.5:
        raise ValueError(
            f"confirmations_required needs q < 0.5 (got q={split.q}): "
            "at q = 0.5 the attack always succeeds"
        )
    prob = nakamoto_probability if use_nakamoto else attacker_success_closed
    hi = 1
    while prob(split, hi) >= risk:
        hi *= 2
        if hi > MAX_CONFIRMATIONS:
            raise OverflowError(
                f"no z <= {MAX_CONFIRMATIONS} reaches risk {risk} at q={split.q}"
            )
    if hi == 1:
        return 1
    lo = hi // 2  # prob(lo) >= risk > prob(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if prob(split, mid) < risk:
            hi = mid
        else:
            lo = mid
    return hi
