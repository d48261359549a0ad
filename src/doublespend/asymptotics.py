"""Large-z behaviour: asymptotic formulas, rigorous two-sided bounds,
the convexity threshold kappa(z), and the rank z0 beyond which the exact
probability dominates Nakamoto's.

Asymptotic values are returned raw, without clamping to [0, 1]: they are
approximations and an out-of-range value is diagnostic, not a bug.
"""

import enum
import math

from . import race, specfun

__all__ = [
    "RegimeLabel",
    "c_function",
    "p_asymptotic",
    "psn_asymptotic",
    "conditional_asymptotic",
    "p_bounds",
    "psn_upper_bound",
    "z0_sufficient",
    "z0_sharp",
    "kappa_threshold",
]

# kappa this close to a removable singularity is treated as sitting on it
_REGIME_TOL = 1e-9
# z0_sharp accepts a rank once this many consecutive ranks from it are good
_Z0_WINDOW = 200
# kappa_threshold gives up after this many Newton steps and kappa doublings
_KAPPA_MAX_ITER = 400


class RegimeLabel(enum.Enum):
    """Position of kappa relative to the two asymptotic transition points
    1 and p/q."""

    below_one = "below_one"
    at_one = "at_one"
    mid = "mid"
    at_p_over_q = "at_p_over_q"
    above_p_over_q = "above_p_over_q"


def _check_args(split, z=None, least=1):
    """z as an int; reject q = 1/2, where every formula here degenerates, and
    a z that is not an integer >= least (z is None for the functions that take none)."""
    if split.q >= 0.5:
        raise ValueError(f"asymptotics require q < 0.5, got q={split.q}")
    if z is not None:
        return race._check_count("z", z, least)


def c_function(x: float) -> float:
    """Exponential decay rate c(x) = x - 1 - ln x, zero only at x = 1; no cancellation near it."""
    race._check_positive("x", x)
    return specfun._c(x - 1.0, math.log(x))


def p_asymptotic(split: race.HashSplit, z: int) -> float:
    """Leading-order exact probability, s^z / sqrt(pi (1-s) z); 1 - s = d^2, and
    ln s = log1p(-d^2) where s >= 1/2, so neither cancels near q = 1/2."""
    z = _check_args(split, z)
    d2 = split.d**2
    log_s = math.log1p(-d2) if d2 <= 0.5 else math.log(split.s)
    return math.exp(z * log_s - 0.5 * math.log(math.pi * d2 * z))


def psn_asymptotic(split: race.HashSplit, z: int) -> float:
    """Leading-order Nakamoto probability, e^{-z c(q/p)} / 2."""
    z = _check_args(split, z)
    return 0.5 * math.exp(-z * race._c_lam(split))


def conditional_asymptotic(split: race.HashSplit, z: int, kappa: float):
    """Classify kappa into its asymptotic regime and return
    (RegimeLabel, approximate probability).

    At kappa = p/q the value is 1/2 + (1/3 + q/(p-q)) / sqrt(2 pi z),
    the limit that (P(z, p/q) - 1/2) sqrt(2 pi z) tends to.
    """
    z = _check_args(split, z)
    race._check_positive("kappa", kappa)
    lam, gap = split.lam, race._one_minus_lam(split)
    ratio = 1.0 / lam  # p/q
    root = math.sqrt(2.0 * math.pi * z)

    if abs(kappa - 1.0) < _REGIME_TOL:
        return RegimeLabel.at_one, psn_asymptotic(split, z)
    if abs(kappa - ratio) < _REGIME_TOL:
        corr = (1.0 / 3.0 + split.q / split.d) / root  # q/d = lam/(1-lam)
        return RegimeLabel.at_p_over_q, 0.5 + corr
    decay = math.exp(-z * c_function(kappa * lam))
    if kappa < 1.0:
        return RegimeLabel.below_one, decay / ((1.0 - kappa * lam) * root)
    if kappa < ratio:
        coef = kappa * gap / ((kappa - 1.0) * (1.0 - kappa * lam))
        return RegimeLabel.mid, coef * decay / root
    coef = kappa * gap / ((kappa - 1.0) * (kappa * lam - 1.0))
    return RegimeLabel.above_p_over_q, 1.0 - coef * decay / root


def p_bounds(split: race.HashSplit, z: int):
    """Two-sided Gautschi-style bracket for the exact probability:

        sqrt(z/(z+1/2)) s^z/sqrt(pi z)  <=  P(z)  <=  s^z/sqrt(pi (1-s) z)
    """
    upper = p_asymptotic(split, z)
    return math.sqrt(z / (z + 0.5)) * split.d * upper, upper  # d = sqrt(1 - s)


def psn_upper_bound(split: race.HashSplit, z: int) -> float:
    """Strict upper bound for the Nakamoto probability,
    (1/(1-q/p)) e^{-z c(q/p)} / sqrt(2 pi z) + e^{-z c(q/p)} / 2."""
    z = _check_args(split, z)
    decay = math.exp(-z * race._c_lam(split))
    return decay / (race._one_minus_lam(split) * math.sqrt(2.0 * math.pi * z)) + 0.5 * decay


def z0_sufficient(split: race.HashSplit) -> int:
    """Explicit (non-sharp) rank: for z at or above the returned value the
    exact probability strictly exceeds Nakamoto's.  It is set by the decay-rate
    gap psi = c(q/p) - ln(1/s) > 0, taken as 2 c(1/(2p)), which does not cancel.
    It does not decrease in q: psi <= 2 c(1/2) < pi/2 falls as q rises, so
    both terms of the max rise."""
    _check_args(split)
    psi = 2.0 * specfun._c(-split.d / (2.0 * split.p), -math.log(2.0 * split.p))
    first = 2.0 / (math.pi * race._one_minus_lam(split) ** 2)
    second = 1.0 / (2.0 * math.sqrt(2.0)) - (
        (1.0 + 1.0 / math.sqrt(2.0)) / 2.0
    ) * math.log(2.0 * psi / math.pi) / psi
    return max(1, math.ceil(max(first, second)))


def _bad_rank(split, w):
    """Whether Nakamoto's probability is at or above the exact one at rank w,
    elementwise if w is an integer numpy array; compared on logarithms so
    deep tails do not underflow to a spurious tie."""
    return race._log_nakamoto(split, w) >= race._log_success_closed(split, w)


def z0_sharp(split: race.HashSplit) -> int:
    """Smallest z >= 2 with Nakamoto's probability strictly below the
    exact one for every rank in [z, z + _Z0_WINDOW - 1].

    Ranks from z0_sufficient on are proven good by the decay-rate
    inequality log(1/s) < c(q/p) and are not evaluated.  Below it the
    search walks over runs of ranks [a, r].  P and P_SN strictly decrease
    in z (see race.confirmations_required), so for every r' in [a, r]:
    if P_SN(a) >= P(a), r' is bad up to the last r with P_SN(r) >= P(a),
    as P_SN(r') >= P_SN(r) >= P(a) >= P(r'); else r' is good up to the
    last r with P(r) > P_SN(a), as P(r') >= P(r) > P_SN(a) >= P_SN(r').
    race._last_at_least finds r on the scalar log kernels.  On one core of
    a 2-vCPU x86 host z0(0.4999) = 4,339,741 takes 4.5 ms in 2,364 kernel
    calls, and q = 0.49999 7.5 ms in 3,909.
    """
    _check_args(split)
    proven = z0_sufficient(split)
    log_sn, log_p = race._log_nakamoto, race._log_success_closed
    last_bad, a = 1, 2
    while a < proven and a - last_bad <= _Z0_WINDOW:
        sn, p = log_sn(split, a), log_p(split, a)
        if sn >= p:
            last_bad = r = race._last_at_least(log_sn, split, p, a + 1, a, proven - 1)
        else:  # nextafter turns P(r) > P_SN(a) into the search's >=
            top = min(last_bad + _Z0_WINDOW, proven - 1)
            r = race._last_at_least(log_p, split, math.nextafter(sn, math.inf), a + 1, a, top)
        a = r + 1
    return last_bad + 1


def _threshold_sums(z, kappa):
    """The left side of the kappa(z) equation, sum_j a_j / kappa^j with
    a_j = prod_{i<=j} (1 - i/z), and its moment sum_j j a_j / kappa^j, in one
    pass that stops once the terms fall below 1e-18 of the sum; on floats only."""
    zf, kappa = float(z), float(kappa)
    term = 1.0
    total = moment = j = 0.0
    for _ in range(1, z):
        j += 1.0
        term *= (1.0 - j / zf) / kappa
        total += term
        moment += j * term
        if term < 1e-18 * total:
            break
    return total, moment


def kappa_threshold(split: race.HashSplit, z: int) -> float:
    """Unique positive root kappa(z) of

        sum_{j=1}^{z-1} [prod_{i<=j} (1 - i/z)] / kappa^j  =  lam/(1-lam)

    below which kappa -> P(z, kappa) is convex.  kappa(2) = 1/(2q) - 1
    exactly, and kappa(z) increases to p/q.

    Solved by Newton's method in u = ln kappa.  F(u) = ln sum_j a_j e^{-ju}
    with a_j > 0 is convex and decreasing, so each tangent crosses the
    target at or below the root: after the first step the iterates rise
    monotonically to it, from any start, and no bracket is needed.  The
    start is the larger of kappa(2) and the paper's first-order expansion
    p/q - p^2/(q(p-q))/z; where the sums overflow at a start far below the
    root, kappa doubles.  The iteration stops once the step in u is at
    most 1e-14, after 2.9 evaluations of the sums on average over q in
    [0.05, 0.45] and z in [2, 2000].
    """
    z = _check_args(split, z, least=2)
    q, p, d = split.q, split.p, split.d
    log_target = math.log(q / d)  # lam/(1-lam)
    kappa = max(0.5 * d / q, p / q - p * p / (q * d) / z)
    for _ in range(_KAPPA_MAX_ITER):
        total, moment = _threshold_sums(z, kappa)
        if not moment < math.inf:  # inf or nan: the sums overflowed
            kappa *= 2.0
            continue
        # F'(u) = -moment/total
        step = (math.log(total) - log_target) * total / moment
        kappa *= math.exp(step)
        if abs(step) <= 1e-14:
            return kappa
    raise specfun.ConvergenceError(
        f"kappa_threshold Newton iteration did not converge for z={z}, q={split.q}"
    )
