"""Large-z behaviour: asymptotic formulas, rigorous two-sided bounds,
the convexity threshold kappa(z), and the rank z0 beyond which the exact
probability dominates Nakamoto's.

Asymptotic values are returned raw, without clamping to [0, 1]: they are
approximations and an out-of-range value is diagnostic, not a bug.
"""

import enum
import math

import numpy as np

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
# z0_sharp accepts a rank once this many consecutive ranks from it are good;
# its blocks of ranks double up to _Z0_BLOCK ranks, which bounds its memory
_Z0_WINDOW = 200
_Z0_BLOCK = 2**18
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
    """Reject q = 1/2, where every formula here degenerates, and a z that is
    not an integer >= least (z is None for the functions that take none)."""
    if split.q >= 0.5:
        raise ValueError(f"asymptotics require q < 0.5, got q={split.q}")
    if z is not None:
        race._check_count("z", z, least)


def c_function(x: float) -> float:
    """Exponential decay rate c(x) = x - 1 - ln x; zero only at x = 1."""
    race._check_positive("x", x)
    return x - 1.0 - math.log(x)


def p_asymptotic(split: race.HashSplit, z: int) -> float:
    """Leading-order exact probability, s^z / sqrt(pi (1-s) z)."""
    _check_args(split, z)
    s = split.s
    return math.exp(z * math.log(s) - 0.5 * math.log(math.pi * (1.0 - s) * z))


def psn_asymptotic(split: race.HashSplit, z: int) -> float:
    """Leading-order Nakamoto probability, e^{-z c(q/p)} / 2."""
    _check_args(split, z)
    return 0.5 * math.exp(-z * c_function(split.lam))


def conditional_asymptotic(split: race.HashSplit, z: int, kappa: float):
    """Classify kappa into its asymptotic regime and return
    (RegimeLabel, approximate probability).

    At kappa = p/q the value is 1/2 + (1/3 + q/(p-q)) / sqrt(2 pi z),
    the limit that (P(z, p/q) - 1/2) sqrt(2 pi z) tends to.
    """
    _check_args(split, z)
    race._check_positive("kappa", kappa)
    lam = split.lam
    ratio = 1.0 / lam  # p/q
    root = math.sqrt(2.0 * math.pi * z)

    if abs(kappa - 1.0) < _REGIME_TOL:
        return RegimeLabel.at_one, psn_asymptotic(split, z)
    if abs(kappa - ratio) < _REGIME_TOL:
        corr = (1.0 / 3.0 + split.q / (split.p - split.q)) / root
        return RegimeLabel.at_p_over_q, 0.5 + corr
    decay = math.exp(-z * c_function(kappa * lam))
    if kappa < 1.0:
        return RegimeLabel.below_one, decay / ((1.0 - kappa * lam) * root)
    if kappa < ratio:
        coef = kappa * (1.0 - lam) / ((kappa - 1.0) * (1.0 - kappa * lam))
        return RegimeLabel.mid, coef * decay / root
    coef = kappa * (1.0 - lam) / ((kappa - 1.0) * (kappa * lam - 1.0))
    return RegimeLabel.above_p_over_q, 1.0 - coef * decay / root


def p_bounds(split: race.HashSplit, z: int):
    """Two-sided Gautschi-style bracket for the exact probability:

        sqrt(z/(z+1/2)) s^z/sqrt(pi z)  <=  P(z)  <=  s^z/sqrt(pi (1-s) z)
    """
    _check_args(split, z)
    s = split.s
    base = math.exp(z * math.log(s) - 0.5 * math.log(math.pi * z))
    lower = math.sqrt(z / (z + 0.5)) * base
    upper = base / math.sqrt(1.0 - s)
    return lower, upper


def psn_upper_bound(split: race.HashSplit, z: int) -> float:
    """Strict upper bound for the Nakamoto probability,
    (1/(1-q/p)) e^{-z c(q/p)} / sqrt(2 pi z) + e^{-z c(q/p)} / 2."""
    _check_args(split, z)
    decay = math.exp(-z * c_function(split.lam))
    return decay / ((1.0 - split.lam) * math.sqrt(2.0 * math.pi * z)) + 0.5 * decay


def _psi(split):
    # c(q/p) - log(1/s); equals 2 [1/(2p) - 1 - log(1/(2p))] > 0 for q < 1/2
    return c_function(split.lam) + math.log(split.s)


def z0_sufficient(split: race.HashSplit) -> int:
    """Explicit (non-sharp) rank: for z at or above the returned value the
    exact probability strictly exceeds Nakamoto's."""
    _check_args(split)
    psi = _psi(split)
    if psi <= 0.0:
        raise ValueError(f"decay-rate gap must be positive, got {psi} at q={split.q}")
    first = 2.0 / (math.pi * (1.0 - split.lam) ** 2)
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
    inequality log(1/s) < c(q/p) and are not evaluated; below it ranks are
    tested by _bad_rank over a block at once, and while no run of _Z0_WINDOW
    good ranks has closed, the next block doubles the ranks covered, up to
    _Z0_BLOCK ranks a block.  The cap keeps the memory bounded near q = 1/2,
    where z0 grows like (1 - 2q)^-2; the time stays linear in z0.  On one
    core of a 2-vCPU x86 host an answer takes under a second up to
    q = 0.4998 (z0 = 1,085,752 in 0.62 s) and 2.2 s at q = 0.4999
    (z0 = 4,339,741), with the peak RSS 22 MB above that before the call.
    """
    _check_args(split)
    proven = z0_sufficient(split)
    last_bad, lo, hi = 1, 2, _Z0_WINDOW + 2
    while lo < proven:
        w = np.arange(lo, min(hi, proven))
        bad = w[_bad_rank(split, w)]
        # bad ranks, bracketed by the last one before lo and by hi, so each
        # gap minus one is a run of good ranks
        ranks = np.concatenate(([last_bad], bad, [hi]))
        closed = np.flatnonzero(np.diff(ranks) > _Z0_WINDOW)
        if closed.size:
            return int(ranks[closed[0]]) + 1
        last_bad, lo, hi = int(ranks[-2]), hi, hi + min(hi, _Z0_BLOCK)
    # the blocks reached the proven rank, so every rank past last_bad is good
    return last_bad + 1


def _threshold_sums(z, kappa):
    """The left side of the kappa(z) equation, sum_j a_j / kappa^j with
    a_j = prod_{i<=j} (1 - i/z), and its moment sum_j j a_j / kappa^j, in one
    pass that stops once the terms fall below 1e-18 of the sum."""
    term = 1.0
    total = moment = 0.0
    for j in range(1, z):
        term *= (1.0 - j / z) / kappa
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
    _check_args(split, z, least=2)
    q, p = split.q, split.p
    log_target = math.log(split.lam / (1.0 - split.lam))
    kappa = max(0.5 / q - 1.0, p / q - p * p / (q * (p - q)) / z)
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
