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
# z0_sharp accepts a rank once this many consecutive ranks from it are good
_Z0_WINDOW = 200
# kappa_threshold bisects to this relative bracket width, in at most so many steps
_KAPPA_TOL = 1e-13
_KAPPA_MAX_ITER = 400


class RegimeLabel(enum.Enum):
    """Position of kappa relative to the two asymptotic transition points
    1 and p/q."""

    below_one = "below_one"
    at_one = "at_one"
    mid = "mid"
    at_p_over_q = "at_p_over_q"
    above_p_over_q = "above_p_over_q"


def c_function(x: float) -> float:
    """Exponential decay rate c(x) = x - 1 - ln x; zero only at x = 1."""
    if x <= 0.0:
        raise ValueError(f"c_function requires x > 0, got x={x}")
    return x - 1.0 - math.log(x)


def p_asymptotic(split: race.HashSplit, z: int) -> float:
    """Leading-order exact probability, s^z / sqrt(pi (1-s) z)."""
    if z < 1:
        raise ValueError(f"z must be positive, got {z}")
    if split.q >= 0.5:
        raise ValueError(f"p_asymptotic requires q < 0.5, got q={split.q}")
    s = split.s
    return math.exp(z * math.log(s) - 0.5 * math.log(math.pi * (1.0 - s) * z))


def psn_asymptotic(split: race.HashSplit, z: int) -> float:
    """Leading-order Nakamoto probability, e^{-z c(q/p)} / 2."""
    if z < 1:
        raise ValueError(f"z must be positive, got {z}")
    if split.q >= 0.5:
        raise ValueError(f"psn_asymptotic requires q < 0.5, got q={split.q}")
    return 0.5 * math.exp(-z * c_function(split.lam))


def conditional_asymptotic(
    split: race.HashSplit,
    z: int,
    kappa: float,
    at_ratio_correction: str = "sqrt",
):
    """Classify kappa into its asymptotic regime and return
    (RegimeLabel, approximate probability).

    ``at_ratio_correction`` picks the correction term used at
    kappa = p/q: "sqrt" gives a 1/sqrt(2 pi z) scale, "linear" a
    1/(2 pi z) scale.  Both candidate rates circulate for this
    correction; only the limit 1/2 is load-bearing.
    """
    if z < 1:
        raise ValueError(f"z must be positive, got {z}")
    if kappa <= 0.0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    if at_ratio_correction not in ("sqrt", "linear"):
        raise ValueError(f"unknown at_ratio_correction {at_ratio_correction!r}")
    lam = split.lam
    ratio = 1.0 / lam  # p/q
    root = math.sqrt(2.0 * math.pi * z)

    if abs(kappa - 1.0) < _REGIME_TOL:
        return RegimeLabel.at_one, psn_asymptotic(split, z)
    if abs(kappa - ratio) < _REGIME_TOL:
        scale = 1.0 / root if at_ratio_correction == "sqrt" else 1.0 / (2.0 * math.pi * z)
        corr = scale * (1.0 / 3.0 + split.q / (split.p - split.q))
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
    if z < 1:
        raise ValueError(f"z must be positive, got {z}")
    if split.q >= 0.5:
        raise ValueError(f"p_bounds requires q < 0.5, got q={split.q}")
    s = split.s
    base = math.exp(z * math.log(s) - 0.5 * math.log(math.pi * z))
    lower = math.sqrt(z / (z + 0.5)) * base
    upper = base / math.sqrt(1.0 - s)
    return lower, upper


def psn_upper_bound(split: race.HashSplit, z: int) -> float:
    """Strict upper bound for the Nakamoto probability,
    (1/(1-q/p)) e^{-z c(q/p)} / sqrt(2 pi z) + e^{-z c(q/p)} / 2."""
    if z < 1:
        raise ValueError(f"z must be positive, got {z}")
    if split.q >= 0.5:
        raise ValueError(f"psn_upper_bound requires q < 0.5, got q={split.q}")
    decay = math.exp(-z * c_function(split.lam))
    return decay / ((1.0 - split.lam) * math.sqrt(2.0 * math.pi * z)) + 0.5 * decay


def _psi(split):
    # c(q/p) - log(1/s); equals 2 [1/(2p) - 1 - log(1/(2p))] > 0 for q < 1/2
    return c_function(split.lam) + math.log(split.s)


def z0_sufficient(split: race.HashSplit) -> int:
    """Explicit (non-sharp) rank: for z at or above the returned value the
    exact probability strictly exceeds Nakamoto's."""
    if split.q >= 0.5:
        raise ValueError(f"z0_sufficient requires q < 0.5, got q={split.q}")
    psi = _psi(split)
    if psi <= 0.0:
        raise ValueError(f"decay-rate gap must be positive, got {psi} at q={split.q}")
    first = 2.0 / (math.pi * (1.0 - split.lam) ** 2)
    second = 1.0 / (2.0 * math.sqrt(2.0)) - (
        (1.0 + 1.0 / math.sqrt(2.0)) / 2.0
    ) * math.log(2.0 * psi / math.pi) / psi
    return max(1, math.ceil(max(first, second)))


def z0_sharp(split: race.HashSplit) -> int:
    """Smallest z >= 2 with Nakamoto's probability strictly below the
    exact one for every rank in [z, z + _Z0_WINDOW - 1].

    Comparison is done on logarithms so deep tails do not underflow to a
    spurious tie; beyond the verification window the decay-rate
    inequality log(1/s) < c(q/p) guarantees the ordering holds.  Both
    logarithms are evaluated over a block of ranks at once; while no run
    of _Z0_WINDOW good ranks has closed, the next block doubles the
    ranks covered.
    """
    if split.q >= 0.5:
        raise ValueError(f"z0_sharp requires q < 0.5, got q={split.q}")
    last_bad, lo, hi = 1, 2, _Z0_WINDOW + 2
    while True:
        w = np.arange(lo, hi)
        bad = w[race._log_nakamoto(split, w) >= race._log_success_closed(split, w)]
        # bad ranks, bracketed by the last one before lo and by hi, so each
        # gap minus one is a run of good ranks
        ranks = np.concatenate(([last_bad], bad, [hi]))
        closed = np.flatnonzero(np.diff(ranks) > _Z0_WINDOW)
        if closed.size:
            return int(ranks[closed[0]]) + 1
        last_bad, lo, hi = int(ranks[-2]), hi, 2 * hi


def kappa_threshold(split: race.HashSplit, z: int) -> float:
    """Unique positive root kappa(z) of

        sum_{j=1}^{z-1} [prod_{i<=j} (1 - i/z)] / kappa^j  =  lam/(1-lam)

    below which kappa -> P(z, kappa) is convex.  The left side decreases
    strictly from +inf to 0, so plain bisection is safe.  kappa(2) =
    1/(2q) - 1 exactly, and kappa(z) increases to p/q.
    """
    if z < 2:
        raise ValueError(f"kappa_threshold requires z >= 2, got {z}")
    if split.q >= 0.5:
        raise ValueError(f"kappa_threshold requires q < 0.5, got q={split.q}")
    target = split.lam / (1.0 - split.lam)

    def lhs(kappa):
        term = 1.0
        total = 0.0
        for j in range(1, z):
            term *= (1.0 - j / z) / kappa
            total += term
            if term < 1e-18 * total:
                break
        return total

    lo = 1e-12
    hi = 1.0
    while lhs(hi) > target:
        hi *= 2.0
        if hi > 1e12:
            raise specfun.ConvergenceError("kappa_threshold bracket expansion failed")
    for _ in range(_KAPPA_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if lhs(mid) > target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= _KAPPA_TOL * hi:
            return 0.5 * (lo + hi)
    raise specfun.ConvergenceError(
        f"kappa_threshold bisection did not converge for z={z}, q={split.q}"
    )
