"""Frozen expected values for the published reference tables, the two
finite-sum P(z) oracles that the tests check the closed form and the
tables against (one in exact rationals, one in floating point), the
doubling search that the confirmation solver is checked against, the
plain bisection that the z0 table's boundaries are checked against, the
block scan that z0_sharp is checked against, the simulated histogram of
the attacker's block count that negbin_pmf is checked against, and the
integer-counter forms of the three hand-rolled recurrences that the
float-counter ones are pinned to bit for bit."""

import math
from fractions import Fraction

import numpy as np

from doublespend import asymptotics, race, specfun
from doublespend.race import HashSplit, NetworkParams
from doublespend.sim import SimConfig, _map_batches, _race

# The floating-point finite sum is trusted only up to this z; beyond it the
# signed log-space differences lose precision.
MAX_SUM_Z = 200

# The kappa-law sweep of the paper_tables benchmark (perfbench/inputs.py):
# kappa_threshold and recover_p_by_quadrature at every (q, z) pair.
SWEEP_QS = (0.05, 0.1, 0.2, 0.3, 0.4, 0.45)
SWEEP_ZS = (2, 6, 24, 100, 500, 2000)


def exact_success_rational(q_frac, z):
    """P(z) as an exact rational, straight from the finite-sum formula
    1 - sum_{k<z} (p^z q^k - q^z p^k) C(k+z-1, k), summed in integers over
    the common denominator b^(2z) of q = a/b."""
    a, b = q_frac.numerator, q_frac.denominator
    c = b - a  # p = c/b
    total = sum(
        (c**z * a**k - a**z * c**k) * b ** (z - k) * math.comb(k + z - 1, k) for k in range(z)
    )
    return 1 - Fraction(total, b ** (2 * z))


def attacker_success_sum(split, z):
    """Exact success probability by the finite sum
    1 - sum_{k<z} (p^z q^k - q^z p^k) C(k+z-1, k).

    Each term is a signed difference of two log-space exponentials,
    evaluated with expm1 so nothing cancels.  Only valid up to
    MAX_SUM_Z; the closed form is authoritative above that.
    """
    race._check_count("z", z, 0)
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


KAPPA_ROWS = [round(0.1 * i, 1) for i in range(1, 36)]

Q_COLS = [round(0.02 * i, 2) for i in range(1, 14)]


# P(z, kappa) in percent, rows kappa, columns q
SATOSHI3_PERCENT = [
    [0, 0.01, 0.03, 0.09, 0.18, 0.33, 0.55, 0.88, 1.34, 1.96, 2.78, 3.87, 5.27],
    [0, 0.01, 0.05, 0.11, 0.23, 0.42, 0.71, 1.12, 1.68, 2.44, 3.44, 4.74, 6.39],
    [0, 0.02, 0.06, 0.15, 0.3, 0.55, 0.91, 1.42, 2.11, 3.04, 4.24, 5.77, 7.7],
    [0, 0.02, 0.08, 0.19, 0.39, 0.69, 1.14, 1.77, 2.62, 3.74, 5.17, 6.98, 9.22],
    [0, 0.03, 0.1, 0.24, 0.49, 0.87, 1.43, 2.2, 3.22, 4.56, 6.25, 8.36, 10.93],
    [0, 0.04, 0.13, 0.31, 0.61, 1.08, 1.76, 2.69, 3.92, 5.49, 7.47, 9.9, 12.83],
    [0.01, 0.05, 0.16, 0.38, 0.75, 1.33, 2.14, 3.25, 4.7, 6.54, 8.82, 11.59, 14.89],
    [0.01, 0.06, 0.19, 0.46, 0.92, 1.61, 2.58, 3.88, 5.57, 7.7, 10.3, 13.42, 17.11],
    [0.01, 0.07, 0.24, 0.56, 1.11, 1.92, 3.06, 4.58, 6.53, 8.96, 11.9, 15.39, 19.45],
    [0.01, 0.08, 0.28, 0.67, 1.32, 2.27, 3.6, 5.36, 7.58, 10.32, 13.61, 17.47, 21.9],
    [0.01, 0.1, 0.34, 0.8, 1.55, 2.66, 4.19, 6.2, 8.71, 11.78, 15.42, 19.64, 24.44],
    [0.02, 0.12, 0.4, 0.94, 1.81, 3.09, 4.84, 7.1, 9.92, 13.32, 17.32, 21.91, 27.05],
    [0.02, 0.14, 0.47, 1.09, 2.1, 3.55, 5.53, 8.07, 11.2, 14.95, 19.3, 24.24, 29.72],
    [0.02, 0.16, 0.54, 1.26, 2.4, 4.06, 6.27, 9.1, 12.55, 16.64, 21.34, 26.62, 32.41],
    [0.02, 0.19, 0.62, 1.44, 2.74, 4.59, 7.06, 10.18, 13.96, 18.39, 23.44, 29.04, 35.12],
    [0.03, 0.22, 0.71, 1.64, 3.1, 5.17, 7.9, 11.32, 15.43, 20.2, 25.58, 31.49, 37.83],
    [0.03, 0.25, 0.81, 1.85, 3.48, 5.78, 8.78, 12.51, 16.95, 22.06, 27.76, 33.96, 40.53],
    [0.04, 0.28, 0.91, 2.08, 3.89, 6.42, 9.7, 13.75, 18.52, 23.95, 29.96, 36.42, 43.2],
    [0.04, 0.32, 1.03, 2.33, 4.32, 7.1, 10.67, 15.03, 20.13, 25.88, 32.18, 38.88, 45.84],
    [0.05, 0.36, 1.15, 2.58, 4.78, 7.8, 11.67, 16.35, 21.77, 27.83, 34.4, 41.32, 48.43],
    [0.05, 0.4, 1.28, 2.86, 5.26, 8.54, 12.71, 17.7, 23.44, 29.8, 36.62, 43.74, 50.96],
    [0.06, 0.44, 1.41, 3.15, 5.77, 9.31, 13.78, 19.09, 25.14, 31.78, 38.84, 46.12, 53.43],
    [0.07, 0.49, 1.56, 3.46, 6.3, 10.11, 14.88, 20.51, 26.86, 33.77, 41.04, 48.46, 55.84],
    [0.07, 0.54, 1.71, 3.78, 6.85, 10.94, 16.01, 21.95, 28.59, 35.75, 43.21, 50.76, 58.17],
    [0.08, 0.6, 1.87, 4.11, 7.42, 11.79, 17.17, 23.41, 30.34, 37.73, 45.36, 53, 60.43],
    [0.09, 0.65, 2.04, 4.46, 8.01, 12.67, 18.35, 24.89, 32.09, 39.7, 47.48, 55.19, 62.6],
    [0.1, 0.71, 2.22, 4.83, 8.62, 13.57, 19.56, 26.39, 33.84, 41.65, 49.56, 57.32, 64.7],
    [0.11, 0.78, 2.41, 5.21, 9.26, 14.49, 20.78, 27.9, 35.59, 43.59, 51.6, 59.38, 66.71],
    [0.12, 0.85, 2.6, 5.6, 9.91, 15.44, 22.02, 29.42, 37.34, 45.5, 53.6, 61.39, 68.64],
    [0.13, 0.92, 2.81, 6.01, 10.58, 16.4, 23.28, 30.94, 39.08, 47.38, 55.55, 63.32, 70.49],
    [0.14, 0.99, 3.02, 6.44, 11.27, 17.38, 24.55, 32.47, 40.81, 49.24, 57.45, 65.19, 72.25],
    [0.15, 1.07, 3.24, 6.87, 11.97, 18.38, 25.83, 34, 42.52, 51.06, 59.31, 67, 73.93],
    [0.16, 1.15, 3.47, 7.32, 12.69, 19.39, 27.12, 35.52, 44.22, 52.85, 61.11, 68.73, 75.53],
    [0.17, 1.23, 3.7, 7.78, 13.43, 20.42, 28.42, 37.05, 45.9, 54.61, 62.86, 70.39, 77.05],
    [0.19, 1.32, 3.95, 8.26, 14.18, 21.46, 29.73, 38.56, 47.56, 56.32, 64.55, 71.99, 78.5],
]


# P(z, kappa) in percent, rows kappa, columns q
SATOSHI6_PERCENT = [
    [0, 0, 0, 0, 0, 0, 0, 0.01, 0.02, 0.04, 0.08, 0.15, 0.28],
    [0, 0, 0, 0, 0, 0, 0.01, 0.01, 0.03, 0.06, 0.12, 0.23, 0.41],
    [0, 0, 0, 0, 0, 0, 0.01, 0.02, 0.05, 0.09, 0.18, 0.34, 0.6],
    [0, 0, 0, 0, 0, 0.01, 0.01, 0.03, 0.07, 0.15, 0.28, 0.51, 0.88],
    [0, 0, 0, 0, 0, 0.01, 0.02, 0.05, 0.11, 0.23, 0.42, 0.75, 1.28],
    [0, 0, 0, 0, 0, 0.01, 0.04, 0.08, 0.17, 0.34, 0.63, 1.1, 1.84],
    [0, 0, 0, 0, 0.01, 0.02, 0.06, 0.13, 0.26, 0.51, 0.91, 1.57, 2.57],
    [0, 0, 0, 0, 0.01, 0.03, 0.08, 0.19, 0.39, 0.73, 1.3, 2.19, 3.53],
    [0, 0, 0, 0, 0.02, 0.05, 0.12, 0.28, 0.55, 1.03, 1.81, 2.99, 4.73],
    [0, 0, 0, 0.01, 0.02, 0.07, 0.18, 0.39, 0.78, 1.43, 2.45, 3.99, 6.19],
    [0, 0, 0, 0.01, 0.04, 0.1, 0.25, 0.54, 1.06, 1.92, 3.25, 5.2, 7.93],
    [0, 0, 0, 0.01, 0.05, 0.14, 0.35, 0.74, 1.42, 2.53, 4.21, 6.63, 9.94],
    [0, 0, 0, 0.02, 0.07, 0.2, 0.47, 0.98, 1.86, 3.26, 5.35, 8.29, 12.23],
    [0, 0, 0, 0.03, 0.09, 0.26, 0.62, 1.28, 2.39, 4.14, 6.68, 10.19, 14.79],
    [0, 0, 0.01, 0.03, 0.12, 0.34, 0.8, 1.64, 3.02, 5.15, 8.19, 12.3, 17.58],
    [0, 0, 0.01, 0.05, 0.16, 0.45, 1.02, 2.06, 3.76, 6.31, 9.89, 14.63, 20.59],
    [0, 0, 0.01, 0.06, 0.21, 0.57, 1.29, 2.56, 4.6, 7.62, 11.77, 17.16, 23.78],
    [0, 0, 0.02, 0.08, 0.27, 0.71, 1.6, 3.14, 5.56, 9.07, 13.82, 19.86, 27.13],
    [0, 0, 0.02, 0.1, 0.34, 0.89, 1.96, 3.79, 6.63, 10.67, 16.04, 22.72, 30.59],
    [0, 0, 0.03, 0.12, 0.42, 1.09, 2.37, 4.53, 7.82, 12.42, 18.4, 25.71, 34.14],
    [0, 0, 0.03, 0.15, 0.51, 1.32, 2.83, 5.35, 9.12, 14.29, 20.9, 28.81, 37.73],
    [0, 0, 0.04, 0.19, 0.62, 1.58, 3.36, 6.26, 10.54, 16.29, 23.51, 31.98, 41.34],
    [0, 0, 0.05, 0.23, 0.75, 1.88, 3.95, 7.26, 12.06, 18.41, 26.23, 35.21, 44.94],
    [0, 0.01, 0.06, 0.28, 0.89, 2.21, 4.59, 8.35, 13.69, 20.64, 29.02, 38.47, 48.49],
    [0, 0.01, 0.07, 0.33, 1.05, 2.59, 5.3, 9.52, 15.42, 22.95, 31.87, 41.73, 51.97],
    [0, 0.01, 0.09, 0.4, 1.24, 3, 6.08, 10.78, 17.24, 25.35, 34.77, 44.98, 55.35],
    [0, 0.01, 0.1, 0.47, 1.44, 3.45, 6.92, 12.12, 19.15, 27.81, 37.69, 48.19, 58.63],
    [0, 0.01, 0.12, 0.55, 1.67, 3.95, 7.82, 13.54, 21.14, 30.33, 40.62, 51.34, 61.78],
    [0, 0.02, 0.14, 0.64, 1.92, 4.49, 8.79, 15.04, 23.19, 32.89, 43.54, 54.42, 64.8],
    [0, 0.02, 0.17, 0.74, 2.2, 5.08, 9.82, 16.6, 25.31, 35.48, 46.44, 57.41, 67.66],
    [0, 0.02, 0.19, 0.85, 2.5, 5.71, 10.91, 18.24, 27.47, 38.08, 49.29, 60.3, 70.38],
    [0, 0.03, 0.22, 0.97, 2.83, 6.39, 12.06, 19.93, 29.68, 40.68, 52.1, 63.09, 72.94],
    [0, 0.03, 0.26, 1.11, 3.18, 7.11, 13.27, 21.68, 31.93, 43.28, 54.84, 65.75, 75.33],
    [0, 0.03, 0.3, 1.25, 3.57, 7.88, 14.54, 23.48, 34.2, 45.86, 57.52, 68.3, 77.57],
    [0, 0.04, 0.34, 1.41, 3.98, 8.69, 15.86, 25.33, 36.48, 48.41, 60.11, 70.72, 79.66],
]


def confirmations_scan(split, risk, use_nakamoto=False):
    """The smallest z with ln P(z) < ln risk (ln P_SN(z) with
    ``use_nakamoto``) on the log kernels the solver probes, by doubling
    from z = 1, then bisecting: a search that shares nothing with the
    solver's starts or its gallop, as its oracle."""
    log_prob = race._log_nakamoto if use_nakamoto else race._log_success_closed
    floor = math.log(risk)
    hi = 1
    while log_prob(split, hi) >= floor:
        hi *= 2
    if hi == 1:
        return 1
    lo = hi // 2  # log_prob(lo) >= floor > log_prob(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if log_prob(split, mid) < floor:
            hi = mid
        else:
            lo = mid
    return hi


def z0_boundary_bisect(k, z0_at, lo=0.001, hi=0.4999, tol=1e-4):
    """Smallest q at which z0_at(q) reaches k, by bisecting on z0_at alone:
    the plain search the z0 table's guided one must agree with."""
    if z0_at(lo) >= k:
        return 0.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if z0_at(mid) >= k:
            hi = mid
        else:
            lo = mid
    return hi


# z0_block_scan's blocks of ranks double up to this many ranks, which bounds its memory
Z0_BLOCK = 2**18


def z0_block_scan(split):
    """The sharp rank z0 by testing every rank below z0_sufficient, a block
    of ranks at a time on the array kernels, until _Z0_WINDOW good ranks in
    a row follow the last bad one: a search that relies on no order in z.
    The blocks double up to Z0_BLOCK ranks; the time is linear in z0."""
    window = asymptotics._Z0_WINDOW
    proven = asymptotics.z0_sufficient(split)
    last_bad, lo, hi = 1, 2, window + 2
    while lo < proven:
        w = np.arange(lo, min(hi, proven))
        bad = w[asymptotics._bad_rank(split, w)]
        # bad ranks, bracketed by the last one before lo and by hi, so each
        # gap minus one is a run of good ranks
        ranks = np.concatenate(([last_bad], bad, [hi]))
        closed = np.flatnonzero(np.diff(ranks) > window)
        if closed.size:
            return int(ranks[closed[0]]) + 1
        last_bad, lo, hi = int(ranks[-2]), hi, hi + min(hi, Z0_BLOCK)
    # the blocks reached the proven rank, so every rank past last_bad is good
    return last_bad + 1


def estimate_negbin(split: HashSplit, config: SimConfig) -> np.ndarray:
    """Histogram of the attacker block count at the config.z-th honest block.

    Returns counts indexed by k, length at least config.z + 31; the law is
    independent of the network time scale so tau0 = 1 is used.  A
    kappa-conditioned config is rejected, since the histogram is of the
    unconditioned race.
    """
    if config.kappa is not None:
        raise ValueError("estimate_negbin draws unconditioned races; config.kappa must be None")
    net = NetworkParams(1.0)
    z = config.z
    counts = np.zeros(z + 31, dtype=np.int64)
    for part in _map_batches(config, lambda n, rng: np.bincount(_race(split, net, z, rng, n)[1])):
        if part.size > counts.size:
            counts = np.pad(counts, (0, part.size - counts.size))
        counts[: part.size] += part
    return counts


# The three hand-rolled recurrences as they were with an integer counter
# mixed into the float arithmetic.  The float-counter forms in specfun and
# asymptotics keep every IEEE operation and its order, so their values
# must match these bit for bit.


def beta_cf_int_counter(a, b, x):
    """specfun._beta_cf with an integer counter m."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < specfun._TINY:
        d = specfun._TINY
    d = 1.0 / d
    h = d
    for m in range(1, specfun._MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < specfun._TINY:
            d = specfun._TINY
        c = 1.0 + aa / c
        if abs(c) < specfun._TINY:
            c = specfun._TINY
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < specfun._TINY:
            d = specfun._TINY
        c = 1.0 + aa / c
        if abs(c) < specfun._TINY:
            c = specfun._TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < specfun._REL_EPS:
            return h
    raise specfun.ConvergenceError("incomplete beta continued fraction did not converge")


def log_upper_gamma_cf_int_counter(s, x):
    """specfun._log_upper_gamma_cf with an integer counter i."""
    if x == math.inf:
        return -math.inf
    b = x + 1.0 - s
    c = 1.0 / specfun._TINY
    d = 1.0 / b
    h = d
    for i in range(1, specfun._MAX_ITER + 1):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if abs(d) < specfun._TINY:
            d = specfun._TINY
        c = b + an / c
        if abs(c) < specfun._TINY:
            c = specfun._TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < specfun._REL_EPS:
            return specfun._log_gamma_prefactor(s, x) + math.log(h)
    raise specfun.ConvergenceError("upper incomplete gamma continued fraction did not converge")


def threshold_sums_int_counter(z, kappa):
    """asymptotics._threshold_sums with an integer counter j."""
    term = 1.0
    total = moment = 0.0
    for j in range(1, z):
        term *= (1.0 - j / z) / kappa
        total += term
        moment += j * term
        if term < 1e-18 * total:
            break
    return total, moment
