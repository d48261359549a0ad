"""The mpmath references of the tests, one implementation per quantity.

Each reference takes the attacker share q as a float or a Fraction
(through mp.mpmathify) and its working precision as the keyword dps.
P, P_SN, P(z, kappa) and both incomplete-gamma tails are sums of positive
terms, summed outward from their largest term and stopped once a term
falls below 10^-(dps + 2) of the total, so nothing cancels and each
value holds to about dps digits at any magnitude, far below the least
double.  Their domain is q in (0, 1/2), z from 1 to 10^7 and kappa from
1e-3 to 1e3; each call there takes at most a few tenths of a second.

mpmath's own routes fail on that domain: betainc(z, 1/2, 0, 4pq) raises
NoConvergence at q = 0.3, z = 10^6, the lower gammainc at z = 10^5 next
to q = 1/2, and 1 - I_{d^2}(1/2, z) is 0.0 at q = 0.3, z = 10^4, where
P = 8.75e-760.  Nakamoto's 1 - sum keeps only dps + log10 P_SN digits.

The sums are those of perfbench/oracle.py, at the same 40 digits, so the
benchmark's references and these agree.
"""

import functools

import mpmath as mp

DPS = 40
# the asymptotic formulas are held to a few ulps of their logs next to
# q = 1/2, where their terms cancel; 60 digits leave room for that
LEDGER_DPS = 60


def _tolerance():
    """Every sum stops at a term below this share of its total."""
    return mp.mpf(10) ** -(mp.mp.dps + 2)


def _split(q):
    q = mp.mpmathify(q)
    return q, 1 - q


def success_mp(q, z, *, dps=DPS):
    """P(z) = I_{4pq}(z, 1/2) = 2 P[Binomial(2z - 1, q) >= z]: the terms
    fall at least as fast as (q/p)^j from the first."""
    if z == 0:
        return mp.mpf(1)
    with mp.workdps(dps):
        q, p = _split(q)
        n = 2 * z - 1
        term = mp.exp(mp.loggamma(n + 1) - mp.loggamma(z + 1) - mp.loggamma(z)
                      + z * mp.log(q) + (z - 1) * mp.log(p))
        total, lam, eps = term, q / p, _tolerance()
        for j in range(z, n):
            term *= (n - j) * lam / (j + 1)
            total += term
            if term < total * eps:
                break
        return 2 * total


def poisson_split(x, z):
    """(P(z, x), Q(z, x)) = (P[Poisson(x) >= z], P[Poisson(x) < z]), the
    regularized lower and upper incomplete gamma functions at integer z,
    at the working precision.

    Sums the side away from the mode, from its term next to z, where its
    terms are largest, and takes the side that holds the mode, which is
    not small, as the complement.
    """
    return _poisson_split(mp.mpf(x), z, mp.mp.prec)


# Q(z, kappa z) does not depend on q, and tests sweep q at fixed (z, kappa)
@functools.lru_cache(maxsize=None)
def _poisson_split(x, z, prec):
    if x == 0:
        return mp.mpf(0), mp.mpf(1)
    eps = _tolerance()
    if x < z:
        term = mp.exp(-x + z * mp.log(x) - mp.loggamma(z + 1))
        total, k = term, z
        while term >= total * eps:
            k += 1
            term *= x / k
            total += term
        return total, 1 - total
    term = mp.exp(-x + (z - 1) * mp.log(x) - mp.loggamma(z))
    total, k = term, z - 1
    while k > 0 and term >= total * eps:
        term *= k / x
        k -= 1
        total += term
    return 1 - total, total


def log_gamma_tail_mp(s, x, upper, *, dps=DPS):
    """ln Q(s, x) if ``upper``, else ln P(s, x), for integer s."""
    with mp.workdps(dps):
        return mp.log(poisson_split(x, s)[1 if upper else 0])


def conditional_mp(q, z, kappa, *, dps=DPS):
    """P(z, kappa) = P(z, kappa z lam) + lam^z e^{kappa z (1 - lam)} Q(z, kappa z)
    at lam = q/p, two positive terms."""
    with mp.workdps(dps):
        q, p = _split(q)
        lam = q / p
        # exact: a double times z < 2^80 fits in 40 digits
        x = mp.mpf(kappa) * z
        return (poisson_split(x * lam, z)[0]
                + lam ** z * mp.exp(x * (1 - lam)) * poisson_split(x, z)[1])


def nakamoto_mp(q, z, *, dps=DPS):
    """P_SN(z) = P(z, 1)."""
    if z == 0:
        return mp.mpf(1)
    return conditional_mp(q, z, 1, dps=dps)


def log_success_closed_mp(q, z_max, *, dps=DPS):
    """[ln I_s(z, 1/2) for z = 2..z_max] at s = 4pq: P(z_max) from
    success_mp, then I_s(z, 1/2) = I_s(z + 1, 1/2) + t(z) downwards, where
    t(z) = s^z (1 - s)^(1/2) / (z B(z, 1/2)) and t(z) / t(z + 1) = (z + 1) / ((z + 1/2) s).
    Every step adds a positive term, so nothing cancels."""
    with mp.workdps(dps):
        q, p = _split(q)
        s = 4 * p * q
        value = success_mp(q, z_max, dps=dps)
        term = mp.exp(
            mp.loggamma(z_max + 0.5) - mp.loggamma(z_max + 1) - mp.loggamma(0.5)
            + z_max * mp.log(s) + mp.log(p - q)  # (1 - s)^(1/2) = p - q
        )
        logs = [mp.log(value)]
        for z in range(z_max - 1, 1, -1):
            term *= (z + 1) / ((z + mp.mpf(0.5)) * s)
            value += term
            logs.append(mp.log(value))
        return logs[::-1]


def threshold_lhs_mp(z, kappa, *, dps=DPS):
    """sum_{j=1}^{z-1} prod_{i<=j} (1 - i/z) / kappa^j, the left side of the
    kappa(z) equation.  It stops at a term below 10^-(dps + 2) of the sum:
    after O(sqrt(z)) terms at kappa >= 1, after all z - 1 of them where
    kappa is well below 1."""
    with mp.workdps(dps):
        kappa = mp.mpf(kappa)
        term, total, eps = mp.mpf(1), mp.mpf(0), _tolerance()
        for j in range(1, z):
            term *= (1 - mp.mpf(j) / z) / kappa
            total += term
            if term < total * eps:
                break
        return total


def c_mp(x, *, dps=LEDGER_DPS):
    """c(x) = x - 1 - ln x."""
    with mp.workdps(dps):
        return x - 1 - mp.log(x)


def asymptotics_mp(q, z, *, dps=LEDGER_DPS):
    """Each asymptotic formula and bound, by name, at q."""
    with mp.workdps(dps):
        q, p = _split(q)
        s, lam = 4 * p * q, q / p
        upper = s**z / mp.sqrt(mp.pi * (1 - s) * z)
        decay = mp.exp(-z * c_mp(lam, dps=dps))
        return {
            "p_asymptotic": upper,
            "p_bounds lower": mp.sqrt(z / (z + mp.mpf(0.5))) * s**z / mp.sqrt(mp.pi * z),
            "p_bounds upper": upper,
            "psn_asymptotic": decay / 2,
            "psn_upper_bound": decay / ((1 - lam) * mp.sqrt(2 * mp.pi * z)) + decay / 2,
        }


def z0_sufficient_mp(q, *, dps=LEDGER_DPS):
    """max(first, second) of z0_sufficient at q, unrounded, with the
    decay-rate gap psi = c(q/p) - ln(1/s) as defined."""
    with mp.workdps(dps):
        q, p = _split(q)
        psi = c_mp(q / p, dps=dps) + mp.log(4 * p * q)
        first = 2 / (mp.pi * (1 - q / p) ** 2)
        root2 = mp.sqrt(2)
        second = 1 / (2 * root2) - (1 + 1 / root2) / 2 * mp.log(2 * psi / mp.pi) / psi
        return max(first, second)
