"""Deep-tail regression tests against 40-digit mpmath.

Each value holds to 1e-12 relative error, or 1e-300 absolute where the
reference is below 1e-300.  The points are where P_SN used to cancel,
where its solver used to bisect over a curve that was not monotone,
where the incomplete gamma used to hit its iteration cap, the grid on
which the quadrature over kappa used to miss P(z) (by up to 0.92 at z = 2000),
and the log density of kappa, whose terms used to cancel at large z.
"""

import math

import numpy as np
import pytest
from scipy import special

from doublespend import asymptotics, race, specfun
from doublespend.race import HashSplit

from reference_tables import SWEEP_QS, SWEEP_ZS

mp = pytest.importorskip("mpmath")

DPS = 40


def split(q):
    return HashSplit.from_attacker_share(q)


def assert_close(got, ref, rel="1e-12"):
    ref = mp.mpf(ref)
    if ref < mp.mpf("1e-300"):
        assert abs(got - ref) <= mp.mpf("1e-300"), (got, ref)
    else:
        assert abs(got - ref) <= mp.mpf(rel) * ref, (got, ref)


def nakamoto_mp(q, z):
    """P_SN(z) by Nakamoto's Poisson sum, in mpmath."""
    with mp.workdps(DPS):
        q = mp.mpf(q)
        lam = q / (1 - q)
        mean = z * lam
        return 1 - mp.fsum(
            mp.exp(-mean) * mean**k / mp.factorial(k) * (1 - lam ** (z - k))
            for k in range(z)
        )


def conditional_mp(q, z, kappa):
    """P(z, kappa) = P(z, kappa z lam) + lam^z e^{kappa z (1-lam)} Q(z, kappa z)."""
    with mp.workdps(DPS):
        q = mp.mpf(q)
        lam = q / (1 - q)
        x = mp.mpf(kappa) * z
        head = mp.gammainc(z, 0, x * lam, regularized=True)
        tail = mp.exp(z * mp.log(lam) + x * (1 - lam)) * mp.gammainc(
            z, x, mp.inf, regularized=True
        )
        return head + tail


@pytest.mark.parametrize("z, magnitude", [(60, 1.45e-17), (100, 1.25e-28)])
def test_nakamoto_deep_tail(z, magnitude):
    got = race.nakamoto_probability(split(0.2), z)
    assert got == pytest.approx(magnitude, rel=1e-2)
    assert_close(got, nakamoto_mp(0.2, z))


@pytest.mark.parametrize("q", [0.05, 0.2, 0.35, 0.45, 0.49])
def test_nakamoto_strictly_decreasing(q):
    s = split(q)
    logs = [race._log_nakamoto(s, z) for z in range(1, 10_001)]
    assert all(b < a for a, b in zip(logs, logs[1:]))
    # the array path z0_sharp compares over whole blocks of ranks
    assert np.all(np.diff(race._log_nakamoto(s, np.arange(1, 10_001))) < 0)
    # below 1e-300 the doubles thin out into subnormals, where neighbours can tie
    values = [race.nakamoto_probability(s, z) for z in range(1, 10_001)]
    assert all(b < a if a > 1e-300 else b <= a for a, b in zip(values, values[1:]))


def test_nakamoto_solver_crossing_at_1e_17():
    assert race.confirmations_required(split(0.2), 1e-17, use_nakamoto=True) == 61
    assert nakamoto_mp(0.2, 60) >= mp.mpf("1e-17") > nakamoto_mp(0.2, 61)


def test_conditional_where_tail_needs_log_path():
    q, z, kappa = 0.3, 10_000, 2.33
    # Q(z, kappa z) underflows, so its log comes from the continued fraction
    assert special.gammaincc(z, kappa * z) < 1e-300
    assert_close(race.conditional_probability(split(q), z, kappa),
                 conditional_mp(q, z, kappa))


@pytest.mark.parametrize("q, kappa", [(0.3, 2.2), (0.45, 1.15)])
def test_million_confirmations_in_log_space(q, kappa):
    # kappa lam is just below 1, where ln P(z, kappa z lam) comes from
    # hyp1f1; the value underflows, so its log is what is held
    z = 10**6
    s = split(q)
    assert_close(race.conditional_probability(s, z, kappa), conditional_mp(q, z, kappa))
    with mp.workdps(DPS):
        ref = mp.log(conditional_mp(q, z, kappa))
    assert abs(race._log_conditional(s, z, kappa) - ref) <= 1e-12 * abs(ref)


# (s, x) pairs where the value sits near 1e-295 (scipy path) and near
# 1e-305 (log-space path)
UPPER_POINTS = [(6.0, 707.29), (6.0, 730.48), (100.0, 1004.55), (100.0, 1030.05)]
LOWER_POINTS = [(6.0, 2.0396e-49), (6.0, 4.3943e-51), (100.0, 0.042647), (100.0, 0.033872)]


@pytest.mark.parametrize("s, x", UPPER_POINTS)
def test_log_upper_gamma_agrees_across_switch(s, x):
    cf = specfun._log_upper_gamma_cf(s, x)
    assert abs(cf - math.log(special.gammaincc(s, x))) <= 1e-12
    with mp.workdps(DPS):
        ref = mp.log(mp.gammainc(s, x, mp.inf, regularized=True))
    assert abs(specfun.log_reg_upper_gamma_q(s, x) - ref) <= 1e-12


@pytest.mark.parametrize("s, x", LOWER_POINTS)
def test_log_lower_gamma_agrees_across_switch(s, x):
    series = specfun._log_lower_gamma_kummer(s, x)
    assert abs(series - math.log(special.gammainc(s, x))) <= 1e-12
    with mp.workdps(DPS):
        ref = mp.log(mp.gammainc(s, 0, x, regularized=True))
    assert abs(specfun.log_reg_lower_gamma_p(s, x) - ref) <= 1e-12


def test_switch_points_straddle_the_threshold():
    for points, fn in ((UPPER_POINTS, special.gammaincc), (LOWER_POINTS, special.gammainc)):
        values = [fn(s, x) for s, x in points]
        assert values[0] > 1e-300 > values[1]
        assert values[2] > 1e-300 > values[3]


def log_gamma_tail_mp(s, x, upper):
    """ln Q(s, x) if ``upper``, else ln P(s, x), for integer s in mpmath:
    the Poisson sums Q = P[Poisson(x) < s] and P = P[Poisson(x) >= s],
    summed outwards from their term at k = s - 1 or k = s.  All terms are
    positive, so nothing cancels; mpmath's own gammainc does not converge
    for the upper function at large s."""
    with mp.workdps(DPS):
        x = mp.mpf(x)
        k = s - 1 if upper else s
        log_first = k * mp.log(x) - x - mp.loggamma(k + 1)
        term = total = mp.mpf(1)
        while term > total * mp.mpf(10) ** -(DPS + 2) and k > 0:
            term *= k / x if upper else x / (k + 1)
            k += -1 if upper else 1
            total += term
        return log_first + mp.log(total)


@pytest.mark.parametrize("s", [6, 21, 22, 100, 10**3, 10**4, 10**5, 10**6])
def test_log_gamma_tails_within_ulps(s):
    # below 1e-300 on both sides of s, from next to the 1e-300 switch out to
    # x far from s; each within 8 ulps of its log, or of 1
    lower = special.gammaincinv(s, 1e-300) * np.array([1 - 1e-4, 0.9, 0.5, 1e-3])
    upper = special.gammainccinv(s, 1e-300) * np.array([1 + 1e-4, 1.1, 2.0, 100.0])
    assert special.gammainc(s, lower).max() < 1e-300 > special.gammaincc(s, upper).max()
    for fn, xs, is_upper in (
        (specfun.log_reg_lower_gamma_p, lower, False),
        (specfun.log_reg_upper_gamma_q, upper, True),
    ):
        for x in xs.tolist():
            got = fn(float(s), x)
            ref = log_gamma_tail_mp(s, x, is_upper)
            assert abs(got - ref) <= 8 * 2.0**-52 * max(1, abs(ref)), (s, x, got, ref)


def log_success_closed_mp(q, z_max):
    """ln I_s(z, 1/2) for z = 2..z_max in mpmath: one betainc at z_max, then
    I_s(z, 1/2) = I_s(z + 1, 1/2) + t(z) downwards, where
    t(z) = s^z (1 - s)^(1/2) / (z B(z, 1/2)) and t(z) / t(z + 1) = (z + 1) / ((z + 1/2) s).
    Every step adds a positive term, so nothing cancels."""
    with mp.workdps(DPS):
        s = mp.mpf(split(q).s)
        value = mp.betainc(z_max, 0.5, 0, s, regularized=True)
        term = mp.exp(
            mp.loggamma(z_max + 0.5) - mp.loggamma(z_max + 1) - mp.loggamma(0.5)
            + z_max * mp.log(s) + 0.5 * mp.log(1 - s)
        )
        logs = [mp.log(value)]
        for z in range(z_max - 1, 1, -1):
            term *= (z + 1) / ((z + mp.mpf(0.5)) * s)
            value += term
            logs.append(mp.log(value))
        return logs[::-1]


@pytest.mark.parametrize("q", [0.001, 0.1, 0.3, 0.45])
def test_log_success_closed_array(q):
    # at q = 0.001 every rank from 133 on is below 1e-300, on the log fallback
    got = race._log_success_closed(split(q), np.arange(2, 2001))
    for z, value, ref in zip(range(2, 2001), got, log_success_closed_mp(q, 2000)):
        assert abs(value - ref) <= mp.mpf("1e-13") * abs(ref), (z, value, ref)


def test_z0_sharp_near_half():
    s = split(0.499)
    assert 2 <= asymptotics.z0_sharp(s) <= asymptotics.z0_sufficient(s)


def success_mp(q, z):
    """P(z) = I_{4pq}(z, 1/2) = 2 P[Binomial(2z - 1, q) >= z] in mpmath: a sum
    of positive terms whose ratio is at most q/p, so nothing cancels."""
    with mp.workdps(DPS):
        q = mp.mpf(q)
        p = 1 - q
        n = 2 * z - 1
        term = mp.exp(mp.loggamma(n + 1) - mp.loggamma(z + 1) - mp.loggamma(z)
                      + z * mp.log(q) + (z - 1) * mp.log(p))
        total = term
        for j in range(z, n):
            term *= (n - j) * q / ((j + 1) * p)
            total += term
            if term < total * mp.mpf(10) ** -(DPS + 2):
                break
        return 2 * total


@pytest.mark.parametrize("z", [1, 2, 6, 24, 100, 500, 2000, 5000])
@pytest.mark.parametrize("q", [0.05, 0.1, 0.2, 0.3, 0.4, 0.45, 0.5])
def test_quadrature_recovers_p(q, z):
    got = race.recover_p_by_quadrature(split(q), z)
    if q == 0.5:
        assert got == 1.0
    assert_close(got, success_mp(q, z))


@pytest.mark.parametrize(
    "q, z, rel",
    [(0.45, 2 * 10**4, "1e-12"), (0.49, 10**5, "1e-12"),
     # here ln P(z, kappa) itself is off by about 1e-10
     (0.499, 10**6, "1e-9"),
     # the window spans two cells of a 256-point bound grid, which gave 4.1e-10
     (0.4999, 10**6, "1e-12")],
)
def test_quadrature_recovers_p_at_large_z(q, z, rel):
    got = race.recover_p_by_quadrature(split(q), z)
    assert math.isfinite(got)
    assert_close(got, success_mp(q, z), rel)


def threshold_lhs_mp(z, kappa):
    """sum_{j=1}^{z-1} prod_{i<=j} (1 - i/z) / kappa^j in mpmath."""
    with mp.workdps(DPS):
        kappa = mp.mpf(kappa)
        term, total = mp.mpf(1), mp.mpf(0)
        for j in range(1, z):
            term *= (1 - mp.mpf(j) / z) / kappa
            total += term
            if term < total * mp.mpf(10) ** -(DPS + 2):
                break
        return total


@pytest.mark.parametrize("z", [*SWEEP_ZS, 10**5])
@pytest.mark.parametrize("q", SWEEP_QS)
def test_kappa_threshold_brackets_root(q, z):
    # the left side decreases in kappa, so it crosses lam/(1-lam) inside a
    # relative bracket of 1e-12 around the answer
    kappa = mp.mpf(asymptotics.kappa_threshold(split(q), z))
    with mp.workdps(DPS):
        target = mp.mpf(q) / (1 - 2 * mp.mpf(q))
        rel = mp.mpf("1e-12")
        assert threshold_lhs_mp(z, kappa * (1 - rel)) > target > threshold_lhs_mp(
            z, kappa * (1 + rel)
        )


@pytest.mark.parametrize("z", [1, 2, 21, 22, 100, 5000, 10**6])
def test_log_kappa_density(z):
    # within 8 standard deviations of the peak at kappa = 1, where
    # z ln z - lgamma(z) + (z - 1) ln kappa - z kappa cancels to 7.8e-10 at z = 10^6
    kappa = 1.0 + np.linspace(-8.0, 8.0, 33) / math.sqrt(z)
    kappa = kappa[kappa > 0.0]
    got = race._log_kappa_density(z, kappa)
    with mp.workdps(DPS):
        for k, value in zip(kappa, got):
            ref = z * mp.log(z) - mp.loggamma(z) + (z - 1) * mp.log(k) - z * mp.mpf(k)
            assert abs(value - ref) <= mp.mpf("1e-12"), (k, value, ref)
