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
from hypothesis import given, settings
from hypothesis import strategies as st
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


def conditional_mp(q, z, kappa, dps=DPS):
    """P(z, kappa) = P(z, kappa z lam) + lam^z e^{kappa z (1-lam)} Q(z, kappa z)."""
    with mp.workdps(dps):
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
    # and on the array path
    assert np.all(np.diff(race._log_nakamoto(s, np.arange(1, 10_001))) < 0)
    # below 1e-300 the doubles thin out into subnormals, where neighbours can tie
    values = [race.nakamoto_probability(s, z) for z in range(1, 10_001)]
    assert all(b < a if a > 1e-300 else b <= a for a, b in zip(values, values[1:]))


# The geometric law's gap f(x) - g(x) is p^x d of f(x), d = 1 - 2q: about
# 1e-76 of it at x = 200 next to q = 1/2, so the sums need more digits.
STEP_DPS = 120


def step_mp(q, x, law):
    """(f(x), g(x)) of confirmations_required's step inequality in mpmath:
    f(x) = min(1, lam^x) and g(x) = E f(x + 1 - M), summed over the law of
    M, Poisson(lam) for P_SN or P[M = m] = p q^m for P."""
    with mp.workdps(STEP_DPS):
        q = mp.mpf(q)
        p = 1 - q
        lam = q / p
        if law == "poisson":
            weight = mp.exp(-lam)
            beyond = mp.gammainc(x + 2, 0, lam, regularized=True)  # P[M >= x + 2]
        else:
            weight = p
            beyond = q ** (x + 2)
        # f(x + 1 - m) is lam^(x + 1 - m) for m <= x + 1, and 1 beyond
        terms, power = [], lam ** (x + 1)
        for m in range(x + 2):
            terms.append(weight * power)
            weight *= lam / (m + 1) if law == "poisson" else q
            power /= lam
        return lam**x, mp.fsum(terms) + beyond


@given(
    q=st.floats(0.0, 0.5, exclude_min=True, exclude_max=True),
    x=st.integers(1, 200),
    law=st.sampled_from(["poisson", "geometric"]),
)
@settings(max_examples=100, deadline=None)
def test_step_inequality(q, x, law):
    # the step from z to z + 1 that makes P and P_SN strictly decrease
    # (race.confirmations_required's docstring)
    f, g = step_mp(q, x, law)
    assert g < f


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
    assert abs(race._log_conditional(s.q, z, kappa) - ref) <= 1e-12 * abs(ref)


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


@pytest.mark.parametrize("q", [0.499, 0.4999, 0.49999])
def test_z0_sharp_near_half(q):
    s = split(q)
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


# The near-1/2 ledger: the asymptotic formulas and bounds against 60-digit
# mpmath at the double q, each held to the ulp-scaled gate on ln v.  Near
# q = 1/2, 1 - s, ln s and c(q/p) used to be formed by cancellation, and
# lost about 1/d^2 or 1/d ulps, d = 1 - 2q (1.7e-5 relative at q = 0.499999).
LEDGER_DPS = 60
NEAR_HALF_QS = [0.499, 0.4999, 0.49999, 0.499999]


def within_ulps(got, ref, k=8):
    """|ln got - ln ref| <= k eps max(1, |ln ref|) for positive values."""
    with mp.workdps(LEDGER_DPS):
        log_ref = mp.log(ref)
        return abs(mp.log(got) - log_ref) <= k * 2.0**-52 * max(1, abs(log_ref))


def c_mp(x):
    with mp.workdps(LEDGER_DPS):
        return x - 1 - mp.log(x)


def asymptotics_mp(q, z):
    """Each asymptotic formula and bound, by name, at the double q."""
    with mp.workdps(LEDGER_DPS):
        q = mp.mpf(q)
        p = 1 - q
        s, lam = 4 * p * q, q / p
        upper = s**z / mp.sqrt(mp.pi * (1 - s) * z)
        decay = mp.exp(-z * c_mp(lam))
        return {
            "p_asymptotic": upper,
            "p_bounds lower": mp.sqrt(z / (z + mp.mpf(0.5))) * s**z / mp.sqrt(mp.pi * z),
            "p_bounds upper": upper,
            "psn_asymptotic": decay / 2,
            "psn_upper_bound": decay / ((1 - lam) * mp.sqrt(2 * mp.pi * z)) + decay / 2,
        }


def assert_asymptotics_within_ulps(q, z):
    s = split(q)
    lower, upper = asymptotics.p_bounds(s, z)
    got = {
        "p_asymptotic": asymptotics.p_asymptotic(s, z),
        "p_bounds lower": lower,
        "p_bounds upper": upper,
        "psn_asymptotic": asymptotics.psn_asymptotic(s, z),
        "psn_upper_bound": asymptotics.psn_upper_bound(s, z),
    }
    for name, ref in asymptotics_mp(q, z).items():
        assert within_ulps(got[name], ref), (name, q, z, got[name], ref)
    # c_function's own argument is lam rounded to a double
    assert within_ulps(asymptotics.c_function(s.lam), c_mp(mp.mpf(s.lam))), q


def z0_sufficient_mp(q):
    """max(first, second) of z0_sufficient at the double q, unrounded, with
    the decay-rate gap psi = c(q/p) - ln(1/s) as defined."""
    with mp.workdps(LEDGER_DPS):
        q = mp.mpf(q)
        p = 1 - q
        psi = c_mp(q / p) + mp.log(4 * p * q)
        first = 2 / (mp.pi * (1 - q / p) ** 2)
        root2 = mp.sqrt(2)
        second = 1 / (2 * root2) - (1 + 1 / root2) / 2 * mp.log(2 * psi / mp.pi) / psi
        return max(first, second)


@pytest.mark.parametrize("z", [10, 10**3, 10**5])
@pytest.mark.parametrize("q", NEAR_HALF_QS)
def test_asymptotics_near_half(q, z):
    assert_asymptotics_within_ulps(q, z)
    # the decay rate at lam = q/p itself, not at lam rounded
    with mp.workdps(LEDGER_DPS):
        assert within_ulps(race._c_lam(split(q)), c_mp(mp.mpf(q) / (1 - mp.mpf(q))))


@pytest.mark.parametrize("kappa", [0.3, 0.7, 1.3, 1.9])
@pytest.mark.parametrize("z", [10, 10**3, 10**4])
@pytest.mark.parametrize("q", NEAR_HALF_QS)
def test_conditional_near_half(q, z, kappa):
    # 1 - lam and ln lam formed from the rounded lam = q/p lost about 1/d ulps
    # each; they put P(10^4, 0.3) at q = 0.49999 off by 1.0e-12 relative
    got = race.conditional_probability(split(q), z, kappa)
    assert within_ulps(got, conditional_mp(q, z, kappa, LEDGER_DPS)), (q, z, kappa)


@pytest.mark.parametrize("q, kappa", [(1e-300, 1e-30), (0.1, 5e-324)])
def test_conditional_where_kappa_z_lam_underflows(q, kappa):
    # kappa z lam underflows to 0 here, where ln P(z, 0) used to be rejected;
    # P(1, kappa) tends to lam as kappa -> 0
    ref = conditional_mp(q, 1, kappa, LEDGER_DPS)
    assert kappa * q / (1.0 - q) == 0.0
    assert within_ulps(race.conditional_probability(split(q), 1, kappa), ref)


def test_conditional_over_kappa_where_kappa_z_lam_underflows():
    kappas = [1e-300, 5e-324]
    got = race._conditional_over_kappa(0.1, 1, kappas)
    for value, kappa in zip(got.tolist(), kappas):
        assert within_ulps(value, conditional_mp(0.1, 1, kappa, LEDGER_DPS)), kappa


@pytest.mark.parametrize("q, n", [(0.49999, 10**5), (0.49999, 10**6), (0.499999, 10**6)])
def test_catchup_near_half(q, n):
    # (q/p)^n from the rounded lam = q/p lost about 1/d ulps per unit of
    # |ln P|, 1.4e-10 relative at q = 0.49999, n = 10^6
    with mp.workdps(LEDGER_DPS):
        ref = (mp.mpf(q) / (1 - mp.mpf(q))) ** n
    assert within_ulps(race.catchup_probability(split(q), n), ref), (q, n)


@pytest.mark.parametrize(
    "q, rank",
    [(0.499, 2756516), (0.4999, 373235403), (0.49999, 47141231049), (0.499999, 5696697124509)],
)
def test_z0_sufficient_near_half(q, rank):
    # the ψ = c(q/p) + ln s of old put the last two at 47141221448 and 5696894466839
    with mp.workdps(LEDGER_DPS):
        assert int(mp.ceil(z0_sufficient_mp(q))) == rank
    assert asymptotics.z0_sufficient(split(q)) == rank


def test_z0_sufficient_next_to_half():
    # ψ = c(q/p) + ln s rounded to -1.1e-16 here and raised ValueError
    q = math.nextafter(0.5, 0.0)
    assert within_ulps(asymptotics.z0_sufficient(split(q)), z0_sufficient_mp(q))


def test_p_bounds_where_s_rounds_to_one():
    # 1 - s rounded to 0 here and raised ZeroDivisionError
    q = 0.499999999999
    assert split(q).s == 1.0
    lower, upper = asymptotics.p_bounds(split(q), 10)
    ref = asymptotics_mp(q, 10)
    assert within_ulps(lower, ref["p_bounds lower"])
    assert within_ulps(upper, ref["p_bounds upper"])


@pytest.mark.parametrize("q, z", [(1e-300, 1), (1e-20, 10), (1e-9, 30), (0.01, 100), (0.25, 1000)])
def test_asymptotics_far_from_half(q, z):
    # ln s = log1p(-d^2) would be -inf at q = 1e-20, where ln 4pq is exact
    assert_asymptotics_within_ulps(q, z)


@pytest.mark.parametrize("x", [1 + 2.0**-30, 1 - 2.0**-30, 1 + 1e-6, 1 - 1e-6])
def test_c_function_near_one(x):
    # x - 1 - ln x loses 66000 ulps to cancellation at 1 - 2^-30
    assert within_ulps(asymptotics.c_function(x), c_mp(mp.mpf(x)))


@pytest.mark.parametrize("x", [5e-324, 1e-300, 2.0**-60, 0.25, 0.5, 1.5, 2.0, 1e300])
def test_c_function_far_from_one(x):
    # ln x taken as log1p(x - 1) would fail at x = 1e-300, where x - 1 is -1
    assert within_ulps(asymptotics.c_function(x), c_mp(mp.mpf(x)))
