"""Acceptance gate: the thirteen headline checks, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines.  Each check prints ``ACCEPTANCE n: PASS|FAIL`` before asserting,
so a red run still reports the status of every criterion.
"""

import math
from fractions import Fraction

import pytest

from doublespend import race, sim
from doublespend.asymptotics import (
    c_function,
    kappa_threshold,
    p_bounds,
    z0_sharp,
)
from doublespend.race import (
    HashSplit,
    attacker_success_closed,
    conditional_probability,
    confirmations_required,
    deviation_tail,
    nakamoto_probability,
    recover_p_by_quadrature,
)
from doublespend.sim import SimConfig, estimate_success

from reference_tables import (
    KAPPA_ROWS,
    Q_COLS,
    SATOSHI3_PERCENT,
    SATOSHI6_PERCENT,
    attacker_success_sum,
    exact_success_rational,
)

# published 7-decimal P(z) / P_SN(z) columns
TABLE_Q01 = {
    0: (1.0000000, 1.0000000),
    1: (0.2000000, 0.2045873),
    2: (0.0560000, 0.0509779),
    3: (0.0171200, 0.0131722),
    4: (0.0054560, 0.0034552),
    5: (0.0017818, 0.0009137),
    6: (0.0005914, 0.0002428),
    7: (0.0001986, 0.0000647),
    8: (0.0000672, 0.0000173),  # exact 0.000067249775936; 0.0000673 was double-rounded
    9: (0.0000229, 0.0000046),
    10: (0.0000079, 0.0000012),
}
TABLE_Q03 = {
    0: (1.0000000, 1.0000000),
    5: (0.1976173, 0.1773523),
    10: (0.0651067, 0.0416605),
    15: (0.0233077, 0.0101008),
    20: (0.0086739, 0.0024804),
    25: (0.0033027, 0.0006132),
    30: (0.0012769, 0.0001522),
    35: (0.0004991, 0.0000379),
    40: (0.0001967, 0.0000095),
    45: (0.0000780, 0.0000024),
    50: (0.0000311, 0.0000006),
}

CONFIRMATION_QS = (0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45)
EXPECTED_Z = (6, 9, 13, 20, 32, 58, 133, 539)
# P_SN(88)=1.06e-3, P_SN(89)=9.87e-4; Nakamoto 2008 §11 also lists 89
EXPECTED_Z_SN = (5, 8, 11, 15, 24, 41, 89, 340)

Q_GRID = tuple(round(0.05 * i, 2) for i in range(1, 10))


def split(q):
    return HashSplit.from_attacker_share(q)


def verdict(number, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"\nACCEPTANCE {number}: {status}")
    assert not failures, f"criterion {number}: " + "; ".join(failures[:5])


def table_failures(q, table):
    s = split(q)
    failures = []
    for z, (p_expected, psn_expected) in table.items():
        p = attacker_success_closed(s, z)
        psn = nakamoto_probability(s, z)
        if abs(p - p_expected) > 5e-8:
            failures.append(f"P({z})={p:.10f} vs {p_expected} at q={q}")
        if abs(psn - psn_expected) > 5e-8:
            failures.append(f"P_SN({z})={psn:.10f} vs {psn_expected} at q={q}")
    return failures


def test_acceptance_01_q01_table():
    verdict(1, table_failures(0.1, TABLE_Q01))


def test_acceptance_02_q03_table():
    verdict(2, table_failures(0.3, TABLE_Q03))


def test_acceptance_03_confirmation_table():
    failures = []
    for q, z, z_sn in zip(CONFIRMATION_QS, EXPECTED_Z, EXPECTED_Z_SN):
        s = split(q)
        got = confirmations_required(s, 0.001)
        got_sn = confirmations_required(s, 0.001, use_nakamoto=True)
        if got != z:
            failures.append(f"z(q={q})={got}, expected {z}")
        if got_sn != z_sn:
            failures.append(f"z_SN(q={q})={got_sn}, expected {z_sn}")
    verdict(3, failures)


def test_acceptance_04_satoshi_tables():
    failures = []
    for z, table in ((3, SATOSHI3_PERCENT), (6, SATOSHI6_PERCENT)):
        for i, kappa in enumerate(KAPPA_ROWS):
            for j, q in enumerate(Q_COLS):
                got = 100.0 * conditional_probability(split(q), z, kappa)
                if abs(got - table[i][j]) > 0.005 + 1e-9:
                    failures.append(
                        f"P({z},{kappa}) at q={q}: {got:.4f}% vs {table[i][j]}%"
                    )
    verdict(4, failures)


def test_acceptance_05_sum_closed_equivalence():
    failures = []
    worst = 0.0
    for q in Q_GRID:
        s = split(q)
        for z in range(1, 201):
            diff = abs(attacker_success_sum(s, z) - attacker_success_closed(s, z))
            worst = max(worst, diff)
            if diff > 1e-10:
                failures.append(f"|sum-closed|={diff:.2e} at q={q}, z={z}")
    print(f"\n  max |sum - closed| = {worst:.2e}")
    verdict(5, failures)


def test_acceptance_06_quadrature_recovery():
    failures = []
    for q in (0.1, 0.3):
        s = split(q)
        for z in range(1, 31):
            diff = abs(recover_p_by_quadrature(s, z) - attacker_success_closed(s, z))
            if diff > 1e-8:
                failures.append(f"quadrature off by {diff:.2e} at q={q}, z={z}")
    verdict(6, failures)


def test_acceptance_07_conditional_consistency():
    failures = []
    for q in Q_GRID:
        s = split(q)
        for z in range(1, 101):
            diff = abs(conditional_probability(s, z, 1.0) - nakamoto_probability(s, z))
            if diff > 1e-12:
                failures.append(f"|P(z,1)-P_SN|={diff:.2e} at q={q}, z={z}")
    verdict(7, failures)


def test_acceptance_08_kappa_tail():
    failures = []
    tail6 = deviation_tail(6, 4.0)
    tail10 = deviation_tail(10, 4.0)
    if not 2.5e-6 <= tail6 <= 3.5e-6:
        failures.append(f"deviation_tail(6,4)={tail6:.3e}")
    if not 3.5e-9 <= tail10 <= 4.5e-9:
        failures.append(f"deviation_tail(10,4)={tail10:.3e}")
    verdict(8, failures)


def test_acceptance_09_bounds():
    failures = []
    for q in Q_GRID:
        s = split(q)
        for z in range(1, 201):
            lo, hi = p_bounds(s, z)
            exact = attacker_success_closed(s, z)
            if not lo <= exact <= hi:
                failures.append(f"p_bounds miss at q={q}, z={z}")
            # P_SN drowns in summation noise below ~1e-13, so strict
            # dominance is certified on logarithms via the tail-stable
            # route (validated against the direct sum in the unit tests)
            log_bound = -z * c_function(s.lam) + math.log(
                1.0 / ((1.0 - s.lam) * math.sqrt(2.0 * math.pi * z)) + 0.5
            )
            if not log_bound > race._log_nakamoto(s, z):
                failures.append(f"psn bound not dominant at q={q}, z={z}")
            psn = nakamoto_probability(s, z)
            if psn > 1e-10 and not math.exp(log_bound) > psn:
                failures.append(f"psn bound below direct sum at q={q}, z={z}")
    verdict(9, failures)


def test_acceptance_10_sharp_z0_table():
    published = [0.000, 0.232, 0.305, 0.342, 0.365,
                 0.381, 0.393, 0.401, 0.409, 0.415]
    failures = []
    for k, expected in zip(range(2, 12), published):
        if expected == 0.0:
            if z0_sharp(split(0.001)) != 2:
                failures.append("z0 at tiny q is not 2")
            continue
        lo, hi = 0.001, 0.4999
        while hi - lo > 1e-5:
            mid = 0.5 * (lo + hi)
            if z0_sharp(split(mid)) >= k:
                hi = mid
            else:
                lo = mid
        boundary = 0.5 * (lo + hi)
        if abs(boundary - expected) > 0.001:
            failures.append(f"z0={k} boundary {boundary:.5f} vs {expected}")
    verdict(10, failures)


def test_acceptance_11_kappa_threshold():
    failures = []
    for i in range(1, 10):
        q = 0.05 * i
        got = kappa_threshold(split(q), 2)
        expected = 1.0 / (2.0 * q) - 1.0
        if abs(got - expected) > 1e-10:
            failures.append(f"kappa(2) at q={q:.2f}: {got} vs {expected}")
    s = split(0.1)
    values = [kappa_threshold(s, z) for z in (2, 3, 5, 10, 25, 50, 100)]
    if not all(b > a for a, b in zip(values, values[1:])):
        failures.append("kappa(z) not increasing at q=0.1")
    correction = 9.0 - kappa_threshold(s, 100)
    if abs(correction - 0.10125) > 0.10 * 0.10125:
        failures.append(f"kappa(100) correction {correction:.5f} vs 0.10125")
    verdict(11, failures)


def test_acceptance_12_monte_carlo():
    failures = []
    for q, z in ((0.1, 1), (0.3, 5), (0.1, 6)):
        s = split(q)
        net = race.NetworkParams.for_split(s)
        result = estimate_success(s, net, SimConfig(trials=1_000_000, seed=7, z=z))
        exact = attacker_success_closed(s, z)
        if abs(result.p_hat - exact) > 4.0 * result.std_err:
            failures.append(
                f"p_hat={result.p_hat} vs {exact} at q={q}, z={z} "
                f"(4se={4 * result.std_err:.2e})"
            )
    s = split(0.1)
    net = race.NetworkParams.for_split(s)
    cfg = SimConfig(trials=200_000, seed=42, z=6)
    first = repr(estimate_success(s, net, cfg)).encode()
    second = repr(estimate_success(s, net, cfg)).encode()
    if first != second:
        failures.append("seed-42 runs are not byte-identical")
    verdict(12, failures)


def test_acceptance_13_asymptotics():
    failures = []
    for q in (0.1, 0.2, 0.3):
        s = split(q)

        def log_p_asym(z):
            return z * math.log(s.s) - 0.5 * math.log(math.pi * (1.0 - s.s) * z)

        def log_psn_asym(z):
            return math.log(0.5) - z * c_function(s.lam)

        # deep-tail values are compared on logarithms (they underflow or
        # drown in noise in linear space at z >= 200)
        r200 = math.exp(log_p_asym(200) - race._log_success_closed(s, 200))
        r400 = math.exp(log_p_asym(400) - race._log_success_closed(s, 400))
        n200 = math.exp(log_psn_asym(200) - race._log_nakamoto(s, 200))
        n400 = math.exp(log_psn_asym(400) - race._log_nakamoto(s, 400))
        if not 0.8 <= r200 <= 1.2:
            failures.append(f"P ratio {r200:.3f} at q={q}, z=200")
        if not abs(r400 - 1.0) < abs(r200 - 1.0):
            failures.append(f"P ratio not improving at q={q}")
        if not 0.8 <= n200 <= 1.2:
            failures.append(f"P_SN ratio {n200:.3f} at q={q}, z=200")
        if not abs(n400 - 1.0) < abs(n200 - 1.0):
            failures.append(f"P_SN ratio not improving at q={q}")

        at_ratio = conditional_probability(s, 400, s.p / s.q)
        if not 0.45 <= at_ratio <= 0.55:
            failures.append(f"P(400, p/q)={at_ratio:.4f} at q={q}")
    verdict(13, failures)


def nakamoto_mp(q_frac, z):
    """P_SN(z) to 40 digits: Nakamoto's Poisson sum, evaluated in mpmath."""
    import mpmath

    with mpmath.workdps(40):
        lam = mpmath.mpf(q_frac.numerator) / (q_frac.denominator - q_frac.numerator)
        mean = z * lam
        return 1 - mpmath.fsum(
            mpmath.exp(-mean) * mean**k / mpmath.factorial(k) * (1 - lam ** (z - k))
            for k in range(z + 1)
        )


def test_reference_data_matches_exact_oracles():
    """The frozen values above are checked against oracles that share no
    code with the library: each table cell is the 7-decimal rounding of
    the exact value, and each confirmation count is the strict crossing
    P(z - 1) >= 0.001 > P(z)."""
    mpmath = pytest.importorskip("mpmath")
    risk = Fraction(1, 1000)
    wrong = []
    for q, table in ((Fraction(1, 10), TABLE_Q01), (Fraction(3, 10), TABLE_Q03)):
        for z, (p_cell, psn_cell) in table.items():
            cell = round(p_cell * 10**7)
            if round(exact_success_rational(q, z) * 10**7) != cell:
                wrong.append(f"P({z}) cell {p_cell} at q={q}")
            cell = round(psn_cell * 10**7)
            if int(mpmath.nint(nakamoto_mp(q, z) * 10**7)) != cell:
                wrong.append(f"P_SN({z}) cell {psn_cell} at q={q}")
    for q, z, z_sn in zip(CONFIRMATION_QS, EXPECTED_Z, EXPECTED_Z_SN):
        q = Fraction(str(q))
        if not exact_success_rational(q, z - 1) >= risk > exact_success_rational(q, z):
            wrong.append(f"z={z} does not cross the risk at q={q}")
        before, after = nakamoto_mp(q, z_sn - 1), nakamoto_mp(q, z_sn)
        if not before >= mpmath.mpf(risk.numerator) / risk.denominator > after:
            wrong.append(f"z_SN={z_sn} does not cross the risk at q={q}")
    assert not wrong, "; ".join(wrong)
