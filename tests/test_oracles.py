"""The mpmath references of oracles.py at the corners of their domain.

Each must return there, where mpmath's betainc and gammainc raise
NoConvergence, and each value must meet what is known of it: P(z) lies
inside the rigorous bracket of p_bounds, P_SN below psn_upper_bound,
P(z, kappa) rises with kappa, and at z = 1 each sum meets its closed form.
"""

import mpmath as mp
import pytest

from oracles import (
    DPS,
    asymptotics_mp,
    c_mp,
    conditional_mp,
    log_gamma_tail_mp,
    log_success_closed_mp,
    nakamoto_mp,
    success_mp,
    threshold_lhs_mp,
    z0_sufficient_mp,
)

CORNER_QS = [1e-300, 0.001, 0.499999]
CORNER_ZS = [1, 10**6]
CORNER_KAPPAS = [1e-3, 1.0, 1e3]
CLOSE = mp.mpf("1e-30")


def lam_mp(q):
    with mp.workdps(DPS):
        q = mp.mpf(q)
        return q / (1 - q)


@pytest.mark.parametrize("z", CORNER_ZS)
@pytest.mark.parametrize("q", [*CORNER_QS, 0.3])
def test_probabilities_at_corners(q, z):
    # q = 0.3 at z = 10^6 is where betainc(z, 1/2, 0, 4pq) raised NoConvergence
    bounds = asymptotics_mp(q, z)
    exact = success_mp(q, z)
    assert bounds["p_bounds lower"] <= exact <= bounds["p_bounds upper"], (q, z)
    # P_SN is P(z, 1)
    values = [conditional_mp(q, z, 1e-3), nakamoto_mp(q, z), conditional_mp(q, z, 1e3)]
    assert values[1] <= bounds["psn_upper_bound"], (q, z)
    assert 0 < values[0] <= values[1] <= values[2] <= 1, (q, z, values)
    if z == 1:
        # P(1) = 2q, and P(1, kappa) = P[N >= 1] + lam P[N = 0], N ~ Poisson(kappa lam)
        assert abs(exact - 2 * mp.mpf(q)) <= CLOSE * exact
        lam = lam_mp(q)
        for kappa, value in zip(CORNER_KAPPAS, values):
            with mp.workdps(DPS):
                ref = -mp.expm1(-kappa * lam) + lam * mp.exp(-kappa * lam)
            assert abs(value - ref) <= CLOSE * ref, (q, kappa)


def test_conditional_where_lower_gammainc_failed():
    # mpmath's lower gammainc raised NoConvergence here
    q, z = 0.49999, 10**5
    assert nakamoto_mp(q, z) <= conditional_mp(q, z, 1.3) <= 1


@pytest.mark.parametrize("kappa", CORNER_KAPPAS)
@pytest.mark.parametrize("z", CORNER_ZS)
def test_gamma_tails_at_corners(z, kappa):
    x = kappa * z
    log_lower = log_gamma_tail_mp(z, x, upper=False)
    log_upper = log_gamma_tail_mp(z, x, upper=True)
    assert log_lower <= 0 and log_upper <= 0
    if z == 1:
        # P(1, x) = 1 - e^-x and Q(1, x) = e^-x
        assert abs(log_upper + x) <= CLOSE * x
        with mp.workdps(DPS):
            ref = mp.log(-mp.expm1(-x))
        assert abs(log_lower - ref) <= CLOSE * abs(ref)


@pytest.mark.parametrize("q", CORNER_QS)
def test_log_success_closed_at_corners(q):
    # the recurrence takes z_max steps, so it is run to 100, not to 10^6
    logs = log_success_closed_mp(q, 100)
    for z, value in ((2, logs[0]), (100, logs[-1])):
        with mp.workdps(DPS):
            ref = mp.log(success_mp(q, z))
        assert abs(value - ref) <= CLOSE * max(1, abs(ref)), (q, z)


@pytest.mark.parametrize("q", CORNER_QS)
def test_ledger_references_at_corners(q):
    assert c_mp(lam_mp(q)) > 0
    assert z0_sufficient_mp(q) > 0


def test_threshold_sum_at_corners():
    for kappa in CORNER_KAPPAS:
        assert threshold_lhs_mp(1, kappa) == 0
        with mp.workdps(DPS):
            ref = 1 / (2 * mp.mpf(kappa))
        assert abs(threshold_lhs_mp(2, kappa) - ref) <= CLOSE * ref
    # at kappa = 1 the sum is Ramanujan's Q(z) - 1, which is
    # sqrt(pi z / 2) - 4/3 + sqrt(pi / (2 z)) / 12 - 4 / (135 z) + O(z^-3/2)
    z = 10**6
    with mp.workdps(DPS):
        ref = (mp.sqrt(mp.pi * z / 2) - mp.mpf(4) / 3
               + mp.sqrt(mp.pi / (2 * z)) / 12 - mp.mpf(4) / (135 * z))
    assert abs(threshold_lhs_mp(z, 1.0) - ref) <= 1e-10
    # each term is at most 1/kappa times the one before
    first = (1 - mp.mpf(1) / z) / 1000
    assert first < threshold_lhs_mp(z, 1e3) < first / (1 - mp.mpf(1) / 1000)
    # kappa well below 1 runs through all z - 1 terms, so kappa = 1e-3 is
    # evaluated at z = 10^3, not at 10^6, where it takes seconds
    assert threshold_lhs_mp(10**3, 1e-3) > 0
