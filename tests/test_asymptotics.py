"""Asymptotics, bounds, the comparison rank z0, and the threshold kappa(z)."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.special import erfc

from doublespend import asymptotics, race, specfun
from doublespend.asymptotics import (
    RegimeLabel,
    c_function,
    conditional_asymptotic,
    kappa_threshold,
    p_asymptotic,
    p_bounds,
    psn_asymptotic,
    psn_upper_bound,
    z0_sharp,
    z0_sufficient,
)
from doublespend.race import HashSplit, attacker_success_closed, nakamoto_probability

from reference_tables import SWEEP_QS, SWEEP_ZS, threshold_sums_int_counter, z0_block_scan


def split(q):
    return HashSplit.from_attacker_share(q)


def log_inc_beta_cf(x, a, b):
    """ln I_x(a, b) from the hand-rolled continued fraction alone, as
    specfun evaluated it before the value came from scipy's betainc."""
    if x < (a + 1.0) / (a + b + 2.0):
        return (
            specfun._log_beta_prefactor(a, b, x)
            + math.log(specfun._beta_cf(a, b, x))
            - math.log(a)
        )
    other = math.exp(specfun._log_beta_prefactor(b, a, 1.0 - x)) * specfun._beta_cf(
        b, a, 1.0 - x
    ) / b
    return math.log1p(-other)


def first_settled_rank(is_bad, window):
    """Rank-by-rank scan: one past the last bad rank, found once ``window``
    good ranks in a row follow it (rank 1 counts as bad)."""
    last_bad, good_run, w = 1, 0, 2
    while good_run < window:
        if is_bad(w):
            last_bad, good_run = w, 0
        else:
            good_run += 1
        w += 1
    return last_bad + 1


def z0_sharp_scan(s):
    """The scalar z0_sharp: a scan over scalar P_SN and scalar log-beta probes."""
    return first_settled_rank(
        lambda w: race._log_conditional(s.q, w, 1.0) >= log_inc_beta_cf(s.s, w, 0.5), 200
    )


def z0_with_bad_ranks(bad, window, proven):
    """z0_sharp with the window set to ``window``, the proven rank
    z0_sufficient set to ``proven``, and stand-in log probabilities under
    which exactly the ranks in ``bad`` are bad.  Both stand-ins strictly
    decrease in w, as the real ones do: ln P(w) = -2w, and ln P_SN(w) is
    1/2 above it at a bad rank and 1/2 below it at a good one."""
    with mock.patch.object(asymptotics, "_Z0_WINDOW", window), mock.patch.object(
        asymptotics, "z0_sufficient", lambda s: proven
    ), mock.patch.object(
        race, "_log_nakamoto", lambda s, w: -2.0 * w + (0.5 if w in bad else -0.5)
    ), mock.patch.object(race, "_log_success_closed", lambda s, w: -2.0 * w):
        return z0_sharp(split(0.3))


class TestCFunction:
    def test_zero_at_one(self):
        assert c_function(1.0) == 0.0

    def test_at_e(self):
        assert c_function(math.e) == pytest.approx(math.e - 2.0, rel=1e-14)

    def test_ninth(self):
        assert c_function(1.0 / 9.0) == pytest.approx(
            1.0 / 9.0 - 1.0 + math.log(9.0), rel=1e-14
        )

    def test_positive_away_from_one(self):
        for x in (0.01, 0.5, 2.0, 40.0):
            assert c_function(x) > 0.0

    def test_rejects_nonpositive(self):
        for x in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                c_function(x)


class TestLeadingOrder:
    def test_p_direct_value(self):
        expected = 0.36**10 / math.sqrt(math.pi * 0.64 * 10.0)
        assert p_asymptotic(split(0.1), 10) == pytest.approx(expected, rel=1e-13)
        assert expected == pytest.approx(8.15e-6, rel=0.01)

    def test_psn_direct_value(self):
        expected = 0.5 * math.exp(-50.0 * c_function(1.0 / 9.0))
        assert psn_asymptotic(split(0.1), 50) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("q", [0.1, 0.2, 0.3])
    def test_ratios_near_one_and_improving(self, q):
        # deep-tail values underflow or drown in summation noise in linear
        # space, so every ratio is taken through logarithms
        s = split(q)

        def log_p_asym(z):
            return z * math.log(s.s) - 0.5 * math.log(math.pi * (1.0 - s.s) * z)

        def log_psn_asym(z):
            return math.log(0.5) - z * c_function(s.lam)

        r200 = math.exp(log_p_asym(200) - race._log_success_closed(s, 200))
        r400 = math.exp(log_p_asym(400) - race._log_success_closed(s, 400))
        assert 0.8 <= r200 <= 1.2
        assert abs(r400 - 1.0) < abs(r200 - 1.0)

        n200 = math.exp(log_psn_asym(200) - race._log_nakamoto(s, 200))
        n400 = math.exp(log_psn_asym(400) - race._log_nakamoto(s, 400))
        assert 0.8 <= n200 <= 1.2
        assert abs(n400 - 1.0) < abs(n200 - 1.0)

    def test_ratio_improves_along_doubling_sequence(self):
        s = split(0.3)
        errors = [
            abs(p_asymptotic(s, z) / attacker_success_closed(s, z) - 1.0)
            for z in (50, 100, 200)
        ]
        assert errors[0] > errors[1] > errors[2]

    def test_decay_rate_ordering(self):
        # log(1/s) < c(q/p) strictly on the whole open interval
        for i in range(1, 100):
            s = split(i / 200.0)
            assert math.log(1.0 / s.s) < c_function(s.lam)

    def test_rejects_even_split(self):
        with pytest.raises(ValueError):
            p_asymptotic(split(0.5), 10)
        with pytest.raises(ValueError):
            psn_asymptotic(split(0.5), 10)
        with pytest.raises(ValueError):
            conditional_asymptotic(split(0.5), 10, 0.5)

    @pytest.mark.parametrize("z", [6.5, 6.0, True, "6", 0])
    def test_rejects_non_integer_z(self, z):
        # p_asymptotic(z=6.5) and p_asymptotic(z=True) used to return numbers
        s = split(0.1)
        for fn in (p_asymptotic, psn_asymptotic, p_bounds, psn_upper_bound):
            with pytest.raises(ValueError):
                fn(s, z)
        with pytest.raises(ValueError):
            conditional_asymptotic(s, z, 2.0)


class TestConditionalAsymptotic:
    def test_at_one_delegates(self):
        s = split(0.1)
        label, value = conditional_asymptotic(s, 300, 1.0)
        assert label is RegimeLabel.at_one
        assert value == pytest.approx(psn_asymptotic(s, 300), rel=1e-13)

    def test_regime_classification(self):
        s = split(0.1)  # p/q = 9
        assert conditional_asymptotic(s, 10, 0.4)[0] is RegimeLabel.below_one
        assert conditional_asymptotic(s, 10, 5.0)[0] is RegimeLabel.mid
        assert conditional_asymptotic(s, 10, 9.0)[0] is RegimeLabel.at_p_over_q
        assert conditional_asymptotic(s, 10, 15.0)[0] is RegimeLabel.above_p_over_q

    def test_below_one_tracks_first_term_only(self):
        # The stated small-kappa asymptotic describes 1 - Q(z, kappa z lam),
        # the first term of the closed form.  The closed form's second
        # term decays at rate c(kappa lam) + c(kappa) - c(kappa), i.e.
        # slower by exp(z c(kappa)), so it dominates for every kappa < 1
        # and the formula understates the full conditional probability.
        # Both facts are asserted here; everything through logarithms
        # because the values sit far below the double underflow line.
        s = split(0.1)
        z, kappa = 400, 0.5
        lam = s.lam
        log_asym = (
            -z * c_function(kappa * lam)
            - math.log(1.0 - kappa * lam)
            - 0.5 * math.log(2.0 * math.pi * z)
        )
        log_first_term = specfun.log_reg_lower_gamma_p(z, kappa * z * lam)
        assert abs(math.exp(log_asym - log_first_term) - 1.0) <= 0.15

        log_full = race._log_conditional(s.q, z, kappa)
        log_second = (
            z * math.log(lam)
            + kappa * z * (1.0 - lam)
            + specfun.log_reg_upper_gamma_q(z, kappa * z)
        )
        assert log_asym < log_second
        assert abs(math.exp(log_second - log_full) - 1.0) <= 1e-6
        # the dominance gap grows like z * c(kappa)
        assert log_second - log_asym == pytest.approx(
            z * c_function(kappa), rel=0.05
        )

    def test_mid_matches_exact(self):
        s = split(0.1)
        z, kappa = 400, 4.0
        label, value = conditional_asymptotic(s, z, kappa)
        assert label is RegimeLabel.mid
        exact = race.conditional_probability(s, z, kappa)
        assert abs(value / exact - 1.0) <= 0.15

    def test_at_ratio_converges_to_half(self):
        s = split(0.1)
        label, value = conditional_asymptotic(s, 400, 9.0)
        assert label is RegimeLabel.at_p_over_q
        assert 0.45 < value < 0.55

    @pytest.mark.parametrize("q", [0.1, 0.3])
    @pytest.mark.parametrize("z", [10**3, 10**4, 10**5])
    def test_at_ratio_correction_rate(self, q, z):
        # (P(z, p/q) - 1/2) sqrt(2 pi z) tends to 1/3 + q/(p-q), so the
        # correction must be of order 1/sqrt(z); a 1/z correction misses
        # P(z, p/q) here by about 1 on this scale
        s = split(q)
        kappa = s.p / s.q
        label, value = conditional_asymptotic(s, z, kappa)
        assert label is RegimeLabel.at_p_over_q
        exact = race.conditional_probability(s, z, kappa)
        assert abs(value - exact) * math.sqrt(2.0 * math.pi * z) <= 0.01

    def test_above_ratio_matches_exact_complement(self):
        # 1 - P is ~4e-76 here, so 1.0 - returned value cancels to zero in
        # doubles; compare the tail formula against the exact complement,
        # both assembled from representable pieces
        s = split(0.1)
        z, kappa = 400, 20.0
        lam = s.lam
        label, value = conditional_asymptotic(s, z, kappa)
        assert label is RegimeLabel.above_p_over_q
        assert value == 1.0  # complement below double resolution

        tail_exact = specfun.reg_upper_gamma_q(z, kappa * z * lam) - math.exp(
            z * math.log(lam)
            + kappa * z * (1.0 - lam)
            + specfun.log_reg_upper_gamma_q(z, kappa * z)
        )
        coef = kappa * (1.0 - lam) / ((kappa - 1.0) * (kappa * lam - 1.0))
        log_tail_formula = (
            math.log(coef)
            - z * c_function(kappa * lam)
            - 0.5 * math.log(2.0 * math.pi * z)
        )
        assert abs(math.exp(log_tail_formula - math.log(tail_exact)) - 1.0) <= 0.15

    def test_above_ratio_representable_point(self):
        # closer to p/q the complement is still representable and the
        # function output can be compared end to end
        s = split(0.1)
        z, kappa = 400, 11.0
        label, value = conditional_asymptotic(s, z, kappa)
        assert label is RegimeLabel.above_p_over_q
        exact = race.conditional_probability(s, z, kappa)
        assert abs((1.0 - value) / (1.0 - exact) - 1.0) <= 0.15

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            conditional_asymptotic(split(0.1), 0, 1.0)
        with pytest.raises(ValueError):
            conditional_asymptotic(split(0.1), 10, 0.0)

    @pytest.mark.parametrize("kappa", [math.nan, math.inf])
    def test_rejects_non_finite_kappa(self, kappa):
        # used to return (above_p_over_q, nan)
        with pytest.raises(ValueError, match="kappa"):
            conditional_asymptotic(split(0.1), 10, kappa)


class TestBounds:
    def test_published_rows_bracketed(self):
        lo, hi = p_bounds(split(0.1), 6)
        assert lo <= 0.0005914 <= hi
        lo, hi = p_bounds(split(0.3), 50)
        assert lo <= 0.0000311 <= hi

    @pytest.mark.parametrize("q", [0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45])
    def test_bracketing_grid(self, q):
        s = split(q)
        for z in range(2, 151):
            lo, hi = p_bounds(s, z)
            exact = attacker_success_closed(s, z)
            assert lo <= exact <= hi
            assert lo <= hi

    @pytest.mark.parametrize("q", [0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45])
    def test_nakamoto_dominated(self, q):
        # beyond P_SN ~ 1e-13 the alternating Poisson sum drowns in
        # cancellation noise, so the comparison runs on logarithms using
        # the tail-stable route (itself checked against the sum elsewhere)
        s = split(q)
        for z in range(1, 151):
            decay = -z * c_function(s.lam)
            log_bound = decay + math.log(
                1.0 / ((1.0 - s.lam) * math.sqrt(2.0 * math.pi * z)) + 0.5
            )
            assert log_bound > race._log_nakamoto(s, z)
            if nakamoto_probability(s, z) > 1e-10:
                assert psn_upper_bound(s, z) > nakamoto_probability(s, z)

    def test_psn_bound_not_wild(self):
        s = split(0.3)
        assert psn_upper_bound(s, 200) / psn_asymptotic(s, 200) <= 3.0

    def test_published_nakamoto_rows_below_bound(self):
        assert psn_upper_bound(split(0.1), 10) > 0.0000012
        assert psn_upper_bound(split(0.3), 50) > 0.0000006


class TestComparisonRank:
    def test_psi_identity(self):
        for q in (0.05, 0.2, 0.35, 0.45):
            s = split(q)
            psi = c_function(s.lam) + math.log(s.s)
            direct = 2.0 * (
                1.0 / (2.0 * s.p) - 1.0 - math.log(1.0 / (2.0 * s.p))
            )
            assert psi == pytest.approx(direct, abs=1e-12)
            assert psi > 0.0

    def test_sufficient_rank_works(self):
        s = split(0.3)
        z0 = z0_sufficient(s)
        for z in (z0, z0 + 1, 2 * z0):
            assert nakamoto_probability(s, z) < attacker_success_closed(s, z)
        # z0_sharp takes every rank from z0_sufficient on as good unevaluated;
        # the kernels it would have called agree well clear of rounding
        for q in np.linspace(0.001, 0.49, 50):
            s = split(float(q))
            z0 = z0_sufficient(s)
            w = np.arange(z0, z0 + 2 * asymptotics._Z0_WINDOW)
            gap = race._log_success_closed(s, w) - race._log_nakamoto(s, w)
            assert gap.min() > 0.5, q

    @pytest.mark.parametrize("q", [0.1, 0.3, 0.42])
    def test_sharp_rank_evaluates_only_below_sufficient(self, monkeypatch, q):
        s = split(q)
        real = race._log_success_closed
        largest = []

        def recording(split_, w):
            largest.append(int(np.max(w)))
            return real(split_, w)

        monkeypatch.setattr(race, "_log_success_closed", recording)
        assert z0_sharp(s) == z0_sharp_scan(s)
        assert 0 < max(largest) < z0_sufficient(s)

    def test_sharp_rank_published_points(self):
        assert z0_sharp(split(0.2)) == 2
        assert z0_sharp(split(0.3)) == 3
        # boundary for rank 11 sits at q = 0.415; 0.417 is inside
        assert z0_sharp(split(0.417)) == 11

    def test_sharp_rank_is_sharp(self):
        for q in (0.3, 0.35, 0.42):
            s = split(q)
            z0 = z0_sharp(s)
            assert race._log_nakamoto(s, z0) < race._log_success_closed(s, z0)
            if z0 > 2:
                assert race._log_nakamoto(s, z0 - 1) >= race._log_success_closed(
                    s, z0 - 1
                )

    def test_sufficient_dominates_sharp(self):
        for q in (0.05, 0.15, 0.25, 0.35, 0.45):
            s = split(q)
            assert z0_sufficient(s) >= z0_sharp(s)

    def test_sharp_rank_matches_scalar_scan(self):
        for q in np.linspace(0.001, 0.499, 301):
            s = split(float(q))
            assert z0_sharp(s) == z0_sharp_scan(s), q

    def test_sharp_rank_non_decreasing_in_q(self):
        # the q-bisection of cli._z0_boundary relies on this; it is measured,
        # not proven
        ranks = [z0_sharp(split(float(q))) for q in np.linspace(0.001, 0.45, 200)]
        assert all(b >= a for a, b in zip(ranks, ranks[1:]))

    def test_bad_ranks_form_a_prefix(self):
        # then z0 >= k exactly where rank k - 1 is bad, the guide that
        # cli._z0_boundary bisects on; measured, not proven, so z0_sharp
        # keeps its window and the table checks each guided cell
        for q in np.linspace(0.001, 0.45, 300):
            s = split(float(q))
            w = np.arange(2, z0_sufficient(s))
            bad = w[race._log_nakamoto(s, w) >= race._log_success_closed(s, w)]
            assert bad.tolist() == list(range(2, z0_sharp(s))), q

    def test_sharp_rank_near_half(self):
        assert z0_sharp(split(0.499)) == 43692

    def test_sharp_rank_nearer_half(self):
        # at q = 0.49999 the rounding of s = 4pq moves ln P by up to about
        # z 2^-53 = 5e-8, while ln P_SN - ln P changes by d^2 = 4e-10 a rank,
        # so the rank is not pinned there; the scaling limit checks it
        assert z0_sharp(split(0.4999)) == 4339741

    def test_sharp_rank_evaluates_few_ranks(self, monkeypatch):
        # the walk over runs of ranks makes 1,213 kernel calls at q = 0.499;
        # a scan evaluates every rank from 2 to at least 43,891
        calls = []
        for name in ("_log_nakamoto", "_log_success_closed"):
            real = getattr(race, name)
            monkeypatch.setattr(
                race, name, lambda s, w, real=real: calls.append(w) or real(s, w)
            )
        assert z0_sharp(split(0.499)) == 43692
        assert len(calls) <= 2000

    @pytest.mark.parametrize("q", [0.45, 0.49, 0.499, 0.4995])
    def test_sharp_rank_matches_block_scan(self, q):
        assert z0_sharp(split(q)) == z0_block_scan(split(q))

    def test_sharp_rank_scaling_limit_near_half(self):
        # with d = 1 - 2q and z = t/d^2, P(z) tends to erfc(sqrt t) and
        # P_SN(z) to erfc(sqrt 2t)/2 + e^{-2t}/2; the two limits cross at t*,
        # so z0 d^2 = t* + O(d).
        def gap(t):
            return erfc(math.sqrt(t)) - 0.5 * erfc(math.sqrt(2.0 * t)) - 0.5 * math.exp(-2.0 * t)

        t_star = brentq(gap, 0.01, 1.0, xtol=1e-14)
        assert t_star == pytest.approx(0.1734589925, abs=1e-10)
        for q in (0.499, 0.4995, 0.4998, 0.4999, 0.49999):
            d = 1.0 - 2.0 * q
            assert abs(z0_sharp(split(q)) * d * d - t_star) <= d, q

    @pytest.mark.parametrize(
        "bad, expected",
        [
            ((), 2),
            ((2, 3, 8), 4),  # exactly the window of good ranks, 4..7, closes
            ((2, 3, 9), 4),  # window + 1 good ranks, 4..8
            ((2, 3, 7, 12), 8),  # window - 1 good ranks, 4..6, do not
            ((5,), 6),  # one bad rank after good ones
            (tuple(range(2, 10)), 10),  # one run of bad ranks
            (tuple(range(2, 41, 3)) + (40,), 41),  # bad ranks 3 apart up to 38, then 40
        ],
    )
    def test_run_detection(self, bad, expected):
        # a proven rank past every bad rank moves no answer, whether the
        # run closes first (10**6) or the proven rank is reached first
        for proven in (max(bad, default=1) + 1, 10**6):
            assert z0_with_bad_ranks(bad, 4, proven) == expected
        assert first_settled_rank(lambda w: w in bad, 4) == expected

    @pytest.mark.parametrize(
        "bad, proven, expected",
        [
            ((2, 3, 5, 7, 9, 12), 10, 10),  # 12 is past the proven rank
            ((2, 3), 2, 2),  # nothing below the proven rank is evaluated
            ((2, 3), 1, 2),
            ((2, 5), 6, 6),  # the proven rank follows the last bad one
            ((2, 3, 8, 30), 25, 4),  # the run closes below the proven rank
            ((2, 3, 5, 7, 9), 11, 10),  # the proven rank ends the window
        ],
    )
    def test_run_detection_with_proven_rank(self, bad, proven, expected):
        assert z0_with_bad_ranks(bad, 4, proven) == expected
        assert first_settled_rank(lambda w: w in bad and w < proven, 4) == expected

    @given(
        st.integers(1, 8),
        st.sets(st.integers(2, 150), max_size=40),
        st.integers(1, 160),
    )
    def test_run_detection_matches_scan(self, window, bad, proven):
        assert z0_with_bad_ranks(bad, window, proven) == first_settled_rank(
            lambda w: w in bad and w < proven, window
        )


class TestKappaThreshold:
    def test_closed_form_at_two(self):
        for i in range(1, 10):
            q = 0.05 * i
            s = split(q)
            assert kappa_threshold(s, 2) == pytest.approx(
                1.0 / (2.0 * q) - 1.0, abs=1e-10
            )

    def test_increasing_in_z(self):
        s = split(0.1)
        values = [kappa_threshold(s, z) for z in (2, 3, 5, 10, 30, 100, 500)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_approaches_ratio_from_below(self):
        s = split(0.1)
        assert kappa_threshold(s, 2000) < 9.0
        assert kappa_threshold(s, 2000) == pytest.approx(9.0, abs=0.01)

    def test_first_order_correction(self):
        # kappa(z) = p/q - p^2/(q(p-q)) / z + o(1/z); correction 0.10125 at
        # q=0.1, z=100, checked to 10%
        s = split(0.1)
        correction = 9.0 - kappa_threshold(s, 100)
        assert correction == pytest.approx(0.10125, rel=0.10)

    def test_newton_evaluates_the_sums_few_times(self, monkeypatch):
        # bisection to 1e-13 took about 47 evaluations per solve
        sums = asymptotics._threshold_sums
        calls = []
        monkeypatch.setattr(
            asymptotics, "_threshold_sums", lambda z, kappa: calls.append(z) or sums(z, kappa)
        )
        for q in SWEEP_QS:
            for z in SWEEP_ZS:
                kappa_threshold(split(q), z)
        assert len(calls) <= 4 * len(SWEEP_QS) * len(SWEEP_ZS)

    def test_doubles_where_the_sums_overflow(self):
        # at q = 0.4999, z = 1000 the start is kappa(2) = 2e-4, where the
        # left side overflows
        assert math.isinf(asymptotics._threshold_sums(1000, 0.5 / 0.4999 - 1.0)[0])
        kappa = kappa_threshold(split(0.4999), 1000)
        total, _ = asymptotics._threshold_sums(1000, kappa)
        assert total == pytest.approx(0.4999 / (1.0 - 2 * 0.4999), rel=1e-11)

    def test_sums_keep_the_int_counter_bits(self):
        rng = np.random.default_rng(2017)
        zs = np.unique(np.round(np.logspace(np.log10(2), 5, 60)).astype(int))
        for z in zs.tolist():
            kappa = float(rng.uniform(0.05, 20.0))
            old = threshold_sums_int_counter(z, kappa)
            new = asymptotics._threshold_sums(z, kappa)
            assert [v.hex() for v in new] == [v.hex() for v in old], (z, kappa)

    def test_numpy_integer_z_gives_the_float_of_the_int_call(self):
        s = split(0.3)
        for fn in (kappa_threshold, asymptotics.p_asymptotic, asymptotics.psn_asymptotic):
            for z in (2, 500):
                value = fn(s, np.int64(z))
                assert type(value) is float
                assert value.hex() == fn(s, z).hex(), (fn, z)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            kappa_threshold(split(0.1), 1)
        with pytest.raises(ValueError):
            kappa_threshold(split(0.5), 5)

    @pytest.mark.parametrize("z", [2.5, 6.0, True, "6"])
    def test_rejects_non_integer_z(self, z):
        # z = 2.5 used to raise TypeError from range()
        with pytest.raises(ValueError):
            kappa_threshold(split(0.1), z)
