"""Race-probability tests: published values, identities, and domain checks."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doublespend import race, specfun
from doublespend.race import (
    HashSplit,
    NetworkParams,
    attacker_success_closed,
    catchup_probability,
    conditional_probability,
    confirmations_required,
    deviation_tail,
    kappa_density,
    kappa_from_times,
    nakamoto_probability,
    negbin_pmf,
    recover_p_by_quadrature,
)

from reference_tables import (
    MAX_SUM_Z,
    attacker_success_sum,
    confirmations_scan,
    exact_success_rational,
)


def split(q):
    return HashSplit.from_attacker_share(q)


class TestHashSplit:
    def test_derived_fields(self):
        s = split(0.3)
        assert s.p == 0.7
        assert s.lam == pytest.approx(3.0 / 7.0, rel=1e-15)
        assert s.s == pytest.approx(0.84, rel=1e-15)

    def test_rejects_out_of_range_q(self):
        for q in (0.0, -0.1, 0.51, 1.0):
            with pytest.raises(ValueError):
                split(q)

    def test_rejects_inconsistent_fields(self):
        # p, lam and s are derived from q, never passed in
        with pytest.raises(TypeError):
            HashSplit(q=0.3, p=0.6, lam=0.5, s=0.72)
        assert HashSplit(0.3) == split(0.3)

    def test_boundary_half_allowed(self):
        assert split(0.5).s == 1.0


class TestNetworkParams:
    def test_rejects_nonpositive_interval(self):
        for tau0 in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                NetworkParams.for_split(split(0.1), tau0=tau0)

    def test_rejects_inconsistent_rates(self):
        # tau0 is the only value stored: q lives in the HashSplit alone, and
        # the block rates are formed where they are used, never passed in
        assert [f.name for f in dataclasses.fields(NetworkParams)] == ["tau0"]
        for fields in ({"alpha": 0.05, "alpha_prime": 0.01, "t0": 20.0}, {"q": 0.1}):
            with pytest.raises(TypeError):
                NetworkParams(tau0=10.0, **fields)
        assert NetworkParams.for_split(split(0.1)) == NetworkParams(10.0)
        assert NetworkParams.for_split(split(0.3), tau0=2.5) == NetworkParams(2.5)


class TestArgumentValidation:
    @pytest.mark.parametrize("z", [6.5, 6.0, True, "6", None])
    def test_rejects_non_integer_z(self, z):
        s = split(0.1)
        for fn in (attacker_success_closed, nakamoto_probability, attacker_success_sum):
            with pytest.raises(ValueError):
                fn(s, z)
        with pytest.raises(ValueError):
            conditional_probability(s, z, 1.0)
        with pytest.raises(ValueError):
            kappa_density(z, 1.0)

    @pytest.mark.parametrize("kappa", [math.inf, math.nan, -math.inf, 0.0])
    def test_rejects_non_finite_kappa(self, kappa):
        with pytest.raises(ValueError):
            conditional_probability(split(0.1), 6, kappa)
        with pytest.raises(ValueError):
            deviation_tail(6, kappa)
        with pytest.raises(ValueError):
            kappa_density(6, kappa)

    def test_accepts_numpy_integers(self):
        s = split(0.1)
        assert attacker_success_closed(s, np.int64(6)) == attacker_success_closed(s, 6)


class TestCatchupProbability:
    def test_zero_deficit(self):
        assert catchup_probability(split(0.1), 0) == 1.0

    def test_single_block(self):
        assert catchup_probability(split(0.1), 1) == pytest.approx(1.0 / 9.0, rel=1e-14)

    def test_even_split_always_catches_up(self):
        assert catchup_probability(split(0.5), 1000) == 1.0

    def test_moderate_deficit_against_rational(self):
        # cross-check the log-space power with exact rational arithmetic
        for n in (7, 40, 120):
            exact = Fraction(9, 11) ** n
            assert catchup_probability(split(0.45), n) == pytest.approx(
                exact.numerator / exact.denominator, rel=1e-12
            )

    def test_deep_deficit_log_consistency(self):
        got = catchup_probability(split(0.45), 539)
        assert math.log(got) == pytest.approx(
            539 * (math.log(9) - math.log(11)), rel=1e-13
        )

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            catchup_probability(split(0.1), -1)


class TestNegbinPmf:
    def test_head(self):
        assert negbin_pmf(split(0.1), 1, 0) == pytest.approx(0.9, rel=1e-14)

    def test_direct_rational(self):
        expected = 0.7**5 * 0.3**5 * 126
        assert negbin_pmf(split(0.3), 5, 5) == pytest.approx(expected, rel=1e-13)

    @given(st.integers(min_value=1, max_value=40),
           st.floats(min_value=0.05, max_value=0.45))
    @settings(max_examples=60)
    def test_normalization(self, n, q):
        s = split(q)
        total = 0.0
        k = 0
        while True:
            term = negbin_pmf(s, n, k)
            total += term
            if k > n and term < 1e-15:
                break
            k += 1
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_poisson_limit(self):
        # n -> inf, q -> 0 with n q / p = 2 held fixed
        n = 100_000
        lam = 2.0
        q = lam / (n + lam)
        s = split(q)
        for k in range(11):
            poisson = math.exp(k * math.log(lam) - lam - math.lgamma(k + 1))
            assert abs(negbin_pmf(s, n, k) - poisson) <= 1e-3

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            negbin_pmf(split(0.1), 0, 0)
        with pytest.raises(ValueError):
            negbin_pmf(split(0.1), 1, -1)


class TestSuccessProbability:
    def test_no_confirmations(self):
        assert attacker_success_sum(split(0.1), 0) == 1.0
        assert attacker_success_closed(split(0.1), 0) == 1.0

    def test_even_split(self):
        for z in (1, 5, 50):
            assert attacker_success_sum(split(0.5), z) == 1.0
            assert attacker_success_closed(split(0.5), z) == 1.0

    def test_against_exact_rational(self):
        for q_frac, z in [(Fraction(1, 10), 6), (Fraction(3, 10), 10),
                          (Fraction(45, 100), 20)]:
            expected = float(exact_success_rational(q_frac, z))
            s = split(float(q_frac))
            assert attacker_success_sum(s, z) == pytest.approx(expected, rel=1e-12)
            assert attacker_success_closed(s, z) == pytest.approx(expected, rel=1e-11)

    def test_sum_rejects_untrusted_range(self):
        with pytest.raises(ValueError):
            attacker_success_sum(split(0.3), MAX_SUM_Z + 1)

    def test_closed_form_deep_tail(self):
        # z = 539 at q = 0.45 sits right at the 0.1% confirmation boundary
        assert attacker_success_closed(split(0.45), 539) < 0.001
        assert attacker_success_closed(split(0.45), 538) >= 0.001

    def test_bridge_identity(self):
        # P(z) = 2 I_q(z, z) = 1 - I_p(z, z) + I_q(z, z)
        for q in (0.05, 0.2, 0.45):
            s = split(q)
            for z in (1, 7, 60):
                closed = attacker_success_closed(s, z)
                i_q = specfun.reg_inc_beta(q, z, z)
                i_p = specfun.reg_inc_beta(1.0 - q, z, z)
                assert closed == pytest.approx(2.0 * i_q, abs=1e-12)
                assert closed == pytest.approx(1.0 - i_p + i_q, abs=1e-12)

    @given(st.floats(min_value=0.05, max_value=0.45),
           st.integers(min_value=1, max_value=200))
    @settings(max_examples=200, deadline=None)
    def test_sum_matches_closed_form(self, q, z):
        s = split(q)
        assert abs(attacker_success_sum(s, z) - attacker_success_closed(s, z)) <= 1e-10

    def test_monotone_in_z(self):
        s = split(0.3)
        values = [attacker_success_closed(s, z) for z in range(1, 40)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_monotone_in_q(self):
        values = [attacker_success_closed(split(q / 100.0), 6)
                  for q in range(5, 50, 5)]
        assert all(b > a for a, b in zip(values, values[1:]))


class TestNakamotoProbability:
    def test_no_confirmations(self):
        assert nakamoto_probability(split(0.1), 0) == 1.0

    def test_published_values(self):
        assert nakamoto_probability(split(0.1), 6) == pytest.approx(
            0.0002428, abs=5e-8
        )
        assert nakamoto_probability(split(0.3), 5) == pytest.approx(
            0.1773523, abs=5e-8
        )

    def test_single_confirmation_dominates_exact(self):
        # at z = 1 the approximation overshoots for every split
        for q in (0.05, 0.15, 0.25, 0.35, 0.45):
            s = split(q)
            assert attacker_success_closed(s, 1) <= nakamoto_probability(s, 1)

    def test_conditional_at_unit_kappa(self):
        for q in (0.1, 0.3, 0.45):
            s = split(q)
            for z in range(1, 101):
                assert abs(
                    conditional_probability(s, z, 1.0) - nakamoto_probability(s, z)
                ) <= 1e-12


class TestLogArrays:
    """The array log probabilities z0_sharp compares: ln P_SN element by
    element against the scalar path (ln P is checked against mpmath in
    test_mpmath_tails.py)."""

    @pytest.mark.parametrize("q", [0.001, 0.1, 0.3, 0.45])
    def test_elementwise_against_scalar(self, q):
        s = split(q)
        z = np.arange(2, 2001)
        nakamoto = race._log_nakamoto(s, z)
        np.testing.assert_allclose(
            nakamoto, [race._log_conditional(s.lam, int(k), 1.0) for k in z], rtol=1e-13, atol=0
        )
        if q == 0.001:
            # the per-element log fallback runs where the values underflow
            floor = math.log(1e-300)
            assert nakamoto[0] > floor > nakamoto[-1]
            closed = race._log_success_closed(s, z)
            assert closed[0] > floor > closed[-1]

    def test_keeps_shape(self):
        s = split(0.2)
        z = np.array([[2, 600], [3, 900]])
        assert race._log_success_closed(s, z).shape == (2, 2)
        assert race._log_nakamoto(s, z).shape == (2, 2)
        assert race._log_nakamoto(s, 600) == race._log_nakamoto(s, z)[0, 1]


class TestConditionalProbability:
    def test_published_cells(self):
        # printed in percent with two decimals in the published tables
        assert 100 * conditional_probability(split(0.1), 3, 1.0) == pytest.approx(
            1.32, abs=0.005
        )
        assert 100 * conditional_probability(split(0.26), 6, 0.5) == pytest.approx(
            1.28, abs=0.005
        )
        assert 100 * conditional_probability(split(0.1), 6, 3.5) == pytest.approx(
            3.98, abs=0.005
        )

    def test_increasing_in_kappa(self):
        s = split(0.15)
        values = [conditional_probability(s, 6, 0.2 * i) for i in range(1, 60)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_large_kappa_limit(self):
        assert conditional_probability(split(0.1), 6, 150.0) == pytest.approx(
            1.0, abs=1e-9
        )

    def test_small_kappa_below_nakamoto(self):
        s = split(0.2)
        assert conditional_probability(s, 6, 1e-6) < nakamoto_probability(s, 6)

    def test_even_split(self):
        assert conditional_probability(split(0.5), 6, 0.3) == 1.0

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            conditional_probability(split(0.1), 0, 1.0)
        with pytest.raises(ValueError):
            conditional_probability(split(0.1), 3, 0.0)

    def test_no_overflow_at_large_kappa_z(self):
        # kappa z (p-q)/p ~ 1.6e4 would overflow exp() if taken directly
        value = conditional_probability(split(0.1), 200, 100.0)
        assert 0.0 <= value <= 1.0
        # kappa z overflows to inf, where Q(z, kappa z) = 0 and P(z, kappa) -> 1
        assert conditional_probability(split(0.3), 10, 1.7e308) == 1.0
        assert race._conditional_over_kappa(0.3, 10, [1.0, 1.7e308])[1] == 1.0

    def test_even_split_cells_of_a_grid(self):
        # q = 1/2 inside a q x kappa grid: exactly 1, kappa z overflow included,
        # and the other columns as computed alone
        kappa = np.array([[0.3], [1.0], [4.0], [1.7e308]])
        grid = race._conditional_over_kappa([0.1, 0.5, 0.3], 6, kappa)
        assert grid.shape == (4, 3)
        assert grid[:, 1].tolist() == [1.0] * 4
        for column, q in ((0, 0.1), (2, 0.3)):
            alone = race._conditional_over_kappa(q, 6, kappa[:, 0])
            assert grid[:, column].tolist() == alone.tolist()
        assert race._conditional_over_kappa(0.5, [[1], [6]], [0.5, 2.0]).tolist() == [
            [1.0, 1.0], [1.0, 1.0]]


class TestKappaDensity:
    def test_exponential_case(self):
        for kappa in (0.2, 1.0, 3.0):
            assert kappa_density(1, kappa) == pytest.approx(
                math.exp(-kappa), rel=1e-13
            )

    def test_direct_value(self):
        expected = 6**6 / 120.0 * math.exp(-6.0)
        assert kappa_density(6, 1.0) == pytest.approx(expected, rel=1e-13)

    def test_normalization_and_mean(self):
        from scipy.integrate import quad
        for z in (1, 4, 12):
            mass, _ = quad(lambda k: kappa_density(z, k), 0, 60, limit=200)
            mean, _ = quad(lambda k: k * kappa_density(z, k), 0, 60, limit=200)
            assert mass == pytest.approx(1.0, abs=1e-10)
            assert mean == pytest.approx(1.0, abs=1e-10)


class TestDeviationTail:
    def test_published_magnitudes(self):
        assert 2.5e-6 <= deviation_tail(6, 4.0) <= 3.5e-6
        assert 3.5e-9 <= deviation_tail(10, 4.0) <= 4.5e-9

    def test_small_kappa_limit(self):
        assert deviation_tail(6, 1e-12) == pytest.approx(1.0, abs=1e-10)

    def test_independent_of_split(self):
        # the observed-time law involves only the total block rate
        assert deviation_tail(6, 2.5) == deviation_tail(6, 2.5)
        assert deviation_tail(6, 2.5) == specfun.reg_upper_gamma_q(6.0, 15.0)


class TestQuadratureRecovery:
    @pytest.mark.parametrize("q", [0.1, 0.3])
    @pytest.mark.parametrize("z", [1, 3, 5, 12, 30])
    def test_matches_closed_form(self, q, z):
        s = split(q)
        assert abs(
            recover_p_by_quadrature(s, z) - attacker_success_closed(s, z)
        ) <= 1e-8

    @pytest.mark.parametrize("q, z", [(0.1, 1), (0.3, 500), (0.49, 10**5)])
    def test_one_array_integrand_call(self, monkeypatch, q, z):
        # at the Gauss-Legendre nodes; the peak of the bound takes the scalar kernels
        integrand = race._log_quadrature_integrand
        sizes = []

        def recorded(split, z, kappa):
            sizes.append(kappa.size)
            return integrand(split, z, kappa)

        monkeypatch.setattr(race, "_log_quadrature_integrand", recorded)
        recover_p_by_quadrature(split(q), z)
        assert sizes == [race._QUAD_NODES]

    @pytest.mark.parametrize("q", [0.001, 0.1, 0.45, 0.4999])
    @pytest.mark.parametrize("z", [1, 24, 2000, 10**6])
    def test_scalar_probe_matches_array_integrand(self, monkeypatch, q, z):
        # the cut level's one point, the peak of the bound, is the only float
        # kappa the density sees; ln P(z, kappa) there lies below ln 1e-300
        # for q = 0.001 and 0.1 at z >= 2000, and for q = 0.45 at z = 10^6
        density = race._log_kappa_density
        peaks = []

        def recorded(z, kappa):
            if isinstance(kappa, float):
                peaks.append(kappa)
            return density(z, kappa)

        s = split(q)
        monkeypatch.setattr(race, "_log_kappa_density", recorded)
        recover_p_by_quadrature(s, z)
        monkeypatch.undo()
        [kappa] = peaks
        probe = race._log_conditional(s.lam, z, kappa) + race._log_kappa_density(z, kappa)
        array = race._log_quadrature_integrand(s, z, np.array([kappa]))[0]
        assert abs(probe - array) <= 2 * math.ulp(array), (probe, array)

    def test_published_rows(self):
        assert recover_p_by_quadrature(split(0.1), 1) == pytest.approx(
            0.2, abs=1e-8
        )
        assert recover_p_by_quadrature(split(0.1), 3) == pytest.approx(
            0.01712, abs=1e-8
        )
        assert recover_p_by_quadrature(split(0.3), 5) == pytest.approx(
            0.1976173, abs=5e-8
        )


class TestKappaFromTimes:
    def test_on_schedule(self):
        net = NetworkParams.for_split(split(0.1), tau0=10.0)
        assert kappa_from_times(net, split(0.1), 6, 60.0 / 0.9) == pytest.approx(
            1.0, rel=1e-14
        )

    def test_slow_confirmations(self):
        net = NetworkParams.for_split(split(0.1), tau0=10.0)
        assert kappa_from_times(net, split(0.1), 6, 120.0) == pytest.approx(
            1.8, rel=1e-14
        )

    def test_fast_confirmations(self):
        net = NetworkParams.for_split(split(0.3), tau0=10.0)
        assert kappa_from_times(net, split(0.3), 5, 50.0) == pytest.approx(
            0.7, rel=1e-14
        )

    def test_rejects_nonpositive_time(self):
        net = NetworkParams.for_split(split(0.1))
        with pytest.raises(ValueError):
            kappa_from_times(net, split(0.1), 6, 0.0)


class TestConfirmationsRequired:
    # published 0.1% risk columns: q -> (z exact, z Nakamoto-formula)
    EXACT = {0.10: 6, 0.15: 9, 0.20: 13, 0.25: 20,
             0.30: 32, 0.35: 58, 0.40: 133, 0.45: 539}

    def test_exact_column(self):
        for q, z in self.EXACT.items():
            assert confirmations_required(split(q), 0.001) == z

    def test_nakamoto_spot_values(self):
        assert confirmations_required(split(0.10), 0.001, use_nakamoto=True) == 5
        assert confirmations_required(split(0.30), 0.001, use_nakamoto=True) == 24

    def test_nakamoto_formula_at_040(self):
        # the displayed approximation formula needs 89 confirmations here;
        # P_SN(81) is still ~1.8e-3, nearly double the risk bound
        z = confirmations_required(split(0.40), 0.001, use_nakamoto=True)
        assert z == 89
        assert nakamoto_probability(split(0.40), 81) > 0.0015

    def test_result_is_the_strict_crossing(self):
        for q in (0.1, 0.3):
            s = split(q)
            z = confirmations_required(s, 0.001)
            assert attacker_success_closed(s, z) < 0.001
            assert attacker_success_closed(s, z - 1) >= 0.001

    def test_loose_risk(self):
        assert confirmations_required(split(0.1), 0.5) == 1

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            confirmations_required(split(0.1), 0.0)
        with pytest.raises(ValueError):
            confirmations_required(split(0.1), 1.0)
        with pytest.raises(ValueError):
            confirmations_required(split(0.5), 0.001)

    def test_overflow_guard(self):
        with pytest.raises(OverflowError):
            confirmations_required(split(0.4999), 0.001)

    def test_answer_just_below_the_guard(self):
        # the answer is below the guard although a doubling bracket passes it
        s = split(0.4999)
        risk = attacker_success_closed(s, 9_000_000)
        z = confirmations_required(s, risk)
        assert z <= race.MAX_CONFIRMATIONS
        assert attacker_success_closed(s, z) < risk <= attacker_success_closed(s, z - 1)

    @given(st.floats(min_value=0.001, max_value=0.49),
           st.floats(min_value=-15.0, max_value=math.log10(0.5)),
           st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_equals_doubling_search(self, q, log_risk, use_nakamoto):
        s, risk = split(q), 10.0**log_risk
        assert confirmations_required(s, risk, use_nakamoto) == confirmations_scan(
            s, risk, use_nakamoto
        )

    @pytest.mark.parametrize("use_nakamoto", [False, True])
    def test_equals_linear_scan_up_to_200(self, use_nakamoto):
        prob = nakamoto_probability if use_nakamoto else attacker_success_closed
        checked = 0
        for q in (0.001, 0.05, 0.1, 0.2, 0.3, 0.35, 0.4):
            s = split(q)
            for risk in (0.5, 0.1, 1e-2, 1e-3, 1e-6, 1e-10, 1e-15):
                z = next((z for z in range(1, 201) if prob(s, z) < risk), None)
                if z is not None:
                    assert confirmations_required(s, risk, use_nakamoto) == z, (q, risk)
                    checked += 1
        assert checked >= 40

    # the corners of the benchmark's solver stream, its deep-tail probe
    # (z_SN = 61, pinned against mpmath in test_mpmath_tails), and the
    # least double as the risk, where btdtria puts the closed form's
    # crossing at 697 but P(725) is still that double, so z = 726
    EDGES = [(0.01, 1e-2), (0.01, 1e-12), (0.45, 1e-2), (0.45, 1e-12), (0.2, 1e-17),
             (0.1, 5e-324)]

    @pytest.mark.parametrize("q, risk", EDGES)
    @pytest.mark.parametrize("use_nakamoto", [False, True])
    def test_strict_crossing_at_edges(self, q, risk, use_nakamoto):
        s = split(q)
        prob = nakamoto_probability if use_nakamoto else attacker_success_closed
        z = confirmations_required(s, risk, use_nakamoto)
        assert prob(s, z) < risk
        assert z == 1 or prob(s, z - 1) >= risk

    @pytest.mark.parametrize("use_nakamoto", [False, True])
    def test_probes_per_solve(self, monkeypatch, use_nakamoto):
        # the solver must look its probes up in the module at call time,
        # so that a wrapper set there (here, or by a tracer) sees each one
        probes = []

        def counted(fn):
            def probe(s, z):
                probes.append(z)
                return fn(s, z)
            return probe

        for name in ("attacker_success_closed", "nakamoto_probability"):
            monkeypatch.setattr(race, name, counted(getattr(race, name)))
        solves = 0
        for i in range(20):
            for j in range(10):
                q = 0.01 + 0.44 * (i + 0.5) / 20
                confirmations_required(split(q), 10.0 ** (-2 - 10 * j / 9), use_nakamoto)
                solves += 1
        assert solves <= len(probes) <= 3 * solves

    @pytest.mark.parametrize("use_nakamoto, limit", [(False, 3), (True, 6)])
    def test_probes_near_half(self, monkeypatch, use_nakamoto, limit):
        # near q = 1/2, (1 - lam) sqrt(z) is small and the leading-order
        # asymptotics are far off, yet each start must land near the answer
        rng = np.random.default_rng(49)
        points = [
            (split(q), 10.0**log_risk)
            for q, log_risk in zip(
                rng.uniform(0.49, 0.4995, 60), rng.uniform(-3.0, math.log10(0.98), 60)
            )
        ]
        expected = [confirmations_scan(s, risk, use_nakamoto) for s, risk in points]
        probes = []
        name = "nakamoto_probability" if use_nakamoto else "attacker_success_closed"
        prob = getattr(race, name)

        def probe(s, z):
            probes.append(z)
            return prob(s, z)

        monkeypatch.setattr(race, name, probe)
        got = [confirmations_required(s, risk, use_nakamoto) for s, risk in points]
        assert got == expected
        assert len(probes) <= limit * len(points)

    @pytest.mark.parametrize("use_nakamoto", [False, True])
    def test_overflow_where_s_rounds_to_one(self, use_nakamoto):
        # btdtria gives nan here, so the closed form starts at the guard
        s = split(0.4999999999)
        assert s.s == 1.0
        with pytest.raises(OverflowError):
            confirmations_required(s, 0.001, use_nakamoto)
