"""Special-function kernel tests: identities, oracles, and stability."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doublespend import specfun
from doublespend.specfun import (
    ConvergenceError,
    log_binomial,
    log_gamma,
    log_reg_inc_beta,
    log_reg_lower_gamma_p,
    log_reg_upper_gamma_q,
    reg_inc_beta,
    reg_upper_gamma_q,
)


def poisson_partial_sum(z, lam):
    """Q(z, lam) for integer z as the explicit Poisson CDF, in log space."""
    if lam == 0.0:
        return 1.0
    terms = [k * math.log(lam) - lam - math.lgamma(k + 1) for k in range(z)]
    return math.fsum(math.exp(t) for t in terms)


class TestLogGamma:
    def test_gamma_one(self):
        assert log_gamma(1.0) == 0.0

    def test_gamma_half_is_sqrt_pi(self):
        assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-15)

    def test_factorial(self):
        assert log_gamma(11.0) == pytest.approx(math.log(3628800), rel=1e-14)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            log_gamma(0.0)
        with pytest.raises(ValueError):
            log_gamma(-2.5)

    @given(st.floats(min_value=0.5, max_value=1e6))
    def test_matches_stdlib(self, x):
        assert log_gamma(x) == pytest.approx(math.lgamma(x), rel=1e-13, abs=1e-13)


class TestLogBinomial:
    def test_choose_zero(self):
        assert log_binomial(5, 0) == pytest.approx(0.0, abs=1e-13)

    def test_small_case(self):
        assert log_binomial(4, 2) == pytest.approx(math.log(6), rel=1e-13)

    def test_large_case_against_exact_integer(self):
        # C(600, 300) overflows a double but not Python ints
        exact = math.comb(600, 300)
        assert log_binomial(600, 300) == pytest.approx(
            math.log(exact), rel=1e-12
        )

    def test_rejects_k_above_n(self):
        with pytest.raises(ValueError):
            log_binomial(3, 4)

    @given(st.integers(min_value=0, max_value=500), st.data())
    def test_matches_comb(self, n, data):
        k = data.draw(st.integers(min_value=0, max_value=n))
        assert log_binomial(n, k) == pytest.approx(
            math.log(math.comb(n, k)), rel=1e-12, abs=1e-12
        )


class TestRegIncBeta:
    def test_endpoints(self):
        assert reg_inc_beta(0.0, 2.0, 3.0) == 0.0
        assert reg_inc_beta(1.0, 2.0, 3.0) == 1.0

    def test_linear_case(self):
        # I_x(1, b) = 1 - (1-x)^b; at x=0.36, b=0.5 this is 0.2 exactly
        assert reg_inc_beta(0.36, 1.0, 0.5) == pytest.approx(0.2, abs=1e-14)

    def test_symmetry_point(self):
        for z in (1.0, 3.0, 17.0, 120.0):
            assert reg_inc_beta(0.5, z, z) == pytest.approx(0.5, abs=1e-12)

    def test_rejects_bad_domain(self):
        with pytest.raises(ValueError):
            reg_inc_beta(-0.1, 1.0, 1.0)
        with pytest.raises(ValueError):
            reg_inc_beta(1.1, 1.0, 1.0)
        with pytest.raises(ValueError):
            reg_inc_beta(0.5, 0.0, 1.0)
        with pytest.raises(ValueError):
            reg_inc_beta(0.5, 1.0, -1.0)

    @given(
        st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
        st.floats(min_value=0.5, max_value=200.0),
        st.floats(min_value=0.5, max_value=200.0),
    )
    @settings(max_examples=300)
    def test_complement_symmetry(self, x, a, b):
        total = reg_inc_beta(x, a, b) + reg_inc_beta(1.0 - x, b, a)
        assert total == pytest.approx(1.0, abs=1e-12)

    @given(
        st.integers(min_value=1, max_value=150),
        st.floats(min_value=0.01, max_value=0.49),
    )
    def test_halving_identity(self, z, q):
        # I_q(z, z) = 1/2 I_s(z, 1/2) with s = 4 q (1-q)
        s = 4.0 * q * (1.0 - q)
        assert reg_inc_beta(q, z, z) == pytest.approx(
            0.5 * reg_inc_beta(s, z, 0.5), abs=1e-12
        )

    def test_monotone_in_x(self):
        values = [reg_inc_beta(x / 50.0, 6.0, 0.5) for x in range(1, 50)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_integration_by_parts_recurrence(self):
        # I_p(k+1, z) = I_p(k, z) - p^k q^z / (k B(k, z))
        rows = [(3, 5, 0.3), (7, 2, 0.45), (10, 10, 0.2), (2, 8, 0.05)]
        for k, z, q in rows:
            p = 1.0 - q
            log_b = log_gamma(float(k)) + log_gamma(float(z)) - log_gamma(float(k + z))
            step = math.exp(k * math.log(p) + z * math.log(q) - math.log(k) - log_b)
            assert reg_inc_beta(p, k + 1, z) == pytest.approx(
                reg_inc_beta(p, k, z) - step, abs=1e-11
            )

    def test_log_variant_matches_linear_range(self):
        for z in (1, 6, 50):
            v = reg_inc_beta(0.36, z, 0.5)
            assert math.exp(log_reg_inc_beta(0.36, z, 0.5)) == pytest.approx(
                v, rel=1e-12
            )

    def test_log_variant_below_double_underflow(self):
        # s^z alone is ~1e-444 here; the log path must survive
        log_v = log_reg_inc_beta(0.36, 1000, 0.5)
        assert -1030.0 < log_v < -1010.0


class TestRegUpperGammaQ:
    def test_at_zero(self):
        assert reg_upper_gamma_q(3.0, 0.0) == 1.0

    def test_exponential_case(self):
        for x in (0.1, 1.0, 5.0, 40.0):
            assert reg_upper_gamma_q(1.0, x) == pytest.approx(
                math.exp(-x), rel=1e-13
            )

    def test_deviation_tail_magnitudes(self):
        assert reg_upper_gamma_q(6.0, 24.0) == pytest.approx(3.126e-6, rel=1e-3)
        assert reg_upper_gamma_q(10.0, 40.0) == pytest.approx(3.926e-9, rel=1e-3)

    def test_rejects_bad_domain(self):
        with pytest.raises(ValueError):
            reg_upper_gamma_q(0.0, 1.0)
        with pytest.raises(ValueError):
            reg_upper_gamma_q(1.0, -1.0)

    @given(
        st.integers(min_value=1, max_value=180),
        st.floats(min_value=0.0, max_value=700.0),
    )
    @settings(max_examples=300)
    def test_poisson_partial_sum_oracle(self, z, lam):
        assert reg_upper_gamma_q(float(z), lam) == pytest.approx(
            poisson_partial_sum(z, lam), abs=1e-12
        )

    def test_monotone_in_x(self):
        values = [reg_upper_gamma_q(6.0, x) for x in (0.0, 1.0, 3.0, 6.0, 12.0, 24.0)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_complement_splits(self):
        # lower + upper = 1 across the series/continued-fraction branch point
        for s in (2.0, 6.0, 50.0):
            for x in (0.5 * s, s, s + 0.5, 2.0 * s):
                p = math.exp(log_reg_lower_gamma_p(s, x))
                q = reg_upper_gamma_q(s, x)
                assert p + q == pytest.approx(1.0, abs=1e-12)

    def test_iteration_cap_raises(self, monkeypatch):
        # Q(500, 5000) underflows, so the log path runs the continued
        # fraction, which needs more than 3 iterations there
        assert -3400.0 < log_reg_upper_gamma_q(500.0, 5000.0) < -3300.0
        monkeypatch.setattr(specfun, "_MAX_ITER", 3)
        with pytest.raises(ConvergenceError):
            log_reg_upper_gamma_q(500.0, 5000.0)
        assert 0.4 < reg_upper_gamma_q(500.0, 500.0) < 0.6

    def test_log_variant_deep_tail(self):
        # Q(100, 1000) is far below the smallest positive double
        log_q = log_reg_upper_gamma_q(100.0, 1000.0)
        assert -680.0 < log_q < -670.0
        assert math.exp(log_reg_upper_gamma_q(6.0, 24.0)) == pytest.approx(
            reg_upper_gamma_q(6.0, 24.0), rel=1e-12
        )


class TestLogArrays:
    """A numpy array argument runs the ufunc once, with the log-space
    fallback on the elements below 1e-300; each element matches the
    scalar call."""

    CASES = [
        # (function, arguments); the last elements sit below 1e-300
        (log_reg_inc_beta, (0.36, np.array([1, 6, 50, 1000, 5000]), 0.5)),
        (log_reg_upper_gamma_q, (np.array([6.0, 100.0, 500.0]), np.array([24.0, 1000.0, 5000.0]))),
        (log_reg_lower_gamma_p, (np.array([6.0, 100.0, 2000.0]), np.array([3.0, 10.0, 200.0]))),
    ]

    @pytest.mark.parametrize("fn, args", CASES)
    def test_matches_scalar(self, fn, args):
        got = fn(*args)
        n = len(got)
        assert got[-1] < math.log(1e-300) < got[0]
        for i in range(n):
            scalar = fn(*(float(a[i]) if isinstance(a, np.ndarray) else a for a in args))
            assert got[i] == pytest.approx(scalar, rel=1e-15, abs=0)

    @pytest.mark.parametrize(
        "fn, args",
        [
            (log_reg_inc_beta, (0.36, np.array([6.0, 0.0]), 0.5)),
            (log_reg_inc_beta, (0.36, np.array([6.0, np.nan]), 0.5)),
            (log_reg_upper_gamma_q, (np.array([6.0, -1.0]), 1.0)),
            (log_reg_upper_gamma_q, (np.array([6.0, 6.0]), np.array([1.0, -1.0]))),
            (log_reg_lower_gamma_p, (np.array([6.0, 6.0]), np.array([1.0, 0.0]))),
        ],
    )
    def test_rejects_bad_element(self, fn, args):
        with pytest.raises(ValueError):
            fn(*args)


def test_clamp_helper():
    assert specfun._clamp01(-1e-17) == 0.0
    assert specfun._clamp01(1.0 + 1e-16) == 1.0
    assert specfun._clamp01(0.25) == 0.25
