"""Special-function kernel tests: identities, oracles, and stability."""

import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

import reference_tables
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

    def test_iteration_cap_raises(self, monkeypatch):
        # both points need more than 3 iterations of the continued fraction
        # (8 and 5); the cap is read when the loop starts
        assert -950.0 < log_reg_inc_beta(0.35, 10000, 10000.0) < -945.0
        monkeypatch.setattr(specfun, "_MAX_ITER", 3)
        message = (
            "incomplete beta continued fraction did not converge "
            "(a=30.0, b=0.5, x=0.64, max_iter=3)"
        )
        with pytest.raises(ConvergenceError, match=re.escape(message)):
            reg_inc_beta(0.64, 30.0, 0.5)
        # I_0.35(10^4, 10^4) is below 1e-300, so the log takes the fraction too
        with pytest.raises(ConvergenceError, match="max_iter=3"):
            log_reg_inc_beta(0.35, 10000, 10000.0)


class TestFloatCounterLoops:
    """The continued fractions run on float counters; every value must keep
    the bits the integer-counter loops gave, since the last bits decide
    tied cells of the published tables."""

    def test_beta_cf_on_the_closed_form_grid(self):
        # P(z) = I_s(z, 1/2), s = 4pq, on the branch reg_inc_beta takes
        branches = set()
        for k in range(24):
            q = 0.4999999 * 10.0 ** (-6.0 * (23 - k) / 23)
            s = 4.0 * q * (1.0 - q)
            for z in sorted({round(10.0 ** (6.3 * j / 23)) for j in range(24)}):
                direct = s < (z + 1.0) / (z + 2.5)
                branches.add(direct)
                args = (z, 0.5, s) if direct else (0.5, z, 1.0 - s)
                old = reference_tables.beta_cf_int_counter(*args)
                assert specfun._beta_cf(*args).hex() == old.hex(), (q, z)
        assert branches == {True, False}

    def test_beta_cf_on_general_arguments(self):
        rng = random.Random(2017)
        for _ in range(1000):
            # a and b in (0, 1000], a sometimes an integer
            a = 1000.0 * (1.0 - rng.random())
            if rng.random() < 0.3:
                a = float(rng.randint(1, 1000))
            b = 1000.0 * (1.0 - rng.random())
            x = rng.random()
            if x >= (a + 1.0) / (a + b + 2.0):
                a, b, x = b, a, 1.0 - x
            old = reference_tables.beta_cf_int_counter(a, b, x)
            assert specfun._beta_cf(a, b, x).hex() == old.hex(), (a, b, x)

    def test_upper_gamma_cf_at_int_and_float_s(self):
        # s up to 10^5, where ln Q is dominated by its prefactor, and s below
        # 50, where ln Q is small enough that the last bits of h show in it
        rng = random.Random(2008)
        for k in range(600):
            top = 100000 if k % 2 else 50
            s = rng.randint(1, top) if rng.random() < 0.5 else top * rng.random() + 1e-3
            x = s * rng.uniform(1.2, 10.0) + rng.uniform(1.0, 50.0)
            old = reference_tables.log_upper_gamma_cf_int_counter(s, x)
            assert specfun._log_upper_gamma_cf(s, x).hex() == old.hex(), (s, x)


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
        # integer arguments reach the log-space paths too
        assert log_reg_lower_gamma_p(1000, 1) == log_reg_lower_gamma_p(1000.0, 1.0) < -5900.0
        # Q(s, inf) = 0, where the continued fraction would not converge,
        # and P(s, 0) = 0, where the prefactor would take ln 0
        assert log_reg_upper_gamma_q(6.0, math.inf) == -math.inf
        for s in (1, 6.0, 1e-320):
            assert log_reg_lower_gamma_p(s, 0.0) == -math.inf
        log_ps = log_reg_lower_gamma_p(np.array([6.0, 6.0, 1e-320]), np.array([1.0, 0.0, 0.0]))
        assert log_ps[1] == log_ps[2] == -math.inf
        assert log_ps[0] == pytest.approx(math.log(special.gammainc(6.0, 1.0)), rel=1e-15)
        # on an array too; scipy's Q(1e-320, 1) is -5.8e-321, so that element
        # goes to the continued fraction, bit for bit as the scalar call does
        log_qs = log_reg_upper_gamma_q(np.array([6.0, 6.0, 1e-320]), np.array([1.0, math.inf, 1.0]))
        assert log_qs[1] == -math.inf
        assert special.gammaincc(1e-320, 1.0) < 0.0
        assert log_qs[2].hex() == log_reg_upper_gamma_q(1e-320, 1.0).hex()
        # Q(s, 1) = s E1(1) (1 + O(s)) as s -> 0
        assert log_qs[2] == pytest.approx(math.log(1e-320) + math.log(special.exp1(1.0)), rel=1e-15)
        assert math.exp(log_reg_upper_gamma_q(6.0, 24.0)) == pytest.approx(
            reg_upper_gamma_q(6.0, 24.0), rel=1e-12
        )

    def test_log_variant_where_x_over_s_overflows(self):
        # ln Q(s, x) = -x + (s - 1) ln x - lgamma(s) + O(1/x) stays finite
        # where c(x/s) overflows, as x/s does
        for s, x in ((1e-5, 1e305), (0.5, 1.7e308)):
            ref = -x + (s - 1.0) * math.log(x) - math.lgamma(s)
            assert log_reg_upper_gamma_q(s, x) == pytest.approx(ref, rel=1e-15)


class TestLogArrays:
    """A numpy array argument runs the ufunc once, with the log-space
    fallback on the elements below 1e-300; each element is within one ulp
    of the scalar call, since np.log and math.log may round apart."""

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

    # six elements each, the ufunc's values mixed with ones below 1e-300
    MIXED = [
        (log_reg_inc_beta, (0.36, np.array([1, 6, 1000, 50, 5000, 20000]), 0.5)),
        (
            log_reg_upper_gamma_q,
            (np.array([6.0, 500.0, 2.0, 100.0, 30.0, 1000.0]),
             np.array([24.0, 5000.0, 0.5, 1000.0, 700.0, 1200.0])),
        ),
        (
            log_reg_lower_gamma_p,
            (np.array([6.0, 2000.0, 100.0, 3.0, 4000.0, 50.0]),
             np.array([3.0, 200.0, 10.0, 1.0, 100.0, 0.01])),
        ),
        # s a Python number: the gamma kernels take their array path from x
        (log_reg_upper_gamma_q, (6.0, np.array([24.0, 730.48, 1.0, 707.29, 800.0, 100.0]))),
        (log_reg_lower_gamma_p, (100, np.array([10.0, 0.033872, 50.0, 0.042647, 0.01, 150.0]))),
    ]

    @pytest.mark.parametrize("fn, args", MIXED)
    @pytest.mark.parametrize("shape", [(), (6,), (2, 3)])
    def test_bit_identical_to_scalar_in_any_shape(self, fn, args, shape):
        def element(i, wrap):
            # the i-th element of every array argument, as a float or a 0-d array
            return [wrap(a[i]) if isinstance(a, np.ndarray) else a for a in args]

        scalars = [fn(*element(i, float)) for i in range(6)]
        assert min(scalars) < math.log(1e-300) < max(scalars)
        if shape == ():
            got = [fn(*element(i, np.array)) for i in range(6)]
            assert all(np.shape(g) == () for g in got)
        else:
            got = fn(*(a.reshape(shape) if isinstance(a, np.ndarray) else a for a in args))
            assert got.shape == shape
            got = got.ravel()
        assert [float(g).hex() for g in got] == [v.hex() for v in scalars]

    @staticmethod
    def random_calls(fn):
        """Seeded argument tuples for fn; some of its values fall below 1e-300."""
        rng = np.random.default_rng(20261019)
        s = np.exp(rng.uniform(0.0, math.log(5000.0), 2000))
        if fn is log_reg_inc_beta:
            return [(x, s[i::4], 0.5) for i, x in enumerate(rng.uniform(0.01, 0.99, 4))]
        return [(s, s * np.exp(rng.normal(0.0, 0.8, s.size)))]

    @pytest.mark.parametrize("fn", [log_reg_inc_beta, log_reg_upper_gamma_q, log_reg_lower_gamma_p])
    def test_within_one_ulp_of_scalar(self, fn):
        got, scalars = [], []
        for args in self.random_calls(fn):
            values = fn(*args).tolist()
            columns = [a.tolist() if isinstance(a, np.ndarray) else [a] * len(values) for a in args]
            got += values
            scalars += [fn(*element) for element in zip(*columns)]
        assert min(got) < math.log(1e-300) < max(got)
        assert all(abs(g - v) <= math.ulp(v) for g, v in zip(got, scalars))

    @pytest.mark.parametrize("shape", [(), (1,), (7,), (3, 5), (64,), (1000,)])
    def test_no_underflow_is_one_log_bit_identical_to_floored(self, shape):
        # with no value below the floor the fallback never runs, and the one
        # np.log pass gives the bits of the floored log it replaces
        rng = np.random.default_rng(7)
        v = np.exp(rng.uniform(math.log(1e-300), 0.0, shape))
        v.flat[0] = 1e-300  # the floor itself is not below it
        v = v[()]  # a 0-d value is a numpy scalar, as a ufunc returns it

        def fallback(*args):
            raise AssertionError(f"fallback ran at {args}")

        got = specfun._log_or_fallback(v, fallback, v)
        floored = np.log(np.maximum(v, 1e-300))
        assert type(got) is type(floored)
        assert np.shape(got) == shape
        assert np.array_equal(got, floored)
        assert np.asarray(got).tobytes() == np.asarray(floored).tobytes()

    @pytest.mark.parametrize(
        "fn, args",
        [
            (log_reg_inc_beta, (0.36, np.array([6.0, 0.0]), 0.5)),
            (log_reg_inc_beta, (0.36, np.array([6.0, np.nan]), 0.5)),
            (log_reg_upper_gamma_q, (np.array([6.0, -1.0]), 1.0)),
            (log_reg_upper_gamma_q, (np.array([6.0, 6.0]), np.array([1.0, -1.0]))),
            (log_reg_lower_gamma_p, (np.array([6.0, 6.0]), np.array([1.0, -1.0]))),
            # scipy's P(0, 1) = 1 passes the 1e-300 floor, so s is checked first
            (log_reg_lower_gamma_p, (np.array([6.0, 0.0]), np.array([1.0, 1.0]))),
            (log_reg_upper_gamma_q, (np.array([6.0, 0.0]), np.array([1.0, 1.0]))),
            # scipy's nan at a bad x fails the floor, which sends it to the check
            (log_reg_upper_gamma_q, (np.array([6.0, 6.0]), np.array([1.0, np.nan]))),
            (log_reg_lower_gamma_p, (6.0, np.array([1.0, np.nan]))),
            # x outside (0, 1]
            (log_reg_inc_beta, (0.0, np.array([6.0, 1.0]), 0.5)),
            (log_reg_inc_beta, (1.5, 6.0, 0.5)),
        ],
    )
    def test_rejects_bad_element(self, fn, args):
        with pytest.raises(ValueError, match=f"^{fn.__name__} requires"):
            fn(*args)


def test_clamp_helper():
    assert specfun._clamp01(-1e-17) == 0.0
    assert specfun._clamp01(1.0 + 1e-16) == 1.0
    assert specfun._clamp01(0.25) == 0.25
