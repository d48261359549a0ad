"""Special-function kernel.

Log-gamma, log-space binomial coefficients, the regularized incomplete
beta function I_x(a, b), the regularized incomplete gamma functions P(s, x)
and Q(s, x), and the one cancellation-free c(x) = x - 1 - ln x (``_c``, for
the gamma prefactor and the asymptotics' decay rates), in double precision.

The incomplete gamma values come from ``scipy.special.gammainc`` /
``gammaincc`` (Temme's uniform asymptotics near the transition x = s),
and the log incomplete beta from ``scipy.special.betainc``.  The log
functions take the log of that value; only where it falls below about
1e-300 do they work in log space, so tails below the smallest positive
double stay finite: ln P from scipy's Kummer function ``hyp1f1``, ln Q
and ln I_x from hand-rolled continued fractions (scipy's ``hyperu`` takes
up to 0.1 s a call at s = 10^6, its ``hyp2f1`` gives nan for the beta
tail at q = 0.49).  For numbers they call the scalar entry points in
``scipy.special.cython_special``: the same kernels without the
microsecond of array dispatch a ufunc spends on each scalar.  Given a
numpy array of any shape, 0-d included, as any argument of the gamma
functions or as a of the beta, they call the ufunc once over the
broadcast of the arguments.  Where no value is below 1e-300 they take its
log in one pass; otherwise they take the log of the value floored at
1e-300 and run the log-space fallback only on the elements below the
floor.  The beta function checks each array's least element before its
ufunc.  The two gamma functions are one implementation with one domain,
s > 0 and x >= 0, where ln P(s, 0) = ln Q(s, inf) = -inf, and one check
order: s before scipy, since its P(0, x) = 1 passes the floor, and x only
once some value is below the floor, as scipy's nan at every bad x is.  So
their fast path is one scipy call, one reduction and one log.  An element
below the floor is bit-identical to the scalar call at its arguments; one
above it is within one ulp, since numpy's vectorised log (SIMD on
AVX-512 hosts) and ``math.log`` may round the same value apart.

The linear ``reg_inc_beta``, and so P(z), stays a hand-rolled continued
fraction (its prefactor assembled in log space) until scipy's ``betaincc``
can replace it: the last bits of its values decide tied cells of the
published tables, and every scipy route tried moved some of them.  So a
rewrite of the hand-rolled loops keeps each IEEE operation in its order.
It serves no solver: ``confirmations_required`` and ``z0_sharp`` search
the log kernels, ``log_reg_inc_beta`` for ln P and the two gamma log
tails for ln P_SN.
"""

import math

import numpy as np
import scipy.special as special
from scipy.special import cython_special

__all__ = [
    "ConvergenceError",
    "log_gamma",
    "log_binomial",
    "reg_inc_beta",
    "log_reg_inc_beta",
    "reg_upper_gamma_q",
    "log_reg_upper_gamma_q",
    "log_reg_lower_gamma_p",
]

# Lentz floor, and the magnitude below which the log of an incomplete
# gamma or beta value is evaluated in log space instead of taken from scipy
_TINY = 1e-300
_REL_EPS = 1e-14
# iteration cap of the two continued fractions
_MAX_ITER = 5000
# an argument of this type makes a log function run its ufunc over all of it;
# the gamma functions test both arguments by exact type, as cheap as one isinstance
_ARRAY = np.ndarray


class ConvergenceError(ArithmeticError):
    """Iteration cap reached before the requested tolerance."""


def _clamp01(x):
    # absorb last-ulp excursions; downstream invariants assume [0, 1]
    return 0.0 if x < 0.0 else 1.0 if x > 1.0 else x


def _log_or_fallback(v, fallback, *args):
    """ln v elementwise, where v is a ufunc's value at ``args`` (numbers or
    arrays); an element below _TINY is replaced by ``fallback`` evaluated
    at that element's arguments.  A 0-d input gives a numpy scalar."""
    if v.min() >= _TINY:  # the common case: nothing underflows
        return np.log(v)
    # np.asarray makes a numpy scalar a writable 0-d array
    out = np.asarray(np.log(np.maximum(v, _TINY)))
    flat_args = [np.broadcast_to(arg, out.shape).ravel() for arg in args]
    for i in np.flatnonzero(v < _TINY):
        out.flat[i] = fallback(*(float(arg[i]) for arg in flat_args))
    return out[()]


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0."""
    if x <= 0.0:
        raise ValueError(f"log_gamma requires x > 0, got x={x}")
    return math.lgamma(x)


def log_binomial(n: int, k: int) -> float:
    """ln C(n, k) for 0 <= k <= n, via log-gamma."""
    if k < 0 or n < 0 or k > n:
        raise ValueError(f"log_binomial requires 0 <= k <= n, got n={n}, k={k}")
    return log_gamma(n + 1.0) - log_gamma(k + 1.0) - log_gamma(n - k + 1.0)


# --------------------------------------------------------------------------
# Regularized incomplete beta
# --------------------------------------------------------------------------

def _beta_cf(a, b, x):
    """Continued fraction for I_x(a,b), modified Lentz recurrence.

    Converges fast for x < (a+1)/(a+b+2); the caller is responsible for
    picking the branch.  Returns the continued-fraction factor, i.e.
    I_x(a,b) * a / (x^a (1-x)^b / B(a,b)).

    P(z) is this loop until ``betaincc`` replaces it; tied table cells hang
    on its last bits, so a rewrite keeps every IEEE operation in order.  It
    runs on floats only, its counter m included: no operation converts an int.
    """
    a, b, x = float(a), float(b), float(x)
    # read at call time, so a patched cap or floor takes effect
    tiny, rel_eps = _TINY, _REL_EPS
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h, m = d, 0.0
    for _ in range(_MAX_ITER):
        m += 1.0
        m2 = m + m
        am2 = a + m2
        aa = m * (b - m) * x / ((qam + m2) * am2)
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / (am2 * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < rel_eps:
            return h
    raise ConvergenceError(
        f"incomplete beta continued fraction did not converge "
        f"(a={a}, b={b}, x={x}, max_iter={_MAX_ITER})"
    )


def _log_beta_prefactor(a, b, x):
    # ln( x^a (1-x)^b / B(a,b) ); both callers have checked a, b > 0
    return (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )


def reg_inc_beta(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta function I_x(a, b) in [0, 1].

    Direct continued fraction for x below the (a+1)/(a+b+2) crossover,
    the symmetry I_x(a,b) = 1 - I_{1-x}(b,a) above it.
    """
    if a <= 0.0 or b <= 0.0:
        raise ValueError(f"reg_inc_beta requires a > 0 and b > 0, got a={a}, b={b}")
    if x < 0.0 or x > 1.0:
        raise ValueError(f"reg_inc_beta requires 0 <= x <= 1, got x={x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    x, a, b = float(x), float(a), float(b)  # a numpy a would give np.float64
    if x < (a + 1.0) / (a + b + 2.0):
        v = math.exp(_log_beta_prefactor(a, b, x)) * _beta_cf(a, b, x) / a
        return _clamp01(v)
    v = math.exp(_log_beta_prefactor(b, a, 1.0 - x)) * _beta_cf(b, a, 1.0 - x) / b
    return _clamp01(1.0 - v)


def _log_beta_cf(x, a, b):
    # ln I_x(a, b) by the direct continued fraction: the branch that holds
    # where I_x is tiny, x below the (a+1)/(a+b+2) crossover
    return _log_beta_prefactor(a, b, x) + math.log(_beta_cf(a, b, x)) - math.log(a)


def log_reg_inc_beta(x: float, a, b: float):
    """ln I_x(a, b), elementwise if a is a numpy array; stays finite where
    I_x underflows to zero."""
    array = isinstance(a, _ARRAY)
    if not ((a.min() if array else a) > 0.0 and b > 0.0):
        raise ValueError(f"log_reg_inc_beta requires a > 0 and b > 0, got a={a}, b={b}")
    if not 0.0 < x <= 1.0:
        raise ValueError(f"log_reg_inc_beta requires 0 < x <= 1, got x={x}")
    if array:
        return _log_or_fallback(special.betainc(a, b, x), _log_beta_cf, x, a, b)
    x, a, b = float(x), float(a), float(b)
    v = cython_special.betainc(a, b, x)
    if v >= _TINY:
        return math.log(v)
    return _log_beta_cf(x, a, b)


# --------------------------------------------------------------------------
# Regularized incomplete gamma
# --------------------------------------------------------------------------

# From this s on, the first term that _log_gamma_norm leaves out of
# Stirling's series, 1/(1188 s^9), is below 1e-15.
_STIRLING_MIN_S = 22


def _log_gamma_norm(s):
    """ln(s^s e^{-s} / Gamma(s)), where no two terms of size s ln s cancel:
    Stirling's ln(s / 2 pi) / 2 - r(s) with r(s) = 1/(12s) - 1/(360s^3)
    + 1/(1260s^5) - 1/(1680s^7) from _STIRLING_MIN_S on, lgamma below it."""
    if s >= _STIRLING_MIN_S:
        w = 1.0 / s
        w2 = w * w
        remainder = w * (1 / 12 - w2 * (1 / 360 - w2 * (1 / 1260 - w2 / 1680)))
        return 0.5 * math.log(s / (2.0 * math.pi)) - remainder
    return s * math.log(s) - s - math.lgamma(s)


def _c(u, log_x):
    """c(x) = x - 1 - ln x from u = x - 1 and ln x, both supplied accurately
    by the caller, who never has to form 1 + u.  Where |u| < 1/2 it is summed
    as u v - 2 v^3 (1/3 + v^2/5 + ...), v = u/(2 + u), since u - ln x loses
    about 1/|u| ulps to cancellation; elsewhere it is u - ln x."""
    if abs(u) < 0.5:
        v = u / (2.0 + u)
        v2 = v * v
        total, term, k = 1.0 / 3.0, v2, 5.0
        while term > 1e-17 * total:
            total, term, k = total + term / k, term * v2, k + 2.0
        return u * v - 2.0 * v * v2 * total
    return u - log_x


def _log_gamma_prefactor(s, x):
    """ln(x^s e^{-x} / Gamma(s)) = _log_gamma_norm(s) - s c(x/s).  Where x/s is not
    normal, s c(x/s) = x - s - s (log x - log s), as c(x/s) may overflow."""
    t = x / s
    if not _TINY < t < math.inf:
        return _log_gamma_norm(s) - (x - s - s * (math.log(x) - math.log(s)))
    return _log_gamma_norm(s) - s * _c((x - s) / s, math.log(t))


def _log_lower_gamma_kummer(s, x):
    """ln P(s, x) by Kummer's function, P(s, x) = x^s e^{-x} M(1, s + 1, x) / Gamma(s + 1)."""
    if x == 0.0:
        return -math.inf
    m = cython_special.hyp1f1(1.0, s + 1.0, float(x))
    return _log_gamma_prefactor(s, x) - math.log(s) + math.log(m)


def _log_upper_gamma_cf(s, x):
    """ln Q(s, x) by the continued fraction; fast where Q is tiny (x well above
    s).  Like _beta_cf, it runs on floats only."""
    s, x = float(s), float(x)
    if x == math.inf:
        return -math.inf
    tiny, rel_eps = _TINY, _REL_EPS
    b = x + 1.0 - s
    c = 1.0 / tiny
    d = 1.0 / b
    h, i = d, 0.0
    for _ in range(_MAX_ITER):
        i += 1.0
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < rel_eps:
            return _log_gamma_prefactor(s, x) + math.log(h)
    raise ConvergenceError(
        f"upper incomplete gamma continued fraction did not converge "
        f"(s={s}, x={x}, max_iter={_MAX_ITER})"
    )


def _least(a):
    """The least element of a numpy array, or a number itself."""
    return a.min() if type(a) is _ARRAY else a


def reg_upper_gamma_q(s: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(s, x) = Gamma(s, x) / Gamma(s).

    For integer s this is the Poisson CDF partial sum
    sum_{k<s} x^k/k! e^{-x}.
    """
    if not (s > 0.0 and x >= 0.0):
        raise ValueError(f"reg_upper_gamma_q requires s > 0 and x >= 0, got s={s}, x={x}")
    return cython_special.gammaincc(s, x)


def _log_gamma_tail(name, ufunc, scalar, fallback, doc):
    """A log tail of the incomplete gamma: ln ``ufunc`` (``scalar`` for numbers), by
    ``fallback`` below the floor; built once per tail, so a call is one frame."""

    def log_tail(s, x):
        if type(s) is _ARRAY or type(x) is _ARRAY:
            if _least(s) > 0.0:
                v = ufunc(s, x)
                if v.min() >= _TINY:
                    return np.log(v)
                if _least(x) >= 0.0:
                    return _log_or_fallback(v, fallback, s, x)
        elif s > 0.0:
            v = scalar(s, x)
            if v >= _TINY:
                return math.log(v)
            if x >= 0.0:
                return fallback(s, x)
        raise ValueError(f"{name} requires s > 0 and x >= 0, got s={s}, x={x}")

    log_tail.__name__ = log_tail.__qualname__ = name
    log_tail.__doc__ = doc
    return log_tail


log_reg_upper_gamma_q = _log_gamma_tail(
    "log_reg_upper_gamma_q", special.gammaincc, cython_special.gammaincc, _log_upper_gamma_cf,
    """ln Q(s, x); finite for x far above s where Q underflows.  Elementwise
    over the broadcast of s and x if either is a numpy array.""")

log_reg_lower_gamma_p = _log_gamma_tail(
    "log_reg_lower_gamma_p", special.gammainc, cython_special.gammainc, _log_lower_gamma_kummer,
    """ln P(s, x) = ln(1 - Q(s, x)); finite for x far below s.  Elementwise
    over the broadcast of s and x if either is a numpy array.""")
