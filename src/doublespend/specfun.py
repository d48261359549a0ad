"""Special-function kernel.

Log-gamma, log-space binomial coefficients, the regularized incomplete
beta function I_x(a, b) and the regularized incomplete gamma functions
P(s, x) and Q(s, x), in double precision.

The incomplete gamma values come from ``scipy.special.gammainc`` /
``gammaincc`` (Temme's uniform asymptotics near the transition x = s),
and the log incomplete beta from ``scipy.special.betainc``.  The log
functions take the log of that value; only where it falls below about
1e-300 do they switch to a log-space series (for P) or continued
fraction (for Q and I_x), so tails below the smallest positive double
stay finite.  For numbers they call the scalar entry points in
``scipy.special.cython_special``: the same kernels without the
microsecond of array dispatch a ufunc spends on each scalar.  Given a
numpy array (s for the gamma functions, a for the beta) they call the
ufunc once over it and run the log-space fallback element by element.

The linear ``reg_inc_beta`` is still hand-rolled (a continued fraction
with its prefactor assembled in log space).
"""

import math

import numpy as np
from scipy import special
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
# At the 1e-300 switch the log-space gamma series needs about 0.8 sqrt(s)
# terms (770 at s = 10^6); the continued fractions need far fewer.
_MAX_ITER = 5000
# an argument of this type makes a log function run its ufunc over all of it
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
    shape = np.shape(v)
    v = np.ravel(v)
    tiny = v < _TINY
    out = np.log(np.where(tiny, 1.0, v))
    if tiny.any():
        flat_args = [np.ravel(np.broadcast_to(arg, shape)) for arg in args]
        for i in np.flatnonzero(tiny):
            out[i] = fallback(*(float(arg[i]) for arg in flat_args))
    return out.reshape(shape)[()]


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
    """
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _TINY:
        d = _TINY
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _REL_EPS:
            return h
    raise ConvergenceError(
        f"incomplete beta continued fraction did not converge "
        f"(a={a}, b={b}, x={x}, max_iter={_MAX_ITER})"
    )


def _log_beta_prefactor(a, b, x):
    # ln( x^a (1-x)^b / B(a,b) )
    return (
        log_gamma(a + b) - log_gamma(a) - log_gamma(b)
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
    if not ((np.min(a) if array else a) > 0.0 and b > 0.0):
        raise ValueError(f"log_reg_inc_beta requires a > 0 and b > 0, got a={a}, b={b}")
    if not 0.0 < x <= 1.0:
        raise ValueError(f"log_reg_inc_beta requires 0 < x <= 1, got x={x}")
    if array:
        return _log_or_fallback(special.betainc(a, b, x), _log_beta_cf, x, a, b)
    v = cython_special.betainc(float(a), float(b), float(x))
    if v >= _TINY:
        return math.log(v)
    return _log_beta_cf(x, a, b)


# --------------------------------------------------------------------------
# Regularized incomplete gamma
# --------------------------------------------------------------------------

def _log_lower_gamma_series(s, x):
    """ln P(s, x) by the lower series; fast where P is tiny (x well below s)."""
    term = 1.0
    total = 1.0
    ap = s
    for _ in range(_MAX_ITER):
        ap += 1.0
        term *= x / ap
        total += term
        if term < total * _REL_EPS:
            return s * math.log(x) - x - log_gamma(s + 1.0) + math.log(total)
    raise ConvergenceError(
        f"lower incomplete gamma series did not converge "
        f"(s={s}, x={x}, max_iter={_MAX_ITER})"
    )


def _log_upper_gamma_cf(s, x):
    """ln Q(s, x) by the continued fraction; fast where Q is tiny (x well above s)."""
    b = x + 1.0 - s
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER + 1):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if abs(d) < _TINY:
            d = _TINY
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _REL_EPS:
            return s * math.log(x) - x - log_gamma(s) + math.log(h)
    raise ConvergenceError(
        f"upper incomplete gamma continued fraction did not converge "
        f"(s={s}, x={x}, max_iter={_MAX_ITER})"
    )


def _check_gamma_args(name, s, x):
    if not s > 0.0:
        raise ValueError(f"{name} requires s > 0, got s={s}")
    if not x >= 0.0:
        raise ValueError(f"{name} requires x >= 0, got x={x}")


def reg_upper_gamma_q(s: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(s, x) = Gamma(s, x) / Gamma(s).

    For integer s this is the Poisson CDF partial sum
    sum_{k<s} x^k/k! e^{-x}.
    """
    _check_gamma_args("reg_upper_gamma_q", s, x)
    return cython_special.gammaincc(s, x)


def log_reg_upper_gamma_q(s, x):
    """ln Q(s, x); finite for x far above s where Q underflows.  Elementwise
    if s is a numpy array (x a number or an array of the same shape)."""
    if isinstance(s, _ARRAY):
        _check_gamma_args("log_reg_upper_gamma_q", np.min(s), np.min(x))
        return _log_or_fallback(special.gammaincc(s, x), _log_upper_gamma_cf, s, x)
    _check_gamma_args("log_reg_upper_gamma_q", s, x)
    v = cython_special.gammaincc(s, x)
    if v >= _TINY:
        return math.log(v)
    return _log_upper_gamma_cf(s, x)


def log_reg_lower_gamma_p(s, x):
    """ln P(s, x) = ln(1 - Q(s, x)); finite for x far below s.  Elementwise
    if s is a numpy array (x a number or an array of the same shape)."""
    if isinstance(s, _ARRAY):
        if not (np.min(s) > 0.0 and np.min(x) > 0.0):
            raise ValueError(f"log_reg_lower_gamma_p requires s > 0 and x > 0, got s={s}, x={x}")
        return _log_or_fallback(special.gammainc(s, x), _log_lower_gamma_series, s, x)
    if not s > 0.0:
        raise ValueError(f"log_reg_lower_gamma_p requires s > 0, got s={s}")
    if not x > 0.0:
        raise ValueError(f"log_reg_lower_gamma_p requires x > 0, got x={x}")
    v = cython_special.gammainc(s, x)
    if v >= _TINY:
        return math.log(v)
    return _log_lower_gamma_series(s, x)
