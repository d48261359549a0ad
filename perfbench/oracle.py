"""Reference values at 40 digits from mpmath, independent of the library
and of scipy.special, and the pass/fail rules applied to each answer.

Two rules are applied to every answer:

* ``accurate`` is the accuracy target of the roadmap: relative error at
  most 1e-12 where the reference is at least 1e-300, absolute error at
  most 1e-300 below that.  A miss counts in ``accuracy.miss_share``.
* ``sane`` is the gate behind ``failed`` and ``correct``: the answer is
  within 5e-8 of the reference, half a unit in the seventh decimal the
  CLI prints (a solver answer is right for some curve within 5e-8 of the
  true one), and an exception, if any, is the library's own
  ``ConvergenceError``.
  The defects known when the benchmark was defined all pass it; an
  answer that fails it is plainly wrong.
"""

import functools

import mpmath as mp

DPS = 40
STRICT_REL = mp.mpf("1e-12")
TINY = mp.mpf("1e-300")
SANE_ABS = mp.mpf("5e-8")
# recover_p_by_quadrature documents agreement with the closed form to
# 1e-8; its target here is that agreement as a relative error.
QUAD_REL = mp.mpf("1e-8")
QUAD_SANE_ABS = mp.mpf("1e-8")
# kappa_threshold bisects to 1e-13 relative on its bracket.
THRESHOLD_REL = mp.mpf("1e-12")
THRESHOLD_SANE_REL = mp.mpf("1e-9")
DECLARED_ERROR = "ConvergenceError"


def _split(q):
    q = mp.mpf(q)
    return q, 1 - q


@functools.lru_cache(maxsize=None)
def p_exact(q, z):
    """P(z) = I_{4pq}(z, 1/2) = 2 P[Binomial(2z-1, q) >= z], a sum of
    positive terms that decay at least as fast as (q/p)^j."""
    if z == 0:
        return mp.mpf(1)
    with mp.workdps(DPS):
        q, p = _split(q)
        n = 2 * z - 1
        term = mp.exp(mp.loggamma(n + 1) - mp.loggamma(z + 1) - mp.loggamma(z)
                      + z * mp.log(q) + (z - 1) * mp.log(p))
        total = term
        lam = q / p
        eps = mp.mpf(10) ** -(DPS + 2)
        for j in range(z, n):
            term *= (n - j) * lam / (j + 1)
            total += term
            if term < total * eps:
                break
        return 2 * total


@functools.lru_cache(maxsize=None)
def p_nakamoto(q, z):
    """P_SN(z) = P[Pois(z q/p) >= z] + (q/p)^z e^{z(1-q/p)} Q(z, z)."""
    if z == 0:
        return mp.mpf(1)
    return p_conditional(q, z, 1.0)


def _poisson_split(x, z):
    """(P[Pois(x) >= z], P[Pois(x) < z]) = (P(z, x), Q(z, x)) for integer z.

    Sums the positive terms of the smaller side, starting next to z where
    they are largest, and takes the other side as its complement, which
    is never small.
    """
    x = mp.mpf(x)
    if x == 0:
        return mp.mpf(0), mp.mpf(1)
    eps = mp.mpf(10) ** -(DPS + 2)
    if x < z:
        term = mp.exp(-x + z * mp.log(x) - mp.loggamma(z + 1))
        total, k = term, z
        while term >= total * eps:
            k += 1
            term *= x / k
            total += term
        return total, 1 - total
    term = mp.exp(-x + (z - 1) * mp.log(x) - mp.loggamma(z))
    total, k = term, z - 1
    while k > 0 and term >= total * eps:
        term *= k / x
        k -= 1
        total += term
    return 1 - total, total


@functools.lru_cache(maxsize=None)
def p_conditional(q, z, kappa):
    """P(z, kappa) = P(z, kappa z q/p) + (q/p)^z e^{kappa z (1-q/p)} Q(z, kappa z)."""
    with mp.workdps(DPS):
        q, p = _split(q)
        lam = q / p
        x = mp.mpf(kappa) * z
        return (_poisson_split(x * lam, z)[0]
                + lam ** z * mp.exp(x * (1 - lam)) * _poisson_split(x, z)[1])


def threshold_lhs(z, kappa):
    """Left side of the kappa(z) equation, sum_j prod_{i<=j} (1 - i/z) / kappa^j."""
    with mp.workdps(DPS):
        kappa = mp.mpf(kappa)
        term, total = mp.mpf(1), mp.mpf(0)
        eps = mp.mpf(10) ** -(DPS + 2)
        for j in range(1, z):
            term *= (1 - mp.mpf(j) / z) / kappa
            total += term
            if term < total * eps:
                break
        return total


def _is_error(answer):
    return isinstance(answer, dict)


def check_value(answer, ref):
    """(accurate, sane) for a probability answer against its reference."""
    if _is_error(answer):
        return False, answer["error"] == DECLARED_ERROR
    with mp.workdps(DPS):
        err = abs(mp.mpf(answer) - ref)
        accurate = err <= STRICT_REL * ref if ref >= TINY else err <= TINY
        return accurate, err <= SANE_ABS


def check_solver(z, risk, prob):
    """A solver answer z is right when P(z) < risk <= P(z-1) at the oracle."""
    with mp.workdps(DPS):
        risk = mp.mpf(risk)
        below, above = prob(z), prob(z - 1)
        accurate = below < risk <= above
        sane = below < risk + SANE_ABS and above >= risk - SANE_ABS
        return accurate, sane


def check_quadrature(answer, q, z):
    if _is_error(answer):
        return False, answer["error"] == DECLARED_ERROR
    ref = p_exact(q, z)
    with mp.workdps(DPS):
        err = abs(mp.mpf(answer) - ref)
        accurate = err <= QUAD_REL * ref if ref >= TINY else err <= TINY
        return accurate, err <= QUAD_SANE_ABS


def check_threshold(answer, q, z):
    """kappa(z) is right when the decreasing left side crosses the target
    q/(p-q) within the relative bracket around the answer."""
    if _is_error(answer):
        return False, answer["error"] == DECLARED_ERROR
    with mp.workdps(DPS):
        qm, p = _split(q)
        target = qm / (p - qm)

        def brackets(rel):
            k = mp.mpf(answer)
            return threshold_lhs(z, k * (1 - rel)) > target > threshold_lhs(z, k * (1 + rel))

        return brackets(THRESHOLD_REL), brackets(THRESHOLD_SANE_REL)


def check_risk_answer(query, answer):
    """(accurate, sane, detail) for one risk_queries answer."""
    kind, q = query["kind"], query["q"]
    if kind == "z_req":
        if _is_error(answer):
            return False, answer["error"] == DECLARED_ERROR, answer["error"]
        z, z_sn = answer
        exact = check_solver(z, query["risk"], lambda n: p_exact(q, n))
        naka = check_solver(z_sn, query["risk"], lambda n: p_nakamoto(q, n))
        detail = None if exact[0] and naka[0] else (
            "exact solver" if not exact[0] else "Nakamoto solver")
        return exact[0] and naka[0], exact[1] and naka[1], detail
    if kind == "P":
        ref = p_exact(q, query["z"])
    elif kind == "P_SN":
        ref = p_nakamoto(q, query["z"])
    else:
        ref = p_conditional(q, query["z"], query["kappa"])
    accurate, sane = check_value(answer, ref)
    detail = answer["error"] if _is_error(answer) else None
    return accurate, sane, detail
