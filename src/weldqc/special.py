"""Scalar special functions for Beta-distribution arithmetic.

Everything is done in log space so that shape parameters in the thousands
(large inspection samples) stay well inside double precision.  The quantile
inversion is a bracketed Newton iteration with the density as derivative and
bisection as fallback, converging to |cdf(x) - q| <= 1e-10.
"""

from __future__ import annotations

import math
from statistics import NormalDist

from .errors import DomainError

_CF_EPS = 1e-16
_CF_TINY = 1e-300
_CF_MAX_ITER = 500

_QUANTILE_TOL = 1e-12
_QUANTILE_MAX_ITER = 200

_NORMAL = NormalDist()


def log_gamma(z: float) -> float:
    """Natural log of the gamma function for z > 0."""
    if not (z > 0.0) or math.isinf(z):
        raise DomainError(f"log_gamma requires a positive finite argument, got {z}")
    return math.lgamma(z)


def log_beta(a: float, b: float) -> float:
    """log B(a, b) = log_gamma(a) + log_gamma(b) - log_gamma(a + b)."""
    return log_gamma(a) + log_gamma(b) - log_gamma(a + b)


def beta_log_pdf(x: float, a: float, b: float) -> float:
    """Log density of Beta(a, b) at x in (0, 1)."""
    if not (0.0 < x < 1.0):
        raise DomainError(f"beta_log_pdf requires 0 < x < 1, got {x}")
    return (a - 1.0) * math.log(x) + (b - 1.0) * math.log1p(-x) - log_beta(a, b)


def beta_pdf(x: float, a: float, b: float) -> float:
    return math.exp(beta_log_pdf(x, a, b))


def _betacf(x: float, a: float, b: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _CF_TINY:
        d = _CF_TINY
    d = 1.0 / d
    h = d
    # the number of terms needed grows like sqrt(max(a, b)) (Numerical Recipes 6.4)
    for m in range(1, _CF_MAX_ITER + math.isqrt(int(qab)) + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _CF_TINY:
            d = _CF_TINY
        c = 1.0 + aa / c
        if abs(c) < _CF_TINY:
            c = _CF_TINY
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _CF_TINY:
            d = _CF_TINY
        c = 1.0 + aa / c
        if abs(c) < _CF_TINY:
            c = _CF_TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _CF_EPS:
            return h
    raise DomainError(
        f"incomplete beta continued fraction did not converge for a={a}, b={b}, x={x}"
    )


def beta_cdf(x: float, a: float, b: float) -> float:
    """I_x(a, b), the regularized incomplete beta function."""
    if a <= 0.0 or b <= 0.0:
        raise DomainError(f"shape parameters must be positive, got a={a}, b={b}")
    if x < 0.0 or x > 1.0:
        raise DomainError(f"incomplete beta requires 0 <= x <= 1, got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    log_front = (
        a * math.log(x) + b * math.log1p(-x) - log_beta(a, b)
    )
    # symmetry split keeps the continued fraction in its fast-converging region
    if x < (a + 1.0) / (a + b + 2.0):
        return math.exp(log_front) * _betacf(x, a, b) / a
    return 1.0 - math.exp(
        b * math.log1p(-x) + a * math.log(x) - log_beta(b, a)
    ) * _betacf(1.0 - x, b, a) / b


def _quantile_initial_guess(q: float, a: float, b: float) -> float:
    """Abramowitz & Stegun 26.5.22 normal-based starting point."""
    y = normal_quantile(q)
    if a > 1.0 and b > 1.0:
        lam = (y * y - 3.0) / 6.0
        h = 2.0 / (1.0 / (2.0 * a - 1.0) + 1.0 / (2.0 * b - 1.0))
        w = y * math.sqrt(h + lam) / h - (
            1.0 / (2.0 * b - 1.0) - 1.0 / (2.0 * a - 1.0)
        ) * (lam + 5.0 / 6.0 - 2.0 / (3.0 * h))
        guess = a / (a + b * math.exp(2.0 * w))
    else:
        guess = a / (a + b)
    return min(max(guess, 1e-12), 1.0 - 1e-12)


def beta_quantile(q: float, a: float, b: float) -> float:
    """Inverse of beta_cdf: the value x with I_x(a, b) = q."""
    if a <= 0.0 or b <= 0.0:
        raise DomainError(f"shape parameters must be positive, got a={a}, b={b}")
    if q < 0.0 or q > 1.0:
        raise DomainError(f"quantile level must lie in [0, 1], got {q}")
    if q == 0.0:
        return 0.0
    if q == 1.0:
        return 1.0

    lo, hi = 0.0, 1.0
    x = _quantile_initial_guess(q, a, b)
    best_x, best_err = x, math.inf
    for _ in range(_QUANTILE_MAX_ITER):
        err = beta_cdf(x, a, b) - q
        if abs(err) < best_err:
            best_x, best_err = x, abs(err)
        if abs(err) <= _QUANTILE_TOL:
            return x
        if err > 0.0:
            hi = x
        else:
            lo = x
        # the bracket can collapse to adjacent doubles before |err| does:
        # near the support edges the cdf moves more than the tolerance per ulp
        if hi - lo <= 4.0 * math.ulp(hi):
            return best_x
        step_ok = False
        try:
            pdf = beta_pdf(x, a, b)
        except (OverflowError, DomainError):
            pdf = 0.0
        if pdf > 0.0 and math.isfinite(pdf):
            candidate = x - err / pdf
            if lo < candidate < hi:
                x = candidate
                step_ok = True
        if not step_ok:
            x = 0.5 * (lo + hi)
    if best_err <= 1e-8:
        return best_x
    raise DomainError(
        f"beta quantile inversion did not converge for q={q}, a={a}, b={b}"
    )


def normal_quantile(q: float) -> float:
    """Standard normal quantile (rational approximation, < 1e-9 error)."""
    if q <= 0.0 or q >= 1.0:
        raise DomainError(f"normal quantile requires 0 < q < 1, got {q}")
    return _NORMAL.inv_cdf(q)
