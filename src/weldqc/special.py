"""Special functions for Beta-distribution arithmetic.

Everything is done in log space so that shape parameters in the thousands
(large inspection samples) stay well inside double precision.  The quantile
inversion is a bracketed Newton iteration with the density as derivative and
bisection as fallback, run to |cdf(x) - q| <= 1e-12.  The incomplete beta's
continued fraction, about sqrt(a + b) terms (Numerical Recipes 6.4), is
evaluated at the starting point and after each bisection.  A Newton step short
enough for log f to stay nearly flat over it instead adds the density's
integral over the step to the cdf, by 4-point Gauss-Legendre (`_cdf_step`), so
a quantile usually costs one continued fraction.  Its best iterate is
returned if the bracket closes to adjacent doubles first, or if it is within
1e-8 when the iterations run out; otherwise the inversion fails.

The Beta functions are scalar; `log_gamma_gap` works on numpy arrays.  Both
it and the tiny-shape branch of `log_beta` write log Gamma in Stirling form,
lgamma(z) = (z - 1/2) ln z - z + ln(2 pi)/2 + omega(z) (DLMF 5.11.1), so that
the large linear terms cancel exactly instead of being subtracted in floating
point.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

from .errors import DomainError

_CF_EPS = 1e-16
_CF_TINY = 1e-300
_CF_MAX_ITER = 500

_QUANTILE_TOL = 1e-12
_QUANTILE_MAX_ITER = 200
#: a Newton step whose log-density change is about this at most moves the cdf
#: by the density's integral (`_cdf_step`) instead of a new continued fraction
_SMOOTH_STEP = 0.05
#: 4-point Gauss-Legendre nodes +-t on [-1, 1] and their weights, as
#: numpy.polynomial.legendre.leggauss(4) gives them
_GAUSS_LEGENDRE = (
    (0.33998104358485626, 0.6521451548625464),
    (0.8611363115940526, 0.34785484513745357),
)
#: largest a + b for the incomplete beta: its continued fraction needs about
#: sqrt(a + b) terms, and beyond 1e12 its quantiles drift from scipy's
_MAX_SHAPE_SUM = 1e12

_NORMAL = NormalDist()

# B_2k / (2k (2k - 1)), k = 1..8: the Stirling series of omega (DLMF 5.11.1);
# at z >= 10 the first omitted term is below 2e-18
_STIRLING = (
    1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0,
    1.0 / 1188.0, -691.0 / 360360.0, 1.0 / 156.0, -3617.0 / 122400.0,
)
_STIRLING_MIN = 10.0


def log_gamma(z: float) -> float:
    """Natural log of the gamma function for z > 0."""
    if not (z > 0.0) or math.isinf(z):
        raise DomainError(f"log_gamma requires a positive finite argument, got {z}")
    return math.lgamma(z)


def _stirling_remainder(z):
    """omega(z) = lgamma(z) - (z - 1/2) ln z + z - ln(2 pi)/2, for z >= 10.

    Plain arithmetic, so z may be a float or a numpy array.
    """
    w = 1.0 / (z * z)
    c1, c2, c3, c4, c5, c6, c7, c8 = _STIRLING
    return (c1 + w * (c2 + w * (c3 + w * (c4 + w * (c5 + w * (c6 + w * (c7 + w * c8))))))) / z


def log_beta(a: float, b: float) -> float:
    """log B(a, b) = log_gamma(a) + log_gamma(b) - log_gamma(a + b)."""
    small, large = (a, b) if a <= b else (b, a)  # min and max could drop a NaN
    if _STIRLING_MIN <= large < math.inf:
        # lgamma(large) - lgamma(large + small) in Stirling form: the two
        # lgamma values can be near 2e10 while their difference is small
        return (
            log_gamma(small)
            - (large - 0.5) * math.log1p(small / large)
            - small * math.log(large + small)
            + small
            + _stirling_remainder(large)
            - _stirling_remainder(large + small)
        )
    return log_gamma(a) + log_gamma(b) - log_gamma(a + b)


def stirling_omega(z: np.ndarray) -> np.ndarray:
    """omega(max(z, 10)) elementwise: the terms of `log_gamma_gap`'s `omega_sum`.

    A value below 10 is never read there, since its pair is shifted first.
    """
    return _stirling_remainder(np.maximum(z, _STIRLING_MIN))


def log_gamma_gap(
    x: np.ndarray, y: np.ndarray, half_diff: np.ndarray, omega_sum: np.ndarray
) -> np.ndarray:
    """lgamma((x + y)/2) - (lgamma(x) + lgamma(y))/2 elementwise; <= 0 by convexity.

    `half_diff` is (x - y)/2, which the caller forms from the differences of
    the shapes that x and y are built from: derived from rounded x and y it
    could lose every digit.  `omega_sum` is omega(x) + omega(y) from
    `stirling_omega`, so a caller that pairs the same arguments many times
    computes each omega once.  With m = (x + y)/2, d = |half_diff| and t = d/m,
    the Stirling form reduces the gap to

        -[(m - 1/2) log(xy/m^2) + d log(hi/lo)]/2 + omega(m) - (omega(x) + omega(y))/2

    where log(xy/m^2) = log1p(-t^2) and log(hi/lo) = 2 atanh(t), so nothing
    large is subtracted.  From t = 1/2 on, both come from ratios of the ends
    instead: near t = 1, log1p and atanh of t lose digits.  Arguments below
    10 are first shifted up by lgamma(z) = lgamma(z + 1) - ln z, which adds
    log(xy/m^2)/2 per step.  Identical arguments give exactly 0.
    """
    lo, hi = np.minimum(x, y), np.maximum(x, y)
    mid = 0.5 * (x + y)
    d = np.abs(half_diff)
    gap = np.zeros(mid.shape)
    omega = omega_sum
    # shift only the pairs below 10, in compact copies sorted by lo: the pairs
    # still below 10 stay a leading run that shrinks, and one scatter ends it
    small = np.flatnonzero(lo < _STIRLING_MIN)
    if small.size:
        small = small[np.argsort(lo.flat[small], kind="stable")]
        s_lo, s_hi, s_mid, s_d = (a.flat[small] for a in (lo, hi, mid, d))
        s_gap = np.zeros(small.size)
        run = small.size
        while run:
            s_gap[:run] += 0.5 * _log_ends(s_lo[:run], s_hi[:run], s_mid[:run], s_d[:run] / s_mid[:run])
            s_lo[:run] += 1.0
            s_hi[:run] += 1.0
            s_mid[:run] += 1.0
            run = int(np.searchsorted(s_lo[:run], _STIRLING_MIN))
        for a, shifted in zip((gap, lo, hi, mid), (s_gap, s_lo, s_hi, s_mid)):
            a.flat[small] = shifted
        # omega(lo) + omega(hi) is omega(x) + omega(y) bit for bit, except where shifted
        omega = omega_sum.copy()
        omega.flat[small] = _stirling_remainder(s_lo) + _stirling_remainder(s_hi)
    t = d / mid
    near = np.minimum(t, 0.5)  # keeps the unused branch of np.where finite
    spread = np.where(t < 0.5, 2.0 * np.arctanh(near), np.log(hi / lo))
    gap -= 0.5 * ((mid - 0.5) * _log_ends(lo, hi, mid, t) + d * spread)
    return gap + (_stirling_remainder(mid) - 0.5 * omega)


def _log_ends(lo, hi, mid, t):
    """log(lo * hi / mid^2) = log1p(-t^2), for lo + hi = 2 mid and t = (hi - lo)/(2 mid)."""
    near = np.minimum(t, 0.5)
    return np.where(t < 0.5, np.log1p(-near * near), np.log(lo / mid * (hi / mid)))


def beta_log_pdf(x: float, a: float, b: float) -> float:
    """Log density of Beta(a, b) at x in (0, 1)."""
    if not (0.0 < x < 1.0):
        raise DomainError(f"beta_log_pdf requires 0 < x < 1, got {x}")
    return _beta_log_pdf(x, a, b, log_beta(a, b))


def _beta_log_pdf(x: float, a: float, b: float, log_b: float) -> float:
    """beta_log_pdf for x in (0, 1), given log_b = log B(a, b)."""
    return (a - 1.0) * math.log(x) + (b - 1.0) * math.log1p(-x) - log_b


def _betacf(x: float, a: float, b: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    tiny, eps = _CF_TINY, _CF_EPS
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    # a float term counter gives an int counter's bits without converting it per use;
    # the number of terms needed grows like sqrt(max(a, b)) (Numerical Recipes 6.4)
    m = 0.0
    for _ in range(_CF_MAX_ITER + math.isqrt(int(qab))):
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
        if abs(delta - 1.0) < eps:
            return h
    raise DomainError(
        f"incomplete beta continued fraction did not converge for a={a}, b={b}, x={x}"
    )


def _check_shapes(a: float, b: float) -> None:
    if not (0.0 < a < math.inf and 0.0 < b < math.inf):
        raise DomainError(f"shape parameters must be positive and finite, got a={a}, b={b}")
    if not a + b <= _MAX_SHAPE_SUM:
        raise DomainError(
            f"shape parameters must sum to at most {_MAX_SHAPE_SUM:g}, got a={a}, b={b}"
        )


def beta_cdf(x: float, a: float, b: float) -> float:
    """I_x(a, b), the regularized incomplete beta function."""
    _check_shapes(a, b)
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"incomplete beta requires 0 <= x <= 1, got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    return _beta_cdf(x, a, b, log_beta(a, b))


def _beta_cdf(x: float, a: float, b: float, log_b: float) -> float:
    """beta_cdf for positive shapes and x in (0, 1), given log_b = log B(a, b).

    log_beta is symmetric bit for bit, so log_b and the one prefactor serve
    both I_x(a, b) and 1 - I_{1-x}(b, a).
    """
    front = math.exp(a * math.log(x) + b * math.log1p(-x) - log_b)
    # symmetry split keeps the continued fraction in its fast-converging region
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(x, a, b) / a
    return 1.0 - front * _betacf(1.0 - x, b, a) / b


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


def _cdf_step(x: float, h: float, a: float, b: float, log_b: float) -> float | None:
    """I_{x+h}(a, b) - I_x(a, b) as the integral of the density over [x, x + h],
    or None where the step is too long for the rule.

    The rule is 4-point Gauss-Legendre, used only where log f is nearly flat
    over the step: |h| is at most half the distance to the nearer support
    edge, and |h| (|d log f| + sqrt(|a - 1|/x^2 + |b - 1|/(1 - x)^2)) <= 0.05
    at x.  Both are written with r = |h|/x and s = |h|/(1 - x), so nothing
    overflows near the edges.
    """
    r, s = abs(h) / x, abs(h) / (1.0 - x)
    if not max(r, s) <= 0.5:
        return None
    a1, b1 = a - 1.0, b - 1.0
    if abs(a1 * r - b1 * s) + math.sqrt(abs(a1) * r * r + abs(b1) * s * s) > _SMOOTH_STEP:
        return None
    mid, half = x + 0.5 * h, 0.5 * h
    total = 0.0
    try:
        for t, w in _GAUSS_LEGENDRE:
            total += w * (
                math.exp(_beta_log_pdf(mid - half * t, a, b, log_b))
                + math.exp(_beta_log_pdf(mid + half * t, a, b, log_b))
            )
    except OverflowError:
        return None
    return half * total


def beta_quantile(q: float, a: float, b: float) -> float:
    """Inverse of beta_cdf: the value x with I_x(a, b) = q."""
    _check_shapes(a, b)
    if not 0.0 <= q <= 1.0:
        raise DomainError(f"quantile level must lie in [0, 1], got {q}")
    if q == 0.0:
        return 0.0
    if q == 1.0:
        return 1.0

    lo, hi = 0.0, 1.0
    x = _quantile_initial_guess(q, a, b)
    log_b = log_beta(a, b)  # the shapes are fixed: one log B for every step
    cdf = _beta_cdf(x, a, b, log_b)
    best_x, best_err = x, math.inf
    for _ in range(_QUANTILE_MAX_ITER):
        err = cdf - q
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
        try:
            pdf = math.exp(_beta_log_pdf(x, a, b, log_b))
        except OverflowError:
            pdf = 0.0
        if 0.0 < pdf < math.inf and lo < (candidate := x - err / pdf) < hi:
            step = _cdf_step(x, candidate - x, a, b, log_b)
            x = candidate
            cdf = _beta_cdf(x, a, b, log_b) if step is None else cdf + step
        else:
            x = 0.5 * (lo + hi)
            cdf = _beta_cdf(x, a, b, log_b)
    if best_err <= 1e-8:
        return best_x
    raise DomainError(
        f"beta quantile inversion did not converge for q={q}, a={a}, b={b}"
    )


def normal_quantile(q: float) -> float:
    """Standard normal quantile, from `statistics.NormalDist.inv_cdf`."""
    if not 0.0 < q < 1.0:
        raise DomainError(f"normal quantile requires 0 < q < 1, got {q}")
    return _NORMAL.inv_cdf(q)
