import importlib.util
import itertools
import math
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy import integrate, special as sp

from weldqc import special
from weldqc.bayes import CountData, posterior
from weldqc.errors import DomainError


#: shapes that start below, just below, at and above the shift threshold of 10
GAP_GRID = (1e-3, 0.5, 1.0, 9.5, 9.999999999, 10.0, 10.5, 1e5, 1e11)


def omega_sum(x, y):
    return special.stirling_omega(x) + special.stirling_omega(y)


def masked_loop_gap(x, y, half_diff):
    """`special.log_gamma_gap` as a loop that masks, shifts and re-tests every
    pair on each step: the reference the compact shift must equal bit for bit."""
    lo, hi = np.minimum(x, y), np.maximum(x, y)
    mid = 0.5 * (x + y)
    d = np.abs(half_diff)
    gap = np.zeros(mid.shape)
    while (small := lo < special._STIRLING_MIN).any():
        gap[small] += 0.5 * special._log_ends(
            lo[small], hi[small], mid[small], d[small] / mid[small]
        )
        lo[small] += 1.0
        hi[small] += 1.0
        mid[small] += 1.0
    t = d / mid
    near = np.minimum(t, 0.5)
    spread = np.where(t < 0.5, 2.0 * np.arctanh(near), np.log(hi / lo))
    gap -= 0.5 * ((mid - 0.5) * special._log_ends(lo, hi, mid, t) + d * spread)
    remainder = special._stirling_remainder
    return gap + (remainder(mid) - 0.5 * (remainder(lo) + remainder(hi)))


class TestLogGamma:
    def test_known_values(self):
        assert special.log_gamma(1.0) == 0.0
        assert special.log_gamma(2.0) == pytest.approx(0.0, abs=1e-15)
        assert special.log_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-14)

    def test_against_high_precision_oracle(self):
        mpmath.mp.dps = 40
        for z in np.geomspace(1e-3, 1e6, 200):
            expected = float(mpmath.loggamma(z))
            got = special.log_gamma(float(z))
            assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_rejects_nonpositive(self):
        for z in (0.0, -1.0, -0.5):
            with pytest.raises(DomainError):
                special.log_gamma(z)


def test_log_beta_identity():
    assert special.log_beta(1.0, 1.0) == pytest.approx(0.0, abs=1e-15)
    rng = np.random.default_rng(1)
    for _ in range(200):
        a, b = rng.uniform(0.1, 5000.0, 2)
        assert special.log_beta(a, b) == pytest.approx(
            special.log_gamma(a) + special.log_gamma(b) - special.log_gamma(a + b),
            rel=1e-13, abs=1e-13,
        )


class TestStirlingForms:
    def test_log_beta_with_one_tiny_shape_matches_mpmath(self):
        rng = np.random.default_rng(3)
        with mpmath.workdps(50):
            for _ in range(200):
                small = float(rng.uniform(0.01, 10.0))
                large = float(np.exp(rng.uniform(math.log(10.0), math.log(1e12))))
                s, l = mpmath.mpf(small), mpmath.mpf(large)
                expected = float(mpmath.loggamma(s) + mpmath.loggamma(l) - mpmath.loggamma(s + l))
                assert special.log_beta(small, large) == pytest.approx(expected, rel=4e-15, abs=4e-15)
                assert special.log_beta(large, small) == special.log_beta(small, large)

    @pytest.mark.parametrize(
        "a, b",
        list(itertools.combinations_with_replacement(
            [10.0, 37.5, 150.5, 1000.0, 7044.5, 92956.5, 1e6 + 0.5, 5e7, 1e9], 2
        )),
    )
    def test_log_beta_with_both_shapes_large_matches_mpmath(self, a, b):
        # lgamma(a) + lgamma(b) - lgamma(a + b) errs by about eps * (a + b) ln(a + b);
        # the Stirling difference keeps the error to the order of eps * min(a, b) ln(a + b)
        with mpmath.workdps(40):
            A, B = mpmath.mpf(a), mpmath.mpf(b)
            expected = mpmath.loggamma(A) + mpmath.loggamma(B) - mpmath.loggamma(A + B)
            error = float(special.log_beta(a, b) - expected)
        assert abs(error) <= 4.0 * np.finfo(float).eps * min(a, b) * math.log(a + b)
        assert special.log_beta(b, a) == special.log_beta(a, b)

    def test_log_gamma_gap_matches_mpmath(self):
        rng = np.random.default_rng(4)
        xs, ys = [], []
        for k in range(400):
            x = float(np.exp(rng.uniform(math.log(0.5), math.log(1e9))))
            if k % 2:
                y = float(np.exp(rng.uniform(math.log(0.5), math.log(1e9))))
            else:  # near-identical pairs, down to a relative 1e-8 apart
                y = x * (1.0 + float(rng.choice([-1.0, 1.0])) * 10.0 ** rng.uniform(-8, -0.5))
            xs.append(x)
            ys.append(y)
        x, y = np.array(xs), np.array(ys)
        got = special.log_gamma_gap(x, y, 0.5 * (x - y), omega_sum(x, y))
        with mpmath.workdps(50):
            for xi, yi, gi in zip(xs, ys, got):
                X, Y = mpmath.mpf(xi), mpmath.mpf(yi)
                expected = float(
                    mpmath.loggamma((X + Y) / 2) - (mpmath.loggamma(X) + mpmath.loggamma(Y)) / 2
                )
                assert abs(gi - expected) <= 1e-13 * abs(expected) + 1e-17, (xi, yi)

    def test_log_gamma_gap_equals_masked_loop(self):
        grid = np.array(GAP_GRID)
        gx, gy = (a.ravel() for a in np.meshgrid(grid, grid))
        # t = |x - y|/(x + y) is 1/2 at x = 3y: pairs on both sides of it and at it
        factors = 3.0 * (1.0 + np.array([-1e-9, -1e-15, 0.0, 1e-15, 1e-9]))
        tx, ty = np.outer(factors, grid).ravel(), np.tile(grid, factors.size)
        x = np.concatenate([gx, tx, ty])
        y = np.concatenate([gy, ty, tx])
        t = np.abs(x - y) / (x + y)
        assert (t < 0.5).any() and (t == 0.5).any() and (t > 0.5).any()
        order = np.random.default_rng(6).permutation(x.size)
        for x, y in ((x, y), (x[order], y[order])):
            got = special.log_gamma_gap(x, y, 0.5 * (x - y), omega_sum(x, y))
            want = masked_loop_gap(x, y, 0.5 * (x - y))
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))
            equal = x == y
            assert np.all(got[equal] == 0.0) and not np.signbit(got[equal]).any()

    def test_log_gamma_gap_without_small_arguments_skips_the_shift(self, monkeypatch):
        # 10 is not shifted; (30, 10) sits at t = 1/2
        grid = np.array([10.0, 10.5, 30.0, 37.25, 1e5, 1e11])
        x, y = (a.ravel() for a in np.meshgrid(grid, grid))
        omega = omega_sum(x, y)
        given = omega.copy()
        calls = []
        log_ends = special._log_ends

        def counting(*args):
            calls.append(args)
            return log_ends(*args)

        monkeypatch.setattr(special, "_log_ends", counting)
        got = special.log_gamma_gap(x, y, 0.5 * (x - y), omega)
        monkeypatch.undo()
        assert len(calls) == 1
        want = masked_loop_gap(x, y, 0.5 * (x - y))
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
        assert np.array_equal(omega, given)

    def test_log_gamma_gap_of_identical_arguments_is_zero(self):
        x = np.array([0.5, 3.0, 9.75, 10.0, 2.5e3, 1e9])
        gap = special.log_gamma_gap(x, x.copy(), np.zeros_like(x), omega_sum(x, x))
        assert np.all(gap == 0.0) and np.all(np.copysign(1.0, gap) == 1.0)


class TestIncompleteBeta:
    def test_against_scipy(self):
        rng = np.random.default_rng(2)
        for _ in range(500):
            a = float(rng.uniform(0.5, 10_000.0))
            b = float(rng.uniform(0.5, 10_000.0))
            x = float(rng.uniform(0.0, 1.0))
            assert special.beta_cdf(x, a, b) == pytest.approx(
                float(sp.betainc(a, b, x)), rel=1e-11, abs=1e-13
            )

    def test_endpoints(self):
        assert special.beta_cdf(0.0, 2.0, 3.0) == 0.0
        assert special.beta_cdf(1.0, 2.0, 3.0) == 1.0

    def test_uniform_case(self):
        for x in (0.1, 0.5, 0.9):
            assert special.beta_cdf(x, 1.0, 1.0) == pytest.approx(x, abs=1e-14)


def _reference_step(x, h, a, b):
    """special._cdf_step on the public pdf, which recomputes log B at each node."""
    r, s = abs(h) / x, abs(h) / (1.0 - x)
    if not max(r, s) <= 0.5:
        return None
    a1, b1 = a - 1.0, b - 1.0
    if abs(a1 * r - b1 * s) + math.sqrt(abs(a1) * r * r + abs(b1) * s * s) > special._SMOOTH_STEP:
        return None
    mid, half = x + 0.5 * h, 0.5 * h
    total = 0.0
    for t, w in special._GAUSS_LEGENDRE:
        total += w * (
            math.exp(special.beta_log_pdf(mid - half * t, a, b))
            + math.exp(special.beta_log_pdf(mid + half * t, a, b))
        )
    return half * total


def _reference_quantile(q, a, b, integrate=True):
    """beta_quantile's Newton loop on the public cdf and pdf, each recomputing log B:
    a full cdf at the start and after each bisection, a density integral after
    each short Newton step.  `integrate=False` evaluates the full cdf after
    every step, as the solver did before it integrated the density."""
    lo, hi = 0.0, 1.0
    x = special._quantile_initial_guess(q, a, b)
    cdf = special.beta_cdf(x, a, b)
    best_x, best_err = x, math.inf
    for _ in range(special._QUANTILE_MAX_ITER):
        err = cdf - q
        if abs(err) < best_err:
            best_x, best_err = x, abs(err)
        if abs(err) <= special._QUANTILE_TOL:
            return x
        if err > 0.0:
            hi = x
        else:
            lo = x
        if hi - lo <= 4.0 * math.ulp(hi):
            return best_x
        try:
            pdf = math.exp(special.beta_log_pdf(x, a, b))
        except (OverflowError, DomainError):
            pdf = 0.0
        if 0.0 < pdf < math.inf and lo < (candidate := x - err / pdf) < hi:
            step = _reference_step(x, candidate - x, a, b) if integrate else None
            x = candidate
            cdf = special.beta_cdf(x, a, b) if step is None else cdf + step
        else:
            x = 0.5 * (lo + hi)
            cdf = special.beta_cdf(x, a, b)
    assert best_err <= 1e-8
    return best_x


GRID_SHAPES = [0.5, 1.0, 3.5, 40.5, 700.0, 10_000.0]
GRID_LEVELS = (0.001, 0.025, 0.3, 0.5, 0.975, 0.999)
#: Jeffreys posteriors over the portfolio range: 150-100,000 inspected, 0.5-15% nonconforming
PORTFOLIO_SHAPES = [
    (x + 0.5, n - x + 0.5)
    for n in np.geomspace(150, 100_000, 15).round().astype(int).tolist()
    for x in (np.geomspace(0.005, 0.15, 10) * n).round().astype(int).tolist()
]
LARGE_SHAPES = [(1e7 + 0.5, 1e6 + 0.5), (5e7, 1e9), (1e9, 1e9)]
TINY_SHAPES = [(0.5, 1e9 + 0.5), (1.5, 1e9), (3.5, 2e8 + 0.5)]


class TestBetaQuantile:
    def test_uniform_median(self):
        assert special.beta_quantile(0.5, 1.0, 1.0) == pytest.approx(0.5, abs=1e-12)

    def test_case_study_medians(self):
        assert special.beta_quantile(0.5, 2.5, 98.5) == pytest.approx(0.0217, abs=5e-4)
        assert special.beta_quantile(0.025, 10.5, 90.5) == pytest.approx(0.0526, abs=5e-4)

    def test_round_trip_over_shape_grid(self):
        # cdf(quantile(q)) = q to 1e-8 and quantile(cdf(x)) = x to 1e-8
        qs = np.linspace(0.001, 0.999, 41)
        for a in GRID_SHAPES:
            for b in GRID_SHAPES:
                for q in qs:
                    x = special.beta_quantile(float(q), a, b)
                    assert abs(special.beta_cdf(x, a, b) - q) <= 1e-8
                    assert abs(special.beta_quantile(special.beta_cdf(x, a, b), a, b) - x) <= 1e-8

    @pytest.mark.parametrize("a,b", LARGE_SHAPES)
    def test_large_shapes_match_scipy(self, a, b):
        # the continued fraction needs about sqrt(max(a, b)) terms at these shapes
        stats = pytest.importorskip("scipy.stats")
        for q in (0.025, 0.5, 0.975):
            expected = stats.beta.ppf(q, a, b)
            assert special.beta_quantile(q, a, b) == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("a,b", TINY_SHAPES)
    def test_one_tiny_shape_matches_scipy(self, a, b):
        # the cdf's front factor log B(a, b) once subtracted lgamma values near 2e10
        stats = pytest.importorskip("scipy.stats")
        for q in np.linspace(0.01, 0.99, 99):
            expected = stats.beta.ppf(q, a, b)
            assert special.beta_quantile(float(q), a, b) == pytest.approx(expected, rel=1e-7, abs=0)

    def test_one_log_beta_per_quantile_is_bit_identical(self):
        shapes = [(a, b) for a in GRID_SHAPES for b in GRID_SHAPES] + LARGE_SHAPES + TINY_SHAPES
        for a, b in shapes:
            for q in GRID_LEVELS:
                assert special.beta_quantile(q, a, b) == _reference_quantile(q, a, b), (q, a, b)

    def test_density_steps_stay_within_1e_12_of_scipy_as_full_steps_do(self):
        # Neither solver is within 1e-12 of scipy everywhere: the 1e-12 cdf
        # tolerance allows 9e-10 in x at Beta(0.5, 3.5), q = 0.001, and log B
        # rounds by 1e-10 at Beta(7044.5, 92956.5), in scipy's betaln too
        cases = [(q, a, b) for a in GRID_SHAPES for b in GRID_SHAPES for q in GRID_LEVELS]
        cases += [(0.5, a, b) for a, b in PORTFOLIO_SHAPES]
        for q, a, b in cases:
            expected = float(sp.betaincinv(a, b, q))
            full = _reference_quantile(q, a, b, integrate=False)
            got = special.beta_quantile(q, a, b)
            assert abs(got - expected) <= abs(full - expected) + 1e-12 * expected, (q, a, b)

    def test_one_continued_fraction_per_quantile(self, monkeypatch):
        # Newton steps after the first move the cdf by the density's integral
        calls = 0
        betacf = special._betacf

        def counting(*args):
            nonlocal calls
            calls += 1
            return betacf(*args)

        monkeypatch.setattr(special, "_betacf", counting)
        for a, b in PORTFOLIO_SHAPES:
            special.beta_quantile(0.5, a, b)
        assert calls <= 1.1 * len(PORTFOLIO_SHAPES)

    def test_gauss_legendre_literals(self):
        nodes, weights = np.polynomial.legendre.leggauss(4)
        assert special._GAUSS_LEGENDRE == tuple(zip(nodes[2:].tolist(), weights[2:].tolist()))

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            special.beta_quantile(1.5, 2.0, 2.0)
        with pytest.raises(DomainError):
            special.beta_quantile(-0.1, 2.0, 2.0)

    @pytest.mark.parametrize("shapes", [(3.5, 1e30), (5e17, 5e17), (1.0, math.inf)])
    def test_rejects_shapes_beyond_the_continued_fraction(self, shapes):
        # sqrt(a + b) terms: at 1e30 the solver would run for days, at 1e18 it overflows
        with pytest.raises(DomainError, match="sum to at most"):
            special.beta_quantile(0.5, *shapes)
        with pytest.raises(DomainError, match="sum to at most"):
            special.beta_cdf(0.5, *shapes)


def _integer_counter_betacf(x, a, b):
    """`special._betacf` with an integer term counter: the reference the
    float counter must equal bit for bit."""
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < special._CF_TINY:
        d = special._CF_TINY
    d = 1.0 / d
    h = d
    for m in range(1, special._CF_MAX_ITER + math.isqrt(int(qab)) + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < special._CF_TINY:
            d = special._CF_TINY
        c = 1.0 + aa / c
        if abs(c) < special._CF_TINY:
            c = special._CF_TINY
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < special._CF_TINY:
            d = special._CF_TINY
        c = 1.0 + aa / c
        if abs(c) < special._CF_TINY:
            c = special._CF_TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < special._CF_EPS:
            return h
    raise AssertionError(f"no convergence at x={x}, a={a}, b={b}")


def _portfolio_counts(seed):
    """(failed, inspected) of the benchmark's `portfolio` counts table at a seed."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    files, _ = inputs.portfolio(np.random.default_rng(seed))
    rows = [line.split(",") for line in files["counts.csv"].decode().splitlines()[1:]]
    return [(int(row[2]), int(row[1])) for row in rows]


class TestContinuedFraction:
    def test_float_counter_matches_integer_counter_on_grid(self):
        branches = set()
        for a in GRID_SHAPES:
            for b in GRID_SHAPES:
                for x in (1e-6, 0.01, 0.1, 0.5, 0.9):
                    # the symmetry branch `_beta_cdf` takes
                    lower = x < (a + 1.0) / (a + b + 2.0)
                    args = (x, a, b) if lower else (1.0 - x, b, a)
                    branches.add(lower)
                    assert special._betacf(*args) == _integer_counter_betacf(*args), args
        assert branches == {True, False}

    def test_float_counter_matches_integer_counter_on_portfolio_medians(self, monkeypatch):
        calls = []
        betacf = special._betacf

        def recording(*args):
            calls.append(args)
            return betacf(*args)

        monkeypatch.setattr(special, "_betacf", recording)
        for failed, inspected in _portfolio_counts(101):
            posterior(CountData(failed, inspected)).median
        monkeypatch.undo()
        assert len(calls) >= 400
        for args in calls:
            assert special._betacf(*args) == _integer_counter_betacf(*args), args


def test_beta_pdf_integrates_to_cdf():
    a, b = 3.5, 52.5
    for x in (0.02, 0.08, 0.2):
        numeric, _ = integrate.quad(lambda t: math.exp(special.beta_log_pdf(t, a, b)), 0.0, x)
        assert special.beta_cdf(x, a, b) == pytest.approx(numeric, rel=1e-8)


def test_normal_quantile():
    assert special.normal_quantile(0.5) == 0.0
    assert special.normal_quantile(0.975) == pytest.approx(1.959963985, abs=1e-8)
    assert special.normal_quantile(0.025) == pytest.approx(-1.959963985, abs=1e-8)
    with pytest.raises(DomainError):
        special.normal_quantile(0.0)
