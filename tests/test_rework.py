import tracemalloc

import numpy as np
import pytest

from weldqc.bayes import JEFFREYS, BetaParams, CountData, posterior
from weldqc.errors import DomainError
from weldqc import rework
from weldqc.rework import (
    ABOVE_UCL,
    BELOW_LCL,
    IN_CONTROL,
    ControlLimits,
    ProductSpec,
    control_chart,
    control_limits,
    fundamental_matrix,
    simulate_total_rework,
    transition_matrix,
)
from weldqc.streams import substream

from refdata import (
    REWORK_EFFICIENCY,
    REWORK_EST_HOURS,
    REWORK_HISTORY,
    REWORK_QUANTILES,
    REWORK_SCENARIOS,
)


def plug_in_hours(p, specs):
    """Per-product eta_i * t_i * (N_1i - 1) at fixed rework probabilities p."""
    visits = fundamental_matrix(transition_matrix(p))[0]
    return np.array([s.efficiency * s.estimated_hours for s in specs]) * (visits - 1.0)


def example_specs():
    return [
        ProductSpec(
            posterior=posterior(CountData(x, n), JEFFREYS),
            estimated_hours=hours,
            efficiency=REWORK_EFFICIENCY,
            key=f"type-{i + 1}",
        )
        for i, ((n, x), hours) in enumerate(zip(REWORK_HISTORY, REWORK_EST_HOURS))
    ]


class TestMatrices:
    def test_zero_probabilities(self):
        m = transition_matrix([0.0, 0.0])
        assert np.all(m.P.sum(axis=1) == 1.0)
        assert m.P[0, 1] == 1.0 and m.P[1, 2] == 1.0

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        probs = rng.uniform(0.0, 0.95, 12)
        m = transition_matrix(probs)
        np.testing.assert_allclose(m.P.sum(axis=1), 1.0, atol=1e-14)

    def test_structure(self):
        probs = [0.2, 0.4, 0.1]
        m = transition_matrix(probs)
        np.testing.assert_array_equal(np.diag(m.Q), probs)
        np.testing.assert_array_equal(np.diag(m.Q, k=1), [0.8, 0.6])
        assert m.R[-1, 0] == pytest.approx(0.9)
        assert m.P[-1, -1] == 1.0

    def test_certain_rework_rejected(self):
        with pytest.raises(DomainError):
            transition_matrix([0.5, 1.0])

    def test_posterior_means_on_diagonal(self):
        means = [posterior(CountData(x, n), JEFFREYS).mean for n, x in REWORK_HISTORY]
        m = transition_matrix(means)
        np.testing.assert_allclose(np.diag(m.Q), means)


class TestFundamentalMatrix:
    def test_no_rework_gives_ones(self):
        n = fundamental_matrix(transition_matrix([0.0] * 4))
        np.testing.assert_array_equal(n, np.triu(np.ones((4, 4))))

    def test_expected_visits_at_half(self):
        n = fundamental_matrix(transition_matrix([0.5, 0.5, 0.5]))
        np.testing.assert_allclose(n[0], [2.0, 2.0, 2.0])

    def test_matches_dense_inverse(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            size = int(rng.integers(1, 51))
            probs = rng.uniform(0.0, 0.97, size)
            m = transition_matrix(probs)
            n = fundamental_matrix(m)
            dense = np.linalg.inv(np.eye(size) - m.Q)
            np.testing.assert_allclose(n, dense, atol=1e-10)

    def test_identity_residual(self):
        probs = [0.3, 0.6, 0.05, 0.45]
        m = transition_matrix(probs)
        n = fundamental_matrix(m)
        np.testing.assert_allclose(n @ (np.eye(4) - m.Q), np.eye(4), atol=1e-10)


class TestExpectedHours:
    def test_no_rework_costs_nothing(self):
        assert plug_in_hours([0.0] * 10, example_specs()).sum() == 0.0

    def test_single_product_arithmetic(self):
        spec = ProductSpec(posterior=BetaParams(1, 1), estimated_hours=3.0, efficiency=1.2)
        assert plug_in_hours([0.5], [spec])[0] == pytest.approx(1.2 * 3.0 * (2.0 - 1.0))

    def test_linear_in_estimated_hours(self):
        # the same seed draws the same probabilities, so every sample doubles
        specs = example_specs()
        doubled = [
            ProductSpec(s.posterior, 2 * s.estimated_hours, s.efficiency, s.key) for s in specs
        ]
        total = simulate_total_rework(specs, iterations=200, seed=3).samples
        total2 = simulate_total_rework(doubled, iterations=200, seed=3).samples
        np.testing.assert_allclose(total2, 2 * total, rtol=1e-12)


class TestSimulate:
    def test_reference_quantiles(self):
        estimate = simulate_total_rework(example_specs(), iterations=1000, seed=0)
        quantiles = dict(estimate.quantiles())
        assert quantiles[0.5] == pytest.approx(REWORK_QUANTILES[0.5], abs=0.2)
        assert quantiles[0.1] == pytest.approx(REWORK_QUANTILES[0.1], abs=0.2)
        assert quantiles[0.9] == pytest.approx(REWORK_QUANTILES[0.9], abs=0.4)

    def test_mean_matches_transform_identity(self):
        # E[p / (1 - p)] = a / (b - 1) for Beta(a, b), b > 1
        specs = example_specs()
        expected = sum(
            s.efficiency * s.estimated_hours * s.posterior.a / (s.posterior.b - 1.0)
            for s in specs
        )
        estimate = simulate_total_rework(specs, iterations=20_000, seed=1)
        assert estimate.mean == pytest.approx(expected, abs=0.15)

    def test_convexity_direction(self):
        # 1/(1-p) is convex, so the MC mean dominates the plug-in-mean value
        specs = example_specs()
        plug_in = plug_in_hours([s.posterior.mean for s in specs], specs).sum()
        estimate = simulate_total_rework(specs, iterations=20_000, seed=2)
        assert estimate.mean >= plug_in - 0.05

    def test_near_degenerate_posteriors(self):
        specs = [
            ProductSpec(posterior=BetaParams(1e-3, 1e4), estimated_hours=5.0)
            for _ in range(3)
        ]
        estimate = simulate_total_rework(specs, iterations=200, seed=3)
        assert estimate.mean == pytest.approx(0.0, abs=1e-4)

    def test_deterministic(self):
        a = simulate_total_rework(example_specs(), iterations=100, seed=4)
        b = simulate_total_rework(example_specs(), iterations=100, seed=4)
        assert np.array_equal(a.samples, b.samples)

    def test_samples_nonnegative(self):
        estimate = simulate_total_rework(example_specs(), iterations=500, seed=5)
        assert np.all(estimate.samples >= 0.0)


def _triple_array_hours(terms, a, b, iterations, rng):
    """Rework hours as drawn before the in-place transform, three matrices deep."""
    draws = rng.beta(a, b, size=(iterations, a.size))
    for _ in range(10):
        mask = draws >= 1.0 - 1e-12
        if not mask.any():
            return terms * (1.0 / (1.0 - draws) - 1.0)
        rows, cols = np.nonzero(mask)
        draws[rows, cols] = rng.beta(a[cols], b[cols])
    raise DomainError("rework probability draws kept saturating at 1")


class _SaturatingFirstDraw:
    """A generator whose first matrix of draws has some cells at exactly 1."""

    def __init__(self, seed, cells):
        self.rng = np.random.default_rng(seed)
        self.cells = cells

    def beta(self, a, b, size=None):
        draws = self.rng.beta(a, b, size=size)
        if self.cells:
            draws[self.cells] = 1.0
            self.cells = None
        return draws


def _random_columns(rng, n):
    terms = rng.uniform(0.0, 30.0, n)
    terms[rng.random(n) < 0.2] = 0.0
    return terms, rng.uniform(0.05, 20.0, n), rng.uniform(0.05, 400.0, n)


class TestDrawHours:
    @pytest.mark.parametrize("seed", range(8))
    def test_bit_identical_to_three_matrix_transform(self, seed):
        rng = np.random.default_rng(seed)
        iterations, n = int(rng.integers(1, 300)), int(rng.integers(1, 60))
        terms, a, b = _random_columns(rng, n)
        hours = rework._draw_hours(terms, a, b, iterations, substream(seed, 3))
        expected = _triple_array_hours(terms, a, b, iterations, substream(seed, 3))
        assert hours.shape == (iterations, n)
        assert hours.tobytes() == expected.tobytes()

    def test_redraw_branch_is_bit_identical(self):
        terms, a, b = _random_columns(np.random.default_rng(20), 7)
        cells = (np.array([0, 3, 3, 49]), np.array([2, 0, 6, 2]))
        hours = rework._draw_hours(terms, a, b, 50, _SaturatingFirstDraw(21, cells))
        expected = _triple_array_hours(terms, a, b, 50, _SaturatingFirstDraw(21, cells))
        assert np.all(np.isfinite(hours))
        assert hours.tobytes() == expected.tobytes()

    def test_saturating_draws_stay_a_domain_error(self):
        spec = ProductSpec(posterior=BetaParams(1e6, 1e-9), estimated_hours=1.0)
        with pytest.raises(DomainError, match="saturating"):
            simulate_total_rework([spec], iterations=100, seed=0)


class TestReworkMemory:
    """The rework stage holds one iterations x products matrix of hours."""

    iterations, n_products = 2000, 400
    specs = [
        ProductSpec(
            posterior=BetaParams(1.0 + i % 4, 10.0 + i % 29),
            estimated_hours=1.0 + i % 17,
            key=f"type-{i % 40}",
        )
        for i in range(n_products)
    ]
    results = [int(i % 3 == 0) for i in range(300)]
    hours = [2.0 * r for r in results]
    bound = 1.25 * iterations * n_products * 8

    @pytest.mark.parametrize("stage", ["total", "chart", "chart_updating"])
    def test_peak_is_one_draw_matrix(self, stage):
        def run(specs, iterations):
            if stage == "total":
                return simulate_total_rework(specs, iterations, seed=1)
            count = min(len(specs) - 1, len(self.hours))
            return control_chart(
                specs, self.hours[:count], self.results[:count],
                iterations=iterations, seed=1, update_posteriors=stage == "chart_updating",
            )

        run(self.specs[:3], 10)  # first-call allocations (lazy imports, caches)
        # 6.4 MB of hours plus the one-byte-a-cell saturation mask
        assert _traced_peak(run, self.specs, self.iterations) <= self.bound

    def test_shared_key_redraws_stay_one_matrix(self):
        """Each completed product redraws every remaining column, in row blocks."""
        specs = [spec._replace(key="one") for spec in self.specs]

        def run(specs, iterations):
            count = min(len(specs) - 1, 3)
            return control_chart(
                specs, self.hours[:count], self.results[:count],
                iterations=iterations, seed=1, update_posteriors=True,
            )

        run(specs[:2], 10)
        assert _traced_peak(run, specs, self.iterations) <= self.bound


def _traced_peak(run, *args) -> int:
    tracemalloc.start()
    try:
        run(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestRedrawBlocks:
    """Column redraws in row blocks equal one whole-column draw per state."""

    specs = [
        ProductSpec(posterior=BetaParams(1.0 + i % 3, 6.0 + i % 7), estimated_hours=1.0 + i % 5,
                    key="ab"[i % 2] if i % 5 else None)
        for i in range(30)
    ]
    results = [int(i % 4 == 1) for i in range(30)]  # every product completed

    def chart(self, monkeypatch, cells):
        monkeypatch.setattr(rework, "_REDRAW_CELLS", cells)
        series = control_chart(self.specs, [1.5] * 30, self.results, iterations=53, seed=4,
                               update_posteriors=True)
        return np.array([[p.band_low, p.median, p.band_high] for p in series.points])

    @pytest.mark.parametrize("cells", [1, 14, 15, 100, 797])
    def test_bit_identical_to_whole_columns(self, monkeypatch, cells):
        whole = self.chart(monkeypatch, 10**9)  # one block: the whole-column draw
        assert self.chart(monkeypatch, cells).tobytes() == whole.tobytes()


class TestControlLimits:
    def test_ordering(self):
        estimate = simulate_total_rework(example_specs(), iterations=1000, seed=0)
        limits = control_limits(estimate)
        assert limits.lcl <= limits.cl <= limits.ucl

    def test_constant_samples(self):
        from weldqc.rework import ReworkEstimate

        estimate = ReworkEstimate(samples=np.full(50, 2.5), seed=0, iterations=50)
        limits = control_limits(estimate)
        assert limits.lcl == limits.cl == limits.ucl == 2.5

    def test_quantile_levels(self):
        estimate = simulate_total_rework(example_specs(), iterations=2000, seed=6)
        limits = control_limits(estimate)
        assert limits.ucl == pytest.approx(np.quantile(estimate.samples, 0.975))
        assert limits.lcl == pytest.approx(np.quantile(estimate.samples, 0.025))

    def test_flags(self):
        limits = ControlLimits(cl=3.0, ucl=5.0, lcl=2.0)
        assert limits.flag(6.0) == ABOVE_UCL
        assert limits.flag(1.0) == BELOW_LCL
        assert limits.flag(3.3) == IN_CONTROL


class TestControlChart:
    def chart(self, scenario, seed=0, iterations=2000):
        hours, results = REWORK_SCENARIOS[scenario]
        return control_chart(
            example_specs(), hours, results, iterations=iterations, seed=seed
        )

    def test_point_count_and_states(self):
        series = self.chart("no_rework")
        assert [p.state for p in series.points] == list(range(11))

    def test_bands_nested_and_final_band_zero(self):
        for scenario in REWORK_SCENARIOS:
            series = self.chart(scenario)
            for p in series.points:
                assert p.band_low <= p.median <= p.band_high
            final = series.points[-1]
            assert final.band_low == final.median == final.band_high

    def test_no_rework_scenario(self):
        series = self.chart("no_rework")
        medians = [p.median for p in series.points]
        assert all(medians[i] > medians[i + 1] for i in range(len(medians) - 1))
        assert series.points[-1].median == 0.0
        assert any(p.flag == BELOW_LCL for p in series.points[3:])

    def test_under_control_scenario(self):
        series = self.chart("under_control")
        assert all(p.flag == IN_CONTROL for p in series.points)
        assert series.points[-1].median == pytest.approx(5.4)

    def test_over_control_scenario(self):
        series = self.chart("over_control")
        flags = {p.state: p.flag for p in series.points}
        assert flags[6] == ABOVE_UCL
        assert series.points[-1].median == pytest.approx(5.4)
        # trajectory comes back inside the limits before completion
        assert flags[9] == IN_CONTROL

    def test_no_actuals_is_planning_only(self):
        series = control_chart(example_specs(), [], [], iterations=500, seed=1)
        assert len(series.points) == 1
        assert series.points[0].state == 0
        assert series.points[0].accrued_actual_hours == 0.0

    def test_partial_actuals(self):
        hours, results = REWORK_SCENARIOS["under_control"]
        series = control_chart(
            example_specs(), hours[:4], results[:4], iterations=500, seed=2
        )
        assert [p.state for p in series.points] == [0, 1, 2, 3, 4]
        assert series.points[-1].accrued_actual_hours == pytest.approx(1.8)

    def test_actuals_longer_than_products(self):
        with pytest.raises(DomainError):
            control_chart(example_specs(), [0.0] * 11, [0] * 11)

    def test_deterministic(self):
        a = self.chart("over_control", seed=3, iterations=400)
        b = self.chart("over_control", seed=3, iterations=400)
        assert a == b

    def test_posterior_updating_shifts_forecast(self):
        hours, results = REWORK_SCENARIOS["over_control"]
        specs = example_specs()
        static = control_chart(specs, hours[:6], results[:6], iterations=4000, seed=4)
        updated = control_chart(
            specs, hours[:6], results[:6], iterations=4000, seed=4, update_posteriors=True
        )
        # no shared type keys among completed/remaining products: nothing redrawn
        assert static == updated

        shared = [
            ProductSpec(s.posterior, s.estimated_hours, s.efficiency, key="common")
            for s in specs
        ]
        static = control_chart(shared, hours[:6], results[:6], iterations=4000, seed=5)
        updated = control_chart(
            shared, hours[:6], results[:6], iterations=4000, seed=5, update_posteriors=True
        )
        # three observed failures in six completions raise the remaining forecast
        assert updated.points[-1].median > static.points[-1].median


def _reference_chart(specs, actual_hours, actual_results, iterations, seed, update_posteriors):
    """(low, median, high) per state from the per-state loop the chart replaced.

    Every state rebuilds the remaining posteriors from all completed outcomes
    of the same key and redraws every remaining product from its own stream.
    """
    terms = np.array([s.efficiency * s.estimated_hours for s in specs])
    bands = []
    for k in range(len(actual_hours) + 1):
        remaining = specs[k:]
        a = np.array([s.posterior.a for s in remaining])
        b = np.array([s.posterior.b for s in remaining])
        if update_posteriors:
            for i in range(k):
                same = np.array([s.key is not None and s.key == specs[i].key for s in remaining])
                a += same * actual_results[i]
                b += same * (1 - actual_results[i])
        draws = substream(seed, 1, k).beta(a, b, size=(iterations, len(remaining)))
        samples = sum(actual_hours[:k]) + (terms[k:] * (1.0 / (1.0 - draws) - 1.0)).sum(axis=1)
        bands.append(np.quantile(samples, [0.025, 0.5, 0.975]))
    return np.array(bands)


class TestChartOracle:
    """The one-matrix chart against the per-state re-simulation it replaced."""

    specs = [
        ProductSpec(
            posterior=posterior(CountData(i % 3, 8 + i % 5), JEFFREYS),
            estimated_hours=1.0 + i % 4,
            key="abc"[i % 3],
        )
        for i in range(24)
    ]
    results = [1, 0, 0, 1, 1, 0, 0, 0, 1, 1, 0, 1, 0, 0, 1, 0, 1, 1]
    hours = [2.5 * r for r in results]

    def bands(self, update_posteriors):
        series = control_chart(
            self.specs, self.hours, self.results, iterations=20_000, seed=11,
            update_posteriors=update_posteriors,
        )
        return np.array([[p.band_low, p.median, p.band_high] for p in series.points])

    @pytest.mark.parametrize("update_posteriors", [False, True])
    def test_matches_per_state_resimulation(self, update_posteriors):
        reference = _reference_chart(
            self.specs, self.hours, self.results, 20_000, 12, update_posteriors
        )
        np.testing.assert_allclose(self.bands(update_posteriors), reference, rtol=0.03)

    def test_updating_moves_the_chart(self):
        static, updated = self.bands(False), self.bands(True)
        assert np.max(np.abs(updated[:, 1] / static[:, 1] - 1.0)) > 0.1
