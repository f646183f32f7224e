import numpy as np
import pytest

from weldqc import forecast
from weldqc.bayes import BetaParams
from weldqc.errors import ConfigError, DomainError
from weldqc.forecast import ProjectDesign, quantile_table, simulate_project
from weldqc.streams import substream


def single_type_design(n_welds, params=BetaParams(10.5, 90.5)):
    return ProjectDesign((("t1", params, n_welds),))


class TestDesign:
    def test_counts(self):
        design = ProjectDesign((("a", BetaParams(1, 1), 2), ("b", BetaParams(2, 2), 1)))
        assert design.n_welds == 3 and design.n_types == 2

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            ProjectDesign(())

    def test_count_below_one_rejected(self):
        with pytest.raises(ConfigError):
            ProjectDesign((("a", BetaParams(10.5, 90.5), 4), ("b", BetaParams(1, 1), 0)))


class TestSimulate:
    def test_single_weld_mean_matches_posterior(self):
        result = simulate_project(single_type_design(1), iterations=10_000, seed=0)
        assert result.samples.mean() == pytest.approx(10.5 / 101.0, abs=3e-3)

    def test_near_degenerate_posteriors_concentrate(self):
        p = 0.23
        params = BetaParams(1e6 * p, 1e6 * (1 - p))
        result = simulate_project(single_type_design(5, params), iterations=200, seed=1)
        np.testing.assert_allclose(result.samples, p, atol=1e-2)

    def test_mean_matches_linearity_of_expectation(self):
        rng = np.random.default_rng(2)
        for case in range(20):
            types = tuple(
                (f"t{i}", BetaParams(float(rng.uniform(0.5, 40)), float(rng.uniform(20, 400))), 1)
                for i in range(int(rng.integers(1, 12)))
            )
            design = ProjectDesign(types)
            iterations = 4000
            result = simulate_project(design, iterations=iterations, seed=case)
            expected = np.mean([p.mean for _, p, _ in types])
            per_weld_var = np.mean([p.variance for _, p, _ in types])
            mc_se = np.sqrt(per_weld_var / design.n_welds / iterations)
            assert abs(result.samples.mean() - expected) < 3 * max(mc_se, 1e-6)

    def test_deterministic(self):
        a = simulate_project(single_type_design(3), iterations=50, seed=9)
        b = simulate_project(single_type_design(3), iterations=50, seed=9)
        assert np.array_equal(a.samples, b.samples)

    def test_samples_in_unit_interval(self):
        result = simulate_project(single_type_design(4), iterations=500, seed=3)
        assert np.all((result.samples > 0) & (result.samples < 1))

    def test_more_welds_shrink_variance(self):
        small = simulate_project(single_type_design(2), iterations=2000, seed=4)
        large = simulate_project(single_type_design(40), iterations=2000, seed=4)
        assert large.samples.var() < small.samples.var()

    def test_reordering_preserves_statistics(self):
        rng = np.random.default_rng(5)
        types = [
            (f"t{i}", BetaParams(float(rng.uniform(1, 30)), float(rng.uniform(30, 300))), i + 1)
            for i in range(6)
        ]
        design = ProjectDesign(tuple(types))
        reordered = ProjectDesign(tuple(reversed(types)))
        a = simulate_project(design, iterations=4000, seed=6)
        b = simulate_project(reordered, iterations=4000, seed=6)
        # different per-type substreams, same distribution
        assert not np.array_equal(a.samples, b.samples)
        assert a.samples.mean() == pytest.approx(b.samples.mean(), abs=3e-3)

    def test_mixture_mode(self):
        design = ProjectDesign((("lo", BetaParams(1e6, 9e6), 1), ("hi", BetaParams(9e6, 1e6), 1)))
        result = simulate_project(design, iterations=2000, seed=7, mode="mixture")
        # mixture draws single-weld values, so samples split around the two modes
        assert 0.3 < np.mean(result.samples > 0.5) < 0.7

    def test_mixture_picks_types_in_proportion_to_counts(self):
        design = ProjectDesign((("lo", BetaParams(1e6, 9e6), 1), ("hi", BetaParams(9e6, 1e6), 3)))
        iterations = 8000
        result = simulate_project(design, iterations=iterations, seed=11, mode="mixture")
        share = np.mean(result.samples > 0.5)
        assert abs(share - 0.75) < 4 * np.sqrt(0.75 * 0.25 / iterations)

    def test_mixture_equals_one_draw_per_iteration_over_expanded_welds(self):
        design = ProjectDesign((("a", BetaParams(2.5, 30.5), 2), ("b", BetaParams(0.5, 9.5), 3)))
        # the reference: one weld entry per weld, one scalar Beta draw per iteration
        welds = [params for _, params, count in design.types for _ in range(count)]
        rng = substream(15)
        picks = rng.integers(0, len(welds), 300)
        expected = [rng.beta(welds[c].a, welds[c].b) for c in picks]
        result = simulate_project(design, iterations=300, seed=15, mode="mixture")
        np.testing.assert_array_equal(result.samples, expected)

    def test_variance_sums_over_blocked_types(self):
        types = (("a", BetaParams(3.5, 40.5), 50), ("b", BetaParams(20.5, 60.5), 37))
        iterations = 4000
        # both counts span several blocks of whole welds
        assert all(count > forecast._BLOCK_DRAWS // iterations for _, _, count in types)
        design = ProjectDesign(types)
        result = simulate_project(design, iterations=iterations, seed=12)
        expected = sum(count * p.variance for _, p, count in types) / design.n_welds**2
        # the sample variance of near-normal samples has relative error sqrt(2 / (N - 1))
        assert result.samples.var(ddof=1) == pytest.approx(
            expected, rel=4 * np.sqrt(2 / (iterations - 1))
        )

    def test_block_size_does_not_change_the_draws(self, monkeypatch):
        design = ProjectDesign((("a", BetaParams(2.5, 30.5), 9), ("b", BetaParams(7.5, 12.5), 4)))
        whole = simulate_project(design, iterations=50, seed=13)
        # 7 values per call: each weld's 50 draws split across calls
        monkeypatch.setattr(forecast, "_BLOCK_DRAWS", 7)
        blocked = simulate_project(design, iterations=50, seed=13)
        np.testing.assert_allclose(blocked.samples, whole.samples, rtol=1e-12)

    def test_each_type_draws_from_its_own_substream(self):
        params = BetaParams(4.5, 20.5)
        design = ProjectDesign((("a", BetaParams(1, 1), 2), ("b", params, 1)))
        a_draws = substream(14, 0).beta(1, 1, (2, 30)).sum(axis=0)
        expected = (a_draws + substream(14, 1).beta(params.a, params.b, 30)) / 3
        result = simulate_project(design, iterations=30, seed=14)
        np.testing.assert_array_equal(result.samples, expected)

    def test_invalid_inputs(self):
        with pytest.raises(DomainError):
            simulate_project(single_type_design(1), iterations=0)
        with pytest.raises(ConfigError):
            simulate_project(single_type_design(1), mode="teleport")


class TestQuantileTable:
    def test_constant_samples(self):
        result = simulate_project(single_type_design(1, BetaParams(1e9, 1e9)), iterations=25, seed=8)
        table = quantile_table(result.samples)
        values = [v for _, v in table]
        assert max(values) - min(values) < 1e-3

    def test_grid_and_monotonicity(self):
        result = simulate_project(single_type_design(5), iterations=100, seed=9)
        table = result.quantiles()
        levels = [q for q, _ in table]
        np.testing.assert_allclose(levels, np.arange(0.0, 1.01, 0.10), atol=1e-12)
        values = [v for _, v in table]
        assert all(values[i] <= values[i + 1] for i in range(len(values) - 1))

    def test_single_iteration_degenerates(self):
        result = simulate_project(single_type_design(2), iterations=1, seed=10)
        values = {v for _, v in result.quantiles()}
        assert len(values) == 1

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            quantile_table([])
