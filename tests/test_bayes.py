import numpy as np
import pytest

from weldqc.bayes import (
    JEFFREYS,
    BetaParams,
    CountData,
    CredibleInterval,
    agresti_coull_interval,
    credible_interval,
    posterior,
    posterior_mean,
    wald_interval,
    wilson_interval,
)
from weldqc.errors import DomainError

from refdata import WELD_TYPE_ANALYTIC, WELD_TYPE_COUNTS


class TestTypes:
    def test_counts_invariant(self):
        with pytest.raises(DomainError):
            CountData(5, 3)
        with pytest.raises(DomainError):
            CountData(-1, 3)

    def test_sample_fraction(self):
        assert CountData(10, 100).sample_fraction == 0.1
        with pytest.raises(DomainError):
            CountData(0, 0).sample_fraction

    def test_beta_params_invariants(self):
        with pytest.raises(DomainError):
            BetaParams(0.0, 1.0)
        with pytest.raises(DomainError):
            BetaParams(1.0, float("inf"))

    def test_interval_ordering(self):
        with pytest.raises(DomainError):
            CredibleInterval(0.3, 0.1, 0.95)


class TestPosterior:
    def test_worked_example(self):
        params = posterior(CountData(10, 100), JEFFREYS)
        assert params == BetaParams(10.5, 90.5)

    def test_operator_example(self):
        assert posterior(CountData(8, 51), JEFFREYS) == BetaParams(8.5, 43.5)

    def test_no_data_returns_prior(self):
        prior = BetaParams(2.0, 7.0)
        assert posterior(CountData(0, 0), prior) == prior

    def test_case_study_shapes_exact(self):
        for (_, _, _, _, n, x), (a, b, _, _) in zip(WELD_TYPE_COUNTS, WELD_TYPE_ANALYTIC):
            params = posterior(CountData(x, n), JEFFREYS)
            assert params.a == a and params.b == b


class TestPosteriorMean:
    def test_worked_example(self):
        counts = CountData(10, 100)
        params = posterior(counts, JEFFREYS)
        assert posterior_mean(params, counts, JEFFREYS) == pytest.approx(10.5 / 101.0, abs=1e-15)

    def test_prior_mean_without_data(self):
        counts = CountData(0, 0)
        assert posterior_mean(posterior(counts, JEFFREYS), counts, JEFFREYS) == 0.5

    def test_all_failures_with_jeffreys(self):
        for n in (1, 5, 50):
            counts = CountData(n, n)
            mean = posterior_mean(posterior(counts, JEFFREYS), counts, JEFFREYS)
            assert mean == pytest.approx((n + 0.5) / (n + 1.0), abs=1e-15)

    def test_weighted_average_decomposition(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            n = int(rng.integers(1, 5000))
            x = int(rng.integers(0, n + 1))
            prior = BetaParams(float(rng.uniform(0.1, 20)), float(rng.uniform(0.1, 20)))
            counts = CountData(x, n)
            direct = posterior_mean(posterior(counts, prior), counts, prior)
            weighted = (n / (n + prior.a + prior.b)) * (x / n) + (
                (prior.a + prior.b) / (n + prior.a + prior.b)
            ) * prior.mean
            assert abs(direct - weighted) <= 1e-12

    def test_rejects_mismatched_params(self):
        with pytest.raises(DomainError):
            posterior_mean(BetaParams(1.0, 1.0), CountData(10, 100), JEFFREYS)


class TestCredibleInterval:
    def test_worked_example(self):
        ci = credible_interval(BetaParams(10.5, 90.5), 0.05)
        assert ci.lower == pytest.approx(0.0526, abs=5e-4)
        assert ci.upper == pytest.approx(0.1701, abs=5e-4)

    def test_large_shapes(self):
        ci = credible_interval(BetaParams(249.5, 7226.5), 0.05)
        assert ci.lower == pytest.approx(0.0294, abs=5e-4)
        assert ci.upper == pytest.approx(0.0376, abs=5e-4)

    def test_symmetric_posterior(self):
        ci = credible_interval(BetaParams(5.0, 5.0), 0.10)
        assert ci.lower + ci.upper == pytest.approx(1.0, abs=1e-9)

    def test_width_decreases_with_sample_size(self):
        widths = []
        for n in (10, 50, 100, 500, 1000):
            x = round(0.25 * n)
            widths.append(credible_interval(posterior(CountData(x, n)), 0.05).width)
        assert all(widths[i] > widths[i + 1] for i in range(len(widths) - 1))

    def test_width_peaks_at_half(self):
        n = 100
        widths = {
            p: credible_interval(posterior(CountData(int(p * n), n)), 0.05).width
            for p in [round(0.1 * k, 1) for k in range(1, 10)]
        }
        assert max(widths, key=widths.get) == 0.5


class TestClassicalIntervals:
    def test_wald_formula_value(self):
        # formula value for (1, 3) at 95%: 1/3 +/- 1.95996 * sqrt((2/9)/3)
        ci = wald_interval(CountData(1, 3), 0.05)
        assert ci.lower == pytest.approx(-0.200102, abs=1e-6)
        assert ci.upper == pytest.approx(0.866768, abs=1e-6)
        assert ci.lower < 0  # deliberately unclipped

    def test_wald_degenerate_at_zero(self):
        ci = wald_interval(CountData(0, 20), 0.05)
        assert ci.lower == 0.0 and ci.upper == 0.0

    def test_wilson_symmetric_center(self):
        ci = wilson_interval(CountData(50, 100), 0.05)
        assert (ci.lower + ci.upper) / 2.0 == pytest.approx(0.5, abs=1e-12)

    def test_agresti_coull_narrower_than_wald(self):
        counts = CountData(30, 90)
        assert agresti_coull_interval(counts).width < wald_interval(counts).width

    def test_reject_empty_sample(self):
        for func in (wald_interval, wilson_interval, agresti_coull_interval):
            with pytest.raises(DomainError):
                func(CountData(0, 0), 0.05)


def test_quantile_matches_reference_medians():
    assert BetaParams(2.5, 98.5).median == pytest.approx(0.0217, abs=5e-4)
    assert BetaParams(2.5, 46.5).median == pytest.approx(0.0450, abs=5e-4)
