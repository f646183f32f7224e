import math

import numpy as np
import pytest

from weldqc.bayes import JEFFREYS, BetaParams, CountData, credible_interval, posterior
from weldqc.errors import DomainError
from weldqc.mcmc import (
    Chain,
    ChainConfig,
    acf,
    default_initial,
    empirical_five_number,
    empirical_interval,
    residual_metrics,
    sample_chains,
    sample_posterior,
)
from weldqc.streams import substream

from refdata import AB_OPERATOR_A, OPERATOR_TABLE

COUNTS = CountData(10, 100)


class TestConfig:
    def test_invariants(self):
        with pytest.raises(DomainError):
            ChainConfig(iterations=100, burn_in=100)
        with pytest.raises(DomainError):
            ChainConfig(proposal_sd=0.0)
        with pytest.raises(DomainError):
            ChainConfig(initial=1.5)

    @pytest.mark.parametrize(
        "fields",
        [
            {"burn_in": 10.5},
            {"burn_in": 10.0},
            {"burn_in": False},
            {"iterations": 1000.0},
            {"iterations": True, "burn_in": 0},
            {"iterations": "1000"},
        ],
    )
    def test_rejects_non_integer_sizes(self, fields):
        with pytest.raises(DomainError):
            ChainConfig(**fields)

    def test_accepts_numpy_integer_sizes(self):
        config = ChainConfig(iterations=np.int64(300), burn_in=np.int32(20), seed=1)
        chain = sample_posterior(COUNTS, JEFFREYS, config)
        assert chain.draws.shape == (300,) and len(chain.post_burn_in) == 280

    @pytest.mark.parametrize("n_chains", [0, -3, 2.0, True, None])
    def test_sample_chains_rejects_bad_counts(self, n_chains):
        with pytest.raises(DomainError):
            sample_chains(COUNTS, JEFFREYS, ChainConfig(iterations=50, burn_in=0), n_chains)

    def test_default_initial_is_clamped(self):
        assert default_initial(CountData(0, 0)) == pytest.approx(0.5)
        assert default_initial(CountData(0, 10**9)) >= 1e-6


class TestSampler:
    def test_deterministic_given_seed(self):
        a = sample_posterior(COUNTS, JEFFREYS, ChainConfig(seed=42))
        b = sample_posterior(COUNTS, JEFFREYS, ChainConfig(seed=42))
        assert np.array_equal(a.draws, b.draws)
        assert a.acceptance_rate == b.acceptance_rate

    def test_seed_changes_draws(self):
        a = sample_posterior(COUNTS, JEFFREYS, ChainConfig(seed=1))
        b = sample_posterior(COUNTS, JEFFREYS, ChainConfig(seed=2))
        assert not np.array_equal(a.draws, b.draws)

    def test_draws_stay_in_open_unit_interval(self):
        chain = sample_posterior(CountData(0, 5), JEFFREYS, ChainConfig(seed=3))
        assert np.all(chain.draws > 0.0) and np.all(chain.draws < 1.0)

    def test_matches_analytic_interval(self):
        chain = sample_posterior(COUNTS, JEFFREYS, ChainConfig(seed=0))
        ci = empirical_interval(chain, 0.05)
        assert ci.lower == pytest.approx(0.0529, abs=4e-3)
        assert ci.upper == pytest.approx(0.1726, abs=4e-3)

    def test_matches_analytic_mean(self):
        chain = sample_posterior(COUNTS, JEFFREYS, ChainConfig(seed=0))
        assert chain.post_burn_in.mean() == pytest.approx(10.5 / 101.0, abs=5e-3)

    def test_initial_value_is_forgotten(self):
        means = []
        for start in (0.2, 0.4, 0.6, 0.8):
            chain = sample_posterior(COUNTS, JEFFREYS, ChainConfig(seed=3, initial=start))
            means.append(float(chain.post_burn_in.mean()))
        assert max(means) - min(means) < 0.01

    def test_stationarity_across_random_counts(self):
        # post-burn-in mean within 4 posterior sd / sqrt(n_eff) of the analytic mean
        rng = np.random.default_rng(11)
        for case in range(100):
            n = int(rng.integers(20, 5001))
            x = int(rng.integers(0, n + 1))
            counts = CountData(x, n)
            chain = sample_posterior(counts, JEFFREYS, ChainConfig(seed=1000 + case))
            params = posterior(counts, JEFFREYS)
            draws = chain.post_burn_in
            rho = acf(draws, 200)
            positive = rho[1:][rho[1:] > 0.05]
            n_eff = len(draws) / (1.0 + 2.0 * positive.sum())
            tolerance = 4.0 * np.sqrt(params.variance) / np.sqrt(n_eff)
            assert abs(draws.mean() - params.mean) < tolerance, (x, n)

    def test_sample_chains_are_independent_and_reproducible(self):
        chains = sample_chains(COUNTS, JEFFREYS, ChainConfig(seed=9), n_chains=3)
        again = sample_chains(COUNTS, JEFFREYS, ChainConfig(seed=9), n_chains=3)
        assert all(np.array_equal(a.draws, b.draws) for a, b in zip(chains, again))
        assert not np.array_equal(chains[0].draws, chains[1].draws)


def _reference_chain(counts, prior, config):
    """The sampler's defining loop: numpy scalars per step, every draw stored."""
    c1 = counts.failed + prior.a - 1.0
    c2 = counts.inspected - counts.failed + prior.b - 1.0
    rng = substream(config.seed)
    steps = rng.normal(0.0, config.proposal_sd, config.iterations)
    log_u = np.log(rng.random(config.iterations))
    p = config.initial if config.initial is not None else default_initial(counts)
    log_p = c1 * math.log(p) + c2 * math.log1p(-p)
    draws = np.empty(config.iterations)
    accepted = 0
    for i in range(config.iterations):
        proposal = p + steps[i]
        if 0.0 < proposal < 1.0:
            log_q = c1 * math.log(proposal) + c2 * math.log1p(-proposal)
            if log_u[i] < log_q - log_p:
                p = proposal
                log_p = log_q
                accepted += 1
        draws[i] = p
    return draws, accepted / config.iterations


UNIFORM = BetaParams(1.0, 1.0)
ORACLE_CASES = {
    "jeffreys-x0": (CountData(0, 500), JEFFREYS, {}),
    "jeffreys-x-equals-n": (CountData(500, 500), JEFFREYS, {}),
    "uniform-x0": (CountData(0, 50), UNIFORM, {}),
    "sd-50": (COUNTS, JEFFREYS, {"proposal_sd": 50.0}),
    "sd-1e-4": (COUNTS, JEFFREYS, {"proposal_sd": 1e-4}),
    "initial-near-0": (COUNTS, JEFFREYS, {"initial": 1e-6}),
    "initial-near-1": (COUNTS, JEFFREYS, {"initial": 1.0 - 1e-6}),
    "initial-float32": (COUNTS, JEFFREYS, {"initial": np.float32(0.3)}),
    "one-kept-draw": (COUNTS, JEFFREYS, {"iterations": 201, "burn_in": 200}),
    "1e9-inspected": (CountData(12, 10**9), JEFFREYS, {}),
    "1e9-inspected-x0": (CountData(0, 10**9), JEFFREYS, {}),
}


class TestKernelOracle:
    @pytest.mark.parametrize("seed", [0, 7, 123])
    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_matches_reference_loop(self, case, seed):
        counts, prior, fields = ORACLE_CASES[case]
        config = ChainConfig(**{"iterations": 3000, **fields, "seed": seed})
        chain = sample_posterior(counts, prior, config)
        draws, rate = _reference_chain(counts, prior, config)
        assert np.array_equal(chain.draws, draws)
        assert chain.acceptance_rate == rate
        assert chain.draws.dtype == np.float64 and chain.draws.flags.c_contiguous
        assert chain.draws.shape == (config.iterations,)

    def test_chain_that_accepts_nothing(self):
        config = ChainConfig(iterations=50, burn_in=0, proposal_sd=1e6, initial=np.float32(0.3))
        chain = sample_posterior(COUNTS, JEFFREYS, config)
        assert chain.acceptance_rate == 0.0
        assert chain.draws.dtype == np.float64 and chain.draws.flags.c_contiguous
        assert chain.draws.shape == (50,)
        assert np.all(chain.draws == float(np.float32(0.3)))


class TestAcf:
    def test_lag_zero(self):
        chain = sample_posterior(COUNTS, JEFFREYS, ChainConfig(seed=5))
        assert acf(chain, 10)[0] == pytest.approx(1.0)

    def test_iid_draws_have_no_correlation(self):
        rng = np.random.default_rng(12)
        values = rng.beta(10.5, 90.5, 10_000)
        rho = acf(values, 20)
        assert np.all(np.abs(rho[1:]) < 0.05)

    def test_chain_acf_decays(self):
        chain = sample_posterior(COUNTS, JEFFREYS, ChainConfig(seed=5))
        rho = acf(chain, 200)
        assert rho[1] > 0.3  # random-walk chains are autocorrelated...
        assert abs(rho[200]) < 0.1  # ...but mix within a couple hundred lags

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            acf([0.5], 0)
        with pytest.raises(DomainError):
            acf([0.1, 0.2, 0.3], 5)
        with pytest.raises(DomainError):
            acf([0.5, 0.5, 0.5], 1)
        for max_lag in (1.5, True, float("nan")):
            with pytest.raises(DomainError, match=f"^max_lag must be an integer, got {max_lag!r}$"):
                acf([0.1, 0.2, 0.3], max_lag)


class TestEmpiricalSummaries:
    def test_constant_values_give_zero_width(self):
        summary = empirical_five_number(np.full(100, 0.25))
        assert summary.whisker_low == summary.whisker_high == 0.25

    def test_interval_inside_unit_interval(self):
        chain = sample_posterior(CountData(1, 4), JEFFREYS, ChainConfig(seed=8))
        ci = empirical_interval(chain, 0.05)
        assert 0.0 < ci.lower < ci.upper < 1.0

    def test_symmetric_posterior_median(self):
        chain = sample_posterior(CountData(50, 100), JEFFREYS, ChainConfig(seed=2))
        assert empirical_five_number(chain).median == pytest.approx(0.5, abs=0.01)

    def test_operator_a_quartiles(self):
        n, x, _, q1, median, q3, _ = AB_OPERATOR_A
        chain = sample_posterior(CountData(x, n), JEFFREYS, ChainConfig(seed=0))
        summary = empirical_five_number(chain)
        assert summary.q1 == pytest.approx(q1, abs=0.01)
        assert summary.median == pytest.approx(median, abs=0.01)
        assert summary.q3 == pytest.approx(q3, abs=0.01)

    def test_worst_operator_median(self):
        n, x = OPERATOR_TABLE[-1][0], OPERATOR_TABLE[-1][1]
        chain = sample_posterior(CountData(x, n), JEFFREYS, ChainConfig(seed=0))
        assert empirical_five_number(chain).median == pytest.approx(0.031, abs=3e-3)

    def test_whiskers_respect_fences(self):
        chain = sample_posterior(COUNTS, JEFFREYS, ChainConfig(seed=1))
        s = empirical_five_number(chain)
        iqr = s.q3 - s.q1
        assert s.whisker_low >= s.q1 - 1.5 * iqr
        assert s.whisker_high <= s.q3 + 1.5 * iqr
        assert all(v < s.whisker_low or v > s.whisker_high for v in s.outliers)


SUMMARIES = {
    "acf": lambda draws: acf(draws, 10),
    "empirical_interval": empirical_interval,
    "empirical_five_number": empirical_five_number,
}


@pytest.mark.parametrize("name", sorted(SUMMARIES))
def test_chain_reads_as_its_post_burn_in_draws(name):
    # a start far out in the tail makes the burn-in draws unlike the rest
    chain = sample_posterior(COUNTS, JEFFREYS, ChainConfig(burn_in=300, initial=0.9, seed=4))
    summary = SUMMARIES[name]
    np.testing.assert_equal(summary(chain), summary(chain.post_burn_in))


_NAN_CHAIN = Chain(
    draws=np.array([0.5, 0.4, np.nan, 0.4]),
    config=ChainConfig(iterations=4, burn_in=1),
    acceptance_rate=0.5,
    counts=COUNTS,
    prior=JEFFREYS,
)


@pytest.mark.parametrize("draws", [
    0.5, np.ones((2, 3)), [0.1, np.nan], [0.1, np.inf], [-np.inf, 0.1], _NAN_CHAIN,
], ids=["scalar", "2-D", "nan", "+inf", "-inf", "nan-chain"])
@pytest.mark.parametrize("name", sorted(SUMMARIES))
def test_draws_that_are_not_finite_1d_are_one_domain_error(name, draws):
    with pytest.raises(DomainError, match="^draws must be a 1-D array of finite values, got shape "):
        SUMMARIES[name](draws)


class TestResiduals:
    def test_identical_lists_are_zero(self):
        ci = credible_interval(BetaParams(10.5, 90.5))
        report = residual_metrics([ci, ci], [ci, ci])
        assert report.mae_lower == report.rmse_upper == 0.0

    def test_single_pair(self):
        a = credible_interval(BetaParams(10.5, 90.5))
        from weldqc.bayes import CredibleInterval

        shifted = CredibleInterval(a.lower + 0.003, a.upper, a.level)
        report = residual_metrics([shifted], [a])
        assert report.mae_lower == pytest.approx(0.003)
        assert report.rmse_lower == pytest.approx(0.003)

    def test_rmse_dominates_mae(self):
        rng = np.random.default_rng(3)
        analytic = [credible_interval(BetaParams(10.5, 90.5))] * 50
        from weldqc.bayes import CredibleInterval

        numeric = [
            CredibleInterval(c.lower + rng.normal(0, 1e-3), c.upper + rng.normal(0, 1e-3), c.level)
            for c in analytic
        ]
        report = residual_metrics(numeric, analytic)
        assert report.rmse_lower >= report.mae_lower
        assert report.rmse_upper >= report.mae_upper

    def test_length_mismatch(self):
        ci = credible_interval(BetaParams(2.5, 2.5))
        with pytest.raises(DomainError):
            residual_metrics([ci], [ci, ci])

