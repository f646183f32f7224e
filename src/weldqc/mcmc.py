"""Random-walk Metropolis sampler for the fraction-nonconforming posterior.

The target density is proportional to p^(X+a-1) (1-p)^(n-X+b-1).  Each step
proposes p* = p + N(0, sigma^2); proposals outside (0, 1) are rejected, which
keeps the kernel's stationary distribution exactly the posterior without any
boundary corrections.  The acceptance ratio is evaluated in log space.

Diagnostics cover what practitioners actually look at: the trace, the sample
autocorrelation function, empirical quantile intervals, boxplot five-number
summaries, and MAE/RMSE of empirical interval endpoints against the
analytical solution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .bayes import JEFFREYS, BetaParams, CountData, CredibleInterval
from .errors import DomainError
from .streams import check_seed, derive_seed, substream


@dataclass(frozen=True)
class ChainConfig:
    iterations: int = 10_000
    burn_in: int = 200
    proposal_sd: float = 0.05
    initial: float | None = None  # default (X + 1/2)/(n + 1), clamped away from {0, 1}
    seed: int = 0

    def __post_init__(self) -> None:
        if self.burn_in < 0 or self.iterations <= self.burn_in:
            raise DomainError(
                f"need iterations > burn_in >= 0, got {self.iterations}, {self.burn_in}"
            )
        if not (self.proposal_sd > 0):
            raise DomainError(f"proposal_sd must be positive, got {self.proposal_sd}")
        if self.initial is not None and not (0.0 < self.initial < 1.0):
            raise DomainError(f"initial value must lie in (0, 1), got {self.initial}")
        check_seed(self.seed)


@dataclass(frozen=True)
class Chain:
    draws: np.ndarray
    config: ChainConfig
    acceptance_rate: float
    counts: CountData
    prior: BetaParams

    @property
    def post_burn_in(self) -> np.ndarray:
        return self.draws[self.config.burn_in:]


@dataclass(frozen=True)
class FiveNumberSummary:
    whisker_low: float
    q1: float
    median: float
    q3: float
    whisker_high: float
    outliers: tuple[float, ...] = field(default=())


@dataclass(frozen=True)
class ResidualReport:
    mae_lower: float
    mae_upper: float
    rmse_lower: float
    rmse_upper: float


def default_initial(counts: CountData) -> float:
    value = (counts.failed + 0.5) / (counts.inspected + 1.0)
    return min(max(value, 1e-6), 1.0 - 1e-6)


def sample_posterior(
    counts: CountData,
    prior: BetaParams = JEFFREYS,
    config: ChainConfig = ChainConfig(),
) -> Chain:
    """Run one chain; bit-identical output for identical inputs and seed."""
    c1 = counts.failed + prior.a - 1.0
    c2 = counts.inspected - counts.failed + prior.b - 1.0
    rng = substream(config.seed)
    steps = rng.normal(0.0, config.proposal_sd, config.iterations)
    log_u = np.log(rng.random(config.iterations))

    p = config.initial if config.initial is not None else default_initial(counts)
    log_p = c1 * math.log(p) + c2 * math.log1p(-p)
    draws = np.empty(config.iterations)
    accepted = 0
    log, log1p = math.log, math.log1p  # bound locals: this loop is the hot path
    for i in range(config.iterations):
        proposal = p + steps[i]
        if 0.0 < proposal < 1.0:
            log_q = c1 * log(proposal) + c2 * log1p(-proposal)
            if log_u[i] < log_q - log_p:
                p = proposal
                log_p = log_q
                accepted += 1
        draws[i] = p
    return Chain(
        draws=draws,
        config=config,
        acceptance_rate=accepted / config.iterations,
        counts=counts,
        prior=prior,
    )


def sample_chains(
    counts: CountData,
    prior: BetaParams = JEFFREYS,
    config: ChainConfig = ChainConfig(),
    n_chains: int = 1,
) -> list[Chain]:
    """Independent chains on substreams (seed, chain index)."""
    return [
        sample_posterior(counts, prior, replace(config, seed=derive_seed(config.seed, index)))
        for index in range(n_chains)
    ]


def _draw_values(chain_or_values, post_burn_in: bool = True) -> np.ndarray:
    if isinstance(chain_or_values, Chain):
        return chain_or_values.post_burn_in if post_burn_in else chain_or_values.draws
    return np.asarray(chain_or_values, dtype=float)


def acf(chain_or_values, max_lag: int) -> np.ndarray:
    """Sample autocorrelation at lags 0..max_lag (lag 0 is exactly 1)."""
    values = _draw_values(chain_or_values, post_burn_in=False)
    n = len(values)
    if n < 2:
        raise DomainError("autocorrelation requires at least two values")
    if not (0 <= max_lag < n):
        raise DomainError(f"max_lag must lie in [0, {n - 1}], got {max_lag}")
    centered = values - values.mean()
    denom = float(np.dot(centered, centered))
    if denom == 0.0:
        raise DomainError("autocorrelation undefined for a constant series")
    out = np.empty(max_lag + 1)
    for lag in range(max_lag + 1):
        out[lag] = float(np.dot(centered[: n - lag], centered[lag:])) / denom
    return out


def empirical_interval(chain: Chain, alpha: float = 0.05) -> CredibleInterval:
    """Equal-tailed interval from post-burn-in sample quantiles."""
    values = chain.post_burn_in
    if len(values) == 0:
        raise DomainError("chain has no post-burn-in draws")
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    lo, hi = np.quantile(values, [alpha / 2.0, 1.0 - alpha / 2.0])
    return CredibleInterval(float(lo), float(hi), 1.0 - alpha)


def empirical_five_number(chain_or_values) -> FiveNumberSummary:
    """Boxplot summary with 1.5 * IQR whiskers; points beyond are outliers."""
    values = _draw_values(chain_or_values)
    if len(values) == 0:
        raise DomainError("no draws to summarize")
    q1, median, q3 = np.quantile(values, [0.25, 0.5, 0.75])
    iqr = q3 - q1
    low_fence = q1 - 1.5 * iqr
    high_fence = q3 + 1.5 * iqr
    inside = values[(values >= low_fence) & (values <= high_fence)]
    outliers = values[(values < low_fence) | (values > high_fence)]
    return FiveNumberSummary(
        whisker_low=float(inside.min()),
        q1=float(q1),
        median=float(median),
        q3=float(q3),
        whisker_high=float(inside.max()),
        outliers=tuple(sorted(float(v) for v in outliers)),
    )


def residual_metrics(
    numeric: Sequence[CredibleInterval],
    analytic: Sequence[CredibleInterval],
) -> ResidualReport:
    """MAE and RMSE of numeric vs analytic interval endpoints."""
    if len(numeric) != len(analytic):
        raise DomainError(
            f"interval lists differ in length: {len(numeric)} vs {len(analytic)}"
        )
    if not numeric:
        raise DomainError("residual metrics need at least one interval pair")
    lower = np.array([n.lower - a.lower for n, a in zip(numeric, analytic)])
    upper = np.array([n.upper - a.upper for n, a in zip(numeric, analytic)])
    return ResidualReport(
        mae_lower=float(np.mean(np.abs(lower))),
        mae_upper=float(np.mean(np.abs(upper))),
        rmse_lower=float(np.sqrt(np.mean(lower**2))),
        rmse_upper=float(np.sqrt(np.mean(upper**2))),
    )


def trace_series(chain: Chain) -> list[tuple[int, float]]:
    """(iteration, value) pairs for trace plotting."""
    return [(i + 1, float(v)) for i, v in enumerate(chain.draws)]


def acf_series(chain_or_values, max_lag: int) -> list[tuple[int, float]]:
    """(lag, value) pairs for autocorrelation plotting."""
    return [(lag, float(v)) for lag, v in enumerate(acf(chain_or_values, max_lag))]
