"""Random-walk Metropolis sampler for the fraction-nonconforming posterior.

The target density is proportional to p^(X+a-1) (1-p)^(n-X+b-1).  Each step
proposes p* = p + N(0, sigma^2); proposals outside (0, 1) are rejected, which
keeps the kernel's stationary distribution exactly the posterior without any
boundary corrections.  The acceptance ratio is evaluated in log space.

Diagnostics cover what practitioners actually look at: the sample
autocorrelation function, empirical quantile intervals, boxplot five-number
summaries, and MAE/RMSE of empirical interval endpoints against the
analytical solution.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .bayes import JEFFREYS, BetaParams, CountData, CredibleInterval
from .errors import DomainError, check_integer, checked
from .streams import check_seed, derive_seed, substream


@checked
class ChainConfig(NamedTuple):
    iterations: int = 10_000
    burn_in: int = 200
    proposal_sd: float = 0.05
    initial: float | None = None  # default (X + 1/2)/(n + 1), clamped away from {0, 1}
    seed: int = 0

    def _check(self) -> None:
        check_integer("iterations", self.iterations)
        check_integer("burn_in", self.burn_in)
        if self.burn_in < 0 or self.iterations <= self.burn_in:
            raise DomainError(
                f"need iterations > burn_in >= 0, got {self.iterations}, {self.burn_in}"
            )
        if not (self.proposal_sd > 0):
            raise DomainError(f"proposal_sd must be positive, got {self.proposal_sd}")
        if self.initial is not None and not (0.0 < self.initial < 1.0):
            raise DomainError(f"initial value must lie in (0, 1), got {self.initial}")
        check_seed(self.seed)


class Chain(NamedTuple):
    draws: np.ndarray
    config: ChainConfig
    acceptance_rate: float
    counts: CountData
    prior: BetaParams

    @property
    def post_burn_in(self) -> np.ndarray:
        return self.draws[self.config.burn_in:]


class FiveNumberSummary(NamedTuple):
    whisker_low: float
    q1: float
    median: float
    q3: float
    whisker_high: float
    outliers: tuple[float, ...] = ()


class ResidualReport(NamedTuple):
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
    c1 = float(counts.failed + prior.a - 1.0)
    c2 = float(counts.inspected - counts.failed + prior.b - 1.0)
    rng = substream(config.seed)
    # Python floats, not numpy scalars: indexing an array costs more than the step
    steps = rng.normal(0.0, config.proposal_sd, config.iterations).tolist()
    log_u = np.log(rng.random(config.iterations)).tolist()

    # a float state keeps every step in float64, whatever type `initial` has
    p = float(config.initial if config.initial is not None else default_initial(counts))
    log_p = c1 * math.log(p) + c2 * math.log1p(-p)
    # the chain is piecewise constant: keep each accepted move's first index
    # and value, and expand them into the draws once at the end
    starts, values = [0], [p]
    log, log1p = math.log, math.log1p  # bound locals: this loop is the hot path
    for i, step in enumerate(steps):
        proposal = p + step
        if 0.0 < proposal < 1.0:
            log_q = c1 * log(proposal) + c2 * log1p(-proposal)
            if log_u[i] < log_q - log_p:
                p = proposal
                log_p = log_q
                starts.append(i)
                values.append(p)
    starts.append(config.iterations)
    return Chain(
        draws=np.repeat(np.array(values, dtype=float), np.diff(starts)),
        config=config,
        acceptance_rate=(len(values) - 1) / config.iterations,
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
    if check_integer("n_chains", n_chains) < 1:
        raise DomainError(f"n_chains must be at least 1, got {n_chains}")
    return [
        sample_posterior(counts, prior, config._replace(seed=derive_seed(config.seed, index)))
        for index in range(n_chains)
    ]


def draw_values(chain_or_values) -> np.ndarray:
    """The draws every summary reads: a `Chain` gives its post-burn-in draws,
    anything else becomes a float array.  No draws is a DomainError."""
    if isinstance(chain_or_values, Chain):
        values = chain_or_values.post_burn_in
    else:
        values = np.asarray(chain_or_values, dtype=float)
    if len(values) == 0:
        raise DomainError("no draws: a chain needs draws after its burn-in")
    return values


def acf(chain_or_values, max_lag: int) -> np.ndarray:
    """Sample autocorrelation at lags 0..max_lag (lag 0 is exactly 1) of a
    chain's post-burn-in draws, as every summary reads them, or of plain values."""
    values = draw_values(chain_or_values)
    n = len(values)
    if n < 2:
        raise DomainError("autocorrelation requires at least two values")
    if not (0 <= max_lag < n):
        raise DomainError(f"max_lag must lie in [0, {n - 1}], got {max_lag}")
    centered = values - values.mean()
    if float(np.dot(centered, centered)) == 0.0:
        raise DomainError("autocorrelation undefined for a constant series")
    # zero padding to n + max_lag points keeps lags up to max_lag from wrapping around
    size = 1 << (n + max_lag - 1).bit_length()
    spectrum = np.fft.rfft(centered, size)
    sums = np.fft.irfft(spectrum.real**2 + spectrum.imag**2, size)[: max_lag + 1]
    return sums / sums[0]


def empirical_interval(chain_or_values, alpha: float = 0.05) -> CredibleInterval:
    """Equal-tailed interval from the sample quantiles of the draws."""
    values = draw_values(chain_or_values)
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    lo, hi = np.quantile(values, [alpha / 2.0, 1.0 - alpha / 2.0])
    return CredibleInterval(float(lo), float(hi), 1.0 - alpha)


def empirical_five_number(chain_or_values) -> FiveNumberSummary:
    """Boxplot summary with 1.5 * IQR whiskers; points beyond are outliers."""
    values = draw_values(chain_or_values)
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
