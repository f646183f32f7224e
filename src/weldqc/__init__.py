"""Quality analytics for binary pass/fail inspection data.

Library + CLI covering: Beta-posterior credible intervals for the fraction
nonconforming (analytical and Metropolis MCMC), probabilistic operator
comparison, Hellinger-distance product-complexity scoring and clustering,
Monte Carlo project forecasts, and absorbing-Markov-chain rework man-hour
estimation with execution-phase control charts.
"""

__version__ = "0.1.0"

from .bayes import (
    JEFFREYS,
    BetaParams,
    CountData,
    CredibleInterval,
    agresti_coull_interval,
    credible_interval,
    posterior,
    wald_interval,
    wilson_interval,
)
from .errors import ConfigError, DomainError, SchemaError, WeldQCError
from .ingest import (
    GroupKey,
    GroupSummary,
    WeldRecord,
    clean,
    filter_records,
    filter_summaries,
    parse_records,
    summarize,
)
from .mcmc import Chain, ChainConfig, sample_chains, sample_posterior

__all__ = [
    "__version__",
    "JEFFREYS",
    "BetaParams",
    "CountData",
    "CredibleInterval",
    "agresti_coull_interval",
    "credible_interval",
    "posterior",
    "wald_interval",
    "wilson_interval",
    "ConfigError",
    "DomainError",
    "SchemaError",
    "WeldQCError",
    "GroupKey",
    "GroupSummary",
    "WeldRecord",
    "clean",
    "filter_records",
    "filter_summaries",
    "parse_records",
    "summarize",
    "Chain",
    "ChainConfig",
    "sample_chains",
    "sample_posterior",
]
