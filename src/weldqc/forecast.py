"""Monte Carlo forecast of project-level fraction nonconforming.

A project design lists every weld with the posterior of its type.  Each
iteration draws one failure probability per weld and records the project
value (1/n) * sum(p_i).  A pure mixture mode (draw one weld's posterior per
iteration) is available for comparison; the averaging mode is the default
and is what produces the narrow project-level histograms seen in practice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .bayes import BetaParams
from .errors import ConfigError, DomainError
from .streams import substream

DEFAULT_ITERATIONS = 100
QUANTILE_STEP = 0.10


@dataclass(frozen=True)
class ProjectDesign:
    """One entry per weld: (type key, posterior of that type)."""

    welds: tuple[tuple[str, BetaParams], ...]

    def __post_init__(self) -> None:
        if not self.welds:
            raise ConfigError("a project design needs at least one weld")

    @property
    def n_welds(self) -> int:
        return len(self.welds)

    @property
    def n_types(self) -> int:
        return len({key for key, _ in self.welds})

    @classmethod
    def from_type_counts(
        cls,
        counts_by_type: Sequence[tuple[str, int]],
        posteriors: Mapping[str, BetaParams],
    ) -> "ProjectDesign":
        """Expand (type, weld count) pairs against a posterior lookup."""
        welds: list[tuple[str, BetaParams]] = []
        for key, count in counts_by_type:
            if count < 1:
                raise ConfigError(f"weld count for type {key!r} must be >= 1, got {count}")
            if key not in posteriors:
                raise ConfigError(f"no posterior available for weld type {key!r}")
            welds.extend([(key, posteriors[key])] * count)
        return cls(tuple(welds))


@dataclass(frozen=True)
class ForecastResult:
    samples: np.ndarray
    seed: int
    iterations: int
    mode: str

    def quantiles(self) -> list[tuple[float, float]]:
        return quantile_table(self)


def simulate_project(
    design: ProjectDesign,
    iterations: int = DEFAULT_ITERATIONS,
    seed: int = 0,
    mode: str = "average",
) -> ForecastResult:
    """Simulate the project fraction nonconforming.

    Each weld draws from its own substream (seed, weld index), so the result
    is reproducible and a reordered weld list changes individual samples but
    not the sampled distribution.
    """
    if iterations < 1:
        raise DomainError(f"need at least one iteration, got {iterations}")
    if mode not in ("average", "mixture"):
        raise ConfigError(f"mode must be 'average' or 'mixture', got {mode!r}")
    n = design.n_welds
    if mode == "average":
        total = np.zeros(iterations)
        for index, (_, params) in enumerate(design.welds):
            rng = substream(seed, index)
            total += rng.beta(params.a, params.b, iterations)
        samples = total / n
    else:
        rng = substream(seed)
        choices = rng.integers(0, n, iterations)
        samples = np.array(
            [rng.beta(design.welds[c][1].a, design.welds[c][1].b) for c in choices]
        )
    return ForecastResult(samples=samples, seed=seed, iterations=iterations, mode=mode)


def quantile_table(result_or_samples) -> list[tuple[float, float]]:
    """Empirical quantiles on the 0%..100% grid of QUANTILE_STEP; nondecreasing."""
    samples = (
        result_or_samples.samples
        if isinstance(result_or_samples, ForecastResult)
        else np.asarray(result_or_samples, dtype=float)
    )
    if samples.size == 0:
        raise DomainError("no samples to summarize")
    levels = np.arange(0.0, 1.0 + QUANTILE_STEP / 2.0, QUANTILE_STEP)
    levels[-1] = min(levels[-1], 1.0)
    values = np.quantile(samples, levels)
    return [(float(q), float(v)) for q, v in zip(levels, values)]
