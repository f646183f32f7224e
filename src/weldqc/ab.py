"""Probabilistic comparison of posterior samples (A/B testing).

P(FN_A > FN_B) is estimated by resampling with replacement from the two
stored draw lists and counting how often the A draw is >= the B draw.  The
full pairwise operator matrix fixes its diagonal at 0.50 by convention; for
continuous draws the tie mass is negligible, so M[i][j] + M[j][i] ~= 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .mcmc import _draw_values
from .streams import derive_seed, substream

DEFAULT_RESAMPLES = 100_000


@dataclass(frozen=True)
class ComparisonResult:
    prob_a_greater: float
    draw_count: int
    seed: int


def prob_greater(draws_a, draws_b, n: int = DEFAULT_RESAMPLES, seed: int = 0) -> ComparisonResult:
    """P(FN_A >= FN_B) over n paired resamples, deterministic given seed."""
    a = _draw_values(draws_a)
    b = _draw_values(draws_b)
    if len(a) == 0 or len(b) == 0:
        raise DomainError("both draw lists must be non-empty")
    if n < 1:
        raise DomainError(f"need at least one resample, got {n}")
    rng = substream(seed)
    picks_a = a[rng.integers(0, len(a), n)]
    picks_b = b[rng.integers(0, len(b), n)]
    m = int(np.count_nonzero(picks_a >= picks_b))
    return ComparisonResult(prob_a_greater=m / n, draw_count=n, seed=seed)


def pairwise_matrix(chains, n: int = DEFAULT_RESAMPLES, seed: int = 0) -> np.ndarray:
    """Matrix with entry (i, j) = P(FN_i > FN_j); diagonal fixed at 0.50.

    Each off-diagonal cell runs on its own substream (seed, i, j) so the
    matrix is reproducible cell-by-cell.
    """
    values = [_draw_values(c) for c in chains]
    if not values:
        raise DomainError("need at least one chain")
    size = len(values)
    matrix = np.full((size, size), 0.5)
    for i in range(size):
        for j in range(size):
            if i == j:
                continue
            cell_seed = derive_seed(seed, i, j)
            matrix[i, j] = prob_greater(values[i], values[j], n, cell_seed).prob_a_greater
    return matrix
