"""Probabilistic comparison of posterior samples (A/B testing).

Entry (i, j) of the pairwise operator matrix is P(FN_i >= FN_j) over the
stored post-burn-in draws; its diagonal is fixed at 0.50 by convention.

`exact_matrix` counts every pair of draws: over all pairs the probability is
the Mann-Whitney U statistic divided by n_i * n_j (Mann & Whitney 1947), so
off the diagonal M[i][j] + M[j][i] - 1 is exactly the mass of tied pairs.
A Metropolis chain repeats its value after every rejected proposal, so each
chain is first reduced to its distinct draws, each weighted by how often it
occurs: one sort of the distinct draws serves every cell, and the cost is
O(chains x distinct draws).  This is the default of the `operators` command.

`prob_greater` and `pairwise_matrix` are the paper's estimator: they draw n
paired resamples with replacement from the two draw lists and count how
often the A draw is >= the B draw, so each cell carries Monte Carlo error
of about sqrt(p(1 - p)/n).  `operators --resamples N` uses them.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DomainError, check_integer
from .mcmc import draw_values
from .streams import derive_seed, substream

DEFAULT_RESAMPLES = 100_000


class ComparisonResult(NamedTuple):
    prob_a_greater: float
    draw_count: int
    seed: int


def prob_greater(draws_a, draws_b, n: int = DEFAULT_RESAMPLES, seed: int = 0) -> ComparisonResult:
    """P(FN_A >= FN_B) over n paired resamples, deterministic given seed."""
    a = draw_values(draws_a)
    b = draw_values(draws_b)
    if check_integer("n", n) < 1:
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
    values = [draw_values(c) for c in chains]
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


def exact_matrix(chains) -> np.ndarray:
    """Matrix with entry (i, j) = #{(x, y): x in i, y in j, x >= y} / (n_i n_j).

    The diagonal is fixed at 0.50.  Each chain counts each distinct draw once,
    weighted by its multiplicity, so one sort of the distinct draws serves
    every cell: time is O(chains x distinct draws) and memory is linear in
    the distinct draws.  Counts are exact integers.
    """
    values = [draw_values(c) for c in chains]
    if not values:
        raise DomainError("need at least one chain")
    sizes = np.array([len(v) for v in values])
    distinct = [np.unique(v, return_counts=True) for v in values]
    points = np.concatenate([p for p, _ in distinct])
    weights = np.concatenate([w for _, w in distinct])
    bounds = np.cumsum([0] + [len(p) for p, _ in distinct])  # chain j is bounds[j]:bounds[j + 1]
    order = np.argsort(points)
    ranked = points[order]
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    # for each point, chain by chain: the sorted position of the last point no
    # larger than it, ties included
    last = (np.searchsorted(ranked, ranked, side="right") - 1)[rank]
    size = len(values)
    counts = np.empty((size, size), dtype=np.int64)
    running = np.empty(len(points), dtype=np.int64)
    for j in range(size):
        # draws of chain j up to each sorted position
        running.fill(0)
        running[rank[bounds[j]:bounds[j + 1]]] = weights[bounds[j]:bounds[j + 1]]
        np.cumsum(running, out=running)
        # draws of chain j no larger than each point, times the point's own
        # multiplicity, summed by the point's chain
        counts[:, j] = np.add.reduceat(running[last] * weights, bounds[:-1])
    matrix = counts / np.outer(sizes, sizes)
    np.fill_diagonal(matrix, 0.5)
    return matrix
