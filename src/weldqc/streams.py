"""Deterministic random-stream derivation.

Every stochastic operation takes one user-facing seed; internal parallelism
(multiple chains, matrix cells, per-type forecast draws) uses substreams derived from
(seed, index path) so results are reproducible and independent of evaluation
order.  The path is the SeedSequence spawn key (numpy's child-stream
scheme), not part of the entropy, whose trailing zero words SeedSequence
ignores: so (seed, 1, 0) and (seed, 1) are different streams.  `derive_seed`
is the only way a sub-seed is made: it validates the seed first, so a bad
seed is a ConfigError.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, check_integer


def check_seed(seed: int) -> int:
    if check_integer("seed", seed, ConfigError) < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    return int(seed)


def _sequence(seed: int, path: tuple[int, ...]) -> np.random.SeedSequence:
    return np.random.SeedSequence(check_seed(seed), spawn_key=tuple(int(p) for p in path))


def derive_seed(seed: int, *path: int) -> int:
    """The integer seed of the child stream identified by (seed, *path)."""
    return int(_sequence(seed, path).generate_state(1, np.uint64)[0])


def substream(seed: int, *path: int) -> np.random.Generator:
    """A generator for the substream identified by (seed, *path)."""
    return np.random.default_rng(_sequence(seed, path))
