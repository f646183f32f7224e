"""Absorbing-Markov-chain rework engine.

A production run of n products is a chain with transient states 1..n and one
absorbing completion state.  A product in state i fails inspection (and is
reworked) with probability p_i, so the transient block Q is upper-bidiagonal
with diagonal p_i and superdiagonal 1 - p_i.  The fundamental matrix
N = (I - Q)^-1 is upper triangular with entries 1/(1 - p_j); N_1i - 1 is the
expected number of reworks of product i, which prices rework man-hours as
eta_i * t_i * (1/(1 - p_i) - 1).

Drawing each p_i from its type's posterior gives the planning-phase estimate
distribution; its median and 2.5%/97.5% quantiles form the control chart's
center line and control limits.  During execution the chart tracks, per
state, accrued actual rework hours plus the simulated remainder.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bayes import BetaParams
from .errors import DomainError
from .forecast import quantile_table
from .streams import derive_seed, substream

DEFAULT_ITERATIONS = 1000
DEFAULT_EFFICIENCY = 1.2
_P_CAP = 1.0 - 1e-12
_REDRAW_LIMIT = 10

IN_CONTROL = "in_control"
ABOVE_UCL = "above_ucl"
BELOW_LCL = "below_lcl"


@dataclass(frozen=True)
class ProductSpec:
    posterior: BetaParams
    estimated_hours: float
    efficiency: float = DEFAULT_EFFICIENCY
    key: str | None = None  # shared type key enables posterior updating

    def __post_init__(self) -> None:
        if self.estimated_hours < 0:
            raise DomainError(f"estimated hours must be >= 0, got {self.estimated_hours}")
        if not (self.efficiency > 0):
            raise DomainError(f"efficiency must be positive, got {self.efficiency}")


@dataclass(frozen=True)
class MarkovMatrices:
    P: np.ndarray  # (n+1) x (n+1) transition matrix, last state absorbing
    Q: np.ndarray  # n x n transient block
    R: np.ndarray  # n x 1 absorption column


def transition_matrix(p: Sequence[float]) -> MarkovMatrices:
    """Canonical-form matrices for rework probabilities p_1..p_n."""
    probs = np.asarray(p, dtype=float)
    if probs.ndim != 1 or probs.size < 1:
        raise DomainError("need at least one rework probability")
    if np.any((probs < 0.0) | (probs >= 1.0)):
        raise DomainError(
            "every rework probability must lie in [0, 1); p = 1 means the "
            "product is never completed"
        )
    n = probs.size
    full = np.zeros((n + 1, n + 1))
    for i in range(n):
        full[i, i] = probs[i]
        full[i, i + 1] = 1.0 - probs[i]
    full[n, n] = 1.0
    q = full[:n, :n].copy()
    r = full[:n, n:].copy()
    row_sums = full.sum(axis=1)
    if not np.allclose(row_sums, 1.0, rtol=0.0, atol=1e-14):
        raise DomainError(f"transition rows must sum to 1, got {row_sums}")
    return MarkovMatrices(P=full, Q=q, R=r)


def fundamental_matrix(matrices: MarkovMatrices) -> np.ndarray:
    """N = (I - Q)^-1 via the upper-triangular closed form.

    The closed form (row i holds 1/(1 - p_j) for j >= i) is cross-checked
    against a dense inverse to 1e-10 before being returned.
    """
    q = matrices.Q
    n = q.shape[0]
    diag = np.diag(q)
    if np.any(diag >= 1.0):
        raise DomainError("I - Q is singular: some rework probability equals 1")
    expected_visits = 1.0 / (1.0 - diag)
    closed = np.triu(np.tile(expected_visits, (n, 1)))
    dense = np.linalg.inv(np.eye(n) - q)
    if not np.allclose(closed, dense, rtol=0.0, atol=1e-10):
        raise DomainError("closed-form fundamental matrix disagrees with dense inverse")
    return closed


def expected_rework_hours(
    p: Sequence[float], specs: Sequence[ProductSpec]
) -> tuple[np.ndarray, float]:
    """Per-product eta_i * t_i * (1/(1 - p_i) - 1) and their total."""
    probs = np.asarray(p, dtype=float)
    if probs.size != len(specs):
        raise DomainError(
            f"got {probs.size} probabilities for {len(specs)} products"
        )
    visits = fundamental_matrix(transition_matrix(probs))[0]
    hours = _rework_hour_terms(specs) * (visits - 1.0)
    return hours, float(hours.sum())


def _rework_hour_terms(specs: Sequence[ProductSpec]) -> np.ndarray:
    return np.array([s.efficiency * s.estimated_hours for s in specs])


def _draw_probabilities(
    specs: Sequence[ProductSpec], iterations: int, rng: np.random.Generator
) -> np.ndarray:
    a = np.array([s.posterior.a for s in specs])
    b = np.array([s.posterior.b for s in specs])
    draws = rng.beta(a, b, size=(iterations, len(specs)))
    # a draw at 1 would make 1/(1 - p) infinite; measure-zero but guarded
    for _ in range(_REDRAW_LIMIT):
        mask = draws >= _P_CAP
        if not mask.any():
            return draws
        rows, cols = np.nonzero(mask)
        draws[rows, cols] = rng.beta(a[cols], b[cols])
    raise DomainError("rework probability draws kept saturating at 1")


@dataclass(frozen=True)
class ReworkEstimate:
    samples: np.ndarray
    seed: int
    iterations: int

    @property
    def mean(self) -> float:
        return float(self.samples.mean())

    def quantiles(self, step: float = 0.10) -> list[tuple[float, float]]:
        return quantile_table(self.samples, step)


def simulate_total_rework(
    specs: Sequence[ProductSpec],
    iterations: int = DEFAULT_ITERATIONS,
    seed: int = 0,
) -> ReworkEstimate:
    """Planning-phase distribution of total rework man-hours."""
    if not specs:
        raise DomainError("need at least one product")
    if iterations < 1:
        raise DomainError(f"need at least one iteration, got {iterations}")
    rng = substream(seed)
    draws = _draw_probabilities(specs, iterations, rng)
    terms = _rework_hour_terms(specs)
    samples = (terms * (1.0 / (1.0 - draws) - 1.0)).sum(axis=1)
    return ReworkEstimate(samples=samples, seed=seed, iterations=iterations)


@dataclass(frozen=True)
class ControlLimits:
    cl: float
    ucl: float
    lcl: float

    def __post_init__(self) -> None:
        if not (self.lcl <= self.cl <= self.ucl):
            raise DomainError(
                f"limits out of order: LCL={self.lcl}, CL={self.cl}, UCL={self.ucl}"
            )

    def flag(self, value: float) -> str:
        if value > self.ucl:
            return ABOVE_UCL
        if value < self.lcl:
            return BELOW_LCL
        return IN_CONTROL


def control_limits(estimate: ReworkEstimate) -> ControlLimits:
    """CL = median, LCL/UCL = 2.5% and 97.5% quantiles of the estimate."""
    if estimate.samples.size == 0:
        raise DomainError("estimate has no samples")
    lcl, cl, ucl = np.quantile(estimate.samples, [0.025, 0.5, 0.975])
    return ControlLimits(cl=float(cl), ucl=float(ucl), lcl=float(lcl))


@dataclass(frozen=True)
class StatePoint:
    state: int  # number of completed products
    median: float
    band_low: float
    band_high: float
    accrued_actual_hours: float
    flag: str


@dataclass(frozen=True)
class ControlChartSeries:
    limits: ControlLimits
    points: tuple[StatePoint, ...]


def _updated_posteriors(
    specs: Sequence[ProductSpec],
    actual_results: Sequence[int],
    completed: int,
) -> list[BetaParams]:
    """Fold completed pass/fail outcomes into same-type remaining posteriors."""
    outcomes: dict[str, list[int]] = {}
    for i in range(completed):
        key = specs[i].key if specs[i].key is not None else f"#{i}"
        outcomes.setdefault(key, []).append(int(actual_results[i]))
    updated = []
    for i in range(completed, len(specs)):
        spec = specs[i]
        key = spec.key if spec.key is not None else f"#{i}"
        seen = outcomes.get(key, [])
        fails = sum(seen)
        updated.append(
            BetaParams(spec.posterior.a + fails, spec.posterior.b + len(seen) - fails)
        )
    return updated


def control_chart(
    specs: Sequence[ProductSpec],
    actual_hours: Sequence[float],
    actual_results: Sequence[int],
    iterations: int = DEFAULT_ITERATIONS,
    seed: int = 0,
    limits: ControlLimits | None = None,
    update_posteriors: bool = False,
) -> ControlChartSeries:
    """Execution-phase rework chart.

    A point at state k combines the accrued actual rework hours of the k
    completed products with a fresh Monte Carlo distribution (substream
    (seed, 1, k)) of the remaining products' rework hours.  Points run from
    state 0 (pure planning forecast) to the number of completed products;
    once all n products are complete the final point has a zero-width band
    and equals the total actual rework hours.  Flags compare the state median
    against the planning-phase control limits.

    By default remaining products keep their historical posteriors; with
    `update_posteriors` the completed pass/fail outcomes are folded into the
    posteriors of remaining products sharing the same type key.
    """
    n = len(specs)
    if len(actual_hours) != len(actual_results):
        raise DomainError(
            f"{len(actual_hours)} actual hours for {len(actual_results)} results"
        )
    if len(actual_hours) > n:
        raise DomainError(f"got actuals for {len(actual_hours)} of {n} products")
    if any(h < 0 for h in actual_hours):
        raise DomainError("actual rework hours must be >= 0")
    if any(r not in (0, 1) for r in actual_results):
        raise DomainError("actual results must be 0 (pass) or 1 (fail/reworked)")
    completed = len(actual_hours)
    if limits is None:
        limits = control_limits(
            simulate_total_rework(specs, iterations, derive_seed(seed, 0))
        )

    terms = _rework_hour_terms(specs)
    points = []
    for k in range(completed + 1):
        accrued = float(np.sum(actual_hours[:k]))
        remaining = list(specs[k:])
        if update_posteriors and k > 0 and remaining:
            fresh = _updated_posteriors(specs, actual_results, k)
            remaining = [
                ProductSpec(post, s.estimated_hours, s.efficiency, s.key)
                for post, s in zip(fresh, remaining)
            ]
        if remaining:
            rng = substream(seed, 1, k)
            draws = _draw_probabilities(remaining, iterations, rng)
            samples = accrued + (terms[k:] * (1.0 / (1.0 - draws) - 1.0)).sum(axis=1)
            low, median, high = np.quantile(samples, [0.025, 0.5, 0.975])
        else:
            low = median = high = accrued
        points.append(
            StatePoint(
                state=k,
                median=float(median),
                band_low=float(low),
                band_high=float(high),
                accrued_actual_hours=accrued,
                flag=limits.flag(float(median)),
            )
        )
    return ControlChartSeries(limits=limits, points=tuple(points))
