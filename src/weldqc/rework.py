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

The hours are computed in place over the Beta draws, so the stage holds one
iterations x products float64 matrix at 8 bytes a cell (10^4 x 5,000 is
400 MB; out of place, the transform would peak at about three times that).
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .bayes import BetaParams
from .errors import DomainError, checked
from .forecast import quantile_table
from .streams import derive_seed, substream

DEFAULT_ITERATIONS = 1000
DEFAULT_EFFICIENCY = 1.2
_P_CAP = 1.0 - 1e-12
_REDRAW_LIMIT = 10
#: most cells one column redraw of `control_chart` draws at a time
_REDRAW_CELLS = 1 << 16

IN_CONTROL = "in_control"
ABOVE_UCL = "above_ucl"
BELOW_LCL = "below_lcl"


@checked
class ProductSpec(NamedTuple):
    posterior: BetaParams
    estimated_hours: float
    efficiency: float = DEFAULT_EFFICIENCY
    key: str | None = None  # shared type key enables posterior updating

    def _check(self) -> None:
        if self.estimated_hours < 0:
            raise DomainError(f"estimated hours must be >= 0, got {self.estimated_hours}")
        if not (self.efficiency > 0):
            raise DomainError(f"efficiency must be positive, got {self.efficiency}")


class MarkovMatrices(NamedTuple):
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


def _columns(specs: Sequence[ProductSpec]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-product rework-hour terms eta_i * t_i and posterior shapes a_i, b_i."""
    terms = np.array([s.efficiency * s.estimated_hours for s in specs])
    return terms, np.array([s.posterior.a for s in specs]), np.array([s.posterior.b for s in specs])


def _draw_hours(
    terms: np.ndarray, a: np.ndarray, b: np.ndarray, iterations: int, rng: np.random.Generator
) -> np.ndarray:
    """iterations x len(terms) rework hours terms * (1/(1 - p) - 1), p ~ Beta(a, b), in place."""
    draws = rng.beta(a, b, size=(iterations, a.size))
    # a draw at 1 would make 1/(1 - p) infinite; measure-zero but guarded
    for _ in range(_REDRAW_LIMIT):
        mask = draws >= _P_CAP
        if not mask.any():
            np.subtract(1.0, draws, out=draws)
            np.divide(1.0, draws, out=draws)
            draws -= 1.0
            draws *= terms
            return draws
        rows, cols = np.nonzero(mask)
        draws[rows, cols] = rng.beta(a[cols], b[cols])
    raise DomainError("rework probability draws kept saturating at 1")


class ReworkEstimate(NamedTuple):
    samples: np.ndarray
    seed: int
    iterations: int

    @property
    def mean(self) -> float:
        return float(self.samples.mean())

    def quantiles(self) -> list[tuple[float, float]]:
        return quantile_table(self.samples)


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
    samples = _draw_hours(*_columns(specs), iterations, substream(seed)).sum(axis=1)
    return ReworkEstimate(samples=samples, seed=seed, iterations=iterations)


@checked
class ControlLimits(NamedTuple):
    cl: float
    ucl: float
    lcl: float

    def _check(self) -> None:
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


class StatePoint(NamedTuple):
    state: int  # number of completed products
    median: float
    band_low: float
    band_high: float
    accrued_actual_hours: float
    flag: str


class ControlChartSeries(NamedTuple):
    limits: ControlLimits
    points: tuple[StatePoint, ...]


def check_actuals(hours: Sequence[float], results: Sequence[int], n_products: int) -> None:
    """Raise DomainError unless hours and results pair up, one per completed
    product of at most n_products, with hours >= 0 and each result 0 or 1."""
    if len(hours) != len(results):
        raise DomainError(f"{len(hours)} actual hours for {len(results)} results")
    if len(hours) > n_products:
        raise DomainError(f"got actuals for {len(hours)} of {n_products} products")
    if any(h < 0 for h in hours):
        raise DomainError("actual rework hours must be >= 0")
    if any(r not in (0, 1) for r in results):
        raise DomainError("actual results must be 0 (pass) or 1 (fail/reworked)")


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
    completed products with the Monte Carlo distribution of the remaining
    products' rework hours.  One iterations x n matrix of rework hours is
    drawn from substream (seed, 1) and every state sums its own suffix of
    columns, so states share draws (common random numbers).  Points run from
    state 0 (pure planning forecast) to the number of completed products;
    once all n products are complete the suffix is empty, so the final point
    has a zero-width band and equals the total actual rework hours.  Flags
    compare the state median against the planning-phase control limits.

    By default remaining products keep their historical posteriors and no
    column is redrawn.  With `update_posteriors`, state k folds product
    k - 1's pass/fail outcome into the posteriors of the remaining products
    sharing its type key and redraws only those columns, in blocks of rows
    of at most _REDRAW_CELLS cells, so the chart still holds one matrix.
    `rng.beta` fills an array row by row, so the blocks drawn in order equal
    one whole-column draw bit for bit, unless a draw saturates at _P_CAP:
    then its redraw comes after its own block's draws, not after all of them.
    """
    check_actuals(actual_hours, actual_results, len(specs))
    completed = len(actual_hours)
    if limits is None:
        limits = control_limits(
            simulate_total_rework(specs, iterations, derive_seed(seed, 0))
        )

    terms, a, b = _columns(specs)
    keys = np.array([s.key for s in specs], dtype=object)
    rng = substream(seed, 1)
    hours = _draw_hours(terms, a, b, iterations, rng)
    points = []
    for k in range(completed + 1):
        if update_posteriors and k > 0 and keys[k - 1] is not None:
            cols = k + np.flatnonzero(keys[k:] == keys[k - 1])
            failed = int(actual_results[k - 1])
            a[cols] += failed
            b[cols] += 1 - failed
            columns = terms[cols], a[cols], b[cols]
            rows = max(1, _REDRAW_CELLS // max(cols.size, 1))
            for start in range(0, iterations, rows):
                block = _draw_hours(*columns, min(rows, iterations - start), rng)
                hours[start:start + rows, cols] = block
        accrued = float(np.sum(actual_hours[:k]))
        samples = accrued + hours[:, k:].sum(axis=1)
        low, median, high = np.quantile(samples, [0.025, 0.5, 0.975])
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
