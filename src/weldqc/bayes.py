"""Analytical Bayesian machinery for the fraction nonconforming.

The inspection outcome of one item is Bernoulli; the count of failures X in
n inspections is binomial.  With a conjugate Beta(a, b) prior on the failure
probability p the posterior is Beta(X + a, n - X + b), and equal-tailed
credible intervals come straight from the Beta quantile function.  The three
classical confidence intervals (Wald, Wilson, Agresti-Coull) are included as
comparison baselines; Wald limits are deliberately left unclipped so the
negative lower bound of small samples stays visible.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import special
from .errors import DomainError, check_integer, checked


@checked
class CountData(NamedTuple):
    """Inspection counts: `failed` failures out of `inspected` items, both integers."""

    failed: int
    inspected: int

    def _check(self) -> None:
        check_integer("failed", self.failed)
        check_integer("inspected", self.inspected)
        if not (0 <= self.failed <= self.inspected):
            raise DomainError(
                f"counts must satisfy 0 <= failed <= inspected, got "
                f"failed={self.failed}, inspected={self.inspected}"
            )

    @property
    def sample_fraction(self) -> float:
        """Point estimate X/n; undefined when nothing was inspected."""
        if self.inspected == 0:
            raise DomainError("sample fraction is undefined for zero inspections")
        return self.failed / self.inspected


@checked
class BetaParams(NamedTuple):
    """Shape parameters of a Beta distribution."""

    a: float
    b: float

    def _check(self) -> None:
        if not (self.a > 0 and self.b > 0 and math.isfinite(self.a) and math.isfinite(self.b)):
            raise DomainError(f"Beta shapes must be positive and finite, got a={self.a}, b={self.b}")

    @property
    def mean(self) -> float:
        return self.a / (self.a + self.b)

    @property
    def variance(self) -> float:
        s = self.a + self.b
        return self.a * self.b / (s * s * (s + 1.0))

    @property
    def median(self) -> float:
        return special.beta_quantile(0.5, self.a, self.b)


JEFFREYS = BetaParams(0.5, 0.5)


@checked
class CredibleInterval(NamedTuple):
    """Equal-tailed interval [lower, upper] at confidence level 1 - alpha.

    Classical confidence intervals reuse this container; their limits are not
    restricted to [0, 1].
    """

    lower: float
    upper: float
    level: float

    def _check(self) -> None:
        if not (0.0 < self.level < 1.0):
            raise DomainError(f"interval level must lie in (0, 1), got {self.level}")
        if self.lower > self.upper:
            raise DomainError(f"interval limits out of order: [{self.lower}, {self.upper}]")

    @property
    def width(self) -> float:
        return self.upper - self.lower


def posterior(counts: CountData, prior: BetaParams = JEFFREYS) -> BetaParams:
    """Beta posterior Beta(X + a, n - X + b) for the failure probability."""
    return BetaParams(counts.failed + prior.a, counts.inspected - counts.failed + prior.b)


def credible_interval(params: BetaParams, alpha: float = 0.05) -> CredibleInterval:
    """Equal-tailed interval leaving alpha/2 posterior mass in each tail."""
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    return CredibleInterval(
        lower=special.beta_quantile(alpha / 2.0, params.a, params.b),
        upper=special.beta_quantile(1.0 - alpha / 2.0, params.a, params.b),
        level=1.0 - alpha,
    )


def _check_classical(counts: CountData, alpha: float) -> tuple[float, float, float]:
    if counts.inspected < 1:
        raise DomainError("classical intervals require at least one inspection")
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    z = special.normal_quantile(1.0 - alpha / 2.0)
    return counts.sample_fraction, counts.inspected, z


def wald_interval(counts: CountData, alpha: float = 0.05) -> CredibleInterval:
    """p_hat +/- z * sqrt(p_hat (1 - p_hat) / n); limits not clipped to [0, 1]."""
    p, n, z = _check_classical(counts, alpha)
    half = z * math.sqrt(p * (1.0 - p) / n)
    return CredibleInterval(p - half, p + half, 1.0 - alpha)


def wilson_interval(counts: CountData, alpha: float = 0.05) -> CredibleInterval:
    p, n, z = _check_classical(counts, alpha)
    z2 = z * z
    center = p + z2 / (2.0 * n)
    half = z * math.sqrt((p * (1.0 - p) + z2 / (4.0 * n)) / n)
    denom = 1.0 + z2 / n
    return CredibleInterval((center - half) / denom, (center + half) / denom, 1.0 - alpha)


def agresti_coull_interval(counts: CountData, alpha: float = 0.05) -> CredibleInterval:
    """p_hat +/- z * sqrt(p_hat (1 - p_hat) / (n + z^2))."""
    p, n, z = _check_classical(counts, alpha)
    half = z * math.sqrt(p * (1.0 - p) / (n + z * z))
    return CredibleInterval(p - half, p + half, 1.0 - alpha)
