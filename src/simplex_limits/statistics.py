"""Reference CDFs, empirical-distribution machinery, deviation-rate
estimators, and the source distributions of the central-moment CLT.

The statistics themselves are computed by the batch kernels of
:mod:`simplex_limits.experiments`; anything distributional operates on the
:class:`EmpiricalSample` they return, which is nothing but the sorted
values, so the oracle module can evaluate exact probabilities of the very
same statistics.  Results carry only what a report reads: a KS distance is
a float, and a tail estimate is its hit count, normalized log-probability
and standard error.

scipy is imported on first use, inside the functions that call it; the
README's Install section lists them and the subcommands that never load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np


class DegenerateVarianceError(ValueError):
    """The central-moment CLT variance is not strictly positive."""


# ---------------------------------------------------------------------------
# reference CDFs


def gumbel_cdf(x):
    """Standard Gumbel CDF exp(-exp(-x)); accepts scalars or arrays."""
    return np.exp(-np.exp(-np.asarray(x, dtype=np.float64)))


def gaussian_cdf(x):
    """Standard normal CDF; accepts scalars or arrays."""
    from scipy.special import ndtr

    return ndtr(np.asarray(x, dtype=np.float64))


# ---------------------------------------------------------------------------
# empirical samples


@dataclass(frozen=True)
class EmpiricalSample:
    """Replicated values of one statistic, sorted nondecreasing."""

    values: np.ndarray

    def __post_init__(self) -> None:
        if np.any(self.values[1:] < self.values[:-1]):
            raise ValueError("values must be sorted nondecreasing")

    @property
    def replicates(self) -> int:
        return len(self.values)

    @classmethod
    def from_values(cls, values) -> "EmpiricalSample":
        return cls(np.sort(np.asarray(values, dtype=np.float64)))


def ks_distance(sample: EmpiricalSample, cdf: Callable) -> float:
    """Kolmogorov-Smirnov sup-distance of the sample against a reference CDF.

    Evaluates both one-sided step discrepancies at every sorted sample point.
    """
    m = sample.replicates
    if m < 1:
        raise ValueError("ks_distance requires a nonempty sample")
    f = np.asarray(cdf(sample.values), dtype=np.float64)
    i = np.arange(1, m + 1, dtype=np.float64)
    d_plus = float(np.max(i / m - f))
    d_minus = float(np.max(f - (i - 1.0) / m))
    d = max(d_plus, d_minus)
    if not 0.0 <= d <= 1.0:
        raise ValueError(f"KS distance {d} outside [0, 1]")
    return d


@dataclass(frozen=True)
class DeviationEstimate:
    """A tail log-probability estimate normalized by a deviation speed.

    When no replicate lands in the tail the estimate is flagged empty rather
    than extrapolated; ``normalized_log_prob`` is +inf in that case, which is
    the honest one-sided reading of a zero count.
    """

    hit_count: int
    normalized_log_prob: float
    std_error: float

    @property
    def empty_tail(self) -> bool:
        return self.hit_count == 0


def tail_log_prob(sample: EmpiricalSample, z: float, speed: float,
                  direction: str = "above") -> DeviationEstimate:
    """-(1/speed) * log of the empirical tail frequency beyond ``z``.

    The standard error is the delta-method binomial error on the normalized
    value: (1/speed) * sqrt((1 - phat) / (phat * replicates)).
    """
    if speed <= 0:
        raise ValueError(f"speed must be positive, got {speed}")
    if direction not in ("above", "below"):
        raise ValueError(f"direction must be 'above' or 'below', got {direction!r}")
    m = sample.replicates
    if m < 1:
        raise ValueError("tail_log_prob requires a nonempty sample")
    if direction == "above":
        hits = int(np.count_nonzero(sample.values > z))
    else:
        hits = int(np.count_nonzero(sample.values < z))
    if hits == 0:
        return DeviationEstimate(0, math.inf, math.inf)
    phat = hits / m
    return DeviationEstimate(hits, -math.log(phat) / speed,
                             math.sqrt((1.0 - phat) / (phat * m)) / speed)


# ---------------------------------------------------------------------------
# general central-moment CLT (arbitrary source distribution)


class ExponentialDist:
    """Standard exponential source for the central-moment CLT."""

    mean = 1.0

    @staticmethod
    def sample(rng: np.random.Generator, shape, out=None) -> np.ndarray:
        return rng.standard_exponential(shape, out=out)

    @staticmethod
    def _pdf(x: float) -> float:
        return math.exp(-x)

    support = (0.0, math.inf)


class Uniform01Dist:
    """Uniform [0, 1] source for the central-moment CLT."""

    mean = 0.5

    @staticmethod
    def sample(rng: np.random.Generator, shape, out=None) -> np.ndarray:
        return rng.random(shape, out=out)

    @staticmethod
    def _pdf(x: float) -> float:
        return 1.0

    support = (0.0, 1.0)


SOURCE_DISTRIBUTIONS = {"exponential": ExponentialDist, "uniform01": Uniform01Dist}


def _expect(dist, f: Callable[[float], float], split: float) -> float:
    # Integrands here have a kink at `split`, so integrate the two pieces.
    from scipy.integrate import quad

    a, b = dist.support
    total = 0.0
    for lo, hi in ((a, split), (split, b)):
        if lo >= hi:
            continue
        val, _ = quad(lambda x: f(x) * dist._pdf(x), lo, hi,
                      epsabs=1e-11, epsrel=1e-11, limit=200)
        total += val
    return total


def abs_moment(dist, q: float, t: float) -> float:
    """E|X - t|**q for the named source distribution, by quadrature."""
    return _expect(dist, lambda x: abs(x - t) ** q, split=t)


#: Step of the central finite difference in :func:`general_clt_variance`.
_FD_STEP = 1e-4


def general_clt_variance(dist, q: float) -> float:
    """Variance Var(d * X + |X - mu|**q) with d the derivative of
    t -> E|X - t|**q at the mean, taken by central finite difference."""
    if not q >= 1.0:
        raise ValueError(f"moment order must satisfy q >= 1, got {q}")
    mu = dist.mean
    d = ((abs_moment(dist, q, mu + _FD_STEP) - abs_moment(dist, q, mu - _FD_STEP))
         / (2.0 * _FD_STEP))

    def g(x: float) -> float:
        return d * x + abs(x - mu) ** q

    first = _expect(dist, g, split=mu)
    second = _expect(dist, lambda x: g(x) ** 2, split=mu)
    var = second - first * first
    if var <= 0.0:
        raise DegenerateVarianceError(f"central-moment CLT variance {var} is not positive")
    return var
