"""Reference CDFs, empirical-distribution machinery, deviation-rate
estimators, and the source distributions of the central-moment CLT with
their limit constants in closed form.

The statistics themselves are computed by the batch kernels of
:mod:`simplex_limits.experiments`; anything distributional operates on the
:class:`EmpiricalSample` they return, which is nothing but the sorted
values, so the oracle module can evaluate exact probabilities of the very
same statistics.  Results carry only what a report reads: a KS distance is
a float, and a tail estimate is its hit count, normalized log-probability
and standard error.

scipy is imported on first use, inside the functions that call it; the
README's Install section lists them and the subcommands that never load it.
Only :func:`gaussian_cdf` here calls it (``scipy.special``); the
central-moment CLT constants need no quadrature, except the exponential
source's at a non-integer q, which :func:`constants.mu_q` integrates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .constants import moment_constants


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

    Evaluates both one-sided step discrepancies, i/m - F and F - (i-1)/m,
    at every sorted sample point i.  Each is taken in place in one buffer,
    freed before the next, so the CDF values and one buffer are all it holds.
    """
    m = sample.replicates
    if m < 1:
        raise ValueError("ks_distance requires a nonempty sample")
    f = np.asarray(cdf(sample.values), dtype=np.float64)
    step = np.arange(1, m + 1, dtype=np.float64)
    step /= m
    step -= f
    d_plus = float(step.max())
    del step
    step = np.arange(0, m, dtype=np.float64)
    step /= m
    np.subtract(f, step, out=step)
    d_minus = float(step.max())
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
#
# sqrt(n) * (mean |X - Xbar|**q - m_q) has the limit variance
# Var(d * X + |X - mu|**q), where m_q = E|X - mu|**q and d is the derivative
# of t -> E|X - t|**q at t = mu.  Each source states m_q and that variance in
# closed form, as ``clt_constants(q) -> (m_q, variance)``.


class ExponentialDist:
    """Standard exponential source for the central-moment CLT.

    g(t) = E|E - t|**q = exp(-t) * (Gamma(q + 1) + int_0^t u**q e**u du) has
    g'(t) = t**q - g(t), so d = 1 - mu_q, and the variance
    d**2 + 2 d Cov(E, |E - 1|**q) + mu_2q - mu_q**2 reads every term from
    :func:`constants.moment_constants`.
    """

    mean = 1.0

    @staticmethod
    def sample(rng: np.random.Generator, shape, out=None) -> np.ndarray:
        return rng.standard_exponential(shape, out=out)

    @staticmethod
    def clt_constants(q: float) -> tuple[float, float]:
        mc = moment_constants(q)
        d = 1.0 - mc.mu_q
        return mc.mu_q, d * d + 2.0 * d * mc.cov_e_absq + mc.mu_2q - mc.mu_q * mc.mu_q


class Uniform01Dist:
    """Uniform [0, 1] source for the central-moment CLT.

    |X - 1/2| is uniform on [0, 1/2] and d = 0 by symmetry, so
    m_q = 2**-q / (q + 1) and the variance is
    4**-q / (2q + 1) - m_q**2 = q**2 / (4**q (2q + 1) (q + 1)**2).
    """

    mean = 0.5

    @staticmethod
    def sample(rng: np.random.Generator, shape, out=None) -> np.ndarray:
        return rng.random(shape, out=out)

    @staticmethod
    def clt_constants(q: float) -> tuple[float, float]:
        return 2.0**-q / (q + 1.0), q * q / (4.0**q * (2.0 * q + 1.0) * (q + 1.0) ** 2)


SOURCE_DISTRIBUTIONS = {"exponential": ExponentialDist, "uniform01": Uniform01Dist}


def abs_moment(dist, q: float) -> float:
    """Central absolute moment E|X - mean|**q of a source distribution."""
    return dist.clt_constants(q)[0]


def general_clt_variance(dist, q: float) -> float:
    """Variance Var(d * X + |X - mu|**q) with d the derivative of
    t -> E|X - t|**q at the mean."""
    if not q >= 1.0:
        raise ValueError(f"moment order must satisfy q >= 1, got {q}")
    var = dist.clt_constants(q)[1]
    if var <= 0.0:
        raise DegenerateVarianceError(f"central-moment CLT variance {var} is not positive")
    return var
