"""Reference CDFs, empirical-distribution machinery, deviation-rate
estimators, and the source distributions of the central-moment CLT with
their limit constants in closed form.

The statistics themselves are computed by the batch kernels of
:mod:`simplex_limits.experiments`; anything distributional operates on the
:class:`EmpiricalSample` they return, which is nothing but the sorted
values, so the oracle module can evaluate exact probabilities of the very
same statistics.  Results carry only what a report reads: a KS distance is
a float, and a tail estimate is its hit count, normalized log-probability
and standard error.  :func:`ks_distance` walks the sorted values a chunk
at a time, so it holds a chunk's CDF values and discrepancies, never the
sample's.

No module of the package imports scipy; the tests keep it as the
independent reference.  Both reference CDFs evaluate libm per value
(:func:`math.erfc` for :func:`gaussian_cdf`, :func:`math.exp` for
:func:`gumbel_cdf`), so their bits do not depend on the CPU's SIMD level;
the central-moment CLT constants are closed forms, or for the exponential
source at a non-integer q the series of :func:`constants.mu_q`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .constants import moment_constants


# ---------------------------------------------------------------------------
# reference CDFs


def _per_value(f, x) -> np.ndarray:
    """``f`` of each value of ``x``, one libm call per value, in the shape of
    ``x`` (a numpy scalar for a scalar or 0-d input).

    numpy's vectorized exp differs from libm in the last bits, and from one
    SIMD level of the CPU to the next; a ``math`` call gives the same bits at
    every level.
    """
    x = np.asarray(x, dtype=np.float64)
    return np.fromiter(map(f, memoryview(x.ravel())), np.float64, x.size).reshape(x.shape)[()]


def gumbel_cdf(x):
    """Standard Gumbel CDF exp(-exp(-x)); accepts scalars or arrays.

    The inner exponent is capped at 709, below :func:`math.exp`'s overflow:
    exp(-exp(709)) is already 0.0.
    """
    inner = np.minimum(-np.asarray(x, dtype=np.float64), 709.0)
    return _per_value(math.exp, -_per_value(math.exp, inner))


def gaussian_cdf(a):
    """Standard normal CDF 0.5 * erfc(-a / sqrt(2)), with a / sqrt(2) rounded
    as a * sqrt(1/2); accepts scalars or arrays, and returns the input's shape
    (a numpy scalar for a scalar or 0-d input)."""
    return 0.5 * _per_value(math.erfc, np.asarray(a, dtype=np.float64) * -math.sqrt(0.5))


# ---------------------------------------------------------------------------
# empirical samples


@dataclass(frozen=True)
class EmpiricalSample:
    """Replicated values of one statistic, at least one, sorted nondecreasing."""

    values: np.ndarray

    def __post_init__(self) -> None:
        if len(self.values) < 1:
            raise ValueError("a sample needs at least one value")
        if np.any(self.values[1:] < self.values[:-1]):
            raise ValueError("values must be sorted nondecreasing")

    @property
    def replicates(self) -> int:
        return len(self.values)

    @classmethod
    def from_values(cls, values) -> "EmpiricalSample":
        """The sample of ``values``.  A float64 ndarray is sorted in place:
        the caller hands it over, and the sample holds it.  Anything else (a
        list, another dtype) is copied to a new float64 array first, and is
        left as it was."""
        values = np.asarray(values, dtype=np.float64)
        values.sort()
        return cls(values)


#: Values per chunk of :func:`ks_distance`, which holds one chunk's CDF
#: values and discrepancies, not the sample's.  2^14 keeps a 12,500-value
#: sample (the battery's long-row and lp-ball rows) in one chunk, at the
#: whole-array speed; 2^13 chunks ran slower per value.
_KS_CHUNK = 1 << 14


def ks_distance(sample: EmpiricalSample, cdf: Callable) -> float:
    """Kolmogorov-Smirnov sup-distance of the sample against a reference CDF.

    Evaluates both one-sided step discrepancies, i/m - F and F - (i-1)/m,
    at every sorted sample point i, a chunk of values at a time, so ``cdf``
    must be elementwise.  The running maximum carries a NaN forward, which
    then fails the [0, 1] check.
    """
    m = sample.replicates
    d = -math.inf
    for start in range(0, m, _KS_CHUNK):
        f = np.asarray(cdf(sample.values[start:start + _KS_CHUNK]), dtype=np.float64)
        i = np.arange(start, start + f.size, dtype=np.float64)  # 0-based
        d = float(np.max([d, np.max((i + 1.0) / m - f), np.max(f - i / m)]))
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
    if not 0.0 < speed < math.inf:  # NaN fails this too
        raise ValueError(f"speed must be positive and finite, got {speed}")
    if math.isnan(z):
        raise ValueError("threshold must not be NaN")
    if direction not in ("above", "below"):
        raise ValueError(f"direction must be 'above' or 'below', got {direction!r}")
    m = sample.replicates
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
    4**-q / (2q + 1) - m_q**2 = q**2 4**-q / ((2q + 1) (q + 1)**2), written
    so that it underflows (above q = 506.00) rather than overflows.
    """

    @staticmethod
    def sample(rng: np.random.Generator, shape, out=None) -> np.ndarray:
        return rng.random(shape, out=out)

    @staticmethod
    def clt_constants(q: float) -> tuple[float, float]:
        return 2.0**-q / (q + 1.0), q * q * 0.25**q / ((2.0 * q + 1.0) * (q + 1.0) * (q + 1.0))


SOURCE_DISTRIBUTIONS = {"exponential": ExponentialDist, "uniform01": Uniform01Dist}


def abs_moment(dist, q: float) -> float:
    """Central absolute moment E|X - mean|**q of a source distribution."""
    return dist.clt_constants(q)[0]


def general_clt_variance(dist, q: float) -> float:
    """Variance Var(d * X + |X - mu|**q) with d the derivative of
    t -> E|X - t|**q at the mean.

    Each source's closed form is positive at every q >= 1, so only the float
    range bounds it: a variance below the smallest normal float (the
    uniform01 one above q = 506.00) raises OverflowError.
    """
    if not q >= 1.0:
        raise ValueError(f"moment order must satisfy q >= 1, got {q}")
    var = dist.clt_constants(q)[1]
    if not var >= np.finfo(np.float64).tiny:  # NaN too: inf * 0 above q = 1.3e154
        raise OverflowError(f"general_clt variance at q={q:g} falls below the float range "
                            "(smallest normal float 2.2e-308; for uniform01 above q = 506.00)")
    return var
