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
independent reference.  :func:`gaussian_cdf` is a numpy port of the Cephes
``ndtr`` that ``scipy.special.ndtr`` evaluates, and returns its bits
exactly; the central-moment CLT constants are closed forms, or for the
exponential source at a non-integer q the series of
:func:`constants.mu_q`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .constants import moment_constants


# ---------------------------------------------------------------------------
# reference CDFs


def gumbel_cdf(x):
    """Standard Gumbel CDF exp(-exp(-x)); accepts scalars or arrays."""
    return np.exp(-np.exp(-np.asarray(x, dtype=np.float64)))


# Cephes ndtr (S. L. Moshier, Methods and Programs for Mathematical Functions,
# 1989), operation for operation as scipy.special.ndtr runs it: erf on
# |x| < 1 is x * T(x^2) / U(x^2); erfc on 1 <= |x| < 8 is
# exp(-x^2) * P(x) / Q(x), from 8 up the same with R and S, and 0 once x^2
# exceeds MAXLOG.  Leading coefficient first; U, Q and S have an implied
# leading 1.
_SQRT1_2 = 0.7071067811865476
_MAXLOG = 709.782712893384
_T = (9.604973739870516, 90.02601972038427, 2232.005345946843, 7003.325141128051,
      55592.30130103949)
_U = (33.56171416475031, 521.3579497801527, 4594.323829709801, 22629.000061389095,
      49267.39426086359)
_P = (2.461969814735305e-10, 0.5641895648310689, 7.463210564422699, 48.63719709856814,
      196.5208329560771, 526.4451949954773, 934.5285271719576, 1027.5518868951572,
      557.5353353693994)
_Q = (13.228195115474499, 86.70721408859897, 354.9377788878199, 975.7085017432055,
      1823.9091668790973, 2246.3376081871097, 1656.6630919416134, 557.5353408177277)
_R = (0.5641895835477551, 1.275366707599781, 5.019050422511805, 6.160210979930536,
      7.4097426995044895, 2.9788666537210022)
_S = (2.2605286322011726, 9.396035249380015, 12.048953980809666, 17.08144507475659,
      9.608968090632859, 3.369076451000815)


def _polevl(x: np.ndarray, coef: tuple[float, ...]) -> np.ndarray:
    """Horner's rule from the leading coefficient, one rounding per step."""
    ans = coef[0] * x
    ans += coef[1]
    for c in coef[2:]:
        ans *= x
        ans += c
    return ans


def _p1evl(x: np.ndarray, coef: tuple[float, ...]) -> np.ndarray:
    return _polevl(x, (1.0, *coef))


def _erf(x: np.ndarray) -> np.ndarray:
    """Cephes erf for |x| < 1."""
    xx = x * x
    return x * _polevl(xx, _T) / _p1evl(xx, _U)


def _erfc(z: np.ndarray) -> np.ndarray:
    """Cephes erfc for z >= 1/sqrt(2).

    exp(-z^2) is libm's, through :func:`math.exp`: numpy's vectorized exp
    differs from it in the last bit on some arguments, and so would Phi.
    """
    y = np.zeros_like(z)
    near = z < 1.0
    y[near] = 1.0 - _erf(z[near])
    with np.errstate(over="ignore"):  # z^2 overflows to inf past 1.3e154
        zz = z * z
    for band, num, den in ((~near & (z < 8.0), _P, _Q), ((z >= 8.0) & (zz <= _MAXLOG), _R, _S)):
        w = z[band]
        e = np.fromiter(map(math.exp, (-zz[band]).tolist()), np.float64, len(w))
        y[band] = e * _polevl(w, num) / _p1evl(w, den)
    return y


def gaussian_cdf(a):
    """Standard normal CDF; accepts scalars or arrays.

    Bit for bit ``scipy.special.ndtr``, with its shape and return type (a
    numpy scalar for a scalar or 0-d input), without importing scipy.
    """
    x = np.asarray(a, dtype=np.float64) * _SQRT1_2
    z = np.abs(x)
    out = np.full_like(x, np.nan)  # nan in, nan out
    inner = z < _SQRT1_2
    out[inner] = 0.5 + 0.5 * _erf(x[inner])
    outer = z >= _SQRT1_2
    y = 0.5 * _erfc(z[outer])
    upper = x[outer] > 0.0
    y[upper] = 1.0 - y[upper]
    out[outer] = y
    return out[()]


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
    if m < 1:
        raise ValueError("ks_distance requires a nonempty sample")
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
