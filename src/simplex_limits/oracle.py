"""Reference computations that validate samplers and deviation estimators
without relying on the limit theorems under test.

The central oracle is the exact distribution of the maximum uniform spacing,

    P[max_i G_{n,i} <= s] = sum_{k=0}^{floor(1/s)} (-1)^k C(n,k) (1 - k s)^{n-1},

an alternating series whose terms can dwarf the result.  Terms are computed
in log-space and summed by ``math.fsum``, which rounds their exact sum once,
so the order of the terms does not matter; a cancellation monitor aborts with
a diagnostic rather than returning garbage once the floating-point budget is
spent, or once every term lies below the float range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import RandomStream
from .sampling import exponential_block

#: exp() overflow guard for individual term magnitudes.
_LOG_OVERFLOW = 690.0
#: Log of the smallest subnormal float: a peak term below it underflows.
_LOG_UNDERFLOW = math.log(5e-324)
#: Base per-term relative representation error of the log-space pipeline.
_TERM_EPS = 4e-16
#: Abort once the rounding-error estimate exceeds this fraction of the sum.
_CANCEL_REL = 0.05
#: Stop the term loop once magnitudes fall this far (in log) below the peak.
_DECAY_MARGIN = 60.0


class CancellationError(RuntimeError):
    """The alternating series cancels beyond the accumulator's precision budget."""


@dataclass(frozen=True)
class OracleResult:
    value: float
    method: str  # closed_form | inclusion_exclusion | monte_carlo_bruteforce
    error_bound: float

    def __post_init__(self) -> None:
        if self.error_bound < 0.0:
            raise ValueError(f"error bound {self.error_bound} must be nonnegative")


def _check_spacing_args(n: int, s: float) -> None:
    if n < 2:
        raise ValueError(f"max-spacing oracle requires n >= 2, got {n}")
    if not 0.0 < s < 1.0:
        raise ValueError(f"threshold must lie in (0, 1), got {s}")


def _series(n: int, s: float, k_min: int) -> tuple[float, float]:
    """The series summed from k = k_min up, with the term at k_min counted
    positive, and its error bound.

    The log-binomial is accumulated incrementally (log C(n,k) = log C(n,k-1)
    + log(n-k+1) - log k), which stays accurate for the small k that matter;
    the lgamma difference form loses ~1e-9 absolute at n = 1e6.  The
    magnitude sequence is unimodal in k, so the loop stops once terms have
    dropped _DECAY_MARGIN below the running peak; the first omitted term
    bounds the truncation error.
    """
    terms: list[tuple[float, float]] = []  # (log-magnitude, relative error)
    peak, log_binom, trunc = -math.inf, 0.0, 0.0
    for k in range(n + 1):
        if 1.0 - k * s <= 0.0:
            break
        if k > 0:
            log_binom += math.log(n - k + 1.0) - math.log(k)
        power = (n - 1) * math.log1p(-k * s)
        lm = log_binom + power
        if k < k_min:
            continue
        if lm > _LOG_OVERFLOW:
            raise CancellationError(
                f"inclusion-exclusion term magnitude exp({lm:.1f}) at k={k} overflows "
                f"for n={n}, s={s}; the series cancels beyond double precision")
        if lm < peak - _DECAY_MARGIN:
            trunc = math.exp(lm)
            break
        peak = max(peak, lm)
        # a term's relative error grows with the magnitude of its log parts
        terms.append((lm, _TERM_EPS * (1.0 + abs(log_binom) + abs(power))))
    if peak < _LOG_UNDERFLOW:
        raise CancellationError(
            f"inclusion-exclusion terms underflow for n={n}, s={s}: every term is below "
            f"the float range, peak exp({peak:.2f}), so log P is about {peak:.2f}")
    scaled = [(-1.0) ** i * math.exp(lm - peak) for i, (lm, _) in enumerate(terms)]
    round_err = math.fsum(abs(t) * e for t, (_, e) in zip(scaled, terms)) * math.exp(peak)
    value = math.fsum(scaled) * math.exp(peak)
    if value <= 0.0 or round_err > _CANCEL_REL * value:
        raise CancellationError(
            f"inclusion-exclusion cancellation for n={n}, s={s}: peak term "
            f"exp({peak:.2f}) against sum {value:.3e} leaves fewer than "
            f"{-math.log10(_CANCEL_REL):.0f} significant digits")
    return value, trunc + round_err


def _pigeonhole_cdf_upper(n: int, s: float) -> float:
    """An upper bound on P[max_i G_{n,i} <= s] for 0 < s <= 1/(n-1).

    There the CDF is (ns - 1)^(n-1) exactly, 0 for s <= 1/n (pigeonhole): the
    spacings lie in a simplex of side ns - 1 around the barycentre.  ns - 1 is
    taken exactly from s's ratio, and the power rounded up; a power below the
    float range reads 0.
    """
    a, b = s.as_integer_ratio()
    power = (max(n * a - b, 0) / b) ** (n - 1)
    # the rounded base carries (n - 1) rounding errors into the power, and one
    # more float step covers a subnormal power's absolute error
    return math.nextafter(power * (1.0 + n * 2.0**-52), math.inf) if power else 0.0


def _max_spacing(name: str, n: int, s: float, k_min: int) -> OracleResult:
    """The series from k_min as the public function ``name``: the CDF from
    k = 0, the survival function from k = 1 (1 minus the CDF, term by term)."""
    _check_spacing_args(n, s)
    if s <= 1.0 / n:
        # pigeonhole: the maximum of n spacings summing to 1 is at least 1/n,
        # so the CDF is 0 and the survival function 1, up to the rounding of 1/n
        return OracleResult(value=float(k_min), method="closed_form",
                            error_bound=_pigeonhole_cdf_upper(n, s))
    value, err = _series(n, s, k_min)
    if value > 1.0 + err:
        raise CancellationError(f"{name}({n}, {s}) = {value} exceeds 1 beyond its error bound")
    return OracleResult(value=min(value, 1.0), method="inclusion_exclusion", error_bound=err)


def max_spacing_cdf(n: int, s: float) -> OracleResult:
    """Exact P[max_i G_{n,i} <= s] for the spacings of n-1 uniforms."""
    return _max_spacing("max_spacing_cdf", n, s, k_min=0)


def max_spacing_sf(n: int, s: float) -> OracleResult:
    """Exact P[max_i G_{n,i} > s], summed from k = 1 to avoid cancelling against 1.

    Preferred over 1 - cdf for far-right tails, where the cdf is within
    rounding of 1 but the survival probability itself is well resolved.
    """
    return _max_spacing("max_spacing_sf", n, s, k_min=1)


def max_spacing_cdf_upper(n: int, s: float) -> OracleResult:
    """Closed-form upper bound (1 - (1-s)^(n-1))^n on the max-spacing CDF.

    Uniform spacings are negatively associated, so the probability that all n
    of them stay below s is at most the product of the marginal probabilities.
    The float value bounds the CDF only up to its own rounding: where the CDF
    is within rounding of 1 it can read below it (n = 100, s = 0.25 gives
    0.9999999999572342 against the exact series' 0.9999999999572373).  The
    report reads it only for a lower tail whose alternating series cancels
    beyond double precision, where it stays computable and the CDF is far
    from 1; being a closed-form bound rather than an estimate, it carries
    error_bound = 0.
    """
    _check_spacing_args(n, s)
    if s <= 1.0 / n:
        return OracleResult(value=_pigeonhole_cdf_upper(n, s), method="closed_form",
                            error_bound=0.0)
    log_one = math.log(-math.expm1((n - 1) * math.log1p(-s)))  # log P[G_1 <= s]
    return OracleResult(value=math.exp(n * log_one), method="closed_form", error_bound=0.0)


def small_n_norm_cdf(n: int, q: float, t: float) -> OracleResult:
    """Closed-form P[||Z_2||_q <= t]; only n = 2 has a tractable form.

    At n = 2 the centered coordinates are (U - 1/2, 1/2 - U) for a uniform U,
    so ||Z_2||_q = 2**(1/q) |U - 1/2| and the CDF is piecewise linear.
    """
    if n != 2:
        raise ValueError(f"small_n_norm_cdf supports n = 2 only, got n={n}")
    if not q >= 1.0:
        raise ValueError(f"norm exponent must satisfy q >= 1, got {q}")
    if not t >= 0.0:  # NaN fails this too; t = +inf is P = 1
        raise ValueError(f"threshold must be nonnegative, got {t}")
    scale = 2.0 if math.isinf(q) else 2.0 * 2.0 ** (-1.0 / q)
    return OracleResult(value=min(1.0, scale * t), method="closed_form", error_bound=0.0)


def cov_bruteforce(q: float, draws: int, stream: RandomStream) -> OracleResult:
    """Monte Carlo covariance of (E, |E - 1|**q) with a jackknife error bound."""
    if not q >= 1.0:
        raise ValueError(f"moment order must satisfy q >= 1, got {q}")
    if draws < 10_000:
        raise ValueError(f"cov_bruteforce needs at least 10^4 draws, got {draws}")
    x = exponential_block(stream, 1, draws)[0]
    y = np.abs(x - 1.0) ** q
    m = draws
    sx, sy, sxy = float(x.sum()), float(y.sum()), float(x @ y)
    cov = (sxy - sx * sy / m) / (m - 1)
    # leave-one-out covariances in closed form, then the jackknife variance
    loo = ((sxy - x * y) - (sx - x) * (sy - y) / (m - 1)) / (m - 2)
    se = math.sqrt((m - 1) / m * float(np.sum((loo - loo.mean()) ** 2)))
    return OracleResult(value=cov, method="monte_carlo_bruteforce", error_bound=se)
