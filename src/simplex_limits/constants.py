"""Exact and series evaluation of the moment constants, ball
normalization constants, tail quantiles, and deviation rate functions.

All functions here are pure and deterministic.  The central quantity is the
absolute moment

    mu_q = E|E - 1|**q = exp(-1) * (Gamma(q + 1) + int_0^1 x**q exp(x) dx)

for a standard exponential E; the infinite part is folded into the Gamma
term, and the finite integral is the series sum_k 1 / (k! (q + k + 1)).
:func:`moment_constants` reads this one definition at every q >= 1.  For
integer q the same moment has an exact subfactorial form,
:func:`mu_q_integer`, kept as the reference that the series is checked
against.

The p-generalized Gaussian tail, its 1/n quantile and the tail sandwich
(:func:`pgen_two_sided_tail`, :func:`m_n` and :func:`tail_sandwich`) all
read one regularized upper incomplete gamma, :func:`_upper_gamma_q`, written
with the standard library; nothing in the package imports scipy, and no
experiment kind calls these three.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

RATE_KINDS = ("simplex_sup", "mdp", "lp_sup")


def subfactorial(q: int) -> int:
    """Derangement count !q, exactly, by the integer recurrence."""
    if q < 0 or q != int(q):
        raise ValueError(f"subfactorial requires a nonnegative integer, got {q}")
    d = 1
    for k in range(1, int(q) + 1):
        d = k * d + (-1) ** k
    return d


def _check_q(q: float) -> None:
    if not 1.0 <= q < math.inf:
        raise ValueError(f"moment order q must be finite and >= 1, got {q}")


def mu_q(q: float) -> float:
    """Absolute moment E|E - 1|**q of a standard exponential.

    int_0^1 x**q e**x dx = sum_k 1 / (k! (q + k + 1)); at q >= 1 the 20th
    term is below 1e-18 of the first, so 20 terms, summed by ``math.fsum``,
    leave a truncation error far below one ulp.  Gamma(q + 1) leaves the
    float range above q = 170.62, so a larger q, integer or not, raises
    OverflowError.
    """
    _check_q(q)
    try:
        gamma = math.gamma(q + 1.0)
    except OverflowError:
        raise OverflowError(f"mu_q at q={q:g} exceeds the float range "
                            f"(Gamma(q + 1) overflows above q = 170.62)") from None
    finite = math.fsum(1.0 / (math.factorial(k) * (q + k + 1.0)) for k in range(20))
    return math.exp(-1.0) * (gamma + finite)


def mu_q_integer(q: int) -> float:
    """Closed form of mu_q for integer q via the subfactorial."""
    if q < 1 or q != int(q):
        raise ValueError(f"integer moment order >= 1 required, got {q}")
    if q >= 171:  # mu_q > q!/e and 171!/e > 1.8e308: fail before building !q
        raise OverflowError(f"mu_q at integer q={q:g} exceeds the float range (q >= 171)")
    q = int(q)
    signed = float(subfactorial(q))  # E(E-1)**q
    if q % 2 == 0:
        return signed
    return 2.0 * math.factorial(q) / math.e - signed


@dataclass(frozen=True)
class MomentConstants:
    """Per-q bundle of the moment constants."""

    q: float
    mu_q: float
    mu_2q: float
    sigma_q_sq: float
    cov_e_absq: float


@functools.lru_cache
def moment_constants(q: float) -> MomentConstants:
    """Assemble the moment bundle from mu_q(q) and mu_q(2q) at every q >= 1.

    mu_q(2q) bounds q at about 85.31, half of mu_q's float range.  Cached per
    q, so a run that reads the bundle in several places sums each series once.
    """
    m, m2 = mu_q(q), mu_q(2.0 * q)
    # the limit variance and Cov(E, |E - 1|**q), from m = mu_q and m2 = mu_2q
    sigma_sq = ((m2 - (q * q + 2.0 * q + 2.0) * m * m + 2.0 * (q + 1.0) * m - 1.0)
                / (q * q * m * m))
    return MomentConstants(q=float(q), mu_q=m, mu_2q=m2, sigma_q_sq=sigma_sq,
                           cov_e_absq=(q + 1.0) * m - 1.0)


def sigma_q_sq(q: float) -> float:
    """Limit variance of the scaled lq-norm statistic."""
    return moment_constants(q).sigma_q_sq


def cov_e_absq(q: float) -> float:
    """Covariance of E and |E - 1|**q: (q + 1) * mu_q - 1."""
    return moment_constants(q).cov_e_absq


def m1(q: float) -> float:
    """Centering constant Gamma(q + 1) of the l1-ball comparison CLT."""
    return math.gamma(q + 1.0)


def c1_qq(q: float) -> float:
    """Variance constant of the l1-ball comparison CLT (informational only)."""
    return (math.gamma(2.0 * q + 1.0) / math.gamma(q + 1.0) ** 2 - 1.0) / (q * q) - 1.0


def _upper_gamma_q(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) = Gamma(a, x) / Gamma(a), a > 0.

    Below x = a + 1, one minus the power series of P (DLMF 8.7.1); above it,
    the continued fraction of Q (DLMF 8.9.2) by the modified Lentz method
    (Numerical Recipes, 3rd ed., section 6.2).  Each stops once a term moves
    its sum by less than one ulp.
    """
    if x == 0.0 or x == math.inf:
        return 1.0 if x == 0.0 else 0.0
    eps = 2.0**-52
    prefactor = math.exp(a * math.log(x) - x - math.lgamma(a))
    if x < a + 1.0:
        term = total = 1.0 / a
        k = a
        while abs(term) >= eps * abs(total):
            k += 1.0
            term *= x / k
            total += term
        return 1.0 - prefactor * total
    # above x = a + 1 each Lentz denominator is at least i + 1 (by induction
    # on i), so none needs a guard against zero
    b, c, delta, i = x + 1.0 - a, math.inf, 0.0, 0
    h = d = 1.0 / b
    while abs(delta - 1.0) >= eps:
        i += 1
        an, b = -i * (i - a), b + 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        delta = c * d
        h *= delta
    return prefactor * h


def _check_p(p: float) -> None:
    if not 1.0 <= p < math.inf:
        raise ValueError(f"p must be finite and >= 1, got {p}")


def _power(x: float, p: float) -> float:
    """x**p in floats, saturated to inf where it leaves the float range (Q is
    then 0)."""
    try:
        return float(x) ** p
    except OverflowError:
        return math.inf


def pgen_two_sided_tail(p: float, m: float) -> float:
    """P[|Y| > m] for a p-generalized Gaussian Y, with density prop. to exp(-|y|**p / p).

    The gamma transform gives the exact identity P[|Y| > m] = Q(1/p, m**p / p),
    with Q the regularized upper incomplete gamma; 0.0 at m = inf.
    """
    _check_p(p)
    if not m >= 0:
        raise ValueError(f"threshold must be nonnegative, got {m}")
    return _upper_gamma_q(1.0 / p, _power(m, p) / p)


def m_n(p: float, n: int) -> float:
    """The 1/n two-sided tail quantile of the p-generalized Gaussian.

    Solves P[|Y| > m] = 1/n by bisection down to adjacent floats.
    """
    _check_p(p)
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    # at hi, x = hi**p / p >= 2**p * log n, and Q(a, x) <= exp(-x) for a <= 1
    # (a Gamma(a) variable is stochastically below Exp(1)), so the tail there
    # is at most n**-2 < 1/n, while at 0 it is 1
    lo, hi = 0.0, 2.0 * p ** (1.0 / p) * math.log(n) ** (1.0 / p) + 10.0
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if pgen_two_sided_tail(p, mid) > 1.0 / n:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return mid


class TailSandwich(NamedTuple):
    lower: float
    value: float
    upper: float


def tail_sandwich(p: float, x: float) -> TailSandwich:
    """Lower bound, closed-form value, and upper bound of int_x^inf exp(-y**p / p) dy.

    The value is p**(1/p - 1) * Gamma(1/p) * Q(1/p, x**p / p), by the gamma
    transform y**p / p = t.
    """
    _check_p(p)
    if not 0 < x < math.inf:
        raise ValueError(f"x must be finite and positive, got {x}")
    xp = _power(x, p)
    value = p ** (1.0 / p - 1.0) * math.gamma(1.0 / p) * _upper_gamma_q(1.0 / p, xp / p)
    envelope = math.exp(-xp / p)
    lower = x / (xp + p) * envelope
    upper = x ** (1.0 - p) * envelope
    # the true integral lies in the sandwich (at p = 1 the upper bound is
    # exact), so clamp away the closed form's last-ulp overshoot
    return TailSandwich(lower=lower, value=min(max(value, lower), upper), upper=upper)


def rate_function(kind: str, z: float, p: float | None = None) -> float:
    """Deviation rate function value; +inf below the finite-domain threshold.

    Kinds: ``simplex_sup`` (z - 1 above 1), ``mdp`` (z above 0), ``lp_sup``
    (z**p - 1 above 1, requires p).
    """
    if kind not in RATE_KINDS:
        raise ValueError(f"unknown rate function kind {kind!r}; expected one of {RATE_KINDS}")
    if not math.isfinite(z):
        raise ValueError(f"threshold must be finite, got {z}")
    if kind == "simplex_sup":
        return z - 1.0 if z >= 1.0 else math.inf
    if kind == "mdp":
        return z if z >= 0.0 else math.inf
    if p is None:
        raise ValueError("lp_sup rate function requires the ball exponent p")
    if not p >= 1.0:
        raise ValueError(f"p must satisfy p >= 1, got {p}")
    if z >= 1.0 and (zp := _power(z, p)) == math.inf:
        raise OverflowError(f"lp_sup rate z**p - 1 at z={z:g}, p={p:g} exceeds the float range")
    return zp - 1.0 if z >= 1.0 else math.inf


def constants_table(q_list) -> list[dict]:
    """Rows (q, mu_q, sigma_q^2, cov, M1, C1) for the constants CLI table."""
    rows = []
    for q in q_list:
        mc = moment_constants(q)
        rows.append({
            "q": mc.q,
            "mu_q": mc.mu_q,
            "sigma_q_sq": mc.sigma_q_sq,
            "cov_e_absq": mc.cov_e_absq,
            "m1": m1(q),
            "c1_qq": c1_qq(q),
        })
    return rows
