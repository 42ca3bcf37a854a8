"""Per-point reference implementations that the tests compare the program with.

The program computes each statistic once, as a batch kernel over a block of
replicates (``simplex_limits.experiments``).  The functions here compute the
same statistics again, one point at a time and straight from their formulas,
as plain functions of one coordinate vector.  A test draws the block its
kernel draws (same substream, ``sampling.*_block``), applies a reference to
each row and requires the two results to agree, so every statistic is checked
against an independent implementation.
"""

import math
from decimal import Decimal, localcontext

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import gammaincc

from simplex_limits.constants import mu_q
from simplex_limits.sampling import SUM_TOL

# ---------------------------------------------------------------------------
# norms and scaled statistics; z is a centered simplex point, x an lp-ball point


def lq_norm(x, q: float) -> float:
    """(sum |x_i|**q)**(1/q), or the coordinate maximum for q = inf.

    Scales by the coordinate maximum before powering, so large inputs do not
    overflow for big q.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        raise ValueError("lq_norm of an empty vector")
    if not q >= 1.0:
        raise ValueError(f"norm exponent must satisfy q >= 1, got {q}")
    a = np.abs(x)
    top = float(a.max())
    if math.isinf(q) or top == 0.0:
        return top
    return top * float(np.sum((a / top) ** q)) ** (1.0 / q)


def clt_statistic(z, mc) -> float:
    """sqrt(n) * (n**(1-1/q) * ||z||_q * mu_q**(-1/q) - 1) / sigma_q, with q,
    mu_q and sigma_q**2 from the ``constants.MomentConstants`` bundle ``mc``."""
    n, q = len(z), mc.q
    scaled = n ** (1.0 - 1.0 / q) * lq_norm(z, q) * mc.mu_q ** (-1.0 / q)
    return math.sqrt(n) * (scaled - 1.0) / math.sqrt(mc.sigma_q_sq)


def gumbel_statistic(z) -> float:
    """n * ||z||_inf - (log n - 1)."""
    n = len(z)
    return n * lq_norm(z, math.inf) - (math.log(n) - 1.0)


def ldp_statistic(z) -> float:
    """(n / log n) * ||z||_inf."""
    n = len(z)
    if n < 2:
        raise ValueError("ldp_statistic requires n >= 2")
    return n * lq_norm(z, math.inf) / math.log(n)


def mdp_statistic(z, s_n: float) -> float:
    """(log n / s_n) * ((n / log n) * ||z||_inf - 1)."""
    n = len(z)
    if n < 2:
        raise ValueError("mdp_statistic requires n >= 2")
    log_n = math.log(n)
    if not 1.0 < s_n < log_n:
        raise ValueError(f"moderate speed must satisfy 1 < s_n < log n, got {s_n} at n={n}")
    return (log_n / s_n) * (n * lq_norm(z, math.inf) / log_n - 1.0)


def lp_ldp_statistic(x, p: float) -> float:
    """(n / (p log n))**(1/p) * ||x||_inf for an lp-ball point."""
    n = len(x)
    if n < 2:
        raise ValueError("lp_ldp_statistic requires n >= 2")
    return (n / (p * math.log(n))) ** (1.0 / p) * lq_norm(x, math.inf)


def equivalence_indicator(exponentials) -> bool:
    """True iff ||Z||_inf differs from the one-sided maximum for this vector.

    The two statistics differ exactly when the most negative centered
    coordinate strictly exceeds the most positive one in absolute value,
    i.e. when 2 * mean(E) > max(E) + min(E).  Ties resolve to False (the
    norms agree); this comparison form is also exactly tie-symmetric in
    floating point at n = 2, where the two sides are equal by construction.
    """
    e = np.asarray(exponentials, dtype=np.float64)
    if e.ndim != 1 or e.size < 2:
        raise ValueError("equivalence_indicator needs a vector of length >= 2")
    return bool(2.0 * float(e.sum()) / e.size > float(e.max()) + float(e.min()))


def general_central_moment_stat(data, q: float, mq: float) -> float:
    """sqrt(n) * ((1/n) sum |X_i - Xbar|**q - mq), centred at the empirical mean."""
    x = np.asarray(data, dtype=np.float64)
    if x.size == 0:
        raise ValueError("general_central_moment_stat requires nonempty data")
    if not q >= 1.0:
        raise ValueError(f"moment order must satisfy q >= 1, got {q}")
    centered = np.abs(x - x.mean())
    return math.sqrt(x.size) * (float(np.mean(centered**q)) - mq)


def ks_distance_whole(values, cdf) -> float:
    """Kolmogorov-Smirnov distance of the sorted ``values`` against ``cdf``,
    with the CDF and both step discrepancies, i/m - F and F - (i-1)/m, taken
    over the whole array at once."""
    m = len(values)
    f = np.asarray(cdf(values), dtype=np.float64)
    return max(float(np.max(np.arange(1, m + 1, dtype=np.float64) / m - f)),
               float(np.max(f - np.arange(0, m, dtype=np.float64) / m)))


# ---------------------------------------------------------------------------
# moments, normalization constants and point invariants


def gamma_fn(x: float) -> float:
    """Gamma function on the positive half-line."""
    if not x > 0:
        raise ValueError(f"gamma_fn requires x > 0, got {x}")
    return math.gamma(x)


def moment_derivative(q: float) -> float:
    """Derivative of t -> E|E - t|**q at t = 1: equals 1 - mu_q."""
    return 1.0 - mu_q(q)


def c_p(p: float) -> float:
    """Normalization constant of the p-generalized Gaussian density."""
    if not p >= 1.0:
        raise ValueError(f"c_p requires p >= 1, got {p}")
    return 1.0 / (2.0 * p ** (1.0 / p) * math.gamma(1.0 + 1.0 / p))


def _gamma_arg(x: float, p: float) -> np.float64:
    """x**p / p in numpy float64, which overflows to inf rather than raising."""
    with np.errstate(over="ignore"):
        return np.float64(x) ** p / p


def pgen_tail_integral(p: float, x: float) -> float:
    """int_x^inf exp(-y**p / p) dy = p**(1/p - 1) Gamma(1/p) Q(1/p, x**p / p),
    with scipy's regularized upper incomplete gamma Q."""
    q = float(gammaincc(1.0 / p, _gamma_arg(x, p)))
    return p ** (1.0 / p - 1.0) * math.gamma(1.0 / p) * q


def m_n_brentq(p: float, n: int) -> float:
    """The 1/n two-sided tail quantile of the p-generalized Gaussian: brentq on
    P[|Y| > m] = Q(1/p, m**p / p), with scipy's Q, to full float precision."""
    hi = 2.0 * p ** (1.0 / p) * math.log(n) ** (1.0 / p) + 10.0
    return brentq(lambda m: float(gammaincc(1.0 / p, _gamma_arg(m, p))) - 1.0 / n, 1e-6, hi,
                  xtol=1e-15, rtol=1e-15, maxiter=500)


def mu_q_bruteforce(q: float) -> tuple[float, float]:
    """(value, error bound) of int_0^inf |x - 1|**q exp(-x) dx by direct
    quadrature.

    Independent of the factorized Gamma form used by the constants module;
    the [x_max, inf) remainder is bounded analytically and folded into the
    error bound.
    """
    x_max = 20.0 + 12.0 * q
    left, e1 = quad(lambda x: (1.0 - x) ** q * math.exp(-x), 0.0, 1.0,
                    epsabs=1e-12, epsrel=1e-12)
    right, e2 = quad(lambda x: (x - 1.0) ** q * math.exp(-x), 1.0, x_max,
                     epsabs=1e-12, epsrel=1e-12, limit=200)
    a = x_max - 1.0  # tail bound: int_A^inf u^q e^-u du <= A^q e^-A / (1 - q/A)
    tail = a**q * math.exp(-a) / (1.0 - q / a) * math.exp(-1.0)
    return left + right, e1 + e2 + tail


def mu_q_decimal(q: int) -> Decimal:
    """mu_q at integer q from its closed form in 60-digit decimal: the
    derangement count !q at even q, 2 q!/e - !q at odd q, with !q exact."""
    with localcontext() as ctx:
        ctx.prec = 60
        derangements = sum((-1) ** k * (math.factorial(q) // math.factorial(k))
                           for k in range(q + 1))
        if q % 2 == 0:
            return Decimal(derangements)
        return 2 * Decimal(math.factorial(q)) / Decimal(1).exp() - derangements


#: general-CLT source -> (mean, density, support)
_SOURCE_LAWS = {
    "exponential": (1.0, lambda x: math.exp(-x), (0.0, math.inf)),
    "uniform01": (0.5, lambda x: 1.0, (0.0, 1.0)),
}


def general_clt_constants(source: str, q: float) -> tuple[float, float]:
    """(m_q, sigma**2) of the central-moment CLT by quadrature against the
    source's density: m_q = E|X - mu|**q and sigma**2 = Var(d X + |X - mu|**q),
    with d = E[-q sign(X - mu) |X - mu|**(q-1)] the derivative of
    t -> E|X - t|**q at mu, integrated rather than differenced.  Every
    integrand has its kink at mu, so each is integrated on the two sides of it.
    """
    mu, pdf, (lo, hi) = _SOURCE_LAWS[source]

    def expect(f):
        return sum(quad(lambda x: f(x) * pdf(x), a, b, epsabs=0.0, epsrel=1e-13,
                        limit=200)[0] for a, b in ((lo, mu), (mu, hi)))

    mq = expect(lambda x: abs(x - mu) ** q)
    d = expect(lambda x: -q * math.copysign(abs(x - mu) ** (q - 1.0), x - mu))
    var = expect(lambda x: (d * (x - mu) + abs(x - mu) ** q - mq) ** 2)
    return mq, var


def check_simplex_invariants(coords, centered: bool) -> None:
    """Raise if the sum/positivity invariants of a simplex point fail."""
    n = len(coords)
    target = 0.0 if centered else 1.0
    floor = -1.0 / n if centered else 0.0
    if abs(float(coords.sum()) - target) > SUM_TOL * n:
        raise AssertionError(f"coordinate sum {coords.sum()} != {target}")
    if np.any(coords < floor - SUM_TOL):
        raise AssertionError("coordinate below simplex floor")


def check_ball_invariants(coords, p: float) -> None:
    """Raise if a ball point leaves the unit ball beyond arithmetic slack."""
    norm = float(np.sum(np.abs(coords) ** p) ** (1.0 / p))
    if norm > 1.0 + SUM_TOL:
        raise AssertionError(f"lp norm {norm} exceeds 1")
