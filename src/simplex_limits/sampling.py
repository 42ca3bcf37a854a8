"""Seeded samplers for exponential vectors, uniform simplex points,
p-generalized Gaussians, and uniform lp-ball points.

All samplers are pure functions of a :class:`~simplex_limits.rng.RandomStream`;
calling one twice with the same stream yields bitwise-identical output.  The
block variants (``*_block``) draw a whole matrix of replicates from a single
stream and are the unit of work for the parallel experiment engine: the
per-replicate draw order inside a block is fixed, so the output never depends
on worker scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import RandomStream

#: Loose bound used to validate the sum invariants of generated points.
SUM_TOL = 1e-12

#: Elements per chunk (512 KiB of float64) of the temporaries that the block
#: samplers build piecewise, so that no such temporary is block-sized.
_CHUNK_ELEMS = 1 << 16


@dataclass(frozen=True)
class SimplexPoint:
    """A uniform point of the regular simplex, optionally barycenter-shifted.

    ``construction`` records which of the two equidistributed recipes built
    the point: normalized exponentials or uniform order-statistic spacings.
    """

    coords: np.ndarray
    n: int
    centered: bool
    construction: str = "exponential"


@dataclass(frozen=True)
class LpBallPoint:
    """A uniform point of the unit lp-ball in dimension ``n``."""

    coords: np.ndarray
    n: int
    p: float


def _check_dimension(n: int) -> None:
    if n < 1:
        raise ValueError(f"dimension must be a positive integer, got {n}")


def _check_p(p: float) -> None:
    if not p >= 1.0:
        raise ValueError(f"ball exponent p must satisfy p >= 1, got {p}")


def _redraw_exact_zeros(rng: np.random.Generator, draw, x: np.ndarray) -> np.ndarray:
    # A coordinate that underflows to exactly 0.0 would break the strict
    # positivity the normalizing sums rely on; probability is ~2**-64 per
    # draw but the guard makes it impossible rather than merely unlikely.
    while True:
        mask = x == 0.0
        if not mask.any():
            return x
        x[mask] = draw(rng, int(mask.sum()))


def exponential_block(stream: RandomStream, rows: int, n: int) -> np.ndarray:
    """Matrix of ``rows`` i.i.d. standard-exponential vectors of length ``n``."""
    _check_dimension(n)
    rng = stream.generator()
    x = rng.standard_exponential((rows, n))
    return _redraw_exact_zeros(rng, lambda r, k: r.standard_exponential(k), x)


def sample_exponentials(stream: RandomStream, n: int) -> np.ndarray:
    """Vector of ``n`` i.i.d. standard-exponential variates."""
    return exponential_block(stream, 1, n)[0]


def spacings_block(stream: RandomStream, rows: int, n: int) -> np.ndarray:
    """Matrix of uniform spacings vectors: gaps of n-1 sorted uniforms on [0, 1]."""
    _check_dimension(n)
    rng = stream.generator()
    u = np.sort(rng.random((rows, n - 1)), axis=1)
    out = np.empty((rows, n))
    out[:, 0] = u[:, 0] if n > 1 else 1.0
    if n > 1:
        out[:, 1:-1] = np.diff(u, axis=1)
        out[:, -1] = 1.0 - u[:, -1]
    return out


def simplex_block(stream: RandomStream, rows: int, n: int, centered: bool = True,
                  construction: str = "exponential") -> np.ndarray:
    """Matrix of ``rows`` uniform simplex points (see :func:`sample_simplex`)."""
    _check_dimension(n)
    if construction == "exponential":
        x = exponential_block(stream, rows, n)
        x = x / x.sum(axis=1)[:, None]
    elif construction == "spacings":
        x = spacings_block(stream, rows, n)
    else:
        raise ValueError(f"unknown construction {construction!r}")
    if centered:
        x = x - 1.0 / n
    return x


def sample_simplex(
    stream: RandomStream,
    n: int,
    centered: bool = True,
    construction: str = "exponential",
) -> SimplexPoint:
    """A uniform point of the simplex, shifted by its barycenter when centered.

    Both constructions sample the same distribution; ``exponential`` is the
    default (O(n), no sort).
    """
    coords = simplex_block(stream, 1, n, centered, construction)[0]
    return SimplexPoint(coords=coords, n=n, centered=centered, construction=construction)


def _pgen_magnitudes(rng: np.random.Generator, rows: int, n: int, p: float) -> np.ndarray:
    """Magnitudes |Y| of a matrix of i.i.d. p-generalized Gaussians Y.

    Uses the exact gamma transform |Y|**p / p ~ Gamma(1/p), rejection-free for
    every p >= 1, and builds |Y| in the gamma buffer.  The independent fair
    signs are drawn next, by :func:`_apply_fair_signs`: the draw order
    (magnitudes, then signs) is fixed.
    """
    w = rng.gamma(1.0 / p, 1.0, (rows, n))
    w = _redraw_exact_zeros(rng, lambda r, k: r.gamma(1.0 / p, 1.0, k), w)
    w *= p
    w **= 1.0 / p
    return w


def _apply_fair_signs(rng: np.random.Generator, y: np.ndarray) -> np.ndarray:
    """Multiply each entry of the C-contiguous ``y`` by an independent fair
    sign, in place, and return it.

    The signs are drawn in C order a chunk at a time: the generator's stream
    does not depend on how the draws are split, so the bits are those of one
    whole-block draw, without a block of 64-bit integers.  A +-1.0 multiply
    is used because a masked ``np.negative(..., where=)`` is about twice as
    slow per variate.
    """
    flat = y.reshape(-1)
    for start in range(0, flat.size, _CHUNK_ELEMS):
        chunk = flat[start:start + _CHUNK_ELEMS]
        chunk *= 2.0 * rng.integers(0, 2, chunk.size) - 1.0
    return y


def pgen_gaussian_block(stream: RandomStream, rows: int, n: int, p: float) -> np.ndarray:
    """Matrix of i.i.d. p-generalized Gaussian variates (see :func:`_pgen_magnitudes`)."""
    _check_p(p)
    rng = stream.generator()
    return _apply_fair_signs(rng, _pgen_magnitudes(rng, rows, n, p))


def sample_pgen_gaussian(stream: RandomStream, p: float, size: int | None = None):
    """One variate (or ``size`` variates) with density proportional to exp(-|y|**p / p)."""
    if size is None:
        return float(pgen_gaussian_block(stream, 1, 1, p)[0, 0])
    return pgen_gaussian_block(stream, 1, size, p)[0]


def lp_ball_block(stream: RandomStream, rows: int, n: int, p: float) -> np.ndarray:
    """Matrix of uniform points of the unit lp-ball.

    Each row is U**(1/n) * Y / ||Y||_p with Y a vector of i.i.d. p-generalized
    Gaussians and U an independent uniform radius factor.
    """
    _check_dimension(n)
    _check_p(p)
    rng = stream.generator()
    y = _pgen_magnitudes(rng, rows, n, p)
    # the norm is taken before the signs, from magnitudes that are |Y| exactly
    norms = _power_row_sums(y, p) ** (1.0 / p)
    _apply_fair_signs(rng, y)
    radius = rng.random(rows) ** (1.0 / n)
    y *= (radius / norms)[:, None]
    return y


def _power_row_sums(a: np.ndarray, p: float) -> np.ndarray:
    """Row sums of ``a ** p``; the powers are taken a chunk of rows at a time."""
    if p == 1.0:
        return a.sum(axis=1)  # a ** 1.0 is a exactly
    sums = np.empty(a.shape[0])
    step = max(1, _CHUNK_ELEMS // a.shape[1])
    for i in range(0, a.shape[0], step):
        sums[i:i + step] = (a[i:i + step] ** p).sum(axis=1)
    return sums


def sample_lp_ball(stream: RandomStream, n: int, p: float) -> LpBallPoint:
    """A uniform point of the unit lp-ball in dimension ``n``."""
    coords = lp_ball_block(stream, 1, n, p)[0]
    return LpBallPoint(coords=coords, n=n, p=float(p))


def check_simplex_invariants(point: SimplexPoint) -> None:
    """Raise if the sum/positivity invariants of a simplex point fail."""
    target = 0.0 if point.centered else 1.0
    floor = -1.0 / point.n if point.centered else 0.0
    if abs(float(point.coords.sum()) - target) > SUM_TOL * point.n:
        raise AssertionError(f"coordinate sum {point.coords.sum()} != {target}")
    if np.any(point.coords < floor - SUM_TOL):
        raise AssertionError("coordinate below simplex floor")


def check_ball_invariants(point: LpBallPoint) -> None:
    """Raise if a ball point leaves the unit ball beyond arithmetic slack."""
    norm = float(np.sum(np.abs(point.coords) ** point.p) ** (1.0 / point.p))
    if norm > 1.0 + SUM_TOL:
        raise AssertionError(f"lp norm {norm} exceeds 1")
