"""Seeded samplers for exponential vectors, uniform simplex points,
p-generalized Gaussians, and uniform lp-ball points.

All samplers (the ``*_block`` functions) are pure functions of a
:class:`~simplex_limits.rng.RandomStream`; calling one twice with the same
stream yields bitwise-identical output.  Each draws a whole matrix of
replicates, one per row, from a single stream and is the unit of work for the
parallel experiment engine: the per-replicate draw order inside a block is
fixed, so the output never depends on worker scheduling.
:func:`exponential_block` and :func:`lp_ball_block` can also reduce each row
as they draw, a cache-sized chunk of rows at a time, without building the
block.

The p-generalized Gaussian magnitudes |Y| (:func:`_magnitudes_fill`) are
drawn per p: standard exponentials at p=1, the absolute values of standard
normals at p=2, and the gamma transform (p W)**(1/p), W ~ Gamma(1/p), at
every other p >= 1.  Each is followed by the fair signs, then (lp-ball) the
radius factor.
"""

from __future__ import annotations

import numpy as np

from .rng import RandomStream

#: Arithmetic slack of the invariants of generated points: the coordinate sum
#: of a simplex point, the lp-norm of an lp-ball point.
SUM_TOL = 1e-12

#: Elements per chunk (512 KiB of float64, a quarter of a 2 MiB L2 cache): the
#: block samplers build their temporaries, and the row-reducing samplers draw
#: and reduce their rows, this many elements at a time.
_CHUNK_ELEMS = 1 << 16


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
    # testing the min first spares the usual call a block-sized mask
    while x.size and not x.min() > 0.0:
        mask = x == 0.0
        x[mask] = draw(rng, int(mask.sum()))
    return x


def _whole_exponential_block(stream: RandomStream, rows: int, n: int) -> np.ndarray:
    # the chunked path falls back here, not to exponential_block, so that a
    # wrapper of the public name (the traced benchmark's) sees one call a block
    rng = stream.generator()
    x = rng.standard_exponential((rows, n))
    return _redraw_exact_zeros(rng, lambda r, k: r.standard_exponential(k), x)


class _ExactZero(Exception):
    """A chunk drew an exact 0.0, which only the whole-block guard may replace."""


def exponential_block(stream: RandomStream, rows: int, n: int, reduce=None) -> np.ndarray:
    """Matrix of ``rows`` i.i.d. standard-exponential vectors of length ``n``.

    Given a per-row ``reduce`` (a chunk of rows, which it may overwrite ->
    one value per row), the block is never built: it is drawn a chunk of rows
    at a time into one reused buffer and each chunk is reduced while it is
    still in cache (see :func:`reduce_rows`); the result is the vector of the
    ``rows`` values.  The draws are those of the whole block, so the values
    are ``reduce`` of the whole block, bit for bit.
    """
    _check_dimension(n)
    if reduce is None:
        return _whole_exponential_block(stream, rows, n)
    rng = stream.generator()
    buf = np.empty((min(rows, _chunk_rows(n)), n))

    def draw(k: int) -> np.ndarray:
        e = buf[:k]
        rng.standard_exponential(out=e)
        if not e.min() > 0.0:
            raise _ExactZero
        return e

    try:
        return reduce_rows(rows, n, draw, reduce)
    except _ExactZero:
        # the guard redraws after the whole block, so only the whole block
        # has the guarded bits
        return reduce(_whole_exponential_block(stream, rows, n))


def _chunk_rows(n: int) -> int:
    return max(1, _CHUNK_ELEMS // n)


def reduce_rows(rows: int, n: int, draw, reduce) -> np.ndarray:
    """Per-row values of a ``rows`` x ``n`` block that is drawn and reduced a
    chunk of rows (about :data:`_CHUNK_ELEMS` elements, one row when n is
    larger) at a time.

    ``draw(k)`` returns the next ``k`` rows, in the block's draw order;
    ``reduce`` maps them to their ``k`` values.
    """
    values = np.empty(rows)
    step = _chunk_rows(n)
    for start in range(0, rows, step):
        k = min(step, rows - start)
        values[start:start + k] = reduce(draw(k))
    return values


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
    """Matrix of ``rows`` uniform simplex points, shifted by the barycenter
    1/n when ``centered``.

    Both constructions sample the same distribution: ``exponential``
    (normalized exponentials, the default; O(n), no sort) and ``spacings``
    (uniform order-statistic spacings).
    """
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


def pow_in_place(d: np.ndarray, q: float) -> np.ndarray:
    """Raise the nonnegative ``d``, which the caller owns, to the power ``q``
    in place and return it."""
    # integer fast paths: generic float powers dominate the runtime otherwise
    if q == 2.0:
        d *= d
    elif q == 3.0:
        np.multiply(d * d, d, out=d)  # one temporary keeps the (d*d)*d bits
    elif float(q).is_integer():
        d **= int(q)
    elif q != 1.0:
        d **= q
    return d


def _magnitudes_fill(rng: np.random.Generator, out: np.ndarray, p: float) -> np.ndarray:
    """Fill ``out`` with i.i.d. magnitudes |Y| of p-generalized Gaussians Y,
    in place, and return it.

    p=1: |Y| is standard exponential.  p=2: Y is standard normal, so |Y| is
    ``abs(standard_normal)``, in about a quarter of the time of the gamma
    transform.  Other p: the exact gamma transform |Y|**p / p ~ Gamma(1/p),
    so |Y| = (p W)**(1/p).
    """
    if p == 1.0:
        return rng.standard_exponential(out=out)
    if p == 2.0:
        rng.standard_normal(out=out)
        return np.abs(out, out=out)
    rng.standard_gamma(1.0 / p, out=out)
    out *= p
    out **= 1.0 / p
    return out


def _pgen_magnitudes(rng: np.random.Generator, rows: int, n: int, p: float) -> np.ndarray:
    """Magnitudes |Y| of a matrix of i.i.d. p-generalized Gaussians Y, drawn
    by :func:`_magnitudes_fill` (exponential at p=1, half-normal at p=2, the
    gamma transform otherwise); an exact 0.0 among them is drawn again.

    The independent fair signs are drawn next, by :func:`_apply_fair_signs`:
    the draw order (magnitudes, then signs) is fixed.
    """
    y = _magnitudes_fill(rng, np.empty((rows, n)), p)
    return _redraw_exact_zeros(rng, lambda r, k: _magnitudes_fill(r, np.empty(k), p), y)


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


def _skip_fair_signs(rng: np.random.Generator, k: int) -> None:
    """Leave ``rng`` where drawing ``k`` signs by :func:`_apply_fair_signs`
    leaves it, without drawing them.

    numpy draws each fair sign (``integers(0, 2)``: Lemire's method, which
    never rejects at range 2) as one buffered 32-bit half of a 64-bit draw.
    The magnitudes leave that buffer empty, so ``k >= 1`` signs take
    ceil(k / 2) 64-bit draws.  All but the last are skipped by ``advance``;
    the last is drawn, with its one or two signs, because ``advance`` clears
    the buffer, which the drawn signs leave full (odd k) or stale (even k).
    """
    rng.bit_generator.advance((k - 1) // 2)
    rng.integers(0, 2, 2 - k % 2)


def pgen_gaussian_block(stream: RandomStream, rows: int, n: int, p: float) -> np.ndarray:
    """Matrix of i.i.d. p-generalized Gaussian variates (see :func:`_pgen_magnitudes`)."""
    _check_dimension(n)
    _check_p(p)
    rng = stream.generator()
    return _apply_fair_signs(rng, _pgen_magnitudes(rng, rows, n, p))


def lp_ball_block(stream: RandomStream, rows: int, n: int, p: float,
                  sup: bool = False) -> np.ndarray:
    """Matrix of uniform points of the unit lp-ball.

    Each row is U**(1/n) * Y / ||Y||_p with Y a vector of i.i.d. p-generalized
    Gaussians and U an independent uniform radius factor.

    With ``sup``, the block is never built (see :func:`_ball_sup_rows`) and
    the result is a ``rows`` x 2 array.  Column 0 holds each point's largest
    absolute coordinate.  Column 1 holds the point's lp-norm on the rows that
    can hold the block's largest one, and 0.0 on the others.  The values, and
    the largest norm, are those of the built block, bit for bit.
    """
    _check_dimension(n)
    _check_p(p)
    if not sup:
        return _whole_lp_ball_block(stream, rows, n, p)
    try:
        return _ball_sup_rows(stream, rows, n, p)
    except _ExactZero:
        # the guard redraws after the whole block's magnitudes, so only the
        # whole block has the guarded bits
        return _block_sup(_whole_lp_ball_block(stream, rows, n, p), p)


def _whole_lp_ball_block(stream: RandomStream, rows: int, n: int, p: float) -> np.ndarray:
    rng = stream.generator()
    y = _pgen_magnitudes(rng, rows, n, p)
    # the norm is taken before the signs, from magnitudes that are |Y| exactly
    norms = _power_row_sums(y, p) ** (1.0 / p)
    _apply_fair_signs(rng, y)
    radius = rng.random(rows) ** (1.0 / n)
    y *= (radius / norms)[:, None]
    return y


def _block_sup(a: np.ndarray, p: float) -> np.ndarray:
    """Per-row (largest absolute coordinate, lp-norm) of ``a``, which it overwrites."""
    sup = np.abs(a, out=a).max(axis=1)
    return np.column_stack([sup, pow_in_place(a, p).sum(axis=1) ** (1.0 / p)])


def _norm_rounding_bound(n: int) -> float:
    """A bound g on |lp-norm / U**(1/n) - 1| for each row of
    :func:`lp_ball_block`, its norm computed as :func:`_block_sup` does.

    Let u = eps/2 be the unit roundoff and assume every float64 power and
    root is within e = 4 eps of exact (squares and square roots are correctly
    rounded).  With S the sum of |Y_i|**p, the computed norm of Y is
    S**(1/p) (1 + d1), |d1| <= ((n - 1) u + e) / p + e: the powers, a sum of
    n positive terms, the root.  The scale c = U**(1/n) / norm rounds once
    (u).  Each coordinate |Y_i| c rounds once (u, which its p-th power turns
    into p u), and the point's norm is c S**(1/p) (1 + d2),
    |d2| <= u + ((n - 1) u + e) / p + e.  So to first order, for p >= 1,
    |lp-norm / U**(1/n) - 1| <= u + |d1| + |d2| <= n eps + 4 e
    = (n + 16) eps.  The factor 2 covers the higher-order terms and the
    rounding of the candidate threshold built from g.
    """
    return 2.0 * (n + 16) * np.finfo(np.float64).eps


def _ball_sup_rows(stream: RandomStream, rows: int, n: int, p: float) -> np.ndarray:
    """:func:`lp_ball_block` with ``sup``: the magnitudes are drawn a chunk of
    rows at a time into one reused buffer and each row reduced to its largest
    magnitude and its power sum; the signs are skipped, not drawn.

    Bit identity with the built block: the chunks draw the whole block's
    variates, and each row's sum is that row's alone.  A sign flips a
    coordinate exactly, and rounding is symmetric, so |sign * y * c| = y * c.
    A positive scale c is monotone under rounding, so max(y * c) is
    max(y) * c.  Row r's lp-norm lies within a factor 1 +- g of its radius
    U_r**(1/n) (:func:`_norm_rounding_bound`), so only rows with U_r**(1/n)
    >= max_r U_r**(1/n) (1 - g) / (1 + g) can hold the largest one.  Their
    chunks are drawn again from the saved generator state, scaled, and
    reduced with the built block's elementwise ops and row sums; the root is
    then taken on the whole vector of rows, as numpy takes it there.  (A
    Python-scalar root would call libm's power, which can differ from
    numpy's by an ulp.)
    """
    rng = stream.generator()
    step = _chunk_rows(n)
    buf = np.empty((min(rows, step), n))
    states = []

    def magnitudes(start: int) -> np.ndarray:
        y = _magnitudes_fill(rng, buf[:min(step, rows - start)], p)
        if not y.min() > 0.0:
            raise _ExactZero
        return y

    row_max, power_sums = np.empty(rows), np.empty(rows)
    for start in range(0, rows, step):
        states.append(rng.bit_generator.state)
        y = magnitudes(start)
        row_max[start:start + step] = y.max(axis=1)
        if p != 1.0:
            y **= p  # the powers of _power_row_sums, in place
        power_sums[start:start + step] = y.sum(axis=1)
    _skip_fair_signs(rng, rows * n)
    radius = rng.random(rows) ** (1.0 / n)
    scale = radius / power_sums ** (1.0 / p)

    g = _norm_rounding_bound(n)
    candidates = radius >= radius.max() * ((1.0 - g) / (1.0 + g))
    point_sums = np.zeros(rows)
    for chunk in np.unique(np.flatnonzero(candidates) // step):
        start = int(chunk) * step
        rng.bit_generator.state = states[chunk]
        y = magnitudes(start)
        y *= scale[start:start + step, None]
        point_sums[start:start + step] = pow_in_place(y, p).sum(axis=1)
    point_sums[~candidates] = 0.0
    return np.column_stack([row_max * scale, point_sums ** (1.0 / p)])


def _power_row_sums(a: np.ndarray, p: float) -> np.ndarray:
    """Row sums of ``a ** p``; the powers are taken a chunk of rows at a time."""
    if p == 1.0:
        return a.sum(axis=1)  # a ** 1.0 is a exactly
    sums = np.empty(a.shape[0])
    step = _chunk_rows(a.shape[1])
    for i in range(0, a.shape[0], step):
        sums[i:i + step] = (a[i:i + step] ** p).sum(axis=1)
    return sums
