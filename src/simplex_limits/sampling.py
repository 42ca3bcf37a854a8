"""Seeded samplers for exponential vectors, uniform simplex points,
p-generalized Gaussians, and uniform lp-ball points.

All samplers (the ``*_block`` functions) are pure functions of a
:class:`~simplex_limits.rng.RandomStream`; calling one twice with the same
stream yields bitwise-identical output.  Each draws a whole matrix of
replicates, one per row, from a single stream and is the unit of work for the
parallel experiment engine: the per-replicate draw order inside a block is
fixed, so the output never depends on worker scheduling.

Every sampler has one draw rule: a block's variates are one stream, drawn
in C order, and kept as numpy drew them, an exact 0.0 included (about one
exponential or gamma variate in 2**53, one normal in 2**52): a normalizing
sum is 0.0 only when its whole row is, and the reductions take a 0.0 as any
other value.  numpy draws each variate from the generator in turn, so the
stream does not depend on how it is split into calls: a built block is one
``fill(rng, block)`` call.  A :class:`RowReduction` draws the same stream a
*leaf* at a time, into one reused buffer: a cache-sized chunk of rows
(:func:`_row_chunks`), each chunk by the nodes of at most
:data:`_CHUNK_ELEMS` elements of numpy's pairwise row-sum tree
(:func:`_tree_sum`), so for n <= 2**16 the leaf is the whole chunk and for
longer rows it is a cache-sized piece of one row.  It takes each leaf's sums
while the leaf is in L2 and adds them as numpy adds the tree's nodes.  Only
a centred power sum at q != 2 reads a row back from memory, once; at q = 2
each leaf's squares are taken about its own mean while it is in L2 and
merged at the row mean, so no row is stored.  :func:`exponential_block`
hands it the exponential fill; the general-CLT sources hand it their own
fill; the ``sup`` pass of :func:`lp_ball_block` hands it a magnitude fill
that keeps each leaf's row max and leaves the leaf's p-th powers to be
summed, and its membership redraw a fill that scales the leaf and leaves
its p-th powers.  The reduced values are the built block's, bit for bit,
but for the q = 2 power sum of a row of more than one leaf (n > 2**16),
which is the merge of its leaves (see :class:`RowReduction`).

Memory.  A built block is ``rows`` x ``n`` doubles.  A reduction never
builds one: each call holds one buffer while it runs, a row chunk of about
512 KiB, which for n > 2**16 is one leaf of a row.  Only a centred power at
q != 2 stores the whole row there (8n bytes when n > 2**16), for its second
pass to centre, power and sum each leaf in place.  The reduction's other
arrays last one leaf and are at most one leaf: the q = 3 ``d*d`` temporary
(:func:`pow_in_place`).  So a worker's reducing memory is one row chunk
(one row at q != 2 when n > 2**16), whatever the number of blocks, plus a
few values per row and leaf, and none of it outlives the block.  The
lp-ball ``sup`` pass and its membership redraw are two calls of one
reduction, each with its own leaf buffer (at p = 3 with one leaf-sized
``d*d``), so no ball array grows with n.

The p-generalized Gaussian magnitudes |Y| (:func:`_magnitudes_fill`) are
drawn per p: standard exponentials at p=1 (the exponential samplers' one
fill), the absolute values of standard normals at p=2, and the gamma
transform (p W)**(1/p), W ~ Gamma(1/p), at every other p in [1, 1074/53]
(:data:`_P_MAX`).  Each is followed by the fair signs, then (lp-ball) the
radius factor.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .rng import RandomStream

#: Arithmetic slack of the invariants of generated points: the coordinate sum
#: of a simplex point, the lp-norm of an lp-ball point.
SUM_TOL = 1e-12

#: Elements per chunk (512 KiB of float64, a quarter of a 2 MiB L2 cache): the
#: samplers draw and reduce a block, and draw its fair signs, this many
#: elements at a time (a row chunk is one row when n is larger).
_CHUNK_ELEMS = 1 << 16


def _check_dimension(n: int) -> None:
    if n < 1:
        raise ValueError(f"dimension must be a positive integer, got {n}")


#: Largest ball exponent.  numpy draws Gamma(1/p) as U**p, which underflows
#: to an exact 0.0 with probability about exp(-1074 ln 2 / p); above this p
#: that exceeds the 2**-53 of an exponential draw, and the 0.0s, in place of
#: positive values, would change the law (at p = 64 they are 7.7e-6 per
#: variate).
_P_MAX = 1074 / 53


def _check_p(p: float) -> None:
    if not 1.0 <= p <= _P_MAX:
        raise ValueError(f"ball exponent p must satisfy 1 <= p <= {_P_MAX:.4f}, got {p}")


def _chunk_rows(n: int) -> int:
    return max(1, _CHUNK_ELEMS // n)


def _row_chunks(rows: int, n: int) -> list[slice]:
    """The row chunks of a ``rows`` x ``n`` block, in draw order: about
    :data:`_CHUNK_ELEMS` elements each, one row when n is larger."""
    step = _chunk_rows(n)
    return [slice(start, min(start + step, rows)) for start in range(0, rows, step)]


def _tree_sum(n: int, leaf, start: int = 0):
    """``leaf(cols)`` of each leaf of numpy's pairwise-sum tree of a row of
    ``n`` elements, in order, added as numpy adds the tree's nodes.

    numpy sums a node of m > 128 elements as the sum of its first
    m//2 - (m//2) % 8 elements plus the sum of the rest.  The leaves here are
    the nodes of at most :data:`_CHUNK_ELEMS` elements (the whole row when n
    is no larger), so if ``leaf`` returns the sums of its columns, the result
    has the bits of the row sum.
    """
    if n <= _CHUNK_ELEMS:
        return leaf(slice(start, start + n))
    half = n // 2 - (n // 2) % 8
    return _tree_sum(half, leaf, start) + _tree_sum(n - half, leaf, start + half)


def exponential_block(stream: RandomStream, rows: int, n: int, reduce=None) -> np.ndarray:
    """Matrix of ``rows`` i.i.d. standard-exponential vectors of length ``n``.

    Given a :class:`RowReduction` ``reduce``, the block is never built: the
    result is the vector of its ``rows`` values, each leaf drawn by the
    same fill as the built block, so the values are those of the built
    block, bit for bit.
    """
    _check_dimension(n)
    fill = functools.partial(_magnitudes_fill, stream.generator(), p=1.0)
    if reduce is None:
        return fill(np.empty((rows, n)))
    return reduce(fill, rows, n)


#: Rows shorter than this take their min and max a column at a time:
#: numpy reduces each row of a C-contiguous leaf on its own, which costs
#: most on short rows.  Per element of a 2**16-element leaf (timeit, 2 vCPU
#: Xeon), the row-wise min took 12.3 ns at n = 5, 3.3 at n = 20, 1.4-1.6 at
#: n = 50 and 0.9-1.0 at n = 100, the column-wise one 0.58, 0.86, 1.3-1.7
#: and 1.7-2.5 ns: they break even near n = 50.  A min or max is exact in
#: any order, so both give the same bits.
_SHORT_ROW = 48


def _row_extreme(ufunc, y: np.ndarray) -> np.ndarray:
    """``ufunc.reduce(y, axis=1)`` for ``ufunc`` np.minimum or np.maximum:
    each row's min or max of the leaf ``y``."""
    if y.shape[1] >= _SHORT_ROW:
        return ufunc.reduce(y, axis=1)
    out = y[:, 0].copy()
    for column in y.T[1:]:
        ufunc(out, column, out=out)
    return out


class RowStats(NamedTuple):
    """The row reductions of a chunk, one value per row, each with the bits
    of numpy's reduction along the whole row: the sum, the min and max (or
    None), and the sum of |x - sum / n|**q (or None; at q = 2 on a row of
    more than one leaf, the merge of :class:`RowReduction`)."""

    total: np.ndarray
    low: np.ndarray | None
    high: np.ndarray | None
    power: np.ndarray | None


@dataclass(frozen=True)
class RowReduction:
    """A per-row statistic, stated once as the row reductions it reads: the
    sum, the min and max when ``extremes``, and the centred power sum when
    ``q`` is set; ``finish`` maps a :class:`RowStats` to the rows' values.

    Called as ``reduction(draw, rows, n)``, it gives the values of a
    ``rows`` x ``n`` block that is never built.  The block is drawn a row
    chunk (:func:`_row_chunks`) at a time, each row by the leaves of
    :func:`_tree_sum`, so a row longer than :data:`_CHUNK_ELEMS` is reduced
    a cache-sized leaf at a time; a shorter row is one leaf, reduced as one.
    Pass 1 has ``draw(leaf)`` fill each leaf in place, in the block's draw
    order, and takes its sum (and min and max) right after.  The reductions
    read whatever ``draw`` leaves in the leaf, so a draw may also transform
    the values it drew, in place (the lp-ball ``sup`` pass leaves their p-th
    powers).

    The centred power sum is taken in one of two ways.  At q = 2, pass 1
    also overwrites each leaf with its distance from its own mean
    m_L = s_L / n_L, squares it in place and takes its sum M2_L; the leaves
    are then added at the row mean m as M2_L + n_L (m_L - m)**2, in
    :func:`_tree_sum`'s order (the pairwise update of Chan, Golub & LeVeque,
    *Amer. Statist.* 37, 1983).  A row of one leaf has m_L = m and adds 0.0,
    so its sum keeps the bits of the whole-row two-pass sum; a longer row's
    differs from it in the last bits, and the tests hold both within a
    relative 1e-14 of an extended-precision sum.  At any other q the row is
    stored in the buffer, and pass 2 overwrites each leaf, as the draw left
    it, with its absolute distance from the row mean, raises it to the power
    q in place and takes its sum.  Every other value has the bits of the
    same reduction of whole rows.  So only a power at q != 2 stores a row;
    every other reduction draws each leaf into one leaf-sized buffer.

    Each call allocates that one buffer and frees it when it returns, so a
    reduction is a plain value, which threads may share.  The values are one
    per row, at the dtype that ``finish`` returns (a bool per row for a
    test, a float for a statistic).
    """

    finish: Callable[[RowStats], np.ndarray]
    extremes: bool = False
    q: float | None = None

    def __call__(self, draw, rows: int, n: int) -> np.ndarray:
        # only a centred power other than the square reads the row back
        stored = self.q not in (None, 2.0)
        buf = np.empty((min(rows, _chunk_rows(n)), n if stored else min(n, _CHUNK_ELEMS)))
        values = np.empty(0)
        for chunk in _row_chunks(rows, n):
            x = buf[:chunk.stop - chunk.start]
            lows, highs, squares = [], [], []

            def leaf_sum(cols: slice) -> np.ndarray:
                width = cols.stop - cols.start
                y = x[:, cols] if stored else x[:, :width]
                draw(y)
                if self.extremes:
                    lows.append(_row_extreme(np.minimum, y))
                    highs.append(_row_extreme(np.maximum, y))
                s = y.sum(axis=1)
                if self.q == 2.0:
                    # IEEE multiplication sets the sign apart from the
                    # magnitude, so d * d is |d| * |d|, bit for bit
                    d = np.subtract(y, (s / width)[:, None], out=y)
                    d *= d
                    squares.append((s, d.sum(axis=1)))
                return s

            total = _tree_sum(n, leaf_sum)
            power = None
            if self.q == 2.0:
                mean = total / n
                merged = iter(squares)

                def leaf_merge(cols: slice) -> np.ndarray:
                    # Chan, Golub & LeVeque's update: a leaf's squares about
                    # the row mean are its own plus n_L (m_L - m)**2, which
                    # is 0.0 for a row of one leaf
                    s, m2 = next(merged)
                    width = cols.stop - cols.start
                    dev = s / width - mean
                    return m2 + width * (dev * dev)

                power = _tree_sum(n, leaf_merge)
            elif stored:
                centre = (total / n)[:, None]

                def leaf_power(cols: slice) -> np.ndarray:
                    d = np.subtract(x[:, cols], centre, out=x[:, cols])
                    return pow_in_place(np.abs(d, out=d), self.q).sum(axis=1)

                power = _tree_sum(n, leaf_power)
            low = functools.reduce(np.minimum, lows) if lows else None
            high = functools.reduce(np.maximum, highs) if highs else None
            chunk_values = self.finish(RowStats(total, low, high, power))
            if chunk.start == 0:
                values = np.empty(rows, chunk_values.dtype)
            values[chunk] = chunk_values
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


def simplex_block(stream: RandomStream, rows: int, n: int, centered: bool = True) -> np.ndarray:
    """Matrix of ``rows`` uniform simplex points, normalized exponentials
    (O(n), no sort), shifted by the barycenter 1/n when ``centered``.

    :func:`spacings_block` samples the same law by uniform spacings.  At
    n = 1 a row is one draw divided by itself, so a draw of exactly 0.0
    (about one row in 2**53) gives NaN.
    """
    x = exponential_block(stream, rows, n)
    x = x / x.sum(axis=1)[:, None]
    if centered:
        x = x - 1.0 / n
    return x


def pow_in_place(d: np.ndarray, q: float) -> np.ndarray:
    """Raise the nonnegative ``d``, which the caller owns, to the power ``q``
    in place and return it."""
    # d *= d is twice as fast as d **= 2.0, and (d*d)*d is the q = 3 rule
    # the references pin (d **= 3.0 differs from it in the last bit on about
    # a quarter of inputs); every other q is numpy's power
    if q == 2.0:
        d *= d
    elif q == 3.0:
        np.multiply(d * d, d, out=d)  # one leaf-sized temporary
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
    ``k = 0`` signs draw nothing.
    """
    if k > 0:
        rng.bit_generator.advance((k - 1) // 2)
        rng.integers(0, 2, 2 - k % 2)


def pgen_gaussian_block(stream: RandomStream, rows: int, n: int, p: float) -> np.ndarray:
    """Matrix of i.i.d. p-generalized Gaussian variates: the magnitudes
    (:func:`_magnitudes_fill`), then the fair signs."""
    _check_dimension(n)
    _check_p(p)
    rng = stream.generator()
    return _apply_fair_signs(rng, _magnitudes_fill(rng, np.empty((rows, n)), p))


def lp_ball_block(stream: RandomStream, rows: int, n: int, p: float,
                  sup: bool = False) -> np.ndarray:
    """Matrix of uniform points of the unit lp-ball.

    Each row is U**(1/n) * Y / ||Y||_p with Y a vector of i.i.d. p-generalized
    Gaussians and U an independent uniform radius factor.  The magnitudes |Y|
    are drawn as a built block, one fill of the stream, and each row's power
    sum is taken a row chunk at a time, from magnitudes that are |Y|
    exactly; then come the fair signs and the radius.  At n = 1 a row is one
    draw divided by its own norm, so a draw of exactly 0.0 (at most about
    one row in 2**53, or 2**52 at p = 2) gives NaN.

    With ``sup``, the block is never built and the result is a ``rows`` x 2
    array.  Column 0 holds each point's largest absolute coordinate.  Column
    1 holds the point's lp-norm on the rows that can hold the block's largest
    one, and 0.0 on the others.  The magnitudes are drawn and reduced by a
    :class:`RowReduction` of the row totals, leaf by leaf: each leaf's row
    max is kept, the generator state saved before it, and its p-th powers
    are summed as the row sums.
    The values, and the largest norm, are those of the built block, bit for
    bit: the leaves and their row sums are the built block's, a row's max is
    the max of its leaves' maxes, and the signs are skipped
    (:func:`_skip_fair_signs`), not drawn.  A sign flips a coordinate
    exactly, and rounding is symmetric, so |sign * y * c| = y * c.  A
    positive scale c is monotone under rounding, so max(y * c) is
    max(y) * c.  Row r's lp-norm lies within a factor 1 +- g of its radius
    U_r**(1/n) (:func:`_norm_rounding_bound`), so only rows with
    U_r**(1/n) >= max_r U_r**(1/n) (1 - g) / (1 + g) can hold the largest
    one.  Their chunks are drawn again, each from the state saved before its
    first leaf, by the same reduction, a leaf at a time: each leaf is scaled
    by its rows' scale and raised to the power p in place, the built chunk's
    elementwise ops, and summed by the leaves of :func:`_tree_sum`, which
    give the built chunk's row sums.  The root is then taken on the whole
    vector of rows, as numpy takes it there.  (A
    Python-scalar root would call libm's power, which can differ from
    numpy's by an ulp.)
    """
    _check_dimension(n)
    _check_p(p)
    rng = stream.generator()
    fill = functools.partial(_magnitudes_fill, p=p)
    # The normalizing sums take ``**`` and the membership norm pow_in_place
    # because the references pin both: at p = 3 the two differ on about a
    # quarter of inputs, so one op for both would change the p = 3 sample.
    if not sup:
        y = fill(rng, np.empty((rows, n)))
        power_sums = np.empty(rows)
        for chunk in _row_chunks(rows, n):
            power_sums[chunk] = (y[chunk] ** p).sum(axis=1)
        _apply_fair_signs(rng, y)
        y *= (rng.random(rows) ** (1.0 / n) / power_sums ** (1.0 / p))[:, None]
        return y

    reduce = RowReduction(lambda s: s.total)
    # the empty head lets a block of no rows concatenate its maxes
    states, highs = [], [np.empty(0)]

    def draw(leaf: np.ndarray) -> None:
        states.append(rng.bit_generator.state)
        highs.append(_row_extreme(np.maximum, fill(rng, leaf)))
        if p != 1.0:
            leaf **= p

    power_sums = reduce(draw, rows, n)
    _skip_fair_signs(rng, rows * n)
    radius = rng.random(rows) ** (1.0 / n)
    g = _norm_rounding_bound(n)
    # initial=0.0 leaves the max of a nonempty block as it is; a block of no
    # rows has no candidates and gives a (0, 2) array
    candidates = radius >= radius.max(initial=0.0) * ((1.0 - g) / (1.0 + g))
    # the scale radius / power_sums ** (1 / p) and both columns are taken in
    # place, so the block holds a few vectors of one value per row
    power_sums **= 1.0 / p
    scale = np.divide(radius, power_sums, out=radius)
    del power_sums
    out = np.zeros((rows, 2))
    # the leaf maxes fill a rows x leaves matrix in C order: a row chunk is
    # one leaf, or one row of leaves
    leaves = _tree_sum(n, lambda cols: 1)
    np.concatenate(highs).reshape(rows, leaves).max(axis=1, out=out[:, 0])
    highs.clear()
    out[:, 0] *= scale
    point_sums = out[:, 1]
    for i, chunk in enumerate(_row_chunks(rows, n)):
        if candidates[chunk].any():
            rng.bit_generator.state = states[i * leaves]

            def redraw(leaf: np.ndarray) -> None:
                fill(rng, leaf)
                leaf *= scale[chunk, None]
                pow_in_place(leaf, p)

            point_sums[chunk] = reduce(redraw, chunk.stop - chunk.start, n)
    point_sums[~candidates] = 0.0
    point_sums **= 1.0 / p
    return out


def _norm_rounding_bound(n: int) -> float:
    """A bound g on |lp-norm / U**(1/n) - 1| for each row of
    :func:`lp_ball_block`, its norm computed from its coordinates: the sum of
    their absolute p-th powers, then the root.

    Let u = eps/2 be the unit roundoff and assume every float64 power and
    root is within e = 4 eps of exact (squares and square roots are correctly
    rounded).  With S the sum of |Y_i|**p, the computed norm of Y is
    S**(1/p) (1 + d1), |d1| <= ((n - 1) u + e) / p + e: the powers, a sum of
    n nonnegative terms, the root.  The scale c = U**(1/n) / norm rounds once
    (u).  Each coordinate |Y_i| c rounds once (u, which its p-th power turns
    into p u), and the point's norm is c S**(1/p) (1 + d2),
    |d2| <= u + ((n - 1) u + e) / p + e.  So to first order, for p >= 1,
    |lp-norm / U**(1/n) - 1| <= u + |d1| + |d2| <= n eps + 4 e
    = (n + 16) eps.  The factor 2 covers the higher-order terms and the
    rounding of the candidate threshold built from g.
    """
    return 2.0 * (n + 16) * np.finfo(np.float64).eps

