"""The replicate-block kernels transform their freshly drawn block in place,
or draw and reduce it by cache-sized row chunks without building it.

Each kernel must give exactly the bits of the allocating whole-block
expression it replaced, which is kept here as the reference; each sample
function must peak at about one block of memory, or one chunk when it reduces
by chunks; and a draw of exactly 0.0 must be kept as drawn, with the same
bits on every path, and each built block or reduced leaf filled once.
"""

import math
import tracemalloc

import numpy as np
import pytest

from simplex_limits import experiments as ex
from simplex_limits import sampling
from simplex_limits.constants import moment_constants
from simplex_limits.rng import RandomStream
from simplex_limits.statistics import SOURCE_DISTRIBUTIONS

import reference

# ---------------------------------------------------------------------------
# allocating references


def _ref_abs_pow(d, q):
    if q == 1.0:
        return d
    if q == 2.0:
        return d * d
    if q == 3.0:
        return d * d * d
    if float(q).is_integer():
        return d ** int(q)
    return d**q


def _ref_magnitudes(rng, size, p):
    # |Y| of a p-generalized Gaussian Y: exponential at p=1, half-normal at
    # p=2, else the gamma transform |Y|**p / p ~ Gamma(1/p)
    if p == 1.0:
        return rng.standard_exponential(size)
    if p == 2.0:
        return np.abs(rng.standard_normal(size))
    return (p * rng.standard_gamma(1.0 / p, size)) ** (1.0 / p)


def _ref_tree(n, leaf, start=0):
    # leaf(cols) of each node of at most _CHUNK_ELEMS elements of numpy's
    # pairwise-sum tree of a row of n elements, added in the tree's order; a
    # node of m > 128 elements is split after its first m//2 - (m//2) % 8
    if n <= sampling._CHUNK_ELEMS:
        return leaf(slice(start, start + n))
    half = n // 2 - (n // 2) % 8
    return _ref_tree(half, leaf, start) + _ref_tree(n - half, leaf, start + half)


def _ref_power_sum(x, q):
    # the sum of |x - mean|**q of each row; at q = 2 a row of more than one
    # leaf adds each leaf's squares about its own mean m_L and n_L (m_L - m)**2
    # about the row mean m, in the tree's order (Chan, Golub & LeVeque 1983)
    mean = x.mean(axis=1)
    if q != 2.0 or x.shape[1] <= sampling._CHUNK_ELEMS:
        return _ref_abs_pow(np.abs(x - mean[:, None]), q).sum(axis=1)

    def leaf(cols):
        y = x[:, cols]
        width = cols.stop - cols.start
        leaf_mean = y.sum(axis=1) / width
        dev = leaf_mean - mean
        return _ref_abs_pow(y - leaf_mean[:, None], 2.0).sum(axis=1) + width * (dev * dev)

    return _ref_tree(x.shape[1], leaf)


def _ref_pgen(rng, rows, n, p):
    # the magnitudes in one draw, an exact 0.0 kept as drawn, then the signs
    y = _ref_magnitudes(rng, (rows, n), p)
    signs = 2.0 * rng.integers(0, 2, (rows, n)).astype(np.float64) - 1.0
    return signs * y


def _ref_lp_ball_block(stream, rows, n, p):
    rng = stream.generator()
    y = _ref_pgen(rng, rows, n, p)
    radius = rng.random(rows) ** (1.0 / n)
    norms = np.sum(np.abs(y) ** p, axis=1) ** (1.0 / p)
    return y * (radius / norms)[:, None]


def _ref_collect(seed, n, reps, kernel):
    return np.sort(ex._collect(seed, n, reps, 1, kernel), axis=0)


def _ref_clt_values(seed, n, q, reps):
    mc = moment_constants(q)
    inv_mu, sigma, sqrt_n = 1.0 / mc.mu_q, math.sqrt(mc.sigma_q_sq), math.sqrt(n)

    def kernel(bstream, rows):
        e = sampling.exponential_block(bstream, rows, n)
        scaled = (_ref_power_sum(e, q) * (inv_mu / n)) ** (1.0 / q) / e.mean(axis=1)
        return sqrt_n * (scaled - 1.0) / sigma

    return _ref_collect(seed, n, reps, kernel)


def _ref_sup_values(seed, n, reps):
    def kernel(bstream, rows):
        e = sampling.exponential_block(bstream, rows, n)
        total = e.sum(axis=1)
        return np.maximum(n * e.max(axis=1) / total - 1.0, 1.0 - n * e.min(axis=1) / total)

    return _ref_collect(seed, n, reps, kernel)


def _ref_equivalence_hits(seed, n, reps):
    def kernel(bstream, rows):
        e = sampling.exponential_block(bstream, rows, n)
        return (2.0 * e.sum(axis=1) / n > e.max(axis=1) + e.min(axis=1)).astype(np.float64)

    return float(ex._collect(seed, n, reps, 1, kernel).sum())


def _ref_general_clt_values(seed, n, q, source, mq, reps):
    dist = ex.SOURCE_DISTRIBUTIONS[source]

    def kernel(bstream, rows):
        x = dist.sample(bstream.generator(), (rows, n))
        return math.sqrt(n) * (_ref_power_sum(x, q) / n - mq)

    return _ref_collect(seed, n, reps, kernel)


def _ref_sup_columns(points, p):
    a = np.abs(points)
    return np.column_stack([a.max(axis=1), _ref_abs_pow(a, p).sum(axis=1) ** (1.0 / p)])


def _ref_ball_sup(seed, n, p, reps):
    def kernel(bstream, rows):
        return _ref_sup_columns(_ref_lp_ball_block(bstream, rows, n, p), p)

    both = ex._collect(seed, n, reps, 1, kernel)
    return np.sort(both[:, 0]), float(both[:, 1].max())


# 2500 replicates at n=1000 span a full block and a partial one
_N, _REPS = 1000, 2500

# shapes crossing the samplers' chunk size by rows, by one long row, and tiny
_SHAPES = [(70, 1000), (1, 70_001), (3, 5)]


# ---------------------------------------------------------------------------
# bit identity


@pytest.mark.parametrize("q", [1.0, 2.0, 2.5, 3.0, 4.0])
def test_clt_kernel_matches_allocating_reference(q):
    got = ex.clt_sample(41, _N, q, _REPS).values
    assert np.array_equal(got, _ref_clt_values(41, _N, q, _REPS))


@pytest.mark.parametrize("source, q", [("exponential", 2.0), ("uniform01", 1.0),
                                       ("exponential", 2.5), ("exponential", 3.0)])
def test_general_clt_kernel_matches_allocating_reference(source, q):
    got = ex.general_clt_sample(42, _N, q, source, 0.5, _REPS).values
    assert np.array_equal(got, _ref_general_clt_values(42, _N, q, source, 0.5, _REPS))


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
def test_ball_sup_kernel_matches_allocating_reference(p):
    sample, max_norm = ex.ball_sup_sample(43, _N, p, _REPS)
    ref_values, ref_max_norm = _ref_ball_sup(43, _N, p, _REPS)
    assert np.array_equal(sample.values, ref_values)
    assert max_norm == ref_max_norm


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
@pytest.mark.parametrize("rows, n", _SHAPES)
def test_lp_ball_block_matches_allocating_reference(p, rows, n):
    got = sampling.lp_ball_block(RandomStream(44, n), rows, n, p)
    assert np.array_equal(got, _ref_lp_ball_block(RandomStream(44, n), rows, n, p))


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
@pytest.mark.parametrize("rows, n", _SHAPES)
def test_pgen_gaussian_block_matches_allocating_reference(p, rows, n):
    got = sampling.pgen_gaussian_block(RandomStream(45, n), rows, n, p)
    assert np.array_equal(got, _ref_pgen(RandomStream(45, n).generator(), rows, n, p))


# every fill a sampler hands a block or a leaf
_FILLS = {
    **{f"magnitudes_p{p}": lambda rng, out, p=p: sampling._magnitudes_fill(rng, out, p)
       for p in (1.0, 1.5, 2.0, 3.0)},
    **{name: lambda rng, out, dist=dist: dist.sample(rng, out.shape, out=out)
       for name, dist in SOURCE_DISTRIBUTIONS.items()},
}


@pytest.mark.parametrize("fill", _FILLS.values(), ids=_FILLS.keys())
def test_each_fill_is_one_stream_however_it_is_split(fill):
    # a built block is one fill and a reduction fills it leaf by leaf: both
    # hold the same bits only if the draws are one stream across calls
    size = 2**17 + 3
    whole_rng, split_rng = RandomStream(76).generator(), RandomStream(76).generator()
    whole = fill(whole_rng, np.empty(size))
    split = np.empty(size)
    for piece in np.split(split, [1, 8, 2**16 + 5]):
        fill(split_rng, piece)
    assert np.array_equal(whole, split)
    assert whole_rng.bit_generator.state == split_rng.bit_generator.state


# ---------------------------------------------------------------------------
# row-chunk reduction: the bits of the whole-block reference

_CHUNK = sampling._CHUNK_ELEMS

# (n, replicates): n=1000 spans a full block of 2097 rows and a partial one of
# 403, neither a whole number of 65-row chunks; n=2 draws 32768-row chunks;
# from n = _CHUNK - 1 on, a chunk is one row, and from n = _CHUNK + 1 on a
# row is reduced in leaves; 3 * _CHUNK + 5 has four, of 49152 elements and
# one of 49157
_FUSED_SHAPES = [(2, 5000), (1000, 2500), (_CHUNK - 1, 3), (_CHUNK, 2), (_CHUNK + 1, 3),
                 (100_003, 2), (3 * _CHUNK + 5, 2)]


@pytest.mark.parametrize("q", [1.0, 2.0, 2.5, 3.0, 4.0])
@pytest.mark.parametrize("n, reps", _FUSED_SHAPES)
def test_fused_clt_matches_whole_block_reference(q, n, reps):
    got = ex.clt_sample(51, n, q, reps).values
    assert np.array_equal(got, _ref_clt_values(51, n, q, reps))


def _copy_leaves(x):
    # a draw that fills each leaf with the next columns of the one row x
    taken = 0

    def draw(leaf, chunk):
        nonlocal taken
        leaf[:] = x[:, taken:taken + leaf.shape[1]]
        taken += leaf.shape[1]

    return draw


@pytest.mark.parametrize("n", [_CHUNK, _CHUNK + 1, 2**17 + 3, 3_000_001])
def test_leaf_walk_has_the_bits_of_the_whole_row_reduction(n):
    # data spanning 16 decades, so that a sum added in another order than
    # numpy's pairwise tree would differ in its last bits
    rng = np.random.default_rng(n)
    x = rng.random((1, n)) * 10.0 ** rng.integers(-8, 8, (1, n))
    kept = []
    sampling.RowReduction(lambda s: kept.append(s) or s.total, extremes=True, q=3.0)(
        _copy_leaves(x), 1, n)
    (stats,) = kept
    assert np.array_equal(stats.total, x.sum(axis=1))
    assert stats.low == x.min() and stats.high == x.max()
    ref_power = _ref_abs_pow(np.abs(x - x.mean(axis=1)[:, None]), 3.0).sum(axis=1)
    assert np.array_equal(stats.power, ref_power)


_SHORT = sampling._SHORT_ROW


@pytest.mark.parametrize("n", [1, 2, 5, 8, _SHORT - 1, _SHORT, _SHORT + 1, 100])
def test_row_extremes_have_the_bits_of_numpys_row_reductions(n):
    # rows shorter than _SHORT_ROW take their min and max a column at a
    # time; three full row chunks and a partial one, of signed values
    x = np.random.default_rng(n).standard_normal((3 * sampling._chunk_rows(n) + 7, n))
    taken = 0

    def draw(leaf, chunk):
        nonlocal taken
        leaf[:] = x[taken:taken + len(leaf)]
        taken += len(leaf)

    kept = []
    sampling.RowReduction(lambda s: kept.append(s) or s.total, extremes=True)(draw, len(x), n)
    assert np.array_equal(np.concatenate([s.low for s in kept]), x.min(axis=1))
    assert np.array_equal(np.concatenate([s.high for s in kept]), x.max(axis=1))


@pytest.mark.parametrize("n", [5, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 5])
def test_each_leaf_is_drawn_with_its_row_chunk(n):
    # three full row chunks and a partial one (a chunk of one row has none)
    step = sampling._chunk_rows(n)
    rows = 3 * step + max(1, step // 2)
    seen = []

    def draw(leaf, chunk):
        seen.append((chunk, leaf.shape))
        leaf.fill(1.0)

    sampling.RowReduction(lambda s: s.total)(draw, rows, n)
    chunks = [chunk for i, (chunk, _) in enumerate(seen) if i == 0 or chunk != seen[i - 1][0]]
    assert chunks == sampling._row_chunks(rows, n)
    for chunk in chunks:
        shapes = [shape for c, shape in seen if c == chunk]
        assert all(leaf_rows == chunk.stop - chunk.start for leaf_rows, _ in shapes)
        assert sum(width for _, width in shapes) == n


@pytest.mark.parametrize("n", [_CHUNK + 1, 100_003, 3 * _CHUNK + 5, 2**21 + 8])
def test_merged_square_sum_of_a_long_row_is_as_accurate_as_two_passes(n):
    # q = 2 merges a long row's leaves instead of reading the row back; both
    # sums must lie within 1e-14 of one taken in extended precision
    x = RandomStream(79, n).generator().standard_exponential((1, n))
    (merged,) = sampling.RowReduction(lambda s: s.power, q=2.0)(_copy_leaves(x), 1, n)
    d = x - x.mean()
    two_pass = (d * d).sum()
    wide = x.astype(np.longdouble)
    wide -= wide.sum() / n
    exact = (wide * wide).sum()
    for got in (merged, two_pass):
        assert abs(got - exact) <= 1e-14 * exact


@pytest.mark.parametrize("n, reps", _FUSED_SHAPES)
def test_fused_sup_norm_matches_whole_block_reference(n, reps):
    got = ex.sup_norm_sample(52, n, reps).values
    assert np.array_equal(got, _ref_sup_values(52, n, reps))


@pytest.mark.parametrize("n, reps", _FUSED_SHAPES)
def test_fused_equivalence_matches_whole_block_reference(n, reps):
    freq, _ = ex.equivalence_frequency(53, n, reps)
    assert freq == _ref_equivalence_hits(53, n, reps) / reps


@pytest.mark.parametrize("source", ["exponential", "uniform01"])
@pytest.mark.parametrize("n, reps", _FUSED_SHAPES)
def test_fused_general_clt_matches_whole_block_reference(source, n, reps):
    got = ex.general_clt_sample(54, n, 2.0, source, 0.5, reps).values
    assert np.array_equal(got, _ref_general_clt_values(54, n, 2.0, source, 0.5, reps))


# (n, replicates): n=2 and 3 draw 32768- and 21845-row chunks; n=1000 a full
# block and a partial one, each ending in a partial 65-row chunk; from
# n = _CHUNK - 1 on, a chunk is one row, and n=131071 a block is 16 rows
_BALL_SHAPES = [(2, 40_000), (3, 25_000), (1000, 2500), (_CHUNK - 1, 3), (_CHUNK, 2),
                (_CHUNK + 1, 3), (131_071, 17)]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
@pytest.mark.parametrize("n, reps", _BALL_SHAPES)
def test_fused_ball_sup_matches_whole_block_reference(n, reps, p, workers):
    sample, max_norm = ex.ball_sup_sample(61, n, p, reps, workers=workers)
    ref_values, ref_max_norm = _ref_ball_sup(61, n, p, reps)
    assert np.array_equal(sample.values, ref_values)
    assert max_norm == ref_max_norm


def _ref_block_sup(stream, rows, n, p):
    return _ref_sup_columns(_ref_lp_ball_block(stream, rows, n, p), p)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
@pytest.mark.parametrize("rows, n", [(200, 1000), (9, 7), (2, 70_001)])
def test_lp_ball_sup_columns_hold_the_built_block_values(p, rows, n):
    got = sampling.lp_ball_block(RandomStream(62, n), rows, n, p, sup=True)
    ref = _ref_block_sup(RandomStream(62, n), rows, n, p)
    assert np.array_equal(got[:, 0], ref[:, 0])
    assert got[:, 1].max() == ref[:, 1].max()
    # rows that cannot hold the largest norm are not measured
    assert np.all((got[:, 1] == ref[:, 1]) | (got[:, 1] == 0.0))


# three 65-row chunks and a partial one; two rows of four leaves each
@pytest.mark.parametrize("p, rows, n", [
    *[pytest.param(p, 200, 1000, id=str(p)) for p in (1.0, 1.5, 2.0, 3.0, 4.0)],
    *[pytest.param(p, 2, 3 * _CHUNK + 5, id=f"long-{p}") for p in (1.0, 1.5, 2.0, 3.0, 4.0)],
])
def test_lp_ball_sup_with_every_row_a_candidate_measures_every_norm(monkeypatch, p, rows, n):
    usual_max = sampling.lp_ball_block(RandomStream(63), rows, n, p, sup=True)[:, 1].max()
    monkeypatch.setattr(sampling, "_norm_rounding_bound", lambda n: 1.0)
    got = sampling.lp_ball_block(RandomStream(63), rows, n, p, sup=True)
    ref = _ref_block_sup(RandomStream(63), rows, n, p)
    assert np.array_equal(got, ref)
    assert got[:, 1].max() == usual_max


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
@pytest.mark.parametrize("rows, n", [(200, 1000), (500, 7), (2, 70_001)])
def test_lp_ball_norms_lie_within_the_rounding_bound_of_the_radius(p, rows, n):
    stream = RandomStream(64, n)
    norms = _ref_sup_columns(sampling.lp_ball_block(stream, rows, n, p), p)[:, 1]
    rng = stream.generator()  # the radius is the block's last draw
    _ref_magnitudes(rng, (rows, n), p)
    rng.integers(0, 2, (rows, n))
    radius = rng.random(rows) ** (1.0 / n)
    g = sampling._norm_rounding_bound(n)
    assert np.all(np.abs(norms / radius - 1.0) <= g / 2)


@pytest.mark.parametrize("p", [1.5, 2.5, 3.0, 7.0])
def test_float64_power_is_within_the_assumed_error(p):
    # _norm_rounding_bound assumes numpy's powers within 4 eps of exact;
    # libm's pow is within 1 ulp, so 3 eps from it leaves room for that ulp
    x = RandomStream(65).generator().exponential(size=20_000) * 3.0
    for e in (p, 1.0 / p):
        ref = np.array([math.pow(v, e) for v in x])
        assert np.all(np.abs(x**e - ref) <= 3 * np.finfo(np.float64).eps * ref)


# the magnitude draw of each p (see _ref_magnitudes)
_MAGNITUDE_DRAW = {1.0: "standard_exponential", 1.5: "standard_gamma", 2.0: "standard_normal"}


@pytest.mark.parametrize("k", [1, 2, 7, 2**16 + 1])
def test_skipped_signs_leave_the_generator_where_drawn_signs_do(k):
    # the skip holds only if each p's magnitude draw leaves numpy's buffered
    # 32-bit half empty
    for p in _MAGNITUDE_DRAW:
        drawn, skipped = RandomStream(66).generator(), RandomStream(66).generator()
        _ref_magnitudes(drawn, 3, p)
        _ref_magnitudes(skipped, 3, p)
        sampling._apply_fair_signs(drawn, np.ones(k))
        sampling._skip_fair_signs(skipped, k)
        assert drawn.bit_generator.state == skipped.bit_generator.state
        assert drawn.random() == skipped.random()


@pytest.mark.parametrize("sample", [
    lambda w: ex.clt_sample(55, 1000, 3.0, 5000, workers=w).values,
    lambda w: ex.sup_norm_sample(56, 1000, 5000, workers=w).values,
    lambda w: np.array(ex.equivalence_frequency(57, 50, 100_000, workers=w)),
    lambda w: ex.general_clt_sample(58, 1000, 2.0, "uniform01", 0.1, 5000, workers=w).values,
], ids=["clt", "sup_norm", "equivalence", "general_clt"])
def test_fused_kernels_do_not_depend_on_workers(sample):
    assert np.array_equal(sample(1), sample(2))


# ---------------------------------------------------------------------------
# memory: about one block per sample-function call

_HUGE = 1 << 21  # one row of this many doubles is one 16 MiB block


def _peak_traced_bytes(call) -> int:
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name, call, block_bytes", [
    ("clt_q2", lambda: ex.clt_sample(1, _HUGE, 2.0, 1), 8 * _HUGE),
    ("general_clt_exponential",
     lambda: ex.general_clt_sample(2, _HUGE, 2.0, "exponential", 1.0, 1), 8 * _HUGE),
    ("general_clt_uniform01",
     lambda: ex.general_clt_sample(3, _HUGE, 1.0, "uniform01", 0.25, 1), 8 * _HUGE),
    # the q=3 temporary d*d is one leaf, not one row
    ("clt_q3", lambda: ex.clt_sample(12, _HUGE, 3.0, 1), 8 * _HUGE),
    ("general_clt_q3",
     lambda: ex.general_clt_sample(13, _HUGE, 3.0, "exponential", 2.0, 1), 8 * _HUGE),
    # a full block of 2097 rows at n=1000: the p=2 norm is summed by row chunks
    ("ball_sup_p2", lambda: ex.ball_sup_sample(5, 1000, 2.0, 2097), 8 * 1000 * 2097),
])
def test_sample_function_peaks_at_about_one_block(name, call, block_bytes):
    peak = _peak_traced_bytes(call)
    assert peak <= 1.25 * block_bytes, f"{name}: peak {peak / block_bytes:.2f} blocks"


_FULL_BLOCK = ex._BLOCK_ELEMS // 10_000  # 209 rows at n=1e4


@pytest.mark.parametrize("name, call", [
    ("clt_q2", lambda: ex.clt_sample(6, 10_000, 2.0, _FULL_BLOCK)),
    ("sup_norm", lambda: ex.sup_norm_sample(7, 10_000, _FULL_BLOCK)),
    ("equivalence", lambda: ex.equivalence_frequency(8, 10_000, _FULL_BLOCK)),
    ("general_clt_exponential",
     lambda: ex.general_clt_sample(9, 10_000, 2.0, "exponential", 1.0, _FULL_BLOCK)),
    # two blocks of one 16 MiB row each, never stored
    ("clt_q2_long", lambda: ex.clt_sample(15, _HUGE + 8, 2.0, 2)),
    ("general_clt_q2_long",
     lambda: ex.general_clt_sample(16, _HUGE + 8, 2.0, "exponential", 1.0, 2)),
    ("sup_norm_long", lambda: ex.sup_norm_sample(17, _HUGE + 8, 2)),
    # the sup pass and the membership redraw share one leaf buffer; the long
    # row's power is taken in place, leaf by leaf
    ("ball_sup_p1", lambda: ex.ball_sup_sample(4, _HUGE + 8, 1.0, 2)),
    ("ball_sup_p1.5", lambda: ex.ball_sup_sample(14, _HUGE + 8, 1.5, 2)),
])
def test_row_reducing_sample_function_peaks_under_one_mib(name, call):
    # a 16 MiB block, drawn and reduced 6 rows (480 KB) at a time, or a long
    # row one 512 KiB leaf at a time
    peak = _peak_traced_bytes(call)
    assert peak < 2**20, f"{name}: peak {peak / 2**20:.2f} MiB"


# (n, replicates): three blocks of 16, 16 and 8 one-row chunks; four blocks
# of one row each
@pytest.mark.parametrize("n, reps", [(2**17, 40), (_HUGE + 8, 4)])
@pytest.mark.parametrize("workers", [1, 2])
def test_sample_function_allocates_its_reducing_buffers_once_per_worker(monkeypatch, n, reps,
                                                                        workers):
    real_empty = np.empty
    sizes = []

    def empty(shape, *args, **kwargs):
        out = real_empty(shape, *args, **kwargs)
        if out.size >= _CHUNK:
            sizes.append(out.size)
        return out

    monkeypatch.setattr(sampling.np, "empty", empty)
    # every reducing buffer is one leaf, whatever the number of blocks and
    # chunks: at q = 2 as each leaf's squares are taken while it is drawn,
    # and for the lp-ball as its sup pass and its membership redraw both
    # draw leaf by leaf; at q = 3 one row, which pass 2 centres and powers
    # in place, so no leaf-sized buffer besides it
    samples = [
        ("clt q=2", lambda: ex.clt_sample(75, n, 2.0, reps, workers=workers), _CHUNK),
        ("clt q=3", lambda: ex.clt_sample(75, n, 3.0, reps, workers=workers), n),
        ("ball p=1", lambda: ex.ball_sup_sample(79, n, 1.0, reps, workers=workers), _CHUNK),
        ("ball p=2", lambda: ex.ball_sup_sample(79, n, 2.0, reps, workers=workers), _CHUNK),
    ]
    for name, sample, buffer_size in samples:
        sizes.clear()
        sample()
        assert set(sizes) == {buffer_size}, f"{name}: arrays of {sorted(set(sizes))} elements"


# sup_norm and clt at n=500 and 200,000 replicates, ball_sup at n=1000 and
# 100,000: 1.53 MiB of values each, in 48 or 49 blocks
@pytest.mark.parametrize("sample, n, values", [
    (lambda w: ex.sup_norm_sample(81, 500, 200_000, workers=w), 500, 8 * 200_000),
    (lambda w: ex.clt_sample(82, 500, 2.0, 200_000, workers=w), 500, 8 * 200_000),
    (lambda w: ex.ball_sup_sample(83, 1000, 2.0, 100_000, workers=w), 1000, 16 * 100_000),
], ids=["sup_norm", "clt", "ball_sup"])
@pytest.mark.parametrize("workers", [1, 2])
def test_merge_of_the_blocks_holds_only_their_values(sample, n, values, workers):
    # each block is copied into the sample's one array as it ends, and that
    # array is sorted where it lies, so a call holds its values once plus
    # what each worker's running block holds: its leaf buffer, a few vectors
    # of one value per row and numpy's 64 KiB buffer of a broadcast operand
    # (54-141 KiB per worker measured).  A merge of a list of the blocks, or
    # a sorted copy, would hold the values twice (289-1252 KiB per worker).
    leaf = sampling._chunk_rows(n) * n * 8
    over = _peak_traced_bytes(lambda: sample(workers)) - values - workers * leaf
    assert over < workers * 192 * 2**10, f"{over / workers / 2**10:.0f} KiB per worker"


def test_equivalence_frequency_holds_one_byte_per_replicate():
    # n=5 and 125,000 replicates are one block of bools, as battery row 09
    # draws it: 1.24 MiB traced (the 512 KiB leaf buffer, the chunk's
    # vectors and the 0.12 MiB of bools), against 2.06 MiB when each row's
    # value was a float and the merge copied the blocks
    peak = _peak_traced_bytes(lambda: ex.equivalence_frequency(8, 5, 125_000))
    assert peak < 1.4 * 2**20, f"peak {peak / 2**20:.2f} MiB"


@pytest.mark.parametrize("sample", [
    lambda: ex.clt_sample(76, 1000, 2.0, 3000),
    lambda: ex.sup_norm_sample(77, 1000, 3000),
    lambda: ex.general_clt_sample(78, 1000, 2.0, "exponential", 1.0, 3000),
    lambda: ex.ball_sup_sample(80, 1000, 2.0, 3000),
], ids=["clt", "sup_norm", "general_clt", "ball_sup"])
def test_sample_function_frees_its_reducing_buffer_before_the_sort(monkeypatch, sample):
    # the values are sorted where they lie, so a 520 KB chunk buffer kept
    # through the sort would be the largest array there besides them
    held = []
    from_values = ex.EmpiricalSample.from_values

    def traced_from_values(values):
        held.append(tracemalloc.get_traced_memory()[0])
        return from_values(values)

    monkeypatch.setattr(ex.EmpiricalSample, "from_values", staticmethod(traced_from_values))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        sample()
    finally:
        tracemalloc.stop()
    (at_sort,) = held
    # the 24 KB of values (48 KB of the ball's two columns), and no chunk
    assert at_sort - base < 2**17


@pytest.mark.parametrize("name, call", [
    ("p1", lambda: ex.ball_sup_sample(10, 10_000, 1.0, _FULL_BLOCK)),
    # 2097 rows at n=1000: the full block
    ("p2", lambda: ex.ball_sup_sample(11, 1000, 2.0, ex._BLOCK_ELEMS // 1000)),
])
def test_ball_sup_sample_peaks_under_two_mib(name, call):
    # one 512 KiB chunk buffer, powered in place, and a few vectors of one
    # value per row
    peak = _peak_traced_bytes(call)
    assert peak <= 2 * 2**20, f"ball_sup_{name}: peak {peak / 2**20:.2f} MiB"


# ---------------------------------------------------------------------------
# an exact 0.0 is kept as drawn

_ZERO_AT = 5  # flat index of the injected 0.0 in a (3, 4) block


class _ZeroAt:
    """Generator proxy whose ``method`` draws, counted as one stream across
    calls, have an exact 0.0 at stream position ``at``; all else is real.

    The generator state before the call that holds position ``at`` is kept,
    and any later call that starts from that state (a replay from a saved
    state, as the lp-ball membership pass makes) gets the same 0.0 at the
    same offset.  ``injected`` counts the zeros put in, ``calls`` the calls
    of ``method``."""

    def __init__(self, rng, method, at):
        self._rng = rng
        self._method = method
        self._at = at
        self._drawn = 0
        self._key = None  # (state before the call holding `at`, offset in it)
        self.injected = 0
        self.calls = 0

    def __getattr__(self, name):
        real = getattr(self._rng, name)
        if name != self._method:
            return real

        def draw(*args, **kwargs):
            self.calls += 1
            state = self._rng.bit_generator.state
            x = real(*args, **kwargs)
            if 0 <= self._at - self._drawn < x.size:
                self._key = (state, self._at - self._drawn)
            if self._key is not None and self._key[0] == state and self._key[1] < x.size:
                x.flat[self._key[1]] = 0.0
                self.injected += 1
            self._drawn += x.size
            return x

        return draw


def _inject_zero(monkeypatch, method, at=_ZERO_AT):
    """Give every generator made from a :class:`RandomStream` a 0.0 at
    ``at`` (:class:`_ZeroAt`); return the list of the proxies made."""
    made = []
    real_generator = RandomStream.generator

    def generator(self):
        made.append(_ZeroAt(real_generator(self), method, at))
        return made[-1]

    monkeypatch.setattr(RandomStream, "generator", generator)
    return made


def test_exponential_block_keeps_an_exact_zero(monkeypatch):
    clean = sampling.exponential_block(RandomStream(46), 3, 4)
    _inject_zero(monkeypatch, "standard_exponential")
    x = sampling.exponential_block(RandomStream(46), 3, 4)
    assert x.flat[_ZERO_AT] == 0.0
    others = np.arange(x.size) != _ZERO_AT
    assert np.array_equal(x.ravel()[others], clean.ravel()[others])


@pytest.mark.parametrize("p", sorted(_MAGNITUDE_DRAW))
def test_lp_ball_block_keeps_an_exact_zero(monkeypatch, p):
    clean = sampling.lp_ball_block(RandomStream(47), 3, 4, p)
    _inject_zero(monkeypatch, _MAGNITUDE_DRAW[p])
    c = sampling.lp_ball_block(RandomStream(47), 3, 4, p)
    assert c.flat[_ZERO_AT] == 0.0
    # the zero's row is scaled by its own new norm; every other row is as drawn
    row = _ZERO_AT // 4
    assert np.array_equal(np.delete(c, row, axis=0), np.delete(clean, row, axis=0))
    assert not np.array_equal(c[row], clean[row])
    for point in c:
        reference.check_ball_invariants(point, p)


# n=1000 draws 65-row chunks: this position lies in the second chunk
_SECOND_CHUNK_AT = 65 * 1000 + 1234


def test_zero_in_second_chunk_gives_the_same_bits_on_built_and_reducing_paths(monkeypatch):
    clean = sampling.exponential_block(RandomStream(59), 200, 1000)
    _inject_zero(monkeypatch, "standard_exponential", _SECOND_CHUNK_AT)
    built = sampling.exponential_block(RandomStream(59), 200, 1000)
    # the zero is kept as drawn: no other element moves
    assert np.flatnonzero(built != clean).tolist() == [_SECOND_CHUNK_AT]
    assert built.flat[_SECOND_CHUNK_AT] == 0.0
    row_sums = sampling.exponential_block(RandomStream(59), 200, 1000,
                                          sampling.RowReduction(lambda s: s.total))
    assert np.array_equal(row_sums, built.sum(axis=1))
    lows = sampling.exponential_block(RandomStream(59), 200, 1000,
                                      sampling.RowReduction(lambda s: s.low, extremes=True))
    assert np.array_equal(lows, built.min(axis=1))
    assert lows[_SECOND_CHUNK_AT // 1000] == 0.0


@pytest.mark.parametrize("p", sorted(_MAGNITUDE_DRAW))
def test_pgen_and_ball_zero_in_second_chunk_match_the_references(monkeypatch, p):
    _inject_zero(monkeypatch, _MAGNITUDE_DRAW[p], _SECOND_CHUNK_AT)
    got = sampling.pgen_gaussian_block(RandomStream(68), 200, 1000, p)
    assert np.array_equal(got, _ref_pgen(RandomStream(68).generator(), 200, 1000, p))
    assert got.flat[_SECOND_CHUNK_AT] == 0.0
    got = sampling.lp_ball_block(RandomStream(69), 200, 1000, p)
    assert np.array_equal(got, _ref_lp_ball_block(RandomStream(69), 200, 1000, p))


def test_clt_zero_in_second_chunk_matches_the_whole_block_reference(monkeypatch):
    clean = ex.clt_sample(60, 1000, 2.0, 200).values
    _inject_zero(monkeypatch, "standard_exponential", _SECOND_CHUNK_AT)
    got = ex.clt_sample(60, 1000, 2.0, 200).values
    assert np.array_equal(got, _ref_clt_values(60, 1000, 2.0, 200))
    assert not np.array_equal(got, clean)


# n = 2**17 + 3 is reduced in three leaves, [0, 65536), [65536, 98304) and
# [98304, n); this position lies in the second leaf of the second row
_LONG_N = 2**17 + 3
_SECOND_LEAF_AT = _LONG_N + 65_536 + 1234


def test_clt_zero_in_a_long_rows_second_leaf_matches_the_whole_block_reference(monkeypatch):
    clean = ex.clt_sample(71, _LONG_N, 3.0, 3).values
    _inject_zero(monkeypatch, "standard_exponential", _SECOND_LEAF_AT)
    got = ex.clt_sample(71, _LONG_N, 3.0, 3).values
    assert np.array_equal(got, _ref_clt_values(71, _LONG_N, 3.0, 3))
    assert not np.array_equal(got, clean)


@pytest.mark.parametrize("p", sorted(_MAGNITUDE_DRAW))
def test_ball_sup_zero_in_second_chunk_matches_the_whole_block_path(monkeypatch, p):
    def whole_block_kernel(bstream, rows):
        return _ref_sup_columns(sampling.lp_ball_block(bstream, rows, 1000, p), p)

    clean, _ = ex.ball_sup_sample(67, 1000, p, 200)
    _inject_zero(monkeypatch, _MAGNITUDE_DRAW[p], _SECOND_CHUNK_AT)
    got, max_norm = ex.ball_sup_sample(67, 1000, p, 200)
    ref = ex._collect(67, 1000, 200, 1, whole_block_kernel)
    assert np.array_equal(got.values, np.sort(ref[:, 0]))
    assert max_norm == ref[:, 1].max()
    assert not np.array_equal(got.values, clean.values)


# every built sampler, by the magnitude draw it makes; a zero in a long row's
# second leaf
_LONG_ROW_BLOCKS = [
    pytest.param("standard_exponential", lambda s: sampling.exponential_block(s, 3, _LONG_N),
                 id="exponential"),
    *[pytest.param(_MAGNITUDE_DRAW[p],
                   lambda s, p=p: sampling.pgen_gaussian_block(s, 3, _LONG_N, p),
                   id=f"pgen_p{p}") for p in _MAGNITUDE_DRAW],
]


@pytest.mark.parametrize("method, block", _LONG_ROW_BLOCKS)
def test_zero_in_a_long_rows_second_leaf_is_kept_as_drawn(monkeypatch, method, block):
    clean = block(RandomStream(72)).ravel()
    _inject_zero(monkeypatch, method, _SECOND_LEAF_AT)
    got = block(RandomStream(72)).ravel()
    # no later draw moves, the fair signs included
    assert np.flatnonzero(got != clean).tolist() == [_SECOND_LEAF_AT]
    assert got[_SECOND_LEAF_AT] == 0.0


@pytest.mark.parametrize("p", sorted(_MAGNITUDE_DRAW))
def test_pgen_and_ball_zero_in_a_long_rows_second_leaf_match_the_references(monkeypatch, p):
    made = _inject_zero(monkeypatch, _MAGNITUDE_DRAW[p], _SECOND_LEAF_AT)
    got = sampling.pgen_gaussian_block(RandomStream(73), 3, _LONG_N, p)
    assert np.array_equal(got, _ref_pgen(RandomStream(73).generator(), 3, _LONG_N, p))
    got = sampling.lp_ball_block(RandomStream(74), 3, _LONG_N, p)
    ref = _ref_lp_ball_block(RandomStream(74), 3, _LONG_N, p)
    assert np.array_equal(got, ref)
    # with every row a candidate, the membership pass rewinds the generator
    # to the zero's row and must draw its leaves, the zero included, as the
    # first pass did
    monkeypatch.setattr(sampling, "_norm_rounding_bound", lambda n: 1.0)
    sup = sampling.lp_ball_block(RandomStream(74), 3, _LONG_N, p, sup=True)
    assert np.array_equal(sup, _ref_sup_columns(ref, p))
    assert made[-1].injected == 2


def _reduced_exponential_block(stream, rows, n):
    return sampling.exponential_block(stream, rows, n, sampling.RowReduction(lambda s: s.total))


_FOUR_CHUNKS_AND_THREE_LONG_ROWS = pytest.mark.parametrize("rows, n, at, leaves", [
    pytest.param(200, 1000, _SECOND_CHUNK_AT, 4, id="four_chunks"),
    pytest.param(3, _LONG_N, _SECOND_LEAF_AT, 9, id="three_long_rows"),
])


@_FOUR_CHUNKS_AND_THREE_LONG_ROWS
@pytest.mark.parametrize("method, block", [
    pytest.param("standard_exponential", sampling.exponential_block, id="exponential"),
    pytest.param("standard_gamma", lambda s, rows, n: sampling.pgen_gaussian_block(
        s, rows, n, 1.5), id="pgen_p1.5"),
])
def test_each_built_block_is_filled_once_with_a_zero_in_it(monkeypatch, rows, n, at, leaves,
                                                           method, block):
    made = _inject_zero(monkeypatch, method, at)
    block(RandomStream(75), rows, n)
    assert made[-1].injected == 1
    assert made[-1].calls == 1


@_FOUR_CHUNKS_AND_THREE_LONG_ROWS
# a reduction fills each leaf, once per pass
@pytest.mark.parametrize("method, block, passes", [
    pytest.param("standard_exponential", _reduced_exponential_block, 1,
                 id="exponential_reduced"),
    # every row a candidate: the membership pass draws each leaf once more
    pytest.param("standard_gamma", lambda s, rows, n: sampling.lp_ball_block(
        s, rows, n, 1.5, sup=True), 2, id="ball_sup_p1.5"),
])
def test_each_leaf_is_filled_once_with_a_zero_in_it(monkeypatch, rows, n, at, leaves,
                                                    method, block, passes):
    monkeypatch.setattr(sampling, "_norm_rounding_bound", lambda n: 1.0)
    made = _inject_zero(monkeypatch, method, at)
    block(RandomStream(75), rows, n)
    assert made[-1].injected == passes
    assert made[-1].calls == passes * leaves


# numpy's PCG64 steps its 128-bit LCG state, s -> s * M + inc mod 2**128, then
# outputs the XSL-RR hash of the new state, which is 0 for the state 0
_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def _generator_whose_next_raw_draw_is_zero():
    rng = np.random.Generator(np.random.PCG64(70))
    state = rng.bit_generator.state
    inc = state["state"]["inc"]
    state["state"]["state"] = -inc * pow(_PCG64_MULTIPLIER, -1, 2**128) % 2**128
    rng.bit_generator.state = state
    return rng


def test_exponential_block_keeps_a_real_zero_draw(monkeypatch):
    # a raw 64-bit draw below 2**11 is an exponential of exactly 0.0
    assert _generator_whose_next_raw_draw_is_zero().bit_generator.random_raw() == 0
    draws = _generator_whose_next_raw_draw_is_zero().standard_exponential(12)
    assert draws[0] == 0.0 and draws[1:].min() > 0.0
    monkeypatch.setattr(RandomStream, "generator",
                        lambda self: _generator_whose_next_raw_draw_is_zero())
    x = sampling.exponential_block(RandomStream(70), 3, 4)
    assert np.array_equal(x.ravel(), draws)
    row_sums = sampling.exponential_block(RandomStream(70), 3, 4,
                                          sampling.RowReduction(lambda s: s.total))
    assert np.array_equal(row_sums, x.sum(axis=1))
    # every block starts with the zero, and the statistics finish it
    assert np.all(np.isfinite(ex.sup_norm_sample(70, 1000, 500).values))
    assert all(map(math.isfinite, ex.equivalence_frequency(70, 5, 500)))
