"""The replicate-block kernels transform their freshly drawn block in place,
or draw and reduce it by cache-sized row chunks without building it.

Each kernel must give exactly the bits of the allocating whole-block
expression it replaced, which is kept here as the reference; each sample
function must peak at about one block of memory, or one chunk when it reduces
by chunks; and the exact-zero guard of the samplers must replace an
underflowed draw, with the bits of the whole-block guard.
"""

import math
import tracemalloc

import numpy as np
import pytest

from simplex_limits import experiments as ex
from simplex_limits import sampling
from simplex_limits.constants import moment_constants
from simplex_limits.rng import RandomStream

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


def _ref_pgen(rng, rows, n, p):
    w = rng.gamma(1.0 / p, 1.0, (rows, n))
    w = sampling._redraw_exact_zeros(rng, lambda r, k: r.gamma(1.0 / p, 1.0, k), w)
    signs = 2.0 * rng.integers(0, 2, (rows, n)).astype(np.float64) - 1.0
    return signs * (p * w) ** (1.0 / p)


def _ref_lp_ball_block(stream, rows, n, p):
    rng = stream.generator()
    y = _ref_pgen(rng, rows, n, p)
    radius = rng.random(rows) ** (1.0 / n)
    norms = np.sum(np.abs(y) ** p, axis=1) ** (1.0 / p)
    return y * (radius / norms)[:, None]


def _ref_collect(seed, n, reps, kernel):
    return np.sort(ex._collect(ex._experiment_stream(seed, n), kernel, reps, n, 1), axis=0)


def _ref_clt_values(seed, n, q, reps):
    mc = moment_constants(q)
    inv_mu, sigma, sqrt_n = 1.0 / mc.mu_q, math.sqrt(mc.sigma_q_sq), math.sqrt(n)

    def kernel(bstream, rows):
        e = sampling.exponential_block(bstream, rows, n)
        mean = e.mean(axis=1)
        power_sum = _ref_abs_pow(np.abs(e - mean[:, None]), q).sum(axis=1)
        scaled = (power_sum * (inv_mu / n)) ** (1.0 / q) / mean
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

    return float(ex._collect(ex._experiment_stream(seed, n), kernel, reps, n, 1).sum())


def _ref_general_clt_values(seed, n, q, source, mq, reps):
    dist = ex.SOURCE_DISTRIBUTIONS[source]

    def kernel(bstream, rows):
        x = dist.sample(bstream.generator(), (rows, n))
        centered = np.abs(x - x.mean(axis=1)[:, None])
        return math.sqrt(n) * (_ref_abs_pow(centered, q).mean(axis=1) - mq)

    return _ref_collect(seed, n, reps, kernel)


def _ref_ball_sup(seed, n, p, reps):
    def kernel(bstream, rows):
        a = np.abs(_ref_lp_ball_block(bstream, rows, n, p))
        return np.column_stack([a.max(axis=1), _ref_abs_pow(a, p).sum(axis=1) ** (1.0 / p)])

    both = ex._collect(ex._experiment_stream(seed, n), kernel, reps, n, 1)
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
                                       ("exponential", 2.5)])
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


# ---------------------------------------------------------------------------
# row-chunk reduction: the bits of the whole-block reference

_CHUNK = sampling._CHUNK_ELEMS

# (n, replicates): n=1000 spans a full block of 2097 rows and a partial one of
# 403, neither a whole number of 65-row chunks; n=2 draws 32768-row chunks;
# from n = _CHUNK - 1 on, a chunk is one row
_FUSED_SHAPES = [(2, 5000), (1000, 2500), (_CHUNK - 1, 3), (_CHUNK, 2), (_CHUNK + 1, 3),
                 (100_003, 2)]


@pytest.mark.parametrize("q", [1.0, 2.0, 2.5, 3.0])
@pytest.mark.parametrize("n, reps", _FUSED_SHAPES)
def test_fused_clt_matches_whole_block_reference(q, n, reps):
    got = ex.clt_sample(51, n, q, reps).values
    assert np.array_equal(got, _ref_clt_values(51, n, q, reps))


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


_MC2 = moment_constants(2.0)


@pytest.mark.parametrize("name, call, block_bytes", [
    ("clt_q2", lambda: ex.clt_sample(1, _HUGE, 2.0, 1, mc=_MC2), 8 * _HUGE),
    ("general_clt_exponential",
     lambda: ex.general_clt_sample(2, _HUGE, 2.0, "exponential", 1.0, 1), 8 * _HUGE),
    ("general_clt_uniform01",
     lambda: ex.general_clt_sample(3, _HUGE, 1.0, "uniform01", 0.25, 1), 8 * _HUGE),
    ("ball_sup_p1", lambda: ex.ball_sup_sample(4, _HUGE, 1.0, 1), 8 * _HUGE),
    # a full block of 2097 rows at n=1000: the p=2 norm is summed by row chunks
    ("ball_sup_p2", lambda: ex.ball_sup_sample(5, 1000, 2.0, 2097), 8 * 1000 * 2097),
])
def test_sample_function_peaks_at_about_one_block(name, call, block_bytes):
    peak = _peak_traced_bytes(call)
    assert peak <= 1.25 * block_bytes, f"{name}: peak {peak / block_bytes:.2f} blocks"


_FULL_BLOCK = ex._BLOCK_ELEMS // 10_000  # 209 rows at n=1e4


@pytest.mark.parametrize("name, call", [
    ("clt_q2", lambda: ex.clt_sample(6, 10_000, 2.0, _FULL_BLOCK, mc=_MC2)),
    ("sup_norm", lambda: ex.sup_norm_sample(7, 10_000, _FULL_BLOCK)),
    ("equivalence", lambda: ex.equivalence_frequency(8, 10_000, _FULL_BLOCK)),
    ("general_clt_exponential",
     lambda: ex.general_clt_sample(9, 10_000, 2.0, "exponential", 1.0, _FULL_BLOCK)),
])
def test_row_reducing_sample_function_peaks_under_one_mib(name, call):
    # a 16 MiB block, drawn and reduced 6 rows (480 KB) at a time
    peak = _peak_traced_bytes(call)
    assert peak < 2**20, f"{name}: peak {peak / 2**20:.2f} MiB"


# ---------------------------------------------------------------------------
# exact-zero guard

_ZERO_AT = 5  # flat index of the injected 0.0 in a (3, 4) block


class _ZeroAt:
    """Generator proxy whose ``method`` draws, counted as one stream across
    calls, have an exact 0.0 at stream position ``at``; all else is real."""

    def __init__(self, rng, method, at):
        self._rng = rng
        self._method = method
        self._at = at
        self._drawn = 0

    def __getattr__(self, name):
        real = getattr(self._rng, name)
        if name != self._method:
            return real

        def draw(*args, **kwargs):
            x = real(*args, **kwargs)
            if 0 <= self._at - self._drawn < x.size:
                x.flat[self._at - self._drawn] = 0.0
            self._drawn += x.size
            return x

        return draw


def _inject_zero(monkeypatch, method, at=_ZERO_AT):
    real_generator = RandomStream.generator
    monkeypatch.setattr(RandomStream, "generator",
                        lambda self: _ZeroAt(real_generator(self), method, at))


def test_exponential_block_redraws_an_exact_zero(monkeypatch):
    clean = sampling.exponential_block(RandomStream(46), 3, 4)
    _inject_zero(monkeypatch, "standard_exponential")
    x = sampling.exponential_block(RandomStream(46), 3, 4)
    assert np.all(np.isfinite(x)) and np.all(x > 0.0)
    assert x.flat[_ZERO_AT] != clean.flat[_ZERO_AT]
    others = np.arange(x.size) != _ZERO_AT
    assert np.array_equal(x.ravel()[others], clean.ravel()[others])


@pytest.mark.parametrize("p", [1.0, 2.0])
def test_lp_ball_block_redraws_an_exact_zero(monkeypatch, p):
    _inject_zero(monkeypatch, "gamma")
    c = sampling.lp_ball_block(RandomStream(47), 3, 4, p)
    assert np.all(np.isfinite(c))
    assert abs(c.flat[_ZERO_AT]) > 0.0
    for row in c:
        sampling.check_ball_invariants(sampling.LpBallPoint(coords=row, n=4, p=p))


# n=1000 draws 65-row chunks: this position lies in the second chunk
_SECOND_CHUNK_AT = 65 * 1000 + 1234


def test_zero_in_second_chunk_gives_the_whole_block_guard_bits(monkeypatch):
    def row_sums(e):
        return e.sum(axis=1)

    clean = sampling.exponential_block(RandomStream(59), 200, 1000, row_sums)
    _inject_zero(monkeypatch, "standard_exponential", _SECOND_CHUNK_AT)
    guarded = sampling.exponential_block(RandomStream(59), 200, 1000)
    assert guarded.min() > 0.0
    got = sampling.exponential_block(RandomStream(59), 200, 1000, row_sums)
    assert np.array_equal(got, guarded.sum(axis=1))
    changed = np.flatnonzero(got != clean)
    assert changed.tolist() == [_SECOND_CHUNK_AT // 1000]


def test_clt_zero_in_second_chunk_matches_the_whole_block_reference(monkeypatch):
    clean = ex.clt_sample(60, 1000, 2.0, 200).values
    _inject_zero(monkeypatch, "standard_exponential", _SECOND_CHUNK_AT)
    got = ex.clt_sample(60, 1000, 2.0, 200).values
    assert np.array_equal(got, _ref_clt_values(60, 1000, 2.0, 200))
    assert not np.array_equal(got, clean)
