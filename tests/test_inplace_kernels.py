"""The replicate-block kernels transform their freshly drawn block in place.

Each kernel must give exactly the bits of the allocating expression it
replaced, which is kept here as the reference; each sample function must peak
at about one block of memory; and the exact-zero guard of the samplers must
replace an underflowed draw.
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


# ---------------------------------------------------------------------------
# exact-zero guard

_ZERO_AT = 5  # flat index of the injected 0.0 in a (3, 4) block


class _ZeroInFirstDraw:
    """Generator proxy whose first call of ``method`` returns a draw with an
    exact 0.0 at flat index ``_ZERO_AT``; every later call is the real one."""

    def __init__(self, rng, method):
        self._rng = rng
        self._method = method
        self._pending = True

    def __getattr__(self, name):
        real = getattr(self._rng, name)
        if name != self._method or not self._pending:
            return real

        def first(*args, **kwargs):
            self._pending = False
            x = real(*args, **kwargs)
            x.flat[_ZERO_AT] = 0.0
            return x

        return first


def _inject_zero(monkeypatch, method):
    real_generator = RandomStream.generator
    monkeypatch.setattr(RandomStream, "generator",
                        lambda self: _ZeroInFirstDraw(real_generator(self), method))


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
