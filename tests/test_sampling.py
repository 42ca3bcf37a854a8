import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf
from scipy.stats import kstest, ks_2samp

from simplex_limits import sampling
from simplex_limits.rng import RandomStream
from simplex_limits.sampling import (
    _magnitudes_fill,
    exponential_block,
    lp_ball_block,
    pgen_gaussian_block,
    simplex_block,
    spacings_block,
)

import reference as ref
from test_inplace_kernels import _generator_whose_next_raw_draw_is_zero


def _uniform_ks(values, lo, hi):
    """One-sample KS distance against the uniform law on [lo, hi]."""
    v = np.sort(values)
    f = np.clip((v - lo) / (hi - lo), 0.0, 1.0)
    i = np.arange(1, len(v) + 1)
    return max(np.max(i / len(v) - f), np.max(f - (i - 1) / len(v)))


# ---------------------------------------------------------------------------
# exponentials


def test_exponentials_deterministic():
    s = RandomStream(1, 2)
    assert np.array_equal(exponential_block(s, 1, 1), exponential_block(s, 1, 1))
    assert np.array_equal(exponential_block(s, 1, 100), exponential_block(s, 1, 100))


def test_exponentials_match_block_layout():
    # rows are drawn in order, so a one-row block is the first row of any taller one
    s = RandomStream(3)
    assert np.array_equal(exponential_block(s, 1, 5)[0], exponential_block(s, 4, 5)[0])


def test_exponentials_zero_dimension_rejected():
    with pytest.raises(ValueError):
        exponential_block(RandomStream(0), 1, 0)


def test_exponential_moments():
    n = 10**6
    x = exponential_block(RandomStream(11), 1, n)[0]
    assert abs(x.mean() - 1.0) < 4.0 * n**-0.5
    # Var(E) = 1 with Var of the variance estimator driven by the 4th moment 9
    assert abs(x.var() - 1.0) < 5.0 * n**-0.5 * math.sqrt(8.0)


# ---------------------------------------------------------------------------
# simplex


def test_simplex_n1_is_exact():
    assert simplex_block(RandomStream(0), 1, 1, centered=True).tolist() == [[0.0]]
    assert simplex_block(RandomStream(0), 1, 1, centered=False).tolist() == [[1.0]]
    assert spacings_block(RandomStream(0), 3, 1).tolist() == [[1.0], [1.0], [1.0]]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32),
    n=st.integers(min_value=1, max_value=64),
    centered=st.booleans(),
    construction=st.sampled_from(["exponential", "spacings"]),
)
def test_simplex_invariants(seed, n, centered, construction):
    if construction == "exponential":
        (point,) = simplex_block(RandomStream(seed), 1, n, centered)
    else:
        (point,) = spacings_block(RandomStream(seed), 1, n) - (1.0 / n if centered else 0.0)
    ref.check_simplex_invariants(point, centered)


def test_simplex_first_coordinate_is_centered_uniform_at_n2():
    e = exponential_block(RandomStream(21), 100_000, 2)
    u = e[:, 0] / e.sum(axis=1)  # Beta(1,1)
    assert _uniform_ks(u - 0.5, -0.5, 0.5) <= 0.01


@pytest.mark.parametrize("n,q", [(2, 2.0), (5, 2.0), (20, 2.0), (50, math.inf)])
def test_constructions_equidistributed(n, q):
    reps = 100_000
    e = exponential_block(RandomStream(33).substream(n), reps, n)
    g = spacings_block(RandomStream(44).substream(n), reps, n)
    ze = e / e.sum(axis=1)[:, None] - 1.0 / n
    zg = g - 1.0 / n
    if math.isinf(q):
        a, b = np.abs(ze).max(axis=1), np.abs(zg).max(axis=1)
    else:
        scale = n ** (1.0 - 1.0 / q)
        a = scale * (np.abs(ze) ** q).sum(axis=1) ** (1.0 / q)
        b = scale * (np.abs(zg) ** q).sum(axis=1) ** (1.0 / q)
    assert ks_2samp(a, b).statistic <= 0.01


# ---------------------------------------------------------------------------
# p-generalized Gaussian


def test_pgen_rejects_bad_p():
    with pytest.raises(ValueError):
        pgen_gaussian_block(RandomStream(0), 1, 1, 0.9)


@pytest.mark.parametrize("p", [math.inf, 64.0])
@pytest.mark.parametrize("sampler", [pgen_gaussian_block, lp_ball_block])
def test_p_beyond_the_zero_guard_is_rejected(sampler, p):
    # past p = 1074/53 numpy's Gamma(1/p) is an exact 0.0 more often than 2**-53,
    # and p = inf is no gamma draw at all
    with pytest.raises(ValueError, match="ball exponent"):
        sampler(RandomStream(0), 1, 3, p)
    assert sampler(RandomStream(0), 1, 3, 20.0).shape == (1, 3)


def test_pgen_rejects_dimension_below_one():
    with pytest.raises(ValueError, match="dimension"):
        pgen_gaussian_block(RandomStream(0), 3, 0, 2.0)


def test_pgen_scalar_is_deterministic():
    s = RandomStream(5)
    assert pgen_gaussian_block(s, 1, 1, 1.5) == pgen_gaussian_block(s, 1, 1, 1.5)


def test_pgen_p2_is_standard_gaussian():
    y = pgen_gaussian_block(RandomStream(6), 1, 10**6, 2.0)[0]
    assert abs(y.var() - 1.0) < 0.01


def test_pgen_p1_is_standard_laplace():
    y = pgen_gaussian_block(RandomStream(7), 1, 10**6, 1.0)[0]
    assert abs(np.abs(y).mean() - 1.0) < 0.01


# the p=2 magnitude law, |Y| with Y ~ N(0, 1), on fixed seeds
_M = 1 << 17
# Kolmogorov's alpha = 0.001 critical value: sqrt(ln(2 / alpha) / 2) / sqrt(size)
_KS_C = math.sqrt(math.log(2 / 0.001) / 2)


def _p2_magnitudes(seed):
    return _magnitudes_fill(RandomStream(seed).generator(), np.empty(_M), 2.0)


def test_p2_magnitudes_have_the_law_of_the_gamma_transform():
    # |Y|**2 / 2 ~ Gamma(1/2), so |Y| = (2 W)**0.5 in law
    w = RandomStream(74).generator().standard_gamma(0.5, _M)
    assert ks_2samp(_p2_magnitudes(73), (2.0 * w) ** 0.5).statistic <= _KS_C * math.sqrt(2 / _M)


def test_p2_magnitudes_are_half_normal():
    def half_normal_cdf(x):
        return erf(x / math.sqrt(2.0))  # 2 Phi(x) - 1

    assert kstest(_p2_magnitudes(75), half_normal_cdf).statistic <= _KS_C / math.sqrt(_M)


def test_p2_magnitude_moments():
    y = _p2_magnitudes(76)
    # E|Y| = sqrt(2 / pi), Var|Y| = 1 - 2 / pi; E Y**2 = 1, Var Y**2 = 2
    assert abs(y.mean() - math.sqrt(2 / math.pi)) <= 4 * math.sqrt((1 - 2 / math.pi) / _M)
    assert abs((y * y).mean() - 1.0) <= 4 * math.sqrt(2 / _M)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 4.0])
def test_pgen_sign_symmetry(p):
    y = pgen_gaussian_block(RandomStream(8), 1, 10**6, p)[0]
    assert abs(np.mean(y > 0) - 0.5) < 4.0 * 10**-3 / 2.0


# ---------------------------------------------------------------------------
# lp ball


def test_ball_1d_is_uniform_interval():
    y = lp_ball_block(RandomStream(9), 100_000, 1, 2.0)[:, 0]
    assert _uniform_ks(y, -1.0, 1.0) <= 0.01


def test_ball_radius_power_is_uniform():
    # ||coords||_2 = U**(1/n), so its n-th power is uniform with mean 1/2
    reps, n = 100_000, 3
    c = lp_ball_block(RandomStream(10), reps, n, 2.0)
    r_cubed = np.sqrt((c * c).sum(axis=1)) ** n
    se = r_cubed.std() / math.sqrt(reps)
    assert abs(r_cubed.mean() - 0.5) <= 3.0 * se


def test_ball_membership_l1():
    c = lp_ball_block(RandomStream(12), 100_000, 10, 1.0)
    assert np.abs(c).sum(axis=1).max() <= 1.0 + 1e-12


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32),
    n=st.integers(min_value=1, max_value=32),
    p=st.sampled_from([1.0, 1.5, 2.0, 4.0]),
)
def test_ball_invariants(seed, n, p):
    (point,) = lp_ball_block(RandomStream(seed), 1, n, p)
    ref.check_ball_invariants(point, p)


def test_ball_deterministic():
    a = lp_ball_block(RandomStream(13), 1, 6, 1.5)
    b = lp_ball_block(RandomStream(13), 1, 6, 1.5)
    assert np.array_equal(a, b)


def test_ball_sup_membership_pass_redraws_a_real_zero(monkeypatch):
    # at p=1 the first magnitude of the first chunk is an exact 0.0; with every
    # row a candidate, the membership pass draws that chunk again from its
    # saved state, the zero included, and keeps it as the first pass did
    rows, n = 200, 1000  # three 65-row chunks and a partial one
    assert _generator_whose_next_raw_draw_is_zero().standard_exponential() == 0.0
    monkeypatch.setattr(RandomStream, "generator",
                        lambda self: _generator_whose_next_raw_draw_is_zero())
    monkeypatch.setattr(sampling, "_norm_rounding_bound", lambda n: 1.0)
    built = np.abs(lp_ball_block(RandomStream(0), rows, n, 1.0))
    got = lp_ball_block(RandomStream(0), rows, n, 1.0, sup=True)
    assert built[0, 0] == 0.0 and built.ravel()[1:].min() > 0.0
    assert np.array_equal(got[:, 0], built.max(axis=1))
    assert np.array_equal(got[:, 1], built.sum(axis=1))


@pytest.mark.parametrize("p", [1.0, 2.0, 1.5])
def test_ball_block_of_no_rows(p):
    # skipping no signs leaves the generator where drawing none does
    drawn, skipped = np.random.default_rng(4), np.random.default_rng(4)
    sampling._apply_fair_signs(drawn, np.empty((0, 3)))
    sampling._skip_fair_signs(skipped, 0)
    assert drawn.bit_generator.state == skipped.bit_generator.state
    assert lp_ball_block(RandomStream(5), 0, 3, p).shape == (0, 3)
    assert lp_ball_block(RandomStream(5), 0, 3, p, sup=True).shape == (0, 2)
