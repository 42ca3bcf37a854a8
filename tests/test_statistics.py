import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from simplex_limits import statistics as stats
from simplex_limits.constants import MomentConstants, moment_constants
from simplex_limits.experiments import clt_sample, sup_norm_sample

import reference as ref


def _sample(values):
    return stats.EmpiricalSample.from_values(values)


# ---------------------------------------------------------------------------
# lq_norm


def test_lq_norm_values():
    assert ref.lq_norm([3.0, -4.0], 2.0) == 5.0
    assert ref.lq_norm([1.0, -2.0, 0.0], math.inf) == 2.0
    n = 17
    assert abs(ref.lq_norm(np.ones(n), 3.0) - n ** (1.0 / 3.0)) < 1e-12


def test_lq_norm_errors():
    with pytest.raises(ValueError):
        ref.lq_norm([], 2.0)
    with pytest.raises(ValueError):
        ref.lq_norm([1.0], 0.5)


@settings(max_examples=80, deadline=None)
@given(
    x=st.lists(st.floats(min_value=-1e8, max_value=1e8), min_size=1, max_size=12),
    c=st.floats(min_value=-1e6, max_value=1e6),
    q=st.sampled_from([1.0, 1.5, 2.0, 3.0, 7.0, math.inf]),
)
def test_lq_norm_homogeneity(x, c, q):
    lhs = ref.lq_norm(np.array(x) * c, q)
    rhs = abs(c) * ref.lq_norm(x, q)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-300)


@settings(max_examples=80, deadline=None)
@given(x=st.lists(st.floats(min_value=-100.0, max_value=100.0), min_size=1, max_size=12))
def test_lq_norm_monotone_in_q(x):
    qs = [1.0, 1.5, 2.0, 4.0, 16.0, math.inf]
    norms = [ref.lq_norm(x, q) for q in qs]
    for a, b in zip(norms, norms[1:]):
        assert a >= b - 1e-12 * max(1.0, abs(a))


# ---------------------------------------------------------------------------
# scaled statistics


def test_clt_statistic_zero_at_its_normalizer():
    q, n = 2.0, 4
    mc = moment_constants(q)
    a = math.sqrt(mc.mu_q) * n ** (1.0 / q - 1.0) / 2.0  # ||coords||_2 hits the normalizer
    point = np.array([a, -a, a, -a])
    assert abs(ref.clt_statistic(point, mc)) < 1e-12


def test_clt_statistic_small_n_pushforward():
    # at n=2, q=2 the statistic is sqrt(2)*(2|U - 1/2| - 1), uniform on [-sqrt(2), 0]
    sample = clt_sample(seed=17, n=2, q=2.0, replicates=100_000)
    v = np.sort(sample.values)
    f = np.clip(v / math.sqrt(2.0) + 1.0, 0.0, 1.0)
    i = np.arange(1, len(v) + 1)
    ks = max(np.max(i / len(v) - f), np.max(f - (i - 1) / len(v)))
    assert ks <= 0.01


def test_gumbel_statistic_zero_case():
    n = 100
    target = (math.log(n) - 1.0) / n
    point = np.array([target] + [-target / (n - 1)] * (n - 1))
    assert abs(ref.gumbel_statistic(point)) < 1e-12


def test_gumbel_statistic_median_near_limit():
    base = sup_norm_sample(seed=23, n=1000, replicates=20_000)
    med = float(np.median(base.values)) - (math.log(1000) - 1.0)
    assert abs(med - 0.36651292058166435) < 0.1


def test_ldp_statistic_zero_case_and_guard():
    n = 50
    target = math.log(n) / n
    point = np.array([target] + [-target / (n - 1)] * (n - 1))
    assert abs(ref.ldp_statistic(point) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        ref.ldp_statistic(np.array([0.0]))


def test_mdp_statistic_zero_case_and_speed_guard():
    n = 50
    target = math.log(n) / n
    point = np.array([target] + [-target / (n - 1)] * (n - 1))
    assert abs(ref.mdp_statistic(point, s_n=1.5)) < 1e-12
    with pytest.raises(ValueError):
        ref.mdp_statistic(point, s_n=0.5)
    with pytest.raises(ValueError):
        ref.mdp_statistic(point, s_n=math.log(n) + 1.0)


def test_lp_ldp_statistic_zero_case():
    n, p = 64, 2.0
    target = (p * math.log(n) / n) ** (1.0 / p)
    coords = np.zeros(n)
    coords[0] = target
    assert abs(ref.lp_ldp_statistic(coords, p) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# equivalence indicator


def test_equivalence_indicator_cases():
    assert ref.equivalence_indicator(np.array([1.0, 1.0])) is False
    assert ref.equivalence_indicator(np.array([1.0, 1.0, 10.0])) is False
    assert ref.equivalence_indicator(np.array([0.5, 1.0, 1.1])) is True


def test_equivalence_indicator_tie_resolves_false():
    # symmetric vector: both sides attain the same magnitude exactly
    assert ref.equivalence_indicator(np.array([2.0, 1.0, 0.0]) + 1.0) is False


def test_equivalence_indicator_needs_vector():
    with pytest.raises(ValueError):
        ref.equivalence_indicator(np.array([1.0]))


# ---------------------------------------------------------------------------
# reference CDFs


def test_gumbel_cdf_values():
    assert float(stats.gumbel_cdf(0.0)) == pytest.approx(math.exp(-1.0), abs=1e-15)
    assert float(stats.gumbel_cdf(50.0)) == pytest.approx(1.0, abs=1e-15)
    assert float(stats.gumbel_cdf(-math.log(math.log(2.0)))) == pytest.approx(0.5, abs=1e-15)
    # math.exp(-x) would overflow past x = -709.78, where the CDF is 0.0
    x = np.array([-1000.0, -1e308, -math.inf, math.inf, math.nan])
    got = stats.gumbel_cdf(x)
    assert got[:4].tolist() == [0.0, 0.0, 0.0, 1.0] and math.isnan(got[4])
    assert stats.gumbel_cdf(-math.inf) == 0.0 and type(stats.gumbel_cdf(1.0)) is np.float64


def test_gaussian_cdf_values():
    assert float(stats.gaussian_cdf(0.0)) == 0.5
    assert float(stats.gaussian_cdf(1.959963985)) == pytest.approx(0.975, abs=1e-9)


_MAXLOG = 709.782712893384
_EPS = np.finfo(np.float64).eps


def _same_bits_as_ndtr(a):
    got, want = stats.gaussian_cdf(a), ndtr(np.asarray(a, dtype=np.float64))
    assert type(got) is type(want) and np.shape(got) == np.shape(want)
    bad = np.asarray(got).view(np.int64) != np.asarray(want).view(np.int64)
    assert not bad.any(), (np.asarray(a)[bad], np.asarray(got)[bad], np.asarray(want)[bad])


def _near_ndtr(a):
    """Phi(a) within ndtr's accuracy: 2 eps absolute, and 2 (4 + a^2) eps
    relative where ndtr >= 1e-300.  Both evaluate erfc(-a / sqrt(2)); each
    rounds a / sqrt(2) by up to eps/2, which moves erfc's log by up to
    a^2 eps/2, and each erfc adds its own few ulps, hence (4 + a^2) eps, with
    a factor 2 of slack."""
    got, want = stats.gaussian_cdf(a), ndtr(np.asarray(a, dtype=np.float64))
    assert type(got) is type(want) and np.shape(got) == np.shape(want)
    a, got, want = (np.asarray(v, dtype=np.float64) for v in (a, got, want))
    assert (np.isnan(got) == np.isnan(want)).all()
    diff = np.abs(got - want)
    tail = want >= 1e-300
    bad = (diff > 2.0 * _EPS) | tail & (diff > 2.0 * (4.0 + a * a) * _EPS * want)
    assert not bad.any(), (a[bad], got[bad], want[bad])


@pytest.mark.parametrize("edge", [1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0),
                                  math.sqrt(2.0 * _MAXLOG)])
def test_gaussian_cdf_accuracy_against_ndtr_across_each_branch_edge(edge):
    # |a| = sqrt(2), 8 sqrt(2) and sqrt(2 MAXLOG) are the edges of ndtr's
    # erfc branches (1, 8 and underflow) after the scaling by 1/sqrt(2);
    # |a| = 1 is ndtr's own
    near = np.concatenate([np.linspace(edge - 1e-9, edge + 1e-9, 2001),
                           edge + np.arange(-50, 51) * math.ulp(edge)])
    _near_ndtr(near)
    _near_ndtr(-near)


def test_gaussian_cdf_is_ndtr_bit_for_bit_at_special_values():
    tiny = np.finfo(np.float64).smallest_subnormal
    _same_bits_as_ndtr(np.array([0.0, -0.0, math.inf, -math.inf, math.nan, 1e300, -1e300,
                                 tiny, -tiny, 1e-310, -1e-310, 2.2e-308, -2.2e-308]))


def test_gaussian_cdf_accuracy_against_ndtr_on_normal_draws():
    _near_ndtr(np.random.default_rng(20240).standard_normal(1_000_000))


def test_gaussian_cdf_is_subnormal_where_ndtr_underflows():
    assert ndtr(-38.0) == 0.0 and 0.0 < stats.gaussian_cdf(-38.0) < np.finfo(np.float64).tiny


@pytest.mark.parametrize("a", [0.3, -2.0, np.float64(9.0), np.array(1.5),
                               np.array([[0.1, -3.0, 40.0], [-9.0, 0.0, math.nan]])],
                         ids=["float", "negative-float", "numpy-scalar", "0-d", "2-D"])
def test_gaussian_cdf_has_ndtr_shape_and_return_type(a):
    _near_ndtr(a)


@given(st.floats(min_value=-30.0, max_value=30.0))
def test_gaussian_cdf_symmetry(x):
    assert float(stats.gaussian_cdf(-x)) == pytest.approx(1.0 - float(stats.gaussian_cdf(x)),
                                                          abs=1e-12)


# ---------------------------------------------------------------------------
# KS distance


def test_ks_distance_exact_quantile_construction():
    m = 200
    quantiles = [-math.log(-math.log((i - 0.5) / m)) for i in range(1, m + 1)]
    got = stats.ks_distance(_sample(quantiles), stats.gumbel_cdf)
    assert got == pytest.approx(1.0 / (2.0 * m), abs=1e-12)


def test_ks_distance_single_point_at_median():
    got = stats.ks_distance(_sample([0.0]), stats.gaussian_cdf)
    assert got == 0.5


def test_ks_distance_iid_reference_draws():
    rng = np.random.default_rng(2024)
    sample = _sample(rng.standard_normal(100_000))
    got = stats.ks_distance(sample, stats.gaussian_cdf)
    # 99% Kolmogorov bound at m = 1e5
    assert got <= 1.63 / math.sqrt(100_000)


_KS_LAWS = {"gaussian": (stats.gaussian_cdf, "standard_normal"),
            "gumbel": (stats.gumbel_cdf, "gumbel")}


@pytest.mark.parametrize("law", sorted(_KS_LAWS))
@pytest.mark.parametrize("chunks, extra", [(0, 1), (0, 2), (1, -1), (1, 0), (1, 1), (3, 5)])
def test_ks_distance_is_the_whole_array_formula_bit_for_bit(law, chunks, extra):
    # m around one and three chunks: the chunked maxima and the chunk's
    # 0-based indices round as the whole-array formula does
    cdf, draw = _KS_LAWS[law]
    m = chunks * stats._KS_CHUNK + extra
    values = np.sort(getattr(np.random.default_rng(m), draw)(size=m))
    assert stats.ks_distance(_sample(values), cdf) == ref.ks_distance_whole(values, cdf)


def test_ks_distance_rejects_a_nan_cdf_value_in_the_last_chunk():
    m = 2 * stats._KS_CHUNK + 3
    values = np.sort(np.random.default_rng(4).gumbel(size=m))

    def cdf(x):
        f = stats.gumbel_cdf(x)
        if x[-1] == values[-1]:
            f[len(f) // 2] = np.nan
        return f

    with pytest.raises(ValueError, match="outside"):
        stats.ks_distance(_sample(values), cdf)


@pytest.mark.parametrize("law", sorted(_KS_LAWS))
def test_ks_distance_holds_at_most_1_5_mib_above_its_sample(law):
    # 125,000 values, as a run of that many replicates holds: the whole
    # sample's CDF values and discrepancy buffers would take 0.95 MiB each
    cdf, draw = _KS_LAWS[law]
    sample = _sample(getattr(np.random.default_rng(3), draw)(size=125_000))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        stats.ks_distance(sample, cdf)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 2**20, f"peak {peak / 2**20:.2f} MiB"


def test_ks_distance_probability_integral_transform():
    rng = np.random.default_rng(7)
    values = rng.standard_normal(5000)
    direct = stats.ks_distance(_sample(values), stats.gaussian_cdf)
    uniforms = stats.gaussian_cdf(np.sort(values))
    via_pit = stats.ks_distance(_sample(uniforms), lambda u: np.clip(u, 0.0, 1.0))
    assert direct == via_pit


# ---------------------------------------------------------------------------
# tail log-probabilities


def test_tail_log_prob_counts():
    sample = _sample([0.0, 1.0, 2.0, 3.0])
    dev = stats.tail_log_prob(sample, 1.5, speed=1.0, direction="above")
    assert dev.hit_count == 2
    assert dev.normalized_log_prob == pytest.approx(math.log(2.0))
    assert dev.std_error == pytest.approx(math.sqrt(0.5 / (0.5 * 4)))
    assert not dev.empty_tail


def test_tail_log_prob_below_direction():
    sample = _sample([0.0, 1.0, 2.0, 3.0])
    dev = stats.tail_log_prob(sample, 0.5, speed=2.0, direction="below")
    assert dev.hit_count == 1
    assert dev.normalized_log_prob == pytest.approx(math.log(4.0) / 2.0)


def test_tail_log_prob_empty_tail():
    dev = stats.tail_log_prob(_sample([0.0, 1.0]), 5.0, speed=1.0, direction="above")
    assert dev.empty_tail
    assert dev.hit_count == 0
    assert math.isinf(dev.normalized_log_prob)


def test_tail_log_prob_validation():
    with pytest.raises(ValueError):
        stats.tail_log_prob(_sample([0.0]), 1.0, speed=0.0)
    with pytest.raises(ValueError):
        stats.tail_log_prob(_sample([0.0]), 1.0, speed=1.0, direction="sideways")
    for speed in (math.nan, math.inf):
        with pytest.raises(ValueError, match="speed"):
            stats.tail_log_prob(_sample([0.0]), 1.0, speed=speed)
    with pytest.raises(ValueError, match="threshold"):
        stats.tail_log_prob(_sample([0.0]), math.nan, speed=1.0)


# ---------------------------------------------------------------------------
# empirical sample container


def test_empirical_sample_sorts_and_validates():
    s = _sample([3.0, 1.0, 2.0])
    assert s.values.tolist() == [1.0, 2.0, 3.0]
    with pytest.raises(ValueError):
        stats.EmpiricalSample(np.array([2.0, 1.0]))


def test_an_empty_sample_is_rejected():
    # a KS distance or a tail frequency of no values is undefined
    with pytest.raises(ValueError, match="at least one value"):
        stats.EmpiricalSample(np.array([]))


def test_from_values_sorts_an_array_where_it_lies_and_peaks_at_a_mask():
    # a float64 array is handed over and sorted in place; the sort check
    # compares neighbours into a mask of one byte per value, the peak
    values = np.random.default_rng(0).random(1_000_000)
    expected = np.sort(values)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        sample = stats.EmpiricalSample.from_values(values)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert sample.values is values
    assert np.array_equal(values, expected)
    assert peak <= len(values) + 2**16, f"peak {peak / len(values):.2f} bytes per value"


@pytest.mark.parametrize("values", [[3.0, 1.0, 2.0], np.array([3.0, 1.0, 2.0], np.float32),
                                    np.array([3, 1, 2])], ids=["list", "float32", "int"])
def test_from_values_leaves_anything_but_a_float64_array_as_it_was(values):
    before = list(values)
    sample = stats.EmpiricalSample.from_values(values)
    assert sample.values.dtype == np.float64
    assert sample.values.tolist() == [1.0, 2.0, 3.0]
    assert list(values) == before


# ---------------------------------------------------------------------------
# general central-moment CLT


def test_general_stat_constant_data():
    mq = 0.25
    assert ref.general_central_moment_stat([2.0] * 9, 1.0, mq=mq) == \
        pytest.approx(3.0 * (0.0 - mq))


def test_general_stat_validation():
    with pytest.raises(ValueError):
        ref.general_central_moment_stat([], 1.0, mq=0.0)
    with pytest.raises(ValueError):
        ref.general_central_moment_stat([1.0], 0.5, mq=0.0)


def test_general_clt_variance_exponential_q2():
    # derivative term vanishes and Var (E-1)^2 = 9 - 1
    assert stats.general_clt_variance(stats.ExponentialDist, 2.0) == 8.0


def test_general_clt_variance_uniform_q1():
    # |X - 1/2| is uniform on [0, 1/2]: variance 1/48
    assert stats.general_clt_variance(stats.Uniform01Dist, 1.0) == 1.0 / 48.0


def test_abs_moment_centers():
    assert stats.abs_moment(stats.ExponentialDist, 1.0) == pytest.approx(2.0 / math.e,
                                                                         abs=1e-15)
    assert stats.abs_moment(stats.Uniform01Dist, 1.0) == 0.25


@pytest.mark.parametrize("source", sorted(stats.SOURCE_DISTRIBUTIONS))
@pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 2.5, 3.0, 4.0])
def test_general_clt_constants_match_quadrature(source, q):
    dist = stats.SOURCE_DISTRIBUTIONS[source]
    mq, var = ref.general_clt_constants(source, q)
    assert stats.abs_moment(dist, q) == pytest.approx(mq, rel=1e-10)
    assert stats.general_clt_variance(dist, q) == pytest.approx(var, rel=1e-10)


@pytest.mark.parametrize("source, q", [("exponential", 2.0), ("uniform01", 507.0),
                                       ("uniform01", 600.0), ("uniform01", 1e200)])
def test_a_variance_below_the_float_range_is_one_named_overflow(monkeypatch, source, q):
    if source == "exponential":
        # mu_q = mu_2q = 1 with no covariance: d = 0 and Var |E - 1|**q = 0
        monkeypatch.setattr(stats, "moment_constants",
                            lambda q: MomentConstants(q, 1.0, 1.0, 1.0, 0.0))
    with pytest.raises(OverflowError, match=re.escape(
            f"general_clt variance at q={q:g} falls below the float range")):
        stats.general_clt_variance(stats.SOURCE_DISTRIBUTIONS[source], q)


def test_the_uniform01_variance_underflows_rather_than_overflows():
    # q**2 4**-q / ((2q + 1) (q + 1)**2) is a normal float up to q = 506.00;
    # 4**q itself overflows from q = 498.5
    assert stats.general_clt_variance(stats.Uniform01Dist, 500.0) == pytest.approx(
        500.0**2 / (1001.0 * 501.0**2) * 2.0**-1000, rel=1e-14)
    assert stats.general_clt_variance(stats.Uniform01Dist, 506.0) > 0.0
