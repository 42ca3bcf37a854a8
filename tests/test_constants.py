import math
import re
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import gammaincc, ndtri

import reference as ref
from simplex_limits import constants
from simplex_limits.experiments import clt_sample


def test_gamma_fn_values():
    assert ref.gamma_fn(1.0) == 1.0
    assert ref.gamma_fn(5.0) == 24.0
    assert abs(ref.gamma_fn(1.5) - math.sqrt(math.pi) / 2.0) < 1e-12


def test_gamma_fn_domain():
    with pytest.raises(ValueError):
        ref.gamma_fn(0.0)
    with pytest.raises(ValueError):
        ref.gamma_fn(-2.5)


def test_subfactorial_values():
    assert [constants.subfactorial(q) for q in range(9)] == [
        1, 0, 1, 2, 9, 44, 265, 1854, 14833]


@given(st.integers(min_value=1, max_value=60))
def test_subfactorial_recurrence(q):
    assert constants.subfactorial(q) == q * constants.subfactorial(q - 1) + (-1) ** q


def test_mu_q_values():
    assert abs(constants.mu_q(1.0) - 2.0 / math.e) < 1e-12
    assert abs(constants.mu_q(2.0) - 1.0) < 1e-12
    assert abs(constants.mu_q(3.0) - (12.0 / math.e - 2.0)) < 1e-12


def test_mu_q_domain():
    with pytest.raises(ValueError):
        constants.mu_q(0.99)


@pytest.mark.parametrize("q", range(1, 13))
def test_mu_q_quadrature_matches_subfactorial_form(q):
    assert abs(constants.mu_q(float(q)) - constants.mu_q_integer(q)) < 1e-10


@pytest.mark.parametrize("q", range(1, 86))
def test_moment_constants_match_the_60_digit_closed_form(q):
    # the series at every integer q whose mu_2q is in range, within 8 units
    # of roundoff (2**-53) of the exact subfactorial form
    mc = constants.moment_constants(q)
    for value, order in [(mc.mu_q, q), (mc.mu_2q, 2 * q)]:
        exact = ref.mu_q_decimal(order)
        assert abs(Decimal(value) - exact) <= 8 * Decimal(2) ** -53 * exact


@pytest.mark.parametrize("q", [1, 2, 3, 4, 6])
def test_moment_constants_have_the_closed_form_bits_at_the_read_orders(q):
    # the orders the battery, the benchmark and the pinned digests read
    mc = constants.moment_constants(q)
    assert mc.mu_q == constants.mu_q_integer(q)
    if 2 * q <= 6:
        assert mc.mu_2q == constants.mu_q_integer(2 * q)


@pytest.mark.parametrize("q", [170.63, 171.0])
def test_mu_q_past_the_float_range_is_one_named_overflow(q):
    with pytest.raises(OverflowError, match=re.escape(f"mu_q at q={q:g} exceeds the float range")):
        constants.mu_q(q)
    assert math.isfinite(constants.mu_q(170.62))


@pytest.mark.parametrize("q", [1.25, 2.5, 7.5])
def test_mu_q_series_matches_brute_force_quadrature(q):
    value, error_bound = ref.mu_q_bruteforce(q)
    assert abs(constants.mu_q(q) - value) <= error_bound + 1e-15 * value


def test_sigma_q_sq_closed_values():
    assert abs(constants.sigma_q_sq(2.0) - 1.0) < 1e-12
    assert abs(constants.sigma_q_sq(1.0) - (2.0 * math.e - 5.0)) < 1e-12


def test_sigma_q_sq_q3_against_monte_carlo_variance():
    # the scaled-norm statistic is studentized by sigma_q, so its empirical
    # variance near 1 validates the q=3 formula end to end
    sample = clt_sample(seed=97, n=10_000, q=3.0, replicates=10_000, workers=2)
    assert abs(float(sample.values.var()) - 1.0) < 0.05


def test_cov_e_absq_values():
    assert abs(constants.cov_e_absq(2.0) - 2.0) < 1e-12
    assert abs(constants.cov_e_absq(1.0) - (4.0 / math.e - 1.0)) < 1e-12


def test_cov_e_absq_against_direct_monte_carlo():
    rng = np.random.default_rng(1234)
    e = rng.standard_exponential(10**6)
    y = np.abs(e - 1.0) ** 1.5
    cov = float(np.cov(e, y)[0, 1])
    se = float(np.std((e - e.mean()) * (y - y.mean()))) / 10**3
    assert abs(cov - constants.cov_e_absq(1.5)) <= 4.0 * se


def test_moment_derivative_values():
    assert abs(ref.moment_derivative(2.0)) < 1e-12
    assert abs(ref.moment_derivative(1.0) - (1.0 - 2.0 / math.e)) < 1e-12


def test_moment_derivative_matches_finite_difference():
    # independent oracle: central difference of t -> E|E - t|^3 by quadrature
    def moment(t):
        lo, _ = quad(lambda x: (t - x) ** 3 * math.exp(-x), 0.0, t, epsabs=1e-13)
        hi, _ = quad(lambda x: (x - t) ** 3 * math.exp(-x), t, 60.0, epsabs=1e-13)
        return lo + hi

    h = 1e-4
    fd = (moment(1.0 + h) - moment(1.0 - h)) / (2.0 * h)
    assert abs(ref.moment_derivative(3.0) - fd) < 1e-6


def test_c_p_values():
    assert abs(ref.c_p(2.0) - 1.0 / math.sqrt(2.0 * math.pi)) < 1e-12
    assert abs(ref.c_p(1.0) - 0.5) < 1e-12
    with pytest.raises(ValueError):
        ref.c_p(0.5)


def test_c_p_normalizes_the_density():
    total, _ = quad(lambda y: math.exp(-abs(y) ** 4 / 4.0), -math.inf, math.inf,
                    epsabs=1e-12)
    assert abs(ref.c_p(4.0) * total - 1.0) < 1e-10


@pytest.mark.parametrize("n", [10, 10**3, 10**6])
def test_m_n_laplace_is_log_n(n):
    assert abs(constants.m_n(1.0, n) - math.log(n)) < 1e-10 * math.log(n)


def test_m_n_gaussian_quantile():
    # two-sided 1/100 tail of the standard normal
    assert abs(constants.m_n(2.0, 100) - 2.5758293035) < 1e-4
    assert abs(constants.m_n(2.0, 100) - float(ndtri(1.0 - 1.0 / 200.0))) < 1e-10


@pytest.mark.parametrize("p", [1.0, 2.0, 4.0])
def test_m_n_asymptotic_ratio(p):
    n = 10**6
    ratio = constants.m_n(p, n) / (p * math.log(n)) ** (1.0 / p)
    assert 0.8 < ratio < 1.05


def test_tail_sandwich_laplace_point():
    lower, value, upper = constants.tail_sandwich(1.0, 1.0)
    assert abs(value - math.exp(-1.0)) < 1e-10
    assert abs(lower - math.exp(-1.0) / 2.0) < 1e-12
    assert abs(upper - math.exp(-1.0)) < 1e-12


def test_tail_sandwich_gaussian_point():
    _, value, _ = constants.tail_sandwich(2.0, 2.0)
    expected = math.sqrt(2.0 * math.pi) * 0.5 * math.erfc(2.0 / math.sqrt(2.0))
    assert abs(value - expected) < 1e-10


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 4.0])
@pytest.mark.parametrize("x", [0.5, 1.0, 2.0, 5.0])
def test_tail_sandwich_ordering(p, x):
    lower, value, upper = constants.tail_sandwich(p, x)
    assert lower <= value <= upper


TAIL_PS = (1.0, 1.25, 1.5, 2.0, 3.0, 4.0, 8.0, 20.0)


@pytest.mark.parametrize("p", TAIL_PS)
def test_upper_gamma_matches_scipy(p):
    # Q(1/p, m**p / p) = P[|Y| > m] on 500 geometric thresholds in [1e-6, 30]
    for m in np.geomspace(1e-6, 30.0, 500):
        a, x = 1.0 / p, float(m) ** p / p
        expected = float(gammaincc(a, x))
        assert abs(constants._upper_gamma_q(a, x) - expected) <= 1e-13 * expected, (p, m)


def test_upper_gamma_at_one_is_the_exponential_tail():
    for x in np.linspace(0.01, 30.0, 3000):
        x = float(x)
        assert abs(constants._upper_gamma_q(1.0, x) - math.exp(-x)) <= 1e-14 * math.exp(-x)


@pytest.mark.parametrize("p", [1.0, 2.0, 20.0])
def test_tail_endpoints(p):
    assert constants._upper_gamma_q(1.0 / p, 0.0) == 1.0
    assert constants._upper_gamma_q(1.0 / p, math.inf) == 0.0
    assert constants.pgen_two_sided_tail(p, 0.0) == 1.0
    assert constants.pgen_two_sided_tail(p, math.inf) == 0.0


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 4.0])
@pytest.mark.parametrize("n", [10, 100, 10**3, 10**6])
def test_m_n_matches_brentq_on_scipy(p, n):
    expected = ref.m_n_brentq(p, n)
    assert abs(constants.m_n(p, n) - expected) <= 1e-12 * expected


@pytest.mark.parametrize("n", [10, 10**3, 10**6])
def test_m_n_at_a_large_p_matches_brentq_on_scipy(n):
    # m**400 leaves the float range above m = 5.9, where the tail is 0.0
    expected = ref.m_n_brentq(400.0, n)
    assert abs(constants.m_n(400.0, n) - expected) <= 1e-12 * expected


def test_tails_past_the_float_range_of_m_to_the_p_are_zero():
    assert constants.pgen_two_sided_tail(400.0, 6.0) == 0.0
    assert constants.tail_sandwich(400.0, 6.0) == (0.0, 0.0, 0.0)
    assert ref.pgen_tail_integral(400.0, 6.0) == 0.0


def test_tail_sandwich_value_is_the_closed_form():
    # relative accuracy where the integral is tiny: 1.1e-70 at (4, 5)
    for p, x in ((4.0, 5.0), (1.5, 0.5), (2.0, 5.0), (8.0, 1.2)):
        expected = ref.pgen_tail_integral(p, x)
        assert abs(constants.tail_sandwich(p, x).value - expected) <= 1e-12 * expected


def test_tail_sandwich_clamps_to_the_exact_laplace_bound():
    # at p = 1 the upper bound exp(-x) is the integral itself; the unclamped
    # closed form lies one ulp above it at some x, among them x = 5
    xs = [float(x) for x in np.linspace(0.01, 30.0, 3000)] + [5.0]
    assert any(constants._upper_gamma_q(1.0, x) > math.exp(-x) for x in xs)
    for x in xs:
        _, value, upper = constants.tail_sandwich(1.0, x)
        assert value <= upper == math.exp(-x)


@pytest.mark.parametrize("call", [
    lambda: constants.pgen_two_sided_tail(2.0, math.nan),
    lambda: constants.pgen_two_sided_tail(2.0, -1.0),
    lambda: constants.pgen_two_sided_tail(math.inf, 1.0),
    lambda: constants.pgen_two_sided_tail(0.5, 1.0),
    lambda: constants.pgen_two_sided_tail(math.nan, 1.0),
    lambda: constants.tail_sandwich(2.0, math.inf),
    lambda: constants.tail_sandwich(2.0, math.nan),
    lambda: constants.tail_sandwich(2.0, 0.0),
    lambda: constants.tail_sandwich(math.inf, 1.0),
    lambda: constants.m_n(math.inf, 10),
    lambda: constants.m_n(math.nan, 10),
    lambda: constants.m_n(0.5, 10),
], ids=["tail_m_nan", "tail_m_negative", "tail_p_inf", "tail_p_half", "tail_p_nan",
        "sandwich_x_inf", "sandwich_x_nan", "sandwich_x_zero", "sandwich_p_inf",
        "m_n_p_inf", "m_n_p_nan", "m_n_p_half"])
def test_tail_functions_reject_bad_input(call):
    with pytest.raises(ValueError):
        call()


def test_rate_function_values():
    assert constants.rate_function("simplex_sup", 1.5) == 0.5
    assert constants.rate_function("mdp", 0.0) == 0.0
    assert abs(constants.rate_function("lp_sup", 1.3, p=2.0) - 0.69) < 1e-12


def test_rate_function_infinite_region_and_monotonicity():
    assert constants.rate_function("simplex_sup", 0.999) == math.inf
    assert constants.rate_function("mdp", -1e-9) == math.inf
    assert constants.rate_function("lp_sup", 0.5, p=1.5) == math.inf
    for kind, p in (("simplex_sup", None), ("mdp", None), ("lp_sup", 3.0)):
        lo = 1.0 if kind != "mdp" else 0.0
        grid = [lo + 1e-9, lo + 0.1, lo + 0.5, lo + 2.0, lo + 10.0]
        values = [constants.rate_function(kind, z, p=p) for z in grid]
        assert values[0] < 1e-6  # continuous at the threshold
        assert all(a <= b for a, b in zip(values, values[1:]))


def test_rate_function_errors():
    with pytest.raises(ValueError):
        constants.rate_function("lp_sup", 1.2)  # p missing
    with pytest.raises(ValueError):
        constants.rate_function("nope", 1.2)
    with pytest.raises(ValueError):
        constants.rate_function("mdp", math.nan)


@settings(max_examples=25, deadline=None)
@given(q=st.floats(min_value=1.0, max_value=8.0))
def test_moment_constants_internal_identities(q):
    mc = constants.moment_constants(q)
    m = mc.mu_q
    expected_sigma = (mc.mu_2q - (q * q + 2.0 * q + 2.0) * m * m
                      + 2.0 * (q + 1.0) * m - 1.0) / (q * q * m * m)
    assert mc.sigma_q_sq == expected_sigma
    assert mc.cov_e_absq == (q + 1.0) * mc.mu_q - 1.0


def test_constants_table_columns():
    rows = constants.constants_table([1.0, 2.5])
    assert [r["q"] for r in rows] == [1.0, 2.5]
    assert set(rows[0]) == {"q", "mu_q", "sigma_q_sq", "cov_e_absq", "m1", "c1_qq"}
    assert rows[0]["m1"] == 1.0


@pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 3.0])
def test_sigma_and_covariance_are_the_moment_bundle(q):
    # one definition: both functions read the bundle, at integer q as at any other
    bundle = constants.moment_constants(q)
    assert constants.sigma_q_sq(q) == bundle.sigma_q_sq
    assert constants.cov_e_absq(q) == bundle.cov_e_absq
