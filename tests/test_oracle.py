import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simplex_limits import oracle
from simplex_limits.constants import mu_q
from simplex_limits.rng import RandomStream
from simplex_limits.sampling import exponential_block, spacings_block

import reference as ref

# exact series values at 60-digit precision, evaluated at the float inputs
_EXACT_CDF = {
    (10, 0.15): 0.00118800837890624901,
    (100, 0.05): 0.507199739671903154,
    (1000, 0.008): 0.718240124699649604,
    (5, 0.21): 6.24999999999998057e-6,
}


def test_max_spacing_cdf_two_spacings_geometry():
    # one uniform cut point: P[max <= s] = 2s - 1 for s >= 1/2
    assert oracle.max_spacing_cdf(2, 0.6).value == pytest.approx(0.2, abs=1e-14)
    assert oracle.max_spacing_cdf(2, 0.75).value == pytest.approx(0.5, abs=1e-14)
    assert oracle.max_spacing_cdf(2, 0.5).value == 0.0  # pigeonhole
    assert oracle.max_spacing_cdf(2, 0.4).value == 0.0


@pytest.mark.parametrize("key", sorted(_EXACT_CDF))
def test_max_spacing_cdf_matches_high_precision_reference(key):
    n, s = key
    res = oracle.max_spacing_cdf(n, s)
    assert abs(res.value - _EXACT_CDF[key]) <= res.error_bound + 1e-15
    assert res.method == "inclusion_exclusion"


def test_max_spacing_cdf_large_n_reference():
    # n = 1e6 at the Gumbel scaling point x = -1 (60-digit reference)
    s = (-1.0 + math.log(10**6)) / 10**6
    res = oracle.max_spacing_cdf(10**6, s)
    assert abs(res.value - 0.0659601793800741306) <= res.error_bound + 1e-12


def test_max_spacing_sf_complements_cdf():
    for n, s in ((2, 0.6), (5, 0.5), (100, 0.05), (1000, 0.008)):
        cdf = oracle.max_spacing_cdf(n, s)
        sf = oracle.max_spacing_sf(n, s)
        assert cdf.value + sf.value == pytest.approx(1.0, abs=1e-12)


def test_max_spacing_sf_resolves_far_tail():
    # at this point 1 - cdf would lose most digits; sf keeps full precision
    n = 10**6
    s = (1.0 + 1.5 * math.log(n)) / n
    res = oracle.max_spacing_sf(n, s)
    assert abs(res.value - 0.000367733040385) < 2e-9
    assert res.error_bound < 1e-12


def test_max_spacing_cdf_domain_errors():
    with pytest.raises(ValueError):
        oracle.max_spacing_cdf(1, 0.5)
    for bad_s in (0.0, 1.0, -0.1, 1.3):
        with pytest.raises(ValueError):
            oracle.max_spacing_cdf(5, bad_s)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=2, max_value=400),
       s1=st.floats(min_value=1e-3, max_value=0.999),
       s2=st.floats(min_value=1e-3, max_value=0.999))
def test_max_spacing_cdf_monotone_in_s(n, s1, s2):
    lo, hi = sorted((s1, s2))
    try:
        a = oracle.max_spacing_cdf(n, lo).value
        b = oracle.max_spacing_cdf(n, hi).value
    except oracle.CancellationError:
        return  # deep-tail points legitimately abort
    assert 0.0 <= a <= b + 1e-11 and b <= 1.0


@pytest.mark.parametrize("n,s", [(3, 0.5), (5, 0.5), (5, 0.35), (10, 0.2), (10, 0.3)])
def test_max_spacing_cdf_against_monte_carlo(n, s):
    reps = 10**6
    g = spacings_block(RandomStream(1001).substream(n), reps, n)
    freq = float(np.mean(g.max(axis=1) <= s))
    se = math.sqrt(max(freq * (1.0 - freq), 1e-12) / reps)
    assert abs(freq - oracle.max_spacing_cdf(n, s).value) <= 3.0 * se + 1e-9


@pytest.mark.parametrize("x", [-1.0, 0.0, 1.0, 2.0])
def test_max_spacing_cdf_at_the_gumbel_spacing_converges(x):
    # the exact CDF of n * max_i G_{n,i} - log n at x
    got = oracle.max_spacing_cdf(10**6, (x + math.log(10**6)) / 10**6).value
    assert abs(got - math.exp(-math.exp(-x))) <= 0.01


def test_cancellation_raises_with_diagnostic():
    n = 10**4
    s = (1.0 + 0.5 * math.log(n)) / n  # exact value ~1e-17, hopeless in double
    with pytest.raises(oracle.CancellationError, match="cancellation|overflows"):
        oracle.max_spacing_cdf(n, s)
    with pytest.raises(oracle.CancellationError):
        oracle.max_spacing_cdf(10**6, (1.0 + 0.5 * math.log(10**6)) / 10**6)


def test_a_series_below_the_float_range_is_named_underflow():
    # every term lies below 5e-324: the k = 1 term is n (1 - s)**(n - 1) = exp(-1988.19)
    with pytest.raises(oracle.CancellationError,
                       match=r"underflow .* so log P is about -1988\.19"):
        oracle.max_spacing_sf(10**6, 0.002)


def _exact_cdf(n: int, s: float) -> Fraction:
    # the inclusion-exclusion sum in exact rationals, at the float s
    s = Fraction(s)
    return sum((-1) ** k * math.comb(n, k) * (1 - k * s) ** (n - 1)
               for k in range(n + 1) if k * s < 1)


@pytest.mark.parametrize("n", [2, 3, 5, 10, 20, 25, 50, 100, 200])
def test_max_spacing_error_bounds_hold_against_exact_sums(n):
    """Every CDF and survival-function result lies within its error_bound of
    the exact sum, or the call raises CancellationError.

    The grid holds j/24 and the pigeonhole and experiment scalings at each n.
    Where fl(1/n) lies above 1/n the CDF there is positive, and at n = 5, 10
    and 20 it lies in the float range (9.4956e-66 at n = 5).
    The product bound max_spacing_cdf_upper is checked at the pigeonhole
    points only: elsewhere it can round below a CDF near 1 (n = 100,
    s = 0.25: 0.9999999999572342 against 0.9999999999572373), and its one
    caller is the deep-tail fallback of SupTheorem.exact.
    """
    grid = {j / 24 for j in range(1, 24)} | {
        1 / n, 1 / (n - 1), math.log(n) / n, (1 + 0.5 * math.log(n)) / n,
        (1 + 1.5 * math.log(n)) / n}
    for s in sorted(x for x in grid if 0.0 < x < 1.0):
        cdf = _exact_cdf(n, s)
        for fn, exact in ((oracle.max_spacing_cdf, cdf), (oracle.max_spacing_sf, 1 - cdf)):
            try:
                res = fn(n, s)
            except oracle.CancellationError:
                continue
            assert float(abs(Fraction(res.value) - exact)) <= res.error_bound, (fn, n, s)
        if s <= 1.0 / n:
            assert oracle.max_spacing_cdf_upper(n, s).value >= float(cdf), (n, s)


def test_certified_upper_bound_dominates_cdf():
    for n, s in ((5, 0.3), (10, 0.2), (100, 0.05), (1000, 0.008), (1000, 0.0044539)):
        bound = oracle.max_spacing_cdf_upper(n, s)
        exact = oracle.max_spacing_cdf(n, s)
        assert bound.value >= exact.value - exact.error_bound
        assert bound.method == "closed_form" and bound.error_bound == 0.0


def test_certified_upper_bound_reaches_deep_tail():
    # computable exactly where the series aborts
    n = 10**6
    s_n = math.sqrt(math.log(n))
    bound = oracle.max_spacing_cdf_upper(n, (1.0 + math.log(n) - s_n) / n)
    assert 0.0 < bound.value <= math.exp(-3.0 * s_n)


# ---------------------------------------------------------------------------
# small-n closed form


def test_small_n_norm_cdf_values():
    assert oracle.small_n_norm_cdf(2, math.inf, 0.25).value == pytest.approx(0.5)
    assert oracle.small_n_norm_cdf(2, 2.0, math.sqrt(2.0) / 4.0).value == pytest.approx(0.5)
    assert oracle.small_n_norm_cdf(2, 1.0, 1.0).value == 1.0


def test_small_n_norm_cdf_unsupported_n():
    with pytest.raises(ValueError):
        oracle.small_n_norm_cdf(3, 2.0, 0.5)


@pytest.mark.parametrize("q", [1.0, 2.0, math.inf])
def test_small_n_norm_cdf_matches_sampled_law(q):
    reps = 100_000
    e = exponential_block(RandomStream(55).substream(int(q) if q != math.inf else 99), reps, 2)
    z = np.abs(e[:, 0] / e.sum(axis=1) - 0.5)
    norms = z if math.isinf(q) else (2.0 * z**q) ** (1.0 / q)
    v = np.sort(norms)
    f = np.array([oracle.small_n_norm_cdf(2, q, t).value for t in v[:: reps // 500]])
    i = np.arange(1, len(v) + 1)[:: reps // 500]
    assert np.max(np.abs(f - i / reps)) <= 0.01


# ---------------------------------------------------------------------------
# brute-force moment oracles


def test_mu_q_bruteforce_values():
    assert abs(ref.mu_q_bruteforce(1.0)[0] - 2.0 / math.e) < 1e-10
    assert abs(ref.mu_q_bruteforce(2.0)[0] - 1.0) < 1e-10


def test_mu_q_bruteforce_agrees_with_factorized_form():
    value, error_bound = ref.mu_q_bruteforce(5.0)
    assert abs(value - mu_q(5.0)) < 1e-9
    assert error_bound < 1e-9


def test_cov_bruteforce_integer_q():
    res = oracle.cov_bruteforce(2.0, 10**6, RandomStream(71))
    assert abs(res.value - 2.0) <= 4.0 * res.error_bound
    res1 = oracle.cov_bruteforce(1.0, 10**6, RandomStream(72))
    assert abs(res1.value - (4.0 / math.e - 1.0)) <= 4.0 * res1.error_bound


def test_cov_bruteforce_error_scaling():
    small = oracle.cov_bruteforce(1.0, 10**4, RandomStream(73))
    large = oracle.cov_bruteforce(1.0, 10**6, RandomStream(73))
    ratio = small.error_bound / large.error_bound
    assert 5.0 <= ratio <= 20.0  # ~10x from the sqrt(draws) law


def test_cov_bruteforce_rejects_tiny_budgets():
    with pytest.raises(ValueError):
        oracle.cov_bruteforce(1.0, 100, RandomStream(0))


# ---------------------------------------------------------------------------
# pinned bits of the max-spacing series

_GRID_N = (2, 5, 10, 100, 1000, 10**4, 10**6)

#: scaling -> (n, s) points: the Gumbel, LDP and MDP (speed sqrt(log n))
#: thresholds of the experiments over _GRID_N, and the two cancelling points
#: of test_cancellation_raises_with_diagnostic
_GRIDS = {
    "gumbel": tuple((n, (x + math.log(n)) / n) for n in _GRID_N for x in (-1.0, 0.0, 1.0, 2.0)),
    "ldp": tuple((n, (1.0 + z * math.log(n)) / n) for n in _GRID_N for z in (0.5, 1.5, 3.0)),
    "mdp": tuple((n, (1.0 + math.log(n) + math.sqrt(math.log(n)) * x) / n)
                 for n in _GRID_N for x in (-1.0, 1.0)),
    "cancelling": tuple((n, (1.0 + 0.5 * math.log(n)) / n) for n in (10**4, 10**6)),
}

#: SHA-256 of each function's records over one scaling's grid
_PINNED_SERIES = {
    ("max_spacing_cdf", "cancelling"):
        "0c11e8e27791d4d0ebc1705beb2d4d94a654f9429e762acd3e121aeb4b9c230e",
    ("max_spacing_cdf", "gumbel"):
        "7f576d9648801a663536b5b4d207ff874ec462660674bfb6f6728d3fa03179c0",
    ("max_spacing_cdf", "ldp"):
        "dc0124764b760a709d42fc5efef9386ce3a609415e918fc2fd24fde27d94aaa6",
    ("max_spacing_cdf", "mdp"):
        "6f5756abd6ec9d8ff57d67595edb5ae126fce488ee74e090a150d529f210763d",
    ("max_spacing_sf", "cancelling"):
        "bb06b513d9b61f1da802ca8f2ea33d5a1df5bb99b37e62a4c0e2e36140b3f1cf",
    ("max_spacing_sf", "gumbel"):
        "de9b647ea88fbb435f3542363a8b21fe6cd5efbd7f6cf3b96379e9aab56a0fae",
    ("max_spacing_sf", "ldp"):
        "7102d1799bbe051df8e5837375a6d659b58bb0701aff9bf5e71657941476ba0d",
    ("max_spacing_sf", "mdp"):
        "87926ebc6201584738a1af562075f80668820cf88b910894d63f9eb8ba0af77b",
}


def _series_records(fn, points) -> str:
    """One line per point: the result's value, error bound and method bits, or
    the exception's type and message."""
    lines = []
    for n, s in points:
        try:
            res = fn(n, s)
            out = f"{res.value.hex()} {res.error_bound.hex()} {res.method}"
        except (ValueError, oracle.CancellationError) as exc:
            out = f"{type(exc).__name__}: {exc}"
        lines.append(f"{fn.__name__}({n}, {s.hex()}) -> {out}\n")
    return "".join(lines)


@pytest.mark.parametrize("name,scaling", sorted(_PINNED_SERIES))
def test_max_spacing_series_bits_are_pinned(name, scaling):
    records = _series_records(getattr(oracle, name), _GRIDS[scaling])
    digest = hashlib.sha256(records.encode()).hexdigest()
    assert digest == _PINNED_SERIES[name, scaling], records
