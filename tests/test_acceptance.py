"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.  The heavy Monte Carlo samples are shared through
module-scoped fixtures; total runtime is a few minutes.
"""

import math
import time

import numpy as np
import pytest

from simplex_limits import cli, constants, oracle
from simplex_limits import experiments as ex
from simplex_limits import statistics as stats
from simplex_limits.rng import RandomStream

REPLICATES = 100_000
WORKERS = 2


def _criterion(number: int, description: str, checks: list[tuple[str, bool]]) -> None:
    failed = [label for label, ok in checks if not ok]
    status = "PASS" if not failed else "FAIL"
    suffix = "" if not failed else f"  [failing: {', '.join(failed)}]"
    print(f"[criterion {number:2d}] {status}: {description}{suffix}", flush=True)
    assert not failed, f"criterion {number} failing checks: {failed}"


# ---------------------------------------------------------------------------
# shared heavy samples


def _copy(sample):
    return stats.EmpiricalSample(sample.values.copy())


@pytest.fixture(scope="module")
def clt_sweep():
    """Studentized scaled-norm samples for q in {1,2,3}, n in {1e2,1e3,1e4}."""
    out = {}
    for q in (1.0, 2.0, 3.0):
        for n in (100, 1000, 10_000):
            out[(q, n)] = ex.clt_sample(seed=300 + int(q), n=n, q=q,
                                        replicates=REPLICATES, workers=WORKERS)
    return out


@pytest.fixture(scope="module")
def sup_samples():
    """n * ||Z_n||_inf samples at n = 1e2 and 1e4."""
    return {n: ex.sup_norm_sample(seed=555, n=n, replicates=REPLICATES, workers=WORKERS)
            for n in (100, 10_000)}


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_exact_constants():
    start = time.perf_counter()
    checks = [
        ("mu_1", abs(constants.mu_q(1.0) - 2.0 / math.e) <= 1e-12),
        ("mu_2", abs(constants.mu_q(2.0) - 1.0) <= 1e-12),
        ("sigma_1_sq", abs(constants.sigma_q_sq(1.0) - (2.0 * math.e - 5.0)) <= 1e-12),
        ("sigma_2_sq", abs(constants.sigma_q_sq(2.0) - 1.0) <= 1e-12),
    ]
    for q in range(1, 9):
        agree = abs(constants.mu_q(float(q)) - constants.mu_q_integer(q)) <= 1e-10
        checks.append((f"quadrature_vs_closed_q{q}", agree))
    checks.append(("runtime_under_1s", time.perf_counter() - start < 1.0))
    _criterion(1, "closed-form moment constants and quadrature agreement", checks)


def test_criterion_02_covariance_identity():
    checks = []
    for i, q in enumerate((1.0, 1.5, 2.0, 3.0)):
        res = oracle.cov_bruteforce(q, 10**6, RandomStream(200 + i))
        target = constants.cov_e_absq(q)
        checks.append((f"q={q:g}", abs(res.value - target) <= 4.0 * res.error_bound))
    _criterion(2, "Monte Carlo covariance matches (q+1)*mu_q - 1 within 4 SE", checks)


def test_criterion_03_gaussian_limit(clt_sweep):
    checks = []
    for q in (1.0, 2.0, 3.0):
        small = stats.ks_distance(clt_sweep[(q, 100)], stats.gaussian_cdf)
        big = stats.ks_distance(clt_sweep[(q, 10_000)], stats.gaussian_cdf)
        var = float(clt_sweep[(q, 10_000)].values.var())
        checks.append((f"ks_n1e4_q{q:g}={big:.4f}", big <= 0.02))
        checks.append((f"variance_q{q:g}={var:.4f}", abs(var - 1.0) <= 0.05))
        checks.append((f"ks_decreasing_q{q:g}", big < small))
    _criterion(3, "KS <= 0.02 at n=1e4, studentized variance within 5%, KS decreasing",
               checks)


def test_criterion_04_berry_esseen_boundedness(clt_sweep):
    checks = []
    for q in (1.0, 2.0, 3.0):
        ratios = [
            stats.ks_distance(clt_sweep[(q, n)], stats.gaussian_cdf) * math.sqrt(n) / math.log(n)
            for n in (100, 1000, 10_000)
        ]
        bound = 2.0 * ratios[0]
        checks.append((f"q={q:g}_ratios={['%.3f' % r for r in ratios]}",
                       all(r <= bound for r in ratios)))
    _criterion(4, "D_n * sqrt(n)/log n stays within 2x its value at n=100", checks)


def test_criterion_05_gumbel_limit(sup_samples):
    n = 10_000
    # the map is in place: it is given a copy of the shared sample
    gum = ex._affine_sample(_copy(sup_samples[n]), 1.0, -(math.log(n) - 1.0))
    d = stats.ks_distance(gum, stats.gumbel_cdf)
    checks = [(f"ks_n1e4={d:.4f}", d <= 0.05)]
    for x in (-1.0, 0.0, 1.0, 2.0):
        res = oracle.max_spacing_cdf(10**6, (x + math.log(10**6)) / 10**6)
        gap = abs(res.value - math.exp(-math.exp(-x)))
        checks.append((f"oracle_x={x:+.0f}_gap={gap:.1e}", gap <= 0.01))
    _criterion(5, "Gumbel KS <= 0.05 at n=1e4 and exact oracle curve at n=1e6", checks)


def test_criterion_06_large_deviations():
    n = 1000
    base = ex.sup_norm_sample(seed=606, n=n, replicates=10**6, workers=WORKERS)
    sample = ex._affine_sample(base, 1.0 / math.log(n), 0.0)
    dev = stats.tail_log_prob(sample, 1.5, speed=math.log(n), direction="above")
    checks = [(f"mc_estimate={dev.normalized_log_prob:.4f}",
               0.3 <= dev.normalized_log_prob <= 0.8)]

    gaps = []
    for m in (10**4, 10**5, 10**6):
        sf = oracle.max_spacing_sf(m, (1.0 + 1.5 * math.log(m)) / m)
        gaps.append(abs(-math.log(sf.value) / math.log(m) - 0.5))
    checks.append((f"oracle_monotone_gaps={['%.3f' % g for g in gaps]}",
                   gaps[0] > gaps[1] > gaps[2]))
    checks.append((f"oracle_final_gap={gaps[-1]:.3f}", gaps[-1] <= 0.1))

    # lower tail: at n=1e4 the exact probability is ~9e-18, so any feasible
    # replicate budget must come up empty, and the certified bound is deep
    # inside the +inf-rate regime
    n_low = 10_000
    low_base = ex.sup_norm_sample(seed=607, n=n_low, replicates=10_000, workers=WORKERS)
    low = ex._affine_sample(low_base, 1.0 / math.log(n_low), 0.0)
    dev_low = stats.tail_log_prob(low, 0.5, speed=math.log(n_low), direction="below")
    bound = oracle.max_spacing_cdf_upper(n_low, (1.0 + 0.5 * math.log(n_low)) / n_low)
    bound_mag = -math.log(bound.value) / math.log(n_low)
    checks.append(("lower_tail_empty", dev_low.empty_tail))
    checks.append((f"lower_tail_bound_mag={bound_mag:.2f}", bound_mag > 3.0))
    _criterion(6, "LDP rate at z=1.5 within [0.3, 0.8], oracle -> 0.5, +inf below 1",
               checks)


def test_criterion_07_moderate_deviations():
    n = 10**6
    s_n = math.sqrt(math.log(n))
    sf = oracle.max_spacing_sf(n, (1.0 + math.log(n) + s_n) / n)
    est = -math.log(sf.value) / s_n
    _criterion(7, "MDP oracle estimate at x=1, n=1e6 within [0.6, 1.4]",
               [(f"estimate={est:.4f}", 0.6 <= est <= 1.4)])


def test_criterion_08_equivalence_decay():
    cfg = ex.ExperimentConfig(kind="equivalence_decay", n_list=(5, 10, 20, 50, 100),
                              replicates=10**6, seed=808, workers=WORKERS)
    report = ex.run(cfg)
    freqs = {r.n: (r.estimate, r.std_error) for r in report.rows}
    checks = [(f"rows_pass_freqs={['%.2e' % freqs[n][0] for n in (5, 10, 20, 50, 100)]}",
               all(r.passed for r in report.rows))]
    checks.append((f"freq_n100={freqs[100][0]:.2e}", freqs[100][0] <= 1e-4))
    _criterion(8, "equivalence failure frequency nonincreasing, <= 1e-4 at n=100",
               checks)


def test_criterion_09_lp_ball():
    checks = []
    ldp_cfg = ex.ExperimentConfig(kind="lp_ldp", n_list=(1000,), p=2.0,
                                  replicates=REPLICATES, seed=909,
                                  thresholds=(1.3,), workers=WORKERS)
    ldp_rows = {r.experiment: r for r in ex.run(ldp_cfg).rows}
    member = ldp_rows["lp_ldp:membership"]
    dev = ldp_rows["lp_ldp:mc"]
    checks.append((f"membership_max={member.estimate:.12f}", member.passed))
    checks.append((f"p2_rate={dev.estimate:.4f}", 0.3 <= dev.estimate <= 1.2))

    gum_cfg = ex.ExperimentConfig(kind="lp_gumbel", n_list=(10_000,), p=1.0,
                                  replicates=REPLICATES, seed=910, workers=WORKERS)
    gum_rows = {r.experiment: r for r in ex.run(gum_cfg).rows}
    checks.append((f"p1_gumbel_ks={gum_rows['lp_gumbel:ks'].estimate:.4f}",
                   gum_rows["lp_gumbel:ks"].estimate <= 0.05))
    checks.append(("p1_membership", gum_rows["lp_gumbel:membership"].passed))

    for n in (10, 1000, 10**6):
        ok = abs(constants.m_n(1.0, n) - math.log(n)) <= 1e-10 * math.log(n)
        checks.append((f"m_n_laplace_n{n}", ok))
    checks.append(("m_n_gauss_100", abs(constants.m_n(2.0, 100) - 2.5758) <= 1e-4))
    for p in (1.0, 2.0, 4.0):
        ratio = constants.m_n(p, 10**6) / (p * math.log(10**6)) ** (1.0 / p)
        checks.append((f"m_n_ratio_p{p:g}={ratio:.3f}", 0.8 < ratio < 1.05))
    _criterion(9, "lp-ball membership, p=2 LDP, p=1 Gumbel, and tail quantiles",
               checks)


def test_criterion_10_tail_sandwich():
    checks = []
    for p in (1.0, 1.5, 2.0, 4.0):
        for x in (0.5, 1.0, 2.0, 5.0):
            lower, value, upper = constants.tail_sandwich(p, x)
            checks.append((f"p={p:g}_x={x:g}", lower <= value <= upper))
    _, at_11, _ = constants.tail_sandwich(1.0, 1.0)
    checks.append(("value_at_(1,1)", abs(at_11 - math.exp(-1.0)) <= 1e-10))
    _criterion(10, "Gaussian-tail sandwich holds on the full (p, x) grid", checks)


def test_criterion_11_general_central_moment_clt():
    cfg = ex.ExperimentConfig(kind="general_clt", n_list=(10_000,), q=2.0,
                              replicates=10_000, seed=1111, source="exponential",
                              workers=WORKERS)
    rows = {r.experiment: r for r in ex.run(cfg).rows}
    var_row = rows["general_clt:variance"]
    ks_row = rows["general_clt:ks"]
    checks = [
        (f"variance={var_row.estimate:.3f}_vs_8", abs(var_row.estimate - 8.0) <= 0.8),
        (f"studentized_ks={ks_row.estimate:.4f}", ks_row.estimate <= 0.05),
    ]
    _criterion(11, "central-moment CLT for the exponential at q=2", checks)


def test_criterion_12_reproducibility(tmp_path):
    args = ["clt", "--n", "400", "--q", "2", "--replicates", "4000", "--seed", "99",
            "--oracle-n", ""]
    paths = [tmp_path / name for name in ("a.csv", "b.csv", "w2.csv")]
    assert cli.main(args + ["--workers", "1", "--out", str(paths[0])]) == 0
    assert cli.main(args + ["--workers", "1", "--out", str(paths[1])]) == 0
    assert cli.main(args + ["--workers", "2", "--out", str(paths[2])]) == 0
    blobs = [p.read_bytes() for p in paths]
    checks = [
        ("rerun_byte_identical", blobs[0] == blobs[1]),
        ("workers_byte_identical", blobs[0] == blobs[2]),
    ]
    _criterion(12, "CLI replays are byte-identical, independent of --workers", checks)


# ---------------------------------------------------------------------------
# finite-n convergence invariants sharing the acceptance samples


def test_gumbel_ks_decreases_with_n(sup_samples):
    distances = {}
    for n in (100, 10_000):
        gum = ex._affine_sample(_copy(sup_samples[n]), 1.0, -(math.log(n) - 1.0))
        distances[n] = stats.ks_distance(gum, stats.gumbel_cdf)
    assert distances[10_000] < distances[100]


def test_gumbel_median_near_limit(sup_samples):
    n = 10_000
    med = float(np.median(sup_samples[n].values)) - (math.log(n) - 1.0)
    assert abs(med - (-math.log(math.log(2.0)))) <= 0.1


def test_clt_ks_decreases_through_the_sweep(clt_sweep):
    for q in (1.0, 2.0, 3.0):
        d = [stats.ks_distance(clt_sweep[(q, n)], stats.gaussian_cdf) for n in (100, 1000, 10_000)]
        assert d[0] > d[1] > d[2]


def test_ldp_oracle_median_bracket():
    n = 10**6
    log_n = math.log(n)
    below = oracle.max_spacing_cdf(n, (1.0 + 0.9 * log_n) / n).value
    above = oracle.max_spacing_cdf(n, (1.0 + 1.1 * log_n) / n).value
    assert below < 0.5 < above
