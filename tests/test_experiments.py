import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from simplex_limits import constants
from simplex_limits import experiments as ex
from simplex_limits import oracle
from simplex_limits import statistics as stats
from simplex_limits.constants import MomentConstants, moment_constants
from simplex_limits.rng import RandomStream
from simplex_limits.sampling import exponential_block, lp_ball_block

import reference as ref

ROOT = Path(__file__).resolve().parent.parent


def test_blocks_partition_replicates_exactly():
    for reps, n in ((1, 5), (100, 5), (10_000, 3000), (12_345, 1_000_000)):
        # block i is substream i, in order, and every block but the last is full
        expected = np.arange(reps) // (ex._BLOCK_ELEMS // n)
        for workers in (1, 2):
            ids = ex._collect(9, n, reps, workers, lambda s, rows: np.full(rows, s.stream_id))
            assert np.array_equal(ids, expected)


def test_collect_is_worker_count_invariant():
    # blocks of 2097, 2097 and 806 rows; 7 workers are more than the blocks
    a = ex.clt_sample(seed=5, n=1000, q=2.0, replicates=5000, workers=1)
    for workers in (2, 3, 7):
        b = ex.clt_sample(seed=5, n=1000, q=2.0, replicates=5000, workers=workers)
        assert np.array_equal(a.values, b.values)


def _block0(seed: int, n: int) -> RandomStream:
    # the stream of block 0 at dimension n, which holds every replicate here
    return RandomStream(seed).substream(n).substream(0)


@pytest.mark.parametrize("source,q", [
    *(pytest.param("simplex", q, id=str(q)) for q in (1.0, 2.0, 3.0, 2.5)),
    *(pytest.param(source, q, id=f"general-{source}-{q}")
      for source, q in (("exponential", 2.0), ("exponential", 2.5), ("uniform01", 1.0))),
])
def test_batch_clt_matches_scalar_statistic(source, q):
    seed, n, reps = 31, 20, 64
    if source == "simplex":
        mc = moment_constants(q)
        batch = ex.clt_sample(seed, n, q, reps)
        e = exponential_block(_block0(seed, n), reps, n)
        scalar = [ref.clt_statistic(row / row.sum() - 1.0 / n, mc) for row in e]
    else:
        dist = stats.SOURCE_DISTRIBUTIONS[source]
        mq = stats.abs_moment(dist, q)
        batch = ex.general_clt_sample(seed, n, q, source, mq, reps)
        x = dist.sample(_block0(seed, n).generator(), (reps, n))
        scalar = [ref.general_central_moment_stat(row, q, mq) for row in x]
    assert np.max(np.abs(np.sort(scalar) - batch.values)) < 1e-10


#: sup-norm theorem -> its statistic of one point, given the run's config
_SUP_REFERENCES = {
    "gumbel": lambda z, c: ref.gumbel_statistic(z),
    "ldp": lambda z, c: ref.ldp_statistic(z),
    "mdp": lambda z, c: ref.mdp_statistic(z, c.s_n(len(z))),
    "lp_ldp": lambda x, c: ref.lp_ldp_statistic(x, c.p),
}


# the norms almost never differ at n=25, so the indicator is compared at n=5
@pytest.mark.parametrize("kind,n", [*((kind, 25) for kind in _SUP_REFERENCES),
                                    ("equivalence_decay", 5)],
                         ids=[*_SUP_REFERENCES, "equivalence_decay"])
def test_batch_sup_matches_scalar_statistics(kind, n):
    seed, reps, p = 13, 2000, 2.0
    if kind == "equivalence_decay":
        freq, _ = ex.equivalence_frequency(seed, n, reps)
        hits = [ref.equivalence_indicator(row)
                for row in exponential_block(_block0(seed, n), reps, n)]
        assert any(hits) and freq == np.mean(hits)
        return
    if kind == "lp_ldp":
        points = lp_ball_block(_block0(seed, n), reps, n, p)
    else:
        points = [row / row.sum() - 1.0 / n
                  for row in exponential_block(_block0(seed, n), reps, n)]
    config = ex.ExperimentConfig(kind=kind, n_list=(n,), replicates=reps, seed=seed,
                                 p=p if kind == "lp_ldp" else None)
    th = ex.SUP_THEOREMS[kind]
    base, _ = th.sample(config, n)
    scale, shift = th.affine(config, n)
    scalar = [_SUP_REFERENCES[kind](point, config) for point in points]
    assert np.max(np.abs(np.sort(scalar) - (base.values * scale + shift))) < 1e-10


def test_config_validation():
    with pytest.raises(ValueError):
        ex.ExperimentConfig(kind="nope", n_list=(10,), replicates=10, seed=0)
    with pytest.raises(ValueError):
        ex.ExperimentConfig(kind="gumbel", n_list=(1,), replicates=10, seed=0)
    with pytest.raises(ValueError):
        ex.ExperimentConfig(kind="clt", n_list=(10,), replicates=0, seed=0)
    with pytest.raises(ValueError):
        ex.ExperimentConfig(kind="equivalence_decay", n_list=(500,), replicates=10, seed=0)
    with pytest.raises(ValueError):
        ex.ExperimentConfig(kind="clt", n_list=(10,), replicates=10, seed=0, s_n_rule="huh")
    for z in (math.nan, -math.inf):
        with pytest.raises(ValueError, match="thresholds"):
            ex.ExperimentConfig(kind="ldp", n_list=(300,), replicates=10, seed=0,
                                thresholds=(1.5, z))
    # RandomStream's range, checked before any row runs
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match="seed must be a 64-bit unsigned integer"):
            ex.ExperimentConfig(kind="clt", n_list=(10,), replicates=10, seed=seed)


def _forbid_draws(monkeypatch):
    def draw(*args, **kwargs):
        raise AssertionError("a config that cannot run drew a sample")

    monkeypatch.setattr(ex.sampling, "exponential_block", draw)
    monkeypatch.setattr(ex.sampling, "lp_ball_block", draw)
    monkeypatch.setattr(ex.sampling.RowReduction, "__call__", draw)


@pytest.mark.parametrize("config", [
    pytest.param(dict(kind="clt", n_list=(10,)), id="clt-without-q"),
    pytest.param(dict(kind="berry_esseen_sweep", n_list=(10, 20, 40)), id="sweep-without-q"),
    pytest.param(dict(kind="general_clt", n_list=(10,)), id="general_clt-without-q"),
    pytest.param(dict(kind="berry_esseen_sweep", n_list=(10, 20), q=2.0), id="sweep-of-two"),
    pytest.param(dict(kind="berry_esseen_sweep", n_list=(10, 20, 40), q=0.5), id="sweep-q0.5"),
    pytest.param(dict(kind="ldp", n_list=(10,)), id="ldp-without-thresholds"),
    pytest.param(dict(kind="lp_ldp", n_list=(10,), p=2.0), id="lp_ldp-without-thresholds"),
    pytest.param(dict(kind="lp_gumbel", n_list=(10,), p=2.0), id="lp_gumbel-at-p2"),
    # s_n = log log 10 = 0.83 is not in (1, log n)
    pytest.param(dict(kind="mdp", n_list=(10,), s_n_rule="log_log"), id="mdp-log_log-at-n10"),
    # only the gumbel, ldp and mdp theorems have exact oracle rows
    *(pytest.param(dict(config, oracle_n_list=(1000,)), id=f"{config['kind']}-with-oracle_n")
      for config in [dict(kind="clt", n_list=(10,), q=2.0),
                     dict(kind="berry_esseen_sweep", n_list=(10, 20, 40), q=2.0),
                     dict(kind="general_clt", n_list=(10,), q=2.0),
                     dict(kind="equivalence_decay", n_list=(5, 10)),
                     dict(kind="lp_ldp", n_list=(10,), p=2.0, thresholds=(1.3,)),
                     dict(kind="lp_gumbel", n_list=(10,), p=1.0)]),
])
def test_a_rejected_config_fails_before_any_draw(monkeypatch, config):
    _forbid_draws(monkeypatch)
    with pytest.raises(ValueError):
        ex.run(ex.ExperimentConfig(replicates=10, seed=0, **config))


@pytest.mark.parametrize("source, q", [("exponential", 2.0), ("uniform01", 507.0),
                                       ("uniform01", 600.0)])
def test_a_general_clt_variance_below_the_float_range_fails_before_any_draw(monkeypatch,
                                                                          source, q):
    if source == "exponential":
        # mu_q = mu_2q = 1 with no covariance: the limit variance is 0
        monkeypatch.setattr(stats, "moment_constants",
                            lambda q: MomentConstants(q, 1.0, 1.0, 1.0, 0.0))
    _forbid_draws(monkeypatch)
    with pytest.raises(OverflowError, match=re.escape(
            f"general_clt variance at q={q:g} falls below the float range")):
        ex.run(ex.ExperimentConfig(kind="general_clt", n_list=(10, 20), q=q, source=source,
                                   replicates=10, seed=0))


def test_uniform01_at_q500_yields_the_three_gaussian_rows():
    # its variance, 9.3e-305, is a normal float though 4**q overflows
    report = ex.run(ex.ExperimentConfig(kind="general_clt", n_list=(10,), q=500.0,
                                        source="uniform01", replicates=50, seed=0))
    assert [(r.experiment, r.n) for r in report.rows] == [
        ("general_clt:ks", 10), ("general_clt:mean", 10), ("general_clt:variance", 10)]
    assert report.rows[2].theory == stats.general_clt_variance(stats.Uniform01Dist, 500.0)


def test_a_mean_row_whose_sample_se_a_heavy_tail_inflates_fails():
    # `general-clt --source uniform01 --q 500 --n 1000 --replicates 2000`: the
    # studentized sample's own SE (4.3e9) would cover its mean (9.4e9); the
    # limit law's 1/sqrt(m) does not
    report = ex.run(ex.ExperimentConfig(kind="general_clt", n_list=(1000,), q=500.0,
                                        source="uniform01", replicates=2000, seed=0))
    mean = report.rows[1]
    assert mean.experiment == "general_clt:mean" and mean.estimate > mean.std_error > 1e9
    assert not mean.passed


@pytest.mark.parametrize("kind, n, z, cell", [
    # at n = 1e6 the product bound at x = -3 underflows (about e^-26000), and
    # x = -3.8 asks about s <= 1/n, where the CDF is 0 by pigeonhole
    pytest.param("mdp", 10**6, -3.0, math.inf, id="-3.0"),
    pytest.param("mdp", 10**6, -3.8, math.inf, id="-3.8"),
    # a spacing bound s <= 0, outside the oracle's domain: the CDF is 0, a
    # +inf rate for mdp and a CDF of 0 against Gumbel's 0 for gumbel
    pytest.param("mdp", 10**6, -4.0, math.inf, id="mdp-s-below-0"),
    pytest.param("gumbel", 10**4, -20.0, 0.0, id="gumbel-s-below-0"),
])
def test_an_exact_lower_tail_of_probability_zero_reads_as_an_infinite_rate(kind, n, z, cell):
    report = ex.run(ex.ExperimentConfig(kind=kind, n_list=(), oracle_n_list=(n,),
                                        thresholds=(z,), replicates=1, seed=0))
    assert [(r.experiment, r.estimate, r.theory, r.std_error, r.passed)
            for r in report.rows] == [(f"{kind}:oracle", cell, cell, 0.0, True)]


def test_a_general_clt_plan_quadratures_each_moment_once(monkeypatch):
    # abs_moment and general_clt_variance read one cached moment bundle:
    # mu_q and mu_2q at q = 2.5, not each of them twice
    calls, real = [], constants.mu_q

    def mu_q(q):
        calls.append(q)
        return real(q)

    constants.moment_constants.cache_clear()
    monkeypatch.setattr(constants, "mu_q", mu_q)
    try:
        ex.THEOREMS["general_clt"](ex.ExperimentConfig(kind="general_clt", n_list=(10,),
                                                       q=2.5, replicates=10, seed=0))
    finally:
        constants.moment_constants.cache_clear()
    assert sorted(calls) == [2.5, 5.0]


@pytest.mark.parametrize("flags, message", [
    (["--workers", "0"], "workers must be >= 1"),
    (["--seed", "-5"], "seed must be a 64-bit unsigned integer, got -5"),
])
def test_battery_script_rejects_a_bad_flag_before_writing(tmp_path, flags, message):
    outdir = tmp_path / "reports"
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "run_all_experiments.py"),
                           "--quick", "--outdir", str(outdir), *flags], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == 2
    assert proc.stderr == f"error: {message}\n"
    assert not outdir.exists()


def test_config_fields_take_their_json_types():
    # a Python caller gets the config the CLI builds from the same values
    cfg = ex.ExperimentConfig(kind="clt", n_list=[300], q=2, replicates=10, seed=0)
    assert cfg.n_list == (300,) and isinstance(cfg.q, float)
    assert cfg == ex.ExperimentConfig(kind="clt", n_list=(300,), q=2.0, replicates=10, seed=0)
    for bad in ({"replicates": "10"}, {"q": "2"}, {"seed": True}, {"n_list": 300},
                {"thresholds": [1, "x"]}, {"workers": None}):
        with pytest.raises(ValueError, match=f"config field {next(iter(bad))!r}"):
            ex.ExperimentConfig(**{"kind": "clt", "n_list": (300,), "replicates": 10,
                                   "seed": 0, **bad})


@pytest.mark.parametrize("kind", ["gumbel", "ldp", "mdp"])
def test_oracle_dimension_below_two_is_rejected_at_construction(kind):
    with pytest.raises(ValueError, match="oracle_n_list"):
        ex.ExperimentConfig(kind=kind, n_list=(300,), replicates=10, seed=0,
                            thresholds=(1.5,), oracle_n_list=(1000, 1))


def test_the_kind_field_table_lists_every_kind():
    assert set(ex._KIND_FIELDS) == set(ex.THEOREMS)
    defaulted = {f.name for f in dataclasses.fields(ex.ExperimentConfig)
                 if f.default is not dataclasses.MISSING}
    assert set(ex._OPTIONAL_FIELDS) <= defaulted
    for fields in ex._KIND_FIELDS.values():
        assert set(fields) <= set(ex._OPTIONAL_FIELDS)


def test_config_roundtrip():
    cfg = ex.ExperimentConfig(kind="ldp", n_list=(100, 200), replicates=10, seed=1,
                              thresholds=(1.5, 0.5), oracle_n_list=(1000,))
    assert ex.ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg


def test_run_clt_rows_and_pass_logic():
    cfg = ex.ExperimentConfig(kind="clt", n_list=(100,), q=2.0, replicates=20_000, seed=2)
    report = ex.run(cfg)
    by_kind = {r.experiment: r for r in report.rows}
    assert set(by_kind) == {"clt:ks", "clt:mean", "clt:variance"}
    ks = by_kind["clt:ks"]
    # at n=100 the true KS distance is ~0.1, far beyond the 0.02 tolerance
    assert 0.05 < ks.estimate < 0.15 and not ks.passed
    var = by_kind["clt:variance"]
    assert var.theory == 1.0  # sigma_2^2
    assert abs(var.estimate - 1.0) < 0.15


def test_run_general_clt_uniform_source():
    # n must be large enough that the O(1/sqrt(n)) mean bias sits inside 4 SE
    cfg = ex.ExperimentConfig(kind="general_clt", n_list=(10_000,), q=1.0, seed=3,
                              replicates=10_000, source="uniform01", workers=2)
    report = ex.run(cfg)
    by_kind = {r.experiment: r for r in report.rows}
    assert by_kind["general_clt:variance"].theory == pytest.approx(1.0 / 48.0, abs=1e-9)
    assert by_kind["general_clt:variance"].passed
    assert by_kind["general_clt:ks"].passed
    assert by_kind["general_clt:mean"].passed


def test_run_gumbel_with_oracle_rows():
    cfg = ex.ExperimentConfig(kind="gumbel", n_list=(1000,), replicates=20_000, seed=4,
                              oracle_n_list=(100_000,), workers=2)
    report = ex.run(cfg)
    ks_rows = [r for r in report.rows if r.experiment == "gumbel:ks"]
    oracle_rows = [r for r in report.rows if r.experiment == "gumbel:oracle"]
    assert len(ks_rows) == 1 and ks_rows[0].passed
    assert [r.threshold for r in oracle_rows] == [-1.0, 0.0, 1.0, 2.0]
    assert all(r.passed for r in oracle_rows)


def test_run_ldp_upper_and_lower_tails():
    cfg = ex.ExperimentConfig(kind="ldp", n_list=(2000,), replicates=100_000, seed=6,
                              thresholds=(1.5, 0.5), oracle_n_list=(10_000, 100_000),
                              workers=2)
    report = ex.run(cfg)
    mc = {r.threshold: r for r in report.rows if r.experiment == "ldp:mc"}
    assert mc[1.5].theory == 0.5
    assert 0.3 <= mc[1.5].estimate <= 0.8 and mc[1.5].passed
    # lower tail: probability ~7e-8 at n=2000, so the tail must come up empty
    assert math.isinf(mc[0.5].theory)
    assert math.isinf(mc[0.5].estimate) and mc[0.5].passed
    oracle_rows = [r for r in report.rows if r.experiment == "ldp:oracle"]
    assert [r.n for r in oracle_rows] == [10_000, 100_000]
    assert all(r.passed for r in oracle_rows)
    trend = [r for r in report.rows if r.experiment == "ldp:oracle_trend"]
    assert len(trend) == 1  # gap still > 0.1 at n=1e5, so the row reports honestly
    assert trend[0].estimate == pytest.approx(abs(0.587 - 0.5), abs=0.01)


def test_run_mdp_oracle_rows():
    cfg = ex.ExperimentConfig(kind="mdp", n_list=(), replicates=1, seed=7,
                              thresholds=(1.0, -1.0), oracle_n_list=(10**6,))
    report = ex.run(cfg)
    upper = next(r for r in report.rows if r.threshold == 1.0)
    lower = next(r for r in report.rows if r.threshold == -1.0)
    assert upper.theory == 1.0 and 0.6 <= upper.estimate <= 1.4 and upper.passed
    # exact series cancels at n=1e6; the certified bound still proves the decay
    assert math.isinf(lower.theory) and lower.estimate >= 3.0 and lower.passed


def test_run_mdp_monte_carlo_rows():
    cfg = ex.ExperimentConfig(kind="mdp", n_list=(10_000,), replicates=50_000, seed=8,
                              thresholds=(1.0,), workers=2)
    report = ex.run(cfg)
    row = next(r for r in report.rows if r.experiment == "mdp:mc")
    assert row.theory == 1.0
    assert 0.6 <= row.estimate <= 1.4 and row.passed


def test_run_lp_ldp():
    cfg = ex.ExperimentConfig(kind="lp_ldp", n_list=(1000,), p=2.0, replicates=20_000,
                              seed=9, thresholds=(1.3,), workers=2)
    report = ex.run(cfg)
    member = next(r for r in report.rows if r.experiment == "lp_ldp:membership")
    assert member.estimate <= 1.0 + 1e-12 and member.passed
    dev = next(r for r in report.rows if r.experiment == "lp_ldp:mc")
    assert dev.theory == pytest.approx(0.69)
    assert 0.3 <= dev.estimate <= 1.2 and dev.passed


def test_run_lp_gumbel_requires_p1():
    cfg = ex.ExperimentConfig(kind="lp_gumbel", n_list=(2000,), p=1.0, replicates=20_000,
                              seed=10, workers=2)
    report = ex.run(cfg)
    ks_row = next(r for r in report.rows if r.experiment == "lp_gumbel:ks")
    assert ks_row.estimate <= 0.05 and ks_row.passed
    with pytest.raises(ValueError):
        ex.run(ex.ExperimentConfig(kind="lp_gumbel", n_list=(100,), p=2.0,
                                   replicates=10, seed=0))


def test_run_equivalence_decay_small():
    cfg = ex.ExperimentConfig(kind="equivalence_decay", n_list=(5, 10, 20),
                              replicates=200_000, seed=11, workers=2)
    report = ex.run(cfg)
    freqs = [r.estimate for r in report.rows]
    assert freqs[0] > freqs[1] > freqs[2]
    assert all(r.passed for r in report.rows)
    assert freqs[0] == pytest.approx(0.184, abs=0.01)


def test_run_berry_esseen_sweep_bounded():
    cfg = ex.ExperimentConfig(kind="berry_esseen_sweep", n_list=(100, 316, 1000),
                              q=2.0, replicates=20_000, seed=12, workers=2)
    report = ex.run(cfg)
    ratios = [r for r in report.rows if r.experiment == "berry_esseen:ratio"]
    assert len(ratios) == 3
    assert all(r.passed for r in ratios)
    ks_rows = [r for r in report.rows if r.experiment == "berry_esseen:ks"]
    assert all(0.0 <= r.estimate <= 1.0 and r.passed for r in ks_rows)
    with pytest.raises(ValueError):
        ex.run(ex.ExperimentConfig(kind="berry_esseen_sweep", n_list=(100, 200),
                                   q=2.0, replicates=10, seed=0))


def test_report_serialization_roundtrip():
    cfg = ex.ExperimentConfig(kind="ldp", n_list=(100,), replicates=500, seed=13,
                              thresholds=(0.5,))
    report = ex.run(cfg)
    again = ex.report_from_json(report.to_json())
    assert again.rows == report.rows
    assert again.config == report.config
    csv_text = report.to_csv()
    assert csv_text.splitlines()[2] == "experiment,n,param,threshold,estimate,theory,std_error,pass"
    assert ",inf," in csv_text  # +inf rate region serialized as the string inf


def test_report_is_replay_identical():
    cfg = ex.ExperimentConfig(kind="gumbel", n_list=(200,), replicates=2000, seed=14,
                              workers=2)
    assert ex.run(cfg).to_csv() == ex.run(cfg).to_csv()
    assert ex.run(cfg).to_json() == ex.run(cfg).to_json()


def test_report_replicate_count_is_exact():
    sample = ex.clt_sample(seed=15, n=7, q=1.0, replicates=12_345)
    assert sample.replicates == 12_345


def test_equivalence_frequency_is_zero_at_n2():
    # the two centered coordinates are negatives of each other, so the norms
    # can never differ
    freq, se = ex.equivalence_frequency(seed=16, n=2, replicates=10_000)
    assert freq == 0.0 and se == 0.0


def test_ldp_tail_frequency_matches_exact_oracle():
    import simplex_limits.oracle as oracle
    from simplex_limits.statistics import tail_log_prob

    n, reps, z = 1000, 100_000, 1.5
    base = ex.sup_norm_sample(seed=17, n=n, replicates=reps, workers=2)
    sample = ex._affine_sample(base, 1.0 / math.log(n), 0.0)
    dev = tail_log_prob(sample, z, speed=math.log(n), direction="above")
    phat = dev.hit_count / reps
    exact = oracle.max_spacing_sf(n, (1.0 + z * math.log(n)) / n).value
    se = math.sqrt(exact * (1.0 - exact) / reps)
    assert abs(phat - exact) <= 3.0 * se


def test_clt_mean_row_within_4_se_at_calibrated_size():
    # the O(1/sqrt(n)) mean bias sits inside 4 standard errors only when the
    # replicate budget is matched to n; this is that calibrated pairing
    sample = ex.clt_sample(seed=18, n=10_000, q=2.0, replicates=10_000, workers=2)
    mean = float(sample.values.mean())
    se = float(sample.values.std()) / 100.0
    assert abs(mean) <= 4.0 * se


def test_config_without_rows_raises():
    with pytest.raises(ValueError, match="no report rows"):
        ex.run(ex.ExperimentConfig(kind="clt", n_list=(), q=2.0, replicates=10, seed=0))
    with pytest.raises(ValueError, match="no report rows"):
        ex.run(ex.ExperimentConfig(kind="ldp", n_list=(), replicates=10, seed=0,
                                   thresholds=(0.5,), oracle_n_list=(10_000,)))


def test_mdp_oracle_lower_tail_uses_the_inf_region_floor(monkeypatch):
    cfg = ex.ExperimentConfig(kind="mdp", n_list=(), replicates=1, seed=7,
                              thresholds=(-1.0,), oracle_n_list=(10**6,))
    (row,) = ex.run(cfg).rows
    assert row.passed
    monkeypatch.setitem(ex.TOLERANCES, "inf_region_min", row.estimate + 1.0)
    (row,) = ex.run(cfg).rows
    assert not row.passed


def _exact_row(kind: str, n: int, z: float) -> ex.ReportRow:
    cfg = ex.ExperimentConfig(kind=kind, n_list=(), replicates=1, seed=0, thresholds=(z,))
    row = ex.SUP_THEOREMS[kind].exact(cfg, n, z, "param")
    assert (row.experiment, row.n, row.param, row.threshold) == (f"{kind}:oracle", n, "param", z)
    return row


def _rate_row(res, speed: float, theory: float, passed: bool) -> tuple:
    # estimate, theory, std_error and pass of a deviation row on an exact probability
    return -math.log(res.value) / speed, theory, res.error_bound / (res.value * speed), passed


def test_gumbel_exact_row_is_the_exact_cdf_against_the_gumbel_cdf():
    row = _exact_row("gumbel", 1000, 0.0)
    res = oracle.max_spacing_cdf(1000, math.log(1000) / 1000)
    theory = float(stats.gumbel_cdf(0.0))
    assert (row.estimate, row.theory, row.std_error, row.passed) == (
        res.value, theory, res.error_bound,
        abs(res.value - theory) <= ex.TOLERANCES["gumbel_oracle_abs"])


def test_ldp_exact_row_is_the_normalized_exact_upper_tail():
    n, z, (below, above) = 10_000, 1.5, ex.TOLERANCES["ldp_band"]
    res = oracle.max_spacing_sf(n, (1.0 + z * math.log(n)) / n)
    rate = -math.log(res.value) / math.log(n)
    expected = _rate_row(res, math.log(n), 0.5, 0.5 - below <= rate <= 0.5 + above)
    row = _exact_row("ldp", n, z)
    assert (row.estimate, row.theory, row.std_error, row.passed) == expected
    assert row.passed


def test_mdp_exact_rows_take_the_finite_side_and_fall_back_on_cancellation():
    n = 10**6
    s_n = math.sqrt(math.log(n))
    below, above = ex.TOLERANCES["mdp_band"]
    res = oracle.max_spacing_sf(n, (1.0 + math.log(n) + s_n * 1.0) / n)
    rate = -math.log(res.value) / s_n
    row = _exact_row("mdp", n, 1.0)
    assert (row.estimate, row.theory, row.std_error, row.passed) == _rate_row(
        res, s_n, 1.0, 1.0 - below <= rate <= 1.0 + above)
    # x = -1 has rate +inf: the exact lower tail cancels at this n, so the row
    # is the certified product bound's, judged by the super-decay floor
    s = (1.0 + math.log(n) + s_n * -1.0) / n
    with pytest.raises(oracle.CancellationError):
        oracle.max_spacing_cdf(n, s)
    res = oracle.max_spacing_cdf_upper(n, s)
    rate = -math.log(res.value) / s_n
    row = _exact_row("mdp", n, -1.0)
    assert (row.estimate, row.theory, row.std_error, row.passed) == _rate_row(
        res, s_n, math.inf, rate >= ex.TOLERANCES["inf_region_min"])
    assert row.passed


def test_table_text_needs_columns_for_an_empty_table():
    with pytest.raises(ValueError, match="columns"):
        ex.table_text([], "csv", "note")
    text = ex.table_text([], "csv", "note", columns=("a", "b"))
    assert text.splitlines()[-1] == "a,b"
