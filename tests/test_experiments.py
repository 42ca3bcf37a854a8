import json
import math

import numpy as np
import pytest

from simplex_limits import experiments as ex
from simplex_limits import statistics as stats
from simplex_limits.constants import moment_constants
from simplex_limits.rng import RandomStream
from simplex_limits.sampling import SimplexPoint, exponential_block


def test_blocks_partition_replicates_exactly():
    for reps, n in ((1, 5), (100, 5), (10_000, 3000), (12_345, 1_000_000)):
        blocks = ex._blocks(reps, n)
        assert sum(rows for _, rows in blocks) == reps
        assert [i for i, _ in blocks] == list(range(len(blocks)))


def test_collect_is_worker_count_invariant():
    for workers in (2, 3, 7):
        a = ex.clt_sample(seed=5, n=40, q=2.0, replicates=4000, workers=1)
        b = ex.clt_sample(seed=5, n=40, q=2.0, replicates=4000, workers=workers)
        assert np.array_equal(a.values, b.values)


@pytest.mark.parametrize("q", [1.0, 2.0, 3.0, 2.5])
def test_batch_clt_matches_scalar_statistic(q):
    seed, n, reps = 31, 20, 64
    mc = moment_constants(q)
    batch = ex.clt_sample(seed, n, q, reps, mc=mc)
    e = exponential_block(RandomStream(seed).substream(n).substream(0), reps, n)
    scalar = []
    for row in e:
        point = SimplexPoint(coords=row / row.sum() - 1.0 / n, n=n, centered=True)
        scalar.append(stats.clt_statistic(point, q, mc))
    assert np.max(np.abs(np.sort(scalar) - batch.values)) < 1e-10


def test_batch_sup_matches_scalar_statistics():
    seed, n, reps = 13, 25, 64
    base = ex.sup_norm_sample(seed, n, reps)
    e = exponential_block(RandomStream(seed).substream(n).substream(0), reps, n)
    gumbel, ldp = [], []
    for row in e:
        point = SimplexPoint(coords=row / row.sum() - 1.0 / n, n=n, centered=True)
        gumbel.append(stats.gumbel_statistic(point))
        ldp.append(stats.ldp_statistic(point))
    assert np.max(np.abs(np.sort(gumbel) -
                         (base.values - (math.log(n) - 1.0)))) < 1e-10
    assert np.max(np.abs(np.sort(ldp) - base.values / math.log(n))) < 1e-10


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
    sample = ex._affine_sample(base, 1.0 / math.log(n), 0.0, "ldp")
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


def test_table_text_needs_columns_for_an_empty_table():
    with pytest.raises(ValueError, match="columns"):
        ex.table_text([], "csv", "note")
    text = ex.table_text([], "csv", "note", columns=("a", "b"))
    assert text.splitlines()[-1] == "a,b"
