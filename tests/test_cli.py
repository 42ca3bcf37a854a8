import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from simplex_limits import cli, experiments, sampling


def run_cli(args):
    return cli.main(args)


def test_constants_json_has_exact_mu1(tmp_path, capsys):
    out = tmp_path / "c.json"
    assert run_cli(["constants", "--q", "1,2,3", "--format", "json",
                    "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["rows"][0]["mu_q"] == pytest.approx(2.0 / math.e, abs=1e-12)
    assert payload["rows"][1]["sigma_q_sq"] == 1.0


def test_constants_csv_and_json_carry_equal_content(tmp_path):
    csv_path, json_path = tmp_path / "c.csv", tmp_path / "c.json"
    run_cli(["constants", "--q", "1,2", "--out", str(csv_path)])
    run_cli(["constants", "--q", "1,2", "--format", "json", "--out", str(json_path)])
    header, *rows = [l for l in csv_path.read_text().splitlines() if not l.startswith("#")]
    columns = header.split(",")
    payload = json.loads(json_path.read_text())
    for csv_row, json_row in zip(rows, payload["rows"]):
        for column, token in zip(columns, csv_row.split(",")):
            value = json_row[column]
            assert token == (f"{value:.17g}" if isinstance(value, float) else str(value))


def test_experiment_reruns_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["gumbel", "--n", "300", "--replicates", "2000", "--seed", "42",
            "--oracle-n", "100000"]
    assert run_cli(args + ["--out", str(a)]) == 0
    assert run_cli(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_worker_count_does_not_change_output(tmp_path):
    one, two = tmp_path / "w1.csv", tmp_path / "w2.csv"
    base = ["clt", "--n", "500", "--q", "2", "--replicates", "4000", "--seed", "9",
            "--oracle-n", ""]
    assert run_cli(base + ["--workers", "1", "--out", str(one)]) == 0
    assert run_cli(base + ["--workers", "2", "--out", str(two)]) == 0
    assert one.read_bytes() == two.read_bytes()


def test_ldp_lower_tail_flagged_infinite(tmp_path):
    out = tmp_path / "ldp.csv"
    assert run_cli(["ldp", "--n", "1000", "--z", "0.5", "--replicates", "5000",
                    "--seed", "1", "--oracle-n", "", "--out", str(out)]) == 0
    row = [l for l in out.read_text().splitlines() if l.startswith("ldp:mc")][0]
    fields = dict(zip(["experiment", "n", "param", "threshold", "estimate",
                       "theory", "std_error", "pass"], row.split(",")))
    assert fields["theory"] == "inf"
    assert fields["estimate"] == "inf"  # empty tail at these settings


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": [200], "replicates": 1000, "seed": 7, "z": [1.5]}))
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    assert run_cli(["ldp", "--config", str(cfg), "--oracle-n", "",
                    "--out", str(out1)]) == 0
    assert "\"seed\": 7" in out1.read_text()
    # explicit flag beats the file value
    assert run_cli(["ldp", "--config", str(cfg), "--seed", "8", "--oracle-n", "",
                    "--out", str(out2)]) == 0
    assert "\"seed\": 8" in out2.read_text()


def test_report_conversion_matches_direct_csv(tmp_path):
    json_out, csv_direct, csv_converted = (tmp_path / "r.json", tmp_path / "a.csv",
                                           tmp_path / "b.csv")
    args = ["equivalence", "--n", "5,10", "--replicates", "5000", "--seed", "3"]
    assert run_cli(args + ["--format", "json", "--out", str(json_out)]) == 0
    assert run_cli(args + ["--out", str(csv_direct)]) == 0
    assert run_cli(["report", "--in", str(json_out), "--format", "csv",
                    "--out", str(csv_converted)]) == 0
    assert csv_direct.read_bytes() == csv_converted.read_bytes()


def test_report_cells_read_back_with_their_types(tmp_path):
    # a Gumbel KS row has null cells; an empty ldp tail and a z < 1 row, infinite ones
    for args, cell in ((["gumbel", "--n", "100", "--oracle-n", "1000"], "null"),
                       (["ldp", "--n", "100", "--z", "3,0.5", "--oracle-n", "1000"], '"inf"')):
        json_out, converted = tmp_path / "r.json", tmp_path / "c.json"
        assert run_cli(args + ["--replicates", "200", "--seed", "5", "--format", "json",
                               "--out", str(json_out)]) == 0
        text = json_out.read_text()
        assert cell in text
        report = experiments.report_from_json(text)
        assert all(type(r.n) is int and type(r.passed) is bool for r in report.rows)
        assert run_cli(["report", "--in", str(json_out), "--format", "json",
                        "--out", str(converted)]) == 0
        assert converted.read_bytes() == json_out.read_bytes()


def _without(d, *path):
    # d with the key at the end of path deleted
    inner = d
    for key in path[:-1]:
        inner = inner[key]
    del inner[path[-1]]
    return d


def _with_config(report, **values):
    return {**report, "config": {**report["config"], **values}}


def _with_row(report, **values):
    # report with the cells of its first row replaced
    return {**report, "rows": [{**report["rows"][0], **values}, *report["rows"][1:]]}


@pytest.mark.parametrize("edit, message", [
    (lambda r: {}, "report has no key 'rows', 'config'"),
    (lambda r: [r], "report must be a JSON object, got list"),
    (lambda r: _without(r, "rows", 0, "n"), "report row 0 has no key 'n'"),
    (lambda r: _without(r, "config", "seed"), "config has no key 'seed'"),
    (lambda r: {**r, "config": {**r["config"], "bogus": 1}}, "config has unknown keys 'bogus'"),
    (lambda r: _with_config(r, replicates="100"),
     "config field 'replicates' must be an integer, got '100'"),
    (lambda r: _with_config(r, workers=None), "config field 'workers' must be an integer"),
    (lambda r: _with_config(r, n_list=5), "config field 'n_list' must be a list of integers"),
    (lambda r: _with_config(r, q="2"), "config field 'q' must be a number, got '2'"),
    (lambda r: _with_config(r, seed="x"), "config field 'seed' must be an integer"),
    (lambda r: _with_row(r, estimate=[1]),
     "report row 0 column 'estimate' must be a number, null, \"inf\" or \"-inf\", got [1]"),
    (lambda r: _with_row(r, n="abc", **{"pass": "yes"}),
     "report row 0 column 'n' must be an integer, got 'abc'"),
    (lambda r: _with_row(r, **{"pass": "yes"}),
     "report row 0 column 'pass' must be true or false, got 'yes'"),
    (lambda r: _with_row(r, experiment=1), "report row 0 column 'experiment' must be a string"),
    (lambda r: _with_row(r, theory="nan"), "report row 0 column 'theory' must be a number"),
    (lambda r: _with_row(r, bogus=1, estimat=5),
     "report row 0 has unknown keys 'bogus', 'estimat'"),
    (lambda r: {**r, "bogus": 1}, "report has unknown keys 'bogus'"),
    (lambda r: {**r, "tool_version": "9.9.9"},
     f"report tool_version '9.9.9' is not this version, '{experiments.TOOL_VERSION}'"),
], ids=["empty", "list", "row_without_n", "config_without_seed", "unknown_config_key",
        "replicates_string", "workers_null", "n_list_number", "q_string", "seed_string",
        "estimate_list", "n_string", "pass_string", "experiment_number", "theory_nan_string",
        "unknown_row_keys", "unknown_top_key", "foreign_tool_version"])
def test_report_from_malformed_json_is_a_usage_error(tmp_path, capsys, edit, message):
    report = tmp_path / "r.json"
    assert run_cli(["equivalence", "--n", "5", "--replicates", "100", "--format", "json",
                    "--out", str(report)]) == 0
    report.write_text(json.dumps(edit(json.loads(report.read_text()))))
    assert run_cli(["report", "--in", str(report)]) == 2
    assert message in capsys.readouterr().err


def test_sample_command_deterministic_and_in_ball(tmp_path):
    a, b = tmp_path / "s1.csv", tmp_path / "s2.csv"
    args = ["sample", "--kind", "ball", "--n", "4", "--count", "8", "--p", "1.5",
            "--seed", "11"]
    assert run_cli(args + ["--out", str(a)]) == 0
    assert run_cli(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    rows = [l for l in a.read_text().splitlines() if not l.startswith(("#", "x1,"))]
    for row in rows:
        coords = [float(tok) for tok in row.split(",")]
        assert sum(abs(c) ** 1.5 for c in coords) ** (1 / 1.5) <= 1.0 + 1e-12


def test_oracle_command(capsys):
    assert run_cli(["oracle", "--op", "max-spacing-cdf", "--n", "2", "--s", "0.6"]) == 0
    out = capsys.readouterr().out
    assert "0.19999999999999996" in out or "0.2" in out
    # the sup norm is a norm order the oracle takes, unlike a moment order
    assert run_cli(["oracle", "--op", "small-n-norm-cdf", "--n", "2", "--q", "inf",
                    "--t", "0.5"]) == 0
    assert "small-n-norm-cdf,2,inf,0.5,1," in capsys.readouterr().out


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["gumbel", "--no-such-flag"])
    assert exc.value.code == 2
    assert run_cli(["clt", "--q", "0.5", "--n", "100", "--replicates", "10"]) == 2
    assert run_cli(["ldp", "--n", "1", "--z", "1.5", "--replicates", "10"]) == 2


@pytest.mark.parametrize("args, message", [
    (["report", "--in", "{missing}"], "--in {missing}: No such file or directory"),
    (["clt", "--config", "{missing}"], "--config {missing}: No such file or directory"),
    (["report", "--in", "{dir}"], "--in {dir}: Is a directory"),
], ids=["report_missing", "config_missing", "report_directory"])
def test_unreadable_input_file_is_a_usage_error(tmp_path, capsys, args, message):
    paths = {"missing": tmp_path / "nope.json", "dir": tmp_path}
    assert run_cli([a.format(**paths) for a in args]) == 2
    assert message.format(**paths) in capsys.readouterr().err


def test_failed_output_write_exits_1(tmp_path, capsys):
    args = ["equivalence", "--n", "5", "--replicates", "100"]
    assert run_cli(args + ["--out", str(tmp_path)]) == 1
    assert run_cli(args + ["--out", str(tmp_path / "no_dir" / "r.csv")]) == 1
    assert "No such file or directory" in capsys.readouterr().err


def test_numerical_errors_exit_1():
    # deep lower tail: the alternating series aborts with a diagnostic
    assert run_cli(["oracle", "--op", "max-spacing-cdf", "--n", "10000",
                    "--s", "0.00056"]) == 1


def test_huge_integer_q_fails_at_once():
    # mu_q overflows a float from q = 171; the timeout turns a hang into a failure
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-m", "simplex_limits.cli", "constants", "--q",
                           "1000000"], capture_output=True, text=True, timeout=20,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 1
    assert "q=1e+06 exceeds the float range" in proc.stderr
    assert run_cli(["constants", "--q", "85"]) == 0  # mu_170, the largest in range


@pytest.mark.parametrize("args", [["constants", "--q", "85.5"], ["constants", "--q", "86"],
                                  ["clt", "--q", "85.5", "--n", "100", "--replicates", "10"]])
def test_q_past_the_float_range_fails_the_same_way_at_any_q(monkeypatch, capsys, args):
    # mu_2q leaves the float range above q = 85.31, integer q or not
    def must_not_sample(*args, **kwargs):
        raise AssertionError("sampled before the moment constants were checked")

    monkeypatch.setattr(sampling, "exponential_block", must_not_sample)
    assert run_cli(args) == 1
    assert "exceeds the float range (Gamma(q + 1) overflows above q = 170.62)" in (
        capsys.readouterr().err)


def test_a_general_clt_variance_past_the_float_range_exits_1_before_any_draw(monkeypatch,
                                                                           capsys):
    def must_not_sample(*args, **kwargs):
        raise AssertionError("sampled before the variance was checked")

    monkeypatch.setattr(sampling.RowReduction, "__call__", must_not_sample)
    assert run_cli(["general-clt", "--source", "uniform01", "--q", "600"]) == 1
    assert capsys.readouterr().err == (
        "error: general_clt variance at q=600 falls below the float range (smallest normal "
        "float 2.2e-308; for uniform01 above q = 506.00)\n")


def test_an_lp_sup_rate_past_the_float_range_exits_1_before_any_draw(monkeypatch, capsys):
    def must_not_sample(*args, **kwargs):
        raise AssertionError("sampled before the rate was computed")

    monkeypatch.setattr(sampling, "lp_ball_block", must_not_sample)
    assert run_cli(["lpball", "--law", "ldp", "--p", "2", "--z", "1e200"]) == 1
    assert capsys.readouterr().err == (
        "error: lp_sup rate z**p - 1 at z=1e+200, p=2 exceeds the float range\n")


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["--version"])
    assert exc.value.code == 0
    assert "simplex-limits 0.1.0" in capsys.readouterr().out


def test_config_yielding_no_rows_is_a_usage_error(capsys):
    assert run_cli(["clt", "--n", ""]) == 2
    assert run_cli(["ldp", "--n", "", "--z", "0.5", "--oracle-n", "10000"]) == 2
    assert "no report rows" in capsys.readouterr().err


@pytest.mark.parametrize("args, message", [
    (["gumbel", "--n", "300", "--replicates", "100", "--oracle-n", "1"], "oracle_n_list"),
    # each of these used to sample for 10-20 s before its speed or oracle row failed
    (["mdp", "--n", "10000", "--replicates", "200000", "--oracle-n", "2"], "inadmissible speed"),
    (["mdp", "--n", "10000,2", "--replicates", "200000"], "inadmissible speed"),
    (["gumbel", "--n", "10000", "--replicates", "200000", "--oracle-n", "5", "--z", "5"],
     "threshold must lie in (0, 1)"),
    (["ldp", "--n", "1000", "--replicates", "1000000", "--oracle-n", "10", "--z", "20"],
     "threshold must lie in (0, 1)"),
    (["lpball", "--law", "ldp", "--p", "2", "--n", "200", "--z", "1.3", "--replicates", "2000",
      "--oracle-n", "1000"], "lp_ldp experiments do not read oracle_n_list"),
    # a report's config must not claim a value that its run never read
    (["gumbel", "--q", "3"], "gumbel experiments do not read q, got 3.0"),
    (["clt", "--source", "uniform01"], "clt experiments do not read source, got 'uniform01'"),
    (["clt", "--z", "1"], "clt experiments do not read thresholds, got (1.0,)"),
    (["lpball", "--law", "gumbel", "--p", "1", "--z", "5"],
     "lp_gumbel experiments do not read thresholds, got (5.0,)"),
    (["equivalence", "--sn", "log_log"],
     "equivalence_decay experiments do not read s_n_rule, got 'log_log'"),
], ids=["gumbel_oracle_n_1", "mdp_oracle_n_2", "mdp_n_2", "gumbel_oracle_threshold",
        "ldp_oracle_threshold", "lp_ldp_oracle_n", "gumbel_q", "clt_source", "clt_z",
        "lp_gumbel_z", "equivalence_sn"])
def test_config_error_is_a_usage_error_before_sampling(monkeypatch, capsys, args, message):
    def must_not_sample(*args, **kwargs):
        raise AssertionError("sampled before the config was checked")

    monkeypatch.setattr(sampling, "exponential_block", must_not_sample)
    monkeypatch.setattr(sampling, "lp_ball_block", must_not_sample)
    assert run_cli(args + ["--workers", "1"]) == 2
    assert message in capsys.readouterr().err


#: experiment subcommand and --law -> the config it runs with no flags
_PRESETS = {
    ("clt",): dict(kind="clt", n_list=[100, 10_000], q=2.0, replicates=10_000),
    ("berry-esseen",): dict(kind="berry_esseen_sweep", n_list=[100, 1_000, 10_000], q=2.0,
                            replicates=10_000),
    ("gumbel",): dict(kind="gumbel", n_list=[10_000], replicates=10_000,
                      oracle_n_list=[1_000_000]),
    ("ldp",): dict(kind="ldp", n_list=[1_000], replicates=100_000, thresholds=[1.5],
                   oracle_n_list=[10_000, 100_000, 1_000_000]),
    ("mdp",): dict(kind="mdp", n_list=[], replicates=1, thresholds=[1.0],
                   oracle_n_list=[1_000_000]),
    ("lpball",): dict(kind="lp_ldp", n_list=[1_000], p=2.0, replicates=100_000,
                      thresholds=[1.3]),
    ("lpball", "--law", "gumbel"): dict(kind="lp_gumbel", n_list=[10_000], p=1.0,
                                        replicates=10_000),
    ("equivalence",): dict(kind="equivalence_decay", n_list=[5, 10, 20, 50, 100],
                           replicates=100_000),
    ("general-clt",): dict(kind="general_clt", n_list=[10_000], q=2.0, replicates=10_000),
}


@pytest.mark.parametrize("command", list(_PRESETS), ids=lambda c: "-".join(c))
def test_experiment_presets(monkeypatch, tmp_path, command):
    monkeypatch.setattr(experiments, "run",
                        lambda config: experiments.ExperimentReport(rows=[], config=config))
    out = tmp_path / "r.json"
    assert run_cli([*command, "--format", "json", "--out", str(out)]) == 0
    base = dict(seed=0, q=None, p=None, thresholds=[], s_n_rule="sqrt_log",
                source="exponential", oracle_n_list=[])
    assert json.loads(out.read_text())["config"] == {**base, **_PRESETS[command]}


def test_config_file_unknown_keys_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_list": [5], "replicates": 1000, "replicat": 5}))
    assert run_cli(["equivalence", "--config", str(cfg), "--out",
                    str(tmp_path / "r.csv")]) == 2
    err = capsys.readouterr().err
    assert "n_list" in err and "replicat" in err
    # a saved report's own config uses the field names, not the file keys
    report = tmp_path / "r.json"
    assert run_cli(["equivalence", "--n", "5", "--replicates", "1000", "--format", "json",
                    "--out", str(report)]) == 0
    cfg.write_text(json.dumps(json.loads(report.read_text())["config"]))
    assert run_cli(["equivalence", "--config", str(cfg)]) == 2
    assert "n_list" in capsys.readouterr().err


@pytest.mark.parametrize("values, key", [
    ({"n": 300, "replicates": 100}, "n"),
    ({"n": [300], "z": 1.5}, "z"),
    ({"n": [300], "oracle_n": 10_000}, "oracle_n"),
    ({"n": [300.5]}, "n"),
    ({"n": [300], "replicates": "100"}, "replicates"),
    ({"n": [300], "q": "2"}, "q"),
    ({"n": [300], "seed": True}, "seed"),
    ({"n": [300], "source": 1}, "source"),
])
def test_config_file_value_of_wrong_type_is_a_usage_error(tmp_path, capsys, values, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(values))
    assert run_cli(["clt", "--config", str(cfg), "--oracle-n", ""]) == 2
    assert f"key {key!r}" in capsys.readouterr().err


def test_config_file_unknown_source_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": [300], "source": "foo"}))
    assert run_cli(["clt", "--config", str(cfg)]) == 2
    assert "unknown source distribution 'foo'" in capsys.readouterr().err


def test_sample_count_below_one_is_a_usage_error(capsys):
    assert run_cli(["sample", "--kind", "simplex", "--n", "3", "--count", "0"]) == 2
    assert run_cli(["sample", "--kind", "ball", "--n", "3", "--count", "-1"]) == 2
    assert "--count" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["exponential", "pgen", "ball"])
def test_sample_dimension_below_one_is_a_usage_error(capsys, kind):
    assert run_cli(["sample", "--kind", kind, "--n", "0", "--p", "2"]) == 2
    captured = capsys.readouterr()
    assert "dimension" in captured.err and captured.out == ""


def test_config_file_integer_for_a_number_flag_reads_as_the_flag(tmp_path):
    cfg, a, b = tmp_path / "cfg.json", tmp_path / "a.csv", tmp_path / "b.csv"
    cfg.write_text(json.dumps({"n": [300], "replicates": 200, "q": 2}))
    assert run_cli(["clt", "--config", str(cfg), "--oracle-n", "", "--out", str(a)]) == 0
    assert run_cli(["clt", "--n", "300", "--replicates", "200", "--q", "2",
                    "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("args, message", [
    # the sweep's ratio divides by log n, which is 0 at n=1
    (["berry-esseen", "--n", "1,10,100", "--replicates", "100"], "every n >= 2"),
    (["constants", "--q", ""], "--q needs at least one value"),
    # min(1, 2 * nan) would read 1.0
    (["oracle", "--op", "small-n-norm-cdf", "--n", "2", "--q", "2", "--t", "nan"],
     "threshold must be nonnegative, got nan"),
    (["clt", "--n", "-5", "--replicates", "10"], "every n >= 2 in n_list"),
    (["clt", "--n", "100,0", "--replicates", "10"], "every n >= 2 in n_list"),
    (["sample", "--kind", "ball", "--n", "3", "--p", "inf"], "ball exponent p"),
    (["sample", "--kind", "pgen", "--n", "3", "--p", "64"], "ball exponent p"),
    # each would sample first and then fail in the oracle, or write NaN/Infinity
    (["gumbel", "--n", "10000", "--replicates", "200000", "--z", "nan", "--workers", "1"],
     "thresholds must be finite"),
    (["ldp", "--n", "1000", "--replicates", "1000000", "--z", "nan"], "thresholds must be finite"),
    (["gumbel", "--oracle-n", "", "--z", "nan"], "thresholds must be finite"),
    (["lpball", "--law", "gumbel", "--p", "1", "--z", "inf"], "thresholds must be finite"),
    (["constants", "--q", "inf"], "moment order q must be finite"),
    # would run a quadrature at q = nan, warning, before it failed
    (["general-clt", "--q", "nan"], "requires a finite q"),
    # at n=1 the statistic is a constant, whose rows would pass at -1 +- 0
    (["clt", "--n", "1", "--q", "2", "--replicates", "100"], "every n >= 2"),
    (["general-clt", "--n", "1", "--replicates", "100"], "every n >= 2"),
    # one value has a standard error of 0: the sweep printed "6/6 rows
    # passed" at KS 0.95, and the CLT mean row passed on its bias allowance
    pytest.param(["berry-esseen", "--n", "10,20,30", "--replicates", "1"],
                 "berry_esseen_sweep experiments require replicates >= 2",
                 id="berry_esseen_one_replicate"),
    pytest.param(["clt", "--n", "10", "--replicates", "1"],
                 "clt experiments require replicates >= 2", id="clt_one_replicate"),
    pytest.param(["general-clt", "--n", "10", "--replicates", "1"],
                 "general_clt experiments require replicates >= 2",
                 id="general_clt_one_replicate"),
])
def test_value_out_of_domain_is_a_usage_error(capsys, args, message):
    assert run_cli(args) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("args, field", [
    # three copies of one substream would meet the sweep's "at least 3
    # dimensions" and pass it
    (["berry-esseen", "--n", "10,10,10", "--replicates", "100"], "n_list"),
    (["gumbel", "--n", "100,100", "--replicates", "100", "--oracle-n", ""], "n_list"),
    (["gumbel", "--n", "100", "--replicates", "100", "--oracle-n", "1000,1000"],
     "oracle_n_list"),
], ids=["sweep_n", "gumbel_n", "gumbel_oracle_n"])
def test_repeated_dimension_is_a_usage_error(monkeypatch, capsys, args, field):
    def must_not_sample(*args, **kwargs):
        raise AssertionError("sampled before the config was checked")

    monkeypatch.setattr(sampling, "exponential_block", must_not_sample)
    assert run_cli(args + ["--workers", "1"]) == 2
    assert f"error: {field} repeats a dimension" in capsys.readouterr().err


def test_readme_cli_examples_parse_and_build_their_configs():
    # each `simplex-limits ...` line of README's CLI section; no example may
    # set a field its experiment does not read
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    commands = [shlex.split(line, comments=True)[1:] for line in section.splitlines()
                if line.startswith("simplex-limits ")]
    assert len(commands) >= 10
    for argv in commands:
        args = cli.build_parser().parse_args(argv)
        if args.handler is cli._cmd_experiment:
            kind, defaults = args.entry[args.law] if isinstance(args.entry, dict) else args.entry
            cli._experiment_config(kind, defaults, args)  # builds, draws nothing
