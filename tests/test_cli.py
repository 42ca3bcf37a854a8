import json
import math

import pytest

from simplex_limits import cli


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


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["gumbel", "--no-such-flag"])
    assert exc.value.code == 2
    assert run_cli(["clt", "--q", "0.5", "--n", "100", "--replicates", "10"]) == 2
    assert run_cli(["ldp", "--n", "1", "--z", "1.5", "--replicates", "10"]) == 2


def test_numerical_errors_exit_1():
    # deep lower tail: the alternating series aborts with a diagnostic
    assert run_cli(["oracle", "--op", "max-spacing-cdf", "--n", "10000",
                    "--s", "0.00056"]) == 1


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["--version"])
    assert exc.value.code == 0
    assert "simplex-limits 0.1.0" in capsys.readouterr().out


def test_config_yielding_no_rows_is_a_usage_error(capsys):
    assert run_cli(["clt", "--n", ""]) == 2
    assert run_cli(["ldp", "--n", "", "--z", "0.5", "--oracle-n", "10000"]) == 2
    assert "no report rows" in capsys.readouterr().err


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


def test_sample_count_below_one_is_a_usage_error(capsys):
    assert run_cli(["sample", "--kind", "simplex", "--n", "3", "--count", "0"]) == 2
    assert run_cli(["sample", "--kind", "ball", "--n", "3", "--count", "-1"]) == 2
    assert "--count" in capsys.readouterr().err


def test_config_file_integer_for_a_number_flag_reads_as_the_flag(tmp_path):
    cfg, a, b = tmp_path / "cfg.json", tmp_path / "a.csv", tmp_path / "b.csv"
    cfg.write_text(json.dumps({"n": [300], "replicates": 200, "q": 2}))
    assert run_cli(["clt", "--config", str(cfg), "--oracle-n", "", "--out", str(a)]) == 0
    assert run_cli(["clt", "--n", "300", "--replicates", "200", "--q", "2",
                    "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
