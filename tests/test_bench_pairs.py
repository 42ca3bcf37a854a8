"""``scripts/bench_pairs.py`` keeps every finished pair when a perfbench run
fails: the failed run is recorded, the BENCH file is still written, and the
script exits non-zero, as it does when a run finishes with incorrect outputs."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_METRICS = ("setup_s", "wall_s", "variates_per_s", "cpu_s", "peak_rss_mb")


def _run_ok(correct: bool = True, **values) -> str:
    """A perfbench run that finishes: the env line, then the result as the last
    line, ``correct`` as given and every metric 1.0 unless ``values`` names it."""
    metrics = {k: {"value": values.get(k, 1.0)} for k in _METRICS}
    return f"""
import json
print("env " + json.dumps({{"host": "stub"}}))
print(json.dumps({{"correct": {correct!r}, "failed": 0, "metrics": {metrics!r}}}))
"""


_RUN_OK = _run_ok()

_RUN_FAILS = """
import sys
print("Traceback (most recent call last):", file=sys.stderr)
print("RuntimeError: the workload broke", file=sys.stderr)
sys.exit(3)
"""


def _checkout(path: Path, run_py: str) -> Path:
    (path / "perfbench").mkdir(parents=True)
    (path / "perfbench" / "run.py").write_text(run_py)
    return path


def _bench_pairs(parent: Path, change: Path, out: Path) -> subprocess.CompletedProcess:
    # two pairs of one seed, with wins counted on wall_s
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_pairs.py"), "--parent", str(parent),
         "--change", str(change), "--label", "stub", "--workload", "huge_n",
         "--metric", "wall_s", "--seed-pairs", "1:2", "--out", str(out)],
        capture_output=True, text=True)


def test_a_failed_run_is_recorded_and_the_file_still_written(tmp_path):
    parent = _checkout(tmp_path / "parent", _RUN_OK)
    change = _checkout(tmp_path / "change", _RUN_FAILS)
    out = tmp_path / "BENCH_stub.json"
    proc = _bench_pairs(parent, change, out)
    assert proc.returncode != 0
    assert "Traceback" not in proc.stderr
    bench = json.loads(out.read_text())
    assert len(bench["runs"]) == 2
    for pair in bench["runs"]:
        assert pair["parent"]["correct"] and pair["parent"]["metrics"]["wall_s"] == 1.0
        assert pair["change"] == {"correct": False, "exit_code": 3, "stderr_tail": [
            "Traceback (most recent call last):", "RuntimeError: the workload broke"]}
    summary = bench["summary"]["1"]
    assert summary["pairs"] == 2 and summary["wins"] == 0 and not summary["all_correct"]
    assert summary["wall_s"] == {"parent": {"median": 1.0, "iqr": 0.0}, "change": None}
    assert summary["verdict"]["wall_s"] is None
    assert bench["env"] == {"host": "stub"}


def test_a_median_worse_by_more_than_its_bound_is_worse(tmp_path):
    parent = _checkout(tmp_path / "parent", _RUN_OK)
    change = _checkout(tmp_path / "change", _run_ok(wall_s=1.3))
    out = tmp_path / "BENCH_stub.json"
    proc = _bench_pairs(parent, change, out)
    assert proc.returncode == 0, proc.stderr
    verdicts = json.loads(out.read_text())["summary"]["1"]["verdict"]
    assert verdicts == {k: "worse" if k == "wall_s" else "ok" for k in _METRICS}
    assert proc.stdout.splitlines()[-1] == "seed 1 verdicts: " + ", ".join(
        f"{k} {verdicts[k]}" for k in _METRICS)


def test_a_run_with_incorrect_outputs_exits_1(tmp_path):
    parent = _checkout(tmp_path / "parent", _RUN_OK)
    change = _checkout(tmp_path / "change", _run_ok(correct=False))
    out = tmp_path / "BENCH_stub.json"
    proc = _bench_pairs(parent, change, out)
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == [
        f"error: seed 1 pair {i} change: the perfbench run finished with correct: false; "
        f"see {out}" for i in (0, 1)]
    bench = json.loads(out.read_text())
    assert not bench["summary"]["1"]["all_correct"]
    assert [pair["change"]["correct"] for pair in bench["runs"]] == [False, False]
