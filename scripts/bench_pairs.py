#!/usr/bin/env python3
"""Alternating parent/change pairs of perfbench runs, written as a BENCH file.

    python3 scripts/bench_pairs.py --parent DIR --label NAME --workload W \\
        --metric wall_s --seed-pairs 20240:10 77003:3 [--seconds 20] [--change DIR]

``--parent`` and ``--change`` are checkouts of the two commits (``--change``
defaults to this one).  For each seed, pair i runs ``perfbench/run.py
--trace 0`` once in each checkout, the parent first when i is even and the
change first when it is odd, so a drift of the host's speed favours neither.
The result goes to ``BENCH_<label>.json`` at the root of this checkout (or
``--out``): every run's end-to-end metrics, ``correct`` flag and digest
check (``digests_match``, false if a report digest differed from the pinned
one), per seed each side's median and interquartile range and the change's
wins on ``--metric``, and perfbench's environment line.  Each seed also
gets a no-regression ``verdict`` per end-to-end metric, printed at the end,
with the metric's ``BENCHMARK.json`` ``bound`` read as a fraction of the
parent's median: ``worse`` if the change's median is worse by more than the
bound; ``unresolved`` if the parent's IQR exceeds the bound and not every
change run beats every parent run; ``ok`` otherwise; null when either side
has fewer than two finished runs.  A run that exits non-zero is recorded
with its exit code and the tail of its stderr, as ``correct: false`` and
without metrics.  The file is always written; the script then exits 1 if
any run failed or finished with ``correct: false``, naming each such run's
seed, pair and side on stderr.  A ``worse`` verdict does not change the exit
code.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Lines of a failed run's stderr kept in the BENCH file.
STDERR_TAIL = 20


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``--trace 0`` run: its end-to-end metrics, ``correct``, whether every
    report digest matched the pinned one, and the env line; or, if it exits
    non-zero, its exit code and the tail of its stderr."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        return {"correct": False, "exit_code": proc.returncode,
                "stderr_tail": proc.stderr.splitlines()[-STDERR_TAIL:]}
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return {"correct": result["correct"], "failed": result["failed"],
            "digests_match": not any("MISMATCH" in line for line in lines),
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}, "env": env}


def spread(values: list[float]) -> dict | None:
    """Median and IQR, or None when fewer than two runs finished."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "iqr": q3 - q1}


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str | None:
    """The no-regression verdict on one metric (see the module docstring)."""
    a, b = spread(parent), spread(change)
    if a is None or b is None:
        return None
    sign = 1.0 if better == "lower" else -1.0
    margin = bound * abs(a["median"])
    if sign * (b["median"] - a["median"]) > margin:
        return "worse"
    if a["iqr"] > margin and max(sign * x for x in change) >= min(sign * x for x in parent):
        return "unresolved"
    return "ok"


def show(result: dict, metric: str) -> str:
    if "exit_code" in result:
        return f"failed (exit {result['exit_code']})"
    return f"{result['metrics'][metric]:.4g}"


def git_describe(checkout: Path) -> str | None:
    """The checkout's commit, marked ``-dirty`` if its files differ from it."""
    proc = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=12"],
                          cwd=checkout, capture_output=True, text=True)
    return proc.stdout.strip() or None


def seed_pairs(text: str) -> tuple[int, int]:
    try:
        seed, pairs = (int(x) for x in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected SEED:PAIRS, got {text!r}") from None
    if pairs < 2:
        raise argparse.ArgumentTypeError(f"an IQR needs at least 2 pairs, got {text!r}")
    return seed, pairs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, default=ROOT)
    parser.add_argument("--label", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--metric", required=True, help="end-to-end metric the wins count on")
    parser.add_argument("--seed-pairs", type=seed_pairs, nargs="+", required=True,
                        metavar="SEED:PAIRS")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bound = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    if args.metric not in better:
        parser.error(f"--metric must be one of {sorted(better)}")
    plan = args.seed_pairs
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    runs, env = [], None
    for seed, pairs in plan:
        for i in range(pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "pair": i, "first": order[0]}
            for side in order:
                result = run_once(sides[side], args.workload, seed, args.seconds)
                env = result.pop("env", env)
                pair[side] = result
            print(f"seed {seed} pair {i}: {args.metric} "
                  + ", ".join(f"{side} {show(pair[side], args.metric)}" for side in sides),
                  flush=True)
            runs.append(pair)

    sign = 1.0 if better[args.metric] == "lower" else -1.0
    summary = {}
    for seed, _ in plan:
        mine = [r for r in runs if r["seed"] == seed]
        values = {metric: {side: [r[side]["metrics"][metric] for r in mine
                                  if "metrics" in r[side]] for side in sides}
                  for metric in better}
        summary[str(seed)] = {
            "pairs": len(mine),
            "wins": sum(sign * (r["change"]["metrics"][args.metric]
                                - r["parent"]["metrics"][args.metric]) < 0
                        for r in mine if all("metrics" in r[s] for s in sides)),
            "all_correct": all(r[s]["correct"] for r in mine for s in sides),
            **{metric: {side: spread(v) for side, v in by_side.items()}
               for metric, by_side in values.items()},
            "verdict": {metric: verdict(by_side["parent"], by_side["change"], better[metric],
                                        bound[metric])
                        for metric, by_side in values.items()},
        }
    out = args.out or ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps({
        "label": args.label,
        "workload": args.workload,
        "metric": args.metric,
        "better": better[args.metric],
        "seconds": args.seconds,
        "commits": {side: git_describe(path) for side, path in sides.items()},
        "env": env,
        "summary": summary,
        "runs": runs,
    }, indent=1) + "\n")
    print(f"written to {out}")
    for seed, s in summary.items():
        print(f"seed {seed} verdicts: "
              + ", ".join(f"{metric} {v}" for metric, v in s["verdict"].items()))
    bad = [(r, side) for r in runs for side in sides if not r[side]["correct"]]
    for r, side in bad:
        why = (f"exited {r[side]['exit_code']}" if "exit_code" in r[side]
               else "finished with correct: false")
        print(f"error: seed {r['seed']} pair {r['pair']} {side}: the perfbench run {why}; "
              f"see {out}", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
