#!/usr/bin/env python3
"""Benchmark of the Monte Carlo battery, run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload (see ``workloads.py``) runs experiment configs through
``experiments.run`` and serializes each report with ``to_csv()`` and
``to_json()``, the same way ``scripts/run_all_experiments.py`` does.

``--trace 0`` times whole passes with tracing off: it starts the set-up probe
several times, then repeats passes for ``--seconds`` and prints the medians of
the end-to-end metrics.  ``--trace 1`` runs the same passes untraced, then one
pass with every layer wrapped in spans (and, for a two-worker workload, a
second traced pass at workers=1) and prints the per-layer metrics; the spans
are written to ``perfbench/out/``.

Outputs are checked in every pass: no experiment call may raise, each
report's row keys must match the pinned ones, and report bytes must agree
between passes and between worker counts.  At the default seed the report
digests are also compared with the pinned ones; a mismatch is printed but is
not a failed call.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import layers
import workloads
from spans import Tracer, instrument

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5
MIN_PASSES = 3

#: End-to-end metric -> unit, printed with tracing off.
END_TO_END = {"setup_s": "s", "wall_s": "s", "variates_per_s": "1/s", "cpu_s": "s",
              "peak_rss_mb": "MiB"}


@dataclass
class Call:
    label: str
    digest: str | None  # None when the call raised
    keys_ok: bool
    rows_failed: int = 0


@dataclass
class Pass:
    wall: float
    cpu: float
    calls: list[Call]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_package():
    src = ROOT / "src"
    if not (src / "simplex_limits" / "__init__.py").is_file():
        raise SystemExit(f"error: no simplex_limits package under {src}")
    sys.path.insert(0, str(src))
    import simplex_limits

    if src.resolve() not in Path(simplex_limits.__file__).resolve().parents:
        raise SystemExit(f"error: simplex_limits imported from outside {src}")
    return simplex_limits


def run_pass(sl, workload: str, seed: int, workers: int, tracer: Tracer | None = None) -> Pass:
    """One pass of a workload; times it and checks each call's output."""
    import numpy as np

    ex = sl.experiments
    calls = []
    gc.collect()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    if workload == "huge_n":
        try:
            values = ex.clt_sample(seed, workloads.HUGE_N, 2.0, workloads.HUGE_N_REPLICATES,
                                   workers=workers).values
            # the studentized statistic is close to N(0, 1) at this n; these
            # bounds catch garbage, not finite-n error
            sane = (len(values) == workloads.HUGE_N_REPLICATES
                    and bool(np.isfinite(values).all())
                    and abs(float(values.mean())) < 2.0 and 0.2 < float(values.std()) < 3.0)
            calls.append(Call("huge_n", _sha(values.tobytes()), sane))
        except Exception:
            traceback.print_exc()
            calls.append(Call("huge_n", None, False))
    else:
        for label, config in workloads.configs(ex, workload, seed, workers):
            try:
                with _span(tracer, "experiments.run", {"row": label}):
                    report = ex.run(config)
                with _span(tracer, "experiments.serialize"):
                    text = report.to_csv() + report.to_json()
            except Exception:
                traceback.print_exc()
                calls.append(Call(label, None, False))
                continue
            keys = [[r.experiment, r.n, r.param, r.threshold] for r in report.rows]
            calls.append(Call(label, _sha(text.encode()),
                              _sha(json.dumps(keys).encode()) == workloads.ROW_KEYS[label],
                              sum(not r.passed for r in report.rows)))
    return Pass(time.perf_counter() - wall0, time.process_time() - cpu0, calls)


def traced_pass(sl, workload: str, seed: int, workers: int,
                memory: bool = False) -> tuple[Pass, Tracer]:
    tracer = Tracer()
    with instrument(tracer, sl, memory):
        return run_pass(sl, workload, seed, workers, tracer), tracer


def _span(tracer, name, attrs=None):
    return contextlib.nullcontext() if tracer is None else tracer.span(name, attrs)


def measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds from spawning a fresh interpreter to the probe's ``ready``."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, str(HERE / "probe.py"), workload, str(seed)],
                              stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise SystemExit(f"error: set-up probe failed (exit {proc.returncode})")
        times.append(elapsed)
    return times


def timed_passes(sl, workload: str, seed: int, workers: int, seconds: float) -> list[Pass]:
    """Untraced passes until the next one would overrun ``seconds``."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(sl, workload, seed, workers))
        p = passes[-1]
        print(f"pass {len(passes)}: wall {p.wall:.3f} s, cpu {p.cpu:.3f} s", flush=True)
        elapsed = time.perf_counter() - start
        typical = statistics.median(q.wall for q in passes)
        if len(passes) >= MIN_PASSES and elapsed + typical > seconds:
            return passes


def check_calls(passes: list[Pass], seed: int) -> tuple[int, int, bool]:
    """(attempted, failed, row keys all match) over every call of every pass.

    A call fails if it raised or if its report bytes differ from those of the
    same config in the first pass that produced any.
    """
    reference: dict[str, str] = {}
    attempted = failed = 0
    keys_ok = True
    for p in passes:
        for c in p.calls:
            attempted += 1
            keys_ok &= c.keys_ok
            ref = reference.setdefault(c.label, c.digest) if c.digest else None
            failed += c.digest is None or c.digest != ref
    for label, digest in reference.items():
        if seed != workloads.DEFAULT_SEED:
            status = f"not pinned at seed {seed}"
        elif workloads.PINNED_DIGESTS.get(label) == digest:
            status = "match"
        else:
            status = "MISMATCH (flagged; not a failed call)"
        print(f"digest {label}: {digest[:16]} {status}")
    if not keys_ok:
        print("error: report row keys differ from the pinned ones", file=sys.stderr)
    return attempted, failed, keys_ok


def cache_sizes() -> dict[str, tuple[int, str]]:
    """Level -> (bytes, CPUs sharing it) of cpu0's data and unified caches, from sysfs."""
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            kind, level, size, shared = ((index / f).read_text().strip() for f in
                                         ("type", "level", "size", "shared_cpu_list"))
        except OSError:
            continue
        if kind != "Instruction" and size.endswith("K"):
            sizes[f"L{level}"] = (int(size[:-1]) * 1024, shared)
    return sizes


def environment(caches: dict[str, tuple[int, str]]) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu0_caches": {level: f"{size >> 10} KiB, cpus {shared}"
                        for level, (size, shared) in caches.items()},
    }


def untraced_run(name, seed, workers, variates, seconds, sl):
    """End-to-end metrics with tracing off: (metrics, passes, ok)."""
    setup = measure_setup(name, seed)
    print("setup probes: " + ", ".join(f"{t:.3f}" for t in setup) + " s")
    passes = timed_passes(sl, name, seed, workers, seconds)
    wall = statistics.median(p.wall for p in passes)
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "variates_per_s": variates / wall,
        "cpu_s": statistics.median(p.cpu for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {k: (values[k], unit) for k, unit in END_TO_END.items()}, passes, True


def traced_run(name, seed, workers, variates, seconds, sl):
    """Per-layer metrics: (metrics, passes, ok).

    Untraced passes for half of ``seconds`` give the reference for
    ``trace_overhead_frac``; then come the traced passes.  ``ok`` is false if
    an expected layer recorded no spans, or if the variates the configs call
    for were not all drawn inside the wrapped samplers.
    """
    import test_spans

    test_spans.main()
    untraced = timed_passes(sl, name, seed, workers, seconds / 2)
    main_pass, traced = traced_pass(sl, name, seed, workers)
    single_pass, single = (traced_pass(sl, name, seed, 1) if workers > 1
                           else (main_pass, traced))
    memory_pass, memory = traced_pass(sl, name, seed, workers, memory=True)
    passes = untraced + [main_pass, memory_pass] + ([single_pass] if workers > 1 else [])
    print(f"traced passes: wall {main_pass.wall:.3f} s at workers={workers}, "
          f"{single_pass.wall:.3f} s at workers=1, {memory_pass.wall:.3f} s with tracemalloc")
    values = layers.layer_metrics(traced.spans, main_pass.wall, workers, single.spans,
                                  memory.spans)
    values["experiments.worker_speedup"] = (single_pass.wall / main_pass.wall
                                            if workers > 1 else 0.0)
    values["experiments.rows_failed"] = sum(c.rows_failed for c in main_pass.calls)
    values["trace_overhead_frac"] = (
        main_pass.wall / statistics.median(p.wall for p in untraced) - 1.0)

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    spans_path = out / f"spans-{name}-{seed}.jsonl"
    spans_path.unlink(missing_ok=True)
    traced.dump(spans_path, f"workers={workers}")
    if single is not traced:
        single.dump(spans_path, "workers=1")
    memory.dump(spans_path, "tracemalloc")
    print(f"spans written to {spans_path.relative_to(ROOT)}")

    missing = [k for k in layers.EXPECTED[name] if not values[k] > 0]
    if missing:
        print("error: layers recorded no spans on this workload: " + ", ".join(missing),
              file=sys.stderr)
    drawn = sum(s.attrs["variates"] for s in traced.spans if s.name in layers.SAMPLERS)
    counts_ok = values["experiments.variates"] == drawn == variates
    if not counts_ok:
        print(f"error: configs give {variates} variates; sample functions were asked for "
              f"{values['experiments.variates']} and samplers drew {drawn}", file=sys.stderr)
    metrics = {k: (values[k], unit) for k, (unit, _) in layers.PER_LAYER.items()}
    return metrics, passes, not missing and counts_ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must be in [0, 2**63)")

    sl = load_package()
    name, seed = args.workload, args.seed
    workers = workloads.WORKLOADS[name]
    cfgs = workloads.configs(sl.experiments, name, seed, workers)
    variates = workloads.variates(name, cfgs)
    block = workloads.block_bytes(name, cfgs)
    caches = cache_sizes()
    l2 = caches.get("L2", (0, ""))[0]
    load_start = os.getloadavg()
    print("env " + json.dumps(environment(caches)))
    print(f"workload {name}: seed {seed}, workers {workers}, {variates} variates per pass, "
          f"block {workloads.BLOCK_ELEMS} elements ({workloads.BLOCK_ELEMS * 8 >> 20} MiB); "
          f"largest block {block} bytes computed"
          + (f" = {block / l2:.1f} x L2 ({l2 >> 10} KiB)" if l2 else ""), flush=True)

    if args.trace == 0:
        metrics, passes, ok = untraced_run(name, seed, workers, variates, args.seconds, sl)
    else:
        metrics, passes, ok = traced_run(name, seed, workers, variates, args.seconds, sl)
    attempted, failed, keys_ok = check_calls(passes, seed)
    correct = ok and keys_ok and failed == 0

    print(f"load average: start {load_start[0]:.2f}, end {os.getloadavg()[0]:.2f}")
    for key, (value, unit) in metrics.items():
        print(f"{key} {value:.6g} {unit}")
    print(f"failed_frac {failed / attempted:.6g} ({failed}/{attempted} calls)")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
