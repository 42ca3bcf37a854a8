#!/usr/bin/env python3
"""Run the full desk-scale experiment battery and write CSV + JSON reports.

Default settings mirror the acceptance suite (33-46 s measured at workers=2
on a 2-vCPU VM with Python 3.11.7 and numpy 2.4.6; the host's speed drifts by
tens of percent); ``--quick`` shrinks replicate counts ~10x for a fast smoke
pass (4.0-4.3 s on the same VM).
The last line printed is the process's peak resident memory.
"""

import argparse
import pathlib
import resource
import sys

from simplex_limits import experiments as ex


def battery(seed: int, workers: int, quick: bool) -> list[ex.ExperimentConfig]:
    r = (lambda k: max(2500, k // 10)) if quick else (lambda k: k)
    return [
        # absolute-tolerance rows are calibrated at n = 1e4; the sweep below
        # carries the cross-n convergence story
        ex.ExperimentConfig(kind="clt", n_list=(10_000,), q=2.0,
                            replicates=r(100_000), seed=seed, workers=workers),
        ex.ExperimentConfig(kind="clt", n_list=(10_000,), q=1.0,
                            replicates=r(100_000), seed=seed + 1, workers=workers),
        ex.ExperimentConfig(kind="berry_esseen_sweep", n_list=(100, 1000, 10_000),
                            q=2.0, replicates=r(100_000), seed=seed + 2, workers=workers),
        ex.ExperimentConfig(kind="gumbel", n_list=(100, 10_000), replicates=r(100_000),
                            seed=seed + 3, oracle_n_list=(1_000_000,), workers=workers),
        ex.ExperimentConfig(kind="ldp", n_list=(1000,), replicates=r(1_000_000),
                            seed=seed + 4, thresholds=(1.5, 0.5),
                            oracle_n_list=(10_000, 100_000, 1_000_000), workers=workers),
        # Monte Carlo at x = 1; the superexponential x = -1 tail only clears
        # the decay floor for n >= ~2e5, so it is left to the exact oracle
        ex.ExperimentConfig(kind="mdp", n_list=(10_000,), replicates=r(100_000),
                            seed=seed + 5, thresholds=(1.0,), workers=workers),
        ex.ExperimentConfig(kind="mdp", n_list=(), replicates=1,
                            seed=seed + 5, thresholds=(1.0, -1.0),
                            oracle_n_list=(1_000_000,), workers=workers),
        ex.ExperimentConfig(kind="lp_ldp", n_list=(1000,), p=2.0,
                            replicates=r(100_000), seed=seed + 6, thresholds=(1.3,),
                            workers=workers),
        ex.ExperimentConfig(kind="lp_gumbel", n_list=(10_000,), p=1.0,
                            replicates=r(100_000), seed=seed + 7, workers=workers),
        ex.ExperimentConfig(kind="equivalence_decay", n_list=(5, 10, 20, 50, 100),
                            replicates=r(1_000_000), seed=seed + 8, workers=workers),
        ex.ExperimentConfig(kind="general_clt", n_list=(10_000,), q=2.0,
                            replicates=r(10_000), seed=seed + 9, source="exponential",
                            workers=workers),
        ex.ExperimentConfig(kind="general_clt", n_list=(10_000,), q=1.0,
                            replicates=r(10_000), seed=seed + 10, source="uniform01",
                            workers=workers),
    ]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="reports")
    parser.add_argument("--seed", type=int, default=20240)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args()
    try:
        configs = battery(args.seed, args.workers, args.quick)
    except ValueError as exc:  # a bad --seed or --workers: no report is written
        print(f"error: {exc}", file=sys.stderr)
        return 2

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    any_failed = False
    for i, config in enumerate(configs):
        report = ex.run(config)
        stem = f"{i:02d}_{config.kind}"
        (outdir / f"{stem}.csv").write_text(report.to_csv())
        (outdir / f"{stem}.json").write_text(report.to_json())
        n_pass = sum(r.passed for r in report.rows)
        status = "ok " if n_pass == len(report.rows) else "FAIL"
        any_failed |= n_pass != len(report.rows)
        print(f"[{status}] {stem:28s} {n_pass}/{len(report.rows)} rows "
              f"({report.wall_time:.1f}s)")
    print(f"reports written to {outdir}/")
    # ru_maxrss is in KiB on Linux
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"peak resident memory {peak:.1f} MiB")
    return 1 if any_failed else 0


if __name__ == "__main__":
    sys.exit(main())
