#!/usr/bin/env python3
"""Print the benchmark pins that this checkout would give, and mark the stale ones.

    python3 scripts/bench_pins.py

For each label of ``perfbench/workloads.py`` this computes the ``ROW_KEYS``
and ``PINNED_DIGESTS`` entries as the benchmark (``perfbench/run.py``)
defines them, and prints them laid out as the two dicts of that file.  An
entry that differs from the file's is followed by a ``# STALE`` comment that
names the pinned value, so a labelled benchmark change can see, and copy,
what it re-pins.  No file is edited, and the exit status is 0 either way.

- A config's digest is the SHA-256 of ``to_csv() + to_json()`` of its
  report at ``DEFAULT_SEED``.
- ``huge_n``'s digest is the SHA-256 of ``clt_sample(...).values.tobytes()``.
- A config's row key is the SHA-256 of the JSON list of the same report's
  row keys (experiment, n, param, threshold).

All labels take about 6 s on a 2-vCPU VM.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from simplex_limits import experiments as ex  # noqa: E402


def load_workloads():
    """``perfbench/workloads.py``, loaded by file path."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def pins(config) -> tuple[str, str]:
    """``(row key, digest)`` of one config, from one run of its report."""
    report = ex.run(config)
    keys = [[r.experiment, r.n, r.param, r.threshold] for r in report.rows]
    return _sha(json.dumps(keys).encode()), _sha((report.to_csv() + report.to_json()).encode())


def current_pins(workloads) -> tuple[dict[str, str], dict[str, str]]:
    """``(ROW_KEYS, PINNED_DIGESTS)`` as this checkout would pin them, in the
    file's order."""
    row_keys, digests = {}, {}
    for name, workers in workloads.WORKLOADS.items():
        for label, config in workloads.configs(ex, name, workloads.DEFAULT_SEED, workers):
            row_keys[label], digests[label] = pins(config)
    values = ex.clt_sample(workloads.DEFAULT_SEED, workloads.HUGE_N, 2.0,
                           workloads.HUGE_N_REPLICATES,
                           workers=workloads.WORKLOADS["huge_n"]).values
    digests["huge_n"] = _sha(values.tobytes())
    return row_keys, digests


def pins_text(name: str, current: dict[str, str], pinned: dict[str, str]) -> str:
    """``current`` laid out as the dict ``name`` of ``workloads.py``, each
    entry that differs from ``pinned`` marked."""
    lines = [f"{name} = {{"]
    for label, digest in current.items():
        mark = "" if pinned.get(label) == digest else f"  # STALE: pinned {pinned.get(label)}"
        lines += [f'    "{label}":', f'        "{digest}",{mark}']
    return "\n".join(lines + ["}"]) + "\n"


def main() -> int:
    workloads = load_workloads()
    row_keys, digests = current_pins(workloads)
    sys.stdout.write(pins_text("ROW_KEYS", row_keys, workloads.ROW_KEYS) + "\n"
                     + pins_text("PINNED_DIGESTS", digests, workloads.PINNED_DIGESTS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
