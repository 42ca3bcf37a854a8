"""The benchmark (``perfbench/run.py``) marks a run incorrect when a report's
row keys (experiment, n, param, threshold) do not hash to the digest
``perfbench/workloads.py`` pins for its config.  The keys depend on the
config only, not on the sample, so each benchmarked config is run here at
two replicates: a change that adds or drops a report row of a benchmarked
kind fails this test, and needs a benchmark change that re-pins the keys."""

import dataclasses
import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from simplex_limits import experiments as ex


def _load_workloads():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()

CONFIGS = [pair for name, workers in workloads.WORKLOADS.items()
           for pair in workloads.configs(ex, name, workloads.DEFAULT_SEED, workers)]


@pytest.mark.parametrize("label, config", CONFIGS, ids=[label for label, _ in CONFIGS])
def test_benchmarked_config_reports_the_pinned_row_keys(label, config):
    # 06_mdp runs its oracle rows alone, at one replicate
    config = dataclasses.replace(config, replicates=min(config.replicates, 2))
    keys = [[r.experiment, r.n, r.param, r.threshold] for r in ex.run(config).rows]
    assert hashlib.sha256(json.dumps(keys).encode()).hexdigest() == workloads.ROW_KEYS[label]
