"""The benchmark's tracer (``perfbench/spans.py``) wraps the package's layer
functions by name and reads their arguments.  These tiny traced runs check
that every wrapped layer still records its spans and its counts, so an API
change cannot quietly zero a per-layer metric of the benchmark."""

import importlib.util
import sys
from pathlib import Path

import simplex_limits as sl
from simplex_limits import experiments as ex


def _load_spans():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


spans = _load_spans()

C = ex.ExperimentConfig
CONFIGS = [
    C(kind="ldp", n_list=(100,), replicates=2000, seed=1, thresholds=(1.5,),
      oracle_n_list=(1000,)),
    C(kind="lp_gumbel", n_list=(200,), p=1.0, replicates=300, seed=2),
    C(kind="general_clt", n_list=(100,), q=2.0, source="uniform01", replicates=300, seed=3),
    C(kind="clt", n_list=(100, 300), q=2.0, replicates=300, seed=4),
    C(kind="equivalence_decay", n_list=(5, 10), replicates=1000, seed=5),
    # the lower tail's exact series cancels at n=1e6, so the oracle falls back
    C(kind="mdp", n_list=(), replicates=1, seed=6, thresholds=(1.0, -1.0),
      oracle_n_list=(1_000_000,)),
]

#: Every span name ``spans.instrument`` records.
WRAPPED = {
    "sampling.exponential_block", "sampling.lp_ball_block", "statistics.source_sample",
    "statistics.from_values", "rng.generator", "oracle.max_spacing_sf",
    "oracle.max_spacing_cdf", "oracle.max_spacing_cdf_upper",
    *(f"experiments.{name}" for name in spans.SAMPLE_FUNCTIONS),
    "statistics.ks_distance", "statistics.tail_log_prob", "statistics.abs_moment",
    "statistics.general_clt_variance", "constants.moment_constants",
}
SAMPLERS = ("sampling.exponential_block", "sampling.lp_ball_block", "statistics.source_sample")


def test_every_wrapped_layer_records_its_spans_and_counts():
    seen = set()
    for config in CONFIGS:
        with spans.instrument(spans.Tracer(), sl) as tracer:
            ex.run(config)
        by_name = {}
        for s in tracer.spans:
            by_name.setdefault(s.name, []).append(s)
        seen |= set(by_name)
        drawn = config.replicates * sum(config.n_list)

        def total(names, key):
            return sum(s.attrs[key] for name in names for s in by_name.get(name, ()))

        sample_functions = [f"experiments.{name}" for name in spans.SAMPLE_FUNCTIONS]
        assert total(sample_functions, "variates") == drawn, config.kind
        assert total(SAMPLERS, "variates") == drawn, config.kind
        for name in ("statistics.from_values", "statistics.ks_distance"):
            assert all(s.attrs["values"] == config.replicates
                       for s in by_name.get(name, ())), (config.kind, name)
    assert seen == WRAPPED
