"""Per-layer metrics derived from the spans of a traced pass.

A metric of a layer that a workload does not call reads 0.  Each metric in
:data:`EXPECTED` must read above 0 on the listed workloads; a zero there
means a call went around the wrappers, and the traced run fails.
"""

from __future__ import annotations

import statistics

from spans import SAMPLE_FUNCTIONS, self_times

#: Spans that draw variates; every variate of a pass is drawn inside one.
SAMPLERS = ("sampling.exponential_block", "sampling.lp_ball_block", "statistics.source_sample")
ORACLE = ("oracle.max_spacing_sf", "oracle.max_spacing_cdf", "oracle.max_spacing_cdf_upper")
QUADRATURE = ("statistics.abs_moment", "statistics.general_clt_variance")
ROWS = ("00_clt", "03_gumbel", "05_mdp", "06_mdp", "07_lp_ldp", "08_lp_gumbel",
        "04_ldp", "09_equivalence_decay", "10_general_clt", "11_general_clt")

#: name -> (unit, better)
PER_LAYER = {
    "sampling.exponential_block.ns_per_variate": ("ns", "lower"),
    "sampling.lp_ball_block.p1.ns_per_variate": ("ns", "lower"),
    "sampling.lp_ball_block.p2.ns_per_variate": ("ns", "lower"),
    "sampling.busy_frac": ("1", "lower"),
    "statistics.source_sample.ns_per_variate": ("ns", "lower"),
    "experiments.kernel_ns_per_variate": ("ns", "lower"),
    "experiments.worker_speedup": ("1", "higher"),
    "experiments.sample_peak_mb": ("MiB", "lower"),
    "experiments.blocks": ("count", "lower"),
    "experiments.variates": ("count", "lower"),
    **{f"experiments.run_s.{row}": ("s", "lower") for row in ROWS},
    "experiments.serialize_ms": ("ms", "lower"),
    "experiments.rows_failed": ("count", "lower"),
    "statistics.sort_ns_per_value": ("ns", "lower"),
    "statistics.ks_ns_per_value": ("ns", "lower"),
    "statistics.tail_log_prob_us": ("us", "lower"),
    "statistics.quadrature_ms": ("ms", "lower"),
    "constants.moment_constants_ms": ("ms", "lower"),
    "oracle.queries": ("count", "lower"),
    "oracle.query_us.p50": ("us", "lower"),
    "oracle.query_us.max": ("us", "lower"),
    "oracle.cancellations": ("count", "lower"),
    "oracle.fallbacks": ("count", "lower"),
    "rng.generators": ("count", "lower"),
    "rng.generator_us": ("us", "lower"),
    "trace_overhead_frac": ("1", "lower"),
}

_ALL = ("sampling.busy_frac", "experiments.kernel_ns_per_variate",
        "experiments.sample_peak_mb", "experiments.blocks", "experiments.variates",
        "statistics.sort_ns_per_value", "rng.generators", "rng.generator_us")
_REPORTS = ("experiments.serialize_ms", "statistics.ks_ns_per_value",
            "statistics.tail_log_prob_us")
_ORACLE = ("oracle.queries", "oracle.query_us.p50", "oracle.query_us.max")

EXPECTED = {
    "simplex_long_rows": _ALL + _REPORTS + _ORACLE + (
        "sampling.exponential_block.ns_per_variate", "experiments.worker_speedup",
        "constants.moment_constants_ms", "experiments.run_s.00_clt",
        "experiments.run_s.03_gumbel", "experiments.run_s.05_mdp",
        "experiments.run_s.06_mdp"),
    "lp_ball": _ALL + _REPORTS + (
        "sampling.lp_ball_block.p1.ns_per_variate",
        "sampling.lp_ball_block.p2.ns_per_variate", "experiments.worker_speedup",
        "experiments.run_s.07_lp_ldp", "experiments.run_s.08_lp_gumbel"),
    "tails_single_worker": _ALL + _REPORTS + _ORACLE + (
        "sampling.exponential_block.ns_per_variate",
        "statistics.source_sample.ns_per_variate", "statistics.quadrature_ms",
        "experiments.run_s.04_ldp", "experiments.run_s.09_equivalence_decay",
        "experiments.run_s.10_general_clt", "experiments.run_s.11_general_clt"),
    "huge_n": _ALL + ("sampling.exponential_block.ns_per_variate",
                      "experiments.worker_speedup", "constants.moment_constants_ms"),
}


def _ns_per(spans, selfs, key: str) -> float:
    units = sum(s.attrs[key] for s in spans)
    return 1e9 * sum(selfs[s.id] for s in spans) / units if units else 0.0


def layer_metrics(spans, wall: float, workers: int, kernel_spans,
                  memory_spans) -> dict[str, float]:
    """Per-layer metrics of a workload's traced passes.

    ``spans`` come from the pass at the workload's own worker count, which
    took ``wall`` seconds.  ``kernel_spans`` come from a traced pass at
    workers=1, where a sample function's reduction kernel runs on the calling
    thread, so its self time (span minus sampling and sorting children) is
    measured rather than derived.  ``memory_spans`` come from a pass at the
    workload's worker count with tracemalloc on.
    """
    selfs = self_times(spans)

    def named(*names):
        return [s for s in spans if s.name in names]

    exp = named("sampling.exponential_block")
    ball = named("sampling.lp_ball_block")
    gens = named("rng.generator")
    oracle = named(*ORACLE)
    query_us = sorted(1e6 * s.duration for s in oracle)
    kernel = [s for s in kernel_spans if s.name.removeprefix("experiments.") in SAMPLE_FUNCTIONS]
    runs = {s.attrs["row"]: s.duration for s in named("experiments.run")}
    return {
        "sampling.exponential_block.ns_per_variate": _ns_per(exp, selfs, "variates"),
        "sampling.lp_ball_block.p1.ns_per_variate":
            _ns_per([s for s in ball if s.attrs["p"] == 1.0], selfs, "variates"),
        "sampling.lp_ball_block.p2.ns_per_variate":
            _ns_per([s for s in ball if s.attrs["p"] == 2.0], selfs, "variates"),
        "sampling.busy_frac": sum(s.duration for s in exp + ball) / (workers * wall),
        "statistics.source_sample.ns_per_variate":
            _ns_per(named("statistics.source_sample"), selfs, "variates"),
        "experiments.kernel_ns_per_variate":
            _ns_per(kernel, self_times(kernel_spans), "variates"),
        "experiments.sample_peak_mb":
            max((s.attrs.get("peak_bytes", 0) for s in memory_spans), default=0) / 2**20,
        "experiments.blocks": len(named(*SAMPLERS)),
        "experiments.variates": sum(s.attrs["variates"] for s in spans
                                    if s.name.removeprefix("experiments.") in SAMPLE_FUNCTIONS),
        **{f"experiments.run_s.{row}": runs.get(row, 0.0) for row in ROWS},
        "experiments.serialize_ms": 1e3 * sum(s.duration for s in named("experiments.serialize")),
        "statistics.sort_ns_per_value": _ns_per(named("statistics.from_values"), selfs, "values"),
        "statistics.ks_ns_per_value": _ns_per(named("statistics.ks_distance"), selfs, "values"),
        "statistics.tail_log_prob_us": _mean_us(named("statistics.tail_log_prob")),
        "statistics.quadrature_ms": 1e3 * sum(s.duration for s in named(*QUADRATURE)),
        "constants.moment_constants_ms":
            1e3 * sum(s.duration for s in named("constants.moment_constants")),
        "oracle.queries": len(oracle),
        "oracle.query_us.p50": statistics.median(query_us) if query_us else 0.0,
        "oracle.query_us.max": query_us[-1] if query_us else 0.0,
        "oracle.cancellations": sum(s.attrs.get("error") == "CancellationError" for s in oracle),
        "oracle.fallbacks": len(named("oracle.max_spacing_cdf_upper")),
        "rng.generators": len(gens),
        "rng.generator_us": _mean_us(gens),
    }


def _mean_us(spans) -> float:
    return 1e6 * sum(s.duration for s in spans) / len(spans) if spans else 0.0
