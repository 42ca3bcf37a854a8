"""Self-test of the span arithmetic and of the metric names and units.

Runs at the start of every traced benchmark run, and on its own with
``python3 perfbench/test_spans.py`` or ``python3 -m pytest perfbench/test_spans.py``.
"""

import json
import re
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Span, Tracer, covered, self_times  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _close(a: float, b: float) -> bool:
    return abs(a - b) < 1e-12


def test_covered_merges_overlapping_intervals():
    assert _close(covered(0.0, 10.0, [(1.0, 3.0), (2.0, 5.0), (4.0, 6.0)]), 5.0)
    assert _close(covered(0.0, 10.0, [(-2.0, 1.0), (9.0, 12.0)]), 2.0)
    assert _close(covered(0.0, 10.0, [(2.0, 8.0), (3.0, 4.0)]), 6.0)
    assert covered(0.0, 10.0, []) == 0.0


def test_self_time_on_two_threads():
    # thread 1: root [0, 10] with children [1, 4] and [3, 6] (overlapping)
    # and a grandchild [1, 2] inside the first child.
    # thread 2: span [2, 9] whose parent is on thread 1, with a child [5, 7];
    # cross-thread children run concurrently and are not subtracted.
    spans = [
        Span(1, "root", 0.0, 10.0, None, 1),
        Span(2, "a", 1.0, 4.0, 1, 1),
        Span(3, "b", 3.0, 6.0, 1, 1),
        Span(4, "a.inner", 1.0, 2.0, 2, 1),
        Span(5, "worker", 2.0, 9.0, 1, 2),
        Span(6, "worker.inner", 5.0, 7.0, 5, 2),
    ]
    selfs = self_times(spans)
    assert _close(selfs[1], 10.0 - 5.0)
    assert _close(selfs[2], 3.0 - 1.0)
    assert _close(selfs[3], 3.0)
    assert _close(selfs[4], 1.0)
    assert _close(selfs[5], 7.0 - 2.0)
    assert _close(selfs[6], 2.0)


def test_tracer_parents_stay_on_their_thread():
    tracer = Tracer()

    def work():
        with tracer.span("worker"):
            with tracer.span("worker.inner"):
                pass

    with tracer.span("root"):
        t = threading.Thread(target=work)
        t.start()
        t.join(timeout=10)
        with tracer.span("child"):
            pass
    assert not t.is_alive()
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["root"].parent is None
    assert by_name["child"].parent == by_name["root"].id
    assert by_name["worker"].parent is None
    assert by_name["worker"].thread != by_name["root"].thread
    assert by_name["worker.inner"].parent == by_name["worker"].id
    for s in tracer.spans:
        assert 0.0 <= self_times(tracer.spans)[s.id] <= s.duration


def test_metric_names_are_well_formed():
    for name in [*layers.PER_LAYER, *run.END_TO_END]:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    for names in layers.EXPECTED.values():
        assert set(names) <= set(layers.PER_LAYER)


def test_benchmark_json_lists_what_the_benchmark_prints():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == layers.PER_LAYER


def main() -> None:
    for name, test in sorted(globals().items()):
        if name.startswith("test_"):
            test()


if __name__ == "__main__":
    main()
    print("span self-test passed")
