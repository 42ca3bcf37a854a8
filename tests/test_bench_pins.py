"""``scripts/bench_pins.py`` computes each pin as the benchmark defines it:
for ``06_mdp``, whose report holds oracle rows only, it gives the pinned row
key and digest, and it marks an entry that differs from its pin."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pins.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("bench_pins", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pins = _load_script()


def test_the_pins_of_06_mdp_are_the_pinned_ones():
    workloads = bench_pins.load_workloads()
    configs = dict(workloads.configs(bench_pins.ex, "simplex_long_rows",
                                     workloads.DEFAULT_SEED, workloads.WORKLOADS["simplex_long_rows"]))
    assert bench_pins.pins(configs["06_mdp"]) == (workloads.ROW_KEYS["06_mdp"],
                                                  workloads.PINNED_DIGESTS["06_mdp"])


def test_only_an_entry_that_differs_from_its_pin_is_marked():
    text = bench_pins.pins_text("ROW_KEYS", {"a": "1", "b": "2"}, {"a": "1", "b": "3"})
    assert text == ('ROW_KEYS = {\n    "a":\n        "1",\n'
                    '    "b":\n        "2",  # STALE: pinned 3\n}\n')
