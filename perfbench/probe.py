"""Set-up probe: import the package from the checkout, build a workload's
configs and print ``ready``.  ``run.py`` times a fresh process from spawn to
that line, which is the ``setup_s`` metric.

Usage: python3 perfbench/probe.py <workload> <seed>
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402
from simplex_limits import experiments  # noqa: E402

name, seed = sys.argv[1], int(sys.argv[2])
workloads.configs(experiments, name, seed, workloads.WORKLOADS[name])
print("ready", flush=True)
