"""scipy is loaded only by the functions that call it.

Importing the package, running every experiment kind at any q (the moment
constants are closed forms or series), oracle queries, samples and report
conversions must leave no ``scipy`` module in ``sys.modules``.  Each case
runs in a fresh interpreter, because this test process has loaded scipy
long before.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from simplex_limits import experiments as ex

SRC = Path(__file__).resolve().parent.parent / "src"

_RUN = "from simplex_limits import experiments as ex\nex.run(ex.ExperimentConfig({}))"
_CLI = "from simplex_limits import cli\nassert cli.main({!r}) == 0"

CASES = {
    "import": "import simplex_limits",
    "import_cli": "import simplex_limits.cli",
    "gumbel": _RUN.format('kind="gumbel", n_list=(100,), replicates=200, seed=1, '
                          'oracle_n_list=(1000,)'),
    "ldp": _RUN.format('kind="ldp", n_list=(100,), replicates=200, seed=1, '
                       'thresholds=(1.5, 0.5), oracle_n_list=(1000, 10_000)'),
    "mdp": _RUN.format('kind="mdp", n_list=(1000,), replicates=200, seed=1, '
                       'thresholds=(1.0, -1.0), oracle_n_list=(10_000,)'),
    "lp_ldp": _RUN.format('kind="lp_ldp", n_list=(100,), p=2.0, replicates=200, seed=1, '
                          'thresholds=(1.3,)'),
    "lp_gumbel": _RUN.format('kind="lp_gumbel", n_list=(100,), p=1.0, replicates=200, '
                             'seed=1'),
    "equivalence_decay": _RUN.format('kind="equivalence_decay", n_list=(5, 10), '
                                     'replicates=200, seed=1'),
    "clt": _RUN.format('kind="clt", n_list=(100,), q=2.0, replicates=200, seed=1'),
    "clt_q2_5": _RUN.format('kind="clt", n_list=(100,), q=2.5, replicates=200, seed=1'),
    "berry_esseen_sweep": _RUN.format('kind="berry_esseen_sweep", n_list=(10, 20, 40), '
                                      'q=2.0, replicates=200, seed=1'),
    # both sources state their central-moment CLT constants in closed form;
    # the exponential source's mu_q at a non-integer q is a series
    **{case: _RUN.format(f'kind="general_clt", n_list=(100,), q={q}, source="{source}", '
                         'replicates=200, seed=1')
       for case, source, q in [("general_clt_exponential_q2", "exponential", 2.0),
                               ("general_clt_exponential_q2_5", "exponential", 2.5),
                               ("general_clt_uniform01_q1", "uniform01", 1.0),
                               ("general_clt_uniform01_q1_5", "uniform01", 1.5)]},
    "oracle": _CLI.format(["oracle", "--op", "max-spacing-sf", "--n", "100", "--s", "0.05"]),
    "sample": _CLI.format(["sample", "--kind", "ball", "--n", "4", "--count", "3",
                           "--p", "1.5"]),
}


def scipy_modules(code: str, cwd: Path) -> list[str]:
    """The scipy modules loaded after running ``code`` in a fresh interpreter."""
    script = (code + "\nimport json, sys\nprint(json.dumps(sorted("
              "m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))))")
    proc = subprocess.run([sys.executable, "-c", script], cwd=cwd, capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("case", sorted(CASES))
def test_loads_no_scipy(case, tmp_path):
    assert scipy_modules(CASES[case], tmp_path) == []


def test_report_conversion_loads_no_scipy(tmp_path):
    # converting a saved report loads no scipy and reproduces its csv
    report = ex.run(ex.ExperimentConfig(kind="clt", n_list=(100,), q=2.0, replicates=200,
                                        seed=1))
    (tmp_path / "r.json").write_text(report.to_json())
    code = _CLI.format(["report", "--in", "r.json", "--format", "csv", "--out", "r.csv"])
    assert scipy_modules(code, tmp_path) == []
    assert (tmp_path / "r.csv").read_text() == report.to_csv()


def test_m_n_loads_scipy_optimize(tmp_path):
    # the check above sees a scipy import where there is one: m_n is a
    # bracketed root-finding
    code = "from simplex_limits import constants\nconstants.m_n(2.0, 1000)"
    assert "scipy.optimize" in scipy_modules(code, tmp_path)
