"""No part of the package imports scipy.

scipy is a test dependency only, the independent reference of the tests.
Importing the package, running every experiment kind at any q, oracle
queries, samples and report conversions must leave no ``scipy`` module in
``sys.modules``, and every CLI subcommand but the experiments, and the
three p-generalized Gaussian tail functions, must run with scipy blocked.
Each case runs in a fresh interpreter, because this test process has
loaded scipy long before.
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


def run_python(code: str, cwd: Path) -> str:
    """The stdout of ``code`` run in a fresh interpreter, which must exit 0."""
    proc = subprocess.run([sys.executable, "-c", code], cwd=cwd, capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def scipy_modules(code: str, cwd: Path) -> list[str]:
    """The scipy modules loaded after running ``code`` in a fresh interpreter."""
    script = (code + "\nimport json, sys\nprint(json.dumps(sorted("
              "m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))))")
    return json.loads(run_python(script, cwd).splitlines()[-1])


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


SAMPLE_KINDS = ("exponential", "simplex", "spacings", "pgen", "ball")
ORACLE_QUERIES = {"max-spacing-cdf": ["--n", "100", "--s", "0.05"],
                  "max-spacing-sf": ["--n", "100", "--s", "0.05"],
                  "small-n-norm-cdf": ["--n", "2", "--q", "2", "--t", "0.5"]}


def test_runs_with_scipy_blocked(tmp_path):
    report = ex.run(ex.ExperimentConfig(kind="clt", n_list=(100,), q=2.0, replicates=200,
                                        seed=1))
    (tmp_path / "r.json").write_text(report.to_json())
    argvs = [["constants", "--q", "1,2.5"],
             *(["sample", "--kind", kind, "--n", "4", "--count", "3", "--p", "1.5"]
               for kind in SAMPLE_KINDS),
             *(["oracle", "--op", op, *args] for op, args in ORACLE_QUERIES.items()),
             ["report", "--in", "r.json"]]
    # None in sys.modules makes every scipy import raise ImportError
    code = f"""import sys
sys.modules["scipy"] = None
try:
    from scipy.special import gammaincc
    raise AssertionError("scipy is not blocked")
except ImportError:
    pass
import simplex_limits
from simplex_limits import cli, constants
print(constants.m_n(1.5, 1000), constants.tail_sandwich(1.5, 2.0).value,
      constants.pgen_two_sided_tail(1.5, 2.0))
for argv in {argvs!r}:
    assert cli.main(argv + ["--out", "out.txt"]) == 0, argv
"""
    assert len(run_python(code, tmp_path).split()) == 3
