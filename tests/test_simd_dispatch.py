"""The reference CDFs and a Gumbel report do not depend on the CPU's SIMD level.

numpy runs float64 ``exp`` through AVX-512 loops where the CPU has them and
through other loops, with other last bits, where it does not.  Both
reference CDFs evaluate libm per value instead, so a child interpreter with
the AVX-512 features switched off by ``NPY_DISABLE_CPU_FEATURES`` must give
the bytes this process gives.  numpy ignores feature names it does not
know, so the test also holds on a CPU without AVX-512 or without x86.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from simplex_limits import experiments as ex
from simplex_limits import statistics as stats
from test_report_digests import CONFIGS

HERE = Path(__file__).resolve().parent


def cdf_and_report_digest() -> str:
    """SHA-256 of both CDFs on a fixed grid and on sorted seeded normal and
    Gumbel samples, and of the ``gumbel_n_in_config_order`` report."""
    rng = np.random.default_rng(22)
    h = hashlib.sha256()
    for x in (np.linspace(-40.0, 40.0, 80_001), np.sort(rng.standard_normal(100_000)),
              np.sort(rng.gumbel(size=100_000))):
        h.update(stats.gaussian_cdf(x).tobytes())
        h.update(stats.gumbel_cdf(x).tobytes())
    report = ex.run(CONFIGS["gumbel_n_in_config_order"])
    h.update((report.to_csv() + report.to_json()).encode())
    return h.hexdigest()


def test_cdfs_and_gumbel_report_are_the_same_bytes_without_avx512():
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR",
           "PYTHONPATH": os.pathsep.join([str(HERE.parent / "src"), str(HERE)])}
    child = subprocess.run(
        [sys.executable, "-c",
         "import test_simd_dispatch as t; print(t.cdf_and_report_digest())"],
        env=env, capture_output=True, text=True, check=True, timeout=300)
    assert child.stdout.strip() == cdf_and_report_digest()
