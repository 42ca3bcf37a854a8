"""Samplers, exact constants, scaled statistics, and Monte Carlo / exact-oracle
verification of limit theorems for norms of random simplex and lp-ball points."""

from .constants import (
    MomentConstants,
    cov_e_absq,
    m_n,
    moment_constants,
    mu_q,
    rate_function,
    sigma_q_sq,
    subfactorial,
    tail_sandwich,
)
from .experiments import TOOL_VERSION as __version__
from .experiments import ExperimentConfig, ExperimentReport, run
from .oracle import (
    CancellationError,
    OracleResult,
    cov_bruteforce,
    max_spacing_cdf,
    max_spacing_sf,
    small_n_norm_cdf,
)
from .rng import RandomStream
from .statistics import (
    DeviationEstimate,
    EmpiricalSample,
    gaussian_cdf,
    gumbel_cdf,
    ks_distance,
    tail_log_prob,
)
