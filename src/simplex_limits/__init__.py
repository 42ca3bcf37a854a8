"""Samplers, exact constants, scaled statistics, and Monte Carlo / exact-oracle
verification of limit theorems for norms of random simplex and lp-ball points."""

from .constants import (
    LpConstants,
    MomentConstants,
    c_p,
    cov_e_absq,
    gamma_fn,
    lp_constants,
    m_n,
    moment_constants,
    moment_derivative,
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
    mu_q_bruteforce,
    small_n_norm_cdf,
)
from .rng import RandomStream
from .sampling import (
    LpBallPoint,
    SimplexPoint,
    sample_exponentials,
    sample_lp_ball,
    sample_pgen_gaussian,
    sample_simplex,
)
from .statistics import (
    DeviationEstimate,
    EmpiricalSample,
    GoodnessOfFit,
    clt_statistic,
    equivalence_indicator,
    gaussian_cdf,
    gumbel_cdf,
    gumbel_statistic,
    ks_distance,
    ldp_statistic,
    lp_ldp_statistic,
    lq_norm,
    mdp_statistic,
    tail_log_prob,
)
