"""Declarative experiment orchestration.

Replicates are drawn in fixed-size blocks; block ``i`` of an experiment at
dimension ``n`` always comes from ``RandomStream(seed).substream(n).substream(i)``,
so the merged sample is a pure function of the config and never depends on
worker count or scheduling.  Only the statistic value per replicate is kept,
not the n-dimensional points.

Memory model: the simplex and source-distribution kernels (CLT, sup-norm,
equivalence, general CLT) never hold a block.  They draw it a chunk of rows
at a time (``sampling._CHUNK_ELEMS``, 512 KiB, or one row of 8n bytes when
n > 2^16) into a reused buffer and reduce each chunk to its per-replicate
values, so a sample function holds about one chunk per worker plus 8 bytes
per replicate; q=3 keeps one more chunk, its ``d*d``.  Only a chunk that
draws an exact 0.0 (about 2^-64 per variate) makes its block be drawn whole
again.  The lp-ball kernel transforms a whole drawn block in place: about
one block per worker, i.e. workers x 16 MiB, or workers x one row of 8n
bytes when n > 2^21, plus at p != 1 the powers of one chunk of rows.

Finite-n tolerances for the asymptotic claims live in :data:`TOLERANCES`;
the theorems provide limits, not finite-n bounds, so each entry records the
band inside which a desk-scale run is expected to land.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import oracle, sampling
from .constants import MomentConstants, moment_constants, rate_function
from .rng import RandomStream
from .statistics import (
    SOURCE_DISTRIBUTIONS,
    EmpiricalSample,
    abs_moment,
    DegenerateVarianceError,
    gaussian_cdf,
    general_clt_variance,
    gumbel_cdf,
    ks_distance,
    tail_log_prob,
)

#: The one statement of the version: reports, tables, ``--version``,
#: ``__version__`` and the package metadata (``pyproject.toml``) all read it.
TOOL_VERSION = "0.1.0"

#: Replicate-block size in matrix elements (16 MiB of float64 per block; a
#: block is one row of n elements when n > 2^21).  A block is the unit of
#: substream and worker; only the lp-ball kernel holds a whole one, the others
#: draw and reduce it by cache-sized row chunks (see the module docstring).
#: Fixed: it is part of the substream assignment rule.
_BLOCK_ELEMS = 1 << 21

# Finite-n acceptance bands.  Rationale per entry:
#   clt_ks            KS at n=1e4 sits near c_q log(n)/sqrt(n) plus ~0.4% sampling noise
#   clt_var_rel       variance of the scaled statistic converges at 1/sqrt(n)
#   clt_mean_sigmas   mean bias is O(1/sqrt(n)); allowance is in standard errors
#   berry_esseen      only boundedness of D_n sqrt(n)/log n is claimed, not its constant
#   gumbel            log-speed convergence: KS ~ (log n)^2/n at n=1e4 plus noise
#   gumbel_oracle     exact-series check, no sampling; slack is pure finite-n gap
#   ldp/mdp/lp bands  log- resp. sqrt(log)-speed convergence leaves O(1/log n) gaps
#   inf_region_min    +inf-rate rows, Monte Carlo and oracle: demand decay faster
#                     than exp(-3 * speed)
#   equivalence       per-n frequencies compared within binomial error
TOLERANCES = {
    "clt_ks": 0.02,
    "clt_var_rel": 0.05,
    "clt_mean_sigmas": 4.0,
    # the x -> x**(1/q) transform shifts the statistic's mean by O(1/sqrt(n));
    # measured coefficient <= 2.8 for q <= 3, so 4/sqrt(n) covers it
    "clt_mean_bias_coeff": 4.0,
    "berry_esseen_ratio_factor": 2.0,
    "gumbel_ks": 0.05,
    "gumbel_oracle_abs": 0.01,
    "ldp_band": (0.2, 0.3),
    "ldp_oracle_final_abs": 0.1,
    "inf_region_min": 3.0,
    "mdp_band": (0.4, 0.4),
    "lp_ldp_band": (0.39, 0.51),
    "lp_gumbel_ks": 0.05,
    "equiv_se_sigmas": 3.0,
    "equiv_final_freq": 1e-4,
    "general_var_rel": 0.10,
    "general_ks": 0.05,
    "general_mean_sigmas": 4.0,
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one experiment run."""

    kind: str
    n_list: tuple[int, ...]
    replicates: int
    seed: int
    q: float | None = None
    p: float | None = None
    thresholds: tuple[float, ...] = ()
    s_n_rule: str = "sqrt_log"  # sqrt_log | log_log
    source: str = "exponential"
    oracle_n_list: tuple[int, ...] = ()
    workers: int = 1

    def __post_init__(self) -> None:
        if self.kind not in EXPERIMENT_KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.s_n_rule not in ("sqrt_log", "log_log"):
            raise ValueError(f"unknown s_n rule {self.s_n_rule!r}")
        if self.kind in _SUP_KINDS and any(n < 2 for n in self.n_list):
            raise ValueError("sup-norm experiments require every n >= 2")
        if self.kind == "equivalence_decay" and any(not 2 <= n <= 200 for n in self.n_list):
            raise ValueError("equivalence_decay expects n in [2, 200]")

    def s_n(self, n: int) -> float:
        value = math.sqrt(math.log(n)) if self.s_n_rule == "sqrt_log" else math.log(math.log(n))
        if not 1.0 < value < math.log(n):
            raise ValueError(f"s_n rule {self.s_n_rule} gives inadmissible speed {value} at n={n}")
        return value

    def to_dict(self) -> dict:
        # workers is pure scheduling: it never affects the sample, and leaving
        # it out keeps replayed reports byte-identical across worker counts
        d = dataclasses.asdict(self)
        del d["workers"]
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        d = dict(d)
        for key in ("n_list", "thresholds", "oracle_n_list"):
            if key in d and d[key] is not None:
                d[key] = tuple(d[key])
        return cls(**d)


@dataclass(frozen=True)
class ReportRow:
    experiment: str
    n: int
    param: str
    threshold: float | None
    estimate: float | None
    theory: float | None
    std_error: float | None
    passed: bool


#: CSV columns of a report, one per :class:`ReportRow` field in field order.
REPORT_COLUMNS = ("experiment", "n", "param", "threshold", "estimate", "theory",
                  "std_error", "pass")


@dataclass
class ExperimentReport:
    rows: list[ReportRow]
    config: ExperimentConfig
    wall_time: float = 0.0  # not serialized: replays must be byte-identical

    def all_passed(self) -> bool:
        return all(r.passed for r in self.rows)

    def to_csv(self) -> str:
        return self._text("csv")

    def to_json(self) -> str:
        return self._text("json")

    def _text(self, fmt: str) -> str:
        config = self.config.to_dict()
        rows = [dict(zip(REPORT_COLUMNS, dataclasses.astuple(r))) for r in self.rows]
        return table_text(rows, fmt, "config=" + json.dumps(config, sort_keys=True),
                          columns=REPORT_COLUMNS, config=config)


def table_text(rows: list[dict], fmt: str, note: str, columns=None, **meta) -> str:
    """CSV or JSON text of a table of rows, headed by the tool version.

    CSV adds ``note`` as a second comment line and a column line (``columns``,
    by default the first row's keys, so an empty table must name them); JSON
    adds the ``meta`` entries.
    """
    if not rows and columns is None:
        raise ValueError("a table without rows must be given its columns")
    if fmt == "json":
        body = [{k: _json_float(v) for k, v in row.items()} for row in rows]
        return json.dumps({"tool_version": TOOL_VERSION, **meta, "rows": body},
                          sort_keys=True, indent=2) + "\n"
    columns = columns or list(rows[0])
    lines = [f"# simplex-limits {TOOL_VERSION}", f"# {note}", ",".join(columns)]
    lines += [",".join(_fmt(row[c]) for c in columns) for row in rows]
    return "\n".join(lines) + "\n"


def _fmt(x) -> str:
    """CSV text of a table cell: floats round-trip, infinities spelled out."""
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return f"{x:.17g}"
    return str(x)


def _json_float(x):
    if isinstance(x, float) and math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return x


def report_from_json(text: str) -> ExperimentReport:
    """Rebuild a report from its JSON serialization (for format conversion)."""
    payload = json.loads(text)
    undo = {"inf": math.inf, "-inf": -math.inf}
    rows = [ReportRow(*(undo.get(r[c], r[c]) for c in REPORT_COLUMNS))
            for r in payload["rows"]]
    return ExperimentReport(rows=rows, config=ExperimentConfig.from_dict(payload["config"]))


# ---------------------------------------------------------------------------
# replicate-block engine


def _abs_pow(d: np.ndarray, q: float) -> np.ndarray:
    """Raise the nonnegative block ``d``, which the caller owns, to the power
    ``q`` in place and return it."""
    # integer fast paths: generic float powers dominate the runtime otherwise
    if q == 2.0:
        d *= d
    elif q == 3.0:
        np.multiply(d * d, d, out=d)  # one temporary keeps the (d*d)*d bits
    elif float(q).is_integer():
        d **= int(q)
    elif q != 1.0:
        d **= q
    return d


def _blocks(replicates: int, n: int) -> list[tuple[int, int]]:
    rows = max(1, _BLOCK_ELEMS // max(n, 1))
    out = []
    start = 0
    index = 0
    while start < replicates:
        take = min(rows, replicates - start)
        out.append((index, take))
        start += take
        index += 1
    return out


def _collect(stream: RandomStream, kernel, replicates: int, n: int, workers: int) -> np.ndarray:
    """Run ``kernel(block_stream, rows)`` over all blocks and merge in block order."""
    blocks = _blocks(replicates, n)
    results: list[np.ndarray | None] = [None] * len(blocks)
    if workers <= 1 or len(blocks) == 1:
        for index, rows in blocks:
            results[index] = kernel(stream.substream(index), rows)
    else:
        def work(block):
            index, rows = block
            return index, kernel(stream.substream(index), rows)

        with ThreadPoolExecutor(max_workers=workers) as pool:
            for index, arr in pool.map(work, blocks):
                results[index] = arr
    return np.concatenate(results, axis=0)


def _experiment_stream(seed: int, n: int) -> RandomStream:
    # substream id is the dimension itself, so n_list order is irrelevant
    return RandomStream(seed).substream(n)


def _collect_exponential(seed: int, n: int, reduce, replicates: int,
                         workers: int) -> np.ndarray:
    """Per-replicate values ``reduce`` gives the exponential rows of each block."""

    def kernel(bstream: RandomStream, rows: int) -> np.ndarray:
        return sampling.exponential_block(bstream, rows, n, reduce)

    return _collect(_experiment_stream(seed, n), kernel, replicates, n, workers)


def clt_sample(seed: int, n: int, q: float, replicates: int,
               mc: MomentConstants | None = None, workers: int = 1) -> EmpiricalSample:
    """Replicated values of the studentized scaled lq-norm statistic."""
    mc = mc or moment_constants(q)
    inv_mu = 1.0 / mc.mu_q
    sigma = math.sqrt(mc.sigma_q_sq)
    sqrt_n = math.sqrt(n)

    def reduce(e: np.ndarray) -> np.ndarray:
        mean = e.mean(axis=1)
        e -= mean[:, None]
        power_sum = _abs_pow(np.abs(e, out=e), q).sum(axis=1)
        scaled = (power_sum * (inv_mu / n)) ** (1.0 / q) / mean
        return sqrt_n * (scaled - 1.0) / sigma

    values = _collect_exponential(seed, n, reduce, replicates, workers)
    return EmpiricalSample.from_values(values, n=n, statistic_kind=f"clt_q{q:g}", seed=seed)


def sup_norm_sample(seed: int, n: int, replicates: int, workers: int = 1) -> EmpiricalSample:
    """Replicated values of n * ||Z_n||_inf (exponential construction).

    The Gumbel, LDP and MDP statistics are increasing affine transforms of
    this one value, so one sample serves all three.
    """

    def reduce(e: np.ndarray) -> np.ndarray:
        total = e.sum(axis=1)
        return np.maximum(n * e.max(axis=1) / total - 1.0,
                          1.0 - n * e.min(axis=1) / total)

    values = _collect_exponential(seed, n, reduce, replicates, workers)
    return EmpiricalSample.from_values(values, n=n, statistic_kind="sup_norm_scaled", seed=seed)


def _affine_sample(base: EmpiricalSample, scale: float, shift: float, kind: str) -> EmpiricalSample:
    # increasing affine maps preserve sortedness, no re-sort needed
    return EmpiricalSample(values=base.values * scale + shift, replicates=base.replicates,
                           n=base.n, statistic_kind=kind, seed=base.seed)


def ball_sup_sample(seed: int, n: int, p: float, replicates: int,
                    workers: int = 1) -> tuple[EmpiricalSample, float]:
    """Replicated sup-coordinates of uniform lp-ball points, plus the largest
    lp-norm seen (for the membership check)."""

    def kernel(bstream: RandomStream, rows: int) -> np.ndarray:
        a = sampling.lp_ball_block(bstream, rows, n, p)
        sup = np.abs(a, out=a).max(axis=1)  # before _abs_pow overwrites a
        return np.column_stack([sup, _abs_pow(a, p).sum(axis=1) ** (1.0 / p)])

    both = _collect(_experiment_stream(seed, n), kernel, replicates, n, workers)
    sample = EmpiricalSample.from_values(both[:, 0], n=n,
                                         statistic_kind=f"ball_sup_p{p:g}", seed=seed)
    return sample, float(both[:, 1].max())


def equivalence_frequency(seed: int, n: int, replicates: int,
                          workers: int = 1) -> tuple[float, float]:
    """Frequency of ||Z_n||_inf != T_n with its binomial standard error."""

    def reduce(e: np.ndarray) -> np.ndarray:
        # same tie-symmetric comparison form as the scalar indicator
        lhs = 2.0 * e.sum(axis=1) / n
        rhs = e.max(axis=1) + e.min(axis=1)
        return lhs > rhs

    hits = float(_collect_exponential(seed, n, reduce, replicates, workers).sum())
    freq = hits / replicates
    return freq, math.sqrt(freq * (1.0 - freq) / replicates)


def general_clt_sample(seed: int, n: int, q: float, source: str, mq: float,
                       replicates: int, workers: int = 1) -> EmpiricalSample:
    """Replicated values of sqrt(n) * (mean |X - Xbar|**q - mq)."""
    dist = SOURCE_DISTRIBUTIONS[source]
    sqrt_n = math.sqrt(n)

    def reduce(x: np.ndarray) -> np.ndarray:
        x -= x.mean(axis=1)[:, None]
        return sqrt_n * (_abs_pow(np.abs(x, out=x), q).mean(axis=1) - mq)

    def kernel(bstream: RandomStream, rows: int) -> np.ndarray:
        rng = bstream.generator()
        return sampling.reduce_rows(rows, n, lambda k: dist.sample(rng, (k, n)), reduce)

    values = _collect(_experiment_stream(seed, n), kernel, replicates, n, workers)
    return EmpiricalSample.from_values(values, n=n,
                                       statistic_kind=f"general_{source}_q{q:g}", seed=seed)


# ---------------------------------------------------------------------------
# runners


def _require(config: ExperimentConfig, field: str) -> float:
    value = getattr(config, field)
    if value is None or math.isinf(value):
        raise ValueError(f"experiment {config.kind!r} requires a finite {field}")
    return value


def _gaussian_rows(experiment: str, n: int, param: str, studentized: EmpiricalSample,
                   var_display: float, tol: str) -> list[ReportRow]:
    """KS / mean / variance rows for a studentized statistic.

    ``studentized`` should be standard normal in the limit; the variance row
    is reported in the limit-variance units (theory value ``var_display``).
    ``tol`` is the prefix of the rows' ``TOLERANCES`` keys (``clt`` or
    ``general``).
    """
    m = studentized.replicates
    d = ks_distance(studentized, gaussian_cdf, reference="gaussian").ks_distance
    mean = float(studentized.values.mean())
    mean_se = float(studentized.values.std()) / math.sqrt(m)
    var = float(studentized.values.var()) * var_display
    var_se = var * math.sqrt(2.0 / (m - 1)) if m > 1 else math.inf
    mean_tol = (TOLERANCES[f"{tol}_mean_sigmas"] * mean_se
                + TOLERANCES["clt_mean_bias_coeff"] / math.sqrt(n))
    return [
        ReportRow(f"{experiment}:ks", n, param, None, d, 0.0, None,
                  d <= TOLERANCES[f"{tol}_ks"]),
        ReportRow(f"{experiment}:mean", n, param, None, mean, 0.0, mean_se,
                  abs(mean) <= mean_tol),
        ReportRow(f"{experiment}:variance", n, param, None, var, var_display, var_se,
                  abs(var - var_display) <= TOLERANCES[f"{tol}_var_rel"] * var_display),
    ]


def run_clt(config: ExperimentConfig) -> ExperimentReport:
    """Gaussian-limit check of the scaled lq-norm statistic, per dimension."""
    q = _require(config, "q")
    mc = moment_constants(q)
    param = f"q={q:g}"
    rows: list[ReportRow] = []
    for n in config.n_list:
        sample = clt_sample(config.seed, n, q, config.replicates, mc=mc, workers=config.workers)
        # clt_sample is already studentized; the variance row is displayed
        # against the limit variance sigma_q^2 of the unstudentized statistic
        rows.extend(_gaussian_rows("clt", n, param, sample, mc.sigma_q_sq, "clt"))
    return ExperimentReport(rows=rows, config=config)


def run_berry_esseen_sweep(config: ExperimentConfig) -> ExperimentReport:
    """Boundedness of D_n * sqrt(n) / log n across a sweep of dimensions."""
    q = _require(config, "q")
    if len(config.n_list) < 3:
        raise ValueError("berry_esseen_sweep needs at least 3 dimensions")
    mc = moment_constants(q)
    param = f"q={q:g}"
    rows: list[ReportRow] = []
    ratios: list[tuple[int, float]] = []
    for n in sorted(config.n_list):
        sample = clt_sample(config.seed, n, q, config.replicates, mc=mc, workers=config.workers)
        d = ks_distance(sample, gaussian_cdf, reference="gaussian").ks_distance
        rows.append(ReportRow("berry_esseen:ks", n, param, None, d, 0.0, None,
                              0.0 <= d <= 1.0))
        ratios.append((n, d * math.sqrt(n) / math.log(n)))
    bound = TOLERANCES["berry_esseen_ratio_factor"] * ratios[0][1]
    for n, ratio in ratios:
        rows.append(ReportRow("berry_esseen:ratio", n, param, None, ratio, bound, None,
                              ratio <= bound))
    return ExperimentReport(rows=rows, config=config)


# ---------------------------------------------------------------------------
# the sup-norm limit theorems: one table row each, one runner


def _deviation_pass(estimate: float, theory: float, band: tuple[float, float]) -> bool:
    if math.isinf(theory):
        return estimate >= TOLERANCES["inf_region_min"]  # +inf estimates included
    if math.isinf(estimate):
        return False
    return theory - band[0] <= estimate <= theory + band[1]


def _oracle_rate(res: oracle.OracleResult, speed: float) -> tuple[float, float]:
    """Normalized rate -log(P) / speed of an exact probability, with its error."""
    return -math.log(res.value) / speed, res.error_bound / (res.value * speed)


def _gumbel_oracle(config: ExperimentConfig, thresholds, param: str) -> list[ReportRow]:
    """Exact max-spacing curve against the Gumbel CDF at the oracle dimensions."""
    rows = []
    for n in config.oracle_n_list:
        for x in thresholds:
            res = oracle.gumbel_surrogate_cdf(n, x)
            theory = float(gumbel_cdf(x))
            rows.append(ReportRow("gumbel:oracle", n, param, x, res.value, theory,
                                  res.error_bound,
                                  abs(res.value - theory) <= TOLERANCES["gumbel_oracle_abs"]))
    return rows


def _ldp_oracle(config: ExperimentConfig, thresholds, param: str) -> list[ReportRow]:
    """Exact LDP rates, plus a trend row per threshold across the oracle dimensions.

    Only the finite-rate side z > 1 is evaluated: below 1 the alternating
    series cancels past double precision by construction, which is the same
    super-exponential decay the Monte Carlo rows flag.
    """
    rows = []
    for z in thresholds:
        if z <= 1.0:
            continue
        theory = rate_function("simplex_sup", z)
        estimates = []
        for n in sorted(config.oracle_n_list):
            res = oracle.max_spacing_sf(n, (1.0 + z * math.log(n)) / n)
            est, err = _oracle_rate(res, math.log(n))
            rows.append(ReportRow("ldp:oracle", n, param, z, est, theory, err,
                                  _deviation_pass(est, theory, TOLERANCES["ldp_band"])))
            estimates.append(est)
        if len(estimates) >= 2:
            gaps = [abs(e - theory) for e in estimates]
            monotone = all(g2 <= g1 + 1e-12 for g1, g2 in zip(gaps, gaps[1:]))
            rows.append(ReportRow("ldp:oracle_trend", max(config.oracle_n_list), param, z,
                                  gaps[-1], 0.0, None,
                                  monotone and gaps[-1] <= TOLERANCES["ldp_oracle_final_abs"]))
    return rows


def _mdp_oracle(config: ExperimentConfig, thresholds, param: str) -> list[ReportRow]:
    """Exact MDP rates; the lower tail checks super-decay against exp(-3 s_n)
    (``inf_region_min``)."""
    rows = []
    for n in config.oracle_n_list:
        s_n = config.s_n(n)
        log_n = math.log(n)
        for x in thresholds:
            theory = rate_function("mdp", x)
            s = (1.0 + log_n + s_n * x) / n
            if math.isfinite(theory):
                res = oracle.max_spacing_sf(n, s)
            else:
                # lower tail: fall back to the certified product bound when the
                # exact series cancels; its -log is a lower bound on the
                # normalized magnitude, which is all the super-decay floor needs
                try:
                    res = oracle.max_spacing_cdf(n, s)
                except oracle.CancellationError:
                    res = oracle.max_spacing_cdf_upper(n, s)
            est, err = _oracle_rate(res, s_n)
            rows.append(ReportRow("mdp:oracle", n, param, x, est, theory, err,
                                  _deviation_pass(est, theory, TOLERANCES["mdp_band"])))
    return rows


def _simplex_sup(config: ExperimentConfig, n: int):
    return sup_norm_sample(config.seed, n, config.replicates, workers=config.workers), None


def _ball_sup(config: ExperimentConfig, n: int):
    return ball_sup_sample(config.seed, n, config.p, config.replicates, workers=config.workers)


def _p_param(config: ExperimentConfig) -> str:
    return f"p={_require(config, 'p'):g}"


def _l1_param(config: ExperimentConfig) -> str:
    if _require(config, "p") != 1.0:
        raise ValueError("the lp Gumbel limit holds for the l1-ball only; use p=1")
    return "p=1"


def _log_speed(config: ExperimentConfig, n: int) -> float:
    return math.log(n)


@dataclass(frozen=True)
class SupTheorem:
    """How one sup-norm limit theorem is sampled, normalized and checked.

    The statistic is an increasing affine map ``scale * x + shift`` of the
    sampled sup-coordinate.  With ``rate`` None it is tested against the
    Gumbel CDF (KS bound ``TOLERANCES[tol]``); otherwise each threshold's
    tail frequency is compared with the rate function at ``speed`` (band
    ``TOLERANCES[tol]``), in the direction where the rate is finite.
    """

    #: (config, n) -> (sample, largest lp-norm seen or None); a norm adds a
    #: membership row
    sample: Callable
    affine: Callable  # (config, n) -> (scale, shift)
    tol: str
    rate: str | None  # a constants.rate_function kind
    speed: Callable | None  # (config, n) -> deviation speed
    thresholds: tuple[float, ...]  # used when the config gives none
    param: Callable  # config -> row param label; validates the parameter
    oracle: Callable | None  # (config, thresholds, param) -> exact rows


SUP_THEOREMS = {
    # n * ||Z_n||_inf - (log n - 1) -> Gumbel
    "gumbel": SupTheorem(
        sample=_simplex_sup, affine=lambda c, n: (1.0, -(math.log(n) - 1.0)),
        tol="gumbel_ks", rate=None, speed=None, thresholds=(-1.0, 0.0, 1.0, 2.0),
        param=lambda c: "", oracle=_gumbel_oracle),
    # (n / log n) * ||Z_n||_inf: LDP at speed log n, rate z - 1
    "ldp": SupTheorem(
        sample=_simplex_sup, affine=lambda c, n: (1.0 / math.log(n), 0.0),
        tol="ldp_band", rate="simplex_sup", speed=_log_speed, thresholds=(),
        param=lambda c: "", oracle=_ldp_oracle),
    # (n * ||Z_n||_inf - log n) / s_n: MDP at speed s_n, rate x
    "mdp": SupTheorem(
        sample=_simplex_sup, affine=lambda c, n: (1.0 / c.s_n(n), -math.log(n) / c.s_n(n)),
        tol="mdp_band", rate="mdp", speed=lambda c, n: c.s_n(n), thresholds=(1.0,),
        param=lambda c: f"s_n={c.s_n_rule}", oracle=_mdp_oracle),
    # (n / (p log n))**(1/p) * sup-coordinate of the lp-ball: LDP, rate z**p - 1
    "lp_ldp": SupTheorem(
        sample=_ball_sup, affine=lambda c, n: ((n / (c.p * math.log(n))) ** (1.0 / c.p), 0.0),
        tol="lp_ldp_band", rate="lp_sup", speed=_log_speed, thresholds=(),
        param=_p_param, oracle=None),
    # n * sup-coordinate of the l1-ball - log n -> Gumbel
    "lp_gumbel": SupTheorem(
        sample=_ball_sup, affine=lambda c, n: (float(n), -math.log(n)),
        tol="lp_gumbel_ks", rate=None, speed=None, thresholds=(),
        param=_l1_param, oracle=None),
}


def _run_sup(config: ExperimentConfig) -> ExperimentReport:
    """Run one row of :data:`SUP_THEOREMS`: Monte Carlo rows per dimension,
    then the theorem's exact oracle rows."""
    kind = config.kind
    th = SUP_THEOREMS[kind]
    param = th.param(config)
    thresholds = config.thresholds or th.thresholds
    if th.rate is not None and not thresholds:
        raise ValueError(f"{kind} experiment requires thresholds")
    rows: list[ReportRow] = []
    for n in config.n_list:
        scale, shift = th.affine(config, n)
        base, max_norm = th.sample(config, n)
        if max_norm is not None:
            rows.append(ReportRow(f"{kind}:membership", n, param, None, max_norm, 1.0,
                                  None, max_norm <= 1.0 + sampling.SUM_TOL))
        sample = _affine_sample(base, scale, shift, kind)
        if th.rate is None:
            d = ks_distance(sample, gumbel_cdf, reference="gumbel").ks_distance
            rows.append(ReportRow(f"{kind}:ks", n, param, None, d, 0.0, None,
                                  d <= TOLERANCES[th.tol]))
            continue
        speed = th.speed(config, n)
        for z in thresholds:
            theory = rate_function(th.rate, z, p=config.p)
            direction = "above" if math.isfinite(theory) else "below"
            dev = tail_log_prob(sample, z, speed=speed, direction=direction)
            rows.append(ReportRow(f"{kind}:mc", n, param, z, dev.normalized_log_prob, theory,
                                  dev.std_error,
                                  _deviation_pass(dev.normalized_log_prob, theory,
                                                  TOLERANCES[th.tol])))
    if th.oracle is not None:
        rows.extend(th.oracle(config, thresholds, param))
    return ExperimentReport(rows=rows, config=config)


def run_equivalence_decay(config: ExperimentConfig) -> ExperimentReport:
    """Decay of the probability that ||Z_n||_inf differs from the one-sided max."""
    rows: list[ReportRow] = []
    previous: tuple[float, float] | None = None
    for n in sorted(config.n_list):
        freq, se = equivalence_frequency(config.seed, n, config.replicates,
                                         workers=config.workers)
        if previous is None:
            passed = True
        else:
            slack = TOLERANCES["equiv_se_sigmas"] * math.hypot(se, previous[1])
            passed = freq <= previous[0] + slack
        if n >= 100:
            passed = passed and freq <= TOLERANCES["equiv_final_freq"]
        rows.append(ReportRow("equivalence:freq", n, "", None, freq, 0.0, se, passed))
        previous = (freq, se)
    return ExperimentReport(rows=rows, config=config)


def run_general_clt(config: ExperimentConfig) -> ExperimentReport:
    """Central-moment CLT for a named source distribution."""
    q = _require(config, "q")
    if config.source not in SOURCE_DISTRIBUTIONS:
        raise ValueError(f"unknown source distribution {config.source!r}")
    dist = SOURCE_DISTRIBUTIONS[config.source]
    param = f"source={config.source};q={q:g}"
    mq = abs_moment(dist, q, dist.mean)
    try:
        sigma_sq = general_clt_variance(dist, q)
    except DegenerateVarianceError:
        return ExperimentReport(rows=[ReportRow("general_clt:variance", 0, param, None,
                                                None, None, None, False)],
                                config=config)
    rows: list[ReportRow] = []
    for n in config.n_list:
        sample = general_clt_sample(config.seed, n, q, config.source, mq,
                                    config.replicates, workers=config.workers)
        studentized = _affine_sample(sample, 1.0 / math.sqrt(sigma_sq), 0.0,
                                     sample.statistic_kind + "_stud")
        rows.extend(_gaussian_rows("general_clt", n, param, studentized, sigma_sq, "general"))
    return ExperimentReport(rows=rows, config=config)


_RUNNERS = {
    "clt": run_clt,
    "berry_esseen_sweep": run_berry_esseen_sweep,
    **dict.fromkeys(SUP_THEOREMS, _run_sup),
    "equivalence_decay": run_equivalence_decay,
    "general_clt": run_general_clt,
}
EXPERIMENT_KINDS = tuple(_RUNNERS)
# every n must be >= 2 for these (log n > 0, two coordinates to compare)
_SUP_KINDS = {*SUP_THEOREMS, "equivalence_decay"}


def run(config: ExperimentConfig) -> ExperimentReport:
    """Dispatch a config to its runner and stamp the wall time."""
    start = time.perf_counter()
    report = _RUNNERS[config.kind](config)
    if not report.rows:
        raise ValueError(f"{config.kind}: the config yields no report rows")
    report.wall_time = time.perf_counter() - start
    return report
