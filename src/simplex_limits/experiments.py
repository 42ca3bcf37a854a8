"""Declarative experiment orchestration.

Each experiment kind is one entry of :data:`THEOREMS`, which maps a config
to its :class:`Plan`: the dimensions in run order, a per-n function that
draws that n's sample and returns its rows, and a finish function for the
rows that span n and the exact oracle rows.  A plan is built, and the config
checked, before the first draw; :func:`run` is the one runner.

Replicates are drawn in fixed-size blocks; block ``i`` of an experiment at
dimension ``n`` always comes from ``RandomStream(seed).substream(n).substream(i)``,
so the merged sample is a pure function of the config and never depends on
worker count or scheduling.  Only the statistic value per replicate is kept,
not the n-dimensional points.

Memory: no kernel holds a block, and no reducing buffer outlives its
block.  A sample's values are held once: :func:`_collect` copies each block
into the sample's one array as the block ends, ``EmpiricalSample.from_values``
sorts that array in place and :func:`_affine_sample` maps it in place.  The
``sampling`` docstring states the reducing memory, and README "Memory" the
measured peaks of a sample and a run.

Finite-n tolerances for the asymptotic claims live in :data:`TOLERANCES`;
the theorems provide limits, not finite-n bounds, so each entry records the
band inside which a desk-scale run is expected to land.
"""

from __future__ import annotations

import collections
import dataclasses
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import oracle, sampling
from .constants import moment_constants, rate_function
from .rng import RandomStream
from .statistics import (
    SOURCE_DISTRIBUTIONS,
    EmpiricalSample,
    abs_moment,
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
#: substream and worker; the kernels draw and reduce it by cache-sized row
#: chunks and never hold a whole one (see the module docstring).
#: Fixed: it is part of the substream assignment rule.
_BLOCK_ELEMS = 1 << 21

# Finite-n acceptance bands.  Rationale per entry:
#   clt_ks            KS at n=1e4 sits near c_q log(n)/sqrt(n) plus ~0.4% sampling noise
#   clt_var_rel       variance of the scaled statistic converges at 1/sqrt(n)
#   mean_sigmas       mean bias is O(1/sqrt(n)); allowance is in the N(0, 1) limit's
#                     standard errors 1/sqrt(replicates), not the sample's own
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
    "mean_sigmas": 4.0,
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
}


#: moderate-deviation speed rule -> s_n as a function of the dimension n
S_N_RULES = {"sqrt_log": lambda n: math.sqrt(math.log(n)),
             "log_log": lambda n: math.log(math.log(n))}


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one experiment run.

    Building one checks every field: its JSON type, its value, the dimension
    rule (every n >= 2, no repeats) and the kind-field rule of
    :data:`_KIND_FIELDS`, so a config states only what its run reads.
    """

    kind: str
    n_list: tuple[int, ...]
    replicates: int
    seed: int
    q: float | None = None
    p: float | None = None
    thresholds: tuple[float, ...] = ()
    s_n_rule: str = "sqrt_log"  # a key of S_N_RULES
    source: str = "exponential"
    oracle_n_list: tuple[int, ...] = ()
    workers: int = 1

    def __post_init__(self) -> None:
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if value is not None or f.default is not None:
                object.__setattr__(self, f.name, json_value(_FIELD_TYPES[f.name], value,
                                                            f"config field {f.name!r}"))
        if self.kind not in EXPERIMENT_KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        # one value is at KS distance >= 1/2 from any continuous law and has
        # a standard error of 0, so its Gaussian rows would show nothing
        if self.kind in ("clt", "general_clt", "berry_esseen_sweep") and self.replicates < 2:
            raise ValueError(f"{self.kind} experiments require replicates >= 2, "
                             f"got {self.replicates}")
        RandomStream(self.seed)  # checks the seed's range
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.s_n_rule not in S_N_RULES:
            raise ValueError(f"unknown s_n rule {self.s_n_rule!r}")
        if self.source not in SOURCE_DISTRIBUTIONS:
            raise ValueError(f"unknown source distribution {self.source!r}")
        if not all(math.isfinite(z) for z in self.thresholds):
            raise ValueError(f"thresholds must be finite, got {self.thresholds}")
        # log n > 0, two coordinates (spacings, for the oracle) to compare and
        # a nonconstant statistic; each n is one substream
        for name in ("n_list", "oracle_n_list"):
            ns = getattr(self, name)
            if any(n < 2 for n in ns):
                raise ValueError(f"{self.kind} experiments require every n >= 2 in {name}, "
                                 f"got {ns}")
            if len(set(ns)) < len(ns):
                raise ValueError(f"{name} repeats a dimension, got {ns}: each n is one "
                                 f"substream, so a repeat would only copy its rows")
        if self.kind == "equivalence_decay" and any(n > 200 for n in self.n_list):
            raise ValueError("equivalence_decay expects n in [2, 200]")
        defaults = {f.name: f.default for f in dataclasses.fields(self)}
        for name in _OPTIONAL_FIELDS:
            value, reads = getattr(self, name), name in _KIND_FIELDS[self.kind]
            if not reads and value != defaults[name]:
                raise ValueError(f"{self.kind} experiments do not read {name}, got {value!r}")
            if reads and defaults[name] is None and (value is None or not math.isfinite(value)):
                raise ValueError(f"experiment {self.kind!r} requires a finite {name}")

    def s_n(self, n: int) -> float:
        value = S_N_RULES[self.s_n_rule](n)
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
        fields = {f.name: f for f in dataclasses.fields(cls)}
        _require_keys(d, [k for k, f in fields.items() if f.default is dataclasses.MISSING],
                      "config", known=fields)
        return cls(**d)


#: The fields a config may leave at their defaults, and kind -> the ones of
#: them that the kind reads.  A read field whose default is None must be set
#: and finite; every other one must keep its default, so that a report's
#: config states only what the run read.
_OPTIONAL_FIELDS = ("q", "p", "thresholds", "s_n_rule", "source", "oracle_n_list")
_KIND_FIELDS = {
    "clt": ("q",), "berry_esseen_sweep": ("q",), "general_clt": ("q", "source"),
    "equivalence_decay": (),
    "gumbel": ("thresholds", "oracle_n_list"), "ldp": ("thresholds", "oracle_n_list"),
    "mdp": ("thresholds", "s_n_rule", "oracle_n_list"),
    "lp_ldp": ("p", "thresholds"), "lp_gumbel": ("p",),
}

#: config field -> the JSON type of its value, ``[t]`` for a list of ``t``;
#: a field whose default is None may also be None
_FIELD_TYPES = {"kind": str, "n_list": [int], "replicates": int, "seed": int, "q": float,
                "p": float, "thresholds": [float], "s_n_rule": str, "source": str,
                "oracle_n_list": [int], "workers": int}

#: JSON type -> (one value, several values), in the words of a usage error;
#: ``"cell"`` is a report's number cell, which may also be null, "inf" or "-inf"
_TYPE_WORDS = {int: ("an integer", "integers"), float: ("a number", "numbers"),
               str: ("a string", "strings"), bool: ("true or false", "booleans"),
               "cell": ('a number, null, "inf" or "-inf"', None)}


def _is_json(value, kind) -> bool:
    if kind == "cell":
        return value is None or value in ("inf", "-inf") or _is_json(value, float)
    # JSON true/false are bools, which Python counts as ints
    if isinstance(value, bool):
        return kind is bool
    return isinstance(value, (int, float) if kind is float else kind)


def json_value(kind, value, what: str):
    """``value`` as a field of JSON type ``kind`` holds it: a list as a tuple,
    an integer as a float in a number field (so a JSON 2 reads as the flag's
    2.0), and a cell's "inf" as a float.  A value of another JSON type is a
    ``ValueError`` that names ``what``."""
    if isinstance(kind, list):
        if isinstance(value, (list, tuple)) and all(_is_json(v, kind[0]) for v in value):
            return tuple(map(kind[0], value))
        raise ValueError(f"{what} must be a list of {_TYPE_WORDS[kind[0]][1]}, got {value!r}")
    if not _is_json(value, kind):
        raise ValueError(f"{what} must be {_TYPE_WORDS[kind][0]}, got {value!r}")
    return None if value is None else (float if kind == "cell" else kind)(value)


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

#: report column -> the JSON type of its cell
_CELL_TYPES = dict(zip(REPORT_COLUMNS, (str, int, str, "cell", "cell", "cell", "cell", bool)))


@dataclass
class ExperimentReport:
    rows: list[ReportRow]
    config: ExperimentConfig
    wall_time: float = 0.0  # not serialized: replays must be byte-identical

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
    if isinstance(x, float) and math.isfinite(x):
        return f"{x:.17g}"
    return str(_json_float(x))


def _json_float(x):
    if isinstance(x, float) and math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return x


def _require_keys(obj, keys, what: str, known) -> None:
    """``obj`` is a dict with every key of ``keys`` and no key outside ``known``."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(obj).__name__}")
    missing = [k for k in keys if k not in obj]
    if missing:
        raise ValueError(f"{what} has no key {', '.join(map(repr, missing))}")
    unknown = sorted(set(obj).difference(known))
    if unknown:
        raise ValueError(f"{what} has unknown keys {', '.join(map(repr, unknown))}; "
                         f"known keys: {', '.join(known)}")


def report_from_json(text: str) -> ExperimentReport:
    """Rebuild a report from its JSON serialization (for format conversion).

    JSON that is not such a report, or that another tool version wrote, is a
    ``ValueError`` that names the missing or unknown key, the row and column
    of a cell of the wrong type, or the two versions.
    """
    payload = json.loads(text)
    top = ("rows", "config", "tool_version")
    _require_keys(payload, top, "report", known=top)
    if payload["tool_version"] != TOOL_VERSION:
        raise ValueError(f"report tool_version {payload['tool_version']!r} is not this "
                         f"version, {TOOL_VERSION!r}")
    if not isinstance(payload["rows"], list):
        raise ValueError("report key 'rows' must be a list")
    rows = []
    for i, row in enumerate(payload["rows"]):
        _require_keys(row, REPORT_COLUMNS, f"report row {i}", known=REPORT_COLUMNS)
        rows.append(ReportRow(*(json_value(_CELL_TYPES[c], row[c], f"report row {i} column {c!r}")
                                for c in REPORT_COLUMNS)))
    return ExperimentReport(rows=rows, config=ExperimentConfig.from_dict(payload["config"]))


# ---------------------------------------------------------------------------
# replicate-block engine


def _blocks(kernel, streams, rows: list[int], workers: int):
    """``kernel(stream, rows)`` of each block, in block order: in this thread
    at one worker, else on a pool that is handed a block only while at most
    ``workers`` are waiting to be taken, so that neither finished blocks nor
    their futures pile up."""
    if workers <= 1:
        yield from map(kernel, streams, rows)
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        ahead = collections.deque()
        for stream, r in zip(streams, rows):
            ahead.append(pool.submit(kernel, stream, r))
            if len(ahead) > workers:
                yield ahead.popleft().result()
        while ahead:
            yield ahead.popleft().result()


def _collect(seed: int, n: int, replicates: int, workers: int, kernel) -> np.ndarray:
    """Per-replicate values of an experiment at dimension ``n``: ``kernel(stream,
    rows)`` of each block, one entry per row, in block order.

    Block ``i`` holds ``max(1, _BLOCK_ELEMS // n)`` rows (the last one holds what
    is left) and draws from ``RandomStream(seed).substream(n).substream(i)``; the
    substream id is the dimension itself, so n_list order is irrelevant.  The
    values are held once: a sample of one block is that block; otherwise the
    first block fixes the dtype and shape of the sample's one array, and each
    block is copied into its rows as it ends and then dropped.  The array is
    laid out column by column, so each column of a block of several (the
    lp-ball's) lies contiguously and can be sorted where it lies.
    """
    step = max(1, _BLOCK_ELEMS // n)
    starts = range(0, replicates, step)
    rows = [min(step, replicates - start) for start in starts]
    streams = map(RandomStream(seed).substream(n).substream, range(len(rows)))
    if len(rows) == 1:
        return kernel(next(streams), replicates)
    blocks = _blocks(kernel, streams, rows, workers)
    out = None
    for start in starts:
        block = next(blocks)
        if out is None:
            out = np.empty((replicates, *block.shape[1:]), block.dtype, order="F")
        out[start:start + len(block)] = block
        del block  # before the next block is drawn
    return out


def _sorted_values(seed: int, n: int, replicates: int, workers: int, finish,
                   source=None, **reductions) -> EmpiricalSample:
    """Sorted values of ``RowReduction(finish, **reductions)`` over the
    experiment's blocks, drawn from the exponential sampler or, when given,
    the ``source`` distribution."""
    reduce = sampling.RowReduction(finish, **reductions)

    def kernel(bstream: RandomStream, rows: int) -> np.ndarray:
        if source is None:
            return sampling.exponential_block(bstream, rows, n, reduce)
        rng = bstream.generator()
        return reduce(lambda leaf: source.sample(rng, leaf.shape, out=leaf), rows, n)

    return EmpiricalSample.from_values(_collect(seed, n, replicates, workers, kernel))


def clt_sample(seed: int, n: int, q: float, replicates: int,
               workers: int = 1) -> EmpiricalSample:
    """Replicated values of the studentized scaled lq-norm statistic."""
    mc = moment_constants(q)
    inv_mu = 1.0 / mc.mu_q
    sigma = math.sqrt(mc.sigma_q_sq)
    sqrt_n = math.sqrt(n)

    def finish(s: sampling.RowStats) -> np.ndarray:
        scaled = (s.power * (inv_mu / n)) ** (1.0 / q) / (s.total / n)
        return sqrt_n * (scaled - 1.0) / sigma

    return _sorted_values(seed, n, replicates, workers, finish, q=q)


def sup_norm_sample(seed: int, n: int, replicates: int, workers: int = 1) -> EmpiricalSample:
    """Replicated values of n * ||Z_n||_inf (exponential construction).

    The Gumbel, LDP and MDP statistics are increasing affine transforms of
    this one value, so one sample serves all three.
    """

    def finish(s: sampling.RowStats) -> np.ndarray:
        return np.maximum(n * s.high / s.total - 1.0, 1.0 - n * s.low / s.total)

    return _sorted_values(seed, n, replicates, workers, finish, extremes=True)


def _affine_sample(base: EmpiricalSample, scale: float, shift: float) -> EmpiricalSample:
    """``base`` mapped by x -> scale * x + shift, in place: the caller hands
    ``base`` over, and the result holds its array.  ``v *= scale; v += shift``
    rounds as ``v * scale + shift`` does, and an increasing map keeps the
    values sorted, so there is no re-sort."""
    values = base.values
    values *= scale
    values += shift
    return EmpiricalSample(values)


def ball_sup_sample(seed: int, n: int, p: float, replicates: int,
                    workers: int = 1) -> tuple[EmpiricalSample, float]:
    """Replicated sup-coordinates of uniform lp-ball points, plus the largest
    lp-norm seen (for the membership check)."""
    both = _collect(seed, n, replicates, workers,
                    lambda bstream, rows: sampling.lp_ball_block(bstream, rows, n, p, sup=True))
    return EmpiricalSample.from_values(both[:, 0]), float(both[:, 1].max())


def equivalence_frequency(seed: int, n: int, replicates: int,
                          workers: int = 1) -> tuple[float, float]:
    """Frequency of ||Z_n||_inf != T_n with its binomial standard error."""

    def finish(s: sampling.RowStats) -> np.ndarray:
        # the norms differ exactly when the most negative centered coordinate
        # beats the most positive one in absolute value, i.e. when
        # 2 * mean > max + min; a tie counts as equal, and at n = 2, where
        # the two sides are equal by construction, this form is exact
        return 2.0 * s.total / n > s.high + s.low

    reduce = sampling.RowReduction(finish, extremes=True)
    # the sample holds one bool, a byte, per row; its hits are counted
    hits = int(np.count_nonzero(_collect(seed, n, replicates, workers, lambda bstream, rows:
                                         sampling.exponential_block(bstream, rows, n, reduce))))
    freq = hits / replicates
    return freq, math.sqrt(freq * (1.0 - freq) / replicates)


def general_clt_sample(seed: int, n: int, q: float, source: str, mq: float,
                       replicates: int, workers: int = 1) -> EmpiricalSample:
    """Replicated values of sqrt(n) * (mean |X - Xbar|**q - mq)."""
    sqrt_n = math.sqrt(n)

    def finish(s: sampling.RowStats) -> np.ndarray:
        return sqrt_n * (s.power / n - mq)

    return _sorted_values(seed, n, replicates, workers, finish,
                          source=SOURCE_DISTRIBUTIONS[source], q=q)


# ---------------------------------------------------------------------------
# the theorem table: each kind builds a plan, and one runner runs every plan


class Plan(NamedTuple):
    """How one config runs, fixed before the first draw.

    :func:`run` calls ``rows_at(n)`` for each dimension of ``n_list`` in
    order; each call draws that n's sample and returns its rows.  ``finish``
    then maps those rows to the report's: it adds the rows that compare
    dimensions, rewrites a pass decided by a rule that spans n, and appends
    the exact oracle rows, which the plan computed when it was built.
    Building a plan checks what the config's kind needs, so a config that it
    rejects fails before any draw.
    """

    n_list: tuple[int, ...]
    rows_at: Callable[[int], list[ReportRow]]
    finish: Callable[[list[ReportRow]], list[ReportRow]] = list


def _gaussian_plan(config: ExperimentConfig, param: str, var_display: float, tol: str,
                   studentized_at: Callable[[int], EmpiricalSample]) -> Plan:
    """KS / mean / variance rows per dimension for a studentized statistic.

    ``studentized_at(n)`` draws the statistic's sample at n, which should be
    standard normal in the limit; the variance row is reported in the
    limit-variance units (theory value ``var_display``).  ``tol`` is the
    prefix of the rows' ``TOLERANCES`` keys (``clt`` or ``general``).
    """

    def rows_at(n: int) -> list[ReportRow]:
        studentized = studentized_at(n)
        m = studentized.replicates
        d = ks_distance(studentized, gaussian_cdf)
        mean = float(studentized.values.mean())
        var = float(studentized.values.var())  # numpy's std is its sqrt
        mean_se = math.sqrt(var) / math.sqrt(m)
        var *= var_display
        var_se = var * math.sqrt(2.0 / (m - 1))
        # in units of the limit law's SE, 1/sqrt(m): a heavy tail inflates
        # the sample's own SE, which would pass a mean on no evidence
        mean_tol = (TOLERANCES["mean_sigmas"] / math.sqrt(m)
                    + TOLERANCES["clt_mean_bias_coeff"] / math.sqrt(n))
        return [
            ReportRow(f"{config.kind}:ks", n, param, None, d, 0.0, None,
                      d <= TOLERANCES[f"{tol}_ks"]),
            ReportRow(f"{config.kind}:mean", n, param, None, mean, 0.0, mean_se,
                      abs(mean) <= mean_tol),
            ReportRow(f"{config.kind}:variance", n, param, None, var, var_display, var_se,
                      abs(var - var_display) <= TOLERANCES[f"{tol}_var_rel"] * var_display),
        ]

    return Plan(config.n_list, rows_at)


def _clt(config: ExperimentConfig) -> Plan:
    """Gaussian-limit check of the scaled lq-norm statistic, per dimension."""
    mc = moment_constants(config.q)
    # clt_sample is already studentized; the variance row is displayed
    # against the limit variance sigma_q^2 of the unstudentized statistic
    return _gaussian_plan(config, f"q={config.q:g}", mc.sigma_q_sq, "clt", lambda n: clt_sample(
        config.seed, n, config.q, config.replicates, workers=config.workers))


def _berry_esseen_sweep(config: ExperimentConfig) -> Plan:
    """Boundedness of D_n * sqrt(n) / log n across a sweep of dimensions."""
    if len(config.n_list) < 3:
        raise ValueError("berry_esseen_sweep needs at least 3 dimensions")
    param = f"q={config.q:g}"

    def rows_at(n: int) -> list[ReportRow]:
        sample = clt_sample(config.seed, n, config.q, config.replicates, workers=config.workers)
        # a KS row always passes: the ratio rows carry the sweep's verdict
        return [ReportRow("berry_esseen:ks", n, param, None, ks_distance(sample, gaussian_cdf),
                          0.0, None, True)]

    def finish(rows: list[ReportRow]) -> list[ReportRow]:
        ratios = [(r.n, r.estimate * math.sqrt(r.n) / math.log(r.n)) for r in rows]
        bound = TOLERANCES["berry_esseen_ratio_factor"] * ratios[0][1]
        return rows + [ReportRow("berry_esseen:ratio", n, param, None, ratio, bound, None,
                                 ratio <= bound) for n, ratio in ratios]

    return Plan(tuple(sorted(config.n_list)), rows_at, finish)


# ---------------------------------------------------------------------------
# the sup-norm limit theorems: one table entry each, one plan builder


def _deviation_pass(estimate: float, theory: float, band: tuple[float, float]) -> bool:
    if math.isinf(theory):
        return estimate >= TOLERANCES["inf_region_min"]  # +inf estimates included
    if math.isinf(estimate):
        return False
    return theory - band[0] <= estimate <= theory + band[1]


def _oracle_grid(theorem: SupTheorem, config: ExperimentConfig, thresholds,
                 param: str) -> list[ReportRow]:
    """Exact rows at every oracle dimension in config order, thresholds inner."""
    return [theorem.exact(config, n, z, param)
            for n in config.oracle_n_list for z in thresholds]


def _ldp_oracle(theorem: SupTheorem, config: ExperimentConfig, thresholds,
                param: str) -> list[ReportRow]:
    """Exact LDP rates, plus a trend row per threshold across the oracle dimensions.

    Only the finite-rate side z > 1 is evaluated: below 1 the alternating
    series cancels past double precision by construction, which is the same
    super-exponential decay the Monte Carlo rows flag.
    """
    rows = []
    for z in thresholds:
        if z <= 1.0:
            continue
        exact = [theorem.exact(config, n, z, param) for n in sorted(config.oracle_n_list)]
        rows += exact
        if len(exact) >= 2:
            gaps = [abs(r.estimate - r.theory) for r in exact]
            monotone = all(g2 <= g1 + 1e-12 for g1, g2 in zip(gaps, gaps[1:]))
            rows.append(ReportRow("ldp:oracle_trend", max(config.oracle_n_list), param, z,
                                  gaps[-1], 0.0, None,
                                  monotone and gaps[-1] <= TOLERANCES["ldp_oracle_final_abs"]))
    return rows


def _simplex_sup(config: ExperimentConfig, n: int):
    return sup_norm_sample(config.seed, n, config.replicates, workers=config.workers), None


def _ball_sup(config: ExperimentConfig, n: int):
    return ball_sup_sample(config.seed, n, config.p, config.replicates, workers=config.workers)


def _l1_param(config: ExperimentConfig) -> str:
    if config.p != 1.0:
        raise ValueError("the lp Gumbel limit holds for the l1-ball only; use p=1")
    return "p=1"


@dataclass(frozen=True)
class SupTheorem:
    """How one sup-norm limit theorem is sampled, normalized and checked.

    The statistic is an increasing affine map ``scale * x + shift`` of the
    sampled sup-coordinate.  With ``rate`` None it is tested against the
    Gumbel CDF (KS bound ``TOLERANCES[tol]``); otherwise each threshold's
    tail frequency is compared with the rate function at ``speed`` (band
    ``TOLERANCES[tol]``), in the direction where the rate is finite.

    :meth:`exact` is the one rule of an exact row: the same check, on the
    max-spacing oracle's probability at one dimension and threshold instead
    of a sample's.  ``spacing`` maps a threshold to the spacing bound that
    the oracle is asked about, and ``oracle`` lays the exact rows out over
    the config's oracle dimensions.
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
    spacing: Callable | None = None  # (config, n, z) -> max-spacing bound at z
    oracle: Callable | None = None  # (theorem, config, thresholds, param) -> exact rows

    def exact(self, config: ExperimentConfig, n: int, z: float, param: str) -> ReportRow:
        """The exact oracle row at dimension ``n`` and threshold ``z``.

        A Gumbel theorem compares the exact CDF with the Gumbel CDF; a
        deviation theorem compares the normalized rate -log(P) / speed of the
        exact tail probability, on the side where the rate is finite, with
        the rate function.  The CDF is 0 at every spacing bound s <= 1/n
        (pigeonhole), so it is asked at 1/n there: a bound s <= 0, outside
        the oracle's domain (0, 1), is probability 0 with no error.
        """
        s = self.spacing(config, n, z)
        cdf_at = max(s, 1.0 / n)
        if self.rate is None:
            res = oracle.max_spacing_cdf(n, cdf_at)
            theory = float(gumbel_cdf(z))
            return ReportRow(f"{config.kind}:oracle", n, param, z, res.value, theory,
                             res.error_bound,
                             abs(res.value - theory) <= TOLERANCES["gumbel_oracle_abs"])
        theory = rate_function(self.rate, z, p=config.p)
        if math.isfinite(theory):
            res = oracle.max_spacing_sf(n, s)
        else:
            # lower tail: fall back to the certified product bound when the
            # exact series cancels; its -log is a lower bound on the
            # normalized magnitude, which is all the super-decay floor needs
            try:
                res = oracle.max_spacing_cdf(n, cdf_at)
            except oracle.CancellationError:
                res = oracle.max_spacing_cdf_upper(n, cdf_at)
        speed = self.speed(config, n)
        if res.value == 0.0:
            # a tail below the float range (or empty, s <= 1/n) reads as an
            # empty Monte Carlo tail does: a +inf rate, here with no error
            est, err = math.inf, 0.0
        else:
            est, err = -math.log(res.value) / speed, res.error_bound / (res.value * speed)
        return ReportRow(f"{config.kind}:oracle", n, param, z, est, theory, err,
                         _deviation_pass(est, theory, TOLERANCES[self.tol]))

    def __call__(self, config: ExperimentConfig) -> Plan:
        """The plan of one config: Monte Carlo rows per dimension, then the
        theorem's exact oracle rows.  Every map, speed and exact row is
        computed here, before the first draw."""
        kind = config.kind
        param = self.param(config)
        thresholds = config.thresholds or self.thresholds
        if self.rate is not None and not thresholds:
            raise ValueError(f"{kind} experiment requires thresholds")
        maps = {n: (*self.affine(config, n), self.speed(config, n) if self.rate else None)
                for n in config.n_list}
        oracle_rows = self.oracle(self, config, thresholds, param) if self.oracle else []

        def rows_at(n: int) -> list[ReportRow]:
            scale, shift, speed = maps[n]
            base, max_norm = self.sample(config, n)
            rows = []
            if max_norm is not None:
                rows.append(ReportRow(f"{kind}:membership", n, param, None, max_norm, 1.0,
                                      None, max_norm <= 1.0 + sampling.SUM_TOL))
            sample = _affine_sample(base, scale, shift)
            if self.rate is None:
                d = ks_distance(sample, gumbel_cdf)
                return rows + [ReportRow(f"{kind}:ks", n, param, None, d, 0.0, None,
                                         d <= TOLERANCES[self.tol])]
            for z in thresholds:
                theory = rate_function(self.rate, z, p=config.p)
                direction = "above" if math.isfinite(theory) else "below"
                dev = tail_log_prob(sample, z, speed=speed, direction=direction)
                est = dev.normalized_log_prob
                rows.append(ReportRow(f"{kind}:mc", n, param, z, est, theory, dev.std_error,
                                      _deviation_pass(est, theory, TOLERANCES[self.tol])))
            return rows

        return Plan(config.n_list, rows_at, lambda rows: rows + oracle_rows)


SUP_THEOREMS = {
    # n * ||Z_n||_inf - (log n - 1) -> Gumbel
    "gumbel": SupTheorem(
        sample=_simplex_sup, affine=lambda c, n: (1.0, -(math.log(n) - 1.0)),
        tol="gumbel_ks", rate=None, speed=None, thresholds=(-1.0, 0.0, 1.0, 2.0),
        param=lambda c: "", spacing=lambda c, n, x: (x + math.log(n)) / n,
        oracle=_oracle_grid),
    # (n / log n) * ||Z_n||_inf: LDP at speed log n, rate z - 1
    "ldp": SupTheorem(
        sample=_simplex_sup, affine=lambda c, n: (1.0 / math.log(n), 0.0),
        tol="ldp_band", rate="simplex_sup", speed=lambda c, n: math.log(n), thresholds=(),
        param=lambda c: "", spacing=lambda c, n, z: (1.0 + z * math.log(n)) / n,
        oracle=_ldp_oracle),
    # (n * ||Z_n||_inf - log n) / s_n: MDP at speed s_n, rate x
    "mdp": SupTheorem(
        sample=_simplex_sup, affine=lambda c, n: (1.0 / c.s_n(n), -math.log(n) / c.s_n(n)),
        tol="mdp_band", rate="mdp", speed=lambda c, n: c.s_n(n), thresholds=(1.0,),
        param=lambda c: f"s_n={c.s_n_rule}",
        spacing=lambda c, n, x: (1.0 + math.log(n) + c.s_n(n) * x) / n, oracle=_oracle_grid),
    # (n / (p log n))**(1/p) * sup-coordinate of the lp-ball: LDP, rate z**p - 1
    "lp_ldp": SupTheorem(
        sample=_ball_sup, affine=lambda c, n: ((n / (c.p * math.log(n))) ** (1.0 / c.p), 0.0),
        tol="lp_ldp_band", rate="lp_sup", speed=lambda c, n: math.log(n), thresholds=(),
        param=lambda c: f"p={c.p:g}"),
    # n * sup-coordinate of the l1-ball - log n -> Gumbel
    "lp_gumbel": SupTheorem(
        sample=_ball_sup, affine=lambda c, n: (float(n), -math.log(n)),
        tol="lp_gumbel_ks", rate=None, speed=None, thresholds=(), param=_l1_param),
}


def _equivalence_decay(config: ExperimentConfig) -> Plan:
    """Decay of the probability that ||Z_n||_inf differs from the one-sided max."""

    def rows_at(n: int) -> list[ReportRow]:
        freq, se = equivalence_frequency(config.seed, n, config.replicates,
                                         workers=config.workers)
        # from n = 100 on, the frequency must be all but zero
        return [ReportRow("equivalence:freq", n, "", None, freq, 0.0, se,
                          n < 100 or freq <= TOLERANCES["equiv_final_freq"])]

    def finish(rows: list[ReportRow]) -> list[ReportRow]:
        # a frequency may exceed the one at the next smaller n only within
        # binomial error
        sigmas = TOLERANCES["equiv_se_sigmas"]
        return rows[:1] + [dataclasses.replace(r, passed=r.passed and r.estimate <= (
            prev.estimate + sigmas * math.hypot(r.std_error, prev.std_error)))
            for prev, r in zip(rows, rows[1:])]

    return Plan(tuple(sorted(config.n_list)), rows_at, finish)


def _general_clt(config: ExperimentConfig) -> Plan:
    """Central-moment CLT for a named source distribution."""
    q, dist = config.q, SOURCE_DISTRIBUTIONS[config.source]
    param = f"source={config.source};q={q:g}"
    mq, sigma_sq = abs_moment(dist, q), general_clt_variance(dist, q)
    return _gaussian_plan(config, param, sigma_sq, "general", lambda n: _affine_sample(
        general_clt_sample(config.seed, n, q, config.source, mq, config.replicates,
                           workers=config.workers), 1.0 / math.sqrt(sigma_sq), 0.0))


#: experiment kind -> its plan builder, ``config -> Plan``
THEOREMS = {
    "clt": _clt,
    "berry_esseen_sweep": _berry_esseen_sweep,
    **SUP_THEOREMS,
    "equivalence_decay": _equivalence_decay,
    "general_clt": _general_clt,
}
EXPERIMENT_KINDS = tuple(THEOREMS)


def run(config: ExperimentConfig) -> ExperimentReport:
    """Run the plan that :data:`THEOREMS` builds for a config, and stamp the
    wall time."""
    start = time.perf_counter()
    n_list, rows_at, finish = THEOREMS[config.kind](config)
    rows = finish([row for n in n_list for row in rows_at(n)])
    if not rows:
        raise ValueError(f"{config.kind}: the config yields no report rows")
    return ExperimentReport(rows, config, wall_time=time.perf_counter() - start)
