"""In-memory spans around calls into the package's layers.

Spans are recorded from the benchmark's own files: :func:`instrument` swaps
the package's public functions for timing wrappers for the length of a
``with`` block and puts the originals back afterwards.  Each span records its
name, start, end, parent span and thread; the parent is the innermost open
span on the same thread.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import itertools
import json
import math
import threading
import time
import tracemalloc
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from any thread; ``list.append`` is atomic under the GIL."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    @contextlib.contextmanager
    def span(self, name: str, attrs: dict | None = None):
        stack = self._local.__dict__.setdefault("stack", [])
        s = Span(next(self._ids), name, 0.0, 0.0, stack[-1] if stack else None,
                 threading.get_ident(), attrs or {})
        stack.append(s.id)
        s.start = time.perf_counter()
        try:
            yield s
        except BaseException as exc:
            s.attrs["error"] = type(exc).__name__
            raise
        finally:
            s.end = time.perf_counter()
            stack.pop()
            self.spans.append(s)

    def dump(self, path, label: str) -> None:
        with open(path, "a") as fh:
            for s in self.spans:
                fh.write(json.dumps({"pass": label, **asdict(s)}) + "\n")


def covered(start: float, end: float, intervals) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0.0
    cursor = start
    for a, b in sorted(intervals):
        a, b = max(a, cursor), min(b, end)
        if b > a:
            total += b - a
            cursor = b
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the time its children on the same thread cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    by_id = {s.id: s for s in spans}
    for s in spans:
        parent = by_id.get(s.parent)
        if parent is not None and parent.thread == s.thread:
            children.setdefault(parent.id, []).append((s.start, s.end))
    return {s.id: s.duration - covered(s.start, s.end, children.get(s.id, ()))
            for s in spans}


# ---------------------------------------------------------------------------
# instrumentation


def _n_rows(a):
    return {"variates": a["rows"] * a["n"]}


def _shape(a):
    shape = a["shape"]
    return {"variates": shape if isinstance(shape, int) else math.prod(shape)}


def _sample_fn(a):
    return {"variates": a["replicates"] * a["n"]}


#: Sample functions of ``experiments``: one call draws a whole replicate set.
SAMPLE_FUNCTIONS = ("clt_sample", "sup_norm_sample", "ball_sup_sample",
                    "equivalence_frequency", "general_clt_sample")

#: Names ``experiments`` binds from other modules at import; they are wrapped
#: inside ``experiments`` itself, or calls through them would go untimed.
#: (``EmpiricalSample`` is bound too, but it is one class object in both
#: modules, so wrapping its ``from_values`` covers both.)
EXPERIMENTS_IMPORTS = {
    "ks_distance": ("statistics.ks_distance", lambda a: {"values": a["sample"].replicates}),
    "tail_log_prob": ("statistics.tail_log_prob", None),
    "abs_moment": ("statistics.abs_moment", None),
    "general_clt_variance": ("statistics.general_clt_variance", None),
    "moment_constants": ("constants.moment_constants", None),
}


def _wrap(fn, name: str, tracer: Tracer, attrs, measure_memory: bool = False):
    sig = inspect.signature(fn) if attrs else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        a = attrs(sig.bind(*args, **kwargs).arguments) if attrs else None
        with tracer.span(name, a) as s:
            if not measure_memory:
                return fn(*args, **kwargs)
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            try:
                return fn(*args, **kwargs)
            finally:
                s.attrs["peak_bytes"] = tracemalloc.get_traced_memory()[1] - base

    return wrapper


@contextlib.contextmanager
def instrument(tracer: Tracer, sl, memory: bool = False):
    """Wrap the layer functions of the ``simplex_limits`` package ``sl``.

    With ``memory``, tracemalloc runs for the whole block and the peak traced
    memory inside each sample-function call is recorded as the span attribute
    ``peak_bytes``.  tracemalloc slows small Python allocations several-fold,
    so spans taken with it are used for memory only.
    """
    ex, st = sl.experiments, sl.statistics
    patches = [
        (sl.sampling, "exponential_block", "sampling.exponential_block", _n_rows),
        (sl.sampling, "lp_ball_block", "sampling.lp_ball_block",
         lambda a: {**_n_rows(a), "p": a["p"]}),
        (st.ExponentialDist, "sample", "statistics.source_sample", _shape),
        (st.Uniform01Dist, "sample", "statistics.source_sample", _shape),
        (st.EmpiricalSample, "from_values", "statistics.from_values",
         lambda a: {"values": len(a["values"])}),
        (sl.rng.RandomStream, "generator", "rng.generator", None),
        (sl.oracle, "max_spacing_sf", "oracle.max_spacing_sf", None),
        (sl.oracle, "max_spacing_cdf", "oracle.max_spacing_cdf", None),
        (sl.oracle, "max_spacing_cdf_upper", "oracle.max_spacing_cdf_upper", None),
    ]
    patches += [(ex, name, f"experiments.{name}", _sample_fn) for name in SAMPLE_FUNCTIONS]
    patches += [(ex, name, span_name, attrs)
                for name, (span_name, attrs) in EXPERIMENTS_IMPORTS.items()]

    saved = []
    for owner, attr, span_name, attrs in patches:
        raw = owner.__dict__[attr]
        if isinstance(raw, (staticmethod, classmethod)):
            new = type(raw)(_wrap(raw.__func__, span_name, tracer, attrs))
        else:
            new = _wrap(raw, span_name, tracer, attrs,
                        measure_memory=memory and owner is ex and attr in SAMPLE_FUNCTIONS)
        saved.append((owner, attr, raw))
        setattr(owner, attr, new)
    if memory:
        tracemalloc.start()
    try:
        yield tracer
    finally:
        tracemalloc.stop()
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)

