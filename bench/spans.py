"""In-memory spans around speccon's public functions, and their aggregation.

A span records a name, start and end (``time.perf_counter``), the span that
caused it, the thread it ran on, the CPU time of the calling thread, and
name-specific work counts (for example Σn³ for an eigendecomposition). Spans
are kept in memory and written once, when the traced command ends.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import math
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

LAYERS = ("graphs", "filters", "rates", "sim")
# Names a layer imports from another and whose calls count as its own work:
# ``simulate`` converts the dense adjacency to edges on every run.
CALLER_SPANS = {"sim": ("edge_arrays",)}
# Percentiles reported where at least ten calls lie beyond them.
PERCENTILES = (50.0, 90.0, 99.0, 99.9)
MIN_CALLS_FOR_PERCENTILES = 20


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    thread: int
    start: float
    end: float = 0.0
    cpu: float = 0.0
    work: dict[str, float] = field(default_factory=dict)


def _agent_steps(a, _result) -> dict[str, float]:
    n, steps = a["g"].n, a["steps"]
    return {"agent_steps": float(n * steps), "state_bytes": float((steps + 1) * n * 8)}


# Work counts from a call's bound arguments and its result, by span name.
WORK = {
    "graphs.spectrum": lambda a, _result: {"n_cubed": float(a["g"].n) ** 3},
    "graphs.is_connected": lambda _a, connected: {"accepted": float(connected)},
    "filters.eval_filter": lambda a, _result: {"terms": float(np.size(a["lam"]) * a["steps"])},
    "sim.simulate": _agent_steps,
}


class Tracer:
    """Collects spans from any number of threads, one span stack per thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self.root_id: int | None = None
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> tuple[Span, float]:
        """Start a span; a thread with no open span attaches to the root."""
        stack = self._stack()
        parent = stack[-1] if stack else self.root_id
        s = Span(next(self._ids), name, parent, threading.get_ident(), time.perf_counter())
        stack.append(s.id)
        return s, time.thread_time()

    def _close(self, s: Span, cpu0: float) -> None:
        s.cpu = time.thread_time() - cpu0
        s.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(s)

    @contextmanager
    def root(self, name: str):
        """The span every other span descends from; also records process CPU."""
        process_cpu0 = time.process_time()
        s, cpu0 = self._open(name)
        self.root_id = s.id
        try:
            yield s
        finally:
            self._close(s, cpu0)
            s.work = {"cpu_s": time.process_time() - process_cpu0}

    def wrap(self, name: str, fn):
        measure = WORK.get(name)
        signature = inspect.signature(fn) if measure else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            s, cpu0 = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(s, cpu0)
            if measure:
                s.work = measure(signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced


def instrument(tracer: Tracer) -> None:
    """Wrap the public functions of each layer and numpy's ``eigh``.

    Every loaded ``speccon`` module (and ``numpy.linalg``) that binds one of
    the originals is patched, because ``rates`` and ``sim`` look up
    ``eval_filter`` and ``edge_arrays`` by their own global names. A span is
    named after the defining module, except for ``CALLER_SPANS``.
    """
    import numpy.linalg

    for layer, names in CALLER_SPANS.items():
        mod = sys.modules[f"speccon.{layer}"]
        for attr in names:
            setattr(mod, attr, tracer.wrap(f"{layer}.{attr}", getattr(mod, attr)))
    wrapped = {}
    for layer in LAYERS:
        mod = sys.modules[f"speccon.{layer}"]
        for attr, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                wrapped[id(obj)] = tracer.wrap(f"{layer}.{attr}", obj)
    wrapped[id(numpy.linalg.eigh)] = tracer.wrap("numpy.linalg.eigh", numpy.linalg.eigh)

    namespaces = [m for n, m in sys.modules.items() if n == "speccon" or n.startswith("speccon.")]
    for ns in namespaces + [numpy.linalg]:
        for attr, obj in list(vars(ns).items()):
            if id(obj) in wrapped:
                setattr(ns, attr, wrapped[id(obj)])


def spans_to_json(spans: list[Span]) -> list[dict]:
    return [vars(s) for s in spans]


def spans_from_json(docs: list[dict]) -> list[Span]:
    return [Span(**d) for d in docs]


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of closed intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(i for i in intervals if i[1] > i[0]):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def _rank(n: int, q: float) -> int:
    """1-based nearest rank of percentile q among n values."""
    return max(1, math.ceil(q * n / 100.0))


def _pct_name(q: float) -> str:
    return f"p{q:g}".replace(".", "_")


def aggregate(spans: list[Span]) -> dict[str, float]:
    """Per span name: ``.s``, ``.calls``, ``.self_s``, ``.offcpu_s``, work sums,
    and, from 20 calls on, ``.p50_ms`` plus the highest percentile in
    ``PERCENTILES`` with at least ten calls beyond it.

    Self time is a span's duration minus the part of it that its children,
    on any thread, cover.
    """
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out: dict[str, float] = defaultdict(float)
    durations: dict[str, list[float]] = defaultdict(list)
    for s in spans:
        dur = s.end - s.start
        covered = _covered([(max(c.start, s.start), min(c.end, s.end)) for c in children[s.id]])
        out[f"{s.name}.s"] += dur
        out[f"{s.name}.calls"] += 1
        out[f"{s.name}.self_s"] += dur - covered
        out[f"{s.name}.offcpu_s"] += dur - s.cpu
        for key, value in s.work.items():
            out[f"{s.name}.{key}"] += value
        durations[s.name].append(dur)
    for name, ds in durations.items():
        if len(ds) < MIN_CALLS_FOR_PERCENTILES:
            continue
        ds.sort()
        n = len(ds)
        out[f"{name}.p50_ms"] = 1e3 * ds[_rank(n, 50.0) - 1]
        top = max(q for q in PERCENTILES if n - _rank(n, q) >= 10)
        if top > 50.0:
            out[f"{name}.{_pct_name(top)}_ms"] = 1e3 * ds[_rank(n, top) - 1]
    return dict(out)


def derive(m: dict[str, float]) -> dict[str, float]:
    """Layer metrics built from the per-name aggregates; absent spans count 0."""
    def get(key):
        return m.get(key, 0.0)

    def ratio(a, b):
        return get(a) / get(b) if get(b) else 0.0

    designs = [k[: -len(".s")] for k in m if k.startswith("filters.design_") and k.endswith(".s")]
    return {
        "filters.design.s": sum(get(f"{d}.s") for d in designs),
        "filters.design.calls": sum(get(f"{d}.calls") for d in designs),
        "graphs.spectrum.calls_per_graph": ratio("graphs.spectrum.calls", "graphs.build_graph.calls"),
        "graphs.is_connected.accept_ratio": ratio("graphs.is_connected.accepted",
                                                  "graphs.is_connected.calls"),
        "cli.cpu_per_wall": ratio("cli.cpu_s", "cli.s"),
    }
