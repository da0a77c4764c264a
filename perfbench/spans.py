"""Spans around the program's public functions, planted delays, accounting.

The benchmark never edits the program.  For a traced run it replaces
the public functions at each layer boundary with wrappers that record
a span ``[name, start, end, parent, query, miss]`` (indices into the
span list, ``perf_counter`` seconds, which is one machine-wide clock on
Linux, so spans of the HTTP client, the server and its forked workers
line up).  A wrapper is installed on every name a caller looks the
function up by; wrappers installed before the service forks are
inherited by its workers, which append their spans, one line per
query, to a file under the run's span directory.

The same patching installs the planted delays of the self-check: a
fixed busy-wait before one wrapped function per layer.
"""

from __future__ import annotations

import functools
import json
import os
from time import perf_counter

from workloads import median

#: Span name -> the ``(module, attribute path)`` names it patches.
#: Every lookup site of a function is listed: ``flat_engine`` imports
#: ``flat_bounded_astar_path`` and ``shared_csr`` at module level, and
#: ``spt_incremental`` imports ``flat_spti_search`` the same way.
TARGETS: dict[str, tuple[tuple[str, str], ...]] = {
    "datasets.road_network": (("repro.datasets.registry", "road_network"),),
    "landmarks.build": (("repro.landmarks.index", "LandmarkIndex.build"),),
    "landmarks.bounds": (("repro.landmarks.index", "LandmarkIndex.to_target_bounds"),),
    "core.prepare": (("repro.core.kpj", "KPJSolver.prepare"),),
    "core.top_k": (
        ("repro.core.kpj", "KPJSolver.top_k"),
        ("repro.core.kpj", "PreparedCategory.top_k"),
    ),
    "overlay.query_graph_for": (
        ("repro.core.kpj", "PreparedCategory.query_graph_for"),
    ),
    "overlay.csr_overlay": (("repro.core.kpj", "PreparedCategory.csr_overlay"),),
    "overlay.shared_csr": (
        ("repro.graph.csr", "shared_csr"),
        ("repro.core.flat_engine", "shared_csr"),
    ),
    "overlay.row_lists": (("repro.graph.csr", "CSRGraph.row_lists"),),
    "overlay.to_csr": (("repro.graph.csr", "to_csr"),),
    "search.flat_engine": (
        ("repro.core.flat_engine", "flat_spti_search"),
        ("repro.core.spt_incremental", "flat_spti_search"),
    ),
    "search.iter_bound": (
        ("repro.core.iter_bound", "iter_bound_search"),
        ("repro.core.spt_incremental", "iter_bound_search"),
    ),
    "leaf.astar": (
        ("repro.pathing.flat", "flat_bounded_astar_path"),
        ("repro.core.flat_engine", "flat_bounded_astar_path"),
    ),
    "leaf.spt_build": (("repro.core.flat_engine", "FlatIncrementalSPT.build_initial"),),
    "leaf.spt_grow": (("repro.core.flat_engine", "FlatIncrementalSPT.grow"),),
    "service.asubmit": (("repro.server.service", "QueryService.asubmit"),),
}

#: Spans that only forward to the layers below (the solver facade):
#: their self time counts as unattributed, not as a layer.
FACADES = frozenset({"core.top_k"})
OVERLAY = frozenset(n for n in TARGETS if n.startswith("overlay."))

#: Planted slowdowns for the self-check: layer -> (span name, delay s).
#: Each slows its own workload by well over the 0.25 bound, so that the
#: host's own swings of about that size do not hide it, and the others
#: by less than it: 50 ms per CSR export, which the program makes once
#: per destination set it prepares (``shared_csr`` of a new ``G_Q``
#: overlay) and so once per prepared-cache miss on cal-cold-prepare;
#: 35 us per tree growth on col-hot-search; 2 ms per request on
#: sj-serve-http.  sj-serve-http grows trees too, about 11 per query
#: against a 2.6 ms median, so the search delay sits where
#: col-hot-search moves by about a third and sj-serve-http by at most a
#: fifth (at 50 us it moved by 27%).
PLANTS: dict[str, tuple[str, float]] = {
    "prepare": ("overlay.to_csr", 0.050),
    "search": ("leaf.spt_grow", 0.000035),
    "service": ("service.asubmit", 0.002),
}


def _resolve(module: str, path: str):
    import importlib

    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class _Patches:
    """Installed replacements, restorable in reverse order."""

    def __init__(self) -> None:
        self._saved: list = []

    def replace(self, name: str, make) -> None:
        """Replace every lookup site of span ``name`` with ``make(fn)``."""
        made: dict = {}
        for module, path in TARGETS[name]:
            owner, attr = _resolve(module, path)
            # A class's __dict__ keeps a classmethod wrapped; getattr would not.
            if isinstance(owner, type):
                raw = owner.__dict__[attr]
            else:
                raw = getattr(owner, attr)
            is_cm = isinstance(raw, classmethod)
            fn = raw.__func__ if is_cm else raw
            key = id(fn)
            if key not in made:
                made[key] = make(fn)
            new = classmethod(made[key]) if is_cm else made[key]
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, new)

    def restore(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)


def _busy(seconds: float) -> None:
    end = perf_counter() + seconds
    while perf_counter() < end:
        pass


class Plant(_Patches):
    """A planted delay, installed disarmed; :meth:`arm` turns it on."""

    armed = False

    def arm(self) -> None:
        self.armed = True


def plant(layer: str) -> Plant:
    """Install the fixed delay of ``layer`` (see :data:`PLANTS`), disarmed.

    Set-up runs every layer once (warm-up, prewarm), so the caller arms
    the delay when set-up is over: each plant then slows the queries of
    the workload that runs its layer, not every workload's ``setup_s``.
    """
    import asyncio

    name, delay = PLANTS[layer]
    planted = Plant()

    def make(fn):
        if asyncio.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def slow_async(*args, **kwargs):
                if planted.armed:
                    _busy(delay)
                return await fn(*args, **kwargs)

            return slow_async

        @functools.wraps(fn)
        def slow(*args, **kwargs):
            if planted.armed:
                _busy(delay)
            return fn(*args, **kwargs)

        return slow

    planted.replace(name, make)
    return planted


class Tracer:
    """Span recorder over the wrapped public functions of one process.

    ``flush_dir``: forked children (the service's workers) append their
    spans there, one JSON line per answered query, tagged with the
    query id the program minted; the owning process keeps its spans in
    memory.
    """

    def __init__(self, flush_dir: str | None = None) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.query = None
        self.flush_dir = flush_dir
        self._pid = os.getpid()
        self._patches = _Patches()
        self._out = None
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self) -> None:
        self.spans = []
        self.stack = []
        self._out = None

    # -- recording ---------------------------------------------------
    def _open(self, name: str) -> list:
        parent = self.stack[-1] if self.stack else -1
        rec = [name, perf_counter(), 0.0, parent, self.query, 0]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = perf_counter()
        self.stack.pop()

    def root(self, query) -> list:
        """Open the benchmark's own per-query root span."""
        self.query = query
        return self._open("query")

    def end_root(self, rec: list) -> None:
        self._close(rec)
        self.query = None

    def _wrap(self, name: str, fn):
        tracer = self
        if name == "core.prepare":

            @functools.wraps(fn)
            def prepare(solver, *args, **kwargs):
                misses = solver.cache_info()["misses"]
                rec = tracer._open(name)
                try:
                    return fn(solver, *args, **kwargs)
                finally:
                    tracer._close(rec)
                    rec[5] = solver.cache_info()["misses"] - misses

            return prepare
        if name == "core.top_k":

            @functools.wraps(fn)
            def top_k(*args, **kwargs):
                rec = tracer._open(name)
                result = None
                try:
                    result = fn(*args, **kwargs)
                    return result
                finally:
                    tracer._close(rec)
                    forked = os.getpid() != tracer._pid
                    if not tracer.stack and tracer.flush_dir and forked:
                        tracer._flush(result.query_id if result is not None else None)

            return top_k
        if name == "service.asubmit":

            @functools.wraps(fn)
            async def asubmit(*args, **kwargs):
                t0 = perf_counter()
                result = await fn(*args, **kwargs)
                tracer.spans.append([name, t0, perf_counter(), -1, result.query_id, 0])
                return result

            return asubmit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(rec)

        return wrapper

    def _flush(self, query_id) -> None:
        for rec in self.spans:
            rec[4] = query_id
        if self._out is None:
            path = os.path.join(self.flush_dir, f"spans-{os.getpid()}.jsonl")
            self._out = open(path, "a")
        self._out.write(json.dumps(self.spans) + "\n")
        self._out.flush()
        self.spans = []

    def install(self) -> "Tracer":
        for name in TARGETS:
            self._patches.replace(name, lambda fn, name=name: self._wrap(name, fn))
        return self

    def uninstall(self) -> None:
        self._patches.restore()

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def load_flushed(flush_dir: str) -> list[list]:
    """Every span the worker processes flushed to ``flush_dir``."""
    spans: list[list] = []
    for entry in sorted(os.listdir(flush_dir)):
        if not entry.startswith("spans-"):
            continue
        with open(os.path.join(flush_dir, entry)) as fh:
            for line in fh:
                batch = json.loads(line)
                base = len(spans)
                for rec in batch:
                    if rec[3] >= 0:
                        rec[3] += base
                spans.extend(batch)
    return spans


# -- accounting --------------------------------------------------------


def select(spans: list[list], queries) -> list[list]:
    """The spans tagged with one of ``queries``, parent links re-indexed."""
    index: dict[int, int] = {}
    out = []
    for i, rec in enumerate(spans):
        if rec[4] in queries:
            index[i] = len(out)
            out.append([*rec[:3], index.get(rec[3], -1), *rec[4:]])
    return out


def _dur(rec) -> float:
    return rec[2] - rec[1]


def _outermost(spans: list[list], names) -> list[int]:
    """Indices of spans named in ``names`` with no ancestor in ``names``."""
    out = []
    for i, rec in enumerate(spans):
        if rec[0] not in names:
            continue
        parent = rec[3]
        while parent >= 0 and spans[parent][0] not in names:
            parent = spans[parent][3]
        if parent < 0:
            out.append(i)
    return out


def _children(spans: list[list]) -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for i, rec in enumerate(spans):
        if rec[3] >= 0:
            kids.setdefault(rec[3], []).append(i)
    return kids


def _covered(spans, kids, index: int) -> float:
    """Time under span ``index`` covered by layer spans (facades see through)."""
    total = 0.0
    for child in kids.get(index, ()):
        if spans[child][0] in FACADES:
            total += _covered(spans, kids, child)
        else:
            total += _dur(spans[child])
    return total


def solver_layers(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of the solver spans (library pass or workers).

    Queries are told apart by the span's query tag; ``miss`` marks a
    ``KPJSolver.prepare`` call that missed the prepared cache.
    """
    queries = {rec[4] for rec in spans if rec[0] == "core.top_k"}
    missed = {rec[4] for rec in spans if rec[0] == "core.prepare" and rec[5] > 0}
    misses = sum(rec[5] for rec in spans if rec[0] == "core.prepare")
    overlay: dict = {}
    for i in _outermost(spans, OVERLAY):
        overlay[spans[i][4]] = overlay.get(spans[i][4], 0.0) + _dur(spans[i]) * 1e3
    kids = _children(spans)
    search: dict = {}
    drive_total = drive_self = 0.0
    for i in _outermost(spans, {"search.iter_bound"}):
        rec = spans[i]
        search[rec[4]] = search.get(rec[4], 0.0) + _dur(rec) * 1e3
        drive_total += _dur(rec)
        drive_self += _dur(rec) - sum(_dur(spans[c]) for c in kids.get(i, ()))
    astar = _outermost(spans, {"leaf.astar"})

    def self_ms(indices) -> float:
        """Leaf time less the overlay rows a first call builds inside it."""
        return sum(
            _dur(spans[i]) - sum(_dur(spans[c]) for c in kids.get(i, ()))
            for i in indices
        ) * 1e3

    return {
        "prepare.miss_ratio": misses / len(queries) if queries else 0.0,
        "prepare.overlay_ms.p50": median([overlay.get(q, 0.0) for q in missed]),
        "prepare.overlay_ms.sum": sum(overlay.values()),
        "landmarks.bounds_ms.sum": sum(
            _dur(spans[i]) for i in _outermost(spans, {"landmarks.bounds"})
        )
        * 1e3,
        "search.ms.p50": median(list(search.values())),
        "driver.self_share": drive_self / drive_total if drive_total else 0.0,
        "leaf.astar_ms.sum": self_ms(astar),
        "leaf.astar.calls": float(len(astar)),
        "leaf.spt_grow_ms.sum": self_ms(_outermost(spans, {"leaf.spt_grow"})),
    }


def unattributed(spans: list[list]) -> tuple[float, float]:
    """``(uncovered, total)`` seconds over the benchmark's root spans."""
    kids = _children(spans)
    uncovered = total = 0.0
    for i, rec in enumerate(spans):
        if rec[0] == "query":
            total += _dur(rec)
            uncovered += max(0.0, _dur(rec) - _covered(spans, kids, i))
    return uncovered, total
