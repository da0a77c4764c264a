"""One probe for search instrumentation.

The search code narrates the same Alg. 4 events — timed phases,
``TestLB`` verdicts, Alg. 8 divisions, gauges and counters — to up to
two optional sinks: a :class:`~repro.obs.metrics.MetricsRegistry`
(aggregate phase seconds, counters, peak gauges) and a
:class:`~repro.obs.tracing.SpanTracer` (one span per event).  A
:class:`Probe` holds a query's sinks, plus the opt-in
:class:`~repro.obs.memory.MemoryTelemetry`, and has one method per
event kind, so each search function takes a single ``probe=None``
instead of a parameter per sink.  ``stats`` is not folded in: the
:class:`~repro.core.stats.SearchStats` work ledger is always on.

Cost discipline (DESIGN.md §3c):

* **no probe** — every site is one ``probe is not None`` check, and
  nothing here is allocated (a tracemalloc test asserts it);
* **metrics only** (how service workers run) — hot loops keep adding
  their phase times in locals and flush them once per query through
  :meth:`Probe.phase_totals`; the per-event methods, which only feed
  spans, are called only when :attr:`Probe.tracer` is set;
* **tracer** — the search loop takes one ``perf_counter`` pair per event
  and hands the finished interval to the probe, which records the
  span (and, for :meth:`Probe.phase`, the metrics phase) from it, so
  both sinks see the same seconds.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from typing import TYPE_CHECKING

from repro.obs.metrics import MetricsRegistry, maybe_phase
from repro.obs.tracing import SpanTracer, maybe_span

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.memory import MemoryTelemetry

__all__ = ["Probe", "region"]

#: ``test_lb`` span verdict -> the enclosing ``iterate`` span's verdict.
_ITERATE_VERDICTS = {"hit": "test-hit", "miss": "test-miss", "retire": "retire"}


class Probe:
    """A query's instrumentation sinks behind one event interface."""

    __slots__ = ("metrics", "tracer", "memory")

    def __init__(
        self,
        metrics: MetricsRegistry | None = None,
        tracer: SpanTracer | None = None,
        memory: "MemoryTelemetry | None" = None,
    ) -> None:
        self.metrics = metrics
        self.tracer = tracer
        self.memory = memory

    # ------------------------------------------------------------------
    # Timed phases
    # ------------------------------------------------------------------
    def phase(self, name: str, t0: float, t1: float, **attrs) -> None:
        """One timed leaf phase: metrics seconds plus a ``phase`` span."""
        if self.metrics is not None:
            self.metrics.observe_phase(name, t1 - t0)
        if self.tracer is not None:
            self.tracer.add(name, t0, t1, cat="phase", attrs=attrs)

    def span(self, name: str, t0: float, t1: float, **attrs) -> None:
        """One hot-loop phase interval, spans only.

        The metrics side of a hot-loop phase is summed in the caller's
        locals and flushed once by :meth:`phase_totals`.
        """
        self.tracer.add(name, t0, t1, cat="phase", attrs=attrs)

    def phase_totals(self, name: str, seconds: float, calls: int) -> None:
        """Flush a hot loop's locally summed phase time (metrics only)."""
        if calls and self.metrics is not None:
            self.metrics.observe_phase(name, seconds, calls)

    @contextmanager
    def region(self, name: str, cat: str = "phase", **attrs):
        """Time a coarse unit of work into every sink; see :func:`region`."""
        metrics = self.metrics
        with maybe_phase(metrics if cat == "phase" else None, name), \
                (self.memory.phase(name, metrics) if self.memory is not None
                 else nullcontext()), \
                maybe_span(self.tracer, name, cat, **attrs) as span:
            yield span

    # ------------------------------------------------------------------
    # Span structure and the Alg. 4 events (spans only)
    # ------------------------------------------------------------------
    def begin(self, name: str, cat: str = "search", **attrs) -> dict:
        """Open a container span."""
        return self.tracer.begin(name, cat, **attrs)

    def end(self, span: dict, **attrs) -> None:
        """Close a span opened by :meth:`begin`."""
        self.tracer.end(span, **attrs)

    def test_lb(
        self,
        iterate: dict,
        t0: float,
        t1: float,
        prefix: tuple[int, ...],
        lb: float,
        tau: float,
        verdict: str,
        length: float | None = None,
    ) -> None:
        """A ``TestLB`` verdict (``hit``/``miss``/``retire``); closes ``iterate``."""
        attrs = {
            "depth": len(prefix) - 1,
            "prefix": prefix,
            "lb": lb,
            "tau": tau,
            "verdict": verdict,
        }
        if length is not None:
            attrs["length"] = length
        self.tracer.add("test_lb", t0, t1, cat="phase", attrs=attrs)
        self.tracer.end(iterate, verdict=_ITERATE_VERDICTS[verdict])

    def division(
        self,
        iterate: dict,
        t0: float,
        t1: float,
        prefix: tuple[int, ...],
        length: float,
        children: int,
        pruned: int,
    ) -> None:
        """An output path's Alg. 8 division; closes ``iterate``."""
        self.tracer.add(
            "division", t0, t1, cat="phase",
            attrs={
                "depth": len(prefix) - 1,
                "prefix": prefix,
                "length": length,
                "children": children,
                "pruned": pruned,
            },
        )
        self.tracer.end(iterate, verdict="output", length=length)

    # ------------------------------------------------------------------
    # Gauges and counters (metrics only)
    # ------------------------------------------------------------------
    def gauge(self, name: str, value: float) -> None:
        """Record a peak gauge."""
        if self.metrics is not None:
            self.metrics.set_gauge(name, value)

    def count(self, name: str, n: int = 1) -> None:
        """Bump a counter."""
        if self.metrics is not None:
            self.metrics.inc(name, n)


def region(probe: Probe | None, name: str, cat: str = "phase", **attrs):
    """Context for one coarse unit of work, such as a query's ``prepare``.

    Opens a span (yielded, so the body can set late attributes;
    ``None`` without a tracer), attributes the body's allocations when
    memory telemetry is on, and, for ``cat == "phase"`` (the leaves of
    the span taxonomy), records the metrics phase.  Without a probe it
    is a no-op yielding ``None``.
    """
    if probe is None:
        return nullcontext()
    return probe.region(name, cat, **attrs)
