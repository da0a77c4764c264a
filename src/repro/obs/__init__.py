"""repro.obs — query-lifecycle observability.

A lightweight, dependency-free metrics layer: phase timers, counters,
gauges, fixed-bucket histograms, Prometheus text exposition, and the
strict parser the CI smoke job runs against it — plus the span tracer
(:mod:`repro.obs.tracing`: per-query timelines, Chrome trace-event
export, tree dumps), the :class:`~repro.obs.probe.Probe` through
which search code reaches both, structured per-query JSON logging
with slow-query dumps (:mod:`repro.obs.log`), opt-in memory telemetry
(:mod:`repro.obs.memory`), and the subspace-tree report and search
narrative built on the tracer (:mod:`repro.obs.subspace_report`).
Disabled-path overhead is one ``None`` check per site — see DESIGN.md
§3c/§3d/§3g.
"""

from repro.obs.log import (
    QueryLogger,
    SlowQuery,
    current_query_id,
    load_slow_query,
    new_query_id,
    parse_query_log,
)
from repro.obs.memory import MemoryTelemetry, peak_rss_bytes
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS_MS,
    SEARCH_PHASES,
    Histogram,
    MetricsRegistry,
    maybe_phase,
    parse_prom,
)
from repro.obs.probe import Probe
from repro.obs.subspace_report import DepthRow, SubspaceTreeReport, narrate
from repro.obs.tracing import (
    SpanTracer,
    chrome_trace,
    folded_stacks,
    maybe_span,
    phase_durations,
    render_tree,
    validate_chrome_trace,
)

__all__ = [
    "MetricsRegistry",
    "Histogram",
    "maybe_phase",
    "parse_prom",
    "DEFAULT_LATENCY_BUCKETS_MS",
    "SEARCH_PHASES",
    "SpanTracer",
    "maybe_span",
    "chrome_trace",
    "validate_chrome_trace",
    "render_tree",
    "folded_stacks",
    "phase_durations",
    "Probe",
    "SubspaceTreeReport",
    "DepthRow",
    "narrate",
    "QueryLogger",
    "SlowQuery",
    "current_query_id",
    "new_query_id",
    "parse_query_log",
    "load_slow_query",
    "MemoryTelemetry",
    "peak_rss_bytes",
]
