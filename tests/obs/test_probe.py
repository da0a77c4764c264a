"""The search probe: one event interface over the metrics and span sinks."""

from __future__ import annotations

import pytest

from repro.core.kpj import KPJSolver
from repro.datasets.registry import road_network
from repro.obs.metrics import SEARCH_PHASES, MetricsRegistry
from repro.obs.probe import Probe, region
from repro.obs.tracing import SpanTracer
from repro.pathing.kernels import KERNELS

ITERATIVE = ("iter-bound", "iter-bound-sptp", "iter-bound-spti")


@pytest.fixture(scope="module")
def sj():
    return road_network("SJ")


def make_solver(sj, **kwargs):
    return KPJSolver(sj.graph, sj.categories, landmarks=8, **kwargs)


def boom(*args, **kwargs):  # pragma: no cover - fails the test
    raise AssertionError("probe method called on a path that must not call it")


class TestProbe:
    def test_phase_feeds_both_sinks_the_same_seconds(self):
        reg, tracer = MetricsRegistry(), SpanTracer()
        Probe(reg, tracer).phase("comp_sp", 1.0, 1.25, tree_nodes=7)
        assert reg.phases["comp_sp"] == [0.25, 1]
        (span,) = tracer.spans
        assert (span["name"], span["cat"], span["dur"]) == ("comp_sp", "phase", 0.25)
        assert span["attrs"] == {"tree_nodes": 7}

    def test_phase_totals_skip_empty_phases(self):
        reg = MetricsRegistry()
        probe = Probe(reg)
        probe.phase_totals("test_lb", 0.0, 0)
        probe.phase_totals("division", 0.5, 3)
        assert reg.phases == {"division": [0.5, 3]}

    def test_test_lb_and_division_close_their_iterate_span(self):
        tracer = SpanTracer()
        probe = Probe(tracer=tracer)
        it = probe.begin("iterate", depth=1, lb=2.0)
        probe.test_lb(it, 0.0, 0.1, (5, 6), 2.0, 2.2, "hit", 2.1)
        it = probe.begin("iterate", depth=1, lb=2.1)
        probe.division(it, 0.2, 0.3, (5, 6), 2.1, 4, 1)
        by_name = {}
        for span in tracer.spans:
            by_name.setdefault(span["name"], []).append(span)
        test, = by_name["test_lb"]
        assert test["attrs"] == {
            "depth": 1, "prefix": (5, 6), "lb": 2.0, "tau": 2.2,
            "verdict": "hit", "length": 2.1,
        }
        division, = by_name["division"]
        assert division["attrs"] == {
            "depth": 1, "prefix": (5, 6), "length": 2.1, "children": 4, "pruned": 1,
        }
        assert [s["attrs"]["verdict"] for s in by_name["iterate"]] == [
            "test-hit", "output"
        ]
        assert by_name["iterate"][1]["attrs"]["length"] == 2.1

    def test_gauges_and_counters_feed_metrics_only(self):
        reg = MetricsRegistry()
        probe = Probe(reg)
        probe.gauge("g", 3)
        probe.count("c")
        probe.count("c", 2)
        assert reg.gauges == {"g": 3} and reg.counters == {"c": 3}

    def test_region_times_phase_spans_only_for_leaves(self):
        reg, tracer = MetricsRegistry(), SpanTracer()
        probe = Probe(reg, tracer)
        with probe.region("prepare") as span:
            span["attrs"]["cache"] = "hit"
        with probe.region("search", cat="search") as span:
            assert span is not None
        assert set(reg.phases) == {"prepare"}
        assert [s["name"] for s in tracer.spans] == ["prepare", "search"]
        assert tracer.spans[0]["attrs"] == {"cache": "hit"}

    def test_region_without_probe_yields_none(self):
        with region(None, "prepare") as span:
            assert span is None


class TestSinksAgree:
    """One query with both sinks: every search phase is seen identically."""

    @pytest.mark.parametrize("algorithm", ITERATIVE)
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_registry_phases_equal_span_totals(self, sj, kernel, algorithm):
        solver = make_solver(
            sj, kernel=kernel, metrics=MetricsRegistry(), tracer=SpanTracer()
        )
        result = solver.top_k(14, category="T2", k=10, algorithm=algorithm)
        phases = result.metrics["phases"]
        spans = result.trace["spans"]
        assert not result.trace["evicted"]
        seen = 0
        for name in SEARCH_PHASES:
            named = [s for s in spans if s["name"] == name]
            seconds, calls = phases.get(name, (0.0, 0))
            assert calls == len(named), name
            assert abs(seconds - sum(s["dur"] for s in named)) <= 1e-9, name
            seen += calls
        assert seen > 0


class TestHotPathContract:
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_no_sinks_builds_no_probe(self, sj, kernel, monkeypatch):
        from repro.obs.memory import MemoryTelemetry

        monkeypatch.setattr(Probe, "__init__", boom)
        solver = make_solver(sj, kernel=kernel, memory=MemoryTelemetry())
        for algorithm in ITERATIVE:
            result = solver.top_k(3, category="T2", k=5, algorithm=algorithm)
            assert result.metrics is None and result.trace is None

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_metrics_only_makes_no_per_event_calls(self, sj, kernel, monkeypatch):
        for name in ("test_lb", "division", "span", "begin", "end"):
            monkeypatch.setattr(Probe, name, boom)
        flushed: list[str] = []
        real_totals = Probe.phase_totals

        def phase_totals(self, name, seconds, calls):
            flushed.append(name)
            real_totals(self, name, seconds, calls)

        monkeypatch.setattr(Probe, "phase_totals", phase_totals)
        solver = make_solver(sj, kernel=kernel, metrics=MetricsRegistry())
        for algorithm in ITERATIVE:
            flushed.clear()
            result = solver.top_k(3, category="T2", k=5, algorithm=algorithm)
            assert result.stats.lb_tests > 0
            # One flush per hot-loop phase per query, not one per test.
            assert sorted(flushed) == ["division", "spt_grow", "test_lb"]
