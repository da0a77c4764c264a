"""Unit tests for search tracing: the span-read narrative of Alg. 4."""

import pytest

from repro.core.iter_bound import iter_bound
from repro.graph.virtual import build_query_graph
from repro.landmarks.index import ZERO_BOUNDS
from repro.obs.probe import Probe
from repro.obs.subspace_report import SearchEvent, narrate, search_events
from repro.obs.tracing import SpanTracer
from repro.pathing.kernels import KERNELS, use_kernel


def span_events(tracer):
    """Every span as (id, parent, name, cat, attrs): the recorded
    sequence without its timestamps."""
    return [
        (s["id"], s["parent"], s["name"], s["cat"], s["attrs"])
        for s in tracer.as_dict()["spans"]
    ]


class TestTraceEvent:
    def test_render_contains_fields(self):
        event = SearchEvent("test-hit", (0, 1), 3.0, tau=4.0, length=3.5)
        text = event.render()
        assert "test-hit" in text
        assert "tau=4" in text
        assert "length=3.5" in text

    def test_render_optional_fields_omitted(self):
        text = SearchEvent("test-miss", (0,), 2.0).render()
        assert "tau=" not in text
        assert "length=" not in text


class TestSearchTrace:
    def run_traced(self, paper_graph, paper_built, k=3, stats=None):
        v = paper_built.node_id
        qg = build_query_graph(
            paper_graph, (v("v1"),), (v("v4"), v("v6"), v("v7"))
        )
        tracer = SpanTracer()
        paths = iter_bound(qg, k, ZERO_BOUNDS, stats=stats, probe=Probe(tracer=tracer))
        return tracer, paths

    def test_records_one_output_per_path(self, paper_graph, paper_built):
        tracer, paths = self.run_traced(paper_graph, paper_built)
        outputs = [e for e in search_events(tracer) if e.kind == "output"]
        assert len(outputs) == len(paths) == 3
        assert [e.length for e in outputs] == [p.length for p in paths]

    def test_tau_schedule_is_positive_and_bounded_below_by_first(
        self, paper_graph, paper_built
    ):
        tracer, paths = self.run_traced(paper_graph, paper_built)
        schedule = [e.tau for e in search_events(tracer) if e.tau is not None]
        assert schedule, "no TestLB recorded"
        first_length = paths[0].length
        assert all(tau > first_length for tau in schedule)

    def test_hits_and_misses_sum_to_lb_tests(self, paper_graph, paper_built):
        from repro.core.stats import SearchStats

        stats = SearchStats()
        tracer, _ = self.run_traced(paper_graph, paper_built, stats=stats)
        kinds = [e.kind for e in search_events(tracer)]
        assert kinds.count("test-hit") == stats.lb_test_hits
        assert kinds.count("test-miss") == stats.lb_test_misses
        assert kinds.count("retire") == stats.lb_test_retires
        tested = len(kinds) - kinds.count("output")
        assert tested == stats.lb_tests

    def test_render_limit(self, paper_graph, paper_built):
        tracer, _ = self.run_traced(paper_graph, paper_built)
        full = narrate(tracer)
        short = narrate(tracer, limit=1)
        assert "totals:" in full
        assert "more events" not in full
        assert "more events" in short
        assert len(short.splitlines()) <= 3

    def test_no_trace_means_no_overhead_paths_identical(
        self, paper_graph, paper_built
    ):
        v = paper_built.node_id
        qg = build_query_graph(
            paper_graph, (v("v1"),), (v("v4"), v("v6"), v("v7"))
        )
        traced = iter_bound(qg, 3, ZERO_BOUNDS, probe=Probe(tracer=SpanTracer()))
        plain = iter_bound(qg, 3, ZERO_BOUNDS)
        assert [p.length for p in traced] == [p.length for p in plain]

    def test_len(self, paper_graph, paper_built):
        tracer, _ = self.run_traced(paper_graph, paper_built)
        events = search_events(tracer)
        assert len(events) == len(narrate(tracer).splitlines()) - 1 > 0


class TestTraceEquivalence:
    """The flat and dict engines must narrate the same search."""

    def _traced_spti(self, kernel, *args):
        from repro.core.spt_incremental import iter_bound_spti

        tracer = SpanTracer()
        with use_kernel(kernel):
            paths = iter_bound_spti(*args, probe=Probe(tracer=tracer))
        return paths, span_events(tracer)

    def test_flat_and_dict_engines_record_identical_events(
        self, paper_graph, paper_built
    ):
        v = paper_built.node_id
        qg = build_query_graph(
            paper_graph, (v("v1"),), (v("v4"), v("v6"), v("v7"))
        )
        args = (qg, 3, ZERO_BOUNDS, ZERO_BOUNDS)
        p_dict, e_dict = self._traced_spti("dict", *args)
        p_flat, e_flat = self._traced_spti("flat", *args)
        assert [p.length for p in p_dict] == [p.length for p in p_flat]
        assert e_dict == e_flat
        assert any(name == "test_lb" for _, _, name, _, _ in e_dict)

    def test_equivalence_on_registry_dataset(self):
        from repro.datasets.registry import road_network
        from repro.landmarks.index import LandmarkIndex

        dataset = road_network("SJ")
        lm = LandmarkIndex.build(dataset.graph, 4)
        destinations = dataset.categories.nodes_of("T2")
        qg = build_query_graph(dataset.graph, (100,), destinations)
        bounds = lm.to_target_bounds(qg.destinations)
        source_bounds = lm.lazy_source_bounds(qg.sources)
        args = (qg, 5, bounds, source_bounds)
        p_dict, e_dict = self._traced_spti("dict", *args)
        p_flat, e_flat = self._traced_spti("flat", *args)
        assert [p.nodes for p in p_dict] == [p.nodes for p in p_flat]
        assert e_dict == e_flat


def _explain(*extra):
    from repro.cli import main

    return main(
        [
            "explain",
            "--dataset",
            "SJ",
            "--source",
            "100",
            "--category",
            "T2",
            "--k",
            "2",
            "--landmarks",
            "4",
            *extra,
        ]
    )


class TestExplainCLI:
    def test_explain_prints_narrative(self, capsys):
        code = _explain("--limit", "10")
        assert code == 0
        out = capsys.readouterr().out
        assert "iter-bound (dict kernel) on SJ" in out
        assert "[output   ] prefix=(100,)  lb=" in out
        assert "totals:" in out
        assert "found 2 paths" in out

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_explain_spti_narrates_either_kernel(self, capsys, kernel):
        code = _explain("--kernel", kernel, "--algorithm", "iter-bound-spti")
        assert code == 0
        out = capsys.readouterr().out
        assert f"iter-bound-spti ({kernel} kernel) on SJ" in out
        assert "totals:" in out
        assert "found 2 paths" in out

    @pytest.mark.parametrize("algorithm", ["iter-bound", "iter-bound-spti"])
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_explain_tree_totals_equal_stats(self, capsys, kernel, algorithm):
        from repro.core.kpj import KPJSolver
        from repro.datasets.registry import road_network

        code = _explain("--tree", "--kernel", kernel, "--algorithm", algorithm)
        assert code == 0
        out = capsys.readouterr().out
        totals = next(
            line for line in out.splitlines()
            if line.strip().startswith("totals: tests=")
        )
        fields = dict(
            part.split("=", 1) for part in totals.split() if "=" in part
        )
        dataset = road_network("SJ")
        solver = KPJSolver(
            dataset.graph, dataset.categories, landmarks=4, kernel=kernel
        )
        stats = solver.top_k(100, category="T2", k=2, algorithm=algorithm).stats
        assert int(fields["created"]) == stats.subspaces_created
        assert int(fields["pruned"]) == stats.subspaces_pruned

    def test_explain_bad_source(self, capsys):
        from repro.cli import main

        code = main(
            [
                "explain",
                "--dataset",
                "SJ",
                "--source",
                "123456",
                "--category",
                "T2",
            ]
        )
        assert code == 2
