"""Unit tests for the flat (CSR-backed) kernels.

Every test checks the flat substrate against the dict substrate on the
same inputs — the flat module's contract is "identical answers,
different memory layout".
"""

import random

import pytest

from repro.core.stats import SearchStats
from repro.graph.csr import shared_csr
from repro.graph.digraph import DiGraph
from repro.pathing import flat
from repro.pathing.astar import bounded_astar_path
from repro.pathing.dijkstra import (
    constrained_shortest_path,
    multi_source_distances,
    shortest_path,
    single_source_distances,
)
from repro.pathing.kernels import active_kernel, resolve_kernel, use_kernel
from repro.pathing.spt import build_spt_to_target
from tests.conftest import random_graph

INF = float("inf")


def _graphs(seed: int, count: int):
    rng = random.Random(seed)
    return [random_graph(rng) for _ in range(count)]


class TestKernelSelector:
    def test_default_is_dict(self):
        assert active_kernel() == "dict"
        assert resolve_kernel(None) == "dict"

    def test_use_kernel_scopes_the_ambient_choice(self):
        with use_kernel("flat"):
            assert active_kernel() == "flat"
            assert resolve_kernel(None) == "flat"
        assert active_kernel() == "dict"

    def test_invalid_kernel_rejected(self):
        for name in ("gpu", "native"):
            with pytest.raises(ValueError, match="choose one of: dict, flat$"):
                resolve_kernel(name)
            with pytest.raises(ValueError, match="choose one of: dict, flat$"):
                with use_kernel(name):
                    pass  # pragma: no cover

    def test_explicit_overrides_ambient(self):
        with use_kernel("flat"):
            assert resolve_kernel("dict") == "dict"


class TestSingleSourceParity:
    def test_exact_equality_on_random_graphs(self):
        for g in _graphs(11, 15):
            for src in range(g.n):
                d_dict = single_source_distances(g, src, kernel="dict")
                d_flat = single_source_distances(g, src, kernel="flat")
                assert list(d_dict) == list(d_flat)

    def test_cutoff_parity_including_boundary(self):
        for g in _graphs(12, 10):
            src = 0
            full = single_source_distances(g, src)
            finite = sorted(x for x in full if x < INF and x > 0)
            if not finite:
                continue
            # Cut exactly at a realised distance: inclusive semantics.
            cutoff = finite[len(finite) // 2]
            d_dict = single_source_distances(g, src, cutoff=cutoff, kernel="dict")
            d_flat = single_source_distances(g, src, cutoff=cutoff, kernel="flat")
            assert list(d_dict) == list(d_flat)

    def test_multi_source_parity(self):
        for g in _graphs(13, 10):
            srcs = (0, g.n - 1)
            d_dict = multi_source_distances(g, srcs, kernel="dict")
            d_flat = multi_source_distances(g, srcs, kernel="flat")
            assert list(d_dict) == list(d_flat)


class TestShortestPathParity:
    def test_lengths_agree_and_paths_valid(self):
        for g in _graphs(21, 15):
            dist = single_source_distances(g, 0)
            for target in range(g.n):
                got = shortest_path(g, 0, target, kernel="flat")
                if dist[target] == INF:
                    assert got is None
                    continue
                path, length = got
                assert length == pytest.approx(dist[target])
                assert g.path_weight(path) == pytest.approx(length)
                assert path[0] == 0 and path[-1] == target


class TestSPTParity:
    def test_distances_agree_and_tree_is_consistent(self):
        for g in _graphs(31, 10):
            target = g.n - 1
            spt_dict = build_spt_to_target(g, target, kernel="dict")
            spt_flat = build_spt_to_target(g, target, kernel="flat")
            assert list(spt_dict.dist) == list(spt_flat.dist)
            for u in range(g.n):
                if spt_flat.dist[u] == INF:
                    continue
                walk = spt_flat.path_from(u)
                assert walk[0] == u and walk[-1] == target
                assert g.path_weight(walk) == pytest.approx(spt_flat.dist[u])


class TestConstrainedParity:
    def test_exact_parity_with_constraints(self):
        rng = random.Random(41)
        for g in _graphs(41, 15):
            src, dst = 0, g.n - 1
            blocked = {rng.randrange(g.n)} - {src, dst}
            banned = {rng.randrange(g.n)}
            d = constrained_shortest_path(
                g, src, dst, blocked=blocked, banned_first_hops=banned,
                initial_distance=1.5, kernel="dict",
            )
            f = constrained_shortest_path(
                g, src, dst, blocked=blocked, banned_first_hops=banned,
                initial_distance=1.5, kernel="flat",
            )
            assert d == f  # identical paths, not just lengths

    def test_bounded_astar_parity_with_prune_info(self):
        for g in _graphs(42, 15):
            src, dst = 0, g.n - 1
            full = single_source_distances(g, src)
            bound = full[dst] if full[dst] < INF else 5.0
            info_d, info_f = {}, {}
            d = bounded_astar_path(
                g, src, dst, lambda u: 0.0, bound=bound, info=info_d,
                kernel="dict",
            )
            f = bounded_astar_path(
                g, src, dst, lambda u: 0.0, bound=bound, info=info_f,
                kernel="flat",
            )
            assert d == f
            assert info_d == info_f

    def test_stats_counters_increment_on_flat(self, diamond_graph):
        stats = SearchStats()
        constrained_shortest_path(diamond_graph, 0, 3, stats=stats, kernel="flat")
        assert stats.nodes_settled >= 2
        assert stats.edges_relaxed >= 2
        assert stats.flat_kernel_calls == 1
        assert stats.dict_kernel_calls == 0


class TestScratchReuse:
    def test_scratch_pool_recycles_buffers(self, diamond_graph):
        csr = shared_csr(diamond_graph)
        s1 = flat.acquire_scratch(csr)
        flat.release_scratch(csr, s1)
        s2 = flat.acquire_scratch(csr)
        assert s2 is s1  # same buffer, no reallocation
        flat.release_scratch(csr, s2)

    def test_generation_stamping_isolates_calls(self, diamond_graph):
        # Two back-to-back searches through the pool must not leak
        # state: distances from the first run are invisible to the
        # second because the generation stamp advanced.
        a = constrained_shortest_path(diamond_graph, 0, 3, kernel="flat")
        b = constrained_shortest_path(diamond_graph, 3, 0, kernel="flat")
        c = constrained_shortest_path(diamond_graph, 0, 3, kernel="flat")
        assert a == c
        assert b is None  # 3 has no outgoing route back to 0

    def test_nested_searches_get_distinct_scratch(self, diamond_graph):
        csr = shared_csr(diamond_graph)
        s1 = flat.acquire_scratch(csr)
        s2 = flat.acquire_scratch(csr)
        assert s1 is not s2
        flat.release_scratch(csr, s2)
        flat.release_scratch(csr, s1)


class TestPurePythonFallback:
    """The scipy-free code paths must agree with the dict kernel too."""

    def test_multi_source_python_fallback(self):
        for g in _graphs(51, 5):
            srcs = (0, g.n // 2)
            expected = multi_source_distances(g, srcs, kernel="dict")
            got = flat._py_multi_source(shared_csr(g), srcs, INF)
            assert list(got) == list(expected)
