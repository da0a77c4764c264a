"""The flat iterative-bounding engine: Algs. 4–8 on the CSR substrate.

The flat *leaf* kernels (:mod:`repro.pathing.flat`) already run each
individual ``TestLB`` over CSR arrays, but the dict drivers around
them re-resolve the CSR export per call, rebuild ``blocked`` sets from
prefix tuples on every re-test, and pay a Python call per relaxation
for the ``lb(v, goal)`` heuristic.  This module moves the *engine*
onto the flat substrate:

* :class:`FlatQueryContext` — the per-query bundle the fast path runs
  from: the search graph's CSR snapshot resolved **once**, the
  heuristic as a dense float array (``h[v]`` by index, no closure
  call), and a pooled generation-stamped node mask that each
  ``TestLB`` re-stamps from the subspace prefix in ``O(|prefix|)``;
* :class:`FlatIncrementalSPT` — Alg. 7 on pooled dist/parent/stamp
  arrays with a flat-adjacency settle loop; its distance vector *is*
  the reverse search's heuristic array (settled = exact ``ds``,
  unsettled = ``inf`` = "outside the tree, prune"), so growing the
  tree updates the heuristic in place;
* :func:`flat_spti_search` — the complete ``IterBound-SPT_I`` driver
  (Section 5.3) over those pieces, with the Alg. 8 one-hop bound
  vectorised over the settled-destination arrays.

Every path, length, and pruning decision is identical to the dict
engine: the flat structures relax the same edges in the same order
with the same floating-point sums, which the kernel-parity property
tests assert path-for-path.
"""

from __future__ import annotations

from heapq import heappop, heappush
from time import perf_counter
from typing import Callable

import numpy as np

from repro.core.result import Path
from repro.core.stats import SearchStats
from repro.core.subspace import Subspace
from repro.graph.csr import CSRGraph, shared_csr
from repro.graph.virtual import QueryGraph
from repro.landmarks.index import ZeroBounds
from repro.obs.probe import Probe
from repro.pathing.flat import (
    acquire_inf_array,
    acquire_scratch,
    flat_bounded_astar_path,
    release_inf_array,
    release_scratch,
)

__all__ = [
    "FlatQueryContext",
    "FlatIncrementalSPT",
    "flat_spti_search",
    "dense_heuristic",
]

INF = float("inf")

_EMPTY: frozenset[int] = frozenset()


def dense_heuristic(
    heuristic, size: int
) -> list[float] | Callable[[int], float] | None:
    """Resolve a heuristic into the cheapest flat-kernel form.

    * :class:`~repro.landmarks.index.ZeroBounds` / ``None`` → ``None``
      (the kernel's zero heuristic, ``estimate = g`` exactly);
    * anything exposing ``dense(size)`` — a
      :class:`~repro.landmarks.index.TargetBounds` or the ``SPT_P``
      overlay heuristic — → that dense list (padded with 0.0 for
      virtual ids) — indexed, never called;
    * anything else → returned unchanged and called per node (the
      fast path still avoids per-call CSR resolution and set
      rebuilds).

    The resolved form is value-identical to calling the original:
    ``dense[v] == heuristic(v)`` bit-for-bit.
    """
    if heuristic is None or isinstance(heuristic, ZeroBounds):
        return None
    densify = getattr(heuristic, "dense", None)
    if densify is not None:
        return densify(size)
    return heuristic


class FlatQueryContext:
    """Per-query flat substrate shared by every ``TestLB`` of a query.

    Construction resolves the CSR snapshot once (``graph`` may be a
    frozen :class:`~repro.graph.digraph.DiGraph`, a
    :class:`~repro.graph.digraph.ReversedView`, or an explicit
    :class:`~repro.graph.csr.CSRGraph` via ``csr=``) and densifies the
    heuristic.  :meth:`make_test_lb` returns the closure the
    iteratively bounding driver calls thousands of times per query;
    each call hands the subspace prefix straight to the kernel, which
    pre-stamps it into its pooled scratch — no per-test set build and
    no per-edge membership check.  Pooled resources are taken per
    kernel call, so the context needs no release.
    """

    __slots__ = ("csr", "h")

    def __init__(
        self,
        graph=None,
        heuristic=None,
        csr: CSRGraph | None = None,
        h: list[float] | Callable[[int], float] | None = None,
        probe: Probe | None = None,
    ) -> None:
        self.csr = csr if csr is not None else shared_csr(graph)
        self.h = h if h is not None else dense_heuristic(heuristic, self.csr.n)
        if probe is not None:
            probe.count("flat_query_contexts")

    def make_test_lb(self, goal: int, stats: SearchStats | None):
        """The ``TestLB`` closure for :func:`iter_bound_search`.

        Runs :func:`~repro.pathing.flat.flat_bounded_astar_path` directly
        from the context — no per-call kernel dispatch, CSR lookup, or
        heuristic wrapping.  ``banned`` passes through as the
        subspace's frozenset (it is only consulted on the source row,
        where a C-level set lookup beats stamping).
        """
        csr = self.csr
        h = self.h

        def test_lb(subspace: Subspace, tau: float, info: dict):
            if stats is not None:
                stats.flat_kernel_calls += 1
            prefix = subspace.prefix
            # The whole prefix (head included) goes in as blocked: the
            # kernel re-opens its source after stamping, so this equals
            # blocking prefix[:-1] while saving a tuple slice per test.
            return flat_bounded_astar_path(
                csr,
                prefix[-1],
                goal,
                h,
                tau,
                blocked=prefix if len(prefix) > 1 else _EMPTY,
                banned_first_hops=subspace.banned,
                initial_distance=subspace.prefix_weight,
                stats=stats,
                info=info,
                collect_dists=True,
            )

        return test_lb


class FlatIncrementalSPT:
    """Alg. 7 on flat arrays: the array-backed incremental tree.

    Mirrors :class:`repro.core.spt_incremental.IncrementalSPT` exactly
    — same settle order, same tentative-distance updates, same
    floating-point sums — but keeps its state in pooled scratch
    buffers (dist/parent/stamp) and exposes the paper's ``ds(·)`` as
    the dense vector :attr:`h`: settled nodes hold their exact
    distance, everything else ``inf``.  That vector *is* the reverse
    search's heuristic array, so Alg. 7 enlargement updates the
    heuristic in place and ``TestLB-SPT_I``'s "prune all nodes outside
    the tree" rule costs one list index per relaxation.

    The persistent queue (the paper's ``Q_T``) survives across
    :meth:`grow` calls; :meth:`close` returns the pooled buffers.
    """

    __slots__ = (
        "h",
        "_csr",
        "_rows",
        "_source",
        "_destinations",
        "_tb_arr",
        "_tb_call",
        "_scratch",
        "_gen",
        "_settled_tag",
        "_dist",
        "_stamp",
        "_parent",
        "_heap",
        "_settled_order",
        "_dest_nodes",
        "_dest_dists",
        "_dest_cache",
        "_stats",
        "_probe",
        "_heap_peak",
    )

    def __init__(
        self,
        csr: CSRGraph,
        source: int,
        target_bounds,
        destinations: frozenset[int],
        stats: SearchStats | None = None,
        probe: Probe | None = None,
    ) -> None:
        self._csr = csr
        self._rows = csr.row_lists()
        self._source = source
        self._destinations = destinations
        tb = dense_heuristic(target_bounds, csr.n)
        if tb is None or callable(tb):
            self._tb_arr: list[float] | None = None
            self._tb_call = tb
        else:
            self._tb_arr = tb
            self._tb_call = None
        self._scratch = acquire_scratch(csr)
        self._gen = self._scratch.begin()
        self._settled_tag = -self._gen
        self._dist = self._scratch.dist
        self._stamp = self._scratch.stamp
        self._parent = self._scratch.parent
        #: exact ``ds(v)`` for settled nodes, ``inf`` elsewhere — the
        #: reverse search's dense heuristic.
        self.h = acquire_inf_array(csr)
        self._settled_order: list[int] = []
        self._dest_nodes: list[int] = []
        self._dest_dists: list[float] = []
        self._dest_cache: tuple[np.ndarray, np.ndarray] | None = None
        self._stats = stats
        self._probe = probe
        self._heap_peak = 1
        self._dist[source] = 0.0
        self._stamp[source] = self._gen
        self._heap: list[tuple[float, int]] = [(self._key(source, 0.0), source)]
        if stats is not None:
            stats.heap_pushes += 1

    def _key(self, v: int, dv: float) -> float:
        """Alg. 7's queue key ``ds(v) + lb(v, V_T)``."""
        if self._tb_arr is not None:
            return dv + self._tb_arr[v]
        if self._tb_call is not None:
            return dv + self._tb_call(v)
        return dv

    # ------------------------------------------------------------------
    # Growth
    # ------------------------------------------------------------------
    def _settle_until(self, target: int, tau: float) -> int | None:
        """The shared settle loop: pop/settle until a stop condition.

        With a ``target`` (phase one) it settles until that node is
        settled and returns it; with ``tau`` (phase two, Alg. 7) it
        settles every node whose queue key is ≤ ``tau`` and returns
        ``None``.  One inlined loop — rather than a per-node
        ``_settle_next`` call — because this is the engine's single
        hottest path: every local is bound exactly once per *phase*,
        not once per settled node.
        """
        heap = self._heap
        stamp = self._stamp
        dist = self._dist
        parent = self._parent
        gen = self._gen
        settled_tag = self._settled_tag
        rows = self._rows
        tb_arr = self._tb_arr
        tb_call = self._tb_call
        stats = self._stats
        h = self.h
        settled_order = self._settled_order
        destinations = self._destinations
        dest_nodes = self._dest_nodes
        dest_dists = self._dest_dists
        before = len(settled_order)
        relaxed = 0
        pops = 0
        found: int | None = None
        while heap:
            key, u = heap[0]
            if key > tau:
                break
            heappop(heap)
            pops += 1
            if stamp[u] == settled_tag:
                continue
            du = dist[u]
            stamp[u] = settled_tag
            h[u] = du
            settled_order.append(u)
            if u in destinations:
                dest_nodes.append(u)
                dest_dists.append(du)
                self._dest_cache = None
            if tb_arr is not None:
                for v, w in rows[u]:
                    st = stamp[v]
                    if st == settled_tag:
                        continue
                    nd = du + w
                    if st != gen or nd < dist[v]:
                        dist[v] = nd
                        parent[v] = u
                        stamp[v] = gen
                        heappush(heap, (nd + tb_arr[v], v))
                        relaxed += 1
            else:
                for v, w in rows[u]:
                    st = stamp[v]
                    if st == settled_tag:
                        continue
                    nd = du + w
                    if st != gen or nd < dist[v]:
                        dist[v] = nd
                        parent[v] = u
                        stamp[v] = gen
                        heappush(heap, (nd + tb_call(v) if tb_call is not None else nd, v))
                        relaxed += 1
            if u == target:
                found = u
                break
        if stats is not None:
            stats.nodes_settled += len(settled_order) - before
            stats.edges_relaxed += relaxed
            # Pushes pair 1:1 with counted relaxations in this loop
            # (the initial source push is counted in ``__init__``).
            stats.heap_pushes += relaxed
            stats.heap_pops += pops
        if self._probe is not None and len(heap) > self._heap_peak:
            # The queue peak at phase boundaries — one check per grow
            # call, not per settled node.
            self._heap_peak = len(heap)
        return found

    def build_initial(self, target: int) -> tuple[tuple[int, ...], float] | None:
        """Phase one: settle until ``target`` is reached.

        Same contract as the dict tree's ``build_initial`` — returns
        the first shortest path and its length, or ``None``.
        """
        u = self._settle_until(target, INF)
        if u is None:
            return None
        path = [u]
        node = u
        parent = self._parent
        while node != self._source:
            node = parent[node]
            path.append(node)
        path.reverse()
        return tuple(path), self.h[target]

    def grow(self, tau: float) -> None:
        """Phase two (Alg. 7): settle every node with key ≤ ``tau``."""
        heap = self._heap
        if heap and heap[0][0] <= tau:
            self._settle_until(-1, tau)

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def __contains__(self, v: int) -> bool:
        return self._stamp[v] == self._settled_tag

    def __len__(self) -> int:
        return len(self._settled_order)

    def distance(self, v: int) -> float | None:
        """Exact ``ds(v)`` if settled, else ``None``."""
        d = self.h[v]
        return None if d == INF else d

    def heuristic(self, v: int) -> float:
        """``_SPTIHeuristic`` equivalent: exact ``ds`` or ``inf``."""
        return self.h[v]

    @property
    def num_settled_destinations(self) -> int:
        """``|D|`` — destinations already in the tree."""
        return len(self._dest_nodes)

    def dest_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The settled destinations as ``(nodes, distances)`` arrays.

        Rebuilt lazily only when new destinations settled since the
        last call — Alg. 8's vectorised reduction runs over these.
        """
        cache = self._dest_cache
        if cache is None:
            cache = (
                np.asarray(self._dest_nodes, dtype=np.int64),
                np.asarray(self._dest_dists, dtype=np.float64),
            )
            self._dest_cache = cache
        return cache

    def close(self) -> None:
        """Return the pooled buffers; the tree must not be used after."""
        probe = self._probe
        if probe is not None:
            probe.gauge("spt_heap_peak", self._heap_peak)
            probe.gauge("spt_settled_peak", len(self._settled_order))
            probe.gauge("flat_scratch_stamp_gen", self._gen)
        if self._scratch is not None:
            release_scratch(self._csr, self._scratch)
            self._scratch = None
        if self.h is not None:
            release_inf_array(self._csr, self.h, self._settled_order)
            self.h = None


def _make_flat_comp_lb(
    tree: FlatIncrementalSPT,
    in_adjacency,
    target: int,
    total_destinations: int,
    source_bounds: Callable[[int], float],
) -> Callable[[Subspace], float]:
    """Alg. 8 (``CompLB-SPT_I``) over the flat structures.

    At the virtual target (the reverse root) the bound is a vectorised
    min over the settled-destination arrays; at interior nodes it is a
    loop over the reverse adjacency rows reading the tree's dense
    ``ds`` vector, with the landmark bound as fallback.  Values match
    the dict implementation exactly (a min is order-independent and
    the sums use the same operands).
    """
    h = tree.h

    def comp_lb(subspace: Subspace) -> float:
        prefix = subspace.prefix
        u = prefix[-1]
        banned = subspace.banned
        base = subspace.prefix_weight
        if u == target:
            nodes, dists = tree.dest_arrays()
            best = INF
            if nodes.size:
                if banned or len(prefix) > 1:
                    excluded = list(banned)
                    excluded.extend(prefix)
                    candidates = dists[~np.isin(nodes, excluded)]
                else:
                    candidates = dists
                if candidates.size:
                    best = base + float(candidates.min())
            if best == INF and tree.num_settled_destinations < total_destinations:
                # Unsettled destinations may still open this subspace
                # later; 0 keeps it alive (Alg. 8 line 8).
                return 0.0
            return best
        best = INF
        for v, w in in_adjacency[u]:
            if v in banned or v in prefix:
                continue
            ds = h[v]
            if ds == INF:
                ds = source_bounds(v)
            estimate = base + w + ds
            if estimate < best:
                best = estimate
        return best

    return comp_lb


def _make_flat_comp_lb_children(
    tree: FlatIncrementalSPT,
    in_adjacency,
    comp_lb: Callable[[Subspace], float],
    source_bounds: Callable[[int], float],
):
    """Alg. 8 batched over one ``divide``: bounds for *all* children at once.

    When the driver outputs a path it divides the subspace into one
    child per path position and computes ``CompLB`` for each; the
    scalar bound tests each neighbour against the child's prefix tuple
    — ``O(|prefix|)`` per edge, quadratic over a whole division.  This
    closure produces the identical ``(child, bound)`` sequence — same
    order, same float sums ``(base + w) + ds``, same exclusion
    outcomes — with one position dict per division: since the path is
    simple, "``v`` on ``path[: j + 1]`` or ``v`` the banned hop
    ``path[j + 1]``" is exactly ``pos(v) <= j + 1``, an ``O(1)``
    lookup.  The child-at-head subspace (whose head may be the virtual
    target, and whose banned set may hold off-path nodes) still goes
    through the scalar ``comp_lb``.
    """
    h = tree.h

    def comp_lb_children(
        subspace: Subspace, path: tuple[int, ...], dists
    ) -> list[tuple[Subspace, float]]:
        d = len(subspace.prefix) - 1
        L = len(path)
        pairs: list[tuple[Subspace, float]] = []
        first = subspace.child_at_head(path[d + 1])
        pairs.append((first, comp_lb(first)))
        if L - d - 2 <= 0:
            return pairs
        pos = {node: i for i, node in enumerate(path)}
        append = pairs.append
        for j in range(d + 1, L - 1):
            base = dists[j - d]
            best = INF
            cutoff = j + 1
            for v, w in in_adjacency[path[j]]:
                if v in pos and pos[v] <= cutoff:
                    continue
                ds = h[v]
                if ds == INF:
                    ds = source_bounds(v)
                estimate = base + w + ds
                if estimate < best:
                    best = estimate
            append(
                (
                    Subspace(path[: j + 1], frozenset((path[cutoff],)), base),
                    best,
                )
            )
        return pairs

    return comp_lb_children


def flat_spti_search(
    query_graph: QueryGraph,
    k: int,
    target_bounds: Callable[[int], float],
    source_bounds: Callable[[int], float],
    alpha: float = 1.1,
    stats: SearchStats | None = None,
    probe: Probe | None = None,
) -> list[Path]:
    """``IterBound-SPT_I`` (Algs. 4, 7, 8) entirely on the flat engine.

    Drop-in replacement for the dict
    :func:`repro.core.spt_incremental.iter_bound_spti` — same
    parameters, identical returned paths — dispatched automatically
    when the ambient kernel is ``"flat"``.  ``probe`` receives the
    ``comp_sp`` phase, the tree's size gauges and, through
    :func:`~repro.core.iter_bound.iter_bound_search`, the same event
    sequence as the dict engine (``bound_kind="spt_i"``).
    """
    from repro.core.iter_bound import iter_bound_search

    stats = stats if stats is not None else SearchStats()
    csr = shared_csr(query_graph.graph)
    rcsr = csr.reverse()
    destinations = frozenset(query_graph.destinations)
    tree = FlatIncrementalSPT(
        csr, query_graph.source, target_bounds, destinations, stats=stats,
        probe=probe,
    )
    ctx = FlatQueryContext(csr=rcsr, h=tree.h, probe=probe)
    try:
        stats.shortest_path_computations += 1
        if probe is not None:
            t0 = perf_counter()
        initial = tree.build_initial(query_graph.target)
        if probe is not None:
            probe.phase("comp_sp", t0, perf_counter())
        if initial is None:
            return []
        first_path, first_length = initial
        target = query_graph.target
        reversed_graph = query_graph.reversed_graph()
        # Prefix weights of the reversed first path, accumulated hop by
        # hop exactly as the driver's divide() would (reverse edge
        # a->b = forward edge b->a, first matching row entry), so the
        # first division reuses them bit-for-bit.
        rev_first = tuple(reversed(first_path))
        indptr_l, heads_l, wts_l = csr.adjacency_lists()
        acc = 0.0
        init_dists = [0.0]
        for i in range(1, len(rev_first)):
            a = rev_first[i - 1]
            b = rev_first[i]
            for e in range(indptr_l[b], indptr_l[b + 1]):
                if heads_l[e] == a:
                    acc = acc + wts_l[e]
                    break
            init_dists.append(acc)
        comp_lb = _make_flat_comp_lb(
            tree,
            reversed_graph.adjacency,
            target,
            len(destinations),
            source_bounds,
        )
        reverse_paths = iter_bound_search(
            reversed_graph,
            target,
            query_graph.source,
            k,
            tree.heuristic,
            alpha=alpha,
            stats=stats,
            initial=(rev_first, first_length),
            comp_lb=comp_lb,
            before_test=tree.grow,
            test_lb=ctx.make_test_lb(query_graph.source, stats),
            comp_lb_children=_make_flat_comp_lb_children(
                tree, reversed_graph.adjacency, comp_lb, source_bounds
            ),
            initial_dists=init_dists,
            probe=probe,
            bound_kind="spt_i",
        )
        stats.spt_nodes = len(tree)
        return [
            Path(length=p.length, nodes=tuple(reversed(p.nodes)))
            for p in reverse_paths
        ]
    finally:
        tree.close()
