"""Subspace-tree introspection: the explored search tree, per depth.

The paper's efficiency argument (Sections 4–5) is about the *shape*
of the subspace tree: ``IterBound`` wins because most subspaces are
pruned by a cheap lower bound instead of paying a shortest-path
computation each.  Both views here read the span snapshot of a traced
query (``QueryResult.trace``), whose ``test_lb``/``division`` spans
carry each event's prefix, bound, τ, verdict and division fan-out:

* :class:`SubspaceTreeReport` — how many subspaces were tested,
  expanded, or pruned at each prefix depth, and which bound family did
  the pruning; its totals equal the
  :class:`~repro.core.stats.SearchStats` subspace counters exactly
  (asserted under both kernels).  ``kpj trace --tree`` and
  ``kpj explain --tree`` print it;
* :func:`search_events` / :func:`narrate` — the loop's events in
  order, one line each (``kpj explain``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, NamedTuple

__all__ = [
    "DepthRow",
    "SubspaceTreeReport",
    "SearchEvent",
    "search_events",
    "narrate",
]

#: ``test_lb`` span verdict -> narrative event kind.
_KINDS = {"hit": "test-hit", "miss": "test-miss", "retire": "retire"}


def _snapshot(trace) -> Mapping:
    """A span snapshot from a snapshot, a live tracer, or ``None``."""
    if trace is None:
        return {}
    if hasattr(trace, "as_dict") and not isinstance(trace, Mapping):
        return trace.as_dict()
    return trace


@dataclass
class DepthRow:
    """Per-depth tallies of the explored subspace tree.

    ``depth`` is the subspace prefix length minus one (the root
    subspace of Alg. 4 sits at depth 0).  ``tested`` counts ``TestLB``
    invocations; ``hits``/``misses``/``retired`` split them by
    verdict; ``expanded`` counts subspaces whose path was output and
    divided; ``children``/``born_pruned`` count division offspring and
    the offspring discarded immediately because ``CompLB`` proved them
    empty.
    """

    depth: int
    tested: int = 0
    hits: int = 0
    misses: int = 0
    retired: int = 0
    expanded: int = 0
    children: int = 0
    born_pruned: int = 0


@dataclass
class SubspaceTreeReport:
    """The reconstructed subspace tree of one iteratively bounding query."""

    rows: dict[int, DepthRow] = field(default_factory=dict)
    #: Which bound family drove the pruning (``"landmark"``,
    #: ``"global"``, ``"spt_p"``, ``"spt_i"``); ``None`` when the
    #: narration did not record it.
    bound_kind: str | None = None
    #: Subspaces still queued (bound-only) when the k-th path was
    #: confirmed; ``None`` when no ``iter_bound`` span recorded it.
    leftover: int | None = None
    #: Whether any division (and so its fan-out) was recorded.
    has_divisions: bool = False
    #: True when the source ring buffer never evicted — totals are
    #: exact, not lower bounds.
    complete: bool = True

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_spans(cls, trace: Mapping | None) -> "SubspaceTreeReport":
        """Build from a span snapshot (``QueryResult.trace``) or tracer."""
        report = cls()
        trace = _snapshot(trace)
        report.complete = not trace.get("evicted", 0)
        rows = report.rows
        for span in trace.get("spans", ()):
            name = span.get("name")
            attrs = span.get("attrs") or {}
            if name == "iter_bound":
                if "leftover" in attrs:
                    report.leftover = int(attrs["leftover"])
                if attrs.get("bound_kind") is not None:
                    report.bound_kind = str(attrs["bound_kind"])
                continue
            if name not in ("test_lb", "division"):
                continue
            depth = int(attrs.get("depth", 0))
            row = rows.get(depth)
            if row is None:
                row = rows[depth] = DepthRow(depth)
            if name == "test_lb":
                row.tested += 1
                verdict = attrs.get("verdict")
                if verdict == "hit":
                    row.hits += 1
                elif verdict == "retire":
                    row.retired += 1
                else:
                    row.misses += 1
            else:  # division (== one output expanded)
                report.has_divisions = True
                row.expanded += 1
                row.children += int(attrs.get("children", 0))
                row.born_pruned += int(attrs.get("pruned", 0))
        return report

    # ------------------------------------------------------------------
    # Totals (the SearchStats-matching view)
    # ------------------------------------------------------------------
    @property
    def lb_tests(self) -> int:
        """Total ``TestLB`` invocations (== ``SearchStats.lb_tests``)."""
        return sum(row.tested for row in self.rows.values())

    @property
    def lb_test_failures(self) -> int:
        """Tests that did not produce a path (misses + retirements)."""
        return sum(row.misses + row.retired for row in self.rows.values())

    @property
    def outputs(self) -> int:
        """Paths output (each output divides its subspace once)."""
        return sum(row.expanded for row in self.rows.values())

    @property
    def subspaces_created(self) -> int | None:
        """Root + division offspring (== ``SearchStats.subspaces_created``).

        ``None`` when the narration lacks division fan-out.
        """
        if not self.has_divisions:
            return None
        return 1 + sum(row.children for row in self.rows.values())

    @property
    def subspaces_pruned(self) -> int | None:
        """Discarded without a path (== ``SearchStats.subspaces_pruned``).

        Born-pruned division offspring, plus retirements, plus the
        bound-only queue entries left when the search stopped.
        ``None`` when fan-out or leftovers were not recorded.
        """
        if not self.has_divisions or self.leftover is None:
            return None
        return (
            sum(row.born_pruned + row.retired for row in self.rows.values())
            + self.leftover
        )

    @property
    def pruned_expanded_ratio(self) -> float | None:
        """Pruned-vs-expanded — the paper's Figure-style pruning claim."""
        pruned = self.subspaces_pruned
        expanded = self.outputs
        if pruned is None or expanded == 0:
            return None
        return pruned / expanded

    @property
    def max_depth(self) -> int:
        """Deepest prefix the search touched."""
        return max(self.rows, default=0)

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def render(self) -> str:
        """Aligned per-depth table plus the totals line."""
        lines = ["subspace tree:"]
        if self.bound_kind is not None:
            lines[0] = f"subspace tree (bound: {self.bound_kind}):"
        if not self.rows:
            lines.append("  (no subspace events recorded)")
            return "\n".join(lines)
        header = (
            f"  {'depth':>5} {'tested':>7} {'hit':>5} {'miss':>5} "
            f"{'retire':>7} {'expanded':>9}"
        )
        if self.has_divisions:
            header += f" {'children':>9} {'born-pruned':>12}"
        lines.append(header)
        for depth in sorted(self.rows):
            row = self.rows[depth]
            line = (
                f"  {depth:>5} {row.tested:>7} {row.hits:>5} {row.misses:>5} "
                f"{row.retired:>7} {row.expanded:>9}"
            )
            if self.has_divisions:
                line += f" {row.children:>9} {row.born_pruned:>12}"
            lines.append(line)
        totals = [
            f"tests={self.lb_tests}",
            f"failures={self.lb_test_failures}",
            f"outputs={self.outputs}",
        ]
        if self.subspaces_created is not None:
            totals.append(f"created={self.subspaces_created}")
        if self.subspaces_pruned is not None:
            totals.append(f"pruned={self.subspaces_pruned}")
        ratio = self.pruned_expanded_ratio
        if ratio is not None:
            totals.append(f"pruned/expanded={ratio:.2f}")
        if self.leftover is not None:
            totals.append(f"leftover={self.leftover}")
        if not self.complete:
            totals.append("(ring evicted spans: totals are lower bounds)")
        lines.append("  totals: " + "  ".join(totals))
        return "\n".join(lines)


class SearchEvent(NamedTuple):
    """One step of the iteratively bounding loop, read off a span.

    ``kind`` is ``"output"`` (a subspace's path became the next result
    and the subspace was divided), ``"test-hit"`` (``TestLB`` found the
    subspace's shortest path), ``"test-miss"`` (``TestLB`` proved the
    bound ``tau`` instead) or ``"retire"`` (the subspace was proven
    empty and dropped).
    """

    kind: str
    prefix: tuple[int, ...]
    lb: float
    tau: float | None = None
    length: float | None = None

    def render(self) -> str:
        """One human-readable line."""
        parts = [
            f"[{self.kind:9s}] prefix={tuple(self.prefix)}",
            f"lb={self.lb:.4g}",
        ]
        if self.tau is not None:
            parts.append(f"tau={self.tau:.4g}")
        if self.length is not None:
            parts.append(f"length={self.length:.4g}")
        return "  ".join(parts)


def search_events(trace) -> list[SearchEvent]:
    """The loop's events, in order, from a span snapshot or tracer."""
    events: list[SearchEvent] = []
    for span in _snapshot(trace).get("spans", ()):
        name = span.get("name")
        if name == "test_lb":
            attrs = span.get("attrs") or {}
            events.append(
                SearchEvent(
                    _KINDS.get(attrs.get("verdict"), "test-miss"),
                    attrs.get("prefix", ()),
                    attrs.get("lb", 0.0),
                    attrs.get("tau"),
                    attrs.get("length"),
                )
            )
        elif name == "division":
            attrs = span.get("attrs") or {}
            length = attrs.get("length", 0.0)
            events.append(
                SearchEvent("output", attrs.get("prefix", ()), length, None, length)
            )
    return events


def narrate(trace, limit: int | None = None) -> str:
    """``kpj explain``'s narrative: one line per event, then the totals.

    ``limit`` caps the event lines (a truncation notice follows).
    """
    snapshot = _snapshot(trace)
    events = search_events(snapshot)
    shown = events if limit is None else events[:limit]
    lines = [event.render() for event in shown]
    if len(shown) < len(events):
        lines.append(f"... {len(events) - len(shown)} more events")
    counts: dict[str, int] = {}
    for event in events:
        counts[event.kind] = counts.get(event.kind, 0) + 1
    lines.append(
        "totals: " + ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
    )
    if snapshot.get("evicted"):
        lines.append(f"({snapshot['evicted']} spans evicted by the ring buffer)")
    return "\n".join(lines)
