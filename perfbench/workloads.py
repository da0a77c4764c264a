"""The benchmark's workload table, seeded schedules and shared helpers.

Every workload is a seeded :func:`repro.bench.workload.generate_schedule`
expansion: the same ``--seed`` gives the same arrivals (and the same
``schedule_digest``), a different seed gives different ones.  The first
``warm`` arrivals of a schedule warm the caches and are never timed.
"""

from __future__ import annotations

import math
import os
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def require_program() -> None:
    """Put the checkout's ``src/`` first on ``sys.path``, or exit 2.

    The benchmark measures the program of the checkout it sits in and
    nothing else, so a missing ``src/repro`` is a hard error even when
    some other ``repro`` happens to be importable.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure at {SRC / 'repro'}", file=sys.stderr)
        sys.exit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


#: Search settings shared by every workload (the production solver path).
KERNEL = "flat"
LANDMARKS = 8
ALGORITHM = "iter-bound-spti"
#: Queries re-solved with the paper-faithful ``dict`` kernel per run.
CHECK_SAMPLE = 40
#: ``QueryResult.stats`` counters summed into the ``work.*`` metrics.
WORK_FIELDS = ("nodes_settled", "edges_relaxed", "lb_tests", "subspaces_created")
#: ``setup_s`` is the median of this many fresh set-ups per run.
SETUP_SAMPLES = 3
#: Arrivals per schedule; the closed loops cycle through them.
QUERIES = 20000
#: Poisson arrival rate of every schedule, per second.  Only the open
#: loop of the traced serving run sends at the arrival times; the
#: closed loops take the arrivals in order and ignore them.
RATE = 100.0


#: End-to-end metrics (``--trace 0``) and their units.
END_TO_END = {
    "setup_s": "s",
    "query_ms.p50": "ms",
    "query_ms.p99": "ms",
    "throughput_qps": "1/s",
    "success_rate": "ratio",
    "peak_rss_mb": "MiB",
}

#: Per-layer metrics (``--trace 1``) and their units.  A layer a
#: workload does not use reports 0 (``http.ms.p50`` in-process, say).
PER_LAYER = {
    "datasets.build_s": "s",
    "landmarks.build_s": "s",
    "service.start_s": "s",
    "prepare.miss_ratio": "ratio",
    "prepare.overlay_ms.p50": "ms",
    "prepare.overlay_ms.sum": "ms",
    "landmarks.bounds_ms.sum": "ms",
    "search.ms.p50": "ms",
    "driver.self_share": "ratio",
    "leaf.astar_ms.sum": "ms",
    "leaf.astar.calls": "count",
    "leaf.spt_grow_ms.sum": "ms",
    "work.nodes_settled": "count",
    "work.edges_relaxed": "count",
    "work.lb_tests": "count",
    "work.subspaces_created": "count",
    "http.ms.p50": "ms",
    "service.queue_ms.p99": "ms",
    "service.ipc_ms.p50": "ms",
    "service.prepares": "count",
    "service.prepares_coalesced": "count",
    "service.rejected_overload": "count",
    "loadgen.lag_ms.p99": "ms",
    "unattributed_share": "ratio",
    "trace.overhead_ratio": "ratio",
}


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "library": in-process closed loop; "serving": HTTP
    dataset: str
    categories: tuple[str, ...] | None  # None: every category of the dataset
    skew: dict
    k: tuple[int, ...]
    k_weights: tuple[float, ...] | None  # None: every k equally likely
    warm: int  # untimed warm-up queries at the head of the schedule


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="col-hot-search",
            kind="library",
            dataset="COL",
            # Some queries settle the whole graph and take 30-50 ms against
            # 2-3 ms at the median: 1-2% of T4's queries, the sparsest
            # destination set, about 1% of T3's, 0.5-1% of T2's and 0-0.4% of
            # T1's, varying with the seed's sources.  Weighted anywhere near
            # evenly they are about 1% of all queries, so the p99 sat on the
            # edge of that cluster and moved between 14 and 40 ms with the
            # seed.  Zipf s=2 ranked T1 first (70/18/8/4%) makes them about
            # 0.5%, and the p99 falls in the continuous tail of k=64 on T1.
            categories=("T1", "T2", "T3", "T4"),
            skew={"kind": "zipf", "s": 2.0},
            # 3:1 keeps the median inside the k=16 mode; at 1:1 it falls in
            # the gap between the two modes and moves with the seed's mix.
            k=(16, 64),
            k_weights=(3.0, 1.0),
            # T4 is 4% of queries: 200 arrivals make all four sets resident
            # before timing in all but about one seed in 8000.
            warm=200,
        ),
        Workload(
            name="cal-cold-prepare",
            kind="library",
            dataset="CAL",
            categories=None,
            skew={"kind": "zipf", "s": 1.0},
            k=(2, 4, 8),
            k_weights=None,
            warm=100,
        ),
        Workload(
            name="sj-serve-http",
            kind="serving",
            dataset="SJ",
            categories=("T1", "T2", "T3", "T4"),
            skew={"kind": "zipf", "s": 1.2},
            k=(2, 4, 8),
            k_weights=None,
            warm=100,
        ),
    )
}


def schedule(workload: Workload, seed: int, dataset):
    """``(arrivals, schedule_digest)`` for ``workload`` at ``seed``."""
    from repro.bench.workload import generate_schedule, parse_spec, schedule_digest

    spec = parse_spec(
        {
            "name": workload.name,
            "dataset": workload.dataset,
            "categories": list(workload.categories or dataset.categories),
            "target_qps": RATE,
            "queries": QUERIES,
            "seed": seed,
            "skew": workload.skew,
            "k": {"kind": "choice", "values": list(workload.k)}
            | ({"weights": list(workload.k_weights)} if workload.k_weights else {}),
            "algorithm": ALGORITHM,
            "kernel": KERNEL,
            "landmarks": LANDMARKS,
        }
    )
    arrivals = generate_schedule(spec, dataset.n)
    return arrivals, schedule_digest(arrivals)


def build_solver(dataset, kernel: str = KERNEL):
    from repro.core.kpj import KPJSolver

    return KPJSolver(
        dataset.graph, dataset.categories, landmarks=LANDMARKS, kernel=kernel
    )


def answer_key(paths) -> list[tuple[float, tuple[int, ...]]]:
    """Comparable form of a path list (``Path`` objects or JSON dicts)."""
    out = []
    for p in paths:
        if isinstance(p, dict):
            out.append((float(p["length"]), tuple(p["nodes"])))
        else:
            out.append((p.length, tuple(p.nodes)))
    return out


def quantile(values, q: float) -> float:
    """The ``q`` quantile (0 < q < 1) by linear interpolation; 0 if empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


#: The timed window is cut into this many consecutive chunks of
#: queries; p50 and throughput are the medians of the chunks' values,
#: so a few seconds of a slower machine move them less.
CHUNKS = 10
#: p99 is taken per chunk of at least this many queries (ten beyond
#: it), and the median over those chunks reported.
P99_CHUNK = 1000


def _chunks(items: list, count: int) -> list[list]:
    count = max(1, min(count, len(items)))
    size, extra = divmod(len(items), count)
    out, pos = [], 0
    for n in range(count):
        step = size + (1 if n < extra else 0)
        out.append(items[pos : pos + step])
        pos += step
    return out


def latency_summary(
    start: float, done: list[tuple[float, float]], p99_at: float = 0.5
) -> dict:
    """p50, p99 and rate of ``(completed_at, latency_ms)`` samples.

    ``done`` is in completion order and ``start`` is when the timed
    window opened.  Each statistic is the median over consecutive
    chunks of the samples (see :data:`CHUNKS`, :data:`P99_CHUNK`);
    the p99 is the ``p99_at`` quantile of the chunks' p99s instead.
    """
    chunks = _chunks(done, CHUNKS)
    rates, begin = [], start
    for chunk in chunks:
        rates.append(len(chunk) / (chunk[-1][0] - begin))
        begin = chunk[-1][0]
    return {
        "p50": median([quantile([v for _, v in c], 0.5) for c in chunks]),
        "p99": quantile(
            [
                quantile([v for _, v in c], 0.99)
                for c in _chunks(done, len(done) // P99_CHUNK)
            ],
            p99_at,
        ),
        "rate": median(rates),
        "p99_tail_samples": min(
            tail_count([v for _, v in c], 0.99)
            for c in _chunks(done, len(done) // P99_CHUNK)
        ),
    }


def tail_count(values, q: float) -> int:
    """How many samples lie beyond the ``q`` quantile."""
    cut = quantile(values, q)
    return sum(1 for v in values if v > cut)


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def peak_rss_mb(who: int) -> float:
    import resource

    return resource.getrusage(who).ru_maxrss / 1024.0
