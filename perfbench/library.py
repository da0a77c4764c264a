"""In-process library workloads: one caller in a closed loop.

Runs in a child process of ``run.py`` so that set-up is timed from
process start.  The caller answers each query the way a resident
service worker does: ``KPJSolver.prepare`` for the destination set,
then the search.  On a prepared-cache miss the search's first call
exports the new ``G_Q`` overlay to CSR (``shared_csr``).

Protocol on stdout: ``READY`` once set-up (imports, dataset, landmark
build, cache warm-up) is done, then one ``RESULT <json>`` line.
"""

from __future__ import annotations

import gc
import json
import resource
from time import perf_counter

from workloads import (
    ALGORITHM,
    CHECK_SAMPLE,
    PER_LAYER,
    WORK_FIELDS,
    WORKLOADS,
    answer_key,
    build_solver,
    latency_summary,
    peak_rss_mb,
    schedule,
)

#: Queries in each pass of the traced run.
TRACED_QUERIES = 400


def _answer(solver, arrival):
    prepared = solver.prepare(category=arrival.category)
    return prepared.top_k(arrival.source, k=arrival.k, algorithm=ALGORITHM)


def _check(dataset, sample) -> tuple[int, list]:
    """Re-solve ``sample`` (``(arrival, answer)`` pairs) on the ``dict``
    kernel; returns ``(checked, mismatched arrival indices)``."""
    reference = build_solver(dataset, kernel="dict")
    bad = []
    for arrival, got in sample:
        want = reference.top_k(
            arrival.source, category=arrival.category, k=arrival.k, algorithm=ALGORITHM
        )
        if answer_key(want.paths) != got:
            bad.append(arrival.index)
    return len(sample), bad


def _timed_loop(solver, queue, seconds: float):
    """Closed loop for ``seconds``; returns ``(start, [(completed_at,
    latency_ms)] of answered queries, failures, check sample)``."""
    done: list[tuple[float, float]] = []
    failures = 0
    sample = []
    i = 0
    start = perf_counter()
    deadline = start + seconds
    while True:
        arrival = queue[i % len(queue)]
        t0 = perf_counter()
        if t0 >= deadline:
            break
        try:
            result = _answer(solver, arrival)
        except Exception:
            failures += 1
            result = None
        t1 = perf_counter()
        if result is not None:
            done.append((t1, (t1 - t0) * 1e3))
            if i < CHECK_SAMPLE:
                sample.append((arrival, answer_key(result.paths)))
        i += 1
    return start, done, failures, sample


def _pass(solver, queue, tracer=None):
    """Answer every query of ``queue`` once; returns (seconds, results)."""
    results = []
    t0 = perf_counter()
    for n, arrival in enumerate(queue):
        root = tracer.root(n) if tracer is not None else None
        results.append(_answer(solver, arrival))
        if root is not None:
            tracer.end_root(root)
    return perf_counter() - t0, results


def main(args) -> int:
    workload = WORKLOADS[args.workload]
    tracer = planted = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer().install()
    if args.plant:
        from spans import plant

        planted = plant(args.plant)
    from repro.datasets import registry

    dataset = registry.road_network(workload.dataset)
    solver = build_solver(dataset)
    arrivals, digest = schedule(workload, args.seed, dataset)
    for arrival in arrivals[: workload.warm]:
        _answer(solver, arrival)
    gc.collect()
    print("READY", flush=True)
    if args.setup_only:
        return 0
    if planted is not None:
        planted.arm()
    queue = arrivals[workload.warm :]
    misses0 = solver.cache_info()["misses"]
    out: dict = {"schedule_digest": digest}
    if tracer is None:
        start, done, failures, sample = _timed_loop(solver, queue, args.seconds)
        summary = latency_summary(start, done)
        attempted = len(done) + failures
        out.update(
            attempted=attempted,
            failed=failures,
            metrics={
                "query_ms.p50": summary["p50"],
                "query_ms.p99": summary["p99"],
                "throughput_qps": summary["rate"],
                "success_rate": len(done) / attempted,
                "peak_rss_mb": peak_rss_mb(resource.RUSAGE_SELF),
            },
            p99_tail_samples=summary["p99_tail_samples"],
            prepare_misses=solver.cache_info()["misses"] - misses0,
        )
    else:
        from spans import solver_layers, unattributed

        setup_spans = tracer.spans
        build = {
            name: sum(r[2] - r[1] for r in setup_spans if r[0] == name)
            for name in ("datasets.road_network", "landmarks.build")
        }
        batch = queue[:TRACED_QUERIES]
        # Untraced, traced, untraced again over the same queries: the
        # cache state differs between passes, so the traced pass is
        # compared with the mean of the two around it.
        tracer.uninstall()
        before_s, _ = _pass(solver, batch)
        tracer.install()
        tracer.spans, tracer.stack = [], []
        traced_s, results = _pass(solver, batch, tracer)
        spans = tracer.spans
        tracer.uninstall()
        after_s, _ = _pass(solver, batch)
        plain_s = (before_s + after_s) / 2
        uncovered, total = unattributed(spans)
        metrics = dict.fromkeys(PER_LAYER, 0.0)
        metrics.update({
            "datasets.build_s": build["datasets.road_network"],
            "landmarks.build_s": build["landmarks.build"],
            **solver_layers(spans),
            "unattributed_share": uncovered / total if total else 0.0,
            "trace.overhead_ratio": traced_s / plain_s,
        })
        for field in WORK_FIELDS:
            count = sum(getattr(r.stats, field) for r in results)
            metrics[f"work.{field}"] = float(count)
        sample = [(a, answer_key(r.paths)) for a, r in zip(batch, results)]
        sample = sample[:CHECK_SAMPLE]
        out.update(attempted=len(batch), failed=0, metrics=metrics)
    if planted is not None:
        planted.restore()
    checked, bad = _check(dataset, sample)
    out.update(checked=checked, mismatches=bad)
    print("RESULT " + json.dumps(out), flush=True)
    return 0
