"""Flat-core IterBound engine benchmark (BENCH_iterbound.json).

Not a paper figure — this times the *query path* of every registry
algorithm on COL under both search substrates (``dict`` kernel vs
``flat`` kernel, per-query p50/p95 over the timed sources) and writes
a machine-readable per-query latency report to
``benchmarks/results/BENCH_iterbound.json``.  The committed report
also holds an ``iter_bound_spti_flat_core_vs_pre`` headline from an
older run; the configuration it timed (the dict search loop over the flat
leaf kernels) no longer exists, so a fresh run does not write it.

Every timed configuration is asserted to return identical results
before its numbers are recorded: exact ``(length, nodes)`` sequences
for all algorithms except ``da-spt``, whose SPT-ordered deviation
search is only specified up to the length multiset (scipy and dict
SPT builds break distance ties differently).

Timing protocol: one untimed warm-up pass per configuration (fills
the CSR/overlay/landmark caches — the engine's whole point is that
these are per-snapshot, not per-query), then best-of-``R`` reps per
query (``REPRO_BENCH_REPS``, default 3) to suppress scheduler noise;
p50/p95 are taken across the per-query best times.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from pathlib import Path

import pytest

from repro.bench.harness import solver_for, workload_for
from repro.core.kpj import ALGORITHMS, KPJSolver

RESULTS_DIR = Path(__file__).parent / "results"

K = 20
REPS = int(os.environ.get("REPRO_BENCH_REPS", "3"))
# Sources per workload group for the all-algorithms sweep.
SWEEP_PER_GROUP = int(os.environ.get("REPRO_BENCH_SWEEP_SOURCES", "2"))

GROUPS = ("Q1", "Q2", "Q3", "Q4", "Q5")


def _setup():
    network, solver = solver_for("COL")
    workload = workload_for("COL", "T2")
    return network, solver, workload


def _percentiles(seconds: list[float]) -> dict[str, float]:
    ordered = sorted(seconds)
    p95_at = min(len(ordered) - 1, round(0.95 * (len(ordered) - 1)))
    return {
        "queries": len(ordered),
        "p50_ms": statistics.median(ordered) * 1e3,
        "p95_ms": ordered[p95_at] * 1e3,
        "mean_ms": statistics.fmean(ordered) * 1e3,
    }


def _best_of(fn, reps: int = REPS) -> tuple[float, object]:
    """Best wall-clock of ``reps`` runs and the (identical) result."""
    best = float("inf")
    result = None
    for _ in range(reps):
        t0 = time.perf_counter()
        result = fn()
        dt = time.perf_counter() - t0
        if dt < best:
            best = dt
    return best, result


def _path_key(paths) -> list[tuple[float, tuple[int, ...]]]:
    return [(p.length, p.nodes) for p in paths]


def _length_key(paths) -> list[float]:
    return sorted(round(p.length, 9) for p in paths)


def test_iterbound_engine_report():
    """Per-query p50/p95 of every registry algorithm, dict vs flat;
    asserts result identity everywhere and writes ``BENCH_iterbound.json``.
    """
    network, dict_solver, workload = _setup()
    index = dict_solver.landmark_index
    flat_solver = KPJSolver(
        network.graph, network.categories, landmarks=index, kernel="flat"
    )
    destinations = workload.destinations

    report: dict = {
        "dataset": "COL",
        "n": network.graph.n,
        "m": network.graph.m,
        "k": K,
        "workload": {
            "category": "T2",
            "destinations": len(destinations),
            "groups": {g: len(workload.group(g)) for g in GROUPS},
        },
        "protocol": {
            "reps_best_of": REPS,
            "warmup_passes": 1,
            "sweep_sources_per_group": SWEEP_PER_GROUP,
        },
        "algorithms": {},
    }

    # ------------------------------------------------------------------
    # All-algorithms sweep: dict vs flat, identical answers asserted.
    # ------------------------------------------------------------------
    sweep_sources = [s for g in GROUPS for s in workload.group(g)[:SWEEP_PER_GROUP]]
    solvers = {"dict": dict_solver, "flat": flat_solver}
    for algorithm in ALGORITHMS:
        entry: dict = {}
        answers: dict[str, list] = {}
        for kernel, solver in solvers.items():
            for source in sweep_sources:  # warm-up: caches + allocator
                solver.top_k(
                    source, destinations=destinations, k=K, algorithm=algorithm
                )
            times = []
            paths = []
            for source in sweep_sources:
                dt, result = _best_of(
                    lambda s=source: solver.top_k(
                        s, destinations=destinations, k=K, algorithm=algorithm
                    )
                )
                times.append(dt)
                paths.append(result.paths)
            answers[kernel] = paths
            entry[kernel] = _percentiles(times)
        for got_dict, got_flat in zip(answers["dict"], answers["flat"]):
            if algorithm == "da-spt":
                # SPT-ordered deviation: identical length multiset only
                # (tie-broken SPT parents differ between substrates).
                assert _length_key(got_dict) == _length_key(got_flat), algorithm
            else:
                assert _path_key(got_dict) == _path_key(got_flat), algorithm
        entry["speedup_flat_over_dict_p50"] = (
            entry["dict"]["p50_ms"] / entry["flat"]["p50_ms"]
        )
        report["algorithms"][algorithm] = entry

    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / "BENCH_iterbound.json"
    out.write_text(json.dumps(report, indent=2) + "\n")

    print(f"\nflat over dict p50 speedup (COL/T2, k={K}):")
    for algorithm, entry in report["algorithms"].items():
        print(f"  {algorithm}: {entry['speedup_flat_over_dict_p50']:.2f}x")


if __name__ == "__main__":  # pragma: no cover - manual convenience
    pytest.main([__file__, "-s", "-x"])
