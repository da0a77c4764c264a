"""Tests of the benchmark itself: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import (  # noqa: E402
    PER_LAYER,
    ROOT,
    WORKLOADS,
    require_program,
    schedule,
)

require_program()

from repro.datasets.registry import road_network  # noqa: E402
from spans import solver_layers, unattributed  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_schedule_digest_follows_the_seed(name):
    workload = WORKLOADS[name]
    dataset = road_network(workload.dataset)
    first, digest = schedule(workload, 7, dataset)
    again, same = schedule(workload, 7, dataset)
    _, other = schedule(workload, 8, dataset)
    assert digest == same and first == again
    assert other != digest


def test_categories_cover_the_dataset():
    workload = WORKLOADS["cal-cold-prepare"]
    arrivals, _ = schedule(workload, 0, road_network(workload.dataset))
    assert len({a.category for a in arrivals}) == 66


def _span(name, t0, t1, parent=-1, query=0, miss=0):
    return [name, t0, t1, parent, query, miss]


def test_accounting_of_a_hand_built_query():
    spans = [
        _span("query", 0.0, 10.0),
        _span("core.prepare", 0.0, 3.0, parent=0, miss=1),
        _span("overlay.csr_overlay", 0.5, 2.5, parent=1),
        _span("overlay.row_lists", 1.0, 2.0, parent=2),
        _span("core.top_k", 3.0, 9.5, parent=0),
        _span("search.iter_bound", 4.0, 9.0, parent=4),
        _span("leaf.astar", 4.0, 6.0, parent=5),
        _span("leaf.spt_grow", 6.0, 7.0, parent=5),
    ]
    layers = solver_layers(spans)
    assert layers["prepare.miss_ratio"] == 1.0
    assert layers["prepare.overlay_ms.sum"] == pytest.approx(2000.0)
    assert layers["prepare.overlay_ms.p50"] == pytest.approx(2000.0)
    assert layers["search.ms.p50"] == pytest.approx(5000.0)
    assert layers["driver.self_share"] == pytest.approx(2.0 / 5.0)
    assert layers["leaf.astar.calls"] == 1.0
    assert layers["leaf.spt_grow_ms.sum"] == pytest.approx(1000.0)
    # The facade (top_k) is seen through: 10 s of query, 3 s prepare and
    # 5 s search covered, so 2 s unattributed.
    assert unattributed(spans) == pytest.approx((2.0, 10.0))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sj-serve-http",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_benchmark_json_matches_the_code():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in bench["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == PER_LAYER
