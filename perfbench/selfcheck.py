"""Planted-slowdown self-check: each workload isolates its layer.

    python3 perfbench/selfcheck.py --seeds 1,2,3

For every workload and seed this runs ``run.py`` untraced without a
plant and then with each planted delay of ``spans.PLANTS`` (a fixed
busy-wait in ``repro.graph.csr.to_csr``, ``FlatIncrementalSPT.grow`` or
``QueryService.asubmit``), at ``run_seconds`` of ``BENCHMARK.json``.
A workload is flagged when the median over seeds of some end-to-end
metric is worse than the unplanted median by more than that metric's
bound in ``BENCHMARK.json``.  The check passes when each plant flags exactly the
workload that exercises its layer.  Exit code 0 on pass, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from workloads import ROOT, median  # noqa: E402

#: Plant -> the one workload it must flag.
EXPECTED = {
    "prepare": "cal-cold-prepare",
    "search": "col-hot-search",
    "service": "sj-serve-http",
}


def run_once(workload: str, seed: int, seconds: float, plant: str | None) -> dict:
    argv = [
        sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    if plant:
        argv += ["--plant", plant]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(argv[1:])} failed:\n{done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed} plant {plant}: wrong answers")
    return {name: m["value"] for name, m in result["metrics"].items()}


def worse_by(metric: dict, base: float, planted: float) -> float:
    """Relative worsening of ``planted`` over ``base`` (negative: better)."""
    change = (planted - base) / base
    return change if metric["better"] == "lower" else -change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1,2,3")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    plants = [None, *EXPECTED]
    runs: dict = {}
    for workload in (w["name"] for w in bench["workloads"]):
        for seed in seeds:
            for plant in plants:
                runs.setdefault((workload, plant), []).append(
                    run_once(workload, seed, seconds, plant)
                )
                print(f"ran {workload} seed {seed} plant {plant}", file=sys.stderr)
    ok = True
    print(
        f"{'plant':<8} {'workload':<18} {'flagged by':<28} "
        "worst metric (change, bound)"
    )
    for plant, target in EXPECTED.items():
        for workload in (w["name"] for w in bench["workloads"]):
            changes = {}
            for name, metric in metrics.items():
                base = median([r[name] for r in runs[(workload, None)]])
                planted = median([r[name] for r in runs[(workload, plant)]])
                changes[name] = (worse_by(metric, base, planted), metric["bound"])
            flagged = [n for n, (c, b) in changes.items() if c > b]
            worst = max(changes, key=lambda n: changes[n][0] / changes[n][1])
            change, bound = changes[worst]
            print(
                f"{plant:<8} {workload:<18} {', '.join(flagged) or '-':<28} "
                f"{worst} {change:+.1%} ({bound:.0%})"
            )
            if bool(flagged) != (workload == target):
                ok = False
    print("self-check", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
