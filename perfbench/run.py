"""The repository benchmark: one command per workload, untraced or traced.

    python3 perfbench/run.py --workload col-hot-search --seed 1 --seconds 20 --trace 0

Prints detail lines, then as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
See ``perfbench/README.md`` for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from time import perf_counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from child import CHILD_TIMEOUT_S, Child, child_argv  # noqa: E402
from workloads import (  # noqa: E402
    END_TO_END,
    PER_LAYER,
    SETUP_SAMPLES,
    WORKLOADS,
    median,
    require_program,
)


def run_library(args) -> dict:
    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            child = Child(child_argv(args, "library", "--setup-only"))
            try:
                child.expect("READY")
                setups.append(perf_counter() - child.started)
                if child.finish() != 0:
                    raise RuntimeError("set-up child failed")
            finally:
                child.kill()
    child = Child(child_argv(args, "library"))
    try:
        child.expect("READY")
        setups.append(perf_counter() - child.started)
        out = json.loads(child.expect("RESULT", CHILD_TIMEOUT_S))
        if child.finish() != 0:
            raise RuntimeError("library child failed")
    finally:
        child.kill()
    if not args.trace:
        out["metrics"]["setup_s"] = median(setups)
        out["setup_samples_s"] = setups
    return out


def emit(args, out: dict) -> None:
    correct = not out.pop("mismatches") and out["attempted"] >= 1
    metrics = out.pop("metrics")
    attempted = out.pop("attempted")
    failed = out.pop("failed")
    print("detail " + json.dumps(out, sort_keys=True))
    units = PER_LAYER if args.trace else END_TO_END
    if set(metrics) != set(units):
        raise RuntimeError(f"metric set mismatch: {sorted(set(metrics) ^ set(units))}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in sorted(metrics.items())
                },
            }
        ),
        flush=True,
    )


def parse(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--plant", choices=("prepare", "search", "service"), default=None,
        help="add the self-check's fixed delay to one layer (see spans.PLANTS)",
    )
    parser.add_argument("--role", default="main", choices=("main", "library", "server"))
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--flush-dir", default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse(argv)
    require_program()
    if args.role == "library":
        import library

        return library.main(args)
    if args.role == "server":
        import serving

        return serving.server_main(args)
    workload = WORKLOADS[args.workload]
    if workload.kind == "library":
        out = run_library(args)
    else:
        import serving

        out = serving.run(args)
    emit(args, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
