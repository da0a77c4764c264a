"""The serving workload: ``kpj serve``'s stack driven over HTTP.

The server runs in its own process (``run.py --role server``): the
dataset, a ``KPJSolver`` and a ``QueryService`` with resident workers
prewarmed on the workload's categories, behind
``repro.server.http.serve_forever``.  This process is the client: a
closed loop on one connection for the timed window, or, traced, an
open-loop phase at a fixed Poisson rate and then a closed-loop capacity
phase, both on ``nproc`` connections.
"""

from __future__ import annotations

import asyncio
import json
import os
import resource
import shutil
import signal
from time import perf_counter, sleep

import loadgen
from child import Child, child_argv
from workloads import (
    ALGORITHM,
    CHECK_SAMPLE,
    ROOT,
    WORK_FIELDS,
    WORKLOADS,
    answer_key,
    build_solver,
    cores,
    median,
    peak_rss_mb,
    quantile,
    schedule,
    latency_summary,
)

WORKERS = 2
HOST = "127.0.0.1"
#: Share of ``--seconds`` the traced run spends in the open-loop
#: phase; the rest is the closed-loop capacity phase.
OPEN_SHARE = 0.75
#: Answers of the untimed run compared with the in-process library.
SERVING_CHECK = 1000
#: A run whose generator ran later than this at p99 measured its own
#: client, not the server: it is rejected instead of reported.
LAG_BOUND_MS = 25.0
#: Connections of the untraced closed loop.  With one, a request waits
#: for no other: its latency is its own way through HTTP, admission,
#: IPC and the worker.  With ``nproc`` of them, two queries of the same
#: destination set queue on the same worker and four processes share
#: two cores, and the p99 and the rate moved by a third between runs.
TIMED_CONNECTIONS = 1
#: The reported p99 is this quantile of the p99s of the window's
#: 1000-query chunks, not their median.  A few seconds of stalls of the
#: host's virtual CPU (10-20 ms each) fill one chunk's 1% tail while
#: barely moving its median; with the median, one run in seven read
#: twice the p99 of the others.  The host only ever adds time, so the
#: better quarter of the chunks is the steadier estimate of the stack's
#: own tail.
P99_AT = 0.25
SERVER_NICE = 5
#: ``setup_s`` is the median of this many server starts per run, more
#: than the library workloads' three: a start takes under a second, so
#: the host's swings weigh more on it, and a sample costs little.
SETUP_SAMPLES = 5
SPAN_DIR = ROOT / ".perfbench_tmp"


def server_main(args) -> int:
    """``--role server``: build, serve until SIGTERM, report peak RSS."""
    workload = WORKLOADS[args.workload]
    # The server and its workers yield the CPU to the client process,
    # so that the load generator sends on time on a machine with few
    # cores; among themselves they compete as usual.
    os.nice(SERVER_NICE)
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer(flush_dir=args.flush_dir).install()
    planted = None
    if args.plant:
        from spans import plant

        # Armed in the workers as they fork, after prewarm, and here
        # once the service is up: the delay hits the queries, not set-up.
        planted = plant(args.plant)
        os.register_at_fork(after_in_child=planted.arm)
    from repro.datasets import registry
    from repro.server.http import serve_forever
    from repro.server.service import QueryService

    dataset = registry.road_network(workload.dataset)
    solver = build_solver(dataset)
    service = QueryService(solver, workers=WORKERS, prewarm=workload.categories)
    print(f"SERVE {perf_counter()!r}", flush=True)

    def ready(bound) -> None:
        if planted is not None:
            planted.arm()
        print(f"PORT {bound[1]}", flush=True)

    asyncio.run(serve_forever(service, HOST, 0, ready=ready))
    if tracer is not None:
        tracer.dump(os.path.join(args.flush_dir, "server.json"))
    rss = peak_rss_mb(resource.RUSAGE_SELF) + WORKERS * peak_rss_mb(
        resource.RUSAGE_CHILDREN
    )
    print("EXIT " + json.dumps({"peak_rss_mb": rss}), flush=True)
    return 0


class Server:
    """One server process, from spawn to a checked shutdown."""

    def __init__(self, args, trace: bool, flush_dir: str | None = None) -> None:
        argv = child_argv(args, "server")
        argv[argv.index("--trace") + 1] = str(int(trace))
        if flush_dir is not None:
            argv += ["--flush-dir", flush_dir]
        self.child = Child(argv)
        try:
            serving_at = float(self.child.expect("SERVE"))
            self.port = int(self.child.expect("PORT"))
            while True:
                try:
                    if loadgen.request(HOST, self.port, "GET", "/healthz")[0] == 200:
                        break
                except OSError:
                    pass
                sleep(0.005)
        except BaseException:
            self.child.kill()
            raise
        now = perf_counter()
        self.setup_s = now - self.child.started
        self.start_s = now - serving_at

    def status(self) -> dict:
        status, body = loadgen.request(HOST, self.port, "GET", "/status")
        if status != 200:
            raise RuntimeError(f"/status answered {status}")
        return json.loads(body)

    def stop(self) -> dict:
        """SIGTERM, wait, and fail if a shared-memory segment outlived it."""
        from multiprocessing import shared_memory

        from repro.server.shared import active_segments

        pid = self.child.proc.pid
        try:
            self.child.proc.send_signal(signal.SIGTERM)
            info = json.loads(self.child.expect("EXIT", 60))
            code = self.child.finish()
        finally:
            self.child.kill()
        leaked = [s for s in active_segments() if s.startswith(f"kpj_{pid:x}_")]
        for name in leaked:
            segment = shared_memory.SharedMemory(name=name)
            segment.close()
            segment.unlink()
        if leaked or code != 0:
            raise RuntimeError(
                f"server exited {code}; leaked shared memory: {leaked or 'none'}"
            )
        return info


def _warm(port: int, arrivals) -> None:
    for arrival in arrivals:
        body = loadgen.query_body(arrival)
        status, body = loadgen.request(HOST, port, "POST", "/query", body)
        if status != 200:
            raise RuntimeError(f"warm-up query failed: {status} {body[:200]!r}")


def _check(dataset, answered) -> tuple[int, list]:
    """HTTP answers (``(arrival, paths)`` pairs) against in-process
    library answers, and the first :data:`CHECK_SAMPLE` against the
    ``dict`` reference too."""
    library = build_solver(dataset)
    reference = build_solver(dataset, kernel="dict")
    bad = []
    for n, (a, paths) in enumerate(answered):
        solvers = (library, reference) if n < CHECK_SAMPLE else (library,)
        for solver in solvers:
            want = solver.top_k(
                a.source, category=a.category, k=a.k, algorithm=ALGORITHM
            )
            if answer_key(want.paths) != paths:
                bad.append(a.index)
                break
    return len(answered), bad


def _rate(exchanges, start: float) -> float:
    """Completed queries per second of a closed-loop phase."""
    served_at = sorted(ex.received for ex in exchanges if ex.status == 200)
    return latency_summary(start, [(t, 0.0) for t in served_at])["rate"]


def _counters(status: dict) -> dict:
    return status["metrics"]["counters"]


def run(args) -> dict:
    workload = WORKLOADS[args.workload]
    from repro.datasets.registry import road_network

    dataset = road_network(workload.dataset)
    arrivals, digest = schedule(workload, args.seed, dataset)
    measure = _run_traced if args.trace else _run_timed
    return {"schedule_digest": digest, **measure(args, workload, dataset, arrivals)}


def _run_timed(args, workload, dataset, arrivals) -> dict:
    """Closed loop on :data:`TIMED_CONNECTIONS` for the whole window.

    The next request is due when the last one returned, so a stall of
    the host delays one request; the open-loop phase, where it delays
    every arrival behind it, and the capacity phase on ``nproc``
    connections run in the traced run (see the README).

    This process, the server and its workers share one CPU: with one
    request in flight they take turns on it, and no hand-off waits for
    an idle virtual CPU of a shared host to be woken.  Unpinned, those
    wake-ups put 5-10 ms stalls into a few percent of the requests and
    the p99 moved by half between runs.
    """
    conns = TIMED_CONNECTIONS
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})  # inherited by every process spawned below
    warm, queue = arrivals[: workload.warm], arrivals[workload.warm :]
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        server = Server(args, trace=False)
        setups.append(server.setup_s)
        server.stop()
    server = Server(args, trace=False)
    setups.append(server.setup_s)
    try:
        _warm(server.port, warm)
        sent, start = loadgen.closed_loop(HOST, server.port, queue, conns, args.seconds)
    finally:
        info = server.stop()
    ok = sorted((ex for ex in sent if ex.status == 200), key=lambda ex: ex.received)
    latency = latency_summary(
        start, [(ex.received, (ex.received - ex.due) * 1e3) for ex in ok], P99_AT
    )
    checked = sorted(ok, key=lambda ex: ex.index)[:SERVING_CHECK]
    answered = [
        (queue[ex.index % len(queue)], answer_key(ex.json()["paths"]))
        for ex in checked
    ]
    checked, bad = _check(dataset, answered)
    return {
        "attempted": len(sent),
        "failed": len(sent) - len(ok),
        "metrics": {
            "setup_s": median(setups),
            "query_ms.p50": latency["p50"],
            "query_ms.p99": latency["p99"],
            "throughput_qps": latency["rate"],
            "success_rate": len(ok) / len(sent),
            "peak_rss_mb": info["peak_rss_mb"],
        },
        "setup_samples_s": setups,
        "p99_tail_samples": latency["p99_tail_samples"],
        "connections": conns,
        "cpu": cpu,
        "checked": checked,
        "mismatches": bad,
    }


def _run_traced(args, workload, dataset, arrivals) -> dict:
    """An untraced server for the capacity reference, then a traced one:
    open-loop arrivals at ``RATE`` per second for :data:`OPEN_SHARE` of
    the window (the per-layer metrics), then the capacity phase."""
    from spans import load_flushed, select, solver_layers

    conns = cores()
    warm, rest = arrivals[: workload.warm], arrivals[workload.warm :]
    open_s = args.seconds * OPEN_SHARE
    opened = [a for a in rest if a.offset_s - rest[0].offset_s <= open_s]
    closed, closed_s = rest[len(opened) :], args.seconds - open_s
    server = Server(args, trace=False)
    try:
        _warm(server.port, warm)
        plain, plain_start = loadgen.closed_loop(
            HOST, server.port, closed, conns, closed_s
        )
    finally:
        server.stop()
    flush_dir = SPAN_DIR / f"run-{os.getpid()}"
    shutil.rmtree(flush_dir, ignore_errors=True)
    flush_dir.mkdir(parents=True)
    try:
        server = Server(args, trace=True, flush_dir=str(flush_dir))
        try:
            _warm(server.port, warm)
            before = _counters(server.status())
            sent = loadgen.open_loop(HOST, server.port, opened, conns)
            after = _counters(server.status())
            traced, traced_start = loadgen.closed_loop(
                HOST, server.port, closed, conns, closed_s
            )
        finally:
            server.stop()
        with open(flush_dir / "server.json") as fh:
            server_spans = json.load(fh)
        worker_spans = load_flushed(str(flush_dir))
    finally:
        shutil.rmtree(flush_dir, ignore_errors=True)
        if SPAN_DIR.is_dir() and not any(SPAN_DIR.iterdir()):
            SPAN_DIR.rmdir()
    lag = [(ex.dispatched - ex.due) * 1e3 for ex in sent]
    if quantile(lag, 0.99) > LAG_BOUND_MS:
        raise SystemExit(
            f"rejected: load generator lag p99 {quantile(lag, 0.99):.2f} ms "
            f"> {LAG_BOUND_MS} ms"
        )
    ok = [ex for ex in sent if ex.status == 200]
    bodies = [ex.json() for ex in ok]
    qids = {body["query_id"] for body in bodies}
    asubmit = {
        rec[4]: rec[2] - rec[1] for rec in server_spans if rec[0] == "service.asubmit"
    }
    http, ipc, queue, uncovered, total = [], [], [], 0.0, 0.0
    inside_s = solver_s = 0.0
    for ex, body in zip(ok, bodies):
        inside = asubmit[body["query_id"]]
        queue_ms = body["timing"]["queue_wait_s"] * 1e3
        http.append((ex.received - ex.sent - inside) * 1e3)
        queue.append(queue_ms)
        ipc.append(inside * 1e3 - queue_ms - body["elapsed_ms"])
        # The root is due -> received.  The client's own time (generator
        # lag, waiting for a connection) runs up to ``sent``, the server's
        # asubmit span sits inside the round trip; the HTTP layer between
        # them is what no span covers.
        uncovered += ex.received - ex.sent - inside
        total += ex.received - ex.due
        inside_s += inside
        solver_s += body["elapsed_ms"] / 1e3
    build = {
        name: sum(r[2] - r[1] for r in server_spans if r[0] == name)
        for name in ("datasets.road_network", "landmarks.build")
    }
    metrics = {
        "datasets.build_s": build["datasets.road_network"],
        "landmarks.build_s": build["landmarks.build"],
        "service.start_s": server.start_s,
        **solver_layers(select(worker_spans, qids)),
        "http.ms.p50": quantile(http, 0.5),
        "service.queue_ms.p99": quantile(queue, 0.99),
        "service.ipc_ms.p50": quantile(ipc, 0.5),
        "loadgen.lag_ms.p99": quantile(lag, 0.99),
        "unattributed_share": uncovered / total if total else 0.0,
        "trace.overhead_ratio": _rate(plain, plain_start) / _rate(traced, traced_start),
    }
    for name in ("prepares", "prepares_coalesced", "rejected_overload"):
        key = f"service_{name}"
        metrics[f"service.{name}"] = float(after.get(key, 0) - before.get(key, 0))
    for field in WORK_FIELDS:
        metrics[f"work.{field}"] = float(sum(b["stats"][field] for b in bodies))
    answered = [(opened[ex.index], answer_key(b["paths"])) for ex, b in zip(ok, bodies)]
    checked, bad = _check(dataset, answered)
    return {
        "attempted": len(sent),
        "failed": len(sent) - len(ok),
        "metrics": metrics,
        "capacity_qps": _rate(plain, plain_start),
        "server_share": inside_s / total,
        "solver_share": solver_s / total,
        "checked": checked,
        "mismatches": bad,
    }
