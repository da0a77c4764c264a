"""The benchmark's HTTP client: open-loop arrivals and a closed loop.

One client process drives the server over at most ``conns``
connections, one request per connection (the server answers with
``Connection: close``).  Sockets block and threads sleep with
``time.sleep``, so sending is not held up by an event loop's timer
granularity; responses are kept as raw bytes and parsed after the
timed window.
"""

from __future__ import annotations

import json
import socket
import threading
from dataclasses import dataclass
from queue import Queue
from time import perf_counter, sleep

TIMEOUT_S = 30.0


@dataclass
class Exchange:
    index: int  # position in the arrival list
    due: float
    dispatched: float  # handed to a connection by the generator
    sent: float
    received: float
    status: int
    body: bytes

    def json(self) -> dict:
        return json.loads(self.body)


def request(host: str, port: int, method: str, path: str, payload: bytes = b""):
    """One HTTP/1.1 exchange; returns ``(status, body)``."""
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: {host}\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(payload)}\r\n"
        f"Connection: close\r\n\r\n"
    ).encode("ascii")
    chunks = []
    with socket.create_connection((host, port), timeout=TIMEOUT_S) as sock:
        sock.sendall(head + payload)
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    data = b"".join(chunks)
    status_line, _, rest = data.partition(b"\r\n")
    _, _, body = rest.partition(b"\r\n\r\n")
    return int(status_line.split()[1]), body


def query_body(arrival) -> bytes:
    return json.dumps(
        {"source": arrival.source, "category": arrival.category, "k": arrival.k}
    ).encode()


def _exchange(host, port, index, arrival, due, dispatched) -> Exchange:
    sent = perf_counter()
    try:
        status, body = request(host, port, "POST", "/query", query_body(arrival))
    except OSError as exc:
        status, body = -1, str(exc).encode()
    return Exchange(index, due, dispatched, sent, perf_counter(), status, body)


def open_loop(host, port, arrivals, conns: int) -> list[Exchange]:
    """Send ``arrivals`` at their scheduled offsets (rebased to now).

    One generator thread wakes at each arrival's due time and hands it
    to ``conns`` connection threads, whether or not earlier requests
    have finished.  The generator's lateness (``dispatched - due``) is
    its lag; a request that then waits for a free connection has that
    wait in its latency, which runs from when it was due.
    """
    base = arrivals[0].offset_s
    out: list = [None] * len(arrivals)
    ready: Queue = Queue()
    start = perf_counter() + 0.01

    def generator():
        for i, arrival in enumerate(arrivals):
            due = start + arrival.offset_s - base
            wait = due - perf_counter()
            if wait > 0:
                sleep(wait)
            ready.put((i, due, perf_counter()))
        for _ in range(conns):
            ready.put(None)

    def connection():
        while (item := ready.get()) is not None:
            i, due, dispatched = item
            out[i] = _exchange(host, port, i, arrivals[i], due, dispatched)

    _run_threads([generator] + [connection] * conns)
    return out


def closed_loop(host, port, arrivals, conns: int, seconds: float):
    """Each connection sends its next query as soon as the last returns.

    Returns ``(exchanges, start)``, ``start`` being when the loop
    began; arrivals are used in order, cycling if the loop outruns them.
    """
    out: list[Exchange] = []
    counter = iter(range(1 << 62))
    lock = threading.Lock()
    start = perf_counter()
    deadline = start + seconds

    def sender():
        while perf_counter() < deadline:
            with lock:
                i = next(counter)
            now = perf_counter()
            ex = _exchange(host, port, i, arrivals[i % len(arrivals)], now, now)
            with lock:
                out.append(ex)

    _run_threads([sender] * conns)
    return out, start


def _run_threads(targets) -> None:
    threads = [threading.Thread(target=target, daemon=True) for target in targets]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=TIMEOUT_S * 4)
        if t.is_alive():
            raise RuntimeError("load generator thread did not finish")
