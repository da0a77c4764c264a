"""The `kpj serve` HTTP front-end (`repro.server.http`).

A real service behind a real socket (ephemeral port via the ``ready``
callback), exercised with stdlib urllib only: health, query, metrics
exposition, status, and the error-code mapping.
"""

import asyncio
import json
import socket
import threading
import urllib.error
import urllib.request

import pytest

from repro.core.kpj import KPJSolver
from repro.datasets.registry import road_network
from repro.obs.metrics import parse_prom
from repro.server.http import _handle_query, serve_forever
from repro.server.service import QueryService, ServiceOverloaded, WorkerDied
from repro.server.shared import active_segments


@pytest.fixture(scope="module")
def endpoint():
    """A served QueryService on an OS-assigned port; torn down after."""
    dataset = road_network("SJ")
    solver = KPJSolver(dataset.graph, dataset.categories, landmarks=4)
    service = QueryService(solver, workers=1, prewarm=("T1",))
    bound: dict = {}
    ready = threading.Event()
    control: dict = {}

    def run():
        async def main():
            stop = asyncio.Event()
            control["loop"] = asyncio.get_running_loop()
            control["stop"] = stop
            await serve_forever(
                service,
                "127.0.0.1",
                0,
                ready=lambda addr: (bound.update(addr=addr), ready.set()),
                stop=stop,
            )
        asyncio.run(main())

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert ready.wait(60), "server did not come up"
    host, port = bound["addr"]
    yield f"http://{host}:{port}", service
    control["loop"].call_soon_threadsafe(control["stop"].set)
    thread.join(timeout=30)
    assert not thread.is_alive()


def _get(url):
    with urllib.request.urlopen(url, timeout=30) as response:
        return response.status, response.read()


def _post(url, payload):
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status, json.loads(response.read())


def _raw(base, request: bytes):
    """Send ``request`` verbatim over a socket; return (status, JSON body)."""
    host, port = base.removeprefix("http://").split(":")
    with socket.create_connection((host, int(port)), timeout=30) as sock:
        sock.sendall(request)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(body)


class TestEndpoints:
    def test_healthz(self, endpoint):
        base, service = endpoint
        status, body = _get(base + "/healthz")
        assert status == 200
        health = json.loads(body)
        assert health["status"] == "ok"
        assert health["workers"] == service.workers

    def test_query_roundtrip_matches_direct(self, endpoint):
        base, service = endpoint
        status, body = _post(
            base + "/query", {"source": 3, "category": "T1", "k": 4}
        )
        assert status == 200
        direct = service.solver.top_k(3, category="T1", k=4)
        assert [p["length"] for p in body["paths"]] == [
            p.length for p in direct.paths
        ]
        assert [p["nodes"] for p in body["paths"]] == [
            list(p.nodes) for p in direct.paths
        ]
        assert body["query_id"]
        assert set(body["timing"]) == {
            "enqueued_at_s", "started_at_s", "queue_wait_s"
        }

    def test_metrics_exposition_parses(self, endpoint):
        base, _ = endpoint
        _post(base + "/query", {"source": 1, "category": "T1", "k": 2})
        status, body = _get(base + "/metrics")
        assert status == 200
        samples = parse_prom(body.decode(), require_non_negative=False)
        assert samples[("kpj_service_queries_total", ())] >= 1.0

    def test_status_reports_service_shape(self, endpoint):
        base, service = endpoint
        status, body = _get(base + "/status")
        assert status == 200
        described = json.loads(body)
        assert described["workers"] == service.workers
        assert described["segments"] == list(service.shared_segments())
        assert described["metrics"]["phases"]["warmup"]["calls"] == 1


class TestErrorMapping:
    def _error(self, base, payload):
        try:
            _post(base + "/query", payload)
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read())
        pytest.fail("expected an HTTP error")

    def test_bad_query_is_400(self, endpoint):
        base, _ = endpoint
        code, body = self._error(base, {"source": 1, "category": "NOPE"})
        assert code == 400
        assert "NOPE" in body["error"]

    def test_malformed_body_is_400(self, endpoint):
        base, _ = endpoint
        code, body = self._error(base, {"bogus": True})
        assert code == 400

    @pytest.mark.parametrize("length", [b"-5", b"ten"])
    def test_bad_content_length_is_400(self, endpoint, length):
        base, _ = endpoint
        code, body = _raw(
            base,
            b"POST /query HTTP/1.1\r\nContent-Length: " + length + b"\r\n\r\n",
        )
        assert code == 400
        assert "Content-Length" in body["error"]

    @pytest.mark.parametrize(
        "exc,code",
        [
            (ServiceOverloaded("service overloaded: 2 queries pending"), 429),
            (WorkerDied("resident worker 0 (pid 1) died mid-query"), 500),
        ],
    )
    def test_status_follows_exception_type(self, exc, code):
        class Failing:
            async def asubmit(self, fields, timeout_s=None):
                raise exc

        out = asyncio.run(_handle_query(Failing(), b'{"source": 1}'))
        assert out.startswith(f"HTTP/1.1 {code} ".encode())

    def test_deadline_is_504(self, endpoint):
        base, service = endpoint
        service.sleep(0.3, worker=0)
        code, body = self._error(
            base, {"source": 1, "category": "T1", "timeout_s": 0.02}
        )
        assert code == 504
        assert "deadline exceeded" in body["error"]

    def test_unknown_path_is_404(self, endpoint):
        base, _ = endpoint
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(base + "/nope")
        assert excinfo.value.code == 404

    def test_wrong_method_is_405(self, endpoint):
        base, _ = endpoint
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(base + "/query")  # GET on a POST-only route
        assert excinfo.value.code == 405


def test_shutdown_unlinks_segments():
    """A full serve lifecycle leaves no shared memory behind."""
    dataset = road_network("SJ")
    solver = KPJSolver(dataset.graph, dataset.categories, landmarks=2)
    service = QueryService(solver, workers=1)
    control: dict = {}
    ready = threading.Event()

    def run():
        async def main():
            stop = asyncio.Event()
            control["loop"] = asyncio.get_running_loop()
            control["stop"] = stop
            await serve_forever(
                service, "127.0.0.1", 0,
                ready=lambda addr: ready.set(), stop=stop,
            )
        asyncio.run(main())

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert ready.wait(60)
    segments = service.shared_segments()
    assert set(segments) <= set(active_segments())
    control["loop"].call_soon_threadsafe(control["stop"].set)
    thread.join(timeout=30)
    assert not set(segments) & set(active_segments())
