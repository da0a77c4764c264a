"""Fault-injection suite for the resident-worker service.

Each failure mode is pinned to its exact user-visible error message
and its telemetry counter, so a behaviour change here is a deliberate
API change, not an accident:

* worker SIGKILL'd mid-query -> clean ``WorkerDied`` (a ``QueryError``
  subclass), pool respawns
  the worker with the shared-memory state intact, later queries work;
* deadline exceeded -> ``DeadlineExceeded`` (a ``QueryError``
  subclass) + ``service_deadline_exceeded``;
* admission-queue overflow -> ``ServiceOverloaded`` (a ``QueryError``
  subclass) + ``service_rejected_overload``;
* shutdown -> zero shared-memory segments left behind.
"""

import os
import pickle
import signal
import time
from time import perf_counter

import pytest

from repro.core.kpj import KPJSolver
from repro.datasets.registry import road_network
from repro.exceptions import QueryError
from repro.server.pool import BatchQuery
from repro.server.service import (
    DeadlineExceeded,
    QueryService,
    ServiceOverloaded,
    WorkerDied,
    _serve_query,
)
from repro.server.shared import active_segments


@pytest.fixture(scope="module")
def sj():
    dataset = road_network("SJ")
    return dataset, KPJSolver(dataset.graph, dataset.categories, landmarks=4)


@pytest.fixture()
def service(sj):
    _, solver = sj
    svc = QueryService(solver, workers=1, prewarm=("T1",))
    svc.start()
    yield svc
    svc.shutdown()


def _query(source=3, category="T1", k=3):
    return BatchQuery(source=source, category=category, k=k)


class TestWorkerDeath:
    def test_kill_mid_query_is_clean_error_and_respawn(self, service):
        (old_pid,) = service.worker_pids()
        segments_before = service.shared_segments()

        # Occupy the worker, then kill it while the op is in flight.
        inflight = service.sleep(1.0, worker=0)
        time.sleep(0.1)  # let the sleep op reach the worker
        os.kill(old_pid, signal.SIGKILL)

        with pytest.raises(
            QueryError,
            match=rf"resident worker 0 \(pid {old_pid}\) died mid-query; "
            rf"respawned",
        ) as excinfo:
            inflight.result(timeout=30)
        assert isinstance(excinfo.value, WorkerDied)
        assert service.metrics.counters["service_worker_deaths"] == 1

        # The pool respawned a fresh process...
        (new_pid,) = service.worker_pids()
        assert new_pid != old_pid

        # ...which maps the *same* shared segments (nothing was
        # re-exported) and still holds the prewarmed category.
        info = service.ping(0)
        assert info["pid"] == new_pid
        assert info["segments"] == list(segments_before)
        assert info["csr_readonly"] is True
        assert service.shared_segments() == segments_before

        # And the service keeps answering correctly.
        _, solver = road_network("SJ"), service.solver
        result = service.query(_query())
        direct = solver.top_k(3, category="T1", k=3)
        assert [p.nodes for p in result.paths] == [
            p.nodes for p in direct.paths
        ]

    def test_queries_queued_behind_the_death_still_run(self, service):
        (old_pid,) = service.worker_pids()
        inflight = service.sleep(1.0, worker=0)
        queued = [service.submit(_query(source=s)) for s in (1, 5)]
        time.sleep(0.1)
        os.kill(old_pid, signal.SIGKILL)
        with pytest.raises(QueryError, match="died mid-query"):
            inflight.result(timeout=30)
        # Only the in-flight op fails; queued work lands on the
        # respawned worker.
        for future in queued:
            assert future.result(timeout=30).paths


class TestDeadlines:
    def test_queued_past_deadline_is_rejected_before_dispatch(self, service):
        service.sleep(0.4, worker=0)  # occupy the only worker
        doomed = service.submit(_query(), timeout_s=0.05)
        with pytest.raises(
            DeadlineExceeded,
            match=r"^deadline exceeded before dispatch: queued "
            r"\d+\.\d ms against a 50\.0 ms budget$",
        ):
            doomed.result(timeout=30)
        assert service.metrics.counters["service_deadline_exceeded"] == 1

    def test_worker_side_boundary_check_is_pinned(self, sj):
        # The in-worker half, exercised directly: a deadline that
        # lapses after dispatch is caught at the next phase boundary.
        _, solver = sj
        with pytest.raises(
            DeadlineExceeded,
            match=r"^deadline exceeded at the prepare phase boundary "
            r"\(\d+\.\d ms past budget\)$",
        ):
            _serve_query(solver, _query(), deadline=perf_counter() - 0.01)

    def test_deadline_error_is_a_picklable_query_error(self):
        # It crosses the worker pipe, so it must survive pickling and
        # still be catchable as the public QueryError.
        exc = DeadlineExceeded("deadline exceeded at the search phase boundary")
        clone = pickle.loads(pickle.dumps(exc))
        assert isinstance(clone, QueryError)
        assert str(clone) == str(exc)

    def test_default_timeout_applies_to_every_query(self, sj):
        _, solver = sj
        with QueryService(
            solver, workers=1, default_timeout_s=0.02
        ) as svc:
            svc.sleep(0.3, worker=0)
            with pytest.raises(DeadlineExceeded):
                svc.query(_query())
            assert svc.metrics.counters["service_deadline_exceeded"] == 1

    def test_generous_deadline_does_not_fire(self, service):
        result = service.query(_query(), timeout_s=30.0)
        assert result.paths
        assert (
            service.metrics.counters.get("service_deadline_exceeded", 0) == 0
        )


class TestOverflow:
    def test_admission_bound_sheds_with_pinned_error(self, sj):
        _, solver = sj
        with QueryService(solver, workers=1, max_pending=2) as svc:
            svc.sleep(0.4, worker=0)  # occupies one pending slot
            accepted = svc.submit(_query())
            with pytest.raises(
                QueryError,
                match=r"^service overloaded: 2 queries pending "
                r"\(max_pending=2\)$",
            ) as excinfo:
                svc.query(_query(source=7))
            assert isinstance(excinfo.value, ServiceOverloaded)
            assert svc.metrics.counters["service_rejected_overload"] == 1
            # The shed request cost nothing; admitted work completes.
            assert accepted.result(timeout=30).paths

    def test_slots_free_up_as_queries_finish(self, sj):
        _, solver = sj
        with QueryService(solver, workers=1, max_pending=1) as svc:
            svc.query(_query())  # fills and frees the single slot
            assert svc.query(_query(source=9)).paths
            assert (
                svc.metrics.counters.get("service_rejected_overload", 0) == 0
            )


class TestShutdownHygiene:
    def test_no_segments_survive_shutdown(self, sj):
        _, solver = sj
        svc = QueryService(solver, workers=2)
        svc.start()
        segments = svc.shared_segments()
        pids = svc.worker_pids()
        assert set(segments) <= set(active_segments())
        svc.shutdown()
        assert not set(segments) & set(active_segments())
        # Workers are gone too.
        deadline = time.time() + 10
        while time.time() < deadline:
            alive = [pid for pid in pids if _pid_alive(pid)]
            if not alive:
                break
            time.sleep(0.05)
        assert not alive

    def test_no_segments_survive_a_crashed_worker_either(self, sj):
        _, solver = sj
        svc = QueryService(solver, workers=1)
        svc.start()
        segments = svc.shared_segments()
        inflight = svc.sleep(0.5, worker=0)
        time.sleep(0.1)
        os.kill(svc.worker_pids()[0], signal.SIGKILL)
        with pytest.raises(QueryError, match="died mid-query"):
            inflight.result(timeout=30)
        svc.shutdown()
        assert not set(segments) & set(active_segments())


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - exists, other owner
        return True
    return True
