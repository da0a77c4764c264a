"""Query-serving layer: batched, parallel, and resident execution.

:mod:`repro.server.pool` shards a query list across a fork-per-batch
process pool with the graph shipped once per worker; it backs
:meth:`repro.core.kpj.KPJSolver.solve_batch` and the ``kpj batch``
CLI subcommand.

:mod:`repro.server.service` is the long-lived tier: resident worker
processes over shared-memory CSR state
(:mod:`repro.server.shared`), with admission control, per-query
deadlines, and prepare coalescing.  ``kpj serve`` exposes it over
HTTP (:mod:`repro.server.http`); ``run_batch(engine="service")`` and
``kpj loadtest --target service`` route through it in-process.

All serving surfaces stamp ``QueryResult.timing`` offsets against the
shared :func:`repro.server.epoch.service_epoch`.
"""

from repro.server.epoch import service_epoch
from repro.server.pool import BatchQuery, run_batch
from repro.server.service import (
    DeadlineExceeded,
    QueryService,
    ServiceOverloaded,
    WorkerDied,
)
from repro.server.shared import SharedCSR, active_segments

__all__ = [
    "BatchQuery",
    "DeadlineExceeded",
    "QueryService",
    "ServiceOverloaded",
    "SharedCSR",
    "WorkerDied",
    "active_segments",
    "run_batch",
    "service_epoch",
]
