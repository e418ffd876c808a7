"""Async screening service with pickup batching and admission control.

This package serves online pre-bond screening requests on top of the
batch-mode measurement engines: requests are admitted against a bounded
backlog (backpressure or load-shedding) and wait in one priority- and
deadline-ordered pending queue; a free worker picks up the most urgent
request together with every pending request sharing its engine
compatibility key, so concurrent requests share one stacked Monte-Carlo
solve.  Every request is answered with a typed response carrying its
per-stage latency breakdown.  Solves run on a
configurable transport: in-process worker threads (default) or worker
processes fed through shared-memory arenas
(``ServiceConfig(transport="process")``).

Quickstart::

    from repro.service import ScreenRequest, ScreeningService

    async with ScreeningService(engine="stagedelay") as service:
        response = await service.submit(ScreenRequest(tsv=Tsv()))
        print(response.delta_t, response.latency.total_s)

See ``DESIGN.md`` section 3.5 for the pipeline architecture.
"""

from repro.service.admission import AdmissionPolicy, AdmissionQueue
from repro.service.arena import Arena, ArenaHandle, ArenaLeakError
from repro.service.batcher import DispatchQueue
from repro.service.request import (
    ResponseStatus,
    ScreenRequest,
    ScreenResponse,
    StageLatency,
)
from repro.service.service import (
    TRANSPORTS,
    ScreeningService,
    ServiceConfig,
)
from repro.service.worker import (
    EngineCache,
    ProcessTransport,
    ThreadTransport,
    WorkerPool,
    WorkerTransport,
    make_transport,
)

__all__ = [
    "AdmissionPolicy",
    "AdmissionQueue",
    "Arena",
    "ArenaHandle",
    "ArenaLeakError",
    "DispatchQueue",
    "EngineCache",
    "ProcessTransport",
    "ResponseStatus",
    "ScreenRequest",
    "ScreenResponse",
    "ScreeningService",
    "ServiceConfig",
    "StageLatency",
    "ThreadTransport",
    "TRANSPORTS",
    "WorkerPool",
    "WorkerTransport",
    "make_transport",
]
