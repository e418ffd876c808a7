"""Worker pool: pick up batches, solve them, fan results back out.

The last stage of the service pipeline.  Each free worker coroutine
picks up a batch from the dispatch queue -- the most urgent pending
request and its same-key mates (:mod:`repro.service.batcher`) -- and
hands its coalesced solve to the configured :class:`WorkerTransport`:

* :class:`ThreadTransport` runs ``measure_batch`` on a thread-pool
  executor in-process -- the original behavior, zero serialization
  cost, but batch formation and the solve's Python layers share one
  GIL.
* :class:`ProcessTransport` ships the batch to a long-lived worker
  *process* of the fleet :func:`~repro.service.procworker.process_pool`
  starts (the same pool constructor the sharded wafer engine uses):
  the request list travels through a shared-memory arena
  segment (:mod:`repro.service.arena`), the engine travels as a
  picklable :class:`~repro.core.engines.registry.EngineSpec` that the
  worker rehydrates through the per-process
  :func:`~repro.core.engines.registry.process_engine_cache`, and the
  sample populations come back through a result segment the parent
  laid out in advance.  Only specs and arena handles cross the
  boundary (the ``PKL`` lint rules enforce it); the measured
  serialize/deserialize cost is reported as the ``transport`` latency
  stage.

Failure semantics are *retry-once by decomposition* on either
transport: when a coalesced solve raises, the batch is split and every
member is retried as a singleton ``measure_batch`` call.  That is not
just damage control -- the stepper's convergence fallbacks (global
step bisection, the DC gmin ladder) are the one place where batch
composition can influence a corner's result, so a member that fails
inside a batch can legitimately succeed alone.  A singleton that still
raises is answered ``FAILED`` with the exception text; nothing
propagates out of the worker.

Deadlines are enforced by the watchdog timers armed at submission: a
request whose deadline fires mid-solve is answered ``EXPIRED``
immediately (the solve's late result is discarded on arrival, even
when a worker process is still computing it), so a slow or hung engine
can never turn a deadline into a hang.  Workers additionally shed
already-answered entries at pickup, *before* paying for their solve.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, List, Optional, Protocol, Sequence, Tuple

import numpy as np

from repro.core.engines.base import MeasurementRequest, MeasurementResult
from repro.core.engines.registry import EngineCache
from repro.service.arena import (
    Arena,
    ArenaHandle,
    BufferSpec,
    aligned,
    dump,
    ndarray_at,
)
from repro.service.batcher import DispatchQueue
from repro.service.procworker import (
    ResultRow,
    process_pool,
    run_scoped,
    solve_shipped,
)
from repro.service.request import (
    PendingEntry,
    ResponseStatus,
    ScreenResponse,
)
from repro.telemetry import get_telemetry

__all__ = [
    "EngineCache",
    "ProcessTransport",
    "ThreadTransport",
    "WorkerPool",
    "WorkerTransport",
    "make_transport",
]


class WorkerTransport(Protocol):
    """Where a picked-up batch's ``measure_batch`` actually runs.

    ``solve`` returns the per-entry results *plus* the transport's own
    serialize/deserialize seconds (zero for in-process backends), so
    the pool can itemize solve time and shipping cost separately.
    ``close`` releases the backend's executor and audits any resources
    it owns; it is called after the worker coroutines joined.
    """

    name: str

    async def solve(
        self, entries: Sequence[PendingEntry]
    ) -> Tuple[List[MeasurementResult], float]:
        """Run one coalesced solve for ``entries``."""
        ...

    async def close(self) -> None:
        """Shut the backend down (off-loop) and audit its resources."""
        ...


class ThreadTransport:
    """In-process solves on a thread-pool executor (the default)."""

    name = "thread"

    def __init__(self, *, num_workers: int):
        self._executor = ThreadPoolExecutor(
            max_workers=num_workers,
            thread_name_prefix="repro-service",
        )

    async def solve(
        self, entries: Sequence[PendingEntry]
    ) -> Tuple[List[MeasurementResult], float]:
        engine = entries[0].engine
        requests = [e.measurement for e in entries]
        loop = asyncio.get_running_loop()
        results = await loop.run_in_executor(
            self._executor, engine.measure_batch, requests
        )
        return results, 0.0

    async def close(self) -> None:
        # Joining worker threads can take a full solve; do it off-loop
        # so concurrent submitters see timely rejections (AIO002).
        await asyncio.to_thread(self._executor.shutdown, True)


class ProcessTransport:
    """Solves on long-lived worker processes via shared-memory arenas.

    The parent creates *both* segments of every round trip -- the
    request payload and the pre-laid-out result slots -- so segment
    create/unlink has exactly one owner and a drained service can
    prove nothing leaked.  Workers attach, solve, write, detach (see
    :mod:`repro.service.procworker`).

    The pool comes from :func:`~repro.service.procworker.process_pool`
    and lives as long as the service: ``fork`` where available, so
    specs for engines registered at runtime (tests, plugins) rehydrate
    without re-imports.
    """

    name = "process"

    def __init__(
        self,
        *,
        num_workers: int,
        clock: Callable[[], float],
        engine_cache_size: int,
    ):
        self._clock = clock
        self._arena = Arena(label="service-parent")
        self._pool = process_pool(num_workers, engine_cache_size)

    @property
    def arena(self) -> Arena:
        """The parent-side arena (exposed for drain audits and tests)."""
        return self._arena

    async def solve(
        self, entries: Sequence[PendingEntry]
    ) -> Tuple[List[MeasurementResult], float]:
        spec = entries[0].spec
        if spec is None:
            raise RuntimeError(
                "process transport dispatched an entry without an "
                "EngineSpec (enqueue should have rejected it)"
            )
        requests = [e.measurement for e in entries]
        loop = asyncio.get_running_loop()
        ship_start = self._clock()
        payload = dump(self._arena, requests)
        result_handle, slots = self._plan_result(requests)
        ship_s = self._clock() - ship_start
        try:
            rows, snapshot = await loop.run_in_executor(
                self._pool, run_scoped, solve_shipped,
                spec, payload, result_handle, slots,
            )
            recv_start = self._clock()
            results = self._collect(rows, result_handle, slots)
            get_telemetry().merge(snapshot)
            transport_s = ship_s + (self._clock() - recv_start)
        finally:
            self._arena.release(payload.handle)
            self._arena.release(result_handle)
        return results, transport_s

    def _plan_result(
        self, requests: Sequence[MeasurementRequest]
    ) -> Tuple[ArenaHandle, Tuple[Optional[BufferSpec], ...]]:
        """Lay out one float64 sample slot per Monte-Carlo request.

        The parent knows every request's ``num_samples``, so it can
        pre-size the result segment exactly; scalar requests get no
        slot (their ``delta_t`` rides in the pipe-sized result row).
        """
        slots: List[Optional[BufferSpec]] = []
        cursor = 0
        for request in requests:
            n = request.num_samples or 0
            if n:
                slots.append(BufferSpec(
                    offset=cursor, nbytes=8 * n,
                    dtype="float64", shape=(n,),
                ))
                cursor += aligned(8 * n)
            else:
                slots.append(None)
        return self._arena.create(cursor), tuple(slots)

    def _collect(
        self,
        rows: Sequence[ResultRow],
        result_handle: ArenaHandle,
        slots: Tuple[Optional[BufferSpec], ...],
    ) -> List[MeasurementResult]:
        buf = self._arena.buffer(result_handle)
        try:
            results: List[MeasurementResult] = []
            for row, slot in zip(rows, slots):
                samples = row.inline_samples
                if row.in_arena and slot is not None:
                    # Copy out: the result outlives the segment, which
                    # is unlinked as soon as this solve returns.
                    samples = np.array(ndarray_at(buf, slot))
                results.append(MeasurementResult(
                    delta_t=row.delta_t,
                    engine=row.engine,
                    vdd=row.vdd,
                    m=row.m,
                    seed=row.seed,
                    samples=samples,
                    tags=row.tags,
                ))
            return results
        finally:
            del buf

    async def close(self) -> None:
        """Join the worker processes, then audit the arena for leaks.

        Raises :class:`~repro.service.arena.ArenaLeakError` when any
        segment survived its solve -- graceful drain *verifies* every
        segment was unlinked rather than hoping.
        """
        await asyncio.to_thread(self._pool.shutdown, True)
        self._arena.drain()


def make_transport(
    kind: str,
    *,
    num_workers: int,
    clock: Callable[[], float],
    engine_cache_size: int,
) -> WorkerTransport:
    """Build the transport for a resolved (non-``auto``) kind."""
    if kind == "thread":
        return ThreadTransport(num_workers=num_workers)
    if kind == "process":
        return ProcessTransport(
            num_workers=num_workers,
            clock=clock,
            engine_cache_size=engine_cache_size,
        )
    raise ValueError(f"unknown transport kind {kind!r}")


class WorkerPool:
    """N worker coroutines draining the dispatch queue until closed."""

    def __init__(
        self,
        dispatch: DispatchQueue,
        transport: WorkerTransport,
        *,
        num_workers: int,
        clock: Callable[[], float],
    ):
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self._dispatch = dispatch
        self._transport = transport
        self.num_workers = num_workers
        self._clock = clock
        self._tasks: List["asyncio.Task[None]"] = []

    def start(self) -> None:
        loop = asyncio.get_running_loop()
        self._tasks = [
            loop.create_task(self._worker(), name=f"repro-service-worker-{i}")
            for i in range(self.num_workers)
        ]

    async def join(self) -> None:
        if self._tasks:
            await asyncio.gather(*self._tasks)
            self._tasks = []

    # ------------------------------------------------------------------
    async def _worker(self) -> None:
        while True:
            batch = await self._dispatch.get()
            if batch is None:
                return
            await self._execute(batch)

    async def _solve(
        self, entries: Sequence[PendingEntry]
    ) -> Tuple[List[MeasurementResult], float]:
        for entry in entries:
            entry.attempts += 1
        return await self._transport.solve(entries)

    async def _execute(self, live: List[PendingEntry]) -> None:
        """Solve one picked-up batch (every entry still unanswered)."""
        tele = get_telemetry()
        now = self._clock()
        for entry in live:
            entry.solve_started_at = now
        tele.incr("service.batches")
        tele.observe("service.batch_occupancy", len(live))
        # How many exact-key groups this (possibly family-keyed) batch
        # spans: >1 means the coalescing the exact key alone would miss.
        span = len({e.exact_key for e in live if e.exact_key is not None})
        tele.observe("service.family_span", max(span, 1))
        if len(live) > 1:
            tele.incr("service.coalesced", len(live))
        solve_start = now
        try:
            results, transport_s = await self._solve(live)
        except Exception:
            # Retry-once by decomposition: a fresh singleton solve per
            # member; batch-composition-dependent failures recover here.
            tele.incr("service.batch_retries")
            for entry in live:
                try:
                    singleton, single_t = await self._solve([entry])
                except Exception as exc:
                    self._fail(entry, exc, batch_size=1)
                else:
                    elapsed = self._clock() - solve_start
                    self._deliver(
                        entry, singleton[0], batch_size=1,
                        solve_s=max(elapsed - single_t, 0.0),
                        transport_s=single_t,
                    )
                    if single_t:
                        tele.observe("service.transport_s", single_t)
            return
        elapsed = self._clock() - solve_start
        solve_s = max(elapsed - transport_s, 0.0)
        for entry, result in zip(live, results):
            self._deliver(
                entry, result, batch_size=len(live),
                solve_s=solve_s, transport_s=transport_s,
            )
        tele.observe("service.solve_s", solve_s)
        if transport_s:
            tele.observe("service.transport_s", transport_s)
        tele.observe(
            "service.post_s", self._clock() - solve_start - elapsed
        )

    # ------------------------------------------------------------------
    def _deliver(
        self,
        entry: PendingEntry,
        result: MeasurementResult,
        *,
        batch_size: int,
        solve_s: float,
        transport_s: float = 0.0,
    ) -> None:
        now = self._clock()
        latency = entry.stage_latency(
            now, solve_s=solve_s,
            post_s=max(
                now - entry.solve_started_at - solve_s - transport_s, 0.0
            ),
            transport_s=transport_s,
        )
        response = ScreenResponse(
            status=ResponseStatus.OK,
            request=entry.request,
            delta_t=result.delta_t,
            samples=result.samples,
            engine=result.engine,
            vdd=result.vdd,
            batch_size=batch_size,
            attempts=entry.attempts,
            latency=latency,
        )
        if entry.finish(response):
            tele = get_telemetry()
            tele.incr("service.completed")
            if latency.cascade_stage:
                tele.incr(f"service.cascade.{latency.cascade_stage}")
            tele.observe("service.queue_wait_s", latency.queue_wait_s)
            tele.observe("service.batch_form_s", latency.batch_form_s)
            tele.observe("service.total_s", latency.total_s)
        # else: the deadline watchdog answered first; the late result
        # is discarded (already accounted as expired).

    def _fail(
        self, entry: PendingEntry, exc: Exception, *, batch_size: int
    ) -> None:
        now = self._clock()
        response = ScreenResponse(
            status=ResponseStatus.FAILED,
            request=entry.request,
            batch_size=batch_size,
            attempts=entry.attempts,
            reason=f"{type(exc).__name__}: {exc}",
            latency=entry.stage_latency(now),
        )
        if entry.finish(response):
            tele = get_telemetry()
            tele.incr("service.failed")
            tele.observe("service.total_s", response.latency.total_s)
