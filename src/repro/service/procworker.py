"""The process-worker fleet: the one way this package runs worker processes.

Both fan-out sites -- the sharded wafer engine (one pool per
``screen()`` call) and the service's process transport (one pool per
service) -- start their workers with :func:`process_pool`, the only
``ProcessPoolExecutor`` constructor in the package, and submit every
task as ``run_scoped(fn, *args)``: the task runs under a fresh
:class:`~repro.telemetry.Telemetry` and returns its value with the
registry's snapshot, which the parent merges.  Only picklable
descriptors travel (an :class:`~repro.core.engines.registry.EngineSpec`
plus arena handles, or the wafer engine's flow recipe -- the ``PKL``
lint rules hold that boundary), and engines rehydrate through
:func:`~repro.core.engines.registry.process_engine_cache`, so repeated
tasks for one recipe reuse one warm engine per process.

The rest is the process transport's task, :func:`solve_shipped`, and
its lazily built attach-only :class:`~repro.service.arena.Arena`.
Workers never create or unlink segments (the parent owns segment
lifecycle; see :mod:`repro.service.arena`), and every attachment made
here is dropped before :func:`solve_shipped` returns, so a drained
service audits clean no matter how solves interleaved.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.core.engines.registry import (
    DEFAULT_ENGINE_CACHE_SIZE,
    EngineSpec,
    process_engine_cache,
)
from repro.service.arena import (
    Arena,
    ArenaHandle,
    BufferSpec,
    ShippedPayload,
    load,
    ndarray_at,
)
from repro.telemetry import Telemetry, use_telemetry

__all__ = [
    "ResultRow",
    "init_worker",
    "process_pool",
    "run_scoped",
    "solve_shipped",
    "worker_arena",
]

#: This process's attach-only arena; built on first use so pool workers
#: that never receive a batch pay nothing.
_WORKER_ARENA: Optional[Arena] = None


def worker_arena() -> Arena:
    """The per-process arena workers attach parent segments through."""
    global _WORKER_ARENA
    if _WORKER_ARENA is None:
        _WORKER_ARENA = Arena(label=f"worker-{os.getpid()}")
    return _WORKER_ARENA


def init_worker(engine_cache_size: int) -> None:
    """Pool initializer: apply the parent's engine-cache bound."""
    process_engine_cache(max_entries=engine_cache_size)


def process_pool(
    num_workers: int, engine_cache_size: int = DEFAULT_ENGINE_CACHE_SIZE
) -> ProcessPoolExecutor:
    """A pool of ``num_workers`` processes; submit ``run_scoped`` tasks.

    Prefers ``fork`` where the platform has it, so workers inherit the
    parent's engine registry (engines registered at runtime rehydrate
    without re-imports) and its current solve-cache scope.
    """
    methods = multiprocessing.get_all_start_methods()
    return ProcessPoolExecutor(
        max_workers=num_workers,
        mp_context=multiprocessing.get_context(
            "fork" if "fork" in methods else None
        ),
        initializer=init_worker,
        initargs=(engine_cache_size,),
    )


def run_scoped(
    fn: Callable[..., Any], *args: Any
) -> Tuple[Any, Dict[str, Dict[str, Any]]]:
    """Worker task entry: ``(fn(*args), snapshot)`` of a fresh registry."""
    tele = Telemetry()
    with use_telemetry(tele):
        value = fn(*args)
    return value, tele.snapshot()


class ResultRow(NamedTuple):
    """Pipe-sized summary of one solved request.

    The scalar fields mirror
    :class:`~repro.core.engines.base.MeasurementResult`; sample
    populations travel through the result arena (``in_arena``) and only
    fall back to ``inline_samples`` when an engine returned a
    population that does not fit the slot the parent laid out.
    """

    delta_t: float
    engine: str
    vdd: float
    m: int
    seed: int
    tags: Dict[str, str]
    in_arena: bool
    inline_samples: Optional[np.ndarray]


def solve_shipped(
    spec: EngineSpec,
    payload: ShippedPayload,
    result_handle: ArenaHandle,
    slots: Tuple[Optional[BufferSpec], ...],
) -> List[ResultRow]:
    """Solve one shipped batch inside a pool worker.

    Rehydrates the engine from ``spec`` via the process-wide cache,
    loads the request list out of the request segment, runs the
    coalesced ``measure_batch``, and writes each request's sample
    population into its pre-laid-out slot of the result segment.
    Returns the scalar result rows.  Submitted through
    :func:`run_scoped`, so its telemetry (``measure.*``, ``ragged.*``,
    and both segment attaches in ``arena.attached``) reaches the parent
    exactly like a wafer die's.
    """
    arena = worker_arena()
    requests = load(arena, payload, copy=True)
    engine = process_engine_cache().resolve(spec)
    results = engine.measure_batch(list(requests))
    rows: List[ResultRow] = []
    buf = arena.attach(result_handle)
    try:
        for result, slot in zip(results, slots):
            in_arena = False
            inline: Optional[np.ndarray] = None
            if result.samples is not None:
                samples = np.asarray(result.samples, dtype=float)
                if slot is not None and samples.shape == slot.shape:
                    ndarray_at(buf, slot)[:] = samples
                    in_arena = True
                else:
                    inline = samples
            rows.append(ResultRow(
                delta_t=result.delta_t,
                engine=result.engine,
                vdd=result.vdd,
                m=result.m,
                seed=result.seed,
                tags=result.tags,
                in_arena=in_arena,
                inline_samples=inline,
            ))
    finally:
        del buf
        arena.detach(result_handle)
    return rows
