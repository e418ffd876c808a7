"""Typed request/response envelope of the screening service.

A :class:`ScreenRequest` is one online DeltaT measurement order -- the
die parameters (TSV under test, segment count M, measurement seed,
process-variation model), the voltage plan entry to measure at, and the
service-level scheduling fields (deadline, priority, engine override).
Every request is answered by exactly one :class:`ScreenResponse`, which
carries either the measurement or a structured terminal status
(rejected / expired / failed) plus the per-stage latency breakdown.
"""

from __future__ import annotations

import asyncio
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Optional

import numpy as np

from repro.core.engines.base import (
    Engine,
    MeasurementRequest,
    StopTimePolicy,
)
from repro.core.engines.registry import EngineLike, EngineSpec
from repro.core.tsv import Tsv
from repro.spice.montecarlo import ProcessVariation

__all__ = [
    "ResponseStatus",
    "ScreenRequest",
    "ScreenResponse",
    "StageLatency",
]


class ResponseStatus(str, Enum):
    """Terminal state of a screening request."""

    OK = "ok"
    #: Load-shed at admission (queue full) or service closed.
    REJECTED = "rejected"
    #: Deadline passed before a result was produced.
    EXPIRED = "expired"
    #: The solve raised after exhausting retry-once semantics.
    FAILED = "failed"


@dataclass
class ScreenRequest:
    """One online DeltaT measurement order.

    Attributes:
        tsv: The TSV under test.
        m: Segments carrying copies of ``tsv`` (paper's M).
        vdd: Supply to measure at; ``None`` keeps the engine's default.
        seed: Measurement-noise seed (same-die mismatch replay).
        variation: Process-variation model; ``None`` measures nominal.
        num_samples: ``None`` for one scalar measurement, else the Monte
            Carlo sample count.  The default (1) is the production
            screening draw -- and the coalescible path.
        engine: Per-request engine override (registry name, spec, or
            instance); ``None`` uses the service's configured engine.
        deadline_s: Answer-by budget in seconds, relative to submission;
            ``None`` means no deadline.  A request whose deadline passes
            is answered :attr:`ResponseStatus.EXPIRED` -- never left
            hanging -- even while its solve is still running.
        priority: Scheduling class; *lower* runs first (0 = most
            urgent).  Earliest deadline breaks ties within a class.
        stop_policy: Per-request transient-window override.
        tags: Free-form labels carried through to the response.
    """

    tsv: Tsv
    m: int = 1
    vdd: Optional[float] = None
    seed: int = 0
    variation: Optional[ProcessVariation] = None
    num_samples: Optional[int] = 1
    engine: Optional[EngineLike] = None
    deadline_s: Optional[float] = None
    priority: int = 0
    stop_policy: Optional[StopTimePolicy] = None
    tags: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if self.num_samples is not None and self.num_samples < 1:
            raise ValueError("num_samples must be None or >= 1")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError("deadline_s must be positive when given")

    def to_measurement(self) -> MeasurementRequest:
        """The engine-agnostic measurement order this request maps to."""
        return MeasurementRequest(
            tsv=self.tsv,
            m=self.m,
            vdd=self.vdd,
            seed=self.seed,
            variation=self.variation,
            num_samples=self.num_samples,
            stop_policy=self.stop_policy,
            tags=dict(self.tags),
        )


@dataclass
class StageLatency:
    """Where one request's wall time went, stage by stage.

    ``queue_wait_s`` covers admission (including backpressure blocking)
    until the request joined the pending queue; ``batch_form_s`` is the
    time it spent pending there until a worker picked it up and its
    solve started; ``solve_s`` is the
    shared engine solve of the request's batch; ``transport_s`` the
    serialize/deserialize cost of shipping the batch to its worker
    (zero on the in-process thread transport); ``post_s`` the result
    fan-out.  ``total_s`` is submit-to-response and includes whatever
    the stages do not itemize.
    """

    queue_wait_s: float = 0.0
    batch_form_s: float = 0.0
    solve_s: float = 0.0
    transport_s: float = 0.0
    post_s: float = 0.0
    total_s: float = 0.0
    #: Which cascade fidelity stage issued this request (the
    #: ``cascade_stage`` request tag; empty for non-cascade traffic).
    cascade_stage: str = ""


@dataclass
class ScreenResponse:
    """The one answer every :class:`ScreenRequest` gets.

    ``delta_t`` is NaN unless :attr:`status` is OK (and may be NaN even
    then, marking a stuck oscillator -- a *measurement*, not an error).
    ``batch_size`` reports how many requests shared this response's
    solve (1 = no coalescing); ``attempts`` how many solve attempts the
    request consumed (2 = answered by the retry-once fallback).
    """

    status: ResponseStatus
    request: ScreenRequest
    delta_t: float = math.nan
    samples: Optional[np.ndarray] = None
    engine: str = ""
    vdd: float = math.nan
    batch_size: int = 0
    attempts: int = 0
    reason: str = ""
    latency: StageLatency = field(default_factory=StageLatency)

    @property
    def ok(self) -> bool:
        return self.status is ResponseStatus.OK


@dataclass
class PendingEntry:
    """Service-internal state of one in-flight request.

    Not part of the public surface: created at admission, pending in
    the dispatch queue until a worker picks it up, and completed
    exactly once (whoever resolves the future first wins -- the
    deadline watchdog races the solve by design).
    """

    seq: int
    request: ScreenRequest
    measurement: MeasurementRequest
    engine: Engine
    key: str
    future: "asyncio.Future[ScreenResponse]"
    submitted_at: float
    deadline_at: float  # math.inf when the request has no deadline
    #: Exact batch key (engine fingerprint incl. circuit content); kept
    #: alongside ``key`` -- which may be the coarser family key -- so
    #: workers can report how many exact groups a picked-up batch spans.
    exact_key: Optional[str] = None
    #: Picklable recipe of ``engine``; set at admission when the service
    #: runs the process transport (which ships specs, never engines).
    spec: Optional["EngineSpec"] = None
    joined_at: float = 0.0
    solve_started_at: float = 0.0
    attempts: int = 0
    watchdog: Optional[asyncio.TimerHandle] = None

    def stage_latency(
        self,
        now: float,
        solve_s: float = 0.0,
        post_s: float = 0.0,
        transport_s: float = 0.0,
    ) -> StageLatency:
        """Latency breakdown as of ``now`` (unreached stages read zero)."""
        joined = self.joined_at or now
        solve_started = self.solve_started_at or joined
        return StageLatency(
            queue_wait_s=max(joined - self.submitted_at, 0.0),
            batch_form_s=max(solve_started - joined, 0.0),
            solve_s=solve_s,
            transport_s=transport_s,
            post_s=post_s,
            total_s=max(now - self.submitted_at, 0.0),
            cascade_stage=self.request.tags.get("cascade_stage", ""),
        )

    def finish(self, response: ScreenResponse) -> bool:
        """Complete the request; False when something else already did."""
        if self.future.done():
            return False
        if self.watchdog is not None:
            self.watchdog.cancel()
            self.watchdog = None
        self.future.set_result(response)
        return True
