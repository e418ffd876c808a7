"""Overload behavior: saturation, deadlines, shutdown, retry-once.

Under overload the service must *degrade structurally*: every request
still gets exactly one typed response -- REJECTED at a full queue,
EXPIRED at a blown deadline (promptly, even mid-solve), FAILED after
the retry budget -- and graceful shutdown answers everything already
admitted.  Batches form at pickup: a free worker takes the most urgent
pending request and its pending same-key mates.  Stub engines with controllable delay/failure keep these
tests independent of solver speed.
"""

import asyncio
import math
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import pytest

from repro.core.engines.base import (
    Engine,
    EngineCapabilities,
    MeasurementRequest,
    MeasurementResult,
)
from repro.core.segments import RingOscillatorConfig
from repro.core.tsv import Tsv
from repro.service import (
    AdmissionPolicy,
    ResponseStatus,
    ScreenRequest,
    ScreeningService,
    ServiceConfig,
)
from repro.telemetry import use_telemetry


@dataclass
class SleepyEngine(Engine):
    """Answers every request with a fixed value after a fixed delay."""

    engine_name = "sleepy"
    capabilities = EngineCapabilities(batched_requests=True)

    config: RingOscillatorConfig = field(
        default_factory=RingOscillatorConfig
    )
    delay_s: float = 0.0
    value: float = 1e-10

    def period(self, tsvs, enabled, sample=None):
        return self.value

    def delta_t(self, tsv, m=1, variation=None, seed=0):
        return self.value

    def batch_key(self, request: MeasurementRequest) -> Optional[str]:
        return "sleepy"

    def measure(self, request: MeasurementRequest) -> MeasurementResult:
        if self.delay_s:
            time.sleep(self.delay_s)
        return MeasurementResult(
            delta_t=self.value, engine=self.engine_name,
            vdd=self.config.vdd, m=request.m, seed=request.seed,
        )

    def measure_batch(
        self, requests: Sequence[MeasurementRequest]
    ) -> List[MeasurementResult]:
        if self.delay_s:
            time.sleep(self.delay_s)
        return [
            MeasurementResult(
                delta_t=self.value, engine=self.engine_name,
                vdd=self.config.vdd, m=r.m, seed=r.seed,
            )
            for r in requests
        ]


@dataclass
class FlakyEngine(SleepyEngine):
    """Raises on every coalesced (multi-request) solve; singletons work."""

    engine_name = "flaky"

    def measure_batch(
        self, requests: Sequence[MeasurementRequest]
    ) -> List[MeasurementResult]:
        if len(requests) > 1:
            raise RuntimeError("coalesced solve diverged")
        return super().measure_batch(requests)


@dataclass
class BrokenEngine(SleepyEngine):
    """Raises on every solve, coalesced or not."""

    engine_name = "broken"

    def measure_batch(self, requests):
        raise ValueError("no convergence at any composition")


@dataclass
class RecordingEngine(SleepyEngine):
    """Records each solve's seeds; a request's ``key`` tag is its key."""

    engine_name = "recording"
    solves: List[List[int]] = field(default_factory=list)

    def batch_key(self, request: MeasurementRequest) -> Optional[str]:
        return request.tags.get("key", "same")

    def measure_batch(
        self, requests: Sequence[MeasurementRequest]
    ) -> List[MeasurementResult]:
        self.solves.append([r.seed for r in requests])
        return super().measure_batch(requests)


def request(**kwargs) -> ScreenRequest:
    kwargs.setdefault("tsv", Tsv())
    return ScreenRequest(**kwargs)


class TestAdmissionOverload:
    def test_shed_policy_rejects_structurally(self):
        """A saturated queue sheds with typed responses, not exceptions."""
        engine = SleepyEngine(delay_s=0.05)

        async def scenario():
            with use_telemetry() as telemetry:
                async with ScreeningService(
                    engine=engine, admission="shed", max_queue_depth=2,
                    max_batch_size=2, num_workers=1,
                ) as service:
                    # Burst far past depth without yielding: whatever
                    # does not fit must shed at the door.
                    futures = [
                        await service.enqueue(request(seed=i))
                        for i in range(12)
                    ]
                    responses = await asyncio.gather(*futures)
                return responses, telemetry.snapshot()

        responses, snapshot = asyncio.run(scenario())
        statuses = [r.status for r in responses]
        assert statuses.count(ResponseStatus.REJECTED) >= 1
        assert statuses.count(ResponseStatus.OK) >= 2
        assert len(responses) == 12  # every request answered
        for r in responses:
            if r.status is ResponseStatus.REJECTED:
                assert "admission queue full" in r.reason
                assert math.isnan(r.delta_t)
        counters = snapshot["counters"]
        assert counters["service.rejected"] == statuses.count(
            ResponseStatus.REJECTED
        )

    def test_block_policy_admits_everything(self):
        """Backpressure: a blocking producer eventually gets all OKs."""
        engine = SleepyEngine(delay_s=0.001)

        async def scenario():
            async with ScreeningService(
                engine=engine, admission=AdmissionPolicy.BLOCK,
                max_queue_depth=2, num_workers=1,
            ) as service:
                return await service.submit_many(
                    [request(seed=i) for i in range(10)]
                )

        responses = asyncio.run(scenario())
        assert all(r.status is ResponseStatus.OK for r in responses)


class TestDeadlines:
    def test_deadline_expires_mid_solve_without_hanging(self):
        """A 50 ms deadline against a 500 ms solve answers in ~50 ms."""
        engine = SleepyEngine(delay_s=0.5)

        async def scenario():
            async with ScreeningService(
                engine=engine, num_workers=1,
            ) as service:
                start = time.monotonic()
                response = await service.submit(
                    request(deadline_s=0.05)
                )
                waited = time.monotonic() - start
            return response, waited

        response, waited = asyncio.run(scenario())
        assert response.status is ResponseStatus.EXPIRED
        assert "deadline" in response.reason
        # Answered at the deadline, not after the solve (0.5 s) -- the
        # generous bound absorbs CI scheduler noise.
        assert waited < 0.4

    def test_deadline_expires_while_queued(self):
        """Requests stuck behind a slow solve expire on time too."""
        engine = SleepyEngine(delay_s=0.3)

        async def scenario():
            async with ScreeningService(
                engine=engine, num_workers=1,
                max_batch_size=1,
            ) as service:
                first = await service.enqueue(request(seed=0))
                # Give the worker time to start solving the first
                # request so the second actually waits behind it.
                await asyncio.sleep(0.05)
                second = await service.enqueue(
                    request(seed=1, deadline_s=0.05)
                )
                return await asyncio.gather(first, second)

        first, second = asyncio.run(scenario())
        assert first.status is ResponseStatus.OK
        assert second.status is ResponseStatus.EXPIRED

    def test_generous_deadline_is_met(self):
        engine = SleepyEngine(delay_s=0.01)

        async def scenario():
            async with ScreeningService(
                engine=engine,
            ) as service:
                return await service.submit(request(deadline_s=5.0))

        response = asyncio.run(scenario())
        assert response.status is ResponseStatus.OK


class TestShutdown:
    def test_graceful_close_drains_in_flight_requests(self):
        engine = SleepyEngine(delay_s=0.02)

        async def scenario():
            service = ScreeningService(
                engine=engine, num_workers=1,
            )
            await service.start()
            futures = [
                await service.enqueue(request(seed=i)) for i in range(6)
            ]
            # Close immediately: the requests are still pending, so
            # drain must solve them before the workers exit.
            await service.close()
            return await asyncio.gather(*futures)

        responses = asyncio.run(scenario())
        assert all(r.status is ResponseStatus.OK for r in responses)

    def test_abrupt_close_answers_rejected(self):
        engine = SleepyEngine(delay_s=0.02)

        async def scenario():
            service = ScreeningService(
                engine=engine, num_workers=1,
            )
            await service.start()
            futures = [
                await service.enqueue(request(seed=i)) for i in range(4)
            ]
            await service.close(drain=False)
            return await asyncio.gather(*futures)

        responses = asyncio.run(scenario())
        assert all(r.status is ResponseStatus.REJECTED for r in responses)
        assert all("shutdown" in r.reason for r in responses)

    def test_submit_after_close_is_rejected(self):
        engine = SleepyEngine()

        async def scenario():
            service = ScreeningService(engine=engine)
            await service.start()
            await service.close()
            await service.start()  # reopen to prove close is not fatal
            ok = await service.submit(request(seed=0))
            await service.close()
            return ok

        response = asyncio.run(scenario())
        assert response.status is ResponseStatus.OK


class TestRetryOnce:
    def test_coalesced_failure_recovers_via_singleton_retry(self):
        engine = FlakyEngine()

        async def scenario():
            with use_telemetry() as telemetry:
                async with ScreeningService(
                    engine=engine, num_workers=1,
                ) as service:
                    responses = await service.submit_many(
                        [request(seed=i) for i in range(4)]
                    )
                return responses, telemetry.snapshot()

        responses, snapshot = asyncio.run(scenario())
        assert all(r.status is ResponseStatus.OK for r in responses)
        assert all(r.attempts == 2 for r in responses)
        assert all(r.batch_size == 1 for r in responses)
        assert snapshot["counters"]["service.batch_retries"] == 1

    def test_persistent_failure_is_answered_failed(self):
        engine = BrokenEngine()

        async def scenario():
            async with ScreeningService(
                engine=engine,
            ) as service:
                return await service.submit(request(seed=0))

        response = asyncio.run(scenario())
        assert response.status is ResponseStatus.FAILED
        assert "ValueError" in response.reason
        assert "no convergence" in response.reason
        assert response.attempts == 2


class TestPickupBatching:
    @staticmethod
    def _run(engine, arrivals, **config):
        """Occupy the one worker with seed 0, then enqueue ``arrivals``.

        Each arrival is (request, seconds to wait before enqueueing it);
        returns every response (seed 0's first) and the telemetry.
        """

        async def scenario():
            with use_telemetry() as telemetry:
                async with ScreeningService(
                    engine=engine, num_workers=1, **config
                ) as service:
                    futures = [await service.enqueue(
                        request(seed=0, tags={"key": "busy"})
                    )]
                    await asyncio.sleep(0.02)  # the worker picks it up
                    for pending, wait_s in arrivals:
                        await asyncio.sleep(wait_s)
                        futures.append(await service.enqueue(pending))
                    responses = await asyncio.gather(*futures)
                return responses, telemetry.snapshot()

        return asyncio.run(scenario())

    def test_requests_arriving_during_a_solve_share_the_next(self):
        """Four requests 20 ms apart behind a 0.2 s solve: one batch."""
        engine = RecordingEngine(delay_s=0.2)
        responses, snapshot = self._run(
            engine, [(request(seed=i), 0.02) for i in range(1, 5)]
        )
        assert all(r.ok for r in responses)
        assert [r.batch_size for r in responses] == [1, 4, 4, 4, 4]
        assert snapshot["counters"]["service.batches"] == 2
        assert engine.solves == [[0], [1, 2, 3, 4]]
        # The later arrivals waited pending, not in admission.
        assert all(r.latency.queue_wait_s < 0.01 for r in responses)
        assert responses[1].latency.batch_form_s > 0.1

    def test_priority_then_earliest_deadline(self):
        engine = RecordingEngine(delay_s=0.1)
        arrivals = [
            request(seed=1, priority=1, tags={"key": "a"}),
            request(seed=2, deadline_s=10.0, tags={"key": "b"}),
            request(seed=3, tags={"key": "c"}),
            request(seed=4, deadline_s=5.0, tags={"key": "d"}),
            request(seed=5, priority=1, deadline_s=1.0, tags={"key": "e"}),
        ]
        responses, _ = self._run(engine, [(r, 0.0) for r in arrivals])
        assert all(r.ok for r in responses)
        assert engine.solves == [[0], [4], [2], [3], [5], [1]]

    def test_mates_join_in_urgency_order_up_to_the_cap(self):
        engine = RecordingEngine(delay_s=0.1)
        arrivals = [
            request(seed=1),
            request(seed=2, tags={"key": "other"}),
            request(seed=3, deadline_s=5.0),
            request(seed=4),
            request(seed=5, deadline_s=9.0),
            request(seed=6, priority=1),
        ]
        responses, snapshot = self._run(
            engine, [(r, 0.0) for r in arrivals], max_batch_size=3
        )
        assert all(r.ok for r in responses)
        # Seed 3 is most urgent; its two most urgent mates join it.
        assert engine.solves == [[0], [3, 5, 1], [2], [4, 6]]
        assert max(r.batch_size for r in responses) == 3
        assert snapshot["histograms"]["service.batch_occupancy"]["max"] == 3

    @pytest.mark.parametrize("option", ["batch_window_s", "deadline_slack_s"])
    def test_no_batching_window_options(self, option):
        with pytest.raises(TypeError):
            ServiceConfig(**{option: 0.0})

    def test_cap_must_be_positive(self):
        async def scenario():
            async with ScreeningService(engine=SleepyEngine(),
                                        max_batch_size=0):
                pass

        with pytest.raises(ValueError, match="max_batch_size"):
            asyncio.run(scenario())
