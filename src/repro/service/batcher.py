"""Batch at pickup: the service's one queue of pending requests.

Every admitted request waits here until a worker is free.  A free worker
takes the most urgent pending entry and, with it, every other pending
entry that shares its coalescing key -- the engine-computed
compatibility key: under the default ``"family"`` coalescing policy the
coarse topology-family key (engine parameters + effective supply -- see
:meth:`repro.core.engines.base.Engine.family_key`), under ``"exact"``
the full batch key with the circuit fingerprint included
(:meth:`~repro.core.engines.base.Engine.batch_key`).  Family batches may
span several exact keys; the engine re-partitions and ragged-packs them
inside ``measure_batch``.

A batch therefore forms when a worker can run it, not when a timer
fires: while every worker is busy, compatible requests accumulate and
the next pickup takes them all (up to ``max_batch_size``); an idle
service answers a lone request without waiting for partners.

Urgency is (priority class, earliest deadline, arrival order): lower
priority classes run first, earliest deadline within a class.  The same
order picks which same-key entries fill a capped batch.
"""

from __future__ import annotations

import asyncio
import heapq
import math
from typing import Callable, List, Optional, Tuple

from repro.service.request import PendingEntry

__all__ = ["DispatchQueue"]

#: Heap item: (priority, deadline_at, arrival seq, entry or close sentinel).
_Item = Tuple[float, float, int, Optional[PendingEntry]]


class DispatchQueue:
    """Urgency-ordered pending entries; workers pick up whole batches.

    ``close(n)`` enqueues ``n`` sentinels that sort after every real
    entry, so workers drain all useful work before exiting.  Entries
    answered while pending (expired, or rejected by an abrupt close)
    are dropped at pickup, before they cost a solve.
    """

    def __init__(self, max_batch_size: int, clock: Callable[[], float]):
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        self.max_batch_size = max_batch_size
        self._clock = clock
        self._heap: List[_Item] = []
        self._not_empty = asyncio.Event()
        self._seq = 0

    def __len__(self) -> int:
        return len(self._heap)

    def put(self, entry: PendingEntry) -> None:
        """Make ``entry`` pending; stamps its ``joined_at``."""
        entry.joined_at = self._clock()
        self._push(float(entry.request.priority), entry.deadline_at, entry)

    def close(self, num_workers: int) -> None:
        for _ in range(num_workers):
            self._push(math.inf, math.inf, None)

    def _push(
        self, priority: float, deadline_at: float,
        entry: Optional[PendingEntry],
    ) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (priority, deadline_at, self._seq, entry))
        self._not_empty.set()

    async def get(self) -> Optional[List[PendingEntry]]:
        """The next batch; None when a close sentinel is drawn.

        The batch is the most urgent live entry plus every other live
        pending entry with the same key, in urgency order, up to
        ``max_batch_size``.
        """
        while True:
            while self._heap:
                head = heapq.heappop(self._heap)[3]
                if head is None:
                    return None
                if not head.future.done():
                    return self._with_mates(head)
            self._not_empty.clear()
            await self._not_empty.wait()

    def _with_mates(self, head: PendingEntry) -> List[PendingEntry]:
        """``head`` plus its pending same-key mates, most urgent first."""
        batch = [head]
        rest: List[_Item] = []
        for item in sorted(self._heap):
            entry = item[3]
            if entry is not None and entry.future.done():
                continue
            if (entry is not None and entry.key == head.key
                    and len(batch) < self.max_batch_size):
                batch.append(entry)
            else:
                rest.append(item)
        self._heap = rest  # sorted, hence already a heap
        return batch
