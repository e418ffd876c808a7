"""Admission control: the bound on the backlog, backpressure, shedding.

The first stage of the service pipeline: every submitted request is
admitted here (or turned away here), so this is where overload policy
lives.  Two policies:

* ``BLOCK`` -- ``admit`` awaits until the backlog has room
  (backpressure: closed-loop producers slow down to the service's
  pace);
* ``SHED`` -- a full backlog turns the request away immediately and the
  caller answers it with a structured ``REJECTED`` response (open-loop
  producers cannot be slowed, so excess load must be dropped at the
  door before it costs a solve).

``max_depth`` bounds the service's *standing backlog*: an admitted
request holds its slot until its response future resolves (the slot
releases via a done-callback attached at ``admit``), whether it is
still pending in the :class:`~repro.service.batcher.DispatchQueue` or
already solving.  Admission holds no requests itself -- an admitted
entry goes straight to the dispatch queue.

The wait uses an ``asyncio.Event`` rather than a semaphore so that
``close`` can wake every blocked producer at once.  All mutation happens
on the event loop thread; the wait loop re-checks its condition after
every wake, so spurious wakeups are harmless.
"""

from __future__ import annotations

import asyncio
from enum import Enum
from typing import Union

from repro.service.request import PendingEntry

__all__ = ["AdmissionPolicy", "AdmissionQueue"]


class AdmissionPolicy(Enum):
    """What a full backlog does to the next request."""

    BLOCK = "block"
    SHED = "shed"

    @classmethod
    def coerce(cls, value: Union["AdmissionPolicy", str]) -> "AdmissionPolicy":
        if isinstance(value, cls):
            return value
        return cls(str(value).lower())


class AdmissionQueue:
    """Counts admitted-but-unanswered requests against a bound."""

    def __init__(self, max_depth: int, policy: AdmissionPolicy):
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        self.max_depth = max_depth
        self.policy = policy
        self._space = asyncio.Event()
        self._closed = False
        #: Admitted-but-unanswered requests (the bounded quantity).
        self._in_flight = 0

    @property
    def in_flight(self) -> int:
        return self._in_flight

    @property
    def closed(self) -> bool:
        return self._closed

    async def admit(self, entry: PendingEntry) -> bool:
        """Count ``entry`` in; False when shed or closed.

        Under ``BLOCK`` this awaits space (and still returns False if
        admission closes while waiting); under ``SHED`` a full backlog
        answers False immediately.
        """
        while True:
            if self._closed:
                return False
            if self._in_flight < self.max_depth:
                self._in_flight += 1
                entry.future.add_done_callback(self._release)
                return True
            if self.policy is AdmissionPolicy.SHED:
                return False
            self._space.clear()
            await self._space.wait()

    def _release(self, _future: object) -> None:
        """An admitted request was answered; its slot frees up."""
        self._in_flight -= 1
        self._space.set()

    def close(self) -> None:
        """Stop admitting; wakes every blocked producer."""
        self._closed = True
        self._space.set()
