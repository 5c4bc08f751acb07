"""Time-ordered event queue primitives.

:class:`EventQueue` is a **calendar queue**: a ``dict`` from simulated
time to a FIFO ``deque`` of the payloads due then (a *bucket*), plus a
heap of the distinct times that have a bucket. A push is a ``dict.get``
and an ``append`` (plus one ``heappush`` of a bare ``int`` when the time
is new); a pop is a ``popleft`` from the earliest bucket (plus one
``heappop`` when that bucket empties). Same-cycle events — the engine's
common case, where most resumptions land on a cycle that is already
queued — never touch the heap, and ties pop in push order by
construction.

:meth:`Scheduler.run <repro.engine.scheduler.Scheduler.run>` drains the
buckets itself (one heap pop per bucket, one ``popleft`` per process),
so the methods here serve set-up, wake-ups and generic clients.

:class:`Waiter` is a parking lot for processes blocked on a condition
(barrier arrival, thread join, lock release): it holds them outside the
scheduler queue until another process wakes them at an explicit time.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Any, Iterator


class EventQueue:
    """A calendar of ``(time, payload)`` events with FIFO tie-breaking.

    Invariant: ``_times`` holds exactly the keys of ``_buckets``, and
    every bucket is non-empty — a bucket is deleted (and its time popped
    from the heap) the moment its last payload leaves. So the earliest
    queued time is always ``_times[0]``, and a push at a time whose
    bucket just emptied starts a fresh bucket, still behind every
    payload popped before it.
    """

    __slots__ = ("n", "_buckets", "_times")

    def __init__(self) -> None:
        #: Number of queued events. A plain attribute so the scheduler's
        #: inner loop can test emptiness without a ``__bool__`` call.
        self.n = 0
        self._buckets: dict[int, deque[Any]] = {}
        self._times: list[int] = []

    def __len__(self) -> int:
        return self.n

    def __bool__(self) -> bool:
        return self.n > 0

    @property
    def next_time(self) -> int:
        """Earliest queued time (meaningless, 0, while the queue is empty)."""
        times = self._times
        return times[0] if times else 0

    def push(self, time: int, payload: Any) -> None:
        """Schedule *payload* at *time* (ties pop in push order)."""
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = deque((payload,))
            heappush(self._times, time)
        else:
            bucket.append(payload)
        self.n += 1

    def pop(self) -> tuple[int, Any]:
        """Remove and return the earliest ``(time, payload)``."""
        times = self._times
        if not times:
            raise IndexError("pop from an empty event queue")
        time = times[0]
        bucket = self._buckets[time]
        payload = bucket.popleft()
        if not bucket:
            del self._buckets[time]
            heappop(times)
        self.n -= 1
        return time, payload

    def peek_time(self) -> int:
        """Earliest scheduled time without removing it."""
        if self.n == 0:
            raise IndexError("peek into an empty event queue")
        return self._times[0]

    def drain(self) -> Iterator[tuple[int, Any]]:
        """Pop everything in time order (useful in tests)."""
        while self:
            yield self.pop()


class Waiter:
    """A FIFO parking lot for blocked processes.

    Processes park here while blocked; :meth:`wake_all` / :meth:`wake_one`
    hand them back to the caller (typically to be rescheduled at the
    waking time). The waiter itself is policy-free.
    """

    __slots__ = ("_parked",)

    def __init__(self) -> None:
        self._parked: deque[Any] = deque()

    def __len__(self) -> int:
        return len(self._parked)

    def park(self, process: Any) -> None:
        """Add *process* to the parking lot."""
        self._parked.append(process)

    def wake_all(self) -> list[Any]:
        """Remove and return every parked process in FIFO order."""
        woken = list(self._parked)
        self._parked.clear()
        return woken

    def wake_one(self) -> Any | None:
        """Remove and return the earliest-parked process, or ``None``."""
        if not self._parked:
            return None
        return self._parked.popleft()
