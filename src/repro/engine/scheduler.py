"""Generator-process scheduler.

A *process* is a Python generator. The protocol has two yield forms:

``granted = yield t`` (``t`` an ``int``)
    Reschedule me at absolute cycle ``t``; I will touch shared state only
    after resuming. The scheduler resumes the globally earliest process
    first, so shared-state operations happen in nondecreasing simulated
    time. ``granted`` is the resume time (always ``t``).

``granted = yield BLOCK``
    Park me; some other process will call :meth:`Scheduler.wake` with a
    wake-up time, which becomes ``granted``.

Returning from the generator ends the process; exit callbacks registered
with :meth:`Process.on_exit` run at the process's final time (used for
thread join).

Processes wait in a calendar :class:`~repro.engine.events.EventQueue`
(one FIFO bucket per simulated time). :meth:`Scheduler.run` drains it a
bucket at a time: one heap pop per distinct time, one ``popleft`` per
resumption, and a ``dict.get`` plus ``append`` to file a process that
reschedules. A process that reschedules strictly before everything
queued is resumed directly, without touching the queue.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Generator

from repro.engine.events import EventQueue
from repro.errors import DeadlockError, SimulationError

#: Sentinel yielded by a process that parks itself until woken.
BLOCK = object()

#: Internal sentinel: a process's generator raised ``StopIteration``.
_FINISHED = object()

ProcessBody = Generator[Any, int, None]


class Process:
    """A schedulable generator with bookkeeping for joins and accounting."""

    __slots__ = ("pid", "name", "gen", "send", "time", "done", "blocked",
                 "started", "_exit_callbacks")

    def __init__(self, pid: int, gen: ProcessBody, name: str = "") -> None:
        self.pid = pid
        self.name = name or f"process-{pid}"
        self.gen = gen
        #: ``gen.send``, bound once rather than on every resumption.
        self.send = gen.send
        #: The process's local clock: last known simulated time.
        self.time = 0
        self.done = False
        self.blocked = False
        self.started = False
        self._exit_callbacks: list[Callable[[int], None]] = []

    def on_exit(self, callback: Callable[[int], None]) -> None:
        """Run *callback(final_time)* when the process finishes."""
        if self.done:
            callback(self.time)
        else:
            self._exit_callbacks.append(callback)

    def _finish(self) -> None:
        self.done = True
        callbacks, self._exit_callbacks = self._exit_callbacks, []
        for callback in callbacks:
            callback(self.time)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.done else ("blocked" if self.blocked else "ready")
        return f"<Process {self.name} t={self.time} {state}>"


class Scheduler:
    """Runs processes in global simulated-time order until quiescence."""

    def __init__(self) -> None:
        self.queue = EventQueue()
        self.now = 0
        self._next_pid = 0
        self._n_live = 0
        self._n_parked = 0
        self._parked_processes: set[Process] = set()
        #: Total process resumptions (the engine's unit of host work).
        self.steps = 0
        #: Optional telemetry hook ``probe(queue_depth, now)`` called once
        #: per resumption; ``None`` (the default) costs one branch.
        self.probe: Callable[[int, int], None] | None = None

    # ------------------------------------------------------------------
    # Process lifecycle
    # ------------------------------------------------------------------
    def spawn(self, gen: ProcessBody, start_time: int | None = None,
              name: str = "") -> Process:
        """Create a process from *gen* and schedule its first step."""
        process = Process(self._next_pid, gen, name)
        self._next_pid += 1
        process.time = self.now if start_time is None else start_time
        if process.time < self.now:
            raise SimulationError(
                f"cannot spawn {process.name} in the past "
                f"(t={process.time} < now={self.now})"
            )
        self._n_live += 1
        self.queue.push(process.time, process)
        return process

    def wake(self, process: Process, time: int) -> None:
        """Unpark *process* and schedule it at *time*."""
        if not process.blocked:
            raise SimulationError(f"{process.name} is not blocked")
        if time < self.now:
            raise SimulationError(
                f"cannot wake {process.name} in the past (t={time} < {self.now})"
            )
        process.blocked = False
        process.time = time
        self._n_parked -= 1
        self._parked_processes.discard(process)
        self.queue.push(time, process)

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self, until: int | None = None) -> int:
        """Run until no runnable process remains (or past *until* cycles).

        Returns the final simulated time. Raises :class:`DeadlockError`
        if live processes remain parked with nothing left to wake them.
        """
        queue = self.queue
        buckets = queue._buckets
        times = queue._times
        probe = self.probe  # hoisted: attach probes before run(), not during
        steps = 0
        # Calendar drain, with :meth:`EventQueue.pop`/``push`` and the
        # process step inlined — one Python frame per resumption is
        # measurable at the millions-of-events scale (see
        # docs/performance.md). Each outer iteration serves one time
        # bucket; each inner iteration one process. The queue invariant
        # (every heap time has a non-empty bucket) holds at every
        # resumption, so processes may push, spawn and wake freely.
        try:
            while times:
                bucket_time = times[0]
                if until is not None and bucket_time > until:
                    self.now = until
                    return until
                if bucket_time < self.now:
                    raise SimulationError(
                        f"time went backwards: {bucket_time} < {self.now}"
                    )
                bucket = buckets[bucket_time]
                popleft = bucket.popleft
                self.now = bucket_time
                while bucket:
                    process = popleft()
                    queue.n -= 1
                    if not bucket:
                        # Last one out: later pushes at this cycle open
                        # a fresh bucket behind it.
                        del buckets[bucket_time]
                        heappop(times)
                    # process.time already holds bucket_time: every
                    # push (spawn, wake, the reschedule below) sets it.
                    time = bucket_time
                    send = process.send
                    if process.started:
                        value = time
                    else:
                        process.started = True
                        value = None  # first resume: next(gen) == send(None)
                    while True:
                        try:
                            request = send(value)
                        except StopIteration:
                            request = _FINISHED
                        steps += 1
                        if probe is not None:
                            probe(queue.n, time)
                        if isinstance(request, int):
                            if request < time:
                                raise SimulationError(
                                    f"{process.name} rescheduled into the "
                                    f"past ({request} < {time})"
                                )
                            process.time = request
                            # Fast path: the process rescheduled itself
                            # strictly before every queued event (it would
                            # pop next anyway), so resume it directly.
                            # Ties must go through the queue — FIFO order
                            # says earlier-pushed events run first — and
                            # so must anything past the `until` horizon.
                            if (times and request >= times[0]) or \
                                    (until is not None and request > until):
                                later = buckets.get(request)
                                if later is None:
                                    buckets[request] = deque((process,))
                                    heappush(times, request)
                                else:
                                    later.append(process)
                                queue.n += 1
                                break
                            if request != time:
                                time = request
                                self.now = request
                            value = request
                            continue
                        if request is _FINISHED:
                            self._n_live -= 1
                            process._finish()
                            break
                        if request is BLOCK:
                            process.blocked = True
                            self._n_parked += 1
                            self._parked_processes.add(process)
                            break
                        raise SimulationError(
                            f"{process.name} yielded {request!r}; "
                            f"expected int time or BLOCK"
                        )
        finally:
            self.steps += steps
        if self._n_parked and self._n_live:
            names = sorted(p.name for p in self._parked_processes)
            shown = ", ".join(names[:8])
            if len(names) > 8:
                shown += f", ... (+{len(names) - 8} more)"
            raise DeadlockError(
                f"{self._n_parked} process(es) blocked with no runnable "
                f"work at t={self.now}: {shown}"
            )
        return self.now

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_live(self) -> int:
        """Processes spawned and not yet finished."""
        return self._n_live

    @property
    def n_parked(self) -> int:
        """Processes currently blocked."""
        return self._n_parked
