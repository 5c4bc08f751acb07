"""EventQueue and Scheduler tests against reference models.

The calendar queue must be *observably identical* to a plain
``(time, seq)`` heap: same pop order (FIFO within a tie group), same
lengths, same peek times. The unit tests pin each case of the bucket
layout; the Hypothesis tests drive random interleavings of push,
push_front and pop against the pure-heap reference implementation, and
random process programs through :class:`Scheduler` and a
resume-by-resume reference scheduler.
"""

from heapq import heappop, heappush
from itertools import count

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.events import EventQueue, Waiter
from repro.engine.scheduler import BLOCK, Scheduler


class ReferenceQueue:
    """The obviously-correct implementation: one heap, no fast path."""

    def __init__(self) -> None:
        self._heap = []
        self._seq = count(1)

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, time, payload) -> None:
        heappush(self._heap, (time, next(self._seq), payload))

    def push_front(self, time, payload) -> None:
        # A negative sequence sorts ahead of every entry already queued
        # at *time*, including earlier front pushes.
        heappush(self._heap, (time, -next(self._seq), payload))

    def pop(self):
        time, _, payload = heappop(self._heap)
        return time, payload

    def peek_time(self):
        if not self._heap:
            raise IndexError("peek into an empty event queue")
        return self._heap[0][0]


# ---------------------------------------------------------------------------
# Unit tests: one per fast-path branch
# ---------------------------------------------------------------------------
def test_fifo_tie_breaking():
    queue = EventQueue()
    for i in range(5):
        queue.push(7, f"p{i}")
    assert [queue.pop() for _ in range(5)] == \
        [(7, f"p{i}") for i in range(5)]


def test_tie_group_drains_into_run_list():
    queue = EventQueue()
    for i in range(4):
        queue.push(3, i)
    queue.push(9, "later")
    # The tie group is one bucket: it pops in FIFO order, with the head
    # time tracking correctly throughout.
    assert queue.pop() == (3, 0)
    assert queue.peek_time() == 3
    assert queue.pop() == (3, 1)
    assert queue.pop() == (3, 2)
    assert queue.pop() == (3, 3)
    assert queue.peek_time() == 9
    assert queue.pop() == (9, "later")
    assert len(queue) == 0


def test_same_cycle_push_appends_behind_run_list():
    queue = EventQueue()
    queue.push(5, "a")
    queue.push(5, "b")
    queue.push(5, "c")
    assert queue.pop() == (5, "a")  # b, c stay in the bucket
    queue.push(5, "d")  # same-cycle push: behind the existing tie group
    assert queue.pop() == (5, "b")
    assert queue.pop() == (5, "c")
    assert queue.pop() == (5, "d")


def test_push_into_run_list_past_serves_heap_first():
    queue = EventQueue()
    queue.push(10, "x")
    queue.push(10, "y")
    assert queue.pop() == (10, "x")  # "y" is left in the head bucket
    queue.push(4, "early")  # earlier than the head bucket
    assert queue.peek_time() == 4
    assert queue.pop() == (4, "early")
    assert queue.peek_time() == 10
    assert queue.pop() == (10, "y")


def test_len_bool_and_empty_peek():
    queue = EventQueue()
    assert len(queue) == 0 and not queue
    with pytest.raises(IndexError):
        queue.peek_time()
    queue.push(1, "a")
    assert len(queue) == 1 and queue
    queue.pop()
    with pytest.raises(IndexError):
        queue.peek_time()


def test_next_time_tracks_earliest_push():
    queue = EventQueue()
    queue.push(8, "a")
    assert queue.peek_time() == 8
    queue.push(3, "b")
    assert queue.peek_time() == 3
    queue.push(5, "c")
    assert queue.peek_time() == 3
    assert [queue.pop() for _ in range(3)] == \
        [(3, "b"), (5, "c"), (8, "a")]


def test_drain_yields_sorted_fifo_order():
    queue = EventQueue()
    pushes = [(4, "a"), (1, "b"), (4, "c"), (1, "d"), (2, "e")]
    for time, payload in pushes:
        queue.push(time, payload)
    assert list(queue.drain()) == \
        [(1, "b"), (1, "d"), (2, "e"), (4, "a"), (4, "c")]


# ---------------------------------------------------------------------------
# Property test: any interleaving matches the reference heap
# ---------------------------------------------------------------------------
#: Ops: push at a small time (ties are the interesting case), or pop.
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("push"), st.integers(min_value=0, max_value=8)),
        st.tuples(st.just("pop"), st.just(0)),
    ),
    max_size=200,
)

#: _OPS plus front pushes and pushes a few cycles before the current head.
_GENERIC_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("push"), st.integers(min_value=0, max_value=8)),
        st.tuples(st.just("push_front"), st.integers(min_value=0,
                                                     max_value=8)),
        st.tuples(st.just("push_before_head"),
                  st.integers(min_value=0, max_value=3)),
        st.tuples(st.just("pop"), st.just(0)),
    ),
    max_size=200,
)


@settings(max_examples=200, deadline=None)
@given(ops=_GENERIC_OPS)
def test_matches_reference_heap(ops):
    fast = EventQueue()
    reference = ReferenceQueue()
    for serial, (op, time) in enumerate(ops):
        if op == "push_before_head":
            head = reference.peek_time() if len(reference) else 0
            fast.push(head - time, serial)
            reference.push(head - time, serial)
        elif op == "push":
            fast.push(time, serial)
            reference.push(time, serial)
        elif op == "push_front":
            fast.push_front(time, serial)
            reference.push_front(time, serial)
        elif len(reference):
            assert fast.pop() == reference.pop()
        assert len(fast) == fast.n == len(reference)
        if len(reference):
            assert fast.peek_time() == fast.next_time == \
                reference.peek_time()
    assert list(fast.drain()) == \
        [reference.pop() for _ in range(len(reference))]


@settings(max_examples=50, deadline=None)
@given(ops=_OPS)
def test_scheduler_like_interleaving_matches_reference(ops):
    """Monotone-time interleavings (what the scheduler actually does).

    Pushes land at ``now + delta`` for the last popped ``now``, so the
    head bucket is hot: most pushes hit the same-cycle append path.
    """
    fast = EventQueue()
    reference = ReferenceQueue()
    now = 0
    for serial, (op, delta) in enumerate(ops):
        if op == "push":
            fast.push(now + delta, serial)
            reference.push(now + delta, serial)
        elif len(reference):
            expected = reference.pop()
            assert fast.pop() == expected
            now = expected[0]
        assert len(fast) == len(reference)


# ---------------------------------------------------------------------------
# Scheduler differential: Scheduler vs a resume-by-resume reference
# ---------------------------------------------------------------------------
class _RefProcess:
    def __init__(self, pid, gen):
        self.pid = pid
        self.gen = gen
        self.started = False
        self.blocked = False


class ReferenceScheduler:
    """The obviously-correct scheduler: every resumption goes through
    :class:`ReferenceQueue` (no direct-resume fast path, no buckets)."""

    def __init__(self) -> None:
        self.queue = ReferenceQueue()
        self.now = 0
        self.stop = False
        self.steps = 0
        self.n_parked = 0
        self._next_pid = 0

    def spawn(self, gen, start_time=None, name=""):
        process = _RefProcess(self._next_pid, gen)
        self._next_pid += 1
        self.queue.push(self.now if start_time is None else start_time,
                        process)
        return process

    def wake(self, process, time, *, front=False):
        assert process.blocked and time >= self.now
        process.blocked = False
        self.n_parked -= 1
        if front:
            self.queue.push_front(time, process)
        else:
            self.queue.push(time, process)

    def run(self, until=None, *, allow_parked=False):
        queue = self.queue
        while len(queue):
            if self.stop:
                break
            if until is not None and queue.peek_time() > until:
                self.now = until
                break
            time, process = queue.pop()
            self.now = time
            value = time if process.started else None
            process.started = True
            try:
                request = process.gen.send(value)
            except StopIteration:
                request = None
            self.steps += 1
            if request is BLOCK:
                process.blocked = True
                self.n_parked += 1
            elif request is not None:
                assert request >= time
                queue.push(request, process)
        self.stop = False
        return self.now


class _Env:
    """What the random processes of one run share."""

    def __init__(self, sched) -> None:
        self.sched = sched
        self.log = []
        self.parked = []
        self.stopped = []


def _scripted(env, script, children, cell):
    """A process acting out *script* (see ``_PROGRAMS``)."""
    sched = env.sched
    env.log.append((sched.now, cell[0].pid))
    for action in script:
        kind = action[0]
        if kind == "delay":
            granted = yield sched.now + action[1]
        elif kind == "block":
            env.parked.append(cell[0])
            granted = yield BLOCK
        elif kind == "stop":
            sched.stop = True
            env.stopped.append(cell[0])
            granted = yield BLOCK
        elif kind == "wake":
            if env.parked:
                sched.wake(env.parked.pop(0), sched.now, front=action[1])
            continue
        else:  # spawn a child script, now or a little later
            _spawn(env, children[action[1]], children,
                   sched.now + action[2])
            continue
        env.log.append((granted, cell[0].pid))


def _spawn(env, script, children, start):
    cell = []
    cell.append(env.sched.spawn(_scripted(env, script, children, cell),
                                start_time=start))


def _drive(sched, program):
    """Run *program* to quiescence; the observations to compare."""
    env = _Env(sched)
    for start, script in zip(program["starts"], program["tops"]):
        _spawn(env, script, program["children"], start)
    observed = []
    for until in sorted(program["untils"]) + [None]:
        while True:
            now = sched.run(until=until, allow_parked=True)
            queue = sched.queue
            n = len(queue)
            observed.append((now, sched.now, n,
                             queue.peek_time() if n else None,
                             sched.steps, sched.n_parked,
                             tuple(env.log)))
            if not env.stopped:
                break
            # Resume the processes that stopped the window where a
            # parallel-DES domain would: at the current cycle, in front.
            for process in env.stopped:
                sched.wake(process, sched.now, front=True)
            env.stopped.clear()
    return observed


_ACTION = st.one_of(
    st.tuples(st.just("delay"), st.sampled_from([0, 0, 0, 1, 1, 2, 5])),
    st.just(("block",)),
    st.tuples(st.just("wake"), st.booleans()),
    st.just(("stop",)),
)

#: Top-level scripts may spawn children; children spawn nothing.
_PROGRAMS = st.fixed_dictionaries({
    "starts": st.lists(st.integers(min_value=0, max_value=3),
                       min_size=1, max_size=8),
    "tops": st.lists(
        st.lists(st.one_of(
            _ACTION,
            st.tuples(st.just("spawn"), st.integers(min_value=0,
                                                    max_value=3),
                      st.sampled_from([0, 0, 1, 3])),
        ), max_size=12),
        min_size=8, max_size=8),
    "children": st.lists(st.lists(_ACTION, max_size=6),
                         min_size=4, max_size=4),
    "untils": st.lists(st.integers(min_value=0, max_value=30),
                       max_size=3),
})


@settings(max_examples=300, deadline=None)
@given(program=_PROGRAMS)
def test_scheduler_matches_reference_scheduler(program):
    """Same resume sequence ``(time, pid)``, and the same ``now``,
    queue length, head time, step and parked counts after every
    :meth:`Scheduler.run` return, under ties, blocking and same-cycle
    wakes (front and back), mid-run spawns, ``until`` and ``stop``."""
    assert _drive(Scheduler(), program) == \
        _drive(ReferenceScheduler(), program)


# ---------------------------------------------------------------------------
# Waiter
# ---------------------------------------------------------------------------
def test_waiter_fifo():
    waiter = Waiter()
    for i in range(3):
        waiter.park(i)
    assert len(waiter) == 3
    assert waiter.wake_one() == 0
    assert waiter.wake_all() == [1, 2]
    assert waiter.wake_one() is None
    assert len(waiter) == 0
