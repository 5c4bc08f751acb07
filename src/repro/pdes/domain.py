"""One parallel-DES domain: a slab of chips under the serial engine.

Each domain process rebuilds the whole system from the
:class:`~repro.pdes.program.CellProgram` (so addresses and link
timelines are replica-identical), then executes only its owned cells
under the conservative (Chandy-Misra-Bryant) null-message protocol:

* every in-channel ``c`` carries a *channel clock* — a promise that the
  sending domain will issue no further message with send time below it;
* the domain's **safe horizon** is ``min(clock[c]) + lookahead``: no
  unknown message can arrive before it;
* cross-domain messages ship at *send* time and are applied to the
  receiving mailbox once the horizon passes their *arrival* time.

The engine-level trick that makes this fast is **poll gating** rather
than horizon-bounded windows. Only a mailbox poll (a ``receive``) can
observe cross-domain state; pure-compute events cannot, however far
ahead they run. So a window runs *unbounded* until either the queue
drains or an *exposed* mailbox poll — one whose sender filter could
match a foreign cell — reaches a cycle the horizon does not yet
cover: the poll then stops the window (cooperatively, preserving
event order) and parks until the horizon passes it. Polls filtered to
a sender the domain itself owns never synchronize at all — no
cross-domain message can match them. Classic null-message creep —
lock-stepping every domain at ``lookahead``-sized steps through
compute phases — never happens; synchronization cost is paid only
where communication actually crosses the cut. The one exception:
while an exposed receiver is parked *waiting* for a message (its wake
time is some message's arrival), windows clamp to the horizon, since
an unknown arrival could be the earliest wake.

When a domain cannot advance it announces its own promise (the
earliest send it could still perform: next local event, earliest
gated poll, earliest unapplied arrival, or the horizon itself) and,
demand-driven, asks its upstream channels for theirs (``nullreq``).
Lookahead > 0 guarantees each request/response round strictly raises
the horizon, so even pathological cases terminate.

Determinism note: messages are applied in ``(arrival, send time,
sender, sequence)`` order and the mailbox *selects* deliverable
messages in that same order, so the receiver picks the message the
serial engine would have picked no matter how the transport interleaved
candidates.
"""

from __future__ import annotations

import os
import time as _time
import traceback
from heapq import heappop, heappush
from queue import Empty
from typing import Any

from repro.pdes.partition import PartitionMap
from repro.pdes.program import CellProgram
from repro.system.topology import Coord

#: Crash injection for tests: set to a domain id to make that domain
#: process die immediately (mirrors ``REPRO_JOBS_INJECT_CRASH``).
CRASH_ENV = "CYCLOPS_PDES_INJECT_CRASH"


def crash_injection_target() -> str | None:
    """The domain id selected for crash injection, or ``None``."""
    return os.environ.get(CRASH_ENV)


#: "Infinitely far in the future" for promise arithmetic.
INF_TIME = 1 << 62


class DomainRuntime:
    """The hook a domain installs into its :class:`MultiChipSystem`."""

    def __init__(self, partition: PartitionMap, domain_id: int) -> None:
        self.partition = partition
        self.domain_id = domain_id
        self.owned_coords = frozenset(partition.owned(domain_id))
        self.system = None
        #: Current safe horizon: mailbox contents are complete for all
        #: arrivals strictly below it. Maintained by the domain loop.
        self.safe = 0
        #: Mailbox polls stopped at cycles the horizon does not cover:
        #: ``(ctx, poll time)``; woken by the loop once it does.
        self.gated: list[tuple[Any, int]] = []
        #: Transport hook ``ship(dst_domain, message_dict)`` installed
        #: by the domain loop; messages leave mid-window, immediately.
        self.ship = None
        self.messages_sent = 0
        #: Parked mailbox waiters whose sender filter could match a
        #: *cross-domain* message (unfiltered, or filtered to a foreign
        #: cell). Only these force window clamping — a waiter filtered
        #: to an owned sender is woken inline by in-domain delivery and
        #: never observes cross-domain state.
        self.exposed_waiters = 0

    def attach(self, system) -> None:
        self.system = system

    def owns(self, coord: Coord) -> bool:
        return coord in self.owned_coords

    def check_route(self, src: Coord, dst: Coord) -> None:
        self.partition.check_route(src, dst)

    def gate(self, ctx, now: int) -> None:
        """Stop the window at a poll the horizon does not cover yet."""
        self.gated.append((ctx, now))
        self.system.scheduler.stop = True

    def note_parked(self) -> None:
        """An exposed waiter parked: windows must clamp to the horizon."""
        self.exposed_waiters += 1
        self.system.scheduler.stop = True

    def waiter_resumed(self) -> None:
        """An exposed waiter was woken and has resumed."""
        self.exposed_waiters -= 1

    def export_message(self, dst: Coord, message) -> None:
        """Ship a cross-domain message (called mid-window, at send)."""
        self.ship(self.partition.domain_of(dst), {
            "dst": list(dst),
            "arrival": message.arrival,
            "send_time": message.send_time,
            "src_index": message.src_index,
            "seq": message.seq,
            "src": list(message.src),
            "payload": message.payload,
        })
        self.messages_sent += 1


def _collect_result(system, runtime: DomainRuntime, final_time: int,
                    stats: dict[str, Any]) -> dict[str, Any]:
    """Everything the parent needs to reconstruct this slab's outcome."""
    topology = system.topology
    chips: dict[str, Any] = {}
    for coord in sorted(runtime.owned_coords):
        index = topology.index(coord)
        chip = system.chips[index]
        counters = {}
        issue_times = {}
        for tid, tu in enumerate(chip.threads):
            c = tu.counters
            counters[str(tid)] = {
                "instructions": c.instructions,
                "run_cycles": c.run_cycles,
                "stall_cycles": c.stall_cycles,
                "stall_events": c.stall_events,
                "flops": c.flops,
                "loads": c.loads,
                "stores": c.stores,
                "barriers": c.barriers,
                "start_time": c.start_time,
                "finish_time": c.finish_time,
            }
            issue_times[str(tid)] = tu.issue_time
        chips[str(index)] = {
            "memory": chip.memory.backing.read_block(
                0, chip.memory.backing.size),
            "counters": counters,
            "issue_times": issue_times,
        }
    links = {
        f"{coord[0]},{coord[1]},{coord[2]}|{direction}": link.bytes_sent
        for (coord, direction), link in system.fabric._links.items()
        if coord in runtime.owned_coords
    }
    host_links = {
        str(topology.index(coord)): link.bytes_sent
        for coord, link in system.fabric.host_links.items()
        if coord in runtime.owned_coords
    }
    parked = sorted(p.name for p in system.scheduler._parked_processes)
    stats["messages_sent"] = runtime.messages_sent
    return {
        "final_time": final_time,
        "parked": parked,
        "chips": chips,
        "links": links,
        "host_links": host_links,
        "blackboard": dict(system.blackboard),
        "stats": stats,
        "steps": system.scheduler.steps,
    }


def domain_main(program_data: dict, domain_id: int, n_domains: int,
                lookahead: int, inbox, outq) -> None:
    """Entry point of one domain process (multiprocessing target)."""
    if crash_injection_target() == str(domain_id):
        os._exit(3)
    try:
        _domain_body(program_data, domain_id, n_domains, lookahead,
                     inbox, outq)
    except BaseException:  # noqa: BLE001 - ship any failure to the parent
        outq.put(("error", domain_id, traceback.format_exc()))


def _domain_body(program_data: dict, domain_id: int, n_domains: int,
                 lookahead: int, inbox, outq) -> None:
    from repro.system.multichip import MultiChipSystem, _Message

    cpu0 = _time.process_time()
    wall0 = _time.perf_counter()
    program = CellProgram.from_dict(program_data)
    partition = PartitionMap(program.make_topology(), n_domains, lookahead)
    runtime = DomainRuntime(partition, domain_id)
    stats = {"null_messages": 0, "null_requests": 0, "windows": 0,
             "blocked_seconds": 0.0, "messages_received": 0}

    def ship(dst_domain: int, mdict: dict) -> None:
        outq.put(("msg", domain_id, dst_domain, mdict))

    runtime.ship = ship
    system = MultiChipSystem.build(program, pdes_runtime=runtime)
    scheduler = system.scheduler
    queue = scheduler.queue
    in_channels = partition.in_channels(domain_id)
    out_channels = partition.out_channels(domain_id)

    clock = {c: 0 for c in in_channels}
    pending: list[tuple[tuple[int, int, int, int], dict]] = []
    received = 0
    announced = -1
    reported: tuple[int, int] | None = None
    final_time = 0
    finish = False
    asked = False

    def drain(timeout: float | None = None) -> bool:
        """Pull transport items; with *timeout*, block for the first."""
        nonlocal received, finish, asked
        got = False
        block = timeout is not None
        while True:
            try:
                item = inbox.get(timeout=timeout) if block \
                    else inbox.get_nowait()
            except Empty:
                return got
            block = False
            got = True
            kind = item[0]
            if kind == "msg":
                _, src_domain, mdict = item
                key = (mdict["arrival"], mdict["send_time"],
                       mdict["src_index"], mdict["seq"])
                heappush(pending, (key, mdict))
                if mdict["send_time"] > clock[src_domain]:
                    clock[src_domain] = mdict["send_time"]
                received += 1
                stats["messages_received"] += 1
            elif kind == "null":
                _, src_domain, promise = item
                if promise > clock[src_domain]:
                    clock[src_domain] = promise
            elif kind == "nullreq":
                asked = True
            elif kind == "finish":
                finish = True
                return True

    while True:
        drain()
        if finish:
            break
        safe = INF_TIME if not in_channels else \
            min(clock[c] for c in in_channels) + lookahead
        runtime.safe = safe
        # Commit every shipped message whose arrival the horizon covers:
        # no unknown message can arrive earlier, so the mailbox contents
        # below `safe` are final.
        while pending and pending[0][0][0] <= safe:
            _, mdict = heappop(pending)
            system.deliver(tuple(mdict["dst"]), _Message(
                mdict["arrival"], mdict["send_time"], mdict["src_index"],
                mdict["seq"], tuple(mdict["src"]), mdict["payload"]))
        # Release gated polls the horizon now covers (mailbox provably
        # complete up to their cycle); each resumes at its own cycle,
        # ahead of same-cycle events that originally sat behind it.
        if runtime.gated:
            still = []
            for ctx, poll_time in runtime.gated:
                if poll_time < safe:
                    scheduler.wake(ctx.process, poll_time, front=True)
                else:
                    still.append((ctx, poll_time))
            runtime.gated = still
        # The earliest send this domain could still perform: its next
        # local event, the earliest gated poll (it may send right after
        # resuming), the earliest uncommitted shipped arrival, or (for
        # anything triggered by a yet-unknown message) the horizon.
        promise = min(
            queue.peek_time_or(INF_TIME),
            min((t for _, t in runtime.gated), default=INF_TIME),
            pending[0][0][0] if pending else INF_TIME,
            safe,
        )
        if out_channels and (asked or promise > announced):
            outq.put(("null", domain_id, promise))
            announced = max(announced, promise)
            stats["null_messages"] += len(out_channels)
        asked = False
        # A window may run unbounded — pure-compute events cannot see
        # cross-domain state, and any mailbox poll past the horizon
        # gates itself — unless an *exposed* parked waiter exists, whose
        # wake time an unknown arrival could set: then clamp to the
        # horizon. While a poll is still gated nothing may run at all:
        # every queued event is at or after its cycle and must wait.
        waiters = runtime.exposed_waiters
        if not runtime.gated and queue.n \
                and (waiters == 0 or queue.next_time < safe):
            scheduler.run(until=None if waiters == 0 else safe - 1,
                          allow_parked=True)
            stats["windows"] += 1
            if queue.n == 0 and not runtime.gated:
                # The queue drained, so `now` is the last processed
                # event — the domain's true final time unless a later
                # delivery revives it.
                final_time = scheduler.now
            continue
        # Cannot advance locally. Either report quiescence or ask
        # upstream channels for fresher promises, then block briefly.
        if queue.n == 0 and not pending and not runtime.gated:
            state = (received, final_time)
            if state != reported:
                outq.put(("idle", domain_id, {
                    "received": received,
                    "time": final_time,
                    "parked": scheduler.n_parked,
                }))
                reported = state
        elif in_channels:
            outq.put(("nullreq", domain_id))
            stats["null_requests"] += 1
        waited = _time.perf_counter()
        drain(timeout=0.05)
        stats["blocked_seconds"] += _time.perf_counter() - waited

    # CPU seconds are the honest cost measure on oversubscribed hosts:
    # with fewer cores than domains the processes timeshare, and the
    # per-domain critical path (max cpu_seconds) — not the contended
    # wall clock — is what an adequately provisioned host would see.
    stats["cpu_seconds"] = _time.process_time() - cpu0
    stats["wall_seconds"] = _time.perf_counter() - wall0
    outq.put(("result", domain_id,
              _collect_result(system, runtime, final_time, stats)))
