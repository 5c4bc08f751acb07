"""Multi-chip Cyclops systems: the cellular approach.

"Large, scalable systems can be built with a cellular approach using the
Cyclops chip as a building block. The chip is viewed as a cell that can
be replicated as many times as necessary, with the cells interconnected
in a regular pattern through communication links provided in each chip."

:class:`MultiChipSystem` instantiates one full :class:`Chip` (and one
resident kernel) per cell plus the link fabric between them, and runs a
distributed workload: per-cell thread programs that compute locally and
exchange messages over the links. Messages are memory-to-memory — the
payload is read from the sender's embedded DRAM and lands in the
receiver's, charged on every link of the route.

Every cell simulates under one global scheduler, so cross-chip timing
is exact with respect to the link model.
"""

from __future__ import annotations

import os
from typing import Any, Callable

from repro.config import ChipConfig
from repro.core.chip import Chip
from repro.engine.scheduler import BLOCK
from repro.engine.events import Waiter
from repro.errors import ConfigError
from repro.runtime.kernel import AllocationPolicy, Kernel
from repro.system.links import LinkFabric
from repro.system.topology import Coord, Topology

#: Sampled-simulation knob (mirrors ``repro.sampling.SAMPLE_ENV`` as a
#: literal; the default path must not import the sampling package).
#: ``run()`` rejects it with an explanation — see its docstring.
SAMPLE_ENV = "CYCLOPS_SAMPLE"


class _Message:
    """One link message at (or on its way to) a destination mailbox."""

    __slots__ = ("arrival", "send_time", "src_index", "seq", "src", "payload")

    def __init__(self, arrival: int, send_time: int, src_index: int,
                 seq: int, src: Coord, payload: bytes) -> None:
        self.arrival = arrival
        self.send_time = send_time
        self.src_index = src_index
        self.seq = seq
        self.src = src
        self.payload = payload

    @property
    def key(self) -> tuple[int, int, int, int]:
        """The deterministic drain order (see :class:`_Mailbox`)."""
        return (self.arrival, self.send_time, self.src_index, self.seq)


class _Mailbox:
    """Per-chip arrival queue for link messages.

    Drain order is *deterministic*: among deliverable messages, a
    receive always takes the smallest ``(arrival, send time, sender
    coord index, per-channel sequence)`` — never the order the messages
    were posted in.
    """

    def __init__(self) -> None:
        self.messages: list[_Message] = []
        self.waiters = Waiter()

    def post(self, message: _Message) -> None:
        self.messages.append(message)

    def select(self, now: int, from_index: int | None) -> _Message | None:
        """The deliverable message a receive at *now* must take."""
        best: _Message | None = None
        for message in self.messages:
            if from_index is not None and message.src_index != from_index:
                continue
            if message.arrival > now:
                continue
            if best is None or message.key < best.key:
                best = message
        return best

    def earliest_matching_arrival(self, from_index: int | None) -> int | None:
        """Earliest arrival among matching messages (any arrival time)."""
        times = [m.arrival for m in self.messages
                 if from_index is None or m.src_index == from_index]
        return min(times) if times else None


class MultiChipSystem:
    """A mesh/torus of Cyclops cells sharing one simulation clock."""

    def __init__(self, topology: Topology,
                 config: ChipConfig | None = None,
                 policy: AllocationPolicy = AllocationPolicy.SEQUENTIAL,
                 routing: str = "store_and_forward") -> None:
        self.topology = topology
        self.config = config or ChipConfig.paper()
        self.chips = [Chip(self.config) for _ in range(topology.n_chips)]
        self.fabric = LinkFabric(topology, self.config, routing=routing)
        self.routing = routing
        self.policy = policy
        # One kernel per cell, all sharing the first kernel's scheduler
        # so that the whole system advances on one clock.
        self.kernels: list[Kernel] = []
        shared_scheduler = None
        for chip in self.chips:
            kernel = Kernel(chip, policy)
            if shared_scheduler is None:
                shared_scheduler = kernel.scheduler
            else:
                kernel.scheduler = shared_scheduler
            self.kernels.append(kernel)
        self.scheduler = shared_scheduler
        self._mailboxes = {
            topology.coord(i): _Mailbox() for i in range(topology.n_chips)
        }
        #: Per-(src, dst) message sequence numbers, assigned at the
        #: sender: the last key of the mailbox select order.
        self._send_seq: dict[tuple[Coord, Coord], int] = {}
        #: Results area for program threads: values written by thread
        #: bodies (timings, final pointers).
        self.blackboard: dict[str, Any] = {}

    # ------------------------------------------------------------------
    def kernel_at(self, coord: Coord) -> Kernel:
        """The resident kernel of the cell at *coord*."""
        return self.kernels[self.topology.index(coord)]

    def chip_at(self, coord: Coord) -> Chip:
        """The chip at *coord*."""
        return self.chips[self.topology.index(coord)]

    # ------------------------------------------------------------------
    # Message passing between cells
    # ------------------------------------------------------------------
    def _next_seq(self, src: Coord, dst: Coord) -> int:
        seq = self._send_seq.get((src, dst), 0)
        self._send_seq[(src, dst)] = seq + 1
        return seq

    def send(self, ctx, dst: Coord, physical: int, n_bytes: int):
        """Generator: send *n_bytes* from this cell's memory to *dst*.

        The payload is read out of the sender's embedded DRAM (bulk, via
        the communication interface — the thread only pays the send
        setup), routed over the fabric, and enqueued at the destination
        mailbox with its arrival time.
        """
        src = self._coord_of_ctx(ctx)
        start = yield ctx.tu.issue_time
        ctx.tu.issue_at(start)
        ctx.tu.retire(1)  # the send instruction
        payload = self.chip_at(src).memory.backing.read_block(
            physical, n_bytes)
        arrival = self.fabric.send(start, src, dst, n_bytes)
        mailbox = self._mailboxes[dst]
        mailbox.post(_Message(arrival, start, self.topology.index(src),
                              self._next_seq(src, dst), src, payload))
        # Waiters re-poll at the arrival, which is always in the future
        # of the send (link latency > 0).
        for waiting in mailbox.waiters.wake_all():
            self.scheduler.wake(waiting.process, arrival)
        return arrival

    def receive(self, ctx, physical: int, from_coord: Coord | None = None):
        """Generator: block until a message arrives; returns (src, size).

        The payload is written into this cell's memory at *physical*.
        With *from_coord* only messages from that cell match (needed when
        exchanges with several neighbours are in flight at once).
        """
        coord = self._coord_of_ctx(ctx)
        mailbox = self._mailboxes[coord]
        from_index = None if from_coord is None \
            else self.topology.index(from_coord)
        while True:
            now = yield ctx.tu.issue_time
            message = mailbox.select(now, from_index)
            if message is not None:
                mailbox.messages.remove(message)
                self.chip_at(coord).memory.backing.write_block(
                    physical, message.payload)
                ctx.tu.issue_at(max(now, message.arrival))
                ctx.tu.retire(1)
                return message.src, len(message.payload)
            in_flight = mailbox.earliest_matching_arrival(from_index)
            if in_flight is not None:
                # The matching message is in flight: wait for it to land.
                ctx.tu.issue_at(in_flight)
                continue
            mailbox.waiters.park(ctx)
            woke = yield BLOCK
            ctx.tu.issue_at(woke)

    def host_load(self, time: int, coord: Coord, physical: int,
                  data: bytes) -> int:
        """Stage *data* from the host into a cell over its seventh link.

        Returns the completion time. This is how input data sets reach a
        cellular system before the computation starts.
        """
        arrival = self.fabric.host_links[coord].transfer(time, len(data))
        self.chip_at(coord).memory.backing.write_block(physical, data)
        return arrival

    def host_store(self, time: int, coord: Coord, physical: int,
                   n_bytes: int) -> tuple[int, bytes]:
        """Retrieve results from a cell over its host link."""
        arrival = self.fabric.host_links[coord].transfer(time, n_bytes)
        data = self.chip_at(coord).memory.backing.read_block(
            physical, n_bytes)
        return arrival, data

    def _coord_of_ctx(self, ctx) -> Coord:
        for i, kernel in enumerate(self.kernels):
            if ctx.kernel is kernel:
                return self.topology.coord(i)
        raise ConfigError("context does not belong to any cell")

    # ------------------------------------------------------------------
    def spawn_on(self, coord: Coord, body: Callable, *args,
                 name: str = ""):
        """Spawn a software thread on the cell at *coord*."""
        return self.kernel_at(coord).spawn(body, *args, name=name)

    # ------------------------------------------------------------------
    def run(self, until: int | None = None, sampled=None) -> int:
        """Run the whole system to quiescence.

        ``sampled=`` (or ``CYCLOPS_SAMPLE`` in the environment) is
        *rejected* here with an explanation rather than silently
        ignored: sampled simulation (:mod:`repro.sampling`) estimates
        cycles from an ISA instruction stream, and system workloads are
        kernel closures with no instruction counters to sample. Pass
        ``sampled=False`` to run exact even when the environment knob
        is set.
        """
        if sampled is None:
            sampled = os.environ.get(SAMPLE_ENV) or None
        if sampled is not None and sampled is not False:
            from repro.sampling import resolve_config

            if resolve_config(sampled) is not None:
                raise ConfigError(
                    "sampled simulation applies to ISA interpreter "
                    "runs, not MultiChipSystem: system workloads are "
                    "kernel closures without an instruction stream to "
                    "sample. Run Interpreter.run(sampled=...) per "
                    "chip, or unset " + SAMPLE_ENV + " / pass "
                    "sampled=False for an exact system run."
                )
        return self.scheduler.run(until)
