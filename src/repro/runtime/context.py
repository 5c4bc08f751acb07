"""Direct-execution thread contexts.

Workload thread bodies are Python generator functions over a
:class:`ThreadCtx`. Every architectural operation charges the Table 2
cost on the thread's in-order issue clock and contends for the real
shared hardware (FPU pipes, cache ports, memory banks), so timing comes
out of the same machinery as the ISA interpreter — this is the classic
*direct execution* simulation style, and is what makes STREAM-scale runs
feasible in Python (DESIGN.md section 3).

Conventions:

* operations that touch **shared** hardware are generators — call them
  with ``yield from``; they synchronize with the global event order
  before reserving anything;
* operations on **thread-private** hardware (the fixed-point ALU, the
  sequencer) are plain methods — they only advance the local clock;
* every operation takes ``deps``, a tuple of *ready times* of the values
  it consumes, and returns the ready time of its result — this is how
  workloads express dependence chains vs unrolled independent chains,
  which is exactly the distinction the paper's unrolling experiment is
  about (Section 3.2.2).
"""

from __future__ import annotations

from operator import attrgetter

from repro.memory.address import PHYSICAL_MASK, make_effective
from repro.memory.interest_groups import IG_ALL


def _private_op(row: str, doc: str):
    """A :class:`ThreadCtx` method issuing one op on thread-private
    hardware, costed by the latency-table row named *row*.

    ``_earliest`` and ``ThreadUnit.execute_local`` (``issue_at`` +
    ``retire``) inlined: workloads charge a branch or an ALU op per loop
    iteration, and four method frames cost more than the accounting.
    """
    row_of = attrgetter(row)

    def op(self, deps: tuple = ()) -> int:
        execution, latency = row_of(self.lat)
        tu = self.tu
        counters = tu.counters
        issue = clock = tu.issue_time
        for dep in deps:
            if dep > issue:
                issue = dep
        if issue > clock:
            counters.stall_cycles += issue - clock
            counters.stall_events += 1
        tu.issue_time = issue + execution
        counters.instructions += 1
        counters.run_cycles += execution
        return issue + execution + latency

    op.__doc__ = doc
    return op


class ThreadCtx:
    """The programming interface of one running software thread."""

    __slots__ = ("kernel", "chip", "memory", "tu", "tid", "quad_id",
                 "fpu", "lat", "process", "software_index",
                 "_strict", "_access", "_bload_f64", "_bstore_f64",
                 "_bload_u32", "_bstore_u32")

    def __init__(self, kernel, tu) -> None:
        self.kernel = kernel
        self.chip = kernel.chip
        memory = kernel.chip.memory
        # With a coherence sanitizer attached, this thread's accesses
        # flow through a per-thread observing facade; the swap happens
        # here, once, so the per-operation paths below stay identical.
        sanitizer = memory.sanitizer
        if sanitizer is not None:
            memory = sanitizer.thread_view(memory, tu.tid)
        self.memory = memory
        self.tu = tu
        self.tid = tu.tid
        self.quad_id = tu.quad_id
        self.fpu = kernel.chip.fpu_of(tu.tid)
        self.lat = kernel.chip.config.latency
        #: The scheduler process, set by the kernel at spawn time.
        self.process = None
        #: The software thread index (0..n-1), set by the kernel.
        self.software_index = 0
        # Hot-path bindings: in the default (non-strict) mode the load/
        # store wrappers on MemorySubsystem reduce to a timed access plus
        # a backing-store value access, so the context calls those two
        # directly and skips one wrapper frame per memory operation.
        self._strict = memory.strict
        self._access = memory.access
        backing = memory.backing
        self._bload_f64 = backing.load_f64
        self._bstore_f64 = backing.store_f64
        self._bload_u32 = backing.load_u32
        self._bstore_u32 = backing.store_u32

    # ------------------------------------------------------------------
    # Address helpers
    # ------------------------------------------------------------------
    def ea(self, physical: int, ig_byte: int = IG_ALL) -> int:
        """An effective address with the given interest-group byte."""
        return make_effective(physical, ig_byte)

    @property
    def time(self) -> int:
        """The thread's current issue clock."""
        return self.tu.issue_time

    def _earliest(self, deps: tuple) -> int:
        earliest = self.tu.issue_time
        for dep in deps:
            if dep > earliest:
                earliest = dep
        return earliest

    # ------------------------------------------------------------------
    # Memory operations (shared: generators, plus a split-phase form)
    #
    # The split-phase pairs (``op_begin`` + ``<op>_finish``) let a hot
    # workload loop synchronize with the scheduler through its *own*
    # yield instead of delegating into a context generator: the event
    # sequence is identical, but nothing allocates a generator object
    # per memory operation. The generator methods below are thin
    # wrappers over the same phases, so there is one copy of the logic.
    # ------------------------------------------------------------------
    def op_begin(self, deps: tuple = ()) -> int:
        """Phase 1 of any shared-resource op: the earliest issue cycle.

        Yield the returned value to the scheduler; pass the granted time
        into the matching ``*_finish`` method.
        """
        earliest = self.tu.issue_time
        for dep in deps:
            if dep > earliest:
                earliest = dep
        return earliest

    def load_f64_finish(self, now: int, effective: int):
        """Phase 2 of a double load; returns ``(ready_time, value)``."""
        if self._strict:
            outcome, value = self.memory.load_f64(
                now, self.quad_id, effective
            )
        else:
            outcome = self._access(now, self.quad_id, effective, 8, False)
            value = self._bload_f64(effective & PHYSICAL_MASK)
        # Inlined ThreadUnit.issue_at(issue_end - 1) + retire(1): two
        # method frames per memory op are measurable at STREAM scale.
        tu = self.tu
        counters = tu.counters
        issue = outcome.issue_end - 1
        clock = tu.issue_time
        if issue > clock:
            counters.stall_cycles += issue - clock
            counters.stall_events += 1
            clock = issue
        tu.issue_time = clock + 1
        counters.instructions += 1
        counters.run_cycles += 1
        counters.loads += 1
        return outcome.complete, value

    def store_f64_finish(self, now: int, effective: int, value: float) -> int:
        """Phase 2 of a double store; returns the completion time."""
        if self._strict:
            outcome = self.memory.store_f64(
                now, self.quad_id, effective, value
            )
        else:
            outcome = self._access(now, self.quad_id, effective, 8, True)
            self._bstore_f64(effective & PHYSICAL_MASK, value)
        tu = self.tu
        counters = tu.counters
        issue = outcome.issue_end - 1
        clock = tu.issue_time
        if issue > clock:
            counters.stall_cycles += issue - clock
            counters.stall_events += 1
            clock = issue
        tu.issue_time = clock + 1
        counters.instructions += 1
        counters.run_cycles += 1
        counters.stores += 1
        return outcome.complete

    def load_f64(self, effective: int, deps: tuple = ()):
        """Load a double; returns ``(ready_time, value)``."""
        now = yield self.op_begin(deps)
        return self.load_f64_finish(now, effective)

    def store_f64(self, effective: int, value: float, deps: tuple = ()):
        """Store a double; returns the store's completion time.

        The thread does not wait for completion (stores retire through a
        write buffer); dependents that *must* observe the store (e.g. a
        flag protocol) can depend on the returned time.
        """
        now = yield self.op_begin(deps)
        return self.store_f64_finish(now, effective, value)

    def load_u32(self, effective: int, deps: tuple = ()):
        """Load a 32-bit word; returns ``(ready_time, value)``."""
        tu = self.tu
        earliest = tu.issue_time
        for dep in deps:
            if dep > earliest:
                earliest = dep
        earliest = yield earliest
        if self._strict:
            outcome, value = self.memory.load_u32(
                earliest, self.quad_id, effective
            )
        else:
            outcome = self._access(earliest, self.quad_id, effective, 4, False)
            value = self._bload_u32(effective & PHYSICAL_MASK)
        counters = tu.counters
        issue = outcome.issue_end - 1
        clock = tu.issue_time
        if issue > clock:
            counters.stall_cycles += issue - clock
            counters.stall_events += 1
            clock = issue
        tu.issue_time = clock + 1
        counters.instructions += 1
        counters.run_cycles += 1
        counters.loads += 1
        return outcome.complete, value

    def store_u32(self, effective: int, value: int, deps: tuple = ()):
        """Store a 32-bit word; returns the completion time."""
        tu = self.tu
        earliest = tu.issue_time
        for dep in deps:
            if dep > earliest:
                earliest = dep
        earliest = yield earliest
        if self._strict:
            outcome = self.memory.store_u32(
                earliest, self.quad_id, effective, value
            )
        else:
            outcome = self._access(earliest, self.quad_id, effective, 4, True)
            self._bstore_u32(effective & PHYSICAL_MASK, value)
        counters = tu.counters
        issue = outcome.issue_end - 1
        clock = tu.issue_time
        if issue > clock:
            counters.stall_cycles += issue - clock
            counters.stall_events += 1
            clock = issue
        tu.issue_time = clock + 1
        counters.instructions += 1
        counters.run_cycles += 1
        counters.stores += 1
        return outcome.complete

    def atomic_rmw_u32(self, effective: int, op: str, operand: int,
                       deps: tuple = ()):
        """Atomic read-modify-write; returns ``(ready_time, old_value)``."""
        earliest = yield self._earliest(deps)
        outcome, old = self.memory.atomic_rmw_u32(
            earliest, self.quad_id, effective, op, operand
        )
        tu = self.tu
        tu.issue_at(outcome.issue_end - 1)
        tu.retire(1)
        tu.counters.loads += 1
        tu.counters.stores += 1
        return outcome.complete, old

    def scratchpad_f64(self, cache_id: int, offset: int, is_store: bool,
                       value: float = 0.0, deps: tuple = ()):
        """Access the partitioned fast memory of a cache.

        Returns ``(ready_time, value)`` for a read, ``(done, None)`` for a
        write. Offsets index the scratchpad region directly.
        """
        import struct

        earliest = yield self._earliest(deps)
        outcome = self.memory.scratchpad_access(
            earliest, self.quad_id, cache_id, 8
        )
        tu = self.tu
        tu.issue_at(outcome.issue_end - 1)
        tu.retire(1)
        cache = self.memory.caches[cache_id]
        if is_store:
            cache.scratchpad_write(offset, struct.pack("<d", value))
            tu.counters.stores += 1
            return outcome.complete, None
        tu.counters.loads += 1
        raw = cache.scratchpad_read(offset, 8)
        return outcome.complete, struct.unpack("<d", raw)[0]

    # ------------------------------------------------------------------
    # Floating point (shared FPU: generators)
    # ------------------------------------------------------------------
    def _fpu_pipelined(self, issue_fn, deps: tuple, exec_cycles: int,
                       flops: int):
        tu = self.tu
        earliest = tu.issue_time
        for dep in deps:
            if dep > earliest:
                earliest = dep
        earliest = yield earliest
        issue_end, ready = issue_fn(earliest)
        # Inlined ThreadUnit.issue_at(issue_end - exec) + retire(exec).
        counters = tu.counters
        issue = issue_end - exec_cycles
        clock = tu.issue_time
        if issue > clock:
            counters.stall_cycles += issue - clock
            counters.stall_events += 1
            clock = issue
        tu.issue_time = clock + exec_cycles
        counters.instructions += 1
        counters.run_cycles += exec_cycles
        counters.flops += flops
        return ready

    def fp_add(self, deps: tuple = ()):
        """FP add/subtract/compare; returns the result's ready time."""
        return self._fpu_pipelined(self.fpu.add, deps, 1, 1)

    def fp_mul(self, deps: tuple = ()):
        """FP multiply."""
        return self._fpu_pipelined(self.fpu.multiply, deps, 1, 1)

    def _fpu_retire(self, issue_end: int, ready: int, flops: int) -> int:
        """Account a single-issue FPU op (inlined issue_at + retire)."""
        tu = self.tu
        counters = tu.counters
        issue = issue_end - 1
        clock = tu.issue_time
        if issue > clock:
            counters.stall_cycles += issue - clock
            counters.stall_events += 1
            clock = issue
        tu.issue_time = clock + 1
        counters.instructions += 1
        counters.run_cycles += 1
        counters.flops += flops
        return ready

    def fp_add_finish(self, now: int) -> int:
        """Phase 2 of an FP add (pairs with ``op_begin``)."""
        issue_end, ready = self.fpu.add(now)
        return self._fpu_retire(issue_end, ready, 1)

    def fp_mul_finish(self, now: int) -> int:
        """Phase 2 of an FP multiply (pairs with ``op_begin``)."""
        issue_end, ready = self.fpu.multiply(now)
        return self._fpu_retire(issue_end, ready, 1)

    def fp_fma_finish(self, now: int) -> int:
        """Phase 2 of a fused multiply-add (pairs with ``op_begin``)."""
        issue_end, ready = self.fpu.fma(now)
        return self._fpu_retire(issue_end, ready, 2)

    def fp_fma(self, deps: tuple = ()):
        """Fused multiply-add (two flops, one issue)."""
        now = yield self.op_begin(deps)
        return self.fp_fma_finish(now)

    def fp_convert(self, deps: tuple = ()):
        """Int/float conversion."""
        return self._fpu_pipelined(self.fpu.convert, deps, 1, 0)

    def fp_div(self, deps: tuple = ()):
        """Double-precision divide (non-pipelined)."""
        exec_cycles = self.lat.fp_divide[0]
        return self._fpu_pipelined(self.fpu.divide, deps, exec_cycles, 1)

    def fp_sqrt(self, deps: tuple = ()):
        """Double-precision square root (non-pipelined)."""
        exec_cycles = self.lat.fp_sqrt[0]
        return self._fpu_pipelined(self.fpu.sqrt, deps, exec_cycles, 1)

    def flush_line(self, effective: int, deps: tuple = ()):
        """Write back and drop the line holding *effective* (``dcbf``).

        The writer-side software-coherence primitive for OWN-group data;
        returns the completion time (dirty lines burst onto their bank).
        """
        earliest = yield self._earliest(deps)
        outcome = self.memory.flush_line(earliest, self.quad_id, effective)
        tu = self.tu
        tu.issue_at(outcome.issue_end - 1)
        tu.retire(1)
        return outcome.complete

    def invalidate_line(self, effective: int, deps: tuple = ()):
        """Drop the line holding *effective* without writeback (``dcbi``).

        The reader-side primitive: the next load re-fetches from memory.
        """
        earliest = yield self._earliest(deps)
        outcome = self.memory.invalidate_line(earliest, self.quad_id,
                                              effective)
        tu = self.tu
        tu.issue_at(outcome.issue_end - 1)
        tu.retire(1)
        return outcome.complete

    def fp_stream(self, count: int, op: str = "fma", deps: tuple = ()):
        """Issue *count* back-to-back dependent ops of one FPU kind.

        One scheduler synchronization covers the whole stream (the ops
        form a contiguous dependence chain, so nothing could interleave
        usefully anyway); each op still reserves a real FPU issue slot,
        so quad-mates contend cycle-accurately. Returns the last result's
        ready time. ``op`` is ``"fma"``, ``"add"``, or ``"mul"``.
        """
        if count <= 0:
            return self._earliest(deps)
        earliest = yield self._earliest(deps)
        if op == "fma":
            issue_fn, flops = self.fpu.fma, 2
        elif op == "add":
            issue_fn, flops = self.fpu.add, 1
        elif op == "mul":
            issue_fn, flops = self.fpu.multiply, 1
        else:
            raise ValueError(f"unknown FPU stream op {op!r}")
        tu = self.tu
        ready = earliest
        for _ in range(count):
            issue_end, ready = issue_fn(max(earliest, tu.issue_time))
            tu.issue_at(issue_end - 1)
            tu.retire(1)
            tu.counters.flops += flops
        return ready

    # ------------------------------------------------------------------
    # Thread-private operations (plain methods)
    # ------------------------------------------------------------------
    int_alu = _private_op(
        "other", "A one-cycle fixed-point/register op on the private ALU.")
    int_mul = _private_op("int_multiply", "Integer multiply on the private ALU.")
    int_div = _private_op(
        "int_divide", "Integer divide (non-pipelined, occupies the thread).")
    branch = _private_op(
        "branch", "A (conditional) branch: two cycles in the sequencer.")

    def charge_ops(self, count: int) -> int:
        """Charge *count* independent one-cycle private ops in bulk.

        Loop bodies use this for address arithmetic that would be tedious
        to spell out op-by-op; it is exactly equivalent to ``count``
        chained :meth:`int_alu` calls with no dependences.
        """
        counters = self.tu.counters
        counters.instructions += count
        counters.run_cycles += count
        self.tu.issue_time += count
        return self.tu.issue_time

    # ------------------------------------------------------------------
    # Spin-waiting (shared: generator)
    # ------------------------------------------------------------------
    def spin_until(self, effective: int, predicate, deps: tuple = ()):
        """Poll a memory word until *predicate(value)* holds.

        Each poll is a real load plus a branch, so spinning threads
        genuinely contend for the flag's cache port — the effect that
        motivated the hardware barrier (Section 2.3).
        """
        ready, value = yield from self.load_u32(effective, deps)
        while not predicate(value):
            self.branch(deps=(ready,))
            ready, value = yield from self.load_u32(effective)
        return ready, value

    # ------------------------------------------------------------------
    # Barriers (delegates; shared: generators)
    # ------------------------------------------------------------------
    def barrier(self, barrier_obj):
        """Wait on a hardware or software barrier object."""
        return barrier_obj.wait(self)
