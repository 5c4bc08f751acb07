"""Composed memory subsystem: the access paths of Figure 2.

Every data access resolves as follows:

1. split the 32-bit effective address into interest-group byte and 24-bit
   physical address; decode the interest group (Table 1 semantics);
2. pick the one target cache for this line (the requester's own cache for
   group OWN, the scrambling function for multi-member sets);
3. reserve the target cache's 8 B/cycle port (this is where the cache
   switch's bandwidth limit and inter-thread contention live);
4. look up the tag array — a hit costs the Table 2 local (6) or remote
   (17) latency depending on whether the target cache belongs to the
   requesting quad;
5. a miss adds the fill: the request travels to the line's memory bank,
   queues behind other fills and writebacks, and transfers a 64-byte
   burst. Unloaded, this lands exactly on Table 2's 24/36-cycle miss
   latencies; under load the bank queueing delay adds on top, which is
   what makes STREAM saturate at the banks' aggregate bandwidth.

Store misses default to *write-validate* (allocate without fetching):
DESIGN.md explains why fetch-on-store-miss is incompatible with the
paper's ~peak sustained STREAM bandwidth. Dirty victims write back as
bursts that occupy the victim's bank but do not block the requester (a
write buffer), so writeback traffic correctly competes for bandwidth.
"""

from __future__ import annotations

import struct
from enum import Enum
from typing import NamedTuple

from repro.config import ChipConfig
from repro.engine.tracing import NULL_TRACER, Tracer
from repro.errors import AddressError
from repro.memory.address import (
    AddressMap,
    IG_SHIFT,
    PHYSICAL_MASK,
    line_address,
    split_effective,
)
from repro.memory.backing import BackingStore
from repro.memory.bank import MemoryBank
from repro.memory.cache import CacheUnit
from repro.memory.interest_groups import InterestGroup
from repro.memory.offchip import OffChipMemory
from repro.memory.scramble import scramble64
from repro.memory.switch import CrossbarSwitch, build_cache_switch


class AccessKind(Enum):
    """Timing classification of one data access (Table 2 rows)."""

    LOCAL_HIT = "local_hit"
    LOCAL_MISS = "local_miss"
    REMOTE_HIT = "remote_hit"
    REMOTE_MISS = "remote_miss"
    SCRATCHPAD = "scratchpad"


#: Dense indices for the per-kind counters (list slots are cheaper than
#: enum-keyed dict updates on the access fast path).
_KIND_ORDER = (AccessKind.LOCAL_HIT, AccessKind.LOCAL_MISS,
               AccessKind.REMOTE_HIT, AccessKind.REMOTE_MISS,
               AccessKind.SCRATCHPAD)
_LOCAL_HIT, _LOCAL_MISS, _REMOTE_HIT, _REMOTE_MISS, _SCRATCHPAD = range(5)
_KIND_AT = _KIND_ORDER  # index -> AccessKind


class AccessOutcome(NamedTuple):
    """Timing result of one access.

    ``issue_end`` is when the thread's issue slot frees (execution column
    of Table 2 plus any wait for the cache port); ``complete`` is when the
    value is available to dependent instructions (latency column, plus
    bank queueing on a miss).

    A named tuple rather than a dataclass: one is built per simulated
    memory access, and tuple construction is the cheapest structured
    value CPython offers while keeping the same attribute API.
    """

    issue_end: int
    complete: int
    kind: AccessKind
    cache_id: int


#: ``tuple.__new__`` called directly is a single C call; it skips the
#: generated keyword-capable ``__new__`` Python frame on the hottest
#: allocation in the simulator (``access`` builds one outcome per access).
_tuple_new = tuple.__new__


class MemorySubsystem:
    """Banks + caches + switches + interest-group placement."""

    def __init__(self, config: ChipConfig, strict_incoherence: bool = False,
                 tracer: Tracer = NULL_TRACER) -> None:
        self.config = config
        self.strict = strict_incoherence
        self.tracer = tracer
        self.address_map = AddressMap(config)
        self.backing = BackingStore(config.memory_bytes)
        self.banks = [MemoryBank(i, config) for i in range(config.n_memory_banks)]
        self.caches = [
            CacheUnit(i, config, buffer_data=strict_incoherence)
            for i in range(config.n_dcaches)
        ]
        self.cache_switch: CrossbarSwitch = build_cache_switch(config)
        self.offchip = OffChipMemory(config)
        #: Decoded interest groups, keyed by the interest-group byte.
        #: Bounded by construction: there are only 256 possible bytes
        #: (and fewer than that decode successfully), so the dict can
        #: never grow past 256 entries.
        self._ig_cache: dict[int, InterestGroup] = {}
        #: Member caches of each multi-cache interest-group byte (the
        #: group's ``cache_set``), filled once per byte on the first
        #: target-memo miss; bounded like ``_ig_cache``.
        self._ig_members: dict[int, tuple[int, ...]] = {}
        self._line_shift = config.dcache_line_bytes.bit_length() - 1
        self._line_mask = ~(config.dcache_line_bytes - 1)
        #: Memoized target-cache resolution, keyed by
        #: ``(ig_byte << 24) | line``. The scrambling function is a pure
        #: function of the line address and the group, so the answer
        #: never changes. Bounded: when the memo reaches
        #: ``_TARGET_MEMO_MAX`` entries it is cleared and rebuilt, so the
        #: worst case is a bounded steady-state dict plus occasional
        #: recomputation (the keyspace — 256 groups x 256 K lines — is
        #: too large to leave unbounded).
        self._target_memo: dict[int, int] = {}
        #: Optional attached coherence checker (repro.sanitizer). When
        #: set, sanitized threads route their accesses through observing
        #: facades; this subsystem itself only consults it on the cold
        #: flush path — the access fast path never tests it.
        self.sanitizer = None
        # Hot-path constants hoisted from the config (immutable per run).
        lat = config.latency
        self._hit_extra = (lat.mem_remote_hit[1], lat.mem_local_hit[1])
        self._miss_extra = (lat.mem_remote_miss[1], lat.mem_local_miss[1])
        self._fetch_store_miss = config.store_miss_fetches_line or self.strict
        #: Bound methods hoisted for the access fast path (the switch,
        #: the caches, and the tracer are created once per subsystem and
        #: never replaced; ``Tracer.enabled`` is fixed per tracer kind).
        self._transfer = self.cache_switch.transfer
        self._switch_ports = self.cache_switch.ports
        self._switch_bpc = self.cache_switch.bytes_per_cycle
        self._cache_access = [cache.access for cache in self.caches]
        self._trace_enabled = tracer.enabled
        self._burst_cycles = config.burst_cycles
        self._n_dcaches = config.n_dcaches
        #: Hit-path inlining: ``access()`` probes the tag sets directly
        #: (ChipConfig guarantees power-of-two line and set counts, so
        #: the set index is a shift and a mask) and only calls
        #: :meth:`CacheUnit.access` on a miss. The ``_sets`` lists are
        #: created once per cache and mutated in place, so hoisting them
        #: here stays coherent.
        self._cache_sets = [cache._sets for cache in self.caches]
        self._cset_shift = self.caches[0]._set_shift
        self._cset_mask = self.caches[0]._set_mask
        #: In-flight line fills, keyed ``line * n_dcaches + cache_id`` (one
        #: collision-free int per (cache, line): lines are multiples of
        #: the line size and cache ids are below ``n_dcaches``) ->
        #: completion time. A hit on a line whose fill is still in flight
        #: waits for the fill — the effect that penalizes the paper's
        #: cyclic partitioning, where eight threads pile onto each line
        #: "while the cache line is still being retrieved from main
        #: memory" (Section 3.2.2). An entry only matters while its line
        #: is resident, so evictions, ``flush_line`` and
        #: ``invalidate_line`` drop it: the table never outgrows the
        #: resident lines of the timed path.
        self._inflight: dict[int, int] = {}
        # access-kind counters (dense list; see the kind_counts property)
        self._kind_counts = [0] * len(_KIND_ORDER)

    #: The target-cache memo's size bound (entries) — cleared when full.
    _TARGET_MEMO_MAX = 1 << 16

    @property
    def kind_counts(self) -> dict[AccessKind, int]:
        """Access counts by timing classification (Table 2 rows)."""
        return dict(zip(_KIND_ORDER, self._kind_counts))

    # ------------------------------------------------------------------
    # Interest-group resolution
    # ------------------------------------------------------------------
    def decode_group(self, ig_byte: int) -> InterestGroup:
        """Decode (and memoize) an interest-group byte."""
        group = self._ig_cache.get(ig_byte)
        if group is None:
            group = InterestGroup.decode(ig_byte)
            self._ig_cache[ig_byte] = group
        return group

    def target_cache(self, ig_byte: int, physical: int, quad_id: int) -> int:
        """The cache that holds *physical* under *ig_byte* for *quad_id*.

        Interest group zero (OWN) is the requester's own cache; every
        other group maps a line to one fixed cache independent of the
        requester, so the scramble result is memoized per
        ``(group, line)`` — see ``_target_memo`` for the bound.
        """
        if ig_byte == 0:  # OWN: the requester's own quad cache
            return quad_id
        line = physical & self._line_mask
        key = (ig_byte << IG_SHIFT) | line
        memo = self._target_memo
        target = memo.get(key)
        if target is None:
            # InterestGroup.target_cache, with the group's member tuple
            # decoded once per byte instead of once per line.
            members = self._ig_members.get(ig_byte)
            if members is None:
                members = self.decode_group(ig_byte).cache_set(
                    self._n_dcaches, quad_id)
                self._ig_members[ig_byte] = members
            if len(members) == 1:
                target = members[0]
            else:
                target = members[scramble64(physical >> self._line_shift)
                                 & (len(members) - 1)]
            if len(memo) >= self._TARGET_MEMO_MAX:
                memo.clear()
            memo[key] = target
        return target

    # ------------------------------------------------------------------
    # The main timed access path
    # ------------------------------------------------------------------
    def access(self, time: int, quad_id: int, effective: int, size: int,
               is_store: bool) -> AccessOutcome:
        """Timed load/store of *size* bytes at a 32-bit effective address.

        This is the simulator's hottest function: the dominant local-hit
        path allocates nothing beyond the returned :class:`AccessOutcome`
        tuple — the address split is inlined, the target cache comes from
        the memo, the cache returns an interned hit result, and the kind
        counter is a list slot.
        """
        if effective >> 32:
            raise AddressError(
                f"effective address {effective:#x} exceeds 32 bits"
            )
        ig_byte = effective >> IG_SHIFT
        physical = effective & PHYSICAL_MASK
        # Guarded bounds test: `physical` is non-negative by masking, so
        # one comparison against the cached max-memory register suffices;
        # the slow call only runs to raise the detailed fault.
        address_map = self.address_map
        if physical + size > address_map._max_memory:
            address_map.check(physical, size)
        line_mask = self._line_mask
        line = physical & line_mask
        if ig_byte == 0:  # OWN: the requester's own quad cache
            target = quad_id
            local = True
        else:
            # Inlined memo probe of target_cache(); the method runs only
            # to fill (or refresh) the bounded memo. Its key,
            # ``(ig_byte << IG_SHIFT) | line``, is the line-aligned
            # effective address.
            target = self._target_memo.get(effective & line_mask)
            if target is None:
                target = self.target_cache(ig_byte, physical, quad_id)
            local = target == quad_id

        # Single-beat switch traversal, inlined (CrossbarSwitch.transfer
        # + TimelineResource.reserve are two frames per access; every
        # counter they maintain is updated identically here). *time* is
        # a scheduler grant, so the reserve validation can't fire.
        if size <= self._switch_bpc:
            switch = self.cache_switch
            port = self._switch_ports[target]
            if time < port._last_request:
                port.reorderings += 1
            else:
                port._last_request = time
            next_free = port.next_free
            grant = time if time >= next_free else next_free
            port.next_free = grant + 1
            port.busy_cycles += 1
            port.n_requests += 1
            switch.transfers += 1
            switch.bytes_moved += size
            if grant != time:
                switch.contention_cycles += grant - time
            issue_end = grant + 1
        else:
            issue_end = self._transfer(target, time, size) + 1

        # Tag probe, hit path inlined (see __init__): a hit — the
        # dominant outcome — touches the OrderedDict set and two
        # counters and allocates nothing; only misses pay for the full
        # CacheUnit.access victim/allocation logic.
        inflight = self._inflight
        lines = self._cache_sets[target][
            (line >> self._cset_shift) & self._cset_mask
        ]
        state = lines.get(line)
        if state is not None:
            lines.move_to_end(line)
            cache = self.caches[target]
            if is_store:
                state.dirty = True
                cache.store_hits += 1
            else:
                cache.hits += 1
            kind_index = _LOCAL_HIT if local else _REMOTE_HIT
            complete = issue_end + self._hit_extra[local]
            if inflight:
                fill_key = line * self._n_dcaches + target
                fill_done = inflight.get(fill_key)
                if fill_done is not None:
                    if issue_end < fill_done:
                        # The line is still on its way from memory: the
                        # hit delivers only once the fill lands.
                        complete = fill_done + self._hit_extra[local]
                    else:
                        del inflight[fill_key]
        else:
            result = self._cache_access[target](line, is_store)
            kind_index = _LOCAL_MISS if local else _REMOTE_MISS
            fetch_on_miss = (not is_store) or self._fetch_store_miss
            queue_delay = 0
            if fetch_on_miss:
                bank = self.banks[address_map.bank_of(line)]
                done = bank.read_burst(issue_end)
                queue_delay = done - issue_end - self._burst_cycles
                if self.strict:
                    self._fill_line_buffer(self.caches[target], line)
            victim_line = result.victim_line
            if victim_line is not None:
                inflight.pop(victim_line * self._n_dcaches + target, None)
                if result.victim_dirty:
                    self._write_back(issue_end, victim_line,
                                     result.victim_data)
            if is_store and not fetch_on_miss:
                # Write-validate: the line is allocated dirty; the store
                # itself completes as soon as it issues.
                complete = issue_end
            else:
                complete = issue_end + self._miss_extra[local] + queue_delay
                inflight[line * self._n_dcaches + target] = complete
        self._kind_counts[kind_index] += 1
        kind = _KIND_AT[kind_index]
        if self._trace_enabled:
            self.tracer.emit(time, f"cache{target}", kind.value,
                             f"phys={physical:#x} store={is_store}")
        return _tuple_new(AccessOutcome, (issue_end, complete, kind, target))

    def warm_access(self, quad_id: int, effective: int,
                    is_store: bool) -> None:
        """Untimed tag-state touch: SMARTS-style *functional warming*.

        Sampled simulation's fast-forward executes data movement with
        no clock; if cache contents stopped evolving meanwhile, every
        detailed window would resume against stale tags and bill cold
        misses the continuous run never paid (the bias is worst for
        workloads that re-read what they recently wrote). This keeps
        the tag arrays, LRU order, and dirty bits — and the hit/miss
        counters, which under sampling therefore cover *all*
        instructions — moving without reserving ports, banks, or the
        in-flight table. Dirty victims just drop: outside strict mode
        the data already lives in the backing store.
        """
        ig_byte = effective >> IG_SHIFT
        physical = effective & PHYSICAL_MASK
        line = physical & self._line_mask
        if ig_byte == 0:
            target = quad_id
        else:
            target = self._target_memo.get((ig_byte << IG_SHIFT) | line)
            if target is None:
                target = self.target_cache(ig_byte, physical, quad_id)
        lines = self._cache_sets[target][
            (line >> self._cset_shift) & self._cset_mask
        ]
        state = lines.get(line)
        if state is not None:
            lines.move_to_end(line)
            cache = self.caches[target]
            if is_store:
                state.dirty = True
                cache.store_hits += 1
            else:
                cache.hits += 1
            return
        self._cache_access[target](line, is_store)

    def _write_back(self, time: int, victim_line: int,
                    victim_data: bytes | None) -> None:
        """Queue a dirty victim's burst write on its bank."""
        bank = self.banks[self.address_map.bank_of(victim_line)]
        bank.write_burst(time)
        if victim_data is not None:
            self.backing.write_block(victim_line, victim_data)

    def _fill_line_buffer(self, cache: CacheUnit, line: int) -> None:
        """Strict mode: copy the line's bytes from backing into the cache."""
        state = cache.line(line)
        if state is not None and state.data is not None:
            state.data[:] = self.backing.read_block(
                line, self.config.dcache_line_bytes
            )

    # ------------------------------------------------------------------
    # Functional access (values)
    # ------------------------------------------------------------------
    def load_f64(self, time: int, quad_id: int, effective: int
                 ) -> tuple[AccessOutcome, float]:
        """Timed load of a double, returning its value."""
        outcome = self.access(time, quad_id, effective, 8, is_store=False)
        physical = effective & PHYSICAL_MASK
        if self.strict:
            value = self._strict_read(outcome.cache_id, physical, 8)
        else:
            value = self.backing.load_f64(physical)
        return outcome, value

    def store_f64(self, time: int, quad_id: int, effective: int,
                  value: float) -> AccessOutcome:
        """Timed store of a double."""
        outcome = self.access(time, quad_id, effective, 8, is_store=True)
        physical = effective & PHYSICAL_MASK
        if self.strict:
            self._strict_write(outcome.cache_id, physical, 8, value=value)
        else:
            self.backing.store_f64(physical, value)
        return outcome

    def load_u32(self, time: int, quad_id: int, effective: int
                 ) -> tuple[AccessOutcome, int]:
        """Timed load of a 32-bit word."""
        outcome = self.access(time, quad_id, effective, 4, is_store=False)
        physical = effective & PHYSICAL_MASK
        if self.strict:
            word = self._strict_read(outcome.cache_id, physical, 4)
        else:
            word = self.backing.load_u32(physical)
        return outcome, word

    def store_u32(self, time: int, quad_id: int, effective: int,
                  value: int) -> AccessOutcome:
        """Timed store of a 32-bit word."""
        outcome = self.access(time, quad_id, effective, 4, is_store=True)
        physical = effective & PHYSICAL_MASK
        if self.strict:
            self._strict_write(outcome.cache_id, physical, 4, word=value)
        else:
            self.backing.store_u32(physical, value)
        return outcome

    def atomic_rmw_u32(self, time: int, quad_id: int, effective: int,
                       op: str, operand: int) -> tuple[AccessOutcome, int]:
        """Atomic read-modify-write; returns the *old* value.

        Supported ops: ``add``, ``swap``, ``and``, ``or``. The engine
        serializes all shared-state operations in time order, so the RMW
        is atomic by construction; timing is a store-classified access
        (the line must be owned to modify it).
        """
        outcome = self.access(time, quad_id, effective, 4, is_store=True)
        physical = effective & PHYSICAL_MASK
        old = self.backing.load_u32(physical)
        if op == "add":
            new = (old + operand) & 0xFFFFFFFF
        elif op == "swap":
            new = operand & 0xFFFFFFFF
        elif op == "and":
            new = old & operand
        elif op == "or":
            new = old | operand
        else:
            raise AddressError(f"unknown atomic op {op!r}")
        self.backing.store_u32(physical, new)
        return outcome, old

    # ------------------------------------------------------------------
    # Strict-incoherence data movement
    # ------------------------------------------------------------------
    def _strict_read(self, cache_id: int, physical: int, size: int) -> float | int:
        line = line_address(physical, self.config.dcache_line_bytes)
        state = self.caches[cache_id].line(line)
        offset = physical - line
        if state is None or state.data is None:
            raw = self.backing.read_block(physical, size)
        else:
            raw = bytes(state.data[offset:offset + size])
        if size == 8:
            return struct.unpack("<d", raw)[0]
        return struct.unpack("<I", raw)[0]

    def _strict_write(self, cache_id: int, physical: int, size: int,
                      value: float = 0.0, word: int = 0) -> None:
        line = line_address(physical, self.config.dcache_line_bytes)
        state = self.caches[cache_id].line(line)
        raw = struct.pack("<d", value) if size == 8 else struct.pack("<I", word)
        if state is not None and state.data is not None:
            offset = physical - line
            state.data[offset:offset + size] = raw
        else:
            self.backing.write_block(physical, raw)

    def flush_cache(self, cache_id: int) -> int:
        """Software flush: write dirty lines back; returns #writebacks.

        Host-side (untimed) variant used between runs; the timed
        per-line operations are :meth:`flush_line` and
        :meth:`invalidate_line`.
        """
        dirty = self.caches[cache_id].flush()
        for addr, state in dirty:
            if state.data is not None:
                self.backing.write_block(addr, bytes(state.data))
        return len(dirty)

    def flush_line(self, time: int, quad_id: int,
                   effective: int) -> AccessOutcome:
        """Timed line flush (the `dcbf` idiom): write back and drop.

        Costs a port access plus the hit latency; a dirty line also
        bursts onto its bank. This is the software-coherence primitive
        the paper's OWN-group discipline requires.
        """
        ig_byte, physical = split_effective(effective)
        line = line_address(physical, self.config.dcache_line_bytes)
        target = self.target_cache(ig_byte, physical, quad_id)
        cache = self.caches[target]
        local = target == quad_id
        port_grant = self.cache_switch.transfer(target, time, 8)
        issue_end = port_grant + 1
        row = self.config.latency.mem_local_hit if local \
            else self.config.latency.mem_remote_hit
        complete = issue_end + row[1]
        if self.sanitizer is not None:
            # dcbf writes dirty data back before dropping the line —
            # report it as a writeback so the shadow memory version
            # advances (the cache's own invalidate hook is a discard).
            self.sanitizer.on_flush_line(target, line)
        state = cache.invalidate(line)
        self._inflight.pop(line * self._n_dcaches + target, None)
        if state is not None and state.dirty:
            bank = self.banks[self.address_map.bank_of(line)]
            done = bank.write_burst(complete)
            if state.data is not None:
                self.backing.write_block(line, bytes(state.data))
            complete = done
        kind = AccessKind.LOCAL_HIT if local else AccessKind.REMOTE_HIT
        return AccessOutcome(issue_end, complete, kind, target)

    def invalidate_line(self, time: int, quad_id: int,
                        effective: int) -> AccessOutcome:
        """Timed line invalidate (drop without writeback): `dcbi`.

        The reader-side half of the software-coherence protocol; any
        dirty data in the line is *discarded*, as on real hardware.
        """
        ig_byte, physical = split_effective(effective)
        line = line_address(physical, self.config.dcache_line_bytes)
        target = self.target_cache(ig_byte, physical, quad_id)
        local = target == quad_id
        port_grant = self.cache_switch.transfer(target, time, 8)
        issue_end = port_grant + 1
        row = self.config.latency.mem_local_hit if local \
            else self.config.latency.mem_remote_hit
        self.caches[target].invalidate(line)
        self._inflight.pop(line * self._n_dcaches + target, None)
        kind = AccessKind.LOCAL_HIT if local else AccessKind.REMOTE_HIT
        return AccessOutcome(issue_end, issue_end + row[1], kind, target)

    # ------------------------------------------------------------------
    # Scratchpad (partitioned fast memory)
    # ------------------------------------------------------------------
    def scratchpad_access(self, time: int, quad_id: int, cache_id: int,
                          size: int) -> AccessOutcome:
        """Timed access to a cache's scratchpad region (local-hit cost)."""
        port_grant = self.cache_switch.transfer(cache_id, time, size)
        issue_end = port_grant + 1
        local = cache_id == quad_id
        row = self.config.latency.mem_local_hit if local \
            else self.config.latency.mem_remote_hit
        self._kind_counts[_SCRATCHPAD] += 1
        return AccessOutcome(issue_end, issue_end + row[1],
                             AccessKind.SCRATCHPAD, cache_id)

    # ------------------------------------------------------------------
    # Statistics & reset
    # ------------------------------------------------------------------
    @property
    def memory_traffic_bytes(self) -> int:
        """Total bytes moved in/out of the embedded banks."""
        return sum(bank.bytes_total for bank in self.banks)

    def reset_timing(self) -> None:
        """Clear all busy timelines and counters; keep tags and data."""
        for bank in self.banks:
            bank.reset_counters()
        for cache in self.caches:
            cache.reset_counters()
        self.cache_switch.reset()
        self.offchip.engine.reset()
        self._inflight.clear()
        self._kind_counts = [0] * len(_KIND_ORDER)

    def cold_caches(self) -> None:
        """Drop every cached line (cold-start between experiments)."""
        for cache_id in range(len(self.caches)):
            self.flush_cache(cache_id)
