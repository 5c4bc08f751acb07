"""Tests for repro.pdes: partitioning, exactness, crashes, sharding.

The load-bearing assertions are the differential ones: a partitioned
run must leave behind *byte-identical* state — final time, memory
images, per-thread counters, link traffic — to the serial engine, or
the subsystem has no business existing (see docs/parallel-sim.md).
"""

import os

import pytest

from repro.config import ChipConfig
from repro.errors import PdesError
from repro.jobs import JobRunner
from repro.pdes import CellProgram, PartitionMap
from repro.pdes.domain import CRASH_ENV, crash_injection_target
from repro.pdes.quadsplit import run_stream_sharded, split_config
from repro.system.halo import HaloParams, run_halo
from repro.system.multichip import _Mailbox, _Message
from repro.system.topology import Topology
from repro.workloads.stream import StreamParams

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")


def _small_config() -> ChipConfig:
    from dataclasses import replace

    return replace(ChipConfig.small(), bank_bytes=64 * 1024)


# ---------------------------------------------------------------------------
# Mailbox determinism
# ---------------------------------------------------------------------------
class TestMailboxOrder:
    def _message(self, arrival, send_time, src_index, seq) -> _Message:
        return _Message(arrival, send_time, src_index, seq,
                        src=(src_index, 0, 0), payload=b"x")

    def test_drain_order_ignores_post_interleaving(self):
        """The transport may land messages in any host-side order; the
        drain order is (arrival, send time, sender, sequence) always."""
        a = self._message(20, 5, 1, 0)
        b = self._message(10, 9, 0, 0)
        c = self._message(10, 2, 3, 0)
        d = self._message(10, 2, 2, 0)
        for posting in ([a, b, c, d], [d, c, b, a], [b, d, a, c]):
            box = _Mailbox()
            for message in posting:
                box.post(message)
            assert box.drain_order() == [d, c, b, a]

    def test_select_takes_the_smallest_deliverable_key(self):
        box = _Mailbox()
        late = self._message(50, 1, 0, 0)
        early = self._message(10, 8, 1, 0)
        box.post(late)
        box.post(early)
        # Only `early` has arrived by t=20.
        assert box.select(20, None) is early
        # At t=60 both are deliverable; arrival order wins.
        assert box.select(60, None) is early
        # A sender filter restricts the candidates.
        assert box.select(60, 0) is late
        assert box.select(60, 7) is None

    def test_same_channel_messages_drain_in_send_order(self):
        box = _Mailbox()
        first = self._message(30, 4, 0, 0)
        second = self._message(30, 4, 0, 1)
        box.post(second)
        box.post(first)
        assert box.drain_order() == [first, second]


# ---------------------------------------------------------------------------
# Partition map
# ---------------------------------------------------------------------------
class TestPartition:
    def test_balanced_contiguous_slabs(self):
        partition = PartitionMap(Topology(4, 2, 1), 2, lookahead=11)
        assert [partition.domain_of((x, y, 0)) for y in (0, 1)
                for x in range(4)] == [0, 0, 0, 0, 1, 1, 1, 1]
        assert partition.lookahead == 11

    def test_rejects_impossible_partitions(self):
        with pytest.raises(PdesError):
            PartitionMap(Topology(2, 1, 1), 3, lookahead=11)
        with pytest.raises(PdesError):
            PartitionMap(Topology(2, 1, 1), 1, lookahead=11)
        with pytest.raises(PdesError):
            PartitionMap(Topology(2, 1, 1), 2, lookahead=0)

    def test_channels_follow_link_adjacency(self):
        partition = PartitionMap(Topology(2, 2, 1), 2, lookahead=11)
        assert partition.in_channels(0) == [1]
        assert partition.out_channels(0) == [1]

    def test_cross_domain_route_ownership(self):
        partition = PartitionMap(Topology(2, 2, 1), 2, lookahead=11)
        # (0,0)->(0,1) uses only the sender's +y link: fine.
        partition.check_route((0, 0, 0), (0, 1, 0))
        # (0,0)->(1,1) would hop through (1,0)'s +y link under x-major
        # dimension-ordered routing — still domain 0's, so fine too.
        partition.check_route((0, 0, 0), (1, 1, 0))
        # (0,1)->(1,0): x-first leaves via (0,1)'s +x link then drops
        # through (1,1)'s -y link; both domain 1's. Reverse of a route
        # that crosses early would raise.
        partition.check_route((0, 1, 0), (1, 0, 0))


# ---------------------------------------------------------------------------
# Differential: parallel must equal serial, byte for byte
# ---------------------------------------------------------------------------
class TestDifferential:
    def _compare(self, serial, parallel) -> None:
        assert parallel.system.pdes_fallback_reason is None
        assert parallel.system.pdes_stats is not None
        assert parallel.cycles == serial.cycles
        assert parallel.verified and serial.verified
        assert parallel.link_bytes == serial.link_bytes
        s_sys, p_sys = serial.system, parallel.system
        assert p_sys.scheduler.now == s_sys.scheduler.now
        assert p_sys.blackboard == s_sys.blackboard
        for s_chip, p_chip in zip(s_sys.chips, p_sys.chips):
            size = s_chip.memory.backing.size
            assert p_chip.memory.backing.read_block(0, size) == \
                s_chip.memory.backing.read_block(0, size)
            for s_tu, p_tu in zip(s_chip.threads, p_chip.threads):
                assert vars(p_tu.counters) == vars(s_tu.counters)
                assert p_tu.issue_time == s_tu.issue_time

    def test_2x2_halo_exchange_byte_identical(self):
        params = HaloParams(n_chips=4, band_elements=48, iterations=3,
                            threads_per_chip=2, mesh_ny=2)
        config = _small_config()
        serial = run_halo(params, config)
        parallel = run_halo(params, config, domains=2)
        self._compare(serial, parallel)
        stats = parallel.system.pdes_stats
        assert stats["domains"] == 2
        assert stats["messages"] > 0

    def test_quad_sharded_stream_pooled_equals_inline(self):
        params = StreamParams(kernel="triad", n_elements=256, n_threads=8,
                              independent=True, verify=True)
        config = ChipConfig.small()
        inline = run_stream_sharded(params, config, shards=2)
        pooled = run_stream_sharded(params, config, shards=2,
                                    runner=JobRunner(n_workers=2))
        assert inline.shard_values == pooled.shard_values
        assert pooled.cycles == inline.cycles
        assert pooled.verified


# ---------------------------------------------------------------------------
# Fallbacks and crash recovery
# ---------------------------------------------------------------------------
class TestFallback:
    def test_serial_fallback_when_partition_impossible(self):
        params = HaloParams(n_chips=2, band_elements=32, iterations=1,
                            threads_per_chip=2)
        result = run_halo(params, _small_config(), domains=7)
        assert result.verified
        reason = result.system.pdes_fallback_reason
        assert reason is not None and "7" in reason

    def test_closure_built_system_falls_back_with_reason(self):
        from repro.system.multichip import MultiChipSystem
        from repro.system.topology import Topology as T

        system = MultiChipSystem(T(2, 1, 1), _small_config())
        system.run(domains=2)
        assert "CellProgram" in system.pdes_fallback_reason

    def test_crash_env_spelling(self, monkeypatch):
        """CYCLOPS_PDES_INJECT_CRASH selects the domain, warning-free."""
        monkeypatch.delenv(CRASH_ENV, raising=False)
        assert crash_injection_target() is None

        monkeypatch.setenv(CRASH_ENV, "3")
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert crash_injection_target() == "3"

    def test_killed_domain_degrades_to_serial_with_clear_error(
            self, monkeypatch):
        """A domain that dies mid-protocol is retried once, then the
        run degrades to the serial engine — correct results, recorded
        reason."""
        monkeypatch.setenv(CRASH_ENV, "1")
        params = HaloParams(n_chips=2, band_elements=32, iterations=2,
                            threads_per_chip=2)
        result = run_halo(params, _small_config(), domains=2)
        assert result.verified  # the serial fallback still ran it
        reason = result.system.pdes_fallback_reason
        assert "2 failed attempt(s)" in reason
        assert "exit code" in reason

    def test_crash_env_cleared_recovers_on_retry(self, monkeypatch):
        """The retry machinery itself: first attempt crashes, and with
        the injection gone the second attempt must succeed in parallel.
        """
        params = HaloParams(n_chips=2, band_elements=32, iterations=2,
                            threads_per_chip=2)
        config = _small_config()
        serial = run_halo(params, config)

        import repro.pdes as pdes

        real_coordinator = pdes.Coordinator
        attempts = []

        class FlakyCoordinator(real_coordinator):
            def run(self):
                attempts.append(1)
                if len(attempts) == 1:
                    os.environ[CRASH_ENV] = "0"
                else:
                    os.environ.pop(CRASH_ENV, None)
                try:
                    return super().run()
                finally:
                    os.environ.pop(CRASH_ENV, None)

        monkeypatch.setattr(pdes, "Coordinator", FlakyCoordinator)
        parallel = run_halo(params, config, domains=2)
        assert len(attempts) == 2
        assert parallel.system.pdes_fallback_reason is None
        assert parallel.system.pdes_stats["retries"] == 1
        assert parallel.cycles == serial.cycles

    def test_quad_shard_worker_crash_respawns(self, monkeypatch):
        """The jobs pool's fault tolerance carries over to quad shards:
        a worker killed on first dispatch respawns and the shard
        retries to an identical result."""
        monkeypatch.setenv("REPRO_JOBS_INJECT_CRASH", "0")
        params = StreamParams(kernel="copy", n_elements=128, n_threads=4,
                              independent=True, verify=True)
        config = ChipConfig.small()
        runner = JobRunner(n_workers=2, retries=2)
        pooled = run_stream_sharded(params, config, shards=2,
                                    runner=runner)
        monkeypatch.delenv("REPRO_JOBS_INJECT_CRASH")
        inline = run_stream_sharded(params, config, shards=2)
        assert runner.stats["respawns"] >= 1
        assert pooled.shard_values == inline.shard_values


# ---------------------------------------------------------------------------
# Program-as-data and config sharding
# ---------------------------------------------------------------------------
class TestProgramAndSplit:
    def test_cell_program_roundtrip(self):
        program = CellProgram(nx=4, ny=2, torus=True,
                              setup="repro.system.halo:halo_setup",
                              payload={"n_chips": 8})
        again = CellProgram.from_dict(program.to_dict())
        assert again == program

    def test_split_config_divides_threads_and_banks(self):
        config = ChipConfig.small()
        sub = split_config(config, 2)
        assert sub.n_threads == config.n_threads // 2
        assert sub.n_memory_banks == config.n_memory_banks // 2
        assert sub.reserved_threads == 0

    def test_split_config_rejects_ragged_shards(self):
        with pytest.raises(PdesError):
            split_config(ChipConfig.small(), 3)

    def test_sharding_requires_independent_mode(self):
        params = StreamParams(kernel="triad", n_elements=64, n_threads=4,
                              independent=False)
        with pytest.raises(PdesError):
            run_stream_sharded(params, ChipConfig.small(), shards=2)
