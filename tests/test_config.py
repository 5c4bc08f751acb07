"""Tests for the chip configuration (geometry, peak rates, validation)."""

import dataclasses

import pytest

from repro.config import ChipConfig, LatencyTable
from repro.errors import ConfigError


class TestPaperDesignPoint:
    def test_thread_hierarchy(self):
        cfg = ChipConfig.paper()
        assert cfg.n_threads == 128
        assert cfg.threads_per_quad == 4
        assert cfg.n_quads == 32
        assert cfg.n_fpus == 32
        assert cfg.n_dcaches == 32
        assert cfg.n_icaches == 16

    def test_memory_geometry(self):
        cfg = ChipConfig.paper()
        assert cfg.n_memory_banks == 16
        assert cfg.bank_bytes == 512 * 1024
        assert cfg.memory_bytes == 8 * 1024 * 1024
        assert cfg.dcache_bytes == 16 * 1024
        assert cfg.dcache_total_bytes == 512 * 1024
        assert cfg.dcache_sets == 32  # 16 KB / (64 B * 8 ways)

    def test_peak_memory_bandwidth_is_papers_42_gb_s(self):
        cfg = ChipConfig.paper()
        assert cfg.peak_memory_bandwidth == pytest.approx(42.7e9, rel=0.01)

    def test_peak_cache_bandwidth_is_papers_128_gb_s(self):
        cfg = ChipConfig.paper()
        assert cfg.peak_cache_bandwidth == pytest.approx(128e9)

    def test_peak_flops_is_papers_32_gflops(self):
        cfg = ChipConfig.paper()
        assert cfg.peak_flops == pytest.approx(32e9)

    def test_four_hardware_barriers(self):
        assert ChipConfig.paper().n_barriers == 4

    def test_126_usable_threads(self):
        assert ChipConfig.paper().usable_threads == 126


class TestLatencyTable:
    def test_values_match_table_2(self):
        lat = LatencyTable()
        assert lat.branch == (2, 0)
        assert lat.int_multiply == (1, 5)
        assert lat.int_divide == (33, 0)
        assert lat.fp_add == (1, 5)
        assert lat.fp_divide == (30, 0)
        assert lat.fp_sqrt == (56, 0)
        assert lat.fp_multiply_add == (1, 9)
        assert lat.mem_local_hit == (1, 6)
        assert lat.mem_local_miss == (1, 24)
        assert lat.mem_remote_hit == (1, 17)
        assert lat.mem_remote_miss == (1, 36)
        assert lat.other == (1, 0)

    def test_issue_to_use(self):
        lat = LatencyTable()
        assert lat.issue_to_use("fp_multiply_add") == 10
        assert lat.issue_to_use("mem_local_hit") == 7
        assert lat.issue_to_use("int_divide") == 33


class TestValidation:
    def test_threads_must_divide_into_quads(self):
        with pytest.raises(ConfigError):
            ChipConfig(n_threads=130)

    def test_quads_must_divide_into_icaches(self):
        with pytest.raises(ConfigError):
            ChipConfig(n_threads=12, quads_per_icache=2)

    def test_line_size_power_of_two(self):
        with pytest.raises(ConfigError):
            ChipConfig(dcache_line_bytes=48)

    def test_set_count_power_of_two(self):
        # 24 KB of 64-byte lines in 8 ways is 48 sets.
        with pytest.raises(ConfigError, match="set count 48"):
            ChipConfig(dcache_bytes=24 * 1024)

    def test_banks_power_of_two(self):
        with pytest.raises(ConfigError):
            ChipConfig(n_memory_banks=12)

    def test_reserved_threads_bounded(self):
        with pytest.raises(ConfigError):
            ChipConfig(reserved_threads=128)

    def test_burst_is_two_blocks(self):
        with pytest.raises(ConfigError):
            ChipConfig(burst_bytes=96)

    def test_memory_fits_24_bit_space(self):
        with pytest.raises(ConfigError):
            ChipConfig(n_memory_banks=64, bank_bytes=512 * 1024)


class TestDerivation:
    def test_with_threads_scales_quads(self):
        cfg = ChipConfig.paper().with_threads(64)
        assert cfg.n_quads == 16
        assert cfg.n_fpus == 16

    def test_with_sharing_changes_degree(self):
        cfg = ChipConfig.paper().with_sharing(8)
        assert cfg.n_quads == 16
        assert cfg.threads_per_quad == 8

    def test_with_store_miss_fetch(self):
        cfg = ChipConfig.paper().with_store_miss_fetch(True)
        assert cfg.store_miss_fetches_line

    def test_small_config_valid(self):
        cfg = ChipConfig.small()
        assert cfg.n_threads == 16
        assert cfg.n_quads == 4
        cfg.validate()

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            ChipConfig.paper().n_threads = 1
