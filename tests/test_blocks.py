"""Tests for the dispatch-table builder (repro.isa.blocks).

The golden/differential suites prove fused blocks are cycle-exact
against 1-instruction blocks; these tests pin the machinery itself:
block formation rules, the table layout, compile caches that survive
alternating latency tables, both ways to select per-instruction
dispatch, mid-block entry through ``jr``, and the telemetry counters.
"""

import pytest

from repro.config import ChipConfig
from repro.core.chip import Chip
from repro.isa.assembler import assemble
from repro.isa.blocks import block_spans, compile_blocks
from repro.isa.interpreter import Interpreter
from repro.telemetry import ChipInstrumentation

_WINDOW = 64  # pib_entries (16) * word_bytes (4)


def _table(program, lat=None, window=_WINDOW):
    lat = lat if lat is not None else ChipConfig().latency
    return compile_blocks(program, lat, window)


def _names(table):
    """Generated function name of every entry, ``_blk_<start>_<end>``."""
    return [fn.__name__ for _, fn in table.entries]


# ---------------------------------------------------------------------------
# Block formation
# ---------------------------------------------------------------------------
def test_spans_cut_at_branches_and_halt():
    program = assemble(
        "addi r3, r0, 8\n"
        "loop:\n"
        "addi r3, r3, -1\n"
        "bne r3, r0, loop\n"
        "addi r4, r0, 7\n"
        "halt\n"
    )
    # Leaders: entry, the branch target, and the branch fall-through.
    assert block_spans(program, _WINDOW) == [(0, 1), (1, 3), (3, 5)]


def test_spans_never_cross_pib_windows():
    # 20 straight-line instructions: the 64-byte window (16 slots at
    # base 0) must split them even with no branch in sight.
    program = assemble("addi r3, r3, 1\n" * 20 + "halt\n")
    spans = block_spans(program, _WINDOW)
    assert spans == [(0, 16), (16, 21)]
    for start, end in spans:
        first = program.address_of(start) // _WINDOW
        last = program.address_of(end - 1) // _WINDOW
        assert first == last, f"block {start}:{end} crosses a window"


def test_generators_stay_inside_blocks():
    # Loads and FPU ops do not end a block: the whole straight-line
    # run (here: the body of the triad loop) fuses into one entry.
    program = assemble(
        "ld r12, 0(r4)\n"
        "fadd r12, r12, r12\n"
        "sd r12, 0(r6)\n"
        "addi r4, r4, 8\n"
        "halt\n"
    )
    assert block_spans(program, _WINDOW) == [(0, 5)]
    lat = ChipConfig().latency
    table = _table(program, lat)
    assert table.n_fused == 1
    assert table.lengths == [5]
    # The leader runs the fused block; non-leader slots keep their
    # 1-instruction blocks, as in the per-instruction table.
    assert _names(table) == ["_blk_0_5", "_blk_1_2", "_blk_2_3",
                             "_blk_3_4", "_blk_4_5"]
    assert _names(compile_blocks(program, lat)) == [
        f"_blk_{i}_{i + 1}" for i in range(5)]


def test_lone_plain_instruction_keeps_handler():
    # Single-instruction blocks (created here by the jump, its target
    # and the fall-through) are already their own 1-instruction blocks:
    # nothing fuses, and each is compiled once.
    program = assemble(
        "j skip\n"
        "addi r3, r3, 1\n"
        "skip:\n"
        "halt\n"
    )
    table = _table(program)
    assert table.n_fused == 0
    assert _names(table) == ["_blk_0_1", "_blk_1_2", "_blk_2_3"]
    assert table.source.count("def ") == 3


# ---------------------------------------------------------------------------
# Caches (the satellite fix: no thrash when two latency tables alternate)
# ---------------------------------------------------------------------------
def test_compile_caches_survive_alternating_latency_tables():
    program = assemble("addi r3, r0, 1\nhalt\n")
    lat_a = ChipConfig().latency
    lat_b = ChipConfig().latency
    singles_a = compile_blocks(program, lat_a)
    singles_b = compile_blocks(program, lat_b)
    assert singles_a is not singles_b
    table_a = _table(program, lat_a)
    table_b = _table(program, lat_b)
    assert table_a is not table_b
    assert table_a is not singles_a
    for _ in range(3):
        assert compile_blocks(program, lat_a) is singles_a
        assert compile_blocks(program, lat_b) is singles_b
        assert _table(program, lat_a) is table_a
        assert _table(program, lat_b) is table_b


# ---------------------------------------------------------------------------
# Fallback switches
# ---------------------------------------------------------------------------
def test_kwarg_disables_block_dispatch():
    # sanitize=False pins a clean chip even when the suite itself runs
    # under CYCLOPS_SANITIZE=1.
    chip = Chip(sanitize=False)
    assert Interpreter(chip).block_dispatch is True
    assert Interpreter(chip, block_dispatch=False).block_dispatch is False


def test_sanitizer_forces_per_instruction_dispatch():
    # The sanitizer's pc_of facade needs state.pc to name the
    # instruction in flight, so a sanitized chip runs 1-instruction
    # blocks — and still produces the same cycles as block dispatch on
    # a clean chip.
    source = (
        "addi r4, r0, 2048\n"
        "addi r3, r0, 7\n"
        "sw r3, 0(r4)\n"
        "lw r5, 0(r4)\n"
        "add r5, r5, r3\n"
        "halt\n"
    )
    sanitized = Chip(sanitize=True)
    interp = Interpreter(sanitized)
    assert interp.block_dispatch is False
    state = interp.add_thread(0, assemble(source))
    cycles = interp.run()

    reference = Interpreter(Chip(sanitize=False))
    assert reference.block_dispatch is True
    ref_state = reference.add_thread(0, assemble(source))
    assert reference.run() == cycles
    assert ref_state.regs.read(5) == state.regs.read(5) == 14


# ---------------------------------------------------------------------------
# Mid-block entry through jr
# ---------------------------------------------------------------------------
def test_jr_into_block_interior():
    # A computed jr lands on a pc that no static branch targets, i.e.
    # the *interior* of a fused block. The interior pc keeps its
    # 1-instruction block, so execution resumes there and rejoins
    # block dispatch at the next leader — with timing identical to
    # per-instruction dispatch.
    source = (
        "addi r2, r0, 16\n"   # byte address of `target` below
        "jr r2\n"
        "addi r3, r3, 100\n"  # skipped; fall-through leader
        "addi r3, r3, 200\n"  # skipped
        "addi r4, r4, 1\n"    # `target`: interior of block [2..5]
        "addi r4, r4, 2\n"
        "halt\n"
    )

    def run(block_dispatch):
        chip = Chip(sanitize=False)
        interp = Interpreter(chip, model_fetch=False,
                             block_dispatch=block_dispatch)
        state = interp.add_thread(0, assemble(source))
        cycles = interp.run()
        return cycles, state.regs.read(3), state.regs.read(4)

    program = assemble(source)
    spans = block_spans(program, _WINDOW)
    assert (2, 7) in spans or any(s < 4 < e - 1 for s, e in spans), spans
    threaded, blocks = run(False), run(True)
    assert threaded == blocks
    assert blocks[1:] == (0, 3)  # skipped the r3 adds, ran the r4 adds


# ---------------------------------------------------------------------------
# Telemetry
# ---------------------------------------------------------------------------
def test_block_metrics_published():
    chip = Chip(sanitize=False)
    inst = ChipInstrumentation(chip)
    chip.telemetry = inst
    program = assemble(
        "addi r3, r0, 4\n"
        "loop:\n"
        "addi r3, r3, -1\n"
        "addi r4, r4, 1\n"
        "bne r3, r0, loop\n"
        "halt\n"
    )
    interp = Interpreter(chip, model_fetch=False)
    interp.add_thread(0, program)
    interp.run()
    snap = inst.registry.snapshot()
    # One fused block: the 3-instruction loop body. The lone entry
    # addi and the halt are 1-instruction blocks, never fused.
    assert snap["counters"]["engine.blocks.compiled"] == 1
    # entry once, loop body four times, halt once.
    assert snap["counters"]["engine.blocks.dispatches"] == 6
    hist = snap["histograms"]["engine.blocks.length"]
    assert hist["count"] == 1

    # A fresh interpreter re-publishes its own table exactly once.
    interp2 = Interpreter(chip, model_fetch=False)
    interp2.add_thread(1, program)
    interp2.run()
    snap = inst.registry.snapshot()
    assert snap["counters"]["engine.blocks.compiled"] == 2
    assert snap["counters"]["engine.blocks.dispatches"] == 12


def test_no_metrics_without_instrumentation():
    chip = Chip(sanitize=False)
    interp = Interpreter(chip, model_fetch=False)
    interp.add_thread(0, assemble("addi r3, r0, 1\nhalt\n"))
    interp.run()  # must not raise; chip.telemetry is None
    assert interp._block_dispatched > 0
