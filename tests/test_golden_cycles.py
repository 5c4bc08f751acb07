"""Golden cycle-count regression tests.

The engine fast paths (calendar-queue scheduling, generated-block
dispatch, allocation-free memory accesses) are host-side only: they
must not move a single simulated cycle. These tests pin the **exact**
final cycle counts of representative runs — Table 2 microbenchmark
chains through the ISA interpreter, and the paper workloads through the
direct-execution runtime — so any change that shifts timing, however
plausible, fails loudly instead of silently redrawing the figures.

If one of these numbers changes, the change is either a timing-model fix
(update the golden *and* say why in the commit) or a fast-path bug
(fix the fast path).
"""

import pytest

from repro.config import ChipConfig
from repro.core.chip import Chip
from repro.isa.assembler import assemble
from repro.isa.interpreter import Interpreter
from repro.workloads.fft import FFTParams, run_fft
from repro.workloads.radix import RadixParams, run_radix
from repro.workloads.stream import StreamParams, run_stream


# ---------------------------------------------------------------------------
# Table 2 microbenchmark chains (ISA interpreter)
#
# Each case is a dependent 8-instruction chain (plus setup) so the
# pinned number exercises issue, scoreboard and latency together:
# (name, setup, repeated body, model_fetch, (final_cycle, max_ready)).
# ---------------------------------------------------------------------------
_CHAINS = [
    ("alu", "addi r3, r0, 3\naddi r4, r0, 1", "add r3, r3, r4",
     False, (11, 10)),
    ("mul", "addi r3, r0, 3\naddi r4, r0, 7", "mul r3, r3, r4",
     False, (46, 50)),
    ("div", "addi r3, r0, 1000\naddi r4, r0, 1", "div r3, r3, r4",
     False, (267, 266)),
    ("fadd", "addi r3, r0, 1\ncvtif r10, r3\ncvtif r12, r3",
     "fadd r10, r10, r12", False, (52, 56)),
    ("fmadd",
     "addi r3, r0, 1\ncvtif r10, r3\ncvtif r12, r3\ncvtif r14, r3",
     "fmadd r10, r12, r14", False, (81, 89)),
    ("fsqrt", "addi r3, r0, 1\ncvtif r10, r3", "fsqrt r12, r10",
     False, (456, 455)),
]


#: Both dispatch modes must land on the same goldens: fused blocks
#: (repro.isa.blocks) are a host-side optimization over 1-instruction
#: blocks ("threaded", the per-instruction mode).
_DISPATCHERS = pytest.mark.parametrize(
    "block_dispatch", [False, True], ids=["threaded", "blocks"]
)


@_DISPATCHERS
@pytest.mark.parametrize(
    "setup,body,model_fetch,golden",
    [case[1:] for case in _CHAINS],
    ids=[case[0] for case in _CHAINS],
)
def test_isa_chain_goldens(setup, body, model_fetch, golden,
                           block_dispatch):
    source = setup + "\n" + "\n".join([body] * 8) + "\nhalt\n"
    chip = Chip(ChipConfig())
    interpreter = Interpreter(chip, model_fetch=model_fetch,
                              block_dispatch=block_dispatch)
    state = interpreter.add_thread(0, assemble(source))
    final = interpreter.run()
    assert (final, max(state.ready)) == golden


@_DISPATCHERS
def test_pointer_chase_golden(block_dispatch):
    """Dependent loads with instruction fetch modeled (PIB + I-cache)."""
    chip = Chip(ChipConfig())
    base = 0x800
    for i in range(16):
        chip.memory.backing.store_u32(
            base + 4 * i, base + 4 * ((i + 1) % 16)
        )
    source = "addi r5, r0, 2048\n" + "lw r5, 0(r5)\n" * 9 + "halt\n"
    interpreter = Interpreter(chip, model_fetch=True,
                              block_dispatch=block_dispatch)
    state = interpreter.add_thread(0, assemble(source))
    final = interpreter.run()
    assert (final, max(state.ready)) == (101, 106)


# ---------------------------------------------------------------------------
# Workload goldens (direct-execution runtime)
# ---------------------------------------------------------------------------
def test_stream_triad_block_golden():
    result = run_stream(StreamParams(
        kernel="triad", n_elements=512, n_threads=8, partition="block",
    ))
    assert result.cycles == 2259


def test_stream_triad_cyclic_golden():
    result = run_stream(StreamParams(
        kernel="triad", n_elements=512, n_threads=8, partition="cyclic",
    ))
    assert result.cycles == 2253


#: 126-thread triad at 64 elements per thread (so the auto warm-up pass
#: runs): every thread resumes at the same cycles, which makes these the
#: densest same-cycle tie groups the event queue sees. Each golden is
#: (cycles, retired instructions, kind_counts by AccessKind value,
#: cache-switch contention cycles).
_STREAM126 = [
    ("blocked", {"partition": "block"},
     (2507, 192190,
      {"local_hit": 1558, "local_miss": 106, "remote_hit": 43724,
       "remote_miss": 2996, "scratchpad": 0}, 10833)),
    ("local", {"partition": "block", "local_caches": True},
     (1607, 192330,
      {"local_hit": 45360, "local_miss": 3024, "remote_hit": 0,
       "remote_miss": 0, "scratchpad": 0}, 15498)),
    ("cyclic", {"partition": "cyclic"},
     (3068, 165102,
      {"local_hit": 1428, "local_miss": 88, "remote_hit": 43908,
       "remote_miss": 2960, "scratchpad": 0}, 42880)),
]


@pytest.mark.parametrize(
    "mode,golden", [case[1:] for case in _STREAM126],
    ids=[case[0] for case in _STREAM126],
)
def test_stream_triad_126_thread_golden(mode, golden):
    chip = Chip()
    result = run_stream(StreamParams(
        kernel="triad", n_elements=64 * 126, n_threads=126, **mode,
    ), chip=chip)
    assert result.verified
    memory = chip.memory
    observed = (
        result.cycles,
        sum(tu.counters.instructions for tu in chip.threads),
        {kind.value: n for kind, n in memory.kind_counts.items()},
        memory.cache_switch.contention_cycles,
    )
    assert observed == golden


def test_fft_hw_barrier_golden():
    result = run_fft(FFTParams(n_points=256, n_threads=4, barrier="hw"))
    assert result.total_cycles == 27100


def test_fft_sw_barrier_golden():
    result = run_fft(FFTParams(n_points=256, n_threads=4, barrier="sw"))
    assert result.total_cycles == 27136


def test_radix_golden():
    result = run_radix(RadixParams(n_keys=512, n_threads=4))
    assert result.cycles == 16831


def test_split_phase_context_matches_generator_ops():
    """The split-phase STREAM loop equals the generator-method timing.

    ``op_begin`` + ``*_finish`` must be event-for-event identical to
    ``yield from ctx.load_f64(...)``; the pinned triad goldens above
    were captured with the generator methods before the split.
    """
    block = run_stream(StreamParams(
        kernel="triad", n_elements=512, n_threads=8, partition="block",
    ))
    scale = run_stream(StreamParams(
        kernel="scale", n_elements=512, n_threads=8, partition="block",
    ))
    add = run_stream(StreamParams(
        kernel="add", n_elements=512, n_threads=8, partition="block",
    ))
    copy = run_stream(StreamParams(
        kernel="copy", n_elements=512, n_threads=8, partition="block",
    ))
    assert (block.cycles, scale.cycles, add.cycles, copy.cycles) == \
        (2259, 1925, 1988, 1539)
