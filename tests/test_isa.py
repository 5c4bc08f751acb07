"""Tests for the ISA layer: registers, encoding, assembler, builder,
and the timed interpreter."""

import pytest
from hypothesis import given, strategies as st

from repro.config import ChipConfig
from repro.core.chip import Chip
from repro.errors import AssemblerError, EncodingError, ExecutionError, IsaError
from repro.isa import (
    Builder,
    Interpreter,
    Program,
    assemble,
    decode_instruction,
    encode_instruction,
)
from repro.isa.instruction import Instruction
from repro.isa.opcodes import (
    N_INSTRUCTION_TYPES,
    OPCODES,
    Format,
    opcode,
)
from repro.isa.registers import REG_ZERO, RegisterFile


class TestOpcodeTable:
    def test_about_60_instruction_types(self):
        """The paper: 'about 60 instruction types'."""
        assert 55 <= N_INSTRUCTION_TYPES <= 75

    def test_all_names_unique_codes(self):
        codes = [op.code for op in OPCODES.values()]
        assert len(codes) == len(set(codes))

    def test_multithreading_additions_present(self):
        """Atomics and synchronization instructions (Section 2)."""
        for name in ("amoadd", "amoswap", "amoand", "amoor", "sync",
                     "mtspr", "mfspr"):
            assert name in OPCODES

    def test_unknown_mnemonic(self):
        with pytest.raises(IsaError):
            opcode("bogus")

    def test_latency_rows_resolve(self):
        cfg = ChipConfig.paper()
        for op in OPCODES.values():
            if op.latency_row != "memory":
                assert hasattr(cfg.latency, op.latency_row)


class TestRegisterFile:
    def test_r0_reads_zero(self):
        regs = RegisterFile()
        regs.write(REG_ZERO, 42)
        assert regs.read(REG_ZERO) == 0

    def test_values_wrap_32_bits(self):
        regs = RegisterFile()
        regs.write(5, 2**32 + 3)
        assert regs.read(5) == 3

    def test_signed_read(self):
        regs = RegisterFile()
        regs.write(5, 0xFFFFFFFF)
        assert regs.read_signed(5) == -1

    def test_double_pairing(self):
        regs = RegisterFile()
        regs.write_double(10, 3.25)
        assert regs.read_double(10) == 3.25
        # The pair occupies two physical words.
        assert regs.read(10) != 0 or regs.read(11) != 0

    def test_double_must_be_even(self):
        regs = RegisterFile()
        with pytest.raises(ExecutionError):
            regs.write_double(11, 1.0)

    def test_out_of_range(self):
        with pytest.raises(ExecutionError):
            RegisterFile().read(64)

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_double_roundtrip_property(self, value):
        regs = RegisterFile()
        regs.write_double(20, value)
        assert regs.read_double(20) == value


class TestEncoding:
    def test_roundtrip_specific(self):
        inst = Instruction(opcode("addi"), rd=3, ra=7, imm=-100)
        assert decode_instruction(encode_instruction(inst)) == inst

    def test_negative_immediates(self):
        inst = Instruction(opcode("beq"), ra=1, rb=2, imm=-4)
        decoded = decode_instruction(encode_instruction(inst))
        assert decoded.imm == -4

    def test_immediate_overflow(self):
        with pytest.raises(IsaError):
            Instruction(opcode("addi"), rd=1, ra=1, imm=5000)

    def test_unknown_opcode_word(self):
        with pytest.raises(EncodingError):
            decode_instruction(127 << 25)

    @given(st.sampled_from(sorted(OPCODES)), st.integers(0, 63),
           st.integers(0, 63), st.integers(0, 63),
           st.integers(-(1 << 12), (1 << 12) - 1))
    def test_roundtrip_property(self, name, rd, ra, rb, imm):
        op = OPCODES[name]
        kwargs = {}
        if op.fmt in (Format.R, Format.S):
            kwargs = dict(rd=rd, ra=ra, rb=rb)
        elif op.fmt in (Format.I, Format.M):
            kwargs = dict(rd=rd, ra=ra, imm=imm)
        elif op.fmt is Format.B:
            kwargs = dict(ra=ra, rb=rb, imm=imm)
        else:
            kwargs = dict(imm=abs(imm))
        inst = Instruction(op, **kwargs)
        assert decode_instruction(encode_instruction(inst)) == inst


class TestAssembler:
    def test_labels_and_branches(self):
        program = assemble("""
        top:
            addi r3, r3, -1
            bne  r3, r0, top
            halt
        """)
        assert program.labels == {"top": 0}
        assert program[1].imm == -2

    def test_forward_references(self):
        program = assemble("""
            beq r0, r0, out
            nop
        out:
            halt
        """)
        assert program[0].imm == 1

    def test_memory_displacement(self):
        program = assemble("lw r4, -8(r5)\nhalt")
        assert program[0].ra == 5
        assert program[0].imm == -8

    def test_hex_immediates(self):
        program = assemble("addi r3, r0, 0x7f\nhalt")
        assert program[0].imm == 0x7F

    def test_comments_ignored(self):
        program = assemble("# top\nnop  # mid\nhalt")
        assert len(program) == 2

    def test_two_operand_fp(self):
        program = assemble("fsqrt r10, r12\nhalt")
        assert program[0].ra == 12

    def test_duplicate_label(self):
        with pytest.raises(AssemblerError):
            assemble("a:\nnop\na:\nhalt")

    def test_unknown_mnemonic(self):
        with pytest.raises(AssemblerError):
            assemble("frobnicate r1, r2, r3")

    def test_operand_count_checked(self):
        with pytest.raises(AssemblerError):
            assemble("add r1, r2")

    def test_bad_register(self):
        with pytest.raises(AssemblerError):
            assemble("add r1, r2, r99")

    def test_listing_roundtrips_through_assembler(self):
        source = "top:\n  addi r3, r0, 5\n  bne r3, r0, top\n  halt"
        program = assemble(source)
        # Every rendered instruction re-assembles to itself.
        for inst in program.instructions:
            if inst.opcode.fmt is Format.B:
                continue  # render shows resolved numeric offsets
            again = assemble(inst.render() + "\nhalt")
            assert again[0] == inst


class TestBuilder:
    def test_matches_assembler(self):
        b = Builder()
        b.addi(3, 0, 5)
        b.label("spin")
        b.addi(3, 3, -1)
        b.bne(3, 0, "spin")
        b.halt()
        built = b.build()
        text = assemble("""
            addi r3, r0, 5
        spin:
            addi r3, r3, -1
            bne  r3, r0, spin
            halt
        """)
        assert [i.render() for i in built.instructions] == \
            [i.render() for i in text.instructions]

    def test_undefined_label(self):
        b = Builder()
        b.beq(0, 0, "nowhere")
        with pytest.raises(AssemblerError):
            b.build()

    def test_duplicate_label(self):
        b = Builder()
        b.label("x")
        with pytest.raises(AssemblerError):
            b.label("x")


class TestProgram:
    def test_addresses(self):
        program = assemble("nop\nnop\nhalt", base=0x100)
        assert program.address_of(2) == 0x108

    def test_encode_from_words_roundtrip(self):
        program = assemble("addi r3, r0, 7\nsw r3, 0(r4)\nhalt")
        again = Program.from_words(program.encode())
        assert [i.render() for i in again.instructions] == \
            [i.render() for i in program.instructions]

    def test_undefined_label_lookup(self):
        with pytest.raises(IsaError):
            assemble("halt").index_of_label("missing")


class TestInterpreter:
    def run_program(self, source, init_regs=None, init_doubles=None,
                    chip=None, tid=0):
        chip = chip or Chip()
        interp = Interpreter(chip, model_fetch=False)
        state = interp.add_thread(tid, assemble(source), init_regs,
                                  init_doubles)
        cycles = interp.run()
        return chip, state, cycles

    def test_arithmetic(self):
        _, state, _ = self.run_program("""
            addi r3, r0, 6
            addi r4, r0, 7
            mul  r5, r3, r4
            halt
        """)
        assert state.regs.read(5) == 42

    def test_division_semantics(self):
        _, state, _ = self.run_program("""
            addi r3, r0, -7
            addi r4, r0, 2
            div  r5, r3, r4
            rem  r6, r3, r4
            halt
        """)
        assert state.regs.read_signed(5) == -3  # truncating division
        assert state.regs.read_signed(6) == -1

    def test_divide_by_zero_traps(self):
        with pytest.raises(ExecutionError):
            self.run_program("div r3, r0, r0\nhalt")

    def test_loop_executes(self):
        _, state, _ = self.run_program("""
            addi r3, r0, 10
            addi r4, r0, 0
        loop:
            add  r4, r4, r3
            addi r3, r3, -1
            bne  r3, r0, loop
            halt
        """)
        assert state.regs.read(4) == 55

    def test_memory_roundtrip(self):
        chip, state, _ = self.run_program("""
            addi r3, r0, 0x50
            addi r4, r0, 77
            sw   r4, 4(r3)
            lw   r5, 4(r3)
            halt
        """)
        assert state.regs.read(5) == 77
        assert chip.memory.backing.load_u32(0x54) == 77

    def test_byte_and_half_accesses(self):
        chip, state, _ = self.run_program("""
            addi r3, r0, 0x60
            addi r4, r0, 0x7b4
            sh   r4, 0(r3)
            lbu  r5, 0(r3)
            lhu  r6, 0(r3)
            halt
        """)
        assert state.regs.read(5) == 0xB4
        assert state.regs.read(6) == 0x7B4

    def test_double_memory(self):
        chip, state, _ = self.run_program(
            "sd r10, 0(r3)\nld r12, 0(r3)\nhalt",
            init_regs={3: 0x80}, init_doubles={10: 2.5},
        )
        assert state.regs.read_double(12) == 2.5

    def test_fp_pipeline(self):
        _, state, _ = self.run_program(
            "fmadd r10, r12, r14\nhalt",
            init_doubles={10: 1.0, 12: 2.0, 14: 3.0},
        )
        assert state.regs.read_double(10) == 7.0

    def test_fp_divide_and_sqrt(self):
        _, state, _ = self.run_program(
            "fdiv r16, r10, r12\nfsqrt r18, r14\nhalt",
            init_doubles={10: 10.0, 12: 4.0, 14: 9.0},
        )
        assert state.regs.read_double(16) == 2.5
        assert state.regs.read_double(18) == 3.0

    def test_conversions(self):
        _, state, _ = self.run_program("""
            addi  r3, r0, -5
            cvtif r10, r3
            cvtfi r4, r10
            halt
        """)
        assert state.regs.read_double(10) == -5.0
        assert state.regs.read_signed(4) == -5

    def test_atomics(self):
        chip, state, _ = self.run_program("""
            addi    r3, r0, 0x90
            addi    r4, r0, 5
            amoadd  r5, r3, r4
            amoadd  r6, r3, r4
            halt
        """)
        assert state.regs.read(5) == 0
        assert state.regs.read(6) == 5
        assert chip.memory.backing.load_u32(0x90) == 10

    def test_jal_and_jr(self):
        _, state, _ = self.run_program("""
            jal  sub
            addi r4, r0, 1
            halt
        sub:
            addi r3, r0, 9
            jr   r2
        """)
        assert state.regs.read(3) == 9
        assert state.regs.read(4) == 1

    def test_tid(self):
        _, state, _ = self.run_program("tid r3\nhalt", tid=37)
        assert state.regs.read(3) == 37

    def test_dependence_stalls_counted(self):
        _, state, _ = self.run_program("""
            addi r3, r0, 1
            mul  r4, r3, r3
            add  r5, r4, r4
            halt
        """)
        # The add waits 5 extra cycles for the multiply's latency.
        assert state.tu.counters.stall_cycles >= 5

    def test_two_threads_contend_for_fpu(self):
        chip = Chip()
        interp = Interpreter(chip, model_fetch=False)
        source = "fadd r10, r12, r14\n" * 20 + "halt"
        program = assemble(source)
        interp.add_thread(0, program)
        interp.add_thread(1, program)  # same quad: shared adder pipe
        cycles = interp.run()
        assert cycles >= 38  # ~40 issues through a 1-per-cycle pipe

    def test_pc_out_of_range(self):
        with pytest.raises(ExecutionError):
            self.run_program("nop")  # falls off the end (no halt)

    def test_duplicate_thread_rejected(self):
        chip = Chip()
        interp = Interpreter(chip)
        program = assemble("halt")
        interp.add_thread(0, program)
        with pytest.raises(ExecutionError):
            interp.add_thread(0, program)

    def test_icache_fetch_modeled(self):
        chip = Chip()
        interp = Interpreter(chip, model_fetch=True)
        # A loop body spanning two PIB windows: the first iteration
        # misses in the I-cache, later iterations hit.
        program = assemble(
            "addi r3, r0, 3\nloop:\n" + "nop\n" * 20
            + "addi r3, r3, -1\nbne r3, r0, loop\nhalt"
        )
        interp.add_thread(0, program)
        interp.run()
        icache = chip.icache_of(0)
        assert icache.misses >= 1
        assert icache.hits >= 1


# ---------------------------------------------------------------------------
# Opcode oracle: one hand-computed row per mnemonic
# ---------------------------------------------------------------------------
#: ``(mnemonic, source, init, expect)``. Keys of ``init`` and ``expect``:
#: ``rN`` a u32 register, ``dN`` the double in pair N, ``m<addr>`` /
#: ``f<addr>`` a u32 / f64 in memory; ``sprN`` (init) writes thread N's
#: barrier SPR and ``spr`` (expect) is the wired-OR read; ``insns`` is
#: the retired-instruction count. Branch rows land on ``taken:`` (r5 = 2)
#: or fall through (r5 = 1). Every expected value is worked by hand from
#: the opcode's definition, not from the interpreter.
_BRANCH = "{op} r3, r4, taken\naddi r5, r0, 1\nhalt\ntaken:\naddi r5, r0, 2\nhalt"
_M = 0x100  # data base address of the memory rows
OPCODE_ORACLE = [
    # fixed point, register form
    ("add", "add r5, r3, r4", {"r3": 0xFFFFFFFF, "r4": 2}, {"r5": 1}),
    ("sub", "sub r5, r3, r4", {"r3": 1, "r4": 2}, {"r5": 0xFFFFFFFF}),
    ("and", "and r5, r3, r4", {"r3": 0xF0F0, "r4": 0xFF00}, {"r5": 0xF000}),
    ("or", "or r5, r3, r4", {"r3": 0xF0F0, "r4": 0x0F00}, {"r5": 0xFFF0}),
    ("xor", "xor r5, r3, r4", {"r3": 0xFF00, "r4": 0x0FF0}, {"r5": 0xF0F0}),
    ("nor", "nor r5, r3, r4", {"r3": 0xFFFF0000, "r4": 0xFF00},
     {"r5": 0xFF}),
    ("slt", "slt r5, r3, r4", {"r3": 0xFFFFFFFF, "r4": 1}, {"r5": 1}),
    ("sltu", "sltu r5, r3, r4", {"r3": 0xFFFFFFFF, "r4": 1}, {"r5": 0}),
    ("sll", "sll r5, r3, r4", {"r3": 3, "r4": 33}, {"r5": 6}),
    ("srl", "srl r5, r3, r4", {"r3": 0x80000000, "r4": 4},
     {"r5": 0x08000000}),
    ("sra", "sra r5, r3, r4", {"r3": 0x80000000, "r4": 4},
     {"r5": 0xF8000000}),
    # fixed point, immediate form
    ("addi", "addi r5, r3, -7", {"r3": 5}, {"r5": 0xFFFFFFFE}),
    ("andi", "andi r5, r3, -16", {"r3": 0xFFFF}, {"r5": 0xFFF0}),
    ("ori", "ori r5, r3, 0xff", {"r3": 0x1000}, {"r5": 0x10FF}),
    ("xori", "xori r5, r3, -1", {"r3": 0xFF}, {"r5": 0xFFFFFF00}),
    ("slti", "slti r5, r3, -1", {"r3": 0xFFFFFFFE}, {"r5": 1}),
    ("sltiu", "sltiu r5, r3, -1", {"r3": 5}, {"r5": 1}),
    ("slli", "slli r5, r3, 2", {"r3": 0x40000001}, {"r5": 4}),
    ("srli", "srli r5, r3, 28", {"r3": 0xF0000000}, {"r5": 0xF}),
    ("srai", "srai r5, r3, 28", {"r3": 0xF0000000}, {"r5": 0xFFFFFFFF}),
    ("lui", "lui r5, -1", {}, {"r5": 0xFFF80000}),
    # multiply / divide
    ("mul", "mul r5, r3, r4", {"r3": 0xFFFFFFFD, "r4": 7},
     {"r5": 0xFFFFFFEB}),
    ("mulhu", "mulhu r5, r3, r4", {"r3": 0x80000000, "r4": 6}, {"r5": 3}),
    ("div", "div r5, r3, r4", {"r3": 0xFFFFFFF9, "r4": 2},
     {"r5": 0xFFFFFFFD}),
    ("divu", "divu r5, r3, r4", {"r3": 0xFFFFFFFE, "r4": 2},
     {"r5": 0x7FFFFFFF}),
    ("rem", "rem r5, r3, r4", {"r3": 0xFFFFFFF9, "r4": 2},
     {"r5": 0xFFFFFFFF}),
    # branches
    ("beq", _BRANCH.format(op="beq"), {"r3": 5, "r4": 5}, {"r5": 2}),
    ("bne", _BRANCH.format(op="bne"), {"r3": 5, "r4": 5}, {"r5": 1}),
    ("blt", _BRANCH.format(op="blt"), {"r3": 0xFFFFFFFF, "r4": 1},
     {"r5": 2}),
    ("bge", _BRANCH.format(op="bge"), {"r3": 0xFFFFFFFF, "r4": 1},
     {"r5": 1}),
    ("bltu", _BRANCH.format(op="bltu"), {"r3": 0xFFFFFFFF, "r4": 1},
     {"r5": 1}),
    ("bgeu", _BRANCH.format(op="bgeu"), {"r3": 0xFFFFFFFF, "r4": 1},
     {"r5": 2}),
    ("j", "j taken\naddi r5, r0, 1\nhalt\ntaken:\naddi r5, r0, 2\nhalt",
     {}, {"r5": 2}),
    ("jal", "jal taken\naddi r5, r0, 1\nhalt\ntaken:\naddi r5, r0, 2\nhalt",
     {}, {"r5": 2, "r2": 4}),
    ("jr", "jr r6\naddi r5, r0, 1\nhalt\naddi r5, r0, 2\nhalt",
     {"r6": 12}, {"r5": 2}),
    # memory: the word at _M holds bytes EF BE AD DE
    ("lw", "lw r5, 4(r3)", {"r3": _M, f"m{_M + 4}": 0xDEADBEEF},
     {"r5": 0xDEADBEEF}),
    ("lhu", "lhu r5, 2(r3)", {"r3": _M, f"m{_M}": 0xDEADBEEF},
     {"r5": 0xDEAD}),
    ("lbu", "lbu r5, 3(r3)", {"r3": _M, f"m{_M}": 0xDEADBEEF},
     {"r5": 0xDE}),
    ("ld", "ld r10, 8(r3)", {"r3": _M, f"f{_M + 8}": -1.5},
     {"d10": -1.5}),
    ("sw", "sw r5, 4(r3)", {"r3": _M, "r5": 0x12345678},
     {f"m{_M + 4}": 0x12345678}),
    ("sh", "sh r5, 2(r3)",
     {"r3": _M, "r5": 0x1234ABCD, f"m{_M}": 0xDEADBEEF},
     {f"m{_M}": 0xABCDBEEF}),
    ("sb", "sb r5, 1(r3)",
     {"r3": _M, "r5": 0x1234ABCD, f"m{_M}": 0xDEADBEEF},
     {f"m{_M}": 0xDEADCDEF}),
    ("sd", "sd r10, 8(r3)", {"r3": _M, "d10": 2.25}, {f"f{_M + 8}": 2.25}),
    # atomics: rd gets the old word, memory the combined one
    ("amoadd", "amoadd r5, r3, r4",
     {"r3": _M, "r4": 0x1F, f"m{_M}": 0xFFFFFFF0},
     {"r5": 0xFFFFFFF0, f"m{_M}": 0x0F}),
    ("amoswap", "amoswap r5, r3, r4",
     {"r3": _M, "r4": 0x1F, f"m{_M}": 0xFFFFFFF0},
     {"r5": 0xFFFFFFF0, f"m{_M}": 0x1F}),
    ("amoand", "amoand r5, r3, r4",
     {"r3": _M, "r4": 0x1F, f"m{_M}": 0xFFFFFFF0},
     {"r5": 0xFFFFFFF0, f"m{_M}": 0x10}),
    ("amoor", "amoor r5, r3, r4",
     {"r3": _M, "r4": 0x1F, f"m{_M}": 0xFFFFFFF0},
     {"r5": 0xFFFFFFF0, f"m{_M}": 0xFFFFFFFF}),
    ("sync", "sync", {"r5": 41}, {"r5": 41, "insns": 2}),
    # SPRs: mtspr keeps the low 8 bits; mfspr reads the wired-OR
    ("mtspr", "mtspr r3, 0", {"r3": 0x1A5}, {"spr": 0xA5}),
    ("mfspr", "mfspr r5, 0", {"spr0": 0x30, "spr5": 0x0C}, {"r5": 0x3C}),
    # floating point on even/odd pairs
    ("fadd", "fadd r14, r10, r12", {"d10": 1.5, "d12": 2.25},
     {"d14": 3.75}),
    ("fsub", "fsub r14, r10, r12", {"d10": 1.5, "d12": 2.25},
     {"d14": -0.75}),
    ("fmul", "fmul r14, r10, r12", {"d10": 1.5, "d12": 2.25},
     {"d14": 3.375}),
    ("fdiv", "fdiv r14, r10, r12", {"d10": 3.0, "d12": 0.75},
     {"d14": 4.0}),
    ("fsqrt", "fsqrt r14, r10", {"d10": 6.25}, {"d14": 2.5}),
    ("fmadd", "fmadd r14, r10, r12", {"d10": 1.5, "d12": 2.25, "d14": 1.0},
     {"d14": 4.375}),
    ("fmsub", "fmsub r14, r10, r12", {"d10": 1.5, "d12": 2.25, "d14": 1.0},
     {"d14": -2.375}),
    ("fneg", "fneg r14, r10", {"d10": 1.5}, {"d14": -1.5}),
    ("fabs", "fabs r14, r10", {"d10": -1.5}, {"d14": 1.5}),
    ("fmov", "fmov r14, r10", {"d10": -1.5}, {"d14": -1.5}),
    ("fcmplt", "fcmplt r5, r10, r12", {"d10": 1.5, "d12": 2.25}, {"r5": 1}),
    ("fcmpeq", "fcmpeq r5, r10, r12", {"d10": 2.25, "d12": 2.25},
     {"r5": 1}),
    ("cvtif", "cvtif r14, r3", {"r3": 0xFFFFFFFB}, {"d14": -5.0}),
    ("cvtfi", "cvtfi r5, r10", {"d10": -7.9}, {"r5": 0xFFFFFFF9}),
    # system
    ("nop", "nop", {"r5": 41}, {"r5": 41, "insns": 2}),
    ("halt", "halt\naddi r5, r0, 1", {}, {"r5": 0, "insns": 1}),
    ("tid", "tid r5", {}, {"r5": 37}),
]


def _run_oracle_row(source, init, block_dispatch):
    chip = Chip()
    backing = chip.memory.backing
    regs, doubles = {}, {}
    for key, value in init.items():
        if key.startswith("spr"):
            chip.barrier_spr.write(int(key[3:]), value)
        elif key[0] == "r":
            regs[int(key[1:])] = value
        elif key[0] == "d":
            doubles[int(key[1:])] = value
        elif key[0] == "m":
            backing.store_u32(int(key[1:]), value)
        else:
            backing.store_f64(int(key[1:]), value)
    if "halt" not in source:
        source += "\nhalt"
    interp = Interpreter(chip, model_fetch=False,
                         block_dispatch=block_dispatch)
    state = interp.add_thread(37, assemble(source), regs, doubles)
    interp.run()
    return chip, state


class TestOpcodeOracle:
    """Every mnemonic's result against a hand-computed value, under
    both dispatch modes — the reference the code generator answers to."""

    def test_table_covers_every_opcode(self):
        names = [row[0] for row in OPCODE_ORACLE]
        assert len(names) == len(set(names))
        assert set(names) == set(OPCODES)

    @pytest.mark.parametrize("block_dispatch", [True, False],
                             ids=["blocks", "per-insn"])
    @pytest.mark.parametrize("name,source,init,expect", OPCODE_ORACLE,
                             ids=[row[0] for row in OPCODE_ORACLE])
    def test_result(self, name, source, init, expect, block_dispatch):
        chip, state = _run_oracle_row(source, init, block_dispatch)
        backing = chip.memory.backing
        for key, value in expect.items():
            if key == "spr":
                got = chip.barrier_spr.read_or()
            elif key == "insns":
                got = state.tu.counters.instructions
            elif key[0] == "r":
                got = state.regs.read(int(key[1:]))
            elif key[0] == "d":
                got = state.regs.read_double(int(key[1:]))
            elif key[0] == "m":
                got = backing.load_u32(int(key[1:]))
            else:
                got = backing.load_f64(int(key[1:]))
            assert got == value, f"{name}: {key} = {got!r}, want {value!r}"


_FP_ARITH = ["fadd", "fsub", "fmul", "fdiv", "fsqrt", "fmadd", "fmsub",
             "fneg", "fabs", "fmov"]
_TWO_OPERAND_FP = {"fsqrt", "fneg", "fabs", "fmov"}


def _fp_source(op, rd, ra):
    if op in _TWO_OPERAND_FP:
        return f"{op} r{rd}, r{ra}"
    return f"{op} r{rd}, r{ra}, r12"


#: ``(case id, source)``: each pair operand of each double-pair opcode
#: given an odd register.
ODD_PAIR_CASES = (
    [(f"{op}-ra", _fp_source(op, 14, 11)) for op in _FP_ARITH]
    + [(f"{op}-rd", _fp_source(op, 15, 10)) for op in _FP_ARITH]
    + [("fcmplt-ra", "fcmplt r5, r11, r12"),
       ("fcmpeq-ra", "fcmpeq r5, r11, r12"),
       ("cvtif-rd", "cvtif r15, r3"),
       ("cvtfi-ra", "cvtfi r5, r11"),
       ("ld-rd", "ld r11, 0(r3)"),
       ("sd-rd", "sd r11, 0(r3)")]
)


class TestOddPairFaults:
    @pytest.mark.parametrize("block_dispatch", [True, False],
                             ids=["blocks", "per-insn"])
    @pytest.mark.parametrize("source", [case[1] for case in ODD_PAIR_CASES],
                             ids=[case[0] for case in ODD_PAIR_CASES])
    def test_odd_register_raises(self, source, block_dispatch):
        # Non-zero operands, so fdiv reaches the pair check rather than
        # its divide-by-zero trap.
        init = {"r3": _M, "d10": 1.0, "d12": 2.0}
        with pytest.raises(ExecutionError,
                           match="double-precision pair must start at an "
                                 "even register"):
            _run_oracle_row(source, init, block_dispatch)
