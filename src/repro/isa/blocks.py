"""Instruction semantics and timing, as generated code.

This module is the single definition of what every opcode does and what
it costs. :class:`_BlockEmitter` turns a straight-line run of
instructions into the Python source of one closure, and
:func:`compile_blocks` builds every dispatch table the interpreter
(:mod:`repro.isa.interpreter`) runs from those closures:

* **1-instruction blocks** — every index of a program compiles into a
  closure that executes exactly that instruction. A table of only these
  is per-instruction dispatch (``Interpreter(block_dispatch=False)``
  and sanitized chips): ``state.pc`` is written at block exit, so
  during an instruction's memory access it still names that
  instruction, as the coherence sanitizer's fault reports need.
* **Fused blocks** — with block dispatch on, every multi-instruction
  basic block additionally compiles into one closure installed at its
  leader. Non-leader indices keep their 1-instruction blocks, so a
  ``jr`` into the middle of a block executes instruction by instruction
  until the next leader.

A closure threads the issue clock and the per-register scoreboard
through locals, touching ``state.regs`` / ``state.ready`` once per
register per block; folds every compile-time constant (latency rows,
immediates, retire counts, counter deltas) into literals; and writes
``state.pc`` only at block exit. Each table is one generated module,
compiled with one ``compile()`` call and cached on the
:class:`~repro.isa.program.Program` keyed by ``(latency table,
PIB window)``.

**Block formation.** A leader is the program entry, every branch
target, every fall-through past a block terminator, and every
instruction whose address starts a new PIB window. A block runs from a
leader to the first terminator: a branch or a ``halt``. *Generator*
instructions (memory, FPU, SPR, atomic — the units that synchronize
with the global event order) do **not** end a block: each one's
scheduler yield is reproduced verbatim inside the closure, with the
thread's architectural clock flushed before parking, so the global
event order — and therefore every simulated cycle count — matches
per-instruction dispatch. Caching register/scoreboard values in locals
across those yields is safe because that state is thread-private;
everything shared (backing memory, FPU pipes, the SPR file) is read
live, after the owning instruction's own yield.

**Why blocks never span a PIB window.** The dispatch loop consults the
prefetch buffer before every entry; straight-line fetch inside the
16-instruction window is free and only a window crossing can fetch.
Cutting blocks at window boundaries makes the per-block PIB check
equivalent to a per-instruction one, for both ``model_fetch`` modes,
with no fetch logic inside blocks.

**Functional tables.** :class:`_FunctionalEmitter` replaces only the
timing hooks — scoreboard, stalls, yields, unit reservation, counter
flush — with nothing, plus cache warming and an untimed atomic
read-modify-write, so sampled fast-forward (:mod:`repro.sampling`) runs
the same opcode definitions with no clock and no scheduler.
"""

from __future__ import annotations

import math
import struct

from repro.errors import ExecutionError
from repro.isa.instruction import Instruction
from repro.isa.opcodes import ALU_UNITS, FPU_UNITS, MEM_SIZES, UnitClass
from repro.isa.program import Program
from repro.isa.registers import REG_LINK

_U32 = 0xFFFFFFFF

# ---------------------------------------------------------------------------
# Shared runtime namespace for the generated code
# ---------------------------------------------------------------------------
_STRUCT_II = struct.Struct("<II")
_STRUCT_D = struct.Struct("<d")
_STRUCT_H = struct.Struct("<H")


def _div_zero(tu) -> ExecutionError:
    return ExecutionError(f"thread {tu.tid}: divide by zero")


def _fdiv_zero(tu) -> ExecutionError:
    return ExecutionError(f"thread {tu.tid}: FP divide by zero")


#: Read-only helpers every generated block module can reach.
_NAMESPACE = {
    "_pk_II": _STRUCT_II.pack,
    "_up_II": _STRUCT_II.unpack,
    "_pk_d": _STRUCT_D.pack,
    "_up_d": _STRUCT_D.unpack,
    "_pk_H": _STRUCT_H.pack,
    "_ifb": int.from_bytes,
    "_fmod": math.fmod,
    "_div_zero": _div_zero,
    "_fdiv_zero": _fdiv_zero,
}


def _sx(expr: str) -> str:
    """Signed-32 view of a u32 local/literal (inline, no call)."""
    if expr == "0":
        return "0"
    return f"({expr} - 4294967296 if {expr} & 2147483648 else {expr})"


#: ALU value expression per mnemonic: (builder(a, b, imm), needs_mask).
#: ``a``/``b`` are u32 expressions (a local name or the literal ``0``);
#: masking to 32 bits happens at writeback.
_ALU_EXPR = {
    "add": (lambda a, b, imm: f"{a} + {b}", True),
    "sub": (lambda a, b, imm: f"{a} - {b}", True),
    "and": (lambda a, b, imm: f"{a} & {b}", False),
    "or": (lambda a, b, imm: f"{a} | {b}", False),
    "xor": (lambda a, b, imm: f"{a} ^ {b}", False),
    "nor": (lambda a, b, imm: f"~({a} | {b})", True),
    "slt": (lambda a, b, imm: f"1 if {_sx(a)} < {_sx(b)} else 0", False),
    "sltu": (lambda a, b, imm: f"1 if {a} < {b} else 0", False),
    "sll": (lambda a, b, imm: f"{a} << ({b} & 31)", True),
    "srl": (lambda a, b, imm: f"{a} >> ({b} & 31)", False),
    "sra": (lambda a, b, imm: f"{_sx(a)} >> ({b} & 31)", True),
    "addi": (lambda a, b, imm: f"{a} + ({imm})", True),
    "andi": (lambda a, b, imm: f"{a} & {imm & _U32}", False),
    "ori": (lambda a, b, imm: f"{a} | {imm & _U32}", False),
    "xori": (lambda a, b, imm: f"{a} ^ {imm & _U32}", False),
    "slti": (lambda a, b, imm: f"1 if {_sx(a)} < ({imm}) else 0", False),
    "sltiu": (lambda a, b, imm: f"1 if {a} < {imm & _U32} else 0", False),
    "slli": (lambda a, b, imm: f"{a} << {imm & 31}", True),
    "srli": (lambda a, b, imm: f"{a} >> {imm & 31}", False),
    "srai": (lambda a, b, imm: f"{_sx(a)} >> {imm & 31}", True),
    "lui": (lambda a, b, imm: f"{((imm & 0x1FFF) << 19) & _U32}", False),
    "mul": (lambda a, b, imm: f"({_sx(a)} * {_sx(b)}) & 4294967295", False),
    "mulhu": (lambda a, b, imm: f"({a} * {b}) >> 32", False),
}

_BRANCH_COND_EXPR = {
    "beq": lambda a, b: f"{a} == {b}",
    "bne": lambda a, b: f"{a} != {b}",
    "blt": lambda a, b: f"{_sx(a)} < {_sx(b)}",
    "bge": lambda a, b: f"{_sx(a)} >= {_sx(b)}",
    "bltu": lambda a, b: f"{a} < {b}",
    "bgeu": lambda a, b: f"{a} >= {b}",
}

_FPU_VALUE_EXPR = {
    "fadd": "_a + _b",
    "fsub": "_a - _b",
    "fmul": "_a * _b",
    "fdiv": "_a / _b",
    "fsqrt": "_a ** 0.5",
    "fmadd": "_d + _a * _b",
    "fmsub": "_d - _a * _b",
    "fneg": "-_a",
    "fabs": "abs(_a)",
    "fmov": "_a",
}

#: FPU sub-unit method and flop count per arithmetic mnemonic.
_FPU_UNIT = {
    "fadd": ("add", 1), "fsub": ("add", 1), "fmul": ("multiply", 1),
    "fdiv": ("divide", 1), "fsqrt": ("sqrt", 1), "fmadd": ("fma", 2),
    "fmsub": ("fma", 2), "fneg": ("add", 1), "fabs": ("add", 1),
    "fmov": ("add", 1),
}

_AMO_OPS = {"amoadd": "add", "amoswap": "swap",
            "amoand": "and", "amoor": "or"}


# ---------------------------------------------------------------------------
# Block formation
# ---------------------------------------------------------------------------
def _is_terminator(inst: Instruction) -> bool:
    unit = inst.opcode.unit
    return unit is UnitClass.BRANCH or inst.opcode.name == "halt"


def block_spans(program: Program,
                window_bytes: int) -> list[tuple[int, int]]:
    """``(start, end)`` index spans of the program's basic blocks.

    ``end`` is exclusive. Leaders: index 0, branch targets,
    fall-throughs past a terminator, and every index whose address
    starts a new PIB window (so no block spans a fetch boundary).
    """
    instructions = program.instructions
    n = len(instructions)
    if n == 0:
        return []
    leaders = {0}
    for i, inst in enumerate(instructions):
        unit = inst.opcode.unit
        if unit is UnitClass.BRANCH:
            leaders.add(i + 1)
            name = inst.opcode.name
            if name in ("j", "jal"):
                target = inst.imm
            elif name == "jr":
                target = None
            else:
                target = i + 1 + inst.imm
            if target is not None and 0 <= target < n:
                leaders.add(target)
        elif inst.opcode.name == "halt":
            leaders.add(i + 1)
    base = program.base
    for i in range(n):
        if (base + 4 * i) % window_bytes == 0:
            leaders.add(i)
    leaders.discard(n)
    ordered = sorted(leaders)
    spans = []
    for pos, start in enumerate(ordered):
        limit = ordered[pos + 1] if pos + 1 < len(ordered) else n
        end = start
        while end < limit:
            end += 1
            if _is_terminator(instructions[end - 1]):
                break
        spans.append((start, end))
    return spans


# ---------------------------------------------------------------------------
# Code generation for one block
# ---------------------------------------------------------------------------
class _BlockEmitter:
    """Emits the timed Python source of one block.

    The ``emit_*`` methods define each opcode's value and data movement
    once; timing enters only through the hooks below them
    (:meth:`wait_deps`, :meth:`stall_to_e`, :meth:`retire`,
    :meth:`await_issue`, :meth:`access_memory`, :meth:`atomic_rmw`,
    :meth:`reserve_fpu`, :meth:`fence`, :meth:`flush`), which
    :class:`_FunctionalEmitter` overrides.
    """

    #: Clock expression recorded as a halting thread's finish time.
    CLOCK = "it"

    def __init__(self, program: Program, lat, start: int, end: int) -> None:
        self.program = program
        self.lat = lat
        self.start = start
        self.end = end
        self.lines: list[str] = []
        #: Registers / scoreboard slots currently mirrored in locals.
        self.local_r: set[int] = set()
        self.local_t: set[int] = set()
        #: Locals that must be stored back on flush (r0 never is).
        self.dirty_r: set[int] = set()
        self.dirty_t: set[int] = set()
        #: Compile-time counter deltas (already-flushed prefix excluded).
        self.ni = 0      # instructions
        self.nr = 0      # run cycles
        self.nl = 0      # loads
        self.ns = 0      # stores
        self.nf = 0      # flops
        self.is_gen = False

    # -- register and scoreboard locals -------------------------------
    def emit(self, line: str) -> None:
        self.lines.append("    " + line)

    def rv(self, reg: int) -> str:
        """u32 value expression for *reg* (loads a local on first use)."""
        if reg == 0:
            return "0"
        if reg not in self.local_r:
            self.emit(f"r{reg} = _R[{reg}]")
            self.local_r.add(reg)
        return f"r{reg}"

    def write_r(self, reg: int, expr: str) -> None:
        """Write *expr* (already masked) into *reg*'s local (r0 drops)."""
        if reg == 0:
            return
        self.emit(f"r{reg} = {expr}")
        self.local_r.add(reg)
        self.dirty_r.add(reg)

    def tv(self, reg: int) -> str:
        if reg not in self.local_t:
            self.emit(f"t{reg} = _T[{reg}]")
            self.local_t.add(reg)
        return f"t{reg}"

    def write_t(self, reg: int, expr: str) -> None:
        self.emit(f"t{reg} = {expr}")
        self.local_t.add(reg)
        self.dirty_t.add(reg)

    def read_double(self, reg: int) -> str:
        """Double-precision value expression of pair *reg*.

        An odd *reg* embeds the register file's own read, which raises
        the "pair must start at an even register" fault at run time.
        """
        if reg % 2:
            return f"state.regs.read_double({reg})"
        lo = self.rv(reg)
        hi = self.rv(reg + 1)
        return f"_up_d(_pk_II({lo}, {hi}))[0]"

    def write_double(self, reg: int, expr: str) -> None:
        if reg % 2:
            # The register file raises the odd-pair fault.
            self.emit(f"state.regs.write_double({reg}, {expr})")
            return
        if reg == 0:
            # Pair-0 writes are discarded whole, like the register file's
            # write_double.
            return
        self.emit(f"r{reg}, r{reg + 1} = _up_II(_pk_d({expr}))")
        self.local_r.update((reg, reg + 1))
        self.dirty_r.update((reg, reg + 1))

    def flush_registers(self) -> None:
        for reg in sorted(self.dirty_r):
            self.emit(f"_R[{reg}] = r{reg}")
        for reg in sorted(self.dirty_t):
            self.emit(f"_T[{reg}] = t{reg}")
        self.dirty_r.clear()
        self.dirty_t.clear()

    # -- timing hooks --------------------------------------------------
    def wait_deps(self, deps: tuple[int, ...]) -> None:
        """``e = max(it, ready[deps...])`` with locals, dupes skipped."""
        self.emit("e = it")
        seen = set()
        for reg in deps:
            if reg in seen:
                continue
            seen.add(reg)
            t = self.tv(reg)
            self.emit(f"if {t} > e: e = {t}")

    def stall_to_e(self) -> None:
        """Inline ``tu.issue_at(e)`` on the local clock."""
        self.emit("if e > it:")
        self.emit("    nst += e - it; nse += 1; it = e")

    def retire(self, execution: int) -> None:
        """Inline ``tu.retire(execution)``: constants fold into flush."""
        self.ni += 1
        self.nr += execution
        self.emit(f"it += {execution}")

    def await_issue(self, deps: tuple[int, ...]) -> None:
        """Wait for *deps*, then park until the global event order
        reaches the issue cycle ``e`` (the architectural clock is
        flushed first, so other threads see it)."""
        self.wait_deps(deps)
        self.is_gen = True
        self.emit("tu.issue_time = it")
        self.emit("e = yield e")

    def access_memory(self, index: int, ea: str, access_mask: int,
                      access_size: int, is_store: bool) -> None:
        """Reserve the timed memory access; ``_o`` is its outcome."""
        self.emit(
            f"_o = state.memory.access(e, tu.quad_id, {ea} & "
            f"{access_mask}, {access_size}, {is_store})"
        )
        self.emit("e = _o.issue_end - 1")
        self.stall_to_e()

    def atomic_rmw(self, op: str, a: str, b: str) -> None:
        """The timed read-modify-write at *a*; ``_old`` is the old word."""
        self.emit(
            f"_o, _old = state.memory.atomic_rmw_u32(e, tu.quad_id, "
            f"{a}, {op!r}, {b})"
        )
        self.emit("e = _o.issue_end - 1")
        self.stall_to_e()

    def reserve_fpu(self, unit_attr: str, execution: int,
                    deps: tuple[int, ...]) -> None:
        """Issue to FPU sub-unit *unit_attr*; ``_rt`` is the result time."""
        self.await_issue(deps)
        self.emit(f"_ie, _rt = state.fpu.{unit_attr}(e)")
        self.emit(f"e = _ie - {execution}")
        self.stall_to_e()

    def fence(self) -> None:
        """``sync``: wait for every register's pending value. It reads
        the whole scoreboard, so the locals must reach the array first."""
        for reg in sorted(self.dirty_t):
            self.emit(f"_T[{reg}] = t{reg}")
        self.emit("e = max(_T)")
        self.stall_to_e()

    def flush(self) -> None:
        """Store the clock and counter deltas back to state (block exit).

        Counters are telemetry, harvested on the cold path — nothing
        reads them while a thread is parked — so the whole block's
        deltas land in one batch of compile-time constants here. The
        architectural clock is different: it is flushed before every
        yield (see :meth:`await_issue`) as well as here.
        """
        self.emit("tu.issue_time = it")
        self.emit("c = tu.counters")
        if self.ni:
            self.emit(f"c.instructions += {self.ni}")
        if self.nr:
            self.emit(f"c.run_cycles += {self.nr}")
        if self.nl:
            self.emit(f"c.loads += {self.nl}")
        if self.ns:
            self.emit(f"c.stores += {self.ns}")
        if self.nf:
            self.emit(f"c.flops += {self.nf}")
        self.emit("if nst:")
        self.emit("    c.stall_cycles += nst; c.stall_events += nse")

    def prologue(self, fn_name: str) -> list[str]:
        """Opening lines of the generated ``def``."""
        return [
            f"def {fn_name}(state):",
            "    tu = state.tu",
            "    _R = state.regs._regs",
            "    _T = state.ready",
            "    it = tu.issue_time",
            "    nst = 0",
            "    nse = 0",
        ]

    # -- one method per unit: each opcode's value and data movement ----
    def emit_alu(self, inst: Instruction) -> None:
        name = inst.opcode.name
        execution, latency = getattr(self.lat, inst.opcode.latency_row)
        a, b = self.rv(inst.ra), self.rv(inst.rb)
        if name in ("div", "divu", "rem"):
            self.emit(f"if {b} == 0:")
            self.emit("    raise _div_zero(tu)")
            if name == "div":
                self.emit(f"_v = int({_sx(a)} / {_sx(b)}) & 4294967295")
            elif name == "divu":
                self.emit(f"_v = {a} // {b}")
            else:
                self.emit(
                    f"_v = int(_fmod({_sx(a)}, {_sx(b)})) & 4294967295"
                )
        else:
            build, needs_mask = _ALU_EXPR[name]
            expr = build(a, b, inst.imm)
            if needs_mask:
                expr = f"({expr}) & 4294967295"
            self.emit(f"_v = {expr}")
        self.wait_deps((inst.ra, inst.rb))
        self.stall_to_e()
        self.retire(execution)
        self.write_r(inst.rd, "_v")
        self.write_t(inst.rd, f"it + {latency}" if latency else "it")

    def emit_system(self, inst: Instruction) -> None:
        name = inst.opcode.name
        if name == "sync":
            self.fence()
        self.retire(1)
        if name == "tid":
            self.write_r(inst.rd, "tu.tid")
            self.write_t(inst.rd, "it")

    def emit_halt(self) -> None:
        self.retire(1)
        self.flush()
        self.flush_registers()
        self.emit(f"c.finish_time = {self.CLOCK}")
        self.emit("state.halted = True")
        self.emit("return")

    def emit_branch(self, index: int, inst: Instruction) -> None:
        name = inst.opcode.name
        execution = self.lat.branch[0]
        next_pc = index + 1
        if name in _BRANCH_COND_EXPR:
            a, b = self.rv(inst.ra), self.rv(inst.rb)
            self.emit(f"_tk = {_BRANCH_COND_EXPR[name](a, b)}")
            self.wait_deps((inst.ra, inst.rb))
            self.stall_to_e()
            self.retire(execution)
            self.exit_to(f"{index + 1 + inst.imm} if _tk else {next_pc}")
            return
        if name == "j":
            self.retire(execution)
            self.exit_to(str(inst.imm))
            return
        if name == "jal":
            link = self.program.address_of(next_pc) & _U32
            self.write_r(REG_LINK, str(link))
            self.write_t(REG_LINK, "it + 2")
            self.retire(execution)
            self.exit_to(str(inst.imm))
            return
        # jr
        target = self.rv(inst.rd)
        self.wait_deps((inst.rd,))
        self.stall_to_e()
        self.retire(execution)
        self.exit_to(f"({target} - {self.program.base}) // 4")

    def emit_memory(self, index: int, inst: Instruction) -> None:
        name = inst.opcode.name
        size = MEM_SIZES[name]
        is_store = inst.opcode.unit is UnitClass.STORE
        # Sub-word accesses are timed as their containing word.
        align_mask = ~(size - 1) if size >= 4 else ~3
        rd = inst.rd
        self.await_issue(inst.scoreboard_deps())
        ea = self.rv(inst.ra)
        if inst.imm:
            self.emit(f"_ea = ({ea} + ({inst.imm})) & 4294967295")
            ea = "_ea"
        self.emit(f"_ph = {ea} & 16777215")
        # interest-group bits | aligned offset — the two mask terms
        # partition the address bits, so they fold into a single AND.
        access_mask = 0xFF000000 | (0xFFFFFF & align_mask)
        self.access_memory(index, ea, access_mask, max(size, 4), is_store)
        self.retire(1)
        if is_store:
            self.ns += 1
            if name == "sd":
                self.emit(
                    f"state.backing.store_f64(_ph, {self.read_double(rd)})"
                )
            elif name == "sw":
                self.emit(f"state.backing.store_u32(_ph, {self.rv(rd)})")
            else:
                self.emit("_wb = _ph - _ph % 4")
                self.emit(
                    "_dat = bytearray(state.backing.read_block(_wb, 4))"
                )
                if name == "sh":
                    self.emit(
                        "_dat[_ph % 4:_ph % 4 + 2] = "
                        f"_pk_H({self.rv(rd)} & 65535)"
                    )
                else:  # sb
                    self.emit(f"_dat[_ph % 4] = {self.rv(rd)} & 255")
                self.emit("state.backing.write_block(_wb, bytes(_dat))")
            return
        self.nl += 1
        if name == "ld":
            self.write_double(rd, "state.backing.load_f64(_ph)")
            self.write_t(rd, "_o.complete")
            self.write_t(rd + 1 if rd + 1 < 64 else rd, f"t{rd}")
            return
        if name == "lw":
            self.write_r(rd, "state.backing.load_u32(_ph)")
        else:  # lhu / lbu
            self.write_r(
                rd, f"_ifb(state.backing.read_block(_ph, {size}), 'little')"
            )
        self.write_t(rd, "_o.complete")

    def emit_atomic(self, index: int, inst: Instruction) -> None:
        self.await_issue((inst.ra, inst.rb))
        a, b = self.rv(inst.ra), self.rv(inst.rb)
        self.atomic_rmw(_AMO_OPS[inst.opcode.name], a, b)
        self.retire(1)
        self.nl += 1
        self.ns += 1
        self.write_r(inst.rd, "_old")
        self.write_t(inst.rd, "_o.complete")

    def emit_fpu(self, index: int, inst: Instruction) -> None:
        name = inst.opcode.name
        ra, rb, rd = inst.ra, inst.rb, inst.rd
        deps = inst.scoreboard_deps()
        rd1 = rd + 1 if rd + 1 < 64 else rd

        if name == "cvtif":
            a = self.rv(ra)
            self.reserve_fpu("convert", 1, deps)
            self.retire(1)
            self.nf += 1
            self.write_double(rd, f"float({_sx(a)})")
            self.write_t(rd, "_rt")
            self.write_t(rd1, "_rt")
            return
        if name == "cvtfi":
            src = self.read_double(ra)
            self.reserve_fpu("convert", 1, deps)
            self.retire(1)
            self.nf += 1
            self.write_r(rd, f"int({src}) & 4294967295")
            self.write_t(rd, "_rt")
            return

        # Both operand pairs are read before issue; an odd rb reads 0.0.
        self.emit(f"_a = {self.read_double(ra)}")
        b_expr = self.read_double(rb) if rb % 2 == 0 else "0.0"
        self.emit(f"_b = {b_expr}")
        if name in ("fcmplt", "fcmpeq"):
            cmp = "<" if name == "fcmplt" else "=="
            self.emit(f"_v = 1 if _a {cmp} _b else 0")
            self.reserve_fpu("add", 1, deps)
            self.retire(1)
            self.nf += 1
            self.write_r(rd, "_v")
            self.write_t(rd, "_rt")
            return

        unit_attr, flops = _FPU_UNIT[name]
        execution = getattr(self.lat, inst.opcode.latency_row)[0]
        if name in ("fmadd", "fmsub"):
            self.emit(f"_d = {self.read_double(rd)}")
        if name == "fdiv":
            self.emit("if _b == 0.0:")
            self.emit("    raise _fdiv_zero(tu)")
        self.emit(f"_v = {_FPU_VALUE_EXPR[name]}")
        self.reserve_fpu(unit_attr, execution, deps)
        self.retire(execution)
        self.nf += flops
        self.write_double(rd, "_v")
        self.write_t(rd, "_rt")
        self.write_t(rd1, "_rt")

    def emit_spr(self, index: int, inst: Instruction) -> None:
        if inst.opcode.name == "mtspr":
            self.await_issue((inst.ra,))
            a = self.rv(inst.ra)
            self.stall_to_e()
            self.retire(1)
            self.emit(f"state.spr.write(tu.tid, {a} & 255)")
        else:  # mfspr
            self.await_issue(())
            self.stall_to_e()
            self.retire(1)
            self.write_r(inst.rd, "state.spr.read_or() & 4294967295")
            self.write_t(inst.rd, "it")

    # -- block exits ---------------------------------------------------
    def exit_to(self, pc_expr: str) -> None:
        self.flush()
        self.flush_registers()
        self.emit(f"state.pc = {pc_expr}")
        self.emit("return")

    # -- driver --------------------------------------------------------
    def compile_source(self, fn_name: str) -> str:
        """The generated ``def`` of this block."""
        instructions = self.program.instructions
        self.lines = self.prologue(fn_name)
        for index in range(self.start, self.end):
            inst = instructions[index]
            unit = inst.opcode.unit
            if unit in ALU_UNITS:
                self.emit_alu(inst)
            elif unit is UnitClass.BRANCH:
                self.emit_branch(index, inst)
                return "\n".join(self.lines) + "\n"
            elif unit is UnitClass.ATOMIC:
                self.emit_atomic(index, inst)
            elif unit in (UnitClass.LOAD, UnitClass.STORE):
                self.emit_memory(index, inst)
            elif unit in FPU_UNITS:
                self.emit_fpu(index, inst)
            elif unit is UnitClass.SPR:
                self.emit_spr(index, inst)
            elif inst.opcode.name == "halt":
                self.emit_halt()
                return "\n".join(self.lines) + "\n"
            else:
                self.emit_system(inst)
        self.exit_to(str(self.end))
        return "\n".join(self.lines) + "\n"


# ---------------------------------------------------------------------------
# Functional (timing-free) code generation — repro.sampling fast-forward
# ---------------------------------------------------------------------------
class _ZeroLatency:
    """Latency-table stand-in for functional codegen.

    The timed emitters index latency rows for execution/result cycles;
    the functional subclass discards both, so every row reads ``(1, 0)``.
    """

    def __getattr__(self, name: str) -> tuple[int, int]:
        return (1, 0)


_FUNCTIONAL_LAT = _ZeroLatency()
#: Functional blocks model no fetch, so they never cut at PIB windows:
#: only real leaders (entry, branch targets, fall-throughs) split them.
_FUNCTIONAL_WINDOW = 1 << 30


class _FunctionalEmitter(_BlockEmitter):
    """Emits the timing-free (functional) source of one block.

    Same architectural semantics as the timed emitter — register
    values, memory data, instruction/load/store/flop counters, faults —
    with every clock, scoreboard, FPU-pipe, and scheduler hook emptied:
    the closures are plain calls with no yields. Memory accesses warm
    the caches instead of timing them.

    Double pairs are additionally cached as *float* locals (``d12``) so
    hot FP loops never round-trip through the packed u32 representation.
    A pair has at most one authoritative view at a time: materializing
    either view writes back and drops the other, so mixed int/double
    access of the same registers stays exact.
    """

    #: The functional clock does not advance; the last detailed issue
    #: time is the best-known finish time of a halting thread.
    CLOCK = "tu.issue_time"

    def __init__(self, program: Program, lat, start: int, end: int) -> None:
        super().__init__(program, lat, start, end)
        self.local_d: set[int] = set()
        self.dirty_d: set[int] = set()

    # -- the pair cache -------------------------------------------------
    def _spill_pair(self, pair: int) -> None:
        """Re-materialize a pair's u32 view before an integer access."""
        if pair in self.local_d:
            self.emit(f"r{pair}, r{pair + 1} = _up_II(_pk_d(d{pair}))")
            self.local_r.update((pair, pair + 1))
            if pair in self.dirty_d:
                self.dirty_r.update((pair, pair + 1))
                self.dirty_d.discard(pair)
            self.local_d.discard(pair)

    def _drop_int_view(self, pair: int) -> None:
        """Retire a pair's u32 locals before its float local takes over."""
        for reg in (pair, pair + 1):
            if reg in self.dirty_r:
                self.emit(f"_R[{reg}] = r{reg}")
                self.dirty_r.discard(reg)
            self.local_r.discard(reg)

    def rv(self, reg: int) -> str:
        self._spill_pair(reg & ~1)
        return super().rv(reg)

    def write_r(self, reg: int, expr: str) -> None:
        self._spill_pair(reg & ~1)
        super().write_r(reg, expr)

    def read_double(self, reg: int) -> str:
        if reg % 2 or reg == 0:
            return super().read_double(reg)
        if reg not in self.local_d:
            lo, hi = self.rv(reg), self.rv(reg + 1)
            self.emit(f"d{reg} = _up_d(_pk_II({lo}, {hi}))[0]")
            self.local_d.add(reg)
            self._drop_int_view(reg)
        return f"d{reg}"

    def write_double(self, reg: int, expr: str) -> None:
        if reg % 2 or reg == 0:
            super().write_double(reg, expr)
            return
        self._drop_int_view(reg)
        self.emit(f"d{reg} = {expr}")
        self.local_d.add(reg)
        self.dirty_d.add(reg)

    def flush_registers(self) -> None:
        super().flush_registers()
        for reg in sorted(self.dirty_d):
            self.emit(f"_R[{reg}], _R[{reg + 1}] = _up_II(_pk_d(d{reg}))")
        self.dirty_d.clear()

    # -- timing hooks, emptied -------------------------------------------
    def write_t(self, reg: int, expr: str) -> None:
        pass

    def wait_deps(self, deps: tuple[int, ...]) -> None:
        pass

    def stall_to_e(self) -> None:
        pass

    def retire(self, execution: int) -> None:
        self.ni += 1

    def await_issue(self, deps: tuple[int, ...]) -> None:
        pass

    def reserve_fpu(self, unit_attr: str, execution: int,
                    deps: tuple[int, ...]) -> None:
        pass

    def fence(self) -> None:
        # The fence orders only the scoreboard, which functional mode
        # does not model; architecturally sync is a nop.
        pass

    def access_memory(self, index: int, ea: str, access_mask: int,
                      access_size: int, is_store: bool) -> None:
        # Functional warming: same aligned line-classified address the
        # timed path would access, minus all timing (see
        # MemorySubsystem.warm_access). Memoized per static op on the
        # line-aligned address: a unit-stride stream touches one line
        # for several consecutive accesses and only the first needs
        # tag/LRU work. A static op is always a load or always a
        # store, so the store flag needs no key space.
        self.emit(f"_k = {ea} & 4294967232")
        self.emit(f"if _wmg({index}) != _k:")
        self.emit(f"    _wm[{index}] = _k")
        self.emit(f"    _warm(_qid, {ea} & {access_mask}, {is_store})")

    def atomic_rmw(self, op: str, a: str, b: str) -> None:
        self.emit(f"_ph = {a} & 16777215")
        self.emit(f"_warm(_qid, {a} & 4294967292, True)")
        self.emit("_old = state.backing.load_u32(_ph)")
        new = {"add": f"(_old + {b}) & 4294967295", "swap": b,
               "and": f"_old & {b}", "or": f"_old | {b}"}[op]
        self.emit(f"state.backing.store_u32(_ph, {new})")

    def flush(self) -> None:
        self.emit("c = tu.counters")
        if self.ni:
            self.emit(f"c.instructions += {self.ni}")
        if self.nl:
            self.emit(f"c.loads += {self.nl}")
        if self.ns:
            self.emit(f"c.stores += {self.ns}")
        if self.nf:
            self.emit(f"c.flops += {self.nf}")

    def prologue(self, fn_name: str) -> list[str]:
        return [
            f"def {fn_name}(state):",
            "    tu = state.tu",
            "    _R = state.regs._regs",
            "    _warm = state.warm_fn",
            "    _wm = state.warm_memo",
            "    _wmg = _wm.get",
            "    _qid = tu.quad_id",
        ]


# ---------------------------------------------------------------------------
# The dispatch table
# ---------------------------------------------------------------------------
class BlockTable:
    """Compiled dispatch table of one program under one latency table.

    ``entries`` parallels the instruction list: a fused block's leader
    holds the fused closure, every other index its 1-instruction block.
    Timed entries are ``(is_generator, fn)`` — generator closures yield
    to the scheduler — and functional entries are plain ``fn(state)``.
    """

    __slots__ = ("entries", "n_fused", "lengths", "source")

    def __init__(self, entries: list, lengths: list[int],
                 source: str) -> None:
        self.entries = entries
        #: Number of fused (multi-instruction) blocks.
        self.n_fused = len(lengths)
        #: Instruction count of each fused block (telemetry histogram).
        self.lengths = lengths
        #: The generated Python module (debugging aid).
        self.source = source


def compile_blocks(program: Program, lat,
                   window_bytes: int | None = None) -> BlockTable:
    """*program*'s dispatch table under latency table *lat* (cached).

    Without *window_bytes* every index gets a 1-instruction block: the
    per-instruction table. With it (the PIB window), every
    multi-instruction basic block fuses into one closure installed at
    its leader, and every other index keeps its 1-instruction block.
    All closures come from one generated module. The functional
    stand-in table ``_FUNCTIONAL_LAT`` (see :func:`compile_functional`)
    selects the timing-free emitter and plain ``fn(state)`` entries.

    The result is cached on the program keyed by ``(lat identity,
    window_bytes)`` — the cache value keeps *lat* alive, so the id
    cannot be recycled — which means sharing a program across threads,
    re-running it, or alternating between two chip configs compiles
    nothing.
    """
    cache = program._tables
    if cache is None:
        cache = program._tables = {}
    key = (id(lat), window_bytes)
    cached = cache.get(key)
    if cached is not None and cached[0] is lat:
        return cached[1]

    functional = lat is _FUNCTIONAL_LAT
    emitter_cls = _FunctionalEmitter if functional else _BlockEmitter
    n = len(program.instructions)
    fused = [] if window_bytes is None else [
        (start, end) for start, end in block_spans(program, window_bytes)
        if end - start > 1
    ]
    # A fused block's leader never dispatches its 1-instruction block.
    leaders = {start for start, _ in fused}
    spans = [(i, i + 1) for i in range(n) if i not in leaders] + fused
    pieces: list[str] = []
    built: list[tuple[int, str, bool]] = []
    for start, end in spans:
        emitter = emitter_cls(program, lat, start, end)
        fn_name = f"_blk_{start}_{end}"
        pieces.append(emitter.compile_source(fn_name))
        built.append((start, fn_name, emitter.is_gen))
    module = "\n".join(pieces)
    namespace = dict(_NAMESPACE)
    if module:
        code = compile(module, f"<blocks:{program.base:#x}>", "exec")
        exec(code, namespace)
    entries: list = [None] * n
    for start, fn_name, is_gen in built:
        fn = namespace[fn_name]
        entries[start] = fn if functional else (is_gen, fn)
    table = BlockTable(entries, [end - start for start, end in fused],
                       module)
    cache[key] = (lat, table)
    return table


def compile_functional(program: Program) -> BlockTable:
    """*program*'s functional (timing-free) dispatch table (cached).

    Fused at every basic block; plain ``fn(state)`` entries that are
    architecturally exact with no clock and no scheduler.
    """
    return compile_blocks(program, _FUNCTIONAL_LAT, _FUNCTIONAL_WINDOW)
