"""Instruction objects: one decoded machine instruction."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import IsaError
from repro.isa.opcodes import Format, MEM_SIZES, Opcode, UnitClass


@dataclass(frozen=True)
class Instruction:
    """One instruction: opcode plus operand fields.

    Field use by format:

    ======  =====================================
    R       ``rd``, ``ra``, ``rb``
    I       ``rd``, ``ra``, ``imm`` (signed 13-bit)
    M       ``rd``, ``imm(ra)``
    B       ``ra``, ``rb``, ``imm`` = word offset
    J       ``imm`` = absolute word target
    S       ``rd`` (where meaningful)
    ======  =====================================
    """

    opcode: Opcode
    rd: int = 0
    ra: int = 0
    rb: int = 0
    imm: int = 0

    def __post_init__(self) -> None:
        for reg in (self.rd, self.ra, self.rb):
            if not 0 <= reg < 64:
                raise IsaError(f"{self.opcode.name}: register r{reg} invalid")
        if self.opcode.fmt in (Format.I, Format.M, Format.B):
            if not -(1 << 12) <= self.imm < (1 << 12):
                raise IsaError(
                    f"{self.opcode.name}: immediate {self.imm} exceeds 13 bits"
                )
        elif self.opcode.fmt is Format.J:
            if not 0 <= self.imm < (1 << 25):
                raise IsaError(
                    f"{self.opcode.name}: jump target {self.imm} exceeds 25 bits"
                )

    def scoreboard_deps(self) -> tuple[int, ...]:
        """Registers whose scoreboard ready-times gate this issue.

        Double-precision operands occupy an even/odd register pair, so
        each pair operand expands to ``(reg, reg + 1)``. The result is a
        static property of the instruction; the block code generator
        resolves it once per static instruction instead of per dynamic
        execution. ``sync`` is the one exception (it waits on *every*
        register) and is handled by its emitter directly.
        """
        unit = self.opcode.unit
        name = self.opcode.name
        if unit is UnitClass.BRANCH:
            if name == "jr":
                return (self.rd,)
            if name in ("j", "jal"):
                return ()
            return (self.ra, self.rb)
        if unit is UnitClass.ATOMIC:
            return (self.ra, self.rb)
        if unit in (UnitClass.LOAD, UnitClass.STORE):
            regs = (self.ra, self.rd) if unit is UnitClass.STORE \
                else (self.ra,)
            if MEM_SIZES[name] == 8:
                return self._expand_pairs(regs)
            return regs
        if unit is UnitClass.SPR:
            return (self.ra,) if name == "mtspr" else ()
        if unit is UnitClass.SYSTEM:
            return ()
        if name == "cvtif":
            return (self.ra,)
        if name == "cvtfi":
            return self._expand_pairs((self.ra,))
        if name in ("fadd", "fsub", "fmul", "fdiv", "fsqrt", "fneg",
                    "fabs", "fmov", "fcmplt", "fcmpeq"):
            return self._expand_pairs((self.ra, self.rb))
        if name in ("fmadd", "fmsub"):
            return self._expand_pairs((self.ra, self.rb, self.rd))
        # fixed-point ALU forms (immediate forms keep the rb slot — it
        # encodes as r0, and r0's scoreboard entry is a real dependence)
        return (self.ra, self.rb)

    @staticmethod
    def _expand_pairs(regs: tuple[int, ...]) -> tuple[int, ...]:
        expanded: list[int] = []
        for reg in regs:
            expanded.append(reg)
            expanded.append(reg + 1 if reg + 1 < 64 else reg)
        return tuple(expanded)

    def render(self) -> str:
        """Disassemble into canonical assembly text."""
        name, fmt = self.opcode.name, self.opcode.fmt
        if fmt is Format.R:
            return f"{name} r{self.rd}, r{self.ra}, r{self.rb}"
        if fmt is Format.I:
            return f"{name} r{self.rd}, r{self.ra}, {self.imm}"
        if fmt is Format.M:
            return f"{name} r{self.rd}, {self.imm}(r{self.ra})"
        if fmt is Format.B:
            return f"{name} r{self.ra}, r{self.rb}, {self.imm}"
        if fmt is Format.J:
            return f"{name} {self.imm}"
        if name in ("jr", "tid"):
            return f"{name} r{self.rd}"
        return name
