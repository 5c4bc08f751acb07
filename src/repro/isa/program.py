"""Programs: instruction sequences with labels, placed at a code base."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import IsaError
from repro.isa.encoding import decode_instruction, encode_instruction
from repro.isa.instruction import Instruction


@dataclass
class Program:
    """An assembled program.

    Instructions occupy consecutive 4-byte slots starting at ``base``
    (instruction addresses feed the PIB/I-cache model). ``labels`` map
    names to instruction indices.
    """

    instructions: list[Instruction] = field(default_factory=list)
    labels: dict[str, int] = field(default_factory=dict)
    base: int = 0x0
    #: Dispatch-table cache: ``{(id(latency_table), pib_window):
    #: (latency_table, table)}``, filled the first time this program
    #: runs — see :func:`repro.isa.blocks.compile_blocks`. Each table is
    #: keyed to the latency table it was compiled against (the value
    #: keeps the table alive, which makes the ``id`` key safe), so a
    #: program can move between chips with different configs — or
    #: alternate between two configs in an ablation sweep — without
    #: recompiling. Mutating ``instructions`` after a run leaves a stale
    #: cache — assemble a new Program instead.
    _tables: dict | None = field(
        init=False, default=None, repr=False, compare=False
    )

    def __len__(self) -> int:
        return len(self.instructions)

    def __getitem__(self, index: int) -> Instruction:
        return self.instructions[index]

    def address_of(self, index: int) -> int:
        """Byte address of the instruction at *index*."""
        return self.base + 4 * index

    def index_of_label(self, label: str) -> int:
        """Instruction index of a label."""
        try:
            return self.labels[label]
        except KeyError:
            raise IsaError(f"undefined label {label!r}") from None

    def encode(self) -> list[int]:
        """The program as 32-bit machine words."""
        return [encode_instruction(inst) for inst in self.instructions]

    @classmethod
    def from_words(cls, words: list[int], base: int = 0) -> "Program":
        """Rebuild a program from machine words (no labels survive)."""
        return cls(
            instructions=[decode_instruction(w) for w in words],
            labels={},
            base=base,
        )

    def listing(self) -> str:
        """A human-readable disassembly listing."""
        by_index: dict[int, list[str]] = {}
        for name, index in self.labels.items():
            by_index.setdefault(index, []).append(name)
        lines = []
        for i, inst in enumerate(self.instructions):
            for name in by_index.get(i, []):
                lines.append(f"{name}:")
            lines.append(f"  {self.address_of(i):#08x}  {inst.render()}")
        return "\n".join(lines)
