"""Instruction detection and decoding (paper Section V).

Within the simulation loop the instruction addressed by the IP is
*detected* by checking the constant fields of each operation of the
active ISA, then *decoded* by extracting all fields into a decode
structure for fast access during execution.  For an n-issue VLIW ISA an
instruction consists of n operation words decoded together.

The decode structure (:class:`DecodedInstruction`) also carries the
instruction-prediction fields used by the decode cache (Section V-A):
the predicted next IP and a pointer to the predicted next decode
structure.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..targetgen.optable import OperationTable, OpTableEntry
from .errors import DecodeError
from .memory import Memory

#: Integer operation-kind codes (faster to branch on than strings).
KIND_ALU = 0
KIND_LOAD = 1
KIND_STORE = 2
KIND_CTRL = 3
KIND_NOP = 4
KIND_SIMOP = 5
KIND_SWITCH = 6
KIND_HALT = 7

_KIND_CODES = {
    "alu": KIND_ALU,
    "load": KIND_LOAD,
    "store": KIND_STORE,
    "branch": KIND_CTRL,
    "nop": KIND_NOP,
    "simop": KIND_SIMOP,
    "switch": KIND_SWITCH,
    "halt": KIND_HALT,
}

#: Kinds whose simulation function may redirect control or touch
#: simulator state; at most one such operation per instruction.
_CONTROL_KINDS = frozenset((KIND_CTRL, KIND_HALT, KIND_SWITCH, KIND_SIMOP))


class DecodedOp:
    """One decoded operation (one slot of an instruction)."""

    __slots__ = (
        "entry",
        "name",
        "word",
        "vals",
        "sim_fn",
        "direct",
        "kind_code",
        "delay",
        "fu_class",
        "srcs",
        "dsts",
        "mem_base",
        "mem_imm",
        "slot",
    )

    def __init__(self, entry: OpTableEntry, word: int, slot: int) -> None:
        op = entry.op
        vals = entry.decode(word)
        self.entry = entry
        self.name = op.name
        self.word = word
        self.vals = vals
        self.sim_fn = entry.sim_fn
        #: In-place writes are safe when inlined alone (superblock).
        self.direct = entry.direct
        self.kind_code = _KIND_CODES[op.kind]
        self.delay = op.delay
        self.fu_class = op.fu_class
        self.slot = slot
        # Source/destination register indices, including implicit ones.
        # Writes to the hard-wired zero register are dropped so the
        # cycle models never create a dependency through r0.
        srcs = tuple(vals[i] for i in entry.src_value_indices) + op.implicit_reads
        dsts = tuple(
            vals[i] for i in entry.dst_value_indices if vals[i] != 0
        ) + tuple(r for r in op.implicit_writes if r != 0)
        self.srcs = srcs
        self.dsts = dsts
        # Effective-address ingredients for the memory approximation.
        if self.kind_code in (KIND_LOAD, KIND_STORE):
            names = [f.name for f in entry.value_fields]
            self.mem_base = vals[names.index("rs1")]
            self.mem_imm = vals[names.index("imm")]
        else:
            self.mem_base = -1
            self.mem_imm = 0

    @property
    def is_control(self) -> bool:
        return self.kind_code in _CONTROL_KINDS

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<DecodedOp {self.name} vals={self.vals}>"


class DecodedInstruction:
    """The paper's *decode structure* for one (possibly VLIW) instruction.

    Mutable only in its prediction fields, which implement the 1-bit
    instruction prediction of Section V-A.
    """

    __slots__ = (
        "addr",
        "size",
        "isa_id",
        "ops",
        "exec_ops",
        "single",
        "is_control",
        "has_mem",
        "n_slots",
        "n_exec",
        "n_mem",
        "pred_ip",
        "pred_dec",
    )

    def __init__(
        self,
        addr: int,
        size: int,
        isa_id: int,
        ops: Tuple[DecodedOp, ...],
    ) -> None:
        self.addr = addr
        self.size = size
        self.isa_id = isa_id
        self.ops = ops
        #: (sim_fn, vals) pairs with NOP slots stripped — the execution
        #: fast path iterates this.
        self.exec_ops = tuple(
            (op.sim_fn, op.vals) for op in ops if op.kind_code != KIND_NOP
        )
        self.single = ops[0] if len(ops) == 1 else None
        self.is_control = any(op.is_control for op in ops)
        self.n_slots = len(ops)
        self.n_exec = len(self.exec_ops)
        self.n_mem = sum(
            1 for op in ops if op.kind_code in (KIND_LOAD, KIND_STORE)
        )
        self.has_mem = self.n_mem > 0
        #: Instruction prediction: predicted next IP and decode
        #: structure (None until first successor observed).
        self.pred_ip = -1
        self.pred_dec: Optional["DecodedInstruction"] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        names = "+".join(op.name for op in self.ops)
        return f"<DecodedInstruction {self.addr:#x} {names}>"


def decode_instruction(
    optable: OperationTable, mem: Memory, addr: int
) -> DecodedInstruction:
    """Detect and decode the instruction at ``addr`` under ``optable``'s ISA.

    Raises :class:`DecodeError` if any operation word matches no
    operation of the active ISA, or if the instruction bundles more
    than one control operation (the compiler never emits that; seeing
    it indicates mis-aligned or corrupted code, paper goal 4).
    """
    isa = optable.isa
    ops = []
    controls = 0
    for slot in range(isa.issue_width):
        word_addr = addr + 4 * slot
        word = mem.load4(word_addr)
        entry = optable.detect(word)
        if entry is None:
            raise DecodeError(
                f"undefined operation word {word:#010x} in slot {slot}",
                ip=word_addr,
                isa=isa.name,
            )
        op = DecodedOp(entry, word, slot)
        if op.is_control:
            controls += 1
            if controls > 1:
                raise DecodeError(
                    "more than one control operation in instruction",
                    ip=addr,
                    isa=isa.name,
                )
        ops.append(op)
    return DecodedInstruction(addr, isa.instr_size, isa.ident, tuple(ops))
