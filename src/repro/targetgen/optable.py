"""Operation tables generated from the ADL.

The paper's simulator keeps one operation table per ISA; each entry
contains the operation's name, size, fields, implicit registers and a
pointer to its simulation function (Section V).  Only the table of the
currently active ISA is used during instruction detection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..adl.model import Architecture, Isa, Operation
from ..adl.validate import check_architecture
from .behavior_compiler import compile_sim_function, direct_eligible


@dataclass(frozen=True)
class OpTableEntry:
    """One decoded-operation descriptor plus its simulation function."""

    op: Operation
    sim_fn: Callable
    #: Decode-time extraction order (mirrors Operation.value_fields).
    value_fields: Tuple = ()
    #: Indices into the decoded value tuple holding source / destination
    #: register numbers (precomputed for the cycle models).
    src_value_indices: Tuple[int, ...] = ()
    dst_value_indices: Tuple[int, ...] = ()
    #: Whether the superblock translator may inline the operation with
    #: in-place writes (see ``behavior_compiler.direct_eligible``).
    direct: bool = False

    def decode(self, word: int) -> Tuple[int, ...]:
        """Extract all value fields of ``word`` (the decode structure)."""
        return tuple(f.extract(word) for f in self.value_fields)

    def encode(self, values: Dict[str, int]) -> int:
        """Inverse of :meth:`decode`: build the operation word."""
        word = self.op.const_value
        for f in self.value_fields:
            word |= f.insert(values[f.name])
        return word


class OperationTable:
    """Detection and decode table for one ISA."""

    def __init__(self, isa: Isa) -> None:
        self.isa = isa
        self.entries: List[OpTableEntry] = []
        self.by_name: Dict[str, OpTableEntry] = {}
        for op in isa.operations:
            vfields = op.value_fields
            names = [f.name for f in vfields]
            entry = OpTableEntry(
                op=op,
                sim_fn=compile_sim_function(op),
                direct=direct_eligible(op),
                value_fields=vfields,
                src_value_indices=tuple(names.index(n) for n in op.src_fields),
                dst_value_indices=tuple(names.index(n) for n in op.dst_fields),
            )
            self.entries.append(entry)
            self.by_name[op.name] = entry
        # Fast path: every KAHRISMA operation is distinguished by the
        # opcode byte; fall back to the generic constant-field scan if a
        # future ISA breaks that property.
        self._opcode_index: Optional[Dict[int, OpTableEntry]] = None
        self._build_opcode_index()

    def _build_opcode_index(self) -> None:
        index: Dict[int, OpTableEntry] = {}
        for entry in self.entries:
            try:
                opcode_field = entry.op.field("opcode")
            except KeyError:
                self._opcode_index = None
                return
            if (opcode_field.hi, opcode_field.lo) != (31, 24):
                self._opcode_index = None
                return
            key = opcode_field.const
            if key in index:
                self._opcode_index = None
                return
            index[key] = entry
        self._opcode_index = index

    def detect(self, word: int) -> Optional[OpTableEntry]:
        """Find the operation whose constant fields match ``word``.

        This is the paper's *instruction detection* step.  Returns
        ``None`` for an undefined encoding.
        """
        index = self._opcode_index
        if index is not None:
            entry = index.get((word >> 24) & 0xFF)
            if entry is not None and entry.op.matches(word):
                return entry
            return None
        for entry in self.entries:
            if entry.op.matches(word):
                return entry
        return None


class TargetDescription:
    """All per-architecture tables the simulator needs, generated once.

    This object is TargetGen's output for the simulator: the register
    table and one operation table per ISA.
    """

    def __init__(self, arch: Architecture, *, validate: bool = True) -> None:
        if validate:
            check_architecture(arch)
        self.arch = arch
        self.register_table: Tuple[str, ...] = tuple(
            r.name for r in arch.register_file.registers
        )
        self.optables: Dict[int, OperationTable] = {}
        shared: Dict[int, OperationTable] = {}
        for isa in arch.isas:
            key = id(isa.operations)
            if key in shared and shared[key].isa.operations is isa.operations:
                # Re-use compiled simulation functions across ISAs that
                # share an operation tuple, but keep a per-ISA table so
                # issue widths stay distinct.
                base = shared[key]
                table = OperationTable.__new__(OperationTable)
                table.isa = isa
                table.entries = base.entries
                table.by_name = base.by_name
                table._opcode_index = base._opcode_index
            else:
                table = OperationTable(isa)
                shared[key] = table
            self.optables[isa.ident] = table

    def optable(self, isa_id: int) -> OperationTable:
        return self.optables[isa_id]


_CACHE: Dict[int, TargetDescription] = {}


def build_target(arch: Architecture) -> TargetDescription:
    """Build (and memoise) the target description for ``arch``."""
    key = id(arch)
    target = _CACHE.get(key)
    if target is None or target.arch is not arch:
        target = TargetDescription(arch)
        _CACHE[key] = target
    return target
