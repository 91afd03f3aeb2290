"""ELF loader: executable file → initialised processor state.

Paper Section V: the ELF file is loaded into the simulated memory, the
start address initialises the IP, and the initial ISA comes from the
command line or the ADL default — we additionally honour the entry ISA
the linker recorded in ``e_flags``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

from ..adl.model import Architecture
from ..libc import LIBC_BY_NAME
from ..sim.debuginfo import DebugInfo, LineMap
from ..sim.errors import SimulationError
from ..sim.state import ProcessorState
from ..sim.syscalls import Syscalls
from .elf import ElfFile, ET_EXEC, PT_LOAD, STT_FUNC
from .objfile import ASMMAP_SECTION, DBGLINE_SECTION


@dataclass
class LoadedProgram:
    """Everything needed to simulate one executable."""

    state: ProcessorState
    syscalls: Syscalls
    debug_info: DebugInfo
    elf: ElfFile

    @property
    def output(self) -> str:
        return self.syscalls.output_text()


def debug_info_from_elf(elf: ElfFile) -> DebugInfo:
    """Build symbolisation info from an ELF's debug sections.

    Shared by the loader and checkpoint resume — a checkpoint carries
    no debug information, so resuming re-derives it from the original
    executable when one is supplied.
    """
    debug = DebugInfo()
    asmmap = elf.section(ASMMAP_SECTION)
    if asmmap is not None:
        debug.asm_map = LineMap.decode(asmmap.data)
    lines = elf.section(DBGLINE_SECTION)
    if lines is not None:
        debug.src_map = LineMap.decode(lines.data)
    for sym in elf.symbols:
        if sym.sym_type == STT_FUNC and sym.size:
            debug.add_function(sym.name, sym.value, sym.size)
    return debug


def mangled_functions(
    elf: ElfFile, arch: Architecture
) -> Iterator[Tuple[int, str, int]]:
    """``(isa_id, name, address)`` of every ISA-mangled function symbol.

    The compiler mangles each function with its ISA (``$vliw4$dct4x4``),
    so the symbol table tells which ISAs a program's code is in.
    """
    isa_ids = {isa.name: isa.ident for isa in arch.isas}
    for sym in elf.symbols:
        name = sym.name
        if sym.size and name.startswith("$"):
            isa_name, _, rest = name[1:].partition("$")
            if rest and isa_name in isa_ids:
                yield isa_ids[isa_name], rest, sym.value


def program_issue_width(
    elf: ElfFile, arch: Architecture, entry_isa: Optional[int] = None
) -> int:
    """Widest issue width among the ISAs the program contains.

    Covers the entry ISA (``entry_isa``, by default the one the linker
    recorded) and the ISA of every compiled function.  The linker adds
    libc stubs for every ISA, but a stub only runs when code of its own
    ISA calls it, so stubs do not count.  Cycle models with per-slot
    state are sized with it, so a mixed-ISA program's VLIW functions
    fit a model built at a RISC entry point, while a single-ISA program
    keeps its own width.
    """
    isas = {elf.flags if entry_isa is None else entry_isa}
    isas.update(
        isa_id for isa_id, name, _addr in mangled_functions(elf, arch)
        if name not in LIBC_BY_NAME
    )
    return max(arch.isa(isa_id).issue_width for isa_id in isas)


def load_executable(
    elf: ElfFile,
    arch: Architecture,
    *,
    isa_id: Optional[int] = None,
    input_data: bytes = b"",
    rand_seed: int = 1,
) -> LoadedProgram:
    """Load an executable ELF and return a ready-to-run program.

    ``isa_id`` overrides the entry ISA (the paper's command-line
    parameter); by default the linker-recorded entry ISA is used.
    """
    if elf.e_type != ET_EXEC:
        raise SimulationError("not an executable ELF")
    entry_isa = elf.flags if isa_id is None else isa_id
    state = ProcessorState(arch, isa_id=entry_isa)

    image_end = 0
    for phdr, data in elf.segments:
        if phdr.p_type != PT_LOAD:
            continue
        state.mem.store_bytes(phdr.vaddr, data)
        # memsz > filesz: .bss, already zero in our sparse memory.
        image_end = max(image_end, phdr.vaddr + phdr.memsz)

    state.ip = elf.entry
    state.setup_stack()

    heap_base = (image_end + 0xFFF) & ~0xFFF
    syscalls = Syscalls(
        heap_base=heap_base, input_data=input_data, rand_seed=rand_seed
    )
    syscalls.install(state)

    return LoadedProgram(state=state, syscalls=syscalls,
                         debug_info=debug_info_from_elf(elf), elf=elf)
