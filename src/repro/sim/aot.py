"""Ahead-of-time whole-program translation (the tier above superblocks).

The interactive superblock engine discovers, translates and chains
plans lazily, one block at a time, paying a dict-keyed dispatch and an
engine re-entry between blocks.  This module moves all of that offline
— the generated-simulator idea of Reshadi & Dutt applied to whole
programs: ``kahrisma compile <elf>`` statically discovers every
superblock entry point in the executable, translates each plan, and
concatenates the results into one generated Python module whose
dispatch loop is computed-goto style: a ``while`` over a dense
IP→function table, so block-to-block chaining is a local list index
instead of a hash lookup.

There is one emission path.  Each plan is composed once by
:func:`~repro.sim.superblock.plan_pieces` — the interactive engine's
own composition, including the fused AIE/DOE timing variants and VLIW
bundles — and a covered block's module function *is* that plan's
translated variant, renamed.  The emitter already folds and
register-promotes (see :mod:`repro.targetgen.behavior_compiler`), so
nothing here re-parses or rewrites generated code.

On top of the per-block functions the compiler forms **traces**: runs
of covered blocks connected by constant control transfers (the
fall-through of conditional branches, the targets of jumps and calls)
are spliced from the same pieces into single functions, and a
constant transfer back to the trace entry becomes a native ``while``
back-edge.  Inside a trace, block-to-block chaining costs nothing:
no dispatch, no call, no per-block statistics (constant-indexed hit
counters replace them, collapsed into totals once per run), and
registers stay in locals across blocks.  The dense table still
handles computed transfers between traces.

Discovery is a CFG walk from the ELF entry point and every function
symbol: inlined branch terminators report their constant targets as
data, capped/truncated blocks fall through, and call/return points
seed the successor worklist.  A short profile-guided functional replay
(budgeted, purely optional) adds targets static walking cannot see —
indirect branches and ISA switches.  Entries are bounded to the
``.text`` segment.

The artifact is stored through the persistent plan cache as one
whole-module entry per variant namespace (``""`` functional, the cycle
model's ``config_signature()`` for fused timing), next to the ordinary
per-plan entries — which the compiler also records, so the interactive
fallback engine reuses the very same translations.

Correctness contract (the differential suite pins it bitwise):

* **Coverage is partial by design.**  Only plans ending in an inlined
  branch terminator (a branch alone, or beside NOP slots of a VLIW
  bundle) enter the dense table; everything else — ISA switches,
  halts, simops, ``jalr rd, rd`` hazards, terminator bundles with
  further executing ops — is *uncovered*, and the interpreter falls
  back to the interactive superblock engine for exactly one block
  before re-entering the table.  Inside the table the ISA can never
  change and the machine can never halt, so the generated loop checks
  neither.
* **Self-modifying code stays byte-precise.**  Every table entry
  retains its instruction-byte digest; binding verifies digests
  against live memory, registers the covered pages with the memory's
  code-watch set, and a store into covered bytes disables exactly the
  overlapping table slots (a trace is disabled when any of its
  inlined blocks is overwritten).  A store *inside* a running block
  aborts it through the same ``inv`` cell and prefix-statistics
  accounting as the interactive engine — and since every write to
  watched code from covered code is a body store (branch terminators
  cannot store), the abort always fires before any stale inlined code
  could run, traces included.
* **Fused cycle counts are block-boundary independent** (the fusion
  régime already guarantees it: latencies are constant-folded per
  instruction, the block compilers round-trip all model state through
  ``m`` between blocks, and the fetch-floor clamp is inert without a
  branch model — and with one, the block compiler refuses
  terminators, so no fused module exists), so tables and traces built
  over statically discovered entries report bitwise the cycles of the
  lazily chained engine.

Instruction budgets stay exact: the dispatch loop pre-checks each
block (or one whole trace pass) against the remaining budget, traces
re-check at every back-edge, and the interpreter finishes a too-small
remainder per-instruction — ``max_instructions`` truncates at exactly
the same instruction count as every other engine.
"""

from __future__ import annotations

import base64
import marshal
import time
from bisect import bisect_right
from typing import Dict, List, Optional, Tuple

from ..binutils.loader import load_executable, mangled_functions
from ..targetgen.behavior_compiler import SIM_GLOBALS, Exit
from ..targetgen.optable import build_target
from .decode_cache import DecodeCache
from .decoder import KIND_STORE
from .errors import DecodeError
from .memory import PAGE_SHIFT, Memory
from .superblock import (
    Abort,
    Pieces,
    SuperblockPlan,
    _inline_terminator,
    _partial_stats,
    assemble,
    plan_digest,
    plan_pieces,
    walk_block,
)

#: Bump when the generated module layout, loop protocol or emitted
#: source changes.
AOT_FORMAT = 3

#: Instruction budget of the profile-guided discovery replay (a plain
#: functional superblock run whose plan table seeds the static walk
#: with indirect-branch and ISA-switch targets).  0 disables it.
DEFAULT_PROFILE_BUDGET = 1_000_000

#: Maximum number of blocks inlined into one trace function.
TRACE_CAP = 24

#: Dispatch-loop exit reasons (second element of the loop's return).
_EXIT_UNCOVERED = 0
_EXIT_BUDGET = 1
_EXIT_ABORT = 2

#: Warm-start memo: reviving a whole-program module costs a marshal
#: load plus an exec; repeated runs in one process (benchmarks, shard
#: workers) reuse the compiled module.  Keyed by cache path and
#: namespace, guarded by the payload's code blob.
_MODULE_MEMO: Dict[Tuple[str, str], Tuple[int, "AotModule"]] = {}


def _namespace_for(model) -> Tuple[Optional[str], object]:
    """Variant namespace an AOT module would serve for ``model``.

    Mirrors the interpreter's cycle-fusion resolution: no model runs
    the plain functional variants (``""``); a model offering a block
    compiler runs the fused variants under its configuration
    signature.  Everything else (block-observing ILP, per-instruction
    RTL, profiler-wrapped models) has no whole-module representation —
    the ``aot`` engine transparently degrades to the interactive
    superblock loop for those.
    """
    if model is None:
        return "", None
    maker = getattr(model, "block_compiler", None)
    fuser = maker() if maker is not None else None
    if fuser is None:
        return None, None
    return model.config_signature(), fuser


def discover(
    cache: DecodeCache,
    mem: Memory,
    seeds,
    max_len: int,
    bounds: Optional[Tuple[int, int]] = None,
) -> Dict[Tuple[int, int], SuperblockPlan]:
    """CFG-walk every reachable superblock entry point.

    ``seeds`` is an iterable of ``(isa_id, ip)`` pairs; ``bounds``
    restricts entries to ``[lo, hi)`` (the ``.text`` segment) so the
    walk cannot wander into zero-filled pages.  Uses
    :func:`~repro.sim.superblock.walk_block`, the same block
    delimitation the interactive engine applies, so both tiers carve
    identical plans.
    """
    plans: Dict[Tuple[int, int], SuperblockPlan] = {}
    work = list(seeds)
    while work:
        isa_id, ip = work.pop()
        key = (isa_id, ip)
        if key in plans:
            continue
        if bounds is not None and not (bounds[0] <= ip < bounds[1]):
            continue
        try:
            decs, terminated = walk_block(cache, mem, isa_id, ip, max_len)
        except DecodeError:
            continue  # data or a dead speculative seed: not an entry
        plan = SuperblockPlan(isa_id, ip, decs, terminated)
        plans[key] = plan
        if plan.term_dec is None:
            # Capped or truncated: control falls through.
            work.append((isa_id, plan.end_ip))
            continue
        inlined = _inline_terminator(plan.term_dec)
        if inlined is not None:
            for target in inlined.targets:
                if target >= 0:
                    work.append((isa_id, target))
        # The terminator's fall-through: branch not-taken, a call's
        # return point, the word after a switch thunk.  Dead seeds are
        # filtered by the DecodeError guard above and cost nothing.
        work.append((isa_id, plan.term_next_ip))
    return plans


# -- trace formation --------------------------------------------------------


def _successors(p: Pieces) -> set:
    """Constant transfer targets of a covered block, fall-through too."""
    return set(p.branch.targets) | {p.branch.fallthrough}


def _build_regions(covered_keys, pieces, prefixes) -> List[List[Tuple[int, int]]]:
    """Greedy region formation over the covered blocks.

    From every covered entry, grow a single-entry region of up to
    :data:`TRACE_CAP` covered blocks: follow the terminator's *final
    unconditional constant* transfer first (maximising zero-cost
    fall-through in the emitted layout), then pull in conditional
    branch targets — so whole loop nests (header, body, increment,
    inner loops) land in one region and their branches become internal
    jumps instead of dispatch-loop round trips.  A region is kept when
    it spans several blocks or contains a constant transfer back to
    its own entry (a loop — compiled as a native ``while`` back-edge).
    Blocks whose abort-prefix stop addresses collide (overlapping
    plans) are never merged, keeping abort accounting unambiguous.
    """
    regions: List[List[Tuple[int, int]]] = []
    covered = set(covered_keys)
    for key in covered_keys:
        isa_id, head_ip = key
        layout = [key]
        members = {head_ip}
        stops = set(prefixes.get(key) or ())
        pending: List[int] = []
        cur = key
        while len(layout) < TRACE_CAP:
            for value in sorted(_successors(pieces[cur])):
                if value not in members and value not in pending:
                    pending.append(value)
            candidates = [pieces[cur].branch.fallthrough] + pending
            chosen = None
            for value in candidates:
                if value in members:
                    continue
                skey = (isa_id, value)
                if skey not in covered:
                    continue
                succ_stops = prefixes.get(skey) or {}
                if any(s in stops for s in succ_stops):
                    continue
                chosen = value
                break
            if chosen is None:
                break
            pending = [v for v in pending if v != chosen]
            members.add(chosen)
            stops.update(prefixes.get((isa_id, chosen)) or {})
            layout.append((isa_id, chosen))
            cur = (isa_id, chosen)
        back_edge = any(head_ip in _successors(pieces[k]) for k in layout)
        if len(layout) == 1 and not back_edge:
            continue
        regions.append(layout)
    return regions


def _emit_trace(
    name: str,
    chain: List[Tuple[int, int]],
    plans,
    pieces: Dict[Tuple[int, int], Pieces],
    index_of: Dict[Tuple[int, int], int],
    fused: bool,
) -> str:
    """Emit one region function: inlined blocks, internal jumps.

    Protocol: ``(state, inv[, m], _zh, _zb)`` where ``_zh`` is the
    per-entry hit-count list and ``_zb`` the remaining instruction
    budget; returns ``(next_ip, executed)`` — ``next_ip`` bit-inverted
    on a self-modifying-code abort, in which case ``executed``
    excludes the aborted block (its prefix is charged by the caller).

    Layout: one ``while 1`` whose body is the region's blocks in
    layout order, each spliced from its :class:`Pieces` — the very
    pieces its block function was assembled from.  A final constant
    transfer to the next block falls straight through (zero cost).
    Any other constant transfer to a member block sets a segment
    selector ``_zj`` and ``continue``s; the loop body is partitioned
    into ``if _zj == k:`` segments starting at each such join, so
    re-entry scans a few integer compares instead of a dispatch-loop
    round trip.  Backward jumps re-check the budget first — position
    strictly increases between checks, so one pass can never execute
    more than ``pass_ni`` (the region's total instruction count)
    without a check, which keeps the caller's budget pre-check sound.
    Everything without a constant in-region target returns to the
    dispatch loop.
    """
    position = {k[1]: j for j, k in enumerate(chain)}
    pass_ni = sum(plans[k].n_instr for k in chain)

    def exits(j: int):
        """``(line, is_fall_through)`` over block ``j``'s terminator."""
        lines = pieces[chain[j]].branch.lines
        next_ip = chain[j + 1][1] if j + 1 < len(chain) else None
        for pos, line in enumerate(lines):
            yield line, (pos == len(lines) - 1 and line.target == next_ip)

    # Pass 1: join positions — members entered by an explicit internal
    # jump (anything but the dropped final fall-through transfer).
    joins = set()
    for j in range(len(chain)):
        for line, fall in exits(j):
            if isinstance(line, Exit) and not fall and line.target in position:
                joins.add(position[line.target])
    seg_of: Dict[int, int] = {}
    seg = -1
    for j in range(len(chain)):
        if j == 0 or j in joins:
            seg += 1
        seg_of[j] = seg
    nsegs = seg + 1
    base = "        " if nsegs > 1 else "    "

    out = ["    _zn = 0"]
    if nsegs > 1:
        out.append("    _zj = 0")
    out.append("    while 1:")

    def emit_exit(j: int, line: Exit) -> None:
        indent = base + line.indent
        if line.target in position:
            target = position[line.target]
            if target <= j:
                # Backward jump: re-check the budget first so one
                # call can never overrun the caller's allowance.
                out.append(f"{indent}if _zn + {pass_ni} > _zb:")
                out.append(f"{indent}    return {line.target}, _zn")
            if nsegs > 1:
                out.append(f"{indent}_zj = {seg_of[target]}")
            out.append(f"{indent}continue")
        else:
            out.append(f"{indent}return ({line.expr}), _zn")

    for j, k in enumerate(chain):
        if nsegs > 1 and (j == 0 or j in joins):
            out.append(f"        if _zj == {seg_of[j]}:")
        p = pieces[k]
        for stmt in p.prologue:
            out.append(base + "    " + stmt)
        for line in p.pre:
            if isinstance(line, Abort):
                # A self-modifying-code abort: the block is unfinished,
                # so ``_zn`` (completed blocks only) is exactly right.
                out.append(f"{base}{line.indent}return {~line.stop}, _zn")
            else:
                out.append(base + line)
        out.append(f"{base}    _zn += {plans[k].n_instr}")
        out.append(f"{base}    _zh[{index_of[k]}] += 1")
        fell = False
        for line, fall in exits(j):
            if not isinstance(line, Exit):
                out.append(base + line)
            elif fall:
                fell = True  # falls through into the next inlined block
            else:
                emit_exit(j, line)
        if fell and nsegs > 1 and (j + 1) in joins:
            # Fall-through into a join block: select its segment so
            # the `if _zj == k` guard right below lets it in.
            out.append(f"{base}    _zj = {seg_of[j + 1]}")
    args = "state, inv, m, _zh, _zb" if fused else "state, inv, _zh, _zb"
    return assemble(f"def {name}({args}):", [pieces[k] for k in chain], out)


# -- module emission --------------------------------------------------------


def _emit_module(
    namespace: str, block_sources, trace_sources, fused: bool
) -> Tuple[str, object]:
    """Concatenate plan functions, trace functions and the loop."""
    call = "row[0](state, inv, m)" if fused else "row[0](state, inv)"
    trace_call = (
        "row[0](state, inv, m, hits, budget - executed)" if fused
        else "row[0](state, inv, hits, budget - executed)"
    )
    parts = [
        "# Generated by repro.sim.aot — whole-program superblock module.",
        f"# namespace: {namespace!r}  blocks: {len(block_sources)}  "
        f"traces: {len(trace_sources)}",
    ]
    parts.extend(block_sources)
    parts.extend(trace_sources)
    parts.append(
        "\n".join(
            [
                "def _aot_loop(state, inv, table, base, n, budget, hits, m):",
                "    ip = state.ip",
                "    executed = 0",
                "    while 1:",
                "        i = (ip - base) >> 2",
                "        if 0 <= i < n:",
                "            row = table[i]",
                "        else:",
                "            row = None",
                "        if row is None:",
                "            state.ip = ip",
                f"            return executed, {_EXIT_UNCOVERED}, 0, 0",
                "        if executed + row[1] > budget:",
                "            state.ip = ip",
                f"            return executed, {_EXIT_BUDGET}, 0, 0",
                "        if row[3]:",
                f"            r, k = {trace_call}",
                "            executed += k",
                "            if r < 0:",
                f"                return executed, {_EXIT_ABORT}, ~r, row[2]",
                "        else:",
                f"            r = {call}",
                "            if r < 0:",
                f"                return executed, {_EXIT_ABORT}, ~r, row[2]",
                "            hits[row[2]] += 1",
                "            executed += row[1]",
                "        ip = r",
            ]
        )
    )
    source = "\n\n".join(parts) + "\n"
    code = compile(source, f"<aot:{namespace or 'functional'}>", "exec")
    return source, code


class AotModule:
    """One compiled whole-program module (immutable, bind per run)."""

    def __init__(
        self,
        namespace: str,
        fused: bool,
        source: str,
        code,
        entries: List[dict],
        traces: List[dict],
    ) -> None:
        self.namespace = namespace
        self.fused = fused
        self.source = source
        self.code = code
        #: Per-entry metadata: ``isa``, ``ip``, ``span``, ``digest``,
        #: ``fn``, ``stats`` (n_instr, n_slots, n_exec, n_mem_instr,
        #: n_mem_ops) and ``prefix`` (cumulative stats keyed by each
        #: store site's successor IP, for mid-block abort accounting).
        #: Entry order is part of the module format: trace code bakes
        #: hit-counter indices in as constants.
        self.entries = entries
        #: Per-trace metadata: ``fn``, ``head`` (the entry index whose
        #: table slot the trace occupies), ``blocks`` (entry indices
        #: of every inlined block — all must be live for the trace to
        #: bind), ``ni`` (one whole-pass instruction count, the
        #: dispatch budget check) and ``prefix`` (the inlined blocks'
        #: abort-prefix stats merged, collision-free by construction).
        self.traces = traces
        module_ns: Dict[str, object] = dict(SIM_GLOBALS)
        exec(code, module_ns)
        self._loop = module_ns["_aot_loop"]
        self._fns = [module_ns[e["fn"]] for e in entries]
        self._trace_fns = [module_ns[t["fn"]] for t in traces]

    def __len__(self) -> int:
        return len(self.entries)

    def payload(self) -> dict:
        """Serialise for :meth:`~repro.sim.plancache.PlanCache.record_module`."""
        return {
            "format": AOT_FORMAT,
            "namespace": self.namespace,
            "fused": self.fused,
            "src": self.source,
            "code": marshal.dumps(self.code),
            "entries": self.entries,
            "traces": self.traces,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> Optional["AotModule"]:
        """Revive a cached module; None when undecodable (cache miss)."""
        if payload.get("format") != AOT_FORMAT:
            return None
        source = payload.get("src")
        entries = payload.get("entries")
        traces = payload.get("traces")
        if not isinstance(source, str) or not isinstance(entries, list):
            return None
        if not isinstance(traces, list):
            traces = []
        code = None
        raw = payload.get("code")
        if raw:
            try:
                if isinstance(raw, str):
                    raw = base64.b64decode(raw)
                code = marshal.loads(raw)
            except (ValueError, EOFError, TypeError):
                code = None
        if code is None:
            try:
                code = compile(source, "<aot:cached>", "exec")
            except SyntaxError:
                return None
        try:
            return cls(
                str(payload.get("namespace", "")),
                bool(payload.get("fused")),
                source,
                code,
                entries,
                traces,
            )
        except Exception:
            return None

    def bind(self, mem: Memory) -> "AotBinding":
        """Attach the module to one run's memory image."""
        return AotBinding(self, mem)


def _parse_prefix(raw) -> Optional[Dict[int, Tuple[int, ...]]]:
    if not raw:
        return None
    return {int(k): tuple(v) for k, v in raw.items()}


class AotBinding:
    """Per-run state of an :class:`AotModule`: tables, hits, SMC.

    Entries whose instruction-byte digest no longer matches live
    memory are left out of the table (the interactive engine covers
    them); slots overwritten *during* the run are disabled in place,
    exactly as byte-precise as the interactive engine's plan
    invalidation.  A trace occupies its head block's table slot and is
    bound (and stays live) only while every inlined block's bytes are
    intact.
    """

    def __init__(self, module: AotModule, mem: Memory) -> None:
        self.module = module
        entries = module.entries
        n_entries = len(entries)
        #: Per-entry execution counts (plain dispatch and inlined
        #: trace constituents both bump these); collapsed into
        #: statistics totals by :meth:`drain` once per run segment.
        self.hits: List[int] = [0] * n_entries
        self._stats: List[Tuple[int, ...]] = [
            tuple(e["stats"]) for e in entries
        ]
        #: Abort-prefix stats of the occupant dispatched under each
        #: entry index (the merged map for traces).
        self._prefix: List[Optional[dict]] = [None] * n_entries
        self._pending = [0, 0, 0, 0, 0]
        self._tables: Dict[int, Tuple[int, int, List]] = {}
        #: page -> [(isa, slot ip, spans)] of bound occupants, for SMC.
        self._by_page: Dict[int, List[Tuple[int, int, List]]] = {}
        self._loop = module._loop
        self.entries_total = n_entries
        self.entries_stale = 0
        self.traces_total = len(module.traces)
        self.traces_bound = 0
        self.rows_invalidated = 0
        self.dispatches = 0
        self.aborts = 0
        self.blocks_executed = 0

        live = [False] * n_entries
        for index, entry in enumerate(entries):
            start, end = entry["span"]
            if plan_digest(mem, (start, end)) == entry["digest"]:
                live[index] = True
            else:
                self.entries_stale += 1
        self.entries_bound = sum(live)

        # Occupants: every live block, then traces overriding their
        # head block's slot.  Occupant: (fn, budget-check instruction
        # count, entry index, is_trace, spans, prefix).
        occupants: Dict[Tuple[int, int], Tuple] = {}
        for index, entry in enumerate(entries):
            if not live[index]:
                continue
            occupants[(entry["isa"], entry["ip"])] = (
                module._fns[index],
                entry["stats"][0],
                index,
                0,
                [tuple(entry["span"])],
                _parse_prefix(entry.get("prefix")),
            )
        for t_index, trace in enumerate(module.traces):
            if not all(live[i] for i in trace["blocks"]):
                continue
            head = entries[trace["head"]]
            occupants[(head["isa"], head["ip"])] = (
                module._trace_fns[t_index],
                trace["ni"],
                trace["head"],
                1,
                [tuple(entries[i]["span"]) for i in trace["blocks"]],
                _parse_prefix(trace.get("prefix")),
            )
            self.traces_bound += 1

        by_isa: Dict[int, List[Tuple[int, Tuple]]] = {}
        page_spans: Dict[int, List[Tuple[int, int]]] = {}
        for (isa_id, ip), occ in occupants.items():
            self._prefix[occ[2]] = occ[5]
            by_isa.setdefault(isa_id, []).append((ip, occ))
            pages = set()
            for start, end in occ[4]:
                mem.watch_code(start, end - start)
                span_pages = range(
                    start >> PAGE_SHIFT, ((end - 1) >> PAGE_SHIFT) + 1
                )
                pages.update(span_pages)
                for page in span_pages:
                    page_spans.setdefault(page, []).append((start, end))
            for page in pages:
                self._by_page.setdefault(page, []).append(
                    (isa_id, ip, occ[4])
                )
        #: page -> (sorted merged span starts, matching ends): the
        #: O(log n) reject for data stores landing on a watched page
        #: but outside every covered byte range — the overwhelmingly
        #: common case when code and writable data share a page.
        self._page_ranges: Dict[int, Tuple[List[int], List[int]]] = {}
        for page, spans in page_spans.items():
            starts: List[int] = []
            ends: List[int] = []
            for start, end in sorted(spans):
                if ends and start <= ends[-1]:
                    if end > ends[-1]:
                        ends[-1] = end
                else:
                    starts.append(start)
                    ends.append(end)
            self._page_ranges[page] = (starts, ends)
        for isa_id, slots in by_isa.items():
            base = min(ip for ip, _ in slots)
            top = max(ip for ip, _ in slots)
            n = ((top - base) >> 2) + 1
            table: List = [None] * n
            for ip, occ in slots:
                # Dense-table row: (fn, n_instr, entry index, is_trace).
                table[(ip - base) >> 2] = (occ[0], occ[1], occ[2], occ[3])
            self._tables[isa_id] = (base, n, table)

    # -- execution ---------------------------------------------------------

    def dispatch(self, state, inv, model, budget: int) -> Tuple[int, str]:
        """Run covered blocks until the table runs out or budget does.

        Returns ``(executed, reason)`` where ``reason`` is
        ``"uncovered"`` (the next IP has no live row — the caller runs
        one interactive block) or ``"budget"`` (the next row would
        overrun — the caller finishes per-instruction).  ``executed``
        feeds the caller's budget only; statistics accumulate in the
        per-entry hit counts and are flushed once via :meth:`drain`.
        """
        loop = self._loop
        tables = self._tables
        pending = self._pending
        executed = 0
        self.dispatches += 1
        while True:
            table = tables.get(state.isa_id)
            if table is None:
                return executed, "uncovered"
            base, n, dense = table
            ex, reason, stop, entry_index = loop(
                state, inv, dense, base, n, budget - executed,
                self.hits, model,
            )
            executed += ex
            if reason != _EXIT_ABORT:
                return executed, (
                    "budget" if reason == _EXIT_BUDGET else "uncovered"
                )
            # A store rewrote covered code mid-block: charge the
            # committed prefix (the aborting store included), resume
            # at its successor.  The write listener already disabled
            # the overlapping slots, so re-entering the loop falls out
            # at ``stop`` and the interactive engine takes over.
            self.aborts += 1
            inv[0] = False
            prefix = self._prefix[entry_index]
            pre = prefix.get(stop) if prefix is not None else None
            if pre is not None:
                executed += pre[0]
                for k in range(5):
                    pending[k] += pre[k]
            state.ip = stop

    def drain(self) -> Tuple[int, int, int, int, int]:
        """Collapse per-entry hit counts into statistics totals (once)."""
        hits = self.hits
        stats = self._stats
        ex = sl = op = mi = mo = 0
        for index, count in enumerate(hits):
            if count:
                st = stats[index]
                ex += count * st[0]
                sl += count * st[1]
                op += count * st[2]
                mi += count * st[3]
                mo += count * st[4]
                self.blocks_executed += count
                hits[index] = 0
        pending = self._pending
        if pending[0] or pending[1] or pending[2]:
            ex += pending[0]
            sl += pending[1]
            op += pending[2]
            mi += pending[3]
            mo += pending[4]
            self._pending = [0, 0, 0, 0, 0]
        return ex, sl, op, mi, mo

    # -- self-modifying code ----------------------------------------------

    def invalidate_write(self, page: int, addr: int, length: int) -> bool:
        """Disable table slots whose covered bytes intersect the write."""
        ranges = self._page_ranges.get(page)
        if ranges is None:
            return False
        end = addr + length
        starts, ends = ranges
        i = bisect_right(starts, addr)
        if not ((i and ends[i - 1] > addr)
                or (i < len(starts) and starts[i] < end)):
            return False
        occupants = self._by_page.get(page)
        if not occupants:
            return False
        hit = False
        for isa_id, ip, spans in occupants:
            if not any(s < end and addr < e for s, e in spans):
                continue
            table = self._tables.get(isa_id)
            if table is None:
                continue
            base, n, dense = table
            slot = (ip - base) >> 2
            if 0 <= slot < n and dense[slot] is not None:
                dense[slot] = None
                self.rows_invalidated += 1
                hit = True
        return hit


def compile_module(
    elf,
    arch,
    *,
    model=None,
    max_block_len: Optional[int] = None,
    profile_budget: int = DEFAULT_PROFILE_BUDGET,
    input_data: bytes = b"",
):
    """Statically translate one executable for one variant namespace.

    Returns ``(module, per_entry, report)``: the compiled
    :class:`AotModule`, the ``{(isa, ip): (plan, variants)}`` map of
    every translated plan (for per-entry plan-cache recording) and a
    summary dict (entry counts, static coverage, seconds).
    """
    from .interpreter import Interpreter
    from .superblock import MAX_BLOCK_LEN

    start_time = time.perf_counter()
    namespace, fuser = _namespace_for(model)
    if namespace is None:
        raise ValueError(
            "model has no ahead-of-time representation (no block "
            "compiler); run it through the interactive engine instead"
        )
    max_len = MAX_BLOCK_LEN if max_block_len is None else max_block_len
    target = build_target(arch)
    program = load_executable(elf, arch, input_data=input_data)
    mem = program.state.mem
    cache = DecodeCache(target)

    text = elf.section(".text")
    bounds = (
        (text.addr, text.addr + len(text.data)) if text is not None else None
    )
    seeds = [(elf.flags, elf.entry)]
    seeds.extend(
        (isa_id, addr) for isa_id, _name, addr in mangled_functions(elf, arch)
    )

    profile_instructions = 0
    if profile_budget:
        # Profile-guided augmentation: a budgeted functional replay;
        # every plan the interactive engine builds — indirect targets,
        # ISA-switch landing points — seeds the static walk.
        replay = load_executable(elf, arch, input_data=input_data)
        interp = Interpreter(
            replay.state, target, engine="superblock",
            max_block_len=max_len,
        )
        stats = interp.run(max_instructions=profile_budget)
        profile_instructions = stats.executed_instructions
        seeds.extend(interp.superblock.plans.keys())

    plans = discover(cache, mem, seeds, max_len, bounds)

    # Translate every plan through the engine's own emission path:
    # each covered block function *is* the plan's full variant,
    # renamed, and traces splice the same pieces.
    fused = fuser is not None
    per_entry: Dict[Tuple[int, int], Tuple[SuperblockPlan, dict]] = {}
    pieces: Dict[Tuple[int, int], Pieces] = {}
    sources: Dict[Tuple[int, int], str] = {}
    covered_instr = total_instr = 0
    for key in sorted(plans):
        plan = plans[key]
        total_instr += plan.n_instr
        plan.code_digest = plan_digest(mem, plan.span)
        p = plan_pieces(plan, fuser)
        variants = plan.adopt(p, fused)
        per_entry[key] = (plan, variants)
        if p is not None and p.branch is not None:
            pieces[key] = p
            sources[key] = next(iter(variants.values()))[0]
            covered_instr += plan.n_instr

    entries: List[dict] = []
    index_of: Dict[Tuple[int, int], int] = {}
    prefixes: Dict[Tuple[int, int], Optional[dict]] = {}
    block_sources: List[str] = []
    for key in pieces:
        plan = plans[key]
        prefix = None
        if plan.has_store:
            prefix = {}
            for dec in plan.decs[:-1]:
                if any(op.kind_code == KIND_STORE for op in dec.ops):
                    stop = dec.addr + dec.size
                    prefix[str(stop)] = list(_partial_stats(plan, stop))
        index = len(entries)
        index_of[key] = index
        prefixes[key] = prefix
        block_sources.append(
            sources[key].replace("_superblock_body", f"_f{index}", 1)
        )
        entries.append(
            {
                "isa": plan.isa_id,
                "ip": plan.entry_ip,
                "span": list(plan.span),
                "digest": plan.code_digest,
                "fn": f"_f{index}",
                "stats": [
                    plan.n_instr, plan.n_slots, plan.n_exec,
                    plan.n_mem_instr, plan.n_mem_ops,
                ],
                "prefix": prefix,
            }
        )

    # Trace formation over the covered blocks.
    traces: List[dict] = []
    trace_sources: List[str] = []
    for chain in _build_regions(list(pieces), pieces, prefixes):
        name = f"_t{len(traces)}"
        trace_sources.append(
            _emit_trace(name, chain, plans, pieces, index_of, fused)
        )
        merged: Dict[str, List[int]] = {}
        for k in chain:
            merged.update(prefixes.get(k) or {})
        traces.append(
            {
                "fn": name,
                "head": index_of[chain[0]],
                "blocks": [index_of[k] for k in chain],
                "ni": sum(plans[k].n_instr for k in chain),
                "prefix": merged or None,
            }
        )

    source, code = _emit_module(
        namespace, block_sources, trace_sources, fused
    )
    module = AotModule(namespace, fused, source, code, entries, traces)
    report = {
        "namespace": namespace,
        "discovered": len(plans),
        "translated": len(per_entry),
        "covered": len(entries),
        "traces": len(traces),
        "static_coverage": (
            round(covered_instr / total_instr, 4) if total_instr else 0.0
        ),
        "profile_instructions": profile_instructions,
        "seconds": round(time.perf_counter() - start_time, 4),
    }
    return module, per_entry, report


def prepare(
    elf,
    arch,
    *,
    model=None,
    plan_cache=None,
    max_block_len: Optional[int] = None,
    profile_budget: int = DEFAULT_PROFILE_BUDGET,
    input_data: bytes = b"",
) -> Optional[AotModule]:
    """Load-or-compile the AOT module serving ``model``.

    The fast path revives the whole-module entry from the plan cache
    (warm ``--engine aot`` runs never re-translate); a miss compiles
    in place and records both the module and its per-plan entries.
    Returns None when the model has no AOT representation — the
    caller's ``aot`` engine then degrades to the interactive loop.
    """
    namespace, _fuser = _namespace_for(model)
    if namespace is None:
        return None
    if plan_cache is not None:
        memo_key = (plan_cache.path, namespace)
        stamp = plan_cache.module_stamp(namespace)
        if stamp is not None:
            memoised = _MODULE_MEMO.get(memo_key)
            if memoised is not None and memoised[0] == stamp:
                return memoised[1]
            payload = plan_cache.lookup_module(namespace)
            module = (
                AotModule.from_payload(payload)
                if payload is not None else None
            )
            if module is not None:
                _MODULE_MEMO[memo_key] = (stamp, module)
                return module
    module, per_entry, _report = compile_module(
        elf, arch,
        model=model,
        max_block_len=max_block_len,
        profile_budget=profile_budget,
        input_data=input_data,
    )
    if plan_cache is not None:
        plan_cache.record_module(namespace, module.payload())
        for (isa_id, entry_ip), (plan, variants) in per_entry.items():
            plan_cache.record(
                isa_id, entry_ip, plan.span, plan.code_digest,
                namespace, variants,
            )
        stamp = plan_cache.module_stamp(namespace)
        if stamp is not None:
            _MODULE_MEMO[(plan_cache.path, namespace)] = (stamp, module)
    return module
