"""Superblock translation engine: cached straight-line execution plans.

The decode cache (Section V-A) already removes ~99.99 % of decodes and
instruction prediction ~99 % of hash lookups, but the interpreter still
pays per-instruction Python overhead: the prediction check, per-slot
dispatch, write-buffer commit and statistics bookkeeping.  This module
is the next step beyond interpretation — the translated-simulation
technique of Reshadi & Dutt and Blanqui et al.: turn the decoded
instruction stream into straight-line execution *plans* that run
without any of that per-instruction machinery.

On first execution of a basic-block entry the engine walks the decode
cache from the entry IP up to the next control transfer (branch, jump,
halt, simop or ISA switch) or :data:`MAX_BLOCK_LEN`, and flattens the
run into a :class:`SuperblockPlan`:

* a tuple of preallocated body rows ``(fn, vals, ip, next_ip)`` with
  instruction addresses baked in as constants (straight-line code has
  static IPs), NOP-only instructions elided;
* a single terminator record executed with full buffered semantics;
* precomputed block-total statistics deltas, accumulated once per block
  instead of once per instruction.

Cold plans (fewer than :data:`HOT_THRESHOLD` executions) run their
rows buffered, exactly like the reference interpreter.  Hot plans are
translated into one flat Python function through one emission path —
:func:`plan_pieces` composes the inlined statements (and the cycle
model's, see below), :func:`assemble` builds the function — which the
AOT tier (:mod:`repro.sim.aot`) shares.  A single-issue instruction,
or a bundle with one executing op, inlines with in-place writes; a
bundle with several executing ops inlines with deferred writes —
every slot reads pre-bundle state, the writes commit in slot order
after the whole bundle — so VLIW code keeps its read-before-write
semantics without buffers.  The emitter folds while it lowers and
keeps registers in locals, written back at every exit of the
function.  Blocks are *chained* through their observed successor —
the block-level analogue of the paper's 1-bit instruction prediction
— so the steady state executes without even a per-block hash lookup.

Cycle models still observe every instruction, three ways.  Models
exposing the batched :meth:`~repro.cycles.base.CycleModel.observe_block`
hook get one call per block (ILP opts in).  Models exposing a
:meth:`~repro.cycles.base.CycleModel.block_compiler` (AIE/DOE) get
their accounting *fused* into the translated plan: the compiler emits
flat timing statements that the translator places before each
instruction's (or bundle's) functional statements — reproducing the
pre-commit register view of buffered per-instruction observation,
with latencies constant-folded at translate time — so fused counts
are bitwise-identical to the per-instruction path.  Everything else
(and any configuration the fused path cannot prove safe: per-op
timelines, profiler-wrapped models, branch-model terminators) falls
back to per-instruction ``observe`` on buffered rows.

Hot plans can also be *persisted*: when a :class:`~repro.sim.plancache.
PlanCache` is attached, translated sources/code objects are recorded
under the plan's instruction-byte digest and reloaded on later runs
(or by parallel shard workers), skipping emission and ``compile``
entirely — see :mod:`repro.sim.plancache`.

Self-modifying code: plans register their pages with the memory's
code-watch set.  A store that overwrites planned bytes invalidates the
overlapping plans and decode-cache entries (see
:meth:`invalidate_write`), severs all block chains, and — through the
interpreter's invalidation cell — aborts the currently running block
after the offending instruction commits.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from ..adl.behavior import BehaviorError
from ..targetgen.behavior_compiler import (
    SIM_GLOBALS,
    Exit,
    Inlined,
    inline_bundle_stmts,
    inline_control_stmts,
    inline_direct_stmts,
    reg_local,
)
from .decode_cache import DecodeCache
from .decoder import DecodedInstruction, DecodedOp, KIND_NOP, KIND_STORE
from .errors import DecodeError
from .memory import PAGE_SHIFT, Memory
from .state import ProcessorState

#: Straight-line runs longer than this are split into multiple chained
#: plans (bounds build latency and invalidation granularity).
MAX_BLOCK_LEN = 64

#: A plan is translated into one flat Python function on its Nth
#: execution.  Translating costs an emission + ``compile``
#: pass (~0.3 ms), so cold blocks — init code, error paths — stay on
#: the buffered rows and never pay it.
HOT_THRESHOLD = 4


def walk_block(
    cache: DecodeCache,
    mem: Memory,
    isa_id: int,
    entry_ip: int,
    max_len: int = MAX_BLOCK_LEN,
) -> Tuple[Tuple[DecodedInstruction, ...], bool]:
    """Walk one straight-line run through the decode cache.

    The single definition of a superblock's extent, shared by the
    interactive engine (:meth:`SuperblockEngine.build`) and the
    ahead-of-time compiler (:mod:`repro.sim.aot`) so both tiers carve
    identical blocks from identical bytes.  Returns the decoded
    instructions and whether the run ended on a control transfer
    (``False``: capped at ``max_len`` or truncated before an
    undecodable word).  An undecodable *entry* raises, exactly like
    executing it would.
    """
    decs: List[DecodedInstruction] = []
    terminated = False
    ip = entry_ip
    while len(decs) < max_len:
        try:
            dec = cache.lookup(mem, isa_id, ip)
        except DecodeError:
            if not decs:
                # The entry itself is undecodable: executing it
                # would raise identically, so let it propagate.
                raise
            # Truncate before the bad word; if control ever falls
            # through to it, the next build raises at its entry.
            break
        decs.append(dec)
        if dec.is_control:
            terminated = True
            break
        ip += dec.size
    return tuple(decs), terminated


def plan_digest(mem: Memory, span: Tuple[int, int]) -> str:
    """Digest of the instruction bytes a plan covers (cache key)."""
    start, end = span
    return hashlib.sha256(
        bytes(mem.load_bytes(start, end - start))
    ).hexdigest()[:16]


class SuperblockPlan:
    """One translated straight-line run plus its terminator."""

    __slots__ = (
        "isa_id",
        "entry_ip",
        "body_fn",
        "full_fn",
        "fused_body_fn",
        "fused_full_fn",
        "code_digest",
        "exec_count",
        "rows",
        "term_dec",
        "term_ops",
        "term_ip",
        "term_next_ip",
        "end_ip",
        "decs",
        "n_instr",
        "n_slots",
        "n_exec",
        "n_mem_instr",
        "n_mem_ops",
        "has_store",
        "pred_ip",
        "pred_isa",
        "pred_plan",
    )

    def __init__(
        self,
        isa_id: int,
        entry_ip: int,
        decs: Tuple[DecodedInstruction, ...],
        terminated: bool,
    ) -> None:
        self.isa_id = isa_id
        self.entry_ip = entry_ip
        self.decs = decs
        body_decs = decs[:-1] if terminated else decs

        self.n_instr = len(decs)
        self.n_slots = sum(d.n_slots for d in decs)
        self.n_exec = sum(d.n_exec for d in decs)
        self.n_mem_instr = sum(1 for d in decs if d.has_mem)
        self.n_mem_ops = sum(d.n_mem for d in decs)
        self.has_store = any(
            op.kind_code == KIND_STORE for d in decs for op in d.ops
        )

        # Buffered rows with static IPs — the cold path and the
        # per-instruction observing path: every body instruction,
        # including NOP-only bundles (cycle models must see those
        # issue).
        self.rows = tuple(
            (d.exec_ops, d.addr, d.addr + d.size, d) for d in body_decs
        )

        #: Flat translated code, compiled lazily once the plan is hot
        #: (see :meth:`translate`); the buffered rows are the cold path.
        #: ``full_fn`` covers body *and* terminator and returns the next
        #: IP (or ``~stop_ip`` on a self-modifying-code abort);
        #: ``body_fn`` covers only the body and returns None (or the
        #: positive ``stop_ip`` on abort).  The ``fused_*`` twins carry
        #: the same contract but take the cycle model as a third
        #: argument and interleave its compiled accounting.
        self.body_fn = None
        self.full_fn = None
        self.fused_body_fn = None
        self.fused_full_fn = None
        #: Digest of the plan's instruction bytes (persistent plan
        #: cache key; None when no cache is attached).
        self.code_digest = None
        self.exec_count = 0

        # Terminator (None for blocks capped at MAX_BLOCK_LEN or
        # truncated before an undecodable word).
        if terminated:
            term = decs[-1]
            self.term_dec = term
            self.term_ip = term.addr
            self.term_next_ip = term.addr + term.size
            self.end_ip = self.term_next_ip
            self.term_ops = term.exec_ops
        else:
            self.term_dec = None
            self.term_ops = None
            self.term_ip = -1
            self.term_next_ip = -1
            last = decs[-1]
            self.end_ip = last.addr + last.size

        # Block chaining (1-entry successor prediction).
        self.pred_ip = -1
        self.pred_isa = -1
        self.pred_plan: Optional["SuperblockPlan"] = None

    def translate(self, timing=None) -> Dict[str, Tuple[str, object]]:
        """Compile the plan into one flat translated function.

        Called by the engine once the plan crosses
        :data:`HOT_THRESHOLD`.  Without ``timing`` the outcome is
        ``full_fn`` (body plus an inlined branch terminator — one call
        per block), else ``body_fn`` (the buffered terminator stays),
        else nothing, leaving the buffered rows in charge.  With
        ``timing`` (a :class:`~repro.cycles.base.BlockCompiler`) the
        fused twins are compiled instead, interleaving the cycle
        model's accounting; a refusal by the compiler leaves the plan
        on the per-instruction observe path.  See :func:`plan_pieces`.

        Returns the compiled variant as ``{name: (source, code)}`` for
        the engine's persistent plan cache.
        """
        return self.adopt(plan_pieces(self, timing), timing is not None)

    def adopt(self, pieces: Optional[Pieces],
              fused: bool) -> Dict[str, Tuple[str, object]]:
        """Assemble and compile ``pieces`` as this plan's variant."""
        if pieces is None:
            return {}
        name = "full" if pieces.branch is not None else "body"
        if fused:
            name = "fused_" + name
        source = plan_source(pieces, fused)
        code = compile(
            source, f"<superblock:{self.isa_id}:{self.entry_ip:#x}>", "exec"
        )
        namespace: Dict[str, object] = dict(SIM_GLOBALS)
        exec(code, namespace)
        setattr(self, name + "_fn", namespace["_superblock_body"])
        return {name: (source, code)}

    def attach_variants(self, fns: Dict[str, Callable]) -> None:
        """Adopt compiled functions reloaded from a persistent cache."""
        self.full_fn = fns.get("full")
        self.body_fn = fns.get("body")
        self.fused_full_fn = fns.get("fused_full")
        self.fused_body_fn = fns.get("fused_body")
        self.exec_count = HOT_THRESHOLD

    @property
    def span(self) -> Tuple[int, int]:
        """[start, end) byte range covered by the plan's instructions."""
        first = self.decs[0]
        last = self.decs[-1]
        return first.addr, last.addr + last.size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SuperblockPlan isa={self.isa_id} entry={self.entry_ip:#x} "
            f"n={self.n_instr}>"
        )


def _sole_op(dec: DecodedInstruction) -> DecodedOp:
    """The only executing op of an instruction with ``n_exec == 1``."""
    if dec.single is not None:
        return dec.single
    return next(op for op in dec.ops if op.kind_code != KIND_NOP)


def _inline_instr(dec: DecodedInstruction) -> Inlined:
    """Functional statements of one body instruction.

    One executing op that is safe with in-place writes keeps the
    direct form; any other instruction (a bundle with several
    executing ops, or an op whose own statements read after writing)
    is inlined with deferred writes.  Raises when the instruction
    cannot be inlined.
    """
    next_ip = dec.addr + dec.size
    if dec.n_exec == 1:
        op = _sole_op(dec)
        if op.direct:
            return inline_direct_stmts(
                op.entry.op, op.vals, dec.addr, next_ip
            )
    return inline_bundle_stmts(
        tuple(
            (op.entry.op, op.vals)
            for op in dec.ops if op.kind_code != KIND_NOP
        ),
        dec.addr, next_ip,
    )


def _inline_terminator(
    term: Optional[DecodedInstruction],
) -> Optional[Inlined]:
    """Inlined branch terminator, or None when it stays buffered.

    A terminator inlines when its only executing op is a plain control
    transfer that :func:`inline_control_stmts` accepts — for a VLIW
    bundle, a branch beside NOP slots.
    """
    if term is None or term.n_exec != 1:
        return None
    op = _sole_op(term)
    return inline_control_stmts(
        op.entry.op, op.vals, term.addr, term.addr + term.size
    )


class Abort(NamedTuple):
    """A self-modifying-code abort site in emitted body lines.

    The store-carrying instruction ending at ``stop`` has committed
    and a store hit translated code; the consumer renders the return
    (see :func:`plan_source` and the AOT trace emitter).
    """

    indent: str
    stop: int


class Pieces(NamedTuple):
    """One plan's translated code as data, before assembly.

    ``pre`` holds the body lines (timing statements before each
    instruction's functional statements, :class:`Abort` sites after
    store-carrying instructions), then the terminator's timing and the
    model flush.  ``branch`` is the inlined terminator (its lines end
    in :class:`~repro.targetgen.behavior_compiler.Exit` transfers), or
    None when the terminator stays buffered.  The remaining fields
    report what the lines use: register indices read and written,
    load and store sizes, and the timing prologue.
    """

    pre: List
    branch: Optional[Inlined]
    reads: frozenset
    writes: frozenset
    loads: frozenset
    stores: frozenset
    prologue: List[str]


def plan_pieces(plan: "SuperblockPlan", timing=None) -> Optional[Pieces]:
    """The one composition of a plan's translated code.

    Both tiers assemble from it: the interactive engine's variants
    (:meth:`SuperblockPlan.translate`) and the AOT tier's block and
    trace functions.  The preferred form covers body *and* an inlined
    branch terminator (one call per block; every path ends in an
    :class:`Exit`); otherwise the body alone, whose buffered
    terminator runs after it; None when neither translates (the plan
    stays on its buffered rows).

    With ``timing`` (a :class:`~repro.cycles.base.BlockCompiler`)
    each instruction's timing statements are placed *before* its
    functional statements — the compiled analogue of observing
    pre-commit — and every abort site flushes the model's prefix
    totals.  A None from ``timing.instr`` rejects the plan; a None
    from ``timing.term`` (e.g. a branch model needs the
    per-instruction misprediction hook) leaves the body-only form.
    The terminator's timing runs before its functional statements.
    """
    term = plan.term_dec
    body_decs = plan.decs[:-1] if term is not None else plan.decs
    branch = _inline_terminator(term)
    if branch is not None:
        pieces = _compose(body_decs, term, branch, timing)
        if pieces is not None:
            return pieces
    return _compose(body_decs, None, None, timing)


def _compose(body_decs, term, branch, timing) -> Optional[Pieces]:
    if timing is not None:
        timing.begin()
    pre: List = []
    reads: set = set()
    writes: set = set()
    loads: set = set()
    stores: set = set()
    for d in body_decs:
        if timing is not None:
            t_stmts = timing.instr(d)
            if t_stmts is None:
                return None
            pre.extend("    " + stmt for stmt in t_stmts)
        if d.n_exec == 0:
            continue
        try:
            inlined = _inline_instr(d)
        except BehaviorError:
            return None
        pre.extend(inlined.lines)
        reads |= inlined.reads
        writes |= inlined.writes
        loads |= inlined.loads
        stores |= inlined.stores
        if any(op.kind_code == KIND_STORE for op in d.ops):
            pre.append("    if inv[0]:")
            if timing is not None:
                # The aborting store has been counted (its timing ran
                # above); flush the prefix totals, matching what the
                # per-instruction path observes before the abort.
                pre.extend("        " + stmt for stmt in timing.flush())
            pre.append(Abort("        ", d.addr + d.size))
    if branch is None:
        if not pre:
            return None
    else:
        if timing is not None:
            t_stmts = timing.term(term)
            if t_stmts is None:
                return None
            pre.extend("    " + stmt for stmt in t_stmts)
        reads |= branch.reads
        writes |= branch.writes
        loads |= branch.loads
        stores |= branch.stores
    prologue: List[str] = []
    if timing is not None:
        pre.extend("    " + stmt for stmt in timing.flush())
        prologue = timing.prologue()
        reads |= timing.reads
    return Pieces(pre, branch, frozenset(reads), frozenset(writes),
                  frozenset(loads), frozenset(stores), prologue)


def assemble(header: str, parts, body: List[str],
             prologue: List[str] = ()) -> str:
    """The one function assembler of translated code.

    Builds a plan variant (one :class:`Pieces`) and an AOT trace (the
    pieces of every inlined block) alike: binds the memory accessors
    the ``parts`` use, the timing ``prologue``, and every register
    they access as a local (:func:`reg_local`), loaded once.  The
    written registers go back to the register file on *every* exit —
    returns, falling off the end and exceptions — through one
    ``finally``, so the register file is exact wherever control leaves
    the function.
    """
    reads = frozenset().union(*(p.reads for p in parts))
    writes = frozenset().union(*(p.writes for p in parts))
    loads = frozenset().union(*(p.loads for p in parts))
    stores = frozenset().union(*(p.stores for p in parts))
    out = [header]
    if reads or writes:
        out.append("    regs = state.regs")
    for size in sorted(loads):
        out.append(f"    ld{size} = state.mem.load{size}")
    if 4 in loads:
        out.append("    _zg = state.mem._views.get")
    for size in sorted(stores):
        out.append(f"    st{size} = state.mem.store{size}")
    out.extend("    " + stmt for stmt in prologue)
    out.extend(f"    {reg_local(k)} = regs[{k}]" for k in sorted(reads | writes))
    if not writes:
        out.extend(body)
    else:
        out.append("    try:")
        out.extend("    " + line for line in body)
        out.append("    finally:")
        out.extend(f"        regs[{k}] = {reg_local(k)}" for k in sorted(writes))
    return "\n".join(out)


def plan_source(pieces: Pieces, fused: bool) -> str:
    """Source of one plan variant, ``_superblock_body``.

    A full variant (inlined branch) returns the next IP, or
    ``~stop_ip`` on a self-modifying-code abort; a body variant
    returns None, or the positive ``stop_ip`` on abort.  Fused
    variants take the cycle model as third argument ``m``.
    """
    full = pieces.branch is not None
    body: List[str] = []
    for line in pieces.pre:
        if isinstance(line, Abort):
            line = f"{line.indent}return {~line.stop if full else line.stop}"
        body.append(line)
    if full:
        for line in pieces.branch.lines:
            if isinstance(line, Exit):
                line = f"{line.indent}return {line.expr}"
            body.append(line)
    params = "state, inv, m" if fused else "state, inv"
    return assemble(f"def _superblock_body({params}):", (pieces,), body,
                    pieces.prologue)


class SuperblockEngine:
    """Builds, caches, chains and executes superblock plans."""

    def __init__(
        self,
        cache: DecodeCache,
        *,
        chain: bool = True,
        max_block_len: Optional[int] = None,
    ) -> None:
        self.cache = cache
        #: Straight-line cap (satellite of the AOT tier: previously the
        #: module constant :data:`MAX_BLOCK_LEN`, now per-engine so the
        #: cap ablation and the plan-cache key can vary it).
        self.max_block_len = (
            MAX_BLOCK_LEN if max_block_len is None else max_block_len
        )
        self.plans: Dict[Tuple[int, int], SuperblockPlan] = {}
        self._by_page: Dict[int, List[Tuple[int, int]]] = {}
        #: Block chaining toggle (the ablation bench measures its win).
        self.chain = chain
        #: Optional block-mode hot-spot profiler
        #: (:class:`repro.telemetry.HotspotProfiler`): one
        #: ``record_block`` per completed plan execution, one
        #: ``record_block_prefix`` per rare mid-block SMC abort.  Costs
        #: a single None-check per block when unset.
        self.profiler = None
        #: Optional :class:`~repro.cycles.base.BlockCompiler` (set by
        #: the interpreter when the cycle model offers one): hot plans
        #: translate with the model's accounting fused in.
        self.fuser = None
        #: Optional :class:`~repro.sim.plancache.PlanCache` plus the
        #: variant namespace to read/write (``""`` for purely
        #: functional plans, the model's ``config_signature()`` for
        #: fused ones).  Both None disables persistence.
        self.plan_cache = None
        self.cache_namespace = None
        self.plans_built = 0
        self.blocks_executed = 0
        self.chain_hits = 0
        #: Hot-translation compile passes this run / plans reloaded
        #: from the persistent cache instead (warm starts translate 0).
        self.translations = 0
        self.plan_cache_hits = 0

    # -- plan construction -------------------------------------------------

    def build(self, mem: Memory, isa_id: int, entry_ip: int) -> SuperblockPlan:
        """Translate the straight-line run starting at ``entry_ip``."""
        decs, terminated = walk_block(
            self.cache, mem, isa_id, entry_ip, self.max_block_len
        )
        plan = SuperblockPlan(isa_id, entry_ip, decs, terminated)
        pcache = self.plan_cache
        if pcache is not None and self.cache_namespace is not None:
            plan.code_digest = plan_digest(mem, plan.span)
            hit = pcache.lookup(
                isa_id, entry_ip, self.cache_namespace, plan.code_digest
            )
            if hit is not None:
                plan.attach_variants(hit)
                self.plan_cache_hits += 1
        key = (isa_id, entry_ip)
        self.plans[key] = plan
        start, end = plan.span
        for page in range(start >> PAGE_SHIFT,
                          ((end - 1) >> PAGE_SHIFT) + 1):
            self._by_page.setdefault(page, []).append(key)
        self.plans_built += 1
        return plan

    # -- hot translation ---------------------------------------------------

    def _hot_translate(self, plan: SuperblockPlan, model,
                       observe_block) -> None:
        """Translate a plan that just crossed :data:`HOT_THRESHOLD`.

        The variant compiled depends on how ``model`` observes:
        nothing at all (functional) and block-observing models without
        stores get the plain functions; models offering a fuser get
        the fused ones; everything else stays per-instruction — for
        which no compiled function helps, so nothing is compiled.
        Results (including a failed attempt's empty set, so warm runs
        never retry) land in the persistent cache when one is attached.
        """
        if model is None:
            variants = plan.translate()
        elif self.fuser is not None:
            variants = plan.translate(timing=self.fuser)
        elif observe_block is not None:
            if plan.has_store:
                return
            variants = plan.translate()
        else:
            return
        self.translations += 1
        if (
            self.plan_cache is not None
            and self.cache_namespace is not None
            and plan.code_digest is not None
        ):
            self.plan_cache.record(
                plan.isa_id, plan.entry_ip, plan.span,
                plan.code_digest, self.cache_namespace, variants,
            )

    # -- invalidation ------------------------------------------------------

    def _sever_chains(self) -> None:
        for plan in self.plans.values():
            plan.pred_ip = -1
            plan.pred_isa = -1
            plan.pred_plan = None

    def invalidate(self) -> None:
        """Drop every plan (full decode-cache invalidation)."""
        self._sever_chains()
        self.plans.clear()
        self._by_page.clear()

    def invalidate_write(self, page: int, addr: int, length: int) -> bool:
        """Drop plans whose instruction bytes intersect the write."""
        keys = self._by_page.get(page)
        if not keys:
            return False
        end = addr + length
        stale = []
        for key in keys:
            plan = self.plans.get(key)
            if plan is None:
                continue
            start, stop = plan.span
            if start < end and addr < stop:
                stale.append(key)
        if not stale:
            return False
        self._sever_chains()
        for key in stale:
            plan = self.plans.pop(key, None)
            if plan is None:
                continue
            start, stop = plan.span
            for p in range(start >> PAGE_SHIFT,
                           ((stop - 1) >> PAGE_SHIFT) + 1):
                bucket = self._by_page.get(p)
                if bucket is not None and key in bucket:
                    bucket.remove(key)
        return True

    # -- execution ---------------------------------------------------------

    def execute(
        self,
        state: ProcessorState,
        model,
        budget: int,
        inv: List[bool],
    ) -> Tuple[int, int, int, int, int]:
        """Run chained superblocks until halt, budget or a tail block.

        Returns the locally accumulated ``(instructions, slots, ops,
        memory instructions, memory ops)``.  When the remaining budget
        cannot fit the next whole block the method returns early and
        the caller finishes per-instruction.
        """
        mem = state.mem
        regs = state.regs
        plans = self.plans
        chain = self.chain
        s4, s2, s1 = mem.store4, mem.store2, mem.store1
        regwr: list = []
        memwr: list = []
        executed = slots = ops_exec = mem_instr = mem_ops = 0
        blocks = chains = 0
        profiler = self.profiler
        observe_block = (
            getattr(model, "observe_block", None)
            if model is not None else None
        )
        fuser = self.fuser if model is not None else None
        prev: Optional[SuperblockPlan] = None

        while not state.halted and executed < budget:
            ip = state.ip
            isa_id = state.isa_id
            if (
                prev is not None
                and prev.pred_ip == ip
                and prev.pred_isa == isa_id
            ):
                plan = prev.pred_plan
                chains += 1
            else:
                key = (isa_id, ip)
                plan = plans.get(key)
                if plan is None:
                    plan = self.build(mem, isa_id, ip)
                if chain and prev is not None:
                    prev.pred_ip = ip
                    prev.pred_isa = isa_id
                    prev.pred_plan = plan
            if executed + plan.n_instr > budget:
                break  # tail: the interpreter finishes per-instruction
            prev = plan
            blocks += 1
            n = plan.exec_count
            if n < HOT_THRESHOLD:
                plan.exec_count = n + 1
                if n + 1 == HOT_THRESHOLD:
                    self._hot_translate(plan, model, observe_block)

            # -- body ------------------------------------------------------
            stop = None
            rows = ()
            observe = None
            if model is None or (
                observe_block is not None and not plan.has_store
            ):
                if observe_block is not None and model is not None:
                    observe_block(plan, regs)
                observed_term = observe_block is not None
                if plan.full_fn is not None:
                    # Fully translated block: one call executes body
                    # and terminator and yields the next IP.
                    r = plan.full_fn(state, inv)
                    if r >= 0:
                        state.ip = r
                        executed += plan.n_instr
                        slots += plan.n_slots
                        ops_exec += plan.n_exec
                        mem_instr += plan.n_mem_instr
                        mem_ops += plan.n_mem_ops
                        if profiler is not None:
                            profiler.record_block(plan)
                        continue
                    stop = ~r
                elif plan.body_fn is not None:
                    stop = plan.body_fn(state, inv)
                else:
                    rows = plan.rows
            elif fuser is not None and plan.fused_full_fn is not None:
                # Fully translated block with the model's accounting
                # fused in: one call executes body, terminator and
                # cycle bookkeeping and yields the next IP.
                r = plan.fused_full_fn(state, inv, model)
                if r >= 0:
                    state.ip = r
                    executed += plan.n_instr
                    slots += plan.n_slots
                    ops_exec += plan.n_exec
                    mem_instr += plan.n_mem_instr
                    mem_ops += plan.n_mem_ops
                    if profiler is not None:
                        profiler.record_block(plan)
                    continue
                stop = ~r
            elif fuser is not None and plan.fused_body_fn is not None:
                # Fused body; the terminator keeps full buffered
                # semantics (and per-instruction observation) below.
                stop = plan.fused_body_fn(state, inv, model)
                observed_term = False
            else:
                # Per-instruction observing path (AIE/DOE, or any block
                # containing stores — keeps abort and observe aligned).
                rows = plan.rows
                observe = model.observe
                observed_term = False
            # Buffered rows: cold and untranslatable plans, and the
            # per-instruction observing path.
            for ops_t, ip_c, nip_c, dec in rows:
                for f2, v2 in ops_t:
                    f2(state, v2, ip_c, nip_c, regwr, memwr)
                if observe is not None:
                    observe(dec, regs)
                if regwr:
                    for reg, val in regwr:
                        regs[reg] = val
                    regs[0] = 0
                    del regwr[:]
                if memwr:
                    for size, addr, val in memwr:
                        if size == 4:
                            s4(addr, val)
                        elif size == 2:
                            s2(addr, val)
                        else:
                            s1(addr, val)
                    del memwr[:]
                    if inv[0]:
                        stop = nip_c
                        break
            if stop is not None:
                # A store rewrote translated code mid-block: charge the
                # committed prefix (a fused abort site has already
                # flushed the model's) and resume at its successor.
                inv[0] = False
                if profiler is not None:
                    profiler.record_block_prefix(plan, stop)
                d = _partial_stats(plan, stop)
                executed += d[0]; slots += d[1]
                ops_exec += d[2]; mem_instr += d[3]
                mem_ops += d[4]
                state.ip = stop
                prev = None
                continue

            # -- terminator (full buffered semantics) ---------------------
            if plan.term_dec is not None:
                ip_c = plan.term_ip
                nip_c = plan.term_next_ip
                new_ip = None
                for f2, v2 in plan.term_ops:
                    r = f2(state, v2, ip_c, nip_c, regwr, memwr)
                    if r is not None:
                        new_ip = r
                if model is not None and not observed_term:
                    model.observe(plan.term_dec, regs)
                if regwr:
                    for reg, val in regwr:
                        regs[reg] = val
                    regs[0] = 0
                    del regwr[:]
                if memwr:
                    for size, addr, val in memwr:
                        if size == 4:
                            s4(addr, val)
                        elif size == 2:
                            s2(addr, val)
                        else:
                            s1(addr, val)
                    del memwr[:]
                state.ip = nip_c if new_ip is None else new_ip
            else:
                state.ip = plan.end_ip
            if inv[0]:
                # A terminator (store beside a branch, or a simop
                # writing into code) invalidated plans; the chain is
                # already severed — just drop our stale reference.
                inv[0] = False
                prev = None

            executed += plan.n_instr
            slots += plan.n_slots
            ops_exec += plan.n_exec
            mem_instr += plan.n_mem_instr
            mem_ops += plan.n_mem_ops
            if profiler is not None:
                profiler.record_block(plan)

        self.blocks_executed += blocks
        self.chain_hits += chains
        return executed, slots, ops_exec, mem_instr, mem_ops


def _partial_stats(
    plan: SuperblockPlan, stop_ip: int
) -> Tuple[int, int, int, int, int]:
    """Stats of the block prefix strictly before ``stop_ip``.

    Used on the rare mid-block abort after a self-modifying store: the
    instruction ending at ``stop_ip`` has committed, everything after
    it has not run.
    """
    n = s = e = mi = mo = 0
    for dec in plan.decs:
        if dec.addr >= stop_ip:
            break
        n += 1
        s += dec.n_slots
        e += dec.n_exec
        if dec.has_mem:
            mi += 1
            mo += dec.n_mem
    return n, s, e, mi, mo
