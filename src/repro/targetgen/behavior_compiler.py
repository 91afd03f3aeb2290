"""Lowering of ADL behaviour fragments to simulation functions.

This is the heart of the TargetGen utility (paper Section V): for each
operation the ADL carries a behaviour fragment, and TargetGen generates
the operation's *simulation function* from it.  We generate genuine
Python source text (inspectable, and emittable as a module by
:mod:`repro.targetgen.codegen`) and ``exec`` it to obtain the callable.

Generated simulation functions have the uniform signature::

    def sim_<name>(state, v, ip, next_ip, regwr, memwr):
        ...
        return <new-ip or None>

``v`` is the tuple of decoded field values (the paper's *decode
structure* content), in :attr:`Operation.value_fields` order.  Register
and memory writes are *buffered* into ``regwr`` / ``memwr`` and applied
by the interpreter only after every parallel operation of the
instruction has computed — semantically identical to the paper's
recursive simulation-function calls (Section V-B), which also perform
all register reads before any write-back.

For the superblock translation engine a second, *direct* variant is
generated where provably safe::

    def simd_<name>(state, v, ip, next_ip):
        ...  # writes registers/memory immediately, no buffers

Buffering exists to give parallel VLIW slots read-before-write
semantics; a single-issue instruction only needs it when the behaviour
itself reads a register or memory location *after* writing one in an
earlier statement.  :func:`direct_eligible` performs that (conservative,
source-order) analysis; control-flow operations are never eligible.
Inside a superblock's straight-line body, calling the direct variant is
observably identical to buffer-then-commit, and roughly halves the
per-operation Python work.  A VLIW bundle with several executing ops
is inlined by :func:`inline_bundle_stmts` instead, which evaluates
every write into a temporary and commits them after the whole bundle
— the buffered semantics, without the buffers.
"""

from __future__ import annotations

import ast
from typing import Callable, Dict, List, Optional, Tuple

from ..adl.behavior import BehaviorError, parse_behavior
from ..adl.model import Operation

MASK32 = 0xFFFFFFFF

#: Memory-load intrinsics and the local aliases they compile to.
_LOADS = {"M1": "ld1", "M2": "ld2", "M4": "ld4"}
_STORE_SIZES = {"S1": 1, "S2": 2, "S4": 4}
_HELPERS = {"s8", "s16", "s32", "sdiv", "srem"}


def s8(x: int) -> int:
    x &= 0xFF
    return x - 0x100 if x & 0x80 else x


def s16(x: int) -> int:
    x &= 0xFFFF
    return x - 0x10000 if x & 0x8000 else x


def s32(x: int) -> int:
    x &= MASK32
    return x - 0x100000000 if x & 0x80000000 else x


def sdiv(a: int, b: int) -> int:
    """Truncating signed division; division by zero yields -1."""
    a, b = s32(a), s32(b)
    if b == 0:
        return -1
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def srem(a: int, b: int) -> int:
    """Truncating signed remainder; by zero yields the dividend."""
    a, b = s32(a), s32(b)
    if b == 0:
        return a
    return a - sdiv(a, b) * b


#: Globals visible to generated simulation functions.
SIM_GLOBALS: Dict[str, object] = {
    "s8": s8,
    "s16": s16,
    "s32": s32,
    "sdiv": sdiv,
    "srem": srem,
}


class _Emitter:
    """Translate validated behaviour AST nodes into Python source.

    ``direct`` switches W/S lowering from buffer appends to immediate
    register/memory writes (the superblock engine's translated mode).
    ``subst`` maps field names (and ``IP``/``NIP``) to literal source
    text, used when inlining an op instance into a superblock body;
    ``local_prefix`` keeps behaviour-local variables of different
    inlined instructions from colliding.  ``defer`` (a
    :class:`_DeferredWrites`) lowers W/S into bundle temporaries whose
    commit statements the caller emits after the whole bundle.
    """

    def __init__(
        self,
        op: Operation,
        *,
        direct: bool = False,
        subst: Optional[Dict[str, str]] = None,
        local_prefix: str = "",
        defer: Optional["_DeferredWrites"] = None,
    ) -> None:
        self.op = op
        self.direct = direct
        self.subst = subst
        self.local_prefix = local_prefix
        self.defer = defer
        self.field_names = {f.name for f in op.value_fields}
        self.locals: set = set()
        self.uses_regs = False
        self.uses_loads: set = set()
        self.uses_stores: set = set()

    # -- expressions ---------------------------------------------------

    def expr(self, node: ast.expr) -> str:
        if isinstance(node, ast.Constant):
            return repr(node.value)
        if isinstance(node, ast.Name):
            subst = self.subst
            if node.id == "NIP":
                return subst["NIP"] if subst else "next_ip"
            if node.id == "IP":
                return subst["IP"] if subst else "ip"
            if node.id in self.field_names:
                return subst[node.id] if subst else node.id
            if node.id in self.locals:
                return self.local_prefix + node.id
            raise BehaviorError(
                f"operation {self.op.name!r}: unknown name {node.id!r}"
            )
        if isinstance(node, ast.BinOp):
            return f"({self.expr(node.left)} {_BINOPS[type(node.op)]} {self.expr(node.right)})"
        if isinstance(node, ast.UnaryOp):
            return f"({_UNARYOPS[type(node.op)]}{self.expr(node.operand)})"
        if isinstance(node, ast.BoolOp):
            joiner = " and " if isinstance(node.op, ast.And) else " or "
            return "(" + joiner.join(self.expr(v) for v in node.values) + ")"
        if isinstance(node, ast.Compare):
            parts = [self.expr(node.left)]
            for op_, comp in zip(node.ops, node.comparators):
                parts.append(_CMPOPS[type(op_)])
                parts.append(self.expr(comp))
            return "(" + " ".join(parts) + ")"
        if isinstance(node, ast.IfExp):
            return (
                f"({self.expr(node.body)} if {self.expr(node.test)} "
                f"else {self.expr(node.orelse)})"
            )
        if isinstance(node, ast.Call):
            return self._call_expr(node)
        raise BehaviorError(
            f"operation {self.op.name!r}: unsupported expression "
            f"{type(node).__name__}"
        )

    def _call_expr(self, node: ast.Call) -> str:
        name = node.func.id  # validated to be ast.Name by parse_behavior
        args = [self.expr(a) for a in node.args]
        if name == "R":
            self.uses_regs = True
            return f"regs[{args[0]}]"
        if name in _LOADS:
            self.uses_loads.add(name)
            return f"{_LOADS[name]}({args[0]})"
        if name in _HELPERS:
            return f"{name}({', '.join(args)})"
        raise BehaviorError(
            f"operation {self.op.name!r}: {name}() is not a value intrinsic"
        )

    # -- statements ----------------------------------------------------

    def stmt(self, node: ast.stmt, indent: str, out: List[str]) -> None:
        if isinstance(node, ast.Pass):
            out.append(f"{indent}pass")
            return
        if isinstance(node, ast.Assign):
            target = node.targets[0].id  # validated as plain Name
            value = self.expr(node.value)  # before target becomes local
            self.locals.add(target)
            out.append(f"{indent}{self.local_prefix}{target} = {value}")
            return
        if isinstance(node, ast.If):
            out.append(f"{indent}if {self.expr(node.test)}:")
            for sub in node.body:
                self.stmt(sub, indent + "    ", out)
            if node.orelse:
                out.append(f"{indent}else:")
                for sub in node.orelse:
                    self.stmt(sub, indent + "    ", out)
            return
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
            self._call_stmt(node.value, indent, out)
            return
        raise BehaviorError(
            f"operation {self.op.name!r}: unsupported statement "
            f"{type(node).__name__}"
        )

    def _call_stmt(self, node: ast.Call, indent: str, out: List[str]) -> None:
        name = node.func.id
        args = [self.expr(a) for a in node.args]
        if self.defer is not None and (name == "W" or name in _STORE_SIZES):
            self.defer.lower(self, name, args, indent, out)
        elif name == "W":
            if self.direct:
                # Immediate write; the guard keeps r0 hard-wired to 0
                # (folded away when the target register is a literal).
                if args[0].isdigit():
                    if int(args[0]) != 0:
                        self.uses_regs = True
                        out.append(
                            f"{indent}regs[{args[0]}] = "
                            f"({args[1]}) & {MASK32}"
                        )
                    return
                self.uses_regs = True
                out.append(f"{indent}if {args[0]}:")
                out.append(
                    f"{indent}    regs[{args[0]}] = ({args[1]}) & {MASK32}"
                )
            else:
                out.append(
                    f"{indent}regwr.append(({args[0]}, ({args[1]}) & {MASK32}))"
                )
        elif name in _STORE_SIZES:
            size = _STORE_SIZES[name]
            if self.direct:
                self.uses_stores.add(size)
                out.append(f"{indent}st{size}({args[0]}, {args[1]})")
            else:
                out.append(
                    f"{indent}memwr.append(({size}, {args[0]}, {args[1]}))"
                )
        elif name == "BR":
            nip = self.subst["NIP"] if self.subst else "next_ip"
            out.append(f"{indent}return {nip} + (({args[0]}) << 2)")
        elif name == "JABS":
            out.append(f"{indent}return ({args[0]}) & {MASK32}")
        elif name == "SWITCH":
            out.append(f"{indent}state.switch_isa({args[0]})")
        elif name == "SIM":
            out.append(f"{indent}return state.simop({args[0]})")
        elif name == "HALT":
            out.append(f"{indent}state.halted = True")
        else:
            # A value intrinsic used for its side effect — emit as-is.
            out.append(f"{indent}{self._call_expr(node)}")


_BINOPS = {
    ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.FloorDiv: "//",
    ast.Mod: "%", ast.LShift: "<<", ast.RShift: ">>",
    ast.BitAnd: "&", ast.BitOr: "|", ast.BitXor: "^",
}
_UNARYOPS = {ast.USub: "-", ast.Invert: "~", ast.Not: "not "}
_CMPOPS = {
    ast.Eq: "==", ast.NotEq: "!=", ast.Lt: "<", ast.LtE: "<=",
    ast.Gt: ">", ast.GtE: ">=",
}


class _DeferredWrites:
    """Bundle-level write deferral for :func:`inline_bundle_stmts`.

    Each ``W``/``S*`` of a bundle's ops evaluates its operands into
    ``_b<n>`` temporaries where it stands; the commit statements —
    register writes in slot order (last writer wins, writes to ``r0``
    dropped), then stores in slot order — run after every op of the
    bundle has read its pre-bundle inputs.  Only unconditional writes
    with literal register targets are lowered; anything else raises
    :class:`BehaviorError` and the bundle stays on the buffered path.
    """

    def __init__(self, indent: str) -> None:
        self.indent = indent
        self.n = 0
        self.reg_commits: List[str] = []
        self.store_commits: List[str] = []

    def _temp(self) -> str:
        self.n += 1
        return f"_b{self.n}"

    def lower(self, emitter: "_Emitter", name: str, args: List[str],
              indent: str, out: List[str]) -> None:
        if indent != self.indent:
            raise BehaviorError(
                f"operation {emitter.op.name!r}: conditional write"
            )
        if name == "W":
            if not args[0].isdigit():
                raise BehaviorError(
                    f"operation {emitter.op.name!r}: computed register"
                )
            value = self._temp()
            out.append(f"{indent}{value} = ({args[1]}) & {MASK32}")
            if int(args[0]) != 0:
                emitter.uses_regs = True
                self.reg_commits.append(
                    f"{indent}regs[{args[0]}] = {value}"
                )
            return
        size = _STORE_SIZES[name]
        addr, value = self._temp(), self._temp()
        out.append(f"{indent}{addr} = {args[0]}")
        out.append(f"{indent}{value} = {args[1]}")
        emitter.uses_stores.add(size)
        self.store_commits.append(f"{indent}st{size}({addr}, {value})")


def sim_function_name(op: Operation) -> str:
    return f"sim_{op.name}"


def direct_function_name(op: Operation) -> str:
    return f"simd_{op.name}"


#: Operation kinds that may get a direct variant.  Control-transfer,
#: simop, switch and halt operations always run buffered (they are
#: superblock terminators anyway); NOPs need no function at all.
_DIRECT_KINDS = frozenset(("alu", "load", "store"))

_WRITE_INTRINSICS = frozenset(("W",)) | frozenset(_STORE_SIZES)
_READ_INTRINSICS = frozenset(("R",)) | frozenset(_LOADS)


def _contains_intrinsic(node: ast.AST, names: frozenset) -> bool:
    for sub in ast.walk(node):
        if (
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Name)
            and sub.func.id in names
        ):
            return True
    return False


def direct_eligible(op: Operation) -> bool:
    """Whether immediate (unbuffered) writes preserve ``op``'s semantics.

    Within one statement Python evaluates a call's arguments before the
    write they feed, so reads *inside* a writing statement are safe.
    Unsafe is only a register/memory read in a *later* statement after
    some earlier statement wrote — buffered semantics would return the
    pre-instruction value, direct writes the new one.  The check walks
    statements in source order (branch arms sequentially, which is
    conservative) and rejects on the first read-after-write.
    """
    if op.kind not in _DIRECT_KINDS:
        return False
    try:
        tree = parse_behavior(op.name, op.behavior)
    except BehaviorError:
        return False

    def scan(stmts, wrote: bool) -> Tuple[bool, bool]:
        """Returns (eligible, wrote_after)."""
        for stmt in stmts:
            if isinstance(stmt, ast.If):
                if wrote and _contains_intrinsic(stmt.test, _READ_INTRINSICS):
                    return False, wrote
                ok, wrote = scan(stmt.body, wrote)
                if not ok:
                    return False, wrote
                ok, wrote = scan(stmt.orelse, wrote)
                if not ok:
                    return False, wrote
                continue
            if wrote and _contains_intrinsic(stmt, _READ_INTRINSICS):
                return False, wrote
            if _contains_intrinsic(stmt, _WRITE_INTRINSICS):
                wrote = True
        return True, wrote

    ok, _ = scan(tree.body, False)
    return ok


def generate_direct_sim_source(op: Operation) -> Optional[str]:
    """Source of the direct variant, or None when not eligible."""
    if not direct_eligible(op):
        return None
    tree = parse_behavior(op.name, op.behavior)
    emitter = _Emitter(op, direct=True)
    body: List[str] = []
    for stmt in tree.body:
        emitter.stmt(stmt, "    ", body)

    prologue: List[str] = []
    if emitter.uses_regs:
        prologue.append("    regs = state.regs")
    for intrinsic in sorted(emitter.uses_loads):
        alias = _LOADS[intrinsic]
        size = intrinsic[1]
        prologue.append(f"    {alias} = state.mem.load{size}")
    for size in sorted(emitter.uses_stores):
        prologue.append(f"    st{size} = state.mem.store{size}")
    for index, f in enumerate(op.value_fields):
        prologue.append(f"    {f.name} = v[{index}]")

    lines = [f"def {direct_function_name(op)}(state, v, ip, next_ip):"]
    doc = op.behavior.replace("\n", "; ")
    lines.append(f'    """Direct-write variant generated from: {doc}"""')
    lines.extend(prologue)
    lines.extend(body)
    return "\n".join(lines) + "\n"


def compile_direct_sim_function(op: Operation) -> Optional[Callable]:
    """Compile the direct variant; None when the op is not eligible."""
    source = generate_direct_sim_source(op)
    if source is None:
        return None
    namespace: Dict[str, object] = dict(SIM_GLOBALS)
    exec(compile(source, f"<targetgen-direct:{op.name}>", "exec"), namespace)
    return namespace[direct_function_name(op)]


#: Parsed behaviour trees, memoised for the superblock translator (it
#: inlines the same few dozen operations thousands of times; the tree
#: is read-only so sharing is safe).
_PARSE_CACHE: Dict[Tuple[str, str], ast.Module] = {}


def _parse_cached(op: Operation) -> ast.Module:
    key = (op.name, op.behavior)
    tree = _PARSE_CACHE.get(key)
    if tree is None:
        tree = parse_behavior(op.name, op.behavior)
        _PARSE_CACHE[key] = tree
    return tree


#: (lines, uses_regs, load intrinsics, store sizes) per op instance.
InlinedStmts = Tuple[Tuple[str, ...], bool, frozenset, frozenset]

_INLINE_CACHE: Dict[Tuple, InlinedStmts] = {}
_USES_IP: Dict[Tuple[str, str], bool] = {}


def _inline_ops(
    ops: Tuple[Tuple[Operation, Tuple[int, ...]], ...],
    ip: int,
    next_ip: int,
    indent: str,
    defer: bool,
) -> InlinedStmts:
    """Shared body of :func:`inline_direct_stmts` and
    :func:`inline_bundle_stmts`: substitute each op's decoded values
    and ``IP``/``NIP`` as literals, emit its statements in order, and
    memoise per encoding unless a behaviour mentions ``IP``/``NIP``.
    """
    memo = True
    for op, _values in ops:
        op_key = (op.name, op.behavior)
        uses_ip = _USES_IP.get(op_key)
        if uses_ip is None:
            uses_ip = any(
                isinstance(node, ast.Name) and node.id in ("IP", "NIP")
                for node in ast.walk(_parse_cached(op))
            )
            _USES_IP[op_key] = uses_ip
        memo = memo and not uses_ip
    key = (
        tuple(((op.name, op.behavior), values) for op, values in ops),
        indent,
        defer,
    )
    if memo:
        cached = _INLINE_CACHE.get(key)
        if cached is not None:
            return cached
    deferred = _DeferredWrites(indent) if defer else None
    out: List[str] = []
    uses_regs = False
    loads: set = set()
    stores: set = set()
    for op, values in ops:
        if defer and op.kind not in _DIRECT_KINDS:
            raise BehaviorError(
                f"operation {op.name!r}: {op.kind} op in a bundle body"
            )
        subst = {
            f.name: repr(values[index])
            for index, f in enumerate(op.value_fields)
        }
        subst["IP"] = repr(ip)
        subst["NIP"] = repr(next_ip)
        emitter = _Emitter(op, direct=True, subst=subst,
                           local_prefix="_t_", defer=deferred)
        for stmt in _parse_cached(op).body:
            emitter.stmt(stmt, indent, out)
        uses_regs = uses_regs or emitter.uses_regs
        loads |= emitter.uses_loads
        stores |= emitter.uses_stores
    if deferred is not None:
        out.extend(deferred.reg_commits)
        out.extend(deferred.store_commits)
    result: InlinedStmts = (
        tuple(out), uses_regs, frozenset(loads), frozenset(stores)
    )
    if memo:
        _INLINE_CACHE[key] = result
    return result


def inline_direct_stmts(
    op: Operation,
    values: Tuple[int, ...],
    ip: int,
    next_ip: int,
    *,
    indent: str = "    ",
) -> InlinedStmts:
    """Inline one op *instance* as direct-write statements.

    The superblock translator calls this for every instruction of a
    straight-line body: decoded field values, the instruction address
    and its successor are substituted as integer literals, turning the
    whole block into one flat Python function with no per-instruction
    calls.  The caller must have checked eligibility (the op's
    ``direct_fn`` is not None).

    Behaviour-local variables get a fixed ``_t_`` prefix: validation
    guarantees locals are assigned before read, so re-using the names
    across inlined instructions is safe.  Results are memoised per
    ``(op, values)`` — real programs repeat the same instruction
    encodings constantly — except for the rare behaviour that mentions
    ``IP``/``NIP``, whose literals differ per address.
    """
    return _inline_ops(((op, values),), ip, next_ip, indent, False)


def inline_bundle_stmts(
    ops: Tuple[Tuple[Operation, Tuple[int, ...]], ...],
    ip: int,
    next_ip: int,
) -> InlinedStmts:
    """Inline the executing ops of one VLIW bundle with deferred writes.

    ``ops`` holds ``(operation, decoded values)`` per executing slot,
    in slot order.  The emitted statements keep the buffered commit's
    read-before-write semantics exactly: every op reads pre-bundle
    registers and memory, register writes then commit in slot order
    (``r0`` stays 0), and stores follow the register writes.  Raises
    :class:`BehaviorError` when an op is not an ALU/memory operation or
    writes conditionally.  Memoised per bundle encoding like
    :func:`inline_direct_stmts`.
    """
    return _inline_ops(ops, ip, next_ip, "    ", True)


def _resolve_literal(
    node: ast.expr, fields: Dict[str, int]
) -> Optional[int]:
    if isinstance(node, ast.Constant) and isinstance(node.value, int):
        return node.value
    if isinstance(node, ast.Name):
        return fields.get(node.id)
    return None


def _collect_reads(node: ast.AST):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name):
            if sub.func.id == "R":
                yield ("reg", sub.args[0])
            elif sub.func.id in _LOADS:
                yield ("mem", None)


def _control_inline_safe(
    stmts, written: set, fields: Dict[str, int]
) -> Optional[set]:
    """Per-instance read-after-write check with literal register numbers.

    The generic :func:`direct_eligible` must reject e.g. ``jalr`` (its
    ``JABS(R(rs1))`` follows ``W(rd, NIP)``), but with the decoded
    field values known the write target and the later read are concrete
    registers — the hazard only exists when they collide.  Returns the
    written-register set, or None when direct lowering is unsafe.
    """
    for stmt in stmts:
        if isinstance(stmt, ast.If):
            for kind, arg in _collect_reads(stmt.test):
                if written:
                    reg = _resolve_literal(arg, fields) if kind == "reg" else None
                    if kind == "mem" or reg is None or reg in written:
                        return None
            w_then = _control_inline_safe(stmt.body, set(written), fields)
            if w_then is None:
                return None
            w_else = _control_inline_safe(stmt.orelse, set(written), fields)
            if w_else is None:
                return None
            written |= w_then | w_else
            continue
        for kind, arg in _collect_reads(stmt):
            if written:
                reg = _resolve_literal(arg, fields) if kind == "reg" else None
                if kind == "mem" or reg is None or reg in written:
                    return None
        for sub in ast.walk(stmt):
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Name)
            ):
                if sub.func.id == "W":
                    target = _resolve_literal(sub.args[0], fields)
                    if target is None:
                        return None
                    if target != 0:
                        written.add(target)
                elif sub.func.id in _STORE_SIZES:
                    return None  # control ops never store; stay buffered
    return written


def inline_control_stmts(
    op: Operation,
    values: Tuple[int, ...],
    ip: int,
    next_ip: int,
    *,
    indent: str = "    ",
) -> Optional[InlinedStmts]:
    """Inline a branch/jump terminator instance as direct statements.

    Every path through the emitted lines ends in ``return <ip>`` (a
    trailing fall-through return is appended), so a superblock's whole
    body *and* terminator collapse into one flat function.  Returns
    None when the op is not a plain control transfer or when the
    per-instance read-after-write check fails.
    """
    if op.kind != "branch":
        return None
    tree = _parse_cached(op)
    fields = {
        f.name: values[index] for index, f in enumerate(op.value_fields)
    }
    fields["IP"] = ip
    fields["NIP"] = next_ip
    if _control_inline_safe(tree.body, set(), fields) is None:
        return None
    subst = {name: repr(value) for name, value in fields.items()}
    emitter = _Emitter(op, direct=True, subst=subst, local_prefix="_t_")
    out: List[str] = []
    try:
        for stmt in tree.body:
            emitter.stmt(stmt, indent, out)
    except BehaviorError:
        return None
    out.append(f"{indent}return {next_ip}")
    return (
        tuple(out),
        emitter.uses_regs,
        frozenset(emitter.uses_loads),
        frozenset(emitter.uses_stores),
    )


def generate_sim_function_source(op: Operation) -> str:
    """Generate the Python source of one operation's simulation function."""
    tree = parse_behavior(op.name, op.behavior)
    emitter = _Emitter(op)
    body: List[str] = []
    for stmt in tree.body:
        emitter.stmt(stmt, "    ", body)

    prologue: List[str] = []
    if emitter.uses_regs:
        prologue.append("    regs = state.regs")
    for intrinsic in sorted(emitter.uses_loads):
        alias = _LOADS[intrinsic]
        size = intrinsic[1]
        prologue.append(f"    {alias} = state.mem.load{size}")
    for index, f in enumerate(op.value_fields):
        prologue.append(f"    {f.name} = v[{index}]")

    lines = [f"def {sim_function_name(op)}(state, v, ip, next_ip, regwr, memwr):"]
    doc = op.behavior.replace("\n", "; ")
    lines.append(f'    """Generated from ADL behaviour: {doc}"""')
    lines.extend(prologue)
    lines.extend(body)
    if not body or not body[-1].lstrip().startswith("return"):
        lines.append("    return None")
    return "\n".join(lines) + "\n"


def compile_sim_function(op: Operation) -> Callable:
    """Compile one operation's behaviour into its simulation function."""
    source = generate_sim_function_source(op)
    namespace: Dict[str, object] = dict(SIM_GLOBALS)
    exec(compile(source, f"<targetgen:{op.name}>", "exec"), namespace)
    return namespace[sim_function_name(op)]
