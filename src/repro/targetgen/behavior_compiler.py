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

The superblock translator instead inlines op *instances*: decoded
field values and the instruction address become literals, and the
emitter folds while it lowers (constants, integer identities,
redundant 32-bit masks, signed compares, sign extension, the aligned
``ld4`` fast path).  Constant-index registers are named as function
locals (:func:`reg_local`); the translator's function assembler loads
them once and writes them back at every exit.  Writes happen in place
where :func:`direct_eligible` proves that safe; a VLIW bundle with
several executing ops is inlined by :func:`inline_bundle_stmts`,
which evaluates every write into a temporary and commits them after
the whole bundle — the buffered semantics, without the buffers.
"""

from __future__ import annotations

import ast
import operator
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

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


#: Folding IR of the emitter: tuples headed by one of these kinds —
#: ``(_C, value)`` an integer constant, ``(_R, k)`` a read of register
#: ``k``, ``(_N, text)`` opaque source (locals, compares, buffered-mode
#: names), ``(_B, op, left, right)``, ``(_U, op, operand)`` and
#: ``(_L, name, args)`` an intrinsic or helper call.
_C, _R, _N, _B, _U, _L = range(6)

_MASK = (_C, MASK32)
_SIGN = (_C, 0x80000000)

#: ``name -> (mask, sign bit)`` of the sign-extension helpers; inlined
#: code uses the branch-free ``((x & mask) ^ sign) - sign``.
_SEXT = {"s8": (0xFF, 0x80), "s16": (0xFFFF, 0x8000),
         "s32": (MASK32, 0x80000000)}

_CONST_OPS = {
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "&": operator.and_, "|": operator.or_, "^": operator.xor,
    "<<": operator.lshift, ">>": operator.rshift,
    "//": operator.floordiv, "%": operator.mod,
}


def reg_local(k: int) -> str:
    """Name of register ``k`` in translated code.

    Every constant-index register access of emitted code — behaviour
    reads and writes, bundle commits, the cycle models' address
    expressions — uses this name; the function assembler loads each
    used register into it once and writes the written ones back at
    every exit.
    """
    return f"_r{k}"


def address_expr(base: int, imm: int) -> str:
    """Effective address ``(R(base) + imm) & 0xFFFFFFFF``, folded and
    spelled with :func:`reg_local` like translated behaviour code (the
    cycle models' fused memory accounting uses it)."""
    return _render(
        _fold_bin("&", _fold_bin("+", (_R, base), (_C, imm)), _MASK), True
    )


def _clean(node: tuple) -> bool:
    """Is ``node``'s value provably already in ``[0, 2**32)``?

    Register-file reads are clean by invariant (every write path masks
    — the emitter, the loader, the syscall layer), the memory
    intrinsics return masked values, and masking/right-shifting a
    clean value stays clean.
    """
    kind = node[0]
    if kind == _C:
        return 0 <= node[1] <= MASK32
    if kind == _R:
        return True
    if kind == _L:
        return node[1] in ("ld1", "ld2", "ld4")
    if kind == _B:
        if node[1] == "&":
            return any(s[0] == _C and 0 <= s[1] <= MASK32
                       for s in (node[2], node[3]))
        if node[1] == ">>":
            return _clean(node[2])
    return False


def _ring(node: tuple) -> tuple:
    """Simplify ``node`` given it sits under a ``& 0xFFFFFFFF`` mask.

    Mod-2**32 congruence is preserved by ``+ - * <<`` (left operand)
    and by the bitwise operators (bit *i* of a result depends only on
    bits ``<= i`` of the operands), so inside a masked context
    ``s32(x)`` is congruent to ``x`` and an inner ``& 0xFFFFFFFF`` is
    redundant.  Right shifts and divisions depend on high bits and are
    deliberately not descended into.
    """
    kind = node[0]
    if kind == _L and node[1] == "s32" and len(node[2]) == 1:
        return _ring(node[2][0])
    if kind == _B:
        op = node[1]
        if op == "&":
            if node[3] == _MASK:
                return _ring(node[2])
            if node[2] == _MASK:
                return _ring(node[3])
        if op in ("+", "-", "*", "&", "|", "^"):
            return (_B, op, _ring(node[2]), _ring(node[3]))
        if op == "<<":
            return (_B, op, _ring(node[2]), node[3])
    if kind == _U and node[1] == "-":
        return (_U, "-", _ring(node[2]))
    return node


def _masked(node: tuple) -> tuple:
    return node if _clean(node) else (_B, "&", node, _MASK)


def _fold_bin(op: str, left: tuple, right: tuple) -> tuple:
    """One binary operation, folded: constants, the mask, identities.

    ``E & 0xFFFFFFFF`` ring-simplifies ``E`` and disappears entirely
    when ``E`` is provably masked already; the integer identities
    ``x+0``, ``x-0``, ``x<<0``, ``x>>0``, ``x|0``, ``x^0``, ``x*1``,
    ``0+x``, ``0|x``, ``0^x`` fold (register moves and zero offsets
    produce them; they are exact for Python integers).  Operations on
    two constants are computed unless they would raise.
    """
    if left[0] == _C and right[0] == _C:
        a, b = left[1], right[1]
        if not ((op in ("//", "%") and b == 0)
                or (op in ("<<", ">>") and not 0 <= b <= 64)):
            return (_C, _CONST_OPS[op](a, b))
    if op == "&":
        for this, other in ((right, left), (left, right)):
            if this == _MASK:
                return _masked(_ring(other))
    if right[0] == _C:
        if right[1] == 0 and op in ("+", "-", "<<", ">>", "|", "^"):
            return left
        if right[1] == 1 and op == "*":
            return left
    if left[0] == _C and left[1] == 0 and op in ("+", "|", "^"):
        return right
    return (_B, op, left, right)


def _render(node: tuple, fast: bool) -> str:
    """Source text of ``node``; ``fast`` inlines sign extension and
    the aligned-word ``ld4`` fast path (translated code only)."""
    kind = node[0]
    if kind == _C:
        return repr(node[1])
    if kind == _R:
        return reg_local(node[1])
    if kind == _N:
        return node[1]
    if kind == _B:
        return (f"({_render(node[2], fast)} {node[1]} "
                f"{_render(node[3], fast)})")
    if kind == _U:
        return f"({node[1]}{_render(node[2], fast)})"
    name, args = node[1], node[2]
    if fast and len(args) == 1:
        if name in _SEXT:
            mask, sign = _SEXT[name]
            return f"((({_render(args[0], fast)} & {mask}) ^ {sign}) - {sign})"
        if name == "ld4":
            # Open-coded aligned-word fast path of ``Memory.load4``:
            # index the page's word view when the address is aligned
            # and the page exists, else call the bound ``ld4`` (which
            # also covers big-endian hosts, where ``_zg`` always
            # returns None).  The walrus temps are safe to share
            # between sites: each site's uses sit between its own
            # assignment and its result, and Python fully evaluates
            # nested and earlier sites first.  The assembler binds
            # ``_zg = state.mem._views.get`` (the dict is mutated in
            # place, never rebound).
            return (
                "(_zw[(_za & 4095) >> 2] if not (_za := "
                f"{_render(_masked(args[0]), fast)}) & 3 and "
                "(_zw := _zg(_za >> 12)) is not None else ld4(_za))"
            )
    return f"{name}({', '.join(_render(a, fast) for a in args)})"


class Exit(NamedTuple):
    """A control transfer in inlined terminator lines.

    Consumers render it: ``return <expr>`` in a plan function, a jump
    or a ``(next_ip, count)`` return in an AOT trace.  ``target`` is
    the transfer's constant value, None when computed at run time.
    """

    indent: str
    expr: str
    target: Optional[int]


class _Emitter:
    """Translate validated behaviour AST nodes into Python source.

    Without ``subst`` the emitter produces a buffered simulation
    function verbatim: fields are variables, W/S append to the write
    buffers.  With ``subst`` (field names and ``IP``/``NIP`` mapped to
    integer literals) it inlines one op *instance* for the superblock
    translator: expressions fold as they are lowered, registers are
    locals named by :func:`reg_local` with constant indices (a computed
    index raises :class:`BehaviorError`), writes land in place, and
    branches become :class:`Exit` lines.  ``defer`` (a
    :class:`_DeferredWrites`) lowers W/S into bundle temporaries whose
    commit statements the caller emits after the whole bundle.
    """

    def __init__(
        self,
        op: Operation,
        *,
        subst: Optional[Dict[str, int]] = None,
        defer: Optional["_DeferredWrites"] = None,
    ) -> None:
        self.op = op
        self.subst = subst
        self.fold = subst is not None
        self.local_prefix = "_t_" if self.fold else ""
        self.defer = defer
        self.field_names = {f.name for f in op.value_fields}
        self.locals: set = set()
        #: Buffered mode: whether the body reads the register file.
        self.uses_regs = False
        #: Inlined mode: constant register indices read and written.
        self.reads: set = set()
        self.writes: set = set()
        self.loads: set = set()
        self.stores: set = set()

    def _error(self, what: str) -> BehaviorError:
        return BehaviorError(f"operation {self.op.name!r}: {what}")

    def render(self, node: tuple) -> str:
        return _render(node, self.fold)

    def bin(self, op: str, left: tuple, right: tuple) -> tuple:
        if self.fold:
            return _fold_bin(op, left, right)
        return (_B, op, left, right)

    # -- expressions ---------------------------------------------------

    def value(self, node: ast.expr) -> tuple:
        if isinstance(node, ast.Constant):
            return (_C, node.value)
        if isinstance(node, ast.Name):
            name = node.id
            if name in ("IP", "NIP") or name in self.field_names:
                if self.fold:
                    return (_C, self.subst[name])
                return (_N, {"IP": "ip", "NIP": "next_ip"}.get(name, name))
            if name in self.locals:
                return (_N, self.local_prefix + name)
            raise self._error(f"unknown name {name!r}")
        if isinstance(node, ast.BinOp):
            return self.bin(_BINOPS[type(node.op)], self.value(node.left),
                            self.value(node.right))
        if isinstance(node, ast.UnaryOp):
            op = _UNARYOPS[type(node.op)]
            operand = self.value(node.operand)
            if self.fold and operand[0] == _C and op != "not ":
                return (_C, -operand[1] if op == "-" else ~operand[1])
            return (_U, op, operand)
        if isinstance(node, ast.BoolOp):
            joiner = " and " if isinstance(node.op, ast.And) else " or "
            return (_N, "(" + joiner.join(
                self.render(self.value(v)) for v in node.values) + ")")
        if isinstance(node, ast.Compare):
            return self._compare(node)
        if isinstance(node, ast.IfExp):
            return (_N, f"({self.render(self.value(node.body))} if "
                        f"{self.render(self.value(node.test))} else "
                        f"{self.render(self.value(node.orelse))})")
        if isinstance(node, ast.Call):
            return self._call_value(node)
        raise self._error(
            f"unsupported expression {type(node).__name__}"
        )

    def _compare(self, node: ast.Compare) -> tuple:
        left = self.value(node.left)
        rest = [(_CMPOPS[type(op)], self.value(comp))
                for op, comp in zip(node.ops, node.comparators)]
        if self.fold and len(rest) == 1:
            op, right = rest[0]
            if _is_s32(left) and _is_s32(right):
                # ``s32(a) <op> s32(b)`` without materialising signed
                # values: for masked values ``y = s32(x) -> x ^ 2**31``
                # is a monotonic bijection onto ``[0, 2**32)``, so
                # flipping both sign bits preserves every ordering
                # comparison; equality needs no flip at all.
                a, b = _masked(left[2][0]), _masked(right[2][0])
                if op not in ("==", "!="):
                    a, b = (_B, "^", a, _SIGN), (_B, "^", b, _SIGN)
                left, rest = a, [(op, b)]
        parts = [self.render(left)]
        for op, comp in rest:
            parts.append(op)
            parts.append(self.render(comp))
        return (_N, "(" + " ".join(parts) + ")")

    def _call_value(self, node: ast.Call) -> tuple:
        name = node.func.id  # validated to be ast.Name by parse_behavior
        args = tuple(self.value(a) for a in node.args)
        if name == "R":
            if not self.fold:
                self.uses_regs = True
                return (_N, f"regs[{self.render(args[0])}]")
            if args[0][0] != _C:
                raise self._error("computed register")
            self.reads.add(args[0][1])
            return (_R, args[0][1])
        if name in _LOADS:
            self.loads.add(int(name[1]))
            return (_L, _LOADS[name], args)
        if name in _HELPERS:
            return (_L, name, args)
        raise self._error(f"{name}() is not a value intrinsic")

    # -- statements ----------------------------------------------------

    def stmt(self, node: ast.stmt, indent: str, out: List) -> None:
        if isinstance(node, ast.Pass):
            out.append(f"{indent}pass")
            return
        if isinstance(node, ast.Assign):
            target = node.targets[0].id  # validated as plain Name
            value = self.render(self.value(node.value))
            self.locals.add(target)  # after the value is lowered
            out.append(f"{indent}{self.local_prefix}{target} = {value}")
            return
        if isinstance(node, ast.If):
            out.append(f"{indent}if {self.render(self.value(node.test))}:")
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
        raise self._error(f"unsupported statement {type(node).__name__}")

    def _call_stmt(self, node: ast.Call, indent: str, out: List) -> None:
        name = node.func.id
        args = tuple(self.value(a) for a in node.args)
        if self.defer is not None and (name == "W" or name in _STORE_SIZES):
            self.defer.lower(self, name, args, indent, out)
        elif name == "W":
            if not self.fold:
                out.append(f"{indent}regwr.append(({self.render(args[0])}, "
                           f"({self.render(args[1])}) & {MASK32}))")
                return
            if args[0][0] != _C:
                raise self._error("computed register")
            # r0 is hard-wired to 0: a write to it is dropped.
            if args[0][1] != 0:
                self.writes.add(args[0][1])
                value = _fold_bin("&", args[1], _MASK)
                out.append(f"{indent}{reg_local(args[0][1])} = "
                           f"{self.render(value)}")
        elif name in _STORE_SIZES:
            size = _STORE_SIZES[name]
            addr, value = self.render(args[0]), self.render(args[1])
            if self.fold:
                self.stores.add(size)
                out.append(f"{indent}st{size}({addr}, {value})")
            else:
                out.append(f"{indent}memwr.append(({size}, {addr}, {value}))")
        elif name in ("BR", "JABS"):
            if not self.fold:
                arg = self.render(args[0])
                out.append(f"{indent}return next_ip + (({arg}) << 2)"
                           if name == "BR" else
                           f"{indent}return ({arg}) & {MASK32}")
                return
            if name == "BR":
                target = _fold_bin("+", (_C, self.subst["NIP"]),
                                   _fold_bin("<<", args[0], (_C, 2)))
            else:
                target = _fold_bin("&", args[0], _MASK)
            out.append(Exit(indent, self.render(target),
                            target[1] if target[0] == _C else None))
        elif name == "SWITCH":
            out.append(f"{indent}state.switch_isa({self.render(args[0])})")
        elif name == "SIM":
            out.append(f"{indent}return state.simop({self.render(args[0])})")
        elif name == "HALT":
            out.append(f"{indent}state.halted = True")
        else:
            # A value intrinsic used for its side effect — emit as-is.
            out.append(f"{indent}{self.render(self._call_value(node))}")


def _is_s32(node: tuple) -> bool:
    return node[0] == _L and node[1] == "s32" and len(node[2]) == 1


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

    def __init__(self) -> None:
        self.n = 0
        self.reg_commits: List[str] = []
        self.store_commits: List[str] = []

    def _temp(self) -> str:
        self.n += 1
        return f"_b{self.n}"

    def lower(self, emitter: "_Emitter", name: str, args: Tuple,
              indent: str, out: List) -> None:
        if indent != "    ":
            raise emitter._error("conditional write")
        if name == "W":
            if args[0][0] != _C:
                raise emitter._error("computed register")
            value = self._temp()
            out.append(f"{indent}{value} = "
                       f"{emitter.render(_fold_bin('&', args[1], _MASK))}")
            if args[0][1] != 0:
                emitter.writes.add(args[0][1])
                self.reg_commits.append(
                    f"{indent}{reg_local(args[0][1])} = {value}"
                )
            return
        size = _STORE_SIZES[name]
        addr, value = self._temp(), self._temp()
        out.append(f"{indent}{addr} = {emitter.render(args[0])}")
        out.append(f"{indent}{value} = {emitter.render(args[1])}")
        emitter.stores.add(size)
        self.store_commits.append(f"{indent}st{size}({addr}, {value})")


def sim_function_name(op: Operation) -> str:
    return f"sim_{op.name}"


#: Operation kinds that may be inlined with in-place writes.
#: Control-transfer, simop, switch and halt operations always run
#: buffered in bodies (they are superblock terminators anyway).
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


class Inlined(NamedTuple):
    """Inlined statements of one op instance (or bundle) as data.

    ``lines`` are source lines indented one level (plus :class:`Exit`
    entries for a terminator's transfers); ``reads``/``writes`` the
    constant register indices accessed (named by :func:`reg_local`);
    ``loads``/``stores`` the memory access sizes used (bound as
    ``ld<n>``/``st<n>``).  A terminator also reports its constant
    transfer ``targets`` and its ``fallthrough`` (the last line's
    transfer, to the next instruction).
    """

    lines: Tuple
    reads: frozenset
    writes: frozenset
    loads: frozenset
    stores: frozenset
    targets: Tuple[int, ...] = ()
    fallthrough: Optional[int] = None


_INLINE_CACHE: Dict[Tuple, Inlined] = {}
_USES_IP: Dict[Tuple[str, str], bool] = {}


def _inline_ops(
    ops: Tuple[Tuple[Operation, Tuple[int, ...]], ...],
    ip: int,
    next_ip: int,
    defer: bool,
) -> Inlined:
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
    key = (tuple(((op.name, op.behavior), values) for op, values in ops),
           defer)
    if memo:
        cached = _INLINE_CACHE.get(key)
        if cached is not None:
            return cached
    deferred = _DeferredWrites() if defer else None
    out: List[str] = []
    reads: set = set()
    writes: set = set()
    loads: set = set()
    stores: set = set()
    for op, values in ops:
        if defer and op.kind not in _DIRECT_KINDS:
            raise BehaviorError(
                f"operation {op.name!r}: {op.kind} op in a bundle body"
            )
        emitter = _Emitter(op, subst=_instance_subst(op, values, ip, next_ip),
                           defer=deferred)
        for stmt in _parse_cached(op).body:
            emitter.stmt(stmt, "    ", out)
        reads |= emitter.reads
        writes |= emitter.writes
        loads |= emitter.loads
        stores |= emitter.stores
    if deferred is not None:
        out.extend(deferred.reg_commits)
        out.extend(deferred.store_commits)
    result = Inlined(tuple(out), frozenset(reads), frozenset(writes),
                     frozenset(loads), frozenset(stores))
    if memo:
        _INLINE_CACHE[key] = result
    return result


def _instance_subst(op: Operation, values: Tuple[int, ...], ip: int,
                    next_ip: int) -> Dict[str, int]:
    subst = {f.name: values[index] for index, f in enumerate(op.value_fields)}
    subst["IP"] = ip
    subst["NIP"] = next_ip
    return subst


def inline_direct_stmts(
    op: Operation,
    values: Tuple[int, ...],
    ip: int,
    next_ip: int,
) -> Inlined:
    """Inline one op *instance* as in-place-write statements.

    The superblock translator calls this for every instruction of a
    straight-line body: decoded field values, the instruction address
    and its successor are substituted as integer literals, turning the
    whole block into one flat Python function with no per-instruction
    calls.  The caller must have checked :func:`direct_eligible`.

    Behaviour-local variables get a fixed ``_t_`` prefix: validation
    guarantees locals are assigned before read, so re-using the names
    across inlined instructions is safe.  Results are memoised per
    ``(op, values)`` — real programs repeat the same instruction
    encodings constantly — except for the rare behaviour that mentions
    ``IP``/``NIP``, whose literals differ per address.
    """
    return _inline_ops(((op, values),), ip, next_ip, False)


def inline_bundle_stmts(
    ops: Tuple[Tuple[Operation, Tuple[int, ...]], ...],
    ip: int,
    next_ip: int,
) -> Inlined:
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
    return _inline_ops(ops, ip, next_ip, True)


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
) -> Optional[Inlined]:
    """Inline a branch/jump terminator instance as direct statements.

    Every path through the emitted lines ends in an :class:`Exit` (a
    trailing fall-through to ``next_ip`` is appended), so a
    superblock's whole body *and* terminator collapse into one flat
    function.  The constant targets come back as data alongside the
    lines.  Returns None when the op is not a plain control transfer
    or when the per-instance read-after-write check fails.
    """
    if op.kind != "branch":
        return None
    tree = _parse_cached(op)
    subst = _instance_subst(op, values, ip, next_ip)
    if _control_inline_safe(tree.body, set(), subst) is None:
        return None
    emitter = _Emitter(op, subst=subst)
    out: List = []
    try:
        for stmt in tree.body:
            emitter.stmt(stmt, "    ", out)
    except BehaviorError:
        return None
    targets = tuple(line.target for line in out
                    if isinstance(line, Exit) and line.target is not None)
    out.append(Exit("    ", repr(next_ip), next_ip))
    return Inlined(
        tuple(out), frozenset(emitter.reads), frozenset(emitter.writes),
        frozenset(emitter.loads), frozenset(emitter.stores),
        targets, next_ip,
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
    for size in sorted(emitter.loads):
        prologue.append(f"    ld{size} = state.mem.load{size}")
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
