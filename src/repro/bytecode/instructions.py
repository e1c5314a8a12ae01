"""Instruction classes for the guest bytecode.

Two families:

* ordinary instructions, which appear in a basic block's body; and
* terminators (``Br``, ``Jmp``, ``Ret``), exactly one per block.

Instrumentation instructions (``PepInit``, ``PepAdd``, ``PathCount``,
``Yieldpoint``) are inserted only by compiler passes, never by guest
authors; the verifier enforces this for *sealed* user programs and the
instrumentation passes re-verify afterwards with instrumentation allowed.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

ARITH_KINDS = frozenset(
    {"add", "sub", "mul", "div", "mod", "and", "or", "xor", "shl", "shr", "min", "max"}
)
CMP_KINDS = frozenset({"lt", "le", "gt", "ge", "eq", "ne"})
BINOP_KINDS = ARITH_KINDS | CMP_KINDS

UNARY_KINDS = frozenset({"neg", "not"})

YIELDPOINT_KINDS = frozenset({"entry", "header", "exit"})

PATH_COUNT_MODES = frozenset({"hash", "array"})


class Instr:
    """Base class for ordinary (non-terminator) instructions."""

    __slots__ = ()

    op: str = "?"

    def clone(self) -> "Instr":
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.__dict__ if hasattr(self, '__dict__') else ''}>"


class Const(Instr):
    """dst <- value"""

    __slots__ = ("dst", "value")
    op = "const"

    def __init__(self, dst: int, value: int) -> None:
        self.dst = dst
        self.value = int(value)

    def clone(self) -> "Const":
        return Const(self.dst, self.value)


class Move(Instr):
    """dst <- src"""

    __slots__ = ("dst", "src")
    op = "move"

    def __init__(self, dst: int, src: int) -> None:
        self.dst = dst
        self.src = src

    def clone(self) -> "Move":
        return Move(self.dst, self.src)


class Unary(Instr):
    """dst <- kind(src); kind in {neg, not}."""

    __slots__ = ("kind", "dst", "src")
    op = "unary"

    def __init__(self, kind: str, dst: int, src: int) -> None:
        if kind not in UNARY_KINDS:
            raise ValueError(f"unknown unary kind {kind!r}")
        self.kind = kind
        self.dst = dst
        self.src = src

    def clone(self) -> "Unary":
        return Unary(self.kind, self.dst, self.src)


class BinOp(Instr):
    """dst <- a kind b, with comparison kinds producing 0/1."""

    __slots__ = ("kind", "dst", "a", "b")
    op = "binop"

    def __init__(self, kind: str, dst: int, a: int, b: int) -> None:
        if kind not in BINOP_KINDS:
            raise ValueError(f"unknown binop kind {kind!r}")
        self.kind = kind
        self.dst = dst
        self.a = a
        self.b = b

    def clone(self) -> "BinOp":
        return BinOp(self.kind, self.dst, self.a, self.b)


class BinOpImm(Instr):
    """dst <- a kind imm (immediate right operand)."""

    __slots__ = ("kind", "dst", "a", "imm")
    op = "binop_imm"

    def __init__(self, kind: str, dst: int, a: int, imm: int) -> None:
        if kind not in BINOP_KINDS:
            raise ValueError(f"unknown binop kind {kind!r}")
        self.kind = kind
        self.dst = dst
        self.a = a
        self.imm = int(imm)

    def clone(self) -> "BinOpImm":
        return BinOpImm(self.kind, self.dst, self.a, self.imm)


class NewArr(Instr):
    """dst <- new zero-filled array of length reg[size]."""

    __slots__ = ("dst", "size")
    op = "newarr"

    def __init__(self, dst: int, size: int) -> None:
        self.dst = dst
        self.size = size

    def clone(self) -> "NewArr":
        return NewArr(self.dst, self.size)


class ALoad(Instr):
    """dst <- arr[idx]"""

    __slots__ = ("dst", "arr", "idx")
    op = "aload"

    def __init__(self, dst: int, arr: int, idx: int) -> None:
        self.dst = dst
        self.arr = arr
        self.idx = idx

    def clone(self) -> "ALoad":
        return ALoad(self.dst, self.arr, self.idx)


class AStore(Instr):
    """arr[idx] <- src"""

    __slots__ = ("arr", "idx", "src")
    op = "astore"

    def __init__(self, arr: int, idx: int, src: int) -> None:
        self.arr = arr
        self.idx = idx
        self.src = src

    def clone(self) -> "AStore":
        return AStore(self.arr, self.idx, self.src)


class ALen(Instr):
    """dst <- len(arr)"""

    __slots__ = ("dst", "arr")
    op = "alen"

    def __init__(self, dst: int, arr: int) -> None:
        self.dst = dst
        self.arr = arr

    def clone(self) -> "ALen":
        return ALen(self.dst, self.arr)


class Call(Instr):
    """dst <- callee(args...); dst may be None for void calls."""

    __slots__ = ("dst", "callee", "args")
    op = "call"

    def __init__(self, dst: Optional[int], callee: str, args: Sequence[int]) -> None:
        self.dst = dst
        self.callee = callee
        self.args: Tuple[int, ...] = tuple(args)

    def clone(self) -> "Call":
        return Call(self.dst, self.callee, self.args)


class Emit(Instr):
    """Append reg[src] to the VM's observable output stream."""

    __slots__ = ("src",)
    op = "emit"

    def __init__(self, src: int) -> None:
        self.src = src

    def clone(self) -> "Emit":
        return Emit(self.src)


# --------------------------------------------------------------------------
# Instrumentation instructions (inserted by compiler passes only).
# --------------------------------------------------------------------------


class PepInit(Instr):
    """Path register r <- 0 (Ball-Larus step 1)."""

    __slots__ = ()
    op = "pep_init"

    def clone(self) -> "PepInit":
        return PepInit()


class PepAdd(Instr):
    """Path register r += value (Ball-Larus step 2)."""

    __slots__ = ("value",)
    op = "pep_add"

    def __init__(self, value: int) -> None:
        self.value = int(value)

    def clone(self) -> "PepAdd":
        return PepAdd(self.value)


class PathCount(Instr):
    """count[r]++ — the expensive Ball-Larus step 3.

    ``mode`` selects the paper's two cost regimes: ``"hash"`` (Jikes-style
    hash-table update, used by the perfect-profile instrumentation) and
    ``"array"`` (classic Ball-Larus array indexing, used by the BLPP
    baseline bench for section 2.2).
    """

    __slots__ = ("mode",)
    op = "path_count"

    def __init__(self, mode: str = "hash") -> None:
        if mode not in PATH_COUNT_MODES:
            raise ValueError(f"unknown path_count mode {mode!r}")
        self.mode = mode

    def clone(self) -> "PathCount":
        return PathCount(self.mode)


class Yieldpoint(Instr):
    """A VM thread-switch point; checks the global flag.

    ``kind`` records placement (method entry, loop header, method exit).
    ``sample_point`` marks yieldpoints where PEP samples the path register —
    exactly the locations where full Ball-Larus would execute count[r]++
    (loop headers and method exits, paper section 3.2/figure 3f).
    """

    __slots__ = ("kind", "sample_point")
    op = "yieldpoint"

    def __init__(self, kind: str, sample_point: bool = False) -> None:
        if kind not in YIELDPOINT_KINDS:
            raise ValueError(f"unknown yieldpoint kind {kind!r}")
        self.kind = kind
        self.sample_point = bool(sample_point)

    def clone(self) -> "Yieldpoint":
        return Yieldpoint(self.kind, self.sample_point)


# --------------------------------------------------------------------------
# Terminators.
# --------------------------------------------------------------------------


class Terminator:
    """Base class for block terminators."""

    __slots__ = ()

    op: str = "?"

    def targets(self) -> Tuple[str, ...]:
        """Labels of successor blocks (possibly empty for Ret)."""
        raise NotImplementedError

    def retarget(self, mapping: dict) -> None:
        """Rewrite target labels through ``mapping`` (identity if missing)."""
        raise NotImplementedError

    def clone(self) -> "Terminator":
        raise NotImplementedError


class Br(Terminator):
    """Conditional branch: if (a kind b) goto then_label else else_label.

    ``origin`` identifies the bytecode-level branch this IR branch profiles
    to; it is assigned at method seal time and preserved by optimizer
    clones.  ``layout`` is the compiler's fall-through choice ("then" or
    "else"): executing the non-fall-through arm pays a taken-branch penalty
    in the cost model, which is how edge-profile-guided code layout
    (sections 4.2/6.5) affects performance.
    """

    __slots__ = (
        "kind",
        "a",
        "b",
        "then_label",
        "else_label",
        "origin",
        "layout",
        "count_arms",
    )
    op = "br"

    def __init__(
        self,
        kind: str,
        a: int,
        b: int,
        then_label: str,
        else_label: str,
        origin: Optional["BranchRefLike"] = None,
        layout: str = "then",
        count_arms: bool = False,
    ) -> None:
        if kind not in CMP_KINDS:
            raise ValueError(f"unknown branch kind {kind!r}")
        if layout not in ("then", "else"):
            raise ValueError(f"layout must be 'then' or 'else', not {layout!r}")
        self.kind = kind
        self.a = a
        self.b = b
        self.then_label = then_label
        self.else_label = else_label
        self.origin = origin
        self.layout = layout
        # When true, the interpreter bumps this branch's taken/not-taken
        # counters on every execution — the baseline compiler's one-time
        # edge instrumentation (section 4.2), modelled as a branch
        # attribute rather than explicit counter instructions so the cost
        # model can charge exactly one counter update per execution.
        self.count_arms = count_arms

    def targets(self) -> Tuple[str, str]:
        return (self.then_label, self.else_label)

    def retarget(self, mapping: dict) -> None:
        self.then_label = mapping.get(self.then_label, self.then_label)
        self.else_label = mapping.get(self.else_label, self.else_label)

    def clone(self) -> "Br":
        return Br(
            self.kind,
            self.a,
            self.b,
            self.then_label,
            self.else_label,
            origin=self.origin,
            layout=self.layout,
            count_arms=self.count_arms,
        )


class Jmp(Terminator):
    """Unconditional jump."""

    __slots__ = ("label",)
    op = "jmp"

    def __init__(self, label: str) -> None:
        self.label = label

    def targets(self) -> Tuple[str]:
        return (self.label,)

    def retarget(self, mapping: dict) -> None:
        self.label = mapping.get(self.label, self.label)

    def clone(self) -> "Jmp":
        return Jmp(self.label)


class Ret(Terminator):
    """Return reg[src] (or 0 when src is None) to the caller."""

    __slots__ = ("src",)
    op = "ret"

    def __init__(self, src: Optional[int] = None) -> None:
        self.src = src

    def targets(self) -> Tuple[str, ...]:
        return ()

    def retarget(self, mapping: dict) -> None:
        return None

    def clone(self) -> "Ret":
        return Ret(self.src)


# Names used in type positions above; the real class lives in method.py and
# is intentionally duck-typed here to avoid a circular import.
BranchRefLike = object

INSTRUMENTATION_OPS = frozenset(
    {"pep_init", "pep_add", "path_count", "yieldpoint"}
)


def is_instrumentation(instr: Instr) -> bool:
    """True for instructions that only compiler passes may insert."""
    return instr.op in INSTRUMENTATION_OPS


def defined_register(instr: Instr) -> Optional[int]:
    """The register written by ``instr``, or None."""
    if instr.op in ("const", "move", "unary", "binop", "binop_imm", "newarr", "aload", "alen"):
        return instr.dst  # type: ignore[attr-defined]
    if instr.op == "call":
        return instr.dst  # type: ignore[attr-defined]
    return None


def used_registers(instr: Instr) -> List[int]:
    """Registers read by ``instr`` (duplicates preserved)."""
    op = instr.op
    if op == "move":
        return [instr.src]  # type: ignore[attr-defined]
    if op == "unary":
        return [instr.src]  # type: ignore[attr-defined]
    if op == "binop":
        return [instr.a, instr.b]  # type: ignore[attr-defined]
    if op == "binop_imm":
        return [instr.a]  # type: ignore[attr-defined]
    if op == "newarr":
        return [instr.size]  # type: ignore[attr-defined]
    if op == "aload":
        return [instr.arr, instr.idx]  # type: ignore[attr-defined]
    if op == "astore":
        return [instr.arr, instr.idx, instr.src]  # type: ignore[attr-defined]
    if op == "alen":
        return [instr.arr]  # type: ignore[attr-defined]
    if op == "call":
        return list(instr.args)  # type: ignore[attr-defined]
    if op == "emit":
        return [instr.src]  # type: ignore[attr-defined]
    return []
