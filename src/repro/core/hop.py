"""HOP DAGs: high-level linear-algebra operators with size/sparsity metadata.

Mirrors SystemML's HOP layer (paper §2.1): each node carries operator
type, inputs (data dependencies), and inferred shape + sparsity, from
which memory estimates are computed. The codegen optimizer (explore /
select / codegen) consumes these DAGs; the executors interpret them.

An :class:`Expr` EDSL (operator overloading) is provided so the six ML
algorithms read like the paper's scripts::

    O = ((X != 0) * (U @ V.T)) @ V + 1e-6 * U * r     # ALS-CG update, Eq. (1)

Reusing an ``Expr`` naturally creates multiple consumers (CSEs) in the
DAG, which is exactly what materialization-point reasoning is about.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.lina.dense import size_bytes

# ---------------------------------------------------------------- operator sets
BINARY_OPS = {
    "b(+)", "b(-)", "b(*)", "b(/)", "b(^)", "b(min)", "b(max)",
    "b(!=)", "b(==)", "b(>)", "b(<)", "b(>=)", "b(<=)",
}
UNARY_OPS = {"u(exp)", "u(log)", "u(sqrt)", "u(abs)", "u(sign)", "u(sigmoid)", "u(-)"}
AGG_OPS = {
    "ua(+)",      # sum(X)        -> 1x1
    "ua(R+)",     # rowSums(X)    -> n x 1
    "ua(C+)",     # colSums(X)    -> 1 x m
    "ua(max)", "ua(min)",          # full max/min
    "ua(Rmax)", "ua(Rmin)",        # row-wise max/min
    "ua(Rimin)", "ua(Rimax)",      # row-wise arg-min/max (1-based, as in R/DML)
}
# ops where f(0) == 0, i.e. safe to evaluate only on non-zeros of the input
SPARSE_SAFE_UNARY = {"u(sqrt)", "u(abs)", "u(sign)", "u(-)"}
_ZERO_OF_ZEROS = {"b(+)", "b(-)", "b(min)", "b(max)"}  # f(0, 0) == 0, not sparse-safe

_ids = itertools.count(1)


# ------------------------------------------------------------ sparse-safety
def sparse_safe(op: str, other: float | None = None, zero_left: bool = True) -> bool:
    """Does ``op`` map a zero operand to zero, given the other operand's
    literal value ``other`` (None if it is not a literal) and whether the
    zero is the left operand? The one rule behind every sparse path."""
    if op in SPARSE_SAFE_UNARY or op == "b(*)":
        return True
    if op == "b(!=)":
        return other == 0.0
    if other is None or not zero_left:
        return False
    if op == "b(^)":  # 0^s == 0 only for s > 0
        return other > 0.0
    return op == "b(/)" and abs(other) > 0.0  # 0/d == 0 for d non-zero, not NaN


def safe_in(h: Hop, operand: Hop) -> bool:
    """Is ``h`` sparse-safe in its input ``operand``?"""
    if len(h.inputs) != 2:
        return sparse_safe(h.op)
    a, b = h.inputs
    other = b if operand is a else a
    return sparse_safe(h.op, other.value if other.op == "lit" else None, operand is a)


def sparse_safe_chain(hops) -> bool:
    """May a fused operator covering ``hops`` iterate a sparse input's
    non-zeros only? Yes if every aggregate is a sum and every other hop is
    sparse-safe in a non-literal operand (then in all of them, as ``*``
    is the only op safe without a literal)."""
    return all(
        h.op == "ua(+)" if h.op.startswith("ua(") else
        any(safe_in(h, i) for i in h.inputs if i.op != "lit")
        for h in hops
    )


def zero_where(hops, src: Hop) -> set[int]:
    """The hids of the cell-wise ``hops`` (inputs first) that are 0 wherever
    ``src`` is: sparse-safe in such an operand, or +, -, min, max of two."""
    zero = {src.hid}
    for h in hops:
        z = [i for i in h.inputs if i.hid in zero]
        if any(safe_in(h, i) for i in z) or len(z) == 2 and h.op in _ZERO_OF_ZEROS:
            zero.add(h.hid)
    return zero


@dataclass(eq=False)
class Hop:
    """One high-level operator. Identity (not value) equality — the DAG is
    a graph and shared nodes are CSEs."""

    op: str
    inputs: list["Hop"] = field(default_factory=list)
    nrows: int = 1
    ncols: int = 1
    sparsity: float = 1.0
    name: str | None = None      # leaf binding name
    value: float | None = None   # literal value
    meta: dict = field(default_factory=dict)  # e.g. rix bounds
    hid: int = field(default_factory=lambda: next(_ids))

    # -------------------------------------------------------------- helpers
    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    @property
    def is_matrix(self) -> bool:
        return self.nrows > 1 and self.ncols > 1

    @property
    def is_vector(self) -> bool:
        return (self.nrows == 1) != (self.ncols == 1)

    @property
    def is_scalar(self) -> bool:
        return self.nrows == 1 and self.ncols == 1

    def memory_bytes(self) -> float:
        return size_bytes(self.nrows, self.ncols, self.sparsity)

    def __repr__(self) -> str:  # compact, for memo-table debugging
        ins = ",".join(str(i.hid) for i in self.inputs)
        return f"H{self.hid}:{self.op}({ins}){self.nrows}x{self.ncols}"


# ------------------------------------------------------------- constructors
def leaf(name: str, nrows: int, ncols: int, sparsity: float = 1.0) -> Hop:
    return Hop("leaf", [], nrows, ncols, sparsity, name=name)


def lit(v: float) -> Hop:
    return Hop("lit", [], 1, 1, 1.0, value=float(v))


def _broadcast_shape(a: Hop, b: Hop) -> tuple[int, int]:
    return (max(a.nrows, b.nrows), max(a.ncols, b.ncols))


def binop(op: str, a: Hop, b: Hop) -> Hop:
    assert op in BINARY_OPS, op
    h = Hop(op, [a, b], *_broadcast_shape(a, b))
    if op == "b(*)" and a.is_matrix and b.is_matrix and a.shape == b.shape:
        h.sparsity = min(1.0, a.sparsity * b.sparsity)
    elif op in ("b(+)", "b(-)"):
        h.sparsity = min(1.0, a.sparsity + b.sparsity)
    else:  # zero wherever an operand it is sparse-safe in is zero
        h.sparsity = min((i.sparsity for i in h.inputs if safe_in(h, i)), default=1.0)
    return h


def unop(op: str, a: Hop) -> Hop:
    assert op in UNARY_OPS, op
    sp = a.sparsity if sparse_safe(op) else 1.0
    return Hop(op, [a], a.nrows, a.ncols, sp)


def agg(op: str, a: Hop) -> Hop:
    assert op in AGG_OPS, op
    if op in ("ua(+)", "ua(max)", "ua(min)"):
        nr, nc = 1, 1
    elif op.startswith("ua(R"):
        nr, nc = a.nrows, 1
    else:  # ua(C+)
        nr, nc = 1, a.ncols
    return Hop(op, [a], nr, nc, 1.0)


def matmult(a: Hop, b: Hop) -> Hop:
    assert a.ncols == b.nrows, f"shape mismatch {a.shape} @ {b.shape}"
    # SystemML-style mm output sparsity estimate assuming independence
    spq = a.sparsity * b.sparsity
    sp = 1.0 - (1.0 - spq) ** a.ncols if spq < 1.0 else 1.0
    return Hop("ba(+*)", [a, b], a.nrows, b.ncols, min(1.0, sp))


def transpose(a: Hop) -> Hop:
    return Hop("t", [a], a.ncols, a.nrows, a.sparsity)


def rix(a: Hop, c1: int, c2: int) -> Hop:
    """Right (column-range) indexing A[, c1:c2], 0-based half-open."""
    return Hop("rix", [a], a.nrows, c2 - c1, a.sparsity, meta={"c1": c1, "c2": c2})


# ------------------------------------------------------------------- EDSL
def _coerce(x) -> Hop:
    if isinstance(x, Expr):
        return x.hop
    if isinstance(x, Hop):
        return x
    return lit(x)


class Expr:
    """Thin operator-overloading wrapper over :class:`Hop`."""

    __array_priority__ = 100  # keep numpy from hijacking mixed expressions

    def __init__(self, hop: Hop):
        self.hop = hop

    # arithmetic
    def __add__(self, o): return Expr(binop("b(+)", self.hop, _coerce(o)))
    def __radd__(self, o): return Expr(binop("b(+)", _coerce(o), self.hop))
    def __sub__(self, o): return Expr(binop("b(-)", self.hop, _coerce(o)))
    def __rsub__(self, o): return Expr(binop("b(-)", _coerce(o), self.hop))
    def __mul__(self, o): return Expr(binop("b(*)", self.hop, _coerce(o)))
    def __rmul__(self, o): return Expr(binop("b(*)", _coerce(o), self.hop))
    def __truediv__(self, o): return Expr(binop("b(/)", self.hop, _coerce(o)))
    def __rtruediv__(self, o): return Expr(binop("b(/)", _coerce(o), self.hop))
    def __pow__(self, o): return Expr(binop("b(^)", self.hop, _coerce(o)))
    def __matmul__(self, o): return Expr(matmult(self.hop, _coerce(o)))
    def __neg__(self): return Expr(unop("u(-)", self.hop))
    # comparisons (matrix predicates, not python bools)
    def __ne__(self, o): return Expr(binop("b(!=)", self.hop, _coerce(o)))  # type: ignore[override]
    def __eq__(self, o): return Expr(binop("b(==)", self.hop, _coerce(o)))  # type: ignore[override]
    def __gt__(self, o): return Expr(binop("b(>)", self.hop, _coerce(o)))
    def __lt__(self, o): return Expr(binop("b(<)", self.hop, _coerce(o)))
    def __ge__(self, o): return Expr(binop("b(>=)", self.hop, _coerce(o)))
    def __le__(self, o): return Expr(binop("b(<=)", self.hop, _coerce(o)))
    __hash__ = object.__hash__

    @property
    def T(self) -> "Expr":
        return Expr(transpose(self.hop))

    def cols(self, c1: int, c2: int) -> "Expr":
        return Expr(rix(self.hop, c1, c2))

    @property
    def shape(self) -> tuple[int, int]:
        return self.hop.shape


# function-style builders on Expr
def var(name: str, nrows: int, ncols: int, sparsity: float = 1.0) -> Expr:
    return Expr(leaf(name, nrows, ncols, sparsity))

def exp(x) -> Expr: return Expr(unop("u(exp)", _coerce(x)))
def log(x) -> Expr: return Expr(unop("u(log)", _coerce(x)))
def sqrt(x) -> Expr: return Expr(unop("u(sqrt)", _coerce(x)))
def abs_(x) -> Expr: return Expr(unop("u(abs)", _coerce(x)))
def sign(x) -> Expr: return Expr(unop("u(sign)", _coerce(x)))
def sigmoid(x) -> Expr: return Expr(unop("u(sigmoid)", _coerce(x)))
def sum_(x) -> Expr: return Expr(agg("ua(+)", _coerce(x)))
def row_sums(x) -> Expr: return Expr(agg("ua(R+)", _coerce(x)))
def col_sums(x) -> Expr: return Expr(agg("ua(C+)", _coerce(x)))
def row_maxs(x) -> Expr: return Expr(agg("ua(Rmax)", _coerce(x)))
def row_mins(x) -> Expr: return Expr(agg("ua(Rmin)", _coerce(x)))
def row_imins(x) -> Expr: return Expr(agg("ua(Rimin)", _coerce(x)))
def max_(x) -> Expr: return Expr(agg("ua(max)", _coerce(x)))
def min_(x) -> Expr: return Expr(agg("ua(min)", _coerce(x)))
def minimum(a, b) -> Expr: return Expr(binop("b(min)", _coerce(a), _coerce(b)))
def maximum(a, b) -> Expr: return Expr(binop("b(max)", _coerce(a), _coerce(b)))


# --------------------------------------------------------------- DAG walks
def postorder(roots: list[Hop]) -> list[Hop]:
    """Deterministic post-order over the DAG (each node once)."""
    seen: set[int] = set()
    out: list[Hop] = []

    def visit(h: Hop) -> None:
        if h.hid in seen:
            return
        seen.add(h.hid)
        for i in h.inputs:
            visit(i)
        out.append(h)

    for r in roots:
        visit(r)
    return out


def consumers(roots: list[Hop]) -> dict[int, list[Hop]]:
    """hid -> list of consumer hops within the DAG spanned by ``roots``."""
    cons: dict[int, list[Hop]] = {}
    for h in postorder(roots):
        for i in h.inputs:
            cons.setdefault(i.hid, []).append(h)
    return cons
