"""OFMC template abstraction: Cell, Row, MAgg, Outer (paper Table 1, §3.2).

Each template answers four *local* questions about a HOP ``h`` and
optionally one of its inputs ``in``:

* ``open(h)``      — can a new fused operator of this template start at h?
* ``fuse(h, in)``  — can an open plan at input ``in`` expand to consumer h?
* ``merge(h, in)`` — can an open plan at h absorb plans at input ``in``?
* ``close(h)``     — OPEN / CLOSED_VALID / CLOSED_INVALID after h.

Template variants (no_agg/row_agg/col_agg/full_agg/…, Table 1) are
derived from the root hop at CPlan-construction time; exploration only
needs the validity conditions.
"""
from __future__ import annotations

from repro.core.hop import BINARY_OPS, UNARY_OPS, Hop, safe_in
from repro.core.memo import CLOSED_INVALID, CLOSED_VALID, OPEN

CELL_OPS = BINARY_OPS | UNARY_OPS
FULL_AGGS = {"ua(+)", "ua(max)", "ua(min)"}
ROW_AGGS = {"ua(R+)", "ua(Rmax)", "ua(Rmin)", "ua(Rimin)", "ua(Rimax)"}
COL_AGGS = {"ua(C+)"}
# aggregations the Cell template can perform itself (Table 1: Cell has
# no_agg, row_agg, col_agg, full_agg — but not index aggregates)
CELL_AGGS = {"ua(+)", "ua(R+)", "ua(C+)", "ua(max)", "ua(min)"}


# size thresholds; the block size mirrors SystemML's 1024 blocking
BLOCKSIZE = 1024         # B_c: distributed Row constraint ncol <= B_c
OUTER_RANK_MAX = 256     # Outer: common dim (rank) upper bound
OUTER_MIN_DIM = 8        # Outer: both output dims at least this
SPARSE_THRESHOLD = 0.4   # sparsity below which an input counts sparse
ROW_RHS_MAX = 1024       # Row: rhs of fused t(X) %*% Y must be narrow
# Row: a side matrix B read whole by X %*% B or Q %*% B must be skinny,
# as SystemML's LibMatrixMult.isSkinnyRightHandSide (ncol(B) < 64)
ROW_SKINNY_COLS = 64


def sparse_drivers(h: Hop) -> list[Hop]:
    """The sparse matrix inputs ``h`` exploits: those of a multiply or of
    a ``!= 0`` (an Outer operator's driver, the cost model's sparse
    scale)."""
    if h.op not in ("b(*)", "b(!=)"):
        return []
    return [i for i in h.inputs
            if i.is_matrix and i.sparsity <= SPARSE_THRESHOLD and safe_in(h, i)]


def _is_matrix_input(h: Hop) -> bool:
    return not h.is_scalar


class CellTpl:
    """Cell-wise template: binds cells X_ij with side inputs and scalars."""

    name = "C"

    @staticmethod
    def open(h: Hop) -> bool:
        return h.op in CELL_OPS and not h.is_scalar

    @staticmethod
    def fuse(h: Hop, inp: Hop) -> bool:
        if h.op in CELL_OPS and not h.is_scalar:
            return True
        return h.op in CELL_AGGS

    @staticmethod
    def merge(h: Hop, inp: Hop) -> bool:
        # Cell merges Cell plans at matrix inputs of cell-wise consumers
        return (h.op in CELL_OPS or h.op in CELL_AGGS) and _is_matrix_input(inp)

    @staticmethod
    def close(h: Hop) -> int:
        if h.op in CELL_AGGS:
            return CLOSED_VALID
        if h.op.startswith("ua("):  # index aggregates etc. unsupported in Cell
            return CLOSED_INVALID
        return OPEN


class MAggTpl:
    """Multi-aggregate template: full aggregates over (shared) inputs.

    Entries open *and* close at the aggregate hop; combining several
    aggregate roots that share inputs into one fused operator is a
    selection-time decision (paper §2.2 'multiple aggregates with shared
    inputs')."""

    name = "M"

    @staticmethod
    def open(h: Hop) -> bool:
        return h.op in FULL_AGGS

    @staticmethod
    def fuse(h: Hop, inp: Hop) -> bool:
        return False  # MAgg never extends past its aggregate

    @staticmethod
    def merge(h: Hop, inp: Hop) -> bool:
        # absorb cell-wise chains below the aggregate
        return inp.op in CELL_OPS or inp.op == "leaf"

    @staticmethod
    def close(h: Hop) -> int:
        return CLOSED_VALID if h.op in FULL_AGGS else CLOSED_INVALID


class RowTpl:
    """Row-wise template: binds rows X_i with side inputs and scalars."""

    name = "R"

    @staticmethod
    def _narrow(h: Hop) -> bool:
        return h.ncols <= ROW_RHS_MAX

    @staticmethod
    def _skinny(h: Hop) -> bool:
        return h.ncols < ROW_SKINNY_COLS

    @staticmethod
    def open(h: Hop) -> bool:
        if h.op == "ba(+*)":
            lhs, rhs = h.inputs
            # X %*% B with skinny side B: row template over X's rows
            if not lhs.is_scalar and lhs.nrows > 1 and RowTpl._skinny(rhs):
                return True
            # t(X) %*% Y: row template over X's rows (col_agg_B1_T)
            if lhs.op == "t" and RowTpl._narrow(rhs):
                return True
            return False
        if h.op in ROW_AGGS and h.inputs[0].nrows > 1:
            return True
        if h.op == "rix":
            return True
        # t(X): a Row plan over X's rows that folds the transpose into the
        # fused operator's access pattern (Figure 5's group 10)
        if h.op == "t" and h.inputs[0].is_matrix:
            return True
        return False

    @staticmethod
    def fuse(h: Hop, inp: Hop) -> bool:
        if h.op in CELL_OPS and not h.is_scalar:
            return True
        if h.op in ROW_AGGS or h.op in COL_AGGS or h.op in FULL_AGGS:
            return True
        if h.op == "rix":
            return True
        if h.op == "ba(+*)":
            lhs, rhs = h.inputs
            # fused row intermediate (at lhs) times skinny side input
            if inp is lhs and RowTpl._skinny(rhs):
                return True
            # t(X) %*% Q with the fused plan at Q (rhs): single pass over X
            if inp is rhs and lhs.op == "t" and RowTpl._narrow(rhs):
                return True
        return False

    @staticmethod
    def merge(h: Hop, inp: Hop) -> bool:
        # Row absorbs Cell and Row plans at its matrix inputs
        return _is_matrix_input(inp)

    @staticmethod
    def close(h: Hop) -> int:
        if h.op in COL_AGGS or h.op in FULL_AGGS:
            return CLOSED_VALID
        if h.op == "ba(+*)" and h.inputs[0].op == "t":
            return CLOSED_VALID  # t(X) %*% Q produces a column aggregate
        return OPEN


class OuterTpl:
    """Outer-product template: binds non-zero cells of the sparse driver X
    plus factor rows U_i, V_j (paper Fig. 3(a)); sparsity-exploiting."""

    name = "O"

    @staticmethod
    def open(h: Hop) -> bool:
        if h.op != "ba(+*)":
            return False
        lhs, rhs = h.inputs
        k = lhs.ncols
        return (
            k <= OUTER_RANK_MAX
            and h.nrows >= OUTER_MIN_DIM
            and h.ncols >= OUTER_MIN_DIM
            and k < min(h.nrows, h.ncols)
        )

    # cell ops always admissible inside Outer (sparse-safe or pre-driver)
    _SAFE_CELL = {"b(*)", "b(/)", "b(^)", "b(!=)", "u(sqrt)", "u(abs)",
                  "u(sign)", "u(-)", "u(exp)", "u(log)", "u(sigmoid)"}

    @staticmethod
    def _cell_ok(h: Hop, inp: Hop) -> bool:
        if h.op in OuterTpl._SAFE_CELL:
            return True
        if h.op in ("b(+)", "b(-)", "b(min)", "b(max)"):
            # non-sparse-safe binaries: the non-fused operand must be a
            # scalar (pre-driver pattern, e.g. UVᵀ + eps) or the sparse
            # driver itself (e.g. W − X in the ALS loss); a dense-matrix
            # operand would make the skeleton's nnz-iteration wrong —
            # this is exactly the paper's 'Y + X ⊙ UVᵀ' switch case.
            other = [i for i in h.inputs if i is not inp]
            return all(
                o.is_scalar or (o.is_matrix and o.sparsity <= SPARSE_THRESHOLD)
                for o in other
            )
        return False

    @staticmethod
    def fuse(h: Hop, inp: Hop) -> bool:
        if h.op in CELL_OPS and not h.is_scalar:
            return OuterTpl._cell_ok(h, inp)
        if h.op == "ua(+)":  # max/min over the non-zeros miss the zeros
            return True
        if h.op == "ba(+*)":
            lhs, rhs = h.inputs
            # right_mm: (fused outer intermediate) %*% V with narrow V
            if inp is lhs and rhs.ncols <= OUTER_RANK_MAX:
                return True
        return False

    @staticmethod
    def merge(h: Hop, inp: Hop) -> bool:
        return _is_matrix_input(inp) and (
            h.op not in CELL_OPS or OuterTpl._cell_ok(h, inp)
        )

    @staticmethod
    def close(h: Hop) -> int:
        if h.op in FULL_AGGS:
            return CLOSED_VALID
        if h.op == "ba(+*)" and h.inputs[0].op != "t":
            # the Outer opening mm itself stays open; a *second* mm over an
            # outer plan is the right_mm closing operation
            return OPEN if OuterTpl.open(h) else CLOSED_VALID
        return OPEN


TEMPLATES = {"C": CellTpl, "R": RowTpl, "M": MAggTpl, "O": OuterTpl}

# which template types an open plan of type T can absorb via merge
MERGE_COMPATIBLE = {"C": {"C"}, "R": {"C", "R"}, "M": {"C"}, "O": {"C", "O"}}
