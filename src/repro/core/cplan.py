"""Code-generation plans (CPlans): backend-independent fused-operator
descriptions constructed from selected plans (paper §2.2).

A CPlan fixes the template type and variant (Table 1), the data binding
(main input, side inputs, scalars), and the DAG of basic operations
(covered hops in topological order) from which ``codegen`` renders the
``genexec`` source.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.hop import Hop, sparse_safe_chain, zero_where
from repro.core.templates import OUTER_RANK_MAX, ROW_AGGS, SPARSE_THRESHOLD, sparse_drivers

if TYPE_CHECKING:
    from repro.core.cost import OpSpec

FULL_AGG_FN = {"ua(+)": "sum", "ua(max)": "max", "ua(min)": "min"}


@dataclass
class CPlan:
    template: str                 # 'C' | 'R' | 'M' | 'O'
    variant: str                  # no_agg/row_agg/col_agg/full_agg/col_agg_t/right_mm
    root: Hop
    order: list[Hop]              # covered hops, topological (inputs first)
    main_hid: int                 # -1 when no main binding applies
    side_hids: list[int]          # remaining inputs, stable order
    input_hops: dict[int, Hop]
    sparse_safe: bool
    magg_roots: list[Hop] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    @property
    def n_outputs(self) -> int:
        return 1 + len(self.magg_roots)

    @property
    def agg_fns(self) -> list[str]:
        """Per output, the 'sum'/'max'/'min' its partials combine by."""
        return [FULL_AGG_FN.get(r.op, "sum") for r in (self.root, *self.magg_roots)]

    @property
    def sparse_scale(self) -> float:
        """The compute share the skeleton runs: the main input's sparsity
        when it iterates that sparse input's non-zeros only, else 1."""
        main = self.input_hops.get(self.main_hid)
        sparse = main is not None and main.is_matrix and main.sparsity <= SPARSE_THRESHOLD
        return main.sparsity if self.sparse_safe and sparse else 1.0


def _topo_covered(spec: OpSpec) -> list[Hop]:
    """Topological order over covered hops (inputs before consumers)."""
    order: list[Hop] = []
    seen: set[int] = set()
    for r in [spec.root] + spec.magg_roots:
        _visit(r, spec.covered, seen, order)
    return order


def _visit(h: Hop, covered: dict[int, Hop], seen: set[int], order: list[Hop]) -> None:
    # module level: a nested recursive function is a reference cycle,
    # left to the garbage collector after every build
    if h.hid in seen or h.hid not in covered:
        return
    seen.add(h.hid)
    for i in h.inputs:
        _visit(i, covered, seen, order)
    order.append(h)


def _opening_outer_mm(spec: OpSpec) -> Hop | None:
    for h in spec.covered.values():
        if h.op != "ba(+*)":
            continue
        lhs, rhs = h.inputs
        if (
            lhs.hid not in spec.covered
            and rhs.hid not in spec.covered
            and lhs.ncols <= OUTER_RANK_MAX
        ):
            return h
    return None


def build_cplan(spec: OpSpec) -> CPlan | None:
    """Construct the CPlan (template variant + bindings + op order) for a
    fused-operator candidate, or None when no skeleton can run it as one
    operator. Selection costs and keeps only candidates that build."""
    assert spec.template is not None
    order = _topo_covered(spec)
    root = spec.root
    t = spec.template

    variant = "no_agg"
    main_hid = -1
    meta: dict = {}
    sparse_safe = t == "O"

    if t in ("C", "M"):
        if root.op in FULL_AGG_FN:
            variant = "full_agg"
        elif root.op == "ua(R+)":
            variant = "row_agg"
        elif root.op == "ua(C+)":
            variant = "col_agg"
        # main: sparse driver if present, else largest matrix input; the
        # skeleton may skip its zeros only if every root's cells are 0 there
        # and every aggregate is a sum (``sparse_safe_chain``)
        mats = [h for h in spec.input_hops.values() if h.is_matrix or h.is_vector]
        cells = {(r.inputs[0] if r.op.startswith("ua(") else r).hid
                 for r in [root, *spec.magg_roots]}
        safe_chain = sparse_safe_chain(spec.covered.values())
        feeds = [h for h in mats if safe_chain and cells <= zero_where(order, h)]
        sparse = [h for h in feeds if h.sparsity <= SPARSE_THRESHOLD and h.is_matrix]
        if sparse:
            main_hid = min(sparse, key=lambda h: h.sparsity).hid
        elif mats:
            main_hid = max(mats, key=lambda h: h.memory_bytes()).hid
        sparse_safe = (
            main_hid in {h.hid for h in feeds}
            and variant in ("full_agg", "no_agg", "row_agg")
        )

    elif t == "R":
        tx_child = None
        if root.op == "ba(+*)" and root.inputs[0].hid in spec.covered and root.inputs[0].op == "t":
            variant = "col_agg_t"
            tx_child = root.inputs[0].inputs[0]
        elif root.op == "ua(C+)":
            variant = "col_agg"
        elif root.op in FULL_AGG_FN:
            variant = "full_agg"
        elif root.op in ROW_AGGS:
            variant = "row_agg"
        elif root.op == "t":
            meta["root_is_t"] = True  # chain computed row-wise, transposed at the end
        # the row dimension N the template binds to
        if tx_child is not None:
            n = tx_child.nrows
        else:
            cand = [
                h
                for h in spec.covered.values()
                if not h.op.startswith("ua(") and h.op != "t"
            ]
            n = max((h.nrows for h in cand), default=root.nrows)
        # semantic side classification: an input consumed exclusively as a
        # matmult right-hand side is a *whole* side (SystemML's B1 sides),
        # even if its row count coincides with the template's row
        # dimension (square-matrix aliasing); only cell-wise-consumed
        # inputs are row-aligned.
        whole: set[int] = set()
        cons: dict[int, list[Hop]] = {}  # hid -> its covered consumers
        for c in spec.covered.values():
            for hid_in in {i.hid for i in c.inputs}:
                cons.setdefault(hid_in, []).append(c)

        def _is_whole_rhs(c: Hop, hid_in: int) -> bool:
            # mm rhs is a whole (B1) side — EXCEPT in the tmm_acc pattern
            # t(A) %*% B over a row-aligned A, where B is row-sliced too
            if c.op != "ba(+*)" or c.inputs[1].hid != hid_in:
                return False
            lhs = c.inputs[0]
            tmm = (
                lhs.op == "t"
                and lhs.hid in spec.covered
                and lhs.inputs[0].nrows == n
            )
            return not tmm

        for hid_in, hop_in in spec.input_hops.items():
            reads = cons.get(hid_in, [])
            whole_rhs = [c for c in reads if _is_whole_rhs(c, hid_in)]
            if (whole_rhs and len(whole_rhs) == len(reads)) or hop_in.nrows != n:
                whole.add(hid_in)
            elif whole_rhs:
                return None  # consumed both row-aligned and as mm rhs
        aligned = [
            h
            for h in spec.input_hops.values()
            if h.nrows == n and not h.is_scalar and h.hid not in whole
        ]
        if aligned:
            main_hid = max(aligned, key=lambda h: h.memory_bytes()).hid
        meta["row_n"] = n
        meta["whole_sides"] = whole - {main_hid}
        # correctness gate: a covered transpose of a row-aligned chain is
        # only executable as the tmm_acc pattern (blockwise transpose of
        # an aligned operand is not block-decomposable otherwise)
        for h in spec.covered.values():
            if h.op != "t" or h is root or h.inputs[0].nrows != n or n <= 1:
                continue
            reads = cons.get(h.hid, [])
            if not reads or any(c.op != "ba(+*)" or c.inputs[0] is not h for c in reads):
                return None

    elif t == "O":
        mm = _opening_outer_mm(spec)
        if mm is None:
            return None
        meta["outer_mm_hid"] = mm.hid
        meta["u_hid"] = mm.inputs[0].hid
        meta["vt_hid"] = mm.inputs[1].hid  # holds Vᵀ (r×m); runtime transposes
        # sparse driver = sparsest matrix input of covered multiply ops
        drivers = [i for h in spec.covered.values() for i in sparse_drivers(h)
                   if i.hid in spec.input_hops]
        if not drivers:
            return None
        main_hid = min(drivers, key=lambda h: h.sparsity).hid
        # correctness gate: the skeleton skips the driver's zeros, so the
        # cells it sums, multiplies by V or returns must be 0 at them
        cell = root.inputs[0] if root.op in ("ba(+*)", "ua(+)") else root
        if cell.hid not in zero_where(order, spec.input_hops[main_hid]):
            return None
        if root.op == "ba(+*)":
            variant = "right_mm"
            meta["right_hid"] = root.inputs[1].hid
        elif root.op in FULL_AGG_FN:
            variant = "full_agg"

    side_hids = [h for h in spec.input_hids if h != main_hid]
    return CPlan(
        template=t,
        variant=variant,
        root=root,
        order=order,
        main_hid=main_hid,
        side_hids=side_hids,
        input_hops=dict(spec.input_hops),
        sparse_safe=sparse_safe,
        magg_roots=list(spec.magg_roots),
        meta=meta,
    )
