"""Candidate exploration (OFMC, Algorithm 1) against the paper's examples.

The key fixture is Expression (2) (MLogreg inner loop), whose memo table
after exploration + pruning is spelled out in Figure 5; we assert the
same structural properties without depending on hop-id numbering.
"""
import numpy as np
import pytest

from repro.core import hop as H
from repro.core.explore import explore
from repro.core.memo import CLOSED_VALID


def mlogreg_expr(n=1000, m=100, k=4):
    """Expression (2): Q = P[,1:k] ⊙ (Xv); H = Xᵀ(Q − P[,1:k] ⊙ rowSums(Q))."""
    X = H.var("X", n, m)
    v = H.var("v", m, k)
    P = H.var("P", n, k + 1)
    Pk = P.cols(0, k)
    Q = Pk * (X @ v)
    Hh = X.T @ (Q - Pk * H.row_sums(Q))
    return Hh, {"X": X, "v": v, "P": P, "Q": Q, "Pk": Pk}


def als_expr(n=1000, m=1000, r=20):
    """Expression (1): O = ((X ≠ 0) ⊙ (U Vᵀ)) V + 1e-6 ⊙ U ⊙ r."""
    X = H.var("X", n, m, sparsity=0.01)
    U = H.var("U", n, r)
    V = H.var("V", m, r)
    rr = H.var("r", n, 1)
    O = ((X != 0) * (U @ V.T)) @ V + 1e-6 * U * rr
    return O, {"X": X, "U": U, "V": V, "r": rr}


def _group_of(memo, hop):
    return memo.entries(hop.hop.hid if hasattr(hop, "hop") else hop.hid)


def _find(memo, op):
    return [h for h in memo.hops.values() if h.op == op]


# --------------------------------------------------------- Figure 5 structure
class TestMLogregMemo:
    def setup_method(self):
        self.root, self.named = mlogreg_expr()
        self.memo = explore([self.root.hop])

    def test_all_nonleaf_ops_have_groups(self):
        # Figure 5: "All eight operators are represented by groups"
        nonleaf = [
            h for h in H.postorder([self.root.hop]) if h.op not in ("leaf", "lit")
        ]
        assert len(nonleaf) == 8
        for h in nonleaf:
            assert self.memo.contains(h.hid), f"no group for {h}"

    def test_final_matmult_has_three_row_entries(self):
        # group 11 in Figure 5: R(-1,9), R(10,-1), R(10,9)
        entries = _group_of(self.memo, self.root)
        rows = [e for e in entries if e.type == "R"]
        assert len(rows) == 3
        tx = self.root.hop.inputs[0]  # t(X)
        rhs = self.root.hop.inputs[1]  # b(-)
        refsets = {e.refs for e in rows}
        assert (tx.hid, -1) in refsets
        assert (-1, rhs.hid) in refsets
        assert (tx.hid, rhs.hid) in refsets

    def test_final_matmult_entries_closed_valid(self):
        for e in _group_of(self.memo, self.root):
            assert e.closed == CLOSED_VALID

    def test_rowsums_group_has_no_single_op_cell_plan(self):
        # "group 7 ua(R+) does not contain C(-1) because rowSums closes the
        # Cell template, which would cover only a single operator"
        (rs,) = _find(self.memo, "ua(R+)")
        entries = self.memo.entries(rs.hid)
        assert not any(e.type == "C" and e.n_refs == 0 for e in entries)
        # but it does hold Row plans (open) incl. the fused one over Q
        assert any(e.type == "R" and e.n_refs == 1 for e in entries)

    def test_transpose_has_open_row_plan(self):
        (tx,) = _find(self.memo, "t")
        entries = self.memo.entries(tx.hid)
        assert any(e.type == "R" and e.closed != CLOSED_VALID for e in entries)

    def test_q_multiply_has_cell_and_row_plans(self):
        q = self.named["Q"].hop
        types = self.memo.distinct_types(q.hid)
        assert "C" in types and "R" in types

    def test_no_outer_entries_in_row_expression(self):
        for hid in self.memo.groups:
            assert not self.memo.contains_type(hid, "O")


class TestDominatedPruning:
    def test_dominated_plan_pruned_only_in_heuristic_mode(self):
        # R(10,9) dominates R(10,-1) when group 9 is single-consumer
        root, named = mlogreg_expr()
        plain = explore([root.hop])
        pruned = explore([root.hop], prune_dominated=True)
        tx = root.hop.inputs[0]
        rhs = root.hop.inputs[1]
        plain_refs = {e.refs for e in plain.entries(root.hop.hid)}
        pruned_refs = {e.refs for e in pruned.entries(root.hop.hid)}
        assert (tx.hid, -1) in plain_refs and (-1, rhs.hid) in plain_refs
        # rhs (b(-)) is single-consumer, so R(10,-1)/R(-1,9) are dominated
        assert (tx.hid, rhs.hid) in pruned_refs
        assert (tx.hid, -1) not in pruned_refs
        assert (-1, rhs.hid) not in pruned_refs

    def test_multi_consumer_reference_not_dominated(self):
        # R(6,8) is not dominated by R(6,-1)-style plans when the referenced
        # group has multiple consumers (paper's R(-1,8) example): Q here.
        root, named = mlogreg_expr()
        pruned = explore([root.hop], prune_dominated=True)
        q = named["Q"].hop
        # Q has two consumers; entries referencing only Q must survive
        refs_to_q = [
            e
            for hid in pruned.groups
            for e in pruned.entries(hid)
            if e.has_ref(q.hid)
        ]
        assert refs_to_q


# ----------------------------------------------------------- ALS (Outer) case
class TestALSMemo:
    def setup_method(self):
        self.root, self.named = als_expr()
        self.memo = explore([self.root.hop])

    def test_outer_template_opens_at_uvt(self):
        uvt = [
            h
            for h in _find(self.memo, "ba(+*)")
            if h.nrows == 1000 and h.ncols == 1000
        ]
        assert len(uvt) == 1
        assert self.memo.contains_type(uvt[0].hid, "O")

    def test_right_mm_closes_outer_with_sparse_driver(self):
        wv = [
            h
            for h in _find(self.memo, "ba(+*)")
            if h.nrows == 1000 and h.ncols == 20
        ]
        assert len(wv) == 1
        entries = [e for e in self.memo.entries(wv[0].hid) if e.type == "O"]
        assert entries
        assert all(e.closed == CLOSED_VALID for e in entries)

    def test_outer_invalid_without_sparse_driver(self):
        # dense X: the Outer plan must be validated away at close
        n, m, r = 1000, 1000, 20
        X = H.var("X", n, m, sparsity=1.0)
        U, V = H.var("U", n, r), H.var("V", m, r)
        out = (X * (U @ V.T)) @ V
        memo = explore([out.hop])
        entries = [e for e in memo.entries(out.hop.hid) if e.type == "O"]
        assert not entries

    def test_cell_chain_after_outer(self):
        # the trailing + 1e-6*U*r is a Cell chain (cannot fuse into Outer's
        # aggregation — paper §2.2 TMP10 discussion)
        plus = self.root.hop
        assert plus.op == "b(+)"
        assert "C" in self.memo.distinct_types(plus.hid)


# ------------------------------------------------------------- misc behaviour
def test_magg_entries_at_full_aggregates():
    X = H.var("X", 500, 500)
    Y = H.var("Y", 500, 500)
    s1 = H.sum_(X * Y)
    memo = explore([s1.hop])
    entries = memo.entries(s1.hop.hid)
    assert any(e.type == "M" and e.n_refs == 1 for e in entries)
    assert all(e.closed == CLOSED_VALID for e in entries if e.type == "M")


def test_linear_complexity_visits_each_op_once():
    # chain of 60 cell ops: memo has exactly 60 groups, bounded entries
    x = H.var("X", 100, 100)
    e = x
    for i in range(60):
        e = e * float(i + 1)
    memo = explore([e.hop])
    assert len(memo.groups) == 60
    assert all(len(g) <= 32 for g in memo.groups.values())


def test_explore_idempotent_on_shared_subdags():
    X = H.var("X", 100, 100)
    sq = X * X
    r1, r2 = H.sum_(sq), H.row_sums(sq)
    memo = explore([r1.hop, r2.hop])
    assert memo.contains(sq.hop.hid)
    assert memo.contains(r1.hop.hid) and memo.contains(r2.hop.hid)


# ------------------------------------------- Row: skinny side matrices only
@pytest.mark.parametrize("scaled", [False, True])
@pytest.mark.parametrize("ncol", [1, 63, 64, 200])
def test_row_side_matmult_needs_skinny_side(ncol, scaled):
    # SystemML's Row template fuses X %*% B and Q %*% B only for a skinny
    # B (LibMatrixMult.isSkinnyRightHandSide: ncol(B) < 64)
    X = H.var("X", 1000, 784)
    W = H.var("W", 784, ncol)
    lhs = X * 2 if scaled else X
    mm = lhs @ W
    memo = explore([mm.hop])
    rows = [e for e in memo.entries(mm.hop.hid) if e.type == "R"]
    assert bool(rows) is (ncol < 64)
    if scaled:
        assert any(e.has_ref(lhs.hop.hid) for e in rows) is (ncol < 64)


def test_row_tmm_keeps_wide_row_aligned_rhs():
    # t(A) %*% X reads X by rows, aligned with A: no skinny bound (KMeans)
    A = H.var("A", 1000, 5)
    X = H.var("X", 1000, 784)
    mm = A.T @ X
    memo = explore([mm.hop])
    tx = mm.hop.inputs[0]
    assert any(e.type == "R" and e.has_ref(tx.hid) and e.closed == CLOSED_VALID
               for e in memo.entries(mm.hop.hid))
