"""Candidate selection: partitions, interesting points, cost model, and
MPSkipEnum optimality (pruned result == exhaustive enumeration)."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import hop as H
from repro.core import cost as cost_mod
from repro.core import enumerate as enum_mod
from repro.core.cost import (
    CostModel,
    PartitionCoster,
    flops,
    flops_dense,
    partition_cost,
)
from repro.core.enumerate import EnumStats, brute_force, mpskip_enum
from repro.core.explore import explore
from repro.core.partitions import analyze_partitions, find_cut_sets, invalid_edges
from repro.core.select import select_plans


def _mlogreg_root(n=2000, m=100, k=4):
    X, v, P = H.var("X", n, m), H.var("v", m, k), H.var("P", n, k + 1)
    Pk = P.cols(0, k)
    Q = Pk * (X @ v)
    return (X.T @ (Q - Pk * H.row_sums(Q))).hop


# ---------------------------------------------------------------- partitions
def test_single_partition_for_connected_plans():
    root = _mlogreg_root()
    memo = explore([root])
    parts = analyze_partitions(memo, [root])
    assert len(parts) == 1
    p = parts[0]
    assert root.hid in p.roots
    assert p.mat_points  # Q and P[,1:k] have multiple consumers


def test_interesting_points_cover_mat_consumers():
    root = _mlogreg_root()
    memo = explore([root])
    (p,) = analyze_partitions(memo, [root])
    mat_targets = {pt.target for pt in p.points if pt.kind == "mat"}
    assert mat_targets == p.mat_points
    # each materialization point contributes one point per consumer
    for t in p.mat_points:
        assert sum(1 for pt in p.points if pt.target == t) >= 2


def test_independent_partitions_for_disconnected_plans():
    X = H.var("X", 500, 50)
    Y = H.var("Y", 500, 50)
    r1 = H.sum_(X * X + 1.0)
    # colSums closes all templates => adjacent partition downstream
    mid = H.col_sums(Y * 2.0)
    r2 = H.sum_(H.exp(mid * 3.0))
    memo = explore([r1.hop, r2.hop])
    parts = analyze_partitions(memo, [r1.hop, r2.hop])
    assert len(parts) >= 2


def test_template_switch_point_detected():
    # Y + X ⊙ UVᵀ (paper §4.2): Cell fusion of the + would destroy the
    # sparsity-exploiting Outer plan below — must appear as a switch point
    n, m, r = 500, 400, 10
    X = H.var("X", n, m, sparsity=0.01)
    U, V, Y = H.var("U", n, r), H.var("V", m, r), H.var("Y", n, m)
    out = H.sum_(Y + X * (U @ V.T))
    memo = explore([out.hop])
    parts = analyze_partitions(memo, [out.hop])
    pts = [pt for p in parts for pt in p.points]
    assert any(pt.kind == "switch" for pt in pts)


# ----------------------------------------------------------------- cost model
def test_flops_mm_scaled_by_sparsity():
    Xs = H.var("X", 1000, 1000, sparsity=0.01)
    v = H.var("v", 1000, 1)
    assert flops((Xs @ v).hop) == pytest.approx(0.01 * flops_dense((Xs @ v).hop))


def test_cost_prefers_fusion_over_materialization():
    # sum(X*Y*Z): fused plan cost must beat the all-materialized plan
    X, Y, Z = (H.var(c, 10**6, 10) for c in "XYZ")
    root = H.sum_(X * Y * Z).hop
    memo = explore([root])
    (p,) = analyze_partitions(memo, [root])
    cm = CostModel()
    fused = partition_cost(memo, p, [root], set(), cm)
    # cut every edge == no fusion at all
    all_cut = {
        (c, t)
        for c in p.nodes
        for t in p.nodes
        if c != t
    }
    unfused = partition_cost(memo, p, [root], all_cut, cm)
    assert fused < unfused


def test_redundancy_vs_materialization_tradeoff_visible():
    # big shared intermediate consumed twice: costs must differ across q
    X, Y = H.var("X", 10**6, 10), H.var("Y", 10**6, 10)
    shared = X * Y
    r1, r2 = H.sum_(shared * 2.0), H.sum_(shared + 1.0)
    roots = [r1.hop, r2.hop]
    memo = explore(roots)
    (p,) = analyze_partitions(memo, roots)
    costs = set()
    for q in range(1 << len(p.points)):
        qv = [(q >> i) & 1 == 1 for i in range(len(p.points))]
        costs.add(round(partition_cost(memo, p, roots, invalid_edges(p.points, qv)), 9))
    assert len(costs) > 1


# ------------------------------------------------------------- enumeration
def _assert_optimal(roots):
    memo = explore(roots)
    parts = analyze_partitions(memo, roots)
    cm = CostModel()
    for p in parts:
        if not p.points:
            continue
        _, best_c = brute_force(memo, p, roots, cm)
        for structural in (False, True):
            stats = EnumStats()
            q = mpskip_enum(
                memo, p, roots, cm, use_structural=structural, stats=stats
            )
            c = partition_cost(memo, p, roots, invalid_edges(p.points, q), cm)
            assert c == pytest.approx(best_c, rel=1e-12), (
                f"structural={structural}: {c} != optimal {best_c}"
            )


def test_mpskip_optimal_mlogreg():
    _assert_optimal([_mlogreg_root()])


def test_mpskip_optimal_shared_chain():
    X, Y = H.var("X", 10**5, 100), H.var("Y", 10**5, 100)
    s = X * Y
    r1 = H.sum_(s * 2.0)
    r2 = H.row_sums(s + 1.0)
    r3 = H.sum_(s**2.0)
    _assert_optimal([r1.hop, r2.hop, r3.hop])


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_mpskip_optimal_random_dags(data):
    """Randomized DAGs with shared intermediates: pruned enumeration must
    equal exhaustive search."""
    n_base = data.draw(st.integers(2, 4))
    depth = data.draw(st.integers(2, 5))
    rng_ops = ["+", "*", "-"]
    leaves = [H.var(f"L{i}", 10**4, 50) for i in range(n_base)]
    pool = list(leaves)
    for d in range(depth):
        a = pool[data.draw(st.integers(0, len(pool) - 1))]
        b = pool[data.draw(st.integers(0, len(pool) - 1))]
        op = data.draw(st.sampled_from(rng_ops))
        e = {"+": a + b, "*": a * b, "-": a - b}[op]
        pool.append(e)
    n_roots = data.draw(st.integers(1, 2))
    roots = []
    for i in range(n_roots):
        e = pool[data.draw(st.integers(n_base, len(pool) - 1))]
        roots.append(H.sum_(e).hop if i % 2 == 0 else H.row_sums(e).hop)
    _assert_optimal(roots)


def test_pruning_reduces_evaluated_plans():
    root = _mlogreg_root()
    memo = explore([root])
    (p,) = analyze_partitions(memo, [root])
    cm = CostModel()
    s_none, s_all = EnumStats(), EnumStats()
    mpskip_enum(memo, p, [root], cm, use_cost_pruning=False,
                use_structural=False, stats=s_none)
    mpskip_enum(memo, p, [root], cm, use_cost_pruning=True,
                use_structural=True, stats=s_all)
    assert s_none.evaluated == 1 << len(p.points)
    assert s_all.evaluated < s_none.evaluated


def test_cut_sets_on_chain_partition():
    # three chained materialization points: cutting the middle one
    # separates the upstream points (s1) from the downstream ones (s3)
    X = H.var("X", 10**5, 50)
    s1 = X * 2.0
    m1 = H.row_sums(s1)           # consumer 1 of s1
    s2 = (s1 + 1.0) * 3.0         # consumer 2 of s1; s2 shared below
    m2 = H.row_sums(s2)           # consumer 1 of s2
    s3 = (s2 * 0.5) + 2.0         # consumer 2 of s2; s3 shared below
    r1 = H.sum_(s3 * 4.0)
    r2 = H.row_sums(s3 - 1.0)
    roots = [m1.hop, m2.hop, r1.hop, r2.hop]
    memo = explore(roots)
    parts = analyze_partitions(memo, roots)
    big = max(parts, key=lambda p: len(p.points))
    cuts = find_cut_sets(memo, big)
    # s2's composite point separates s1-edges from s3-edges
    assert cuts, "expected at least one valid cut set"
    _assert_optimal(roots)


# ---------------------------------------------------------------- policies
def test_policies_differ_on_shared_subexpressions():
    X, Y = H.var("X", 10**6, 10), H.var("Y", 10**6, 10)
    s = X * Y
    r1, r2 = H.sum_(s * 2.0), H.sum_(s + 1.0)
    roots = [r1.hop, r2.hop]
    memo = explore(roots)
    fa = select_plans(memo, roots, "fuse_all")
    fnr = select_plans(memo, roots, "fuse_no_redundancy")
    # FA: s computed in both fused aggregates (redundant, no materialization)
    fa_cover = sum(s_.n_covered for s_ in fa.specs)
    fnr_cover = sum(s_.n_covered for s_ in fnr.specs)
    assert not any(sp.root.hid == s.hop.hid for sp in fa.specs)
    # FNR: s materialized exactly once as its own operator
    assert any(sp.root.hid == s.hop.hid for sp in fnr.specs)
    assert fa_cover >= fnr_cover


def test_cost_policy_never_worse_than_heuristics():
    for roots in (
        [_mlogreg_root()],
        [H.sum_(H.var("X", 10**5, 100) * H.var("Y", 10**5, 100)).hop],
    ):
        memo = explore(roots)
        parts = analyze_partitions(memo, roots)
        cm = CostModel()
        for p in parts:
            if not p.points:
                continue
            q = mpskip_enum(memo, p, roots, cm)
            c_opt = partition_cost(memo, p, roots, invalid_edges(p.points, q), cm)
            c_fa = partition_cost(memo, p, roots, set(), cm)
            fnr_cut = {
                (pt.consumer, pt.target) for pt in p.points if pt.kind == "mat"
            }
            c_fnr = partition_cost(memo, p, roots, fnr_cut, cm)
            assert c_opt <= c_fa + 1e-12
            assert c_opt <= c_fnr + 1e-12


# ------------------------------------------------- memoized group decisions
@pytest.fixture(scope="module")
def gen_dags():
    """Every HOP DAG Gen compiles for the six Table-2 algorithms."""
    from repro.algorithms import engine
    from tests.test_algorithms import _small_table2_runs

    dags = []
    orig = engine.compile_dag

    def capture(roots, policy, ctx):
        dags.append(roots)
        return orig(roots, policy, ctx)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "compile_dag", capture)
        for run in _small_table2_runs().values():
            run(engine.Engine("gen"))
    return dags


def test_memoized_costing_equals_fresh_costing(gen_dags):
    rng = np.random.default_rng(0)
    largest = 0
    for roots in gen_dags:
        memo = explore(roots)
        for p in analyze_partitions(memo, roots):
            m = len(p.points)
            largest = max(largest, m)
            if m <= 10:
                qs = [[(j >> k) & 1 == 1 for k in range(m)] for j in range(1 << m)]
            else:
                qs = list(rng.random((256, m)) < 0.5)
            coster = PartitionCoster(memo, p, roots)
            for q in qs:
                cut = invalid_edges(p.points, q)
                assert coster.cost(cut) == partition_cost(memo, p, roots, cut)
    assert largest > 10  # AutoEncoder's partition exercises the sampled path


def _spec_keys(sel):
    return [(s.root.hid, s.template, sorted(s.covered)) for s in sel.specs]


def test_select_plans_same_with_unshared_coster(gen_dags, monkeypatch):
    class Unshared:
        """A fresh coster, and so a fresh decision memo, per assignment."""

        def __init__(self, *args):
            self.args = args

        def cost(self, cut):
            return PartitionCoster(*self.args).cost(cut)

    shared = []
    for roots in gen_dags:
        shared.append(_spec_keys(select_plans(explore(roots), roots, "cost")))
    monkeypatch.setattr(enum_mod, "PartitionCoster", Unshared)
    for roots, keys in zip(gen_dags, shared):
        assert _spec_keys(select_plans(explore(roots), roots, "cost")) == keys


def test_selection_costs_each_candidate_once(gen_dags, monkeypatch):
    """Cuts that expand a group to the same candidate (covered hops, memo
    entries and inputs) share its costing: an enumeration over a
    partition, and a heuristic policy's selection, each build a
    candidate's CPlan once. Without that sharing, the AutoEncoder's Gen
    compile on the benchmark's mnist-cold inputs made 487 builds for 61
    candidates."""
    built = []
    orig = cost_mod.build_cplan

    def counting(spec):
        if not spec.magg_roots:  # combined multi-aggregates are built per cut
            built.append((
                tuple((hid, id(e)) for hid, e in spec.entries.items()),
                tuple(spec.input_hids),
            ))
        return orig(spec)

    monkeypatch.setattr(cost_mod, "build_cplan", counting)
    total = 0
    for roots in gen_dags:
        memo = explore(roots)
        for part in analyze_partitions(memo, roots):
            built.clear()
            mpskip_enum(memo, part, roots)
            assert len(built) == len(set(built))
            total += len(built)
        for policy in ("fuse_all", "fuse_no_redundancy"):
            built.clear()
            select_plans(explore(roots, prune_dominated=True), roots, policy)
            assert len(built) == len(set(built))
    assert total > 0
