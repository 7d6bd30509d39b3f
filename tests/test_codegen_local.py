"""End-to-end local codegen correctness: compile_dag + execute_plan must
reproduce execute_base exactly, for every template, policy, and data
representation — and must actually generate fused operators."""
from dataclasses import replace

import numpy as np
import pytest

from repro.core import hop as H
from repro.core.codegen import PlanCache
from repro.core.cplan import build_cplan
from repro.core.executor import execute_base
from repro.core.pipeline import CodegenContext, compile_dag, execute_plan
from repro.core.runtime import _rows_per_block, compile_spoof
from repro.lina.compressed import CLAMatrix
from repro.lina.sparse import CSR


def _rand(n, m, seed=0):
    return np.random.default_rng(seed).random((n, m))


def _sparse(n, m, sp, seed=0):
    g = np.random.default_rng(seed)
    a = g.random((n, m))
    a[g.random((n, m)) >= sp] = 0.0
    return a


def _check(root, bindings, policy="cost", expect_fused=None, atol=1e-9):
    roots = [root.hop] if hasattr(root, "hop") else [r.hop for r in root]
    ref = execute_base(roots, bindings)
    plan = compile_dag(roots, policy=policy)
    got = execute_plan(plan, bindings)
    if expect_fused is not None:
        assert plan.n_fused >= expect_fused, f"only {plan.n_fused} fused ops"
    for r, g in zip(ref, got):
        rd = r.to_dense() if isinstance(r, CSR) else r
        gd = g.to_dense() if isinstance(g, CSR) else g
        np.testing.assert_allclose(gd, rd, atol=atol, rtol=1e-9)
    return plan


POLICIES = ["cost", "fuse_all", "fuse_no_redundancy"]


# ------------------------------------------------------------ Cell template
@pytest.mark.parametrize("policy", POLICIES)
def test_cell_sum_xyz(policy):
    n, m = 300, 40
    X, Y, Z = H.var("X", n, m), H.var("Y", n, m), H.var("Z", n, m)
    expr = H.sum_(X * Y * Z)
    b = {"X": _rand(n, m, 1), "Y": _rand(n, m, 2), "Z": _rand(n, m, 3)}
    _check(expr, b, policy, expect_fused=1)


def test_cell_chain_no_agg():
    n, m = 100, 30
    X, Y = H.var("X", n, m), H.var("Y", n, m)
    expr = (X + Y) * 2.0 - X / (Y + 1.0)
    _check(expr, {"X": _rand(n, m, 4), "Y": _rand(n, m, 5)}, expect_fused=1)


def test_cell_row_and_col_agg():
    n, m = 120, 17
    X, Y = H.var("X", n, m), H.var("Y", n, m)
    _check(H.row_sums(X * Y + 1.0), {"X": _rand(n, m, 6), "Y": _rand(n, m, 7)})
    _check(H.col_sums(X * Y + 1.0), {"X": _rand(n, m, 6), "Y": _rand(n, m, 7)})


def test_cell_minmax_agg():
    n, m = 80, 23
    X = H.var("X", n, m)
    _check(H.max_(X * 2.0 + 1.0), {"X": _rand(n, m, 8)})
    _check(H.min_(H.abs_(X - 0.5)), {"X": _rand(n, m, 9)})


def test_cell_with_vector_sides():
    n, m = 90, 21
    X, c, r = H.var("X", n, m), H.var("c", n, 1), H.var("r", 1, m)
    expr = H.sum_(X * c - r)
    b = {"X": _rand(n, m, 10), "c": _rand(n, 1, 11), "r": _rand(1, m, 12)}
    _check(expr, b, expect_fused=1)


def test_cell_sparse_safe_sparse_main():
    n, m = 200, 60
    x = _sparse(n, m, 0.1, 13)
    X = H.var("X", n, m, sparsity=0.1)
    Y = H.var("Y", n, m)
    expr = H.sum_(X * Y)
    plan = _check(expr, {"X": CSR.from_dense(x), "Y": _rand(n, m, 14)}, expect_fused=1)
    (sp,) = plan.spoofs.values()
    assert sp.cplan.sparse_safe


def test_cell_sparse_sides():
    n, m = 150, 40
    x, y = _sparse(n, m, 0.15, 15), _sparse(n, m, 0.2, 16)
    X = H.var("X", n, m, sparsity=0.15)
    Y = H.var("Y", n, m, sparsity=0.2)
    Z = H.var("Z", n, m)
    expr = H.sum_(X * Y * Z)
    _check(
        expr,
        {"X": CSR.from_dense(x), "Y": CSR.from_dense(y), "Z": _rand(n, m, 17)},
    )


def test_cell_compressed_sum_x2():
    # Fig. 9's expression: sum(X^2) over CLA executes on dictionaries
    n, m = 400, 6
    a = np.round(_rand(n, m, 18), 2)
    X = H.var("X", n, m)
    expr = H.sum_(X**2.0)
    _check(expr, {"X": CLAMatrix.compress(a)})


def test_magg_compressed_evaluates_each_dictionary_once():
    # two full aggregates over one CLA input: one genexec call per column
    # dictionary serves both outputs
    n, m = 400, 6
    a = np.round(_rand(n, m, 18), 2)
    X = H.var("X", n, m)
    roots = [H.sum_(X * X).hop, H.sum_(X * 3.0).hop]
    plan = compile_dag(roots)
    (op,) = plan.spoofs.values()
    assert op.cplan.template == "M" and op.cplan.n_outputs == 2
    C = CLAMatrix.compress(a)
    fn, calls = op.fn, []
    op._fn = lambda d, b: calls.append(d) or fn(d, b)
    got = execute_plan(plan, {"X": C})
    assert len(calls) == m
    # bit-identical to aggregating each output over the dictionaries alone
    out_hids = [op.cplan.root.hid] + [r.hid for r in op.cplan.magg_roots]
    per_output = {
        hid: C.agg_cellwise_distinct(lambda d, k=k: fn(d, [])[k])
        for k, hid in enumerate(out_hids)
    }
    assert got == [per_output[r.hid] for r in roots]
    np.testing.assert_allclose(got, execute_base(roots, {"X": a}), rtol=1e-12)


# ------------------------------------------------------------ MAgg template
@pytest.mark.parametrize("policy", POLICIES)
def test_multi_aggregate_shared_input(policy):
    n, m = 250, 33
    X, Y = H.var("X", n, m), H.var("Y", n, m)
    r1, r2, r3 = H.sum_(X * X), H.sum_(X * Y), H.sum_(Y * Y)
    b = {"X": _rand(n, m, 19), "Y": _rand(n, m, 20)}
    roots = [r1.hop, r2.hop, r3.hop]
    ref = execute_base(roots, b)
    plan = compile_dag(roots, policy=policy)
    got = execute_plan(plan, b)
    np.testing.assert_allclose(got, ref, rtol=1e-9)
    if policy == "cost":
        # the three aggregates must combine into a single multi-aggregate
        magg = [s for s in plan.specs if s.magg_roots]
        assert len(magg) == 1 and len(magg[0].magg_roots) == 2


# ------------------------------------------------------------- Row template
@pytest.mark.parametrize("policy", POLICIES)
def test_row_mmchain(policy):
    n, m = 500, 40
    X, v = H.var("X", n, m), H.var("v", m, 1)
    expr = X.T @ (X @ v)
    _check(expr, {"X": _rand(n, m, 21), "v": _rand(m, 1, 22)}, policy, expect_fused=1)


def test_row_mmchain_weighted():
    n, m = 300, 25
    X, v, w = H.var("X", n, m), H.var("v", m, 1), H.var("w", n, 1)
    expr = X.T @ (w * (X @ v))
    b = {"X": _rand(n, m, 23), "v": _rand(m, 1, 24), "w": _rand(n, 1, 25)}
    _check(expr, b, expect_fused=1)


@pytest.mark.parametrize("policy", POLICIES)
def test_row_mlogreg_expression(policy):
    n, m, k = 200, 30, 4
    X, v, P = H.var("X", n, m), H.var("v", m, k), H.var("P", n, k + 1)
    Pk = P.cols(0, k)
    Q = Pk * (X @ v)
    expr = X.T @ (Q - Pk * H.row_sums(Q))
    b = {"X": _rand(n, m, 26), "v": _rand(m, k, 27), "P": _rand(n, k + 1, 28)}
    _check(expr, b, policy, atol=1e-8)


def test_row_sparse_main():
    n, m = 300, 50
    x = _sparse(n, m, 0.1, 29)
    X, v = H.var("X", n, m, sparsity=0.1), H.var("v", m, 1)
    expr = X.T @ (X @ v)
    _check(expr, {"X": CSR.from_dense(x), "v": _rand(m, 1, 30)})


def test_row_rowagg_index():
    n, m = 120, 9
    X, c = H.var("X", n, m), H.var("c", 1, m)
    expr = H.row_imins(X - c)
    _check(expr, {"X": _rand(n, m, 31), "c": _rand(1, m, 32)})


# -------------------------------------------- skeletons over many row blocks
M_BLK = 40
N_BLK = 3 * _rows_per_block(M_BLK) + 17  # three full row blocks and a ragged one

# case -> (roots over X, Y (N_BLK x M_BLK), V (M_BLK x 4), v (M_BLK x 1);
#          the template and variant of the one fused operator they compile to)
MULTI_BLOCK = {
    "cell_no_agg": (lambda X, Y, V, v: [(X + Y) * 2.0 - X / (Y + 1.0)], "C", "no_agg"),
    "cell_col_agg": (lambda X, Y, V, v: [H.col_sums(X * Y + 1.0)], "C", "col_agg"),
    "cell_sum": (lambda X, Y, V, v: [H.sum_(X * Y * 2.0)], "M", "full_agg"),
    "cell_max": (lambda X, Y, V, v: [H.max_(X * Y + 1.0)], "M", "full_agg"),
    "cell_min": (lambda X, Y, V, v: [H.min_(X - Y)], "M", "full_agg"),
    "magg": (lambda X, Y, V, v: [H.sum_(X * Y), H.max_(X * Y), H.min_(X + Y)], "M", "full_agg"),
    "row_no_agg": (lambda X, Y, V, v: [(X @ V) * 2.0], "R", "no_agg"),
    "row_row_agg": (lambda X, Y, V, v: [H.row_maxs(X @ V)], "R", "row_agg"),
    "row_col_agg": (lambda X, Y, V, v: [H.col_sums(X @ V)], "R", "col_agg"),
    "row_full_agg": (lambda X, Y, V, v: [H.sum_(X @ V)], "R", "full_agg"),
    "row_col_agg_t": (lambda X, Y, V, v: [X.T @ (X @ v)], "R", "col_agg_t"),
}


def _multi_block_inputs():
    n, m = N_BLK, M_BLK
    hops = H.var("X", n, m), H.var("Y", n, m), H.var("V", m, 4), H.var("v", m, 1)
    b = {"X": _rand(n, m, 60), "Y": _rand(n, m, 61), "V": _rand(m, 4, 62), "v": _rand(m, 1, 63)}
    return hops, b


def _assert_matches_base(roots, plan, b):
    for r, g in zip(execute_base(roots, b), execute_plan(plan, b)):
        np.testing.assert_allclose(g, r, rtol=1e-9)


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("case", MULTI_BLOCK)
def test_skeleton_over_row_blocks_matches_base(case, policy):
    """Each block's partial and their combine (or stack) give Base's
    result when the main input spans several cache-sized row blocks."""
    build, template, variant = MULTI_BLOCK[case]
    hops, b = _multi_block_inputs()
    roots = [e.hop for e in build(*hops)]
    plan = compile_dag(roots, policy=policy)
    (spec,) = plan.specs  # one fused operator covers every root
    cp = plan.spoofs[spec.root.hid].cplan
    assert (cp.template, cp.variant, cp.n_outputs) == (template, variant, len(roots))
    _assert_matches_base(roots, plan, b)


def test_cell_row_agg_over_row_blocks_matches_base():
    # the optimizer puts every dense rowSums into the Row template, so the
    # Cell skeleton's dense row_agg runs the selected operator's cells as
    # a Cell operator
    (X, Y, V, v), b = _multi_block_inputs()
    roots = [H.row_sums(X * Y + 1.0).hop]
    plan = compile_dag(roots)
    (spec,) = plan.specs
    cp = build_cplan(replace(spec, template="C"))
    assert (cp.template, cp.variant) == ("C", "row_agg")
    plan.spoofs[spec.root.hid] = compile_spoof(cp, spec.input_hids, PlanCache())
    _assert_matches_base(roots, plan, b)


# ----------------------------------------------------------- Outer template
@pytest.mark.parametrize("policy", POLICIES)
def test_outer_als_update(policy):
    n, m, r = 120, 90, 8
    x = _sparse(n, m, 0.05, 33)
    X = H.var("X", n, m, sparsity=0.05)
    U, V, R = H.var("U", n, r), H.var("V", m, r), H.var("r", n, 1)
    expr = ((X != 0) * (U @ V.T)) @ V + 1e-6 * U * R
    b = {
        "X": CSR.from_dense(x),
        "U": _rand(n, r, 34),
        "V": _rand(m, r, 35),
        "r": _rand(n, 1, 36),
    }
    plan = _check(expr, b, policy, atol=1e-8)
    if policy == "cost":
        # cost-based selection preserves the sparsity-exploiting Outer
        assert any(s.template == "O" for s in plan.specs), "no Outer operator"
    else:
        # the coverage-maximizing heuristics let an overlapping Row plan
        # destroy the Outer template (paper §5.4: 'the fusion heuristics
        # fail to find good plans for the update rules')
        assert not any(s.template == "O" for s in plan.specs)


def test_outer_full_agg_loss():
    n, m, r = 100, 80, 6
    x = _sparse(n, m, 0.08, 37)
    X = H.var("X", n, m, sparsity=0.08)
    U, V = H.var("U", n, r), H.var("V", m, r)
    expr = H.sum_(((X != 0) * (U @ V.T) - X) ** 2.0)
    b = {"X": CSR.from_dense(x), "U": _rand(n, r, 38), "V": _rand(m, r, 39)}
    plan = _check(expr, b, atol=1e-8)
    assert any(s.template == "O" for s in plan.specs)


def test_outer_log_pattern():
    # Fig. 1(d): sum(X ⊙ log(UVᵀ + eps))
    n, m, r = 90, 70, 5
    x = _sparse(n, m, 0.1, 40)
    X = H.var("X", n, m, sparsity=0.1)
    U, V = H.var("U", n, r), H.var("V", m, r)
    expr = H.sum_(X * H.log(U @ V.T + 1e-15))
    b = {"X": CSR.from_dense(x), "U": _rand(n, r, 41) + 0.5, "V": _rand(m, r, 42) + 0.5}
    _check(expr, b, atol=1e-8)


# ------------------------------------------------------------- CSE handling
@pytest.mark.parametrize("policy", POLICIES)
def test_cse_multiple_consumers(policy):
    n, m = 150, 20
    X, Y = H.var("X", n, m), H.var("Y", n, m)
    shared = X * Y  # consumed twice
    r1, r2 = H.sum_(shared), H.row_sums(shared + 1.0)
    b = {"X": _rand(n, m, 43), "Y": _rand(n, m, 44)}
    roots = [r1.hop, r2.hop]
    ref = execute_base(roots, b)
    got = execute_plan(compile_dag(roots, policy=policy), b)
    for r, g in zip(ref, got):
        np.testing.assert_allclose(g, r, rtol=1e-9)


def test_plan_cache_hits_across_equivalent_dags():
    ctx = CodegenContext()
    for it in range(3):
        n, m = 100, 10
        X, Y = H.var("X", n, m), H.var("Y", n, m)
        expr = H.sum_(X * Y * 2.0)
        b = {"X": _rand(n, m, it), "Y": _rand(n, m, it + 50)}
        execute_plan(compile_dag([expr.hop], ctx=ctx), b)
    assert ctx.plan_cache.stats.misses == 1
    assert ctx.plan_cache.stats.hits == 2
    assert ctx.stats.n_dags == 3


def test_spoofop_survives_pickle_roundtrip():
    import pickle

    n, m = 60, 12
    X, Y = H.var("X", n, m), H.var("Y", n, m)
    expr = H.sum_(X * Y)
    plan = compile_dag([expr.hop])
    (sp,) = plan.spoofs.values()
    sp2 = pickle.loads(pickle.dumps(sp))
    assert sp2._fn is None  # functions are not shipped, sources are
    b = {"X": _rand(n, m, 45), "Y": _rand(n, m, 46)}
    ref = execute_base([expr.hop], b)[0]
    # recompiled on first use
    ins = [b[plan_input_name(plan, hid)] for hid in sp2.input_hids]
    np.testing.assert_allclose(sp2.execute(ins), ref, rtol=1e-12)


def plan_input_name(plan, hid):
    for s in plan.specs:
        if hid in s.input_hops:
            return s.input_hops[hid].name
    raise KeyError(hid)
