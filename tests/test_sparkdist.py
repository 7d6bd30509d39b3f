"""Distributed substrate tests: RowBlockMatrix ops, distributed fused
operators, and the hybrid SparkEngine — with DuckDB-oracle checks for
every relational-style result (matmult as join+aggregate, cell-wise
aggregations over COO tables, TPC-H-lite column sums)."""
import numpy as np
import pandas as pd
import pytest

from repro import synth_data
from repro.algorithms.engine import MODES
from repro.core import hop as H
from repro.core.executor import execute_base
from repro.core.pipeline import compile_dag
from repro.lina.sparse import CSR
from repro.oracle import assert_equivalent
from repro.sparkdist import ops
from repro.sparkdist.blocked import RowBlockMatrix
from repro.sparkdist.executor import SparkEngine
from repro.sparkdist.fusedexec import execute_dist

BS = 16  # small blocks so even tiny tests span multiple blocks


def _rand(n, m, seed=0):
    return np.random.default_rng(seed).random((n, m))


def _cells(a: np.ndarray) -> pd.DataFrame:
    i, j = np.indices(a.shape)
    return pd.DataFrame(
        {"i": i.ravel().astype(np.int64), "j": j.ravel().astype(np.int64), "v": a.ravel()}
    )


# ------------------------------------------------------------ blocked basics
def test_roundtrip_dense(spark):
    a = _rand(53, 7, 1)
    rb = RowBlockMatrix.from_matrix(spark, a, block_rows=BS)
    assert rb.n_blocks == 4
    np.testing.assert_allclose(rb.to_numpy(), a)


def test_roundtrip_sparse(spark):
    a = _rand(40, 9, 2)
    a[a < 0.8] = 0.0
    rb = RowBlockMatrix.from_matrix(spark, CSR.from_dense(a), block_rows=BS)
    np.testing.assert_allclose(rb.to_numpy(), a)


def test_map_blocks(spark):
    a = _rand(33, 5, 3)
    rb = RowBlockMatrix.from_matrix(spark, a, block_rows=BS)
    np.testing.assert_allclose(rb.map_blocks(lambda x: x * 2.0).to_numpy(), a * 2)


def test_elementwise_dist_dist(spark):
    a, b = _rand(45, 6, 4), _rand(45, 6, 5)
    ra = RowBlockMatrix.from_matrix(spark, a, block_rows=BS)
    rb = RowBlockMatrix.from_matrix(spark, b, block_rows=BS)
    np.testing.assert_allclose(
        ops.elementwise(spark, "b(*)", ra, rb).to_numpy(), a * b
    )


def test_elementwise_dist_scalar_and_local(spark):
    a = _rand(45, 6, 6)
    c = _rand(45, 1, 7)  # row-aligned local column vector
    r = _rand(1, 6, 8)   # broadcast row vector
    ra = RowBlockMatrix.from_matrix(spark, a, block_rows=BS)
    np.testing.assert_allclose(
        ops.elementwise(spark, "b(+)", ra, 3.0).to_numpy(), a + 3
    )
    np.testing.assert_allclose(
        ops.elementwise(spark, "b(*)", ra, c).to_numpy(), a * c
    )
    np.testing.assert_allclose(
        ops.elementwise(spark, "b(-)", ra, r).to_numpy(), a - r
    )


def test_matmult_broadcast_rhs(spark):
    a, v = _rand(50, 8, 9), _rand(8, 3, 10)
    ra = RowBlockMatrix.from_matrix(spark, a, block_rows=BS)
    np.testing.assert_allclose(ops.matmult(spark, ra, v).to_numpy(), a @ v)


def test_matmult_tsmm(spark):
    # t(X) %*% Y with both distributed row-aligned
    x, y = _rand(60, 5, 11), _rand(60, 4, 12)
    rx = RowBlockMatrix.from_matrix(spark, x, block_rows=BS)
    ry = RowBlockMatrix.from_matrix(spark, y, block_rows=BS)
    out = ops.matmult(spark, ops.TransposedRBM(rx), ry)
    np.testing.assert_allclose(out, x.T @ y, atol=1e-12)


@pytest.mark.parametrize("sparse", [False, True])
def test_matmult_local_lhs(spark, sparse):
    # t(A) %*% X once A is local: k×n local times n×m distributed
    x = _rand(40, 6, 41)
    if sparse:
        x[x < 0.6] = 0.0
    a = _rand(3, 40, 42)
    rx = RowBlockMatrix.from_matrix(
        spark, CSR.from_dense(x) if sparse else x, block_rows=BS
    )
    out = ops.matmult(spark, a, rx)
    assert isinstance(out, np.ndarray)
    np.testing.assert_allclose(out, a @ x, atol=1e-12)


def test_aggregates(spark):
    # a narrow and a wide row block
    for m in (6, 40):
        a = _rand(47, m, 13)
        ra = RowBlockMatrix.from_matrix(spark, a, block_rows=BS)
        assert ops.aggregate(spark, "ua(+)", ra) == pytest.approx(a.sum())
        np.testing.assert_allclose(
            ops.aggregate(spark, "ua(C+)", ra), a.sum(0, keepdims=True)
        )
        np.testing.assert_allclose(
            ops.aggregate(spark, "ua(R+)", ra).to_numpy(), a.sum(1, keepdims=True)
        )
        np.testing.assert_allclose(
            ops.aggregate(spark, "ua(Rimin)", ra).to_numpy(),
            (a.argmin(1) + 1.0).reshape(-1, 1),
        )
        np.testing.assert_array_equal(
            ops.aggregate(spark, "ua(Rmax)", ra).to_numpy(), a.max(1, keepdims=True)
        )


def test_rix(spark):
    a = _rand(30, 10, 14)
    ra = RowBlockMatrix.from_matrix(spark, a, block_rows=BS)
    np.testing.assert_allclose(ops.rix(spark, ra, 2, 7).to_numpy(), a[:, 2:7])


# --------------------------------------------------------- oracle-backed
def test_oracle_matmult_as_join_aggregate(spark):
    """Distributed matmult must equal the SQL join+aggregate over COO."""
    a, b = _rand(20, 6, 15), _rand(6, 4, 16)
    ra = RowBlockMatrix.from_matrix(spark, a, block_rows=BS)
    c = ops.matmult(spark, ra, b)
    got = spark.createDataFrame(_cells(c.to_numpy()))
    assert_equivalent(
        got,
        """SELECT a.i AS i, b.j AS j, SUM(a.v * b.v) AS v
           FROM a JOIN b ON a.j = b.i GROUP BY a.i, b.j""",
        a=_cells(a),
        b=_cells(b),
    )


def test_oracle_fused_cell_sum_xyz(spark):
    """Generated distributed Cell operator vs DuckDB over cell tables."""
    n, m = 40, 8
    x, y, z = _rand(n, m, 17), _rand(n, m, 18), _rand(n, m, 19)
    X, Y, Z = H.var("X", n, m), H.var("Y", n, m), H.var("Z", n, m)
    plan = compile_dag([H.sum_(X * Y * Z).hop], "cost")
    (spoof,) = plan.spoofs.values()
    (spec,) = [s for s in plan.specs if s.template]
    vals = {}
    for hid in spec.input_hids:
        name = spec.input_hops[hid].name
        vals[hid] = RowBlockMatrix.from_matrix(
            spark, {"X": x, "Y": y, "Z": z}[name], block_rows=BS
        )
    total = execute_dist(spark, spoof, vals)
    got = spark.createDataFrame(pd.DataFrame({"total": [total]}))
    assert_equivalent(
        got,
        """SELECT SUM(x.v * y.v * z.v) AS total
           FROM x JOIN y ON x.i=y.i AND x.j=y.j
                  JOIN z ON x.i=z.i AND x.j=z.j""",
        x=_cells(x),
        y=_cells(y),
        z=_cells(z),
    )


def test_oracle_colsums_tpch_lineitem(spark):
    """colSums over a matrix built from TPC-H-lite lineitem == SQL SUMs."""
    li = synth_data.lineitem(spark, sf=0.001)
    pdf = li.select("l_quantity", "l_extendedprice", "l_discount", "l_tax").toPandas()
    X = pdf.to_numpy(dtype=np.float64)
    rb = RowBlockMatrix.from_matrix(spark, X, block_rows=1024)
    cs = ops.aggregate(spark, "ua(C+)", rb)
    got = spark.createDataFrame(
        pd.DataFrame(
            {
                "sq": [cs[0, 0]], "se": [cs[0, 1]],
                "sd": [cs[0, 2]], "st": [cs[0, 3]],
            }
        )
    )
    assert_equivalent(
        got,
        """SELECT SUM(l_quantity) AS sq, SUM(l_extendedprice) AS se,
                  SUM(l_discount) AS sd, SUM(l_tax) AS st FROM li""",
        li=pdf,
    )


# ----------------------------------------------------- distributed fused ops
def _compile_single(expr):
    plan = compile_dag([expr.hop], "cost")
    fused = [s for s in plan.specs if s.template]
    assert len(fused) == 1
    return plan, plan.spoofs[fused[0].root.hid], fused[0]


def test_fused_row_mmchain_dist(spark):
    n, m = 64, 12
    x, v = _rand(n, m, 20), _rand(m, 1, 21)
    X, V = H.var("X", n, m), H.var("v", m, 1)
    plan, spoof, spec = _compile_single(X.T @ (X @ V))
    vals = {}
    for hid in spec.input_hids:
        nm = spec.input_hops[hid].name
        if nm == "X":
            vals[hid] = RowBlockMatrix.from_matrix(spark, x, block_rows=BS)
        else:
            vals[hid] = v
    out = execute_dist(spark, spoof, vals)
    np.testing.assert_allclose(out, x.T @ (x @ v), atol=1e-10)


def test_fused_cell_rowagg_dist(spark):
    n, m = 48, 9
    x, y = _rand(n, m, 22), _rand(n, m, 23)
    X, Y = H.var("X", n, m), H.var("Y", n, m)
    plan, spoof, spec = _compile_single(H.row_sums(X * Y + 1.0))
    vals = {}
    for hid in spec.input_hids:
        nm = spec.input_hops[hid].name
        vals[hid] = RowBlockMatrix.from_matrix(
            spark, {"X": x, "Y": y}[nm], block_rows=BS
        )
    out = execute_dist(spark, spoof, vals)
    np.testing.assert_allclose(out.to_numpy(), (x * y + 1).sum(1, keepdims=True))


def test_fused_dist_sparse_main(spark):
    n, m = 60, 10
    xd = _rand(n, m, 24)
    xd[xd < 0.7] = 0.0
    y = _rand(n, m, 25)
    X, Y = H.var("X", n, m, 0.3), H.var("Y", n, m)
    plan, spoof, spec = _compile_single(H.sum_(X * Y))
    vals = {}
    for hid in spec.input_hids:
        nm = spec.input_hops[hid].name
        v = CSR.from_dense(xd) if nm == "X" else y
        vals[hid] = RowBlockMatrix.from_matrix(spark, v, block_rows=BS)
    out = execute_dist(spark, spoof, vals)
    assert out == pytest.approx((xd * y).sum())


def test_fused_magg_dist(spark):
    n, m = 48, 9
    x, y = _rand(n, m, 26), _rand(n, m, 27)
    X, Y = H.var("X", n, m), H.var("Y", n, m)
    plan = compile_dag([H.sum_(X * Y).hop, H.max_(X * Y).hop, H.min_(X + Y).hop], "cost")
    (spec,) = plan.specs
    assert spec.template == "M" and len(spec.magg_roots) == 2
    b = {"X": x, "Y": y}
    vals = {
        hid: RowBlockMatrix.from_matrix(spark, b[spec.input_hops[hid].name], block_rows=BS)
        for hid in spec.input_hids
    }
    out = execute_dist(spark, plan.spoofs[spec.root.hid], vals)
    ref = execute_base([spec.root, *spec.magg_roots], b)
    np.testing.assert_allclose(out, ref, rtol=1e-9)


def test_fused_cell_colagg_dist(spark):
    n, m = 48, 9
    x, y = _rand(n, m, 28), _rand(n, m, 29)
    X, Y = H.var("X", n, m), H.var("Y", n, m)
    plan, spoof, spec = _compile_single(H.col_sums(X * Y + 1.0))
    assert (spoof.cplan.template, spoof.cplan.variant) == ("C", "col_agg")
    vals = {
        hid: RowBlockMatrix.from_matrix(spark, {"X": x, "Y": y}[spec.input_hops[hid].name], block_rows=BS)
        for hid in spec.input_hids
    }
    out = execute_dist(spark, spoof, vals)
    np.testing.assert_allclose(out, (x * y + 1.0).sum(axis=0, keepdims=True), rtol=1e-9)


# --------------------------------------------------------------- SparkEngine
@pytest.mark.parametrize("mode", MODES)
def test_engine_mmchain_all_modes(spark, mode):
    n, m = 70, 8
    x, v = _rand(n, m, 26), _rand(m, 1, 27)
    X, V = H.var("X", n, m), H.var("v", m, 1)
    expr = X.T @ (X @ V)
    eng = SparkEngine(spark, mode)
    rb = RowBlockMatrix.from_matrix(spark, x, block_rows=BS).materialize()
    out = eng(expr, {"X": rb, "v": v})
    np.testing.assert_allclose(np.asarray(out), x.T @ (x @ v), atol=1e-10)
    # the engine releases its own intermediates, never the caller's input
    assert rb.df.storageLevel.useMemory
    rb.unpersist()


def test_engine_fused_without_dist_kernel_runs_basic_ops(spark):
    # tak+* with a local X and a distributed Y has no distributed kernel:
    # the covered hops run as (hybrid) basic operators
    n, m = 50, 7
    x, y = _rand(n, m, 39), _rand(n, m, 40)
    X, Y = H.var("X", n, m), H.var("Y", n, m)
    expr = H.sum_(X * Y)
    yb = RowBlockMatrix.from_matrix(spark, y, block_rows=BS)
    got = SparkEngine(spark, "fused")(expr, {"X": x, "Y": yb})
    (ref,) = execute_base([expr.hop], {"X": x, "Y": y})
    assert float(got) == pytest.approx(float(ref))


@pytest.mark.parametrize("mode", ["base", "gen"])
def test_engine_l2svm_iteration_dist(spark, mode):
    n, m = 80, 6
    x = _rand(n, m, 28)
    y = np.where(_rand(n, 1, 29) > 0.5, 1.0, -1.0)
    w = _rand(m, 1, 30)
    Xh, yh, wh = H.var("X", n, m), H.var("y", n, 1), H.var("w", m, 1)
    out_e = 1.0 - yh * (Xh @ wh)
    sv = out_e > 0.0
    g = 0.001 * wh - Xh.T @ (sv * out_e * yh)
    obj = 0.5 * H.sum_((sv * out_e) ** 2.0)
    eng = SparkEngine(spark, mode)
    rb = RowBlockMatrix.from_matrix(spark, x, block_rows=BS)
    yb = RowBlockMatrix.from_matrix(spark, y, block_rows=BS)
    gv, objv = eng([g, obj], {"X": rb, "y": yb, "w": w})
    ref_g, ref_obj = execute_base(
        [g.hop, obj.hop], {"X": x, "y": y, "w": w}
    )
    np.testing.assert_allclose(np.asarray(gv), ref_g, atol=1e-10)
    assert float(objv) == pytest.approx(float(ref_obj))


@pytest.mark.parametrize("mode", MODES)
def test_l2svm_distributed_matches_local(spark, mode):
    from repro.algorithms import l2svm
    from repro.algorithms.engine import Engine

    n, m = 120, 6
    x = _rand(n, m, 33)
    y = np.where(_rand(n, 1, 34) > 0.5, 1.0, -1.0)
    cfg = l2svm.L2SVMConfig(max_iter=3)
    ref = l2svm.run(Engine("base"), x, y, cfg)["objs"]
    rb = RowBlockMatrix.from_matrix(spark, x, block_rows=BS)
    yb = RowBlockMatrix.from_matrix(spark, y, block_rows=BS)
    got = l2svm.run(SparkEngine(spark, mode), rb, yb, cfg)["objs"]
    np.testing.assert_allclose(got, ref, rtol=1e-8)


@pytest.mark.parametrize("mode", MODES)
def test_kmeans_distributed_matches_local(spark, mode):
    from repro.algorithms import kmeans
    from repro.algorithms.engine import Engine

    n, m = 150, 5
    x = _rand(n, m, 35)
    cfg = kmeans.KMeansConfig(k=3, max_iter=3)
    init = x[:3].copy()
    ref = kmeans.run(Engine("base"), x, cfg, init_C=init)["objs"]
    rb = RowBlockMatrix.from_matrix(spark, x, block_rows=BS)
    got = kmeans.run(SparkEngine(spark, mode), rb, cfg, init_C=init)["objs"]
    np.testing.assert_allclose(got, ref, rtol=1e-8)


@pytest.mark.parametrize("mode", ["base", "gen"])
def test_mlogreg_distributed_matches_local(spark, mode):
    from repro.algorithms import mlogreg
    from repro.algorithms.engine import Engine
    from repro.data import mldata

    n, m, k = 130, 5, 2
    x = _rand(n, m, 36)
    Y = mldata.onehot_labels(n, k, seed=37)[:, : k - 1]
    cfg = mlogreg.MLogregConfig(k=k, max_iter=2, max_inner=2)
    ref = mlogreg.run(Engine("base"), x, Y, cfg)["objs"]
    rb = RowBlockMatrix.from_matrix(spark, x, block_rows=BS)
    yb = RowBlockMatrix.from_matrix(spark, Y, block_rows=BS)
    got = mlogreg.run(SparkEngine(spark, mode), rb, yb, cfg)["objs"]
    np.testing.assert_allclose(got, ref, rtol=1e-8)


@pytest.mark.parametrize("mode", ["base", "fused", "gen"])
def test_glm_distributed_matches_local(spark, mode):
    # 'fused' exercises the distributed mmchain* kernel with a
    # distributed weight vector (join on block id, not broadcast)
    from repro.algorithms import glm
    from repro.algorithms.engine import Engine
    from repro.data import mldata

    n, m = 140, 6
    x = _rand(n, m, 38)
    y01 = (mldata.binary_labels(x) > 0).astype(np.float64)
    cfg = glm.GLMConfig(max_iter=2, max_inner=2)
    ref = glm.run(Engine("base"), x, y01, cfg)["objs"]
    rb = RowBlockMatrix.from_matrix(spark, x, block_rows=BS)
    yb = RowBlockMatrix.from_matrix(spark, y01, block_rows=BS)
    got = glm.run(SparkEngine(spark, mode), rb, yb, cfg)["objs"]
    np.testing.assert_allclose(got, ref, rtol=1e-8)


def test_engine_gen_fuses_distributed(spark):
    n, m = 64, 8
    x, v = _rand(n, m, 31), _rand(m, 1, 32)
    X, V = H.var("X", n, m), H.var("v", m, 1)
    eng = SparkEngine(spark, "gen")
    rb = RowBlockMatrix.from_matrix(spark, x, block_rows=BS)
    eng(X.T @ (X @ V), {"X": rb, "v": v})
    assert sum(p.n_fused for p in eng._plans.values()) >= 1


# ----------------------------------------------- hybrid result placement
@pytest.mark.parametrize("mode", MODES)
def test_engine_narrow_results_come_back_local(spark, mode):
    # rowSums(X^2) (n×1) and X %*% C (n×3) are narrower than X (n×8):
    # collected to the driver as ndarrays, not kept distributed
    n, m = 60, 8
    x, c = _rand(n, m, 43), _rand(m, 3, 44)
    X, C = H.var("X", n, m), H.var("C", m, 3)
    rb = RowBlockMatrix.from_matrix(spark, x, block_rows=BS)
    eng = SparkEngine(spark, mode)
    for expr in (H.row_sums(X**2.0), X @ C):
        got = eng(expr, {"X": rb, "C": c})
        (ref,) = execute_base([expr.hop], {"X": x, "C": c})
        assert isinstance(got, np.ndarray)
        np.testing.assert_allclose(got, ref, atol=1e-12)


def test_engine_gen_rowsums_is_one_job(spark):
    n, m = 60, 8
    x = _rand(n, m, 45)
    X = H.var("X", n, m)
    rb = RowBlockMatrix.from_matrix(spark, x, block_rows=BS).materialize()
    sc = spark.sparkContext
    sc.setJobGroup("test-rowsums", "Gen rowSums(X^2)")
    try:
        got = SparkEngine(spark, "gen")(H.row_sums(X**2.0), {"X": rb})
        jobs = sc.statusTracker().getJobIdsForGroup("test-rowsums")
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
        rb.unpersist()
    np.testing.assert_allclose(got, (x * x).sum(1, keepdims=True))
    assert len(jobs) == 1


def _count_materialize(monkeypatch) -> list:
    """(matrix, was it a pending map) per ``RowBlockMatrix.materialize``
    call."""
    calls, orig = [], RowBlockMatrix.materialize

    def materialize(m):
        calls.append((m, m.src is not None))
        return orig(m)

    monkeypatch.setattr(RowBlockMatrix, "materialize", materialize)
    return calls


@pytest.mark.parametrize("mode", ["base", "fused"])
def test_engine_rowsums_of_square_is_one_pass(spark, mode, monkeypatch):
    # X^2 has one reader, so it stays a pending map that rowSums runs in
    # its own pass over X: one job, nothing persisted
    n, m = 60, 8
    x = _rand(n, m, 50)
    X = H.var("X", n, m)
    rb = RowBlockMatrix.from_matrix(spark, x, block_rows=BS).materialize()
    calls = _count_materialize(monkeypatch)
    sc = spark.sparkContext
    sc.setJobGroup(f"test-pipelined-{mode}", f"{mode} rowSums(X^2)")
    try:
        got = SparkEngine(spark, mode)(H.row_sums(X**2.0), {"X": rb})
        jobs = sc.statusTracker().getJobIdsForGroup(f"test-pipelined-{mode}")
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
        rb.unpersist()
    np.testing.assert_allclose(got, (x * x).sum(1, keepdims=True))
    assert len(jobs) == 1
    assert calls == []


@pytest.mark.parametrize("budget", [48e6, 0.0])
@pytest.mark.parametrize("mode", ["base", "fused", "gen"])
def test_pipelining_keeps_the_bits(spark, mode, budget):
    # the same plans with every wide result persisted (an empty
    # ``pipelined`` set) give the same bits: each block runs the same
    # kernels in the same order; a zero driver budget collects nothing,
    # so the column slices are pipelined too
    from repro.core.cost import CostModel
    from repro.core.pipeline import execute_plan
    from repro.sparkdist.executor import SparkBackend

    n, m = 50, 8
    x, z = _rand(n, m, 54), _rand(n, 4, 55)
    X, Z = H.var("X", n, m), H.var("Z", n, 4)
    exprs = [
        H.row_sums(X**2.0),
        H.row_sums(H.exp(X.cols(1, 5) * 0.5) * Z),
        H.row_sums(X.cols(1, 7)),  # a view's row sums would differ in bits
    ]
    binds = {
        "X": RowBlockMatrix.from_matrix(spark, x, block_rows=BS),
        "Z": RowBlockMatrix.from_matrix(spark, z, block_rows=BS),
    }
    eng = SparkEngine(spark, mode, CostModel(local_mem_budget=budget))
    got = eng(exprs, binds)
    (plan,) = eng._plans.values()
    persisted = execute_plan(plan, binds, SparkBackend(spark, eng.cm))
    for g, p in zip(got, persisted):
        if isinstance(g, RowBlockMatrix):
            g, p = g.to_numpy(), p.to_numpy()
        np.testing.assert_array_equal(g, p)


def test_engine_persists_a_result_with_two_readers_once(spark, monkeypatch):
    n, m = 50, 6
    x = _rand(n, m, 51)
    X = H.var("X", n, m)
    Y = X * 2.0
    exprs = [H.row_sums(Y), H.col_sums(Y)]
    rb = RowBlockMatrix.from_matrix(spark, x, block_rows=BS)
    calls = _count_materialize(monkeypatch)
    got = SparkEngine(spark, "base")(exprs, {"X": rb})
    refs = execute_base([e.hop for e in exprs], {"X": x})
    for g, r in zip(got, refs):
        np.testing.assert_allclose(g, r, atol=1e-12)
    ((y, pending),) = calls  # X*2, persisted once and released after the plan
    assert pending and y.ncols == m
    assert not y.df.storageLevel.useMemory


@pytest.mark.parametrize("mode", MODES)
def test_engine_pending_result_feeds_a_bid_join(spark, mode, monkeypatch):
    # X*2 has one reader, a dist x dist cell-wise op: its pending map runs
    # inside the bid join's pass
    n, m = 45, 6
    x, z = _rand(n, m, 52), _rand(n, m, 53)
    X, Z = H.var("X", n, m), H.var("Z", n, m)
    expr = H.row_sums((X * 2.0) * Z)
    binds = {
        "X": RowBlockMatrix.from_matrix(spark, x, block_rows=BS),
        "Z": RowBlockMatrix.from_matrix(spark, z, block_rows=BS),
    }
    calls = _count_materialize(monkeypatch)
    got = SparkEngine(spark, mode)(expr, binds)
    (ref,) = execute_base([expr.hop], {"X": x, "Z": z})
    assert isinstance(got, np.ndarray)
    np.testing.assert_allclose(got, ref, atol=1e-12)
    # Base/Fused persist the join's result (not a map), never X*2
    assert not any(pending for _, pending in calls)


def test_engine_same_width_result_stays_distributed(spark):
    n, m = 50, 6
    x = _rand(n, m, 46)
    X = H.var("X", n, m)
    rb = RowBlockMatrix.from_matrix(spark, x, block_rows=BS)
    got = SparkEngine(spark, "base")(X * 2.0, {"X": rb})
    assert isinstance(got, RowBlockMatrix)
    assert got.df.storageLevel.useMemory
    np.testing.assert_allclose(got.to_numpy(), x * 2.0)
    got.unpersist()


@pytest.mark.parametrize("mode", MODES)
def test_engine_releases_its_broadcasts(spark, mode, monkeypatch):
    from pyspark import SparkContext
    from pyspark.broadcast import Broadcast

    from repro.algorithms import kmeans

    created, released = [], set()
    orig_bc, orig_unpersist = SparkContext.broadcast, Broadcast.unpersist

    def broadcast(sc, value):
        b = orig_bc(sc, value)
        created.append(b)
        return b

    def unpersist(b, *args, **kwargs):
        released.add(id(b))
        return orig_unpersist(b, *args, **kwargs)

    monkeypatch.setattr(SparkContext, "broadcast", broadcast)
    monkeypatch.setattr(Broadcast, "unpersist", unpersist)
    n, m = 90, 5
    x = _rand(n, m, 47)
    cfg = kmeans.KMeansConfig(k=3, max_iter=1)
    rb = RowBlockMatrix.from_matrix(spark, x, block_rows=BS)
    kmeans.run(SparkEngine(spark, mode), rb, cfg, init_C=x[:3].copy())
    assert created
    assert [b for b in created if id(b) not in released] == []


@pytest.mark.parametrize("mode", ["base", "fused", "gen"])
def test_engine_local_sparse_transpose_feeds_distributed_ops(spark, mode):
    # t(X) of a local CSR stays a lazy local view; a distributed
    # operator that reads it gets (or broadcasts) the CSR X.transpose()
    n, m = 40, 6
    x = _rand(n, m, 47)
    x[x < 0.6] = 0.0
    e, d = _rand(n, 3, 48), _rand(m, n, 49)
    X, E, D = H.var("X", n, m, 0.4), H.var("E", n, 3), H.var("D", m, n)
    exprs = [X.T @ E, H.sum_(X.T * D), H.row_sums(X.T * D)]
    binds = {
        "X": CSR.from_dense(x),
        "E": RowBlockMatrix.from_matrix(spark, e, block_rows=BS),
        "D": RowBlockMatrix.from_matrix(spark, d, block_rows=BS),
    }
    got = SparkEngine(spark, mode)(exprs, binds)
    refs = execute_base([expr.hop for expr in exprs], {"X": CSR.from_dense(x), "E": e, "D": d})
    for g, r in zip(got, refs):
        g = g.to_numpy() if isinstance(g, RowBlockMatrix) else g
        np.testing.assert_allclose(np.asarray(g, dtype=float), np.asarray(r, dtype=float), atol=1e-12)


# ------------------------------------- hand-coded operators, distributed
def _record_calls(monkeypatch, fn_name: str) -> list:
    """The second argument (a hop or a fused operator) of every call to
    ``repro.sparkdist.executor.<fn_name>``."""
    from repro.sparkdist import executor as dist_ex

    seen, orig = [], getattr(dist_ex, fn_name)

    def recorded(*args):
        seen.append(args[1])
        return orig(*args)

    monkeypatch.setattr(dist_ex, fn_name, recorded)
    return seen


def _fused_hand_dist(spark, monkeypatch, expr, binds, name):
    """Run ``expr`` under Fused and assert that the hand-coded operator
    ``name`` ran as one distributed pass: ``execute_dist`` got it, and
    its root never ran as a basic operator."""
    basic = _record_calls(monkeypatch, "eval_hop_hybrid")
    passes = _record_calls(monkeypatch, "execute_dist")
    got = SparkEngine(spark, "fused")(expr, binds)
    assert [op.name for op in passes] == [name]
    assert expr.hop.hid not in {h.hid for h in basic}
    return got


@pytest.mark.parametrize("y", [None, "dist", "local"])
def test_engine_fused_runs_tak_distributed(spark, monkeypatch, y):
    # sum(X^2), and sum(X*Y) with Y distributed or local and row-aligned
    n, m = 70, 8
    x, yv = _rand(n, m, 60), _rand(n, m, 61)
    X, Y = H.var("X", n, m), H.var("Y", n, m)
    expr = H.sum_(X**2.0) if y is None else H.sum_(X * Y)
    binds = {"X": RowBlockMatrix.from_matrix(spark, x, block_rows=BS)}
    if y is not None:
        binds["Y"] = yv if y == "local" else RowBlockMatrix.from_matrix(spark, yv, block_rows=BS)
    name = "tak^2" if y is None else "tak+*"
    got = _fused_hand_dist(spark, monkeypatch, expr, binds, name)
    (ref,) = execute_base([expr.hop], {"X": x, "Y": yv})
    assert np.allclose(got, ref)


@pytest.mark.parametrize("w", [None, "local", "dist"])
def test_engine_fused_runs_mmchain_distributed(spark, monkeypatch, w):
    # t(X)%*%(X%*%v) with a square X, whose v must not be row-sliced,
    # and t(X)%*%(w*(X%*%v)) with w local or distributed
    n, m = (40, 40) if w is None else (70, 8)
    x, v, wv = _rand(n, m, 62), _rand(m, 1, 63), _rand(n, 1, 64)
    X, V, W = H.var("X", n, m), H.var("v", m, 1), H.var("w", n, 1)
    expr = X.T @ (X @ V) if w is None else X.T @ (W * (X @ V))
    binds = {"X": RowBlockMatrix.from_matrix(spark, x, block_rows=BS), "v": v}
    if w is not None:
        binds["w"] = wv if w == "local" else RowBlockMatrix.from_matrix(spark, wv, block_rows=BS)
    name = "mmchain" if w is None else "mmchain*"
    got = _fused_hand_dist(spark, monkeypatch, expr, binds, name)
    (ref,) = execute_base([expr.hop], {"X": x, "v": v, "w": wv})
    assert np.allclose(got, ref)


def test_glm_fused_ships_hand_ops_without_their_driver_fn(spark, monkeypatch):
    # a profiler may wrap each HandOp.fn on the driver in a closure over
    # objects that cannot be pickled; the distributed pass ships the
    # operator without it and still runs GLM's mmchain* over the blocks
    import threading

    from repro.algorithms import glm
    from repro.algorithms.engine import Engine
    from repro.core import pipeline
    from repro.data import mldata

    lock, orig_plan = threading.Lock(), pipeline.plan_hand_fused

    def plan_hand_fused(roots):
        chosen = orig_plan(roots)
        for op in chosen.values():
            def wrapped(env, fn=op.fn):
                with lock:
                    return fn(env)

            op.fn = wrapped
        return chosen

    monkeypatch.setattr(pipeline, "plan_hand_fused", plan_hand_fused)
    passes = _record_calls(monkeypatch, "execute_dist")
    n, m = 140, 6
    x = _rand(n, m, 65)
    y01 = (mldata.binary_labels(x) > 0).astype(np.float64)
    cfg = glm.GLMConfig(max_iter=2, max_inner=2)
    ref = glm.run(Engine("base"), x, y01, cfg)["objs"]
    rb = RowBlockMatrix.from_matrix(spark, x, block_rows=BS)
    yb = RowBlockMatrix.from_matrix(spark, y01, block_rows=BS)
    got = glm.run(SparkEngine(spark, "fused"), rb, yb, cfg)["objs"]
    np.testing.assert_allclose(got, ref, rtol=1e-8)
    assert "mmchain*" in [op.name for op in passes]


# ------------------------------------------- the block pass: sides, broadcasts
def _count_broadcasts(monkeypatch) -> list:
    """The value of every ``SparkContext.broadcast`` call."""
    from pyspark import SparkContext

    values, orig = [], SparkContext.broadcast

    def broadcast(sc, value):
        values.append(value)
        return orig(sc, value)

    monkeypatch.setattr(SparkContext, "broadcast", broadcast)
    return values


@pytest.mark.parametrize("agg", ["row", "full"])
def test_fused_pass_without_local_sides_broadcasts_only_the_operator(spark, monkeypatch, agg):
    n, m = 48, 9
    x, y = _rand(n, m, 70), _rand(n, m, 71)
    X, Y = H.var("X", n, m), H.var("Y", n, m)
    expr = H.row_sums(X * Y + 1.0) if agg == "row" else H.sum_(X * Y + 1.0)
    plan, spoof, spec = _compile_single(expr)
    data = {"X": x, "Y": y}
    vals = {
        hid: RowBlockMatrix.from_matrix(spark, data[spec.input_hops[hid].name], block_rows=BS)
        for hid in spec.input_hids
    }
    values = _count_broadcasts(monkeypatch)
    out = execute_dist(spark, spoof, vals)
    assert len(values) == 1 and values[0] is spoof
    ref = x * y + 1
    if agg == "row":
        np.testing.assert_allclose(out.to_numpy(), ref.sum(1, keepdims=True))
    else:
        assert out == pytest.approx(ref.sum())


_BASIC_WITH_LOCAL = {
    # name: (operator over (distributed X, local v), its numpy reference,
    # the shape of v); X is 45×6
    "X*c": (lambda s, X, v: ops.elementwise(s, "b(*)", X, v), lambda x, v: x * v, (45, 1)),
    "r-X": (lambda s, X, v: ops.elementwise(s, "b(-)", v, X), lambda x, v: v - x, (1, 6)),
    "X%*%B": (lambda s, X, v: ops.matmult(s, X, v), lambda x, v: x @ v, (6, 3)),
    "t(X)%*%y": (
        lambda s, X, v: ops.matmult(s, ops.TransposedRBM(X), v), lambda x, v: x.T @ v, (45, 2)
    ),
    "A%*%X": (lambda s, X, v: ops.matmult(s, v, X), lambda x, v: v @ x, (3, 45)),
}


@pytest.mark.parametrize("case", list(_BASIC_WITH_LOCAL))
def test_basic_op_with_a_local_matrix_broadcasts_once(spark, monkeypatch, case):
    run, ref, shape = _BASIC_WITH_LOCAL[case]
    x, v = _rand(45, 6, 72), _rand(*shape, 73)
    X = RowBlockMatrix.from_matrix(spark, x, block_rows=BS)
    values = _count_broadcasts(monkeypatch)
    out = run(spark, X, v)
    assert len(values) == 1
    out = out.to_numpy() if isinstance(out, RowBlockMatrix) else out
    np.testing.assert_allclose(out, ref(x, v), atol=1e-12)


@pytest.mark.parametrize("mode", ["gen", "gen_fa", "gen_fnr"])
def test_fused_pass_reads_a_local_csr_side_by_rows(spark, monkeypatch, mode):
    # rowSums(X * Y) is a Row operator over X with the sparse Y as a side:
    # the pass broadcasts Y's CSR and reads each block's rows of it
    from repro.algorithms.engine import Engine

    n, m = 60, 8
    x, yd = _rand(n, m, 74), _rand(n, m, 75)
    yd[yd < 0.7] = 0.0
    X, Y = H.var("X", n, m), H.var("Y", n, m, 0.3)
    expr = H.row_sums(X * Y)
    passes = _record_calls(monkeypatch, "execute_dist")
    binds = {"X": RowBlockMatrix.from_matrix(spark, x, block_rows=BS), "Y": CSR.from_dense(yd)}
    got = SparkEngine(spark, mode)(expr, binds)
    ref = Engine(mode)(expr, {"X": x, "Y": CSR.from_dense(yd)})
    assert len(passes) == 1
    np.testing.assert_allclose(np.asarray(got), np.asarray(ref), atol=1e-12)


def test_tracer_installs_over_the_spark_runtime_and_uninstalls():
    # perfbench's tracer patches the runtime's entry points by name; a
    # renamed one makes install() fail and the traced benchmark with it
    import sys

    from pyspark import SparkContext
    from pyspark.broadcast import Broadcast

    from perfbench.tracing import Tracer
    from repro.algorithms.engine import Engine
    from repro.core.cost import PartitionCoster
    from repro.core.runtime import SpoofOp
    from repro.sparkdist import blocked, fusedexec
    from repro.sparkdist import executor as dist_ex

    owners = [m for n, m in sys.modules.items() if m is not None and n.split(".")[0] == "repro"]
    owners += [Engine, dist_ex.SparkEngine, RowBlockMatrix, SpoofOp, PartitionCoster,
               SparkContext, Broadcast]

    def state():
        return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}

    before = state()
    t = Tracer()
    try:
        t.install()
        during = state()
    finally:
        t.uninstall()
    after = state()
    patched = {key for key, v in during.items() if before.get(key) is not v}
    for owner, attr in [
        (blocked, "zip_blocks"), (blocked, "zip_reduce"), (ops, "zip_blocks"),
        (ops, "zip_reduce"), (fusedexec, "execute_dist"), (dist_ex, "execute_dist"),
        (dist_ex, "eval_hop_hybrid"), (RowBlockMatrix, "map_blocks"),
        (RowBlockMatrix, "reduce_blocks"), (RowBlockMatrix, "materialize"),
        (RowBlockMatrix, "unpersist"), (dist_ex.SparkEngine, "__call__"),
        (dist_ex.SparkEngine, "_execute_plan"), (SparkContext, "broadcast"),
    ]:
        assert (id(owner), attr) in patched, attr
    assert after.keys() == before.keys()
    assert all(after[key] is v for key, v in before.items())
