"""All six Table-2 algorithms must produce (numerically) identical results
under every execution mode: Base, Fused, Gen, Gen-FA, Gen-FNR."""
import numpy as np
import pytest

from repro.algorithms import als_cg, autoencoder, glm, kmeans, l2svm, mlogreg
from repro.algorithms.engine import MODES, Engine
from repro.data import mldata
from repro.lina.sparse import CSR

RTOL = 1e-6


def _traces_close(traces: dict[str, list[float]]):
    ref = traces["base"]
    for mode, t in traces.items():
        assert len(t) == len(ref), f"{mode}: {len(t)} vs {len(ref)} iters"
        np.testing.assert_allclose(t, ref, rtol=RTOL, err_msg=mode)


@pytest.mark.parametrize("sparse", [False, True])
def test_l2svm_all_modes(sparse):
    n, m = 400, 20
    X = (
        mldata.sparse_features(n, m, 0.2, seed=1)
        if sparse
        else mldata.dense_features(n, m, seed=1)
    )
    y = mldata.binary_labels(X)
    cfg = l2svm.L2SVMConfig(max_iter=5)
    traces = {
        mode: l2svm.run(Engine(mode), X, y, cfg)["objs"] for mode in MODES
    }
    _traces_close(traces)
    # sanity: the objective must decrease
    assert traces["base"][-1] < traces["base"][0]


@pytest.mark.parametrize("k", [2, 5])
def test_mlogreg_all_modes(k):
    n, m = 300, 15
    X = mldata.dense_features(n, m, seed=2)
    Y = mldata.onehot_labels(n, k, seed=3)[:, : k - 1]
    cfg = mlogreg.MLogregConfig(k=k, max_iter=3, max_inner=3)
    traces = {
        mode: mlogreg.run(Engine(mode), X, Y, cfg)["objs"] for mode in MODES
    }
    _traces_close(traces)


def test_glm_all_modes():
    n, m = 300, 12
    X = mldata.dense_features(n, m, seed=4)
    y = (mldata.binary_labels(X) > 0).astype(np.float64)
    cfg = glm.GLMConfig(max_iter=3, max_inner=4)
    traces = {mode: glm.run(Engine(mode), X, y, cfg)["objs"] for mode in MODES}
    _traces_close(traces)
    assert traces["base"][-1] < traces["base"][0]


@pytest.mark.parametrize("sparse", [False, True])
def test_kmeans_all_modes(sparse):
    n, m = 500, 10
    X = (
        mldata.sparse_features(n, m, 0.3, seed=5)
        if sparse
        else mldata.dense_features(n, m, seed=5)
    )
    cfg = kmeans.KMeansConfig(k=5, max_iter=5)
    traces = {mode: kmeans.run(Engine(mode), X, cfg)["objs"] for mode in MODES}
    _traces_close(traces)
    assert traces["base"][-1] <= traces["base"][0]


def test_als_cg_all_modes():
    X = mldata.netflix_like(n=300, m=200, seed=6)
    cfg = als_cg.ALSCGConfig(rank=4, max_iter=3, max_inner=2)
    traces = {
        mode: als_cg.run(Engine(mode), X, cfg)["losses"] for mode in MODES
    }
    _traces_close(traces)
    assert traces["base"][-1] < traces["base"][0]


def test_autoencoder_all_modes():
    # h1 = 16 keeps the layer products below the Row template's skinny-side
    # bound (64 columns), h1 = 64 on 100 columns puts them above it
    for m, h1 in ((30, 16), (100, 64)):
        X = mldata.dense_features(256, m, seed=7)
        cfg = autoencoder.AutoEncoderConfig(h1=h1, h2=2, batch=64, epochs=1)
        traces = {
            mode: autoencoder.run(Engine(mode), X, cfg)["losses"] for mode in MODES
        }
        _traces_close(traces)


def test_autoencoder_fa_fuses_no_wide_side_multiply():
    """FA must not recompute a layer product per row block: a Row operator
    multiplies by a whole side matrix only if it has fewer than 64 columns
    (SystemML's skinny right-hand side); ``t(X) %*% Y`` reads Y by rows."""
    X = mldata.mnist_like(300, seed=10).to_dense()
    e = Engine("gen_fa")
    autoencoder.run(e, X, autoencoder.AutoEncoderConfig(h1=100, h2=2, batch=128))
    rows = [s for p in e._plans.values() for s in p.specs if s.template == "R"]
    assert rows
    for s in rows:
        for h in s.covered.values():
            if h.op == "ba(+*)" and h.inputs[0].op != "t":
                assert h.inputs[1].ncols < 64, (h, s.n_covered)


def test_gen_actually_fuses_each_algorithm():
    """The Gen engine must produce fused operators for every algorithm."""
    runs = {}
    e = Engine("gen")
    X = mldata.dense_features(300, 12, seed=8)
    l2svm.run(e, X, mldata.binary_labels(X), l2svm.L2SVMConfig(max_iter=2))
    runs["l2svm"] = e
    e = Engine("gen")
    als_cg.run(e, mldata.netflix_like(300, 200), als_cg.ALSCGConfig(rank=4, max_iter=2, max_inner=1))
    runs["als"] = e
    for name, eng in runs.items():
        fused = sum(p.n_fused for p in eng._plans.values())
        assert fused > 0, f"{name}: no fused operators generated"
        assert eng.ctx.stats.n_dags >= 1


def test_als_gen_uses_outer_template():
    e = Engine("gen")
    als_cg.run(
        e, mldata.netflix_like(300, 200), als_cg.ALSCGConfig(rank=4, max_iter=1, max_inner=1)
    )
    tpls = {
        s.template
        for p in e._plans.values()
        for s in p.specs
        if s.template
    }
    assert "O" in tpls, f"no Outer template used: {tpls}"


def test_plan_cache_reused_across_iterations():
    e = Engine("gen")
    X = mldata.dense_features(400, 10, seed=9)
    l2svm.run(e, X, mldata.binary_labels(X), l2svm.L2SVMConfig(max_iter=6))
    # 2 distinct DAG structures; 6 outer iterations each -> compiled twice
    assert e.ctx.stats.n_dags == 2
    assert len(e._plans) == 2


# ----------------------------------------------------- Table 2 configurations
def test_table2_configurations():
    assert l2svm.L2SVMConfig().lam == 1e-3
    assert l2svm.L2SVMConfig().max_iter == 20
    assert mlogreg.MLogregConfig().k in (2, 5)
    assert glm.GLMConfig().max_iter == 20
    assert kmeans.KMeansConfig().k == 5 and kmeans.KMeansConfig().runs == 1
    assert als_cg.ALSCGConfig().rank == 20
    ae = autoencoder.AutoEncoderConfig()
    assert ae.batch == 512 and ae.h1 == 500 and ae.h2 == 2


# ------------------------------------------------------ what runs is costed
def _small_table2_runs() -> dict:
    X = mldata.mnist_like(300, seed=10)
    Xd = X.to_dense()
    y = mldata.binary_labels(X)
    return {
        "L2SVM": lambda e: l2svm.run(e, X, y, l2svm.L2SVMConfig(max_iter=1)),
        "MLogreg": lambda e: mlogreg.run(
            e, X, mldata.onehot_labels(300, 2, seed=11)[:, :1],
            mlogreg.MLogregConfig(k=2, max_iter=1, max_inner=1)),
        "GLM": lambda e: glm.run(
            e, X, (y > 0).astype(np.float64), glm.GLMConfig(max_iter=1, max_inner=1)),
        "KMeans": lambda e: kmeans.run(e, Xd, kmeans.KMeansConfig(k=5, max_iter=1)),
        "ALS-CG": lambda e: als_cg.run(
            e, mldata.netflix_like(300, 200, seed=12),
            als_cg.ALSCGConfig(rank=4, max_iter=1, max_inner=1)),
        "AutoEncoder": lambda e: autoencoder.run(
            e, Xd[:256], autoencoder.AutoEncoderConfig(h1=50, h2=2, batch=128)),
    }


@pytest.mark.parametrize("mode", ["gen", "gen_fa", "gen_fnr"])
@pytest.mark.parametrize("algo", list(_small_table2_runs()))
def test_no_fallback_to_basic_ops(algo, mode):
    """Every fused operator selection picks must compile: the optimizer
    runs exactly the plan it costed, with no basic-op fallback."""
    e = Engine(mode)
    _small_table2_runs()[algo](e)
    assert e.ctx.stats.n_dags >= 1
    for plan in e._plans.values():
        assert sorted(map(id, plan.specs)) == sorted(map(id, plan.selection.specs))
        assert set(plan.spoofs) == {s.root.hid for s in plan.specs if s.template}
