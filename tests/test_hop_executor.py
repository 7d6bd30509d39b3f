"""HOP DAG construction, size/sparsity inference, and the Base interpreter."""
import numpy as np
import pytest

from repro.algorithms import glm, l2svm, mlogreg
from repro.algorithms.engine import Engine
from repro.core import executor as ex
from repro.core import hop as H
from repro.core.executor import execute_base, execute_single
from repro.core.pipeline import compile_dag, execute_plan, plan_fused
from repro.data import mldata
from repro.lina.compressed import CLAMatrix
from repro.lina.sparse import CSR, TransposedCSR


def _rand(n, m, seed=0):
    return np.random.default_rng(seed).random((n, m))


# ------------------------------------------------------------ shape inference
def test_shapes_edsl():
    X = H.var("X", 100, 10)
    v = H.var("v", 10, 1)
    assert (X @ v).shape == (100, 1)
    assert (X.T @ (X @ v)).shape == (10, 1)
    assert H.row_sums(X).shape == (100, 1)
    assert H.col_sums(X).shape == (1, 10)
    assert H.sum_(X).shape == (1, 1)
    assert (X * 2.0).shape == (100, 10)
    assert X.T.shape == (10, 100)
    assert X.cols(1, 4).shape == (100, 3)


def test_shape_mismatch_raises():
    X = H.var("X", 100, 10)
    with pytest.raises(AssertionError):
        _ = X @ X


def test_sparsity_inference():
    X = H.var("X", 100, 100, sparsity=0.1)
    Y = H.var("Y", 100, 100, sparsity=0.5)
    assert (X * Y).hop.sparsity == pytest.approx(0.05)
    assert (X + Y).hop.sparsity == pytest.approx(0.6)
    assert (X != 0).hop.sparsity == pytest.approx(0.1)
    assert H.exp(X).hop.sparsity == 1.0  # exp(0) != 0
    assert H.sqrt(X).hop.sparsity == pytest.approx(0.1)
    assert X.T.hop.sparsity == pytest.approx(0.1)


def test_memory_estimate_dense_vs_sparse():
    dense = H.var("D", 1000, 1000, sparsity=1.0).hop.memory_bytes()
    sparse = H.var("S", 1000, 1000, sparsity=0.01).hop.memory_bytes()
    assert dense == 8e6
    assert sparse < dense / 10


def test_postorder_visits_once():
    X = H.var("X", 10, 10)
    s = X * X  # same node consumed twice
    order = H.postorder([s.hop])
    assert len(order) == 2  # leaf + b(*)
    cons = H.consumers([s.hop])
    assert len(cons[X.hop.hid]) == 2


# ---------------------------------------------------------------- Base interp
@pytest.mark.parametrize(
    "op,npf",
    [("b(+)", np.add), ("b(-)", np.subtract), ("b(*)", np.multiply),
     ("b(/)", np.divide), ("b(min)", np.minimum), ("b(max)", np.maximum)],
)
def test_binary_dense(op, npf):
    a, b = _rand(7, 5, 1), _rand(7, 5, 2) + 0.1
    X, Y = H.var("X", 7, 5), H.var("Y", 7, 5)
    out = execute_single(H.Expr(H.binop(op, X.hop, Y.hop)), {"X": a, "Y": b})
    np.testing.assert_allclose(out, npf(a, b))


@pytest.mark.parametrize(
    "fn,npf",
    [(H.exp, np.exp), (H.log, np.log), (H.sqrt, np.sqrt), (H.abs_, np.abs),
     (H.sigmoid, lambda x: 1 / (1 + np.exp(-x)))],
)
def test_unary_dense(fn, npf):
    a = _rand(7, 5, 3) + 0.2
    out = execute_single(fn(H.var("X", 7, 5)), {"X": a})
    np.testing.assert_allclose(out, npf(a))


def test_broadcast_col_and_row_vectors():
    a = _rand(6, 4, 4)
    c = _rand(6, 1, 5)
    r = _rand(1, 4, 6)
    X, Cv, Rv = H.var("X", 6, 4), H.var("C", 6, 1), H.var("R", 1, 4)
    np.testing.assert_allclose(execute_single(X * Cv, {"X": a, "C": c}), a * c)
    np.testing.assert_allclose(execute_single(X - Rv, {"X": a, "R": r}), a - r)


def test_scalar_broadcast_and_literals():
    a = _rand(5, 5, 7)
    X = H.var("X", 5, 5)
    np.testing.assert_allclose(execute_single(1.0 - 2.0 * X, {"X": a}), 1 - 2 * a)
    np.testing.assert_allclose(execute_single(X**2.0, {"X": a}), a**2)


@pytest.mark.parametrize("aggfn,npf", [
    (H.sum_, lambda a: a.sum()),
    (H.row_sums, lambda a: a.sum(axis=1, keepdims=True)),
    (H.col_sums, lambda a: a.sum(axis=0, keepdims=True)),
    (H.row_maxs, lambda a: a.max(axis=1, keepdims=True)),
    (H.row_imins, lambda a: (a.argmin(axis=1) + 1.0).reshape(-1, 1)),
    (H.max_, lambda a: a.max()),
])
def test_aggregations(aggfn, npf):
    a = _rand(9, 6, 8)
    out = execute_single(aggfn(H.var("X", 9, 6)), {"X": a})
    np.testing.assert_allclose(out, npf(a))


def test_matmult_chain():
    x, v = _rand(20, 8, 9), _rand(8, 1, 10)
    X, V = H.var("X", 20, 8), H.var("v", 8, 1)
    out = execute_single(X.T @ (X @ V), {"X": x, "v": v})
    np.testing.assert_allclose(out, x.T @ (x @ v))


def test_rix():
    a = _rand(6, 8, 11)
    out = execute_single(H.var("X", 6, 8).cols(2, 5), {"X": a})
    np.testing.assert_allclose(out, a[:, 2:5])


def test_transpose_roundtrip():
    a = _rand(4, 9, 12)
    out = execute_single(H.var("X", 4, 9).T.T, {"X": a})
    np.testing.assert_allclose(out, a)


def test_multi_root_with_cse():
    a = _rand(10, 10, 13)
    X = H.var("X", 10, 10)
    sq = X * X
    r1, r2 = H.sum_(sq), H.row_sums(sq)
    out1, out2 = execute_base([r1.hop, r2.hop], {"X": a})
    np.testing.assert_allclose(out1, (a * a).sum())
    np.testing.assert_allclose(out2, (a * a).sum(axis=1, keepdims=True))


def test_unbound_leaf_raises():
    with pytest.raises(KeyError):
        execute_single(H.var("nope", 2, 2), {})


# ----------------------------------------------------------------- sparse path
def _sparse_case(seed=20):
    g = np.random.default_rng(seed)
    a = g.random((30, 20))
    a[g.random((30, 20)) >= 0.2] = 0.0
    return a


def test_sparse_elementwise_chain_stays_sparse():
    a = _sparse_case()
    d = _rand(30, 20, 21)
    X, D = H.var("X", 30, 20, 0.2), H.var("D", 30, 20)
    out = execute_single(H.sum_((X != 0) * D), {"X": CSR.from_dense(a), "D": d})
    np.testing.assert_allclose(out, ((a != 0) * d).sum())


def test_sparse_matmult():
    a = _sparse_case(22)
    v = _rand(20, 1, 23)
    X, V = H.var("X", 30, 20, 0.2), H.var("v", 20, 1)
    out = execute_single(X @ V, {"X": CSR.from_dense(a), "v": v})
    np.testing.assert_allclose(out, a @ v)


def test_dense_times_sparse_mm():
    a = _sparse_case(24)
    d = _rand(7, 30, 25)
    D, X = H.var("D", 7, 30), H.var("X", 30, 20, 0.2)
    out = execute_single(D @ X, {"D": d, "X": CSR.from_dense(a)})
    np.testing.assert_allclose(out, d @ a)


def test_als_expression_sparse_matches_dense():
    """Eq. (1): O = ((X != 0) * (U @ Vᵀ)) @ V + 1e-6 * U * r"""
    x = _sparse_case(26)
    u, v = _rand(30, 4, 27), _rand(20, 4, 28)
    r = _rand(30, 1, 29)
    X = H.var("X", 30, 20, 0.2)
    U, V, R = H.var("U", 30, 4), H.var("V", 20, 4), H.var("r", 30, 1)
    expr = ((X != 0) * (U @ V.T)) @ V + 1e-6 * U * R
    ref = ((x != 0) * (u @ v.T)) @ v + 1e-6 * u * r
    out_s = execute_single(expr, {"X": CSR.from_dense(x), "U": u, "V": v, "r": r})
    out_d = execute_single(expr, {"X": x, "U": u, "V": v, "r": r})
    np.testing.assert_allclose(out_s, ref, atol=1e-10)
    np.testing.assert_allclose(out_d, ref, atol=1e-10)


# ------------------------------------------------------------- compressed path
def test_compressed_sum_and_colsums():
    a = np.round(_rand(50, 4, 30), 1)  # low cardinality
    C = CLAMatrix.compress(a)
    X = H.var("X", 50, 4)
    np.testing.assert_allclose(execute_single(H.sum_(X), {"X": C}), a.sum())
    np.testing.assert_allclose(
        execute_single(H.col_sums(X), {"X": C}), a.sum(0, keepdims=True)
    )


def test_compressed_decompress_on_general_op():
    a = np.round(_rand(50, 4, 31), 1)
    C = CLAMatrix.compress(a)
    X = H.var("X", 50, 4)
    np.testing.assert_allclose(execute_single(H.exp(X), {"X": C}), np.exp(a))


# ------------------------------------------------------ ^2 strength reduction
def _pow_cases():
    from repro.core import vectlib as vl
    from repro.core.executor import _eval_binary

    return {
        "vectlib": vl.pow_,
        "executor": lambda x, y: _eval_binary("b(^)", x, y),
    }


@pytest.mark.parametrize("path", ["vectlib", "executor"])
@pytest.mark.parametrize("exponent", [2.0, 2, np.array([[2.0]]), 3.0, 0.5])
def test_pow_matches_np_power_dense(path, exponent):
    x = _rand(64, 7, 40)
    out = _pow_cases()[path](x, exponent)
    assert isinstance(out, np.ndarray) and out.shape == x.shape
    np.testing.assert_allclose(out, np.power(x, exponent), rtol=1e-15, atol=0)
    if float(np.ravel(exponent)[0]) == 2.0:
        assert np.array_equal(out, x * x)  # strength-reduced


@pytest.mark.parametrize("path", ["vectlib", "executor"])
@pytest.mark.parametrize("exponent", [2.0, 3.0])
def test_pow_matches_np_power_csr(path, exponent):
    a = _rand(50, 9, 41)
    a[a < 0.7] = 0.0
    out = _pow_cases()[path](CSR.from_dense(a), exponent)
    assert isinstance(out, CSR) and out.shape == a.shape
    np.testing.assert_allclose(out.to_dense(), np.power(a, exponent), rtol=1e-15, atol=0)
    if exponent == 2.0:
        assert np.array_equal(out.to_dense(), a * a)  # strength-reduced


def test_pow_scalar_operands_keep_their_shape():
    from repro.core import vectlib as vl

    assert vl.power(3.0, 2.0) == 9.0
    assert np.shape(vl.power(3.0, np.array([[2.0]]))) == (1, 1)


# ------------------------------------------------- transpose folded into mm
def test_base_transpose_is_a_view_folded_into_matmult():
    x, y = _rand(300, 10, 50), _rand(300, 1, 51)
    X, Y = H.var("X", 300, 10), H.var("y", 300, 1)
    tx_val, out = execute_base([X.T.hop, (X.T @ Y).hop], {"X": x, "y": y})
    assert np.shares_memory(tx_val, x)  # t(X) is never copied
    assert np.array_equal(out, x.T @ y)


def test_base_transpose_of_csr_stays_csr():
    a = _rand(40, 6, 52)
    a[a < 0.6] = 0.0
    X = H.var("X", 40, 6, sparsity=0.4)
    out = execute_single(X.T, {"X": CSR.from_dense(a)})
    assert isinstance(out, CSR)
    np.testing.assert_array_equal(out.to_dense(), a.T)


# --------------------------------- sparse t(X): a lazy view folded into mm
def _count_transposes(monkeypatch) -> list:
    calls = []
    orig = CSR.transpose
    monkeypatch.setattr(CSR, "transpose", lambda self: calls.append(1) or orig(self))
    return calls


def _explicit(roots, bindings):
    """Base with every sparse t(X) materialized by ``CSR.transpose``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ex, "TransposedCSR", CSR.transpose)
        return execute_base(roots, bindings)


def _assert_same(got, ref):
    if isinstance(ref, CSR):
        assert isinstance(got, CSR) and got.shape == ref.shape
        for g, r in zip((got.indptr, got.indices, got.values), (ref.indptr, ref.indices, ref.values)):
            assert g.dtype == r.dtype and np.array_equal(g, r)
    else:
        assert np.asarray(got).dtype == np.asarray(ref).dtype
        assert np.array_equal(got, ref)


@pytest.mark.parametrize("zero", [False, True])
@pytest.mark.parametrize("k", [1, 2, 20])
def test_sparse_transpose_folds_into_matmult(k, zero, monkeypatch):
    a = np.zeros((30, 20)) if zero else _sparse_case(60)
    b, l = _rand(30, k, 61), _rand(k, 20, 62)
    X, B, L = H.var("X", 30, 20, 0.2), H.var("B", 30, k), H.var("L", k, 20)
    roots = [(X.T @ B).hop, (L @ X.T).hop]
    binds = {"X": CSR.from_dense(a), "B": b, "L": l}
    calls = _count_transposes(monkeypatch)
    got = execute_base(roots, binds)
    assert not calls
    for g, r in zip(got, _explicit(roots, binds)):
        _assert_same(g, r)
    assert got[0].shape == (20, k) and got[1].shape == (k, 30)
    if zero:
        assert got[0].dtype == np.float64 and not got[0].any() and not got[1].any()


@pytest.mark.parametrize("use", ["root", "col_sums", "times_2", "mm_and_col_sums"])
def test_sparse_transpose_other_consumers_get_the_csr(use, monkeypatch):
    a = _sparse_case(63)
    X, y = H.var("X", 30, 20, 0.2), H.var("y", 30, 1)
    exprs = {
        "root": [X.T],
        "col_sums": [H.col_sums(X.T)],
        "times_2": [X.T * 2.0],
        "mm_and_col_sums": [X.T @ y, H.col_sums(X.T)],
    }[use]
    roots = [e.hop for e in exprs]
    binds = {"X": CSR.from_dense(a), "y": _rand(30, 1, 64)}
    xt = binds["X"].transpose()
    calls = _count_transposes(monkeypatch)
    got = execute_base(roots, binds)
    if use == "root":
        _assert_same(got[0], xt)
    assert len(calls) == 1  # built once, for the consumer that is no matmult
    for g, r in zip(got, _explicit(roots, binds)):
        _assert_same(g, r)


@pytest.mark.parametrize("mode", ["base", "fused"])
@pytest.mark.parametrize("algo", ["l2svm", "glm", "mlogreg"])
def test_sparse_algorithms_build_no_transpose(algo, mode, monkeypatch):
    X = mldata.sparse_features(200, 30, 0.2, seed=65)
    y = mldata.binary_labels(X)
    run = {
        "l2svm": lambda: l2svm.run(Engine(mode), X, y, l2svm.L2SVMConfig(max_iter=1)),
        "glm": lambda: glm.run(
            Engine(mode), X, (y > 0).astype(np.float64), glm.GLMConfig(max_iter=1, max_inner=1)),
        "mlogreg": lambda: mlogreg.run(
            Engine(mode), X, mldata.onehot_labels(200, 2, seed=66)[:, :1],
            mlogreg.MLogregConfig(k=2, max_iter=1, max_inner=1)),
    }[algo]
    calls = _count_transposes(monkeypatch)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ex, "TransposedCSR", CSR.transpose)
        ref = run()
    assert calls  # the algorithm does run a sparse t(X)
    calls.clear()
    got = run()
    assert not calls
    assert got.keys() == ref.keys()
    for key in ref:
        assert np.array_equal(np.asarray(got[key]), np.asarray(ref[key])), key


@pytest.mark.parametrize("plan", ["fused", "gen"])
def test_fused_operators_read_a_transposed_view_as_its_csr(plan):
    # hand-coded (tak+*) and generated operators over a TransposedCSR input
    c = CSR.from_dense(_sparse_case(67))
    Z, D = H.var("Z", 20, 30, 0.2), H.var("D", 20, 30)
    roots = [H.sum_(Z * D).hop, H.row_sums(Z * D).hop]
    compiled = plan_fused(roots) if plan == "fused" else compile_dag(roots)
    assert compiled.n_fused >= 1
    d = _rand(20, 30, 68)
    got = execute_plan(compiled, {"Z": TransposedCSR(c), "D": d})
    ref = execute_plan(compiled, {"Z": c.transpose(), "D": d})
    for g, r in zip(got, ref):
        _assert_same(g, r)
