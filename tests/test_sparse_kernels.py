"""The CSR kernel set (repro.lina.sparse): every scatter-add and the
transpose, checked against dense numpy and, bit for bit, against the
unbuffered ``np.add.at`` scatters and the two-key ``np.lexsort`` they
replace, and the lazy transpose ``TransposedCSR``."""
import pickle
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import hop as H
from repro.core import vectlib as vl
from repro.core.pipeline import compile_dag, execute_plan, plan_fused
from repro.core.runtime import _exec_cellwise
from repro.lina.sparse import CSR, TransposedCSR


def _holey(n=9, m=7, seed=0):
    """A sparse matrix with empty rows (0, 4) and empty columns (1, 5)."""
    g = np.random.default_rng(seed)
    a = g.random((n, m)) - 0.5
    a[g.random((n, m)) >= 0.5] = 0.0
    a[[0, 4], :] = 0.0
    a[:, [1, 5]] = 0.0
    return a


MATRICES = {
    "holey": _holey(),
    "all_zero": np.zeros((5, 4)),
    "one_by_one": np.array([[2.5]]),
    "dense": np.random.default_rng(1).random((6, 3)) + 0.1,
}


# ------------------------------------------------------------ references
def _add_at(ids, w, shape):
    out = np.zeros(shape)
    np.add.at(out, ids, w)
    return out


def _lexsort_transpose(c: CSR):
    rows = c.row_index()
    order = np.lexsort((rows, c.indices))
    indptr = np.zeros(c.shape[1] + 1, dtype=np.int64)
    np.cumsum(np.bincount(c.indices, minlength=c.shape[1]), out=indptr[1:])
    return indptr, rows[order], c.values[order]


# ----------------------------------------------------------------- tests
@pytest.mark.parametrize("name", MATRICES)
@pytest.mark.parametrize("k", [1, 2, 20])
def test_spmm(name, k):
    a = MATRICES[name]
    c = CSR.from_dense(a)
    b = np.random.default_rng(k).random((a.shape[1], k)) - 0.5
    got = c.spmm(b)
    assert got.dtype == np.float64 and got.shape == (a.shape[0], k)
    np.testing.assert_allclose(got, a @ b, atol=1e-12)
    ref = _add_at(c.row_index(), c.values[:, None] * b[c.indices], (a.shape[0], k))
    assert np.array_equal(got, ref)


@pytest.mark.parametrize("name", MATRICES)
@pytest.mark.parametrize("k", [1, 2, 20])
def test_tspmm(name, k):
    a = MATRICES[name]
    c = CSR.from_dense(a)
    b = np.random.default_rng(k).random((a.shape[0], k)) - 0.5
    got = c.tspmm(b)
    assert got.dtype == np.float64 and got.shape == (a.shape[1], k)
    np.testing.assert_allclose(got, a.T @ b, atol=1e-12)
    ref = _add_at(c.indices, c.values[:, None] * b[c.row_index()], (a.shape[1], k))
    assert np.array_equal(got, ref)


@pytest.mark.parametrize("name", MATRICES)
def test_row_and_col_sums(name):
    a = MATRICES[name]
    c = CSR.from_dense(a)
    rs, cs = c.row_sums(), c.col_sums()
    assert rs.dtype == cs.dtype == np.float64
    assert rs.shape == (a.shape[0],) and cs.shape == (a.shape[1],)
    np.testing.assert_allclose(rs, a.sum(axis=1), atol=1e-12)
    np.testing.assert_allclose(cs, a.sum(axis=0), atol=1e-12)
    assert np.array_equal(rs, _add_at(c.row_index(), c.values, a.shape[0]))
    assert np.array_equal(cs, _add_at(c.indices, c.values, a.shape[1]))


def test_sums_of_a_long_row_keep_the_scatter_order():
    # many non-zeros per output: a different summation order would show
    g = np.random.default_rng(3)
    a = (g.random((3, 5000)) - 0.5) * 10.0 ** g.integers(-8, 8, (3, 5000))
    c = CSR.from_dense(a)
    assert np.array_equal(c.row_sums(), _add_at(c.row_index(), c.values, 3))
    b = g.random((5000, 2))
    assert np.array_equal(
        c.spmm(b), _add_at(c.row_index(), c.values[:, None] * b[c.indices], (3, 2))
    )


@pytest.mark.parametrize("name", MATRICES)
def test_transpose(name):
    a = MATRICES[name]
    c = CSR.from_dense(a)
    t = c.transpose()
    assert t.shape == a.T.shape and t.values.dtype == np.float64
    np.testing.assert_array_equal(t.to_dense(), a.T)
    for got, ref in zip((t.indptr, t.indices, t.values), _lexsort_transpose(c)):
        assert got.dtype == ref.dtype and np.array_equal(got, ref)


@pytest.mark.parametrize("ncols", [65536, 65537, 200_000])
def test_transpose_wide(ncols):
    # 65536 columns is the widest matrix whose column ids fit uint16
    g = np.random.default_rng(ncols)
    rows = g.integers(0, 4, 300)
    cols = np.concatenate([g.integers(0, ncols, 298), [0, ncols - 1]])
    c = CSR.from_coo(rows, cols, g.random(300) + 0.5, (4, ncols))
    t = c.transpose()
    assert t.shape == (ncols, 4)
    for got, ref in zip((t.indptr, t.indices, t.values), _lexsort_transpose(c)):
        assert np.array_equal(got, ref)
    assert np.array_equal(t.transpose().to_dense(), c.to_dense())


@pytest.mark.parametrize("k", [1, 2, 20])
def test_outer_right_acc(k):
    g = np.random.default_rng(k)
    w = g.random(50) - 0.5
    rixv = g.integers(0, 8, 50)
    rixv[rixv == 3] = 4  # an empty output row
    v = g.random((50, k))
    out = vl.outer_right_acc(w, rixv, v, 8, k)
    assert out.dtype == np.float64 and out.shape == (8, k)
    ref = _add_at(rixv, w[:, None] * v, (8, k))
    assert np.array_equal(out, ref)
    np.testing.assert_allclose(out[3], 0.0)


def test_outer_right_acc_no_nonzeros():
    out = vl.outer_right_acc(np.zeros(0), np.zeros(0, dtype=np.int64), np.zeros((0, 3)), 4, 3)
    assert out.dtype == np.float64 and out.shape == (4, 3)
    assert not out.any()


def _row_agg_op(fn, n_sides):
    """A sparse-safe Cell operator with a row_agg variant and body ``fn``.
    The optimizer puts a sparse ``rowSums`` into the Row template, so the
    Cell skeleton's sparse row_agg path is driven directly."""
    cplan = SimpleNamespace(
        main_hid=0, side_hids=list(range(1, n_sides + 1)), n_outputs=1,
        sparse_safe=True, variant="row_agg",
    )
    return SimpleNamespace(cplan=cplan, fn=fn)


@pytest.mark.parametrize("name", MATRICES)
def test_cell_sparse_row_agg(name):
    a = MATRICES[name]
    n, m = a.shape
    y = np.random.default_rng(5).random((n, m))
    c = CSR.from_dense(a)
    got = _exec_cellwise(_row_agg_op(lambda v, b: v * b[0], 1), {0: c, 1: y})
    assert got.dtype == np.float64 and got.shape == (n, 1)
    np.testing.assert_allclose(got[:, 0], (a * y).sum(axis=1), atol=1e-12)
    rix = c.row_index()
    assert np.array_equal(got[:, 0], _add_at(rix, c.values * y[rix, c.indices], n))


@pytest.mark.parametrize("name", ["holey", "all_zero"])
def test_cell_sparse_row_agg_scalar_body(name):
    # a body that returns a scalar counts it once per non-zero
    c = CSR.from_dense(MATRICES[name])
    got = _exec_cellwise(_row_agg_op(lambda v, b: 2.0, 0), {0: c})
    assert got.dtype == np.float64 and got.shape == (c.shape[0], 1)
    np.testing.assert_array_equal(got[:, 0], 2.0 * c.row_nnz())


@pytest.mark.parametrize("k", [1, 2, 20])
def test_outer_right_acc_reads_v_by_column_ids(k):
    # V with the column ids gives the bits of the nnz×k gather V[cix]
    g = np.random.default_rng(k)
    w = g.random(60) - 0.5
    rixv, cixv = np.sort(g.integers(0, 8, 60)), g.integers(0, 11, 60)
    v = g.random((11, k)) - 0.5
    out = vl.outer_right_acc(w, rixv, v, 8, k, cixv)
    assert out.dtype == np.float64 and out.shape == (8, k)
    assert np.array_equal(out, vl.outer_right_acc(w, rixv, v[cixv], 8, k))


# ------------------------------------------------- lazy transpose (t(X))
@pytest.mark.parametrize("name", MATRICES)
@pytest.mark.parametrize("k", [1, 2, 20])
def test_transposed_view_matmults_build_nothing(name, k):
    c = CSR.from_dense(MATRICES[name])
    n, m = c.shape
    g = np.random.default_rng(k)
    b, a = g.random((n, k)) - 0.5, g.random((k, m)) - 0.5
    t, ref = TransposedCSR(c), c.transpose()
    got = t.spmm(b)  # Xᵀ B
    assert got.dtype == np.float64 and got.shape == (m, k)
    assert np.array_equal(got, ref.spmm(b))
    got = t.tspmm(a.T).T  # A Xᵀ
    assert got.shape == (k, n)
    assert np.array_equal(got, ref.tspmm(a.T).T)
    assert t.shape == (m, n) and "built" not in vars(t)


@pytest.mark.parametrize("name", MATRICES)
def test_transposed_view_builds_the_transpose_once(name, monkeypatch):
    c = CSR.from_dense(MATRICES[name])
    ref = c.transpose()
    calls = []
    orig = CSR.transpose
    monkeypatch.setattr(CSR, "transpose", lambda self: calls.append(1) or orig(self))
    t = TransposedCSR(c)
    for got, want in zip((t.indptr, t.indices, t.values), (ref.indptr, ref.indices, ref.values)):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    np.testing.assert_array_equal(t.to_dense(), MATRICES[name].T)
    assert np.array_equal(t.col_sums(), ref.col_sums())
    assert len(calls) == 1


def test_transposed_view_pickles_as_plain_csr():
    c = CSR.from_dense(MATRICES["holey"])
    back = pickle.loads(pickle.dumps(TransposedCSR(c)))
    assert type(back) is CSR
    ref = c.transpose()
    for got, want in zip((back.indptr, back.indices, back.values), (ref.indptr, ref.indices, ref.values)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("plan", ["fused", "gen"])
def test_outer_right_mm_keeps_the_gather_bits(plan):
    # wdivmm (Fused) and the Outer right_mm skeleton (Gen) against the
    # scatter of the nnz×k gather V[cix] they used to build
    g = np.random.default_rng(9)
    x = g.random((40, 30))
    x[x < 0.8] = 0.0
    u, v = g.random((40, 20)) - 0.5, g.random((30, 20)) - 0.5
    X, U, V = H.var("X", 40, 30, 0.2), H.var("U", 40, 20), H.var("V", 30, 20)
    roots = [(((X != 0) * (U @ V.T)) @ V).hop]
    compiled = plan_fused(roots) if plan == "fused" else compile_dag(roots)
    assert compiled.n_fused == 1
    c = CSR.from_dense(x)
    (got,) = execute_plan(compiled, {"X": c, "U": u, "V": v})
    rix, cix = c.row_index(), c.indices
    w = np.einsum("ij,ij->i", u[rix], v[cix]) * (c.values != 0)
    assert np.array_equal(got, _add_at(rix, w[:, None] * v[cix], (40, 20)))
