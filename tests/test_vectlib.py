"""Row/column aggregate kernels of ``vectlib``: the one implementation
that Base (``executor._eval_agg``), generated operators and Spark row
blocks all call. Min/max must equal numpy's axis-1 reduce exactly from
one column to MNIST's 784; sums may differ in rounding."""
import numpy as np
import pytest

from repro.core import vectlib as vl
from repro.core.executor import _eval_agg
from repro.lina.sparse import CSR

WIDTHS = [1, 5, 15, 16, 784]


def _matrix(n: int, m: int, layout: str):
    """Values in {-0.5, ..., 0.5} (many ties and zeros) with NaNs in a few
    rows; ``F`` is the transposed view of a C-ordered m×n array."""
    g = np.random.default_rng(m)
    a = np.round(g.random((m, n) if layout == "F" else (n, m)) - 0.5, 1)
    a = a.T if layout == "F" else a
    a[3, m // 2] = np.nan
    a[n - 1, m - 1] = np.nan
    if layout == "F":
        assert a.flags.f_contiguous and (m == 1 or not a.flags.c_contiguous)
    return CSR.from_dense(a) if layout == "CSR" else a, a


def _paths(op):
    return {"vectlib": vl.AGG[op], "executor": lambda x: _eval_agg(op, x)}


@pytest.mark.parametrize("layout", ["C", "F", "CSR"])
@pytest.mark.parametrize("m", WIDTHS)
def test_row_minmax_equal_numpy_exactly(m, layout):
    x, a = _matrix(37, m, layout)
    for op, ref in [("ua(Rmin)", np.min), ("ua(Rmax)", np.max)]:
        for path, fn in _paths(op).items():
            out = fn(x)
            assert out.shape == (37, 1), (op, path)
            np.testing.assert_array_equal(out, ref(a, axis=1, keepdims=True), err_msg=f"{op} {path}")


@pytest.mark.parametrize("layout", ["C", "F", "CSR"])
@pytest.mark.parametrize("m", WIDTHS)
def test_row_col_sums_close_to_numpy(m, layout):
    x, a = _matrix(37, m, layout)
    for op, axis in [("ua(R+)", 1), ("ua(C+)", 0)]:
        for path, fn in _paths(op).items():
            out = fn(x)
            ref = a.sum(axis=axis, keepdims=True)
            assert out.shape == ref.shape, (op, path)
            np.testing.assert_allclose(out, ref, rtol=1e-13, atol=1e-13, equal_nan=True,
                                       err_msg=f"{op} {path}")


def test_row_reduce_leaves_input_untouched():
    a = np.round(np.random.default_rng(0).random((20, 4)), 1)
    before = a.copy()
    vl.row_mins(a), vl.row_maxs(a)
    np.testing.assert_array_equal(a, before)
