"""The one library of vector primitives and the op-to-kernel tables.

Mirrors the paper's library of vector primitives (dotProduct,
vectMultAdd, vectMatMult, ...): generated code calls these named
primitives instead of inlining their bodies, which keeps generated
sources tiny (the §5.2 'instruction footprint' design point) and gives
one code path for dense and sparse row blocks — each primitive
dispatches on :class:`CSR` vs ``ndarray``, the closest Python analogue
of the paper's genexecDense/genexecSparse pair. ``BINARY``, ``UNARY``
and ``AGG`` map each cell-wise and aggregate op to its kernel, and
``COMBINE`` maps an aggregate function to the combine of its partials;
Base's basic operators (``executor``), generated operators (``codegen``
emits calls by the kernels' names), the skeletons and Spark's row
blocks all read these tables, so each op's dense/sparse semantics is
written once.
"""
from __future__ import annotations

import numpy as np

from repro.core.hop import sparse_safe
from repro.lina.compressed import CLAMatrix
from repro.lina.sparse import CSR, scatter_mm


def _dense(x):
    """A CSR or CLA operand as a dense array; anything else as is."""
    if isinstance(x, CSR):
        return x.to_dense()
    if isinstance(x, CLAMatrix):
        return x.decompress()
    return x


# ----------------------------------------------------------- element-wise
def add(x, y): return np.add(_dense(x), _dense(y))
def sub(x, y): return np.subtract(_dense(x), _dense(y))
def mul(x, y):
    """``x * y``; a CSR operand stays sparse when the other one is a
    scalar, a 1×1 or of its shape (a CSR too)."""
    if isinstance(y, CSR) and not isinstance(x, CSR):
        x, y = y, x
    if isinstance(x, CSR):
        d = np.asarray(_dense(y))
        if d.shape == x.shape:
            return x.mult_dense(d)
        if d.size == 1:
            return x.scale_values(lambda v: v * float(np.ravel(d)[0]))
    return np.multiply(_dense(x), _dense(y))
def div(x, y): return np.divide(_dense(x), _dense(y))
def power(x, y):
    """Dense ``x ** y``. An exponent of 2 (a scalar or a size-1 array) is
    strength-reduced to ``x * x``, which equals ``np.power`` up to the
    last ULP and is ~30x faster; the result keeps the broadcast shape."""
    if np.size(y) == 1 and float(np.ravel(y)[0]) == 2.0:
        sq = np.multiply(x, x)
        if np.ndim(y) <= np.ndim(x):
            return sq
        return np.reshape(sq, np.broadcast_shapes(np.shape(x), np.shape(y)))
    return np.power(x, y)
def pow_(x, y):
    if isinstance(x, CSR) and np.isscalar(y) and sparse_safe("b(^)", float(y)):
        return x.scale_values(lambda v: power(v, float(y)))
    return power(_dense(x), _dense(y))
def min_(x, y): return np.minimum(_dense(x), _dense(y))
def max_(x, y): return np.maximum(_dense(x), _dense(y))
def neq(x, y):
    if isinstance(x, CSR) and np.isscalar(y) and sparse_safe("b(!=)", float(y)):
        return x.scale_values(lambda v: (v != 0).astype(np.float64))
    return (np.not_equal(_dense(x), _dense(y))).astype(np.float64)
def eq(x, y): return (np.equal(_dense(x), _dense(y))).astype(np.float64)
def gt(x, y): return (np.greater(_dense(x), _dense(y))).astype(np.float64)
def lt(x, y): return (np.less(_dense(x), _dense(y))).astype(np.float64)
def ge(x, y): return (np.greater_equal(_dense(x), _dense(y))).astype(np.float64)
def le(x, y): return (np.less_equal(_dense(x), _dense(y))).astype(np.float64)

# --------------------------------------------------------------- unaries
def exp(x): return np.exp(_dense(x))
def log(x): return np.log(_dense(x))
def sqrt(x):
    return x.scale_values(np.sqrt) if isinstance(x, CSR) else np.sqrt(x)
def abs_(x):
    return x.scale_values(np.abs) if isinstance(x, CSR) else np.abs(x)
def sign(x):
    return x.scale_values(np.sign) if isinstance(x, CSR) else np.sign(x)
def neg(x):
    return x.scale_values(np.negative) if isinstance(x, CSR) else np.negative(x)
def sigmoid(x): return 1.0 / (1.0 + np.exp(-_dense(x)))

# One kernel per cell-wise op, shared by Base (``executor``), generated
# operators (``codegen`` emits calls to them by name) and Spark's row
# blocks (``sparkdist.ops``).
BINARY = {
    "b(+)": add, "b(-)": sub, "b(*)": mul, "b(/)": div, "b(^)": pow_,
    "b(min)": min_, "b(max)": max_, "b(!=)": neq, "b(==)": eq, "b(>)": gt,
    "b(<)": lt, "b(>=)": ge, "b(<=)": le,
}
UNARY = {
    "u(exp)": exp, "u(log)": log, "u(sqrt)": sqrt, "u(abs)": abs_,
    "u(sign)": sign, "u(-)": neg, "u(sigmoid)": sigmoid,
}

# ------------------------------------------------------- row-block algebra
def mm(x, y):
    """Matrix multiply, for a dense or CSR operand on either side: a CSR
    ``y`` runs as ``(yᵀ xᵀ)ᵀ``, with no dense copy of it."""
    if isinstance(x, CSR):
        return x.spmm(_dense(y))
    if isinstance(y, CSR):
        return y.tspmm(_dense(x).T).T
    return _dense(x) @ _dense(y)


def tmm_acc(a, y):
    """aᵀ @ y for one row block — the per-block partial of the Row
    template's col_agg_t variant (vectOuterMultAdd across rows)."""
    if isinstance(a, CSR):
        return a.tspmm(_dense(y))
    return a.T @ _dense(y)


def _gemv_ok(x) -> bool:
    """A float64 matrix with >= 2 columns: row/column sums as BLAS gemv
    against a ones vector (~7x faster than numpy's strided axis sums on
    narrow matrices; one column is faster as a plain sum)."""
    return x.dtype == np.float64 and x.ndim == 2 and x.shape[1] > 1


def row_sums(x):
    if isinstance(x, CSR):
        return x.row_sums().reshape(-1, 1)
    if _gemv_ok(x):
        return (x @ np.ones(x.shape[1])).reshape(-1, 1)
    return x.sum(axis=1, keepdims=True)


def col_sums(x):
    if isinstance(x, CSR):
        return x.col_sums().reshape(1, -1)
    if _gemv_ok(x):
        return (np.ones(x.shape[0]) @ x).reshape(1, -1)
    return x.sum(axis=0, keepdims=True)


def _row_reduce(fn, x):
    """``fn.reduce(x, axis=1)`` as an n×1 column, bit-identical to it, run
    as a loop of ``fn`` over columns: ~5x faster than numpy's axis-1 reduce
    on the narrow matrices the algorithms reduce (KMeans' n×k distances),
    but ~15x slower at 784 columns, a width no algorithm here reduces."""
    x = _dense(x)
    out = x[:, 0].copy()
    for j in range(1, x.shape[1]):
        fn(out, x[:, j], out=out)
    return out.reshape(-1, 1)


def row_maxs(x): return _row_reduce(np.maximum, x)
def row_mins(x): return _row_reduce(np.minimum, x)
def row_imins(x): return (_dense(x).argmin(axis=1) + 1.0).reshape(-1, 1)
def row_imaxs(x): return (_dense(x).argmax(axis=1) + 1.0).reshape(-1, 1)
def sum_all(x):
    return x.sum() if isinstance(x, CSR) else float(np.sum(x))
def max_all(x): return float(np.max(_dense(x)))
def min_all(x): return float(np.min(_dense(x)))

# One kernel per aggregate op, shared as ``BINARY`` and ``UNARY`` are,
# and how the partials of a sum, max or min aggregate combine (the
# skeletons' row blocks, Spark's blocks and partitions).
AGG = {
    "ua(+)": sum_all, "ua(max)": max_all, "ua(min)": min_all,
    "ua(R+)": row_sums, "ua(C+)": col_sums, "ua(Rmax)": row_maxs,
    "ua(Rmin)": row_mins, "ua(Rimin)": row_imins, "ua(Rimax)": row_imaxs,
}
COMBINE = {"sum": np.add, "max": np.maximum, "min": np.minimum}


def rix(x, c1, c2):
    return _dense(x)[:, c1:c2]


def t(x):
    """Whole-operand transpose (only emitted for non-row-aligned sides)."""
    if isinstance(x, CSR):
        return x.transpose()
    return np.transpose(np.atleast_2d(x))


# ------------------------------------------------------- outer-product ops
def dot_rows(u, v):
    """Per-nonzero inner products: u[i]·v[i] row-wise (paper dotProduct)."""
    return np.einsum("ij,ij->i", u, v)


def outer_right_acc(w, rix_, vrows, nrows, k, cix=None):
    """right_mm accumulation: out[i] += w_ij * V_j (paper vectMultAdd).
    ``vrows`` holds one row per non-zero or, given the column ids ``cix``,
    is ``V`` itself, read one column at a time (no nnz×k gather)."""
    return scatter_mm(rix_, w, vrows.reshape(-1, k), cix, nrows)
