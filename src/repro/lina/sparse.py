"""Minimal CSR sparse matrix on plain numpy (scipy is absent here).

This is the sparse substrate used by the template skeletons in
``repro.core.runtime``: sparse-safe operators iterate the non-zero
coordinate/value arrays directly, which is what gives the Outer template
its O(nnz) behaviour (paper §2.2, Figure 3(a)).

It is also the one O(nnz) kernel set that Base, the skeletons, ``fused_lib``
and Spark's row blocks share. Every scatter-add (row/column sums, ``X @ B``,
``Xᵀ @ B``, Outer's ``right_mm``) is :func:`scatter_add`, one ``np.bincount``
per output column: it adds in non-zero order, as numpy's unbuffered
``add.at`` does, so sums keep their bits. ``transpose`` is a radix sort,
and :class:`TransposedCSR` defers it: a matmult over ``t(X)`` reads ``X``
in place instead.

Only the operations the reproduction needs are implemented; each one is
vectorized numpy (no per-element Python loops on hot paths).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


def scatter_add(ids: np.ndarray, weights, n: int) -> np.ndarray:
    """``out[i] = Σ weights[p] over ids[p] == i`` for i < n, summed in ``p``
    order, as float64 (``bincount`` gives int64 for empty ``weights``)."""
    return np.bincount(ids, weights=weights, minlength=n).astype(np.float64, copy=False)


def scatter_mm(ids: np.ndarray, w: np.ndarray, b: np.ndarray, b_ids, n: int) -> np.ndarray:
    """``out[ids[p], :] += w[p] * b[b_ids[p], :]`` as an n×k matrix, one
    :func:`scatter_add` per column (no nnz×k temporary). ``b_ids=None``
    means ``b`` already holds one row per non-zero."""
    out = np.empty((n, b.shape[1]), dtype=np.float64)
    for j, col in enumerate(b.T):
        out[:, j] = scatter_add(ids, w * (col if b_ids is None else col[b_ids]), n)
    return out


@dataclass
class CSR:
    """Compressed sparse row matrix: ``values[indptr[i]:indptr[i+1]]`` are
    the non-zeros of row *i* at column positions ``indices[...]``."""

    indptr: np.ndarray  # int64, shape (nrows+1,)
    indices: np.ndarray  # int64, shape (nnz,)
    values: np.ndarray  # float64, shape (nnz,)
    shape: tuple[int, int]

    # ---------------------------------------------------------- construction
    @staticmethod
    def from_dense(a: np.ndarray) -> "CSR":
        a = np.asarray(a, dtype=np.float64)
        mask = a != 0.0
        counts = mask.sum(axis=1)
        indptr = np.zeros(a.shape[0] + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        rows, cols = np.nonzero(mask)
        return CSR(indptr, cols.astype(np.int64), a[rows, cols], a.shape)

    @staticmethod
    def from_coo(
        rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, shape: tuple[int, int]
    ) -> "CSR":
        order = np.lexsort((cols, rows))
        rows, cols, vals = rows[order], cols[order], vals[order]
        counts = np.bincount(rows, minlength=shape[0])
        indptr = np.zeros(shape[0] + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return CSR(indptr, cols.astype(np.int64), vals.astype(np.float64), shape)

    @staticmethod
    def random(
        nrows: int, ncols: int, sparsity: float, seed: int = 0
    ) -> "CSR":
        """Uniform random sparse matrix with expected density ``sparsity``."""
        g = np.random.default_rng(seed)
        nnz = int(round(nrows * ncols * sparsity))
        # sample without replacement in flat index space (cells are unique)
        flat = g.choice(nrows * ncols, size=min(nnz, nrows * ncols), replace=False)
        rows, cols = np.divmod(flat, ncols)
        vals = g.random(len(flat)) + 0.5  # keep away from 0
        return CSR.from_coo(rows, cols, vals, (nrows, ncols))

    # ------------------------------------------------------------ properties
    @property
    def nnz(self) -> int:
        return len(self.values)

    @property
    def sparsity(self) -> float:
        n = self.shape[0] * self.shape[1]
        return self.nnz / n if n else 0.0

    def row_nnz(self) -> np.ndarray:
        return np.diff(self.indptr)

    def row_index(self) -> np.ndarray:
        """Row id per stored non-zero (COO expansion of indptr)."""
        return np.repeat(np.arange(self.shape[0], dtype=np.int64), self.row_nnz())

    # ------------------------------------------------------------ conversion
    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=np.float64)
        out[self.row_index(), self.indices] = self.values
        return out

    def transpose(self) -> "CSR":
        """The arrays ``from_coo`` builds, by a stable sort on column ids
        alone (numpy radix-sorts uint16 keys) instead of a two-key sort."""
        m = self.shape[1]
        keys = self.indices.astype(np.uint16) if m <= 1 << 16 else self.indices
        order = np.argsort(keys, kind="stable")
        indptr = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(np.bincount(self.indices, minlength=m), out=indptr[1:])
        return CSR(indptr, self.row_index()[order], self.values[order], (m, self.shape[0]))

    def row_slice(self, start: int, stop: int) -> "CSR":
        lo, hi = self.indptr[start], self.indptr[stop]
        return CSR(
            self.indptr[start : stop + 1] - lo,
            self.indices[lo:hi],
            self.values[lo:hi],
            (stop - start, self.shape[1]),
        )

    # ------------------------------------------------------------ arithmetic
    def spmv(self, v: np.ndarray) -> np.ndarray:
        """X @ v for a dense vector v — O(nnz)."""
        return self.spmm(np.asarray(v, dtype=np.float64).reshape(-1, 1))[:, 0]

    def spmm(self, b: np.ndarray) -> np.ndarray:
        """X @ B for a dense matrix B — O(nnz * ncol(B))."""
        b = np.atleast_2d(np.asarray(b, dtype=np.float64))
        return scatter_mm(self.row_index(), self.values, b, self.indices, self.shape[0])

    def tspmm(self, b: np.ndarray) -> np.ndarray:
        """Xᵀ @ B for a dense matrix B — O(nnz * ncol(B)), no transpose copy."""
        b = np.atleast_2d(np.asarray(b, dtype=np.float64))
        return scatter_mm(self.indices, self.values, b, self.row_index(), self.shape[1])

    def scale_values(self, f) -> "CSR":
        """Apply a sparse-safe (f(0)=0) elementwise function to the values."""
        return CSR(self.indptr, self.indices, f(self.values), self.shape)

    def mult_dense(self, d: np.ndarray) -> "CSR":
        """Sparse-safe X ⊙ D with dense D (the 'sparse driver' pattern)."""
        d = np.asarray(d, dtype=np.float64)
        return CSR(
            self.indptr,
            self.indices,
            self.values * d[self.row_index(), self.indices],
            self.shape,
        )

    def gather(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Vectorized point lookups X[rows[i], cols[i]] (the paper's
        ``getValue`` side-input access, backed by sorted-key search
        instead of per-cell stateful iterators)."""
        if self.nnz == 0:
            return np.zeros(len(rows), dtype=np.float64)
        ncols = self.shape[1]
        keys = self.row_index() * ncols + self.indices  # globally sorted
        q = rows.astype(np.int64) * ncols + cols.astype(np.int64)
        pos = np.searchsorted(keys, q)
        pos_c = np.minimum(pos, len(keys) - 1)
        hit = keys[pos_c] == q
        out = np.zeros(len(q), dtype=np.float64)
        out[hit] = self.values[pos_c[hit]]
        return out

    # ----------------------------------------------------------- aggregation
    def sum(self) -> float:
        return float(self.values.sum())

    def row_sums(self) -> np.ndarray:
        return scatter_add(self.row_index(), self.values, self.shape[0])

    def col_sums(self) -> np.ndarray:
        return scatter_add(self.indices, self.values, self.shape[1])


class TransposedCSR(CSR):
    """``Xᵀ`` of a CSR ``X`` as a lazy view, like numpy's ``.T``: its
    matmults run over ``base`` in place (``Xᵀ B`` is ``X.tspmm(B)``), with
    the bits of the copy's, as rows keep their column ids sorted. Any
    other use of its arrays builds ``X.transpose()`` once. It pickles as
    that plain :class:`CSR`."""

    def __init__(self, base: CSR):
        self.base = base
        self.shape = (base.shape[1], base.shape[0])

    @cached_property
    def built(self) -> CSR:
        return self.base.transpose()

    indptr = property(lambda self: self.built.indptr)
    indices = property(lambda self: self.built.indices)
    values = property(lambda self: self.built.values)

    def spmm(self, b: np.ndarray) -> np.ndarray:
        return self.base.tspmm(b)

    def tspmm(self, b: np.ndarray) -> np.ndarray:
        return self.base.spmm(b)

    def __reduce__(self):
        return CSR, (self.indptr, self.indices, self.values, self.shape)
