"""Distributed basic operators over RowBlockMatrix (SystemML's Spark
instructions) — the baseline the fused operators beat. An operator
whose result is a matrix returns it unmaterialized, for the caller to
place (``SparkBackend`` collects narrow results to the driver, leaves
single-reader ones pending and materializes the rest); aggregates and
``t(X) %*% ·`` / ``A %*% X`` combine block partials on the driver and
return local values.

Small operands (vectors, narrow matrices) are shipped to executors via
explicit ``SparkContext.broadcast``, so broadcast overhead is real and
measurable — the effect behind Gen-FA's distributed slowdowns (§5.5).
Every broadcast goes through ``broadcast_value``, which also records it
in the innermost ``recording_broadcasts`` scope, so the caller can
release it.
"""
from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np

from repro.core import vectlib as vl
from repro.core.cplan import FULL_AGG_FN
from repro.lina.sparse import CSR
from repro.sparkdist.blocked import RowBlockMatrix, zip_blocks, zip_reduce


@dataclass
class TransposedRBM:
    """Lazy transpose marker: t(X) of a distributed matrix is never
    materialized; consuming matmults fold it into their block kernels
    (SystemML's tsmm/mapmm physical operators)."""

    base: RowBlockMatrix

    @property
    def shape(self):
        return (self.base.ncols, self.base.nrows)


# the list that broadcasts are recorded into, set by recording_broadcasts;
# a context variable, so the operators keep their (spark, ...) signatures
# and concurrent threads record separately
_recording: ContextVar[list | None] = ContextVar("recording", default=None)


@contextmanager
def recording_broadcasts(into: list):
    """Append every broadcast that ``broadcast_value`` creates inside the
    block to ``into``."""
    token = _recording.set(into)
    try:
        yield into
    finally:
        _recording.reset(token)


def broadcast_value(spark, v):
    b = spark.sparkContext.broadcast(v)
    if (log := _recording.get()) is not None:
        log.append(b)
    return b


def is_dist(v) -> bool:
    return isinstance(v, (RowBlockMatrix, TransposedRBM))


# ---------------------------------------------------------------- operators
def elementwise(spark, op: str, a, b):
    """Binary cell-wise op with at least one distributed operand."""
    fn = vl.BINARY[op]
    if isinstance(a, RowBlockMatrix) and isinstance(b, RowBlockMatrix):
        return zip_blocks(a, [b], lambda x, y: fn(vl._dense(x), vl._dense(y)))
    if isinstance(a, RowBlockMatrix):
        return _with_local(spark, a, b, fn)
    if isinstance(b, RowBlockMatrix):
        return _with_local(spark, b, a, lambda x, v: fn(v, x))
    raise TypeError("no distributed operand")


def _with_local(spark, X: RowBlockMatrix, v, fn):
    """``fn(block, v')`` per block of X, where v' is a scalar, the
    broadcast local operand, or — for a row-aligned local matrix — its
    rows of the block."""
    if isinstance(v, (float, int)):
        return X.map_blocks(lambda x: fn(vl._dense(x), v))
    v = vl._dense(v)
    bc = broadcast_value(spark, v)
    if isinstance(v, np.ndarray) and v.ndim == 2 and v.shape[0] == X.nrows and X.nrows > 1:
        bs = X.block_rows
        return X.map_bid(
            lambda bid, x: fn(vl._dense(x), bc.value[bid * bs : bid * bs + x.shape[0]])
        )
    return X.map_blocks(lambda x: fn(vl._dense(x), bc.value))


def unary(spark, op: str, a: RowBlockMatrix):
    fn = vl.UNARY[op]
    return a.map_blocks(lambda x: fn(vl._dense(x)))


def matmult(spark, a, b):
    """Distributed matrix multiply variants."""
    if isinstance(a, RowBlockMatrix) and not is_dist(b):
        bc = broadcast_value(spark, vl._dense(b))
        k = vl._dense(b).shape[1]
        return a.map_blocks(lambda x: vl.mm(x, bc.value), ncols_out=k)
    if isinstance(a, TransposedRBM):
        X = a.base
        if isinstance(b, RowBlockMatrix):
            # t(X) %*% Y, both row-aligned: sum of per-block Xᵇᵀ Yᵇ
            assert X.nrows == b.nrows
            return zip_reduce(X, [b], vl.tmm_acc, np.add)
        # t(X) %*% local y (n-aligned local matrix): ship y, slice per block
        bc = broadcast_value(spark, vl._dense(b))
        return sum_blocks(X, lambda x, lo: vl.tmm_acc(x, bc.value[lo : lo + x.shape[0]]))
    if isinstance(b, RowBlockMatrix) and not is_dist(a):
        # local A (k×n) %*% X: ship A, sum of per-block A[:, rows_b] Xᵇ
        bc = broadcast_value(spark, vl._dense(a))
        return sum_blocks(b, lambda x, lo: _lmm(bc.value[:, lo : lo + x.shape[0]], x))
    raise TypeError(f"unsupported distributed matmult {type(a)} @ {type(b)}")


def _lmm(a, x):
    """a x for a dense a and a dense or CSR block x."""
    return x.tspmm(a.T).T if isinstance(x, CSR) else a @ x


def sum_blocks(X: RowBlockMatrix, part):
    """Σ over row blocks of ``part(block, first_row)``, summed on the
    driver (one job)."""
    bs = X.block_rows
    return X.reduce_bid(lambda bid, x: part(x, bid * bs), np.add)


def aggregate(spark, op: str, a: RowBlockMatrix):
    """Aggregate per row block with the local kernels of ``vectlib.AGG``:
    full and column aggregates combine the block partials, a row
    aggregate is a new n×1 distributed matrix."""
    kernel = vl.AGG[op]
    if op == "ua(C+)":
        return a.reduce_blocks(kernel, vl.COMBINE["sum"])
    if op in FULL_AGG_FN:
        return float(a.reduce_blocks(kernel, vl.COMBINE[FULL_AGG_FN[op]]))
    return a.map_blocks(kernel, ncols_out=1)


def rix(spark, a: RowBlockMatrix, c1: int, c2: int):
    # a contiguous copy, as a pickled block is, for a reader that pipelines it
    return a.map_blocks(lambda x: np.ascontiguousarray(vl._dense(x)[:, c1:c2]), c2 - c1)
