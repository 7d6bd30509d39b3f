"""Distributed basic operators over RowBlockMatrix (SystemML's Spark
instructions) — the baseline the fused operators beat — and
``block_pass``, the one pass over a matrix's row blocks that every
distributed operator with a side runs through, fused ones included
(``fusedexec``). It reads each side one way: a scalar as is, a
distributed matrix joined on bid, the local values broadcast together,
once, and each read whole, by the block's rows (when ``aligned``, the
rule the local skeletons use too) or by its columns. An operator whose
result is a matrix returns it unmaterialized, for the caller to place
(``SparkBackend`` collects narrow results to the driver, leaves
single-reader ones pending and materializes the rest); aggregates and
``t(X) %*% ·`` / ``A %*% X`` combine block partials on the driver and
return local values.

Broadcasts are explicit ``SparkContext.broadcast`` calls, so their
overhead is real and measurable — the effect behind Gen-FA's
distributed slowdowns (§5.5). Every broadcast goes through
``broadcast_value``, which also records it in the innermost
``recording_broadcasts`` scope, so the caller can release it.
"""
from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np

from repro.core import vectlib as vl
from repro.core.cplan import FULL_AGG_FN
from repro.core.runtime import aligned, row_block
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


# ---------------------------------------------------------- the block pass
WHOLE, ROWS, COLS, JOIN = "whole", "rows", "cols", "join"


def block_pass(spark, X: RowBlockMatrix, sides: list, fn, ncols=None, combine=None):
    """``fn(block, *side_blocks)`` over X's row blocks: a pending map
    (``ncols`` wide), or with ``combine`` the block partials combined on
    the driver. A side is read as a scalar, passed as is; a row-aligned
    ``RowBlockMatrix``, joined on bid (``zip_blocks``/``zip_reduce``); or
    a local value. The local values are broadcast together, once, and
    each is read by the block's rows if ``aligned`` to X, else whole; a
    ``(WHOLE, v)`` or ``(COLS, v)`` side is read whole or by the block's
    columns (``A %*% X``)."""
    reads, dist, local = [], [], []  # reads: (how, scalar or local index)
    for s in sides:
        how, v = s if isinstance(s, tuple) else (None, s)
        if isinstance(v, (float, int)):
            reads.append((None, v))
        elif isinstance(v, RowBlockMatrix):
            reads.append((JOIN, None))
            dist.append(v)
        else:
            reads.append((how or (ROWS if aligned(v, X.nrows) else WHOLE), len(local)))
            local.append(v)
    bc = broadcast_value(spark, tuple(local)) if local else None
    bs = X.block_rows

    def block_fn(bid, blk, *dist_blks):
        lo, hi, joined = bid * bs, bid * bs + blk.shape[0], iter(dist_blks)
        return fn(blk, *(
            a if how is None else next(joined) if how == JOIN else _read(bc.value[a], how, lo, hi)
            for how, a in reads
        ))

    if not dist:
        return X.map_bid(block_fn, ncols) if combine is None else X.reduce_bid(block_fn, combine)
    if combine is None:
        return zip_blocks(X, dist, block_fn, ncols)
    return zip_reduce(X, dist, block_fn, combine)


def _read(v, how: str, lo: int, hi: int):
    return row_block(v, lo, hi) if how == ROWS else v[:, lo:hi] if how == COLS else v


# ---------------------------------------------------------------- operators
def elementwise(spark, op: str, a, b):
    """Binary cell-wise op with at least one distributed operand; a
    local matrix operand is shipped dense."""
    fn, d = vl.BINARY[op], vl._dense
    if isinstance(a, RowBlockMatrix):
        return block_pass(spark, a, [d(b)], lambda x, y: fn(d(x), d(y)))
    if isinstance(b, RowBlockMatrix):
        return block_pass(spark, b, [d(a)], lambda x, y: fn(d(y), d(x)))
    raise TypeError("no distributed operand")


def unary(spark, op: str, a: RowBlockMatrix):
    fn = vl.UNARY[op]
    return a.map_blocks(lambda x: fn(vl._dense(x)))


def matmult(spark, a, b):
    """Distributed matrix multiply variants."""
    d = vl._dense
    if isinstance(a, RowBlockMatrix) and not is_dist(b):
        # X %*% B: B read whole, even for a square X
        return block_pass(spark, a, [(WHOLE, d(b))], vl.mm, ncols=d(b).shape[1])
    if isinstance(a, TransposedRBM):
        # t(X) %*% Y: Σ over blocks of Xᵇᵀ Yᵇ, Y joined on bid or sliced
        return block_pass(spark, a.base, [d(b)], vl.tmm_acc, combine=np.add)
    if isinstance(b, RowBlockMatrix) and not is_dist(a):
        # local A (k×n) %*% X: Σ over blocks of A[:, rows_b] Xᵇ
        return block_pass(spark, b, [(COLS, d(a))], lambda x, ab: vl.mm(ab, x), combine=np.add)
    raise TypeError(f"unsupported distributed matmult {type(a)} @ {type(b)}")


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
