"""Distributed basic operators over RowBlockMatrix (SystemML's Spark
instructions): one materialized distributed job per operator — the
baseline the fused operators beat.

Small operands (vectors, narrow matrices) are shipped to executors via
explicit ``SparkContext.broadcast``, so broadcast overhead is real and
measurable — the effect behind Gen-FA's distributed slowdowns (§5.5).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import vectlib as vl
from repro.core.executor import _BINARY_FN, _UNARY_FN
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


def _dense(x):
    return x.to_dense() if isinstance(x, CSR) else x


def broadcast_value(spark, v):
    return spark.sparkContext.broadcast(v)


def is_dist(v) -> bool:
    return isinstance(v, (RowBlockMatrix, TransposedRBM))


# ---------------------------------------------------------------- operators
def elementwise(spark, op: str, a, b):
    """Binary cell-wise op with at least one distributed operand."""
    fn = _BINARY_FN[op]
    if isinstance(a, RowBlockMatrix) and isinstance(b, RowBlockMatrix):
        return zip_blocks(a, [b], lambda x, y: fn(_dense(x), _dense(y)))
    if isinstance(a, RowBlockMatrix):
        if isinstance(b, (float, int)):
            return a.map_blocks(lambda x: fn(_dense(x), b))
        bc = broadcast_value(spark, b)
        bs = a.block_rows
        n = a.nrows

        def run(blk, bid=None):
            return fn(_dense(blk), _dense(bc.value))

        # row-aligned local side: slice per block (needs bid — use zip trick)
        bv = _dense(b)
        if isinstance(bv, np.ndarray) and bv.ndim == 2 and bv.shape[0] == n and n > 1:
            return _map_with_bid(
                a, lambda bid, x: fn(_dense(x), bc.value[bid * bs : bid * bs + _nrows(x)])
            )
        return a.map_blocks(run)
    # a local, b distributed
    if isinstance(b, RowBlockMatrix):
        if isinstance(a, (float, int)):
            return b.map_blocks(lambda x: fn(a, _dense(x)))
        bc = broadcast_value(spark, a)
        av = _dense(a)
        bs = b.block_rows
        if isinstance(av, np.ndarray) and av.ndim == 2 and av.shape[0] == b.nrows and b.nrows > 1:
            return _map_with_bid(
                b, lambda bid, x: fn(bc.value[bid * bs : bid * bs + _nrows(x)], _dense(x))
            )
        return b.map_blocks(lambda x: fn(_dense(bc.value), _dense(x)))
    raise TypeError("no distributed operand")


def _nrows(blk):
    return blk.shape[0]


def _map_with_bid(a: RowBlockMatrix, fn):
    """map_blocks variant that passes the block id (for row-aligned local
    side slicing)."""
    import pandas as pd
    import pickle

    def gen(it):
        for pdf in it:
            out_bid, out_blk = [], []
            for bid, blk in zip(pdf["bid"], pdf["block"]):
                out_bid.append(bid)
                out_blk.append(
                    pickle.dumps(fn(int(bid), pickle.loads(bytes(blk))))
                )
            yield pd.DataFrame({"bid": out_bid, "block": out_blk})

    df = a.df.mapInPandas(gen, schema="bid INT, block BINARY")
    out = RowBlockMatrix(df, a.nrows, a.ncols, a.block_rows)
    return out.materialize()


def unary(spark, op: str, a: RowBlockMatrix):
    fn = _UNARY_FN[op]
    return a.map_blocks(lambda x: fn(_dense(x)))


def matmult(spark, a, b):
    """Distributed matrix multiply variants."""
    if isinstance(a, RowBlockMatrix) and not is_dist(b):
        bc = broadcast_value(spark, _dense(b))
        k = _dense(b).shape[1]
        return a.map_blocks(
            lambda x: x.spmm(bc.value) if isinstance(x, CSR) else _dense(x) @ bc.value,
            ncols_out=k,
        )
    if isinstance(a, TransposedRBM):
        X = a.base
        if isinstance(b, RowBlockMatrix):
            # t(X) %*% Y, both row-aligned: sum of per-block Xᵇᵀ Yᵇ
            assert X.nrows == b.nrows
            return zip_reduce(
                X,
                [b],
                lambda x, y: (
                    x.tspmm(_dense(y)) if isinstance(x, CSR) else _dense(x).T @ _dense(y)
                ),
                lambda p, q: p + q,
            )
        # t(X) %*% local y (n-aligned local matrix): ship y, slice per block
        bc = broadcast_value(spark, _dense(b))
        return _tx_local(X, bc, X.block_rows)
    raise TypeError(f"unsupported distributed matmult {type(a)} @ {type(b)}")


def _tx_local(X: RowBlockMatrix, bc, bs: int):
    import pandas as pd
    import pickle

    def gen(it):
        for pdf in it:
            acc = None
            for bid, blk in zip(pdf["bid"], pdf["block"]):
                x = pickle.loads(bytes(blk))
                y = bc.value[int(bid) * bs : int(bid) * bs + _nrows(x)]
                p = x.tspmm(y) if isinstance(x, CSR) else _dense(x).T @ y
                acc = p if acc is None else acc + p
            if acc is not None:
                yield pd.DataFrame({"part": [pickle.dumps(acc)]})

    parts = X.df.mapInPandas(gen, schema="part BINARY").collect()
    acc = None
    for r in parts:
        p = pickle.loads(bytes(r["part"]))
        acc = p if acc is None else acc + p
    return acc


# how block partials of a full or column aggregate combine
_COMBINE = {"ua(+)": np.add, "ua(max)": np.maximum, "ua(min)": np.minimum, "ua(C+)": np.add}


def aggregate(spark, op: str, a: RowBlockMatrix):
    """Aggregate per row block with the local kernels of ``vectlib.AGG``:
    full and column aggregates combine the block partials, row
    aggregates stay distributed."""
    kernel = vl.AGG[op]
    if op == "ua(C+)":
        return a.reduce_blocks(kernel, _COMBINE[op])
    if op in _COMBINE:
        return float(a.reduce_blocks(kernel, _COMBINE[op]))
    return a.map_blocks(kernel, ncols_out=1)


def rix(spark, a: RowBlockMatrix, c1: int, c2: int):
    return a.map_blocks(lambda x: _dense(x)[:, c1:c2], ncols_out=c2 - c1)
