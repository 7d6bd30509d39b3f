"""Row-block-partitioned matrices on Spark DataFrames.

A distributed matrix is a DataFrame ``(bid INT, block BINARY)`` where
``block`` is a pickled dense ``ndarray`` or :class:`CSR` holding rows
``[bid·B, min(n, (bid+1)·B))`` — SystemML's binary-block matrices
restricted to row-wise blocking (all Table-6 algorithms satisfy the Row
template's distributed constraint ``ncol(X) ≤ B_c``, so a single block
spans full rows).

Every pass is ``map_rows`` or ``reduce_rows`` of ``fn(bid, block,
*side_blocks)``, over a matrix's own blocks (``map_bid``/``reduce_bid``)
or over them joined on bid with row-aligned matrices
(``zip_blocks``/``zip_reduce``); ``ops.block_pass`` picks one. Results
are *unmaterialized*; a ``map_bid``'s is *pending*: a map or reduce
over it composes the two block functions, so ``rowSums(X^2)`` is one
``mapInPandas`` pass over ``X``, as SystemML's lazy Spark instructions
pipeline. The caller places each result as SystemML's hybrid runtime
does: ``SparkBackend`` collects a narrow one to the driver
(``to_numpy``, one job), leaves a pending one that one operator reads,
and persists any other (``materialize``, persist + count).
"""
from __future__ import annotations

import pickle
from dataclasses import dataclass

import numpy as np
from pyspark.sql import DataFrame, SparkSession

from repro.lina.sparse import CSR

BLOCK_SCHEMA = "bid INT, block BINARY"
DEFAULT_BLOCK_ROWS = 8192


def _ser(x) -> bytes:
    return pickle.dumps(x, protocol=pickle.HIGHEST_PROTOCOL)


def _deser(b: bytes):
    return pickle.loads(b)


@dataclass(eq=False)  # identity equality: DataFrame __eq__ yields a Column
class RowBlockMatrix:
    _df: DataFrame | None  # built on first use while a map is pending
    nrows: int
    ncols: int
    block_rows: int
    sparsity: float = 1.0  # metadata for size estimation / template choice
    # a pending map: fn(bid, block) over the blocks of src (never pending)
    src: "RowBlockMatrix | None" = None
    fn: object = None

    @property
    def df(self) -> DataFrame:
        if self._df is None:
            self._df = map_rows(self.src.df, self.fn)
        return self._df

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    @property
    def n_blocks(self) -> int:
        return (self.nrows + self.block_rows - 1) // self.block_rows

    # ------------------------------------------------------------- creation
    @staticmethod
    def from_matrix(
        spark: SparkSession,
        X,
        block_rows: int = DEFAULT_BLOCK_ROWS,
    ) -> "RowBlockMatrix":
        """Distribute a local dense ndarray or CSR row-wise."""
        if isinstance(X, CSR):
            sp, row_slice = X.sparsity, X.row_slice
        else:
            X = np.asarray(X, dtype=np.float64)
            sp, row_slice = 1.0, lambda lo, hi: np.ascontiguousarray(X[lo:hi])
        n, m = X.shape
        rows = [
            (b, _ser(row_slice(lo, min(n, lo + block_rows))))
            for b, lo in enumerate(range(0, n, block_rows))
        ]
        df = spark.createDataFrame(rows, schema=BLOCK_SCHEMA)
        return RowBlockMatrix(df, n, m, block_rows, sparsity=sp)

    # ---------------------------------------------------------- persistence
    def materialize(self) -> "RowBlockMatrix":
        """Persist + force computation: one distributed instruction's
        materialized intermediate (the thing fusion eliminates)."""
        self._df = self.df.persist()
        self.src = self.fn = None
        self._df.count()
        return self

    def unpersist(self) -> None:
        if self.src is None:  # a pending map has nothing persisted
            self.df.unpersist()

    # ------------------------------------------------------------- collect
    def to_numpy(self) -> np.ndarray:
        rows = self.df.collect()
        blocks = {r["bid"]: _deser(bytes(r["block"])) for r in rows}
        out = np.zeros((self.nrows, self.ncols))
        for b, blk in blocks.items():
            lo = b * self.block_rows
            d = blk.to_dense() if isinstance(blk, CSR) else np.atleast_2d(blk)
            out[lo : lo + d.shape[0]] = d
        return out

    # ------------------------------------------------- generic block mapper
    def map_bid(self, fn, ncols_out: int | None = None) -> "RowBlockMatrix":
        """The pending map ``fn(bid, block) -> block`` over this matrix's
        blocks."""
        src, fn = self._composed(fn)
        ncols = ncols_out if ncols_out is not None else self.ncols
        return RowBlockMatrix(None, self.nrows, ncols, self.block_rows, src=src, fn=fn)

    def reduce_bid(self, fn, combine):
        """``fn(bid, block) -> partial`` per block, combined per partition
        and then on the driver (one job)."""
        src, fn = self._composed(fn)
        return reduce_rows(src.df, fn, combine)

    def _composed(self, fn):
        """(matrix, fn over its blocks): a pending map runs in front."""
        if self.src is None:
            return self, fn
        f = self.fn
        return self.src, lambda bid, x: fn(bid, f(bid, x))

    def map_blocks(self, fn, ncols_out: int | None = None) -> "RowBlockMatrix":
        """The pending map ``fn(block) -> block``."""
        return self.map_bid(lambda bid, x: fn(x), ncols_out)

    def reduce_blocks(self, fn, combine):
        """fn(block) -> partial; combine(a, b) -> partial (``reduce_bid``)."""
        return self.reduce_bid(lambda bid, x: fn(x), combine)


# ---------------------------------------------- the two block primitives
def _blocks(pdf, sides):
    """(bid, block, *side blocks) per row of one pandas batch, iterating
    columns rather than rows so no pandas Series is built per block."""
    cols = [pdf["block"], *(pdf[nm] for nm in sides)]
    for bid, *blks in zip(pdf["bid"], *cols):
        yield (int(bid), *(_deser(bytes(b)) for b in blks))


def map_rows(df: DataFrame, fn, sides: list[str] = ()) -> DataFrame:
    """One block per row of ``df`` (``bid``, ``block`` and the side block
    columns ``sides``): ``fn(bid, block, *side_blocks) -> block``."""

    def gen(it):
        import pandas as pd

        for pdf in it:
            out = [_ser(fn(*row)) for row in _blocks(pdf, sides)]
            yield pd.DataFrame({"bid": pdf["bid"].to_numpy(), "block": out})

    return df.mapInPandas(gen, schema=BLOCK_SCHEMA)


def reduce_rows(df: DataFrame, fn, combine, sides: list[str] = ()):
    """``fn(bid, block, *side_blocks) -> partial`` per row of ``df``;
    partials combine per partition, then on the driver (one job)."""

    def gen(it):
        import pandas as pd

        for pdf in it:
            acc = None
            for row in _blocks(pdf, sides):
                p = fn(*row)
                acc = p if acc is None else combine(acc, p)
            if acc is not None:
                yield pd.DataFrame({"part": [_ser(acc)]})

    acc = None
    for r in df.mapInPandas(gen, schema="part BINARY").collect():
        p = _deser(bytes(r["part"]))
        acc = p if acc is None else combine(acc, p)
    return acc


def join_blocks(a: RowBlockMatrix, others: list[RowBlockMatrix]):
    """``a.df`` joined on bid with the blocks of each row-aligned matrix
    in ``others``; returns the DataFrame and its side block columns."""
    assert all(o.nrows == a.nrows and o.block_rows == a.block_rows for o in others)
    df, names = a.df, [f"side_{i}" for i in range(len(others))]
    for nm, o in zip(names, others):
        df = df.join(o.df.withColumnRenamed("block", nm), "bid")
    return df, names


def zip_blocks(
    a: RowBlockMatrix, others: list[RowBlockMatrix], fn, ncols_out: int | None = None
) -> RowBlockMatrix:
    """Join row-aligned distributed matrices on bid and apply
    ``fn(bid, block_a, *blocks_others) -> block`` (unmaterialized)."""
    df, names = join_blocks(a, others)
    ncols = ncols_out if ncols_out is not None else a.ncols
    return RowBlockMatrix(map_rows(df, fn, names), a.nrows, ncols, a.block_rows)


def zip_reduce(a: RowBlockMatrix, others: list[RowBlockMatrix], fn, combine):
    """Join on bid, map ``fn(bid, block_a, *blocks_others)`` to partials,
    combine them on the driver."""
    df, names = join_blocks(a, others)
    return reduce_rows(df, fn, combine, names)
