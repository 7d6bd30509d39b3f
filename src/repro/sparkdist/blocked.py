"""Row-block-partitioned matrices on Spark DataFrames.

A distributed matrix is a DataFrame ``(bid INT, block BINARY)`` where
``block`` is a pickled dense ``ndarray`` or :class:`CSR` holding rows
``[bid·B, min(n, (bid+1)·B))`` — SystemML's binary-block matrices
restricted to row-wise blocking (all Table-6 algorithms satisfy the Row
template's distributed constraint ``ncol(X) ≤ B_c``, so a single block
spans full rows).

The block primitives return their result *unmaterialized* (a lazy
DataFrame). The caller places it, as SystemML's hybrid runtime does:
``SparkBackend`` either collects a narrow result to the driver
(``to_numpy``, one job) or keeps it distributed (``materialize``,
persist + count). Fusion pays off by executing whole chains inside one
``mapInPandas`` pass, so fewer results are placed at all.
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
    df: DataFrame
    nrows: int
    ncols: int
    block_rows: int
    sparsity: float = 1.0  # metadata for size estimation / template choice

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
        n_partitions: int | None = None,
    ) -> "RowBlockMatrix":
        """Distribute a local dense ndarray or CSR row-wise."""
        if isinstance(X, CSR):
            n, m = X.shape
            sp = X.sparsity
            rows = [
                (b, _ser(X.row_slice(lo, min(n, lo + block_rows))))
                for b, lo in enumerate(range(0, n, block_rows))
            ]
        else:
            X = np.asarray(X, dtype=np.float64)
            n, m = X.shape
            sp = 1.0
            rows = [
                (b, _ser(np.ascontiguousarray(X[lo : min(n, lo + block_rows)])))
                for b, lo in enumerate(range(0, n, block_rows))
            ]
        df = spark.createDataFrame(rows, schema=BLOCK_SCHEMA)
        if n_partitions:
            df = df.repartition(n_partitions, "bid")
        return RowBlockMatrix(df, n, m, block_rows, sparsity=sp)

    # ---------------------------------------------------------- persistence
    def materialize(self) -> "RowBlockMatrix":
        """Persist + force computation: one distributed instruction's
        materialized intermediate (the thing fusion eliminates)."""
        self.df = self.df.persist()
        self.df.count()
        return self

    def unpersist(self) -> None:
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
    def map_blocks(self, fn, ncols_out: int | None = None) -> "RowBlockMatrix":
        """Apply ``fn(block) -> block`` per row block via mapInPandas."""
        df = map_rows(self.df, lambda bid, x: fn(x))
        return RowBlockMatrix(
            df, self.nrows, ncols_out if ncols_out is not None else self.ncols,
            self.block_rows,
        )

    def reduce_blocks(self, fn, combine):
        """fn(block) -> partial; combine(a, b) -> partial. Runs fn per
        block distributed, combines partials on the driver (k ≪ n)."""
        return reduce_rows(self.df, lambda bid, x: fn(x), combine)


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
    a: RowBlockMatrix, others: list[RowBlockMatrix], fn,
    ncols_out: int | None = None,
) -> RowBlockMatrix:
    """Join row-aligned distributed matrices on bid and apply
    ``fn(block_a, *blocks_others) -> block`` (the distributed join path
    for row-aligned side inputs)."""
    df, names = join_blocks(a, others)
    out_df = map_rows(df, lambda bid, *blks: fn(*blks), names)
    return RowBlockMatrix(
        out_df, a.nrows, ncols_out if ncols_out is not None else a.ncols,
        a.block_rows,
    )


def zip_reduce(
    a: RowBlockMatrix, others: list[RowBlockMatrix], fn, combine
):
    """Join on bid, map to partials, combine on the driver."""
    df, names = join_blocks(a, others)
    return reduce_rows(df, lambda bid, *blks: fn(*blks), combine, names)
