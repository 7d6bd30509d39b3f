"""Distributed execution of fused operators (paper §2.2, §5.5).

The pass reads an operator's data binding from its CPlan (main input,
sides, the sides read whole, aggregate variant) and calls its
``execute`` per block, so generated and hand-coded operators run the
same way: the skeleton owns the data access, never the kernel. The
operator is broadcast to executors; a ``SpoofOp`` pickles as *source +
metadata* and each executor process compiles it once on first use (the
ship-class-and-JIT runtime integration), a ``HandOp`` pickles as its
root hop and is matched again. Execution is one ``mapInPandas`` pass
over the main input's row blocks:

* distributed row-aligned side inputs are joined on ``bid``;
* local side inputs are broadcast and sliced per block — every broadcast
  is a real, measurable cost (the Gen-FA distributed slowdown story);
* no_agg/row_agg variants return a new, unmaterialized distributed
  matrix for the caller to place (a pending map without distributed
  sides); col/full aggregates combine per-partition partials on the
  driver.
"""
from __future__ import annotations

import numpy as np

from repro.core import vectlib as vl
from repro.lina.sparse import CSR
from repro.sparkdist.blocked import RowBlockMatrix, join_blocks, map_rows, reduce_rows
from repro.sparkdist.ops import broadcast_value


def _is_row_aligned(v, n: int, hid: int, whole_sides) -> bool:
    return (
        isinstance(v, (np.ndarray, CSR))
        and v.shape[0] == n
        and n > 1
        and hid not in whole_sides
    )


def execute_dist(spark, op, values: dict[int, object]):
    """Execute a fused operator (``SpoofOp`` or ``HandOp``) whose main
    input is distributed."""
    cp = op.cplan
    if cp.template == "O":
        raise NotImplementedError(
            "distributed Outer execution is out of scope (Table 6 has no "
            "ALS workload); the cost model prevents such plans"
        )
    main = values[cp.main_hid]
    assert isinstance(main, RowBlockMatrix), "main input must be distributed"
    n, bs = main.nrows, main.block_rows

    dist_hids = [
        h for h in cp.side_hids if isinstance(values[h], RowBlockMatrix)
    ]
    local_vals = {
        h: values[h] for h in cp.side_hids if h not in dist_hids
    }
    bc_op = broadcast_value(spark, op)
    bc_sides = broadcast_value(spark, local_vals)
    if dist_hids:  # without them, the pass is main's own (map_bid/reduce_bid)
        df, names = join_blocks(main, [values[h] for h in dist_hids])

    variant, agg_fn = cp.variant, cp.agg_fn or "sum"
    n_out = cp.n_outputs
    input_hids = list(op.input_hids)
    main_hid = cp.main_hid
    whole_sides = cp.meta.get("whole_sides", set())

    def block_exec(bid: int, blk, *dist_blks) -> object:
        lo, rows_b = bid * bs, blk.shape[0]
        vals: dict[int, object] = {main_hid: blk, **dict(zip(dist_hids, dist_blks))}
        for h, v in bc_sides.value.items():
            if _is_row_aligned(v, n, h, whole_sides):
                v = (
                    v.row_slice(lo, lo + rows_b)
                    if isinstance(v, CSR)
                    else v[lo : lo + rows_b]
                )
            vals[h] = v
        return bc_op.value.execute([vals[h] for h in input_hids])

    if variant in ("no_agg", "row_agg"):
        out_cols = 1 if variant == "row_agg" else cp.root.ncols

        def block_out(*row):
            r = block_exec(*row)
            return r if isinstance(r, CSR) else np.atleast_2d(np.asarray(r))

        if not dist_hids:
            return main.map_bid(block_out, out_cols)
        return RowBlockMatrix(map_rows(df, block_out, names), n, out_cols, bs)

    # aggregate variants: partial per partition, combined on the driver
    fns = [agg_fn] + cp.magg_agg_fns if cp.magg_roots else [agg_fn]

    def combine(a, b):
        if n_out > 1:
            return tuple(vl.COMBINE[f](x, y) for f, x, y in zip(fns, a, b))
        return vl.COMBINE[fns[0]](a, b)

    if dist_hids:
        acc = reduce_rows(df, block_exec, combine, names)
    else:
        acc = main.reduce_bid(block_exec, combine)
    if n_out > 1:
        return list(acc)
    if variant == "full_agg":
        return float(acc)
    return np.asarray(acc)
