"""Distributed execution of fused operators (paper §2.2, §5.5).

The pass reads an operator's data binding from its CPlan (main input,
sides, the sides read whole, aggregate variant) and calls its
``execute`` per block, so generated and hand-coded operators run the
same way: the skeleton owns the data access, never the kernel. The
operator is broadcast to executors; a ``SpoofOp`` pickles as *source +
metadata* and each executor process compiles it once on first use (the
ship-class-and-JIT runtime integration), a ``HandOp`` pickles as its
root hop and is matched again. Execution is ``ops.block_pass`` over the
main input's row blocks, the pass every distributed operator with a side
runs through:

* distributed row-aligned side inputs are joined on ``bid``;
* local side inputs are broadcast together and read by the block's rows
  or, for the CPlan's ``whole_sides`` and sides without the main input's
  rows, whole — every broadcast is a real, measurable cost (the Gen-FA
  distributed slowdown story);
* no_agg/row_agg variants return a new, unmaterialized distributed
  matrix for the caller to place (a pending map without distributed
  sides); col/full aggregates combine per-partition partials on the
  driver by the operator's ``runtime.combine_fn``, the combine of the
  local skeletons' one row-block loop.
"""
from __future__ import annotations

import numpy as np

from repro.core.runtime import combine_fn
from repro.lina.sparse import CSR
from repro.sparkdist.blocked import RowBlockMatrix
from repro.sparkdist.ops import WHOLE, block_pass, broadcast_value


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
    whole = cp.meta.get("whole_sides", set())
    sides = [(WHOLE, values[h]) if h in whole else values[h] for h in cp.side_hids]
    bc_op = broadcast_value(spark, op)
    hids = [cp.main_hid, *cp.side_hids]
    order = [hids.index(h) for h in op.input_hids]

    def block_exec(*blks) -> object:
        return bc_op.value.execute([blks[i] for i in order])

    combine = combine_fn(cp)
    if combine is None:
        def block_out(*blks):
            r = block_exec(*blks)
            return r if isinstance(r, CSR) else np.atleast_2d(np.asarray(r))

        ncols = 1 if cp.variant == "row_agg" else cp.root.ncols
        return block_pass(spark, main, sides, block_out, ncols)

    # aggregate variants: partial per partition, combined on the driver
    acc = block_pass(spark, main, sides, block_exec, combine=combine)
    if cp.n_outputs > 1:
        return list(acc)
    if cp.variant == "full_agg":
        return float(acc)
    return np.asarray(acc)
