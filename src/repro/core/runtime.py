"""Template skeletons and the SpoofOp runtime operator (paper §2.2, Fig. 4).

Design decision carried over from the paper: data access is *not*
generated. Hand-coded skeletons own the dense / sparse / compressed
access paths, cache blocking, and aggregation variants; generated
operators only provide ``genexec``. Here:

* dense Cell, MAgg and Row operators run through one loop,
  ``_row_blocks``, over row blocks sized to stay cache-resident (the JVM
  skeletons' cache blocking): the template gives each block's partial,
  and ``combine_fn`` says how partials combine, here and in Spark's
  fused pass (``sparkdist.fusedexec``);
* sparse-safe operators iterate the non-zero values of the sparse main
  input only, with side inputs gathered via ``CSR.gather``/fancy
  indexing (the ``getValue`` abstraction);
* compressed (CLA) main inputs of single-input sparse-safe aggregates
  execute ``genexec`` per distinct dictionary value ×count (Fig. 9);
* a ``SpoofOp`` pickles its *source*, not its compiled function —
  executors recompile on first use (ship-class-and-JIT, per-process
  operator cache), which is what the distributed backend relies on.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core import vectlib
from repro.core.codegen import PlanCache, compile_source, render_source
from repro.core.cplan import CPlan
from repro.lina.compressed import CLAMatrix
from repro.lina.sparse import CSR, scatter_add

BLOCK_BYTES = 2 << 20  # ~2 MB dense row blocks (L2-resident working set)


def _rows_per_block(ncols: int) -> int:
    return max(1, BLOCK_BYTES // (8 * max(1, ncols)))


def _as_value(x):
    """Normalize scalars: 1x1 arrays -> float."""
    if isinstance(x, np.ndarray) and x.size == 1:
        return float(x.reshape(-1)[0])
    return x


def aligned(v, n: int) -> bool:
    """Whether a side input is read by the row blocks of an n-row main
    input rather than whole: a dense or CSR matrix with its n rows. The
    one rule of the local skeletons and of Spark's block pass."""
    return isinstance(v, (np.ndarray, CSR)) and len(v.shape) == 2 and v.shape[0] == n > 1


def row_block(v, lo: int, hi: int):
    """Rows [lo, hi) of a dense or CSR matrix."""
    return v.row_slice(lo, hi) if isinstance(v, CSR) else v[lo:hi]


def _gather_side(s, rixv, cixv, n: int, m: int):
    """Align a side input to the non-zero cells of the sparse main input."""
    if isinstance(s, (float, int)):
        return s
    if isinstance(s, CSR):
        if s.shape == (n, m):
            return s.gather(rixv, cixv)
        s = s.to_dense()
    if isinstance(s, CLAMatrix):
        s = s.decompress()
    if s.shape == (n, m):
        return s[rixv, cixv]
    if s.shape == (n, 1):
        return s[rixv, 0]
    if s.shape == (1, m):
        return s[0, cixv]
    if s.shape == (1, 1):
        return float(s[0, 0])
    raise ValueError(f"side shape {s.shape} not alignable to ({n},{m})")


@dataclass
class SpoofOp:
    """A compiled fused operator: CPlan + generated source + genexec."""

    cplan: CPlan
    src: str
    input_hids: list[int]
    _fn: object | None = field(default=None, repr=False)

    # -- pickling ships the source; executors recompile on first use ------
    def __getstate__(self):
        d = dict(self.__dict__)
        d["_fn"] = None
        return d

    @property
    def fn(self):
        if self._fn is None:
            self._fn = compile_source(self.src)
        return self._fn

    def execute(self, input_values: list):
        """Run the skeleton for this operator's template over positional
        input values (aligned with ``input_hids``)."""
        vals = {hid: _as_value(v) for hid, v in zip(self.input_hids, input_values)}
        t = self.cplan.template
        if t in ("C", "M"):
            return _exec_cellwise(self, vals)
        if t == "R":
            return _exec_rowwise(self, vals)
        if t == "O":
            return _exec_outer(self, vals)
        raise ValueError(t)


def compile_spoof(cplan: CPlan, input_hids: list[int], cache: PlanCache) -> SpoofOp:
    src = render_source(cplan)
    fn = cache.get_or_compile(src)
    op = SpoofOp(cplan=cplan, src=src, input_hids=input_hids)
    op._fn = fn
    return op


# --------------------------------------------------------------- Cell/MAgg
def _exec_cellwise(op: SpoofOp, vals: dict):
    cp = op.cplan
    main = vals[cp.main_hid]
    sides = [vals[h] for h in cp.side_hids]
    n_out = cp.n_outputs

    # ---- compressed fast path: single input, sparse-safe full aggregate -
    # (col_agg is never sparse-safe); one call per column dictionary
    # yields every output's Σ_distinct f(value) * count(value)
    if isinstance(main, CLAMatrix) and cp.sparse_safe and not sides and cp.variant == "full_agg":
        totals = [0.0] * n_out
        for c in main.columns:
            res = op.fn(c.dictionary, [])
            for k, w in enumerate(res if n_out > 1 else (res,)):
                totals[k] += float(w @ c.counts)
        return totals[0] if n_out == 1 else totals
    if isinstance(main, CLAMatrix):
        main = main.decompress()

    # ---- sparse-safe path: iterate non-zeros of the sparse main ---------
    if isinstance(main, CSR) and cp.sparse_safe:
        n, m = main.shape
        rixv, cixv = main.row_index(), main.indices
        b = [_gather_side(s, rixv, cixv, n, m) for s in sides]
        res = op.fn(main.values, b)
        results = res if n_out > 1 else (res,)
        outs = []
        for w in results:
            if cp.variant == "full_agg":
                outs.append(float(np.sum(w)))
            elif cp.variant == "row_agg":
                # a generated body may return a scalar: bincount needs nnz weights
                w = np.broadcast_to(np.asarray(w, dtype=np.float64), rixv.shape)
                outs.append(scatter_add(rixv, w, n).reshape(-1, 1))
            else:  # no_agg keeps the sparse pattern
                outs.append(CSR(main.indptr, main.indices, np.asarray(w, dtype=np.float64), main.shape))
        return outs[0] if n_out == 1 else outs
    if isinstance(main, CSR):
        main = main.to_dense()

    # ---- dense path: each block's cells reduced by each root's aggregate
    aggs = [vectlib.AGG.get(r.op, np.asarray) for r in (cp.root, *cp.magg_roots)]

    def block(a, b):
        res = op.fn(a, b)  # a CSR after a CSR side: densified per output
        parts = tuple(f(vectlib._dense(w)) for f, w in zip(aggs, res if n_out > 1 else (res,)))
        return parts if n_out > 1 else parts[0]

    out = _row_blocks(cp, main, sides, block)
    if cp.variant != "full_agg":
        return out
    return [float(v) for v in out] if n_out > 1 else float(out)


def combine_fn(cp: CPlan):
    """How an operator's row-block partials combine: None when they are
    stacked (no_agg, row_agg), else each output's ``vectlib.COMBINE``,
    applied per output to the tuples of a multi-aggregate. The local
    skeletons and Spark's fused pass both take it from here."""
    if cp.variant in ("no_agg", "row_agg"):
        return None
    fns = [vectlib.COMBINE[f] for f in cp.agg_fns]
    if len(fns) == 1:
        return fns[0]
    return lambda a, b: tuple(f(x, y) for f, x, y in zip(fns, a, b))


def _row_blocks(cp: CPlan, main, sides: list, block):
    """The one dense skeleton loop: ``block(rows, sides)`` gives the
    partial of each cache-sized row block of ``main``, its sides read by
    the block's rows or, for ``whole_sides``, whole; the partials are
    combined by ``combine_fn`` or stacked."""
    n = main.shape[0]
    bs = _rows_per_block(main.shape[1])
    whole = cp.meta.get("whole_sides", set())
    # a side is read whole or by row blocks: decompress a CLA one once
    sides = [s.decompress() if isinstance(s, CLAMatrix) else s for s in sides]
    combine = combine_fn(cp)
    acc, parts = None, []
    for lo in range(0, n, bs):
        hi = min(n, lo + bs)
        b = [
            row_block(s, lo, hi) if hid not in whole and aligned(s, n) else s
            for hid, s in zip(cp.side_hids, sides)
        ]
        p = block(row_block(main, lo, hi), b)
        if combine is None:
            parts.append(p)
        else:
            acc = p if acc is None else combine(acc, p)
    return np.vstack(parts) if combine is None else acc


# ------------------------------------------------------------------- Row
def _exec_rowwise(op: SpoofOp, vals: dict):
    cp = op.cplan
    sides = [vals[h] for h in cp.side_hids]
    if cp.main_hid < 0:  # no row-aligned input: one call over whole sides
        return _finalize_row(cp, op.fn(None, [vectlib._dense(s) for s in sides]))
    main = vals[cp.main_hid]
    if isinstance(main, CLAMatrix):
        main = main.decompress()
    out = _row_blocks(cp, main, sides, lambda a, b: vectlib._dense(op.fn(a, b)))
    return _finalize_row(cp, out)


def _finalize_row(cp: CPlan, out):
    if cp.variant == "full_agg":
        return float(out)
    if cp.meta.get("root_is_t"):
        return np.ascontiguousarray(np.asarray(out).T)
    if isinstance(out, CSR):
        return out
    out = np.asarray(out)
    return out if out.ndim == 2 else out.reshape(1, -1)


# ----------------------------------------------------------------- Outer
def _exec_outer(op: SpoofOp, vals: dict):
    cp = op.cplan
    main = vals[cp.main_hid]
    if not isinstance(main, CSR):
        main = CSR.from_dense(vectlib._dense(main))
    n, m = main.shape
    rixv, cixv = main.row_index(), main.indices
    u = vectlib._dense(vals[cp.meta["u_hid"]])
    vt = vectlib._dense(vals[cp.meta["vt_hid"]])
    vmat = np.ascontiguousarray(vt.T)  # rows of V
    special = {cp.meta["u_hid"], cp.meta["vt_hid"], cp.meta.get("right_hid")}
    gather_hids = [h for h in cp.side_hids if h not in special]
    b = [_gather_side(_as_value(vals[h]), rixv, cixv, n, m) for h in gather_hids]
    w = op.fn(main.values, u[rixv], vmat[cixv], b)
    if cp.variant == "right_mm":
        rmat = vectlib._dense(vals[cp.meta["right_hid"]])
        return vectlib.outer_right_acc(np.asarray(w), rixv, rmat, n, rmat.shape[1], cixv)
    if cp.variant == "full_agg":
        return float(np.sum(w))
    return CSR(main.indptr, main.indices, np.asarray(w, dtype=np.float64), main.shape)
