"""Local DAG interpreters.

``execute_base`` evaluates a HOP DAG operator-by-operator, materializing
every intermediate — SystemML's *Base* configuration (basic operators
only). It doubles as the correctness reference for every fused path.

Values flowing through the interpreter are:
  * ``float``            — scalars,
  * ``np.ndarray`` (2-D) — dense matrices (vectors are n×1 / 1×m),
  * :class:`repro.lina.sparse.CSR`            — sparse matrices,
  * :class:`repro.lina.compressed.CLAMatrix`  — compressed matrices.

Cell-wise and aggregate operators call their kernels from ``vectlib``'s
tables (``BINARY``, ``UNARY``, ``AGG``), which generated operators and
Spark's row blocks call too. Sparse inputs stay sparse through
sparse-safe chains (multiply, power by s > 0, !=0, sparse-safe unaries,
aggregations, matmult) and are densified otherwise — mirroring
SystemML's dense/sparse dispatch in basic ops.
"""
from __future__ import annotations

import numpy as np

from repro.core import vectlib as vl
from repro.core.hop import Hop, postorder
from repro.lina.compressed import CLAMatrix
from repro.lina.sparse import CSR, TransposedCSR

Value = float | np.ndarray | CSR | CLAMatrix


def _as2d(v: Value) -> np.ndarray:
    v = vl._dense(v)
    if isinstance(v, np.ndarray):
        return v if v.ndim == 2 else v.reshape(v.shape[0], -1)
    return np.array([[float(v)]])


def _operand(v: Value) -> Value:
    """A cell-wise operand: CSR and scalars as they are (the kernels keep
    sparse-safe results sparse), anything else as a 2-D array."""
    return v if isinstance(v, (CSR, float, int)) else _as2d(v)


def _cellwise(fn, *ins: Value) -> Value:
    out = fn(*map(_operand, ins))
    return float(out) if isinstance(out, (float, np.generic)) else out


def _eval_binary(op: str, a: Value, b: Value) -> Value:
    return _cellwise(vl.BINARY[op], a, b)


def _eval_agg(op: str, x: Value) -> Value:
    if op not in vl.AGG:
        raise ValueError(op)
    if isinstance(x, CLAMatrix):
        if op == "ua(+)":
            return x.agg_cellwise_distinct(lambda v: v)
        if op == "ua(C+)":
            return x.col_agg_cellwise_distinct(lambda v: v).reshape(1, -1)
        x = x.decompress()
    return vl.AGG[op](x if isinstance(x, CSR) else _as2d(x))


def _eval_mm(a: Value, b: Value) -> Value:
    # a TransposedCSR folds in vl.mm: t(X) %*% B runs as X.tspmm(B), and
    # A %*% t(X) as X.spmm(Aᵀ)ᵀ
    return vl.mm(*(v if isinstance(v, CSR) else _as2d(v) for v in (a, b)))


def eval_hop(h: Hop, env: dict[int, Value], bindings: dict[str, Value]) -> Value:
    """Evaluate one hop given already-evaluated inputs in ``env``."""
    ins = [env[i.hid] for i in h.inputs]
    if h.op == "leaf":
        if h.name not in bindings:
            raise KeyError(f"unbound leaf {h.name!r}")
        return bindings[h.name]
    if h.op == "lit":
        return float(h.value)  # type: ignore[arg-type]
    if h.op == "t":
        (x,) = ins
        # a view: the consuming matmult hands it to BLAS as a transpose
        # flag, or to the CSR kernels as Xᵀ, instead of copying
        # (SystemML's transpose-aware matmult)
        return TransposedCSR(x) if isinstance(x, CSR) else _as2d(x).T
    if h.op == "rix":
        (x,) = ins
        c1, c2 = h.meta["c1"], h.meta["c2"]
        return _as2d(x)[:, c1:c2]
    if h.op == "ba(+*)":
        return _eval_mm(ins[0], ins[1])
    if h.op in vl.BINARY:
        return _eval_binary(h.op, ins[0], ins[1])
    if h.op in vl.UNARY:
        return _cellwise(vl.UNARY[h.op], ins[0])
    if h.op.startswith("ua("):
        return _eval_agg(h.op, ins[0])
    raise ValueError(f"unknown op {h.op}")


def execute_base(
    roots: list[Hop], bindings: dict[str, Value]
) -> list[Value]:
    """Operator-at-a-time evaluation of the DAG; returns one value per root."""
    env: dict[int, Value] = {}
    for h in postorder(roots):
        env[h.hid] = eval_hop(h, env, bindings)
    return [env[r.hid] for r in roots]


def execute_single(root, bindings: dict[str, Value]) -> Value:
    """Convenience for one-root DAGs; accepts Expr or Hop."""
    h = root.hop if hasattr(root, "hop") else root
    return execute_base([h], bindings)[0]
