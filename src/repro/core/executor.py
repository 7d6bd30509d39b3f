"""Local DAG interpreters.

``execute_base`` evaluates a HOP DAG operator-by-operator, materializing
every intermediate — SystemML's *Base* configuration (basic operators
only). It doubles as the correctness reference for every fused path.

Values flowing through the interpreter are:
  * ``float``            — scalars,
  * ``np.ndarray`` (2-D) — dense matrices (vectors are n×1 / 1×m),
  * :class:`repro.lina.sparse.CSR`            — sparse matrices,
  * :class:`repro.lina.compressed.CLAMatrix`  — compressed matrices.

Sparse inputs stay sparse through sparse-safe chains (multiply, power,
!=0, sparse-safe unaries, aggregations, matmult) and are densified
otherwise — mirroring SystemML's dense/sparse dispatch in basic ops.
"""
from __future__ import annotations

import numpy as np

from repro.core import vectlib as vl
from repro.core.hop import Hop, postorder
from repro.lina.compressed import CLAMatrix
from repro.lina.sparse import CSR, TransposedCSR

Value = float | np.ndarray | CSR | CLAMatrix


def _as2d(v: Value) -> np.ndarray:
    if isinstance(v, CSR):
        return v.to_dense()
    if isinstance(v, CLAMatrix):
        return v.decompress()
    if isinstance(v, np.ndarray):
        return v if v.ndim == 2 else v.reshape(v.shape[0], -1)
    return np.array([[float(v)]])


_UNARY_FN = {
    "u(exp)": np.exp,
    "u(log)": np.log,
    "u(sqrt)": np.sqrt,
    "u(abs)": np.abs,
    "u(sign)": np.sign,
    "u(-)": np.negative,
    "u(sigmoid)": lambda x: 1.0 / (1.0 + np.exp(-x)),
}

_BINARY_FN = {
    "b(+)": np.add,
    "b(-)": np.subtract,
    "b(*)": np.multiply,
    "b(/)": np.divide,
    "b(^)": vl.power,
    "b(min)": np.minimum,
    "b(max)": np.maximum,
    "b(!=)": lambda a, b: (a != b).astype(np.float64),
    "b(==)": lambda a, b: (a == b).astype(np.float64),
    "b(>)": lambda a, b: (a > b).astype(np.float64),
    "b(<)": lambda a, b: (a < b).astype(np.float64),
    "b(>=)": lambda a, b: (a >= b).astype(np.float64),
    "b(<=)": lambda a, b: (a <= b).astype(np.float64),
}

_SPARSE_SAFE_UNARY = {"u(sqrt)", "u(abs)", "u(sign)", "u(-)"}


def _eval_binary(op: str, a: Value, b: Value) -> Value:
    # sparse fast paths that keep CSR sparse (sparse-safe in left operand)
    if isinstance(a, CSR):
        if op == "b(*)":
            if isinstance(b, (float, int)):
                return a.scale_values(lambda v: v * float(b))
            bd = _as2d(b)
            if bd.shape == a.shape:
                return a.mult_dense(bd)
            if bd.shape == (1, 1):
                return a.scale_values(lambda v: v * float(bd[0, 0]))
        if op == "b(^)" and isinstance(b, (float, int)):
            return vl.pow_(a, float(b))
        if op == "b(!=)" and isinstance(b, (float, int)) and float(b) == 0.0:
            return a.scale_values(lambda v: (v != 0).astype(np.float64))
        a = a.to_dense()
    if isinstance(b, CSR):
        if op == "b(*)":
            return _eval_binary("b(*)", b, a)  # commutative; reuse sparse path
        b = b.to_dense()
    if isinstance(a, (float, int)) and isinstance(b, (float, int)):
        return float(_BINARY_FN[op](a, b))
    return _BINARY_FN[op](_as2d(a), _as2d(b))


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
    # a TransposedCSR folds here: t(X) %*% B runs as X.tspmm(B), and
    # A %*% t(X) as X.spmm(Aᵀ)ᵀ
    if isinstance(a, CSR):
        return a.spmm(_as2d(b))
    if isinstance(b, CSR):
        # dense @ sparse == (sparseᵀ @ denseᵀ)ᵀ
        return b.tspmm(_as2d(a).T).T
    return _as2d(a) @ _as2d(b)


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
    if h.op in _BINARY_FN:
        return _eval_binary(h.op, ins[0], ins[1])
    if h.op in _UNARY_FN:
        (x,) = ins
        if isinstance(x, CSR) and h.op in _SPARSE_SAFE_UNARY:
            return x.scale_values(_UNARY_FN[h.op])
        if isinstance(x, (float, int)):
            return float(_UNARY_FN[h.op](x))
        return _UNARY_FN[h.op](_as2d(x))
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
