"""One cell-wise kernel set: ``vectlib.BINARY``/``UNARY`` serve Base's basic
operators, generated code and Spark's row blocks. Base's result type for
each operand kind (CSR stays sparse only where the op is sparse-safe) and
its values are pinned against numpy."""
import numpy as np
import pytest

from repro.core import codegen
from repro.core import executor as ex
from repro.core import hop as H
from repro.core import vectlib as vl
from repro.lina.compressed import CLAMatrix
from repro.lina.sparse import CSR


def test_tables_cover_the_hop_ops():
    assert set(vl.BINARY) == H.BINARY_OPS
    assert set(vl.UNARY) == H.UNARY_OPS


def test_codegen_names_resolve_to_the_table_kernels():
    tables = [(codegen._BIN_FN, vl.BINARY), (codegen._UN_FN, vl.UNARY),
              (codegen._ROW_AGG_FN, vl.AGG)]
    for names, table in tables:
        assert names.keys() == table.keys()
        for op, name in names.items():
            assert eval(name, {"vl": vl}) is table[op], op


def test_mul_of_two_csr_stays_sparse():
    g = np.random.default_rng(3)
    a, b = g.random((9, 5)), g.random((9, 5))
    a[a < 0.5], b[b < 0.3] = 0.0, 0.0
    out = vl.mul(CSR.from_dense(a), CSR.from_dense(b))
    assert isinstance(out, CSR)
    np.testing.assert_array_equal(out.to_dense(), a * b)


# ------------------------------------------------- Base over operand kinds
N, M = 6, 4
_g = np.random.default_rng(5)
_LEFT = np.round(_g.random((N, M)) * 3, 1) * (_g.random((N, M)) < 0.6)
_RIGHT = np.round(_g.random((N, M)) * 3, 1) * (_g.random((N, M)) < 0.6) + 0.5


def _kinds(a: np.ndarray) -> dict:
    """Operand kind -> (value, its 2-D dense form)."""
    return {
        "dense": (a, a),
        "CSR": (CSR.from_dense(a), a),
        "CLA": (CLAMatrix.compress(a), a),
        "float": (2.0, np.array([[2.0]])),
        "1x1": (a[2:3, 1:2].copy(), a[2:3, 1:2]),
        "row": (a[1:2].copy(), a[1:2]),
        "col": (a[:, 3:4].copy(), a[:, 3:4]),
        "1-D": (a[:, 2].copy(), a[:, 2:3]),
    }


# scalar right operands a CSR kernel must not treat as sparse-safe (X ^ 0,
# X / 0, X ^ -1, X != -1) beside the 2.0 of "float"
_SCALARS = {"float": 2.0, "0.0": 0.0, "-1.0": -1.0}
LEFT = _kinds(_LEFT)
RIGHT = {**_kinds(_RIGHT), **{k: (v, np.array([[v]])) for k, v in _SCALARS.items()}}
_FULL = {"dense", "CSR", "CLA"}  # of the matrix's shape


def _cmp(f):
    return lambda a, b: f(a, b).astype(np.float64)


NP_BINARY = {
    "b(+)": np.add, "b(-)": np.subtract, "b(*)": np.multiply, "b(/)": np.divide,
    # ^2 is x*x in every mode
    "b(^)": lambda a, b: a * a if b.size == 1 and b[0, 0] == 2.0 else np.power(a, b),
    "b(min)": np.minimum, "b(max)": np.maximum, "b(!=)": _cmp(np.not_equal),
    "b(==)": _cmp(np.equal), "b(>)": _cmp(np.greater), "b(<)": _cmp(np.less),
    "b(>=)": _cmp(np.greater_equal), "b(<=)": _cmp(np.less_equal),
}
NP_UNARY = {
    "u(exp)": np.exp, "u(log)": np.log, "u(sqrt)": np.sqrt, "u(abs)": np.abs,
    "u(sign)": np.sign, "u(-)": np.negative,
    "u(sigmoid)": lambda x: 1.0 / (1.0 + np.exp(-x)),
}


# ops whose vectlib kernel has a CSR path (``vl.div`` has none)
_CSR_KERNELS = {"b(*)", "b(^)", "b(!=)"}


def _binary_type(op: str, ka: str, kb: str) -> type:
    if ka in _SCALARS and kb in _SCALARS:
        return float
    if op in _CSR_KERNELS and "CSR" in (ka, kb):
        other = kb if ka == "CSR" else ka
        # a CSR stays sparse against a scalar, a 1x1 or its own shape,
        # where the op is sparse-safe in it
        if other in _FULL | set(_SCALARS) | {"1x1"} and H.sparse_safe(
            op, _SCALARS.get(other), zero_left=ka == "CSR"
        ):
            return CSR
    return np.ndarray


def _eval(h: H.Hop, leaves: list[tuple[H.Hop, object]]):
    with np.errstate(all="ignore"):
        return ex.eval_hop(h, {x.hid: v for x, v in leaves}, {})


def _check(out, typ: type, ref):
    assert type(out) is typ
    if typ is float:
        np.testing.assert_array_equal(np.array([[out]]), ref)
        return
    dense = out.to_dense() if isinstance(out, CSR) else out
    assert dense.ndim == 2
    np.testing.assert_array_equal(dense, ref)


@pytest.mark.parametrize("kb", list(RIGHT))
@pytest.mark.parametrize("ka", list(LEFT))
@pytest.mark.parametrize("op", sorted(H.BINARY_OPS))
def test_base_binary_over_operand_kinds(op, ka, kb):
    (a, ad), (b, bd) = LEFT[ka], RIGHT[kb]
    x, y = H.leaf("X", *ad.shape), H.leaf("Y", *bd.shape)
    out = _eval(H.binop(op, x, y), [(x, a), (y, b)])
    with np.errstate(all="ignore"):
        ref = NP_BINARY[op](ad, bd)
    _check(out, _binary_type(op, ka, kb), ref)


@pytest.mark.parametrize("ka", list(LEFT))
@pytest.mark.parametrize("op", sorted(H.UNARY_OPS))
def test_base_unary_over_operand_kinds(op, ka):
    a, ad = LEFT[ka]
    x = H.leaf("X", *ad.shape)
    out = _eval(H.unop(op, x), [(x, a)])
    if ka == "float":
        typ = float
    elif ka == "CSR" and op in H.SPARSE_SAFE_UNARY:
        typ = CSR
    else:
        typ = np.ndarray
    with np.errstate(all="ignore"):
        _check(out, typ, NP_UNARY[op](ad))


def test_base_neq_zero_keeps_csr():
    x, zero = H.leaf("X", N, M), H.lit(0.0)
    out = _eval(H.binop("b(!=)", x, zero), [(x, CSR.from_dense(_LEFT)), (zero, 0.0)])
    assert isinstance(out, CSR)
    np.testing.assert_array_equal(out.to_dense(), (_LEFT != 0).astype(np.float64))
