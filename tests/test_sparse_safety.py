"""One sparse-safety rule (``hop.sparse_safe``): whether an op maps a zero
operand to zero depends on the other operand's literal and on the side of
the zero. The sparsity estimates, CSR kernels, skeletons, the Outer
template's driver and Spark's row blocks must all agree with dense Base."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.engine import MODES, Engine
from repro.core import hop as H
from repro.core.pipeline import compile_dag
from repro.core.select import POLICIES
from repro.lina.compressed import CLAMatrix
from repro.lina.sparse import CSR


def _sparse(n, m, density, seed):
    g = np.random.default_rng(seed)
    a = g.random((n, m))
    a[g.random((n, m)) >= density] = 0.0
    return a


def _dense(v):
    if isinstance(v, CSR):
        return v.to_dense()
    if isinstance(v, CLAMatrix):
        return v.decompress()
    return np.asarray(v, dtype=np.float64)


def _run(mode, roots, bindings):
    with np.errstate(all="ignore"):
        return [_dense(v) for v in Engine(mode)(roots, bindings)]


def test_rule():
    assert H.sparse_safe("u(sqrt)") and not H.sparse_safe("u(exp)")
    assert H.sparse_safe("b(*)") and not H.sparse_safe("b(+)", 0.0)
    assert H.sparse_safe("b(!=)", 0.0) and H.sparse_safe("b(!=)", 0.0, zero_left=False)
    assert not H.sparse_safe("b(!=)", 0.5) and not H.sparse_safe("b(!=)")
    assert H.sparse_safe("b(^)", 2.0) and H.sparse_safe("b(^)", 0.5)
    assert not any(H.sparse_safe("b(^)", s) for s in (0.0, -1.0, None))
    assert not H.sparse_safe("b(^)", 2.0, zero_left=False)
    assert H.sparse_safe("b(/)", 2.0) and H.sparse_safe("b(/)", -0.5)
    assert not H.sparse_safe("b(/)", 0.0) and not H.sparse_safe("b(/)", 2.0, zero_left=False)


def test_sparsity_estimates():
    X = H.var("X", 100, 40, sparsity=0.1)
    dense = [X**0, X**-1, X / 0, X != 0.5, H.Expr(H.binop("b(^)", H.lit(0.5), X.hop))]
    for e in dense:
        assert e.hop.sparsity == 1.0, e.hop
    kept = [X**2, X != 0, H.Expr(H.binop("b(!=)", H.lit(0.0), X.hop)), X / 2]
    for e in kept:
        assert e.hop.sparsity == 0.1, e.hop


# --------------------------------------------- the faults the rule mends
N, M = 200, 50
_X = _sparse(N, M, 0.2, 0)
_ROWS = {
    "neq_half": lambda X: [H.sum_(X != 0.5)],
    "pow_zero": lambda X: [H.sum_((X**0) * 2)],
    "pow_neg_gt": lambda X: [H.sum_((X**-1) > 1)],
    "half_pow_x": lambda X: [H.sum_(H.Expr(H.binop("b(^)", H.lit(0.5), X.hop)))],
    "row_sums_pow_zero": lambda X: [H.row_sums(X**0)],
}


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("row", sorted(_ROWS))
def test_csr_equals_dense(row, mode):
    sp = float(np.mean(_X != 0))
    (ref,) = _run("base", _ROWS[row](H.var("X", N, M)), {"X": _X})
    (got,) = _run(mode, _ROWS[row](H.var("X", N, M, sp)), {"X": CSR.from_dense(_X)})
    np.testing.assert_allclose(got, ref, rtol=1e-12)


def _outer_case(lit, sp):
    X, U, V = H.var("X", 120, 90, sp), H.var("U", 120, 5), H.var("V", 90, 5)
    return [H.sum_((X != lit) * (U @ V.T))]


def test_outer_needs_a_sparse_safe_driver():
    g = np.random.default_rng(1)
    x = _sparse(120, 90, 0.1, 2)
    b = {"U": g.random((120, 5)), "V": g.random((90, 5))}
    sp = float(np.mean(x != 0))
    # X != 0.5 is 1 where X is 0: no driver, so no Outer over X's non-zeros
    (ref,) = _run("base", _outer_case(0.5, 1.0), {**b, "X": x})
    (got,) = _run("gen", _outer_case(0.5, sp), {**b, "X": CSR.from_dense(x)})
    np.testing.assert_allclose(got, ref, rtol=1e-12)
    # X != 0 drives it (paper §5.4's ALS loss keeps its Outer operator)
    roots = [r.hop for r in _outer_case(0.0, sp)]
    assert any(s.template == "O" for s in compile_dag(roots).specs)


# ------------------------------------------------ differential DAG test
# Small DAGs over every cell-wise op, the aggregates, matmult and t, over
# dense, CSR and CLA inputs, in all five modes against dense Base. Two
# input conventions are SystemML's and hold only for finite values and
# unsigned zeros: a sparse-safe multiply is 0 wherever one operand is 0,
# even if the other is inf or NaN, and a sparse zero has no sign (a dense
# 0 * -1 is -0.0, whose reciprocal is -inf). So the generator multiplies
# only values that stay finite, and divides by (or raises to a negative
# or non-literal power) no value that may be a negative zero.
R, C, K = 12, 10, 3  # rows, columns and rank of the generated DAGs' inputs
LITS = [0.0, 1.0, 2.0, 3.0, -1.0, 0.5, -0.5]
_VALUES = np.array([-1.5, -1.0, 0.5, 1.0, 2.0])
# ops whose result is finite over finite operands
_FINITE = {"b(+)", "b(-)", "b(*)", "b(min)", "b(max)", "b(!=)", "b(==)",
           "b(>)", "b(<)", "b(>=)", "b(<=)", "u(abs)", "u(sign)", "u(-)",
           "u(sigmoid)"}
# ops that never return -0.0, and ops that may return it from any operand
_UNSIGNED = {"b(!=)", "b(==)", "b(>)", "b(<)", "b(>=)", "b(<=)", "u(abs)",
             "u(exp)", "u(log)", "u(sigmoid)"}
_SIGNING = {"b(*)", "b(/)", "u(-)"}


class Node:
    """A generated expression and what its values may hold."""

    def __init__(self, e, finite=True, neg_zero=False):
        self.e, self.finite, self.neg_zero = e, finite, neg_zero


def _lit(node: Node) -> float | None:
    return node.e.hop.value if node.e.hop.op == "lit" else None


def _apply(op, *args: Node) -> Node:
    hops = [a.e.hop for a in args]
    e = H.Expr(H.unop(op, *hops) if len(hops) == 1 else H.binop(op, *hops))
    finite = all(a.finite for a in args) and (
        op in _FINITE or op == "b(^)" and _lit(args[1]) in (0.0, 1.0, 2.0, 3.0)
    )
    neg_zero = op not in _UNSIGNED and (
        op in _SIGNING or any(a.neg_zero for a in args)
    )
    return Node(e, finite, neg_zero)


def _allowed(op, a: Node, b: Node) -> bool:
    if op == "b(*)":
        return a.finite and b.finite
    if op == "b(/)":
        return not b.neg_zero
    if op == "b(^)":
        return not a.neg_zero or (_lit(b) is not None and _lit(b) >= 0.0)
    return True


@st.composite
def matrices(draw, pool, sides, depth):
    """An R×C expression; ``pool`` holds the earlier ones, which a later
    one may reuse (a CSE), and ``sides`` U, V, c and r."""
    kinds = ["pool", "outer"]
    if depth:
        kinds += ["binary", "scalar", "vector", "unary", "tt"]
    kind = draw(st.sampled_from(kinds))
    if kind == "pool":
        return draw(st.sampled_from(pool))
    if kind == "outer":
        node = Node(sides["U"] @ sides["V"].T)
    elif kind == "unary":
        op = draw(st.sampled_from(sorted(H.UNARY_OPS)))
        node = _apply(op, draw(matrices(pool, sides, depth - 1)))
    elif kind == "tt":
        a = draw(matrices(pool, sides, depth - 1))
        node = Node(a.e.T.T, a.finite, a.neg_zero)
    else:
        a = draw(matrices(pool, sides, depth - 1))
        if kind == "binary":
            b = draw(matrices(pool, sides, depth - 1))
        elif kind == "scalar":
            b = Node(H.Expr(H.lit(draw(st.sampled_from(LITS)))))
        else:
            b = Node(sides[draw(st.sampled_from(["c", "r"]))])
        if draw(st.booleans()):
            a, b = b, a
        ops = sorted(o for o in H.BINARY_OPS if _allowed(o, a, b))
        node = _apply(draw(st.sampled_from(ops)), a, b)
    pool.append(node)
    return node


ROOTS = {
    "sum": H.sum_, "max": H.max_, "min": H.min_, "rowSums": H.row_sums,
    "colSums": H.col_sums, "rowMaxs": H.row_maxs, "rowMins": H.row_mins,
    "rowIndexMin": H.row_imins, "cell": lambda e: e, "t": lambda e: e.T,
}


@st.composite
def dags(draw):
    """One or two roots over X (sparse), Y and the sides; a matmult root
    (``e %*% V``, ``t(e) %*% c``) only over a finite ``e``."""
    sides = {"U": H.var("U", R, K), "V": H.var("V", C, K),
             "c": H.var("c", R, 1), "r": H.var("r", 1, C)}
    pool = [Node(H.var("X", R, C, 0.3)), Node(H.var("Y", R, C, 0.8))]
    roots = []
    for _ in range(draw(st.integers(1, 2))):
        node = draw(matrices(pool, sides, 3))
        kind = draw(st.sampled_from(sorted(ROOTS) + ["mm", "tmm"]))
        if kind == "mm" and node.finite:
            roots.append(node.e @ sides["V"])
        elif kind == "tmm" and node.finite:
            roots.append(node.e.T @ sides["c"])
        else:
            roots.append(ROOTS.get(kind, H.sum_)(node.e))
    return roots


def _data(seed):
    g = np.random.default_rng(seed)

    def mat(shape, density):
        a = g.choice(_VALUES, size=shape)
        a[g.random(shape) >= density] = 0.0
        return a

    return {"X": mat((R, C), 0.3), "Y": mat((R, C), 0.8), "U": mat((R, K), 1.0),
            "V": mat((C, K), 1.0), "c": mat((R, 1), 0.7), "r": mat((1, C), 0.7)}


def _show(h: H.Hop) -> str:
    if h.op == "leaf":
        return h.name
    if h.op == "lit":
        return repr(h.value)
    return f"{h.op}({', '.join(_show(i) for i in h.inputs)})"


FORMATS = {"dense": lambda a: a, "CSR": CSR.from_dense, "CLA": CLAMatrix.compress}


def _check_all(roots, data):
    for policy in POLICIES:  # runs exactly the specs selection costed
        plan = compile_dag([r.hop for r in roots], policy)
        assert sorted(map(id, plan.specs)) == sorted(map(id, plan.selection.specs))
        assert set(plan.spoofs) == {s.root.hid for s in plan.specs if s.template}
    ref = _run("base", roots, data)
    for fmt, conv in FORMATS.items():
        b = {**data, "X": conv(data["X"]), "Y": conv(data["Y"])}
        for mode in MODES:
            for got, want in zip(_run(mode, roots, b), ref):
                np.testing.assert_allclose(
                    got, want, rtol=1e-9, atol=1e-9, equal_nan=True,
                    err_msg=f"{mode} over {fmt}: {[_show(r.hop) for r in roots]}")


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(roots=dags(), seed=st.integers(0, 3))
def test_all_modes_and_formats_equal_dense_base(roots, seed):
    _check_all(roots, _data(seed))


def _with_tt(e):
    return [e, e.T.T]


# DAGs on which some mode or format was off dense Base
FOUND = {
    # Outer driven by a != against a matrix; Outer max over non-zeros only
    "neq_outer": lambda X, Y, U, V, c: [X != U @ V.T],
    "max_outer": lambda X, Y, U, V, c: [H.max_(X * (U @ V.T))],
    # Outer over X's non-zeros, whose cells are not 0 where X is
    "outer_plus": lambda X, Y, U, V, c: [H.sum_((X * 2 + 1) * (U @ V.T))],
    # a multi-aggregate iterated X's non-zeros for a root not reading X
    "magg_other_root": lambda X, Y, U, V, c: [H.sum_(X * Y), H.sum_(Y**2)],
    # a CLA whole side of a Row operator reached vl.t undecompressed
    "row_cla_side": lambda X, Y, U, V, c: [X.T.T @ V],
    # a failed CPlan's basic ops recomputed a root another operator makes
    "fallback_root": lambda X, Y, U, V, c: _with_tt(U @ V.T),
    # the hand-coded sum(X * Y) read a vector Y at X's cells
    "tak_vector": lambda X, Y, U, V, c: [H.sum_(X * c), H.sum_(c * X)],
}


@pytest.mark.parametrize("case", sorted(FOUND))
def test_found_dags(case):
    X, Y = H.var("X", R, C, 0.3), H.var("Y", R, C, 0.8)
    U, V, c = H.var("U", R, K), H.var("V", C, K), H.var("c", R, 1)
    _check_all(FOUND[case](X, Y, U, V, c), _data(0))


# --------------------------------------------------------------- Spark
@pytest.mark.parametrize("mode", MODES)
def test_spark_csr_row_blocks(spark, mode):
    from repro.sparkdist.blocked import RowBlockMatrix
    from repro.sparkdist.executor import SparkEngine

    sp = float(np.mean(_X != 0))
    X = H.var("X", N, M, sp)
    rb = RowBlockMatrix.from_matrix(spark, CSR.from_dense(_X), block_rows=64)
    eng = SparkEngine(spark, mode)
    for row in ("neq_half", "pow_zero"):
        (ref,) = _run("base", _ROWS[row](H.var("X", N, M)), {"X": _X})
        got = eng(_ROWS[row](X)[0], {"X": rb})
        assert float(got) == pytest.approx(float(ref), rel=1e-12), row
