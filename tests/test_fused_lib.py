"""Hand-coded fused operators (the paper's 'Fused' baseline)."""
import numpy as np
import pytest

from repro.core import hop as H
from repro.core.executor import execute_base
from repro.core.fused_lib import plan_hand_fused
from repro.core.pipeline import execute_plan, plan_fused
from repro.lina.sparse import CSR


def _rand(n, m, seed=0):
    return np.random.default_rng(seed).random((n, m))


def _sparse(n, m, sp, seed=0):
    g = np.random.default_rng(seed)
    a = g.random((n, m))
    a[g.random((n, m)) >= sp] = 0.0
    return a


def _check(roots, bindings, expect_patterns):
    roots = [r.hop for r in roots]
    hand = plan_hand_fused(roots)
    names = sorted(op.name for op in hand.values())
    for p in expect_patterns:
        assert p in names, f"pattern {p} not matched (got {names})"
    ref = execute_base(roots, bindings)
    got = execute_plan(plan_fused(roots), bindings)
    for r, g in zip(ref, got):
        rd = r.to_dense() if isinstance(r, CSR) else r
        gd = g.to_dense() if isinstance(g, CSR) else g
        np.testing.assert_allclose(gd, rd, atol=1e-9, rtol=1e-9)


def test_tak_sum_xy_dense_and_sparse():
    n, m = 200, 40
    X, Y = H.var("X", n, m), H.var("Y", n, m)
    expr = H.sum_(X * Y)
    _check([expr], {"X": _rand(n, m, 1), "Y": _rand(n, m, 2)}, ["tak+*"])
    Xs = H.var("X", n, m, 0.1)
    expr_s = H.sum_(Xs * Y)
    x = _sparse(n, m, 0.1, 3)
    _check([expr_s], {"X": CSR.from_dense(x), "Y": _rand(n, m, 2)}, ["tak+*"])


def test_tak_sum_x_squared():
    n, m = 150, 30
    X = H.var("X", n, m)
    _check([H.sum_(X**2.0)], {"X": _rand(n, m, 4)}, ["tak^2"])


def test_mmchain():
    n, m = 400, 50
    X, v = H.var("X", n, m), H.var("v", m, 1)
    expr = X.T @ (X @ v)
    _check([expr], {"X": _rand(n, m, 5), "v": _rand(m, 1, 6)}, ["mmchain"])


def test_mmchain_weighted():
    n, m = 300, 25
    X, v, w = H.var("X", n, m), H.var("v", m, 1), H.var("w", n, 1)
    expr = X.T @ (w * (X @ v))
    b = {"X": _rand(n, m, 7), "v": _rand(m, 1, 8), "w": _rand(n, 1, 9)}
    _check([expr], b, ["mmchain*"])


def test_mmchain_not_applied_to_matrix_chains():
    # hand-coded mmchain only covers matrix-VECTOR chains (paper §5.2:
    # 'the hand-coded mmchain operator only applies to matrix-vector')
    n, m, k = 300, 25, 2
    X, V = H.var("X", n, m), H.var("V", m, k)
    expr = X.T @ (X @ V)
    hand = plan_hand_fused([expr.hop])
    assert not any(op.name.startswith("mmchain") for op in hand.values())


def test_wdivmm_right():
    n, m, r = 120, 90, 8
    x = _sparse(n, m, 0.05, 10)
    X = H.var("X", n, m, 0.05)
    U, V = H.var("U", n, r), H.var("V", m, r)
    expr = ((X != 0) * (U @ V.T)) @ V
    b = {"X": CSR.from_dense(x), "U": _rand(n, r, 11), "V": _rand(m, r, 12)}
    _check([expr], b, ["wdivmm"])


def test_wsloss():
    n, m, r = 100, 80, 6
    x = _sparse(n, m, 0.08, 13)
    X = H.var("X", n, m, 0.08)
    U, V = H.var("U", n, r), H.var("V", m, r)
    expr = H.sum_(((X != 0) * (U @ V.T) - X) ** 2.0)
    b = {"X": CSR.from_dense(x), "U": _rand(n, r, 14), "V": _rand(m, r, 15)}
    _check([expr], b, ["wsloss"])


def test_wcemm():
    n, m, r = 90, 70, 5
    x = _sparse(n, m, 0.1, 16)
    X = H.var("X", n, m, 0.1)
    U, V = H.var("U", n, r), H.var("V", m, r)
    expr = H.sum_(X * H.log(U @ V.T + 1e-15))
    b = {"X": CSR.from_dense(x), "U": _rand(n, r, 17) + 0.5, "V": _rand(m, r, 18) + 0.5}
    _check([expr], b, ["wcemm"])


def test_no_pattern_falls_back_to_base():
    n, m = 80, 20
    X, Y, Z = H.var("X", n, m), H.var("Y", n, m), H.var("Z", n, m)
    expr = H.sum_(X * Y * Z)  # 3-ary chain: not in the fixed catalogue
    hand = plan_hand_fused([expr.hop])
    assert not hand
    b = {"X": _rand(n, m, 19), "Y": _rand(n, m, 20), "Z": _rand(n, m, 21)}
    _check([expr], b, [])


def test_pattern_rejected_when_interior_has_external_consumer():
    n, m = 100, 30
    X, v = H.var("X", n, m), H.var("v", m, 1)
    inner = X @ v
    chain = X.T @ inner
    other = H.sum_(inner)  # external consumer of the interior Xv
    hand = plan_hand_fused([chain.hop, other.hop])
    assert not any(op.name == "mmchain" for op in hand.values())
    b = {"X": _rand(n, m, 22), "v": _rand(m, 1, 23)}
    _check([chain, other], b, [])


def test_mmchain_weighted_by_a_scalar_runs_basic_ops():
    # mmchain* slices its weights by rows; a scalar weight is no vector
    n, m = 60, 5
    X, v = H.var("X", n, m), H.var("v", m, 1)
    expr = X.T @ (2.0 * (X @ v))
    assert not plan_hand_fused([expr.hop])
    _check([expr], {"X": _rand(n, m, 24), "v": _rand(m, 1, 25)}, [])


def _pattern_cases():
    n, m, r = 60, 40, 4
    x = _sparse(n, m, 0.1, 26)
    X, Y = H.var("X", n, m), H.var("Y", n, m)
    Xs = H.var("X", n, m, 0.1)
    v, w = H.var("v", m, 1), H.var("w", n, 1)
    U, V = H.var("U", n, r), H.var("V", m, r)
    binds = {
        "X": CSR.from_dense(x), "Y": _rand(n, m, 27), "v": _rand(m, 1, 28),
        "w": _rand(n, 1, 29), "U": _rand(n, r, 30) + 0.5, "V": _rand(m, r, 31) + 0.5,
    }
    return binds, {
        "tak+*": H.sum_(X * Y),
        "tak^2": H.sum_(X**2.0),
        "mmchain": X.T @ (X @ v),
        "mmchain*": X.T @ (w * (X @ v)),
        "wdivmm": ((Xs != 0) * (U @ V.T)) @ V,
        "wsloss": H.sum_(((Xs != 0) * (U @ V.T) - Xs) ** 2.0),
        "wcemm": H.sum_(Xs * H.log(U @ V.T + 1e-15)),
    }


@pytest.mark.parametrize("name", ["tak+*", "tak^2", "mmchain", "mmchain*", "wdivmm", "wsloss", "wcemm"])
def test_hand_op_pickles_as_its_root(name):
    # a HandOp ships as its root hop and is matched again on unpickling
    import pickle

    from repro.core.executor import eval_hop
    from repro.core.hop import postorder

    binds, exprs = _pattern_cases()
    root = exprs[name].hop
    (op,) = plan_hand_fused([root]).values()
    back = pickle.loads(pickle.dumps(op))
    assert (back.name, back.interior, back.root.hid) == (name, op.interior, root.hid)
    env = {}
    for h in postorder([root]):
        env[h.hid] = eval_hop(h, env, binds)
    assert np.array_equal(back.fn(env), op.fn(env))


def test_mmchain_binding_per_block():
    # v is read whole; w is row-aligned with X. With w = v (square X) one
    # input would be read both ways, so there is no per-block binding
    n = 30
    X, v, w = H.var("X", n, n), H.var("v", n, 1), H.var("w", n, 1)
    (op,) = plan_hand_fused([(X.T @ (w * (X @ v))).hop]).values()
    cp = op.cplan
    assert (cp.main_hid, cp.side_hids, cp.meta["whole_sides"]) == (
        X.hop.hid, [v.hop.hid, w.hop.hid], {v.hop.hid}
    )
    (op,) = plan_hand_fused([(X.T @ (v * (X @ v))).hop]).values()
    assert op.name == "mmchain*" and op.cplan is None
