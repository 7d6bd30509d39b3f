"""Hand-coded fused operators — the paper's *Fused* baseline.

SystemML's default configuration replaces a fixed set of 2–3-operator
patterns with hand-written kernels (tak+*, mmchain, wdivmm, wsloss,
wcemm, ...). We reproduce that baseline: a structural pattern matcher
over the HOP DAG plus one hand-coded numpy kernel per pattern. Anything
not matching a fixed pattern runs as basic operators — which is exactly
why Fused trails Gen on longer chains and DAGs (paper §5.4).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core import vectlib
from repro.core.cplan import CPlan
from repro.core.executor import Value
from repro.core.hop import Hop, consumers, postorder
from repro.core.templates import OUTER_RANK_MAX
from repro.core.vectlib import _dense
from repro.lina.compressed import CLAMatrix
from repro.lina.sparse import CSR

_BLOCK = 32768  # rows per block in blocked kernels


@dataclass
class HandOp:
    """A matched hand-coded operator. A pattern over a main input (tak,
    mmchain) has a ``cplan`` that binds its data as a generated
    operator's does (main input, sides, the sides read whole, variant;
    no op order: the kernel is hand-written), so the distributed runtime
    runs it as it runs a generated one (paper §2.2). A HandOp pickles as
    its root and is matched again on unpickling, so a wrapped ``fn``
    never ships."""

    root: Hop
    name: str
    fn: Callable[[dict[int, Value]], Value]  # env-by-hid -> value
    interior: set[int]  # covered non-root hops
    cplan: CPlan | None = None  # None: no main input (wdivmm, wsloss, wcemm)

    def __reduce__(self):
        return _match_root, (self.root,)

    @property
    def input_hids(self) -> list[int]:
        return [self.cplan.main_hid, *self.cplan.side_hids]

    def execute(self, input_values: list) -> Value:
        """The kernel over values aligned with ``input_hids``."""
        return self.fn(dict(zip(self.input_hids, input_values)))


def _binding(h: Hop, template: str, variant: str, x: Hop, aligned=(), whole=()):
    """The CPlan of a pattern rooted at h whose partials over the row
    blocks of main input x are summed; None when one input would be read
    both row-aligned and whole."""
    whole_hids = {s.hid for s in whole}
    if any(s.hid in whole_hids for s in aligned):
        return None
    sides = [s.hid for s in [*whole, *aligned] if s.hid != x.hid]
    return CPlan(template, variant, h, [], x.hid, sides, {}, False,
                 meta={"whole_sides": whole_hids})


# ------------------------------------------------------------------ kernels
def _k_ta_mult_sum(x: Hop, y: Hop):
    """sum(X ⊙ Y) (and sum(X^2) when x is y) in one pass, no intermediate."""

    def run(env):
        a, b = env[x.hid], env[y.hid]
        if isinstance(a, CLAMatrix) and x.hid == y.hid:
            return a.agg_cellwise_distinct(lambda v: v * v)
        if isinstance(a, CSR):
            if x.hid == y.hid:
                return float(np.dot(a.values, a.values))
            bv = (
                b.gather(a.row_index(), a.indices)
                if isinstance(b, CSR)
                else _dense(b)[a.row_index(), a.indices]
            )
            return float(np.dot(a.values, bv))
        a, b = _dense(a), _dense(b)
        total = 0.0
        for lo in range(0, a.shape[0], _BLOCK):
            total += float(np.dot(a[lo : lo + _BLOCK].ravel(), b[lo : lo + _BLOCK].ravel()))
        return total

    return run


def _k_mmchain(x: Hop, v: Hop, w: Hop | None):
    """t(X) %*% (X %*% v)  [optionally ⊙ w] in a single pass over X."""

    def run(env):
        X, vv = env[x.hid], _dense(env[v.hid])
        if isinstance(X, CSR):
            inner = X.spmm(vv)
            if w is not None:
                inner = inner * _dense(env[w.hid])
            return X.tspmm(inner)
        X = _dense(X)
        out = np.zeros((X.shape[1], vv.shape[1]))
        for lo in range(0, X.shape[0], _BLOCK):
            xb = X[lo : lo + _BLOCK]
            inner = xb @ vv
            if w is not None:
                inner = inner * _dense(env[w.hid])[lo : lo + _BLOCK]
            out += xb.T @ inner
        return out

    return run


def _nnz_coords(X):
    if not isinstance(X, CSR):
        X = CSR.from_dense(_dense(X))
    return X, X.row_index(), X.indices, X.values


def _k_wdivmm_right(x: Hop, u: Hop, vt: Hop, v: Hop):
    """((X != 0) ⊙ (U Vᵀ)) %*% V over non-zeros of X only."""

    def run(env):
        X, rix, cix, vals = _nnz_coords(env[x.hid])
        U = _dense(env[u.hid])
        V = np.ascontiguousarray(_dense(env[vt.hid]).T)
        R = _dense(env[v.hid])
        w = np.einsum("ij,ij->i", U[rix], V[cix]) * (vals != 0)
        return vectlib.outer_right_acc(w, rix, R, X.shape[0], R.shape[1], cix)

    return run


def _k_wsloss(x: Hop, u: Hop, vt: Hop):
    """sum(((X != 0) ⊙ (U Vᵀ) − X)^2) over non-zeros of X only."""

    def run(env):
        _, rix, cix, vals = _nnz_coords(env[x.hid])
        U = _dense(env[u.hid])
        V = np.ascontiguousarray(_dense(env[vt.hid]).T)
        d = np.einsum("ij,ij->i", U[rix], V[cix]) - vals
        return float(np.dot(d, d))

    return run


def _k_wcemm(x: Hop, u: Hop, vt: Hop, eps: float):
    """sum(X ⊙ log(U Vᵀ + eps)) over non-zeros of X only."""

    def run(env):
        _, rix, cix, vals = _nnz_coords(env[x.hid])
        U = _dense(env[u.hid])
        V = np.ascontiguousarray(_dense(env[vt.hid]).T)
        return float(np.dot(vals, np.log(np.einsum("ij,ij->i", U[rix], V[cix]) + eps)))

    return run


# ------------------------------------------------------------------ matching
def _is(h: Hop, op: str) -> bool:
    return h.op == op


def _lit(h: Hop) -> float | None:
    return h.value if h.op == "lit" else None


def _outer_mm(h: Hop) -> tuple[Hop, Hop] | None:
    """Match U %*% t(V)-shaped mm (narrow common dim): returns (U, Vᵀ-hop)."""
    if h.op != "ba(+*)" or h.inputs[0].ncols > OUTER_RANK_MAX:
        return None
    if not (h.nrows > h.inputs[0].ncols and h.ncols > h.inputs[0].ncols):
        return None
    return h.inputs[0], h.inputs[1]


def _match_one(h: Hop) -> tuple | None:
    """Try the fixed pattern catalogue at hop h (root of the pattern):
    (name, kernel, interior hids[, cplan])."""
    # --- sum(X ⊙ Y) / sum(X^2) ------------------------------------------
    if _is(h, "ua(+)"):
        inner = h.inputs[0]
        if _is(inner, "b(*)") and inner.inputs[0].op == inner.inputs[1].op == "leaf":
            x, y = inner.inputs
            if x.shape == y.shape:  # the kernel reads Y at X's cells
                return "tak+*", _k_ta_mult_sum(x, y), {inner.hid}, _binding(h, "C", "full_agg", x, [y])
        if _is(inner, "b(^)") and _lit(inner.inputs[1]) == 2.0 and inner.inputs[0].op == "leaf":
            x = inner.inputs[0]
            return "tak^2", _k_ta_mult_sum(x, x), {inner.hid}, _binding(h, "C", "full_agg", x)
        # sum(X ⊙ log(UVᵀ + eps))
        if _is(inner, "b(*)"):
            x, lg = inner.inputs
            if _is(lg, "u(log)") and _is(lg.inputs[0], "b(+)"):
                mm, eps = lg.inputs[0].inputs
                ep = _lit(eps)
                om = _outer_mm(mm)
                if om and ep is not None and x.op == "leaf":
                    return (
                        "wcemm",
                        _k_wcemm(x, om[0], om[1], ep),
                        {inner.hid, lg.hid, lg.inputs[0].hid, mm.hid},
                    )
        # sum((W ⊙ UVᵀ − X)^2) with W = (X != 0)
        if _is(inner, "b(^)") and _lit(inner.inputs[1]) == 2.0:
            diff = inner.inputs[0]
            if _is(diff, "b(-)"):
                wuv, x2 = diff.inputs
                if _is(wuv, "b(*)"):
                    mask, mm = wuv.inputs
                    om = _outer_mm(mm)
                    if (
                        om
                        and _is(mask, "b(!=)")
                        and mask.inputs[0].hid == x2.hid
                        and _lit(mask.inputs[1]) == 0.0
                    ):
                        return (
                            "wsloss",
                            _k_wsloss(x2, om[0], om[1]),
                            {inner.hid, diff.hid, wuv.hid, mask.hid, mm.hid},
                        )
    # --- mmchain: t(X) %*% (w ⊙ (X %*% v)) ------------------------------
    if _is(h, "ba(+*)") and _is(h.inputs[0], "t"):
        X = h.inputs[0].inputs[0]
        rhs = h.inputs[1]
        if rhs.ncols == 1:  # hand-coded mmchain applies to m-v chains only
            if _is(rhs, "ba(+*)") and rhs.inputs[0].hid == X.hid:
                v = rhs.inputs[1]
                return (
                    "mmchain",
                    _k_mmchain(X, v, None),
                    {h.inputs[0].hid, rhs.hid},
                    _binding(h, "R", "col_agg_t", X, whole=[v]),
                )
            if _is(rhs, "b(*)"):
                a, b = rhs.inputs
                for w, mv in ((a, b), (b, a)):
                    # the weights are a vector row-aligned with X
                    if _is(mv, "ba(+*)") and mv.inputs[0].hid == X.hid and w.nrows == X.nrows:
                        v = mv.inputs[1]
                        return (
                            "mmchain*",
                            _k_mmchain(X, v, w),
                            {h.inputs[0].hid, rhs.hid, mv.hid},
                            _binding(h, "R", "col_agg_t", X, [w], whole=[v]),
                        )
    # --- wdivmm-right: ((X != 0) ⊙ UVᵀ) %*% V ---------------------------
    if _is(h, "ba(+*)"):
        lhs, v = h.inputs
        if _is(lhs, "b(*)"):
            mask, mm = lhs.inputs
            om = _outer_mm(mm)
            if (
                om
                and _is(mask, "b(!=)")
                and _lit(mask.inputs[1]) == 0.0
                and v.ncols <= OUTER_RANK_MAX
            ):
                return (
                    "wdivmm",
                    _k_wdivmm_right(mask.inputs[0], om[0], om[1], v),
                    {lhs.hid, mask.hid, mm.hid},
                )
    return None


def plan_hand_fused(roots: list[Hop]) -> dict[int, HandOp]:
    """Match the pattern catalogue top-down; interior nodes must not be
    consumed outside the pattern (hand-coded operators cannot export
    intermediates)."""
    cons = consumers(roots)
    root_hids = {r.hid for r in roots}
    chosen: dict[int, HandOp] = {}
    covered: set[int] = set()
    for h in reversed(postorder(roots)):
        if h.hid in covered or h.hid in chosen:
            continue
        op = _match_root(h)
        if op is None or any(i in root_hids for i in op.interior):
            continue
        ok = all(
            all(c.hid in op.interior or c.hid == h.hid for c in cons.get(i, []))
            for i in op.interior
        )
        if not ok:
            continue
        chosen[h.hid] = op
        covered |= op.interior
    return chosen


def _match_root(h: Hop) -> HandOp | None:
    """The operator matched at h (also how a pickled HandOp is rebuilt)."""
    m = _match_one(h)
    return None if m is None else HandOp(h, *m)
