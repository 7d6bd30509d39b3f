"""GLM — Table 2 row 3 (paper: binomial probit).

Substitution note (documented in DESIGN.md): the probit link needs the
Gaussian CDF (no ``erf`` in our operator set), so we run the binomial
*logit* link. The computational pattern the tables measure is identical:
per-iteration matrix-vector chains ``η = Xβ``, link evaluation, and an
inner CG on ``Hv = Xᵀ(W ⊙ (Xv)) + λv`` — the same memory-bandwidth-bound
Row-template chains.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import hop as H


@dataclass
class GLMConfig:
    dfam: str = "binomial-logit"  # paper config: binprobit (see module doc)
    icpt: int = 0
    lam: float = 1e-3
    eps: float = 1e-12
    max_iter: int = 20
    max_inner: int = 10


def run(engine, X, y, cfg: GLMConfig | None = None) -> dict:
    """y in {0,1} (n×1)."""
    cfg = cfg or GLMConfig()
    from repro.algorithms.engine import shape_sp

    (n, m), sp = shape_sp(X)
    b = np.zeros((m, 1))

    Xh = H.var("X", n, m, sp)
    bh = H.var("b", m, 1)
    yh = H.var("y", n, 1)
    vh = H.var("v", m, 1)
    Wh = H.var("W", n, 1)

    p = H.sigmoid(Xh @ bh)
    G = Xh.T @ (p - yh) + cfg.lam * bh
    W = p * (1.0 - p)
    grad_dag = [G, W]

    Hv = Xh.T @ (Wh * (Xh @ vh)) + cfg.lam * vh

    objs = []
    for _ in range(cfg.max_iter):
        G_v, W_v = engine(grad_dag, {"X": X, "b": b, "y": y})
        objs.append(float(np.abs(G_v).sum()))
        r = -np.asarray(G_v)
        pdir = r.copy()
        dx = np.zeros_like(b)
        rs = float((r * r).sum())
        for _ in range(cfg.max_inner):
            Hp = np.asarray(engine(Hv, {"X": X, "v": pdir, "W": W_v}))
            alpha = rs / max(float((pdir * Hp).sum()), cfg.eps)
            dx += alpha * pdir
            r -= alpha * Hp
            rs_new = float((r * r).sum())
            if rs_new < cfg.eps:
                break
            pdir = r + (rs_new / rs) * pdir
            rs = rs_new
        b = b + dx
        if objs[-1] < 1e-8:
            break
    return {"b": b, "objs": objs, "iters": len(objs)}
