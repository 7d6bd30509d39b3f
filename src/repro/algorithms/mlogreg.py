"""Multinomial logistic regression (MLogreg) — Table 2 row 2.

The inner conjugate-gradient loop evaluates the paper's Expression (2):
``Q = P[,1:k] ⊙ (Xv);  Hv = Xᵀ(Q − P[,1:k] ⊙ rowSums(Q))`` — the
flagship Row-template fusion pattern (Figures 3(c) and 5).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import hop as H


@dataclass
class MLogregConfig:
    icpt: int = 0
    k: int = 2               # number of classes (2 or 5 in Table 2)
    lam: float = 1e-3
    eps: float = 1e-12
    max_iter: int = 20
    max_inner: int = 5


def run(engine, X, Y, cfg: MLogregConfig | None = None) -> dict:
    """Y: one-hot label matrix n×(k-1) for the first k-1 classes."""
    cfg = cfg or MLogregConfig()
    from repro.algorithms.engine import shape_sp

    (n, m), sp = shape_sp(X)
    kk = cfg.k - 1  # free classes
    B = np.zeros((m, kk))

    Xh = H.var("X", n, m, sp)
    Bh = H.var("B", m, kk)
    Yh = H.var("Y", n, kk)
    # probability + gradient DAG
    E = H.exp(Xh @ Bh)
    Pk = E / (H.row_sums(E) + 1.0)
    G = Xh.T @ (Pk - Yh) + cfg.lam * Bh
    prob_dag = [Pk, G]

    # Expression (2) Hessian-vector DAG. Only the first k-1 columns of P
    # participate (P[,1:k]); binding P = Pk keeps the driver glue free of
    # distributed concatenation while preserving the rix in the DAG.
    Ph = H.var("P", n, kk)
    vh = H.var("v", m, kk)
    Pc = Ph.cols(0, kk)
    Q = Pc * (Xh @ vh)
    Hv = Xh.T @ (Q - Pc * H.row_sums(Q)) + cfg.lam * vh

    objs = []
    for _ in range(cfg.max_iter):
        Pk_v, G_v = engine(prob_dag, {"X": X, "B": B, "Y": Y})
        Pfull = Pk_v
        objs.append(float(np.abs(G_v).sum()))
        # CG solve H dx = -G
        r = -np.asarray(G_v)
        p = r.copy()
        dx = np.zeros_like(B)
        rs = float((r * r).sum())
        for _ in range(cfg.max_inner):
            Hp = np.asarray(engine(Hv, {"X": X, "v": p, "P": Pfull}))
            alpha = rs / max(float((p * Hp).sum()), cfg.eps)
            dx += alpha * p
            r -= alpha * Hp
            rs_new = float((r * r).sum())
            if rs_new < cfg.eps:
                break
            p = r + (rs_new / rs) * p
            rs = rs_new
        B = B + dx
        if objs[-1] < 1e-8:
            break
    return {"B": B, "objs": objs, "iters": len(objs)}
