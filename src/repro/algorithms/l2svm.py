"""L2-regularized linear SVM (2 classes) — Table 2 row 1.

Follows SystemML's l2-svm.dml structure: outer gradient iterations with a
second-order exact step, expressed as two HOP DAGs per iteration. The
gradient DAG contains the classic fusion chain ``t(X) %*% ((out>0) ⊙ out
⊙ y)`` and the step DAG the mmchain pattern ``sum(sv ⊙ (Xd)^2)``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.algorithms.engine import shape_sp
from repro.core import hop as H


@dataclass
class L2SVMConfig:
    icpt: int = 0
    lam: float = 1e-3
    eps: float = 1e-12
    max_iter: int = 20


def run(engine, X, y, cfg: L2SVMConfig | None = None) -> dict:
    cfg = cfg or L2SVMConfig()
    (n, m), sp = shape_sp(X)
    w = np.zeros((m, 1))

    Xh = H.var("X", n, m, sp)
    yh = H.var("y", n, 1)
    wh = H.var("w", m, 1)
    dh = H.var("d", m, 1)
    svh = H.var("sv", n, 1)

    out_e = 1.0 - yh * (Xh @ wh)
    sv_e = out_e > 0.0
    hinge = sv_e * out_e
    g_e = cfg.lam * wh - Xh.T @ (hinge * yh)
    obj_e = 0.5 * H.sum_(hinge**2.0) + 0.5 * cfg.lam * H.sum_(wh**2.0)
    grad_dag = [g_e, obj_e, sv_e]

    xd = Xh @ dh
    dd_e = H.sum_(svh * xd * xd) + cfg.lam * H.sum_(dh**2.0)

    objs = []
    for _ in range(cfg.max_iter):
        g, obj, sv = engine(grad_dag, {"X": X, "y": y, "w": w})
        objs.append(float(obj))
        d = -np.asarray(g)
        gg = float(np.dot(d.ravel(), d.ravel()))
        if gg < cfg.eps:
            engine.release(sv)
            break
        dd = engine(dd_e, {"X": X, "d": d, "sv": sv})
        engine.release(sv)  # as wide as y: distributed with a distributed y
        step = gg / max(float(dd), cfg.eps)
        w = w + step * d
    return {"w": w, "objs": objs, "iters": len(objs)}
