"""K-Means clustering (1 run, k centroids) — Table 2 row 4.

Per-iteration DAG: the distance chain
``D = rowSums(X²) − 2·X·Cᵀ + rowSums(C²)ᵀ``, the assignment indicator
``A = (D == rowMins(D))``, centroid update ``Cᵀ-raw = Aᵀ X`` (Row
col_agg_t fusion), counts, and the WCSS objective — the pattern whose
fusion wins 12–21x in Tables 4/6.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import hop as H
from repro.lina.sparse import CSR


@dataclass
class KMeansConfig:
    k: int = 5
    runs: int = 1
    eps: float = 1e-12
    max_iter: int = 20
    seed: int = 7


def run(engine, X, cfg: KMeansConfig | None = None, init_C=None) -> dict:
    cfg = cfg or KMeansConfig()
    from repro.algorithms.engine import shape_sp

    (n, m), sp = shape_sp(X)
    if init_C is not None:
        C = np.asarray(init_C, dtype=np.float64).copy()
    else:
        g = np.random.default_rng(cfg.seed)
        idx = g.choice(n, cfg.k, replace=False)
        if isinstance(X, CSR):
            C = np.vstack([X.row_slice(i, i + 1).to_dense() for i in idx])
        elif isinstance(X, np.ndarray):
            C = X[idx].copy()
        else:
            raise ValueError("distributed KMeans needs init_C")

    Xh = H.var("X", n, m, sp)
    Ch = H.var("C", cfg.k, m)
    rowx2 = H.row_sums(Xh**2.0)  # precomputed once
    rx2h = H.var("rowx2", n, 1)

    D = rx2h - 2.0 * (Xh @ Ch.T) + H.row_sums(Ch**2.0).T
    A = D == H.row_mins(D)
    Craw = A.T @ Xh
    counts = H.col_sums(A)
    obj = H.sum_(H.row_mins(D))
    iter_dag = [Craw, counts, obj]

    rowx2_v = engine(rowx2, {"X": X})  # n×1: local even for RBM inputs
    objs = []
    for _ in range(cfg.max_iter):
        Craw_v, counts_v, obj_v = engine(
            iter_dag, {"X": X, "C": C, "rowx2": rowx2_v}
        )
        objs.append(float(obj_v))
        cnt = np.maximum(np.asarray(counts_v).reshape(-1, 1), 1.0)
        C_new = np.asarray(Craw_v) / cnt
        if np.abs(C_new - C).max() < cfg.eps:
            C = C_new
            break
        C = C_new
    return {"C": C, "objs": objs, "iters": len(objs)}
