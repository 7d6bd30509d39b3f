"""Experiment harnesses reproducing the evaluation tables (paper §5).

Each ``tableN_rows`` function runs the corresponding experiment at
reduced scale (see DESIGN.md §4 for the size mapping) and returns one
dict per printed row; ``format_rows`` renders them like the paper's
tables so EXPERIMENTS.md can diff paper vs measured.

Modes map to the paper's systems: Base, Fused, Gen, Gen-FA, Gen-FNR.
"""
from __future__ import annotations

import hashlib
import time

import numpy as np

from repro.algorithms import als_cg, autoencoder, glm, kmeans, l2svm, mlogreg
from repro.algorithms.engine import MODES, Engine
from repro.core.fused_lib import HandOp
from repro.data import mldata
from repro.lina.sparse import CSR

MODE_LABEL = {
    "base": "Base", "fused": "Fused", "gen": "Gen",
    "gen_fa": "FA", "gen_fnr": "FNR",
}

# dense-intermediate budget above which non-sparsity-exploiting modes are
# infeasible (paper Table 5's N/A entries)
NA_DENSE_BYTES = 1.5e9


# --------------------------------------------------------------- utilities
def _time(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def format_rows(rows: list[dict], cols: list[str]) -> str:
    widths = {c: max(len(c), *(len(str(r.get(c, ""))) for r in rows)) for c in cols}
    line = " | ".join(c.ljust(widths[c]) for c in cols)
    sep = "-+-".join("-" * widths[c] for c in cols)
    body = "\n".join(
        " | ".join(str(r.get(c, "")).ljust(widths[c]) for c in cols) for r in rows
    )
    return f"{line}\n{sep}\n{body}"


def plan_signatures(jobs: dict, make_engine, modes) -> dict:
    """Run each algorithm of ``jobs`` (name -> fn(engine) -> result dict)
    once per mode on a fresh ``make_engine(mode)`` and return, per
    algorithm and mode, the engine's plans in compile order: one string
    per operator (a basic op's name, ``hand:<name>``, or
    ``<template>/<variant>:<covered hops>:<source hash>``), with a hash of
    the results and the plans MPSkipEnum evaluated. Two runs of the same
    inputs differ exactly where a plan, a generated source or a result
    bit differs."""
    out: dict = {}
    for name, fn in jobs.items():
        out[name] = {}
        for mode in modes:
            eng = make_engine(mode)
            res = fn(eng)
            plans = []
            for plan in eng._plans.values():
                ops = []
                for spec in plan.specs:
                    op = plan.spoofs.get(spec.root.hid)
                    if op is None:
                        ops.append(spec.root.op)
                    elif isinstance(op, HandOp):
                        ops.append(f"hand:{op.name}")
                    else:
                        src = hashlib.sha256(op.src.encode()).hexdigest()[:16]
                        ops.append(f"{op.cplan.template}/{op.cplan.variant}:"
                                   f"{spec.n_covered}:{src}")
                plans.append(ops)
            h = hashlib.sha256()
            for k in sorted(res):
                v = np.ascontiguousarray(np.asarray(res[k], dtype=np.float64))
                h.update(f"{k}{v.shape}".encode() + v.tobytes())
            out[name][mode] = {
                "plans": plans,
                "result": h.hexdigest()[:16],
                "plans_evaluated": eng.ctx.stats.plans_evaluated,
            }
    return out


# ------------------------------------------------------- Table 3: overhead
def table3_rows(n_mnist: int = 6000) -> list[dict]:
    """End-to-end compilation overhead per algorithm (paper Table 3):
    total runtime, #compiled (DAGs/CPlans/operator classes), codegen and
    operator-compile milliseconds — all under Gen on a Mnist60k-like
    input."""
    X = mldata.mnist_like(n_mnist, seed=0)
    Xd = X.to_dense()
    y = mldata.binary_labels(X)
    y01 = (y > 0).astype(np.float64)
    Y2 = mldata.onehot_labels(X.shape[0], 2, seed=1)[:, :1]
    runs = {
        "L2SVM": lambda e: l2svm.run(e, X, y, l2svm.L2SVMConfig(max_iter=5)),
        "MLogreg": lambda e: mlogreg.run(
            e, X, Y2, mlogreg.MLogregConfig(k=2, max_iter=3, max_inner=3)
        ),
        "GLM": lambda e: glm.run(e, X, y01, glm.GLMConfig(max_iter=3, max_inner=3)),
        "KMeans": lambda e: kmeans.run(e, Xd, kmeans.KMeansConfig(k=5, max_iter=3)),
        "ALS-CG": lambda e: als_cg.run(
            e,
            mldata.netflix_like(2000, 1000, seed=2),
            als_cg.ALSCGConfig(rank=20, max_iter=2, max_inner=2),
        ),
        "AutoEncoder": lambda e: autoencoder.run(
            e, Xd[:2048], autoencoder.AutoEncoderConfig(h1=200, h2=2, batch=512)
        ),
    }
    rows = []
    for name, fn in runs.items():
        eng = Engine("gen")
        secs = _time(lambda: fn(eng))
        s = eng.ctx.stats
        rows.append(
            {
                "algorithm": name,
                "total_s": round(secs, 2),
                "compile(dags/cplans/classes)": f"{s.n_dags}/{s.n_cplans}/{s.n_compiled}",
                "codegen_ms": round(s.codegen_ms, 1),
                "class_compile_ms": round(s.compile_ms, 2),
                "cache_hits": s.cache_hits,
                "plans_evaluated": s.plans_evaluated,
            }
        )
    return rows


# ------------------------------------------- Table 4: data-intensive algos
def table4_datasets() -> dict[str, object]:
    return {
        "1e5x10": mldata.dense_features(100_000, 10, seed=3),
        "3e5x10": mldata.dense_features(300_000, 10, seed=4),
        "1e6x10": mldata.dense_features(1_000_000, 10, seed=5),
        "Airline78-lite": mldata.airline_like(200_000, seed=6),
        "Mnist8m-lite": mldata.mnist_like(20_000, seed=7),
    }


def table4_rows(
    modes: tuple[str, ...] = MODES,
    datasets: dict | None = None,
    iters: int = 5,
) -> list[dict]:
    """Runtime of data-intensive algorithms, single node (paper Table 4)."""
    datasets = datasets or table4_datasets()
    rows = []
    for algo in ("L2SVM", "MLogreg", "GLM", "KMeans"):
        for dname, X in datasets.items():
            row = {"algorithm": algo, "data": dname}
            y = mldata.binary_labels(X, w_seed=11)
            y01 = (y > 0).astype(np.float64)
            Y2 = mldata.onehot_labels(X.shape[0], 2, seed=12)[:, :1]
            for mode in modes:
                eng = Engine(mode)
                if algo == "L2SVM":
                    secs = _time(
                        lambda: l2svm.run(eng, X, y, l2svm.L2SVMConfig(max_iter=iters))
                    )
                elif algo == "MLogreg":
                    secs = _time(
                        lambda: mlogreg.run(
                            eng, X, Y2,
                            mlogreg.MLogregConfig(k=2, max_iter=max(2, iters // 2), max_inner=3),
                        )
                    )
                elif algo == "GLM":
                    secs = _time(
                        lambda: glm.run(
                            eng, X, y01,
                            glm.GLMConfig(max_iter=max(2, iters // 2), max_inner=4),
                        )
                    )
                else:
                    secs = _time(
                        lambda: kmeans.run(
                            eng, X, kmeans.KMeansConfig(k=5, max_iter=iters)
                        )
                    )
                row[MODE_LABEL[mode]] = round(secs, 2)
            rows.append(row)
    return rows


# ---------------------------------------- Table 5: compute-intensive algos
def table5_datasets() -> dict[str, CSR]:
    return {
        "2e3x2e3(0.01)": CSR.random(2000, 2000, 0.01, seed=8),
        "6e3x6e3(0.01)": CSR.random(6000, 6000, 0.01, seed=9),
        "Netflix-lite": mldata.netflix_like(4000, 1500, seed=10),
        "Amazon-lite": mldata.amazon_like(20_000, 20_000, seed=11),
    }


def table5_ae_datasets() -> dict[str, np.ndarray]:
    return {
        "16e3x256": mldata.dense_features(16_384, 256, seed=12),
        "Mnist1m-lite": mldata.mnist_like(16_384, seed=14).to_dense(),
    }


def table5_rows(modes: tuple[str, ...] = MODES) -> list[dict]:
    """Runtime of compute-intensive algorithms (paper Table 5): ALS-CG on
    sparse/ultra-sparse data (N/A where a dense UVᵀ intermediate would
    not fit, as in the paper), AutoEncoder on dense data."""
    rows = []
    for dname, X in table5_datasets().items():
        row = {"algorithm": "ALS-CG", "data": dname}
        cfg = als_cg.ALSCGConfig(rank=20, max_iter=3, max_inner=2)
        dense_bytes = X.shape[0] * X.shape[1] * 8
        for mode in modes:
            if mode in ("base", "gen_fa", "gen_fnr") and dense_bytes > NA_DENSE_BYTES:
                row[MODE_LABEL[mode]] = "N/A"
                continue
            eng = Engine(mode)
            secs = _time(lambda: als_cg.run(eng, X, cfg))
            row[MODE_LABEL[mode]] = round(secs, 2)
        rows.append(row)
    for dname, X in table5_ae_datasets().items():
        row = {"algorithm": "AutoEncoder", "data": dname}
        h1 = 500 if X.shape[1] > 500 else 200  # paper: H1=500 on Mnist
        cfg = autoencoder.AutoEncoderConfig(h1=h1, h2=2, batch=512, epochs=1)
        for mode in modes:
            eng = Engine(mode)
            secs = _time(lambda: autoencoder.run(eng, X, cfg))
            row[MODE_LABEL[mode]] = round(secs, 2)
        rows.append(row)
    return rows


# --------------------------------------------- Table 6: distributed algos
def table6_datasets() -> dict[str, object]:
    return {
        "D200m-lite": mldata.dense_features(120_000, 100, seed=15),
        "S200m-lite": mldata.sparse_features(120_000, 1000, 0.05, seed=16),
        "Mnist80m-lite": mldata.mnist_like(40_000, seed=17),
    }


def table6_rows(
    spark,
    modes: tuple[str, ...] = MODES,
    datasets: dict | None = None,
    iters: int = 2,
    block_rows: int = 8192,
) -> list[dict]:
    """Runtime of distributed algorithms (paper Table 6): X and the label
    vectors live as row-block DataFrames; the engine collects results
    narrower than X (such as ``X %*% w``) to the driver."""
    from repro.sparkdist.blocked import RowBlockMatrix
    from repro.sparkdist.executor import SparkEngine

    datasets = datasets or table6_datasets()
    rows = []
    for dname, Xl in datasets.items():
        yl = mldata.binary_labels(Xl, w_seed=18)
        y01 = (yl > 0).astype(np.float64)
        Y2 = mldata.onehot_labels(Xl.shape[0], 2, seed=19)[:, :1]
        if isinstance(Xl, CSR):
            init_C = np.vstack(
                [Xl.row_slice(i, i + 1).to_dense() for i in range(5)]
            )
        else:
            init_C = Xl[:5].copy()
        X = RowBlockMatrix.from_matrix(spark, Xl, block_rows=block_rows)
        X.materialize()
        yb = RowBlockMatrix.from_matrix(spark, yl, block_rows=block_rows)
        yb.materialize()
        y01b = RowBlockMatrix.from_matrix(spark, y01, block_rows=block_rows)
        y01b.materialize()
        Y2b = RowBlockMatrix.from_matrix(spark, Y2, block_rows=block_rows)
        Y2b.materialize()
        for algo in ("L2SVM", "MLogreg", "GLM", "KMeans"):
            row = {"algorithm": algo, "data": dname}
            for mode in modes:
                eng = SparkEngine(spark, mode)
                if algo == "L2SVM":
                    secs = _time(
                        lambda: l2svm.run(
                            eng, X, yb, l2svm.L2SVMConfig(max_iter=iters)
                        )
                    )
                elif algo == "MLogreg":
                    secs = _time(
                        lambda: mlogreg.run(
                            eng, X, Y2b,
                            mlogreg.MLogregConfig(k=2, max_iter=iters, max_inner=2),
                        )
                    )
                elif algo == "GLM":
                    secs = _time(
                        lambda: glm.run(
                            eng, X, y01b,
                            glm.GLMConfig(max_iter=iters, max_inner=2),
                        )
                    )
                else:
                    secs = _time(
                        lambda: kmeans.run(
                            eng, X, kmeans.KMeansConfig(k=5, max_iter=iters),
                            init_C=init_C,
                        )
                    )
                row[MODE_LABEL[mode]] = round(secs, 2)
            rows.append(row)
        for rb in (X, yb, y01b, Y2b):
            rb.unpersist()
    return rows
