"""Experiment harnesses reproducing the evaluation tables (paper §5).

Every table cell is a job, ``name -> fn(engine) -> result dict``, that
``time_jobs`` times once per mode on a fresh engine. ``tableN_jobs``
(Table 5: ``als_job``, ``ae_job``) build one dataset's jobs;
``tableN_rows`` runs a table at reduced scale (DESIGN.md §4 maps the
sizes) and returns one dict per printed row, which ``format_rows``
renders like the paper's tables. ``benchmarks/bench_tables.py``
measures the same jobs on smaller inputs.

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

# the data-intensive algorithms, in the tables' row order
ALGOS = ("L2SVM", "MLogreg", "GLM", "KMeans")

# dense-intermediate budget above which non-sparsity-exploiting modes are
# infeasible (paper Table 5's N/A entries)
NA_DENSE_BYTES = 1.5e9


# --------------------------------------------------------------- utilities
def _time(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def time_jobs(jobs: dict, make_engine, modes, **row_key) -> list[dict]:
    """One row per job: its name as ``algorithm``, ``row_key``, and per
    mode the seconds one run takes on a fresh ``make_engine(mode)``."""
    rows = []
    for name, fn in jobs.items():
        row = {"algorithm": name, **row_key}
        for mode in modes:
            eng = make_engine(mode)
            row[MODE_LABEL[mode]] = round(_time(lambda: fn(eng)), 2)
        rows.append(row)
    return rows


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


# -------------------------------------------------------------------- jobs
def data_jobs(X, y, y01, Y2, cfgs, Xk=None, init_C=None) -> dict:
    """L2SVM on ±1 labels ``y``, MLogreg on a one-hot column ``Y2``, GLM on
    0/1 labels ``y01`` (all on ``X``) and KMeans on ``Xk`` (default ``X``)
    from ``init_C``, with ``cfgs`` their configs in that order."""
    svm_cfg, mlr_cfg, glm_cfg, km_cfg = cfgs
    Xk = X if Xk is None else Xk
    return {
        "L2SVM": lambda e: l2svm.run(e, X, y, svm_cfg),
        "MLogreg": lambda e: mlogreg.run(e, X, Y2, mlr_cfg),
        "GLM": lambda e: glm.run(e, X, y01, glm_cfg),
        "KMeans": lambda e: kmeans.run(e, Xk, km_cfg, init_C=init_C),
    }


def _labels(X, w_seed: int, seed: int) -> list:
    """``X``'s ±1 labels, the same as 0/1, and a one-hot class column."""
    y = mldata.binary_labels(X, w_seed=w_seed)
    Y2 = mldata.onehot_labels(X.shape[0], 2, seed=seed)[:, :1]
    return [y, (y > 0).astype(np.float64), Y2]


def als_job(X, max_iter: int = 3):
    cfg = als_cg.ALSCGConfig(rank=20, max_iter=max_iter, max_inner=2)
    return lambda e: als_cg.run(e, X, cfg)


def ae_job(X, h1: int = 200):
    cfg = autoencoder.AutoEncoderConfig(h1=h1, h2=2, batch=512, epochs=1)
    return lambda e: autoencoder.run(e, X, cfg)


# ------------------------------------------------------- Table 3: overhead
def table3_jobs(n_mnist: int = 6000) -> dict:
    """All six algorithms on a Mnist60k-like input (KMeans and the
    AutoEncoder on its dense form), ALS-CG on Netflix-lite."""
    X = mldata.mnist_like(n_mnist, seed=0)
    Xd = X.to_dense()
    cfgs = (l2svm.L2SVMConfig(max_iter=5),
            mlogreg.MLogregConfig(k=2, max_iter=3, max_inner=3),
            glm.GLMConfig(max_iter=3, max_inner=3),
            kmeans.KMeansConfig(k=5, max_iter=3))
    return {
        **data_jobs(X, *_labels(X, w_seed=1, seed=1), cfgs, Xk=Xd),
        "ALS-CG": als_job(mldata.netflix_like(2000, 1000, seed=2), max_iter=2),
        "AutoEncoder": ae_job(Xd[:2048]),
    }


def table3_rows(n_mnist: int = 6000) -> list[dict]:
    """End-to-end compilation overhead per algorithm under Gen (paper
    Table 3): total runtime, #compiled (DAGs/CPlans/operator classes),
    codegen and operator-compile milliseconds."""
    rows = []
    for name, fn in table3_jobs(n_mnist).items():
        eng = Engine("gen")
        secs = _time(lambda: fn(eng))
        s = eng.ctx.stats
        rows.append({
            "algorithm": name, "total_s": round(secs, 2),
            "compile(dags/cplans/classes)": f"{s.n_dags}/{s.n_cplans}/{s.n_compiled}",
            "codegen_ms": round(s.codegen_ms, 1), "class_compile_ms": round(s.compile_ms, 2),
            "cache_hits": s.cache_hits, "plans_evaluated": s.plans_evaluated,
        })
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


def table4_jobs(X, iters: int = 5) -> dict:
    half = max(2, iters // 2)
    cfgs = (l2svm.L2SVMConfig(max_iter=iters),
            mlogreg.MLogregConfig(k=2, max_iter=half, max_inner=3),
            glm.GLMConfig(max_iter=half, max_inner=4),
            kmeans.KMeansConfig(k=5, max_iter=iters))
    return data_jobs(X, *_labels(X, w_seed=11, seed=12), cfgs)


def table4_rows(modes: tuple[str, ...] = MODES, datasets: dict | None = None,
                iters: int = 5) -> list[dict]:
    """Runtime of data-intensive algorithms, single node (paper Table 4),
    one row per algorithm and dataset, algorithm-major."""
    datasets = datasets or table4_datasets()
    jobs = {dname: table4_jobs(X, iters) for dname, X in datasets.items()}
    return [row for algo in ALGOS for dname, js in jobs.items()
            for row in time_jobs({algo: js[algo]}, Engine, modes, data=dname)]


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
        na = X.shape[0] * X.shape[1] * 8 > NA_DENSE_BYTES
        ok = [m for m in modes if not (na and m in ("base", "gen_fa", "gen_fnr"))]
        (row,) = time_jobs({"ALS-CG": als_job(X)}, Engine, ok, data=dname)
        rows.append({**row, **{MODE_LABEL[m]: "N/A" for m in modes if m not in ok}})
    for dname, X in table5_ae_datasets().items():
        h1 = 500 if X.shape[1] > 500 else 200  # paper: H1=500 on Mnist
        rows += time_jobs({"AutoEncoder": ae_job(X, h1)}, Engine, modes, data=dname)
    return rows


# --------------------------------------------- Table 6: distributed algos
def table6_datasets() -> dict[str, object]:
    return {
        "D200m-lite": mldata.dense_features(120_000, 100, seed=15),
        "S200m-lite": mldata.sparse_features(120_000, 1000, 0.05, seed=16),
        "Mnist80m-lite": mldata.mnist_like(40_000, seed=17),
    }


def table6_jobs(spark, Xl, iters: int = 2, block_rows: int = 8192):
    """Table 6's jobs over row-block DataFrame copies of ``Xl`` and its
    labels, and those copies, which the caller unpersists."""
    from repro.sparkdist.blocked import RowBlockMatrix

    held = [RowBlockMatrix.from_matrix(spark, v, block_rows=block_rows).materialize()
            for v in [Xl, *_labels(Xl, w_seed=18, seed=19)]]
    init_C = Xl.row_slice(0, 5).to_dense() if isinstance(Xl, CSR) else Xl[:5].copy()
    cfgs = (l2svm.L2SVMConfig(max_iter=iters),
            mlogreg.MLogregConfig(k=2, max_iter=iters, max_inner=2),
            glm.GLMConfig(max_iter=iters, max_inner=2),
            kmeans.KMeansConfig(k=5, max_iter=iters))
    return data_jobs(*held, cfgs, init_C=init_C), held


def table6_rows(spark, modes: tuple[str, ...] = MODES, datasets: dict | None = None,
                iters: int = 2, block_rows: int = 8192) -> list[dict]:
    """Runtime of distributed algorithms (paper Table 6): X and the label
    vectors live as row-block DataFrames; the engine collects results
    narrower than X (such as ``X %*% w``) to the driver."""
    from repro.sparkdist.executor import SparkEngine

    rows = []
    for dname, Xl in (datasets or table6_datasets()).items():
        jobs, held = table6_jobs(spark, Xl, iters, block_rows)
        rows += time_jobs(jobs, lambda m: SparkEngine(spark, m), modes, data=dname)
        for rb in held:
            rb.unpersist()
    return rows
