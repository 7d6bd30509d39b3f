"""Benchmark workloads: inputs made from a seed, algorithm runs, and the
reference check every timed run must pass.

Each workload maps a mode label to an engine factory and names the
algorithm runs of one pass. Every run gets a fresh engine, so Gen's
plan cache starts cold for each run and its compile time is paid per
run, as in the paper's Table 3.

* ``dense-250k`` (Table 4 at 1/400 scale): L2SVM, MLogreg, GLM and KMeans
  on a 250k x 10 dense matrix with the local engine. Execution dominates,
  in the dense Cell/Row/MAgg skeletons and Base's basic operators. At
  10^6 rows every temporary is a fresh 80 MB mapping, and page-fault time
  made run-to-run spread exceed 10 % on a 4-core VM; at 250k rows
  temporaries are reused.
* ``mnist-cold`` (Table 3): all six algorithms on a Mnist-like 3000 x 784
  CSR matrix (half of Table 3's Mnist60k-lite), Netflix-lite for ALS-CG
  and 2048 dense rows for the AutoEncoder, with few iterations, so that
  exploration, selection, CPlan construction and code generation are a
  large share of Gen's time. It also covers CSR inputs and the
  sparsity-exploiting Outer template.
* ``dist-40k`` (Table 6): one KMeans iteration over a 40k x 100 row-block
  DataFrame in 5 blocks of 8192 rows with ``SparkEngine``. Spark jobs,
  ``zip_blocks`` shuffles, materializations and broadcasts dominate.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from repro.algorithms import als_cg, autoencoder, glm, kmeans, l2svm, mlogreg
from repro.algorithms.engine import Engine
from repro.data import mldata

# benchmark mode label -> engine mode
MODES = {"base": "base", "fused": "fused", "gen": "gen", "fa": "gen_fa", "fnr": "gen_fnr"}
RTOL = 1e-6  # the tolerance of tests/test_algorithms.py
DENSE_ROWS = 250_000
MNIST_ROWS = 3000
DIST_ROWS, DIST_COLS, DIST_BLOCK_ROWS = 40_000, 100, 8192
_MODEL_KEYS = ("w", "B", "b", "C", "U", "V")


# ------------------------------------------------------------ output check
def mismatch(out: dict, ref: dict) -> str | None:
    """Why ``out`` differs from the reference run, or None if it matches.

    The objective/loss trace must have the reference's length and match it
    elementwise to ``RTOL``; each model matrix must match to ``RTOL``
    relative to the largest magnitude in the reference matrix.
    """
    key = "objs" if "objs" in ref else "losses"
    t, rt = np.asarray(out.get(key, []), dtype=float), np.asarray(ref[key], dtype=float)
    if t.shape != rt.shape:
        return f"{key}: {t.size} iterations, reference {rt.size}"
    if not np.allclose(t, rt, rtol=RTOL, atol=0.0):
        return f"{key}: max relative error {_rel_err(t, rt):.3g}"
    for k in _MODEL_KEYS:
        if k not in ref:
            continue
        a, r = np.asarray(out.get(k)), np.asarray(ref[k])
        if a.shape != r.shape:
            return f"{k}: shape {a.shape}, reference {r.shape}"
        scale = float(np.max(np.abs(r))) if r.size else 0.0
        if not np.all(np.abs(a - r) <= RTOL * scale):
            return f"{k}: max error {float(np.max(np.abs(a - r))):.3g} (scale {scale:.3g})"
    return None


def _rel_err(t: np.ndarray, rt: np.ndarray) -> float:
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.nanmax(np.abs(t - rt) / np.abs(rt)))


# ---------------------------------------------------------------- workloads
@dataclass
class Inputs:
    """One set-up's algorithm runs, name -> fn(engine) -> result dict."""

    jobs: dict
    refs: dict  # the same algorithms on local inputs, for the reference
    held: list = field(default_factory=list)  # distributed inputs to release


class LocalWorkload:
    """Algorithms on the local ``Engine``; inputs live in numpy/CSR."""

    warmup_modes = tuple(MODES)
    # the median of three passes ignores one pass slowed by a co-tenant
    min_passes = 3
    spark = None

    def __init__(self, make_jobs) -> None:
        self._make_jobs = make_jobs

    def start(self) -> None:
        pass

    def setup(self, seed: int) -> Inputs:
        jobs = self._make_jobs(seed)
        return Inputs(jobs, jobs)

    def engine(self, mode: str):
        return Engine(MODES[mode])

    def close(self) -> None:
        pass


def dense_jobs(seed: int) -> dict:
    n = DENSE_ROWS
    X = mldata.dense_features(n, 10, seed=seed)
    y = mldata.binary_labels(X, w_seed=seed + 1)
    y01 = (y > 0).astype(np.float64)
    Y2 = mldata.onehot_labels(n, 2, seed=seed + 2)[:, :1]
    return {
        "L2SVM": lambda e: l2svm.run(e, X, y, l2svm.L2SVMConfig(max_iter=10)),
        # a third MLogreg iteration drives its objective sum(|G|) from ~2e3
        # to ~2e-8, where summation order alone moves it by more than RTOL
        "MLogreg": lambda e: mlogreg.run(
            e, X, Y2, mlogreg.MLogregConfig(k=2, max_iter=2, max_inner=3)),
        "GLM": lambda e: glm.run(e, X, y01, glm.GLMConfig(max_iter=3, max_inner=3)),
        "KMeans": lambda e: kmeans.run(
            e, X, kmeans.KMeansConfig(k=5, max_iter=3), init_C=X[:5].copy()),
    }


def mnist_jobs(seed: int) -> dict:
    n = MNIST_ROWS
    X = mldata.mnist_like(n, seed=seed)
    Xd = X.to_dense()
    y = mldata.binary_labels(X, w_seed=seed + 1)
    y01 = (y > 0).astype(np.float64)
    Y2 = mldata.onehot_labels(n, 2, seed=seed + 2)[:, :1]
    R = mldata.netflix_like(n // 3, n // 6, seed=seed + 3)
    ae_rows = min(2048, n)
    return {
        "L2SVM": lambda e: l2svm.run(e, X, y, l2svm.L2SVMConfig(max_iter=1)),
        "MLogreg": lambda e: mlogreg.run(
            e, X, Y2, mlogreg.MLogregConfig(k=2, max_iter=1, max_inner=1)),
        "GLM": lambda e: glm.run(e, X, y01, glm.GLMConfig(max_iter=1, max_inner=1)),
        "KMeans": lambda e: kmeans.run(
            e, Xd, kmeans.KMeansConfig(k=5, max_iter=1), init_C=Xd[:5].copy()),
        "ALS-CG": lambda e: als_cg.run(
            e, R, als_cg.ALSCGConfig(rank=20, max_iter=1, max_inner=1)),
        "AutoEncoder": lambda e: autoencoder.run(
            e, Xd[:ae_rows], autoencoder.AutoEncoderConfig(h1=200, h2=2, batch=512)),
    }


class DistWorkload:
    """KMeans over a row-block DataFrame with ``SparkEngine``; the
    reference runs the same algorithm on the local matrix."""

    # a Base run starts the Python workers and warms the JVM's shuffle,
    # join and broadcast paths; one pass of all modes takes ~25 s, so a
    # run affords no untimed pass and no second timed one
    warmup_modes = ("base",)
    min_passes = 1

    spark = None

    def start(self) -> None:
        from pyspark.sql import SparkSession

        from repro.sparkdist import executor  # noqa: F401  (loaded before tracing)

        self.spark = (
            SparkSession.builder.appName("perfbench")
            # one shuffle partition per core and no adaptive execution: at
            # 64 partitions each bid join costs ~4 s of task scheduling and
            # a pass would not fit a run; adaptive execution adds a job per
            # shuffle stage and makes run times drift for several runs
            .config("spark.sql.shuffle.partitions", str(len(os.sched_getaffinity(0))))
            .config("spark.sql.adaptive.enabled", "false")
            .config("spark.sql.execution.arrow.pyspark.enabled", "true")
            .config("spark.sql.autoBroadcastJoinThreshold", -1)
            .getOrCreate()
        )
        self.spark.sparkContext.setLogLevel("ERROR")

    def setup(self, seed: int) -> Inputs:
        from repro.sparkdist.blocked import RowBlockMatrix

        Xl = mldata.dense_features(DIST_ROWS, DIST_COLS, seed=seed)
        init_C = Xl[:5].copy()
        X = RowBlockMatrix.from_matrix(self.spark, Xl, block_rows=DIST_BLOCK_ROWS)
        X.materialize()
        cfg = kmeans.KMeansConfig(k=5, max_iter=1)
        return Inputs(
            jobs={"KMeans": lambda e: kmeans.run(e, X, cfg, init_C=init_C)},
            refs={"KMeans": lambda e: kmeans.run(e, Xl, cfg, init_C=init_C)},
            held=[X],
        )

    def engine(self, mode: str):
        from repro.sparkdist.executor import SparkEngine

        return SparkEngine(self.spark, MODES[mode])

    def close(self) -> None:
        """Stop Spark and wait for its JVM (and with it the Python
        workers) to exit."""
        if self.spark is None:
            return
        from pyspark import SparkContext

        gateway = SparkContext._gateway
        self.spark.stop()
        self.spark = None
        gateway.shutdown()
        gateway.proc.stdin.close()  # the gateway JVM exits at EOF on stdin
        gateway.proc.wait(timeout=60)
        SparkContext._gateway = SparkContext._jvm = None


WORKLOADS = {
    "dense-250k": lambda: LocalWorkload(dense_jobs),
    "mnist-cold": lambda: LocalWorkload(mnist_jobs),
    "dist-40k": DistWorkload,
}
