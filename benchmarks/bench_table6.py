"""Table 6 benchmark: distributed algorithms over row-block DataFrames,
one benchmark per (algorithm, mode) on a D200m-lite dense dataset.

Paper Table 6: Gen ≪ Fused/Base; the fuse-all heuristic loses ground
(broadcast overhead of eagerly fused vector side inputs). Measured
ordering on D200m-lite (EXPERIMENTS.md Table 6, two runs): L2SVM
FNR < FA < Gen < Fused < Base; KMeans FNR ≈ Gen < Fused ≈ FA ≈ Base.
Single-round pedantic benchmarks — distributed runs are seconds each.
"""
import numpy as np
import pytest

from repro.algorithms import kmeans, l2svm
from repro.algorithms.engine import MODES
from repro.data import mldata

N, M, BS = 40_000, 100, 8192


@pytest.fixture(scope="module")
def dist_data(spark):
    from repro.sparkdist.blocked import RowBlockMatrix

    Xl = mldata.dense_features(N, M, seed=15)
    yl = mldata.binary_labels(Xl, w_seed=18)
    X = RowBlockMatrix.from_matrix(spark, Xl, block_rows=BS).materialize()
    y = RowBlockMatrix.from_matrix(spark, yl, block_rows=BS).materialize()
    return X, y, Xl[:5].copy()


@pytest.mark.parametrize("mode", MODES)
def test_l2svm_distributed(benchmark, spark, dist_data, mode):
    from repro.sparkdist.executor import SparkEngine

    X, y, _ = dist_data
    cfg = l2svm.L2SVMConfig(max_iter=2)
    out = benchmark.pedantic(
        lambda: l2svm.run(SparkEngine(spark, mode), X, y, cfg),
        rounds=1,
        iterations=1,
    )
    assert out["iters"] >= 1


@pytest.mark.parametrize("mode", MODES)
def test_kmeans_distributed(benchmark, spark, dist_data, mode):
    from repro.sparkdist.executor import SparkEngine

    X, _, init_C = dist_data
    cfg = kmeans.KMeansConfig(k=5, max_iter=2)
    out = benchmark.pedantic(
        lambda: kmeans.run(SparkEngine(spark, mode), X, cfg, init_C=init_C),
        rounds=1,
        iterations=1,
    )
    assert out["iters"] >= 1
