"""Table 4 benchmark: data-intensive algorithms (single node), one
benchmark per (algorithm, mode) over the 1e5×10 dense dataset.

Paper Table 4 has Gen < FA < FNR < Fused < Base. Measured here (median
of 8-101 rounds, 4-core x86 VM): GLM and MLogreg Base ≈ Fused < FA <
FNR < Gen; L2SVM Fused < Base ≈ FA < FNR < Gen; KMeans FNR < FA < Base
≈ Fused < Gen. At this size Base folds transposes into matmult and uses
the same aggregate kernels as generated code, so fusion saves less than
Gen's block-wise skeletons cost; see EXPERIMENTS.md, Table 4.
"""
import numpy as np
import pytest

from repro.algorithms import glm, kmeans, l2svm, mlogreg
from repro.algorithms.engine import MODES, Engine
from repro.data import mldata

N, M = 100_000, 10


@pytest.fixture(scope="module")
def data():
    X = mldata.dense_features(N, M, seed=3)
    y = mldata.binary_labels(X, w_seed=11)
    return X, y


@pytest.mark.parametrize("mode", MODES)
def test_l2svm(benchmark, data, mode):
    X, y = data
    cfg = l2svm.L2SVMConfig(max_iter=5)
    out = benchmark(lambda: l2svm.run(Engine(mode), X, y, cfg))
    assert out["iters"] >= 1


@pytest.mark.parametrize("mode", MODES)
def test_mlogreg(benchmark, data, mode):
    X, y = data
    Y = mldata.onehot_labels(N, 2, seed=12)[:, :1]
    cfg = mlogreg.MLogregConfig(k=2, max_iter=2, max_inner=3)
    out = benchmark(lambda: mlogreg.run(Engine(mode), X, Y, cfg))
    assert out["iters"] >= 1


@pytest.mark.parametrize("mode", MODES)
def test_glm(benchmark, data, mode):
    X, y = data
    y01 = (y > 0).astype(np.float64)
    cfg = glm.GLMConfig(max_iter=2, max_inner=4)
    out = benchmark(lambda: glm.run(Engine(mode), X, y01, cfg))
    assert out["iters"] >= 1


@pytest.mark.parametrize("mode", MODES)
def test_kmeans(benchmark, data, mode):
    X, _ = data
    cfg = kmeans.KMeansConfig(k=5, max_iter=5)
    out = benchmark(lambda: kmeans.run(Engine(mode), X, cfg))
    assert out["iters"] >= 1
