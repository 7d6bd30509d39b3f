"""Table 5 benchmark: compute-intensive algorithms — ALS-CG on sparse
data (sparsity-exploiting Outer template) and AutoEncoder on dense data.

Expected shape (paper Table 5): ALS-CG Gen ≤ Fused ≪ Base/FA/FNR;
AutoEncoder Gen ≈ FA ≈ FNR < Fused ≈ Base (~2x).
"""
import pytest

from repro.algorithms import als_cg, autoencoder
from repro.algorithms.engine import MODES, Engine
from repro.data import mldata
from repro.lina.sparse import CSR


@pytest.fixture(scope="module")
def als_data():
    return CSR.random(2000, 2000, 0.01, seed=8)


@pytest.fixture(scope="module")
def ae_data():
    return mldata.dense_features(2000, 256, seed=12)


@pytest.mark.parametrize("mode", MODES)
def test_als_cg(benchmark, als_data, mode):
    cfg = als_cg.ALSCGConfig(rank=20, max_iter=2, max_inner=2)
    out = benchmark(lambda: als_cg.run(Engine(mode), als_data, cfg))
    assert out["iters"] >= 1


@pytest.mark.parametrize("mode", MODES)
def test_autoencoder(benchmark, ae_data, mode):
    cfg = autoencoder.AutoEncoderConfig(h1=200, h2=2, batch=256, epochs=1)
    out = benchmark(lambda: autoencoder.run(Engine(mode), ae_data, cfg))
    assert out["iters"] >= 1
