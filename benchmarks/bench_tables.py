"""One benchmark per (algorithm, mode) of Tables 4-6: the jobs of
``repro.experiments`` that ``jobs/tables.py`` times, with the tables'
seeds and configs on smaller inputs: Table 4's 1e5x10 dataset; ALS-CG on
Table 5's 2e3x2e3(0.01) and the AutoEncoder on 2,000 rows of its 16e3x256
generator; Table 6's D200m-lite generator at 40k rows (single-round
pedantic benchmarks: distributed runs take seconds). EXPERIMENTS.md has
the orderings measured here.
"""
import pytest

from repro.algorithms.engine import MODES, Engine
from repro.data import mldata
from repro.experiments import ALGOS, ae_job, als_job, table4_jobs, table6_jobs
from repro.lina.sparse import CSR
from repro.sparkdist.executor import SparkEngine


@pytest.fixture(scope="module")
def table4():
    return table4_jobs(mldata.dense_features(100_000, 10, seed=3))


@pytest.fixture(scope="module")
def table5():
    return {"ALS-CG": als_job(CSR.random(2000, 2000, 0.01, seed=8)),
            "AutoEncoder": ae_job(mldata.dense_features(2000, 256, seed=12))}


@pytest.fixture(scope="module")
def table6(spark):
    jobs, held = table6_jobs(spark, mldata.dense_features(40_000, 100, seed=15))
    yield jobs
    for rb in held:
        rb.unpersist()


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("algo", ALGOS)
def test_table4(benchmark, table4, algo, mode):
    out = benchmark(lambda: table4[algo](Engine(mode)))
    assert out["iters"] >= 1


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("algo", ["ALS-CG", "AutoEncoder"])
def test_table5(benchmark, table5, algo, mode):
    out = benchmark(lambda: table5[algo](Engine(mode)))
    assert out["iters"] >= 1


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("algo", ALGOS)
def test_table6(benchmark, spark, table6, algo, mode):
    out = benchmark.pedantic(lambda: table6[algo](SparkEngine(spark, mode)),
                             rounds=1, iterations=1)
    assert out["iters"] >= 1
