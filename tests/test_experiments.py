"""Smoke tests for the table harnesses at tiny scale (the jobs/ scripts
run the full-size versions; these verify structure and N/A handling)."""
import numpy as np

from repro.algorithms import l2svm
from repro.algorithms.engine import Engine
from repro.data import mldata
from repro.experiments import (
    MODE_LABEL,
    format_rows,
    plan_signatures,
    table3_rows,
    table4_rows,
    table5_rows,
    table6_rows,
)


def test_table3_structure():
    rows = table3_rows(n_mnist=800)
    assert {r["algorithm"] for r in rows} == {
        "L2SVM", "MLogreg", "GLM", "KMeans", "ALS-CG", "AutoEncoder",
    }
    for r in rows:
        dags, cplans, classes = map(int, r["compile(dags/cplans/classes)"].split("/"))
        assert dags >= 1 and cplans >= 1 and classes >= 1
        assert r["codegen_ms"] >= 0


def test_table4_structure_mini():
    mini = {"tiny": mldata.dense_features(3000, 10, seed=1)}
    rows = table4_rows(datasets=mini, iters=2)
    assert len(rows) == 4  # four algorithms × one dataset
    for r in rows:
        for lbl in MODE_LABEL.values():
            assert isinstance(r[lbl], float)


def test_table5_na_for_infeasible_dense_modes(monkeypatch):
    import repro.experiments as ex

    # force every ALS dataset over the N/A threshold
    monkeypatch.setattr(ex, "NA_DENSE_BYTES", 0.0)
    monkeypatch.setattr(
        ex, "table5_datasets", lambda: {"t": mldata.netflix_like(300, 200)}
    )
    monkeypatch.setattr(
        ex,
        "table5_ae_datasets",
        lambda: {"ae": mldata.dense_features(256, 16, seed=0)},
    )
    rows = [r for r in ex.table5_rows() if r["algorithm"] == "ALS-CG"]
    (row,) = rows
    assert row["Base"] == "N/A" and row["FA"] == "N/A" and row["FNR"] == "N/A"
    assert isinstance(row["Gen"], float) and isinstance(row["Fused"], float)


def test_table6_structure_mini(spark):
    """Four rows under Gen, and every DataFrame the run persisted is
    unpersisted again, L2SVM's support vector included."""
    def persisted():
        return spark.sparkContext._jsc.sc().getPersistentRDDs().size()

    before = persisted()
    mini = {"tiny": mldata.dense_features(600, 6, seed=1)}
    rows = table6_rows(spark, modes=("gen",), datasets=mini, iters=1, block_rows=256)
    assert [r["algorithm"] for r in rows] == ["L2SVM", "MLogreg", "GLM", "KMeans"]
    assert all(isinstance(r["Gen"], float) for r in rows)
    assert persisted() == before


def test_format_rows_renders_all_columns():
    out = format_rows(
        [{"a": 1, "b": "x"}, {"a": 22, "b": "yy"}], ["a", "b"]
    )
    lines = out.splitlines()
    assert len(lines) == 4
    assert "a" in lines[0] and "b" in lines[0]


def test_plan_signatures_name_each_operator():
    X = mldata.dense_features(400, 10, seed=1)
    y = mldata.binary_labels(X)
    jobs = {"L2SVM": lambda e: l2svm.run(e, X, y, l2svm.L2SVMConfig(max_iter=2))}
    sig = plan_signatures(jobs, Engine, ("base", "fused", "gen"))["L2SVM"]
    assert all(op.count(":") == 0 for p in sig["base"]["plans"] for op in p)
    assert any(op.startswith("hand:") for p in sig["fused"]["plans"] for op in p)
    fused = [op for p in sig["gen"]["plans"] for op in p if "/" in op]
    assert fused and all(len(op.split(":")) == 3 for op in fused)
    assert sig["gen"]["plans_evaluated"] > 0
    assert sig["base"]["plans_evaluated"] == 0
    # a second run of the same inputs reads the same
    assert plan_signatures(jobs, Engine, ("gen",))["L2SVM"]["gen"] == sig["gen"]
