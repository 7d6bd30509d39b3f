"""Tests of the benchmark's own code: span arithmetic, the reference check,
metric names against BENCHMARK.json, and a small traced pass.

    python3 -m pytest perfbench -q -p no:cacheprovider
"""
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# ------------------------------------------------------------ span arithmetic
def test_self_time_subtracts_merged_child_intervals():
    spans = [
        ["engine", 0.0, 10.0, None, 0],
        ["explore", 1.0, 4.0, 0, 0],
        ["cost", 2.0, 3.0, 1, 0],
        ["basic", 5.0, 7.0, 0, 0],
        ["basic", 6.0, 8.0, 0, 0],  # overlaps the previous child
        ["basic", 9.5, 11.0, 0, 0],  # runs past its parent's end
    ]
    st = tracing.self_times(spans)
    assert st[0] == pytest.approx(10.0 - 3.0 - 3.0 - 0.5)
    assert st[1] == pytest.approx(2.0)
    assert st[2] == pytest.approx(1.0)
    assert st[3] == pytest.approx(2.0)


def test_outermost_counts_nested_spans_of_a_layer_once():
    spans = [
        ["engine", 0.0, 10.0, None, 0],
        ["dist.map", 1.0, 5.0, 0, 0],
        ["dist.materialize", 3.0, 4.0, 1, 0],
        ["spoof.row", 5.0, 6.0, 0, 1],
        ["spoof.cell", 5.2, 5.5, 3, 1],
    ]
    assert tracing.outermost(spans, "dist.map") == [1]
    assert tracing.outermost(spans, "dist.materialize") == [2]
    assert tracing.outermost(spans, "spoof") == [3]
    assert tracing.outermost(spans, "spoof.cell") == [4]
    assert tracing.outermost(spans, "engine", keep={1}) == []


# ------------------------------------------------------------ reference check
def _l2svm_outputs(mode):
    from repro.algorithms import l2svm
    from repro.algorithms.engine import Engine
    from repro.data import mldata

    X = mldata.dense_features(300, 8, seed=3)
    y = mldata.binary_labels(X, w_seed=4)
    return l2svm.run(Engine(mode), X, y, l2svm.L2SVMConfig(max_iter=3))


def test_reference_check_accepts_every_mode_and_rejects_perturbations():
    ref = _l2svm_outputs("base")
    for mode in workloads.MODES.values():
        assert workloads.mismatch(_l2svm_outputs(mode), ref) is None, mode

    out = {k: (np.array(v) if k != "objs" else list(v)) for k, v in ref.items()}
    out["objs"][-1] *= 1 + 0.1 * workloads.RTOL
    assert workloads.mismatch(out, ref) is None

    bad = dict(out, objs=list(ref["objs"]))
    bad["objs"][-1] *= 1 + 10 * workloads.RTOL
    assert "objs" in workloads.mismatch(bad, ref)

    bad = dict(out, w=np.array(ref["w"]))
    bad["w"][0, 0] += 10 * workloads.RTOL * np.abs(ref["w"]).max()
    assert "w" in workloads.mismatch(bad, ref)

    assert "iterations" in workloads.mismatch(dict(out, objs=ref["objs"][:-1]), ref)
    assert workloads.mismatch(dict(out, w=np.full_like(ref["w"], np.nan)), ref)


# ------------------------------------------------------------------- names
def test_names_match_benchmark_json():
    e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert e2e == run.E2E_UNITS
    assert {m["name"] for m in SPEC["per_layer"]} == set(tracing.layer_metric_names())
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)
    names = list(e2e) + [m["name"] for m in SPEC["per_layer"]] + list(workloads.WORKLOADS)
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    assert len(SPEC["per_layer"]) <= 128


def test_traced_pass_emits_every_per_layer_metric(monkeypatch):
    monkeypatch.setattr(workloads, "DENSE_ROWS", 4000)
    wl = workloads.LocalWorkload(workloads.dense_jobs)
    inputs = wl.setup(seed=5)
    from repro.algorithms.engine import Engine

    original = Engine.__call__
    refs = {k: fn(Engine("base")) for k, fn in inputs.refs.items()}
    untraced = run.run_pass(wl, inputs, refs, run.MODE_ORDER)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run.run_pass(wl, inputs, refs, run.MODE_ORDER, tracer)
    finally:
        tracer.uninstall()
    assert Engine.__call__ is original
    assert not untraced.failures and not traced.failures

    metrics = run.layer_metrics(tracer, [traced], untraced)
    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in metrics.items()} == per_layer
    assert all(math.isfinite(v["value"]) for v in metrics.values())
    value = {k: v["value"] for k, v in metrics.items()}
    assert value["base.engine.calls"] > 0 and value["base.basic.calls"] > 0
    assert value["fused.hand.calls"] > 0
    assert value["gen.spoof.calls"] > 0 and value["gen.codegen.classes"] > 0
    assert value["gen.select.plans_evaluated"] > 0
    assert value["gen.cost.est_ratio"] > 0
    assert 0 <= value["gen.engine.self_ms"] <= value["gen.wall_ms"]
    compile_ms = sum(value[f"gen.{k}.ms"] for k in ("explore", "select", "cplan", "codegen"))
    assert compile_ms <= value["gen.wall_ms"]


def test_codegen_fallback_counts_as_failed_cplan(monkeypatch):
    from repro.core import pipeline

    def no_codegen(*_args):
        raise ValueError("cannot generate code")

    monkeypatch.setattr(workloads, "DENSE_ROWS", 2000)
    monkeypatch.setattr(pipeline, "compile_spoof", no_codegen)
    wl = workloads.LocalWorkload(workloads.dense_jobs)
    inputs = wl.setup(seed=5)
    from repro.algorithms.engine import Engine

    refs = {k: fn(Engine("base")) for k, fn in inputs.refs.items()}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        p = run.run_pass(wl, inputs, refs, ("gen",), tracer)
    finally:
        tracer.uninstall()
    assert not p.failures
    m = tracer.mode_metrics(p.runs["gen"], p.seconds["gen"] * 1e3, p.compile_ms["gen"])
    assert m["spoof.calls"] == 0
    assert m["codegen.calls"] > 0
    assert m["cplan.failed"] == m["codegen.calls"] > 0


# ---------------------------------------------------------------- launching
def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    r = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "dense-250k",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert r.returncode != 0
    assert r.stdout.strip() == ""
