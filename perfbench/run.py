"""The repository's benchmark: wall time per execution mode of the paper's
ML algorithms, end to end and, in a traced run, layer by layer.

    python3 perfbench/run.py --workload dense-250k --seed 1 --seconds 18 --trace 0

One process runs one workload as a closed loop, one algorithm run at a
time (Spark, when used, on ``local[<nproc>]``):

1. set-up, repeated ``SETUP_REPS`` times and reported as the median
   ``setup_s``: make the inputs from ``--seed`` and, for Spark, distribute
   and materialize them;
2. the reference: every algorithm once under ``Engine("base")`` on the
   local inputs, untimed; then an untimed warm-up;
3. the workload's minimum number of passes over all modes, and more
   while another pass would end within ``--seconds``; each mode's time
   is the median over passes.

Every run's outputs are checked against the reference; a mismatch or an
exception counts as failed. With ``--trace 1`` one untraced pass is
followed by traced passes, which report the per-layer metrics of
``tracing.LAYER_METRICS`` and the tracing overhead. The last line of
standard output is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; a fuller record, with provenance, goes to
``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_REPS = 3
E2E_UNITS = {
    "setup_s": "s", "base_s": "s", "fused_s": "s", "gen_s": "s",
    "heur_s": "s", "peak_rss_mb": "MB",
}
MODE_ORDER = ("base", "fused", "gen", "fa", "fnr")


@dataclass
class Pass:
    seconds: dict[str, float] = field(default_factory=dict)  # per mode
    runs_s: dict[str, float] = field(default_factory=dict)  # "mode/algorithm"
    compile_ms: dict[str, float] = field(default_factory=dict)  # CodegenStats, per mode
    attempted: int = 0
    failures: list[dict] = field(default_factory=list)
    runs: dict[str, set[int]] = field(default_factory=dict)  # traced run ids


def prepare_env(src: Path) -> None:
    """Put ``src`` on this process's and the Spark workers' path and keep
    Spark's and Python's scratch files inside ``perfbench/out``."""
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    sys.path.insert(0, str(src))
    paths = [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    os.environ["PYTHONPATH"] = os.pathsep.join(paths)
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["SPARK_LOCAL_DIRS"] = str(tmp)
    # every JVM Spark launches: no hsperfdata files under /tmp
    os.environ["JAVA_TOOL_OPTIONS"] = f"-XX:-UsePerfData -Djava.io.tmpdir={tmp}"
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join([
        f"--master local[{len(os.sched_getaffinity(0))}]",
        "--driver-memory 2g",
        "--conf spark.driver.host=127.0.0.1",
        "--conf spark.ui.enabled=false",
        "--conf spark.ui.showConsoleProgress=false",
        f"--conf spark.local.dir={tmp}",
        f"--conf spark.sql.warehouse.dir={OUT / 'warehouse'}",
        "pyspark-shell",
    ])


def run_pass(wl, inputs, refs: dict, modes, tracer=None) -> Pass:
    """Run every algorithm under each mode, a fresh engine per run; time
    each mode's runs together and check each output afterwards."""
    from workloads import mismatch

    p = Pass()
    for mode in modes:
        outs: dict[str, object] = {}
        runs: set[int] = set()
        gc.collect()  # the previous mode's garbage is not this mode's cost
        p.compile_ms[mode] = 0.0
        t0 = time.perf_counter()
        for name, job in inputs.jobs.items():
            t1 = time.perf_counter()
            if tracer is not None:
                runs.add(tracer.begin_run(mode, name))
            eng = None
            try:
                eng = wl.engine(mode)
                outs[name] = job(eng)
            except Exception:  # counted as a failed run; the pass goes on
                outs[name] = traceback.format_exc()
            finally:
                if tracer is not None:
                    if eng is not None:
                        tracer.record_stats(eng.ctx.stats)
                    tracer.end_run()
            p.runs_s[f"{mode}/{name}"] = time.perf_counter() - t1
            if eng is not None:
                p.compile_ms[mode] += eng.ctx.stats.codegen_ms
        p.seconds[mode] = time.perf_counter() - t0
        p.runs[mode] = runs
        for name, out in outs.items():
            p.attempted += 1
            why = out if isinstance(out, str) else mismatch(out, refs[name])
            if why is not None:
                p.failures.append({"mode": mode, "algorithm": name, "why": why})
    return p


def run_passes(wl, inputs, refs, seconds: float, min_passes: int, tracer=None) -> list[Pass]:
    """``min_passes`` passes; another only if it should end within ``seconds``."""
    passes: list[Pass] = []
    t0 = time.perf_counter()
    while True:
        passes.append(run_pass(wl, inputs, refs, MODE_ORDER, tracer))
        elapsed = time.perf_counter() - t0
        if len(passes) >= min_passes and elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def e2e_metrics(passes: list[Pass], setup_times: list[float], peak_rss_mb: float) -> dict:
    med = statistics.median
    values = {
        "setup_s": med(setup_times),
        "base_s": med(p.seconds["base"] for p in passes),
        "fused_s": med(p.seconds["fused"] for p in passes),
        "gen_s": med(p.seconds["gen"] for p in passes),
        "heur_s": med(p.seconds["fa"] + p.seconds["fnr"] for p in passes),
        "peak_rss_mb": peak_rss_mb,
    }
    return {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}


def layer_metrics(tracer, traced: list[Pass], untraced: Pass) -> dict:
    """Median over traced passes of each mode's layer metrics, plus the
    tracing overhead: traced minus untraced wall time, all modes."""
    from tracing import LAYER_METRICS, OVERHEAD_METRIC

    out: dict[str, dict] = {}
    overhead = 0.0
    for mode, names in LAYER_METRICS.items():
        per_pass = [
            tracer.mode_metrics(p.runs[mode], p.seconds[mode] * 1e3, p.compile_ms[mode])
            for p in traced
        ]
        for n in names:
            out[f"{mode}.{n}"] = statistics.median(m[n] for m in per_pass)
        overhead += out[f"{mode}.wall_ms"] - untraced.seconds[mode] * 1e3
    out[OVERHEAD_METRIC] = overhead
    return {k: {"value": v, "unit": _layer_unit(k)} for k, v in out.items()}


def _layer_unit(name: str) -> str:
    if name.endswith("_ms") or name.endswith(".ms"):
        return "ms"
    if name.endswith("_ratio"):
        return "ratio"
    return "bytes" if name.endswith(".bytes") else "count"


def provenance(args, n_passes: int) -> dict:
    digest = hashlib.sha256()
    for f in sorted((ROOT / "src" / "repro").rglob("*.py")):
        digest.update(f.relative_to(ROOT).as_posix().encode())
        digest.update(f.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True, check=False)
        sha = r.stdout.strip() or None
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**20,
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pyspark": metadata.version("pyspark"),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": n_passes,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"perfbench: {src / 'repro'} not found; run from a full checkout",
              file=sys.stderr)
        return 2
    prepare_env(src)
    sys.path.insert(0, str(BENCH))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    from repro.algorithms.engine import Engine

    wl = WORKLOADS[args.workload]()
    record: dict = {}
    try:
        t0 = time.perf_counter()
        wl.start()
        record["start_s"] = time.perf_counter() - t0
        setup_times, inputs = [], None
        for _ in range(SETUP_REPS):
            if inputs is not None:
                for held in inputs.held:
                    held.unpersist()
            t0 = time.perf_counter()
            inputs = wl.setup(args.seed)
            setup_times.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        refs = {name: fn(Engine("base")) for name, fn in inputs.refs.items()}
        record["reference_s"] = time.perf_counter() - t0
        # a traced run sets a warm untraced pass beside the traced ones, so
        # it warms every mode first
        warm = run_pass(wl, inputs, refs, MODE_ORDER if args.trace else wl.warmup_modes)
        tracer = None
        if args.trace:
            untraced = run_pass(wl, inputs, refs, MODE_ORDER)
            from tracing import Tracer

            tracer = Tracer(wl.spark.sparkContext if wl.spark else None)
            tracer.install()
            try:
                passes = run_passes(wl, inputs, refs, args.seconds, 1, tracer)
            finally:
                tracer.uninstall()
            metrics = layer_metrics(tracer, passes, untraced)
            checked = [warm, untraced] + passes
        else:
            passes = run_passes(wl, inputs, refs, args.seconds, wl.min_passes)
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics = e2e_metrics(passes, setup_times, peak)
            checked = [warm] + passes
    finally:
        wl.close()

    attempted = sum(p.attempted for p in checked)
    failures = [f for p in checked for f in p.failures]
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record.update({
        "provenance": provenance(args, len(passes)),
        "setup_times_s": setup_times,
        "passes": [{"seconds": p.seconds, "runs_s": p.runs_s,
                    "compile_ms": p.compile_ms} for p in passes],
        "attempted": attempted,
        "failed": len(failures),
        "failed_frac": len(failures) / attempted,
        "failures": failures,
        "metrics": metrics,
    })
    if tracer is not None:
        spans = OUT / f"{stem}.spans.jsonl"
        tracer.dump(spans)
        record["spans_file"] = spans.name
        record["provenance"]["tracing_overhead_ms"] = metrics["trace.overhead_ms"]["value"]
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str))

    for name, m in metrics.items():
        print(f"{args.workload}  {name}  {m['value']:.6g} {m['unit']}")
    for f in failures:
        print(f"FAILED {f['mode']} {f['algorithm']}: {f['why'].strip().splitlines()[-1]}",
              file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
