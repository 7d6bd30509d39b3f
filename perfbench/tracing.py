"""In-memory spans around calls into the program's layers.

The program under test is not modified. ``Tracer.install()`` replaces the
public entry points of each layer (module functions, wherever a ``repro``
module has bound them, and class methods) with timing wrappers, and
``uninstall()`` puts the originals back. A span records name, start, end,
parent span and run id; a run is one algorithm executed under one mode.
Counters are kept per run at the same boundaries.

Layer metrics are derived from the spans of one pass (see ``mode_metrics``):
``<layer>.ms`` is the wall time inside the outermost spans of that layer,
``engine.self_ms`` is engine time not covered by a child span.
"""
from __future__ import annotations

import json
import pickle
import statistics
import sys
import time
from collections import defaultdict

# Per-layer metrics reported for each mode; an entry "x.y" is emitted as
# "<mode>.x.y". Base and Gen get the full set of the layers they use, the
# other modes the metrics an optimisation of their own path would move.
_ENGINE = ["wall_ms", "engine.calls", "engine.self_ms"]
# compile_ms: CodegenStats.codegen_ms summed over the mode's runs, the
# program's own count of explore + select + cplan + codegen time
_BASIC = ["basic.calls", "basic.ms", "basic.matmult.ms"]
_DIST = [
    "dist.jobs", "dist.materialize.calls", "dist.materialize.ms",
    "dist.zip.calls", "dist.zip.ms", "dist.map.calls", "dist.map.ms",
    "dist.bcast.count", "dist.bcast.bytes", "dist.bcast.live",
    "dist.persist.live",
]
_COMPILE = [
    "compile_ms", "explore.ms", "explore.memo_entries",
    "select.ms", "select.partitions", "select.points",
    "select.plans_evaluated", "select.plans_skipped", "select.skip_ratio",
    "cost.calls", "cost.ms", "cost.est_ratio",
    "cplan.ms", "cplan.built", "cplan.failed",
    "codegen.ms", "codegen.classes", "codegen.hit_ratio",
]
_SPOOF = [
    "spoof.calls", "spoof.ms", "spoof.cell.ms", "spoof.row.ms",
    "spoof.magg.ms", "spoof.outer.ms",
]
_HEUR = [
    "wall_ms", "engine.self_ms", "compile_ms", "explore.ms", "select.ms", "cplan.ms",
    "cplan.failed", "codegen.ms", "spoof.ms", "basic.ms", "dist.jobs",
    "dist.zip.ms", "dist.fused.ms", "dist.bcast.count", "dist.bcast.live",
    "dist.persist.live", "dist.hybrid_basic.calls",
]
LAYER_METRICS: dict[str, list[str]] = {
    "base": _ENGINE + _BASIC + _DIST,
    "fused": [
        "wall_ms", "engine.self_ms", "hand.calls", "hand.ms", "basic.ms",
        "dist.jobs", "dist.materialize.ms", "dist.zip.ms",
        "dist.bcast.live", "dist.persist.live",
    ],
    "gen": _ENGINE + _COMPILE + _SPOOF + _BASIC + _DIST
    + ["dist.fused.calls", "dist.fused.ms", "dist.hybrid_basic.calls"],
    "fa": _HEUR,
    "fnr": _HEUR,
}
OVERHEAD_METRIC = "trace.overhead_ms"

# span-derived metrics: "<prefix>.ms" and "<prefix>.calls"
_SPAN_PREFIXES = (
    "engine", "explore", "select", "cost", "cplan", "codegen", "spoof",
    "spoof.cell", "spoof.row", "spoof.magg", "spoof.outer", "basic",
    "basic.matmult", "hand", "dist.materialize", "dist.zip", "dist.map",
    "dist.fused",
)
# counters copied as they are
_COUNTERS = (
    "explore.memo_entries", "select.partitions", "select.points",
    "select.plans_evaluated", "select.plans_skipped", "cplan.built",
    "cplan.failed", "codegen.classes", "dist.jobs", "dist.bcast.count",
    "dist.bcast.bytes", "dist.bcast.live", "dist.persist.live",
    "dist.hybrid_basic.calls",
)
_TEMPLATE = {"C": "cell", "R": "row", "M": "magg", "O": "outer"}


def layer_metric_names() -> list[str]:
    names = [f"{m}.{x}" for m, xs in LAYER_METRICS.items() for x in xs]
    return names + [OVERHEAD_METRIC]


# ----------------------------------------------------------- span arithmetic
def _matches(name: str, prefix: str) -> bool:
    return name == prefix or name.startswith(prefix + ".")


def outermost(spans: list, prefix: str, keep=None) -> list[int]:
    """Indices of spans matching ``prefix`` with no matching ancestor, so
    nested or recursive calls into one layer are counted once."""
    out = []
    for i, s in enumerate(spans):
        if (keep is not None and s[4] not in keep) or not _matches(s[0], prefix):
            continue
        p = s[3]
        while p is not None and not _matches(spans[p][0], prefix):
            p = spans[p][3]
        if p is None:
            out.append(i)
    return out


def self_times(spans: list) -> list[float]:
    """Per span: its duration minus the part of its interval covered by
    its direct children (overlapping children are merged first)."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s[3] is not None:
            children[s[3]].append((s[1], s[2]))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, cur_lo, cur_hi = 0.0, None, None
        for lo, hi in sorted(children.get(i, [])):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


# -------------------------------------------------------------------- tracer
class Tracer:
    def __init__(self, spark_context=None) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, run]
        self.runs: list[tuple[str, str]] = []  # run id -> (mode, algorithm)
        self.counts: dict[int, dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        self.fused_execs: list[tuple[object, int]] = []  # (SpoofOp, span)
        self._estimates: dict[int, tuple] = {}  # id(SpoofOp) -> (op, spec, cm)
        self._stack: list[int] = []
        self._run: int | None = None
        self._sc = spark_context
        self._persisted: dict[int, object] = {}
        self._bcasts: dict[int, object] = {}
        self._plan = None  # CompiledPlan being executed by SparkEngine
        self._restore: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ runs
    def begin_run(self, mode: str, algorithm: str) -> int:
        self._run = len(self.runs)
        self.runs.append((mode, algorithm))
        if self._sc is not None:
            self._sc.setJobGroup(f"perfbench-{self._run}", algorithm)
        return self._run

    def end_run(self) -> None:
        c = self.counts[self._run]
        if self._sc is not None:
            ids = self._sc.statusTracker().getJobIdsForGroup(
                f"perfbench-{self._run}"
            )
            c["dist.jobs"] += len(ids)
            c["dist.persist.live"] += len(self._persisted)
            c["dist.bcast.live"] += len(self._bcasts)
        self._persisted.clear()
        self._bcasts.clear()
        self._run = None

    def count(self, name: str, n: float = 1) -> None:
        if self._run is not None:
            self.counts[self._run][name] += n

    # ----------------------------------------------------------- spans
    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._run])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def timed(self, fn, name, after=None):
        """Wrap ``fn`` in a span; ``name`` may be a function of the call's
        arguments. ``after(result, *args)`` runs outside the span."""

        def wrapper(*args, **kwargs):
            idx = self.open(name(*args) if callable(name) else name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(out, *args, **kwargs)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    # ---------------------------------------------------- installation
    def _patch(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _rebind(self, fn, new) -> None:
        """Replace ``fn`` in every loaded ``repro`` module that binds it."""
        for mname, mod in list(sys.modules.items()):
            if mod is None or not (mname == "repro" or mname.startswith("repro.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    self._patch(mod, attr, new)

    def install(self) -> None:
        from repro.algorithms.engine import Engine
        from repro.core import cplan, executor, explore, fused_lib, pipeline
        from repro.core import select as select_mod
        from repro.core.cost import PartitionCoster
        from repro.core.runtime import SpoofOp

        self._patch(Engine, "__call__", self.timed(Engine.__call__, "engine"))
        self._rebind(explore.explore, self.timed(
            explore.explore, "explore", after=self._after_explore))
        self._rebind(select_mod.select_plans, self.timed(
            select_mod.select_plans, "select", after=self._after_select))
        self._patch(PartitionCoster, "cost", self.timed(PartitionCoster.cost, "cost"))
        self._rebind(cplan.build_cplan, self.timed(cplan.build_cplan, "cplan"))
        self._rebind(pipeline.compile_spoof, self.timed(pipeline.compile_spoof, "codegen"))
        self._rebind(pipeline.compile_dag, self._recording_compile(pipeline.compile_dag))
        self._patch(SpoofOp, "execute", self._fused_exec(
            SpoofOp.execute,
            lambda op, *_: "spoof." + _TEMPLATE.get(op.cplan.template, "other")))
        self._rebind(executor.eval_hop, self.timed(
            executor.eval_hop,
            lambda h, *_: "basic.matmult" if h.op == "ba(+*)" else "basic"))
        self._rebind(fused_lib.plan_hand_fused, self._timed_hand_ops(fused_lib.plan_hand_fused))
        if "repro.sparkdist.executor" in sys.modules:
            self._install_dist()

    def _install_dist(self) -> None:
        from pyspark import SparkContext
        from pyspark.broadcast import Broadcast

        from repro.sparkdist import blocked, fusedexec
        from repro.sparkdist import executor as dist_ex

        t = self
        self._patch(dist_ex.SparkEngine, "__call__",
                    self.timed(dist_ex.SparkEngine.__call__, "engine"))
        orig_plan = dist_ex.SparkEngine._execute_plan

        def execute_plan(engine, plan, bindings):
            t._plan = plan
            try:
                return orig_plan(engine, plan, bindings)
            finally:
                t._plan = None

        self._patch(dist_ex.SparkEngine, "_execute_plan", execute_plan)
        orig_hybrid = dist_ex.eval_hop_hybrid

        def eval_hop_hybrid(spark, h, env, bindings):
            # a fused operator's root evaluated hop by hop: the fallback
            # from a compiled fused operator to distributed basic ops
            if t._plan is not None and h.hid in t._plan.spoofs:
                t.count("dist.hybrid_basic.calls")
            return orig_hybrid(spark, h, env, bindings)

        self._rebind(orig_hybrid, eval_hop_hybrid)
        rbm = blocked.RowBlockMatrix
        self._patch(rbm, "materialize", self.timed(
            rbm.materialize, "dist.materialize",
            after=lambda out, m: t._persisted.__setitem__(id(m), m)))
        orig_unpersist = rbm.unpersist

        def unpersist(m):
            t._persisted.pop(id(m), None)
            return orig_unpersist(m)

        self._patch(rbm, "unpersist", unpersist)
        self._patch(rbm, "map_blocks", self.timed(rbm.map_blocks, "dist.map"))
        self._patch(rbm, "reduce_blocks", self.timed(rbm.reduce_blocks, "dist.map"))
        self._rebind(blocked.zip_blocks, self.timed(blocked.zip_blocks, "dist.zip"))
        self._rebind(blocked.zip_reduce, self.timed(blocked.zip_reduce, "dist.zip"))
        self._rebind(fusedexec.execute_dist, self._fused_exec(
            fusedexec.execute_dist, lambda *_: "dist.fused", spoof_arg=1))
        orig_bc = SparkContext.broadcast

        def broadcast(sc, value):
            b = orig_bc(sc, value)
            nbytes = getattr(value, "nbytes", None)
            if nbytes is None:
                nbytes = len(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))
            t.count("dist.bcast.count")
            t.count("dist.bcast.bytes", nbytes)
            t._bcasts[id(b)] = b
            return b

        self._patch(SparkContext, "broadcast", broadcast)
        for attr in ("destroy", "unpersist"):
            orig = getattr(Broadcast, attr)

            def release(b, *args, _orig=orig, **kwargs):
                t._bcasts.pop(id(b), None)
                return _orig(b, *args, **kwargs)

            self._patch(Broadcast, attr, release)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, old = self._restore.pop()
            setattr(owner, attr, old)

    # ------------------------------------------------------------ hooks
    def _after_explore(self, memo, *_args, **_kw) -> None:
        self.count("explore.memo_entries", sum(len(g) for g in memo.groups.values()))

    def _after_select(self, sel, *_args, **_kw) -> None:
        self.count("select.partitions", sel.n_partitions)
        self.count("select.points", sel.n_interesting_points)

    def record_stats(self, stats) -> None:
        """Counters the program keeps itself, from the run's ``CodegenStats``."""
        self.count("cplan.built", stats.n_cplans)
        self.count("codegen.classes", stats.n_compiled)
        self.count("codegen.hits", stats.cache_hits)
        self.count("select.plans_evaluated", stats.plans_evaluated)
        self.count("select.plans_skipped", stats.plans_skipped)

    def _recording_compile(self, orig):
        """Count the fused candidates that fell back to basic operators
        (``build_cplan`` or ``compile_spoof`` raised), and keep (spec, cost
        model) of every compiled fused operator, so its estimated cost can
        be set beside its measured time afterwards."""
        t = self

        def compile_dag(roots, policy, ctx):
            plan = orig(roots, policy, ctx)
            fusible = sum(1 for s in plan.selection.specs
                          if s.template is not None and s.n_covered > 1)
            t.count("cplan.failed", fusible - len(plan.spoofs))
            for spec in plan.specs:
                op = plan.spoofs.get(spec.root.hid)
                if op is not None:
                    t._estimates[id(op)] = (op, spec, ctx.cost_model)
            return plan

        return compile_dag

    def _fused_exec(self, orig, name, spoof_arg: int = 0):
        t = self

        def execute(*args, **kwargs):
            idx = t.open(name(*args))
            try:
                return orig(*args, **kwargs)
            finally:
                t.close(idx)
                t.fused_execs.append((args[spoof_arg], idx))

        return execute

    def _timed_hand_ops(self, orig):
        """Time each hand-coded operator that the Fused planner picks."""
        t = self

        def plan_hand_fused(roots):
            chosen = orig(roots)
            for op in chosen.values():
                op.fn = t.timed(op.fn, "hand")
            return chosen

        return plan_hand_fused

    # ---------------------------------------------------------- metrics
    def est_ratios(self, keep: set[int]) -> list[float]:
        """Estimated ÷ measured seconds for each fused-operator execution
        in the given runs (the cost model's Eq. 4 against the clock)."""
        from repro.core.cost import is_distributed, op_cost

        out = []
        for op, idx in self.fused_execs:
            s = self.spans[idx]
            rec = self._estimates.get(id(op))
            if s[4] not in keep or rec is None:
                continue
            _, spec, cm = rec
            measured = s[2] - s[1]
            if measured > 0:
                out.append(op_cost(spec, cm, is_distributed(spec, cm)) / measured)
        return out

    def mode_metrics(self, runs: set[int], wall_ms: float, compile_ms: float) -> dict[str, float]:
        """Every layer metric over the given runs (one mode in one pass)."""
        m: dict[str, float] = {"wall_ms": wall_ms, "compile_ms": compile_ms}
        for prefix in _SPAN_PREFIXES:
            idx = outermost(self.spans, prefix, keep=runs)
            m[f"{prefix}.calls"] = float(len(idx))
            m[f"{prefix}.ms"] = sum(self.spans[i][2] - self.spans[i][1] for i in idx) * 1e3
        engine = outermost(self.spans, "engine", keep=runs)
        st = self_times(self.spans)
        m["engine.self_ms"] = sum(st[i] for i in engine) * 1e3
        tot: dict[str, float] = defaultdict(float)
        for r in runs:
            for k, v in self.counts.get(r, {}).items():
                tot[k] += v
        for k in _COUNTERS:
            m[k] = float(tot.get(k, 0.0))
        ev, sk = tot.get("select.plans_evaluated", 0.0), tot.get("select.plans_skipped", 0.0)
        m["select.skip_ratio"] = sk / (ev + sk) if ev + sk else 0.0
        hits, misses = tot.get("codegen.hits", 0.0), tot.get("codegen.classes", 0.0)
        m["codegen.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        ratios = self.est_ratios(runs)
        m["cost.est_ratio"] = statistics.median(ratios) if ratios else 0.0
        return m

    def dump(self, path) -> None:
        """Write runs and spans as JSON lines."""
        with open(path, "w") as f:
            for i, (mode, algo) in enumerate(self.runs):
                f.write(json.dumps({"run": i, "mode": mode, "algorithm": algo}) + "\n")
            for name, start, end, parent, run in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent, "run": run}) + "\n")
