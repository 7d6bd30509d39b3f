"""End-to-end codegen pipeline (paper §2.1's five compilation steps):

1. candidate exploration  → memo table         (``explore``)
2. candidate selection    → materialization cut (``select_plans``)
3. CPlan construction     → per-operator CPlans (``build_cplan``, run
   by selection for every candidate it costs; each selected fused spec
   carries its CPlan)
4. code generation + compile, with plan cache  (``compile_spoof``)
5. plan execution — fused operators replace the covered DAG parts
   (we execute the operator list directly instead of rewriting the DAG;
   semantically identical and simpler to instrument).

``execute_plan`` is the one interpreter for every mode: *Base* and
*Fused* are plans too (``plan_basic``, ``plan_fused``), and a backend
decides where each operator runs (``LocalBackend`` here, the Spark
backend in ``repro.sparkdist.executor``).

``CodegenContext`` carries the plan cache and statistics across DAGs —
one context per "script run", which is what Table 3's per-algorithm
compile statistics aggregate over.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.core import executor as ex
from repro.core.codegen import PlanCache
from repro.core.cost import CostModel, OpSpec, _step
from repro.core.explore import explore
from repro.core.fused_lib import HandOp, plan_hand_fused
from repro.core.hop import Hop, postorder
from repro.core.runtime import SpoofOp, compile_spoof
from repro.core.select import SelectionResult, select_plans
from repro.core.stats import CodegenStats


@dataclass
class CodegenContext:
    plan_cache: PlanCache = field(default_factory=PlanCache)
    stats: CodegenStats = field(default_factory=CodegenStats)
    cost_model: CostModel = field(default_factory=CostModel)


@dataclass
class CompiledPlan:
    roots: list[Hop]
    specs: list[OpSpec]  # in execution order
    spoofs: dict[int, SpoofOp | HandOp]  # root hid -> fused operator
    selection: SelectionResult | None = None

    @property
    def n_fused(self) -> int:
        return len(self.spoofs)


def compile_dag(
    roots: list[Hop],
    policy: str = "cost",
    ctx: CodegenContext | None = None,
) -> CompiledPlan:
    """Run exploration, selection (which builds the CPlans) and code
    generation for one HOP DAG under the given selection policy; the plan
    runs exactly the operators selection costed."""
    ctx = ctx or CodegenContext()
    t0 = time.perf_counter()
    memo = explore(roots, prune_dominated=(policy != "cost"))
    sel = select_plans(memo, roots, policy=policy, cm=ctx.cost_model)
    spoofs: dict[int, SpoofOp] = {}
    pre_compile_ms = ctx.plan_cache.stats.compile_ms
    pre_hits = ctx.plan_cache.stats.hits
    pre_miss = ctx.plan_cache.stats.misses
    for spec in sel.specs:
        if spec.cplan is not None:
            ctx.stats.n_cplans += 1
            spoofs[spec.root.hid] = compile_spoof(
                spec.cplan, spec.input_hids, ctx.plan_cache
            )
    order = {h.hid: i for i, h in enumerate(postorder(roots))}
    specs = sorted(sel.specs, key=lambda s: order[s.root.hid])
    dt = (time.perf_counter() - t0) * 1e3
    ctx.stats.n_dags += 1
    ctx.stats.codegen_ms += dt
    ctx.stats.compile_ms += ctx.plan_cache.stats.compile_ms - pre_compile_ms
    ctx.stats.cache_hits += ctx.plan_cache.stats.hits - pre_hits
    ctx.stats.n_compiled += ctx.plan_cache.stats.misses - pre_miss
    ctx.stats.plans_evaluated += sel.enum_stats.evaluated
    ctx.stats.plans_skipped += sel.enum_stats.skipped
    return CompiledPlan(roots=roots, specs=specs, spoofs=spoofs, selection=sel)


def plan_basic(roots: list[Hop]) -> CompiledPlan:
    """*Base*: one basic operator per hop."""
    return CompiledPlan(roots, [_step(h, {h.hid: h}) for h in postorder(roots)], {})


def plan_fused(roots: list[Hop]) -> CompiledPlan:
    """*Fused*: the hand-coded operators that ``plan_hand_fused`` matches,
    and one basic operator per hop they do not cover."""
    hand = plan_hand_fused(roots)
    hops = {h.hid: h for h in postorder(roots)}
    interior = set().union(*(op.interior for op in hand.values()))
    specs = []
    for h in hops.values():
        if h.hid in hand:
            covered = {h.hid: h, **{i: hops[i] for i in hand[h.hid].interior}}
            specs.append(_step(h, covered))
        elif h.hid not in interior:
            specs.append(_step(h, {h.hid: h}))
    return CompiledPlan(roots, specs, dict(hand))


def run_local(spec: OpSpec, op: SpoofOp | HandOp, env: dict):
    """The local kernel of a fused operator."""
    if isinstance(op, HandOp):
        return op.fn(env)
    return op.execute([env[h] for h in spec.input_hids])


class LocalBackend:
    """Runs every operator at the driver on numpy / CSR / CLA values."""

    def basic(self, h: Hop, env: dict, bindings: dict):
        return ex.eval_hop(h, env, bindings)

    def fused(self, spec: OpSpec, op, env: dict):
        return run_local(spec, op, env)

    def release(self, values: list, keep: list) -> None:
        pass


LOCAL = LocalBackend()


def execute_plan(plan: CompiledPlan, bindings: dict, backend=LOCAL) -> list:
    """Execute the plan's operators in order; returns one value per DAG
    root. ``backend.fused`` returns None when it has no kernel for the
    operands' placement; the covered hops then run as basic operators.
    Afterwards ``backend.release`` gets every value the plan produced,
    with the roots and the caller's bindings marked to keep."""
    env: dict[int, object] = {}
    for h in postorder(plan.roots):
        if h.op == "leaf":
            if h.name not in bindings:
                raise KeyError(f"unbound leaf {h.name!r}")
            env[h.hid] = bindings[h.name]
        elif h.op == "lit":
            env[h.hid] = float(h.value)
    for spec in plan.specs:
        op = plan.spoofs.get(spec.root.hid)
        if op is None:
            env[spec.root.hid] = backend.basic(spec.root, env, bindings)
            continue
        out = backend.fused(spec, op, env)
        if out is None:
            for h in postorder([spec.root] + spec.magg_roots):
                if h.hid not in env:
                    env[h.hid] = backend.basic(h, env, bindings)
        elif spec.magg_roots:
            env[spec.root.hid] = out[0]
            for r, v in zip(spec.magg_roots, out[1:]):
                env[r.hid] = v
        else:
            env[spec.root.hid] = out
    out = [env[r.hid] for r in plan.roots]
    backend.release(list(env.values()), out + list(bindings.values()))
    return out
