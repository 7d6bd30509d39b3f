"""Hybrid local/distributed execution engine (paper §5.5's regime).

``SparkEngine`` is ``repro.algorithms.engine.Engine`` with bindings that
may contain :class:`RowBlockMatrix` values: it plans every mode the same
way and runs the plan with the same ``execute_plan``, against a
:class:`SparkBackend`. The backend places each operator by its operand
types: an operator touching a distributed operand runs as a distributed
instruction, everything else runs locally at the driver — SystemML's
hybrid runtime plans. A distributed instruction's result is placed by
one rule: collect narrow results (one Spark job), so their readers run
locally; pipeline a pending per-block map that one operator reads into
that reader's pass; persist the rest, plan roots included (persist +
count). After a plan the backend unpersists the distributed
intermediates it produced, never the caller's inputs, and the
broadcasts its instructions created.

Gen modes compile with a cost model whose ``local_mem_budget`` reflects
the driver budget, so plan selection reasons about distributed reads,
broadcasts, and the Row template's block-size constraint exactly as
§4.3/§4.4 describe.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from repro.algorithms.engine import Engine
from repro.core import executor as local_ex
from repro.core import vectlib as vl
from repro.core.cost import CostModel, OpSpec
from repro.core.hop import Hop, consumers
from repro.core.pipeline import CodegenContext, CompiledPlan, execute_plan, run_local
from repro.sparkdist import ops
from repro.sparkdist.blocked import RowBlockMatrix
from repro.sparkdist.fusedexec import execute_dist
from repro.sparkdist.ops import TransposedRBM, is_dist


def eval_hop_hybrid(spark, h: Hop, env: dict, bindings: dict):
    """One operator, dispatched local vs distributed by operand types."""
    if h.op == "leaf":
        return bindings[h.name]
    if h.op == "lit":
        return float(h.value)
    ins = [env[i.hid] for i in h.inputs]
    if not any(is_dist(v) for v in ins):
        return local_ex.eval_hop(h, env, bindings)
    if h.op == "t":
        (v,) = ins
        return TransposedRBM(v) if isinstance(v, RowBlockMatrix) else v.base
    if h.op == "ba(+*)":
        return ops.matmult(spark, ins[0], ins[1])
    if h.op in vl.BINARY:
        return ops.elementwise(spark, h.op, ins[0], ins[1])
    if h.op in vl.UNARY:
        return ops.unary(spark, h.op, ins[0])
    if h.op.startswith("ua("):
        return ops.aggregate(spark, h.op, ins[0])
    if h.op == "rix":
        return ops.rix(spark, ins[0], h.meta["c1"], h.meta["c2"])
    raise ValueError(f"unsupported distributed op {h.op}")


@dataclass
class SparkBackend:
    """Places each operator of a plan. A fused operator, hand-coded or
    generated, runs its local kernel when no operand is distributed, and
    ``execute_dist``'s pass over its main input when that input is
    distributed (its CPlan binds one); otherwise ``fused`` returns None
    and the plan's covered hops run as basic operators. A basic operator
    is placed by ``eval_hop_hybrid``.

    A distributed instruction's matrix result is placed once, here: if
    it is narrower than its widest distributed operand and its memory
    estimate fits ``cm.local_mem_budget``, it is collected to the driver
    (one job); a pending map whose hop is in ``pipelined`` stays
    pending; any other is materialized. The broadcasts the instructions
    create are recorded and unpersisted with the plan's intermediates."""

    spark: object
    cm: CostModel
    pipelined: set = field(default_factory=set)  # hids, see single_reader
    bcasts: list = field(default_factory=list)

    def basic(self, h: Hop, env: dict, bindings: dict):
        with ops.recording_broadcasts(self.bcasts):
            out = eval_hop_hybrid(self.spark, h, env, bindings)
        if h.op in ("leaf", "t"):  # the caller's value, or an operand's
            return out
        return self._place(out, h, [env[i.hid] for i in h.inputs])

    def fused(self, spec: OpSpec, op, env: dict):
        ins = {h: env[h] for h in spec.input_hids}
        if not any(is_dist(v) for v in ins.values()):
            return run_local(spec, op, env)
        if (
            op.cplan is None
            or not isinstance(ins.get(op.cplan.main_hid), RowBlockMatrix)
            or any(isinstance(v, TransposedRBM) for v in ins.values())
        ):
            return None
        with ops.recording_broadcasts(self.bcasts):
            out = execute_dist(self.spark, op, ins)
        return self._place(out, spec.root, list(ins.values()))

    def _place(self, out, h: Hop, operands: list):
        """Collect a narrow, small distributed result, pipeline a pending
        one with a single reader, materialize any other one."""
        if not isinstance(out, RowBlockMatrix):
            return out
        widest = max(v.ncols for v in operands if isinstance(v, RowBlockMatrix))
        if out.ncols < widest and h.memory_bytes() <= self.cm.local_mem_budget:
            return out.to_numpy()
        if out.src is not None and h.hid in self.pipelined:
            return out
        return out.materialize()

    def release(self, values: list, keep: list) -> None:
        """Unpersist the distributed intermediates, never a kept value,
        and the broadcasts (not destroyed: an evicted cached result may
        still be recomputed from them)."""
        kept = {id(v) for v in keep}
        for v in {id(v): v for v in values}.values():
            if isinstance(v, RowBlockMatrix) and id(v) not in kept:
                v.unpersist()
        for b in self.bcasts:
            b.unpersist()
        self.bcasts.clear()


class SparkEngine(Engine):
    """``Engine`` whose plans run against a :class:`SparkBackend`."""

    def __init__(self, spark, mode: str = "gen", cm: CostModel | None = None,
                 ctx: CodegenContext | None = None) -> None:
        self.spark = spark
        self.cm = cm or CostModel(local_mem_budget=48e6)
        super().__init__(mode, ctx or CodegenContext(cost_model=self.cm))

    # Its own method rather than the inherited one, so that wrapping
    # ``Engine.__call__`` (perfbench's tracer does) leaves this one alone.
    def __call__(self, exprs, bindings: dict):
        return self._run(exprs, bindings)

    def release(self, *values) -> None:
        """Unpersist the distributed values the driver no longer reads."""
        for v in values:
            if isinstance(v, RowBlockMatrix):
                v.unpersist()

    def _execute_plan(self, plan: CompiledPlan, bindings: dict) -> list:
        backend = SparkBackend(self.spark, self.cm, single_reader(plan.roots))
        return execute_plan(plan, bindings, backend)


def single_reader(roots: list[Hop]) -> set[int]:
    """The non-root hops read exactly once, and not by ``t`` (which hands
    its operand on to its own readers)."""
    cons = consumers(roots)
    return {h for h, cs in cons.items() if len(cs) == 1 and cs[0].op != "t"} - {
        r.hid for r in roots
    }
