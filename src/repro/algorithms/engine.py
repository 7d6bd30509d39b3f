"""Execution engine for ML algorithm drivers.

One engine instance per (algorithm run × mode). Modes map to the paper's
systems under test:

* ``base``    — basic operators only (SystemML *Base*),
* ``fused``   — basic + hand-coded fused operators (*Fused*, the default),
* ``gen``     — cost-based codegen (*Gen*),
* ``gen_fa``  — fuse-all heuristic (*Gen-FA*),
* ``gen_fnr`` — fuse-no-redundancy heuristic (*Gen-FNR*).

Every mode turns a DAG into a plan (``plan_basic``, ``plan_fused`` or
``compile_dag``) and runs it with ``execute_plan``. Plans are cached by
DAG *structure* (ops, shapes, leaf names), so a loop body is planned and
compiled once and re-executed with fresh bindings — SystemML's
compile-once / plan-cache behaviour. Executing a cached plan with new
bindings is sound because leaves are resolved by name at execution time.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.hop import Expr, Hop, postorder
from repro.core.pipeline import (
    CodegenContext,
    CompiledPlan,
    compile_dag,
    execute_plan,
    plan_basic,
    plan_fused,
)

MODES = ("base", "fused", "gen", "gen_fa", "gen_fnr")
_POLICY = {"gen": "cost", "gen_fa": "fuse_all", "gen_fnr": "fuse_no_redundancy"}


def shape_sp(X) -> tuple[tuple[int, int], float]:
    """(shape, sparsity) for ndarray / CSR / RowBlockMatrix inputs."""
    return X.shape, float(getattr(X, "sparsity", 1.0))


def dag_signature(roots: list[Hop]) -> str:
    """Structural DAG fingerprint: identical across loop iterations that
    rebuild the same expression over same-shaped inputs."""
    idx: dict[int, int] = {}
    parts: list[str] = []
    for h in postorder(roots):
        idx[h.hid] = len(idx)
        ins = ",".join(str(idx[i.hid]) for i in h.inputs)
        extra = h.name or (repr(h.value) if h.value is not None else "")
        rix = f"{h.meta.get('c1','')}:{h.meta.get('c2','')}" if h.op == "rix" else ""
        parts.append(
            f"{h.op}({ins}){h.nrows}x{h.ncols}@{round(h.sparsity,4)}{extra}{rix}"
        )
    parts.append("|roots:" + ",".join(str(idx[r.hid]) for r in roots))
    return ";".join(parts)


@dataclass
class Engine:
    mode: str = "gen"
    ctx: CodegenContext = field(default_factory=CodegenContext)
    _plans: dict[str, CompiledPlan] = field(default_factory=dict)

    def __post_init__(self) -> None:
        assert self.mode in MODES, self.mode

    def __call__(self, exprs, bindings: dict) -> list:
        """Execute one DAG (list of Exprs or a single Expr); returns one
        value per root."""
        return self._run(exprs, bindings)

    def release(self, *values) -> None:
        """Drop values the driver no longer reads (SystemML's ``rmvar``):
        nothing to do for local values."""

    def _run(self, exprs, bindings: dict):
        single = isinstance(exprs, (Expr, Hop))
        lst = [exprs] if single else list(exprs)
        roots = [e.hop if isinstance(e, Expr) else e for e in lst]
        key = dag_signature(roots)
        plan = self._plans.get(key)
        if plan is None:
            plan = self._plans[key] = self._plan(roots)
        out = self._execute_plan(plan, bindings)
        return out[0] if single else out

    def _plan(self, roots: list[Hop]) -> CompiledPlan:
        if self.mode == "base":
            return plan_basic(roots)
        if self.mode == "fused":
            return plan_fused(roots)
        return compile_dag(roots, _POLICY[self.mode], self.ctx)

    def _execute_plan(self, plan: CompiledPlan, bindings: dict) -> list:
        return execute_plan(plan, bindings)
