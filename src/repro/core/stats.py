"""Codegen statistics counters (feed Table 3 and the plan-cache story)."""
from __future__ import annotations

from dataclasses import dataclass


@dataclass
class CodegenStats:
    n_dags: int = 0          # optimized HOP DAGs (compile_dag calls)
    n_cplans: int = 0        # constructed CPlans
    n_compiled: int = 0      # compiled operator classes (plan-cache misses)
    cache_hits: int = 0
    codegen_ms: float = 0.0  # total code generation time (explore+select+cplan)
    compile_ms: float = 0.0  # operator compilation time only
    plans_evaluated: int = 0
    plans_skipped: int = 0
