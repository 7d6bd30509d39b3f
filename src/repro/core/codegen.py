"""Source generation for fused operators + the plan cache (paper §2.1/2.2).

From a :class:`CPlan` we render the Python source of one ``genexec``
function — the analogue of the generated Java ``genexec`` bodies — by a
depth-first walk over the covered-operation DAG. Generated code calls
the shared vector-primitive library ``vl`` (``repro.core.vectlib``)
rather than inlining primitive bodies, mirroring the paper's
instruction-footprint design.

The *plan cache* maps canonical sources to compiled operators, so
equivalent CPlans (across DAGs and dynamic recompilation) are compiled
exactly once; its hit/miss/compile-time counters feed Table 3.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core import vectlib as vl
from repro.core.cplan import CPlan
from repro.core.hop import Hop


def _names(table: dict) -> dict[str, str]:
    """op -> the name generated code calls its ``vectlib`` kernel by."""
    return {op: "vl." + fn.__name__ for op, fn in table.items()}


_BIN_FN, _UN_FN, _ROW_AGG_FN = _names(vl.BINARY), _names(vl.UNARY), _names(vl.AGG)


def _name_map(cplan: CPlan) -> dict[int, str]:
    names: dict[int, str] = {}
    if cplan.main_hid >= 0:
        names[cplan.main_hid] = "a"
    sides = cplan.side_hids
    if cplan.template == "O":
        # U/Vᵀ/right-hand factors are consumed by the skeleton (dot_rows /
        # right_mm); only remaining sides are gathered per non-zero cell
        special = {
            cplan.meta.get("u_hid"),
            cplan.meta.get("vt_hid"),
            cplan.meta.get("right_hid"),
        }
        sides = [h for h in sides if h not in special]
    for k, hid in enumerate(sides):
        names[hid] = f"b[{k}]"
    return names


def _render_common(cplan: CPlan, include_root_agg: bool) -> tuple[list[str], dict[int, str]]:
    """Emit one assignment per covered hop; returns (lines, hid->expr)."""
    names = _name_map(cplan)
    lines: list[str] = []
    n = 0
    outer_mm = cplan.meta.get("outer_mm_hid")
    row_n = cplan.meta.get("row_n", -1)
    t_marker: dict[int, str] = {}  # covered transpose: hid -> child expr

    def ref(h: Hop) -> str:
        if h.op == "lit":
            return repr(float(h.value))
        if h.hid in t_marker:
            # covered transpose used outside the tmm_acc pattern: only
            # sound for non-row-aligned (whole) operands, where a real
            # transpose is cheap and block-independent
            return f"vl.t({t_marker[h.hid]})"
        if h.hid in names:
            return names[h.hid]
        raise KeyError(f"unresolved reference {h}")

    for h in cplan.order:
        is_root = h.hid == cplan.root.hid or any(
            h.hid == r.hid for r in cplan.magg_roots
        )
        if h.op.startswith("ua(") and is_root and not include_root_agg:
            # aggregation applied by the skeleton (variant): stop at input
            names[h.hid] = ref(h.inputs[0])
            continue
        if cplan.template == "O":
            if h.hid == outer_mm:
                expr = "vl.dot_rows(ur, vr)"
            elif h.op == "ba(+*)" and is_root:
                # right_mm applied by the skeleton: pass through the lhs chain
                names[h.hid] = ref(h.inputs[0])
                continue
            else:
                expr = _basic_expr(h, ref)
        else:
            expr = _row_or_cell_expr(h, ref, names, t_marker, row_n)
            if expr is None:
                continue
        names[h.hid] = f"t{n}"
        lines.append(f"    t{n} = {expr}")
        n += 1
    # resolve markers for anything still referencing them (e.g. a root t)
    for hid, child in t_marker.items():
        names.setdefault(hid, child)
    return lines, names


def _basic_expr(h: Hop, ref) -> str:
    fn = _BIN_FN.get(h.op) or _UN_FN.get(h.op) or _ROW_AGG_FN.get(h.op)
    if fn is not None:
        return f"{fn}({', '.join(ref(i) for i in h.inputs)})"
    if h.op == "rix":
        return f"vl.rix({ref(h.inputs[0])}, {h.meta['c1']}, {h.meta['c2']})"
    raise ValueError(f"cannot generate code for {h.op}")


def _row_or_cell_expr(
    h: Hop, ref, names: dict[int, str], t_marker: dict[int, str], row_n: int
) -> str | None:
    if h.op == "t":
        # record the child expression; consumers decide whether to fold
        # the transpose (tmm_acc over row-aligned chains) or materialize
        # it (vl.t over whole/non-aligned operands)
        t_marker[h.hid] = ref(h.inputs[0])
        return None
    if h.op == "ba(+*)":
        lhs, rhs = h.inputs
        if lhs.hid in t_marker and lhs.inputs[0].nrows == row_n:
            # t(X) %*% Q per row block: aᵀ @ q (col_agg_t accumulation)
            return f"vl.tmm_acc({t_marker[lhs.hid]}, {ref(rhs)})"
        return f"vl.mm({ref(lhs)}, {ref(rhs)})"
    return _basic_expr(h, ref)


def render_source(cplan: CPlan) -> str:
    """Render the canonical genexec source for a CPlan. Canonical tmp/side
    numbering makes equivalent plans string-identical → plan-cache key."""
    include_root_agg = cplan.template == "R"
    lines, names = _render_common(cplan, include_root_agg)
    outs = [names[cplan.root.hid]] + [names[r.hid] for r in cplan.magg_roots]
    ret = outs[0] if len(outs) == 1 else "(" + ", ".join(outs) + ")"
    if cplan.template == "O":
        sig = "def genexec(a, ur, vr, b):"
    else:
        sig = "def genexec(a, b):"
    body = lines or []
    header = (
        f"# SpoofOp template={cplan.template} variant={cplan.variant} "
        f"sparse_safe={cplan.sparse_safe}\n"
    )
    return header + sig + "\n" + "\n".join(body) + f"\n    return {ret}\n"


# ------------------------------------------------------------------ compile
@dataclass
class PlanCacheStats:
    hits: int = 0
    misses: int = 0
    compile_ms: float = 0.0


class PlanCache:
    """Maps canonical genexec source → compiled function (paper: hashed
    CPlan → generated class)."""

    def __init__(self) -> None:
        self._cache: dict[str, object] = {}
        self.stats = PlanCacheStats()

    def get_or_compile(self, src: str):
        fn = self._cache.get(src)
        if fn is not None:
            self.stats.hits += 1
            return fn
        t0 = time.perf_counter()
        fn = compile_source(src)
        self.stats.compile_ms += (time.perf_counter() - t0) * 1e3
        self.stats.misses += 1
        self._cache[src] = fn
        return fn


def compile_source(src: str):
    """Compile a genexec source string into a callable (the janino-analogue
    fast path: direct ``compile``+``exec`` into the running interpreter)."""
    import numpy as np

    ns: dict = {"vl": vl, "np": np}
    code = compile(src, "<genexec>", "exec")
    exec(code, ns)
    return ns["genexec"]
