"""Analytical cost model and plan decomposition (paper §4.3).

``C(P|q) = Σ_p ( T̂ʷ_p + max(T̂ʳ_p, T̂ᶜ_p) )`` over the basic/fused
operators ``p`` implied by a materialization assignment ``q``: read and
write times are sizes normalized by peak bandwidths, compute time is
FLOPs over peak compute, and sparsity-exploiting operators scale their
estimates by the sparsity of the main input.

``decompose`` turns (memo table, assignment) into the concrete list of
operators, taking each group's operator from a memoized
``GroupDecisions``. Every fused candidate is costed with the CPlan it
would run (``build_cplan``): a candidate without one is not an operator,
and the sparse scale is that CPlan's, the sparsity of the main input its
skeleton iterates. The same decision function serves enumeration
costing and the final plan, whose specs carry their CPlans to code
generation, so what we cost is exactly what we run.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.cplan import CPlan, build_cplan
from repro.core.hop import Hop, consumers, safe_in
from repro.core.memo import CLOSED_VALID, MemoEntry, MemoTable
from repro.core.partitions import Partition
from repro.core.templates import BLOCKSIZE, MERGE_COMPATIBLE

_FLOP_WEIGHT = {"u(exp)": 32, "u(log)": 32, "u(sigmoid)": 40, "b(^)": 16, "u(sqrt)": 8}


@dataclass
class CostModel:
    """Bandwidth/compute knobs (defaults mirror the paper's node: ~32 GB/s
    read, ~16 GB/s write, ~64 GFLOP/s effective double-precision)."""

    read_bw: float = 32e9
    write_bw: float = 16e9
    peak_flops: float = 64e9
    # distributed execution (Table 6 regime)
    local_mem_budget: float = 16e9   # ops touching more go distributed
    dist_read_bw: float = 2e9        # shuffle/HDFS-ish effective bandwidth
    dist_write_bw: float = 1e9
    dist_latency: float = 0.1        # per distributed op (job/stage launch)
    broadcast_latency: float = 0.05  # per broadcast side input
    n_executors: int = 8             # broadcast fan-out multiplier
    broadcast_bw: float = 1e9


@dataclass
class OpSpec:
    """One runtime operator: basic (template=None) or fused."""

    root: Hop
    template: str | None
    covered: dict[int, Hop]          # hops computed inside this operator
    entries: dict[int, MemoEntry]    # chosen memo entry per covered hop
    input_hops: dict[int, Hop] = field(default_factory=dict)  # materialized inputs, ordered
    sparse_scale: float = 1.0        # sparsity-exploitation factor (<1 = exploiting)
    magg_roots: list[Hop] = field(default_factory=list)  # extra roots (multi-agg)
    est_cost: float | None = None    # op_cost when chosen by GroupDecisions
    cplan: CPlan | None = None       # what a fused operator runs

    @property
    def n_covered(self) -> int:
        return len(self.covered)

    @property
    def input_hids(self) -> list[int]:
        return list(self.input_hops)


# ------------------------------------------------------------------ FLOPs
def flops_dense(h: Hop) -> float:
    """FLOP estimate ignoring sparsity (used with an explicit sparse scale)."""
    if h.op == "ba(+*)":
        return 2.0 * h.inputs[0].nrows * h.inputs[0].ncols * h.inputs[1].ncols
    if h.op in ("leaf", "lit"):
        return 0.0
    if h.op == "t" or h.op == "rix":
        return 0.0
    if h.op.startswith("ua("):
        return float(h.inputs[0].nrows * h.inputs[0].ncols)
    w = _FLOP_WEIGHT.get(h.op, 1.0)
    return float(h.nrows * h.ncols) * w


def flops(h: Hop) -> float:
    """Sparsity-aware FLOP estimate for the operator executed standalone."""
    if h.op == "ba(+*)" or h.op.startswith("ua("):
        return flops_dense(h) * h.inputs[0].sparsity
    sp = min((i.sparsity for i in h.inputs if i.is_matrix and safe_in(h, i)), default=1.0)
    return flops_dense(h) * sp


# ----------------------------------------------------------- decomposition
def _valid(entry: MemoEntry, hid: int, cut: set[tuple[int, int]]) -> bool:
    return all((hid, r) not in cut for r in entry.refs if r >= 0)


def _best_continuation(
    memo: MemoTable, hid: int, root_type: str, cut: set[tuple[int, int]]
) -> MemoEntry | None:
    """Best open entry of a merge-compatible type at group ``hid``."""
    compat = MERGE_COMPATIBLE[root_type]
    cands = [
        e
        for e in memo.entries(hid)
        if e.type in compat and e.closed != CLOSED_VALID and _valid(e, hid, cut)
    ]
    if not cands:
        return None
    # prefer same-type continuations, then maximal references
    return max(cands, key=lambda e: (e.type == root_type, e.n_refs))


def _expand(
    memo: MemoTable,
    h: Hop,
    entry: MemoEntry,
    root_type: str,
    cut: set[tuple[int, int]],
    covered: dict[int, Hop],
    entries: dict[int, MemoEntry],
    inputs: list[Hop],
) -> None:
    covered[h.hid] = h
    entries[h.hid] = entry
    for j, inp in enumerate(h.inputs):
        r = entry.refs[j] if j < len(entry.refs) else -1
        if r >= 0 and (h.hid, r) not in cut and r not in covered:
            sub = _best_continuation(memo, r, root_type, cut)
            if sub is not None:
                _expand(memo, memo.hops[r], sub, root_type, cut, covered, entries, inputs)
                continue
        if r >= 0 and r in covered:
            continue  # diamond inside the fused operator: computed once
        if inp.op == "lit":
            continue  # scalars are inlined into generated code
        if all(i.hid != inp.hid for i in inputs):
            inputs.append(inp)


def _op_from_entry(
    memo: MemoTable, h: Hop, entry: MemoEntry, cut: set[tuple[int, int]]
) -> OpSpec:
    covered: dict[int, Hop] = {}
    entries: dict[int, MemoEntry] = {}
    inputs: list[Hop] = []
    _expand(memo, h, entry, entry.type, cut, covered, entries, inputs)
    return OpSpec(
        root=h,
        template=entry.type,
        covered=covered,
        entries=entries,
        input_hops={i.hid: i for i in inputs},
    )


def _with_cplan(spec: OpSpec) -> OpSpec | None:
    """``spec`` carrying its CPlan and that CPlan's sparse scale, or None
    when no CPlan can be built for it."""
    spec.cplan = build_cplan(spec)
    if spec.cplan is None:
        return None
    spec.sparse_scale = spec.cplan.sparse_scale
    return spec


def _step(root: Hop, covered: dict[int, Hop]) -> OpSpec:
    """An operator that is not a generated one: a basic operator
    (``covered`` is the root alone) or a hand-coded fused operator."""
    inputs = {
        i.hid: i
        for h in covered.values()
        for i in h.inputs
        if i.op != "lit" and i.hid not in covered
    }
    return OpSpec(
        root=root,
        template=None,
        covered=covered,
        entries={},
        input_hops=inputs,
    )


def op_cost(spec: OpSpec, cm: CostModel, distributed: bool = False) -> float:
    """T̂ʷ + max(T̂ʳ, T̂ᶜ) for one operator, Eq. (4)."""
    read_bytes = sum(h.memory_bytes() for h in spec.input_hops.values())
    write_bytes = spec.root.memory_bytes() + sum(
        r.memory_bytes() for r in spec.magg_roots
    )
    if spec.sparse_scale < 1.0:
        compute = (
            sum(flops_dense(h) for h in spec.covered.values()) * spec.sparse_scale
        )
    else:
        compute = sum(flops(h) for h in spec.covered.values())
    if not distributed:
        return write_bytes / cm.write_bw + max(
            read_bytes / cm.read_bw, compute / cm.peak_flops
        )
    # distributed operator: big inputs stream at dist bandwidth; small side
    # inputs must be broadcast to every executor (paper §4.4 'Constraints
    # and Distributed Operations')
    big = [h for h in spec.input_hops.values() if h.memory_bytes() > cm.local_mem_budget]
    small = [h for h in spec.input_hops.values() if h.memory_bytes() <= cm.local_mem_budget]
    read = sum(h.memory_bytes() for h in big) / cm.dist_read_bw
    bc = sum(
        h.memory_bytes() * cm.n_executors / cm.broadcast_bw + cm.broadcast_latency
        for h in small
    )
    wb = write_bytes / (
        cm.dist_write_bw if spec.root.memory_bytes() > cm.local_mem_budget else cm.write_bw
    )
    return cm.dist_latency + bc + wb + max(read, compute / cm.peak_flops)


def is_distributed(spec: OpSpec, cm: CostModel) -> bool:
    """Execution-type decision: distributed iff a large input or output is
    involved (memory-estimate based, as in SystemML)."""
    touched = [spec.root.memory_bytes()] + [
        h.memory_bytes() for h in spec.input_hops.values()
    ]
    return max(touched) > cm.local_mem_budget


def violates_constraints(spec: OpSpec, cm: CostModel) -> bool:
    """Conditional constraints Z: a distributed Row operator requires
    whole-row access, i.e. ncol(main) <= blocksize (paper §4.1). The
    template constraints a CPlan checks (an Outer operator's sparse
    driver, §3.2) hold for every candidate whose CPlan builds."""
    if spec.template == "R" and is_distributed(spec, cm):
        main = max(
            spec.input_hops.values(), key=lambda h: h.memory_bytes(), default=None
        )
        if main is not None and main.ncols > BLOCKSIZE:
            return True
    return False


def ref_descendants(memo: MemoTable) -> dict[int, frozenset[int]]:
    """hid -> all hids reachable from it via fusion references (incl. self);
    bounds which cut edges can influence an expansion rooted at hid."""
    adj: dict[int, set[int]] = {}
    for hid, group in memo.groups.items():
        for e in group:
            for r in e.refs:
                if r >= 0:
                    adj.setdefault(hid, set()).add(r)
    out: dict[int, frozenset[int]] = {}

    def dfs(h: int) -> frozenset[int]:
        if h in out:
            return out[h]
        out[h] = frozenset({h})  # cycle guard (DAG, but be safe)
        acc = {h}
        for r in adj.get(h, ()):
            acc |= dfs(r)
        out[h] = frozenset(acc)
        return out[h]

    for hid in memo.groups:
        dfs(hid)
    return out


_TPL_PREF = {"O": 0, "M": 1, "R": 2, "C": 3}


class GroupDecisions:
    """The operator chosen at each group under a cut, memoized.

    The decision at group ``hid`` — the cost-best (or, for the heuristic
    policies, best-covering) maximal valid fused operator rooted there
    whose CPlan builds, or the basic operator — and its ``op_cost``
    depend only on the cut edges whose consumer lies in
    ``ref_descendants(hid)``: validity is checked on the group's own
    edges and expansions follow references only. The decision is
    memoized under that part of the cut, encoded as a bitmask over the
    edges seen so far, so costing an assignment is a walk of memo hits
    that rebuilds only the groups whose relevant cut changed (the paper's
    cost-vector reuse, §4.3). Different relevant cuts often expand a
    group to the same candidate; each distinct candidate is costed, and
    its CPlan built, once. ``restrict_to``, ``choose`` and the cost
    model are fixed for the object's lifetime."""

    def __init__(
        self,
        memo: MemoTable,
        dag_roots: list[Hop],
        restrict_to: set[int] | None = None,
        choose: str = "cost",
        cm: CostModel | None = None,
    ) -> None:
        self.memo = memo
        self.dag_roots = dag_roots
        self.restrict_to = restrict_to
        self.choose = choose
        self.cm = cm or CostModel()
        self._desc = ref_descendants(memo)
        self._bit: dict[tuple[int, int], int] = {}  # cut edge -> bit
        self._rel: dict[int, int] = {}  # hid -> bits of its relevant edges
        self._memo: dict[tuple[int, int], OpSpec | None] = {}
        # expansion -> that candidate costed (None: not an operator)
        self._costed: dict[tuple, OpSpec | None] = {}

    def mask(self, cut: set[tuple[int, int]]) -> int:
        """``cut`` as a bitmask; an edge gets its bit when first seen."""
        m = 0
        for e in cut:
            b = self._bit.get(e)
            if b is None:
                b = self._bit[e] = 1 << len(self._bit)
                c = e[0]
                for hid, d in self._desc.items():
                    if c in d:
                        self._rel[hid] = self._rel.get(hid, 0) | b
                if c not in self._desc:
                    self._rel[c] = self._rel.get(c, 0) | b
            m |= b
        return m

    def op(self, hid: int, cut: set[tuple[int, int]], mask: int) -> OpSpec | None:
        """The operator rooted at ``hid`` (None for leaves and literals);
        ``mask`` is ``self.mask(cut)``."""
        key = (hid, mask & self._rel.get(hid, 0))
        try:
            return self._memo[key]
        except KeyError:
            spec = self._memo[key] = self._decide(hid, cut)
            return spec

    def _decide(self, hid: int, cut: set[tuple[int, int]]) -> OpSpec | None:
        memo, cm = self.memo, self.cm
        h = memo.hops[hid]
        if h.op in ("leaf", "lit"):
            return None
        cands: dict[str, MemoEntry] = {}
        if self.restrict_to is None or hid in self.restrict_to:
            for e in memo.entries(hid):
                if not _valid(e, hid, cut):
                    continue
                cur = cands.get(e.type)
                if cur is None or e.n_refs > cur.n_refs:
                    cands[e.type] = e
        best: OpSpec | None = None
        best_score: tuple | None = None
        for e in cands.values():
            spec = self._candidate(_op_from_entry(memo, h, e, cut))
            if spec is None:
                continue
            if self.choose == "cost":
                score = (spec.est_cost,)
            else:
                # heuristic policies pick maximal fusion (coverage), which
                # is what lets an overlapping Row plan destroy the
                # sparsity-exploiting Outer template (paper §5.4)
                score = (-spec.n_covered, _TPL_PREF[spec.template], spec.est_cost)
            if best_score is None or score < best_score:
                best, best_score = spec, score
        if best is None:
            best = _step(h, {h.hid: h})
            best.est_cost = op_cost(best, cm, is_distributed(best, cm))
        return best

    def _candidate(self, spec: OpSpec) -> OpSpec | None:
        """``spec`` with its CPlan and ``est_cost``, or None when it is not
        a fused operator. A candidate is identified by its memo entries
        (which live as long as ``self.memo``) and its inputs; a repeat
        gets the spec costed first."""
        key = (tuple((hid, id(e)) for hid, e in spec.entries.items()),
               tuple(spec.input_hops))
        try:
            return self._costed[key]
        except KeyError:
            pass
        cm = self.cm
        if (spec.n_covered <= 1 or violates_constraints(spec, cm)
                or _with_cplan(spec) is None):
            spec = None
        else:
            spec.est_cost = op_cost(spec, cm, is_distributed(spec, cm))
        self._costed[key] = spec
        return spec


def decompose(
    decisions: GroupDecisions,
    cut: set[tuple[int, int]],
    start: set[int] | None = None,
) -> list[OpSpec]:
    """Interpret the memo table under materialization decisions ``cut``:
    the list of operators that would be executed. Starts from the DAG
    roots (or ``start``) and walks materialized intermediates top-down,
    taking each group's operator from ``decisions``."""
    mask = decisions.mask(cut)
    worklist: list[int] = sorted(
        start if start is not None else {r.hid for r in decisions.dag_roots}
    )
    done: set[int] = set()
    specs: list[OpSpec] = []
    while worklist:
        hid = worklist.pop()
        if hid in done:
            continue
        done.add(hid)
        spec = decisions.op(hid, cut, mask)
        if spec is None:
            continue
        specs.append(spec)
        for i, inp in spec.input_hops.items():
            if i not in done and inp.op not in ("leaf", "lit"):
                worklist.append(i)
    return specs


def combine_multi_aggregates(specs: list[OpSpec]) -> list[OpSpec]:
    """Selection-time MAgg combination: fuse up to 3 full-aggregate
    operators that share at least one input into one multi-aggregate
    (paper §2.2 'multiple aggregates with shared inputs')."""
    maggs = [s for s in specs if s.template == "M"]
    rest = [s for s in specs if s.template != "M"]
    used: set[int] = set()
    combined: list[OpSpec] = []
    for i, a in enumerate(maggs):
        if i in used:
            continue
        group = [a]
        for j in range(i + 1, len(maggs)):
            if j in used or len(group) >= 3:
                continue
            b = maggs[j]
            share = a.input_hops.keys() & b.input_hops.keys()
            leaf_share = {
                h
                for s in group
                for h, inp in s.input_hops.items()
                if inp.op == "leaf"
            } & b.input_hops.keys()
            if share or leaf_share:
                group.append(b)
                used.add(j)
        if len(group) == 1:
            combined.append(a)
            continue
        # non-destructive merge: specs are shared via the memoized group
        # decisions, so build a fresh combined OpSpec (est_cost unset)
        # with its own CPlan, which a multi-aggregate always has
        head = OpSpec(
            root=group[0].root,
            template="M",
            covered=dict(group[0].covered),
            entries=dict(group[0].entries),
            input_hops=dict(group[0].input_hops),
            magg_roots=list(group[0].magg_roots),
        )
        for other in group[1:]:
            head.covered.update(other.covered)
            head.entries.update(other.entries)
            for hid_, hop_ in other.input_hops.items():
                head.input_hops.setdefault(hid_, hop_)
            head.magg_roots.append(other.root)
        combined.append(_with_cplan(head))
    return rest + combined


# --------------------------------------------------- partition-level costing
class PartitionCoster:
    """GETPLANCOST with loop-invariant state hoisted out of the per-q path:
    consumers, forced materializations and the start set are computed once
    per partition, and the group decisions (with their costs) are memoized
    across assignments, so only freshly combined multi-aggregates are
    recosted."""

    def __init__(
        self,
        memo: MemoTable,
        part: Partition,
        dag_roots: list[Hop],
        cm: CostModel | None = None,
    ) -> None:
        self.part = part
        self.cm = cm or CostModel()
        cons = consumers(dag_roots)
        forced = {
            n
            for n in part.nodes
            if not cons.get(n)  # DAG root
            or any(c.hid not in part.nodes for c in cons.get(n, []))
        }
        self.start = set(part.roots) | forced
        self.decisions = GroupDecisions(memo, dag_roots, part.nodes, "cost", self.cm)

    def cost(self, cut: set[tuple[int, int]]) -> float:
        specs = combine_multi_aggregates(decompose(self.decisions, cut, self.start))
        total = 0.0
        for s in specs:
            # partition-external operators are costed in their own
            # partition; their outputs are partition inputs whose read is
            # already part of the consuming operator's T̂ʳ (paper: I_i)
            if s.root.hid not in self.part.nodes:
                continue
            c = s.est_cost
            if c is None:
                c = op_cost(s, self.cm, is_distributed(s, self.cm))
            total += c
        return total


def partition_cost(
    memo: MemoTable,
    part: Partition,
    dag_roots: list[Hop],
    cut: set[tuple[int, int]],
    cm: CostModel | None = None,
) -> float:
    """One-shot GETPLANCOST (tests & heuristics); enumeration uses
    :class:`PartitionCoster`."""
    return PartitionCoster(memo, part, dag_roots, cm).cost(cut)


def static_lower_bound(
    memo: MemoTable, part: Partition, cm: CostModel | None = None
) -> float:
    """C̲_P: reading partition inputs + minimal (fully sparsity-exploited,
    redundancy-free) compute + writing partition roots (paper §4.4)."""
    cm = cm or CostModel()
    read = sum(memo.hops[i].memory_bytes() if i in memo.hops else 0.0
               for i in part.inputs) / cm.read_bw
    compute = 0.0
    for n in part.nodes:
        h = memo.hops[n]
        best_scale = min(
            (i.sparsity for i in h.inputs if i.is_matrix), default=1.0
        )
        compute += min(flops(h), flops_dense(h) * best_scale)
    compute /= cm.peak_flops
    write = sum(memo.hops[r].memory_bytes() for r in part.roots) / cm.write_bw
    return write + max(read, compute)


def materialization_cost(
    memo: MemoTable,
    points,
    q: list[bool],
    cm: CostModel | None = None,
) -> float:
    """GETMPCOST: each distinct materialized target costs >= 1 write+read."""
    cm = cm or CostModel()
    targets = {p.target for p, b in zip(points, q) if b}
    return sum(
        memo.hops[t].memory_bytes() * (1.0 / cm.write_bw + 1.0 / cm.read_bw)
        for t in targets
    )
