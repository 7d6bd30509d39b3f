"""MPSkipEnum: materialization-point skip enumeration (paper §4.4, Alg. 2).

Linearizes the 2^|M'| search space of boolean materialization
assignments (MSB-first, so all-False == fuse-all comes first and yields
a good initial upper bound), scans it keeping the best plan, and skips
sub-spaces via

* cost-based pruning — a monotone lower bound (static partition cost +
  minimum materialization cost of the current assignment) against the
  best cost seen so far, with skip-ahead over the subtree that shares
  the prefix up to the last ``True``;
* structural pruning — a reachability-graph cut set whose joint
  materialization splits the remaining points into independent
  sub-problems S1/S2 that are solved recursively (with RG = null, as in
  Algorithm 2 line 10) and stitched together.
"""
from __future__ import annotations

from dataclasses import dataclass

from repro.core.cost import (
    CostModel,
    PartitionCoster,
    materialization_cost,
    partition_cost,
    static_lower_bound,
)
from repro.core.hop import Hop
from repro.core.memo import MemoTable
from repro.core.partitions import CutSet, Partition, find_cut_sets, invalid_edges


@dataclass
class EnumStats:
    evaluated: int = 0
    skipped: int = 0


def _bits(j: int, m: int) -> list[bool]:
    """MSB-first bit vector of j over m positions (CREATEASSIGNMENT)."""
    return [(j >> (m - 1 - k)) & 1 == 1 for k in range(m)]


def _last_true(q: list[bool]) -> int:
    for k in range(len(q) - 1, -1, -1):
        if q[k]:
            return k
    return -1


def _enum_range(
    cost_fn,
    lb_fn,
    m: int,
    fixed: dict[int, bool],
    stats: EnumStats,
    order: list[int] | None = None,
    cut: CutSet | None = None,
) -> tuple[list[bool], float]:
    """Scan the 2^(m-|fixed|) assignments over the free positions, taken
    MSB-first in ``order``. Where a cut set's points (the leading free
    positions) are all materialized and every other point is not, its
    sub-problems S1 and S2 are solved by recursive scans, stitched
    together and the rest of that subtree skipped (Alg. 2 lines 8-13)."""
    free = [k for k in (order or range(m)) if k not in fixed]
    n, ncs = len(free), len(cut.point_idx) if cut else 0
    best_q: list[bool] | None = None
    best_c = float("inf")
    j = 0
    while j < (1 << n):
        qf = _bits(j, n)
        q = [False] * m
        for k, v in fixed.items():
            q[k] = v
        for k, b in zip(free, qf):
            q[k] = b
        skip = 0
        if cut is not None and j == ((1 << ncs) - 1) << (n - ncs):
            on = {k: True for k in cut.point_idx}
            s1 = {k: False for k in cut.s1_idx}
            s2 = {k: False for k in cut.s2_idx}
            q1, _ = _enum_range(cost_fn, lb_fn, m, {**on, **s2}, stats, order)
            q2, _ = _enum_range(cost_fn, lb_fn, m, {**on, **s1}, stats, order)
            for k in cut.s1_idx:
                q[k] = q1[k]
            for k in cut.s2_idx:
                q[k] = q2[k]
            skip = (1 << (n - ncs)) - 1
        elif lb_fn(q) >= best_c:
            # skip the subtree that shares the prefix up to the last True
            x = _last_true(qf)
            skip = (1 << (n - x - 1)) - 1 if x >= 0 else 0
            stats.skipped += skip
            j += skip + 1
            continue
        c = cost_fn(q)
        stats.evaluated += 1
        if c < best_c:
            best_c, best_q = c, q
        stats.skipped += skip
        j += skip + 1
    assert best_q is not None
    return best_q, best_c


MAX_ENUM_POINTS = 10  # pragmatic search-space guard (see DESIGN.md)


def mpskip_enum(
    memo: MemoTable,
    part: Partition,
    dag_roots: list[Hop],
    cm: CostModel | None = None,
    use_cost_pruning: bool = True,
    use_structural: bool = True,
    stats: EnumStats | None = None,
) -> list[bool]:
    """Find the cost-optimal assignment q* for one partition."""
    cm = cm or CostModel()
    stats = stats if stats is not None else EnumStats()
    all_points = part.points
    m_all = len(all_points)
    if m_all == 0:
        return []

    # search-space guard: rank points by materialization impact (target
    # size × kind) and fix the tail to False (= fuse); the paper relies on
    # partitioning + pruning alone, which is feasible at its Java costing
    # speed — this keeps the Python reproduction's optimizer sub-second
    # while preserving the high-impact decisions.
    if m_all > MAX_ENUM_POINTS:
        def impact(i: int) -> tuple:
            p = all_points[i]
            sz = memo.hops[p.target].memory_bytes() if p.target in memo.hops else 0
            return (p.kind == "mat", sz)

        keep = sorted(
            sorted(range(m_all), key=impact, reverse=True)[:MAX_ENUM_POINTS]
        )
    else:
        keep = list(range(m_all))
    points = [all_points[i] for i in keep]
    m = len(points)
    # dropped tail points are the smallest materialization targets:
    # materializing them is near-free and avoids redundant compute, so
    # they default to True (mat); dropped switch points default to fuse
    tail_default = [
        p.kind == "mat" and i not in keep for i, p in enumerate(all_points)
    ]

    def expand(q: list[bool]) -> list[bool]:
        full = list(tail_default)
        for i, b in zip(keep, q):
            full[i] = b
        return full

    c_static = static_lower_bound(memo, part, cm)
    coster = PartitionCoster(memo, part, dag_roots, cm)
    tail_cut = invalid_edges(all_points, tail_default)

    def cost_fn(q: list[bool]) -> float:
        return coster.cost(tail_cut | invalid_edges(points, q))

    def lb_fn(q: list[bool]) -> float:
        if not use_cost_pruning:
            return float("-inf")
        return c_static + materialization_cost(memo, points, q, cm)

    # structural pruning with the best-scoring cut set whose points were
    # all kept, in the kept-point index space: scan [cs, S1, S2]
    pos = {orig: i for i, orig in enumerate(keep)}
    cs, order = None, None
    for c in find_cut_sets(memo, part) if use_structural else []:
        if all(i in pos for i in c.point_idx + c.s1_idx + c.s2_idx):
            cs = CutSet(
                tuple(pos[i] for i in c.point_idx),
                tuple(pos[i] for i in c.s1_idx),
                tuple(pos[i] for i in c.s2_idx),
                c.score,
            )
            order = [*cs.point_idx, *cs.s1_idx, *cs.s2_idx]
            break
    best_q, _ = _enum_range(cost_fn, lb_fn, m, {}, stats, order, cs)
    return expand(best_q)


def brute_force(
    memo: MemoTable,
    part: Partition,
    dag_roots: list[Hop],
    cm: CostModel | None = None,
) -> tuple[list[bool], float]:
    """Exhaustive reference enumeration (tests compare MPSkipEnum to this)."""
    cm = cm or CostModel()
    points = part.points
    m = len(points)
    best_q, best_c = [], float("inf")
    for j in range(1 << m):
        q = _bits(j, m)
        c = partition_cost(memo, part, dag_roots, invalid_edges(points, q), cm)
        if c < best_c:
            best_q, best_c = q, c
    return best_q, best_c
