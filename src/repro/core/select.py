"""Candidate selection driver (paper §4.1): choose the optimal set of
non-conflicting fusion plans under a policy.

Policies:
* ``cost``  — the paper's contribution: per-partition MPSkipEnum over
  interesting points (Gen);
* ``fuse_all``  — maximal fusion, redundant compute on CSEs (Gen-FA);
* ``fuse_no_redundancy`` — materialize every multi-consumer intermediate
  (Gen-FNR).
"""
from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.cost import (
    CostModel,
    GroupDecisions,
    OpSpec,
    combine_multi_aggregates,
    decompose,
)
from repro.core.enumerate import EnumStats, mpskip_enum
from repro.core.hop import Hop
from repro.core.memo import MemoTable
from repro.core.partitions import analyze_partitions, invalid_edges

POLICIES = ("cost", "fuse_all", "fuse_no_redundancy")


@dataclass
class SelectionResult:
    specs: list[OpSpec]
    cut: set[tuple[int, int]]
    enum_stats: EnumStats = field(default_factory=EnumStats)
    n_partitions: int = 0
    n_interesting_points: int = 0


def select_plans(
    memo: MemoTable,
    dag_roots: list[Hop],
    policy: str = "cost",
    cm: CostModel | None = None,
) -> SelectionResult:
    assert policy in POLICIES, policy
    cm = cm or CostModel()
    parts = analyze_partitions(memo, dag_roots)
    stats = EnumStats()
    cut: set[tuple[int, int]] = set()
    n_points = 0
    for part in parts:
        n_points += len(part.points)
        if policy == "fuse_all":
            continue  # q = all False: never materialize, maximal fusion
        if policy == "fuse_no_redundancy":
            cut |= {
                (p.consumer, p.target) for p in part.points if p.kind == "mat"
            }
            continue
        q = mpskip_enum(memo, part, dag_roots, cm, stats=stats)
        cut |= invalid_edges(part.points, q)
    choose = "cost" if policy == "cost" else "coverage"
    decisions = GroupDecisions(memo, dag_roots, choose=choose, cm=cm)
    specs = combine_multi_aggregates(decompose(decisions, cut))
    return SelectionResult(
        specs=specs,
        cut=cut,
        enum_stats=stats,
        n_partitions=len(parts),
        n_interesting_points=n_points,
    )
