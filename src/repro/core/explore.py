"""Candidate exploration: the OFMC algorithm (paper §3.2, Algorithm 1).

A single bottom-up pass over the HOP DAG populates the memo table with
all valid partial fusion plans. Template-specific conditions live in
``templates.py``; this module is template-oblivious, exactly as the
OFMC abstraction intends.
"""
from __future__ import annotations

import itertools

from repro.core.hop import Hop, consumers
from repro.core.memo import CLOSED_INVALID, CLOSED_VALID, MemoEntry, MemoTable
from repro.core.templates import MERGE_COMPATIBLE, TEMPLATES, sparse_drivers


def _has_open_compatible(memo: MemoTable, hid: int, ttype: str) -> bool:
    """A reference from an entry of type ``ttype`` into group ``hid`` is
    valid iff the group holds an *open* entry of a merge-compatible type
    (closed plans are complete fused operators and cannot be extended)."""
    compat = MERGE_COMPATIBLE[ttype]
    return any(
        e.type in compat and e.closed != CLOSED_VALID for e in memo.entries(hid)
    )


def create_plans(
    memo: MemoTable, h: Hop, fused_input: Hop | None, ttype: str
) -> list[MemoEntry]:
    """CREATEPLANS: build entries of type ``ttype`` at ``h``; the ref to
    ``fused_input`` (if given) is mandatory, refs to other inputs that
    satisfy the pair-wise merge condition are enumerated both ways."""
    tpl = TEMPLATES[ttype]
    options: list[list[int]] = []
    for inp in h.inputs:
        if fused_input is not None and inp is fused_input:
            options.append([inp.hid])
        elif (
            tpl.merge(h, inp)
            and memo.contains(inp.hid)
            and _has_open_compatible(memo, inp.hid, ttype)
        ):
            options.append([inp.hid, -1])
        else:
            options.append([-1])
    return [MemoEntry(ttype, refs) for refs in itertools.product(*options)]


def _covers_sparse_driver(memo: MemoTable, hid: int, seen: set[int]) -> bool:
    """Does the maximal fused chain rooted at group ``hid`` contain a
    sparsity-exploiting operation (sparse-safe op over a sparse input)?
    Used to validate Outer templates at close (paper §3.2)."""
    if hid in seen:
        return False
    seen.add(hid)
    h = memo.hops.get(hid)
    if h is None:
        return False
    if sparse_drivers(h):
        return True
    for e in memo.entries(hid):
        if e.type not in ("O", "C"):
            continue
        for r in e.refs:
            if r >= 0 and _covers_sparse_driver(memo, r, seen):
                return True
    return False


def explore(roots: list[Hop], prune_dominated: bool = False) -> MemoTable:
    """Algorithm 1: populate the memo table for the DAG under ``roots``."""
    memo = MemoTable()
    cons = consumers(roots)
    multi_consumer = {hid for hid, cs in cons.items() if len(cs) > 1}

    def rec(h: Hop) -> None:
        # memoization of processed operators (lines 1-3)
        if h.hid in memo.processed:
            return
        # recursive candidate exploration (lines 4-6)
        for inp in h.inputs:
            rec(inp)
        memo.hops[h.hid] = h  # record every operator for plan interpretation
        if h.op not in ("leaf", "lit"):
            # open initial operator plans (lines 7-10)
            for ttype, tpl in TEMPLATES.items():
                if tpl.open(h):
                    memo.add(h, create_plans(memo, h, None, ttype))
            # fuse and merge operator plans (lines 11-15)
            for inp in h.inputs:
                for ttype in sorted(memo.distinct_types(inp.hid)):
                    tpl = TEMPLATES[ttype]
                    if _has_open_compatible(memo, inp.hid, ttype) and tpl.fuse(
                        h, inp
                    ):
                        memo.add(h, create_plans(memo, h, inp, ttype))
            # close operator plans if required (lines 16-20)
            group = list(memo.entries(h.hid))
            for e in group:
                status = TEMPLATES[e.type].close(h)
                if (
                    e.type == "O"
                    and status == CLOSED_VALID
                    and not (
                        _covers_sparse_driver(memo, h.hid, set())
                        or any(
                            r >= 0 and _covers_sparse_driver(memo, r, set())
                            for r in e.refs
                        )
                    )
                ):
                    status = CLOSED_INVALID
                if status == CLOSED_INVALID:
                    memo.remove(h.hid, e)
                elif status == CLOSED_VALID:
                    memo.remove(h.hid, e)
                    memo.add(h, [e.close_as(CLOSED_VALID)])
            # prune redundant plans and memoize (lines 21-23)
            memo.prune_redundant(h)
            if prune_dominated:
                memo.prune_dominated(h, multi_consumer)
        memo.mark_processed(h)

    for r in roots:
        rec(r)
    return memo
