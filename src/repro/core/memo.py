"""Memoization table of partial fusion plans (paper §3.1).

A *group* per HOP holds the valid partial fusion plans (memo entries)
for that operator. An entry is ``(type, refs, closed)``:

* ``type``  — template type: ``'C'`` (Cell), ``'R'`` (Row), ``'M'``
  (MAgg), ``'O'`` (Outer);
* ``refs``  — one int per HOP input *by position*: the input hop id
  (= group id) when the entry fuses over that input, or ``-1`` when the
  input is read as a materialized intermediate;
* ``closed``— ``OPEN`` or ``CLOSED_VALID`` (closed-invalid entries are
  removed during exploration, as in Algorithm 1 lines 17-20).

The structure deliberately stores *references to groups*, not whole
subplans — costing/construction traverses the DAG top-down and probes
groups, exactly as described for Figure 5.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable

from repro.core.hop import Hop

OPEN = 0
CLOSED_VALID = 1
CLOSED_INVALID = -1


@dataclass(frozen=True)
class MemoEntry:
    type: str
    refs: tuple[int, ...]
    closed: int = OPEN

    @property
    def n_refs(self) -> int:
        return sum(1 for r in self.refs if r >= 0)

    def has_ref(self, hid: int) -> bool:
        return hid in self.refs

    def close_as(self, status: int) -> "MemoEntry":
        return replace(self, closed=status)

    def __repr__(self) -> str:
        return f"{self.type}({','.join(str(r) for r in self.refs)})" + (
            "c" if self.closed == CLOSED_VALID else ""
        )


class MemoTable:
    """Groups of memo entries keyed by hop id, plus the processed-set W[*]."""

    def __init__(self) -> None:
        self.groups: dict[int, list[MemoEntry]] = {}
        self.hops: dict[int, Hop] = {}
        self.processed: set[int] = set()

    # ------------------------------------------------------------- mutation
    def add(self, h: Hop, entries: Iterable[MemoEntry]) -> None:
        self.hops[h.hid] = h
        group = self.groups.setdefault(h.hid, [])
        for e in entries:
            if e not in group:
                group.append(e)

    def remove(self, hid: int, entry: MemoEntry) -> None:
        self.groups[hid].remove(entry)

    def mark_processed(self, h: Hop) -> None:
        self.processed.add(h.hid)

    # -------------------------------------------------------------- queries
    def contains(self, hid: int) -> bool:
        return bool(self.groups.get(hid))

    def entries(self, hid: int) -> list[MemoEntry]:
        return self.groups.get(hid, [])

    def distinct_types(self, hid: int) -> set[str]:
        return {e.type for e in self.entries(hid)}

    def contains_type(self, hid: int, ttype: str) -> bool:
        return any(e.type == ttype for e in self.entries(hid))

    # ------------------------------------------------------------- pruning
    def prune_redundant(self, h: Hop) -> None:
        """Drop closed-valid single-operator plans (no refs): a fused
        operator covering one op is never better than the basic op.
        (Figure 5: group ua(R+) keeps no C(-1).) Duplicates are already
        prevented by ``add``."""
        group = self.groups.get(h.hid, [])
        self.groups[h.hid] = [
            e for e in group if not (e.closed == CLOSED_VALID and e.n_refs == 0)
        ]

    def prune_dominated(self, h: Hop, multi_consumer: set[int]) -> None:
        """Heuristic-only pruning (paper §3.2): an entry is dominated if all
        its references point to single-consumer operators and another entry
        of the same type has a strict superset of references."""
        group = self.groups.get(h.hid, [])
        kept: list[MemoEntry] = []
        for e in group:
            refs_e = {r for r in e.refs if r >= 0}
            if refs_e & multi_consumer:
                kept.append(e)
                continue
            dominated = any(
                o is not e
                and o.type == e.type
                and refs_e < {r for r in o.refs if r >= 0}
                for o in group
            )
            if not dominated:
                kept.append(e)
        self.groups[h.hid] = kept

    def __repr__(self) -> str:
        lines = []
        for hid, group in sorted(self.groups.items()):
            h = self.hops[hid]
            lines.append(f"{hid} {h.op}: {group}")
        return "\n".join(lines)
