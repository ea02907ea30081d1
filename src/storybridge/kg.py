"""Knowledge-graph tuple store with one-hop and two-hop bridge queries.

Tuples are (head, relation, tail) facts tagged with a source graph id.
Sources flagged one-hop-only (open-IE style extractions) contribute direct
relations but are never used as legs of a two-hop path.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .ioutil import InputError


@dataclass(frozen=True)
class KGTuple:
    head: str
    relation: str
    tail: str
    source: str

    def __post_init__(self):
        if not (self.head and self.relation and self.tail):
            raise ValueError(f"KGTuple fields must be nonempty: {self!r}")


@dataclass(frozen=True)
class Bridge:
    """A relation path linking a term of one image to a term of the next."""

    head: str
    relations: tuple[str, ...]
    middle: str | None
    tail: str

    @property
    def inserted_group(self) -> list[str]:
        group = [self.head, self.relations[0]]
        if self.middle is not None:
            group.extend([self.middle, self.relations[1]])
        group.append(self.tail)
        return group

    def sort_key(self):
        return (self.head, self.relations, self.tail, self.middle or "")

    def to_record(self) -> dict:
        return {
            "head": self.head,
            "relations": list(self.relations),
            "middle": self.middle,
            "tail": self.tail,
        }

    @classmethod
    def from_record(cls, rec: dict) -> "Bridge":
        return cls(rec["head"], tuple(rec["relations"]), rec.get("middle"), rec["tail"])


class RelationIndex:
    """Deduplicated tuple set with forward and (head, tail) pair indexes."""

    def __init__(self):
        self._tuples: set[KGTuple] = set()
        self._forward: dict[str, list[tuple[str, str, str]]] = {}
        self._pair: dict[tuple[str, str], list[tuple[str, str]]] = {}
        self._two_hop_sources: set[str] = set()

    def __len__(self) -> int:
        return len(self._tuples)

    def add(self, tup: KGTuple, two_hop_ok: bool = True) -> bool:
        if two_hop_ok:
            self._two_hop_sources.add(tup.source)
        if tup in self._tuples:
            return False
        self._tuples.add(tup)
        self._forward.setdefault(tup.head, []).append((tup.relation, tup.tail, tup.source))
        self._pair.setdefault((tup.head, tup.tail), []).append((tup.relation, tup.source))
        return True

    def one_hop(self, head: str, tail: str) -> list[str]:
        """Relations r with (head, r, tail) present, sorted; direction matters."""
        return sorted({rel for rel, _src in self._pair.get((head, tail), ())})

    def two_hop(self, head: str, tail: str) -> list[tuple[str, str, str]]:
        """All (r1, middle, r2) with (head, r1, middle) and (middle, r2, tail).

        The middle node may not equal either endpoint, and both legs must come
        from two-hop-eligible sources.
        """
        found = set()
        for rel1, middle, src1 in self._forward.get(head, ()):
            if src1 not in self._two_hop_sources:
                continue
            if middle == head or middle == tail:
                continue
            for rel2, src2 in self._pair.get((middle, tail), ()):
                if src2 in self._two_hop_sources:
                    found.add((rel1, middle, rel2))
        return sorted(found)

    def enumerate_bridges(self, terms_a, terms_b, allow_two_hop: bool = True) -> list[Bridge]:
        """Every bridge from any term in terms_a to any term in terms_b."""
        bridges = []
        for a in sorted(terms_a):
            for b in sorted(terms_b):
                for rel in self.one_hop(a, b):
                    bridges.append(Bridge(a, (rel,), None, b))
                if allow_two_hop:
                    for rel1, middle, rel2 in self.two_hop(a, b):
                        bridges.append(Bridge(a, (rel1, rel2), middle, b))
        bridges.sort(key=Bridge.sort_key)
        return bridges


def load_tuples(path: str, source: str, *, two_hop_ok: bool = True, into: RelationIndex | None = None) -> RelationIndex:
    """Load a tab-separated tuple file (head, relation, tail per line).

    Duplicate lines collapse. Malformed lines fail with their line number.
    """
    if not os.path.exists(path):
        raise InputError(f"knowledge-graph file not found: {path}")
    index = into if into is not None else RelationIndex()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3 or not all(p.strip() for p in parts):
                raise InputError(f"{path}:{lineno}: expected 'head<TAB>relation<TAB>tail', got {line!r}")
            head, relation, tail = (p.strip() for p in parts)
            index.add(KGTuple(head, relation, tail, source), two_hop_ok=two_hop_ok)
    return index
