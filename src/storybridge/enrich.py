"""Stage 2: insert one knowledge-graph bridge into a term path.

Every bridge between terms of adjacent images becomes a candidate path with
the bridge's terms as an extra group; the unenriched path always competes.
Candidates are scored by term-LM perplexity of their linearization, those of
every path of a file in one batched call, and each path's lowest wins,
earlier construction order breaking exact ties.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ioutil import InputError
from .kg import Bridge, RelationIndex
from .lm import linearize_groups, perplexities


@dataclass(frozen=True)
class TermPath:
    """Ordered per-sentence term groups, at most one inserted bridge group."""

    groups: tuple[tuple[str, ...], ...]
    origins: tuple[tuple, ...]  # ("slot", k) or ("bridge", k) meaning between k and k+1
    bridge: Bridge | None = None
    story_id: str = ""

    def __post_init__(self):
        if not self.groups:
            raise ValueError("term path has no groups")
        if len(self.groups) != len(self.origins):
            raise ValueError("groups and origins must align")
        bridge_positions = [i for i, o in enumerate(self.origins) if o[0] == "bridge"]
        if self.bridge is None:
            if bridge_positions:
                raise ValueError("origin marks a bridge group but no bridge is recorded")
        else:
            if len(bridge_positions) != 1:
                raise ValueError("a bridged path holds exactly one bridge group")
            pos = bridge_positions[0]
            k = self.origins[pos][1]
            if pos != k + 1:
                raise ValueError(f"bridge between slots {k} and {k + 1} must sit at position {k + 1}")
            if self.bridge.head not in self.groups[pos - 1]:
                raise ValueError(f"bridge head {self.bridge.head!r} missing from the group before it")
            if self.bridge.tail not in self.groups[pos + 1]:
                raise ValueError(f"bridge tail {self.bridge.tail!r} missing from the group after it")

    @classmethod
    def from_groups(cls, groups, story_id: str = "") -> "TermPath":
        return cls(
            groups=tuple(tuple(g) for g in groups),
            origins=tuple(("slot", k) for k in range(len(groups))),
            story_id=story_id,
        )

    def with_bridge(self, k: int, bridge: Bridge) -> "TermPath":
        """New path with the bridge group inserted between slots k and k+1."""
        if self.bridge is not None:
            raise ValueError("path already carries a bridge")
        if not (0 <= k < len(self.groups) - 1):
            raise ValueError(f"no adjacent slot pair at index {k}")
        groups = list(self.groups)
        origins = list(self.origins)
        groups.insert(k + 1, tuple(bridge.inserted_group))
        origins.insert(k + 1, ("bridge", k))
        return TermPath(tuple(groups), tuple(origins), bridge, self.story_id)

    @property
    def bridge_slot(self) -> int | None:
        for origin in self.origins:
            if origin[0] == "bridge":
                return origin[1]
        return None

    def linearized(self) -> list[str]:
        return linearize_groups(self.groups)

    def to_record(self) -> dict:
        return {
            "story_id": self.story_id,
            "groups": [list(g) for g in self.groups],
            "origins": [list(o) for o in self.origins],
            "bridge": None if self.bridge is None else self.bridge.to_record(),
        }

    @classmethod
    def from_record(cls, rec: dict, where: str = "term path") -> "TermPath":
        try:
            bridge = None if rec.get("bridge") is None else Bridge.from_record(rec["bridge"])
            groups, origins = rec["groups"], rec["origins"]
            if not isinstance(groups, list) or not all(isinstance(g, list) and all(isinstance(t, str) for t in g) for g in groups):
                raise ValueError("every group must be a list of strings")
            slots = [o for o in origins if isinstance(o, list) and o[:1] == ["slot"]]
            bridges = [["bridge", k] for k in range(len(slots) - 1)]
            if slots != [["slot", k] for k in range(len(slots))] or not all(
                    (o in slots or o in bridges) and type(o[1]) is int for o in origins):
                raise ValueError("origins must be ['slot', 0], ['slot', 1], ... in order, and ['bridge', k] between slots k and k + 1")
            return cls(
                groups=tuple(tuple(g) for g in groups),
                origins=tuple(tuple(o) for o in origins),
                bridge=bridge,
                story_id=str(rec.get("story_id", "")),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"{where}: malformed term-path record ({exc})") from None


@dataclass(frozen=True)
class EnrichmentCandidate:
    path: TermPath
    perplexity: float

    def __post_init__(self):
        if self.perplexity < 1.0:
            raise ValueError("perplexity is never below 1")


def check_base_path(base: TermPath) -> None:
    """Raise ValueError unless the path can be enriched: it carries no bridge yet.

    It may have any number of groups, one per image. A group may be empty
    (the distiller can predict no term for an image); no bridge then touches it.
    """
    if base.bridge is not None:
        raise ValueError("base path already carries a bridge")


def build_candidates(
    base: TermPath,
    index: RelationIndex,
    cap: int | None = 500,
    allow_two_hop: bool = True,
) -> list[TermPath]:
    """All bridge-enriched variants of a path, base first: one bridge between any adjacent pair of groups.

    Enumeration is exhaustive per adjacent slot pair, ordered by slot then
    bridge (head, relations, tail), and truncated to ``cap`` paths total.
    Every slot pair is enumerated, but only the paths within the cap are built.
    """
    check_base_path(base)
    if cap is not None and cap < 1:
        raise ValueError("cap must be >= 1")
    candidates = [base]
    for k in range(len(base.groups) - 1):
        bridges = index.enumerate_bridges(set(base.groups[k]), set(base.groups[k + 1]), allow_two_hop)
        room = len(bridges) if cap is None else cap - len(candidates)
        candidates.extend(base.with_bridge(k, bridge) for bridge in bridges[:room])
    return candidates


def select_best(candidates, lm) -> EnrichmentCandidate:
    """Lowest-perplexity candidate; construction order breaks exact ties."""
    return select_best_of_each([candidates], lm)[0]


def select_best_of_each(candidate_lists, lm) -> list[EnrichmentCandidate]:
    """select_best of every list, all lists' candidates scored by one ``perplexities`` call."""
    lists = [list(candidates) for candidates in candidate_lists]
    if not all(lists):
        raise ValueError("no candidates to select from")
    scores = perplexities(lm, [path.linearized() for candidates in lists for path in candidates])
    chosen = []
    for candidates, scored in zip(lists, np.split(scores, np.cumsum([len(c) for c in lists])[:-1])):
        best = int(np.argmin(scored))  # the first of equal minima
        chosen.append(EnrichmentCandidate(candidates[best], float(scored[best])))
    return chosen
