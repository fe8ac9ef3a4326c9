"""Game boards: connected hypergraphs with every vertex on exactly two lines.

An :class:`Arrangement` is the board of a two-player parity game.  A
:class:`Signing` labels each hyperedge ("line") with +-1; a
:class:`ClassicalRealization` labels each vertex with +-1 so that the product
over every line matches that line's sign.  Classical realizability depends on
the signing only through its parity, the product of all line signs: even
parity is always realizable, odd parity never is (each vertex label would be
counted twice in the product of all line constraints).
"""

from __future__ import annotations

import json
import warnings
from collections import deque
from dataclasses import dataclass
from functools import cached_property


class ArrangementError(ValueError):
    """Base class for structural validation failures."""


class DegreeError(ArrangementError):
    """Some vertex does not lie on exactly two hyperedges."""


class EmptyHyperedge(ArrangementError):
    """A hyperedge has no members."""


class Disconnected(ArrangementError):
    """The hypergraph splits into independent pieces."""


class DuplicateId(ArrangementError):
    """Vertex or hyperedge ids collide."""


class OddParity(ValueError):
    """A classical realization was requested for an odd-parity signing."""


@dataclass(frozen=True)
class Arrangement:
    """Canonicalized board: sorted vertices, hyperedges sorted by id."""

    vertices: tuple[str, ...]
    hyperedges: tuple[tuple[str, tuple[str, ...]], ...]

    def members(self, edge_id: str) -> tuple[str, ...]:
        return self._member_map[edge_id]

    def hyperedge_ids(self) -> tuple[str, ...]:
        return tuple(eid for eid, _ in self.hyperedges)

    def edges_of_vertex(self, v: str) -> tuple[str, str]:
        """The two hyperedge ids containing v, in sorted order."""
        return self._vertex_map[v]

    @cached_property
    def _member_map(self) -> dict[str, tuple[str, ...]]:
        return dict(self.hyperedges)

    @cached_property
    def _vertex_map(self) -> dict[str, tuple[str, str]]:
        holders: dict[str, list[str]] = {v: [] for v in self.vertices}
        for eid, members in self.hyperedges:
            for v in members:
                holders[v].append(eid)
        return {v: (h[0], h[1]) for v, h in holders.items()}


@dataclass(frozen=True)
class Signing:
    """Total mapping hyperedge id -> sign in {+1, -1}."""

    signs: tuple[tuple[str, int], ...]

    @classmethod
    def from_dict(cls, d: dict[str, int]) -> "Signing":
        return cls(tuple(sorted(d.items())))

    def as_dict(self) -> dict[str, int]:
        return dict(self.signs)

    _sign_map = cached_property(as_dict)

    def sign(self, edge_id: str) -> int:
        return self._sign_map[edge_id]


@dataclass(frozen=True)
class ClassicalRealization:
    """Total vertex labeling in {+1, -1}."""

    labels: tuple[tuple[str, int], ...]

    @classmethod
    def from_dict(cls, d: dict[str, int]) -> "ClassicalRealization":
        return cls(tuple(sorted(d.items())))

    def as_dict(self) -> dict[str, int]:
        return dict(self.labels)

    _label_map = cached_property(as_dict)

    def label(self, v: str) -> int:
        return self._label_map[v]


def validate(raw: dict) -> tuple[Arrangement, Signing | None]:
    """Canonicalize a raw board description and check the structural axioms.

    ``raw`` follows the JSON schema
    ``{"vertices": [...], "hyperedges": [{"id": ..., "vertices": [...],
    "sign": 1|-1 (optional)}]}``.  Signs must be given for all hyperedges or
    none.  Unknown keys are rejected.
    """
    if not isinstance(raw, dict):
        raise ArrangementError("board description must be a JSON object")
    unknown = set(raw) - {"vertices", "hyperedges"}
    if unknown:
        raise ArrangementError(f"unknown keys {sorted(unknown)}")
    vertices = list(raw.get("vertices", []))
    if any(not isinstance(v, str) or not v for v in vertices):
        raise ArrangementError("vertex ids must be nonempty strings")
    if len(set(vertices)) != len(vertices):
        raise DuplicateId("duplicate vertex ids")

    hyperedges: list[tuple[str, tuple[str, ...]]] = []
    signs: dict[str, int] = {}
    seen_ids: set[str] = set()
    for entry in raw.get("hyperedges", []):
        bad = set(entry) - {"id", "vertices", "sign"}
        if bad:
            raise ArrangementError(f"unknown hyperedge keys {sorted(bad)}")
        eid = entry["id"]
        if not isinstance(eid, str) or not eid:
            raise ArrangementError("hyperedge id must be a nonempty string")
        if eid in seen_ids:
            raise DuplicateId(f"duplicate hyperedge id {eid!r}")
        seen_ids.add(eid)
        members = list(entry.get("vertices", []))
        if not members:
            raise EmptyHyperedge(f"hyperedge {eid!r} is empty")
        if len(set(members)) != len(members):
            raise DuplicateId(f"hyperedge {eid!r} repeats a vertex")
        hyperedges.append((eid, tuple(sorted(members))))
        if "sign" in entry:
            if entry["sign"] not in (1, -1):
                raise ArrangementError(f"sign of {eid!r} must be 1 or -1")
            signs[eid] = entry["sign"]
    if signs and len(signs) != len(hyperedges):
        raise ArrangementError("signs must cover all hyperedges or none")

    degree: dict[str, list[str]] = {v: [] for v in vertices}
    for eid, members in hyperedges:
        for v in members:
            if v not in degree:
                raise ArrangementError(f"hyperedge {eid!r} uses unlisted vertex {v!r}")
            degree[v].append(eid)
    for v, holders in degree.items():
        if len(holders) != 2:
            raise DegreeError(f"vertex {v!r} lies in {len(holders)} hyperedges, expected 2")

    if any(len(members) == 1 for _, members in hyperedges):
        warnings.warn("arrangement contains a size-1 hyperedge; the game on it is "
                      "playable but that line constrains a single vertex", stacklevel=2)

    _check_connected(hyperedges, degree)
    arrangement = Arrangement(tuple(sorted(vertices)), tuple(sorted(hyperedges)))
    signing = Signing.from_dict(signs) if signs else None
    return arrangement, signing


def _check_connected(hyperedges, degree):
    """Connectivity of the dual multigraph: hyperedges joined by shared vertices."""
    if not hyperedges:
        raise Disconnected("arrangement has no hyperedges")
    adjacency: dict[str, set[str]] = {eid: set() for eid, _ in hyperedges}
    for holders in degree.values():
        a, b = holders
        if a == b:
            raise DegreeError("vertex repeated inside one hyperedge")
        adjacency[a].add(b)
        adjacency[b].add(a)
    start = hyperedges[0][0]
    seen = {start}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        for other in adjacency[node]:
            if other not in seen:
                seen.add(other)
                queue.append(other)
    if len(seen) != len(adjacency):
        raise Disconnected("hypergraph splits into independent pieces")


def parity(s: Signing) -> int:
    """Product of all hyperedge signs; -1 iff an odd number of lines are -1."""
    p = 1
    for _, sign in s.signs:
        p *= sign
    return p


def all_plus_signing(a: Arrangement) -> Signing:
    return Signing.from_dict({eid: 1 for eid in a.hyperedge_ids()})


def is_classically_realizable(a: Arrangement, s: Signing) -> bool:
    """A vertex labeling matching every line sign exists iff the parity is +1."""
    return parity(s) == 1


def dual_path(a: Arrangement, start: str, goal: str) -> list[str]:
    """Vertices along a shortest hyperedge-to-hyperedge path in the dual.

    Breadth-first with lexicographic tie-breaking; returns the arrangement
    vertices realizing each hop.  Empty when start == goal.
    """
    if start == goal:
        return []
    hops: dict[str, list[tuple[str, str]]] = {eid: [] for eid in a.hyperedge_ids()}
    for v in a.vertices:
        e1, e2 = a.edges_of_vertex(v)
        hops[e1].append((e2, v))
        hops[e2].append((e1, v))
    for eid in hops:
        hops[eid].sort()
    parent: dict[str, tuple[str, str]] = {}
    seen = {start}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        if node == goal:
            break
        for other, via in hops[node]:
            if other not in seen:
                seen.add(other)
                parent[other] = (node, via)
                queue.append(other)
    path: list[str] = []
    node = goal
    while node != start:
        node, via = parent[node]
        path.append(via)
    path.reverse()
    return path


def classical_realize(a: Arrangement, s: Signing) -> ClassicalRealization:
    """Construct a vertex labeling matching the signing; parity must be +1.

    Starts from the all-+1 labeling and, for each pair of -1 lines, flips the
    labels along a dual path joining them: interior lines lose two member
    labels' signs at once, so only the pair's two line products flip.
    """
    if parity(s) != 1:
        raise OddParity("no classical realization exists for odd parity")
    labels = {v: 1 for v in a.vertices}
    negatives = sorted(eid for eid, sign in s.signs if sign == -1)
    for i in range(0, len(negatives), 2):
        for v in dual_path(a, negatives[i], negatives[i + 1]):
            labels[v] = -labels[v]
    return ClassicalRealization.from_dict(labels)


def check_realization(a: Arrangement, s: Signing, c: ClassicalRealization) -> bool:
    """Direct product check of every hyperedge constraint."""
    labels = c.as_dict()
    signs = s.as_dict()
    for eid, members in a.hyperedges:
        prod = 1
        for v in members:
            prod *= labels[v]
        if prod != signs[eid]:
            return False
    return True


def to_json_dict(a: Arrangement, s: Signing | None = None) -> dict:
    signs = s.as_dict() if s is not None else {}
    edges = []
    for eid, members in a.hyperedges:
        entry: dict = {"id": eid, "vertices": list(members)}
        if eid in signs:
            entry["sign"] = signs[eid]
        edges.append(entry)
    return {"vertices": list(a.vertices), "hyperedges": edges}


def load(path) -> tuple[Arrangement, Signing | None]:
    with open(path, encoding="utf-8") as fh:
        return validate(json.load(fh))


def dump(a: Arrangement, s: Signing | None, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_json_dict(a, s), fh, indent=2, sort_keys=True)
        fh.write("\n")
