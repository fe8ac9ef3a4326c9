"""Dual multigraph of a board, plus the rotation-system embedding carrier.

Hyperedges become nodes and every board vertex becomes one graph edge joining
the two hyperedges that contain it, so two lines sharing k points produce k
parallel edges.  Planarity of this multigraph is the quantity the rest of the
package keys on, and a :class:`RotationSystem` (a cyclic order of edge-ends
around each node) is the machine-checkable form of "planar embedding": face
tracing on the rotation recovers the face count, and Euler's formula
V - E + F = 2 certifies genus zero.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # arrangement imports this module for its graph search
    from pseudotelepathy.arrangement import Arrangement

# A dart is one end of an edge: (edge_id, end) with end 0 at endpoints[0]
# and end 1 at endpoints[1].  A self-loop owns both darts at the same node.
Dart = tuple[str, int]


class CoverageError(ValueError):
    """An assignment misses or duplicates an item it must cover: an edge-end
    in a rotation system, or a board vertex in a realization."""


@dataclass(frozen=True)
class IntersectionGraph:
    """Multigraph dual: nodes are hyperedge ids, edges are board vertices."""

    nodes: tuple[str, ...]
    edges: tuple[tuple[str, str, str], ...]  # (edge_id, endpoint, endpoint)

    def endpoints(self) -> dict[str, tuple[str, str]]:
        return {eid: (u, v) for eid, u, v in self.edges}

    def incident_darts(self) -> dict[str, list[Dart]]:
        """Darts at each node, in edge-id order."""
        at: dict[str, list[Dart]] = {n: [] for n in self.nodes}
        for eid, u, v in self.edges:
            at[u].append((eid, 0))
            at[v].append((eid, 1))
        return at

    def degree(self, node: str) -> int:
        return sum((u == node) + (v == node) for _, u, v in self.edges)

    @cached_property
    def adj(self) -> dict[str, list[tuple[str, str]]]:
        """``adjacency`` of the graph's edges, sorted, built once per graph;
        callers only read it."""
        return adjacency(self.endpoints())

    @cached_property
    def tree(self) -> dict[str, tuple[str, str] | None]:
        """``bfs_tree`` of the graph from its smallest node, built once per
        graph; callers only read it."""
        return bfs_tree(self.adj, min(self.nodes))


@dataclass(frozen=True)
class RotationSystem:
    """Cyclic order of darts around each node; encodes an embedding."""

    rotations: tuple[tuple[str, tuple[Dart, ...]], ...]

    @classmethod
    def from_dict(cls, d: dict[str, list[Dart]]) -> "RotationSystem":
        return cls(tuple(sorted((n, tuple(tuple(x) for x in ds)) for n, ds in d.items())))

    def as_dict(self) -> dict[str, tuple[Dart, ...]]:
        return dict(self.rotations)

    def to_json_dict(self) -> dict[str, list[list]]:
        return {n: [list(d) for d in ds] for n, ds in self.rotations}

    @classmethod
    def from_json_dict(cls, raw: dict) -> "RotationSystem":
        return cls.from_dict({n: [(e, end) for e, end in ds] for n, ds in raw.items()})


def build(a: Arrangement) -> IntersectionGraph:
    """Dual multigraph: one edge per board vertex, endpoints its two lines."""
    edges = []
    for v in a.vertices:
        e1, e2 = a.edges_of_vertex(v)
        edges.append((v, e1, e2))
    return IntersectionGraph(tuple(sorted(a.hyperedge_ids())), tuple(sorted(edges)))


def adjacency(edges: dict[str, tuple[str, str]]) -> dict[str, list[tuple[str, str]]]:
    """(other end, edge id) pairs at each node, sorted; nodes without edges
    are absent and a self-loop is listed twice at its node."""
    adj: dict[str, list[tuple[str, str]]] = {}
    for eid, (u, v) in edges.items():
        adj.setdefault(u, []).append((v, eid))
        adj.setdefault(v, []).append((u, eid))
    for entries in adj.values():
        entries.sort()
    return adj


def bfs_tree(adj: dict[str, list[tuple[str, str]]],
             root: str) -> dict[str, tuple[str, str] | None]:
    """Breadth-first spanning tree of root's component, in discovery order:
    each node maps to (parent, edge id) by which it was reached, the root to
    None.  Neighbours are taken in ``adj`` order, so the tree is deterministic.
    """
    tree: dict[str, tuple[str, str] | None] = {root: None}
    queue = deque([root])
    while queue:
        node = queue.popleft()
        for other, eid in adj.get(node, ()):
            if other not in tree:
                tree[other] = (node, eid)
                queue.append(other)
    return tree


def check_coverage(g: IntersectionGraph, r: RotationSystem) -> None:
    """Every dart of g appears exactly once, at the correct node."""
    rot = r.as_dict()
    if set(rot) != set(g.nodes):
        raise CoverageError("rotation nodes differ from graph nodes")
    expected = g.incident_darts()
    for node, darts in rot.items():
        if sorted(darts) != sorted(expected[node]):
            raise CoverageError(f"darts at {node!r} do not match incidences")


def trace_faces(g: IntersectionGraph, r: RotationSystem) -> list[list[Dart]]:
    """Orbits of (rotate after flipping to the other end); one orbit per face.

    Each face starts at its smallest dart; faces are ordered by that dart.
    """
    check_coverage(g, r)
    succ: dict[Dart, Dart] = {}
    for _, darts in r.rotations:
        for i, d in enumerate(darts):
            succ[d] = darts[(i + 1) % len(darts)]
    faces: list[list[Dart]] = []
    visited: set[Dart] = set()
    for start in sorted(succ):
        if start in visited:
            continue
        face = []
        d = start
        while True:
            face.append(d)
            visited.add(d)
            d = succ[(d[0], 1 - d[1])]
            if d == start:
                break
        faces.append(face)
    return faces


def _dot_id(name: str) -> str:
    """``name`` as a DOT quoted string, with ``\\`` and ``"`` escaped."""
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(g: IntersectionGraph) -> str:
    """Deterministic DOT text: nodes sorted, edges sorted and labeled by id."""
    lines = ["graph intersection {"]
    for node in g.nodes:
        lines.append(f"  {_dot_id(node)};")
    for eid, u, v in g.edges:
        lines.append(f"  {_dot_id(u)} -- {_dot_id(v)} [label={_dot_id(eid)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
