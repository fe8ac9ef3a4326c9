"""Certified planarity for connected multigraphs.

``test_planarity`` returns either a rotation system whose face tracing
satisfies Euler's formula, or a Kuratowski witness: an embedded subdivision
of K5 or K3,3, the two graphs whose topological-minor presence is equivalent
to nonplanarity.  Both outputs are checkable by independent verifiers in
this module, so callers never need to trust the search.

The decision procedure embeds each biconnected block by face insertion:
start from a cycle, then repeatedly place a path of some unembedded bridge
into a face containing all of that bridge's attachment vertices, preferring
bridges with a unique admissible face.  A planar block always completes; a
nonplanar one strands a bridge with no admissible face.  Witness extraction
deletes edges one at a time while the graph stays nonplanar; the edge-minimal
nonplanar remainder is exactly a K5 or K3,3 subdivision, read off by walking
its degree-2 chains.

Parallel edges and self-loops never affect planarity, so they are stripped
before the search and spliced back into the returned rotation afterwards
(each insertion adds one edge and one face, preserving Euler's count).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from pseudotelepathy.intersection import (
    IntersectionGraph,
    RotationSystem,
    trace_faces,
)

K5 = "K5"
K33 = "K33"


@dataclass(frozen=True)
class KuratowskiWitness:
    """An embedded subdivision of K5 or K3,3 certifying nonplanarity.

    ``paths`` maps each pattern edge, keyed by its sorted pair of branch
    vertices, to the simple path of graph edge ids realizing it.  For K33,
    ``parts`` holds the bipartition of the six branch vertices.
    """

    kind: str
    branch_vertices: tuple[str, ...]
    parts: tuple[tuple[str, ...], tuple[str, ...]] | None
    paths: tuple[tuple[tuple[str, str], tuple[str, ...]], ...]

    def path_dict(self) -> dict[tuple[str, str], tuple[str, ...]]:
        return {pair: path for pair, path in self.paths}

    def to_json_dict(self) -> dict:
        out: dict = {
            "kind": self.kind,
            "branch_vertices": list(self.branch_vertices),
            "paths": [{"between": list(pair), "edges": list(path)}
                      for pair, path in self.paths],
        }
        if self.parts is not None:
            out["parts"] = [list(self.parts[0]), list(self.parts[1])]
        return out


@dataclass(frozen=True)
class PlanarityResult:
    """Exactly one of ``embedding`` / ``witness`` is present."""

    embedding: RotationSystem | None
    witness: KuratowskiWitness | None

    def __post_init__(self):
        if (self.embedding is None) == (self.witness is None):
            raise ValueError("result must carry exactly one of embedding/witness")

    @property
    def is_planar(self) -> bool:
        return self.embedding is not None


def verify_embedding(g: IntersectionGraph, r: RotationSystem) -> bool:
    """True iff face tracing on r yields V - E + F = 2.

    Raises :class:`CoverageError` when r misses or duplicates an edge-end.
    """
    faces = trace_faces(g, r)  # raises CoverageError on bad coverage
    if not g.edges:
        # the empty map on a sphere has one face that tracing cannot see
        return len(g.nodes) == 1
    return len(g.nodes) - len(g.edges) + len(faces) == 2


def verify_witness(g: IntersectionGraph, w: KuratowskiWitness) -> bool:
    """Adversarial check of every witness invariant against g."""
    endpoints = g.endpoints()
    nodes = set(g.nodes)
    branch = list(w.branch_vertices)
    if len(set(branch)) != len(branch) or not set(branch) <= nodes:
        return False

    if w.kind == K5:
        if w.parts is not None or len(branch) != 5:
            return False
        wanted = {tuple(sorted((a, b))) for i, a in enumerate(branch)
                  for b in branch[i + 1:]}
    elif w.kind == K33:
        if w.parts is None or len(branch) != 6:
            return False
        side_a, side_b = w.parts
        if sorted(side_a + side_b) != sorted(branch):
            return False
        if len(side_a) != 3 or len(side_b) != 3:
            return False
        wanted = {tuple(sorted((a, b))) for a in side_a for b in side_b}
    else:
        return False

    path_map = w.path_dict()
    if set(path_map) != wanted:
        return False

    interiors: list[set[str]] = []
    for (a, b), path in path_map.items():
        if not path:
            return False
        visited = {a}
        cur = a
        for eid in path:
            if eid not in endpoints:
                return False
            u, v = endpoints[eid]
            if cur == u:
                cur = v
            elif cur == v:
                cur = u
            else:
                return False
            if cur in visited:  # repeated node, incl. self-loops
                return False
            visited.add(cur)
        if cur != b:
            return False
        interiors.append(visited - {a, b})

    branch_set = set(branch)
    seen_interior: set[str] = set()
    for interior in interiors:
        if interior & branch_set:
            return False
        if interior & seen_interior:
            return False
        seen_interior |= interior
    return True


def test_planarity(g: IntersectionGraph) -> PlanarityResult:
    """Decide planarity of a connected multigraph, with a certified outcome."""
    _require_connected(g)
    if not g.edges:  # a single bare node; connectivity rules out more
        return PlanarityResult(
            embedding=RotationSystem.from_dict({g.nodes[0]: []}), witness=None)

    endpoints = g.endpoints()
    loops = sorted(eid for eid, (u, v) in endpoints.items() if u == v)
    groups: dict[tuple[str, str], list[str]] = {}
    for eid, (u, v) in sorted(endpoints.items()):
        if u != v:
            groups.setdefault((min(u, v), max(u, v)), []).append(eid)
    simple_edges = {ids[0]: pair for pair, ids in groups.items()}

    block_faces = _embed_simple_graph(simple_edges)
    if block_faces is None:
        witness = _extract_witness(simple_edges)
        if not verify_witness(g, witness):
            raise AssertionError("internal error: witness failed its verifier")
        return PlanarityResult(embedding=None, witness=witness)

    rotation = _rotation_from_faces(g, block_faces, simple_edges, groups, loops, endpoints)
    if not verify_embedding(g, rotation):
        raise AssertionError("internal error: embedding failed Euler check")
    return PlanarityResult(embedding=rotation, witness=None)


def _require_connected(g: IntersectionGraph) -> None:
    if not g.nodes:
        raise ValueError("graph has no nodes")
    reach = {g.nodes[0]}
    frontier = deque(reach)
    neighbors: dict[str, set[str]] = {n: set() for n in g.nodes}
    for _, u, v in g.edges:
        neighbors[u].add(v)
        neighbors[v].add(u)
    while frontier:
        n = frontier.popleft()
        for m in neighbors[n]:
            if m not in reach:
                reach.add(m)
                frontier.append(m)
    if len(reach) != len(g.nodes):
        raise ValueError("graph must be connected")


# ---------------------------------------------------------------------------
# Planar embedding of a simple graph by face insertion, block by block.


def _adjacency(edges: dict[str, tuple[str, str]]) -> dict[str, list[tuple[str, str]]]:
    adj: dict[str, list[tuple[str, str]]] = {}
    for eid, (u, v) in edges.items():
        adj.setdefault(u, []).append((v, eid))
        adj.setdefault(v, []).append((u, eid))
    for entries in adj.values():
        entries.sort()
    return adj


def _biconnected_blocks(edges: dict[str, tuple[str, str]]) -> list[dict[str, tuple[str, str]]]:
    """Partition edges into biconnected blocks (iterative lowpoint DFS)."""
    adj = _adjacency(edges)
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    stack: list[str] = []
    blocks: list[dict[str, tuple[str, str]]] = []
    counter = 0

    for root in sorted(adj):
        if root in index:
            continue
        work: list[tuple[str, str | None, int]] = [(root, None, 0)]
        index[root] = low[root] = counter
        counter += 1
        while work:
            node, via_edge, i = work.pop()
            entries = adj[node]
            if i < len(entries):
                work.append((node, via_edge, i + 1))
                other, eid = entries[i]
                if eid == via_edge:
                    continue
                if other not in index:
                    index[other] = low[other] = counter
                    counter += 1
                    stack.append(eid)
                    work.append((other, eid, 0))
                elif index[other] < index[node]:
                    stack.append(eid)
                    low[node] = min(low[node], index[other])
            elif via_edge is not None:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
                if low[node] >= index[parent]:
                    block: dict[str, tuple[str, str]] = {}
                    while True:
                        top = stack.pop()
                        block[top] = edges[top]
                        if top == via_edge:
                            break
                    blocks.append(block)
    return blocks


def _find_cycle(block: dict[str, tuple[str, str]]) -> list[str]:
    """Any cycle in a biconnected block with >= 3 edges, deterministically."""
    adj = _adjacency(block)
    start = min(adj)
    parent_edge: dict[str, str | None] = {start: None}
    visited = {start}
    stack = [(start, iter(adj[start]))]
    trail: list[str] = [start]
    while stack:
        node, it = stack[-1]
        advanced = False
        for other, eid in it:
            if eid == parent_edge[node]:
                continue
            if other in visited:
                if other in trail:
                    return trail[trail.index(other):]
                continue
            parent_edge[other] = eid
            visited.add(other)
            trail.append(other)
            stack.append((other, iter(adj[other])))
            advanced = True
            break
        if not advanced:
            stack.pop()
            trail.pop()
    raise AssertionError("biconnected block with >= 3 edges must contain a cycle")


def _bridges(block_edges, adj, in_h_nodes, in_h_edges):
    """Bridges of the block relative to the embedded subgraph H.

    Each bridge is (attachments, edge set, interior nodes); a chord yields an
    empty interior.  Order is deterministic.
    """
    bridges = []
    for eid in sorted(block_edges):
        if eid in in_h_edges:
            continue
        u, v = block_edges[eid]
        if u in in_h_nodes and v in in_h_nodes:
            bridges.append((frozenset((u, v)), {eid}, frozenset()))
    seen: set[str] = set()
    for node in sorted(set(adj) - in_h_nodes):
        if node in seen:
            continue
        component = {node}
        queue = deque([node])
        while queue:
            cur = queue.popleft()
            for other, _ in adj[cur]:
                if other not in in_h_nodes and other not in component:
                    component.add(other)
                    queue.append(other)
        seen |= component
        edge_set: set[str] = set()
        attachments: set[str] = set()
        for member in component:
            for other, eid in adj[member]:
                edge_set.add(eid)
                if other in in_h_nodes:
                    attachments.add(other)
        bridges.append((frozenset(attachments), edge_set, frozenset(component)))
    return bridges


def _bridge_path(attachments, edge_set, interior, block_edges):
    """A path between the two smallest attachments through the bridge interior."""
    a, b = sorted(attachments)[:2]
    if not interior:
        eid = min(eid for eid in edge_set
                  if set(block_edges[eid]) == {a, b})
        return [a, b], [eid]
    hops: dict[str, list[tuple[str, str]]] = {}
    for eid in sorted(edge_set):
        u, v = block_edges[eid]
        hops.setdefault(u, []).append((v, eid))
        hops.setdefault(v, []).append((u, eid))
    for entries in hops.values():
        entries.sort()
    parent: dict[str, tuple[str, str]] = {}
    queue = deque([a])
    reached = {a}
    while queue:
        cur = queue.popleft()
        if cur == b:
            break
        for other, eid in hops.get(cur, []):
            # interior nodes only, except the target attachment
            if other in reached or (other not in interior and other != b):
                continue
            reached.add(other)
            parent[other] = (cur, eid)
            queue.append(other)
    nodes = [b]
    edges = []
    cur = b
    while cur != a:
        cur, eid = parent[cur]
        nodes.append(cur)
        edges.append(eid)
    nodes.reverse()
    edges.reverse()
    return nodes, edges


def _embed_block(block: dict[str, tuple[str, str]]) -> list[list[str]] | None:
    """Faces of a planar embedding of one block, or None if nonplanar.

    Faces are oriented cyclic vertex lists; every directed edge of the block
    occurs in exactly one face.
    """
    if len(block) == 1:
        (u, v), = block.values()
        return [[u, v]]

    adj = _adjacency(block)
    cycle = _find_cycle(block)
    faces: list[list[str]] = [list(cycle), list(reversed(cycle))]
    h_nodes = set(cycle)
    h_edges = {eid for eid in block
               if {*block[eid]} <= h_nodes and _consecutive(cycle, *block[eid])}

    while len(h_edges) < len(block):
        bridges = _bridges(block, adj, h_nodes, h_edges)
        admissible = []
        for attachments, edge_set, interior in bridges:
            faces_ok = [i for i, f in enumerate(faces) if attachments <= set(f)]
            if not faces_ok:
                return None
            admissible.append(faces_ok)
        pick = next((i for i, ok in enumerate(admissible) if len(ok) == 1), 0)
        attachments, edge_set, interior = bridges[pick]
        face_idx = admissible[pick][0]
        path_nodes, path_edges = _bridge_path(attachments, edge_set, interior, block)

        face = faces[face_idx]
        a, b = path_nodes[0], path_nodes[-1]
        ia, ib = face.index(a), face.index(b)
        arc_ab = face[ia:ib + 1] if ia <= ib else face[ia:] + face[:ib + 1]
        arc_ba = face[ib:ia + 1] if ib <= ia else face[ib:] + face[:ia + 1]
        inner = path_nodes[1:-1]
        faces[face_idx] = arc_ab + list(reversed(inner))
        faces.append(arc_ba + inner)

        h_nodes.update(path_nodes)
        h_edges.update(path_edges)
    return faces


def _consecutive(cycle: list[str], u: str, v: str) -> bool:
    n = len(cycle)
    iu, iv = cycle.index(u), cycle.index(v)
    return (iu - iv) % n in (1, n - 1)


def _embed_simple_graph(edges: dict[str, tuple[str, str]]):
    """Faces for every block of a simple graph, or None if any block fails."""
    block_faces = []
    for block in _biconnected_blocks(edges):
        faces = _embed_block(block)
        if faces is None:
            return None
        block_faces.append((block, faces))
    return block_faces


def _is_planar_simple(edges: dict[str, tuple[str, str]]) -> bool:
    return _embed_simple_graph(edges) is not None


def _rotation_from_faces(g, block_faces, simple_edges, groups, loops, endpoints):
    """Assemble the full-multigraph rotation from per-block faces.

    Block rotations are recovered from face successor maps, concatenated at
    cut vertices, and then stripped parallels and loops are reinserted next
    to their anchors, each adding one bigon or loop face.
    """
    rotation: dict[str, list[tuple[str, int]]] = {n: [] for n in g.nodes}

    def dart(eid: str, node: str) -> tuple[str, int]:
        return (eid, 0) if endpoints[eid][0] == node else (eid, 1)

    for block, faces in sorted(block_faces, key=lambda bf: min(bf[0])):
        succ: dict[str, dict[tuple[str, int], tuple[str, int]]] = {}
        pair_edge = {tuple(sorted(pair)): eid for eid, pair in block.items()}
        for face in faces:
            m = len(face)
            for i in range(m):
                u, v, w = face[i], face[(i + 1) % m], face[(i + 2) % m]
                e_in = pair_edge[tuple(sorted((u, v)))]
                e_out = pair_edge[tuple(sorted((v, w)))]
                succ.setdefault(v, {})[dart(e_in, v)] = dart(e_out, v)
        for node, table in succ.items():
            start = min(table)
            cycle = [start]
            cur = table[start]
            while cur != start:
                cycle.append(cur)
                cur = table[cur]
            if len(cycle) != len(table):
                raise AssertionError("face successor map is not a single rotation cycle")
            rotation[node].extend(cycle)

    for pair, ids in sorted(groups.items()):
        rep, extras = ids[0], ids[1:]
        for node in set(pair):
            darts = rotation[node]
            anchor = darts.index(dart(rep, node))
            if node == endpoints[rep][0]:
                for k, eid in enumerate(extras):
                    darts.insert(anchor + 1 + k, dart(eid, node))
            else:
                # reversed relative to the other end so each adjacent
                # pair of copies bounds a bigon
                for eid in extras:
                    darts.insert(anchor, dart(eid, node))

    for eid in loops:
        node = endpoints[eid][0]
        rotation[node].extend([(eid, 0), (eid, 1)])

    return RotationSystem.from_dict(rotation)


# ---------------------------------------------------------------------------
# Kuratowski witness extraction.


def _extract_witness(simple_edges: dict[str, tuple[str, str]]) -> KuratowskiWitness:
    """Edge-minimalize while nonplanar, then read off the subdivision."""
    remaining = dict(simple_edges)
    for eid in sorted(simple_edges):
        trial = {k: v for k, v in remaining.items() if k != eid}
        if not _is_planar_simple(trial):
            remaining = trial

    degree: dict[str, int] = {}
    for u, v in remaining.values():
        degree[u] = degree.get(u, 0) + 1
        degree[v] = degree.get(v, 0) + 1
    branch = sorted(n for n, d in degree.items() if d >= 3)

    paths: dict[tuple[str, str], tuple[str, ...]] = {}
    adj = _adjacency(remaining)
    for b in branch:
        for other, eid in adj[b]:
            chain = [eid]
            cur = other
            while degree[cur] == 2:
                (n1, e1), (n2, e2) = adj[cur]
                cur, chain = (n2, chain + [e2]) if e1 == chain[-1] else (n1, chain + [e1])
            key = (min(b, cur), max(b, cur))
            if key not in paths or b == key[0]:
                paths[key] = tuple(chain) if b == key[0] else tuple(reversed(chain))

    degrees = sorted(degree[b] for b in branch)
    if degrees == [4, 4, 4, 4, 4]:
        return KuratowskiWitness(
            kind=K5,
            branch_vertices=tuple(branch),
            parts=None,
            paths=tuple(sorted(paths.items())),
        )
    if degrees == [3, 3, 3, 3, 3, 3]:
        # 2-color the quotient: same side iff no connecting path
        side_of = {branch[0]: 0}
        queue = deque([branch[0]])
        while queue:
            cur = queue.popleft()
            for other in branch:
                if (min(cur, other), max(cur, other)) in paths and other not in side_of:
                    side_of[other] = 1 - side_of[cur]
                    queue.append(other)
        part0 = tuple(sorted(b for b in branch if side_of[b] == 0))
        part1 = tuple(sorted(b for b in branch if side_of[b] == 1))
        parts = (part0, part1) if part0 <= part1 else (part1, part0)
        return KuratowskiWitness(
            kind=K33,
            branch_vertices=tuple(branch),
            parts=parts,
            paths=tuple(sorted(paths.items())),
        )
    raise AssertionError(f"edge-minimal nonplanar graph has branch degrees {degrees}")
