"""Certified planarity for connected multigraphs.

``test_planarity`` returns either a rotation system whose face tracing
satisfies Euler's formula, or a Kuratowski witness: an embedded subdivision
of K5 or K3,3, the two graphs whose topological-minor presence is equivalent
to nonplanarity.  Both outputs are checkable by independent verifiers in
this module, so callers never need to trust the search.

A graph whose degrees are all 2 except five 4s or six 3s is first walked
along its degree-2 chains.  If the chains join five branch vertices
pairwise, or the two sides of a 3+3 bipartition, each pair once and none
back to its own start, the graph is a K5 or K3,3 subdivision and is its own
witness; nothing is embedded.  Any other graph, such as a subdivided prism
or one whose chains double up or loop, goes on to the embedder.

The embedder places each biconnected block by face insertion
(Demoucron, Malgrange and Pertuiset): start from a cycle, then repeatedly
place a path of some unembedded bridge into a face containing all of that
bridge's attachment vertices, preferring bridges with a unique admissible
face.  A planar block always completes; a nonplanar one strands a bridge
with no admissible face.  The bookkeeping lives across steps: only bridges
admissible in the split face are rechecked (against its two halves), new
bridges read their admissible faces off a node-to-faces index, and the
picked bridge is split without searching it again.  The components of its
interior minus the path are searched side by side from the path's
neighbours until at most one search is unfinished; that one is the rest of
the old interior and takes over its node set, attachment counts and
smallest-node heap by difference.  A finished component was searched in
step with a larger unfinished one, so it holds at most half of its bridge
and a node is searched O(log E) times per block ("process the smaller
half", Hopcroft 1971): O(E log E) for all splits, where searching each
picked bridge whole was quadratic on grids.  A step thus costs the path's
neighbourhood, the finished components, the bridge's attachments and the
split face's length; the last two are what is left superlinear.

Witness extraction keeps the edge-minimal nonplanar subgraph that deleting
edges in sorted order would leave, found by galloping and bisection over
suffixes of that order in O(k log m) planarity tests for a k-edge witness;
the search stops when ``_read_off`` recognises the kept graph.  A test
embeds only the blocks that may be nonplanar, those with at least 9 edges
and 5 nodes of degree >= 3, and stops at the first that fails.  Each
kept edge then shrinks the rest of the order to the block its test failed
on: that test's graph has no other nonplanar block, and every later graph
of the scan is a subgraph of it, so every edge outside that block is one
the scan deletes.  The witness is the scan's, edge for edge, while the
tests shrink to one nonplanar block after the first kept edge.  The kept
subgraph is exactly a K5 or K3,3 subdivision, read off by walking its
degree-2 chains.

Parallel edges and self-loops never affect planarity, so they are stripped
before the search and spliced back into the returned rotation afterwards
(each insertion adds one edge and one face, preserving Euler's count).  Both
are read off the graph's cached, sorted ``IntersectionGraph.adj``, where a
parallel class is a run of one neighbour and a node's loops are a run of the
node itself: the simple graph keeps the first edge of each class, and a
graph of one block embeds on that adjacency directly.
"""

from __future__ import annotations

import heapq
from collections import Counter, deque
from dataclasses import dataclass
from itertools import chain, groupby
from operator import itemgetter

from pseudotelepathy.intersection import (
    IntersectionGraph,
    RotationSystem,
    adjacency,
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

    path_map = dict(w.paths)
    if len(path_map) != len(w.paths) or set(path_map) != wanted:  # no pair twice
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
    """Decide planarity of a connected multigraph, with a certified outcome.

    Loops and parallels are stripped, keeping the first edge of each
    parallel class.  A simple graph that is a K5 or K3,3 subdivision,
    recognised by walking its degree-2 chains, is returned as its own
    witness; any other is embedded block by block, and a block that fails
    to embed sends the graph to the witness search.  The witness or
    the embedding is checked by its verifier before it is returned.
    """
    if not g.nodes:
        raise ValueError("graph has no nodes")
    if len(g.tree) != len(g.nodes):
        raise ValueError("graph must be connected")

    adj: dict[str, list[tuple[str, str]]] = {}
    for node, entries in g.adj.items():  # each run's first entry, loops dropped
        kept = [next(run) for other, run in groupby(entries, itemgetter(0)) if other != node]
        if kept:
            adj[node] = entries if len(kept) == len(entries) else kept

    witness = _read_off(adj)
    if witness is None:
        simple_edges = {eid: (node, other) for node, entries in adj.items()
                        for other, eid in entries if node < other}
        block_faces = _embed_simple_graph(simple_edges, adj)
        if block_faces is not None:
            rotation = _rotation_from_faces(g, block_faces)
            if not verify_embedding(g, rotation):
                raise AssertionError("internal error: embedding failed Euler check")
            return PlanarityResult(embedding=rotation, witness=None)
        witness = _extract_witness(simple_edges)
    if not verify_witness(g, witness):
        raise AssertionError("internal error: witness failed its verifier")
    return PlanarityResult(embedding=None, witness=witness)


# ---------------------------------------------------------------------------
# Planar embedding of a simple graph by face insertion, block by block.


def _biconnected_blocks(edges: dict[str, tuple[str, str]],
                        adj: dict[str, list[tuple[str, str]]]) -> list[dict[str, tuple[str, str]]]:
    """Partition edges into biconnected blocks (iterative lowpoint DFS),
    given their ``adjacency``."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    stack: list[str] = []
    blocks: list[dict[str, tuple[str, str]]] = []

    for root in sorted(adj):
        if root in index:
            continue
        index[root] = low[root] = len(index)
        # (node, edge from its parent, its neighbours still to try, the
        # length of ``stack`` before that edge)
        work = [(root, None, iter(adj[root]), 0)]
        while work:
            node, via_edge, entries, base = work[-1]
            for other, eid in entries:
                if eid == via_edge:
                    continue
                if other not in index:
                    index[other] = low[other] = len(index)
                    work.append((other, eid, iter(adj[other]), len(stack)))
                    stack.append(eid)
                    break
                if index[other] < index[node]:
                    stack.append(eid)
                    if index[other] < low[node]:
                        low[node] = index[other]
            else:
                work.pop()
                if via_edge is None:
                    continue
                parent = work[-1][0]
                if low[node] < low[parent]:
                    low[parent] = low[node]
                if low[node] >= index[parent]:
                    blocks.append({eid: edges[eid] for eid in reversed(stack[base:])})
                    del stack[base:]
    return blocks


def _find_cycle(adj: dict[str, list[tuple[str, str]]]) -> tuple[list[str], list[str]]:
    """Nodes and edges of some cycle in a biconnected block with >= 3
    edges, given its adjacency, deterministically."""
    start = min(adj)
    parent_edge: dict[str, str | None] = {start: None}
    visited = {start}
    stack = [(start, iter(adj[start]))]
    trail: list[str] = [start]
    while stack:
        node, it = stack[-1]
        for other, eid in it:
            if eid == parent_edge[node]:
                continue
            if other in visited:
                if other in trail:
                    cycle = trail[trail.index(other):]
                    return cycle, [parent_edge[n] for n in cycle[1:]] + [eid]
                continue
            parent_edge[other] = eid
            visited.add(other)
            trail.append(other)
            stack.append((other, iter(adj[other])))
            break
        else:
            stack.pop()
            trail.pop()
    raise AssertionError("biconnected block with >= 3 edges must contain a cycle")


def _bridge_path(adj, a, b, interior):
    """BFS path from a to b whose inner nodes all lie in ``interior``.

    Neighbors are tried in (node, edge id) order and the search stops once
    b is reached, so the path is the one a full breadth-first search of the
    bridge would find.
    """
    parent: dict[str, tuple[str, str]] = {}
    queue = deque([a])
    reached = {a}
    while b not in reached:
        cur = queue.popleft()
        for other, eid in adj[cur]:
            # interior nodes only, except the target attachment; an a-b edge
            # belongs to another bridge
            if other in reached or (other not in interior and (other != b or cur == a)):
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


class _Interior:
    """The node set of a component bridge, plus what a split hands on.

    ``counts`` maps each attachment to its number of edges into ``nodes``;
    ``heap`` is a min-heap of ``nodes`` whose entries that have since left
    ``nodes`` are skipped.  Both stay None until a split of this bridge
    leaves one component unsearched, which builds them once; from then on
    that component's attachments and smallest node come by difference.
    """

    __slots__ = ("nodes", "counts", "heap")

    def __init__(self, nodes: set[str], counts: dict[str, int] | None = None,
                 heap: list[str] | None = None):
        self.nodes, self.counts, self.heap = nodes, counts, heap


class _Search:
    """One of the side-by-side searches of a split: the nodes it has
    claimed, those still to expand, and the attachments it has met."""

    __slots__ = ("nodes", "todo", "attachments", "alive")

    def __init__(self, seed: str):
        self.nodes, self.todo, self.attachments, self.alive = {seed}, [seed], set(), True


def _split_bridge(adj, h_nodes, interior, inner, path_edges):
    """Bridges created when the ``inner`` nodes and ``path_edges`` of a path
    through ``interior`` join H.

    ``h_nodes`` already includes ``inner``.  Yields (key, attachments,
    body): chords from an inner node into H, keyed (0, edge id) with the
    edge id as body, then the components of the interior minus the path,
    keyed (1, smallest node) with an :class:`_Interior` as body.  A caller
    that stops at a chord with no admissible face skips the searching.

    The components are searched side by side from the path's neighbours,
    one node expansion per search in turn; searches that meet merge,
    smaller into larger, and the searching stops once at most one is
    unfinished.  That one is whatever is left of ``interior``: it takes
    over the old node set, attachment counts and heap, less what the path
    and the finished components took.  Once a bridge has been split, later
    splits therefore cost the path's neighbourhood and the finished
    components, never the size of what is left.
    """
    chords: dict[str, tuple[str, str]] = {}
    owner: dict[str, _Search] = {}
    searches: list[_Search] = []
    for node in inner:
        for other, eid in adj[node]:
            if other in h_nodes:
                if eid not in path_edges:
                    chords[eid] = (node, other)
            elif other not in owner:
                owner[other] = search = _Search(other)
                searches.append(search)
    for eid, pair in chords.items():
        yield (0, eid), frozenset(pair), eid

    active = searches
    while len(active) > 1:
        for search in active:
            if not (search.alive and search.todo):
                continue
            for other, _ in adj[search.todo.pop()]:
                if other in h_nodes:
                    search.attachments.add(other)
                    continue
                met = owner.get(other)
                if met is None:
                    owner[other] = search
                    search.nodes.add(other)
                    search.todo.append(other)
                elif met is not search:
                    search = _merge(owner, search, met)
        active = [s for s in active if s.alive and s.todo]

    finished = [s for s in searches if s.alive and not s.todo]
    for search in finished:
        yield (1, min(search.nodes)), frozenset(search.attachments), _Interior(search.nodes)
    if active:
        (rest,) = active
        yield _remainder(adj, interior, inner, finished, owner, rest)


def _merge(owner, one: _Search, other: _Search) -> _Search:
    """Fold the smaller of two met searches into the larger; returns it."""
    small, big = (one, other) if len(one.nodes) <= len(other.nodes) else (other, one)
    for node in small.nodes:
        owner[node] = big
    big.nodes |= small.nodes
    big.todo += small.todo
    if len(big.attachments) < len(small.attachments):
        big.attachments, small.attachments = small.attachments, big.attachments
    big.attachments |= small.attachments
    small.alive = False
    return big


def _remainder(adj, interior, inner, finished, owner, rest):
    """The unfinished component: the old interior less the path and the
    finished components.  Its attachment counts and heap are the old ones
    updated by difference, or on a bridge's first split are built once."""
    nodes, counts, heap = interior.nodes, interior.counts, interior.heap
    gone = list(inner)
    for search in finished:
        gone += search.nodes
    if counts is not None:
        for node in gone:
            for other, _ in adj[node]:
                if other not in nodes:  # an edge into an old attachment leaves
                    left = counts[other] - 1
                    if left:
                        counts[other] = left
                    else:
                        del counts[other]
                elif owner.get(other) is rest:  # an inner path node attaches
                    counts[node] = counts.get(node, 0) + 1
    nodes.difference_update(gone)
    if counts is None:
        counts = {}
        for node in nodes:
            for other, _ in adj[node]:
                if other not in nodes:
                    counts[other] = counts.get(other, 0) + 1
    if heap is None:
        heap = list(nodes)
        heapq.heapify(heap)
    while heap[0] not in nodes:
        heapq.heappop(heap)
    return (1, heap[0]), frozenset(counts), _Interior(nodes, counts, heap)


def _embed_block(block: dict[str, tuple[str, str]],
                 adj: dict[str, list[tuple[str, str]]]) -> list[list[str]] | None:
    """Faces of a planar embedding of one block, given its ``adjacency``, or
    None if nonplanar.

    Faces are oriented cyclic vertex lists; every directed edge of the block
    occurs in exactly one face.
    """
    if len(block) == 1:
        (u, v), = block.values()
        return [[u, v]]

    cycle, cycle_edges = _find_cycle(adj)
    faces: list[list[str]] = [list(cycle), list(reversed(cycle))]
    node_faces = {n: {0, 1} for n in cycle}
    h_nodes = set(cycle)

    # Bridge keys sort in pick order: chords (0, edge id) before components
    # (1, smallest node).  Each step places the smallest key with a single
    # admissible face, else the smallest key, into its first admissible face.
    attach: dict[tuple, frozenset[str]] = {}
    body: dict[tuple, str | _Interior] = {}    # a chord's edge id, or an interior
    admissible: dict[tuple, list[int]] = {}
    on_face: dict[int, set[tuple]] = {0: set(), 1: set()}
    by_key: list[tuple] = []     # heap of every bridge key, stale entries skipped
    unique: list[tuple] = []     # heap of keys that had one admissible face

    def add(bridges) -> bool:
        for key, attachments, inside in bridges:
            ok = sorted(set.intersection(*(node_faces[n] for n in attachments)))
            if not ok:
                return False
            attach[key], body[key], admissible[key] = attachments, inside, ok
            for f in ok:
                on_face[f].add(key)
            heapq.heappush(by_key, key)
            if len(ok) == 1:
                heapq.heappush(unique, key)
        return True

    # the whole block as the interior, with no edges into H yet
    if not add(_split_bridge(adj, h_nodes, _Interior(set(adj), {}), cycle, set(cycle_edges))):
        return None
    while admissible:
        while unique and len(admissible.get(unique[0], ())) != 1:
            heapq.heappop(unique)
        heap = unique if unique else by_key
        while heap[0] not in admissible:
            heapq.heappop(heap)
        key = heapq.heappop(heap)
        attachments, inside, ok = attach.pop(key), body.pop(key), admissible.pop(key)
        for f in ok:
            on_face[f].discard(key)
        face_idx = ok[0]
        a, b = sorted(attachments)[:2]
        if key[0] == 0:
            path_nodes, path_edges = [a, b], [inside]
        else:
            path_nodes, path_edges = _bridge_path(adj, a, b, inside.nodes)

        face = faces[face_idx]
        ia, ib = face.index(a), face.index(b)
        arc_ab = face[ia:ib + 1] if ia <= ib else face[ia:] + face[:ib + 1]
        arc_ba = face[ib:ia + 1] if ib <= ia else face[ib:] + face[:ia + 1]
        inner = path_nodes[1:-1]
        new_idx = len(faces)
        faces[face_idx] = arc_ab + list(reversed(inner))
        faces.append(arc_ba + inner)
        for n in arc_ba[1:-1]:
            node_faces[n].remove(face_idx)
            node_faces[n].add(new_idx)
        node_faces[a].add(new_idx)
        node_faces[b].add(new_idx)
        for n in inner:
            node_faces[n] = {face_idx, new_idx}

        # only bridges admissible in the split face can change: recheck
        # them against its two halves
        held, on_face[face_idx], on_face[new_idx] = on_face[face_idx], set(), set()
        halves = (set(faces[face_idx]), set(faces[new_idx]))
        for other in held:
            other_ok = admissible[other]
            if attach[other] <= halves[0]:
                on_face[face_idx].add(other)
            else:
                other_ok.remove(face_idx)
            if attach[other] <= halves[1]:
                other_ok.append(new_idx)
                on_face[new_idx].add(other)
            if not other_ok:
                return None
            if len(other_ok) == 1:
                heapq.heappush(unique, other)

        if inner:
            h_nodes.update(inner)
            if not add(_split_bridge(adj, h_nodes, inside, inner, set(path_edges))):
                return None
    return faces


def _embed_simple_graph(edges: dict[str, tuple[str, str]],
                        adj: dict[str, list[tuple[str, str]]]):
    """Faces for every block of a simple graph, given its ``adjacency``, or
    None if any block fails."""
    block_faces = []
    blocks = _biconnected_blocks(edges, adj)
    for block in blocks:  # a graph of one block is that block
        faces = _embed_block(block, adj if len(blocks) == 1 else adjacency(block))
        if faces is None:
            return None
        block_faces.append((block, faces))
    return block_faces


def _rotation_from_faces(g, block_faces):
    """Assemble the full-multigraph rotation from per-block faces.

    Block rotations are recovered from face successor maps, concatenated at
    cut vertices, and then stripped parallels and loops are reinserted, each
    adding one bigon or loop face: a parallel class's other edges next to
    its first, a node's loops after its other darts in id order.
    """
    endpoints = g.endpoints()
    rotation: dict[str, list[tuple[str, int]]] = {n: [] for n in g.nodes}

    def dart(eid: str, node: str) -> tuple[str, int]:
        return (eid, 0) if endpoints[eid][0] == node else (eid, 1)

    for block, faces in sorted(block_faces, key=lambda bf: min(bf[0])):
        succ: dict[str, dict[tuple[str, int], tuple[str, int]]] = {}
        pair_edge = {}
        for eid, (u, v) in block.items():
            pair_edge[u, v] = pair_edge[v, u] = eid
        for face in faces:
            m = len(face)
            for i in range(m):
                u, v, w = face[i], face[(i + 1) % m], face[(i + 2) % m]
                e_in = pair_edge[u, v]
                e_out = pair_edge[v, w]
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

    for node, entries in g.adj.items():
        darts = rotation[node]
        for other, run in groupby(entries, itemgetter(0)):
            ids = [eid for _, eid in run]
            if other == node:  # loops, each listed once per end
                darts += [(eid, end) for eid in ids[::2] for end in (0, 1)]
            elif len(ids) > 1:
                anchor = darts.index(dart(ids[0], node))
                inserted = [dart(eid, node) for eid in ids[1:]]
                if node == endpoints[ids[0]][0]:
                    darts[anchor + 1:anchor + 1] = inserted
                else:
                    # reversed relative to the other end so each adjacent
                    # pair of copies bounds a bigon
                    darts[anchor:anchor] = inserted[::-1]

    return RotationSystem.from_dict(rotation)


# ---------------------------------------------------------------------------
# Kuratowski witness extraction.


def _may_be_nonplanar(block: dict[str, tuple[str, str]]) -> bool:
    """False for a block that is planar without embedding it.

    A nonplanar simple graph has at least 9 edges (K3,3 has 9, K5 10).  A
    block with fewer than 5 nodes of degree >= 3 in it smooths to a
    multigraph on at most 4 branch nodes (a single edge or a cycle to none),
    whose simple part lies in K4.
    """
    if len(block) < 9:
        return False
    degree = Counter(chain.from_iterable(block.values()))
    return sum(d >= 3 for d in degree.values()) >= 5


def _nonplanar_block(edges: dict[str, tuple[str, str]]) -> dict[str, tuple[str, str]] | None:
    """The first block of a simple graph that fails to embed, or None if the
    graph is planar.  Blocks that cannot be nonplanar are not embedded."""
    adj = adjacency(edges)
    blocks = _biconnected_blocks(edges, adj)
    for block in blocks:
        if (_may_be_nonplanar(block)
                and _embed_block(block, adj if len(blocks) == 1 else adjacency(block)) is None):
            return block
    return None


def _extract_witness(edges: dict[str, tuple[str, str]]) -> KuratowskiWitness:
    """The Kuratowski subdivision that deleting each edge of a connected
    nonplanar simple graph in sorted order, whenever the rest stays
    nonplanar, would leave.  The caller has read the graph off
    (``_read_off``) and found it no K5 or K3,3 subdivision.

    Invariant: ``kept`` plus ``order`` is nonplanar.  Nonplanarity is
    monotone under adding edges, so the next edge that scan keeps is
    ``order[j]`` for the largest j with ``kept + order[j:]`` still nonplanar.
    A probe at j costs about ``len(kept) + len(order) - j``.  The search
    probes j = 1 first, since once ``order`` is down to one block its first
    edge is mostly kept; past that it gallops in from the end, starting
    ``len(kept)`` from it, where probes are cheap, and then bisects.  A
    probe of fewer than 9 edges, the fewest a K3,3 subdivision has, is
    planar and is answered without being built.  A round
    thus makes O(log m) probes on the m edges of ``order``, and the search
    O(k log m) for a k-edge result.

    Once ``order[j]`` is kept, the rest of ``order`` shrinks to the edges of
    the block that the probe at j failed on.  This is exact.  That block is
    the probe graph's only nonplanar block, since deleting ``order[j]``,
    which lies in one block, leaves the graph planar.  Every graph the scan
    tests later is a subgraph of the probe graph, so any Kuratowski
    subdivision it holds, being biconnected, lies inside that block.  An
    edge outside it is therefore deleted by the scan whatever comes before
    it, and dropping it changes none of the scan's other answers.  From the
    second round on, ``kept + order`` is that block; so, like the connected
    input, ``_read_off`` (run after each round) recognises it only as a K5
    or K3,3 subdivision, which the scan keeps whole.
    """
    order = sorted(edges)
    kept: dict[str, tuple[str, str]] = {}

    def suffix(j: int) -> dict[str, tuple[str, str]]:
        trial = dict(kept)
        trial.update((eid, edges[eid]) for eid in order[j:])
        return trial

    def nonplanar_core(j: int) -> dict[str, tuple[str, str]] | None:
        """The block the probe at j fails on, or None if it is planar."""
        if len(kept) + len(order) - j < 9:  # fewer edges than K3,3: planar
            return None
        return _nonplanar_block(suffix(j))

    core = suffix(0)  # holds every Kuratowski subdivision still left
    while True:
        if not order:
            raise AssertionError("internal error: edge-minimal nonplanar graph is not a "
                                 "K5 or K3,3 subdivision")
        good, bad = 0, len(order) + 1
        found = nonplanar_core(1)
        if found is None:
            bad = 1
        else:
            good, core = 1, found
            gap = len(kept)
            while len(order) - gap > good:
                probe = len(order) - gap
                found = nonplanar_core(probe)
                if found is not None:
                    good, core = probe, found
                    break
                bad, gap = probe, 2 * gap + 1
        while bad - good > 1:
            mid = (good + bad) // 2
            found = nonplanar_core(mid)
            if found is None:
                bad = mid
            else:
                good, core = mid, found
        if good < len(order):  # else ``kept`` alone is nonplanar
            kept[order[good]] = edges[order[good]]
        order = [eid for eid in order[good + 1:] if eid in core]
        if (witness := _read_off(adjacency(suffix(0)))) is not None:
            return witness


def _read_off(adj: dict[str, list[tuple[str, str]]]) -> KuratowskiWitness | None:
    """The K5 or K3,3 subdivision that a simple graph with this ``adjacency``
    is, or None if it is not one.

    Only a graph whose degrees are all 2 except five 4s or six 3s is walked.
    From each branch vertex, its chains of degree-2 nodes must end at
    distinct other branch vertices.  Five branch vertices are then joined
    pairwise, a K5.  Six have a simple cubic quotient: K3,3 when every chain
    crosses between the smallest branch vertex with the two it misses and
    the other three, and the prism otherwise.

    A connected nonplanar graph with this profile is therefore always
    recognised: smoothing its degree-2 chains leaves 10 or 9 edges on 5 or
    6 nodes, and a loop or parallel among them would leave a simple graph
    of at most 9 or 8 edges, which is planar, as is the prism.
    """
    branch = [n for n, entries in adj.items() if len(entries) != 2]
    # the sorted branch degrees of a K5 and of a K3,3 subdivision
    if sorted(len(adj[b]) for b in branch) not in ([4] * 5, [3] * 6):
        return None
    branch.sort()

    paths: dict[tuple[str, str], tuple[str, ...]] = {}
    for b in branch:
        ends = set()
        for cur, eid in adj[b]:
            chain = [eid]
            while len(adj[cur]) == 2:
                (n1, e1), (n2, e2) = adj[cur]
                cur, eid = (n2, e2) if e1 == eid else (n1, e1)
                chain.append(eid)
            if cur in ends:  # two chains to one end; a chain from b back to b
                return None  # is met twice, once from each of its ends
            ends.add(cur)
            if b < cur:
                paths[b, cur] = tuple(chain)

    parts = None
    if len(branch) == 6:
        # the smallest branch vertex and the two it has no chain to
        side = {b for b in branch if (branch[0], b) not in paths}
        if any((a in side) == (b in side) for a, b in paths):  # an odd cycle: the prism
            return None
        parts = (tuple(b for b in branch if b in side),
                 tuple(b for b in branch if b not in side))
    return KuratowskiWitness(
        kind=K5 if parts is None else K33,
        branch_vertices=tuple(branch),
        parts=parts,
        paths=tuple(sorted(paths.items())),
    )
