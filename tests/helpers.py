"""Shared fixtures-in-spirit: board builders, graph fuzzers, and oracles.

The oracles here are deliberately independent of the library's decision
paths: planarity by exhaustive rotation enumeration, classical realizability
by complete labeling search, the classical game value by complete strategy
enumeration, win probabilities by definition-level replays, sampled game
rounds by a dense statevector, and the Pauli algebra by exact dense matrices.
The exact game and the realization verifier also keep their group-element
form here: ``PauliOperator`` products and one ``Fraction`` per query.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
import warnings
from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from pseudotelepathy import (
    arrangement,
    certificate,
    cli,
    game,
    intersection,
    planarity,
    realization,
)
from pseudotelepathy.arrangement import Arrangement, Signing, classical_realize, validate
from pseudotelepathy.certificate import (
    CANCEL,
    CONTRACT,
    ContractionTrace,
    EmbeddingInvalid,
    IllegalStep,
)
from pseudotelepathy.game import ALICE, BOB, ClassicalStrategy, Query, _classical_line_wins
from pseudotelepathy.generate import random_arrangement
from pseudotelepathy.intersection import (
    CoverageError,
    IntersectionGraph,
    RotationSystem,
    adjacency,
    check_coverage,
    trace_faces,
)
from pseudotelepathy.pauli import (
    DimensionMismatch,
    PauliOperator,
    _letters,
    commutes,
    from_string,
    product_of,
    state_action,
)
from pseudotelepathy.planarity import _embed_simple_graph, _find_cycle
from pseudotelepathy.realization import (
    QuantumRealization,
    builtin_pentagram,
    builtin_square,
    synthesize,
    verify_realization,
)


_SINGLE_QUBIT_MATRIX = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

MAX_DENSE_QUBITS = 8


class TooManyQubits(ValueError):
    """Dense matrix requested beyond the resource guard."""


def dense_matrix(p: PauliOperator) -> np.ndarray:
    """Exact 2^n x 2^n complex matrix, entries in {0, +-1, +-i} times the phase."""
    if p.n_qubits > MAX_DENSE_QUBITS:
        raise TooManyQubits(f"{p.n_qubits} qubits exceeds guard of {MAX_DENSE_QUBITS}")
    m = np.eye(1, dtype=complex)
    for letter in _letters(p):
        m = np.kron(m, _SINGLE_QUBIT_MATRIX[letter])
    return p.phase * m


def is_identity(p: PauliOperator) -> bool:
    """Whether p is +-I, +-iI: no X or Z on any qubit."""
    return not p.x | p.z


def random_signing(rng: random.Random, a: Arrangement,
                   target_parity: int | None = None) -> Signing:
    """Uniform signing, optionally conditioned on a target parity."""
    signs = {eid: rng.choice((1, -1)) for eid in a.hyperedge_ids()}
    if target_parity is not None:
        current = 1
        for sign in signs.values():
            current *= sign
        if current != target_parity:
            last = max(signs)
            signs[last] = -signs[last]
    return Signing.from_dict(signs)


def euler_characteristic(g: IntersectionGraph, r: RotationSystem) -> int:
    return len(g.nodes) - len(g.edges) + len(trace_faces(g, r))


def count_calls(monkeypatch, name: str, module) -> list:
    """Counts the calls of ``module.<name>`` made through any package module
    that binds it."""
    real = getattr(module, name)
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    for mod in (arrangement, certificate, cli, game, intersection, planarity, realization):
        if getattr(mod, name, None) is real:
            monkeypatch.setattr(mod, name, counted)
    return calls


def triangle_board() -> tuple[Arrangement, Signing | None]:
    return validate({
        "vertices": ["x", "y", "z"],
        "hyperedges": [
            {"id": "ab", "vertices": ["x", "y"]},
            {"id": "bc", "vertices": ["y", "z"]},
            {"id": "ca", "vertices": ["x", "z"]},
        ],
    })


def triangle_raw(**line_ab) -> dict:
    """The triangle board's JSON, signed +1 throughout; keyword arguments
    replace fields of its line ``ab``."""
    return {
        "vertices": ["x", "y", "z"],
        "hyperedges": [
            {"id": "ab", "vertices": ["x", "y"], "sign": 1, **line_ab},
            {"id": "bc", "vertices": ["y", "z"], "sign": 1},
            {"id": "ca", "vertices": ["x", "z"], "sign": 1},
        ],
    }


def board_json(a: Arrangement, s: Signing | None = None) -> dict:
    """The board's JSON document, which ``validate`` reads back as (a, s)."""
    signs = s.as_dict() if s is not None else {}
    edges = []
    for eid, members in a.hyperedges:
        entry: dict = {"id": eid, "vertices": list(members)}
        if eid in signs:
            entry["sign"] = signs[eid]
        edges.append(entry)
    return {"vertices": list(a.vertices), "hyperedges": edges}


# boards of the wrong JSON types, each with the field its error names
ILL_TYPED_BOARDS = [
    ({"hyperedges": [1]}, "hyperedges[0] must be an object"),
    ({"hyperedges": {"e": 1}}, "hyperedges must be a list"),
    ({**triangle_raw(), "vertices": "xyz"}, "vertices must be a list"),
    ({**triangle_raw(), "vertices": None}, "vertices must be a list"),
    ({**triangle_raw(), "vertices": ["x", "y", 3]}, "vertices must be nonempty strings"),
    (triangle_raw(vertices="xy"), "vertices of hyperedge 'ab' must be a list"),
    (triangle_raw(vertices=["x", ""]), "vertices of hyperedge 'ab' must be nonempty strings"),
    (triangle_raw(sign=True), "sign of 'ab' must be the integer 1 or -1"),
    (triangle_raw(sign=1.0), "sign of 'ab' must be the integer 1 or -1"),
    (triangle_raw(sign="1"), "sign of 'ab' must be the integer 1 or -1"),
    ({"hyperedges": [{"vertices": ["x"]}]}, "hyperedges[0].id must be a nonempty string"),
    (triangle_raw(id=7), "hyperedges[0].id must be a nonempty string"),
    ({**triangle_raw(), "vertices": ["x", "y", "z\ud800"]},
     "vertices[2] must be encodable as UTF-8"),
    (triangle_raw(id="a\udfffb"), "hyperedges[0].id must be encodable as UTF-8"),
]


def board_from_graph(edges: dict[str, tuple[str, str]]) -> Arrangement:
    """The board whose dual is the given loop-free multigraph."""
    nodes = sorted({n for pair in edges.values() for n in pair})
    members: dict[str, list[str]] = {n: [] for n in nodes}
    for eid, (u, v) in sorted(edges.items()):
        members[u].append(eid)
        members[v].append(eid)
    raw = {
        "vertices": sorted(edges),
        "hyperedges": [{"id": n, "vertices": members[n]} for n in nodes],
    }
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        board, _ = validate(raw)
    return board


def complete_graph_edges(n: int) -> dict[str, tuple[str, str]]:
    nodes = [f"n{i}" for i in range(1, n + 1)]
    return {f"{u}{v}": (u, v) for u, v in itertools.combinations(nodes, 2)}


def k33_edges() -> dict[str, tuple[str, str]]:
    left = ["l1", "l2", "l3"]
    right = ["r1", "r2", "r3"]
    return {f"{u}{v}": (u, v) for u in left for v in right}


def prism_edges() -> dict[str, tuple[str, str]]:
    """The triangular prism: planar and cubic on six nodes, like K3,3."""
    top, bottom = ["p1", "p2", "p3"], ["q1", "q2", "q3"]
    edges = {}
    for ring in (top, bottom):
        edges.update({f"{u}{v}": (u, v) for u, v in itertools.combinations(ring, 2)})
    edges.update({f"{u}{v}": (u, v) for u, v in zip(top, bottom)})
    return edges


def grid_edges(n: int) -> dict[str, tuple[str, str]]:
    """The n x n square grid graph (the dual of a planar grid board)."""
    node = [[f"r{i:02d}c{j:02d}" for j in range(n)] for i in range(n)]
    edges = {}
    for i in range(n):
        for j in range(n):
            if j + 1 < n:
                edges[f"h{i:02d}_{j:02d}"] = (node[i][j], node[i][j + 1])
            if i + 1 < n:
                edges[f"v{i:02d}_{j:02d}"] = (node[i][j], node[i + 1][j])
    return edges


def random_dual_edges(rng: random.Random, n_lines: int) -> dict[str, tuple[str, str]]:
    """The dual of a random magic-sized board: a random spanning tree on the
    lines plus two extra edges per line, and a second edge for any line
    left with one.  The same draws as the benchmark's ``random_raw``."""
    lines = [f"e{i:03d}" for i in range(n_lines)]
    pairs = [(lines[rng.randrange(i)], lines[i]) for i in range(1, n_lines)]
    pairs += [tuple(rng.sample(lines, 2)) for _ in range(2 * n_lines)]
    degree = dict.fromkeys(lines, 0)
    for u, w in pairs:
        degree[u] += 1
        degree[w] += 1
    for line in lines:
        if degree[line] == 1:
            other = rng.choice([x for x in lines if x != line])
            pairs.append((line, other))
            degree[line] += 1
            degree[other] += 1
    return {f"v{k:04d}": pair for k, pair in enumerate(pairs)}


def graph_from_edges(edges: dict[str, tuple[str, str]]) -> IntersectionGraph:
    nodes = sorted({n for pair in edges.values() for n in pair})
    return IntersectionGraph(
        tuple(nodes), tuple(sorted((eid, u, v) for eid, (u, v) in edges.items()))
    )


def random_multigraph(rng: random.Random, max_nodes=20, max_edges=40,
                      allow_loops=True) -> IntersectionGraph:
    """Connected random multigraph, optionally with self-loops."""
    n = rng.randrange(1, max_nodes + 1)
    nodes = [f"n{i:02d}" for i in range(n)]
    edges: list[tuple[str, str]] = []
    for i in range(1, n):
        edges.append((nodes[rng.randrange(i)], nodes[i]))
    extra = rng.randrange(0, max_edges - len(edges) + 1)
    for _ in range(extra):
        if allow_loops and rng.random() < 0.08:
            u = v = rng.choice(nodes)
        else:
            u, v = rng.choice(nodes), rng.choice(nodes)
            if u == v:
                continue
        edges.append((u, v))
    if not edges:
        edges.append((nodes[0], nodes[0]))
    width = len(str(len(edges)))
    return IntersectionGraph(
        tuple(sorted(nodes)),
        tuple(sorted((f"x{k:0{width}d}", u, v) for k, (u, v) in enumerate(edges))),
    )


ORACLE_BUDGET = 250_000


def oracle_planar(g: IntersectionGraph) -> bool | None:
    """Planarity by enumerating every rotation system; None when infeasible.

    A graph is planar iff some cyclic ordering of the darts around each node
    traces to V - E + F = 2 faces.  One dart per node is pinned (rotations
    are cyclic), and the enumeration is skipped when the product of
    (degree - 1)! factors exceeds a desk-scale budget.
    """
    darts_at = g.incident_darts()
    nodes = sorted(darts_at)
    work = 1
    for node in nodes:
        work *= math.factorial(max(len(darts_at[node]) - 1, 0))
    if work > ORACLE_BUDGET:
        return None
    pools = []
    for node in nodes:
        ds = sorted(darts_at[node])
        if len(ds) <= 1:
            pools.append([tuple(ds)])
        else:
            pools.append([(ds[0],) + p for p in itertools.permutations(ds[1:])])
    for combo in itertools.product(*pools):
        r = RotationSystem.from_dict(dict(zip(nodes, combo)))
        if len(g.nodes) - len(g.edges) + len(trace_faces(g, r)) == 2:
            return True
    return False


def simple_edges(g: IntersectionGraph) -> dict[str, tuple[str, str]]:
    """The smallest edge id of each adjacent pair, loops dropped."""
    out: dict[str, tuple[str, str]] = {}
    seen: set[tuple[str, str]] = set()
    for eid, u, v in sorted(g.edges):
        pair = (min(u, v), max(u, v))
        if u != v and pair not in seen:
            seen.add(pair)
            out[eid] = (u, v)
    return out


def has_subdivision_profile(edges: dict[str, tuple[str, str]]) -> bool:
    """All degrees 2 except five 4s or six 3s, the degrees of a K5 or K3,3
    subdivision."""
    degree = Counter(itertools.chain.from_iterable(edges.values()))
    return sorted(d for d in degree.values() if d != 2) in ([4] * 5, [3] * 6)


def reference_rotation_from_faces(g: IntersectionGraph, block_faces) -> RotationSystem:
    """The multigraph rotation from per-block faces, with the parallels and
    loops grouped from the edge list; the oracle for
    ``planarity._rotation_from_faces``, which reads them off ``g.adj``.

    Each parallel class, keyed by its sorted pair of ends, is embedded by
    its smallest edge id, and the rest of the class is inserted after that
    edge's dart at its first end and reversed before it at the other.
    Loops are appended at their node in id order.
    """
    endpoints = g.endpoints()
    loops = sorted(eid for eid, (u, v) in endpoints.items() if u == v)
    groups: dict[tuple[str, str], list[str]] = {}
    for eid, (u, v) in sorted(endpoints.items()):
        if u != v:
            groups.setdefault((min(u, v), max(u, v)), []).append(eid)
    rotation: dict[str, list[tuple[str, int]]] = {n: [] for n in g.nodes}

    def dart(eid: str, node: str) -> tuple[str, int]:
        return (eid, 0) if endpoints[eid][0] == node else (eid, 1)

    for block, faces in sorted(block_faces, key=lambda bf: min(bf[0])):
        succ: dict[str, dict[tuple[str, int], tuple[str, int]]] = {}
        pair_edge = {}
        for eid, (u, v) in block.items():
            pair_edge[u, v] = pair_edge[v, u] = eid
        for face in faces:
            for i in range(len(face)):
                u, v, w = (face[(i + k) % len(face)] for k in range(3))
                succ.setdefault(v, {})[dart(pair_edge[u, v], v)] = dart(pair_edge[v, w], v)
        for node, table in succ.items():
            cycle = [min(table)]
            while table[cycle[-1]] != cycle[0]:
                cycle.append(table[cycle[-1]])
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
                for eid in extras:
                    darts.insert(anchor, dart(eid, node))

    for eid in loops:
        rotation[endpoints[eid][0]].extend([(eid, 0), (eid, 1)])
    return RotationSystem.from_dict(rotation)


def deletion_scan(edges: dict[str, tuple[str, str]]) -> dict[str, tuple[str, str]]:
    """Edge-minimal nonplanar subgraph by the plain scan: in sorted order,
    delete each edge whose removal leaves the rest nonplanar.

    One full planarity test per edge, every block embedded; the oracle for
    the witness search.
    """
    remaining = dict(edges)
    for eid in sorted(edges):
        trial = {k: v for k, v in remaining.items() if k != eid}
        if not is_planar_simple(trial):
            remaining = trial
    return remaining


def is_planar_simple(edges: dict[str, tuple[str, str]]) -> bool:
    """Planarity of a simple graph by embedding every one of its blocks."""
    return _embed_simple_graph(edges, adjacency(edges)) is not None


def new_bridges(adj, h_nodes, region, placed, placed_edges):
    """Bridges created when ``placed`` nodes and ``placed_edges`` join H, by
    searching all of ``region`` again; the oracle for
    ``planarity._split_bridge``.

    ``h_nodes`` already includes ``placed``.  Yields (key, attachments,
    body): chords from a placed node into H, keyed (0, edge id) with the
    edge id as body, then the components of ``region`` outside H, keyed
    (1, smallest node) with their node set as body.
    """
    chords: dict[str, tuple[str, str]] = {}
    for node in placed:
        for other, eid in adj[node]:
            if other in h_nodes and eid not in placed_edges:
                chords[eid] = (node, other)
    for eid, pair in chords.items():
        yield (0, eid), frozenset(pair), eid
    seen: set[str] = set()
    for node in region:
        if node in h_nodes or node in seen:
            continue
        component = {node}
        attachments: set[str] = set()
        stack = [node]
        while stack:
            for other, _ in adj[stack.pop()]:
                if other in h_nodes:
                    attachments.add(other)
                elif other not in component:
                    component.add(other)
                    stack.append(other)
        seen |= component
        yield (1, min(component)), frozenset(attachments), component


def _rescan_bridges(block_edges, adj, in_h_nodes, in_h_edges):
    """Bridges of the block relative to the embedded subgraph H, from scratch.

    Each bridge is (attachments, edge set, interior nodes); a chord yields an
    empty interior.  Chords come first by edge id, then components by their
    smallest node.
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


def _rescan_bridge_path(attachments, edge_set, interior, block_edges):
    """A BFS path between the two smallest attachments through the bridge."""
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


def _consecutive(cycle: list[str], u: str, v: str) -> bool:
    n = len(cycle)
    iu, iv = cycle.index(u), cycle.index(v)
    return (iu - iv) % n in (1, n - 1)


def rescan_embed_block(block: dict[str, tuple[str, str]]) -> list[list[str]] | None:
    """Face insertion that rebuilds every bridge and rescans every face at
    every step; the oracle for the incremental ``planarity._embed_block``.
    """
    if len(block) == 1:
        (u, v), = block.values()
        return [[u, v]]

    adj = adjacency(block)
    cycle, _ = _find_cycle(adj)
    faces: list[list[str]] = [list(cycle), list(reversed(cycle))]
    h_nodes = set(cycle)
    h_edges = {eid for eid in block
               if {*block[eid]} <= h_nodes and _consecutive(cycle, *block[eid])}

    while len(h_edges) < len(block):
        bridges = _rescan_bridges(block, adj, h_nodes, h_edges)
        admissible = []
        for attachments, edge_set, interior in bridges:
            faces_ok = [i for i, f in enumerate(faces) if attachments <= set(f)]
            if not faces_ok:
                return None
            admissible.append(faces_ok)
        pick = next((i for i, ok in enumerate(admissible) if len(ok) == 1), 0)
        attachments, edge_set, interior = bridges[pick]
        face_idx = admissible[pick][0]
        path_nodes, path_edges = _rescan_bridge_path(attachments, edge_set, interior, block)

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


def restart_trace_steps(g: IntersectionGraph, r: RotationSystem) -> list[tuple[str, str]]:
    """Contraction-trace steps by the plain method; the oracle for
    ``certificate.generate_trace``.

    Contracts the same breadth-first spanning tree, finding each edge's two
    words by rescanning every word, then cancels the first adjacent pair of
    the last word, rescanning from index 0 after every cancel.
    """
    words = {node: [eid for eid, _ in darts] for node, darts in r.rotations}
    hops: dict[str, list[tuple[str, str]]] = {n: [] for n in g.nodes}
    for eid, u, v in g.edges:
        if u != v:
            hops[u].append((v, eid))
            hops[v].append((u, eid))
    for entries in hops.values():
        entries.sort()
    root = min(g.nodes)
    seen = {root}
    queue = deque([root])
    steps: list[tuple[str, str]] = []
    while queue:
        node = queue.popleft()
        for other, eid in hops[node]:
            if other not in seen:
                seen.add(other)
                queue.append(other)
                steps.append((CONTRACT, eid))
                u, v = sorted(n for n, w in words.items() if eid in w)
                wu, wv = words[u], words.pop(v)
                i, j = wu.index(eid), wv.index(eid)
                words[u] = wu[:i] + wv[j + 1:] + wv[:j] + wu[i + 1:]
    (word,) = words.values()
    while word:
        for i, sym in enumerate(word):
            if word[(i + 1) % len(word)] == sym:
                steps.append((CANCEL, sym))
                word = word[:i] + word[i + 2:] if i + 1 < len(word) else word[1:-1]
                break
        else:
            raise AssertionError("no adjacent equal pair in the cyclic word")
    return steps


class WordListState:
    """The certificate replay state as Python lists, one per surviving node:
    the oracle for ``certificate._ReplayState``.

    ``holders`` maps each symbol to the node of each of its occurrences, so
    a step finds its nodes without scanning every word; positions inside a
    word come from ``list.index``, so a replay costs Theta(V * E).
    """

    def __init__(self, words: dict[str, list[str]], signs: dict[str, int]):
        self.words = {n: list(w) for n, w in words.items()}
        self.signs = dict(signs)
        self.holders: dict[str, list[str]] = {}
        for node, word in self.words.items():
            for sym in word:
                self.holders.setdefault(sym, []).append(node)

    def contract(self, edge: str, index: int) -> None:
        nodes = self.holders.get(edge, ())
        if len(nodes) != 2 or nodes[0] == nodes[1]:
            raise IllegalStep(index, f"edge {edge!r} does not join two distinct nodes")
        u, v = sorted(nodes)
        wu, wv = self.words[u], self.words.pop(v)
        i, j = wu.index(edge), wv.index(edge)
        # v's word rotated to start just after the edge, edge removed
        moved = wv[j + 1:] + wv[:j]
        wu[i:i + 1] = moved
        del self.holders[edge]
        for sym in moved:
            where = self.holders[sym]
            where[where.index(v)] = u
        self.signs[u] *= self.signs.pop(v)

    def cancel(self, symbol: str, index: int) -> None:
        nodes = self.holders.get(symbol, ())
        if len(set(nodes)) != 1:
            raise IllegalStep(index, f"symbol {symbol!r} does not lie in one node")
        if len(nodes) != 2:
            raise IllegalStep(index, f"symbol {symbol!r} does not occur exactly twice")
        word = self.words[nodes[0]]
        p = word.index(symbol)
        q = word.index(symbol, p + 1)
        if q == p + 1:
            del word[p:q + 1]
        elif p == 0 and q == len(word) - 1:
            del word[q]
            del word[p]
        else:
            raise IllegalStep(index, f"occurrences of {symbol!r} are not adjacent")
        del self.holders[symbol]

    def finished(self) -> bool:
        return len(self.words) == 1 and not next(iter(self.words.values()))

    def final_sign(self) -> int:
        (sign,) = self.signs.values()
        return sign


def start_words(r: RotationSystem) -> dict[str, list[str]]:
    """Each node's word: its edge ids in rotation order."""
    return {node: [eid for eid, _ in darts] for node, darts in r.rotations}


def oracle_generate_trace(g: IntersectionGraph, r: RotationSystem,
                          signs: dict[str, int]) -> ContractionTrace:
    """``certificate.generate_trace`` replayed on ``WordListState``."""
    if set(signs) != set(g.nodes):
        raise ValueError("signs must cover exactly the graph nodes")
    check_coverage(g, r)
    if not g.nodes or len(g.tree) != len(g.nodes):
        raise EmbeddingInvalid("graph is empty or not connected")
    state = WordListState(start_words(r), signs)
    steps: list[tuple[str, str]] = []
    for _, eid in list(g.tree.values())[1:]:
        steps.append((CONTRACT, eid))
        state.contract(eid, len(steps) - 1)
    (word,) = state.words.values()
    stack: list[str] = []
    for sym in word:
        if stack and stack[-1] == sym:
            stack.pop()
            steps.append((CANCEL, sym))
        else:
            stack.append(sym)
    if stack:
        raise EmbeddingInvalid("rotation system is not planar: its edges cross "
                               "once the spanning tree is contracted")
    return ContractionTrace(tuple(steps), state.final_sign())


def oracle_check_trace(g: IntersectionGraph, r: RotationSystem, signs: dict[str, int],
                       trace: ContractionTrace) -> int:
    """``certificate.check_trace`` replayed on ``WordListState``."""
    try:
        check_coverage(g, r)
    except CoverageError as err:
        raise IllegalStep(-1, str(err)) from None
    missing, unknown = sorted(set(g.nodes) - set(signs)), sorted(set(signs) - set(g.nodes))
    if missing or unknown:
        raise IllegalStep(-1, f"signs must cover exactly the graph nodes: "
                              f"missing {missing}, unknown {unknown}")
    words = start_words(r)
    occurrences = Counter(sym for word in words.values() for sym in word)
    if any(count != 2 for count in occurrences.values()):
        raise IllegalStep(-1, "some symbol does not occur exactly twice")
    state = WordListState(words, signs)
    for index, (op, arg) in enumerate(trace.steps):
        if op == CONTRACT:
            state.contract(arg, index)
        elif op == CANCEL:
            state.cancel(arg, index)
        else:
            raise IllegalStep(index, f"unknown op {op!r}")
    end = len(trace.steps)
    if not state.finished():
        raise IllegalStep(end, "replay did not end in a single empty word")
    if state.final_sign() != trace.final_sign:
        raise IllegalStep(end, "recorded final sign disagrees with the replay")
    return state.final_sign()


def replay_outcome(check, *args):
    """What a trace check gives: ``("sign", s)`` or ``("illegal", index, reason)``."""
    try:
        return "sign", check(*args)
    except IllegalStep as err:
        return "illegal", err.index, err.reason


def brute_force_classical_exists(a: Arrangement, s: Signing) -> bool:
    """Complete search over all 2^|V| labelings; usable for |V| <= 16."""
    vertices = list(a.vertices)
    signs = s.as_dict()
    for mask in range(1 << len(vertices)):
        labels = {v: 1 - 2 * ((mask >> i) & 1) for i, v in enumerate(vertices)}
        ok = True
        for eid, members in a.hyperedges:
            prod = 1
            for v in members:
                prod *= labels[v]
            if prod != signs[eid]:
                ok = False
                break
        if ok:
            return True
    return False


def exhaustive_classical_maximum(a: Arrangement, s: Signing) -> tuple[Fraction, ClassicalStrategy]:
    """Best deterministic classical win probability, by complete enumeration.

    Alice ranges over all 2^|V| colorings, bit i of ``mask`` set when
    vertex i answers -1.  Bob's best coloring of a line depends only on
    Alice's colors on that line, so it is enumerated over all 2^|e|
    candidates once for each of those colors.  Intended for small boards.
    """
    bit = {v: 1 << i for i, v in enumerate(a.vertices)}
    lines = [(eid, members, sum(bit[u] for u in members)) for eid, members in a.hyperedges]
    replies = {}  # (line, Alice's bits on it) -> Bob's best reply
    best_score, best_mask = -1, 0
    for mask in range(1 << len(a.vertices)):
        score = 0
        for eid, members, line_bits in lines:
            seen = mask & line_bits
            if (eid, seen) not in replies:
                alice_colors = [-1 if seen & bit[u] else 1 for u in members]
                replies[eid, seen] = _best_reply(members, alice_colors, s.sign(eid))
            score += replies[eid, seen][0]
        if score > best_score:
            best_score, best_mask = score, mask
    alice = {v: -1 if best_mask & b else 1 for v, b in bit.items()}
    bob = {eid: replies[eid, best_mask & line_bits][1] for eid, _, line_bits in lines}
    return (Fraction(best_score, 2 * len(a.vertices)),
            ClassicalStrategy.from_maps(alice, bob))


def _best_reply(members, alice_colors, target) -> tuple[int, dict[str, int]]:
    """Bob's coloring of a line with product ``target`` that agrees with
    Alice's colors on the most members, and that number of members."""
    line_best, line_coloring = -1, None
    for colors in range(1 << len(members)):
        coloring = {u: 1 - 2 * ((colors >> k) & 1) for k, u in enumerate(members)}
        prod = 1
        for u in members:
            prod *= coloring[u]
        if prod != target:
            continue
        agreement = sum(coloring[u] == c for u, c in zip(members, alice_colors))
        if agreement > line_best:
            line_best, line_coloring = agreement, coloring
    return line_best, line_coloring


def quiet_random_arrangement(rng: random.Random, n_hyperedges: int,
                             n_extra: int | None = None):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return random_arrangement(rng, n_hyperedges, n_extra)


def corpus(seed: int, count: int, dense: bool = False):
    """Reproducible list of (arrangement, signing) boards."""
    rng = random.Random(seed)
    boards = []
    for _ in range(count):
        k = rng.randrange(4 if dense else 2, 11)
        extra = rng.randrange(k, min(2 * k, 26 - k) + 1) if dense else None
        boards.append(quiet_random_arrangement(rng, k, extra))
    return boards


def subdivided_board(pattern_edges: dict[str, tuple[str, str]],
                     counts: dict[str, int]) -> "Arrangement":
    """Board whose dual subdivides each pattern edge into counts[e]+1 segments."""
    edges = {}
    for eid, (u, v) in pattern_edges.items():
        k = counts.get(eid, 0)
        if k == 0:
            edges[eid] = (u, v)
            continue
        chain = [u] + [f"{eid}_s{i}" for i in range(k)] + [v]
        for i in range(len(chain) - 1):
            edges[f"{eid}_p{i}"] = (chain[i], chain[i + 1])
    return board_from_graph(edges)


def cyclic_equal(w1, w2) -> bool:
    """Equality of cyclic words."""
    if len(w1) != len(w2):
        return False
    if not w1:
        return True
    doubled = list(w2) + list(w2)
    return any(doubled[i:i + len(w1)] == list(w1) for i in range(len(w2)))


@dataclass
class SharedState:
    """Dense amplitudes of Alice's and Bob's halves, indexed [alice, bob]."""

    n_qubits: int
    amplitudes: np.ndarray

    @classmethod
    def maximally_entangled(cls, n_qubits: int) -> "SharedState":
        dim = 1 << n_qubits
        return cls(n_qubits, np.eye(dim, dtype=complex) / math.sqrt(dim))

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def _apply(amplitudes: np.ndarray, p: PauliOperator, side: str) -> np.ndarray:
    flip, coeffs = state_action(p)
    coeffs = np.asarray(coeffs)
    dim = coeffs.shape[0]
    out = np.empty_like(amplitudes)
    perm = np.arange(dim) ^ flip
    if side == ALICE:
        out[perm, :] = coeffs[:, None] * amplitudes
    else:
        out[:, perm] = coeffs[None, :] * amplitudes
    return out


def dense_projections(amplitudes: np.ndarray, p: PauliOperator, side: str):
    """Unnormalized projections onto the +-1 eigenspaces of p on one side."""
    acted = _apply(amplitudes, p, side)
    return (amplitudes + acted) / 2, (amplitudes - acted) / 2


def dense_measure(state: SharedState, p: PauliOperator, side: str,
                  rng: random.Random) -> tuple[int, SharedState]:
    """Statevector oracle of ``game.measure``: one ``rng.random()`` against the
    float Born probability of +1."""
    if p.n_qubits != state.n_qubits:
        raise DimensionMismatch(f"operator on {p.n_qubits} qubits, state on {state.n_qubits}")
    if not p.is_observable():
        raise ValueError(f"{p} is not an observable")
    plus, minus = dense_projections(state.amplitudes, p, side)
    p_plus = float(np.linalg.norm(plus) ** 2)
    p_minus = float(np.linalg.norm(minus) ** 2)
    if abs(p_plus + p_minus - state.norm() ** 2) >= 1e-12:
        raise AssertionError(f"projections of {p} lose norm")
    if rng.random() < p_plus:
        outcome, post, weight = 1, plus, p_plus
    else:
        outcome, post, weight = -1, minus, p_minus
    return outcome, SharedState(state.n_qubits, post / math.sqrt(weight))


def dense_play_quantum(a: Arrangement, r, query: Query, rng: random.Random,
                       literal: bool = False) -> tuple[int, dict[str, int]]:
    """Alice's outcome and Bob's coloring of one round, on the statevector."""
    state = SharedState.maximally_entangled(r.n_qubits)
    alice, state = dense_measure(state, r.operator(query.vertex), ALICE, rng)
    coloring = {}
    for u in a.members(query.hyperedge):
        op = r.operator(u) if literal else r.operator(u).transpose()
        coloring[u], state = dense_measure(state, op, BOB, rng)
    return alice, coloring


def odd_y_board():
    """Two duplicate lines on two vertices, realized with Y observables.

    Y has imaginary entries, so Bob's transpose convention actually matters:
    the literal protocol anti-correlates Alice and Bob here.
    """
    a, s = validate({
        "vertices": ["u", "w"],
        "hyperedges": [
            {"id": "e1", "vertices": ["u", "w"], "sign": 1},
            {"id": "e2", "vertices": ["u", "w"], "sign": 1},
        ],
    })
    r = QuantumRealization.from_dict(1, {"u": from_string("Y"), "w": from_string("Y")})
    assert verify_realization(a, s, r)
    return a, s, r


def flip_one_line(s: Signing) -> Signing:
    """The signing with its first line's sign flipped: the other parity."""
    signs = s.as_dict()
    first = min(signs)
    signs[first] = -signs[first]
    return Signing.from_dict(signs)


def _operator_trace(p: PauliOperator) -> int:
    """Tr(p) / 2^n of a Pauli observable: +-1 for +-I, otherwise 0."""
    if not is_identity(p):
        return 0
    return 1 if p.phase_exp == 0 else -1


def oracle_exact_line_win_probabilities(strategy, a: Arrangement, s: Signing,
                                        hyperedge: str) -> dict[str, Fraction]:
    """Win probability of every query on one line, from ``PauliOperator``
    correlators and one ``Fraction`` sum per query: the library's formula
    (``game.exact_line_win_probabilities``) in group-element arithmetic."""
    members = a.members(hyperedge)
    if isinstance(strategy, ClassicalStrategy):
        return dict(zip(members, map(Fraction, _classical_line_wins(strategy, s, hyperedge,
                                                                    members))))
    ops, n = strategy.realization.as_dict(), strategy.realization.n_qubits
    if not ops.keys() >= set(members):
        raise CoverageError(f"no operator for vertices {sorted(set(a.vertices) - ops.keys())}")
    line = [ops[u] for u in members]
    for op in line:
        if op.n_qubits != n:
            raise DimensionMismatch(f"operator on {op.n_qubits} qubits, state on {n}")
        if not op.is_observable():
            raise ValueError(f"{op} is not an observable")
    if not all(commutes(p, q) for i, p in enumerate(line) for q in line[i + 1:]):
        raise ValueError(f"operators on line {hyperedge!r} do not pairwise commute")
    bob = [op if strategy.literal else op.transpose() for op in line]
    bob_all = product_of(bob)
    sign = s.sign(hyperedge)
    every = _operator_trace(bob_all)
    out = {}
    for v, op, bob_v in zip(members, line, bob):
        alice_t = op.transpose()
        agree = _operator_trace(product_of([alice_t, bob_v]))
        others = _operator_trace(product_of([alice_t, bob_v, bob_all]))
        out[v] = Fraction(1 + sign * every + agree + sign * others, 4)
    return out


def oracle_exact_win_probability(strategy, a: Arrangement, s: Signing) -> Fraction:
    """Average of the oracle's per-query win probabilities, as Fractions."""
    total = sum(sum(oracle_exact_line_win_probabilities(strategy, a, s, eid).values())
                for eid in a.hyperedge_ids())
    return total / (2 * len(a.vertices))


def oracle_verify_realization(a: Arrangement, s: Signing, r: QuantumRealization) -> bool:
    """Every realization invariant checked on ``PauliOperator``s: observables
    of one width, commuting lines, and each line's product compared as a
    complex phase with its sign."""
    ops = r.as_dict()
    missing, extra = set(a.vertices) - set(ops), set(ops) - set(a.vertices)
    if missing:
        raise CoverageError(f"no operator for vertices {sorted(missing)}")
    if extra:
        raise CoverageError(f"operators for ids that are not vertices {sorted(extra)}")
    for op in ops.values():
        if op.n_qubits != r.n_qubits or not op.is_observable():
            return False
    signs = s.as_dict()
    for eid, members in a.hyperedges:
        line_ops = [ops[v] for v in members]
        for i, p in enumerate(line_ops):
            for q in line_ops[i + 1:]:
                if not commutes(p, q):
                    return False
        prod = product_of(line_ops, n_qubits=r.n_qubits)
        if not is_identity(prod) or prod.phase != signs[eid]:
            return False
    return True


def outcome(fn, *args):
    """What ``fn(*args)`` gives: its value, or the type and message it raises."""
    try:
        return "returned", fn(*args)
    except Exception as err:  # noqa: BLE001 - the exception is the outcome
        return "raised", type(err), str(err)


def realized(boards) -> list[tuple[Arrangement, Signing, QuantumRealization]]:
    """The (board, signing) pairs' boards with a verified realization each:
    the transferred one of a magic board, and +-I of the all-plus signing
    otherwise."""
    cases = []
    for a, _ in boards:
        verdict = synthesize(a)
        if verdict.magic:
            cases.append((a, verdict.signing, verdict.realization))
            continue
        labels = classical_realize(a, verdict.signing).as_dict()
        one = PauliOperator(1, 0, 0, 0)
        cases.append((a, verdict.signing, QuantumRealization.from_dict(
            1, {v: one if lab == 1 else one.negate() for v, lab in labels.items()})))
    return cases


@functools.cache
def oracle_corpus() -> tuple[tuple[Arrangement, Signing, QuantumRealization], ...]:
    """Verified (board, signing, realization) triples for the oracle
    comparisons: 60 corpus boards (8 of them magic), the square, the
    pentagram and the Y board."""
    boards = corpus(seed=1601, count=20) + corpus(seed=1602, count=40, dense=True)
    return tuple(realized(boards)) + (builtin_square(), builtin_pentagram(), odd_y_board())


# ways to break a verified realization (``tampered_realization``)
TAMPERS = ("non-observable", "anticommuting", "mixed-widths", "x-product",
           "imaginary-identity", "negated-member", "missing")


def tampered_realization(rng: random.Random, a: Arrangement, s: Signing,
                         r: QuantumRealization, kind: str) -> QuantumRealization:
    """``r`` broken in one way at a member u of a +1 line (any line if none):

    - ``non-observable``: u's operator times i;
    - ``anticommuting``: X and Z on qubit 0 at two members of one line;
    - ``mixed-widths``: u's operator on one more qubit than the others;
    - ``x-product``: every operator on one more qubit, X there at u only,
      so that u's lines still commute but multiply to X times their sign;
    - ``imaginary-identity``: +-i I at u;
    - ``negated-member``: u's operator negated, so the line multiplies to -I;
    - ``missing``: no operator at u.
    """
    ops, n = r.as_dict(), r.n_qubits
    plus = [m for eid, m in a.hyperedges if s.sign(eid) == 1] or [m for _, m in a.hyperedges]
    line = rng.choice(plus)
    u = rng.choice(line)
    op = ops[u]
    if kind == "non-observable":
        ops[u] = PauliOperator(n, op.phase_exp ^ 1, op.x, op.z)
    elif kind == "anticommuting":
        wide = [m for _, m in a.hyperedges if len(m) > 1]
        if wide:
            u, w = rng.sample(rng.choice(wide), 2)
            ops[u], ops[w] = PauliOperator(n, 0, 1, 0), PauliOperator(n, 0, 0, 1)
    elif kind == "mixed-widths":
        ops[u] = PauliOperator(n + 1, op.phase_exp, op.x, op.z)
    elif kind == "x-product":
        ops = {v: PauliOperator(n + 1, p.phase_exp, p.x | (v == u) << n, p.z)
               for v, p in ops.items()}
        n += 1
    elif kind == "imaginary-identity":
        ops[u] = PauliOperator(n, rng.choice((1, 3)), 0, 0)
    elif kind == "negated-member":
        ops[u] = op.negate()
    elif kind == "missing":
        del ops[u]
    else:
        raise ValueError(f"unknown tamper {kind!r}")
    return QuantumRealization.from_dict(n, ops)
