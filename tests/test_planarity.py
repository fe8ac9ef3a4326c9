"""Planarity decisions, their verifiers, and the exhaustive rotation oracle."""

import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from helpers import (
    board_from_graph,
    complete_graph_edges,
    corpus,
    count_calls,
    deletion_scan,
    graph_from_edges,
    grid_edges,
    has_subdivision_profile,
    is_planar_simple,
    k33_edges,
    new_bridges,
    oracle_planar,
    prism_edges,
    random_dual_edges,
    random_multigraph,
    reference_rotation_from_faces,
    rescan_embed_block,
    simple_edges,
    subdivided_board,
)
import pseudotelepathy
from pseudotelepathy import intersection, planarity
from pseudotelepathy.arrangement import load
from pseudotelepathy.intersection import (
    CoverageError,
    IntersectionGraph,
    RotationSystem,
    adjacency,
    build,
)
from pseudotelepathy.planarity import (
    K5,
    K33,
    KuratowskiWitness,
    PlanarityResult,
    verify_embedding,
    verify_witness,
)
from pseudotelepathy.planarity import test_planarity as decide_planarity
from pseudotelepathy.realization import builtin_pentagram, builtin_square, synthesize

BOARDS = Path(__file__).resolve().parent.parent / "boards"


class TestKnownGraphs:
    def test_k4_planar(self):
        g = graph_from_edges(complete_graph_edges(4))
        res = decide_planarity(g)
        assert res.is_planar
        assert verify_embedding(g, res.embedding)

    def test_k33_witness_identity(self):
        g = graph_from_edges(k33_edges())
        res = decide_planarity(g)
        assert not res.is_planar
        assert res.witness.kind == K33
        assert verify_witness(g, res.witness)
        assert all(len(path) == 1 for _, path in res.witness.paths)

    def test_k5_witness(self):
        g = graph_from_edges(complete_graph_edges(5))
        res = decide_planarity(g)
        assert res.witness.kind == K5
        assert verify_witness(g, res.witness)

    def test_subdivided_k5_has_length_two_path(self):
        edges = complete_graph_edges(5)
        del edges["n1n2"]
        edges["s1"] = ("n1", "mid")
        edges["s2"] = ("mid", "n2")
        g = graph_from_edges(edges)
        res = decide_planarity(g)
        assert res.witness.kind == K5
        assert verify_witness(g, res.witness)
        lengths = sorted(len(path) for _, path in res.witness.paths)
        assert lengths == [1] * 9 + [2]

    def test_square_and_pentagram_duals_nonplanar(self):
        for builtin in (builtin_square, builtin_pentagram):
            a, _, _ = builtin()
            assert not decide_planarity(build(a)).is_planar

    def test_single_bare_node(self):
        g = IntersectionGraph(("only",), ())
        res = decide_planarity(g)
        assert res.is_planar and verify_embedding(g, res.embedding)

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError, match="graph has no nodes"):
            decide_planarity(IntersectionGraph((), ()))

    @pytest.mark.parametrize("g", [
        IntersectionGraph(("a", "b"), ()),
        graph_from_edges({"e1": ("a", "b"), "e2": ("c", "d"), "e3": ("c", "c")}),
    ], ids=["bare-nodes", "two-pieces"])
    def test_disconnected_graph_rejected(self, g):
        with pytest.raises(ValueError, match="graph must be connected"):
            decide_planarity(g)


class TestVerifyEmbedding:
    def test_triangle_cycle(self):
        g = graph_from_edges({"a": ("x", "y"), "b": ("y", "z"), "c": ("x", "z")})
        darts = g.incident_darts()
        r = RotationSystem.from_dict({n: sorted(darts[n]) for n in g.nodes})
        assert verify_embedding(g, r)

    def test_k4_good_and_twisted(self):
        from pseudotelepathy.intersection import trace_faces

        g = graph_from_edges(complete_graph_edges(4))
        good = decide_planarity(g).embedding
        assert verify_embedding(g, good)
        assert len(trace_faces(g, good)) == 4  # 4 - 6 + 4 = 2
        rot = {n: list(ds) for n, ds in good.as_dict().items()}
        node = "n1"
        rot[node][0], rot[node][1] = rot[node][1], rot[node][0]
        twisted = RotationSystem.from_dict(rot)
        assert not verify_embedding(g, twisted)

    def test_coverage_error(self):
        g = graph_from_edges(complete_graph_edges(4))
        rot = decide_planarity(g).embedding.as_dict()
        broken = {n: list(ds) for n, ds in rot.items()}
        broken["n1"] = broken["n1"][:-1]
        with pytest.raises(CoverageError):
            verify_embedding(g, RotationSystem.from_dict(broken))


class TestVerifyWitness:
    def _identity_witness(self):
        g = graph_from_edges(k33_edges())
        return g, decide_planarity(g).witness

    def test_accepts_correct(self):
        g, w = self._identity_witness()
        assert verify_witness(g, w)

    def test_rejects_same_side_path(self):
        g, w = self._identity_witness()
        # rewire one path to join two same-side branch vertices
        paths = dict(w.paths)
        victim = next(iter(paths))
        paths[("l1", "l2")] = paths.pop(victim)
        bad = KuratowskiWitness(w.kind, w.branch_vertices, w.parts,
                                tuple(sorted(paths.items())))
        assert not verify_witness(g, bad)

    def test_rejects_a_repeated_pair(self):
        g, w = self._identity_witness()
        # a second, bogus path for a pair that already has its own
        (pair, _), (_, other) = w.paths[:2]
        bad = KuratowskiWitness(w.kind, w.branch_vertices, w.parts,
                                ((pair, other),) + w.paths)
        assert not verify_witness(g, bad)

    def test_rejects_shared_interior(self):
        edges = complete_graph_edges(5)
        del edges["n1n2"]
        edges["s1"] = ("n1", "mid")
        edges["s2"] = ("mid", "n2")
        del edges["n3n4"]
        edges["t1"] = ("n3", "mid")  # same interior node as the other path
        edges["t2"] = ("mid", "n4")
        g = graph_from_edges(edges)
        paths = {}
        for eid, (u, v) in complete_graph_edges(5).items():
            paths[(u, v)] = (eid,)
        paths[("n1", "n2")] = ("s1", "s2")
        paths[("n3", "n4")] = ("t1", "t2")
        w = KuratowskiWitness(K5, ("n1", "n2", "n3", "n4", "n5"), None,
                              tuple(sorted(paths.items())))
        assert not verify_witness(g, w)

    def test_rejects_broken_path(self):
        g, w = self._identity_witness()
        paths = dict(w.paths)
        first = next(iter(paths))
        paths[first] = ("does-not-exist",)
        bad = KuratowskiWitness(w.kind, w.branch_vertices, w.parts,
                                tuple(sorted(paths.items())))
        assert not verify_witness(g, bad)

    def test_rejects_wrong_kind_and_parts(self):
        g, w = self._identity_witness()
        assert not verify_witness(g, KuratowskiWitness(K5, w.branch_vertices[:5],
                                                       None, w.paths))
        assert not verify_witness(
            g, KuratowskiWitness(K33, w.branch_vertices,
                                 (w.branch_vertices[:2], w.branch_vertices[2:]),
                                 w.paths))


class TestSelfCertification:
    def test_fuzz(self):
        rng = random.Random(20260808)
        oracle_checked = 0
        for _ in range(300):
            g = random_multigraph(rng)
            res = decide_planarity(g)
            if res.is_planar:
                assert verify_embedding(g, res.embedding)
            else:
                assert verify_witness(g, res.witness)
            if sum(g.degree(n) for n in g.nodes) <= 16:
                expected = oracle_planar(g)
                if expected is not None:
                    oracle_checked += 1
                    assert expected == res.is_planar
        assert oracle_checked >= 5

    def test_deterministic(self):
        rng = random.Random(4)
        for _ in range(25):
            g = random_multigraph(rng, max_nodes=8, max_edges=14)
            assert decide_planarity(g) == decide_planarity(g)

    def test_relabeling_invariance(self):
        rng = random.Random(8)
        for _ in range(40):
            g = random_multigraph(rng, max_nodes=8, max_edges=14)
            mapping = {n: f"m{i:02d}" for i, n in enumerate(reversed(g.nodes))}
            emap = {}
            renamed = []
            for k, (eid, u, v) in enumerate(g.edges):
                emap[eid] = f"y{k:02d}"
                renamed.append((emap[eid], mapping[u], mapping[v]))
            from pseudotelepathy.intersection import IntersectionGraph

            g2 = IntersectionGraph(tuple(sorted(mapping.values())),
                                   tuple(sorted(renamed)))
            assert decide_planarity(g).is_planar == decide_planarity(g2).is_planar

    def test_exactly_one_variant(self):
        with pytest.raises(ValueError):
            PlanarityResult(embedding=None, witness=None)


def assert_blocks_match_rescan(edges) -> list[bool]:
    """Each block embeds to the rescanning oracle's faces, or to None with it."""
    planar = []
    for block in planarity._biconnected_blocks(edges, adjacency(edges)):
        faces = planarity._embed_block(block, adjacency(block))
        assert faces == rescan_embed_block(block)
        planar.append(faces is not None)
    return planar


def minus_edge(pattern, eid):
    return {k: pair for k, pair in pattern.items() if k != eid}


# subdivisions of K5 - e and K3,3 - e (planar) and of K5 and K3,3
KURATOWSKI_SUBDIVISIONS = [
    (minus_edge(complete_graph_edges(5), "n1n2"), {}, True),
    (minus_edge(complete_graph_edges(5), "n1n2"), {"n1n3": 2, "n4n5": 1}, True),
    (minus_edge(complete_graph_edges(5), "n3n4"), {"n1n2": 3, "n2n5": 1}, True),
    (minus_edge(k33_edges(), "l1r1"), {}, True),
    (minus_edge(k33_edges(), "l2r3"), {"l1r1": 2, "l3r2": 1}, True),
    (complete_graph_edges(5), {"n1n2": 1, "n3n5": 2}, False),
    (k33_edges(), {"l1r1": 1, "l2r3": 3}, False),
]


class TestIncrementalEmbedder:
    """Face insertion with kept bookkeeping picks what a full rescan picks."""

    @pytest.mark.parametrize("n", range(4, 13))
    def test_grids(self, n):
        assert assert_blocks_match_rescan(grid_edges(n)) == [True]

    def test_fuzz_corpus(self):
        rng = random.Random(20260808)
        outcomes = []
        for _ in range(300):
            outcomes += assert_blocks_match_rescan(simple_edges(random_multigraph(rng)))
        assert outcomes.count(True) >= 100 and outcomes.count(False) >= 50

    @pytest.mark.parametrize("pattern, counts, planar", KURATOWSKI_SUBDIVISIONS)
    def test_kuratowski_subdivisions(self, pattern, counts, planar):
        edges = simple_edges(build(subdivided_board(pattern, counts)))
        assert all(assert_blocks_match_rescan(edges)) == planar


@pytest.fixture
def checked_splits(monkeypatch):
    """Checks every split of ``_embed_block`` against the full-search oracle.

    Each split must yield the oracle's bridges: the same keys, attachments
    and interiors.  A component that kept attachment counts and a heap must
    hold the counts a recount gives and every one of its nodes in the heap.
    Records, per split, how many components it yielded and how many of
    them kept counts.
    """
    splits = []
    split = planarity._split_bridge

    def checked(adj, h_nodes, interior, inner, path_edges):
        expected = {key: (attachments, body) for key, attachments, body in
                    new_bridges(adj, h_nodes, set(interior.nodes), inner, path_edges)}
        got = list(split(adj, h_nodes, interior, inner, path_edges))
        assert len(got) == len(expected)
        assert {key: (attachments, body if key[0] == 0 else body.nodes)
                for key, attachments, body in got} == expected
        components = [body for key, _, body in got if key[0] == 1]
        for body in components:
            if body.counts is not None:
                recount = Counter(other for node in body.nodes
                                  for other, _ in adj[node] if other not in body.nodes)
                assert body.counts == recount
                assert body.nodes <= set(body.heap)
        splits.append((len(components), sum(b.counts is not None for b in components)))
        return got

    monkeypatch.setattr(planarity, "_split_bridge", checked)
    return splits


def embed_blocks(edges) -> list[bool]:
    return [planarity._embed_block(block, adjacency(block)) is not None
            for block in planarity._biconnected_blocks(edges, adjacency(edges))]


class TestSplitBridge:
    """Splitting a placed bridge by side-by-side searches yields the bridges
    a search of its whole interior finds."""

    @pytest.mark.parametrize("n", range(4, 17))
    def test_grids(self, checked_splits, n):
        assert embed_blocks(grid_edges(n)) == [True]
        # a grid split leaves at most one component, the rest of the bridge
        assert all(found <= 1 for found, _ in checked_splits)
        assert any(kept for _, kept in checked_splits)

    def test_fuzz_corpus(self, checked_splits):
        rng = random.Random(20260808)
        outcomes = []
        for _ in range(300):
            outcomes += embed_blocks(simple_edges(random_multigraph(rng)))
        assert outcomes.count(True) >= 100 and outcomes.count(False) >= 50
        # splits that finish several components, and that leave one unfinished
        assert any(found >= 2 for found, _ in checked_splits)
        assert any(found >= 2 and kept for found, kept in checked_splits)

    @pytest.mark.parametrize("pattern, counts, planar", KURATOWSKI_SUBDIVISIONS)
    def test_kuratowski_subdivisions(self, checked_splits, pattern, counts, planar):
        edges = simple_edges(build(subdivided_board(pattern, counts)))
        assert all(embed_blocks(edges)) == planar
        assert checked_splits


@pytest.fixture
def planarity_tests(monkeypatch):
    """Counts the planarity tests the witness search makes."""
    calls = []
    inner = planarity._nonplanar_block

    def counted(edges):
        calls.append(len(edges))
        return inner(edges)

    monkeypatch.setattr(planarity, "_nonplanar_block", counted)
    return calls


def scan_witness(edges):
    return planarity._read_off(adjacency(deletion_scan(edges)))


def extract_witness(edges):
    """The witness as ``test_planarity`` finds it for a nonplanar simple
    graph: read off whole, else searched for."""
    return planarity._read_off(adjacency(edges)) or planarity._extract_witness(edges)


def relabel(edges, prefix, **nodes):
    """Edge ids prefixed, and nodes renamed as ``nodes`` says."""
    return {prefix + eid: (nodes.get(u, u), nodes.get(v, v)) for eid, (u, v) in edges.items()}


def two_nonplanar_blocks(first: str, joined: bool) -> dict[str, tuple[str, str]]:
    """K5 and K3,3 sharing the cut vertex n5 = l1, or joined by a 3-edge
    path; the edge ids of the block named ``first`` sort first.

    In each block one edge is subdivided by a node w, with a chord from w
    whose id sorts first in the block, so that a probe that deletes the
    chord still fails on the block.
    """
    k5_prefix, k33_prefix = ("a", "b") if first == K5 else ("b", "a")
    k5 = minus_edge(complete_graph_edges(5), "n1n2")
    k5.update({"n1w": ("n1", "w5"), "n2w": ("w5", "n2"), "0": ("w5", "n3")})
    k33 = minus_edge(k33_edges(), "l2r2")
    k33.update({"l2w": ("l2", "w3"), "r2w": ("w3", "r2"), "0": ("w3", "l3")})
    edges = relabel(k5, k5_prefix)
    if joined:
        edges.update(relabel(k33, k33_prefix))
        edges.update({"m1": ("n5", "p1"), "m2": ("p1", "p2"), "m3": ("p2", "l1")})
    else:
        edges.update(relabel(k33, k33_prefix, l1="n5"))
    return edges


def core_among_planar_blocks() -> dict[str, tuple[str, str]]:
    """A K3,3 whose edge ids sort last, with trees and planar blocks hanging
    off it: K5 - e at r2 (5 nodes of degree >= 3, so it is embedded), a K4
    at l1, a 12-cycle at l3, a path at r3 and a star on the K4."""
    edges = relabel(k33_edges(), "z")
    edges.update(relabel(minus_edge(complete_graph_edges(5), "n1n2"), "a",
                         n1="r2", n2="p2", n3="p3", n4="p4", n5="p5"))
    edges.update(relabel(complete_graph_edges(4), "b", n1="l1", n2="q2", n3="q3", n4="q4"))
    cycle = ["l3"] + [f"c{i:02d}" for i in range(11)]
    edges.update({f"c{i:02d}": (cycle[i], cycle[(i + 1) % 12]) for i in range(12)})
    edges.update({"d1": ("r3", "t1"), "d2": ("t1", "t2"), "d3": ("t2", "t3")})
    edges.update({f"e{i}": ("q2", f"s{i}") for i in range(4)})
    return edges


class TestWitnessSearch:
    """The search returns the witness of the one-edge-at-a-time scan."""

    def test_matches_scan_on_fuzz_corpus(self):
        rng = random.Random(20260808)
        nonplanar = 0
        for _ in range(300):
            edges = simple_edges(random_multigraph(rng))
            if is_planar_simple(edges):
                continue
            nonplanar += 1
            assert extract_witness(edges) == scan_witness(edges)
        assert nonplanar >= 50

    @pytest.mark.parametrize("pattern, counts", [
        (complete_graph_edges(5), {}),
        (complete_graph_edges(5), {"n1n2": 1}),
        (complete_graph_edges(5), {"n1n2": 3, "n3n5": 1, "n4n5": 2}),
        (k33_edges(), {}),
        (k33_edges(), {"l1r1": 2}),
        (k33_edges(), {"l1r1": 1, "l2r3": 4, "l3r2": 1}),
    ])
    def test_subdivision_needs_no_planarity_test(self, planarity_tests, pattern, counts):
        edges = simple_edges(build(subdivided_board(pattern, counts)))
        assert planarity._read_off(adjacency(edges)) is not None
        witness = extract_witness(edges)
        assert planarity_tests == []
        assert witness == scan_witness(edges)
        assert verify_witness(graph_from_edges(edges), witness)

    def test_k33_with_chord_searches(self, planarity_tests):
        edges = {**k33_edges(), "chord": ("l1", "l2")}
        assert not has_subdivision_profile(edges)
        witness = extract_witness(edges)
        assert planarity_tests
        assert witness == scan_witness(edges)
        assert witness.kind == K33 and "chord" not in {e for _, p in witness.paths for e in p}

    def test_the_whole_graph_is_read_off_once(self, monkeypatch):
        """``test_planarity`` reads the whole simple graph off once; the
        search then reads off only what each of its rounds keeps."""
        edges = {**k33_edges(), "chord": ("l1", "l2")}
        sizes, inner = [], planarity._read_off

        def counted(adj):
            sizes.append(sum(map(len, adj.values())) // 2)
            return inner(adj)

        monkeypatch.setattr(planarity, "_read_off", counted)
        assert not decide_planarity(graph_from_edges(edges)).is_planar
        assert sizes.count(len(edges)) == 1 and len(sizes) > 1

    def test_planarity_tests_under_a_tenth_of_the_edges(self, planarity_tests):
        rng = random.Random(1000)
        nodes = [f"n{i:03d}" for i in range(330)]
        edges = {f"t{i:03d}": (nodes[rng.randrange(i)], nodes[i]) for i in range(1, 330)}
        edges.update((f"x{k:03d}", tuple(rng.sample(nodes, 2))) for k in range(670))
        edges = simple_edges(graph_from_edges(edges))
        assert 950 <= len(edges) <= 1000
        res = decide_planarity(graph_from_edges(edges))
        assert not res.is_planar
        assert len(planarity_tests) <= len(edges) // 10

    @pytest.mark.parametrize("joined", [False, True], ids=["cut-vertex", "path"])
    @pytest.mark.parametrize("first, winner", [(K5, K33), (K33, K5)])
    def test_two_nonplanar_blocks(self, first, winner, joined):
        """The scan deletes the block whose ids sort first, whichever block
        a probe fails on first."""
        edges = two_nonplanar_blocks(first, joined)
        witness = extract_witness(edges)
        assert witness == scan_witness(edges)
        assert witness.kind == winner

    def test_core_among_planar_blocks_sorting_first(self):
        edges = core_among_planar_blocks()
        assert [len(block) for block in planarity._biconnected_blocks(edges, adjacency(edges))
                if planarity._may_be_nonplanar(block)] == [9, 9]
        witness = extract_witness(edges)
        assert witness == scan_witness(edges)
        assert {e for _, path in witness.paths for e in path} == set(relabel(k33_edges(), "z"))

    @pytest.mark.parametrize("n_lines, seed", [(80, 1), (80, 2), (160, 1)])
    def test_matches_scan_on_random_boards(self, n_lines, seed):
        edges = simple_edges(graph_from_edges(random_dual_edges(random.Random(seed), n_lines)))
        assert not is_planar_simple(edges)
        assert extract_witness(edges) == scan_witness(edges)

    def test_no_probe_under_nine_edges_is_built(self, planarity_tests):
        """Fewer edges than K3,3 are planar, so such probes are answered
        without an embedding; the witness stays the scan's."""
        rng = random.Random(20260808)
        graphs = [simple_edges(random_multigraph(rng)) for _ in range(100)]
        graphs += [simple_edges(graph_from_edges(random_dual_edges(random.Random(1), 80))),
                   core_among_planar_blocks(), {**k33_edges(), "chord": ("l1", "l2")}]
        nonplanar = [edges for edges in graphs if not is_planar_simple(edges)]
        assert len(nonplanar) >= 20
        for edges in nonplanar:
            assert extract_witness(edges) == scan_witness(edges)
        assert planarity_tests and min(planarity_tests) >= 9

    def test_block_filter_skips_only_blocks_that_embed(self):
        rng = random.Random(20260808)
        blocks = [complete_graph_edges(5), k33_edges()]
        for _ in range(300):
            edges = simple_edges(random_multigraph(rng))
            blocks += planarity._biconnected_blocks(edges, adjacency(edges))
        for pattern, counts, _ in KURATOWSKI_SUBDIVISIONS:
            edges = simple_edges(build(subdivided_board(pattern, counts)))
            blocks += planarity._biconnected_blocks(edges, adjacency(edges))
        skipped = [block for block in blocks if not planarity._may_be_nonplanar(block)]
        assert all(planarity._embed_block(block, adjacency(block)) is not None
                   for block in skipped)
        # skipped: single edges, and larger blocks with few branch nodes
        assert any(len(block) == 1 for block in skipped)
        assert any(len(block) >= 9 for block in skipped)
        tested = [planarity._embed_block(block, adjacency(block)) is None
                  for block in blocks if planarity._may_be_nonplanar(block)]
        assert tested.count(True) >= 50 and tested.count(False) >= 20


def doubled_cycle() -> dict[str, tuple[str, str]]:
    """A 5-cycle with each edge doubled by a subdivided chain: five 4s, and
    two chains join each pair of neighbours."""
    edges = {}
    for i in range(5):
        u, v, mid = f"c{i}", f"c{(i + 1) % 5}", f"m{i}"
        edges.update({f"d{i}": (u, v), f"m{i}a": (u, mid), f"m{i}b": (mid, v)})
    return edges


def cycle_with_triangles() -> dict[str, tuple[str, str]]:
    """A 5-cycle with a triangle hung on each node: five 4s, and a chain from
    each branch node back to itself."""
    edges = {}
    for i in range(5):
        u, a, b = f"c{i}", f"a{i}", f"b{i}"
        edges.update({f"d{i}": (u, f"c{(i + 1) % 5}"),
                      f"t{i}a": (u, a), f"t{i}b": (a, b), f"t{i}c": (b, u)})
    return edges


def board_dual(name: str) -> IntersectionGraph:
    return build(load(BOARDS / name)[0])


class TestSubdivisionRecognition:
    """A simple graph that subdivides K5 or K3,3 is read off its chains and
    never embedded; other graphs with that degree profile are embedded."""

    @pytest.mark.parametrize("g", [
        board_dual("square.json"),
        board_dual("pentagram.json"),
        *(build(subdivided_board(pattern, counts))
          for pattern, counts, planar in KURATOWSKI_SUBDIVISIONS if not planar),
        graph_from_edges({**k33_edges(), "x": ("l1", "r2"), "y": ("l2", "l2")}),
    ], ids=["square", "pentagram", "k5-subdivided", "k33-subdivided", "k33-parallel-loop"])
    def test_read_off_without_embedding(self, monkeypatch, g):
        embeds = count_calls(monkeypatch, "_embed_block", planarity)
        checks = count_calls(monkeypatch, "verify_witness", planarity)
        res = decide_planarity(g)
        assert (len(embeds), len(checks)) == (0, 1)
        monkeypatch.undo()
        assert res.witness == scan_witness(simple_edges(g))

    @pytest.mark.parametrize("edges", [
        simple_edges(build(subdivided_board(prism_edges(), {"p1p2": 1, "p1q1": 2, "q2q3": 3}))),
        doubled_cycle(),
        cycle_with_triangles(),
    ], ids=["subdivided-prism", "doubled-5-cycle", "5-cycle-with-triangles"])
    def test_planar_profile_is_embedded(self, monkeypatch, edges):
        assert has_subdivision_profile(edges)
        assert planarity._read_off(adjacency(edges)) is None
        embeds = count_calls(monkeypatch, "_embed_block", planarity)
        g = graph_from_edges(edges)
        res = decide_planarity(g)
        assert res.is_planar and verify_embedding(g, res.embedding)
        assert embeds


class TestSharedAdjacency:
    """The dual's sorted adjacency is built once, and no stage changes it."""

    def test_synthesize_leaves_it_as_built(self, monkeypatch):
        graphs = count_calls(monkeypatch, "test_planarity", planarity)
        boards = corpus(seed=5, count=30) + corpus(seed=6, count=30, dense=True)
        verdicts = [synthesize(a).magic for a, _ in boards]
        assert verdicts.count(True) >= 5 and verdicts.count(False) >= 20
        parallels = 0
        for (g,) in graphs:
            assert "adj" in vars(g)
            assert g.adj == adjacency(g.endpoints())
            parallels += len(simple_edges(g)) < len(g.edges)
        assert parallels >= 20

    def test_planarity_with_loops_leaves_it_as_built(self):
        rng = random.Random(20260808)
        loops = 0
        for _ in range(300):
            g = random_multigraph(rng)
            decide_planarity(g)
            assert g.adj == adjacency(g.endpoints())
            loops += any(u == v for _, u, v in g.edges)
        assert loops >= 50

    def test_planar_synthesize_of_one_simple_block_sorts_it_once(self, monkeypatch):
        board = board_from_graph(grid_edges(6))
        calls = count_calls(monkeypatch, "adjacency", intersection)
        assert not synthesize(board).magic
        assert len(calls) == 1


class TestSplice:
    """Parallels and loops are read back off the sorted adjacency where the
    edge-list grouping would put them."""

    def test_matches_reference_on_fuzz_corpus(self, monkeypatch):
        spliced = count_calls(monkeypatch, "_rotation_from_faces", planarity)
        rng = random.Random(20261019)
        for _ in range(600):
            decide_planarity(random_multigraph(rng))
        monkeypatch.undo()
        loops = parallels = cut_vertices = 0
        for g, block_faces in spliced:
            assert (planarity._rotation_from_faces(g, block_faces)
                    == reference_rotation_from_faces(g, block_faces))
            n_loops = sum(u == v for _, u, v in g.edges)
            loops += n_loops > 0
            parallels += len(simple_edges(g)) < len(g.edges) - n_loops
            cut_vertices += len(block_faces) > 1
        assert loops >= 100 and parallels >= 100 and cut_vertices >= 100


class TestSelfChecksUnderOptimize:
    @pytest.mark.parametrize("stubbed, n, message", [
        ("verify_witness", 5, "witness failed its verifier"),
        ("verify_embedding", 4, "embedding failed Euler check"),
        ("_read_off", 5, "edge-minimal nonplanar graph is not a K5 or K3,3 subdivision"),
    ])
    def test_failed_self_check_raises_under_python_O(self, stubbed, n, message):
        """The internal self-checks are real checks, not asserts stripped by
        -O, and a recogniser that never recognises ends the witness search."""
        script = (
            "from helpers import complete_graph_edges, graph_from_edges\n"
            "from pseudotelepathy import planarity\n"
            f"planarity.{stubbed} = lambda *args: None\n"
            f"planarity.test_planarity(graph_from_edges(complete_graph_edges({n})))\n"
        )
        paths = [Path(pseudotelepathy.__file__).parents[1], Path(__file__).parent]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(map(str, paths))}
        done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode != 0
        assert f"AssertionError: internal error: {message}" in done.stderr
