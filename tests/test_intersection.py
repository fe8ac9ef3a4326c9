"""Dual multigraph construction, DOT export, and face tracing."""

import pytest

from helpers import board_json, corpus, euler_characteristic, triangle_board
from pseudotelepathy import intersection
from pseudotelepathy.arrangement import validate
from pseudotelepathy.intersection import (
    CoverageError,
    RotationSystem,
    adjacency,
    bfs_tree,
    build,
    check_coverage,
    to_dot,
    trace_faces,
)
from pseudotelepathy.realization import builtin_pentagram, builtin_square, synthesize


class TestBuild:
    def test_square_dual_is_k33(self):
        a, _, _ = builtin_square()
        g = build(a)
        assert len(g.nodes) == 6 and len(g.edges) == 9
        rows = {n for n in g.nodes if n.startswith("r")}
        cols = {n for n in g.nodes if n.startswith("c")}
        pairs = {(u, v) for _, u, v in g.edges}
        assert pairs == {(c, r) for c in sorted(cols) for r in sorted(rows)}

    def test_pentagram_dual_is_k5(self):
        a, _, _ = builtin_pentagram()
        g = build(a)
        assert len(g.nodes) == 5 and len(g.edges) == 10
        pairs = {frozenset((u, v)) for _, u, v in g.edges}
        assert len(pairs) == 10  # every pair of lines exactly once

    def test_triangle_dual_is_three_cycle(self):
        a, _ = triangle_board()
        g = build(a)
        assert len(g.nodes) == 3 and len(g.edges) == 3
        assert all(g.degree(n) == 2 for n in g.nodes)

    def test_edge_count_and_degrees_on_corpus(self):
        for a, _ in corpus(seed=11, count=40):
            g = build(a)
            assert len(g.edges) == len(a.vertices)
            for eid, members in a.hyperedges:
                assert g.degree(eid) == len(members)

    @pytest.mark.filterwarnings("ignore:arrangement contains a size-1 hyperedge")
    def test_rebuild_from_serialization_is_identical(self):
        for a, _ in corpus(seed=17, count=20):
            a2, _ = validate(board_json(a))
            assert build(a2) == build(a)


class TestTree:
    def test_bfs_tree_from_the_smallest_node(self):
        for a, _ in corpus(seed=11, count=20):
            g = build(a)
            assert g.tree == bfs_tree(adjacency(g.endpoints()), min(g.nodes))
            assert g.tree is g.tree

    def test_planar_synthesize_builds_one_tree(self, monkeypatch):
        roots = []
        inner = intersection.bfs_tree

        def counted(adj, root):
            roots.append(root)
            return inner(adj, root)

        monkeypatch.setattr(intersection, "bfs_tree", counted)
        a, _ = triangle_board()
        verdict = synthesize(a)
        assert not verdict.magic
        assert roots == [min(build(a).nodes)]


class TestDot:
    def test_triangle_dot(self):
        a, _ = triangle_board()
        text = to_dot(build(a))
        assert text.count(" -- ") == 3
        assert '"ab" -- "bc" [label="y"];' in text

    def test_k33_dot_deterministic(self):
        a, _, _ = builtin_square()
        assert to_dot(build(a)) == to_dot(build(a))
        assert to_dot(build(a)).count(" -- ") == 9

    def test_triangle_dot_golden(self):
        a, _ = triangle_board()
        assert to_dot(build(a)) == (
            "graph intersection {\n"
            '  "ab";\n'
            '  "bc";\n'
            '  "ca";\n'
            '  "ab" -- "ca" [label="x"];\n'
            '  "ab" -- "bc" [label="y"];\n'
            '  "bc" -- "ca" [label="z"];\n'
            "}\n"
        )


class TestFaceTracing:
    def test_triangle_cycle_embedding(self):
        a, _ = triangle_board()
        g = build(a)
        darts = g.incident_darts()
        r = RotationSystem.from_dict({n: sorted(darts[n]) for n in g.nodes})
        faces = trace_faces(g, r)
        assert len(faces) == 2
        assert euler_characteristic(g, r) == 2

    def test_coverage_error_on_missing_dart(self):
        a, _ = triangle_board()
        g = build(a)
        darts = g.incident_darts()
        bad = {n: sorted(darts[n]) for n in g.nodes}
        bad[g.nodes[0]] = bad[g.nodes[0]][:-1]
        with pytest.raises(CoverageError):
            check_coverage(g, RotationSystem.from_dict(bad))

    def test_coverage_error_on_duplicated_dart(self):
        a, _ = triangle_board()
        g = build(a)
        darts = g.incident_darts()
        bad = {n: sorted(darts[n]) for n in g.nodes}
        bad[g.nodes[0]] = bad[g.nodes[0]] + [bad[g.nodes[0]][0]]
        with pytest.raises(CoverageError):
            trace_faces(g, RotationSystem.from_dict(bad))

    @pytest.mark.filterwarnings("ignore:arrangement contains a size-1 hyperedge")
    def test_each_face_starts_at_smallest_remaining_dart(self):
        for a, _ in corpus(seed=23, count=40):
            g = build(a)
            darts = g.incident_darts()
            r = RotationSystem.from_dict({n: sorted(darts[n]) for n in g.nodes})
            faces = trace_faces(g, r)
            assert sorted(d for f in faces for d in f) == sorted(
                d for ds in darts.values() for d in ds)
            for i, face in enumerate(faces):
                assert face[0] == min(d for f in faces[i:] for d in f)

    def test_rotation_json_roundtrip(self):
        a, _, _ = builtin_square()
        g = build(a)
        darts = g.incident_darts()
        r = RotationSystem.from_dict({n: sorted(darts[n]) for n in g.nodes})
        assert RotationSystem.from_json_dict(r.to_json_dict()) == r
