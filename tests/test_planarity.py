"""Planarity decisions, their verifiers, and the exhaustive rotation oracle."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import (
    complete_graph_edges,
    graph_from_edges,
    k33_edges,
    oracle_planar,
    random_multigraph,
)
import pseudotelepathy
from pseudotelepathy.intersection import CoverageError, RotationSystem, build
from pseudotelepathy.planarity import (
    K5,
    K33,
    KuratowskiWitness,
    PlanarityResult,
    verify_embedding,
    verify_witness,
)
from pseudotelepathy.planarity import test_planarity as decide_planarity
from pseudotelepathy.realization import builtin_pentagram, builtin_square


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
        from pseudotelepathy.intersection import IntersectionGraph

        g = IntersectionGraph(("only",), ())
        res = decide_planarity(g)
        assert res.is_planar and verify_embedding(g, res.embedding)


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


class TestSelfChecksUnderOptimize:
    @pytest.mark.parametrize("verifier, n, message", [
        ("verify_witness", 5, "witness failed its verifier"),
        ("verify_embedding", 4, "embedding failed Euler check"),
    ])
    def test_failed_self_check_raises_under_python_O(self, verifier, n, message):
        """The internal self-checks are real checks, not asserts stripped by -O."""
        script = (
            "from helpers import complete_graph_edges, graph_from_edges\n"
            "from pseudotelepathy import planarity\n"
            f"planarity.{verifier} = lambda g, x: False\n"
            f"planarity.test_planarity(graph_from_edges(complete_graph_edges({n})))\n"
        )
        paths = [Path(pseudotelepathy.__file__).parents[1], Path(__file__).parent]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(map(str, paths))}
        done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode != 0
        assert f"AssertionError: internal error: {message}" in done.stderr
