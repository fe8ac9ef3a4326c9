"""Realization verification, builtin boards, minor transfer, and synthesis."""

import dataclasses
import itertools
import random

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    TAMPERS,
    board_from_graph,
    complete_graph_edges,
    corpus,
    flip_one_line,
    graph_from_edges,
    is_identity,
    k33_edges,
    oracle_corpus,
    oracle_verify_realization,
    outcome,
    random_signing,
    subdivided_board,
    tampered_realization,
    triangle_board,
)
from pseudotelepathy import realization as realization_module
from pseudotelepathy.arrangement import (
    all_plus_signing,
    check_realization,
    parity,
    validate,
)
from pseudotelepathy.intersection import build
from pseudotelepathy.pauli import from_string, identity
from pseudotelepathy.planarity import test_planarity as decide_planarity
from pseudotelepathy.realization import (
    CoverageError,
    EmbeddingMismatch,
    QuantumRealization,
    builtin_pentagram,
    builtin_square,
    extract_minor_embedding,
    resign_realization,
    synthesize,
    transfer,
    verify_realization,
)


class TestVerifyRealization:
    def test_builtin_square_verifies(self):
        a, s, r = builtin_square()
        assert verify_realization(a, s, r)

    def test_broken_operator_fails(self):
        a, s, r = builtin_square()
        ops = r.as_dict()
        ops["33"] = identity(2)
        assert not verify_realization(a, s, QuantumRealization.from_dict(2, ops))

    def test_identity_realization_on_all_plus(self):
        a, _ = triangle_board()
        r = QuantumRealization.from_dict(1, {v: identity(1) for v in a.vertices})
        assert verify_realization(a, all_plus_signing(a), r)

    def test_missing_vertex_raises(self):
        a, s, r = builtin_square()
        ops = r.as_dict()
        del ops["11"]
        with pytest.raises(CoverageError):
            verify_realization(a, s, QuantumRealization.from_dict(2, ops))

    def test_operator_off_the_board_raises(self):
        """An operator for an id that is no vertex is named, not ignored."""
        a, s, r = builtin_square()
        ops = {**r.as_dict(), "ghost": from_string("+XX"), "extra": from_string("+ZZ")}
        with pytest.raises(CoverageError, match=r"\['extra', 'ghost'\]"):
            verify_realization(a, s, QuantumRealization.from_dict(2, ops))

    def test_non_observable_fails(self):
        a, _ = triangle_board()
        ops = {v: identity(1) for v in a.vertices}
        ops["x"] = from_string("iX")
        assert not verify_realization(a, all_plus_signing(a),
                                      QuantumRealization.from_dict(1, ops))


class TestVerifierOracle:
    """The row arithmetic of ``verify_realization`` gives the answer, or the
    ``CoverageError``, of the ``PauliOperator`` form kept as the oracle."""

    def test_verified_and_wrong_sign(self):
        for a, s, r in oracle_corpus():
            assert outcome(verify_realization, a, s, r) == ("returned", True)
            assert oracle_verify_realization(a, s, r) is True
            wrong = flip_one_line(s)
            assert (outcome(verify_realization, a, wrong, r)
                    == outcome(oracle_verify_realization, a, wrong, r) == ("returned", False))

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(st.data())
    def test_tampered(self, data):
        a, s, r = data.draw(st.sampled_from(oracle_corpus()))
        kind = data.draw(st.sampled_from(TAMPERS))
        tampered = tampered_realization(random.Random(data.draw(st.integers(0, 2**32 - 1))),
                                        a, s, r, kind)
        got = outcome(verify_realization, a, s, tampered)
        assert got == outcome(oracle_verify_realization, a, s, tampered)
        if tampered != r:
            assert got[:2] == (("raised", CoverageError) if kind == "missing"
                               else ("returned", False))

    def test_anticommuting_line_with_the_right_product(self):
        """X, Z, X, Z multiply to -I on a -1 line: only commutation rejects it."""
        a, s = validate({"vertices": ["a", "b", "c", "d"], "hyperedges": [
            {"id": "L1", "vertices": ["a", "b", "c", "d"], "sign": -1},
            {"id": "L2", "vertices": ["a", "c"], "sign": 1},
            {"id": "L3", "vertices": ["b", "d"], "sign": 1}]})
        x, z = from_string("X"), from_string("Z")
        r = QuantumRealization.from_dict(1, {"a": x, "b": z, "c": x, "d": z})
        assert verify_realization(a, s, r) is oracle_verify_realization(a, s, r) is False


class TestBuiltins:
    def test_square_signing_and_width(self):
        a, s, r = builtin_square()
        assert parity(s) == -1
        assert r.n_qubits == 2
        assert all(op.n_qubits == 2 for _, op in r.operators)

    def test_pentagram(self):
        a, s, r = builtin_pentagram()
        assert verify_realization(a, s, r)
        assert parity(s) == -1
        assert r.n_qubits == 3
        g = build(a)
        assert len(g.nodes) == 5 and len(g.edges) == 10
        assert {frozenset((u, v)) for _, u, v in g.edges} == {
            frozenset(pair) for pair in itertools.combinations(g.nodes, 2)
        }


class TestMinorEmbedding:
    def test_identity_witness_on_k33(self):
        a, _, _ = builtin_square()
        w = decide_planarity(build(a)).witness
        line_of = extract_minor_embedding(w)
        assert w.kind == "K33"
        assert sorted(line_of) == sorted(w.branch_vertices)
        assert line_of == dict(zip(w.parts[0] + w.parts[1],
                                   ("c1", "c2", "c3", "r1", "r2", "r3")))
        assert all(len(p) == 1 for _, p in w.paths)

    def test_k5_vertex_map_is_sorted(self):
        w = decide_planarity(graph_from_edges(complete_graph_edges(5))).witness
        line_of = extract_minor_embedding(w)
        assert list(line_of) == sorted(w.branch_vertices)
        assert list(line_of.values()) == ["L1", "L2", "L3", "L4", "L5"]

    def test_k33_without_sides_is_rejected(self):
        a, _, _ = builtin_square()
        w = decide_planarity(build(a)).witness
        with pytest.raises(EmbeddingMismatch, match="lacks its bipartition"):
            extract_minor_embedding(dataclasses.replace(w, parts=None))


class TestTransfer:
    @staticmethod
    def transfer_own_witness(builtin):
        a, _, _ = builtin()
        g = build(a)
        w = decide_planarity(g).witness
        return transfer(w, extract_minor_embedding(w), g)

    def test_identity_embedding_reproduces_builtin_square(self):
        _, s, r = builtin_square()
        assert self.transfer_own_witness(builtin_square) == (s, r)

    def test_identity_embedding_reproduces_builtin_pentagram(self):
        _, s, r = builtin_pentagram()
        assert self.transfer_own_witness(builtin_pentagram) == (s, r)

    def test_branch_vertex_outside_the_target_is_rejected(self):
        a, _, _ = builtin_square()
        w = decide_planarity(build(a)).witness
        target = graph_from_edges(k33_edges())  # nodes l1..r3, not c1..r3
        with pytest.raises(EmbeddingMismatch, match="branch vertices"):
            transfer(w, extract_minor_embedding(w), target)

    def test_path_edge_outside_the_target_is_rejected(self):
        w = decide_planarity(build(subdivided_board(k33_edges(), {"l1r1": 1}))).witness
        target = graph_from_edges(k33_edges())  # same nodes, l1r1 not split
        with pytest.raises(EmbeddingMismatch, match="between 'l1' and 'r1'"):
            transfer(w, extract_minor_embedding(w), target)

    def test_one_extraction_and_one_transfer_per_magic_synthesize(self, monkeypatch):
        calls = []
        for name in ("extract_minor_embedding", "transfer"):
            def counted(*args, _name=name, _real=getattr(realization_module, name)):
                calls.append(_name)
                return _real(*args)
            monkeypatch.setattr(realization_module, name, counted)
        a, _, _ = builtin_pentagram()
        assert synthesize(a).magic
        assert calls == ["extract_minor_embedding", "transfer"]

    def test_subdivided_k33(self):
        edges = k33_edges()
        del edges["l1r1"]
        edges["h1"] = ("l1", "mid")
        edges["h2"] = ("mid", "r1")
        board = board_from_graph(edges)
        verdict = synthesize(board)
        assert verdict.magic
        ops = verdict.realization.as_dict()
        assert ops["h1"] == ops["h2"]
        assert not is_identity(ops["h1"])
        assert verdict.signing.as_dict()["mid"] == 1
        assert verify_realization(board, verdict.signing, verdict.realization)

    def test_subdivision_sweep(self):
        """All subdivisions with <= 2 extra nodes, plus deeper samples.

        The exhaustive sweep to 6 extra nodes (13013 boards) lives in the
        acceptance module; this keeps the everyday suite fast.
        """
        rng = random.Random(2)
        for pattern_edges in (complete_graph_edges(5), k33_edges()):
            ids = sorted(pattern_edges)
            combos = [c for total in range(3)
                      for c in itertools.combinations_with_replacement(ids, total)]
            for _ in range(30):
                total = rng.randrange(3, 7)
                combos.append(tuple(rng.choice(ids) for _ in range(total)))
            for combo in combos:
                counts: dict[str, int] = {}
                for e in combo:
                    counts[e] = counts.get(e, 0) + 1
                board = subdivided_board(pattern_edges, counts)
                verdict = synthesize(board)
                assert verdict.magic
                assert verify_realization(board, verdict.signing, verdict.realization)


class TestSynthesize:
    def test_square_magic_two_qubits(self):
        a, _, _ = builtin_square()
        v = synthesize(a)
        assert v.magic and v.realization.n_qubits == 2
        assert parity(v.signing) == -1

    def test_pentagram_magic_three_qubits(self):
        a, _, _ = builtin_pentagram()
        v = synthesize(a)
        assert v.magic and v.realization.n_qubits == 3

    def test_triangle_not_magic(self):
        a, _ = triangle_board()
        v = synthesize(a)
        assert not v.magic
        assert v.certificate.final_sign == 1
        assert check_realization(a, v.signing, v.classical)

    def test_corpus_magic_iff_nonplanar_and_bounded(self):
        for a, _ in corpus(seed=41, count=60, dense=True):
            v = synthesize(a)
            assert v.magic == (not decide_planarity(build(a)).is_planar)
            if v.magic:
                assert v.realization.n_qubits <= 3
                assert verify_realization(a, v.signing, v.realization)
            else:
                assert check_realization(a, v.signing, v.classical)


class TestResigning:
    def test_transform_tracks_any_equal_parity_signing(self):
        rng = random.Random(6)
        seen_magic = 0
        for a, _ in corpus(seed=43, count=40, dense=True):
            v = synthesize(a)
            if not v.magic:
                continue
            seen_magic += 1
            target = random_signing(rng, a, target_parity=-1)
            adapted = resign_realization(a, v.signing, target, v.realization)
            assert verify_realization(a, target, adapted)
        assert seen_magic >= 5

    def test_even_signings_via_identity_lift(self):
        rng = random.Random(9)
        for a, _ in corpus(seed=47, count=20):
            base = all_plus_signing(a)
            r = QuantumRealization.from_dict(1, {v: identity(1) for v in a.vertices})
            target = random_signing(rng, a, target_parity=1)
            adapted = resign_realization(a, base, target, r)
            assert verify_realization(a, target, adapted)

    def test_parity_mismatch_rejected(self):
        a, s, r = builtin_square()
        with pytest.raises(ValueError):
            resign_realization(a, s, all_plus_signing(a), r)
