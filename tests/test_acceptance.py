"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every check is exact: verdicts, symbolic checks and win
probabilities carry no tolerance.
"""

import random
import time
from fractions import Fraction

import pytest

from helpers import (
    brute_force_classical_exists,
    corpus,
    exhaustive_classical_maximum,
    oracle_planar,
    random_multigraph,
    triangle_board,
)
from pseudotelepathy.arrangement import (
    all_plus_signing,
    check_realization,
    classical_realize,
    is_classically_realizable,
    parity,
)
from pseudotelepathy.certificate import IllegalStep, check_trace, generate_trace
from pseudotelepathy.game import QuantumStrategy, classical_value, exact_win_probability
from pseudotelepathy.generate import random_signing
from pseudotelepathy.intersection import build
from pseudotelepathy.pauli import identity, product_of
from pseudotelepathy.planarity import test_planarity as decide_planarity
from pseudotelepathy.planarity import verify_embedding, verify_witness
from pseudotelepathy.realization import (
    QuantumRealization,
    builtin_pentagram,
    builtin_square,
    resign_realization,
    synthesize,
    verify_realization,
)
from test_certificate import _mutations

@pytest.fixture(scope="module")
def board_corpus():
    """>= 500 random boards, <= 10 hyperedges and <= 25 vertices each."""
    boards = corpus(seed=60001, count=250) + corpus(seed=60002, count=250, dense=True)
    for a, _ in boards:
        assert len(a.hyperedges) <= 10 and len(a.vertices) <= 25
    return boards


@pytest.fixture(scope="module")
def verdicts(board_corpus):
    return [(a, s, synthesize(a)) for a, s in board_corpus]


def test_criterion_1_canonical_boards():
    start = time.perf_counter()
    square, _, _ = builtin_square()
    pentagram, _, _ = builtin_pentagram()
    triangle, _ = triangle_board()
    assert synthesize(square).magic is True
    assert synthesize(pentagram).magic is True
    assert synthesize(triangle).magic is False
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 PASS: square=magic, pentagram=magic, triangle=not magic "
          f"(exact, {elapsed:.3f}s < 1s)")


def test_criterion_2_builtin_realizations():
    a, s, r = builtin_square()
    assert r.n_qubits == 2
    assert verify_realization(a, s, r)
    # row/column structure: rows multiply to +I, columns to -I, exactly
    ops = r.as_dict()
    for eid, members in a.hyperedges:
        prod = product_of([ops[v] for v in members])
        assert prod.is_identity()
        assert prod.phase == (1 if eid.startswith("r") else -1)
    a5, s5, r5 = builtin_pentagram()
    assert r5.n_qubits == 3
    assert verify_realization(a5, s5, r5)
    assert parity(s5) == -1
    print("\nACCEPTANCE 2 PASS: builtin square (2 qubits, rows +I / columns -I) "
          "and pentagram (3 qubits) verify symbolically, exact")


def test_criterion_3_three_qubit_bound(board_corpus):
    start = time.perf_counter()
    n_magic = 0
    for a, _ in board_corpus:
        verdict = synthesize(a)
        if verdict.magic:
            n_magic += 1
            assert verdict.realization.n_qubits <= 3
            assert all(op.is_observable() for _, op in verdict.realization.operators)
            assert verify_realization(a, verdict.signing, verdict.realization)
    elapsed = time.perf_counter() - start
    assert len(board_corpus) >= 500
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 3 PASS: {len(board_corpus)} boards synthesized, {n_magic} "
          f"magic, every realization on <= 3 qubits and verifier-certified "
          f"({elapsed:.1f}s < 60s)")


def test_criterion_4_pseudo_telepathy(verdicts):
    square, ssign, sreal = builtin_square()
    pentagram, psign, preal = builtin_pentagram()
    for a, s, r in ((square, ssign, sreal), (pentagram, psign, preal)):
        assert exact_win_probability(QuantumStrategy(r), a, s) == 1
    n_checked = 0
    for a, _, verdict in verdicts:
        if not verdict.magic or len(a.vertices) > 30:
            continue
        n_checked += 1
        p = exact_win_probability(QuantumStrategy(verdict.realization), a,
                                  verdict.signing)
        assert p == 1
    assert n_checked >= 20
    print(f"\nACCEPTANCE 4 PASS: exact quantum win probability exactly 1 on "
          f"square, pentagram, and {n_checked} magic corpus boards")


def test_criterion_5_classical_gap():
    start = time.perf_counter()
    a, s, _ = builtin_square()
    best, _ = exhaustive_classical_maximum(a, s)
    elapsed = time.perf_counter() - start
    assert best == classical_value(a, s) == Fraction(17, 18)
    assert elapsed < 5.0
    print(f"\nACCEPTANCE 5 PASS: exhaustive classical maximum on the square = "
          f"closed form 1 - 1/(2|V|) = {best} < 1 ({elapsed:.2f}s < 5s)")


def test_criterion_6_certificate_soundness(verdicts):
    n_planar = 0
    for a, s, verdict in verdicts:
        if verdict.magic:
            continue
        n_planar += 1
        g = build(a)
        trace = generate_trace(g, verdict.embedding, s.as_dict())
        assert check_trace(g, verdict.embedding, s.as_dict(), trace) == parity(s)
    rejected = 0
    for a, s, verdict in verdicts:
        if verdict.magic:
            continue
        g = build(a)
        signs = s.as_dict()
        trace = generate_trace(g, verdict.embedding, signs)
        for bad in _mutations(trace):
            with pytest.raises(IllegalStep):
                check_trace(g, verdict.embedding, signs, bad)
            rejected += 1
            if rejected >= 100:
                break
        if rejected >= 100:
            break
    assert n_planar >= 100 and rejected >= 100
    print(f"\nACCEPTANCE 6 PASS: generate+check = signing parity on {n_planar} "
          f"planar boards; {rejected} corrupted traces all rejected with IllegalStep")


def test_criterion_7_planarity_self_certification():
    rng = random.Random(70707)
    n_planar = n_witness = n_oracle = n_skipped = 0
    for _ in range(1000):
        g = random_multigraph(rng, max_nodes=20, max_edges=40)
        res = decide_planarity(g)
        if res.is_planar:
            assert verify_embedding(g, res.embedding)
            n_planar += 1
        else:
            assert verify_witness(g, res.witness)
            n_witness += 1
        if sum(g.degree(n) for n in g.nodes) <= 16:
            expected = oracle_planar(g)
            if expected is None:
                n_skipped += 1  # enumeration beyond the desk-scale budget
            else:
                n_oracle += 1
                assert expected == res.is_planar
    # targeted small corpus so the oracle comparison has real coverage
    for _ in range(150):
        g = random_multigraph(rng, max_nodes=6, max_edges=8, allow_loops=False)
        if sum(g.degree(n) for n in g.nodes) > 16:
            continue
        expected = oracle_planar(g)
        if expected is None:
            n_skipped += 1
            continue
        n_oracle += 1
        assert expected == decide_planarity(g).is_planar
    assert n_planar + n_witness == 1000
    assert n_oracle >= 100
    print(f"\nACCEPTANCE 7 PASS: 1000 multigraphs self-certified ({n_planar} "
          f"embeddings, {n_witness} witnesses); oracle agreement on {n_oracle} "
          f"instances ({n_skipped} skipped past the enumeration budget)")


def test_criterion_8_parity_invariance(verdicts):
    rng = random.Random(808)
    n_done = 0
    for a, s, verdict in verdicts:
        if n_done >= 100:
            break
        n_done += 1
        resigned = random_signing(rng, a, target_parity=parity(s))
        assert is_classically_realizable(a, resigned) == is_classically_realizable(a, s)
        if verdict.magic:
            target = random_signing(rng, a, target_parity=-1)
            adapted = resign_realization(a, verdict.signing, target,
                                         verdict.realization)
        else:
            base = all_plus_signing(a)
            lift = QuantumRealization.from_dict(
                1, {v: identity(1) for v in a.vertices})
            target = random_signing(rng, a, target_parity=1)
            adapted = resign_realization(a, base, target, lift)
        assert verify_realization(a, target, adapted)
    assert n_done == 100
    print(f"\nACCEPTANCE 8 PASS: {n_done} boards re-signed at equal parity without "
          f"changing realizability; path-negation transfer verified each time")


def test_supporting_exhaustive_subdivision_sweep():
    """Supporting sweep behind criterion 3: transfer verifies on every
    subdivision of K5 and K3,3 with up to 6 extra subdivision vertices, and
    the witness is the whole subdivision, as the deletion scan leaves it."""
    import itertools

    from helpers import complete_graph_edges, k33_edges, subdivided_board

    start = time.perf_counter()
    n_boards = 0
    for pattern_edges in (complete_graph_edges(5), k33_edges()):
        ids = sorted(pattern_edges)
        for total in range(7):
            for combo in itertools.combinations_with_replacement(ids, total):
                counts: dict[str, int] = {}
                for e in combo:
                    counts[e] = counts.get(e, 0) + 1
                board = subdivided_board(pattern_edges, counts)
                verdict = synthesize(board)
                assert verdict.magic
                assert verify_realization(board, verdict.signing, verdict.realization)
                # the sorted deletion scan keeps a subdivision whole
                witness_edges = {e for _, path in verdict.witness.paths for e in path}
                assert witness_edges == set(board.vertices)
                n_boards += 1
    elapsed = time.perf_counter() - start
    print(f"\nACCEPTANCE support PASS: all {n_boards} subdivisions of K5/K3,3 with "
          f"<= 6 extra vertices synthesize verifier-passing realizations "
          f"({elapsed:.0f}s)")


def test_supporting_oracle_small_boards():
    """Brute-force cross-check backing criteria 1 and 8 at desk scale."""
    checked = 0
    for a, s in corpus(seed=606, count=30):
        if len(a.vertices) > 14:
            continue
        checked += 1
        expected = brute_force_classical_exists(a, s)
        assert is_classically_realizable(a, s) == expected
        if expected:
            assert check_realization(a, s, classical_realize(a, s))
    assert checked >= 10
    print(f"\nACCEPTANCE support PASS: realizability matches 2^V brute force on "
          f"{checked} small boards")
