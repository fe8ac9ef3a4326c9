"""Protocol, measurement physics, and win probabilities of the parity game."""

import ast
import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    TAMPERS,
    SharedState,
    board_from_graph,
    board_json,
    corpus,
    count_calls,
    dense_matrix,
    dense_measure,
    dense_play_quantum,
    exhaustive_classical_maximum,
    flip_one_line,
    grid_edges,
    odd_y_board,
    oracle_corpus,
    oracle_exact_line_win_probabilities,
    oracle_exact_win_probability,
    outcome,
    quiet_random_arrangement,
    random_signing,
    realized,
    tampered_realization,
    triangle_board,
)
import pseudotelepathy
from pseudotelepathy import game, pauli, realization
from pseudotelepathy.arrangement import (
    Signing,
    all_plus_signing,
    classical_realize,
    parity,
    validate,
)
from pseudotelepathy.game import (
    ALICE,
    BOB,
    ClassicalStrategy,
    MonteCarloReport,
    Query,
    QuantumStrategy,
    StabilizerState,
    _project,
    _row,
    all_queries,
    classical_value,
    exact_line_win_probabilities,
    exact_query_win_probability,
    exact_win_probabilities,
    exact_win_probability,
    measure,
    monte_carlo,
    play_classical,
    play_quantum,
    referee_draw,
)
from pseudotelepathy.intersection import CoverageError
from pseudotelepathy.pauli import (
    DimensionMismatch,
    PauliOperator,
    from_string,
)
from pseudotelepathy.realization import (
    QuantumRealization,
    builtin_pentagram,
    builtin_square,
    synthesize,
    verify_realization,
)


class TestReferee:
    def test_square_uniform_over_18_queries(self):
        a, _, _ = builtin_square()
        rng = random.Random(123)
        n = 100_000
        counts = {}
        for _ in range(n):
            q = referee_draw(a, rng)
            assert q.hyperedge in a.edges_of_vertex(q.vertex)
            counts[(q.vertex, q.hyperedge)] = counts.get((q.vertex, q.hyperedge), 0) + 1
        assert len(counts) == 18
        expected = n / 18
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        assert chi2 < 45  # df=17; this bound is far beyond the 0.999 quantile

    def test_triangle_six_queries(self):
        a, _ = triangle_board()
        rng = random.Random(5)
        seen = {(q.vertex, q.hyperedge) for q in (referee_draw(a, rng) for _ in range(500))}
        assert seen == {(q.vertex, q.hyperedge) for q in all_queries(a)}
        assert len(seen) == 6

    def test_seeded_determinism(self):
        a, _, _ = builtin_square()
        seq1 = [ (q.vertex, q.hyperedge) for q in
                 (referee_draw(a, random.Random(42)) for _ in range(50)) ]
        seq2 = [ (q.vertex, q.hyperedge) for q in
                 (referee_draw(a, random.Random(42)) for _ in range(50)) ]
        assert seq1 == seq2

    def test_one_draw_per_query(self):
        """Draw k of randrange(2|V|) asks vertex k >> 1 on its (k & 1)-th line."""
        a, _, _ = builtin_square()
        rng, replay = random.Random(9), random.Random(9)
        for _ in range(200):
            q = referee_draw(a, rng)
            k = replay.randrange(2 * len(a.vertices))
            v = a.vertices[k >> 1]
            assert q == Query(v, a.edges_of_vertex(v)[k & 1])
        assert rng.getstate() == replay.getstate()


def fixed_draws(*values):
    """Stand-in for the generator: ``random()`` returns ``values`` in turn."""
    class Draws:
        def __init__(self):
            self.left = list(values)

        def random(self):
            return self.left.pop(0)

    return Draws()


BELOW_HALF = math.nextafter(0.5, 0)  # the largest draw below 1/2
BELOW_ONE = math.nextafter(1.0, 0)   # the largest draw rng.random() returns


def is_plus_outcome(state, row, draw):
    """The outcome of measuring ``row`` on a copy of ``state`` with one fixed draw."""
    copy = StabilizerState(state.n_qubits, list(state.stabilizers),
                           list(state.destabilizers))
    return measure(copy, row, fixed_draws(draw)) == 1


def p_plus(state, row) -> Fraction:
    """The probability of +1 that ``measure`` uses, read off at its thresholds."""
    low, mid, high = (is_plus_outcome(state, row, d) for d in (0.0, BELOW_HALF, 0.5))
    top = is_plus_outcome(state, row, BELOW_ONE)
    if not low:
        return Fraction(0)
    if top:
        return Fraction(1)
    assert mid and not high  # +1 exactly on draws below 1/2
    return Fraction(1, 2)


def tableau_matrix(row, n_qubits):
    """Dense matrix of a tableau row on the 2n qubits (Alice's first)."""
    x, z, k = row
    return dense_matrix(PauliOperator(2 * n_qubits, k, x, z))


def anticommute(p, q) -> bool:
    return bool(((p[0] & q[1]) ^ (p[1] & q[0])).bit_count() & 1)


class TestSharedState:
    def test_maximally_entangled_structure(self):
        for n in (1, 2, 3):
            state = StabilizerState.maximally_entangled(n)
            dim = 2 ** n
            phi = np.eye(dim).reshape(-1) / math.sqrt(dim)
            assert len(state.stabilizers) == len(state.destabilizers) == 2 * n
            for row in state.stabilizers:
                np.testing.assert_array_equal(tableau_matrix(row, n) @ phi, phi)
            for i, d in enumerate(state.destabilizers):
                for j, stabilizer in enumerate(state.stabilizers):
                    assert anticommute(d, stabilizer) == (i == j)
                assert not any(anticommute(d, e) for e in state.destabilizers)


class TestMeasure:
    def test_z_on_bell_pair_is_fair(self):
        state = StabilizerState.maximally_entangled(1)
        z = _row(from_string("Z"), ALICE, 1)
        assert p_plus(state, z) == Fraction(1, 2)
        assert measure(StabilizerState.maximally_entangled(1), z, fixed_draws(BELOW_HALF)) == 1
        assert measure(StabilizerState.maximally_entangled(1), z, fixed_draws(0.5)) == -1

    def test_born_rule_sanity(self):
        rng = random.Random(31)
        state = StabilizerState.maximally_entangled(2)
        for word in ("XZ", "YY", "ZI", "XY"):
            assert p_plus(state, _row(from_string(word), BOB, 2)) == Fraction(1, 2)
        row = _row(from_string("XZ"), BOB, 2)
        outcome = measure(state, row, rng)
        assert p_plus(state, row) == (1 if outcome == 1 else 0)
        negated = _row(from_string("-XZ"), BOB, 2)
        assert p_plus(state, negated) == (0 if outcome == 1 else 1)

    def test_repeated_measurement_is_stable(self):
        rng = random.Random(17)
        for word in ("X", "Y", "Z"):
            state = StabilizerState.maximally_entangled(1)
            row = _row(from_string(word), ALICE, 1)
            first = measure(state, row, rng)
            for _ in range(3):
                assert measure(state, row, rng) == first
                assert p_plus(state, row) == (1 if first == 1 else 0)

    def test_transpose_correlation_is_perfect(self):
        rng = random.Random(3)
        y = from_string("Y")
        for _ in range(25):
            state = StabilizerState.maximally_entangled(1)
            alice = measure(state, _row(y, ALICE, 1), rng)
            bob_row = _row(y.transpose(), BOB, 1)
            assert p_plus(state, bob_row) == (1 if alice == 1 else 0)
            assert measure(state, bob_row, rng) == alice

    def test_literal_y_measurement_anticorrelates(self):
        rng = random.Random(3)
        y = from_string("Y")
        for _ in range(25):
            state = StabilizerState.maximally_entangled(1)
            alice = measure(state, _row(y, ALICE, 1), rng)
            bob_row = _row(y, BOB, 1)
            assert p_plus(state, bob_row) == (0 if alice == 1 else 1)
            assert measure(state, bob_row, rng) == -alice

    def test_non_observable_raises(self):
        with pytest.raises(ValueError, match="not an observable"):
            _row(from_string("iX"), ALICE, 1)
        a, s, _ = odd_y_board()
        r = QuantumRealization.from_dict(1, {"u": from_string("iY"), "w": from_string("Y")})
        with pytest.raises(ValueError, match="not an observable"):
            play_quantum(a, s, QuantumStrategy(r), Query("w", "e1"),
                         random.Random(1))
        # every line is compiled before the first round, drawn or not
        for seed in range(10):
            with pytest.raises(ValueError, match="^iY is not an observable$"):
                monte_carlo(QuantumStrategy(r), a, s, trials=1, seed=seed)

    def test_width_mismatch_raises(self):
        with pytest.raises(DimensionMismatch):
            _row(from_string("XZ"), BOB, 1)
        a, s, _ = odd_y_board()
        r = QuantumRealization.from_dict(2, {"u": from_string("YI"), "w": from_string("Y")})
        with pytest.raises(DimensionMismatch, match="operator on 1 qubits, state on 2"):
            monte_carlo(QuantumStrategy(r), a, s, trials=1, seed=0)
        with pytest.raises(DimensionMismatch, match="operator on 1 qubits, state on 2"):
            play_quantum(a, s, QuantumStrategy(r), Query("u", "e1"), random.Random(1))

    def test_width_against_the_realization_in_every_game(self):
        """Two-qubit operators declared on one qubit: the exact game rejects
        them as the sampled game does."""
        a, s, r = builtin_square()
        strategy = QuantumStrategy(QuantumRealization(1, r.operators))
        message = "^operator on 2 qubits, state on 1$"
        with pytest.raises(DimensionMismatch, match=message):
            exact_win_probability(strategy, a, s)
        for eid in a.hyperedge_ids():
            with pytest.raises(DimensionMismatch, match=message):
                exact_line_win_probabilities(strategy, a, s, eid)
        with pytest.raises(DimensionMismatch, match=message):
            monte_carlo(strategy, a, s, trials=1, seed=0)

    def test_corrupted_deterministic_sign_raises_under_optimize(self):
        """The stabilizer-group self-check is a real check, not an ``assert``."""
        script = (
            "from pseudotelepathy.game import ALICE, StabilizerState, _row, measure\n"
            "from pseudotelepathy.pauli import from_string\n"
            "state = StabilizerState.maximally_entangled(1)\n"
            "state.stabilizers[0] = state.stabilizers[1]  # X_A X_B lost: Z_A looks fixed\n"
            "measure(state, _row(from_string('Z'), ALICE, 1), None)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(pseudotelepathy.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode != 0
        assert "AssertionError: internal error: a commuting observable" in done.stderr


observables = st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.tuples(st.sampled_from((ALICE, BOB)), st.sampled_from((0, 2)),
                       st.lists(st.sampled_from("IXYZ"), min_size=n, max_size=n)),
             min_size=1, max_size=10)))


class TestStatevectorOracle:
    """Outcome for outcome, the tableau equals the dense statevector."""

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(observables, st.integers(0, 2**32 - 1))
    def test_measurement_sequences(self, drawn, seed):
        n, sequence = drawn
        tableau_rng, dense_rng = random.Random(seed), random.Random(seed)
        state, dense = StabilizerState.maximally_entangled(n), SharedState.maximally_entangled(n)
        for side, phase, letters in sequence:
            op = from_string(("-" if phase else "+") + "".join(letters))
            expected, dense = dense_measure(dense, op, side, dense_rng)
            assert measure(state, _row(op, side, n), tableau_rng) == expected

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(observables, st.integers(0, 2**32 - 1))
    def test_affine_forms_replay_the_sampled_outcomes(self, drawn, seed):
        """One symbolic pass, evaluated on the draws' bits, gives the outcomes
        that ``measure`` samples one by one."""
        n, sequence = drawn
        rows = [_row(from_string(("-" if phase else "+") + "".join(letters)), side, n)
                for side, phase, letters in sequence]
        symbolic = StabilizerState.maximally_entangled(n)
        masks = [0] * len(symbolic.stabilizers)
        forms = [_project(symbolic, masks, row, 1 << i) for i, row in enumerate(rows)]
        rng, replay = random.Random(seed), random.Random(seed)
        state = StabilizerState.maximally_entangled(n)
        sampled = [measure(state, row, rng) for row in rows]
        d = sum(1 << i for i in range(len(rows)) if replay.random() >= 0.5)
        assert [-1 if ((mask & d).bit_count() + c) & 1 else 1 for mask, c in forms] == sampled

    @pytest.mark.parametrize("board", [builtin_square, builtin_pentagram, odd_y_board])
    @pytest.mark.parametrize("literal", [False, True])
    def test_every_query_of_the_builtin_boards(self, board, literal):
        a, s, r = board()
        strategy = QuantumStrategy(r, literal)
        for k, q in enumerate(all_queries(a)):
            for seed in range(8):
                rng, dense_rng = random.Random(8 * k + seed), random.Random(8 * k + seed)
                t = play_quantum(a, s, strategy, q, rng)
                alice, coloring = dense_play_quantum(a, r, q, dense_rng, literal)
                assert (t.alice_color, t.bob_coloring) == (alice, tuple(sorted(coloring.items())))


class TestPlayQuantum:
    def test_square_wins_every_query(self):
        a, s, r = builtin_square()
        rng = random.Random(7)
        for q in all_queries(a):
            for _ in range(6):
                t = play_quantum(a, s, QuantumStrategy(r), q, rng)
                assert t.parity_ok and t.consistency_ok

    def test_pentagram_wins_every_query(self):
        a, s, r = builtin_pentagram()
        rng = random.Random(11)
        for q in all_queries(a):
            t = play_quantum(a, s, QuantumStrategy(r), q, rng)
            assert t.won

    def test_untransposed_bob_fails_with_odd_y_operator(self):
        a, s, r = odd_y_board()
        strategy = QuantumStrategy(r, literal=True)
        assert exact_win_probability(strategy, a, s) == 0
        assert exact_win_probability(QuantumStrategy(r), a, s) == 1


class TestExactWinProbability:
    def test_square_quantum_is_one(self):
        a, s, r = builtin_square()
        assert exact_win_probability(QuantumStrategy(r), a, s) == 1

    def test_pentagram_quantum_is_one(self):
        a, s, r = builtin_pentagram()
        assert exact_win_probability(QuantumStrategy(r), a, s) == 1

    def test_classical_from_realization_is_one(self):
        a, _, _ = builtin_square()
        plus = all_plus_signing(a)
        strategy = ClassicalStrategy.from_realization(a, classical_realize(a, plus))
        assert exact_win_probability(strategy, a, plus) == 1

    def test_square_best_classical_is_seventeen_eighteenths(self):
        """Exhaustive oracle over 2^9 Alice colorings with Bob best responses.

        Frozen regression value: 17/18.  One parity constraint must fail (the
        six line parities sum oddly against the signing), costing exactly one
        of the 18 queries its consistency point.
        """
        a, s, _ = builtin_square()
        best, strategy = exhaustive_classical_maximum(a, s)
        assert best == Fraction(17, 18)
        assert exact_win_probability(strategy, a, s) == best

    def test_triangle_odd_signing_classical_below_one(self):
        a, _ = triangle_board()
        s = Signing.from_dict({"ab": -1, "bc": 1, "ca": 1})
        best, _ = exhaustive_classical_maximum(a, s)
        assert best < 1

    def test_noncommuting_line_raises(self):
        a, s = validate({
            "vertices": ["u", "w"],
            "hyperedges": [
                {"id": "e1", "vertices": ["u", "w"], "sign": 1},
                {"id": "e2", "vertices": ["u", "w"], "sign": 1},
            ],
        })
        r = QuantumRealization.from_dict(1, {"u": from_string("X"), "w": from_string("Z")})
        with pytest.raises(ValueError, match="e1"):
            exact_query_win_probability(QuantumStrategy(r), a, s, Query("u", "e1"))


class TestClassicalValue:
    """The closed form 1 or 1 - 1/(2|V|) against complete enumeration, and
    the optimal strategy scoring it."""

    def test_identity_matches_enumeration_on_the_corpus(self):
        odd = 0
        for k, (a, _) in enumerate(corpus(seed=31, count=130)):
            if len(a.vertices) > 13:
                continue
            for target in (1, -1):
                s = random_signing(random.Random(k), a, target)
                optimal = ClassicalStrategy.optimal(a, s)
                value = classical_value(a, s)
                assert value == exhaustive_classical_maximum(a, s)[0]
                assert exact_win_probability(optimal, a, s) == value
                odd += target == -1
        assert odd >= 100

    @pytest.mark.parametrize("board", [builtin_square, builtin_pentagram])
    def test_magic_boards(self, board):
        a, s, _ = board()
        value = classical_value(a, s)
        assert value == 1 - Fraction(1, 2 * len(a.vertices)) < 1
        assert exhaustive_classical_maximum(a, s)[0] == value
        assert exact_win_probability(ClassicalStrategy.optimal(a, s), a, s) == value

    def test_odd_signing_loses_one_query_of_the_smallest_line(self):
        a, s, _ = builtin_square()
        strategy = ClassicalStrategy.optimal(a, s)
        lost = [q for q in all_queries(a) if not play_classical(a, s, strategy, q).won]
        assert len(lost) == 1 and lost[0].hyperedge == min(a.hyperedge_ids())

    def test_even_signing_is_the_realization(self):
        for a, s in corpus(seed=5, count=20):
            if parity(s) == -1:
                s = flip_one_line(s)
            assert (ClassicalStrategy.optimal(a, s)
                    == ClassicalStrategy.from_realization(a, classical_realize(a, s)))
            assert classical_value(a, s) == 1


def dense_win_probability(a, s, r, query, literal=False, bob_order=None):
    """Independent oracle: joint projector expectations on dense matrices.

    No Pauli algebra and no sparse state action: build (I + a*M)/2
    projectors as explicit matrices and take their expectation in the
    maximally entangled state, summed over winning outcome tuples.  Bob's
    projectors are multiplied in ``bob_order`` (default: the line's order).
    """
    dim = 2 ** r.n_qubits
    psi = np.eye(dim, dtype=complex).reshape(-1) / math.sqrt(dim)
    members = a.members(query.hyperedge)
    order = members if bob_order is None else bob_order
    alice_m = dense_matrix(r.operator(query.vertex))
    bob_ms = {u: (dense_matrix(r.operator(u)) if literal
                  else dense_matrix(r.operator(u)).T) for u in members}
    eye = np.eye(dim)
    total = 0.0
    for alice_out in (1, -1):
        proj_a = (eye + alice_out * alice_m) / 2
        for bob_outs in itertools.product((1, -1), repeat=len(members)):
            coloring = dict(zip(members, bob_outs))
            prod = 1
            for u in members:
                prod *= coloring[u]
            if prod != s.sign(query.hyperedge) or coloring[query.vertex] != alice_out:
                continue
            proj_b = eye.copy()
            for u in order:
                proj_b = proj_b @ ((eye + coloring[u] * bob_ms[u]) / 2)
            op = np.kron(proj_a, proj_b)
            total += float((psi.conj() @ (op @ psi)).real)
    return total


class TestDenseOracle:
    def test_branch_enumeration_matches_projector_algebra(self):
        for a, s, r in (builtin_square(), builtin_pentagram()):
            strategy = QuantumStrategy(r)
            for signing in (s, flip_one_line(s)):
                for q in all_queries(a):
                    dense = dense_win_probability(a, signing, r, q)
                    exact = exact_query_win_probability(strategy, a, signing, q)
                    assert exact == pytest.approx(dense, abs=1e-12)

    def test_matches_on_imperfect_literal_strategy(self):
        a, s, r = odd_y_board()
        for signing in (s, flip_one_line(s)):
            for q in all_queries(a):
                for literal in (False, True):
                    dense = dense_win_probability(a, signing, r, q, literal)
                    exact = exact_query_win_probability(
                        QuantumStrategy(r, literal=literal), a, signing, q)
                    assert exact == pytest.approx(dense, abs=1e-12)
        # Y against untransposed Y anti-correlates perfectly: never consistent
        assert exact_win_probability(QuantumStrategy(r, literal=True), a, s) == 0


EXACT_KINDS = ("verified", "literal", "wrong-sign", "random-observables",
               "random-commuting", "classical-optimal") + TAMPERS


def exact_case(kind: str, rng: random.Random, a, s, r):
    """A (strategy, signing) of one kind on a verified (a, s, r)."""
    if kind == "wrong-sign":
        return QuantumStrategy(r, literal=rng.random() < 0.5), flip_one_line(s)
    if kind == "random-observables":
        return (QuantumStrategy(random_observables(rng, a, rng.randrange(1, 4)),
                                literal=rng.random() < 0.5), s)
    if kind == "random-commuting":  # +-I or +-P for one random P: strategies that lose
        n = rng.randrange(1, 4)
        x, z = rng.randrange(1 << n), rng.randrange(1 << n)
        ops = {v: PauliOperator(n, rng.choice((0, 2)), *rng.choice(((0, 0), (x, z))))
               for v in a.vertices}
        return QuantumStrategy(QuantumRealization.from_dict(n, ops),
                               literal=rng.random() < 0.5), s
    if kind == "classical-optimal":
        return ClassicalStrategy.optimal(a, s), s
    if kind in TAMPERS:
        return (QuantumStrategy(tampered_realization(rng, a, s, r, kind),
                                literal=rng.random() < 0.5), s)
    return QuantumStrategy(r, literal=kind == "literal"), s


class TestExactOracle:
    """The exact game on Pauli rows gives the ``Fraction``s, or the exception
    type and message, of the ``PauliOperator`` form kept as the oracle."""

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_the_oracle(self, data):
        a, s, r = data.draw(st.sampled_from(oracle_corpus()))
        kind = data.draw(st.sampled_from(EXACT_KINDS))
        rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
        strategy, signing = exact_case(kind, rng, a, s, r)
        got = outcome(exact_win_probability, strategy, a, signing)
        assert got == outcome(oracle_exact_win_probability, strategy, a, signing)
        if got[0] == "returned":
            assert type(got[1]) is Fraction
        for eid in a.hyperedge_ids():
            line = outcome(exact_line_win_probabilities, strategy, a, signing, eid)
            assert line == outcome(oracle_exact_line_win_probabilities, strategy, a, signing, eid)
            if line[0] == "returned":
                assert all(type(p) is Fraction for p in line[1].values())


class TestExactWinProbabilities:
    """Every query's ``Fraction`` of the board from one call: the oracle's,
    line by line, with the board-level call's value or exception."""

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(st.data())
    def test_matches_the_oracle_and_the_board_level_call(self, data):
        a, s, r = data.draw(st.sampled_from(oracle_corpus()))
        kind = data.draw(st.sampled_from(EXACT_KINDS))
        rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
        strategy, signing = exact_case(kind, rng, a, s, r)
        total = outcome(exact_win_probability, strategy, a, signing)
        lines = outcome(exact_win_probabilities, strategy, a, signing)
        if total[0] == "raised":
            assert lines == total
            return
        assert lines[1] == {e: oracle_exact_line_win_probabilities(strategy, a, signing, e)
                            for e in a.hyperedge_ids()}
        assert all(type(p) is Fraction for line in lines[1].values() for p in line.values())
        queries = [line[v] for line in lines[1].values() for v in line]
        assert len(queries) == 2 * len(a.vertices)
        assert sum(queries) / len(queries) == total[1]


class TestOrderIndependence:
    def test_bob_measurement_order_immaterial(self):
        a, s, r = builtin_square()
        strategy = QuantumStrategy(r)
        for q in [Query("11", "r1"), Query("22", "c2"), Query("33", "c3")]:
            exact = exact_query_win_probability(strategy, a, s, q)
            for perm in itertools.permutations(a.members(q.hyperedge)):
                dense = dense_win_probability(a, s, r, q, bob_order=perm)
                assert dense == pytest.approx(exact, abs=1e-12)


def transcript_wins(strategy, a, s, trials: int, seed: int):
    """Wins and per-query win rates read off full transcripts, drawing as
    ``monte_carlo`` draws; the reference for its win-bit-only loop."""
    rng = random.Random(seed)
    counts = {}
    for _ in range(trials):
        query = referee_draw(a, rng)
        if isinstance(strategy, ClassicalStrategy):
            transcript = play_classical(a, s, strategy, query)
        else:
            transcript = play_quantum(a, s, strategy, query, rng)
        bucket = counts.setdefault((query.vertex, query.hyperedge), [0, 0])
        bucket[0] += transcript.won
        bucket[1] += 1
    wins = sum(w for w, _ in counts.values())
    return wins, tuple(sorted((q, w / n) for q, (w, n) in counts.items()))


def imperfect_strategies():
    """Strategies that lose some queries."""
    a, s, r = builtin_square()
    signs = s.as_dict()
    signs["r1"] = -signs["r1"]
    yield QuantumStrategy(r), a, Signing.from_dict(signs)
    yield ClassicalStrategy.best_response(a, s, {v: 1 for v in a.vertices}), a, s
    a, s, r = odd_y_board()
    yield QuantumStrategy(r, literal=True), a, s


class TestMonteCarlo:
    @pytest.mark.parametrize("strategy, a, s", imperfect_strategies(),
                             ids=["quantum-wrong-sign", "classical", "quantum-literal-y"])
    def test_matches_transcripts(self, strategy, a, s):
        report = monte_carlo(strategy, a, s, trials=2000, seed=17)
        assert report.wins < report.trials
        assert (report.wins, report.per_query) == transcript_wins(strategy, a, s, 2000, 17)

    def test_quantum_square_rate_is_exactly_one(self):
        a, s, r = builtin_square()
        report = monte_carlo(QuantumStrategy(r), a, s, trials=10_000, seed=1234)
        assert report.rate == 1.0

    def test_always_plus_on_odd_signing_loses_sometimes(self):
        a, s, _ = builtin_square()
        alice = {v: 1 for v in a.vertices}
        strategy = ClassicalStrategy.best_response(a, s, alice)
        report = monte_carlo(strategy, a, s, trials=4000, seed=99)
        assert report.rate < 1

    def test_same_seed_reproduces(self):
        a, s, r = builtin_square()
        r1 = monte_carlo(QuantumStrategy(r), a, s, trials=500, seed=7)
        r2 = monte_carlo(QuantumStrategy(r), a, s, trials=500, seed=7)
        assert r1 == r2

    def test_negative_seed_is_refused(self):
        # random.Random(-7) would replay the draws of seed 7
        a, s, r = builtin_square()
        with pytest.raises(ValueError, match="seed must be at least 0, got -7"):
            monte_carlo(QuantumStrategy(r), a, s, trials=10, seed=-7)

    def test_three_sigma_agreement_with_exact(self):
        a, s, _ = builtin_square()
        best, strategy = exhaustive_classical_maximum(a, s)
        trials = 10_000
        report = monte_carlo(strategy, a, s, trials=trials, seed=2024)
        sigma = math.sqrt(best * (1 - best) / trials)
        assert abs(report.rate - best) <= 3 * sigma

    def test_three_sigma_agreement_on_imperfect_quantum(self):
        # square realization against a signing with r1 flipped: the three
        # r1 queries always fail parity, so the exact value is 15/18
        a, s, r = builtin_square()
        signs = s.as_dict()
        signs["r1"] = -signs["r1"]
        wrong = Signing.from_dict(signs)
        strategy = QuantumStrategy(r)
        exact = exact_win_probability(strategy, a, wrong)
        assert exact == Fraction(15, 18)
        trials = 10_000
        report = monte_carlo(strategy, a, wrong, trials=trials, seed=314)
        sigma = math.sqrt(exact * (1 - exact) / trials)
        assert abs(report.rate - exact) <= 3 * sigma

    def test_ci_brackets_rate(self):
        a, s, _ = builtin_square()
        alice = {v: 1 for v in a.vertices}
        strategy = ClassicalStrategy.best_response(a, s, alice)
        report = monte_carlo(strategy, a, s, trials=2000, seed=5)
        assert report.ci_low <= report.rate <= report.ci_high


def oracle_report(strategy, a, s, trials: int, seed: int):
    """``monte_carlo``'s report assembled round by round from independent
    code: the README's one-draw referee rule, the statevector oracle for a
    quantum round (drawing from the same generator after the referee) and
    ``play_classical`` for a classical one."""
    rng = random.Random(seed)
    counts = {}
    for _ in range(trials):
        k = rng.randrange(2 * len(a.vertices))
        v = a.vertices[k >> 1]
        e = a.edges_of_vertex(v)[k & 1]
        if isinstance(strategy, ClassicalStrategy):
            won = play_classical(a, s, strategy, Query(v, e)).won
        else:
            alice, coloring = dense_play_quantum(a, strategy.realization, Query(v, e), rng,
                                                 strategy.literal)
            won = (math.prod(coloring.values()) == s.sign(e) and coloring[v] == alice)
        bucket = counts.setdefault((v, e), [0, 0])
        bucket[0] += won
        bucket[1] += 1
    wins = sum(w for w, _ in counts.values())
    rate = wins / trials
    half = 1.96 * math.sqrt(max(rate * (1 - rate), 0.0) / trials)
    return MonteCarloReport(rate, max(rate - half, 0.0), min(rate + half, 1.0), wins,
                            trials, tuple(sorted((q, w / n) for q, (w, n) in counts.items())))


def random_observables(rng: random.Random, a, n_qubits: int) -> QuantumRealization:
    """Uniform signed Pauli observables on the board's vertices: a line's
    operators need not commute, so such strategies lose."""
    return QuantumRealization.from_dict(n_qubits, {
        v: PauliOperator(n_qubits, rng.choice((0, 2)), rng.randrange(1 << n_qubits),
                         rng.randrange(1 << n_qubits))
        for v in a.vertices})


def game_case(kind: str, seed: int):
    """A (strategy, board, signing) of one kind, built from ``seed``."""
    rng = random.Random(seed)
    if kind in ("square", "pentagram", "odd-y"):
        a, s, r = {"square": builtin_square, "pentagram": builtin_pentagram,
                   "odd-y": odd_y_board}[kind]()
        if rng.random() < 0.5:
            s = flip_one_line(s)  # a wrong-sign signing: the lines flipped lose
        return QuantumStrategy(r, literal=rng.random() < 0.5), a, s
    a, s = quiet_random_arrangement(rng, rng.randrange(2, 6))
    if kind == "identity":  # the verified 1-qubit strategy of an even signing
        if parity(s) == -1:
            s = flip_one_line(s)
        one = PauliOperator(1, 0, 0, 0)
        labels = classical_realize(a, s).as_dict()
        r = QuantumRealization.from_dict(1, {v: one if lab == 1 else one.negate()
                                             for v, lab in labels.items()})
        assert verify_realization(a, s, r)
        return QuantumStrategy(r), a, s
    if kind == "random-observables":
        return (QuantumStrategy(random_observables(rng, a, rng.randrange(1, 4)),
                                literal=rng.random() < 0.5), a, s)
    if kind == "classical-optimal":
        return ClassicalStrategy.optimal(a, s), a, s
    alice = {v: rng.choice((1, -1)) for v in a.vertices}
    if kind == "classical-best-response":
        return ClassicalStrategy.best_response(a, s, alice), a, s
    bob = {e: {v: rng.choice((1, -1)) for v in members} for e, members in a.hyperedges}
    return ClassicalStrategy.from_maps(alice, bob), a, s


GAME_KINDS = ("square", "pentagram", "odd-y", "identity", "random-observables",
              "classical-optimal", "classical-best-response", "classical-random")


class TestCompiledMonteCarlo:
    """The compiled rounds give the report of round-by-round simulation."""

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(st.sampled_from(GAME_KINDS), st.integers(0, 2**32 - 1), st.integers(1, 40),
           st.integers(0, 2**32 - 1))
    def test_equals_the_statevector_oracle(self, kind, case_seed, trials, seed):
        strategy, a, s = game_case(kind, case_seed)
        assert monte_carlo(strategy, a, s, trials, seed) == oracle_report(strategy, a, s,
                                                                          trials, seed)

    @pytest.mark.parametrize("kind", GAME_KINDS)
    def test_every_kind_on_many_trials(self, kind):
        for case_seed in range(3):
            strategy, a, s = game_case(kind, case_seed)
            report = monte_carlo(strategy, a, s, 300, case_seed)
            assert report == oracle_report(strategy, a, s, 300, case_seed)

    def test_losing_kinds_lose(self):
        """The property above covers strategies that lose, not only perfect ones."""
        for kind in ("random-observables", "classical-random"):
            rates = [monte_carlo(*game_case(kind, seed), 200, seed).rate for seed in range(5)]
            assert min(rates) < 1

    def test_memo_is_keyed_by_the_line_members(self):
        """One strategy reused on boards where a line id has other members, or
        a vertex lies on other lines, plays as fresh strategy objects do."""
        square, s, r = builtin_square()
        cells = [[f"{i}{j}" for j in (1, 2, 3)] for i in (1, 2, 3)]
        rows = {f"r{i + 1}": cells[i] for i in range(3)}
        cols = {f"c{j + 1}": [cells[i][j] for i in range(3)] for j in range(3)}
        diagonals = {f"c{j + 1}": [cells[i][(i + j) % 3] for i in range(3)] for j in range(3)}
        boards = [square]
        swapped = {**rows, **cols, "r1": cols["c1"], "c1": rows["r1"]}
        for lines in (swapped, {**rows, **diagonals}):
            board, _ = validate({"vertices": sorted(sum(cells, [])),
                                 "hyperedges": [{"id": e, "vertices": m}
                                                for e, m in sorted(lines.items())]})
            boards.append(board)
        assert boards[1].members("r1") != square.members("r1")
        assert boards[2].edges_of_vertex("21") != square.edges_of_vertex("21")
        reused = QuantumStrategy(r)
        for board in boards + boards:
            signing = Signing.from_dict({e: s.sign(e) for e in board.hyperedge_ids()})
            for seed in range(3):
                assert (monte_carlo(reused, board, signing, 500, seed)
                        == monte_carlo(QuantumStrategy(r), board, signing, 500, seed))

    def test_compile_self_check_raises_under_optimize(self):
        """The compile step's stabilizer-group check is a real check, not an ``assert``."""
        script = (
            "from pseudotelepathy import game\n"
            "from pseudotelepathy.arrangement import validate\n"
            "from pseudotelepathy.pauli import from_string\n"
            "from pseudotelepathy.realization import QuantumRealization\n"
            "stabilizers, destabilizers = game._bell_pairs(1)\n"
            "# X_A X_B lost: Z_A looks fixed\n"
            "game._bell_pairs = lambda n: ((stabilizers[1],) * 2, destabilizers)\n"
            "a, s = validate({'vertices': ['u', 'w'], 'hyperedges': [\n"
            "    {'id': 'e1', 'vertices': ['u', 'w'], 'sign': 1},\n"
            "    {'id': 'e2', 'vertices': ['u', 'w'], 'sign': 1}]})\n"
            "r = QuantumRealization.from_dict(1, {v: from_string('Z') for v in 'uw'})\n"
            "game.monte_carlo(game.QuantumStrategy(r), a, s, 1, 0)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(pseudotelepathy.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode != 0
        assert "AssertionError: internal error: a commuting observable" in done.stderr
        assert "_compile_line" in done.stderr


class TestCompiledGame:
    """A quantum strategy compiles its game once per board and signing."""

    @staticmethod
    def count_compiles(monkeypatch) -> list:
        calls = []
        compile_line = game._compile_line

        def counted(strategy, members):
            calls.append(members)
            return compile_line(strategy, members)

        monkeypatch.setattr(game, "_compile_line", counted)
        return calls

    def test_each_line_compiles_once(self, monkeypatch):
        calls = self.count_compiles(monkeypatch)
        a, s, r = builtin_pentagram()
        strategy = QuantumStrategy(r)
        reports = [monte_carlo(strategy, a, s, 200, seed) for seed in range(3)]
        assert sorted(calls) == sorted(members for _, members in a.hyperedges)
        assert reports == [monte_carlo(QuantumStrategy(r), a, s, 200, seed) for seed in range(3)]

    def test_equal_board_and_signing_share_the_table(self, monkeypatch):
        calls = self.count_compiles(monkeypatch)
        a, s, r = builtin_square()
        strategy = QuantumStrategy(r)
        monte_carlo(strategy, a, s, 50, 0)
        copies = validate(board_json(a, s))
        assert copies[0] is not a and copies == (a, s)
        monte_carlo(strategy, *copies, 50, 0)
        assert len(calls) == len(a.hyperedges)

    def test_one_strategy_under_two_signings(self):
        """Flipping one line's sign gives another table, not the first one's."""
        a, s, r = builtin_square()
        flipped = flip_one_line(s)
        reused = QuantumStrategy(r)
        for signing in (s, flipped, s, flipped):
            for seed in range(3):
                assert (monte_carlo(reused, a, signing, 300, seed)
                        == monte_carlo(QuantumStrategy(r), a, signing, 300, seed))
        assert monte_carlo(reused, a, flipped, 300, 0).rate < 1

    def test_a_miss_checks_coverage_before_compiling(self, monkeypatch):
        calls = self.count_compiles(monkeypatch)
        a, s, quantum, _ = square_without("11")
        with pytest.raises(CoverageError, match=r"^no operator for vertices \['11'\]$"):
            monte_carlo(quantum, a, s, 10, 0)
        assert calls == [] and not quantum._games

    def test_a_hit_checks_nothing(self, monkeypatch):
        checks = []
        check_coverage = game._check_coverage

        def counted(*args):
            checks.append(args)
            return check_coverage(*args)

        monkeypatch.setattr(game, "_check_coverage", counted)
        a, s, r = builtin_square()
        strategy = QuantumStrategy(r)
        monte_carlo(strategy, a, s, 10, 0)
        assert len(checks) == 1
        monte_carlo(strategy, a, s, 10, 1)
        assert len(checks) == 1

    @pytest.mark.parametrize("tamper", ["non-observable", "imaginary-identity", "mixed-widths"])
    def test_unmeasurable_strategy_raises_on_every_call(self, tamper):
        a, s, r = builtin_square()
        strategy = QuantumStrategy(tampered_realization(random.Random(3), a, s, r, tamper))
        for _ in range(2):
            with pytest.raises(ValueError):  # DimensionMismatch is a ValueError
                monte_carlo(strategy, a, s, 1, 0)
        assert not strategy._games


def square_without(vertex: str):
    """The square's realization and its optimal classical strategy, with no
    entry for ``vertex`` (Alice's color, or the operator)."""
    a, s, r = builtin_square()
    ops = r.as_dict()
    del ops[vertex]
    optimal = ClassicalStrategy.optimal(a, s)
    alice = dict(optimal.alice)
    del alice[vertex]
    classical = ClassicalStrategy.from_maps(alice, {e: dict(c) for e, c in optimal.bob})
    return a, s, QuantumStrategy(QuantumRealization.from_dict(r.n_qubits, ops)), classical


class TestCoverage:
    """The games name the ids a signing or a strategy misses, as the
    verifiers do, instead of a ``KeyError`` or a report."""

    def test_realization_without_a_vertex(self):
        a, s, quantum, _ = square_without("11")
        message = r"^no operator for vertices \['11'\]$"
        with pytest.raises(CoverageError, match=message):
            verify_realization(a, s, quantum.realization)
        for play in (lambda: monte_carlo(quantum, a, s, 10, 0),
                     lambda: exact_win_probability(quantum, a, s),
                     lambda: exact_line_win_probabilities(quantum, a, s, "r1")):
            with pytest.raises(CoverageError, match=message):
                play()
        assert exact_line_win_probabilities(quantum, a, s, "r2")["21"] == 1

    def test_classical_strategy_without_a_vertex(self):
        a, s, _, classical = square_without("11")
        message = r"^no color from Alice for vertices \['11'\]$"
        with pytest.raises(CoverageError, match=message):
            monte_carlo(classical, a, s, 200, 0)
        with pytest.raises(CoverageError, match=message):
            exact_win_probability(classical, a, s)

    def test_classical_strategy_without_a_line(self):
        a, s, _, _ = square_without("11")
        optimal = ClassicalStrategy.optimal(a, s)
        bob = {e: dict(c) for e, c in optimal.bob if e != "c2"}
        bob["r3"].pop("33")
        classical = ClassicalStrategy.from_maps(dict(optimal.alice), bob)
        message = r"^no coloring from Bob of all members of lines \['c2', 'r3'\]$"
        with pytest.raises(CoverageError, match=message):
            exact_win_probability(classical, a, s)

    def test_classical_monte_carlo_reads_every_entry(self):
        # seed 3 draws no query whose line looks up Alice's '11'
        a, s, _, classical = square_without("11")
        with pytest.raises(CoverageError, match=r"^no color from Alice for vertices \['11'\]$"):
            monte_carlo(classical, a, s, 5, 3)

    def test_classical_games_read_alice_where_bob_misses_parity(self):
        a, s, _, classical = square_without("12")
        bob = {e: dict(c) for e, c in classical.bob}
        for e in ("r1", "c2"):  # the lines through '12' now miss their parity
            bob[e]["12"] = -bob[e]["12"]
        classical = ClassicalStrategy.from_maps(dict(classical.alice), bob)
        message = r"^no color from Alice for vertices \['12'\]$"
        for play in (lambda: monte_carlo(classical, a, s, 2000, 0),
                     lambda: exact_win_probability(classical, a, s)):
            with pytest.raises(CoverageError, match=message):
                play()

    @pytest.mark.parametrize("extra, message", [
        ("alice", r"^colors from Alice for ids that are not vertices \['ghost'\]$"),
        ("bob", r"^colorings from Bob for ids that are not lines \['nope'\]$"),
        ("line", r"^colors from Bob on line 'r1' for ids that are not its members \['21'\]$"),
        ("operator", r"^operators for ids that are not vertices \['ghost'\]$"),
    ], ids=["alice", "bob", "line", "operator"])
    def test_ids_off_the_board(self, extra, message):
        a, s, r = builtin_square()
        optimal = ClassicalStrategy.optimal(a, s)
        alice, bob = dict(optimal.alice), {e: dict(c) for e, c in optimal.bob}
        ops = r.as_dict()
        if extra == "alice":
            alice["ghost"] = 1
        elif extra == "bob":
            bob["nope"] = {"11": 1}
        elif extra == "line":
            bob["r1"]["21"] = 1
        else:
            ops["ghost"] = from_string("+XX")
        strategy = (QuantumStrategy(QuantumRealization.from_dict(r.n_qubits, ops))
                    if extra == "operator" else ClassicalStrategy.from_maps(alice, bob))
        for play in (lambda: monte_carlo(strategy, a, s, 10, 0),
                     lambda: exact_win_probability(strategy, a, s),
                     lambda: exact_line_win_probabilities(strategy, a, s, "r1")):
            with pytest.raises(CoverageError, match=message):
                play()

    @pytest.mark.parametrize("trials", [10, 200])
    def test_signing_without_a_line(self, trials):
        a, s, r = builtin_square()
        short = Signing.from_dict({e: sign for e, sign in s.signs if e != "r1"})
        message = r"^no sign for lines \['r1'\]$"
        for strategy in (QuantumStrategy(r), ClassicalStrategy.optimal(a, s)):
            with pytest.raises(CoverageError, match=message):
                monte_carlo(strategy, a, short, trials, 0)
            with pytest.raises(CoverageError, match=message):
                exact_win_probability(strategy, a, short)
        with pytest.raises(CoverageError, match=message):
            exact_line_win_probabilities(QuantumStrategy(r), a, short, "r1")

    @pytest.mark.parametrize("kind, message", [
        ("quantum", r"^operators for ids that are not vertices \['ghost'\]$"),
        ("classical", r"^colors from Alice for ids that are not vertices \['ghost'\]$"),
    ], ids=["quantum", "classical"])
    def test_one_line_game_refuses_ids_off_the_board(self, kind, message):
        """A one-line game may miss entries off its line, not hold ids off the board."""
        a, s, quantum, classical = square_without("11")
        if kind == "quantum":
            ops = {**quantum.realization.as_dict(), "ghost": from_string("+XX")}
            strategy = QuantumStrategy(QuantumRealization.from_dict(2, ops))
        else:
            strategy = ClassicalStrategy.from_maps({**dict(classical.alice), "ghost": 1},
                                                   {e: dict(c) for e, c in classical.bob})
        with pytest.raises(CoverageError, match=message):
            exact_line_win_probabilities(strategy, a, s, "r2")

    def test_one_line_game_refuses_bob_colors_off_another_line(self):
        """Bob's colorings of every line are checked, not only the played line's."""
        a, s, _ = builtin_square()
        optimal = ClassicalStrategy.optimal(a, s)
        bob = {e: dict(c) for e, c in optimal.bob}
        bob["c1"]["ghost"] = 1
        strategy = ClassicalStrategy.from_maps(dict(optimal.alice), bob)
        message = r"^colors from Bob on line 'c1' for ids that are not its members \['ghost'\]$"
        for play in (lambda: monte_carlo(strategy, a, s, 10, 0),
                     lambda: exact_win_probability(strategy, a, s),
                     lambda: exact_win_probabilities(strategy, a, s),
                     lambda: exact_line_win_probabilities(strategy, a, s, "r2"),
                     lambda: exact_query_win_probability(strategy, a, s, Query("21", "r2"))):
            with pytest.raises(CoverageError, match=message):
                play()

    def test_one_line_game_needs_every_sign(self):
        a, s, r = builtin_square()
        short = Signing.from_dict({e: sign for e, sign in s.signs if e != "c1"})
        for strategy in (QuantumStrategy(r), ClassicalStrategy.optimal(a, s)):
            with pytest.raises(CoverageError, match=r"^no sign for lines \['c1'\]$"):
                exact_line_win_probabilities(strategy, a, short, "r2")

    def test_complete_classical_games_run_no_check(self, monkeypatch):
        """The win-bit pass reads every entry, so the check runs only on a gap."""
        monkeypatch.setattr(game, "_check_coverage", lambda *args: pytest.fail("checked"))
        a, s, _ = builtin_square()
        classical = ClassicalStrategy.optimal(a, s)
        assert monte_carlo(classical, a, s, 10, 0).trials == 10
        assert exact_win_probability(classical, a, s) == classical_value(a, s)

    def test_line_off_the_board(self):
        a, s, r = builtin_square()
        for strategy in (QuantumStrategy(r), ClassicalStrategy.optimal(a, s)):
            with pytest.raises(CoverageError, match=r"^no line 'nope' on the board$"):
                exact_line_win_probabilities(strategy, a, s, "nope")

    def test_query_vertex_off_its_line(self):
        a, s, r = builtin_square()
        for strategy in (QuantumStrategy(r), ClassicalStrategy.optimal(a, s)):
            with pytest.raises(CoverageError, match=r"^vertex '11' is not on line 'c3'$"):
                exact_query_win_probability(strategy, a, s, Query("11", "c3"))

    def test_signing_with_another_line(self):
        a, s, r = builtin_square()
        ghost = Signing.from_dict({**s.as_dict(), "ghost": 1})
        message = r"^signs for ids that are not lines \['ghost'\]$"
        for strategy in (QuantumStrategy(r), ClassicalStrategy.optimal(a, s)):
            with pytest.raises(CoverageError, match=message):
                monte_carlo(strategy, a, ghost, 10, 0)
            with pytest.raises(CoverageError, match=message):
                exact_win_probability(strategy, a, ghost)
            assert not getattr(strategy, "_games", None)


def test_game_translates_no_lookup_failure():
    """Coverage is one explicit check (``game._check_coverage``): ``game.py``
    catches no ``KeyError`` and wraps no module-level function in a
    decorator other than the Bell-pair start's ``lru_cache``."""
    tree = ast.parse(Path(game.__file__).read_text(encoding="utf-8"))
    handlers = [node for node in ast.walk(tree) if isinstance(node, ast.ExceptHandler)]
    caught = {n.id for h in handlers if h.type for n in ast.walk(h.type)
              if isinstance(n, ast.Name)}
    functions = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
    decorators = {n.id for f in functions for d in f.decorator_list for n in ast.walk(d)
                  if isinstance(n, ast.Name)}
    assert functions and all(h.type for h in handlers)
    assert caught.isdisjoint({"KeyError", "LookupError", "Exception", "BaseException"})
    assert decorators <= {"lru_cache"}


def module_names(module) -> set[str]:
    """Every name a module's source reads, imports or looks up as an attribute."""
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    return ({n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
            | {n.name for n in ast.walk(tree) if isinstance(n, ast.alias)})


def test_line_checks_share_one_product_rule():
    """The exact game and ``verify_realization`` test a line's commutation
    and product only through ``pauli.line_product``."""
    for module in (game, realization):
        names = module_names(module)
        assert "line_product" in names
        assert names.isdisjoint({"rows_commute", "transpose_row"}), module.__name__


class TestLineProductRule:
    """``pauli.line_product`` tests commutation among a line's non-identity
    rows only: a +-I row commutes with every row."""

    @staticmethod
    def counts(monkeypatch, a, s, r) -> tuple[int, int]:
        """``rows_commute`` calls of ``verify_realization`` and of the exact game."""
        calls = count_calls(monkeypatch, "rows_commute", pauli)
        assert verify_realization(a, s, r)
        verified = len(calls)
        assert exact_win_probability(QuantumStrategy(r), a, s) == 1
        return verified, len(calls) - verified

    def test_identity_realization_tests_no_pair(self, monkeypatch):
        ((a, s, r),) = realized([(board_from_graph(grid_edges(4)), None)])
        assert r.n_qubits == 1 and all(not op.x | op.z for _, op in r.operators)
        assert self.counts(monkeypatch, a, s, r) == (0, 0)

    def test_square_tests_every_pair(self, monkeypatch):
        assert self.counts(monkeypatch, *builtin_square()) == (18, 18)  # 3 pairs x 6 lines

    def test_transferred_board_tests_pairs_of_non_identity_rows(self, monkeypatch):
        a, s, r = next((a, s, r) for a, s, r in oracle_corpus()
                       if r.n_qubits > 1 and len(a.vertices) > 9)
        ops = r.as_dict()
        moved = [sum(1 for v in members if ops[v].x | ops[v].z) for _, members in a.hyperedges]
        pairs = sum(k * (k - 1) // 2 for k in moved)
        assert pairs < sum(len(m) * (len(m) - 1) // 2 for _, m in a.hyperedges)
        assert self.counts(monkeypatch, a, s, r) == (pairs, pairs)


class TestClassicalLineWins:
    def test_exact_classical_equals_each_transcript(self):
        for a, s in corpus(seed=77, count=30):
            rng = random.Random(len(a.vertices))
            alice = {v: rng.choice((1, -1)) for v in a.vertices}
            bob = {e: {v: rng.choice((1, -1)) for v in m} for e, m in a.hyperedges}
            for strategy in (ClassicalStrategy.from_maps(alice, bob),
                             ClassicalStrategy.best_response(a, s, alice)):
                for q in all_queries(a):
                    assert (exact_query_win_probability(strategy, a, s, q)
                            == play_classical(a, s, strategy, q).won)


class TestCorpusPseudoTelepathy:
    def test_every_magic_board_wins_with_certainty(self):
        checked = 0
        for a, _ in corpus(seed=2718, count=40, dense=True):
            verdict = synthesize(a)
            if not verdict.magic or len(a.vertices) > 30:
                continue
            checked += 1
            p = exact_win_probability(QuantumStrategy(verdict.realization),
                                      a, verdict.signing)
            assert p == 1
        assert checked >= 5
