"""Protocol, measurement physics, and win probabilities of the parity game."""

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
    SharedState,
    corpus,
    dense_matrix,
    dense_measure,
    dense_play_quantum,
    exhaustive_classical_maximum,
    triangle_board,
)
import pseudotelepathy
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
    Query,
    QuantumStrategy,
    StabilizerState,
    _row,
    all_queries,
    classical_value,
    exact_query_win_probability,
    exact_win_probability,
    measure,
    monte_carlo,
    play_classical,
    play_quantum,
    referee_draw,
)
from pseudotelepathy.generate import random_signing
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

    def test_width_mismatch_raises(self):
        with pytest.raises(DimensionMismatch):
            _row(from_string("XZ"), BOB, 1)
        a, s, _ = odd_y_board()
        r = QuantumRealization.from_dict(2, {"u": from_string("YI"), "w": from_string("Y")})
        with pytest.raises(DimensionMismatch):
            QuantumStrategy(r).rows

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


def flip_one_line(s):
    """The signing with its first line's sign flipped: the other parity."""
    signs = s.as_dict()
    first = min(signs)
    signs[first] = -signs[first]
    return Signing.from_dict(signs)


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
