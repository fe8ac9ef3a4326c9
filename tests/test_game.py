"""Protocol, measurement physics, and win probabilities of the parity game."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from helpers import corpus, triangle_board
from pseudotelepathy.arrangement import (
    Signing,
    all_plus_signing,
    classical_realize,
    validate,
)
from pseudotelepathy.game import (
    ALICE,
    BOB,
    ClassicalStrategy,
    Query,
    QuantumStrategy,
    SharedState,
    all_queries,
    exact_query_win_probability,
    exact_win_probability,
    exhaustive_classical_maximum,
    measure,
    monte_carlo,
    play_quantum,
    referee_draw,
)
from pseudotelepathy.pauli import from_string
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
        rng = np.random.default_rng(123)
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
        rng = np.random.default_rng(5)
        seen = {(q.vertex, q.hyperedge) for q in (referee_draw(a, rng) for _ in range(500))}
        assert seen == {(q.vertex, q.hyperedge) for q in all_queries(a)}
        assert len(seen) == 6

    def test_seeded_determinism(self):
        a, _, _ = builtin_square()
        seq1 = [ (q.vertex, q.hyperedge) for q in
                 (referee_draw(a, np.random.default_rng(42)) for _ in range(50)) ]
        seq2 = [ (q.vertex, q.hyperedge) for q in
                 (referee_draw(a, np.random.default_rng(42)) for _ in range(50)) ]
        assert seq1 == seq2


class TestSharedState:
    def test_maximally_entangled_structure(self):
        for n in (1, 2, 3):
            state = SharedState.maximally_entangled(n)
            dim = 2 ** n
            assert abs(state.norm() - 1.0) < 1e-12
            expected = np.eye(dim) / math.sqrt(dim)
            np.testing.assert_allclose(state.amplitudes, expected, atol=1e-15)


class TestMeasure:
    def test_z_on_bell_pair_is_fair(self):
        state = SharedState.maximally_entangled(1)
        z = from_string("Z")
        from pseudotelepathy.game import _project

        plus, minus = _project(state.amplitudes, z, ALICE)
        assert abs(np.linalg.norm(plus) ** 2 - 0.5) < 1e-12
        assert abs(np.linalg.norm(minus) ** 2 - 0.5) < 1e-12

    def test_born_rule_sanity(self):
        rng = np.random.default_rng(31)
        state = SharedState.maximally_entangled(2)
        for word in ("XZ", "YY", "ZI", "XY"):
            op = from_string(word)
            from pseudotelepathy.game import _project

            plus, minus = _project(state.amplitudes, op, BOB)
            total = np.linalg.norm(plus) ** 2 + np.linalg.norm(minus) ** 2
            assert abs(total - 1.0) < 1e-12
        outcome, post = measure(state, from_string("XZ"), BOB, rng)
        assert abs(post.norm() - 1.0) < 1e-12

    def test_repeated_measurement_is_stable(self):
        rng = np.random.default_rng(17)
        for word in ("X", "Y", "Z"):
            state = SharedState.maximally_entangled(1)
            op = from_string(word)
            first, state = measure(state, op, ALICE, rng)
            for _ in range(3):
                again, state = measure(state, op, ALICE, rng)
                assert again == first

    def test_transpose_correlation_is_perfect(self):
        rng = np.random.default_rng(3)
        y = from_string("Y")
        for _ in range(25):
            state = SharedState.maximally_entangled(1)
            alice, state = measure(state, y, ALICE, rng)
            bob, state = measure(state, y.transpose(), BOB, rng)
            assert bob == alice

    def test_literal_y_measurement_anticorrelates(self):
        rng = np.random.default_rng(3)
        y = from_string("Y")
        for _ in range(25):
            state = SharedState.maximally_entangled(1)
            alice, state = measure(state, y, ALICE, rng)
            bob, state = measure(state, y, BOB, rng)
            assert bob == -alice


class TestPlayQuantum:
    def test_square_wins_every_query(self):
        a, s, r = builtin_square()
        rng = np.random.default_rng(7)
        for q in all_queries(a):
            for _ in range(6):
                t = play_quantum(a, s, r, q, rng)
                assert t.parity_ok and t.consistency_ok

    def test_pentagram_wins_every_query(self):
        a, s, r = builtin_pentagram()
        rng = np.random.default_rng(11)
        for q in all_queries(a):
            t = play_quantum(a, s, r, q, rng)
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


def dense_win_probability(a, s, r, query, literal=False, bob_order=None):
    """Independent oracle: joint projector expectations on dense matrices.

    No Pauli algebra and no sparse state action: build (I + a*M)/2
    projectors as explicit matrices and take their expectation in the
    maximally entangled state, summed over winning outcome tuples.  Bob's
    projectors are multiplied in ``bob_order`` (default: the line's order).
    """
    import numpy as np

    from pseudotelepathy.pauli import dense_matrix

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


class TestMonteCarlo:
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
