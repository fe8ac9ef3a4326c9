"""The parity telepathy game: protocol, strategies, and exact win rates.

One round: the referee draws a uniform board vertex v and, uniformly, one of
the two lines e through it.  Alice receives v and answers a single color
f(v) in {+1, -1}; Bob receives e and colors every vertex of e.  They win iff
Bob's colors multiply to e's sign and agree with Alice at v.

A quantum strategy plays a maximally entangled state of n qubit pairs.
Alice measures her half with the realization operator of v; Bob measures his
half with the TRANSPOSE of the operator of each vertex of e.  For the
maximally entangled state, acting with M on one side equals acting with its
transpose on the other, so transposing Bob's operators makes the agreement
at v exact for every realization, with no condition on the eigenvectors
being real; transposition changes neither commutation nor line products
(the reversed transposed product equals the transposed line constraint).
``literal=True`` plays the untransposed operators instead, which is only
perfect when the shared-vertex operator is symmetric.

Win probabilities come in two independent flavors: exact rationals from
symbolic Pauli correlators, and seeded Monte Carlo over sampled rounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from pseudotelepathy.arrangement import Arrangement, ClassicalRealization, Signing
from pseudotelepathy.pauli import (
    DimensionMismatch,
    PauliOperator,
    commutes,
    product_of,
    state_action,
)
from pseudotelepathy.realization import QuantumRealization

ALICE = "alice"
BOB = "bob"

NORM_TOLERANCE = 1e-12


@dataclass(frozen=True)
class Query:
    vertex: str
    hyperedge: str


@dataclass(frozen=True)
class Transcript:
    query: Query
    alice_color: int
    bob_coloring: tuple[tuple[str, int], ...]
    parity_ok: bool
    consistency_ok: bool

    @property
    def won(self) -> bool:
        return self.parity_ok and self.consistency_ok


@dataclass
class SharedState:
    """Amplitudes of Alice's and Bob's halves, indexed [alice, bob]."""

    n_qubits: int
    amplitudes: np.ndarray

    @classmethod
    def maximally_entangled(cls, n_qubits: int) -> "SharedState":
        dim = 1 << n_qubits
        return cls(n_qubits, np.eye(dim, dtype=complex) / math.sqrt(dim))

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def referee_draw(a: Arrangement, rng: np.random.Generator) -> Query:
    """Uniform vertex, then uniform choice among its two lines."""
    vertex = a.vertices[rng.integers(len(a.vertices))]
    hyperedge = a.edges_of_vertex(vertex)[rng.integers(2)]
    return Query(vertex, hyperedge)


def all_queries(a: Arrangement) -> list[Query]:
    return [Query(v, e) for v in a.vertices for e in a.edges_of_vertex(v)]


def _apply(amplitudes: np.ndarray, p: PauliOperator, side: str) -> np.ndarray:
    flip, coeffs = state_action(p)
    dim = coeffs.shape[0]
    out = np.empty_like(amplitudes)
    perm = np.arange(dim) ^ flip
    if side == ALICE:
        out[perm, :] = coeffs[:, None] * amplitudes
    else:
        out[:, perm] = coeffs[None, :] * amplitudes
    return out


def _project(amplitudes: np.ndarray, p: PauliOperator, side: str):
    """Unnormalized projections onto the +-1 eigenspaces of p on one side."""
    acted = _apply(amplitudes, p, side)
    plus = (amplitudes + acted) / 2
    minus = (amplitudes - acted) / 2
    return plus, minus


def measure(
    state: SharedState, p: PauliOperator, side: str, rng: np.random.Generator
) -> tuple[int, SharedState]:
    """Projective measurement of an observable on one side, Born sampled."""
    if p.n_qubits != state.n_qubits:
        raise DimensionMismatch(f"operator on {p.n_qubits} qubits, state on {state.n_qubits}")
    if not p.is_observable():
        raise ValueError(f"{p} is not an observable")
    plus, minus = _project(state.amplitudes, p, side)
    p_plus = float(np.linalg.norm(plus) ** 2)
    p_minus = float(np.linalg.norm(minus) ** 2)
    assert abs(p_plus + p_minus - state.norm() ** 2) < NORM_TOLERANCE
    if rng.random() < p_plus:
        outcome, post, weight = 1, plus, p_plus
    else:
        outcome, post, weight = -1, minus, p_minus
    return outcome, SharedState(state.n_qubits, post / math.sqrt(weight))


def _bob_operator(op: PauliOperator, literal: bool) -> PauliOperator:
    return op if literal else op.transpose()


def play_quantum(
    a: Arrangement,
    s: Signing,
    r: QuantumRealization,
    query: Query,
    rng: np.random.Generator,
    literal: bool = False,
) -> Transcript:
    """One round of the quantum strategy, sampling each measurement."""
    state = SharedState.maximally_entangled(r.n_qubits)
    alice_color, state = measure(state, r.operator(query.vertex), ALICE, rng)
    coloring = {}
    for u in a.members(query.hyperedge):
        outcome, state = measure(state, _bob_operator(r.operator(u), literal), BOB, rng)
        coloring[u] = outcome
    return _score(a, s, query, alice_color, coloring)


def _score(a, s, query, alice_color, coloring) -> Transcript:
    prod = 1
    for u in a.members(query.hyperedge):
        prod *= coloring[u]
    return Transcript(
        query=query,
        alice_color=alice_color,
        bob_coloring=tuple(sorted(coloring.items())),
        parity_ok=prod == s.sign(query.hyperedge),
        consistency_ok=coloring[query.vertex] == alice_color,
    )


@dataclass(frozen=True)
class QuantumStrategy:
    realization: QuantumRealization
    literal: bool = False


@dataclass(frozen=True)
class ClassicalStrategy:
    """Deterministic strategy: Alice's coloring and Bob's per-line colorings."""

    alice: tuple[tuple[str, int], ...]
    bob: tuple[tuple[str, tuple[tuple[str, int], ...]], ...]

    @classmethod
    def from_maps(cls, alice: dict[str, int],
                  bob: dict[str, dict[str, int]]) -> "ClassicalStrategy":
        return cls(
            tuple(sorted(alice.items())),
            tuple(sorted((e, tuple(sorted(c.items()))) for e, c in bob.items())),
        )

    @classmethod
    def from_realization(cls, a: Arrangement, c: ClassicalRealization) -> "ClassicalStrategy":
        labels = c.as_dict()
        bob = {eid: {v: labels[v] for v in members} for eid, members in a.hyperedges}
        return cls.from_maps(labels, bob)

    @classmethod
    def best_response(cls, a: Arrangement, s: Signing,
                      alice: dict[str, int]) -> "ClassicalStrategy":
        """Bob copies Alice and, if a line's parity is off, flips its last vertex."""
        bob = {}
        for eid, members in a.hyperedges:
            coloring = {v: alice[v] for v in members}
            prod = 1
            for v in members:
                prod *= coloring[v]
            if prod != s.sign(eid):
                coloring[members[-1]] = -coloring[members[-1]]
            bob[eid] = coloring
        return cls.from_maps(alice, bob)

    @cached_property
    def _alice_map(self) -> dict[str, int]:
        return dict(self.alice)

    @cached_property
    def _bob_map(self) -> dict[str, tuple[tuple[str, int], ...]]:
        return dict(self.bob)

    def alice_color(self, v: str) -> int:
        return self._alice_map[v]

    def bob_coloring(self, e: str) -> dict[str, int]:
        return dict(self._bob_map[e])


def play_classical(a: Arrangement, s: Signing, strategy: ClassicalStrategy,
                   query: Query) -> Transcript:
    return _score(a, s, query, strategy.alice_color(query.vertex),
                  strategy.bob_coloring(query.hyperedge))


def _trace(p: PauliOperator) -> int:
    """Tr(p) / 2^n of a Pauli observable: +-1 for +-I, otherwise 0."""
    if not p.is_identity():
        return 0
    return 1 if p.phase_exp == 0 else -1


def exact_query_win_probability(
    strategy, a: Arrangement, s: Signing, query: Query
) -> Fraction:
    """Win probability of one query, from Pauli correlators.

    Alice's outcome x and Bob's outcomes b_u win with indicator
    (1 + s prod b_u)(1 + x b_v) / 4.  Bob's observables B_u commute, so the
    outcome statistics do not depend on his order and each product of
    outcomes has the expectation of the product operator; on the maximally
    entangled state <P (x) Q> = Tr(P^T Q) / 2^n.  Hence

        P(win) = (1 + s<I (x) prod B_u> + <A (x) B_v> + s<A (x) prod_{u != v} B_u>) / 4.
    """
    if isinstance(strategy, ClassicalStrategy):
        return Fraction(play_classical(a, s, strategy, query).won)

    members = a.members(query.hyperedge)
    line = [strategy.realization.operator(u) for u in members]
    for op in line:
        if not op.is_observable():
            raise ValueError(f"{op} is not an observable")
    if not all(commutes(p, q) for i, p in enumerate(line) for q in line[i + 1:]):
        raise ValueError(f"operators on line {query.hyperedge!r} do not pairwise commute")
    at = members.index(query.vertex)
    alice_t = line[at].transpose()
    bob = [_bob_operator(op, strategy.literal) for op in line]
    sign = s.sign(query.hyperedge)
    every = _trace(product_of(bob))
    agree = _trace(product_of([alice_t, bob[at]]))
    others = _trace(product_of([alice_t, *bob[:at], *bob[at + 1:]]))
    return Fraction(1 + sign * every + agree + sign * others, 4)


def exact_win_probability(strategy, a: Arrangement, s: Signing) -> Fraction:
    """Average over all queries of the exact per-query win probability."""
    queries = all_queries(a)
    return sum(exact_query_win_probability(strategy, a, s, q) for q in queries) / len(queries)


@dataclass(frozen=True)
class MonteCarloReport:
    rate: float
    ci_low: float
    ci_high: float
    wins: int
    trials: int
    per_query: tuple[tuple[tuple[str, str], float], ...] = field(default=())


def monte_carlo(strategy, a: Arrangement, s: Signing, trials: int,
                seed: int) -> MonteCarloReport:
    """Seeded empirical win rate with a normal-approximation 95% interval."""
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = np.random.default_rng(seed)
    wins = 0
    counts: dict[tuple[str, str], list[int]] = {}
    for _ in range(trials):
        query = referee_draw(a, rng)
        if isinstance(strategy, ClassicalStrategy):
            transcript = play_classical(a, s, strategy, query)
        else:
            transcript = play_quantum(a, s, strategy.realization, query, rng,
                                      strategy.literal)
        won = transcript.won
        wins += won
        bucket = counts.setdefault((query.vertex, query.hyperedge), [0, 0])
        bucket[0] += won
        bucket[1] += 1
    rate = wins / trials
    half = 1.96 * math.sqrt(max(rate * (1 - rate), 0.0) / trials)
    per_query = tuple(sorted((q, w / n) for q, (w, n) in counts.items()))
    return MonteCarloReport(rate, max(rate - half, 0.0), min(rate + half, 1.0),
                            wins, trials, per_query)


def exhaustive_classical_maximum(a: Arrangement, s: Signing) -> tuple[Fraction, ClassicalStrategy]:
    """Best deterministic classical win probability, by complete enumeration.

    Alice ranges over all 2^|V| colorings; for each line Bob's best coloring
    is enumerated over all 2^|e| candidates.  Intended for small boards.
    """
    vertices = list(a.vertices)
    n_queries = 2 * len(vertices)
    best = (Fraction(-1), None)
    for mask in range(1 << len(vertices)):
        alice = {v: 1 - 2 * ((mask >> i) & 1) for i, v in enumerate(vertices)}
        score = 0
        bob = {}
        for eid, members in a.hyperedges:
            target = s.sign(eid)
            line_best, line_coloring = -1, None
            for colors_mask in range(1 << len(members)):
                coloring = {u: 1 - 2 * ((colors_mask >> k) & 1)
                            for k, u in enumerate(members)}
                prod = 1
                for u in members:
                    prod *= coloring[u]
                if prod != target:
                    continue
                agreement = sum(coloring[u] == alice[u] for u in members)
                if agreement > line_best:
                    line_best, line_coloring = agreement, coloring
            score += line_best
            bob[eid] = line_coloring
        value = Fraction(score, n_queries)
        if value > best[0]:
            best = (value, ClassicalStrategy.from_maps(alice, bob))
    return best
