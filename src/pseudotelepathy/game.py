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
A sampled round is a stabilizer simulation (Aaronson and Gottesman,
"Improved simulation of stabilizer circuits", PRA 70, 052328, 2004): the
state starts as n Bell pairs and every measurement is a Pauli observable,
so each outcome has the exact Born probability 0, 1/2 or 1, computed with
integer bit operations on a tableau of the 2n qubits.  Every draw, the
referee's and each measurement's, comes from one ``random.Random(seed)``.

The best classical win probability needs no search: it is 1 for an even
signing and 1 - 1/(2|V|) for an odd one (``classical_value``).  Bob's best
reply to Alice's labels loses exactly one query on each line whose product
misses its sign, and as every vertex lies on two lines, the number of such
lines has the signing's parity.  The dual is connected, so ``flip_set``
reaches any set of lines of that parity, one line included
(``ClassicalStrategy.optimal``).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache

from pseudotelepathy.arrangement import (
    Arrangement,
    ClassicalRealization,
    Signing,
    classical_realize,
    parity,
)
from pseudotelepathy.pauli import (
    DimensionMismatch,
    PauliOperator,
    Row,
    commutes,
    multiply_rows,
    product_of,
)
from pseudotelepathy.realization import QuantumRealization

ALICE = "alice"
BOB = "bob"


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


def referee_draw(a: Arrangement, rng: random.Random) -> Query:
    """Uniform query from one ``rng.randrange(2|V|)`` draw k: vertex k >> 1,
    and the first of its two lines if k is even, the second if it is odd."""
    k = rng.randrange(2 * len(a.vertices))
    vertex = a.vertices[k >> 1]
    return Query(vertex, a.edges_of_vertex(vertex)[k & 1])


def all_queries(a: Arrangement) -> list[Query]:
    return [Query(v, e) for v in a.vertices for e in a.edges_of_vertex(v)]


def _row(p: PauliOperator, side: str, n_qubits: int) -> Row:
    """The observable p on one side of the 2n-qubit state, as a tableau row."""
    if p.n_qubits != n_qubits:
        raise DimensionMismatch(f"operator on {p.n_qubits} qubits, state on {n_qubits}")
    if not p.is_observable():
        raise ValueError(f"{p} is not an observable")
    shift = 0 if side == ALICE else n_qubits
    return p.x << shift, p.z << shift, p.phase_exp


@dataclass
class StabilizerState:
    """Alice's and Bob's 2n qubits as a stabilizer tableau.

    Alice's qubit k is bit k of a row's masks and Bob's qubit k is bit n + k.
    ``stabilizers`` generate the state's stabilizer group, and
    ``destabilizers[i]`` anticommutes with ``stabilizers[i]`` and commutes
    with every other row of both lists.  No outcome depends on a
    destabilizer's phase, so only its masks are kept.
    """

    n_qubits: int
    stabilizers: list[Row]
    destabilizers: list[tuple[int, int]]

    @classmethod
    def maximally_entangled(cls, n_qubits: int) -> "StabilizerState":
        """n Bell pairs: stabilizers X_k X_k' and Z_k Z_k', destabilizers Z_k and X_k'.

        This is the state with (P (x) P^T)|Phi> = |Phi> for every P.
        """
        stabilizers, destabilizers = _bell_pairs(n_qubits)
        return cls(n_qubits, list(stabilizers), list(destabilizers))


@lru_cache(maxsize=None)  # tuples, so the one cached start cannot be changed by a round
def _bell_pairs(n_qubits: int) -> tuple[tuple[Row, ...], tuple[tuple[int, int], ...]]:
    pairs = [(1 | 1 << n_qubits) << k for k in range(n_qubits)]
    return (tuple([(m, 0, 0) for m in pairs] + [(0, m, 0) for m in pairs]),
            tuple([(0, 1 << k) for k in range(n_qubits)]
                  + [(1 << (n_qubits + k), 0) for k in range(n_qubits)]))


def measure(state: StabilizerState, row: Row, rng: random.Random) -> int:
    """Projective measurement of one observable row, Born sampled; updates ``state``.

    If the row anticommutes with a stabilizer, each outcome has probability
    1/2: the first such stabilizer becomes its destabilizer and gives way to
    the measured row, and the others that anticommute are multiplied by it.
    Otherwise +-row is in the stabilizer group, and it is the product of the
    stabilizers whose destabilizers anticommute with the row.  Either way
    one ``rng.random()`` in [0, 1) is drawn, and the outcome is +1 iff it is
    below the exact probability of +1 (0, 1/2 or 1).
    """
    x, z, k = row
    if not x | z:  # +-I: nothing to update
        return 1 if rng.random() < (1.0 if k == 0 else 0.0) else -1
    stabilizers, destabilizers = state.stabilizers, state.destabilizers
    for pivot, (sx, sz, _) in enumerate(stabilizers):
        if ((sx & z) ^ (sz & x)).bit_count() & 1:
            break
    else:
        product = (0, 0, 0)
        for (dx, dz), stabilizer in zip(destabilizers, stabilizers):
            if ((dx & z) ^ (dz & x)).bit_count() & 1:
                product = multiply_rows(product, stabilizer)
        if product[0] != x or product[1] != z:
            raise AssertionError("internal error: a commuting observable is not "
                                 "in the stabilizer group")
        return 1 if rng.random() < (1.0 if product[2] == k else 0.0) else -1
    first = stabilizers[pivot]
    for i in range(pivot + 1, len(stabilizers)):
        sx, sz, _ = stabilizers[i]
        if ((sx & z) ^ (sz & x)).bit_count() & 1:
            stabilizers[i] = multiply_rows(stabilizers[i], first)
    for i, (dx, dz) in enumerate(destabilizers):
        if ((dx & z) ^ (dz & x)).bit_count() & 1:
            destabilizers[i] = (dx ^ first[0], dz ^ first[1])
    destabilizers[pivot] = first[:2]
    outcome = 1 if rng.random() < 0.5 else -1
    stabilizers[pivot] = (x, z, k if outcome == 1 else k ^ 2)
    return outcome


def _bob_operator(op: PauliOperator, literal: bool) -> PauliOperator:
    return op if literal else op.transpose()


def play_quantum(a: Arrangement, s: Signing, strategy: QuantumStrategy, query: Query,
                 rng: random.Random) -> Transcript:
    """One round of the quantum strategy, sampling each measurement."""
    return _score(a, s, query, *_measure_round(a, strategy, query, rng))


def _measure_round(a, strategy, query, rng) -> tuple[int, dict[str, int]]:
    """Alice's outcome and Bob's coloring in one sampled quantum round."""
    rows = strategy.rows
    state = StabilizerState.maximally_entangled(strategy.realization.n_qubits)
    alice_color = measure(state, rows[query.vertex][0], rng)
    coloring = {u: measure(state, rows[u][1], rng) for u in a.members(query.hyperedge)}
    return alice_color, coloring


def _judge(a, s, query, alice_color, coloring) -> tuple[bool, bool]:
    """The referee's two checks: Bob's colors multiply to the line's sign,
    and Bob agrees with Alice at the shared vertex."""
    prod = 1
    for u in a.members(query.hyperedge):
        prod *= coloring[u]
    return prod == s.sign(query.hyperedge), coloring[query.vertex] == alice_color


def _score(a, s, query, alice_color, coloring) -> Transcript:
    parity_ok, consistency_ok = _judge(a, s, query, alice_color, coloring)
    return Transcript(query, alice_color, tuple(sorted(coloring.items())),
                      parity_ok, consistency_ok)


@dataclass(frozen=True)
class QuantumStrategy:
    realization: QuantumRealization
    literal: bool = False

    @cached_property
    def rows(self) -> dict[str, tuple[Row, Row]]:
        """Each vertex's Alice row and Bob row (transposed unless ``literal``).

        Raises ``DimensionMismatch`` for an operator of the wrong width and
        ``ValueError`` for one that is not an observable.
        """
        n = self.realization.n_qubits
        return {v: (_row(op, ALICE, n), _row(_bob_operator(op, self.literal), BOB, n))
                for v, op in self.realization.operators}


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

    @classmethod
    def optimal(cls, a: Arrangement, s: Signing) -> "ClassicalStrategy":
        """A strategy that wins ``classical_value(a, s)``, built in O(V): Alice
        realizes s, with the smallest line's sign flipped if the parity is
        odd, and Bob's best response loses one query of that one line."""
        signs = s.as_dict()
        if parity(s) == -1:
            first = a.hyperedges[0][0]
            signs[first] = -signs[first]
        labels = classical_realize(a, Signing.from_dict(signs))
        return cls.best_response(a, s, labels.as_dict())

    @cached_property
    def _alice_map(self) -> dict[str, int]:
        return dict(self.alice)

    @cached_property
    def _bob_map(self) -> dict[str, dict[str, int]]:
        return {e: dict(coloring) for e, coloring in self.bob}

    def alice_color(self, v: str) -> int:
        return self._alice_map[v]

    def bob_coloring(self, e: str) -> dict[str, int]:
        return dict(self._bob_map[e])


def play_classical(a: Arrangement, s: Signing, strategy: ClassicalStrategy,
                   query: Query) -> Transcript:
    return _score(a, s, query, strategy.alice_color(query.vertex),
                  strategy.bob_coloring(query.hyperedge))


def classical_value(a: Arrangement, s: Signing) -> Fraction:
    """The best classical win probability: 1, or 1 - 1/(2|V|) for odd parity."""
    return Fraction(1) if parity(s) == 1 else 1 - Fraction(1, 2 * len(a.vertices))


def _trace(p: PauliOperator) -> int:
    """Tr(p) / 2^n of a Pauli observable: +-1 for +-I, otherwise 0."""
    if not p.is_identity():
        return 0
    return 1 if p.phase_exp == 0 else -1


def exact_line_win_probabilities(
    strategy, a: Arrangement, s: Signing, hyperedge: str
) -> dict[str, Fraction]:
    """Win probability of every query on one line, keyed by its vertex.

    Alice's outcome x and Bob's outcomes b_u win with indicator
    (1 + s prod b_u)(1 + x b_v) / 4.  Bob's observables B_u commute, so the
    outcome statistics do not depend on his order and each product of
    outcomes has the expectation of the product operator; on the maximally
    entangled state <P (x) Q> = Tr(P^T Q) / 2^n.  Hence

        P(win) = (1 + s<I (x) prod B_u> + <A (x) B_v> + s<A (x) prod_{u != v} B_u>) / 4,

    where prod_{u != v} B_u = B_v prod B_u, as each B_u squares to I.  The
    line's commutation is checked, and prod B_u formed, once for all of its
    queries.
    """
    members = a.members(hyperedge)
    if isinstance(strategy, ClassicalStrategy):
        coloring = strategy._bob_map[hyperedge]
        return {v: Fraction(all(_judge(a, s, Query(v, hyperedge), strategy._alice_map[v],
                                       coloring)))
                for v in members}

    line = [strategy.realization.operator(u) for u in members]
    for op in line:
        if not op.is_observable():
            raise ValueError(f"{op} is not an observable")
    if not all(commutes(p, q) for i, p in enumerate(line) for q in line[i + 1:]):
        raise ValueError(f"operators on line {hyperedge!r} do not pairwise commute")
    bob = [_bob_operator(op, strategy.literal) for op in line]
    bob_all = product_of(bob)
    sign = s.sign(hyperedge)
    every = _trace(bob_all)
    out = {}
    for v, op, bob_v in zip(members, line, bob):
        alice_t = op.transpose()
        agree = _trace(product_of([alice_t, bob_v]))
        others = _trace(product_of([alice_t, bob_v, bob_all]))
        out[v] = Fraction(1 + sign * every + agree + sign * others, 4)
    return out


def exact_query_win_probability(
    strategy, a: Arrangement, s: Signing, query: Query
) -> Fraction:
    """Win probability of one query, from Pauli correlators."""
    return exact_line_win_probabilities(strategy, a, s, query.hyperedge)[query.vertex]


def exact_win_probability(strategy, a: Arrangement, s: Signing) -> Fraction:
    """Average over all queries of the exact per-query win probability."""
    total = sum(sum(exact_line_win_probabilities(strategy, a, s, eid).values())
                for eid in a.hyperedge_ids())
    return total / (2 * len(a.vertices))


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
    """Seeded empirical win rate with a normal-approximation 95% interval.

    Every draw comes from ``random.Random(seed)``.  A negative seed is
    refused, since ``random.Random(-n)`` would replay the draws of n.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if seed < 0:
        raise ValueError(f"seed must be at least 0, got {seed}")
    rng = random.Random(seed)
    classical = isinstance(strategy, ClassicalStrategy)
    wins = 0
    counts: dict[tuple[str, str], list[int]] = {}
    for _ in range(trials):
        query = referee_draw(a, rng)
        # only the win bit counts, so no Transcript and no copied coloring
        if classical:
            alice_color = strategy._alice_map[query.vertex]
            coloring = strategy._bob_map[query.hyperedge]
        else:
            alice_color, coloring = _measure_round(a, strategy, query, rng)
        won = all(_judge(a, s, query, alice_color, coloring))
        wins += won
        bucket = counts.setdefault((query.vertex, query.hyperedge), [0, 0])
        bucket[0] += won
        bucket[1] += 1
    rate = wins / trials
    half = 1.96 * math.sqrt(max(rate * (1 - rate), 0.0) / trials)
    per_query = tuple(sorted((q, w / n) for q, (w, n) in counts.items()))
    return MonteCarloReport(rate, max(rate - half, 0.0), min(rate + half, 1.0),
                            wins, trials, per_query)
