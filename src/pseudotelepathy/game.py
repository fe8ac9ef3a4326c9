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

Win probabilities come in two independent flavors: exact rationals, and
seeded Monte Carlo over sampled rounds.  An exact query's win probability
is 1 plus three signed Pauli correlators, over 4; each correlator is the
trace of a product of (x, z, phase) rows (``pauli.multiply_rows``), 0 or
+-1, so the numerator is an integer.  ``exact_line_win_probabilities``
builds one ``Fraction`` per query of a line, and ``exact_win_probability``
adds the integer numerators of the whole board (a classical query's win
bit counts 4) into one ``Fraction`` over 4 * 2|V|.  Both flavors raise
``CoverageError``, as the verifiers do, for a signing of other lines than
the board's or a strategy with an entry missing or off the board.

A Monte Carlo round is a stabilizer circuit on n Bell pairs (Aaronson and
Gottesman, "Improved simulation of stabilizer circuits", PRA 70, 052328,
2004), so every outcome has the Born probability 0, 1/2 or 1.
``_project``, the one tableau update, keeps each sign as an affine form over
the round's draws: a random outcome is a fresh bit, a determined one a fixed
parity of earlier bits plus a constant.  As Stim samples shots from one
symbolic pass (Gidney, "Stim: a fast stabilizer circuit simulator", Quantum
5, 497, 2021), each query (v, e) is compiled once: with bit i of d set iff
draw i is at least 1/2 (Alice's is draw 0, Bob's follow in line order),
Bob's parity holds iff parity(pm & d) = pc and he agrees with Alice iff
parity(qm & d) = qc.  A quantum strategy holds one such table, signed and
indexed by referee draw, per board and signing (``compiled_game``).  A
round draws what a tableau rerun draws, one ``randrange(2|V|)`` and one
``random()`` per measurement, all from one ``random.Random(seed)``, so
every report equals that of round-by-round play (``play_quantum``).  A
classical query is one win bit, from one product per line, drawn or not.

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
from functools import cached_property, lru_cache, reduce, wraps

from pseudotelepathy.arrangement import (
    Arrangement,
    ClassicalRealization,
    Signing,
    classical_realize,
    parity,
)
from pseudotelepathy.intersection import CoverageError
from pseudotelepathy.pauli import (
    DimensionMismatch,
    PauliOperator,
    Row,
    multiply_rows,
    rows_commute,
    transpose_row,
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


def _query_of(a: Arrangement, k: int) -> tuple[str, str]:
    """The query of referee draw k in [0, 2|V|): vertex k >> 1, on the first
    of its two lines if k is even and the second if it is odd."""
    vertex = a.vertices[k >> 1]
    return vertex, a.edges_of_vertex(vertex)[k & 1]


def referee_draw(a: Arrangement, rng: random.Random) -> Query:
    """Uniform query from one ``rng.randrange(2|V|)`` draw (``_query_of``)."""
    return Query(*_query_of(a, rng.randrange(2 * len(a.vertices))))


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


def _project(state: StabilizerState, masks: list[int], row: Row,
             fresh: int) -> tuple[int, int]:
    """Measure the observable ``row``, with the state's signs affine in the draws.

    Stabilizer i stands for (-1)**parity(masks[i] & d) times
    ``state.stabilizers[i]``, where bit j of d is the outcome bit of draw j.
    The outcome is returned as a form (mask, c): it is -1 iff
    parity(mask & d) xor c.  If the row anticommutes with a stabilizer, the
    outcome is the fresh draw ``fresh`` (a mask of one new bit): the first
    such stabilizer becomes its destabilizer and gives way to the row with
    mask ``fresh``, and the others that anticommute are multiplied by it.
    Otherwise +-row is in the stabilizer group, the product of the
    stabilizers whose destabilizers anticommute with the row, and the
    outcome is the sign of that product.
    """
    x, z, k = row
    if not x | z:  # +-I
        return 0, int(k != 0)
    stabilizers, destabilizers = state.stabilizers, state.destabilizers
    for pivot, (sx, sz, _) in enumerate(stabilizers):
        if ((sx & z) ^ (sz & x)).bit_count() & 1:
            break
    else:
        product, mask = (0, 0, 0), 0
        for (dx, dz), stabilizer, m in zip(destabilizers, stabilizers, masks):
            if ((dx & z) ^ (dz & x)).bit_count() & 1:
                product = multiply_rows(product, stabilizer)
                mask ^= m
        if product[0] != x or product[1] != z:
            raise AssertionError("internal error: a commuting observable is not "
                                 "in the stabilizer group")
        return mask, int(product[2] != k)
    first, first_mask = stabilizers[pivot], masks[pivot]
    for i in range(pivot + 1, len(stabilizers)):
        sx, sz, _ = stabilizers[i]
        if ((sx & z) ^ (sz & x)).bit_count() & 1:
            stabilizers[i] = multiply_rows(stabilizers[i], first)
            masks[i] ^= first_mask
    for i, (dx, dz) in enumerate(destabilizers):
        if ((dx & z) ^ (dz & x)).bit_count() & 1:
            destabilizers[i] = (dx ^ first[0], dz ^ first[1])
    destabilizers[pivot] = first[:2]
    stabilizers[pivot], masks[pivot] = row, fresh
    return fresh, 0


def measure(state: StabilizerState, row: Row, rng: random.Random) -> int:
    """Projective measurement of one observable row, Born sampled; updates ``state``.

    ``_project`` updates the tableau.  One ``rng.random()`` in [0, 1) is
    drawn, and the outcome is +1 iff it is below the exact probability of
    +1 (0, 1/2 or 1).
    """
    masks = [0] * len(state.stabilizers)
    mask, flipped = _project(state, masks, row, 1)
    if not mask:  # every sign of a sampled state is known, so this outcome is fixed
        return 1 if rng.random() < (0.0 if flipped else 1.0) else -1
    if rng.random() < 0.5:
        return 1
    pivot = masks.index(1)  # the measured row, now the stabilizer of the fresh draw
    x, z, k = state.stabilizers[pivot]
    state.stabilizers[pivot] = (x, z, k ^ 2)
    return -1


def _bob_operator(op: PauliOperator, literal: bool) -> PauliOperator:
    return op if literal else op.transpose()


def _rows(strategy: QuantumStrategy, vertex: str) -> tuple[Row, Row]:
    """The vertex's Alice row and Bob row (transposed unless ``literal``).

    Raises ``DimensionMismatch`` for an operator of the wrong width and
    ``ValueError`` for one that is not an observable.
    """
    op, n = strategy.realization.operator(vertex), strategy.realization.n_qubits
    return _row(op, ALICE, n), _row(_bob_operator(op, strategy.literal), BOB, n)


def play_quantum(a: Arrangement, s: Signing, strategy: QuantumStrategy, query: Query,
                 rng: random.Random) -> Transcript:
    """One round of the quantum strategy, sampling each measurement."""
    state = StabilizerState.maximally_entangled(strategy.realization.n_qubits)
    alice_color = measure(state, _rows(strategy, query.vertex)[0], rng)
    coloring = {u: measure(state, _rows(strategy, u)[1], rng)
                for u in a.members(query.hyperedge)}
    return _score(a, s, query, alice_color, coloring)


def _compile_line(strategy: QuantumStrategy,
                  members: tuple[str, ...]) -> tuple[tuple[int, int, int, int], ...]:
    """The affine forms (pm, qm, pc, qc) (module docstring) of the queries
    of one line, one per member in order, from one symbolic pass each."""
    rows = [_rows(strategy, u) for u in members]
    queries = []
    for j, (alice, _) in enumerate(rows):
        state = StabilizerState.maximally_entangled(strategy.realization.n_qubits)
        masks = [0] * len(state.stabilizers)
        forms = [_project(state, masks, row, 1 << i)
                 for i, row in enumerate([alice] + [bob for _, bob in rows])]
        pm = pc = 0
        for mask, c in forms[1:]:
            pm, pc = pm ^ mask, pc ^ c
        qm, qc = forms[0][0] ^ forms[j + 1][0], forms[0][1] ^ forms[j + 1][1]
        queries.append((pm, qm, pc, qc))
    return tuple(queries)


def _parity_ok(coloring, members, sign) -> bool:
    """The referee's parity check: Bob's colors of a line's members multiply
    to the line's sign."""
    prod = 1
    for u in members:
        prod *= coloring[u]
    return prod == sign


def _score(a, s, query, alice_color, coloring) -> Transcript:
    """The referee's two checks: the line's parity, and Bob agreeing with
    Alice at the shared vertex."""
    return Transcript(query, alice_color, tuple(sorted(coloring.items())),
                      _parity_ok(coloring, a.members(query.hyperedge), s.sign(query.hyperedge)),
                      coloring[query.vertex] == alice_color)


def _check_signing(a: Arrangement, s: Signing) -> None:
    """``CoverageError`` unless s signs exactly the board's lines."""
    lines, signed = a._member_map.keys(), s._sign_map.keys()
    if lines != signed:
        raise CoverageError(f"no sign for lines {sorted(lines - signed)}" if lines - signed
                            else f"signs for ids that are not lines {sorted(signed - lines)}")


def _covered(play):
    """``play(strategy, a, s, ...)`` raising a ``CoverageError`` that names, sorted,
    what s or the strategy misses or, by counts, holds for ids off the board."""
    @wraps(play)
    def covered(strategy, a: Arrangement, s: Signing, *args, **kwargs):
        quantum = isinstance(strategy, QuantumStrategy)  # held[v] is Alice's answer at v
        held = strategy.realization._operator_map if quantum else strategy._alice_map
        try:
            result = play(strategy, a, s, *args, **kwargs)
        except KeyError:
            _check_signing(a, s)
            if missing := set(a.vertices) - held.keys():
                what = "operator for vertices" if quantum else "color from Alice for vertices"
            elif not quantum:
                what, bob = "coloring from Bob of all members of lines", strategy._bob_map
                missing = {e for e, m in a.hyperedges if not bob.get(e, {}).keys() >= set(m)}
            if missing:
                raise CoverageError(f"no {what} {sorted(missing)}") from None
            raise
        if len(held) != len(a.vertices) and (extra := held.keys() - a.vertices):
            raise CoverageError(f"{'operators' if quantum else 'colors from Alice'} for ids "
                                f"that are not vertices {sorted(extra)}")
        if not quantum and len(strategy._bob_map) != len(a.hyperedges) and (
                extra := strategy._bob_map.keys() - a._member_map):
            raise CoverageError(f"colorings from Bob for ids that are not lines {sorted(extra)}")
        return result
    return covered


@dataclass(frozen=True)
class QuantumStrategy:
    realization: QuantumRealization
    literal: bool = False

    @cached_property
    def _games(self) -> dict[tuple[Arrangement, Signing], tuple[tuple, ...]]:
        return {}  # filled by compiled_game, keyed by value, with whole tables only

    def compiled_game(self, a: Arrangement, s: Signing) -> tuple[tuple, ...]:
        """The query of each referee draw k (``_query_of``) as (the draws'
        bits, pm, qm, pc, qc) with the line's sign folded into pc, from one
        ``_compile_line`` per line; memoized per board and signing."""
        table = self._games.get((a, s))
        if table is None:
            draw = {v: 2 * i for i, v in enumerate(a.vertices)}
            table = [None] * (2 * len(draw))
            for eid, members in a.hyperedges:
                bits = tuple(1 << i for i in range(len(members) + 1))
                flip = s.sign(eid) == -1
                for v, (pm, qm, pc, qc) in zip(members, _compile_line(self, members)):
                    table[draw[v] + (a.edges_of_vertex(v)[1] == eid)] = bits, pm, qm, pc ^ flip, qc
            table = self._games[a, s] = tuple(table)
        return table


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
            if not _parity_ok(coloring, members, s.sign(eid)):
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


def _classical_line_wins(strategy: ClassicalStrategy, s: Signing, hyperedge: str,
                         members: tuple[str, ...]) -> list[bool]:
    """The win bit of each query on one line, in member order: the referee's
    two checks (``_score``) at every member, Bob's product formed once."""
    coloring, alice = strategy._bob_map[hyperedge], strategy._alice_map
    parity_ok = _parity_ok(coloring, members, s.sign(hyperedge))
    if len(coloring) != len(members):  # every member was looked up
        raise CoverageError(f"colors from Bob on line {hyperedge!r} for ids that are not "
                            f"its members {sorted(coloring.keys() - members)}")
    return [coloring[v] == alice[v] and parity_ok for v in members]


def _line_rows(strategy: QuantumStrategy, hyperedge: str,
               members: tuple[str, ...]) -> list[Row]:
    """The rows of the line's operators, in member order, once each operator
    in turn is on ``n_qubits`` qubits and an observable (``_row``'s checks)
    and every two commute; otherwise ``DimensionMismatch`` or ``ValueError``."""
    n = strategy.realization.n_qubits
    rows = [_row(strategy.realization.operator(u), ALICE, n) for u in members]
    for i, p in enumerate(rows):
        for q in rows[i + 1:]:
            if not rows_commute(p, q):
                raise ValueError(f"operators on line {hyperedge!r} do not pairwise commute")
    return rows


def _line_numerators(strategy, a: Arrangement, s: Signing,
                     hyperedge: str) -> tuple[tuple[str, ...], list[int]]:
    """The line's members and, in member order, 4 times the win probability
    of each member's query (``exact_line_win_probabilities``)."""
    members = a.members(hyperedge)
    if isinstance(strategy, ClassicalStrategy):
        return members, [4 * won for won in _classical_line_wins(strategy, s, hyperedge,
                                                                 members)]
    rows = _line_rows(strategy, hyperedge, members)
    bob = rows if strategy.literal else [transpose_row(row) for row in rows]
    bob_all = reduce(multiply_rows, bob)
    sign = s.sign(hyperedge)
    every = sign * _correlator(bob_all)
    numerators = []
    for row, bob_v in zip(rows, bob):
        agree = multiply_rows(transpose_row(row), bob_v)
        numerators.append(1 + every + _correlator(agree)
                          + sign * _correlator(multiply_rows(agree, bob_all)))
    return members, numerators


def _correlator(p: Row) -> int:
    """Tr(P) / 2^n of a Pauli observable row: +-1 for +-I, otherwise 0."""
    if p[0] | p[1]:
        return 0
    return 1 if p[2] == 0 else -1


@_covered
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

    where prod_{u != v} B_u = B_v prod B_u, as each B_u squares to I.  Each
    correlator is the trace of a product of Pauli rows (``multiply_rows``),
    0 or +-1, so a query's win probability is an integer numerator over 4.
    The line's operators are read and checked once, and prod B_u formed
    once, for all of its queries; the line builds one ``Fraction`` per query.
    A hyperedge that is not a line of the board raises ``CoverageError``.
    """
    try:
        members, numerators = _line_numerators(strategy, a, s, hyperedge)
    except KeyError:
        if hyperedge not in a._member_map:
            raise CoverageError(f"no line {hyperedge!r} on the board") from None
        raise
    return {v: Fraction(n, 4) for v, n in zip(members, numerators)}


def exact_query_win_probability(
    strategy, a: Arrangement, s: Signing, query: Query
) -> Fraction:
    """Win probability of one query, from Pauli correlators; a vertex that
    is not on the query's line raises ``CoverageError``."""
    line = exact_line_win_probabilities(strategy, a, s, query.hyperedge)
    try:
        return line[query.vertex]
    except KeyError:
        raise CoverageError(
            f"vertex {query.vertex!r} is not on line {query.hyperedge!r}") from None


@_covered
def exact_win_probability(strategy, a: Arrangement, s: Signing) -> Fraction:
    """Average over all queries of the exact per-query win probability: the
    integer numerators of every line added up, and one ``Fraction`` over
    4 * 2|V| for the board."""
    _check_signing(a, s)
    total = sum(sum(_line_numerators(strategy, a, s, eid)[1]) for eid in a.hyperedge_ids())
    return Fraction(total, 8 * len(a.vertices))


@dataclass(frozen=True)
class MonteCarloReport:
    rate: float
    ci_low: float
    ci_high: float
    wins: int
    trials: int
    per_query: tuple[tuple[tuple[str, str], float], ...] = field(default=())


@_covered
def monte_carlo(strategy, a: Arrangement, s: Signing, trials: int,
                seed: int) -> MonteCarloReport:
    """Seeded empirical win rate with a normal-approximation 95% interval.

    Every draw comes from ``random.Random(seed)``.  A negative seed is
    refused, since ``random.Random(-n)`` would replay the draws of n.  A
    round plays its query compiled (module docstring): a classical one is
    a win bit, a quantum one the affine forms of the referee's two checks.
    A strategy's table or win bits are whole before the first round, so an
    operator that cannot be measured or any missing entry raises whatever is drawn.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if seed < 0:
        raise ValueError(f"seed must be at least 0, got {seed}")
    _check_signing(a, s)
    rng = random.Random(seed)
    randrange, queries = rng.randrange, 2 * len(a.vertices)
    hits = [0] * queries
    if isinstance(strategy, ClassicalStrategy):
        for _ in range(trials):
            hits[randrange(queries)] += 1
        lines = {e: dict(zip(members, _classical_line_wins(strategy, s, e, members)))
                 for e, members in a.hyperedges}
        wins = [0] * queries
        for k, n in enumerate(hits):
            if n:
                v, e = _query_of(a, k)
                wins[k] = n * lines[e][v]
    else:
        table = strategy.compiled_game(a, s)
        draw, wins = rng.random, [0] * queries
        for _ in range(trials):
            k = randrange(queries)
            bits, pm, qm, pc, qc = table[k]
            d = 0
            for bit in bits:
                if draw() >= 0.5:
                    d |= bit
            hits[k] += 1
            if (pm & d).bit_count() & 1 == pc and (qm & d).bit_count() & 1 == qc:
                wins[k] += 1
    total = sum(wins)
    rate = total / trials
    half = 1.96 * math.sqrt(max(rate * (1 - rate), 0.0) / trials)
    per_query = tuple(sorted((_query_of(a, k), w / n)
                             for k, (w, n) in enumerate(zip(wins, hits)) if n))
    return MonteCarloReport(rate, max(rate - half, 0.0), min(rate + half, 1.0),
                            total, trials, per_query)
