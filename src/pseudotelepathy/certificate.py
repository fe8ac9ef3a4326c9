"""Contraction certificates: replayable proofs that a planar dual forces
even parity.

The state is a collection of signed cyclic words over edge symbols, one word
per surviving node, seeded by a planar rotation system (each node's word is
its incident edge ids in rotation order).  Were a quantum realization of the
signed board to exist, every node's word would multiply, in cyclic order, to
its sign times the identity, and both legal moves preserve that:

* contracting an edge splices its two endpoint words at the edge's
  occurrences and multiplies the signs (the edge's operator squares away);
* cancelling a symbol whose two occurrences sit adjacent in one cyclic word
  deletes both (again an operator squared).

A full replay ending in a single node with an empty word therefore forces
that node's sign, which equals the product of all initial signs, to be +1.
Running the replay with odd-parity signs ends at -1, certifying that no
quantum realization of any odd signing exists.  The checker is adversarial:
it trusts nothing about how the trace was produced and derives the start
state from (g, r, signs) itself, so the certificate is independent of its
generator.  Planarity is needed only for a full replay to exist
(:func:`generate_trace`).

Cost.  The replay state links the 2E symbol occurrences into one cyclic
ring per word (a doubly connected edge list, Muller and Preparata 1978), so
a step finds both occurrences of its symbol in a map and splices or unlinks
them in O(1).  A contract relabels the occurrences of the shorter of its two
words (Hopcroft 1971).  Summed over occurrences, the log of the length of
the word holding each one then gains a constant per relabel (a word of at
most three occurrences aside, O(V) in all), and loses O(log E) per cancel,
so any step order costs O(E log E) relabels.  Generation replays nothing: it
reads the contracted word off one walk round the spanning tree and cancels
it in one stack pass, O(E) in all.  Payloads read from files are
type-checked field by field before any replay (:func:`read_payload`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain, repeat
from math import prod
from operator import itemgetter, ne

from pseudotelepathy.intersection import (
    CoverageError,
    IntersectionGraph,
    RotationSystem,
    check_coverage,
)

CONTRACT = "contract"
CANCEL = "cancel"


class EmbeddingInvalid(ValueError):
    """generate_trace() was handed a disconnected graph or a rotation
    system that is not planar."""


class MalformedCertificate(ValueError):
    """A certificate payload field is missing or has the wrong type."""


class IllegalStep(ValueError):
    """Replay failure at a step index; -1 = the start does not cover the graph."""

    def __init__(self, index: int, reason: str):
        super().__init__(f"step {index}: {reason}")
        self.index = index
        self.reason = reason


@dataclass(frozen=True)
class ContractionTrace:
    """A step list and the claimed final sign; the start comes from (g, r, signs)."""

    steps: tuple[tuple[str, str], ...]
    final_sign: int

    def to_json_dict(self) -> dict:
        return {
            "steps": [{"op": op, ("edge" if op == CONTRACT else "symbol"): arg}
                      for op, arg in self.steps],
            "final_sign": self.final_sign,
        }

    @classmethod
    def from_json_dict(cls, raw) -> "ContractionTrace":
        """Parse a trace, checking every field's type; raises
        :class:`MalformedCertificate` naming the first bad field."""
        entries = _member(raw, "steps", "certificate")
        _expect(isinstance(entries, list), "certificate.steps", "a list")
        steps = []
        for k, entry in enumerate(entries):
            where = f"certificate.steps[{k}]"
            op = _member(entry, "op", where)
            _expect(op in (CONTRACT, CANCEL), f"{where}.op", f"{CONTRACT!r} or {CANCEL!r}")
            key = "edge" if op == CONTRACT else "symbol"
            arg = _member(entry, key, where)
            _expect(isinstance(arg, str), f"{where}.{key}", "a string")
            steps.append((op, arg))
        final_sign = _member(raw, "final_sign", "certificate")
        _expect(_is_sign(final_sign), "certificate.final_sign", "1 or -1")
        return cls(tuple(steps), final_sign)


def _expect(ok: bool, field: str, wanted: str) -> None:
    if not ok:
        raise MalformedCertificate(f"{field} must be {wanted}")


def _member(raw, key: str, field: str):
    """raw[key], where raw must be a JSON object (``field`` "" is the root)."""
    _expect(isinstance(raw, dict), field or "payload", "an object")
    path = f"{field}.{key}" if field else key
    if key not in raw:
        raise MalformedCertificate(f"{path} is missing")
    return raw[key]


def _is_sign(value) -> bool:
    return type(value) is int and value in (1, -1)  # bool is not a sign


def read_payload(raw) -> tuple[ContractionTrace, RotationSystem, dict[str, int]]:
    """Trace, embedding and signs of a ``certify`` / ``decide --certificate``
    file, every field type-checked; raises :class:`MalformedCertificate`.
    Other keys are ignored: an older file's ``certificate.initial`` still checks."""
    embedding = _member(raw, "embedding", "")
    _expect(isinstance(embedding, dict), "embedding", "an object")
    for node, darts in embedding.items():
        _expect(isinstance(darts, list) and all(
            isinstance(d, list) and len(d) == 2 and isinstance(d[0], str)
            and type(d[1]) is int and d[1] in (0, 1) for d in darts),
            f"embedding[{node!r}]", "a list of [edge, 0 or 1] pairs")
    signs = _member(raw, "signs", "")
    _expect(isinstance(signs, dict), "signs", "an object")
    for node, sign in signs.items():
        _expect(_is_sign(sign), f"signs[{node!r}]", "1 or -1")
    trace = ContractionTrace.from_json_dict(_member(raw, "certificate", ""))
    return trace, RotationSystem.from_json_dict(embedding), signs


class _ReplayState:
    """The replay state of :func:`check_trace`, over the 2E occurrences.

    Occurrence k is the k-th dart of the rotations laid end to end.  Each
    node's cyclic word is a ring of occurrences linked by ``succ`` and
    ``pred``, with no first occurrence, and ``node[k]`` is the id of the
    word holding k, at first its node's place in r.  A word's ``sign`` and
    ``length`` sit at its id.  ``first`` and ``second`` give the two
    occurrences of every symbol still present, and ``alive`` the ids of the
    surviving words.
    """

    __slots__ = ("sign", "length", "node", "succ", "pred", "first", "second", "alive")

    def __init__(self, r: RotationSystem, signs: dict[str, int]):
        rot = r.as_dict()
        self.sign = list(map(signs.__getitem__, rot))
        self.length = list(map(len, rot.values()))
        syms = list(map(itemgetter(0), chain.from_iterable(rot.values())))
        total = len(syms)
        self.second = dict(zip(syms, range(total)))
        self.first = dict(zip(reversed(syms), range(total - 1, -1, -1)))
        # no symbol occurs once, and there are half as many symbols as
        # occurrences: so every symbol occurs exactly twice
        if 2 * len(self.first) != total or not all(
                map(ne, map(self.first.__getitem__, self.second), self.second.values())):
            raise IllegalStep(-1, "some symbol does not occur exactly twice")
        self.node = list(chain.from_iterable(map(repeat, range(len(rot)), self.length)))
        self.succ = list(range(1, total + 1))
        self.pred = list(range(-1, total - 1))
        for s, m in zip(accumulate(self.length, initial=0), self.length):
            if m:
                self.succ[s + m - 1], self.pred[s] = s, s + m - 1
        self.alive = set(range(len(rot)))

    def contract(self, edge: str, index: int) -> None:
        """Splice the words at the edge's two occurrences into one word,
        relabelling the occurrences of the shorter word."""
        node = self.node
        x = self.first.get(edge)
        if x is None or node[x] == node[y := self.second[edge]]:
            raise IllegalStep(index, f"edge {edge!r} does not join two distinct nodes")
        del self.first[edge], self.second[edge]
        u, v = node[x], node[y]
        succ, pred = self.succ, self.pred
        sx, px, sy, py = succ[x], pred[x], succ[y], pred[y]
        # u's word with x replaced by v's word from sy round to py
        if sy == y:                     # v's word is the edge alone
            if sx != x:
                succ[px], pred[sx] = sx, px
        elif sx == x:                   # u's word is the edge alone
            succ[py], pred[sy] = sy, py
        else:
            succ[px], pred[sy], succ[py], pred[sx] = sy, px, sx, py
        lu, lv = self.length[u], self.length[v]
        keep, k, moves = (u, sy, lv) if lv <= lu else (v, sx, lu)
        for _ in range(moves - 1):
            node[k] = keep
            k = succ[k]
        self.sign[keep] = self.sign[u] * self.sign[v]
        self.length[keep] = lu + lv - 2
        self.alive.remove(v if keep == u else u)

    def cancel(self, symbol: str, index: int) -> None:
        """Unlink the symbol's two occurrences, which must be cyclically
        adjacent in one word."""
        node = self.node
        x = self.first.get(symbol)
        if x is None or node[x] != node[y := self.second[symbol]]:
            raise IllegalStep(index, f"symbol {symbol!r} does not lie in one node")
        succ, pred = self.succ, self.pred
        if succ[x] == y:
            a, b = x, y
        elif succ[y] == x:
            a, b = y, x
        else:
            raise IllegalStep(index, f"occurrences of {symbol!r} are not adjacent")
        del self.first[symbol], self.second[symbol]
        n, before, after = node[x], pred[a], succ[b]
        succ[before], pred[after] = after, before
        self.length[n] -= 2

    def finished(self) -> bool:
        return len(self.alive) == 1 and not self.length[next(iter(self.alive))]

    def final_sign(self) -> int:
        (n,) = self.alive
        return self.sign[n]


def generate_trace(
    g: IntersectionGraph, r: RotationSystem, signs: dict[str, int]
) -> ContractionTrace:
    """Contract a spanning tree, then cancel adjacent pairs until empty.

    The tree is breadth-first from the smallest node with lexicographic
    tie-breaking, so output is deterministic.  Raises
    :class:`EmbeddingInvalid` unless g is connected and r is planar, and
    :class:`~pseudotelepathy.intersection.CoverageError` when r misses or
    duplicates an edge-end.  Planarity is checked by the cancellation
    itself, without tracing faces: contracting the tree's non-loop edges
    keeps every face, so r is planar exactly when the one word left, a
    chord diagram of the remaining edges, is noncrossing.  The stack pass
    empties a noncrossing word, and leaves a crossing one nonempty: what it
    keeps holds whole pairs, no two adjacent, and an innermost pair of a
    nonempty noncrossing diagram is adjacent.

    Nothing is replayed: one walk reads the contracted word off r from the
    root's first dart, emitting each dart's edge id but descending, at a
    dart of a tree edge whose other end is the edge's child, into the
    child's rotation from just after the child's dart of that edge round to
    just before it.  Contracting tree edge (u, v) puts v's word, so rotated,
    in place of u's occurrence of the edge.  The contracts' order does not
    change the cyclic word, and in discovery order a child's word is still
    its rotation when its edge is contracted.  Each contract joins the root's
    word with a child's, so a replay reading the root's word from its first
    dart, moving on past each dart a contract removes, reads the walk's
    word.  The final sign is the product of all signs.
    """
    if set(signs) != set(g.nodes):
        raise ValueError("signs must cover exactly the graph nodes")
    check_coverage(g, r)
    if not g.nodes or len(g.tree) != len(g.nodes):
        raise EmbeddingInvalid("graph is empty or not connected")
    if len(set(map(itemgetter(0), g.edges))) != len(g.edges):  # r covers g, so twice each
        raise IllegalStep(-1, "some symbol does not occur exactly twice")

    words = {node: list(map(itemgetter(0), darts)) for node, darts in r.rotations}
    child = {eid: node for node, (_, eid) in list(g.tree.items())[1:]}  # the root has no edge
    steps = [(CONTRACT, eid) for eid in child]

    # Walk the word (what is left of it is reversed on ``todo``), cancelling
    # the leftmost adjacent pair each time in one stack pass: after a cancel at
    # i no pair starts before i - 1, so the stack (the reduced prefix) never
    # holds one.
    stack: list[str] = []
    todo = words[next(iter(g.tree))][::-1]  # the root's word
    while todo:
        eid = todo.pop()
        if eid in child:
            word = words[child[eid]]
            k = word.index(eid)
            todo += reversed(word[k + 1:] + word[:k])
        elif stack and stack[-1] == eid:
            stack.pop()
            steps.append((CANCEL, eid))
        else:
            stack.append(eid)
    if stack:
        raise EmbeddingInvalid("rotation system is not planar: its edges cross "
                               "once the spanning tree is contracted")
    return ContractionTrace(tuple(steps), prod(signs.values()))


def check_trace(
    g: IntersectionGraph, r: RotationSystem, signs: dict[str, int], trace: ContractionTrace
) -> int:
    """Adversarial replay; returns the final sign or raises IllegalStep.

    Validates that the rotation covers exactly the graph's edge-ends (the
    words must reflect the true incidence structure) and the signs exactly
    its nodes, that every step replayed from the words (g, r, signs) induce
    is legal, that the end state is a single node with an empty word, and
    that the recorded final sign matches.  Planarity of r is deliberately
    not required: a complete legal replay is sound from any covering start.
    """
    try:
        check_coverage(g, r)
    except CoverageError as err:
        raise IllegalStep(-1, str(err)) from None
    missing, unknown = sorted(set(g.nodes) - set(signs)), sorted(set(signs) - set(g.nodes))
    if missing or unknown:
        raise IllegalStep(-1, f"signs must cover exactly the graph nodes: "
                              f"missing {missing}, unknown {unknown}")
    state = _ReplayState(r, signs)
    for index, (op, arg) in enumerate(trace.steps):
        if op == CONTRACT:
            state.contract(arg, index)
        elif op == CANCEL:
            state.cancel(arg, index)
        else:
            raise IllegalStep(index, f"unknown op {op!r}")
    end = len(trace.steps)
    if not state.finished():
        raise IllegalStep(end, "replay did not end in a single empty word")
    if state.final_sign() != trace.final_sign:
        raise IllegalStep(end, "recorded final sign disagrees with the replay")
    return state.final_sign()
