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
generator.  Planarity is only needed to guarantee a full replay exists:
contracting a spanning tree of a planar embedding leaves one node whose
word is a noncrossing chord diagram, and a noncrossing diagram always has
an adjacent pair to cancel.

Cost.  The replay state links the 2E symbol occurrences into one cyclic
ring per word (a doubly connected edge list, Muller and Preparata 1978), so
a step finds both occurrences of its symbol in a map and splices or unlinks
them in O(1).  A contract relabels the occurrences of the shorter of its two
words (Hopcroft 1971).  Summed over occurrences, the log of the length of
the word holding each one then gains a constant per relabel (a word of at
most three occurrences aside, O(V) in all), and loses O(log E) per cancel,
so any step order costs O(E log E) relabels.  A generated trace contracts a
breadth-first tree into the root's word and relabels at most the incoming
word's occurrences each time, O(E) in all; generation then cancels the one
remaining word in one stack pass, O(E).  Payloads read from files are
type-checked field by field before any replay (:func:`read_payload`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain, repeat
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
    """Mutable replay state over the 2E symbol occurrences of (r, signs).

    Occurrence k is the k-th dart of the rotations laid end to end, with
    symbol ``syms[k]``.  Each node's cyclic word is a ring of occurrences
    linked by ``succ`` and ``pred``, and ``node[k]`` is the id of the word
    holding k.  A word's record (``name``, ``sign``, ``length``, ``start``)
    sits at its id; ``start`` is the occurrence that the word, written as a
    list, begins at (stale once the word is empty).  A node's name is the
    least original name in its merged set.  ``first`` and ``second`` give
    the two occurrences of every symbol still present, and ``alive`` the ids
    of the surviving words.
    """

    __slots__ = ("syms", "name", "sign", "length", "start", "node", "succ", "pred",
                 "first", "second", "alive")

    def __init__(self, r: RotationSystem, signs: dict[str, int]):
        rot = r.as_dict()
        self.name: list[str | None] = list(rot)
        self.sign = list(map(signs.__getitem__, self.name))
        self.length = list(map(len, rot.values()))
        syms = list(map(itemgetter(0), chain.from_iterable(rot.values())))
        total = len(syms)
        self.syms = syms
        self.second = dict(zip(syms, range(total)))
        self.first = dict(zip(reversed(syms), range(total - 1, -1, -1)))
        # no symbol occurs once, and there are half as many symbols as
        # occurrences: so every symbol occurs exactly twice
        if 2 * len(self.first) != total or not all(
                map(ne, map(self.first.__getitem__, self.second), self.second.values())):
            raise IllegalStep(-1, "some symbol does not occur exactly twice")
        self.node = list(chain.from_iterable(map(repeat, range(len(self.name)), self.length)))
        self.succ = list(range(1, total + 1))
        self.pred = list(range(-1, total - 1))
        self.start = list(accumulate(self.length, initial=0))[:-1]
        for s, m in zip(self.start, self.length):
            if m:
                self.succ[s + m - 1], self.pred[s] = s, s + m - 1
        self.alive = set(range(len(self.name)))

    def contract(self, edge: str, index: int) -> None:
        """Splice the words at the edge's two occurrences into the word of
        the smaller name, relabelling the occurrences of the shorter word."""
        node = self.node
        x = self.first.get(edge)
        if x is None or node[x] == node[y := self.second[edge]]:
            raise IllegalStep(index, f"edge {edge!r} does not join two distinct nodes")
        del self.first[edge], self.second[edge]
        u, v, name = node[x], node[y], self.name
        if name[v] < name[u]:
            x, y, u, v = y, x, v, u
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
        start = self.start[u]
        if start == x:
            start = sy if sy != y else sx
        lu, lv = self.length[u], self.length[v]
        keep, k, moves = (u, sy, lv) if lv <= lu else (v, sx, lu)
        for _ in range(moves - 1):
            node[k] = keep
            k = succ[k]
        gone = v if keep == u else u
        name[keep], name[gone] = name[u], None
        self.sign[keep] = self.sign[u] * self.sign[v]
        self.length[keep], self.start[keep] = lu + lv - 2, start
        self.alive.remove(gone)

    def cancel(self, symbol: str, index: int) -> None:
        """Unlink the symbol's two occurrences, which must be cyclically
        adjacent in one word; a start among them moves past them."""
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
        if self.start[n] in (a, b):
            self.start[n] = after

    def word(self, n: int) -> list[str]:
        """Node n's word as a list from its start occurrence."""
        syms, succ, out = self.syms, self.succ, []
        k = self.start[n]
        for _ in range(self.length[n]):
            out.append(syms[k])
            k = succ[k]
        return out

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
    """
    if set(signs) != set(g.nodes):
        raise ValueError("signs must cover exactly the graph nodes")
    check_coverage(g, r)
    if not g.nodes or len(g.tree) != len(g.nodes):
        raise EmbeddingInvalid("graph is empty or not connected")

    state = _ReplayState(r, signs)
    steps: list[tuple[str, str]] = []

    for _, eid in list(g.tree.values())[1:]:  # the root comes first, with no edge
        steps.append((CONTRACT, eid))
        state.contract(eid, len(steps) - 1)

    # Cancel the leftmost adjacent pair each time, in one stack pass: after a
    # cancel at i no pair starts before i - 1, so the stack (the reduced
    # prefix) never holds one.
    (root,) = state.alive
    word = state.word(root)
    stack: list[str] = []
    for sym in word:
        if stack and stack[-1] == sym:
            stack.pop()
            steps.append((CANCEL, sym))
        else:
            stack.append(sym)
    if stack:
        raise EmbeddingInvalid("rotation system is not planar: its edges cross "
                               "once the spanning tree is contracted")

    return ContractionTrace(tuple(steps), state.final_sign())


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
