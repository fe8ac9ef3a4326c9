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
it trusts nothing about how the trace was produced, so the certificate is
independent of its generator.  Planarity is only needed to guarantee a full
replay exists: contracting a spanning tree of a planar embedding leaves one
node whose word is a noncrossing chord diagram, and a noncrossing diagram
always has an adjacent pair to cancel.

Cost.  The replay state maps each symbol to the nodes holding it, so a step
locates its words in O(1) and its positions with ``list.index``; a contract
also relabels the absorbed word's symbols, O(length of that word).
Generation contracts a breadth-first tree into the smallest node (so each
contract relabels only the small incoming word) and then cancels the single
remaining word in one stack pass, O(E).  Payloads read from files are
type-checked field by field before any replay (:func:`read_payload`).
"""

from __future__ import annotations

from dataclasses import dataclass

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
    """Replay failure, carrying the offending step index (-1 = initial state)."""

    def __init__(self, index: int, reason: str):
        super().__init__(f"step {index}: {reason}")
        self.index = index
        self.reason = reason


@dataclass(frozen=True)
class ContractionTrace:
    """Initial signed words, a step list, and the claimed final sign."""

    initial_words: tuple[tuple[str, tuple[str, ...]], ...]
    initial_signs: tuple[tuple[str, int], ...]
    steps: tuple[tuple[str, str], ...]
    final_sign: int

    def to_json_dict(self) -> dict:
        return {
            "initial": {
                "rotation": {n: list(w) for n, w in self.initial_words},
                "signs": dict(self.initial_signs),
            },
            "steps": [{"op": op, ("edge" if op == CONTRACT else "symbol"): arg}
                      for op, arg in self.steps],
            "final_sign": self.final_sign,
        }

    @classmethod
    def from_json_dict(cls, raw) -> "ContractionTrace":
        """Parse a trace, checking every field's type; raises
        :class:`MalformedCertificate` naming the first bad field."""
        initial = _member(raw, "initial", "certificate")
        rotation = _member(initial, "rotation", "certificate.initial")
        _expect(isinstance(rotation, dict), "certificate.initial.rotation", "an object")
        for node, word in rotation.items():
            _expect(isinstance(word, list) and all(isinstance(sym, str) for sym in word),
                    f"certificate.initial.rotation[{node!r}]", "a list of strings")
        signs = _read_signs(_member(initial, "signs", "certificate.initial"),
                            "certificate.initial.signs")
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
        return cls(tuple(sorted((n, tuple(w)) for n, w in rotation.items())),
                   tuple(sorted(signs.items())), tuple(steps), final_sign)


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


def _read_signs(raw, field: str) -> dict[str, int]:
    """A JSON object of node signs, each the int 1 or -1."""
    _expect(isinstance(raw, dict), field, "an object")
    for node, sign in raw.items():
        _expect(_is_sign(sign), f"{field}[{node!r}]", "1 or -1")
    return dict(raw)


def read_payload(raw) -> tuple[ContractionTrace, RotationSystem, dict[str, int]]:
    """Trace, embedding and signs of a ``certify`` / ``decide --certificate``
    file, every field type-checked; raises :class:`MalformedCertificate`."""
    embedding = _member(raw, "embedding", "")
    _expect(isinstance(embedding, dict), "embedding", "an object")
    for node, darts in embedding.items():
        _expect(isinstance(darts, list) and all(
            isinstance(d, list) and len(d) == 2 and isinstance(d[0], str)
            and type(d[1]) is int and d[1] in (0, 1) for d in darts),
            f"embedding[{node!r}]", "a list of [edge, 0 or 1] pairs")
    signs = _read_signs(_member(raw, "signs", ""), "signs")
    trace = ContractionTrace.from_json_dict(_member(raw, "certificate", ""))
    return trace, RotationSystem.from_json_dict(embedding), signs


class _WordState:
    """Mutable replay state: per surviving node, a sign and a cyclic word.

    ``holders`` maps each symbol to the node of each of its occurrences, so
    a step finds its nodes without scanning every word; positions inside a
    word come from ``list.index``.
    """

    def __init__(self, words: dict[str, list[str]], signs: dict[str, int]):
        self.words = {n: list(w) for n, w in words.items()}
        self.signs = dict(signs)
        self.holders: dict[str, list[str]] = {}
        for node, word in self.words.items():
            for sym in word:
                self.holders.setdefault(sym, []).append(node)

    def contract(self, edge: str, index: int) -> None:
        nodes = self.holders.get(edge, ())
        if len(nodes) != 2 or nodes[0] == nodes[1]:
            raise IllegalStep(index, f"edge {edge!r} does not join two distinct nodes")
        u, v = sorted(nodes)
        wu, wv = self.words[u], self.words.pop(v)
        i, j = wu.index(edge), wv.index(edge)
        # v's word rotated to start just after the edge, edge removed
        moved = wv[j + 1:] + wv[:j]
        wu[i:i + 1] = moved
        del self.holders[edge]
        for sym in moved:
            where = self.holders[sym]
            where[where.index(v)] = u
        self.signs[u] *= self.signs.pop(v)

    def cancel(self, symbol: str, index: int) -> None:
        nodes = self.holders.get(symbol, ())
        if len(set(nodes)) != 1:
            raise IllegalStep(index, f"symbol {symbol!r} does not lie in one node")
        if len(nodes) != 2:
            raise IllegalStep(index, f"symbol {symbol!r} does not occur exactly twice")
        word = self.words[nodes[0]]
        p = word.index(symbol)
        q = word.index(symbol, p + 1)
        if q == p + 1:
            del word[p:q + 1]
        elif p == 0 and q == len(word) - 1:
            del word[q]
            del word[p]
        else:
            raise IllegalStep(index, f"occurrences of {symbol!r} are not adjacent")
        del self.holders[symbol]

    def finished(self) -> bool:
        return len(self.words) == 1 and not next(iter(self.words.values()))

    def final_sign(self) -> int:
        (sign,) = self.signs.values()
        return sign


def _initial_words(g: IntersectionGraph, r: RotationSystem) -> dict[str, list[str]]:
    return {node: [eid for eid, _ in darts] for node, darts in r.rotations}


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

    words = _initial_words(g, r)
    state = _WordState(words, signs)
    steps: list[tuple[str, str]] = []

    for _, eid in list(g.tree.values())[1:]:  # the root comes first, with no edge
        steps.append((CONTRACT, eid))
        state.contract(eid, len(steps) - 1)

    # Cancel the leftmost adjacent pair each time, in one stack pass: after a
    # cancel at i no pair starts before i - 1, so the stack (the reduced
    # prefix) never holds one.
    (word,) = state.words.values()
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

    return ContractionTrace(
        initial_words=tuple(sorted((n, tuple(w)) for n, w in words.items())),
        initial_signs=tuple(sorted(signs.items())),
        steps=tuple(steps),
        final_sign=state.final_sign(),
    )


def check_trace(
    g: IntersectionGraph, r: RotationSystem, signs: dict[str, int], trace: ContractionTrace
) -> int:
    """Adversarial replay; returns the final sign or raises IllegalStep.

    Validates that the rotation covers exactly the graph's edge-ends (the
    words must reflect the true incidence structure) and the signs exactly
    its nodes, that the trace's initial state is the one induced by
    (g, r, signs), that every step is legal, that the end state is a single
    node with an empty word, and that the recorded final sign matches.  Planarity of r is deliberately not
    required: a complete legal replay is sound from any covering start.
    """
    try:
        check_coverage(g, r)
    except CoverageError as err:
        raise IllegalStep(-1, str(err)) from None
    missing, unknown = sorted(set(g.nodes) - set(signs)), sorted(set(signs) - set(g.nodes))
    if missing or unknown:
        raise IllegalStep(-1, f"signs must cover exactly the graph nodes: "
                              f"missing {missing}, unknown {unknown}")
    words = _initial_words(g, r)
    if trace.initial_words != tuple(sorted((n, tuple(w)) for n, w in words.items())):
        raise IllegalStep(-1, "initial words do not match the rotation system")
    if trace.initial_signs != tuple(sorted(signs.items())):
        raise IllegalStep(-1, "initial signs do not match")
    occurrences: dict[str, int] = {}
    for word in words.values():
        for sym in word:
            occurrences[sym] = occurrences.get(sym, 0) + 1
    if any(count != 2 for count in occurrences.values()):
        raise IllegalStep(-1, "some symbol does not occur exactly twice")

    state = _WordState(words, signs)
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
