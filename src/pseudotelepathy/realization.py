"""Quantum realizations of signed boards, and how to decide if one exists.

A quantum realization assigns a Hermitian, order-two Pauli observable to
every board vertex so that within each line the observables pairwise commute
and multiply (in the line's stored member order) to the line's sign times
the identity.  Boards admitting such a realization for an odd-parity signing
are "magic": the induced parity game then has a perfect quantum strategy
while no classical strategy wins with certainty.

The decision procedure is planarity of the dual multigraph.  Nonplanar duals
contain a K5 or K3,3 subdivision, and the two canonical magic boards (the
3x3 square, dual K3,3, on two qubits; the pentagram, dual K5, on three)
push their realizations through the subdivision: each branch vertex plays
one builtin line, every edge on the path between two branch vertices
inherits the operator of the builtin vertex their two lines share, and
everything else gets the identity.  Planar duals instead yield a contraction
certificate plus a classical realization of the all-plus signing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property, reduce

from pseudotelepathy.arrangement import (
    Arrangement,
    ClassicalRealization,
    Signing,
    all_plus_signing,
    classical_realize,
    flip_set,
    parity,
    validate,
)
from pseudotelepathy.certificate import ContractionTrace, generate_trace
from pseudotelepathy.intersection import CoverageError, IntersectionGraph, RotationSystem, build
from pseudotelepathy.pauli import (
    PauliOperator,
    from_string,
    identity,
    multiply_rows,
    rows_commute,
)
from pseudotelepathy.planarity import K5, K33, KuratowskiWitness, test_planarity


class EmbeddingMismatch(ValueError):
    """A Kuratowski witness does not fit the target graph."""


@dataclass(frozen=True)
class QuantumRealization:
    """Mapping from board vertices to Pauli observables."""

    n_qubits: int
    operators: tuple[tuple[str, PauliOperator], ...]

    @classmethod
    def from_dict(cls, n_qubits: int, ops: dict[str, PauliOperator]) -> "QuantumRealization":
        return cls(n_qubits, tuple(sorted(ops.items())))

    def as_dict(self) -> dict[str, PauliOperator]:
        return dict(self.operators)

    _operator_map = cached_property(as_dict)

    def operator(self, v: str) -> PauliOperator:
        return self._operator_map[v]

    def to_json_dict(self, signing: Signing | None = None) -> dict:
        out: dict = {
            "n_qubits": self.n_qubits,
            "operators": {v: str(op) for v, op in self.operators},
        }
        if signing is not None:
            out["signs"] = signing.as_dict()
        return out


@dataclass(frozen=True)
class MagicVerdict:
    """Outcome of deciding a board, with its checkable artifacts.

    Magic boards carry an odd signing, a realization, and the Kuratowski
    witness behind them; nonmagic boards carry a contraction certificate for
    the dual's planar embedding and a classical realization of the all-plus
    signing.
    """

    magic: bool
    signing: Signing
    realization: QuantumRealization | None = None
    witness: KuratowskiWitness | None = None
    embedding: RotationSystem | None = None
    certificate: ContractionTrace | None = None
    classical: ClassicalRealization | None = None


_SIGN_EXPONENT = {1: 0, -1: 2}  # the phase exponent of the line product sign * I


def verify_realization(a: Arrangement, s: Signing, r: QuantumRealization) -> bool:
    """Exact symbolic check of every realization invariant; no tolerances.

    Commutation is checked before the line product so that a failure is
    attributed to the right axiom (with commuting members, the stored member
    order cannot change the product).  Both are integer arithmetic on the
    operators' Pauli rows; a line holds iff its product is +I (phase
    exponent 0) for sign +1 and -I (exponent 2) for sign -1.  Raises
    :class:`CoverageError` when r misses a vertex or names an id that is not one.
    """
    ops = r.as_dict()
    missing, extra = set(a.vertices) - set(ops), set(ops) - set(a.vertices)
    if missing:
        raise CoverageError(f"no operator for vertices {sorted(missing)}")
    if extra:
        raise CoverageError(f"operators for ids that are not vertices {sorted(extra)}")
    for v, op in ops.items():
        if op.n_qubits != r.n_qubits or not op.is_observable():
            return False
    rows = {v: op.row for v, op in ops.items()}
    signs = s.as_dict()
    for eid, members in a.hyperedges:
        line = [rows[v] for v in members]
        for i, p in enumerate(line):
            for q in line[i + 1:]:
                if not rows_commute(p, q):
                    return False
        x, z, k = reduce(multiply_rows, line, (0, 0, 0))
        if x | z or k != _SIGN_EXPONENT.get(signs[eid]):
            return False
    return True


def _grid_board() -> dict:
    cells = [f"{row}{col}" for row in (1, 2, 3) for col in (1, 2, 3)]
    rows = [{"id": f"r{k}", "vertices": [f"{k}{c}" for c in (1, 2, 3)], "sign": 1}
            for k in (1, 2, 3)]
    cols = [{"id": f"c{k}", "vertices": [f"{r}{k}" for r in (1, 2, 3)], "sign": -1}
            for k in (1, 2, 3)]
    return {"vertices": cells, "hyperedges": rows + cols}


_SQUARE_TABLE = {
    "11": "+IZ", "12": "+ZI", "13": "+ZZ",
    "21": "+XI", "22": "+IX", "23": "+XX",
    "31": "-XZ", "32": "-ZX", "33": "+YY",
}

_PENTAGRAM_LINES = {
    "L1": ["p12", "p13", "p14", "p15"],
    "L2": ["p12", "p23", "p24", "p25"],
    "L3": ["p13", "p23", "p34", "p35"],
    "L4": ["p14", "p24", "p34", "p45"],
    "L5": ["p15", "p25", "p35", "p45"],
}

_PENTAGRAM_TABLE = {
    "p12": "+XII", "p13": "+IXI", "p14": "+IIX", "p15": "+XXX",
    "p23": "+IIZ", "p24": "+IZI", "p25": "+XZZ",
    "p34": "+ZII", "p35": "+ZXZ", "p45": "+ZZX",
}


@cache
def builtin_square() -> tuple[Arrangement, Signing, QuantumRealization]:
    """The 3x3 grid board: rows signed +1, columns -1, two-qubit operators.

    Built on the first call and then shared: every part is frozen."""
    arrangement, signing = validate(_grid_board())
    ops = {cell: from_string(word) for cell, word in _SQUARE_TABLE.items()}
    return arrangement, signing, QuantumRealization.from_dict(2, ops)


@cache
def builtin_pentagram() -> tuple[Arrangement, Signing, QuantumRealization]:
    """Five lines of four points, dual K5: one -1 line, three-qubit operators.

    Built on the first call and then shared: every part is frozen."""
    raw = {
        "vertices": sorted(_PENTAGRAM_TABLE),
        "hyperedges": [{"id": line, "vertices": members,
                        "sign": -1 if line == "L5" else 1}
                       for line, members in _PENTAGRAM_LINES.items()],
    }
    arrangement, signing = validate(raw)
    ops = {p: from_string(word) for p, word in _PENTAGRAM_TABLE.items()}
    return arrangement, signing, QuantumRealization.from_dict(3, ops)


def extract_minor_embedding(w: KuratowskiWitness) -> dict[str, str]:
    """The line of the builtin board that each branch vertex of a verified
    witness plays.

    K5's sorted branch vertices play the pentagram's lines L1..L5; K3,3's
    first side plays the square's columns c1..c3 and its second side the
    rows r1..r3.
    """
    if w.kind == K5:
        return dict(zip(sorted(w.branch_vertices), ("L1", "L2", "L3", "L4", "L5")))
    if w.kind == K33:
        if w.parts is None:
            raise EmbeddingMismatch("K33 witness lacks its bipartition")
        side_a, side_b = w.parts
        return dict(zip(side_a, ("c1", "c2", "c3"))) | dict(zip(side_b, ("r1", "r2", "r3")))
    raise EmbeddingMismatch(f"unknown witness kind {w.kind!r}")


def transfer(
    w: KuratowskiWitness, line_of: dict[str, str], target: IntersectionGraph
) -> tuple[Signing, QuantumRealization]:
    """Push the builtin board of the witness kind through the witness.

    Each branch vertex inherits the sign of the builtin line it plays, and
    every edge on the path between two branch vertices inherits the builtin
    operator of the one vertex their two lines share; everything else is
    labelled with the identity, which disturbs no constraint.
    """
    src_arr, src_sign, src_real = builtin_pentagram() if w.kind == K5 else builtin_square()
    target_edges = {eid for eid, _, _ in target.edges}
    if not set(line_of) <= set(target.nodes):
        raise EmbeddingMismatch("branch vertices map outside the target graph")

    signs = {n: 1 for n in target.nodes}
    for node, line in line_of.items():
        signs[node] = src_sign.sign(line)

    ident = identity(src_real.n_qubits)
    ops = {eid: ident for eid in target_edges}
    for (u, v), path in w.paths:
        if not set(path) <= target_edges:
            raise EmbeddingMismatch(f"path between {u!r} and {v!r} leaves the target graph")
        (shared,) = set(src_arr.members(line_of[u])) & set(src_arr.members(line_of[v]))
        op = src_real.operator(shared)
        for eid in path:
            ops[eid] = op

    return Signing.from_dict(signs), QuantumRealization.from_dict(src_real.n_qubits, ops)


def resign_realization(
    a: Arrangement, old: Signing, new: Signing, r: QuantumRealization
) -> QuantumRealization:
    """Adapt a realization to any signing of equal parity.

    Negating the operators of the :func:`~pseudotelepathy.arrangement.flip_set`
    of the lines whose sign differs flips exactly those line products while
    preserving order two and commutation.
    """
    if parity(old) != parity(new):
        raise ValueError("signings differ in parity; no realization transfer exists")
    ops = r.as_dict()
    olds, news = old.as_dict(), new.as_dict()
    for v in flip_set(a, [eid for eid in olds if olds[eid] != news[eid]]):
        ops[v] = ops[v].negate()
    return QuantumRealization.from_dict(r.n_qubits, ops)


def synthesize(a: Arrangement) -> MagicVerdict:
    """Decide a board and construct the matching verified artifact.

    Nonplanar dual: odd signing plus realization transferred from the
    builtin board of the witness kind.  Planar dual: contraction certificate
    over the embedding plus a classical realization of the all-plus signing.
    """
    graph = build(a)
    result = test_planarity(graph)
    if result.witness is not None:
        line_of = extract_minor_embedding(result.witness)
        signing, realization = transfer(result.witness, line_of, graph)
        if not verify_realization(a, signing, realization):
            raise AssertionError("internal error: transferred realization failed verification")
        return MagicVerdict(
            magic=True,
            signing=signing,
            realization=realization,
            witness=result.witness,
        )
    signing = all_plus_signing(a)
    trace = generate_trace(graph, result.embedding, signing.as_dict())
    return MagicVerdict(
        magic=False,
        signing=signing,
        embedding=result.embedding,
        certificate=trace,
        classical=classical_realize(a, signing),
    )
