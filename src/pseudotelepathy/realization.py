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
push their realizations through the subdivision: every edge along the image
path of a pattern edge inherits that pattern edge's operator, everything
else gets the identity.  Planar duals instead yield a contraction
certificate plus a classical realization of the all-plus signing.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import cache, cached_property
from types import MappingProxyType

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
from pseudotelepathy.pauli import PauliOperator, commutes, from_string, identity, product_of
from pseudotelepathy.planarity import K5, K33, KuratowskiWitness, test_planarity


class EmbeddingMismatch(ValueError):
    """A minor embedding does not fit the target graph."""


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
class MinorEmbedding:
    """Injective placement of K5 or K3,3 inside a graph, paths and all."""

    pattern: str
    vertex_map: tuple[tuple[str, str], ...]  # pattern vertex -> graph node
    path_map: tuple[tuple[tuple[str, str], tuple[str, ...]], ...]  # pattern edge -> edge ids

    def vertices(self) -> dict[str, str]:
        return dict(self.vertex_map)

    def paths(self) -> dict[tuple[str, str], tuple[str, ...]]:
        return dict(self.path_map)


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


def verify_realization(a: Arrangement, s: Signing, r: QuantumRealization) -> bool:
    """Exact symbolic check of every realization invariant; no tolerances.

    Commutation is checked before the line product so that a failure is
    attributed to the right axiom (with commuting members, the stored member
    order cannot change the product).
    """
    ops = r.as_dict()
    missing = set(a.vertices) - set(ops)
    if missing:
        raise CoverageError(f"no operator for vertices {sorted(missing)}")
    for v, op in ops.items():
        if op.n_qubits != r.n_qubits or not op.is_observable():
            return False
    signs = s.as_dict()
    for eid, members in a.hyperedges:
        line_ops = [ops[v] for v in members]
        for i, p in enumerate(line_ops):
            for q in line_ops[i + 1:]:
                if not commutes(p, q):
                    return False
        prod = product_of(line_ops, n_qubits=r.n_qubits)
        if not prod.is_identity() or prod.phase != signs[eid]:
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


_K5_PATTERN = ("k1", "k2", "k3", "k4", "k5")
_K33_PATTERN = (("a1", "a2", "a3"), ("b1", "b2", "b3"))


def extract_minor_embedding(w: KuratowskiWitness) -> MinorEmbedding:
    """Canonical pattern placement from a verified witness.

    K5 pattern vertices map to the sorted branch vertices; K3,3 sides map to
    the lexicographically ordered bipartition classes.
    """
    if w.kind == K5:
        phi = dict(zip(_K5_PATTERN, sorted(w.branch_vertices)))
    elif w.kind == K33:
        if w.parts is None:
            raise EmbeddingMismatch("K33 witness lacks its bipartition")
        side_a, side_b = w.parts
        phi = dict(zip(_K33_PATTERN[0], side_a)) | dict(zip(_K33_PATTERN[1], side_b))
    else:
        raise EmbeddingMismatch(f"unknown witness kind {w.kind!r}")
    witness_paths = w.path_dict()
    path_map = {}
    for pu, pv in _pattern_edges(w.kind):
        gu, gv = phi[pu], phi[pv]
        path_map[(pu, pv)] = witness_paths[(min(gu, gv), max(gu, gv))]
    return MinorEmbedding(
        pattern=w.kind,
        vertex_map=tuple(sorted(phi.items())),
        path_map=tuple(sorted(path_map.items())),
    )


def _pattern_edges(kind: str) -> list[tuple[str, str]]:
    if kind == K5:
        return [(u, v) for i, u in enumerate(_K5_PATTERN) for v in _K5_PATTERN[i + 1:]]
    return [(u, v) for u in _K33_PATTERN[0] for v in _K33_PATTERN[1]]


# pattern vertex -> line of the builtin board whose dual is the pattern
_NODE_OF = {
    K5: MappingProxyType(dict(zip(_K5_PATTERN, ("L1", "L2", "L3", "L4", "L5")))),
    K33: MappingProxyType(dict(zip(_K33_PATTERN[0] + _K33_PATTERN[1],
                                   ("c1", "c2", "c3", "r1", "r2", "r3")))),
}


def source_for_pattern(kind: str):
    """Builtin board whose dual is the pattern, plus the node correspondence
    as a read-only map."""
    builtin = builtin_pentagram if kind == K5 else builtin_square
    return (*builtin(), _NODE_OF[kind])


def _shared_vertex(a: Arrangement, e1: str, e2: str) -> str:
    shared = set(a.members(e1)) & set(a.members(e2))
    (v,) = shared
    return v


def transfer(
    me: MinorEmbedding,
    target: IntersectionGraph,
    source: tuple[Arrangement, Signing, QuantumRealization],
    node_of: Mapping[str, str],
) -> tuple[Signing, QuantumRealization]:
    """Push the source realization through the minor embedding.

    Pattern-vertex images inherit the corresponding source line's sign, and
    every edge along a pattern edge's path inherits the source operator of
    the vertex shared by the two source lines; everything else is labelled
    with the identity, which disturbs no constraint.
    """
    src_arr, src_sign, src_real = source
    phi = me.vertices()
    target_edges = {eid for eid, _, _ in target.edges}
    target_nodes = set(target.nodes)
    if not set(phi.values()) <= target_nodes:
        raise EmbeddingMismatch("pattern vertices map outside the target graph")

    signs = {n: 1 for n in target.nodes}
    for p, node in phi.items():
        signs[node] = src_sign.sign(node_of[p])

    ident = identity(src_real.n_qubits)
    ops = {eid: ident for eid in target_edges}
    for (pu, pv), path in me.paths().items():
        if not set(path) <= target_edges:
            raise EmbeddingMismatch(f"path for {(pu, pv)} leaves the target graph")
        source_vertex = _shared_vertex(src_arr, node_of[pu], node_of[pv])
        op = src_real.operator(source_vertex)
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
        me = extract_minor_embedding(result.witness)
        src_arr, src_sign, src_real, node_of = source_for_pattern(result.witness.kind)
        signing, realization = transfer(me, graph, (src_arr, src_sign, src_real), node_of)
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
