"""Game boards: connected hypergraphs with every vertex on exactly two lines.

An :class:`Arrangement` is the board of a two-player parity game.  A
:class:`Signing` labels each hyperedge ("line") with +-1; a
:class:`ClassicalRealization` labels each vertex with +-1 so that the product
over every line matches that line's sign.  Classical realizability depends on
the signing only through its parity, the product of all line signs: even
parity is always realizable, odd parity never is (each vertex label would be
counted twice in the product of all line constraints).
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

from pseudotelepathy.intersection import adjacency, bfs_tree


class ArrangementError(ValueError):
    """Base class for structural validation failures."""


class DegreeError(ArrangementError):
    """Some vertex does not lie on exactly two hyperedges."""


class EmptyHyperedge(ArrangementError):
    """A hyperedge has no members."""


class Disconnected(ArrangementError):
    """The hypergraph splits into independent pieces."""


class DuplicateId(ArrangementError):
    """Vertex or hyperedge ids collide."""


class OddParity(ValueError):
    """A classical realization was requested for an odd-parity signing."""


@dataclass(frozen=True)
class Arrangement:
    """Canonicalized board: sorted vertices, hyperedges sorted by id."""

    vertices: tuple[str, ...]
    hyperedges: tuple[tuple[str, tuple[str, ...]], ...]

    def members(self, edge_id: str) -> tuple[str, ...]:
        return self._member_map[edge_id]

    def hyperedge_ids(self) -> tuple[str, ...]:
        return tuple(eid for eid, _ in self.hyperedges)

    def edges_of_vertex(self, v: str) -> tuple[str, str]:
        """The two hyperedge ids containing v, in sorted order."""
        return self._vertex_map[v]

    @cached_property
    def _member_map(self) -> dict[str, tuple[str, ...]]:
        return dict(self.hyperedges)

    @cached_property
    def _vertex_map(self) -> dict[str, tuple[str, str]]:
        holders: dict[str, list[str]] = {v: [] for v in self.vertices}
        for eid, members in self.hyperedges:
            for v in members:
                holders[v].append(eid)
        return {v: (h[0], h[1]) for v, h in holders.items()}


@dataclass(frozen=True)
class Signing:
    """Total mapping hyperedge id -> sign in {+1, -1}."""

    signs: tuple[tuple[str, int], ...]

    @classmethod
    def from_dict(cls, d: dict[str, int]) -> "Signing":
        return cls(tuple(sorted(d.items())))

    def as_dict(self) -> dict[str, int]:
        return dict(self.signs)

    _sign_map = cached_property(as_dict)

    def sign(self, edge_id: str) -> int:
        return self._sign_map[edge_id]


@dataclass(frozen=True)
class ClassicalRealization:
    """Total vertex labeling in {+1, -1}."""

    labels: tuple[tuple[str, int], ...]

    @classmethod
    def from_dict(cls, d: dict[str, int]) -> "ClassicalRealization":
        return cls(tuple(sorted(d.items())))

    def as_dict(self) -> dict[str, int]:
        return dict(self.labels)


def validate(raw: dict) -> tuple[Arrangement, Signing | None]:
    """Canonicalize a raw board description and check the structural axioms.

    ``raw`` follows the JSON schema
    ``{"vertices": [...], "hyperedges": [{"id": ..., "vertices": [...],
    "sign": 1|-1 (optional)}]}``, with exact types: ids are nonempty
    strings that UTF-8 can encode, lists are lists and a sign is the
    integer 1 or -1 (never a bool or a float).  Signs must be given for
    all hyperedges or none.  Unknown keys are rejected.
    """
    if not isinstance(raw, dict):
        raise ArrangementError("board description must be a JSON object")
    unknown = set(raw) - {"vertices", "hyperedges"}
    if unknown:
        raise ArrangementError(f"unknown keys {sorted(unknown)}")
    vertices = raw.get("vertices", [])
    if not isinstance(vertices, list):
        raise ArrangementError("vertices must be a list")
    if any(not isinstance(v, str) or not v for v in vertices):
        raise ArrangementError("vertices must be nonempty strings")
    _check_utf8(vertices, "vertices[{}]")
    if len(set(vertices)) != len(vertices):
        raise DuplicateId("duplicate vertex ids")

    hyperedges: list[tuple[str, tuple[str, ...]]] = []
    signs: dict[str, int] = {}
    seen_ids: set[str] = set()
    degree: dict[str, list[str]] = {v: [] for v in vertices}
    entries = raw.get("hyperedges", [])
    if not isinstance(entries, list):
        raise ArrangementError("hyperedges must be a list")
    for k, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ArrangementError(f"hyperedges[{k}] must be an object")
        bad = set(entry) - {"id", "vertices", "sign"}
        if bad:
            raise ArrangementError(f"unknown hyperedge keys {sorted(bad)}")
        eid = entry.get("id")
        if not isinstance(eid, str) or not eid:
            raise ArrangementError(f"hyperedges[{k}].id must be a nonempty string")
        if eid in seen_ids:
            raise DuplicateId(f"duplicate hyperedge id {eid!r}")
        seen_ids.add(eid)
        members = entry.get("vertices", [])
        if not isinstance(members, list):
            raise ArrangementError(f"vertices of hyperedge {eid!r} must be a list")
        if not members:
            raise EmptyHyperedge(f"hyperedge {eid!r} is empty")
        try:
            for v in members:
                degree[v].append(eid)
        except (KeyError, TypeError):  # not a listed vertex, perhaps not a string
            v = next(v for v in members if not isinstance(v, str) or v not in degree)
            if not isinstance(v, str) or not v:
                raise ArrangementError(
                    f"vertices of hyperedge {eid!r} must be nonempty strings") from None
            raise ArrangementError(f"hyperedge {eid!r} uses unlisted vertex {v!r}") from None
        if len(set(members)) != len(members):
            raise DuplicateId(f"hyperedge {eid!r} repeats a vertex")
        hyperedges.append((eid, tuple(sorted(members))))
        if "sign" in entry:
            sign = entry["sign"]
            if type(sign) is not int or sign not in (1, -1):  # bool is not a sign
                raise ArrangementError(f"sign of {eid!r} must be the integer 1 or -1")
            signs[eid] = sign
    _check_utf8([eid for eid, _ in hyperedges], "hyperedges[{}].id")
    if signs and len(signs) != len(hyperedges):
        raise ArrangementError("signs must cover all hyperedges or none")

    for v, holders in degree.items():
        if len(holders) != 2:
            raise DegreeError(f"vertex {v!r} lies in {len(holders)} hyperedges, expected 2")

    _check_connected(hyperedges, degree)
    if any(len(members) == 1 for _, members in hyperedges):  # only once every check passed
        warnings.warn("arrangement contains a size-1 hyperedge; the game on it is "
                      "playable but that line constrains a single vertex", stacklevel=2)
    arrangement = Arrangement(tuple(sorted(vertices)), tuple(sorted(hyperedges)))
    signing = Signing.from_dict(signs) if signs else None
    return arrangement, signing


def _check_utf8(ids: list[str], field: str) -> None:
    """ArrangementError naming ``field.format(k)`` for the first id k that
    UTF-8 cannot encode (a lone surrogate, as JSON admits), in one encode."""
    try:
        "".join(ids).encode("utf-8")
    except UnicodeEncodeError as err:
        k = next(k for k, end in enumerate(accumulate(map(len, ids))) if end > err.start)
        raise ArrangementError(f"{field.format(k)} must be encodable as UTF-8") from None


def _check_connected(hyperedges, degree):
    """Connectivity of the dual multigraph: hyperedges joined by shared vertices."""
    if not hyperedges:
        raise Disconnected("arrangement has no hyperedges")
    if len(bfs_tree(adjacency(degree), hyperedges[0][0])) != len(hyperedges):
        raise Disconnected("hypergraph splits into independent pieces")


def parity(s: Signing) -> int:
    """Product of all hyperedge signs; -1 iff an odd number of lines are -1."""
    p = 1
    for _, sign in s.signs:
        p *= sign
    return p


def all_plus_signing(a: Arrangement) -> Signing:
    return Signing.from_dict({eid: 1 for eid in a.hyperedge_ids()})


def is_classically_realizable(a: Arrangement, s: Signing) -> bool:
    """A vertex labeling matching every line sign exists iff the parity is +1."""
    return parity(s) == 1


def flip_set(a: Arrangement, lines: list[str]) -> list[str]:
    """Vertices whose sign flips change the product of exactly ``lines``.

    ``lines`` must hold an even number of hyperedge ids T.  The result is
    the T-join of the dual's breadth-first spanning tree from the smallest
    line: a tree edge is taken exactly when the subtree below it holds an
    odd number of T, found in one bottom-up pass.  A line then meets an odd
    number of taken edges iff it is in T.  An empty T builds no tree.
    """
    odd = set(lines)
    if len(odd) % 2:
        raise ValueError("an odd number of lines cannot change sign alone")
    if not odd:
        return []
    dual = adjacency({v: a.edges_of_vertex(v) for v in a.vertices})
    flips = []
    for node, link in reversed(bfs_tree(dual, a.hyperedges[0][0]).items()):
        if link is not None and node in odd:
            parent, vertex = link
            flips.append(vertex)
            odd ^= {parent}
    return flips


def classical_realize(a: Arrangement, s: Signing) -> ClassicalRealization:
    """Construct a vertex labeling matching the signing; parity must be +1.

    Starts from the all-+1 labeling and flips the labels of the
    :func:`flip_set` of the -1 lines, so exactly their products become -1.
    """
    if parity(s) != 1:
        raise OddParity("no classical realization exists for odd parity")
    labels = {v: 1 for v in a.vertices}
    for v in flip_set(a, [eid for eid, sign in s.signs if sign == -1]):
        labels[v] = -1
    return ClassicalRealization.from_dict(labels)


def check_realization(a: Arrangement, s: Signing, c: ClassicalRealization) -> bool:
    """Direct product check of every hyperedge constraint."""
    labels = c.as_dict()
    signs = s.as_dict()
    for eid, members in a.hyperedges:
        prod = 1
        for v in members:
            prod *= labels[v]
        if prod != signs[eid]:
            return False
    return True


def load(path) -> tuple[Arrangement, Signing | None]:
    with open(path, encoding="utf-8") as fh:
        return validate(json.load(fh))

