"""Checks of the program's outputs made apart from the program.

Nothing here calls the verifiers of ``pseudotelepathy``: planarity comes
from networkx's left-right test, Pauli words are rebuilt as dense numpy
matrices from their text, faces are traced by this module's own walk, and
game values are compared with closed forms.  Each function returns a list
of problems; an empty list means the output is right.
"""

from __future__ import annotations

import math
from functools import lru_cache

import networkx as nx
import numpy as np

MAX_QUBITS = 3
PROBABILITY_TOLERANCE = 1e-9
# classical Monte Carlo rates must lie within this many binomial standard
# deviations (plus one trial) of the closed-form win probability
MC_SIGMAS = 6.0

_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def lines_of(raw: dict) -> dict[str, tuple[str, str]]:
    """Board vertex -> its two lines, sorted, straight from the board JSON."""
    holders: dict[str, list[str]] = {}
    for h in raw["hyperedges"]:
        for v in h["vertices"]:
            holders.setdefault(v, []).append(h["id"])
    return {v: tuple(sorted(ls)) for v, ls in holders.items()}


def dual_is_planar(raw: dict) -> bool:
    g = nx.Graph()
    g.add_nodes_from(h["id"] for h in raw["hyperedges"])
    g.add_edges_from(lines_of(raw).values())
    planar, _ = nx.check_planarity(g)
    return planar


@lru_cache(maxsize=None)
def dense(word: str) -> np.ndarray:
    """Matrix of a signed Pauli word such as '-XZ' or '+IYZ'."""
    sign = {"+": 1, "-": -1}[word[0]]
    m = np.eye(1, dtype=complex)
    for letter in word[1:]:
        m = np.kron(m, _PAULI[letter])
    return sign * m


def parity(signs: dict[str, int]) -> int:
    return math.prod(signs.values())


def check_magic(raw: dict, n_qubits: int, operators: dict[str, str],
                signs: dict[str, int]) -> list[str]:
    """Quantum realization: observables, line commutation and products, odd parity."""
    problems = []
    if n_qubits > MAX_QUBITS:
        problems.append(f"realization uses {n_qubits} qubits")
    if set(signs) != {h["id"] for h in raw["hyperedges"]}:
        problems.append("signing does not cover the lines")
        return problems
    if parity(signs) != -1:
        problems.append("signing parity is not -1")
    if set(operators) != set(raw["vertices"]):
        problems.append("operators do not cover the vertices")
        return problems
    dim = 1 << n_qubits
    eye = np.eye(dim)
    for word in set(operators.values()):
        if word[0] not in "+-" or len(word) != n_qubits + 1:
            problems.append(f"{word!r} is not a signed {n_qubits}-qubit observable")
            return problems
        m = dense(word)
        if not np.array_equal(m, m.conj().T) or not np.array_equal(m @ m, eye):
            problems.append(f"{word!r} is not a Hermitian involution")
    for h in raw["hyperedges"]:
        ms = [dense(operators[v]) for v in h["vertices"]]
        for i, p in enumerate(ms):
            for q in ms[i + 1:]:
                if not np.array_equal(p @ q, q @ p):
                    problems.append(f"operators of line {h['id']} do not commute")
        product = np.eye(dim, dtype=complex)
        for m in ms:
            product = product @ m
        if not np.array_equal(product, signs[h["id"]] * eye):
            problems.append(f"line {h['id']} does not multiply to its sign")
    return problems


def check_labels(raw: dict, labels: dict[str, int], signs: dict[str, int]) -> list[str]:
    """Classical realization: every line's labels multiply to its sign."""
    if set(labels) != set(raw["vertices"]) or set(labels.values()) - {1, -1}:
        return ["labels are not a +-1 labelling of the vertices"]
    return [f"labels of line {h['id']} do not multiply to its sign"
            for h in raw["hyperedges"]
            if math.prod(labels[v] for v in h["vertices"]) != signs[h["id"]]]


def euler_faces(raw: dict, rotation: dict[str, list[list]]) -> list[str]:
    """Trace the rotation system's faces and check V - E + F = 2.

    A dart is (vertex, end); end 0 sits at the smaller of the vertex's two
    line ids, end 1 at the larger.
    """
    ends = lines_of(raw)
    expected = {(v, end) for v in ends for end in (0, 1)}
    succ = {}
    for node, darts in rotation.items():
        darts = [tuple(d) for d in darts]
        for i, (v, end) in enumerate(darts):
            if v not in ends or ends[v][end] != node:
                return [f"dart {(v, end)} is not at node {node}"]
            succ[(v, end)] = darts[(i + 1) % len(darts)]
    if set(succ) != expected or sum(map(len, rotation.values())) != len(expected):
        return ["rotation does not hold every dart exactly once"]
    faces = 0
    seen = set()
    for start in succ:
        if start in seen:
            continue
        faces += 1
        d = start
        while d not in seen:
            seen.add(d)
            d = succ[(d[0], 1 - d[1])]
    n_nodes, n_edges = len(raw["hyperedges"]), len(raw["vertices"])
    if n_nodes - n_edges + faces != 2:
        return [f"V - E + F = {n_nodes - n_edges + faces}, not 2"]
    return []


def closed_form_classical(raw: dict, signs: dict[str, int], magic: bool) -> float:
    """Win probability of the strategy the CLI plays classically.

    Planar boards use a classical realization, which wins every query.  On
    magic boards Alice answers +1 everywhere and Bob flips the last vertex
    of each -1 line, so exactly one query (that vertex, that line) is lost
    per -1 line, out of 2|V| equally likely queries.
    """
    if not magic:
        return 1.0
    n_minus = sum(1 for s in signs.values() if s == -1)
    return 1.0 - n_minus / (2 * len(raw["vertices"]))


def binomial_band(p: float, trials: int) -> float:
    """Largest accepted distance between observed wins and p * trials."""
    return MC_SIGMAS * math.sqrt(trials * p * (1 - p)) + 1.0
