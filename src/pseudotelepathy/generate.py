"""Random valid boards, for the `gen` subcommand and corpus-style tests.

A board is built from its dual: a random connected multigraph on the
requested number of hyperedge nodes (a random attachment spanning tree plus
extra edges, parallels allowed, no self-loops).  Every dual edge becomes a
board vertex lying on exactly the two hyperedges it joins, so the result
always satisfies the structural axioms.
"""

from __future__ import annotations

import random

from pseudotelepathy.arrangement import Arrangement, Signing, validate


def random_board(
    rng: random.Random,
    n_hyperedges: int,
    n_extra_vertices: int | None = None,
    signed: bool = False,
) -> dict:
    """Raw JSON-style description of a random valid board.

    With ``n_extra_vertices`` omitted, between 0 and ``n_hyperedges`` extra
    dual edges are added on top of the spanning tree.
    """
    if n_hyperedges < 2:
        raise ValueError("a valid board needs at least two hyperedges")
    if n_extra_vertices is not None and n_extra_vertices < 0:
        raise ValueError(f"cannot add {n_extra_vertices} extra vertices")
    edges = [f"e{i + 1}" for i in range(n_hyperedges)]
    pairs: list[tuple[str, str]] = []
    for i in range(1, n_hyperedges):
        pairs.append((edges[rng.randrange(i)], edges[i]))
    if n_extra_vertices is None:
        n_extra_vertices = rng.randrange(n_hyperedges + 1)
    for _ in range(n_extra_vertices):
        u, v = rng.sample(edges, 2)
        pairs.append((u, v))

    width = len(str(len(pairs)))
    members: dict[str, list[str]] = {e: [] for e in edges}
    vertices = []
    for k, (u, v) in enumerate(pairs):
        name = f"v{k + 1:0{width}d}"
        vertices.append(name)
        members[u].append(name)
        members[v].append(name)

    hyperedges = []
    for e in edges:
        entry: dict = {"id": e, "vertices": members[e]}
        if signed:
            entry["sign"] = rng.choice((1, -1))
        hyperedges.append(entry)
    return {"vertices": vertices, "hyperedges": hyperedges}


def random_arrangement(
    rng: random.Random,
    n_hyperedges: int,
    n_extra_vertices: int | None = None,
) -> tuple[Arrangement, Signing]:
    """A validated random board with a random total signing."""
    raw = random_board(rng, n_hyperedges, n_extra_vertices, signed=True)
    arrangement, signing = validate(raw)
    return arrangement, signing
