"""Seeded board generators for the three benchmark workloads.

Everything here is plain data: a board is the JSON dict the program reads,
built from its dual multigraph (lines are dual nodes, every board vertex is
one dual edge).  Nothing in this module imports the program, so a change to
``pseudotelepathy.generate`` cannot change the benchmark's inputs.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass


@dataclass
class Case:
    """One board of a workload and what the benchmark knows about it."""

    name: str
    raw: dict             # board JSON as written for the CLI
    magic: bool           # verdict known by construction
    game: bool            # whether the games are played on this board
    game_signs: dict | None = None  # seeded even signing for planar games


def board_from_dual(edges: list[tuple[str, str, str]]) -> dict:
    """Board JSON whose dual has the given (vertex, line, line) edges."""
    members: dict[str, list[str]] = {}
    for v, u, w in edges:
        members.setdefault(u, []).append(v)
        members.setdefault(w, []).append(v)
    return {
        "vertices": [v for v, _, _ in edges],
        "hyperedges": [{"id": line, "vertices": vs} for line, vs in members.items()],
    }


def even_signing(rng: random.Random, raw: dict) -> dict[str, int]:
    """Uniform line signs conditioned on parity +1."""
    signs = {h["id"]: rng.choice((1, -1)) for h in raw["hyperedges"]}
    parity = 1
    for s in signs.values():
        parity *= s
    if parity == -1:
        first = raw["hyperedges"][0]["id"]
        signs[first] = -signs[first]
    return signs


# ---------------------------------------------------------------------------
# planar-grids: the dual is the n x n square grid, so every board is planar.

GRID_LADDER = (16, 20, 24, 28)
GRID_GAME_RUNGS = (24,)
SMOKE_GRID_LADDER = (4, 6)
SMOKE_GRID_GAME_RUNGS = (6,)


def grid_raw(n: int) -> dict:
    node = [[f"r{i:02d}c{j:02d}" for j in range(n)] for i in range(n)]
    edges = []
    for i in range(n):
        for j in range(n):
            if j + 1 < n:
                edges.append((f"h{i:02d}_{j:02d}", node[i][j], node[i][j + 1]))
            if i + 1 < n:
                edges.append((f"v{i:02d}_{j:02d}", node[i][j], node[i + 1][j]))
    return board_from_dual(edges)


def planar_grids(seed: int, smoke: bool = False) -> list[Case]:
    rng = random.Random(seed)
    ladder, games = (SMOKE_GRID_LADDER, SMOKE_GRID_GAME_RUNGS) if smoke else (
        GRID_LADDER, GRID_GAME_RUNGS)
    cases = []
    for n in ladder:
        raw = grid_raw(n)
        game = n in games
        cases.append(Case(f"grid{n}", raw, magic=False, game=game,
                          game_signs=even_signing(rng, raw) if game else None))
    return cases


# ---------------------------------------------------------------------------
# nonplanar-random: a random spanning tree on the lines plus about two extra
# dual edges per line.  At that density a random multigraph is nonplanar
# (the count 3n - 1 of dual edges exceeds a planar graph's 3n - 6 once the
# few parallel edges are discounted, and random graphs are far from
# triangulations), so the verdict is "magic"; networkx confirms it.

RANDOM_SIZES = (80, 80, 160, 160, 320)
RANDOM_GAME_MAX_LINES = 160
SMOKE_RANDOM_SIZES = (24, 32)
EXTRA_EDGES_PER_LINE = 2


def random_raw(rng: random.Random, n_lines: int) -> dict:
    lines = [f"e{i:03d}" for i in range(n_lines)]
    pairs = [(lines[rng.randrange(i)], lines[i]) for i in range(1, n_lines)]
    pairs += [tuple(rng.sample(lines, 2)) for _ in range(EXTRA_EDGES_PER_LINE * n_lines)]
    degree = dict.fromkeys(lines, 0)
    for u, w in pairs:
        degree[u] += 1
        degree[w] += 1
    # a line of one point is legal but draws a warning; give it a second one
    for line in lines:
        if degree[line] == 1:
            other = rng.choice([x for x in lines if x != line])
            pairs.append((line, other))
            degree[line] += 1
            degree[other] += 1
    return board_from_dual([(f"v{k:04d}", u, w) for k, (u, w) in enumerate(pairs)])


def nonplanar_random(seed: int, smoke: bool = False) -> list[Case]:
    rng = random.Random(seed)
    sizes = SMOKE_RANDOM_SIZES if smoke else RANDOM_SIZES
    cases = []
    for k, n in enumerate(sizes):
        game = smoke or n <= RANDOM_GAME_MAX_LINES
        cases.append(Case(f"random{n}-{k}", random_raw(rng, n), magic=True, game=game))
    return cases


# ---------------------------------------------------------------------------
# small-subdivisions: every way of adding up to MAX_EXTRA subdivision nodes
# to the edges of K5 and K3,3 (nonplanar, so magic) and of K5-e and K3,3-e
# (planar, so not magic).  Line and vertex names are a seeded relabelling,
# so the program's sorted orders differ from seed to seed.

SUBDIVISION_MAX_EXTRA = 3
SMOKE_SUBDIVISION_MAX_EXTRA = 1
# games are played on the unsubdivided board and on this many boards of
# each number of extra nodes, drawn by the seed, so that the sizes of the
# game boards are the same for every seed
SUBDIVISION_GAMES_PER_EXTRA = 5
SMOKE_SUBDIVISION_GAMES_PER_EXTRA = 1


def _k5() -> list[tuple[str, str]]:
    return list(itertools.combinations(("a", "b", "c", "d", "e"), 2))


def _k33() -> list[tuple[str, str]]:
    return [(u, w) for u in ("a", "b", "c") for w in ("x", "y", "z")]


PATTERNS = (
    ("K5", _k5(), True),
    ("K33", _k33(), True),
    ("K5-e", _k5()[1:], False),
    ("K33-e", _k33()[1:], False),
)


def subdivided_raw(rng: random.Random, pattern: list[tuple[str, str]],
                   counts: tuple[int, ...]) -> dict:
    chains = []
    for (u, w), k in zip(pattern, counts):
        chains.append([u] + [f"{u}{w}{i}" for i in range(k)] + [w])
    nodes = sorted({n for chain in chains for n in chain})
    line_ids = rng.sample(range(10 * len(nodes)), len(nodes))
    line_of = {n: f"L{x:03d}" for n, x in zip(nodes, line_ids)}
    n_edges = sum(len(chain) - 1 for chain in chains)
    vertex_ids = iter(rng.sample(range(10 * n_edges), n_edges))
    edges = []
    for chain in chains:
        for u, w in zip(chain, chain[1:]):
            edges.append((f"p{next(vertex_ids):03d}", line_of[u], line_of[w]))
    return board_from_dual(edges)


def small_subdivisions(seed: int, smoke: bool = False) -> list[Case]:
    rng = random.Random(seed)
    max_extra = SMOKE_SUBDIVISION_MAX_EXTRA if smoke else SUBDIVISION_MAX_EXTRA
    per_extra = SMOKE_SUBDIVISION_GAMES_PER_EXTRA if smoke else SUBDIVISION_GAMES_PER_EXTRA
    cases = []
    for label, pattern, magic in PATTERNS:
        for total in range(max_extra + 1):
            combos = list(itertools.combinations_with_replacement(range(len(pattern)), total))
            games = set(rng.sample(range(len(combos)), min(per_extra, len(combos))))
            for k, combo in enumerate(combos):
                counts = tuple(combo.count(i) for i in range(len(pattern)))
                raw = subdivided_raw(rng, pattern, counts)
                game = k in games
                signs = even_signing(rng, raw) if game and not magic else None
                cases.append(Case(f"{label}+{total}-{k}", raw, magic=magic, game=game,
                                  game_signs=signs))
    return cases


WORKLOADS = {
    "planar-grids": planar_grids,
    "nonplanar-random": nonplanar_random,
    "small-subdivisions": small_subdivisions,
}
