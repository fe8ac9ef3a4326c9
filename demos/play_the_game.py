"""Playing the parity game: perfect quantum play against the classical ceiling.

Run:  python3 demos/play_the_game.py
"""

import random

from pseudotelepathy import builtin_square, exact_win_probability, monte_carlo
from pseudotelepathy.game import (
    ClassicalStrategy,
    QuantumStrategy,
    exhaustive_classical_maximum,
    play_quantum,
    referee_draw,
)

board, signing, realization = builtin_square()
quantum = QuantumStrategy(realization)
rng = random.Random(1729)

print("A few sampled rounds of the quantum strategy on the 3x3 board:")
for _ in range(5):
    query = referee_draw(board, rng)
    t = play_quantum(board, signing, quantum, query, rng)
    colors = " ".join(f"{v}:{c:+d}" for v, c in t.bob_coloring)
    print(f"   referee asks cell {query.vertex} / line {query.hyperedge}; "
          f"Alice answers {t.alice_color:+d}; Bob colors {colors}; "
          f"won={t.won}")
print()

print("Exact win probability from Pauli correlators:",
      exact_win_probability(quantum, board, signing))
mc = monte_carlo(quantum, board, signing, trials=20_000, seed=7)
print(f"Monte Carlo over {mc.trials} rounds: rate={mc.rate} "
      f"(every sampled branch wins)\n")

best, strategy = exhaustive_classical_maximum(board, signing)
print(f"Best deterministic classical strategy wins {best}:")
mc = monte_carlo(strategy, board, signing, trials=20_000, seed=7)
print(f"   empirically {mc.rate:.4f}, 95% CI [{mc.ci_low:.4f}, {mc.ci_high:.4f}]")

naive = ClassicalStrategy.best_response(board, signing, {v: 1 for v in board.vertices})
print("An all-plus Alice with Bob best-responding:",
      exact_win_probability(naive, board, signing))
