"""A walk through the 3x3 magic board and why it has no classical coloring.

Run:  python3 demos/magic_square_tour.py
"""

from pseudotelepathy import build, builtin_square, parity, product_of, to_dot
from pseudotelepathy.arrangement import is_classically_realizable
from pseudotelepathy.game import classical_value

board, signing, realization = builtin_square()

print("The board: a 3x3 grid of cells, six lines (3 rows, 3 columns).")
print("Rows are signed +1, columns -1, so the signing parity is",
      parity(signing), "\n")

print("The two-qubit observable table:")
ops = realization.as_dict()
for row in "123":
    print("   " + " | ".join(f"{ops[row + col]!s:>4}" for col in "123"))
print()

print("Each line's operators commute and multiply to its sign times I:")
for line, members in board.hyperedges:
    prod = product_of([ops[v] for v in members])
    print(f"   {line}: {' * '.join(str(ops[v]) for v in members)} = {prod}")
print()

print("A +-1 vertex coloring with these line parities cannot exist:")
print("   every cell lies on one row and one column, so the product of all")
print("   six line constraints squares every cell label away, forcing the")
print("   signing parity to be +1; here it is -1.")
print("   is_classically_realizable:", is_classically_realizable(board, signing))

print("   best deterministic classical win rate, 1 - 1/(2|V|) for odd parity:",
      f"{classical_value(board, signing)}\n")

print("The dual multigraph (lines as nodes, one edge per shared cell) is K3,3:")
print(to_dot(build(board)))
