"""Deciding boards and replaying nonmagic certificates, tampering included.

Run:  python3 demos/decide_and_certify.py
"""

import random
import warnings

from pseudotelepathy import build, check_trace, generate_trace, synthesize, validate
from pseudotelepathy.certificate import ContractionTrace, IllegalStep
from pseudotelepathy.generate import random_arrangement

warnings.filterwarnings("ignore", message="arrangement contains a size-1")

triangle, _ = validate({
    "vertices": ["x", "y", "z"],
    "hyperedges": [
        {"id": "ab", "vertices": ["x", "y"]},
        {"id": "bc", "vertices": ["y", "z"]},
        {"id": "ca", "vertices": ["x", "z"]},
    ],
})

print("Three lines pairwise sharing one vertex: the dual is a 3-cycle, planar.")
verdict = synthesize(triangle)
print("magic?", verdict.magic)
trace = verdict.certificate
print("certificate steps:", [f"{op} {arg}" for op, arg in trace.steps])
print("replayed final sign:",
      check_trace(build(triangle), verdict.embedding,
                  verdict.signing.as_dict(), trace))
print()

print("Tampering with the trace is caught by the adversarial checker:")
bad = ContractionTrace(trace.steps, -trace.final_sign)
try:
    check_trace(build(triangle), verdict.embedding,
                verdict.signing.as_dict(), bad)
except IllegalStep as err:
    print("   rejected:", err)
print()

print("The same machinery on random boards:")
rng = random.Random(2)
for _ in range(5):
    board, signing = random_arrangement(rng, rng.randrange(3, 9))
    verdict = synthesize(board)
    if verdict.magic:
        print(f"   {len(board.vertices):2d} vertices / {len(board.hyperedges)} lines: "
              f"magic, realization on {verdict.realization.n_qubits} qubits "
              f"(witness {verdict.witness.kind})")
    else:
        g = build(board)
        replay = check_trace(g, verdict.embedding, signing.as_dict(),
                             generate_trace(g, verdict.embedding, signing.as_dict()))
        print(f"   {len(board.vertices):2d} vertices / {len(board.hyperedges)} lines: "
              f"not magic, certificate replays to sign {replay:+d}")
