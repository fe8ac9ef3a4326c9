"""Tracing overhead: traced end-to-end numbers minus untraced ones.

    python3 bench/overhead.py --workload planar-grids --seed 1 --seconds 38

Runs the benchmark once without and once with tracing on the same seed and
prints, for every end-to-end metric, both values and their difference.
"""

from __future__ import annotations

import argparse
import gzip
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=38)
    args = parser.parse_args()
    stem = f"{args.workload}-seed{args.seed}"
    files = {}
    outputs = ((0, f"result-{stem}.json", open), (1, f"trace-{stem}.json.gz", gzip.open))
    for trace, name, opener in outputs:
        subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                        "--seed", str(args.seed), "--seconds", str(args.seconds),
                        "--trace", str(trace)], check=True, stdout=subprocess.DEVNULL)
        with opener(HERE / "out" / name, "rt") as fh:
            files[trace] = json.load(fh)["end_to_end"]
    print(f"{'metric':28s} {'untraced':>12s} {'traced':>12s} {'traced-untraced':>16s}")
    for name, plain in files[0].items():
        traced = files[1][name]["value"]
        print(f"{name:28s} {plain['value']:12.4f} {traced:12.4f} "
              f"{traced - plain['value']:+16.4f} {plain['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
