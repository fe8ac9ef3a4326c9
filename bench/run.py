"""Benchmark of the decide -> recheck -> CLI -> play pipeline.

    python3 bench/run.py --workload planar-grids --seed 1 --seconds 38 --trace 0

Run from the repository root.  The program is imported from ``src/`` next
to this directory and is not modified, except that ``--trace 1`` wraps its
public functions (see ``tracing.py``).  Each workload takes its boards
through ``synthesize``, the library's verifiers, the in-process CLI and the
exact and Monte Carlo games; after the timed sections, ``checks.py`` tests
every output against computations made apart from the program.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  Result and trace files go to
``bench/out/``.

Each board goes through decide, recheck, CLI and exact games in turn, and
these sections always run to their end.  Monte Carlo rounds are played
between the boards and then fill the run up to ``--seconds`` (a traced run
plays a fixed number of rounds instead), so the rates are timed over the
whole run.  Times are the wall-clock seconds of the program's calls,
scaled to a reference host speed (see ``hostspeed.py``); the result file
keeps them unscaled as well.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

MODULES = ("arrangement", "intersection", "planarity", "pauli", "realization",
           "certificate", "game", "cli")
SETUP_REPS = 5

# recheck and exact-game passes per board, and Monte Carlo trials per game
# board in each round, sized so that every section covers enough work to
# repeat steadily
PARAMS = {
    "planar-grids": {"recheck_reps": 3, "exact_reps": 3,
                     "quantum_trials": 400, "classical_trials": 2000},
    "nonplanar-random": {"recheck_reps": 25, "exact_reps": 3,
                         "quantum_trials": 150, "classical_trials": 1500},
    "small-subdivisions": {"recheck_reps": 5, "exact_reps": 3,
                           "quantum_trials": 10, "classical_trials": 100},
}
SMOKE_PARAMS = {"recheck_reps": 1, "exact_reps": 1, "quantum_trials": 5, "classical_trials": 20}
# Monte Carlo rounds played between the boards' sections (see Run.measure)
INTERLEAVED_MC_ROUNDS = 8
# a traced run, instead of filling the run, stops once it has played this
# many rounds in all, so that its call counts repeat exactly for a given seed
TRACE_MC_ROUNDS = 3


def write_in_place(path: Path, text: str) -> None:
    """Write text to path without first emptying the file.

    The board and certificate files live in one folder per workload that
    every run reuses.  Creating a file, or emptying one that holds data,
    took from 0.03 ms to over 1 ms on the shared virtual disk this was
    tuned on, depending on the disk's load, while overwriting a file's
    bytes in place stayed cheap.  The timings would otherwise follow the
    disk rather than the program.
    """
    with open(os.open(path, os.O_RDWR | os.O_CREAT, 0o644), "wb") as fh:
        fh.write(text.encode())
        fh.truncate()


def import_program() -> dict:
    """Import the package from the checkout's src/, never from elsewhere."""
    if not (SRC / "pseudotelepathy" / "__init__.py").is_file():
        raise ImportError(f"no pseudotelepathy package under {SRC}")
    sys.path.insert(0, str(SRC))
    package = importlib.import_module("pseudotelepathy")
    if Path(package.__file__).resolve().parent != SRC / "pseudotelepathy":
        raise ImportError(f"pseudotelepathy imported from {package.__file__}")
    modules = {name: importlib.import_module(f"pseudotelepathy.{name}") for name in MODULES}
    return {"package": package, **modules}


class Run:
    """State of one benchmark run: boards, outputs, timings and operations."""

    def __init__(self, args, program: dict, tracer, clock):
        self.args = args
        self.p = program
        self.tracer = tracer
        self.clock = clock                    # scales times to the reference speed
        self.params = SMOKE_PARAMS if args.smoke else PARAMS[args.workload]
        self.seconds: dict[str, float] = {}   # section -> wall-clock time of its operations
        self.rechecked: list[str] = []        # boards whose recheck passes ran
        self.exact_played: list[str] = []     # boards whose exact-game passes ran
        self.played: dict[tuple[str, int], int] = {}  # (kind, round) -> trials
        self.attempted = 0
        self.errors: list[str] = []       # operations that raised
        self.wrong: list[str] = []        # operations whose output was wrong
        self.reference: dict = {}

    def timed(self, section: str, fn, *args, key=None):
        """fn(*args), its time added to the section's and to the clock's key.

        The key defaults to the section; the host clock may sample its
        speed before and after the call, never during it.
        """
        traced = (self.tracer.section(f"bench.{section}") if self.tracer
                  else contextlib.nullcontext())
        self.clock.tick()
        try:
            with traced:
                start = time.perf_counter()
                try:
                    return fn(*args)
                finally:
                    elapsed = time.perf_counter() - start
                    self.seconds[section] = self.seconds.get(section, 0.0) + elapsed
                    self.clock.add(section if key is None else key, start, elapsed)
        finally:
            self.clock.tick()

    def attempt(self, section: str, case, fn, *args, key=None):
        """One operation: fn's result, or None after recording its error."""
        self.attempted += 1
        try:
            return self.timed(section, fn, *args, key=key)
        except Exception as err:  # a failing operation must not end the run
            self.errors.append(f"{section} {case.name}: {type(err).__name__}: {err}")
            return None

    # -- setup -------------------------------------------------------------

    def setup(self, folder: Path) -> None:
        """Build the inputs SETUP_REPS times, each timed as its own section."""
        from boards import WORKLOADS

        arrangement, realization = self.p["arrangement"], self.p["realization"]

        def make_inputs():
            cases = WORKLOADS[self.args.workload](self.args.seed, self.args.smoke)
            for k, case in enumerate(cases):
                case.board, _ = arrangement.validate(case.raw)
                case.path = str(folder / f"board{k}.json")
                case.cert = str(folder / f"cert{k}.json")
                write_in_place(folder / f"board{k}.json", json.dumps(case.raw))
            realization.synthesize(min(cases, key=lambda c: len(c.raw["vertices"])).board)
            return cases

        for rep in range(SETUP_REPS):
            self.cases = self.timed(f"setup{rep}", make_inputs)

    # -- timed sections ----------------------------------------------------

    def decide(self, case) -> None:
        start = time.perf_counter()
        case.verdict = self.attempt("decide", case, self.p["realization"].synthesize,
                                    case.board)
        self.reference.setdefault("decide_s_per_board", {})[case.name] = (
            time.perf_counter() - start)

    def _recheck_one(self, case) -> bool:
        p, v = self.p, case.verdict
        graph = p["intersection"].build(case.board)
        if v.magic:
            return (p["planarity"].verify_witness(graph, v.witness)
                    and p["realization"].verify_realization(case.board, v.signing,
                                                            v.realization))
        return (p["planarity"].verify_embedding(graph, v.embedding)
                and p["certificate"].check_trace(graph, v.embedding, v.signing.as_dict(),
                                                 v.certificate) == 1
                and p["arrangement"].check_realization(case.board, v.signing, v.classical))

    def recheck(self, case) -> None:
        """recheck_reps passes over the board's artifacts; the median pass counts."""
        for rep in range(self.params["recheck_reps"]):
            if self.attempt("recheck", case, self._recheck_one, case,
                            key=("recheck", case.name, rep)) is False:
                self.wrong.append(f"recheck {case.name}: a verifier rejected it")
        self.rechecked.append(case.name)

    def _cli_call(self, *argv: str) -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.p["cli"].run(list(argv))
        return code, out.getvalue()

    def cli(self, case) -> None:
        """`decide --certificate -`, then `certify --check <file>` on planar boards.

        The certificate goes to standard output and the benchmark stores it
        in place, untimed (see write_in_place); the CLI builds and prints
        the same bytes it would write to a file.
        """
        case.cli = [self.attempt("cli", case, self._cli_call, "decide", "--arrangement",
                                 case.path, "--certificate", "-")]
        if case.magic or case.cli[0] is None:
            return
        payload = case.cli[0][1].rpartition("}")[0] + "}"
        write_in_place(Path(case.cert), payload)
        case.cli.append(self.attempt("cli", case, self._cli_call, "certify", "--arrangement",
                                     case.path, "--check", case.cert))

    def _strategies(self, case):
        """The strategies the CLI's `simulate` would play on this board."""
        p, v = self.p, case.verdict
        arrangement, game = p["arrangement"], p["game"]
        if case.magic:
            signing = v.signing
            quantum = game.QuantumStrategy(v.realization)
            alice = {x: 1 for x in case.board.vertices}
            classical = game.ClassicalStrategy.best_response(case.board, signing, alice)
        else:
            signing = arrangement.Signing.from_dict(case.game_signs)
            labels = arrangement.classical_realize(case.board, signing)
            one = p["pauli"].identity(1)
            ops = {x: one if lab == 1 else one.negate() for x, lab in labels.as_dict().items()}
            quantum = game.QuantumStrategy(p["realization"].QuantumRealization.from_dict(1, ops))
            classical = game.ClassicalStrategy.from_realization(case.board, labels)
        return signing, quantum, classical

    def _exact_one(self, case):
        exact = self.p["game"].exact_win_probability
        case.signing, case.quantum, case.classical = self._strategies(case)
        return (exact(case.quantum, case.board, case.signing),
                exact(case.classical, case.board, case.signing))

    def exact_game(self, case) -> None:
        """exact_reps passes of both exact games; the median pass counts."""
        for rep in range(self.params["exact_reps"]):
            case.exact = self.attempt("exact_game", case, self._exact_one, case,
                                      key=("exact_game", case.name, rep))
        self.exact_played.append(case.name)
        case.mc = {"quantum": [0, 0], "classical": [0, 0]}

    def monte_carlo_round(self, games: list, index: int) -> None:
        """One batch of trials per game board and strategy; records the trials played."""
        monte_carlo = self.p["game"].monte_carlo
        for kind in ("quantum", "classical"):
            trials = self.params[f"{kind}_trials"]
            played = 0
            for k, case in enumerate(games):
                seed = (self.args.seed * 1_000_003 + index * 10_007 + k) % 2**32
                report = self.attempt(f"{kind}_mc", case, monte_carlo, getattr(case, kind),
                                      case.board, case.signing, trials, seed,
                                      key=(f"{kind}_mc", index))
                if report is not None:
                    case.mc[kind][0] += report.wins
                    case.mc[kind][1] += report.trials
                    played += report.trials
            if played:
                self.played[kind, index] = played

    def measure(self) -> None:
        """Each board in turn through every section, with Monte Carlo rounds between.

        The host's speed drifts by 10 % and more over tens of seconds, so a
        rate timed only in the last part of a run follows the host of that
        moment.  Game boards go first, and after every
        1/(INTERLEAVED_MC_ROUNDS + 1) of the boards one Monte Carlo round
        is played; more rounds then fill the run.  The rates' rounds thus
        span the whole run, and the sections run board by board so that a
        slow spell weighs on all of them alike.
        """
        start = time.perf_counter()
        gc.collect()
        order = sorted(self.cases, key=lambda c: not c.game)  # stable: game boards first
        between = {len(order) * k // (INTERLEAVED_MC_ROUNDS + 1)
                   for k in range(1, INTERLEAVED_MC_ROUNDS + 1)}
        games, rounds = [], 0
        for done, case in enumerate(order, 1):
            self.decide(case)
            if case.verdict is not None:
                self.recheck(case)
            self.cli(case)
            if case.game and case.verdict is not None:
                self.exact_game(case)
                if case.exact is not None:
                    games.append(case)
            if done in between and games:
                self.monte_carlo_round(games, rounds)
                rounds += 1
        while (rounds < TRACE_MC_ROUNDS if self.tracer
               else rounds == 0 or time.perf_counter() - start < self.args.seconds):
            self.monte_carlo_round(games, rounds)
            rounds += 1
        self.reference["monte_carlo_rounds"] = rounds
        self.clock.sample()
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # -- checks made apart from the program ---------------------------------

    def check(self) -> None:
        import checks

        nx_seconds = {}
        for case in self.cases:
            start = time.perf_counter()
            planar = checks.dual_is_planar(case.raw)
            nx_seconds[case.name] = time.perf_counter() - start
            found = {"input": ["networkx planarity disagrees with the construction"]
                     if planar == case.magic else []}
            if case.verdict is not None:
                found["decide"] = self._check_verdict(checks, case)
            if hasattr(case, "cli"):
                found["cli"] = self._check_cli(case)
            if getattr(case, "exact", None) is not None:
                found["games"] = self._check_games(checks, case)
            # one wrong operation per board and stage, however many faults it shows
            self.wrong += [f"{stage} {case.name}: {'; '.join(problems[:3])}"
                           for stage, problems in found.items() if problems]
        self.reference["networkx_check_planarity_s_per_board"] = nx_seconds

    def _check_verdict(self, checks, case) -> list[str]:
        v = case.verdict
        if v.magic != case.magic:
            return [f"verdict magic={v.magic}, expected {case.magic}"]
        signs = v.signing.as_dict()
        if v.magic:
            ops = {x: str(op) for x, op in v.realization.operators}
            return checks.check_magic(case.raw, v.realization.n_qubits, ops, signs)
        problems = checks.check_labels(case.raw, v.classical.as_dict(), signs)
        if v.certificate.final_sign != 1:
            problems.append("certificate final sign is not +1")
        return problems + checks.euler_faces(case.raw, v.embedding.to_json_dict())

    def _check_cli(self, case) -> list[str]:
        if None in case.cli:
            return []  # the call raised, which counts as its failure
        (code, out), *certify = case.cli
        payload, _, verdict = out.rpartition("}")
        expected = "magic" if case.magic else "not magic"
        if code != 0 or verdict != f"\n{expected}\n":
            return [f"cli decide exited {code}, ending its output with {verdict!r}"]
        if json.loads(payload + "}")["magic"] != case.magic:
            return ["cli decide wrote a certificate for the other verdict"]
        if certify and certify[0] != (0, "1\n"):
            return [f"cli certify --check gave {certify[0]!r}"]
        return []

    def _check_games(self, checks, case) -> list[str]:
        problems = []
        quantum, classical = case.exact
        if abs(quantum - 1.0) > checks.PROBABILITY_TOLERANCE:
            problems.append(f"exact quantum win probability {quantum}")
        signs = case.signing.as_dict()
        expected = checks.closed_form_classical(case.raw, signs, case.magic)
        if abs(classical - expected) > 1e-12:
            problems.append(f"exact classical value {classical}, expected {expected}")
        if not case.magic:
            problems += checks.check_labels(case.raw, dict(case.classical.alice), signs)
        wins, trials = case.mc["quantum"]
        if wins != trials:
            problems.append(f"quantum Monte Carlo won {wins} of {trials}")
        wins, trials = case.mc["classical"]
        if abs(wins - expected * trials) > checks.binomial_band(expected, trials):
            problems.append(f"classical Monte Carlo won {wins} of {trials}, "
                            f"closed form {expected}")
        return problems

    # -- report ------------------------------------------------------------

    def end_to_end(self, t: dict) -> dict:
        """The end-to-end metrics from the clock's times, scaled or wall-clock."""
        setup = [t[f"setup{rep}"] for rep in range(SETUP_REPS)]

        def median_passes(section: str, boards: list[str], passes: int) -> float:
            return sum(statistics.median(t[section, name, rep] for rep in range(passes))
                       for name in boards)

        def rate(kind: str) -> float:
            rounds = [played / t[f"{k}_mc", index]
                      for (k, index), played in self.played.items() if k == kind]
            return statistics.median(rounds or [0.0])

        values = {
            "setup_s": (t["import"] + statistics.median(setup), "s"),
            "decide_s": (t["decide"], "s"),
            "recheck_s": (median_passes("recheck", self.rechecked,
                                        self.params["recheck_reps"]), "s"),
            "cli_s": (t["cli"], "s"),
            "exact_game_s": (median_passes("exact_game", self.exact_played,
                                           self.params["exact_reps"]), "s"),
            "quantum_mc_trials_per_s": (rate("quantum"), "1/s"),
            "classical_mc_trials_per_s": (rate("classical"), "1/s"),
            "peak_rss_mb": (self.peak_rss_mb, "MB"),
        }
        return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}

    def cli_output_bytes(self) -> int:
        return sum(len(call[1].encode()) for case in self.cases
                   for call in getattr(case, "cli", ()) if call is not None)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(PARAMS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="smallest boards of the workload, for the smoke test")
    args = parser.parse_args(argv)

    from hostspeed import HostClock
    clock = HostClock()
    start = time.perf_counter()
    try:
        program = import_program()
    except ImportError as err:
        print(f"cannot import the program: {err}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - start
    clock.add("import", start, import_s)

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
    run = Run(args, program, tracer, clock)
    folder = OUT / f"files-{args.workload}{'-smoke' if args.smoke else ''}"
    folder.mkdir(parents=True, exist_ok=True)
    run.setup(folder)
    if tracer is not None:
        tracer.install(program["package"], {m: program[m] for m in MODULES})
    run.measure()
    run.check()

    e2e = run.end_to_end(clock.totals(scaled=True))
    stem = f"{args.workload}-seed{args.seed}"
    record = {"workload": args.workload, "seed": args.seed, "run_seconds": args.seconds,
              "smoke": args.smoke, "attempted": run.attempted,
              "errors": run.errors, "wrong": run.wrong, "end_to_end": e2e,
              "section_seconds": {"import": import_s, **run.seconds},
              "wall_clock_end_to_end": run.end_to_end(clock.totals(scaled=False)),
              "reference_block_s": clock.samples,
              "reference": run.reference}
    if tracer is not None:
        tracer.counts["cli.output_bytes"] = run.cli_output_bytes()
        metrics = tracer.metrics()
        tracer.write(OUT / f"trace-{stem}.json.gz", {**record, "per_layer": metrics})
    else:
        metrics = e2e
        with open(OUT / f"result-{stem}.json", "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)

    for line in run.errors + run.wrong:
        print(line, file=sys.stderr)
    failed = len(run.errors) + len(run.wrong)
    print(json.dumps({"correct": not run.wrong, "attempted": run.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
