"""Command-line front end.

Subcommands: validate | decide | synthesize | certify | simulate |
export-dot | gen.  Exit codes: 0 success, 1 invalid input, 2 a certificate
or self-check failed (the latter indicating a bug, since every emitted
artifact is verified once before printing).  Each failure is worded, and
its exit code picked, where it is caught; ``run`` prints the one line.  All
randomness flows through one seed, defaulting to DEFAULT_SEED for
reproducible output.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import random
import sys
import warnings
from json.encoder import encode_basestring_ascii as _json_string

from pseudotelepathy import arrangement as arr
from pseudotelepathy import game
from pseudotelepathy.certificate import (
    IllegalStep,
    MalformedCertificate,
    check_trace,
    generate_trace,
    read_payload,
)
from pseudotelepathy.generate import random_board
from pseudotelepathy.intersection import CoverageError, build, to_dot
from pseudotelepathy.pauli import PauliParseError, from_string, identity
from pseudotelepathy.realization import (
    QuantumRealization,
    resign_realization,
    synthesize,
    verify_realization,
)

DEFAULT_SEED = 1729


class CommandFailure(Exception):
    """A run that cannot go on: ``run`` prints ``message`` as the one stderr
    line and exits with ``code``, which the raise site picks: 1 for bad
    input, 2 for a rejected certificate or a failed self-check."""

    def __init__(self, message: str, code: int = 1):
        super().__init__(message)
        self.code = code


def _load_json(path, what):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as err:
        raise CommandFailure(f"cannot read {what} {path}: {err}") from err


def _load_board(path):
    try:
        return arr.validate(_load_json(path, "arrangement"))
    except arr.ArrangementError as err:
        raise CommandFailure(
            f"invalid arrangement {path}: {type(err).__name__}: {err}") from err


def _emit(text: str, output: str | None) -> None:
    if output is None or output == "-":
        sys.stdout.write(text)
        return
    try:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as err:
        raise CommandFailure(f"cannot write {output}: {err}") from err


def _json_text(payload) -> str:
    """``json.dumps(payload, indent=2, sort_keys=True) + "\\n"``, byte for byte.

    With an indent, ``json.dumps`` leaves its C encoder for a pure-Python
    generator; this plain recursive writer is about twice as fast.  It
    takes what these payloads hold: str, int, bool, None, finite float,
    list, tuple, and dict with str keys.  Any other type raises TypeError,
    and a NaN or infinity ValueError.
    """
    return _json_value(payload, "\n") + "\n"


def _json_value(value, newline: str) -> str:
    """``value`` as indented JSON; ``newline`` is the line break and indent
    that its own lines continue from."""
    if isinstance(value, str):
        return _json_string(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = newline + "  "
        items = []
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            items.append(f"{_json_string(key)}: {_json_value(value[key], inner)}")
        return f"{{{inner}{(',' + inner).join(items)}{newline}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = newline + "  "
        items = [_json_value(item, inner) for item in value]
        return f"[{inner}{(',' + inner).join(items)}{newline}]"
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"{value!r} is not a JSON number")
        return float.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def cmd_validate(args) -> int:
    board, signing = _load_board(args.arrangement)
    summary = {
        "vertices": len(board.vertices),
        "hyperedges": len(board.hyperedges),
        "signed": signing is not None,
    }
    if signing is not None:
        summary["parity"] = arr.parity(signing)
    _emit(_json_text(summary), args.output)
    return 0


def _verdict_payload(board, verdict) -> dict:
    payload: dict = {"magic": verdict.magic}
    if verdict.magic:
        payload["signs"] = verdict.signing.as_dict()
        payload["realization"] = verdict.realization.to_json_dict(verdict.signing)
        payload["witness"] = verdict.witness.to_json_dict()
    else:
        payload["signs"] = verdict.signing.as_dict()
        payload["classical_realization"] = verdict.classical.as_dict()
        payload["embedding"] = verdict.embedding.to_json_dict()
        payload["certificate"] = verdict.certificate.to_json_dict()
    return payload


def _self_check(board, verdict) -> None:
    """The checks of a verdict's artifacts that ``synthesize`` leaves out.

    ``synthesize`` has verified the realization and ``test_planarity`` the
    witness or the embedding; the certificate and the classical labels are
    checked here, each once.
    """
    if verdict.magic:
        if arr.parity(verdict.signing) != -1:
            raise CommandFailure("self-check failed: synthesized signing is not odd", 2)
        return
    _check_certificate(build(board), verdict.embedding, verdict.signing, verdict.certificate)
    if not arr.check_realization(board, verdict.signing, verdict.classical):
        raise CommandFailure("self-check failed: classical realization failed the product check", 2)


def _check_certificate(graph, embedding, signing, trace) -> None:
    if check_trace(graph, embedding, signing.as_dict(), trace) != arr.parity(signing):
        raise CommandFailure("self-check failed: certificate final sign disagrees with parity", 2)


def cmd_decide(args) -> int:
    board, _ = _load_board(args.arrangement)
    verdict = synthesize(board)
    _self_check(board, verdict)
    if args.certificate:
        _emit(_json_text(_verdict_payload(board, verdict)), args.certificate)
    print("magic" if verdict.magic else "not magic")
    return 0


def cmd_synthesize(args) -> int:
    board, _ = _load_board(args.arrangement)
    verdict = synthesize(board)
    _self_check(board, verdict)
    _emit(_json_text(_verdict_payload(board, verdict)), args.output)
    return 0


def cmd_certify(args) -> int:
    board, signing = _load_board(args.arrangement)
    graph = build(board)
    if args.check:
        try:
            trace, embedding, signs = read_payload(_load_json(args.check, "certificate"))
        except MalformedCertificate as err:
            raise CommandFailure(f"malformed certificate {args.check}: {err}", 2) from err
        print(check_trace(graph, embedding, signs, trace))
        return 0
    verdict = synthesize(board)
    if verdict.magic:
        raise CommandFailure("arrangement is magic; no nonmagic certificate exists")
    # test_planarity has verified the embedding; the trace is checked here
    if signing is None:
        signing, trace = verdict.signing, verdict.certificate
    else:
        trace = generate_trace(graph, verdict.embedding, signing.as_dict())
    _check_certificate(graph, verdict.embedding, signing, trace)
    payload = {
        "signs": signing.as_dict(),
        "embedding": verdict.embedding.to_json_dict(),
        "certificate": trace.to_json_dict(),
    }
    _emit(_json_text(payload), args.output)
    return 0


def _strategy_for(args, board, signing):
    if args.strategy == "quantum":
        if arr.parity(signing) == 1:
            # even parity: lift the classical realization to signed identities
            labels = arr.classical_realize(board, signing)
            ops = {v: identity(1) if lab == 1 else identity(1).negate()
                   for v, lab in labels.as_dict().items()}
            realization = QuantumRealization.from_dict(1, ops)
        else:
            verdict = synthesize(board)
            if not verdict.magic:
                raise CommandFailure("no quantum strategy exists: the board is not magic "
                                     "and the signing has odd parity")
            realization = resign_realization(board, verdict.signing, signing,
                                             verdict.realization)
        if not verify_realization(board, signing, realization):
            raise CommandFailure("self-check failed: strategy realization failed verification", 2)
        return game.QuantumStrategy(realization, literal=args.literal_measurements)
    if args.strategy == "classical":
        return game.ClassicalStrategy.optimal(board, signing)
    return _read_strategy(_load_json(args.strategy, "strategy"), args.strategy, board,
                          signing, args.literal_measurements)


def _read_strategy(payload, path, board, signing, literal):
    """The strategy in a ``--strategy`` file, every field type-checked.

    A file with ``operators`` is a quantum realization on ``n_qubits``;
    otherwise it gives ``alice``'s coloring and ``bob``'s coloring per line.
    Any bad field exits 1 with one line naming it.
    """
    def bad(message):
        raise CommandFailure(f"malformed strategy {path}: {message}")

    def colors(raw, field):
        if not isinstance(raw, dict):
            bad(f"{field} must be an object")
        for v, c in raw.items():
            if type(c) is not int or c not in (1, -1):  # bool is not a color
                bad(f"{field}[{v!r}] must be 1 or -1")
        return raw

    if not isinstance(payload, dict):
        bad("the file must hold an object")
    if "operators" in payload:
        n = payload.get("n_qubits")
        if type(n) is not int or n < 1:
            bad("n_qubits must be an integer of at least 1")
        words = payload["operators"]
        if not isinstance(words, dict):
            bad("operators must be an object")
        ops, vertices = {}, set(board.vertices)
        for v, word in words.items():
            if not isinstance(word, str):
                bad(f"operators[{v!r}] must be a string")
            try:
                ops[v] = from_string(word)
            except PauliParseError as err:
                bad(f"operators[{v!r}]: {err}")
            if ops[v].n_qubits != n:
                bad(f"operators[{v!r}] acts on {ops[v].n_qubits} qubits, not n_qubits = {n}")
            if v not in vertices:
                bad(f"operators[{v!r}] is not a vertex of the board")
        realization = QuantumRealization.from_dict(n, ops)
        try:
            verified = verify_realization(board, signing, realization)
        except CoverageError as err:
            bad(f"operators: {err}")
        if not verified:
            raise CommandFailure("custom realization fails verification "
                                 "against the board and signing")
        return game.QuantumStrategy(realization, literal=literal)
    alice = colors(payload.get("alice"), "alice")
    lines = payload.get("bob")
    if not isinstance(lines, dict):
        bad("bob must be an object")
    bob = {e: colors(coloring, f"bob[{e!r}]") for e, coloring in lines.items()}
    line_ids = set(board.hyperedge_ids())
    for e in bob:
        if e not in line_ids:
            bad(f"bob[{e!r}] is not a line of the board")
    if set(alice) != set(board.vertices):
        raise CommandFailure("strategy must color every board vertex")
    for eid, members in board.hyperedges:
        if eid not in bob or set(bob[eid]) != set(members):
            raise CommandFailure(f"strategy must color line {eid!r} exactly")
    return game.ClassicalStrategy.from_maps(alice, bob)


def cmd_simulate(args) -> int:
    if not args.exact and args.trials < 1:
        raise CommandFailure(f"--trials must be at least 1, got {args.trials}")
    # random.Random(-n) draws as random.Random(n) does, so a negative seed
    # would silently replay another seed's rounds
    if not args.exact and args.seed < 0:
        raise CommandFailure(f"--seed must be at least 0, got {args.seed}")
    board, signing = _load_board(args.arrangement)
    if signing is None:
        signing = arr.all_plus_signing(board)
    strategy = _strategy_for(args, board, signing)
    report: dict = {"strategy": args.strategy, "seed": args.seed}
    if args.exact:
        per_line = game.exact_win_probabilities(strategy, board, signing)
        per_query = {f"{q.vertex}|{q.hyperedge}": per_line[q.hyperedge][q.vertex]
                     for q in game.all_queries(board)}
        value = float(sum(per_query.values()) / len(per_query))
        report["win_probability"] = value
        report["ci"] = [value, value]  # exact: degenerate interval
        report["per_query_breakdown"] = {q: float(p) for q, p in per_query.items()}
    else:
        mc = game.monte_carlo(strategy, board, signing, args.trials, args.seed)
        report["win_probability"] = mc.rate
        report["ci"] = [mc.ci_low, mc.ci_high]
        report["trials"] = mc.trials
        report["per_query_breakdown"] = {f"{v}|{e}": rate
                                         for (v, e), rate in mc.per_query}
    _emit(_json_text(report), args.output)
    return 0


def cmd_export_dot(args) -> int:
    board, _ = _load_board(args.arrangement)
    _emit(to_dot(build(board)), args.output)
    return 0


def cmd_gen(args) -> int:
    if args.hyperedges < 2:
        raise CommandFailure(f"--hyperedges must be at least 2, got {args.hyperedges}")
    if args.extra_vertices is not None and args.extra_vertices < 0:
        raise CommandFailure(f"--extra-vertices must be at least 0, got {args.extra_vertices}")
    rng = random.Random(args.seed)
    raw = random_board(rng, args.hyperedges, args.extra_vertices, signed=args.signed)
    try:
        arr.validate(raw)  # self-check before emitting
    except arr.ArrangementError as err:
        raise CommandFailure(f"self-check failed: generated board is invalid: {err}", 2) from err
    _emit(_json_text(raw), args.output)
    return 0


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors follow the exit codes: one
    stderr line and exit 1, not a usage block and exit 2."""

    def error(self, message):
        raise CommandFailure(f"{self.prog}: error: {message}")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and then kept: parsing
    leaves it unchanged, and building it costs far more than a parse."""
    parser = _Parser(
        prog="pseudotelepathy",
        description="decide, realize, certify, and simulate parity game boards",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def board_command(name, func, **kwargs):
        cmd = sub.add_parser(name, **kwargs)
        cmd.add_argument("--arrangement", required=True, help="board JSON file")
        cmd.add_argument("--output", default=None, help="output path (default stdout)")
        cmd.set_defaults(func=func)
        return cmd

    board_command("validate", cmd_validate, help="check the structural axioms")

    decide = sub.add_parser("decide", help="print magic / not magic")
    decide.add_argument("--arrangement", required=True)
    decide.add_argument("--certificate", default=None,
                        help="also write the verdict artifact JSON here")
    decide.set_defaults(func=cmd_decide)

    board_command("synthesize", cmd_synthesize,
                  help="emit the full verdict with realization or certificate")

    certify = board_command("certify", cmd_certify,
                            help="emit or check a nonmagic contraction certificate")
    certify.add_argument("--check", default=None,
                         help="replay this certificate JSON instead of generating")

    simulate = board_command("simulate", cmd_simulate, help="play the parity game")
    simulate.add_argument("--strategy", default="quantum",
                          help="quantum | classical | path to a strategy JSON")
    simulate.add_argument("--trials", type=int, default=10000)
    simulate.add_argument("--seed", type=int, default=DEFAULT_SEED)
    simulate.add_argument("--exact", action="store_true",
                          help="exact win probabilities from Pauli correlators")
    simulate.add_argument("--literal-measurements", action="store_true",
                          help="Bob measures untransposed operators")

    board_command("export-dot", cmd_export_dot, help="DOT text of the dual multigraph")

    gen = sub.add_parser("gen", help="generate a random valid board")
    gen.add_argument("--hyperedges", type=int, required=True)
    gen.add_argument("--extra-vertices", type=int, default=None)
    gen.add_argument("--seed", type=int, default=DEFAULT_SEED)
    gen.add_argument("--signed", action="store_true")
    gen.add_argument("--output", default=None)
    gen.set_defaults(func=cmd_gen)
    return parser


def run(argv) -> int:
    """Run one command line and return its exit code.  Its warnings follow
    the one-line rule: each distinct one as a ``warning:`` line after a
    success, none after a failure."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")  # a repeated call warns again
        code = _dispatch(argv)
    if code == 0:
        for message in dict.fromkeys(str(w.message) for w in caught):
            print(f"warning: {message}", file=sys.stderr)
    return code


def _dispatch(argv) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except SystemExit as err:  # --help
        return err.code if isinstance(err.code, int) else 1
    except CommandFailure as err:
        print(err, file=sys.stderr)
        return err.code
    except AssertionError as err:  # a library self-check: a bug, not bad input
        print(f"self-check failed: {_stage(err)}: "
              f"{str(err).removeprefix('internal error: ')}", file=sys.stderr)
        return 2
    except IllegalStep as err:
        print(f"certificate rejected at step {err.index}: {err.reason}", file=sys.stderr)
        return 2


def _stage(err: BaseException) -> str:
    """The name of the function that raised ``err``."""
    tb = err.__traceback__
    while tb.tb_next is not None:
        tb = tb.tb_next
    return tb.tb_frame.f_code.co_name


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
