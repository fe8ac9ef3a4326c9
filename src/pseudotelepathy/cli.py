"""Command-line front end.

Subcommands: validate | decide | synthesize | certify | simulate |
export-dot | gen.  Exit codes: 0 success, 1 invalid input, 2 a certificate
or self-check failed (the latter indicating a bug, since every emitted
artifact is re-verified before printing).  All randomness flows through one
seed, defaulting to DEFAULT_SEED for reproducible output.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from pseudotelepathy import arrangement as arr
from pseudotelepathy import game
from pseudotelepathy.certificate import (
    ContractionTrace,
    IllegalStep,
    check_trace,
    generate_trace,
)
from pseudotelepathy.generate import random_board
from pseudotelepathy.intersection import RotationSystem, build, to_dot
from pseudotelepathy.pauli import identity, parse_operator_map
from pseudotelepathy.realization import (
    QuantumRealization,
    resign_realization,
    synthesize,
    verify_realization,
)

DEFAULT_SEED = 1729


class SelfCheckFailure(RuntimeError):
    pass


def _load_board(path):
    try:
        return arr.load(path)
    except arr.ArrangementError as err:
        raise SystemExit(_fail(f"invalid arrangement {path}: "
                               f"{type(err).__name__}: {err}"))
    except (OSError, json.JSONDecodeError) as err:
        raise SystemExit(_fail(f"cannot read arrangement {path}: {err}"))


def _fail(message: str) -> int:
    print(message, file=sys.stderr)
    return 1


def _emit(text: str, output: str | None) -> None:
    if output is None or output == "-":
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


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
    if verdict.magic:
        if arr.parity(verdict.signing) != -1:
            raise SelfCheckFailure("synthesized signing is not odd")
        if not verify_realization(board, verdict.signing, verdict.realization):
            raise SelfCheckFailure("synthesized realization failed verification")
    else:
        graph = build(board)
        sign = check_trace(graph, verdict.embedding, verdict.signing.as_dict(),
                           verdict.certificate)
        if sign != arr.parity(verdict.signing):
            raise SelfCheckFailure("certificate final sign disagrees with parity")
        if not arr.check_realization(board, verdict.signing, verdict.classical):
            raise SelfCheckFailure("classical realization failed the product check")


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
        with open(args.check, encoding="utf-8") as fh:
            payload = json.load(fh)
        trace = ContractionTrace.from_json_dict(payload["certificate"])
        embedding = RotationSystem.from_json_dict(payload["embedding"])
        signs = {eid: int(sign) for eid, sign in payload["signs"].items()}
        try:
            sign = check_trace(graph, embedding, signs, trace)
        except IllegalStep as err:
            print(f"certificate rejected at step {err.index}: {err.reason}",
                  file=sys.stderr)
            return 2
        print(sign)
        return 0
    verdict = synthesize(board)
    if verdict.magic:
        return _fail("arrangement is magic; no nonmagic certificate exists")
    _self_check(board, verdict)
    if signing is None:
        signing, trace = verdict.signing, verdict.certificate
    else:
        signs = signing.as_dict()
        trace = generate_trace(graph, verdict.embedding, signs)
        if check_trace(graph, verdict.embedding, signs, trace) != arr.parity(signing):
            raise SelfCheckFailure("certificate final sign disagrees with parity")
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
                raise SystemExit(_fail(
                    "no quantum strategy exists: the board is not magic and "
                    "the signing has odd parity"))
            realization = resign_realization(board, verdict.signing, signing,
                                             verdict.realization)
        if not verify_realization(board, signing, realization):
            raise SelfCheckFailure("strategy realization failed verification")
        return game.QuantumStrategy(realization, literal=args.literal_measurements)
    if args.strategy == "classical":
        if arr.parity(signing) == 1:
            labels = arr.classical_realize(board, signing)
            return game.ClassicalStrategy.from_realization(board, labels)
        alice = {v: 1 for v in board.vertices}
        return game.ClassicalStrategy.best_response(board, signing, alice)
    with open(args.strategy, encoding="utf-8") as fh:
        payload = json.load(fh)
    if "operators" in payload:
        ops = parse_operator_map(payload["operators"])
        realization = QuantumRealization.from_dict(int(payload["n_qubits"]), ops)
        if not verify_realization(board, signing, realization):
            raise SystemExit(_fail("custom realization fails verification "
                                   "against the board and signing"))
        return game.QuantumStrategy(realization, literal=args.literal_measurements)
    try:
        strategy = game.ClassicalStrategy.from_maps(
            {v: int(c) for v, c in payload["alice"].items()},
            {e: {v: int(c) for v, c in coloring.items()}
             for e, coloring in payload["bob"].items()},
        )
    except (KeyError, TypeError, ValueError) as err:
        raise SystemExit(_fail(f"malformed strategy file: {err}"))
    alice = dict(strategy.alice)
    bob = dict(strategy.bob)
    if set(alice) != set(board.vertices):
        raise SystemExit(_fail("strategy must color every board vertex"))
    for eid, members in board.hyperedges:
        if eid not in bob or {v for v, _ in bob[eid]} != set(members):
            raise SystemExit(_fail(f"strategy must color line {eid!r} exactly"))
    return strategy


def cmd_simulate(args) -> int:
    board, signing = _load_board(args.arrangement)
    if signing is None:
        signing = arr.all_plus_signing(board)
    strategy = _strategy_for(args, board, signing)
    report: dict = {"strategy": args.strategy, "seed": args.seed}
    if args.exact:
        per_query = {
            f"{q.vertex}|{q.hyperedge}": game.exact_query_win_probability(
                strategy, board, signing, q)
            for q in game.all_queries(board)
        }
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
    rng = random.Random(args.seed)
    raw = random_board(rng, args.hyperedges, args.extra_vertices, signed=args.signed)
    arr.validate(raw)  # self-check before emitting
    _emit(_json_text(raw), args.output)
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except SystemExit as err:
        return err.code if isinstance(err.code, int) else 1
    except SelfCheckFailure as err:
        print(f"self-check failed: {err}", file=sys.stderr)
        return 2
    except IllegalStep as err:
        print(f"certificate rejected at step {err.index}: {err.reason}", file=sys.stderr)
        return 2
    except arr.ArrangementError as err:
        return _fail(str(err))


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
