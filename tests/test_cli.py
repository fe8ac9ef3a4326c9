"""End-to-end command-line flows, exit codes, and output determinism."""

import contextlib
import copy
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    ILL_TYPED_BOARDS,
    board_json,
    complete_graph_edges,
    count_calls,
    k33_edges,
    odd_y_board,
    prism_edges,
    subdivided_board,
)
from pseudotelepathy import (
    arrangement,
    certificate,
    cli,
    intersection,
    planarity,
    realization,
)
from pseudotelepathy.arrangement import Signing, load
from pseudotelepathy.cli import run
from pseudotelepathy.game import ClassicalStrategy
from pseudotelepathy.generate import random_arrangement, random_board
from pseudotelepathy.realization import synthesize

BOARDS = Path(__file__).resolve().parent.parent / "boards"
SIZE_ONE_WARNING = ("warning: arrangement contains a size-1 hyperedge; the game on it "
                    "is playable but that line constrains a single vertex\n")


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_square(self, capsys):
        code, out, _ = invoke(capsys, "validate", "--arrangement", str(BOARDS / "square.json"))
        assert code == 0
        payload = json.loads(out)
        assert payload == {"vertices": 9, "hyperedges": 6, "signed": True, "parity": -1}

    def test_bad_degree_board(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "vertices": ["a", "b", "c"],
            "hyperedges": [
                {"id": "e1", "vertices": ["a", "b", "c"]},
                {"id": "e2", "vertices": ["a", "b"]},
                {"id": "e3", "vertices": ["a", "c"]},
            ],
        }))
        code, _, err = invoke(capsys, "validate", "--arrangement", str(bad))
        assert code == 1
        assert "DegreeError" in err


class TestDecide:
    @pytest.mark.parametrize("board,expected", [
        ("square.json", "magic"),
        ("pentagram.json", "magic"),
        ("triangle.json", "not magic"),
    ])
    def test_verdicts(self, capsys, board, expected):
        code, out, _ = invoke(capsys, "decide", "--arrangement", str(BOARDS / board))
        assert code == 0
        assert out.strip() == expected

    def test_certificate_artifact(self, capsys, tmp_path):
        out_path = tmp_path / "verdict.json"
        code, out, _ = invoke(capsys, "decide", "--arrangement",
                              str(BOARDS / "triangle.json"),
                              "--certificate", str(out_path))
        assert code == 0 and out.strip() == "not magic"
        payload = json.loads(out_path.read_text())
        assert payload["magic"] is False
        assert payload["certificate"]["final_sign"] == 1
        assert set(payload["classical_realization"].values()) == {1}

    def test_byte_identical_stdout(self, capsys):
        runs = [invoke(capsys, "decide", "--arrangement", str(BOARDS / "square.json"))
                for _ in range(2)]
        assert runs[0] == runs[1]


class TestSynthesize:
    def test_square_payload(self, capsys):
        code, out, _ = invoke(capsys, "synthesize", "--arrangement",
                              str(BOARDS / "square.json"))
        assert code == 0
        payload = json.loads(out)
        assert payload["magic"] is True
        assert payload["realization"]["n_qubits"] == 2
        assert payload["witness"]["kind"] == "K33"
        ops = payload["realization"]["operators"]
        assert set(ops) == {f"{r}{c}" for r in "123" for c in "123"}


class TestCertify:
    def test_roundtrip(self, capsys, tmp_path):
        cert = tmp_path / "cert.json"
        code, _, _ = invoke(capsys, "certify", "--arrangement",
                            str(BOARDS / "triangle.json"), "--output", str(cert))
        assert code == 0
        code, out, _ = invoke(capsys, "certify", "--arrangement",
                              str(BOARDS / "triangle.json"), "--check", str(cert))
        assert code == 0
        assert out.strip() == "1"

    def test_corrupted_certificate_exits_two(self, capsys, tmp_path):
        cert = tmp_path / "cert.json"
        invoke(capsys, "certify", "--arrangement", str(BOARDS / "triangle.json"),
               "--output", str(cert))
        payload = json.loads(cert.read_text())
        payload["certificate"]["final_sign"] *= -1
        cert.write_text(json.dumps(payload))
        code, out, err = invoke(capsys, "certify", "--arrangement",
                                str(BOARDS / "triangle.json"), "--check", str(cert))
        assert code == 2 and out == ""
        assert err == ("certificate rejected at step 3: "
                       "recorded final sign disagrees with the replay\n")

    @pytest.mark.parametrize("tamper, named", [
        (lambda p: p["certificate"]["steps"][0].pop("edge"),
         "certificate.steps[0].edge is missing"),
        (lambda p: p.update(embedding={"x": 3}), "embedding['x']"),
        (lambda p: p["embedding"]["ab"][0].__setitem__(1, True), "embedding['ab']"),
        (lambda p: p["certificate"]["steps"][-1].update(symbol=["ab"]),
         "certificate.steps[2].symbol must be a string"),
        (lambda p: p["certificate"]["steps"][0].update(op="merge"),
         "certificate.steps[0].op"),
        (lambda p: p["signs"].update(ab=True), "signs['ab'] must be 1 or -1"),
        (lambda p: p["signs"].update(bc=1.0), "signs['bc'] must be 1 or -1"),
        (lambda p: p["certificate"].update(final_sign=3), "certificate.final_sign"),
        (lambda p: p.pop("signs"), "signs is missing"),
        (lambda p: p["signs"].pop("ab"),
         "signs must cover exactly the graph nodes: missing ['ab']"),
        (lambda p: p["signs"].update(zz=1),
         "signs must cover exactly the graph nodes: missing [], unknown ['zz']"),
    ])
    def test_malformed_payload_exits_two(self, capsys, tmp_path, tamper, named):
        cert = tmp_path / "cert.json"
        invoke(capsys, "certify", "--arrangement", str(BOARDS / "triangle.json"),
               "--output", str(cert))
        payload = json.loads(cert.read_text())
        tamper(payload)
        cert.write_text(json.dumps(payload))
        code, out, err = invoke(capsys, "certify", "--arrangement",
                                str(BOARDS / "triangle.json"), "--check", str(cert))
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and named in err

    @pytest.mark.parametrize("word, sign", [
        (list, int), (lambda word: ["ghost"] + word[::-1], lambda sign: -sign),
    ], ids=["as-written", "disagreeing"])
    def test_v1_initial_block_is_ignored(self, capsys, tmp_path, word, sign):
        """A file written with the old ``certificate.initial`` copy of the
        embedding and signs still checks, whatever that copy holds."""
        cert = tmp_path / "cert.json"
        invoke(capsys, "certify", "--arrangement", str(BOARDS / "triangle.json"),
               "--output", str(cert))
        payload = json.loads(cert.read_text())
        payload["certificate"]["initial"] = {
            "rotation": {node: word([eid for eid, _ in darts])
                         for node, darts in payload["embedding"].items()},
            "signs": {node: sign(s) for node, s in payload["signs"].items()}}
        cert.write_text(json.dumps(payload))
        code, out, err = invoke(capsys, "certify", "--arrangement",
                                str(BOARDS / "triangle.json"), "--check", str(cert))
        assert (code, out, err) == (0, "1\n", "")

    def test_payload_that_is_not_an_object_exits_two(self, capsys, tmp_path):
        cert = tmp_path / "cert.json"
        cert.write_text("[]")
        code, out, err = invoke(capsys, "certify", "--arrangement",
                                str(BOARDS / "triangle.json"), "--check", str(cert))
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "payload must be an object" in err

    def test_unsigned_board_emits_the_self_checked_certificate(self, capsys, monkeypatch):
        def no_second_trace(*args):
            raise AssertionError("certify generated a second trace")

        monkeypatch.setattr(cli, "generate_trace", no_second_trace)
        code, out, _ = invoke(capsys, "certify", "--arrangement",
                              str(BOARDS / "triangle.json"))
        assert code == 0
        board, _ = load(BOARDS / "triangle.json")
        expected = synthesize(board).certificate.to_json_dict()
        assert json.loads(out)["certificate"] == expected

    def test_signed_board_certificate_is_checked_before_emitting(
            self, capsys, monkeypatch, tmp_path):
        raw = json.loads((BOARDS / "triangle.json").read_text())
        for edge, sign in zip(raw["hyperedges"], (-1, 1, 1)):
            edge["sign"] = sign
        board = tmp_path / "signed.json"
        board.write_text(json.dumps(raw))
        code, out, _ = invoke(capsys, "certify", "--arrangement", str(board))
        assert code == 0
        assert json.loads(out)["certificate"]["final_sign"] == -1

        real = cli.generate_trace
        monkeypatch.setattr(cli, "generate_trace", lambda *args: replace(
            real(*args), final_sign=1))
        code, out, err = invoke(capsys, "certify", "--arrangement", str(board))
        assert code == 2 and out == ""
        assert "rejected" in err

    def test_magic_board_refused(self, capsys, tmp_path):
        code, _, err = invoke(capsys, "certify", "--arrangement",
                              str(BOARDS / "square.json"),
                              "--output", str(tmp_path / "x.json"))
        assert code == 1
        assert "magic" in err


class TestSimulate:
    def test_exact_quantum_square(self, capsys):
        code, out, _ = invoke(capsys, "simulate", "--arrangement",
                              str(BOARDS / "square.json"), "--strategy", "quantum",
                              "--exact")
        assert code == 0
        payload = json.loads(out)
        assert payload["win_probability"] == pytest.approx(1.0, abs=1e-9)
        assert len(payload["per_query_breakdown"]) == 18

    def test_monte_carlo_classical(self, capsys):
        code, out, _ = invoke(capsys, "simulate", "--arrangement",
                              str(BOARDS / "square.json"), "--strategy", "classical",
                              "--trials", "2000", "--seed", "11")
        assert code == 0
        payload = json.loads(out)
        assert payload["win_probability"] < 1
        assert payload["ci"][0] <= payload["win_probability"] <= payload["ci"][1]

    def test_exact_classical_square_is_optimal(self, capsys):
        code, out, _ = invoke(capsys, "simulate", "--arrangement",
                              str(BOARDS / "square.json"), "--strategy", "classical",
                              "--exact")
        assert code == 0
        payload = json.loads(out)
        assert payload["win_probability"] == 17 / 18
        assert sorted(payload["per_query_breakdown"].values()) == [0.0] + [1.0] * 17

    def test_exact_classical_even_board_wins(self, capsys):
        code, out, _ = invoke(capsys, "simulate", "--arrangement",
                              str(BOARDS / "triangle.json"), "--strategy", "classical",
                              "--exact")
        assert code == 0
        assert json.loads(out)["win_probability"] == 1.0

    def test_custom_strategy_file(self, capsys, tmp_path):
        strategy = {
            "alice": {"x": 1, "y": 1, "z": 1},
            "bob": {"ab": {"x": 1, "y": 1}, "bc": {"y": 1, "z": 1},
                    "ca": {"x": 1, "z": 1}},
        }
        path = tmp_path / "strategy.json"
        path.write_text(json.dumps(strategy))
        code, out, _ = invoke(capsys, "simulate", "--arrangement",
                              str(BOARDS / "triangle.json"), "--strategy", str(path),
                              "--exact")
        assert code == 0
        assert json.loads(out)["win_probability"] == pytest.approx(1.0)

    def test_custom_quantum_realization_file(self, capsys, tmp_path):
        code, out, _ = invoke(capsys, "synthesize", "--arrangement",
                              str(BOARDS / "square.json"))
        realization = json.loads(out)["realization"]
        path = tmp_path / "realization.json"
        path.write_text(json.dumps(realization))
        code, out, _ = invoke(capsys, "simulate", "--arrangement",
                              str(BOARDS / "square.json"), "--strategy", str(path),
                              "--exact")
        assert code == 0
        assert json.loads(out)["win_probability"] == pytest.approx(1.0, abs=1e-9)

    def test_custom_realization_must_verify(self, capsys, tmp_path):
        bad = {"n_qubits": 1, "operators": {f"{r}{c}": "+I" for r in "123" for c in "123"}}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        code, _, err = invoke(capsys, "simulate", "--arrangement",
                              str(BOARDS / "square.json"), "--strategy", str(path),
                              "--exact")
        assert code == 1
        assert "fails verification" in err

    def test_literal_flag_on_symmetric_operators_still_wins(self, capsys):
        code, out, _ = invoke(capsys, "simulate", "--arrangement",
                              str(BOARDS / "pentagram.json"), "--strategy", "quantum",
                              "--exact", "--literal-measurements")
        assert code == 0
        assert json.loads(out)["win_probability"] == pytest.approx(1.0, abs=1e-9)

    def test_quantum_on_resigned_magic_board(self, capsys, tmp_path):
        # flip both r1 and c1: still odd parity, but differs from the
        # synthesized signing, exercising the path-negation transfer
        board = json.loads((BOARDS / "square.json").read_text())
        for entry in board["hyperedges"]:
            if entry["id"] in ("r1", "c1"):
                entry["sign"] = -entry["sign"]
        path = tmp_path / "resigned.json"
        path.write_text(json.dumps(board))
        code, out, _ = invoke(capsys, "simulate", "--arrangement", str(path),
                              "--strategy", "quantum", "--exact")
        assert code == 0
        assert json.loads(out)["win_probability"] == pytest.approx(1.0, abs=1e-9)

    def test_quantum_impossible_on_nonmagic_odd_board(self, capsys, tmp_path):
        board = json.loads((BOARDS / "triangle.json").read_text())
        for entry in board["hyperedges"]:
            entry["sign"] = -1 if entry["id"] == "ab" else 1
        path = tmp_path / "odd_triangle.json"
        path.write_text(json.dumps(board))
        code, _, err = invoke(capsys, "simulate", "--arrangement", str(path),
                              "--strategy", "quantum", "--exact")
        assert code == 1
        assert "no quantum strategy" in err

    def test_incomplete_custom_strategy_rejected(self, capsys, tmp_path):
        path = tmp_path / "partial.json"
        path.write_text(json.dumps({"alice": {"x": 1}, "bob": {}}))
        code, _, err = invoke(capsys, "simulate", "--arrangement",
                              str(BOARDS / "triangle.json"), "--strategy", str(path))
        assert code == 1
        assert "every board vertex" in err

    def test_seeded_runs_identical(self, capsys):
        args = ("simulate", "--arrangement", str(BOARDS / "square.json"),
                "--strategy", "classical", "--trials", "300")
        assert invoke(capsys, *args) == invoke(capsys, *args)


class TestExportDot:
    def test_triangle_dot(self, capsys):
        code, out, _ = invoke(capsys, "export-dot", "--arrangement",
                              str(BOARDS / "triangle.json"))
        assert code == 0
        assert out.count(" -- ") == 3
        assert out.startswith("graph intersection {")

    def test_quotes_and_backslashes_are_escaped(self, capsys, tmp_path):
        board = tmp_path / "quoted.json"
        board.write_text(json.dumps({"vertices": ["x", "y", "z"], "hyperedges": [
            {"id": 'a"b', "vertices": ["x", "y"]}, {"id": "bc\\", "vertices": ["y", "z"]},
            {"id": "ca", "vertices": ["x", "z"]}]}))
        assert invoke(capsys, "export-dot", "--arrangement", str(board)) == (0, (
            "graph intersection {\n"
            '  "a\\"b";\n'
            '  "bc\\\\";\n'
            '  "ca";\n'
            '  "a\\"b" -- "ca" [label="x"];\n'
            '  "a\\"b" -- "bc\\\\" [label="y"];\n'
            '  "bc\\\\" -- "ca" [label="z"];\n'
            "}\n"), "")


class TestGen:
    def test_generated_board_validates_and_decides(self, capsys, tmp_path):
        out_path = tmp_path / "board.json"
        code, _, _ = invoke(capsys, "gen", "--hyperedges", "6", "--seed", "3",
                            "--signed", "--output", str(out_path))
        assert code == 0
        code, out, _ = invoke(capsys, "decide", "--arrangement", str(out_path))
        assert code == 0
        assert out.strip() in ("magic", "not magic")

    def test_negative_seed_is_a_seed(self, capsys):
        code, out, err = invoke(capsys, "gen", "--hyperedges", "5", "--seed", "-1")
        assert code == 0 and err == SIZE_ONE_WARNING  # the board has a one-vertex line
        assert json.loads(out) == random_board(random.Random(-1), 5, None)

    def test_gen_deterministic(self, capsys):
        a = invoke(capsys, "gen", "--hyperedges", "5", "--seed", "8")
        b = invoke(capsys, "gen", "--hyperedges", "5", "--seed", "8")
        assert a == b


class TestMissingInput:
    def test_nonexistent_file(self, capsys):
        code, _, err = invoke(capsys, "decide", "--arrangement", "/no/such/file.json")
        assert code == 1
        assert err


class TestBadArguments:
    """Bad values and paths exit 1 with one stderr line naming them."""

    @pytest.mark.parametrize("argv, named", [
        (("simulate", "--arrangement", str(BOARDS / "square.json"), "--trials", "0"),
         "--trials must be at least 1, got 0"),
        (("gen", "--hyperedges", "1"), "--hyperedges must be at least 2, got 1"),
        (("simulate", "--arrangement", str(BOARDS / "square.json"),
          "--strategy", "/no/such/strategy.json"), "/no/such/strategy.json"),
        (("certify", "--arrangement", str(BOARDS / "triangle.json"),
          "--check", "/no/such/certificate.json"), "/no/such/certificate.json"),
        (("gen", "--hyperedges", "3", "--extra-vertices", "-5", "--seed", "1"),
         "--extra-vertices must be at least 0, got -5"),
        (("simulate", "--arrangement", str(BOARDS / "square.json"), "--seed", "-1"),
         "--seed must be at least 0, got -1"),
        (("validate", "--arrangement", str(BOARDS / "square.json"),
          "--output", "/no/such/dir/out.json"), "cannot write /no/such/dir/out.json"),
        (("validate", "--arrangement", str(BOARDS / "square.json"), "--output", str(BOARDS)),
         f"cannot write {BOARDS}"),
        (("decide", "--arrangement", str(BOARDS / "triangle.json"),
          "--certificate", "/no/such/dir/x"), "cannot write /no/such/dir/x"),
        (("decide", "--arrangment", "x"),
         "pseudotelepathy decide: error: the following arguments are required: --arrangement"),
        ((), "pseudotelepathy: error: the following arguments are required: command"),
        (("simulate", "--arrangement", str(BOARDS / "square.json"), "--trials", "abc"),
         "pseudotelepathy simulate: error: argument --trials: invalid int value: 'abc'"),
        (("certify", "--arrangement", str(BOARDS / "square.json")),
         "arrangement is magic; no nonmagic certificate exists"),
    ])
    def test_one_line_exit_one(self, capsys, argv, named):
        code, out, err = invoke(capsys, *argv)
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and named in err

    @pytest.mark.parametrize("payload, named", [
        ({"n_qubits": 2, "operators": {"a1": "XQ"}}, "operators['a1']: invalid Pauli letter"),
        ({"n_qubits": 2, "operators": {f"{r}{c}": "II" for r in "123" for c in "12"}},
         "operators: no operator for vertices ['13', '23', '33']"),
        ({"n_qubits": "two", "operators": {}}, "n_qubits must be"),
        ({"n_qubits": True, "operators": {}}, "n_qubits must be"),
        ({"n_qubits": 0, "operators": {}}, "n_qubits must be"),
        ({"operators": {}}, "n_qubits must be"),
        ({"n_qubits": 1, "operators": ["X"]}, "operators must be an object"),
        ({"n_qubits": 1, "operators": {"11": 1}}, "operators['11'] must be a string"),
        ({"n_qubits": 1, "operators": {"11": "XZ"}}, "operators['11'] acts on 2 qubits"),
        ({"alice": {"11": "1"}, "bob": {}}, "alice['11'] must be 1 or -1"),
        ({"alice": {"11": 1.0}, "bob": {}}, "alice['11'] must be 1 or -1"),
        ({"alice": {"11": True}, "bob": {}}, "alice['11'] must be 1 or -1"),
        ({"alice": {"11": 2}, "bob": {}}, "alice['11'] must be 1 or -1"),
        ({"alice": {"11": 1}, "bob": {"r1": {"11": False}}}, "bob['r1']['11'] must be 1 or -1"),
        ({"alice": {"11": 1}, "bob": {"r1": [1]}}, "bob['r1'] must be an object"),
        ({"alice": {"11": 1}, "bob": []}, "bob must be an object"),
        ({"bob": {}}, "alice must be an object"),
        ([1, 2], "the file must hold an object"),
    ])
    def test_malformed_strategy_file(self, capsys, tmp_path, payload, named):
        path = tmp_path / "strategy.json"
        path.write_text(json.dumps(payload))
        for extra in ((), ("--exact",)):
            code, out, err = invoke(capsys, "simulate", "--arrangement",
                                    str(BOARDS / "square.json"), "--strategy", str(path),
                                    *extra)
            assert code == 1 and out == ""
            assert err.count("\n") == 1 and named in err and str(path) in err

    @pytest.mark.parametrize("kind, named", [
        ("quantum", "operators['ghost'] is not a vertex of the board"),
        ("classical", "bob['nope'] is not a line of the board"),
    ])
    def test_strategy_file_with_an_id_off_the_board(self, capsys, tmp_path, kind, named):
        """A strategy that covers the board but names one more vertex or
        line is refused, naming that id."""
        if kind == "quantum":
            code, out, _ = invoke(capsys, "synthesize", "--arrangement",
                                  str(BOARDS / "square.json"))
            strategy = json.loads(out)["realization"]
            strategy["operators"]["ghost"] = "+XX"
        else:
            board = json.loads((BOARDS / "square.json").read_text())
            strategy = {"alice": {v: 1 for v in board["vertices"]},
                        "bob": {line["id"]: {v: 1 for v in line["vertices"]}
                                for line in board["hyperedges"]}}
            strategy["bob"]["nope"] = {"11": 1}
        path = tmp_path / "strategy.json"
        path.write_text(json.dumps(strategy))
        for extra in ((), ("--exact",)):
            code, out, err = invoke(capsys, "simulate", "--arrangement",
                                    str(BOARDS / "square.json"), "--strategy", str(path),
                                    *extra)
            assert code == 1 and out == ""
            assert err.count("\n") == 1 and named in err and str(path) in err

    @pytest.mark.parametrize("command", ["validate", "decide"])
    @pytest.mark.parametrize("raw, named", ILL_TYPED_BOARDS)
    def test_ill_typed_board(self, capsys, tmp_path, command, raw, named):
        board = tmp_path / "board.json"
        board.write_text(json.dumps(raw))
        code, out, err = invoke(capsys, command, "--arrangement", str(board))
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and named in err and str(board) in err

    @pytest.mark.parametrize("argv, text, line, code", [
        (("decide", "--arrangement", "{path}"),
         '{"vertices": ["a", "b", "c"], "hyperedges": [{"id": "e1", "vertices": ["a", "b", "c"]}, '
         '{"id": "e2", "vertices": ["a", "b"]}, {"id": "e3", "vertices": ["a", "c"]}]}',
         "invalid arrangement {path}: DegreeError: vertex 'a' lies in 3 hyperedges, expected 2",
         1),
        (("decide", "--arrangement", "{path}"), None,
         "cannot read arrangement {path}: [Errno 2] No such file or directory: '{path}'", 1),
        (("certify", "--arrangement", str(BOARDS / "triangle.json"), "--check", "{path}"), "{",
         "cannot read certificate {path}: Expecting property name enclosed in double quotes: "
         "line 1 column 2 (char 1)", 1),
        (("certify", "--arrangement", str(BOARDS / "triangle.json"), "--check", "{path}"), "[]",
         "malformed certificate {path}: payload must be an object", 2),
        (("simulate", "--arrangement", str(BOARDS / "square.json"), "--strategy", "{path}"), "{",
         "cannot read strategy {path}: Expecting property name enclosed in double quotes: "
         "line 1 column 2 (char 1)", 1),
    ])
    def test_input_file_failure_line(self, capsys, tmp_path, argv, text, line, code):
        """Each input file that cannot be used names its path in one exact line."""
        path = tmp_path / "input.json"
        if text is not None:
            path.write_text(text)
        argv = [arg.format(path=path) for arg in argv]
        assert invoke(capsys, *argv) == (code, "", line.format(path=path) + "\n")

    @pytest.mark.parametrize("argv, what", [
        (("decide", "--arrangement", "{path}"), "arrangement"),
        (("certify", "--arrangement", str(BOARDS / "triangle.json"), "--check", "{path}"),
         "certificate"),
        (("simulate", "--arrangement", str(BOARDS / "square.json"), "--strategy", "{path}"),
         "strategy"),
    ], ids=["board", "certificate", "strategy"])
    def test_deeply_nested_file(self, capsys, tmp_path, argv, what):
        """Nesting too deep for ``json.load`` is an unreadable file, not a
        ``RecursionError`` traceback."""
        path = tmp_path / "nested.json"
        path.write_text("[" * 1000 + "]" * 1000)
        code, out, err = invoke(capsys, *[arg.format(path=path) for arg in argv])
        assert code == 1 and out == ""
        assert err.count("\n") == 1
        assert err.startswith(f"cannot read {what} {path}: maximum recursion depth exceeded")

    def test_undecodable_board_file(self, capsys, tmp_path):
        board = tmp_path / "board.json"
        board.write_bytes(b"\xff\xfe{")
        code, out, err = invoke(capsys, "validate", "--arrangement", str(board))
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and str(board) in err


def run_process(*argv):
    """Exit code, stdout and stderr of the command line in a new interpreter,
    which prints warnings itself instead of leaving them to pytest."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-m", "pseudotelepathy.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    return done.returncode, done.stdout, done.stderr


class TestWarningsInAProcess:
    """A size-1 line adds one ``warning:`` line to a run that succeeds and
    nothing to one that fails."""

    GEN = ("gen", "--hyperedges", "3", "--extra-vertices", "0", "--seed", "1")

    def test_successful_run_warns_in_one_line(self, capsys):
        code, out, err = run_process(*self.GEN)
        assert code == 0 and err == SIZE_ONE_WARNING
        assert invoke(capsys, *self.GEN) == (0, out, err)

    def test_failing_board_prints_only_its_error(self, tmp_path):
        board = tmp_path / "board.json"
        board.write_text(json.dumps({"vertices": ["a", "b"], "hyperedges": [
            {"id": "e1", "vertices": ["a"]}, {"id": "e2", "vertices": ["a"]},
            {"id": "e3", "vertices": ["b"]}, {"id": "e4", "vertices": ["b"]}]}))
        code, out, err = run_process("validate", "--arrangement", str(board))
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and "Disconnected" in err

    def test_failing_run_on_a_valid_board_prints_only_its_error(self, tmp_path):
        board = tmp_path / "board.json"
        run_process(*self.GEN, "--output", str(board))
        code, out, err = run_process("decide", "--arrangement", str(board),
                                     "--certificate", "/no/such/dir/x")
        assert code == 1 and out == ""
        assert err.count("\n") == 1 and "cannot write /no/such/dir/x" in err

    def test_repeated_in_process_runs_warn_each_time(self, capsys, tmp_path):
        board = tmp_path / "board.json"
        assert invoke(capsys, *self.GEN, "--output", str(board)) == (0, "", SIZE_ONE_WARNING)
        for _ in range(2):
            code, out, err = invoke(capsys, "decide", "--arrangement", str(board))
            assert (code, err) == (0, SIZE_ONE_WARNING) and out in ("magic\n", "not magic\n")
            code, out, err = invoke(capsys, "decide", "--arrangement", str(board),
                                    "--certificate", str(tmp_path / "no" / "x"))
            assert code == 1 and out == ""
            assert err.count("\n") == 1 and not err.startswith("warning:")


class TestImport:
    def test_package_import_loads_no_numpy(self):
        """Every module of the package loads without numpy, which was about
        half of each command's start-up time."""
        script = ("import pkgutil, sys, pseudotelepathy, pseudotelepathy.cli\n"
                  "for m in pkgutil.iter_modules(pseudotelepathy.__path__):\n"
                  "    __import__(f'pseudotelepathy.{m.name}')\n"
                  "print('numpy' in sys.modules)\n")
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stdout, done.stderr) == (0, "False\n", "")


class TestParserReuse:
    """The parser is built once per process and serves every later call as
    a fresh parser would."""

    CALLS = [
        ("decide", "--arrangment", str(BOARDS / "triangle.json")),
        ("decide", "--arrangement", str(BOARDS / "triangle.json")),
        ("certify", "--arrangement", str(BOARDS / "triangle.json")),
        ("decide", "--arrangement", str(BOARDS / "square.json")),
        ("--help",),
        ("simulate", "--help"),
    ]

    def test_calls_in_one_process_match_separate_calls(self, capsys):
        separate = []
        for argv in self.CALLS:
            cli._parser.cache_clear()
            separate.append(invoke(capsys, *argv))
        cli._parser.cache_clear()
        together = [invoke(capsys, *argv) for argv in self.CALLS]
        assert together == separate
        assert cli._parser() is cli._parser()
        codes = [code for code, _, _ in together]
        assert codes == [1, 0, 0, 0, 0, 0]
        assert together[0][1] == "" and together[0][2].count("\n") == 1
        assert "error: the following arguments" in together[0][2]
        assert together[1][1] == "not magic\n" and together[3][1] == "magic\n"
        assert together[4][1].startswith("usage: pseudotelepathy")


def json_values():
    scalars = (st.none() | st.booleans() | st.integers() | st.floats()
               | st.text(max_size=4))
    return st.recursive(scalars, lambda inner: st.lists(inner, max_size=4)
                        | st.dictionaries(st.text(max_size=4), inner, max_size=4),
                        max_leaves=12)


def positions(value, path=()):
    """Every path to a value inside a JSON document, the root excluded."""
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from positions(child, path + (key,))


BOARD_TOKENS = ("x", "y", "r1", 1, -1, True)
CERTIFICATE_TOKENS = ("ab", "bc", "contract", "cancel", 0, 1, -1, True, ["ab", 0])
STRATEGY_TOKENS = ("11", "r1", "+XZ", "-YY", "Z", "+IIZ", 1, -1, True)


@st.composite
def mutated(draw, document, tokens=BOARD_TOKENS):
    """``document`` with up to three fields replaced (by any JSON value or
    one of ``tokens``), deleted, doubled or, for a number, negated."""
    document = copy.deepcopy(document)
    for _ in range(draw(st.integers(0, 3))):
        places = list(positions(document))
        if not places:
            break
        *parent_path, key = draw(st.sampled_from(places))
        parent = document
        for step in parent_path:
            parent = parent[step]
        action = draw(st.sampled_from(["replace", "delete", "double", "negate"]))
        if action == "negate":
            if isinstance(parent[key], (int, float)):
                parent[key] = -parent[key]
        elif action == "replace":
            parent[key] = draw(json_values() | st.sampled_from(tokens))
        elif action == "delete":
            del parent[key]
        elif isinstance(parent, list):
            parent.append(copy.deepcopy(parent[key]))
        else:
            parent[f"{key}2"] = copy.deepcopy(parent[key])
    return document


VALID_BOARDS = ([json.loads(path.read_text()) for path in sorted(BOARDS.glob("*.json"))]
                + [random_board(random.Random(seed), 5 + seed, signed=True)
                   for seed in range(1, 6)])


def mutated_boards():
    """A valid board with up to three fields mutated (see ``mutated``)."""
    return st.sampled_from(VALID_BOARDS).flatmap(mutated)


def check_contract(argv):
    """``run(argv)`` ends in exit 0, 1 or 2 with no traceback, and writes
    one stderr line when it fails; a success writes only ``warning:`` lines."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(list(argv))
    assert code in (0, 1, 2)
    assert err.getvalue().count("\n") <= 1 and "Traceback" not in err.getvalue()
    lines = err.getvalue().splitlines()
    if code == 0:
        assert all(line.startswith("warning: ") for line in lines)
    else:
        assert len(lines) == 1 and not lines[0].startswith("warning: ")
    return code, out.getvalue()


class TestFuzz:
    """Every document, well-formed or not, ends in exit 0, 1 or 2 with at
    most one stderr line and no traceback."""

    @pytest.fixture(scope="class")
    def board_path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("fuzz") / "board.json"

    def check(self, board_path, document):
        board_path.write_text(json.dumps(document))
        for command in ("validate", "decide"):
            check_contract([command, "--arrangement", str(board_path)])

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(json_values())
    def test_arbitrary_json(self, board_path, document):
        self.check(board_path, document)

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(mutated_boards())
    def test_mutated_boards(self, board_path, document):
        self.check(board_path, document)

    @pytest.fixture(scope="class")
    def certified(self, tmp_path_factory):
        """Each nonmagic valid board's path with its ``certify`` payload."""
        folder = tmp_path_factory.mktemp("certified")
        cases = []
        for k, raw in enumerate(VALID_BOARDS):
            path = folder / f"board{k}.json"
            path.write_text(json.dumps(raw))
            code, out = check_contract(["certify", "--arrangement", str(path)])
            if code == 0:
                cases.append((path, json.loads(out)))
        assert len(cases) >= 3
        return cases

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(st.data())
    def test_mutated_certificates(self, certified, board_path, data):
        board, payload = data.draw(st.sampled_from(certified))
        board_path.write_text(json.dumps(data.draw(mutated(payload, CERTIFICATE_TOKENS))))
        check_contract(["certify", "--arrangement", str(board), "--check", str(board_path)])

    @pytest.fixture(scope="class")
    def strategies(self):
        """Valid ``simulate --strategy`` files, quantum and classical, by board."""
        square, triangle = str(BOARDS / "square.json"), str(BOARDS / "triangle.json")
        cases = []
        for board in (square, str(BOARDS / "pentagram.json")):
            _, out = check_contract(["synthesize", "--arrangement", board])
            cases.append((board, json.loads(out)["realization"]))
        colors = {v: 1 for v in "xyz"}
        cases.append((triangle, {"alice": colors, "bob": {
            "ab": {"x": 1, "y": 1}, "bc": {"y": 1, "z": 1}, "ca": {"x": 1, "z": 1}}}))
        a, s = load(square)
        best = ClassicalStrategy.best_response(a, s, {v: 1 for v in a.vertices})
        cases.append((square, {"alice": dict(best.alice),
                               "bob": {e: dict(c) for e, c in best.bob}}))
        return cases

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(st.data())
    def test_mutated_strategy_files(self, strategies, board_path, data):
        board, strategy = data.draw(st.sampled_from(strategies))
        board_path.write_text(json.dumps(data.draw(mutated(strategy, STRATEGY_TOKENS))))
        for extra in (("--exact",), ("--trials", "10")):
            check_contract(["simulate", "--arrangement", board, "--strategy", str(board_path),
                            *extra])


# SHA-256 of stdout and the exit code of each command on the shipped
# boards; any change to these bytes must be deliberate and recorded.
GOLDEN = [
    ("pentagram.json", ("validate",), 0,
     "beecc5739a7da064a331d7409d01686190843b082ce8d4b8377b0fcf955dacf7"),
    ("pentagram.json", ("decide", "--certificate", "-"), 0,
     "5429d2c56a2c4fe94b76a3170bf85bede8864a4899aef062f9810d9f8fa0d2a7"),
    ("pentagram.json", ("synthesize",), 0,
     "0c3b90ce4bc668c71bbe23a086a31244414590cb8e7ebdd2b9670dd2dc8a5f11"),
    ("pentagram.json", ("certify",), 1,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("pentagram.json", ("simulate", "--strategy", "quantum", "--exact"), 0,
     "e38a012884a03bb7b8977d4f99453b8fca8d9c1885bd6e0c68d9d2805bf9005a"),
    ("pentagram.json", ("simulate", "--strategy", "classical", "--exact"), 0,
     "9592f5c45e9241e3df72d6e052644df8620700f3a32578e4c1382f8faed303c0"),
    ("pentagram.json", ("simulate", "--trials", "2000"), 0,
     "951faf5ec4486a66e589c9a3ed01729ecaceaba4c7b061c5dd83e6b477a3f2c1"),
    ("pentagram.json", ("export-dot",), 0,
     "a7951226d4585182ffa0de9f446685d46600b945d17ff56d4dc386e0958db168"),
    ("square.json", ("validate",), 0,
     "3c44a166f76dee00b08f07bbc10ce87718cfecf7ab92ade2cee3dd1dbe81d944"),
    ("square.json", ("decide", "--certificate", "-"), 0,
     "09d2fe8689d92bb6f417941ef2dae185094f06021057681497cb2417798cd4d6"),
    ("square.json", ("synthesize",), 0,
     "93b157d7c66c9ef3df12a48082db05592cd0acece67aa7d22eee5d9d84d09081"),
    ("square.json", ("certify",), 1,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("square.json", ("simulate", "--strategy", "quantum", "--exact"), 0,
     "57cee9db095c2340acb3f2a4cbcb6651adea47323b2116e2da7718058215bd98"),
    ("square.json", ("simulate", "--strategy", "classical", "--exact"), 0,
     "706f1b72eafe11abca4439fb51e9794d1020f21be437fb035b38bcc826be91dd"),
    ("square.json", ("simulate", "--trials", "2000"), 0,
     "4d3ecee2d9513ebe3e42ccb595464b65a1892b65607e15c3038e7a6ce9cee37d"),
    # the optimal classical strategy loses a query of one line: rates that depend on the draws
    ("square.json", ("simulate", "--strategy", "classical", "--trials", "2000"), 0,
     "b64f374e84789196d23f16d187a8404a76e163d8d0e9f515a5e5a4b7f7d9fb7a"),
    ("square.json", ("export-dot",), 0,
     "05d6d52d501efa4bfbb3b34ac79c22c0c506a66fee858427e481d315cce20e10"),
    ("triangle.json", ("validate",), 0,
     "0b5f972df3d48afb1e5aed748f7d0fecd23c07dcdd5a37b43e5503248df93f5f"),
    ("triangle.json", ("decide", "--certificate", "-"), 0,
     "4ee1ef4d783acd52961d3eeecde311182b1896f720f8e6f26e4f8fb7a16a6da6"),
    ("triangle.json", ("synthesize",), 0,
     "0c6c0d7fc82d963a93b739af39296b3b50f5b97212163bfdd414f464d9003496"),
    ("triangle.json", ("certify",), 0,
     "f0cb98344565786d3ec850bd8161b33834b659f2469c876ad4f0fbc00a40a677"),
    ("triangle.json", ("simulate", "--strategy", "quantum", "--exact"), 0,
     "4f8841c080833c1bc49ee1fc0f3939d7883b80d3befe49cbe8178956471aa98e"),
    ("triangle.json", ("simulate", "--strategy", "classical", "--exact"), 0,
     "ed1245d3cf125b0c241a5a20b2be7e4855c457894c27688bbf0a84e0b2b7ee11"),
    ("triangle.json", ("simulate", "--trials", "2000"), 0,
     "24c9747c8401f1a92cf6bf25f49c3e8b4b87dc4dfdefdd45002bc180a3d8c0c9"),
    ("triangle.json", ("export-dot",), 0,
     "25102500eb3c1edaac5d2cdfa437c5ec1da222b70333e699bc316d9bc9f56574"),
]
# Boards whose dual subdivides K5, K3,3 or the triangular prism, each with
# one -1 line.  In the first two the witness paths run through several dual
# edges, so their rows cover the minor transfer's path walk, which the
# shipped boards (one edge per path) do not.  The prism's dual has K3,3's
# degree profile but is planar, so its row covers the embedding of such a
# dual.  Each entry is (pattern edges, subdivision counts, the -1 line).
SUBDIVIDED = {
    "k5-subdivided": (complete_graph_edges(5), {"n1n2": 2, "n3n5": 1, "n4n5": 3}, "n1n2_s1"),
    "k33-subdivided": (k33_edges(), {"l1r1": 1, "l2r3": 2, "l3r2": 3}, "l2r3_s0"),
    "prism-subdivided": (prism_edges(), {"p1p2": 1, "p1q1": 2, "q2q3": 3}, "p1q1_s1"),
}
GOLDEN_SUBDIVIDED = [
    ("k5-subdivided", ("synthesize",),
     "cc91c6c2c453e502ebe05582c409fe5da9f21531f1c526b006c37337f00c64d2"),
    ("k5-subdivided", ("simulate", "--strategy", "quantum", "--exact"),
     "def75014009df6300df527a5d5597f8a212887719fd5a8417ac4a97e2ce9831b"),
    ("k33-subdivided", ("synthesize",),
     "9d5446cd2da9d86c52aa8f77ce1a91109749886cbf82d874d6434d4ff46efea3"),
    ("k33-subdivided", ("simulate", "--strategy", "quantum", "--exact"),
     "9cde7ce179bced1b07180e2f144743130946c6f793b5d0ec6b44b939f9866c51"),
    ("prism-subdivided", ("decide", "--certificate", "-"),
     "3ce1704e45d781a6f5a0e3b895f09beca87b1748daf89ff27e476c9358aa91de"),
]
# simulate --exact --literal-measurements --strategy odd-y-strategy.json on
# the board of helpers.odd_y_board, whose strategy file holds its Y
# realization: the untransposed branch on an antisymmetric operator, which
# no shipped or transferred realization reaches (all of theirs are symmetric)
LITERAL_ODD_Y = "6ff391dc96db787cd9899dfd6db8747735aa9a82d69799f80c322209ca6f9aca"
# the same with --trials 2000 instead of --exact: a quantum Monte Carlo run that loses
LITERAL_ODD_Y_TRIALS = "79d55634cd1ff6c092901da1593f105260db2aad0b1d1e90fd921b501813631f"
CHECK_OF_TRIANGLE_CERTIFICATE = (
    "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865")
GEN_SIGNED_9_SEED_1 = "7b3ed49f1e2f4eb1a8c8aeafdaa59bdf5244bb0a15bb782ad0f2750a4b352c75"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class TestGoldenBytes:
    @pytest.mark.parametrize("board, argv, code, digest", GOLDEN,
                             ids=[f"{b}-{' '.join(a)}" for b, a, _, _ in GOLDEN])
    def test_stdout(self, capsys, board, argv, code, digest):
        got, out, _ = invoke(capsys, argv[0], "--arrangement", str(BOARDS / board), *argv[1:])
        assert (got, sha256(out)) == (code, digest)

    @pytest.mark.parametrize("name, argv, digest", GOLDEN_SUBDIVIDED,
                             ids=[f"{n}-{' '.join(a)}" for n, a, _ in GOLDEN_SUBDIVIDED])
    def test_subdivided_stdout(self, capsys, tmp_path, name, argv, digest):
        edges, counts, minus = SUBDIVIDED[name]
        board = subdivided_board(edges, counts)
        signing = Signing.from_dict({eid: -1 if eid == minus else 1
                                     for eid in board.hyperedge_ids()})
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(board_json(board, signing)))
        got, out, _ = invoke(capsys, argv[0], "--arrangement", str(path), *argv[1:])
        assert (got, sha256(out)) == (0, digest)

    def test_certify_check_of_the_written_certificate(self, capsys, tmp_path):
        board = str(BOARDS / "triangle.json")
        _, written, _ = invoke(capsys, "certify", "--arrangement", board)
        cert = tmp_path / "cert.json"
        cert.write_text(written)
        code, out, _ = invoke(capsys, "certify", "--arrangement", board, "--check", str(cert))
        assert (code, sha256(out)) == (0, CHECK_OF_TRIANGLE_CERTIFICATE)

    @staticmethod
    def simulate_odd_y_literally(capsys, monkeypatch, tmp_path, *flags):
        a, s, r = odd_y_board()
        monkeypatch.chdir(tmp_path)  # the report names the strategy file as given
        Path("odd-y.json").write_text(json.dumps(board_json(a, s)))
        Path("odd-y-strategy.json").write_text(json.dumps(r.to_json_dict()))
        code, out, _ = invoke(capsys, "simulate", "--arrangement", "odd-y.json", *flags,
                              "--literal-measurements", "--strategy", "odd-y-strategy.json")
        return code, sha256(out)

    def test_exact_literal_measurements_of_a_strategy_file(self, capsys, monkeypatch,
                                                            tmp_path):
        assert self.simulate_odd_y_literally(capsys, monkeypatch, tmp_path,
                                             "--exact") == (0, LITERAL_ODD_Y)

    def test_sampled_literal_measurements_of_a_strategy_file(self, capsys, monkeypatch,
                                                              tmp_path):
        assert self.simulate_odd_y_literally(capsys, monkeypatch, tmp_path, "--trials",
                                             "2000") == (0, LITERAL_ODD_Y_TRIALS)

    def test_gen(self, capsys):
        code, out, _ = invoke(capsys, "gen", "--signed", "--hyperedges", "9", "--seed", "1")
        assert (code, sha256(out)) == (0, GEN_SIGNED_9_SEED_1)


class TestEachArtifactVerifiedOnce:
    def test_magic_decide(self, capsys, monkeypatch):
        calls = count_calls(monkeypatch, "verify_realization", realization)
        code, out, _ = invoke(capsys, "decide", "--arrangement", str(BOARDS / "square.json"))
        assert (code, out) == (0, "magic\n")
        assert len(calls) == 1

    def test_planar_decide(self, capsys, monkeypatch):
        counts = {name: count_calls(monkeypatch, name, module) for name, module in [
            ("trace_faces", intersection), ("check_trace", certificate),
            ("check_realization", arrangement)]}
        code, out, _ = invoke(capsys, "decide", "--arrangement", str(BOARDS / "triangle.json"))
        assert (code, out) == (0, "not magic\n")
        assert {name: len(calls) for name, calls in counts.items()} == {
            "trace_faces": 1, "check_trace": 1, "check_realization": 1}

    @pytest.mark.parametrize("signs", [None, (-1, 1, 1)], ids=["unsigned", "signed"])
    def test_certify_replays_only_the_emitted_trace(self, capsys, monkeypatch, tmp_path,
                                                    signs):
        raw = json.loads((BOARDS / "triangle.json").read_text())
        for edge, sign in zip(raw["hyperedges"], signs or ()):
            edge["sign"] = sign
        board = tmp_path / "board.json"
        board.write_text(json.dumps(raw))
        calls = count_calls(monkeypatch, "check_trace", certificate)
        code, out, _ = invoke(capsys, "certify", "--arrangement", str(board))
        assert code == 0
        (call,) = calls
        assert call[3].to_json_dict() == json.loads(out)["certificate"]


class TestLibrarySelfCheckFailures:
    """A verifier that rejects what the library built is a bug: exit 2 with
    one line naming the stage, not a traceback."""

    @pytest.mark.parametrize("command, board, module, verifier, line", [
        ("decide", "square.json", realization, "verify_realization",
         "synthesize: transferred realization failed verification"),
        ("decide", "triangle.json", planarity, "verify_embedding",
         "test_planarity: embedding failed Euler check"),
        ("synthesize", "pentagram.json", planarity, "verify_witness",
         "test_planarity: witness failed its verifier"),
    ])
    def test_exit_two(self, capsys, monkeypatch, command, board, module, verifier, line):
        monkeypatch.setattr(module, verifier, lambda *args: False)
        code, out, err = invoke(capsys, command, "--arrangement", str(BOARDS / board))
        assert (code, out, err) == (2, "", f"self-check failed: {line}\n")

    @pytest.mark.parametrize("argv, module, name, fake, line", [
        (("decide", "--arrangement", str(BOARDS / "square.json")), arrangement, "parity",
         lambda *args: 1, "synthesized signing is not odd"),
        (("decide", "--arrangement", str(BOARDS / "triangle.json")), arrangement,
         "check_realization", lambda *args: False,
         "classical realization failed the product check"),
        (("decide", "--arrangement", str(BOARDS / "triangle.json")), cli, "check_trace",
         lambda *args: 0, "certificate final sign disagrees with parity"),
        (("simulate", "--arrangement", str(BOARDS / "square.json"), "--exact"), cli,
         "verify_realization", lambda *args: False, "strategy realization failed verification"),
        (("gen", "--hyperedges", "3"), cli, "random_board",
         lambda *args, **kwargs: {"vertices": ["a"],
                                  "hyperedges": [{"id": "e", "vertices": ["a"]}]},
         "generated board is invalid: vertex 'a' lies in 1 hyperedges, expected 2"),
    ], ids=["signing", "classical", "certificate", "strategy", "gen"])
    def test_cli_self_check(self, capsys, monkeypatch, argv, module, name, fake, line):
        """The checks the command line makes itself fail the same way."""
        monkeypatch.setattr(module, name, fake)
        assert invoke(capsys, *argv) == (2, "", f"self-check failed: {line}\n")


SPECIAL_STRINGS = ["", "\"", "\\", "a\"b\\c", "\x00\x1f\x7f", "\n\r\t\b\f",
                   "\u00e9t\u00e9", "\u2028\u2029", "\U0001f600", "\ud800", "</script>"]
SPECIAL_NUMBERS = [True, 1, False, 0, -0.0, 0.0, 1e16, 5e-324, 1.7976931348623157e308,
                   2 ** 100, -(2 ** 64), 0.1]


def writer_values():
    strings = st.text() | st.sampled_from(SPECIAL_STRINGS)
    scalars = (st.none() | st.booleans() | st.integers() | strings
               | st.floats(allow_nan=False, allow_infinity=False)
               | st.sampled_from(SPECIAL_NUMBERS))
    return st.recursive(
        scalars,
        lambda inner: (st.lists(inner, max_size=5)
                       | st.lists(inner, max_size=5).map(tuple)
                       | st.dictionaries(strings, inner, max_size=5)),
        max_leaves=30)


def reference_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


class TestJsonWriter:
    """``cli._json_text`` writes the bytes of ``json.dumps(indent=2,
    sort_keys=True)``, which stays as its oracle."""

    @settings(max_examples=400, deadline=None)
    @given(writer_values())
    def test_matches_json_dumps(self, value):
        assert cli._json_text(value) == reference_text(value)

    def test_side_by_side_and_empty(self):
        value = {"b": [True, 1, False, 0, None], "a": [[], {}, [[]], [{}], {"": {}}],
                 "c": SPECIAL_NUMBERS, "d": {s: s for s in SPECIAL_STRINGS}}
        assert cli._json_text(value) == reference_text(value)

    @pytest.mark.parametrize("value", [{1: "a"}, {None: 1}, {("a",): 1}, b"x", {1, 2},
                                       object(), [1, 2j]])
    def test_other_types_raise_type_error(self, value):
        with pytest.raises(TypeError):
            cli._json_text(value)

    @pytest.mark.parametrize("value", [float("nan"), [float("inf")], {"x": -float("inf")}])
    def test_non_finite_floats_raise(self, value):
        with pytest.raises(ValueError):
            cli._json_text(value)

    @pytest.mark.filterwarnings("ignore:arrangement contains a size-1 hyperedge")
    def test_every_payload_of_a_board_corpus(self, capsys, monkeypatch, tmp_path):
        """Verdicts and ``simulate`` reports over random boards."""
        written = []

        def recorded(payload):
            written.append(payload)
            return reference_text(payload)

        rng = random.Random(4242)
        paths = []
        for k in range(40):
            a, s = random_arrangement(rng, rng.randrange(2, 12))
            payload = cli._verdict_payload(a, synthesize(a))
            assert cli._json_text(payload) == reference_text(payload)
            path = tmp_path / f"b{k}.json"
            path.write_text(json.dumps({
                "vertices": list(a.vertices),
                "hyperedges": [{"id": e, "vertices": list(m), "sign": s.sign(e)}
                               for e, m in a.hyperedges]}))
            paths.append(str(path))
        monkeypatch.setattr(cli, "_json_text", recorded)
        for path in paths:
            for argv in [("--strategy", "classical", "--exact"),
                         ("--strategy", "classical", "--trials", "30"), ("--exact",),
                         ("--trials", "30")]:
                invoke(capsys, "simulate", "--arrangement", path, *argv)
        assert len(written) >= 80
        monkeypatch.undo()
        for payload in written:
            assert cli._json_text(payload) == reference_text(payload)
