"""End-to-end command-line flows, exit codes, and output determinism."""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from pseudotelepathy import cli
from pseudotelepathy.arrangement import load
from pseudotelepathy.cli import run
from pseudotelepathy.realization import synthesize

BOARDS = Path(__file__).resolve().parent.parent / "boards"


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
        code, _, err = invoke(capsys, "certify", "--arrangement",
                              str(BOARDS / "triangle.json"), "--check", str(cert))
        assert code == 2
        assert "rejected" in err

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


class TestGen:
    def test_generated_board_validates_and_decides(self, capsys, tmp_path):
        out_path = tmp_path / "board.json"
        code, _, _ = invoke(capsys, "gen", "--hyperedges", "6", "--seed", "3",
                            "--signed", "--output", str(out_path))
        assert code == 0
        code, out, _ = invoke(capsys, "decide", "--arrangement", str(out_path))
        assert code == 0
        assert out.strip() in ("magic", "not magic")

    def test_gen_deterministic(self, capsys):
        a = invoke(capsys, "gen", "--hyperedges", "5", "--seed", "8")
        b = invoke(capsys, "gen", "--hyperedges", "5", "--seed", "8")
        assert a == b


class TestMissingInput:
    def test_nonexistent_file(self, capsys):
        code, _, err = invoke(capsys, "decide", "--arrangement", "/no/such/file.json")
        assert code == 1
        assert err
