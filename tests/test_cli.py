"""Command-line interface: exit codes, output formats, schema validity."""

import json
from pathlib import Path

import jsonschema
import pytest

from lcstrs import cli
from lcstrs.cli import main
from lcstrs.prover import FailureReport

REPO = Path(__file__).resolve().parent.parent
SYSTEMS = REPO / "systems"
SCHEMA = json.loads(
    (REPO / "src" / "lcstrs" / "schemas" / "cli_output.schema.json").read_text())


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    payload = json.loads(out)
    jsonschema.validate(payload, SCHEMA)
    return code, payload, err


@pytest.fixture
def bad_file(tmp_path):
    path = tmp_path / "bad.lcstrs"
    path.write_text("fun a : Int\nrule 0 -> 1 [true]\n")
    return str(path)


class TestCheck:
    def test_factorial(self, capsys):
        code, out, _ = run_cli(capsys, "check", str(SYSTEMS / "fact.lcstrs"))
        assert code == 0
        assert out.count("rule ") == 4
        assert "fun fact : Int -> (Int -> Int) -> Int" in out

    def test_empty(self, capsys):
        code, _, _ = run_cli(capsys, "check", str(SYSTEMS / "empty.lcstrs"))
        assert code == 0

    def test_invalid_file(self, capsys, bad_file):
        code, _, err = run_cli(capsys, "check", bad_file)
        assert code == 1
        assert "rule condition (2)" in err
        assert "Traceback" not in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "check", "no-such-file.lcstrs")
        assert code == 1 and "cannot read" in err

    def test_json(self, capsys):
        code, payload, _ = run_json(capsys, "check",
                                    str(SYSTEMS / "fact.lcstrs"))
        assert code == 0
        assert payload["ok"] is True
        assert [s["name"] for s in payload["symbols"]] == [
            "init", "exit", "comp", "fact"]

    def test_json_error_payload(self, capsys, bad_file):
        code, payload, _ = run_json(capsys, "check", bad_file)
        assert code == 1
        assert payload["ok"] is False and "error" in payload


class TestRun:
    def test_factorial_trace(self, capsys):
        code, out, _ = run_cli(capsys, "run", str(SYSTEMS / "fact.lcstrs"),
                               "--term", "fact 1 exit")
        assert code == 0
        assert "normal form after 5 steps: exit 1" in out

    def test_normal_form_start(self, capsys):
        code, out, _ = run_cli(capsys, "run", str(SYSTEMS / "fact.lcstrs"),
                               "--term", "exit 1")
        assert code == 0
        assert "normal form after 0 steps" in out

    def test_fuel_exhaustion_exit_code(self, capsys):
        code, out, _ = run_cli(capsys, "run", str(SYSTEMS / "loop.lcstrs"),
                               "--term", "f 0", "--fuel", "10")
        assert code == 2
        assert "fuel exhausted" in out

    def test_inputs_flag(self, capsys):
        code, out, _ = run_cli(capsys, "run", str(SYSTEMS / "fact.lcstrs"),
                               "--term", "init", "--inputs", "3")
        assert code == 0
        assert "fact 3 exit" in out

    def test_json_trace_schema(self, capsys):
        code, payload, _ = run_json(capsys, "run",
                                    str(SYSTEMS / "fact.lcstrs"),
                                    "--term", "fact 1 exit")
        assert code == 0
        assert payload["result"] == "exit 1"
        assert payload["total_steps"] == 5
        kinds = [s["kind"] for s in payload["steps"]]
        assert kinds == ["rule#4", "calc", "rule#3", "rule#2", "calc"]

    def test_bad_term_is_an_input_error(self, capsys):
        code, _, err = run_cli(capsys, "run", str(SYSTEMS / "fact.lcstrs"),
                               "--term", "fact fact")
        assert code == 1 and "error" in err


class TestProve:
    def test_factorial(self, capsys):
        code, out, _ = run_cli(capsys, "prove", str(SYSTEMS / "fact.lcstrs"))
        assert code == 0
        assert "TERMINATING" in out
        assert "init > fact" in out

    def test_empty(self, capsys):
        code, _, _ = run_cli(capsys, "prove", str(SYSTEMS / "empty.lcstrs"))
        assert code == 0

    def test_loop_unknown(self, capsys):
        code, out, _ = run_cli(capsys, "prove", str(SYSTEMS / "loop.lcstrs"))
        assert code == 2
        assert "UNKNOWN" in out
        assert "nontermination" not in out

    def test_json_witness_schema(self, capsys):
        code, payload, _ = run_json(capsys, "prove",
                                    str(SYSTEMS / "fact.lcstrs"))
        assert code == 0
        witness = payload["witness"]
        assert witness["status"]["fact"] == "lex"
        assert ["init", "exit"] in witness["precedence"]

    def test_json_failure_schema(self, capsys):
        code, payload, _ = run_json(capsys, "prove",
                                    str(SYSTEMS / "loop.lcstrs"))
        assert code == 2
        assert payload["ok"] is False
        assert payload["report"]["rules"][0]["index"] == 1

    def test_jobs_flag(self, capsys):
        # accepted and ignored: verification is serial
        for name, code in (("fact", 0), ("loop", 2)):
            path = str(SYSTEMS / f"{name}.lcstrs")
            for fmt in ("text", "json"):
                plain = run_cli(capsys, "prove", path, "--format", fmt)
                jobs = run_cli(capsys, "prove", path, "--format", fmt,
                               "--jobs", "4")
                assert plain[0] == code
                assert jobs[:2] == plain[:2]

    def test_bounds_flag(self, capsys, tmp_path):
        path = tmp_path / "down.lcstrs"
        path.write_text("fun down : Int -> Int\n"
                        "rule down x -> down (x - 1) [x > -2]\n")
        code, _, _ = run_cli(capsys, "prove", str(path))
        assert code == 2
        code, out, _ = run_cli(capsys, "prove", str(path), "--bounds", "0,-3")
        assert code == 0

    def test_file_bound_option_feeds_the_prover(self, capsys, tmp_path):
        path = tmp_path / "down.lcstrs"
        path.write_text("option bound -3\n"
                        "fun down : Int -> Int\n"
                        "rule down x -> down (x - 1) [x > -2]\n")
        code, out, _ = run_cli(capsys, "prove", str(path))
        assert code == 0
        assert "TERMINATING" in out

    @pytest.mark.parametrize("repeated, distinct, attempts",
                             [("0,0,0", "0", 1), ("0,1,0", "0,1", 2)])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_repeated_bound_is_searched_once(self, capsys, fmt, repeated,
                                             distinct, attempts):
        path = str(SYSTEMS / "loop.lcstrs")
        got = run_cli(capsys, "prove", path, "--format", fmt,
                      "--bounds", repeated)
        assert got == run_cli(capsys, "prove", path, "--format", fmt,
                              "--bounds", distinct)
        assert got[0] == 2
        assert f"({attempts} orientation attempts)" in got[1]

    def test_smt_command_environment_is_read_per_call(self, capsys,
                                                       monkeypatch):
        # the parser outlives a call, so the variable must be read when
        # `prove` runs, not when the parser is built
        seen = []

        def capture(system, config):
            seen.append(config.smt_command)
            return FailureReport((), 0, False)

        monkeypatch.setattr(cli, "find_witness", capture)
        monkeypatch.delenv(cli.SMT_ENV_VAR, raising=False)
        path = str(SYSTEMS / "loop.lcstrs")
        run_cli(capsys, "prove", path)
        monkeypatch.setenv(cli.SMT_ENV_VAR, "solver-from-env")
        run_cli(capsys, "prove", path)
        run_cli(capsys, "prove", path, "--smt-cmd", "solver-from-flag")
        assert seen == [None, "solver-from-env", "solver-from-flag"]


class TestMalformedOptionValues:
    @pytest.mark.parametrize("argv, message", [
        (["prove", "fact", "--bounds", "x"], "--bounds: 'x' is not an integer"),
        (["prove", "fact", "--bounds", "0, 1.5"],
         "--bounds: '1.5' is not an integer"),
        (["run", "fact", "--term", "init", "--inputs", "abc"],
         "--inputs: 'abc' is not an integer"),
        (["prove", "fact", "--timeout", "nan"],
         "--timeout expects a number of seconds, got nan"),
    ], ids=["bounds-word", "bounds-fraction", "inputs-word", "timeout-nan"])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_clean_input_error(self, capsys, argv, message, fmt):
        command, name, *rest = argv
        argv = [command, str(SYSTEMS / f"{name}.lcstrs"), *rest]
        if fmt == "json":
            code, payload, err = run_json(capsys, *argv)
            assert payload["ok"] is False and payload["error"] == message
        else:
            code, out, err = run_cli(capsys, *argv)
            assert out == ""
        assert code == 1
        assert err == f"error: {message}\n"
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["check"], ["run", "--term", "f 1"], ["prove"],
        ["prove", "--bounds", "0"],
    ], ids=["check", "run", "prove", "prove-bounds"])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_bad_bound_option_is_a_parse_error(self, capsys, tmp_path, argv,
                                               fmt):
        path = tmp_path / "bound.lcstrs"
        path.write_text("fun f : Int -> Int\noption bound x\n"
                        "rule f x -> x [true]\n")
        command, *rest = argv
        argv = [command, str(path), *rest]
        message = "2:14: option bound must be an integer, got 'x'"
        if fmt == "json":
            code, payload, err = run_json(capsys, *argv)
            assert payload == {"command": command, "file": str(path),
                               "ok": False, "error": message}
        else:
            code, out, err = run_cli(capsys, *argv)
            assert out == ""
        assert code == 1
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("timeout, code", [("inf", 0), ("0", 2)])
    def test_timeout_extremes_still_work(self, capsys, timeout, code):
        assert run_cli(capsys, "prove", str(SYSTEMS / "fact.lcstrs"),
                       "--timeout", timeout)[0] == code


@pytest.fixture(scope="module")
def deep_file(tmp_path_factory):
    # checks fine, but rewriting and proving still recurse per operand
    path = tmp_path_factory.mktemp("deep") / "deep.lcstrs"
    path.write_text("fun deep : Int -> Int\nrule deep x -> x"
                    + " + 1" * 4999 + " [x > 0]\n")
    return str(path)


class TestDeepInputs:
    @pytest.mark.parametrize("argv", [["run", "--term", "deep 1"], ["prove"]],
                             ids=["run", "prove"])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_clean_exit(self, capsys, deep_file, argv, fmt):
        command, *rest = argv
        argv = [command, deep_file, *rest]
        if fmt == "json":
            code, payload, err = run_json(capsys, *argv)
            assert payload == {"command": command, "file": deep_file,
                               "ok": False, "error": "input nests too deeply"}
        else:
            code, out, err = run_cli(capsys, *argv)
            assert out == ""
        assert code == 1
        assert err == "error: input nests too deeply\n"


class TestFlags:
    def test_unknown_flag_is_an_error(self, capsys):
        code = main(["check", str(SYSTEMS / "fact.lcstrs"), "--wat"])
        assert code == 2

    def test_missing_subcommand_is_an_error(self, capsys):
        assert main([]) == 2

    def test_determinism(self, capsys):
        _, first, _ = run_cli(capsys, "prove", str(SYSTEMS / "fact.lcstrs"),
                              "--format", "json")
        _, second, _ = run_cli(capsys, "prove", str(SYSTEMS / "fact.lcstrs"),
                               "--format", "json")
        assert first == second
