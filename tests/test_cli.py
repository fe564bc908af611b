"""Command-line interface: exit codes, output formats, schema validity."""

import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from lcstrs import cli
from lcstrs.cli import main
from lcstrs.prover import FailureReport, Witness

REPO = Path(__file__).resolve().parent.parent
SYSTEMS = REPO / "systems"
SCHEMA = json.loads(
    (REPO / "src" / "lcstrs" / "schemas" / "cli_output.schema.json").read_text())


BOM = b"\xef\xbb\xbf"
COUNTDOWN = "fun f : Int -> Int\nrule f x -> f (x - 1) [x > 0]\n"


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

    def test_a_file_that_is_not_utf8_is_an_input_error(self, capsys,
                                                         tmp_path):
        path = tmp_path / "latin.lcstrs"
        path.write_bytes(b"fun f : Int -> Int\n\xff\xfe\n")
        message = (f"cannot read {path}: not UTF-8 text, invalid start byte "
                   f"at byte 19")
        code, out, err = run_cli(capsys, "check", str(path))
        assert (code, out, err) == (1, "", f"error: {message}\n")
        code, payload, err = run_json(capsys, "check", str(path))
        assert (code, err) == (1, f"error: {message}\n")
        assert payload == {"command": "check", "file": str(path),
                           "ok": False, "error": message}

    def test_a_leading_byte_order_mark_is_dropped(self, capsys, tmp_path,
                                                   monkeypatch):
        # an editor may save UTF-8 text with a byte-order mark first
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bom.lcstrs").write_bytes(BOM + COUNTDOWN.encode())
        (tmp_path / "plain.lcstrs").write_text(COUNTDOWN)
        code = main(["check", "bom.lcstrs", "--format", "json"])
        got = (code, *capsys.readouterr())
        main(["check", "plain.lcstrs", "--format", "json"])
        out = capsys.readouterr().out.replace("plain.", "bom.")
        assert got == (0, out, "")

    @pytest.mark.parametrize("data, error", [
        (COUNTDOWN.replace("rule", "\ufeffrule").encode(),
         "2:1: unexpected character '\\ufeff'"),
        (BOM + BOM + COUNTDOWN.encode(), "1:1: unexpected character '\\ufeff'"),
        (BOM + b"ab\xff",
         "cannot read bom.lcstrs: not UTF-8 text, invalid start byte at byte 5"),
    ], ids=["inside", "twice", "not_utf8"])
    def test_any_other_byte_order_mark_is_an_error(
            self, capsys, tmp_path, monkeypatch, data, error):
        # only one mark, first, is dropped; and a decode error's offset
        # counts the mark's three bytes
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bom.lcstrs").write_bytes(data)
        code = main(["check", "bom.lcstrs", "--format", "json"])
        payload = {"command": "check", "file": "bom.lcstrs", "ok": False,
                   "error": error}
        assert (code, *capsys.readouterr()) == (
            1, json.dumps(payload, indent=2) + "\n", f"error: {error}\n")

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

    def test_a_byte_order_mark_opens_a_file_not_a_term(self, capsys,
                                                        tmp_path):
        path = tmp_path / "bom.lcstrs"
        path.write_bytes(BOM + COUNTDOWN.encode())
        code, out, err = run_cli(capsys, "run", str(path), "--term", "f 2")
        assert (code, out, err) == (0, "start: f 2\n"
                                       "step 1: rule#1 at [] -> f (2 - 1)\n"
                                       "step 2: calc at [1] -> f 1\n"
                                       "step 3: rule#1 at [] -> f (1 - 1)\n"
                                       "step 4: calc at [1] -> f 0\n"
                                       "normal form after 4 steps: f 0\n", "")
        assert run_cli(capsys, "run", str(path), "--term", "\ufefff 2") == (
            1, "", "error: 1:1: unexpected character '\\ufeff'\n")

    def test_a_digit_outside_ascii_is_an_input_error(self, capsys):
        # an integer is a run of ASCII digits: a full-width 3 is no literal,
        # and no variable either
        code, payload, err = run_json(capsys, "run",
                                      str(SYSTEMS / "fact.lcstrs"),
                                      "--term", "fact \uff13 exit")
        assert code == 1 and payload["ok"] is False
        assert payload["error"] == "1:6: unexpected character '\uff13'"
        assert err == "error: 1:6: unexpected character '\uff13'\n"


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

    def test_witness_that_needs_the_smt_solver_is_verified(self, capsys,
                                                             tmp_path):
        # only the external solver shows x * x * x > 8 entails x !> x - 1,
        # so the re-check of the witness must ask it too
        path = tmp_path / "cube.lcstrs"
        path.write_text("fun f : Int -> Int\n"
                        "rule f x -> f (x - 1) [x * x * x > 8]\n")
        smt = f"{sys.executable} {REPO / 'tests' / 'fake_smt.py'} eval"
        code, out, _ = run_cli(capsys, "prove", str(path), "--smt-cmd", smt)
        assert (code, out.splitlines()[0]) == (0, "TERMINATING")
        code, payload, _ = run_json(capsys, "prove", str(path),
                                    "--smt-cmd", smt)
        assert (code, payload["ok"]) == (0, True)
        assert run_cli(capsys, "prove", str(path))[0] == 2

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("tamper, diagnostic", [
        (lambda doc: doc["precedence"].remove(["init", "fact"]),
         "rule 1 not oriented: init -> fact n exit [true]"),
        (lambda doc: doc["precedence"].append(["init", "start"]),
         "witness names unknown symbol 'start'"),
    ], ids=["dropped-edge", "unknown-symbol"])
    def test_the_printed_document_is_the_one_checked(
            self, capsys, monkeypatch, fmt, tamper, diagnostic):
        # a document that does not prove what the search found must not be
        # printed as a proof
        to_dict = Witness.to_dict

        def tampered(witness, system):
            document = to_dict(witness, system)
            tamper(document)
            return document

        monkeypatch.setattr(Witness, "to_dict", tampered)
        code, out, _ = run_cli(capsys, "prove", str(SYSTEMS / "fact.lcstrs"),
                               "--format", fmt)
        assert code == 2
        if fmt == "json":
            payload = json.loads(out)
            jsonschema.validate(payload, SCHEMA)
            assert payload["report"]["message"] == "witness failed verification"
            assert payload["report"]["diagnostics"][0].startswith(diagnostic)
        else:
            lines = out.splitlines()
            assert lines[0] == "witness failed verification:"
            assert lines[1].startswith(diagnostic)


class TestMalformedOptionValues:
    @pytest.mark.parametrize("argv, message", [
        (["prove", "fact", "--bounds", "x"], "--bounds: 'x' is not an integer"),
        (["prove", "fact", "--bounds", "0, 1.5"],
         "--bounds: '1.5' is not an integer"),
        (["run", "fact", "--term", "init", "--inputs", "abc"],
         "--inputs: 'abc' is not an integer"),
        (["prove", "fact", "--timeout", "nan"],
         "--timeout expects a number of seconds, got nan"),
        (["run", "fact", "--term", "init", "--fuel", "abc"],
         "--fuel: 'abc' is not an integer"),
        (["prove", "fact", "--timeout", "abc"],
         "--timeout expects a number of seconds, got abc"),
    ], ids=["bounds-word", "bounds-fraction", "inputs-word", "timeout-nan",
            "fuel-word", "timeout-word"])
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

    @pytest.mark.parametrize("argv", [
        ["check"], ["run", "--term", "f 1"], ["prove"],
    ], ids=["check", "run", "prove"])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_unknown_option_is_a_parse_error(self, capsys, tmp_path, argv,
                                             fmt):
        # a misspelled `bound` must not leave the prover at bound 0
        path = tmp_path / "typo.lcstrs"
        path.write_text("fun f : Int -> Int\noption boud -3\n"
                        "rule f x -> x [true]\n")
        command, *rest = argv
        argv = [command, str(path), *rest]
        message = "2:8: unknown option 'boud'"
        if fmt == "json":
            code, payload, err = run_json(capsys, *argv)
            assert payload == {"command": command, "file": str(path),
                               "ok": False, "error": message}
        else:
            code, out, err = run_cli(capsys, *argv)
            assert out == ""
        assert code == 1
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("argv", [
        ["check"], ["run", "--term", "down 1"], ["prove"],
    ], ids=["check", "run", "prove"])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_repeated_bound_option_is_a_parse_error(self, capsys, tmp_path,
                                                    argv, fmt):
        # a later bound must not silently override the first one
        path = tmp_path / "twice.lcstrs"
        path.write_text("option bound -3\nfun down : Int -> Int\n"
                        "rule down x -> down (x - 1) [x > -2]\n"
                        "option bound 0\n")
        command, *rest = argv
        argv = [command, str(path), *rest]
        message = "4:8: option bound is already set"
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


@pytest.fixture(scope="module")
def wide_file(tmp_path_factory):
    # 1500 defined symbols whose rules orient without reading a status
    path = tmp_path_factory.mktemp("wide") / "wide.lcstrs"
    path.write_text("".join(f"fun f{i} : Int -> Int -> Int\n"
                            for i in range(1500))
                    + "".join(f"rule f{i} x y -> x [true]\n"
                              for i in range(1500)))
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

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_wide_system_proves(self, capsys, wide_file, fmt):
        # the status walk loops: a symbol is a column, not a nesting level
        if fmt == "json":
            code, payload, err = run_json(capsys, "prove", wide_file)
            assert payload["ok"] is True
            assert len(payload["witness"]["status"]) == 1500
        else:
            code, out, err = run_cli(capsys, "prove", wide_file)
            assert out.startswith("TERMINATING\n")
        assert code == 0
        assert err == ""


class TestDigitLimit:
    # Python refuses to convert integers of more than
    # `sys.get_int_max_str_digits()` digits (4300 by default) to or from
    # text; the limit is process-wide, so lcstrs reports it, not raises it
    def test_a_long_literal_is_an_input_error(self, capsys, tmp_path):
        path = tmp_path / "long.lcstrs"
        path.write_text("fun f : Int -> Int\n"
                        f"rule f x -> f (x - 1) [x > {'9' * 5000}]\n")
        code, payload, err = run_json(capsys, "check", str(path))
        limit = sys.get_int_max_str_digits()
        message = (f"2:28: integer has more than {limit} digits, the "
                   f"interpreter's limit")
        assert code == 1 and payload["ok"] is False
        assert payload["error"] == message
        assert err == f"error: {message}\n"

    def test_a_long_bound_option_names_the_limit(self, capsys, tmp_path):
        path = tmp_path / "bound.lcstrs"
        path.write_text(f"option bound {'9' * 5000}\nfun f : Int -> Int\n")
        code, payload, _ = run_json(capsys, "check", str(path))
        limit = sys.get_int_max_str_digits()
        assert code == 1 and payload["ok"] is False
        assert payload["error"] == (
            f"1:14: integer has more than {limit} digits, the "
            f"interpreter's limit")

    @pytest.mark.parametrize("command, option, value", [
        ("run", "--fuel", "{}"), ("run", "--inputs", "1,{}"),
        ("prove", "--bounds", "0,{}"),
    ], ids=["fuel", "inputs", "bounds"])
    def test_a_long_integer_flag_names_the_limit(self, capsys, command,
                                                 option, value):
        extra = ["--term", "fact 3 exit"] if command == "run" else []
        code, payload, _ = run_json(
            capsys, command, str(SYSTEMS / "fact.lcstrs"), *extra, option,
            value.format("9" * 5000))
        limit = sys.get_int_max_str_digits()
        assert code == 1 and payload["ok"] is False
        assert payload["error"] == (
            f"{option}: integer has more than {limit} digits, the "
            f"interpreter's limit")

    def test_a_long_result_is_an_error(self, capsys):
        # 2000! has 5736 digits
        code, payload, _ = run_json(capsys, "run",
                                    str(SYSTEMS / "fact.lcstrs"), "--term",
                                    "fact 2000 exit")
        limit = sys.get_int_max_str_digits()
        assert code == 1 and payload["ok"] is False
        assert payload["error"] == (
            f"integer has more than {limit} digits, the interpreter's limit")


class ClosedStdout:
    """A stdout whose reader has gone: every write raises."""

    def __init__(self):
        self.writes = 0

    def write(self, text):
        self.writes += 1
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass


class TestClosedStdout:
    @pytest.mark.parametrize("argv", [
        ["prove", str(SYSTEMS / "fact.lcstrs")],
        ["run", str(SYSTEMS / "fact.lcstrs"), "--term", "fact 3 exit"],
        ["check", str(SYSTEMS / "fact.lcstrs")],
    ], ids=["prove", "run", "check"])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_clean_exit(self, capsys, monkeypatch, argv, fmt):
        stdout = ClosedStdout()
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main([*argv, "--format", fmt]) == 1
        assert stdout.writes == 1
        assert capsys.readouterr().err == ""

    def test_clean_exit_from_the_error_payload(self, capsys, monkeypatch,
                                               bad_file):
        stdout = ClosedStdout()
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(["check", bad_file, "--format", "json"]) == 1
        assert stdout.writes == 1
        assert capsys.readouterr().err == ""

    def test_reader_that_stops_early(self):
        # the output is far larger than a pipe holds, so the writer sees
        # the reader go
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        proc = subprocess.Popen(
            [sys.executable, "-m", "lcstrs.cli", "run",
             str(SYSTEMS / "fact.lcstrs"), "--term", "fact 300 exit",
             "--format", "json"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, bufsize=0,
            env=env)
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert err == b""


class TestFlags:
    def test_unknown_flag_is_an_error(self, capsys):
        code = main(["check", str(SYSTEMS / "fact.lcstrs"), "--wat"])
        assert code == 2

    def test_missing_subcommand_is_an_error(self, capsys):
        assert main([]) == 2

    @pytest.mark.parametrize("argv", [
        ["prove", "--format", "json", "--jobs", "4"],
        ["run", "--format", "json"],
        ["prove", "--format", "xml"],
    ], ids=["jobs", "missing-term", "format-choice"])
    def test_usage_error(self, capsys, argv):
        # argparse's errors: usage on stderr, no payload, exit 2
        command, *rest = argv
        code, out, err = run_cli(capsys, command,
                                 str(SYSTEMS / "fact.lcstrs"), *rest)
        assert code == 2
        assert out == ""
        assert err.startswith("usage: lcstrs ")
        assert "error: " in err

    def test_determinism(self, capsys):
        _, first, _ = run_cli(capsys, "prove", str(SYSTEMS / "fact.lcstrs"),
                              "--format", "json")
        _, second, _ = run_cli(capsys, "prove", str(SYSTEMS / "fact.lcstrs"),
                               "--format", "json")
        assert first == second
