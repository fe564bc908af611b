"""The front end: lexing, comment stripping, parse and type errors, deep
inputs, and the cost of printing a trace.

The character rules of the lexer, the error messages of the corpus below
and the CLI output for it were recorded with the character-by-character
scanner and the recursive-descent parser and typechecker, before those
were replaced by a regex lexer and explicit-stack parsing, typechecking
and printing. They pin the replacement to the old behaviour.
"""

import contextlib
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from helpers import (
    gen_system, reference_strip_comments, reference_tokenize, system_text,
)
from lcstrs import syntax, theory
from lcstrs.cli import main
from lcstrs.core import App, FunctionSymbol, INT_T, LcstrsError, TypingError
from lcstrs.syntax import (
    ParseError, _strip_comments, parse_system, parse_term, print_term,
    tokenize,
)

TESTS = Path(__file__).resolve().parent
SYSTEMS = TESTS.parent / "systems"
GOLDEN = TESTS / "golden"
SCHEMA = json.loads((TESTS.parent / "src" / "lcstrs" / "schemas"
                     / "cli_output.schema.json").read_text())


def lexed(text: str):
    """The tokens of `text` as plain tuples, or the ParseError message."""
    try:
        return [(t.kind, t.text, t.line, t.col) for t in tokenize(text)]
    except ParseError as e:
        return str(e)


def reference_lexed(text: str):
    try:
        return reference_tokenize(text)
    except ParseError as e:
        return str(e)


class TestLexerPins:
    # recorded with the character scanner
    PINS = {
        "xé": [("ident", "xé", 1, 1)],
        "λx": [("ident", "λx", 1, 1)],
        "²": [("int", "²", 1, 1)],
        "٣": [("int", "٣", 1, 1)],
        "a\x1cb": [("ident", "a", 1, 1), ("ident", "b", 1, 3)],
        "x\xa0y": [("ident", "x", 1, 1), ("ident", "y", 1, 3)],
        "a\x1fb\x1e\x1dc": [("ident", "a", 1, 1), ("ident", "b", 1, 3),
                            ("ident", "c", 1, 6)],
        "a b": [("ident", "a", 1, 1), ("ident", "b", 1, 3)],
        "x²": [("ident", "x²", 1, 1)],
        "2²3": [("int", "2²3", 1, 1)],
        "-²": [("int", "-²", 1, 1)],
        "x½": [("ident", "x½", 1, 1)],
        "½": "1:1: unexpected character '½'",
        "Ⅷ": "1:1: unexpected character 'Ⅷ'",
        "x'y'": [("ident", "x'y'", 1, 1)],
        "_'": [("ident", "_'", 1, 1)],
        "n-1": [("ident", "n", 1, 1), ("op", "-", 1, 2), ("int", "1", 1, 3)],
        "n -1": [("ident", "n", 1, 1), ("op", "-", 1, 3), ("int", "1", 1, 4)],
        "(-1)": [("punct", "(", 1, 1), ("int", "-1", 1, 2),
                 ("punct", ")", 1, 4)],
        "--5": [("op", "-", 1, 1), ("int", "-5", 1, 2)],
        "!>=-1": [("op", "!>=", 1, 1), ("int", "-1", 1, 4)],
    }

    @pytest.mark.parametrize("text", sorted(PINS))
    def test_pinned_tokens(self, text):
        assert lexed(text) == self.PINS[text]

    def test_token_fields(self):
        t = tokenize("\n  fact")[0]
        assert (t.kind, t.text, t.line, t.col, t.pos) == (
            "ident", "fact", 2, 3, (2, 3))


# pieces of the random lexer inputs: every token class, `-` next to
# digits, comment brackets, unusual letters and digits, control and
# Unicode whitespace, and characters no token starts with
_ALPHABET = (
    "a", "x1", "fact", "_", "'", "é", "λ", "²", "٣", "½", "Ⅷ", "0", "7", "42",
    "-", "-1", "--", "!>=", "!>", "!=", "<=", ">=", "->", "/\\", "\\/", "<",
    ">", "=", "+", "*", "(", ")", "[", "]", ":", "(*", "*)", " ", "  ", "\t",
    "\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85",
    "\xa0", " ", "\x00", "\x07", "$", "?", "!", "/", "\\",
)


def random_lexer_inputs(count: int, seed: int) -> list[str]:
    rng = random.Random(seed)
    return ["".join(rng.choice(_ALPHABET) for _ in range(rng.randint(1, 16)))
            for _ in range(count)]


def assert_lexes_as_reference(count: int, seed: int = 7) -> None:
    """`tokenize` against `helpers.reference_tokenize` on `count` random
    strings, each also with its comments blanked where it has any."""
    for text in random_lexer_inputs(count, seed):
        assert lexed(text) == reference_lexed(text), repr(text)
        try:
            blanked = _strip_comments(text)
        except ParseError:
            continue
        assert lexed(blanked) == reference_lexed(blanked), repr(blanked)


class TestLexerDifferential:
    def test_every_line_of_the_shipped_systems(self):
        for path in sorted(SYSTEMS.glob("*.lcstrs")):
            text = path.read_text()
            for lines in (text.split("\n"), _strip_comments(text).split("\n")):
                for lineno, line in enumerate(lines, 1):
                    assert lexed(line) == reference_lexed(line), (path, lineno)

    def test_random_strings(self):
        assert_lexes_as_reference(2000)

    # blank texts end a match at the end of a line rather than at a token,
    # and texts with numeric characters outside ASCII get their own pattern
    BLANK_AND_NUMERIC = [
        "", " ", "\t", "   ", "\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0 ",
        "\n", "\n\n", " \n \n", "\r\n", "x \n   \n y", "x ", "  x  ",
        "(* a comment *)", "(* (* nested *) *) x", "x (* trailing *)",
        "fun f : Int (* type *)\n(*\n  spans lines\n*)\nrule f x -> x [true]",
        "²", "x² ½", "٣٤ + x", "Ⅷ", "-²", "-٣", "1²-²", " ²\n½", "x½y ٣",
        "f (-٣) ²", "λ²'", "²x", "½x", "x\u2460", "\u2460", "٣\n-1",
    ]

    @pytest.mark.parametrize("text", BLANK_AND_NUMERIC)
    def test_blank_and_numeric_texts(self, text):
        assert lexed(text) == reference_lexed(text)
        blanked = _strip_comments(text)
        assert lexed(blanked) == reference_lexed(blanked)

    def test_first_line_offset(self):
        for text in random_lexer_inputs(200, seed=8):
            try:
                got = [tuple(t) for t in tokenize(text, first_line=5)]
            except ParseError as e:
                got = str(e)
            try:
                want = reference_tokenize(text, first_line=5)
            except ParseError as e:
                want = str(e)
            assert got == want, repr(text)

    def test_comment_stripping(self):
        for text in random_lexer_inputs(2000, seed=9):
            try:
                got = _strip_comments(text)
            except ParseError as e:
                got = str(e)
            try:
                want = reference_strip_comments(text)
            except ParseError as e:
                want = str(e)
            assert got == want, repr(text)


class TestLexerScale:
    """One match per token and one at the end of each line: a blank line
    is not scanned again from each of its characters."""

    SCRIPT = """
import sys
from time import perf_counter
from lcstrs.syntax import tokenize

def seconds(text):
    best = float("inf")
    for _ in range(3):
        start = perf_counter()
        tokenize(text)
        best = min(best, perf_counter() - start)
    return best

# each blank text against one of the same shape that ends in a token
for blank, ended in ((" " * 100000, " " * 99999 + "x"),
                     ("\\n".join([" " * 60] * 20000),
                      "\\n".join([" " * 59 + "x"] * 20000))):
    print(seconds(blank), seconds(ended))
"""

    def test_blank_input_is_linear(self):
        env = dict(os.environ, PYTHONPATH=str(TESTS.parent / "src"))
        proc = subprocess.run([sys.executable, "-c", self.SCRIPT],
                              capture_output=True, text=True, env=env,
                              timeout=60)
        assert proc.stderr == ""
        for line in proc.stdout.splitlines():
            blank, ended = map(float, line.split())
            assert blank <= 3 * ended + 0.02, line


# ---------------------------------------------------------------------------
# Typed construction: what `typecheck` builds without the check


def assert_typed_as_checked(count: int, seed: int = 11) -> None:
    """Every application node of the rules of `count` seeded systems, read
    from their text, against the node rebuilt bottom-up by the checked
    `App(head, arg)`."""
    rng = random.Random(seed)
    for _ in range(count):
        system = parse_system(system_text(gen_system(rng)))
        for rule in system.rules:
            for term in (rule.lhs, rule.rhs, rule.constraint):
                checked = {}    # id of a node -> its checked rebuild
                stack = [(term, False)]
                while stack:
                    node, children_done = stack.pop()
                    if type(node) is not App:
                        continue
                    if not children_done:
                        stack += ((node, True), (node.arg, False),
                                  (node.head, False))
                        continue
                    head = checked.get(id(node.head), node.head)
                    arg = checked.get(id(node.arg), node.arg)
                    again = checked[id(node)] = App(head, arg)
                    assert again == node and hash(again) == hash(node)
                    assert (again.type, again.free_vars, again.size,
                            again.is_theory_term) == (
                        node.type, node.free_vars, node.size,
                        node.is_theory_term), print_term(node)


class TestTypedConstruction:
    def test_nodes_equal_their_checked_rebuild(self):
        assert_typed_as_checked(150)

    def test_library_construction_still_checks(self):
        with pytest.raises(TypingError):
            App(theory.int_value(1), theory.int_value(2))
        with pytest.raises(TypingError):
            App(theory.ADD, theory.TRUE)


# ---------------------------------------------------------------------------
# Golden error corpus: `check --format json` and `parse_term` messages

_DECLS = "fun f1 : Int -> Int\nfun f2 : Int -> Int\nrule f1 x -> f2 x [x > 0]\n"

CHECK_ERRORS = {
    "unterminated_comment":
        "fun a : Int\n\n(* opened on line 3\n(* nested *)\nfun b : Int\n",
    "unexpected_character": "fun f : Int -> Int\nrule f x -> x $ 1 [true]\n",
    "unclosed_paren": "fun f : Int -> Int\nrule f x -> (x + 1 [true]\n",
    "bracket_variable": "fun f : Int -> Int\nrule f x -> [x] 1 [true]\n",
    "comparison_chain": "fun f : Int -> Int\nrule f x -> x [0 < x < 9]\n",
    "stray_paren": "fun f : Int -> Int\nrule f x -> x + 1) [true]\n",
    "no_constraint": "fun f : Int -> Int\nrule f x -> f x\n",
    "no_arrow": "fun f : Int -> Int\nrule f x [true]\n",
    "empty_side": "fun f : Int -> Int\nrule -> f 1 [true]\n",
    "bad_fun_line": "fun a Int\n",
    "token_after_type": "fun a : Int Int\n",
    "unclosed_type": "fun a : (Int -> Int\n",
    "reserved_name": "fun rule : Int\n",
    "bad_keyword": "fun a : Int\nwat\n",
    "typing_error": "fun f : Int -> Int\nrule f x -> f [true]\n",
    "overload_first_error": "fun f : Int -> Int\nrule f x -> x [x !> true]\n",
    "invalid_0": _DECLS + "rule f1 x -> undeclared x [true]\n",
    "invalid_1": _DECLS + "rule x + 1 -> x [true]\n",
    "invalid_2": _DECLS + "rule f1 x -> x\n",
    "invalid_3": _DECLS + "fun f2 : Int\n",
}

TERM_ERRORS = {
    "unclosed_paren": "(x + 1",
    "bracket_variable": "[x]",
    "comparison_chain": "a < b < c",
    "stray_paren": "1 + 2 )",
    "empty": "",
    "blank": "  \n \t",
    "multiline": "fact\n  (1 +\n  )",
    "unexpected_character": "fact 1 ?",
    "bracket_arrow": "[->] 1",
    "bracket_unclosed": "[+ 1",
    "nested_unclosed": "((1 + 2)",
    "lone_minus": "-",
    "comment_in_term": "(* c *) 1",
    "typing_error": "fact exit 1",
    "overload_first_error": "true !> 1",
    "untyped_variable": "y 1",
}


def check_outputs(directory: Path, monkeypatch, capsys) -> dict:
    """stdout, stderr and exit code of `check NAME.lcstrs --format json`
    for every file of the corpus, run from inside `directory`."""
    monkeypatch.chdir(directory)
    out = {}
    for name, text in CHECK_ERRORS.items():
        (directory / f"{name}.lcstrs").write_text(text)
        code = main(["check", f"{name}.lcstrs", "--format", "json"])
        captured = capsys.readouterr()
        out[name] = {"exit": code, "stdout": captured.out,
                     "stderr": captured.err}
    return out


def term_errors(system) -> dict:
    out = {}
    for name, text in TERM_ERRORS.items():
        with pytest.raises(LcstrsError) as err:
            parse_term(text, system)
        out[name] = {"error": type(err.value).__name__,
                     "message": str(err.value)}
    return out


class TestErrorCorpus:
    def test_check_json_is_golden(self, tmp_path, monkeypatch, capsys):
        golden = json.loads((GOLDEN / "check_errors.json").read_text())
        assert check_outputs(tmp_path, monkeypatch, capsys) == golden

    def test_parse_term_messages_are_golden(self, fact_system):
        golden = json.loads((GOLDEN / "parse_term_errors.json").read_text())
        assert term_errors(fact_system) == golden


# ---------------------------------------------------------------------------
# Deep inputs: nothing recurses per nesting level any more


def check_json(path: Path, capsys) -> dict:
    code = main(["check", str(path), "--format", "json"])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    payload = json.loads(captured.out)
    jsonschema.validate(payload, SCHEMA)
    return payload


def reprinted(text: str, system) -> str:
    """Parse and print a term again. Strings are compared, not terms: the
    generated `__eq__` of a term recurses."""
    return print_term(parse_term(text, system))


class TestDeepInputs:
    @pytest.mark.parametrize("shape", ["sum", "parens"])
    def test_deep_rule_checks(self, shape, tmp_path, capsys):
        if shape == "sum":  # 5000 operands
            rhs = "x" + "".join(f" + {i % 9 + 1}" for i in range(4999))
        else:               # 3000 nested parentheses
            rhs = "(" * 3000 + "x" + "".join(
                f" {'+*'[i % 2]} {i % 9 + 1})" for i in range(3000))
        text = f"fun deep : Int -> Int\nrule deep x -> {rhs} [x > 0]\n"
        path = tmp_path / "deep.lcstrs"
        path.write_text(text)
        rule, = check_json(path, capsys)["rules"]
        system = parse_system(text)
        ctx = {}
        assert print_term(parse_term(rule["lhs"], system, ctx)) == rule["lhs"]
        assert print_term(parse_term(rule["rhs"], system, ctx)) == rule["rhs"]
        if shape == "sum":
            assert rule["rhs"] == rhs
        else:
            assert rule["rhs"].count("(") == 1500  # every sum under a product

    def test_deep_term_errors_are_clean(self, fact_system):
        with pytest.raises(ParseError) as err:
            parse_term("(" * 4000 + "1" + ")" * 3999, fact_system)
        # just past the last token, the 3999th `)`
        assert str(err.value) == "1:8001: unexpected end of input"
        with pytest.raises(ParseError) as err:
            parse_term("1" + " < 1" * 3000, fact_system)
        assert str(err.value) == "1:7: unexpected token '<'"

    def test_deep_overloads_backtrack(self, fact_system):
        # each `!>` tries the Int symbol first, which fails on its first
        # argument, then the Bool one, which checks the nested right side
        depth = 2000
        text = "true" + " !> (true" * depth + " !> true" + ")" * depth
        assert reprinted(text, fact_system).count("!>") == depth + 1
        # on Int operands both fail at every level, and the first error
        # reported is the Int attempt's at the innermost operator
        text = "1" + " !> (1" * depth + " !> 1" + ")" * depth
        with pytest.raises(TypingError) as err:
            parse_term(text, fact_system)
        col = len("1" + " !> (1" * depth) + 2
        assert str(err.value) == f"1:{col}: term has type Bool, expected Int"

    def test_nested_overloads_over_fresh_variables(self):
        # p60 !> (p59 !> (... (p1 !> p0))): every level but the innermost
        # is typed by the Bool symbol, after the Int one fails on the
        # level below. Retrying a symbol whose result type is not the one
        # expected there would double the work at every level, so the
        # parse runs in a subprocess with a timeout
        chain = "p1 !> p0"
        for i in range(2, 61):
            chain = f"p{i} !> ({chain})"
        script = ("import sys\n"
                  "from lcstrs.syntax import parse_system\n"
                  "rule, = parse_system(sys.stdin.read()).rules\n"
                  "print(sorted(v.name for v in rule.constraint.free_vars\n"
                  "             if str(v.type) == 'Int'))\n")
        env = dict(os.environ, PYTHONPATH=str(TESTS.parent / "src"))
        proc = subprocess.run(
            [sys.executable, "-c", script],
            input=f"fun f : Bool -> Int\nrule f q -> f q [{chain}]\n",
            capture_output=True, text=True, env=env, timeout=30)
        assert proc.stderr == ""
        assert proc.stdout == "['p0', 'p1']\n"

    def test_run_fact_1500_json(self, tmp_path):
        # 85 MB of JSON, written to a file rather than captured
        out = tmp_path / "out.json"
        with open(out, "w") as handle, contextlib.redirect_stdout(handle):
            code = main(["run", str(SYSTEMS / "fact.lcstrs"), "--term",
                         "fact 1500 exit", "--format", "json"])
        assert code == 0
        with open(out) as handle:
            payload = json.load(handle)
        assert payload["result"] == f"exit {math.factorial(1500)}"
        assert payload["total_steps"] == 6001
        assert len(payload["steps"]) == 6001


# ---------------------------------------------------------------------------
# Printer work per step does not grow with the term


class TestPrinterScale:
    @staticmethod
    def rendered_per_step(monkeypatch, capsys, n: int) -> float:
        calls = [0]
        layout = syntax._layout

        def counted(*args):
            calls[0] += 1
            return layout(*args)

        with monkeypatch.context() as patch:
            patch.setattr(syntax, "_layout", counted)
            code = main(["run", str(SYSTEMS / "fact.lcstrs"), "--term",
                         f"fact {n} exit", "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["total_steps"] == 4 * n + 1
        return calls[0] / payload["total_steps"]

    def test_nodes_rendered_per_step_are_flat(self, monkeypatch, capsys):
        small = self.rendered_per_step(monkeypatch, capsys, 20)
        large = self.rendered_per_step(monkeypatch, capsys, 80)
        assert large <= 1.5 * small

    def test_shared_memo_prints_like_fresh_calls(self, fact_system):
        memo = {}
        for n in (3, 0, -2, 12):
            term = parse_term(f"fact ({n}) (comp exit ([*] ({n})))", fact_system)
            assert print_term(term, memo) == print_term(term)


# ---------------------------------------------------------------------------
# Integer literals


class TestLiteralCache:
    def test_spelling_resolves_once(self):
        signature = theory.base_signature()
        first = signature.lookup("007")
        assert first == (theory.int_value(7),)
        assert first[0].name == "7"
        assert signature.lookup("007") is first
        assert signature.lookup("-3") == (theory.int_value(-3),)
        assert signature.lookup("x7") == ()

    def test_literals_stay_out_of_the_declared_symbols(self):
        signature = theory.base_signature()
        before = list(signature.symbols())
        signature.lookup("12")
        assert list(signature.symbols()) == before
        # a declared name still comes before a remembered spelling
        twelve = FunctionSymbol("12", INT_T)
        signature.add(twelve)
        assert signature.lookup("12") == (twelve,)

    def test_leading_zeros_in_a_term(self, fact_system):
        assert parse_term("007", fact_system) is theory.int_value(7)
        assert print_term(parse_term("fact 007 exit", fact_system)) == (
            "fact 7 exit")
