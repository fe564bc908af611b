"""Mutation fuzzer for the CLI's exit contract, which needs no reference.

Every input ends in exit 0, 1 or 2, and with `--format json` it prints
exactly one JSON payload, valid under the output schema, whose `ok` is true
exactly on exit 0. The inputs are seeded mutations of `systems/*.lcstrs`,
the `List` system and a system with `!>`/`!>=` guards: 1-4 replacements,
insertions or deletions of tokens, with fragments that include an opened
comment `(*`, a 20-digit literal, `@` and a byte that is not UTF-8. Each
input runs in process through `check`, `prove --timeout 0.5` and
`run --fuel 200`.

Tier-1 checks a slice; a larger one runs from the `tests` directory with

    python -c "import test_exit_contract as t; t.assert_contract(20000)"
"""

import contextlib
import io
import json
import random
import re
import tempfile
from collections import Counter
from pathlib import Path

import jsonschema

from helpers import LIST_SYSTEM
from lcstrs.cli import main

REPO = Path(__file__).resolve().parent.parent
SCHEMA = json.loads(
    (REPO / "src" / "lcstrs" / "schemas" / "cli_output.schema.json").read_text())

ORDERING_SYSTEM = b"""\
option bound 2
fun f : Int -> Int
fun g : Bool -> Int
rule f x -> f (x - 1) [x !> 0]
rule g p -> g false [p !> false]
rule g p -> f 3 [p !>= p /\\ not p]
"""

# each system with the term `run` starts from
SEEDS = [((REPO / "systems" / name).read_bytes(), term) for name, term in [
    ("empty.lcstrs", "1 + 2"), ("fact.lcstrs", "fact 3 exit"),
    ("iter.lcstrs", "iter 3 ([+] 1) 0"), ("loop.lcstrs", "f 0")]] + [
    (LIST_SYSTEM.encode(), "fold [+] 0 (map ([+] 1) (range 1 3))"),
    (ORDERING_SYSTEM, "f 5"),
]

SPECIAL = [b"(*", b"12345678901234567890", b"@", b"\xff"]
_TOKEN = re.compile(rb"\(\*|\*\)|->|!>=|!>|!=|<=|>=|/\\|\\/|\w+|\S")


def mutated(rng: random.Random, text: bytes, corpus: list[bytes]) -> bytes:
    """`text` after 1-4 replacements, insertions or deletions, each at a
    different token. A fragment is one of `SPECIAL`, or a corpus token,
    half of the time one of the same class, word or symbol, as the token
    it replaces, which more often keeps the file well formed."""
    tokens = list(_TOKEN.finditer(text))
    chosen = rng.sample(tokens, min(rng.randint(1, 4), len(tokens)))
    for token in sorted(chosen, key=lambda m: m.start(), reverse=True):
        (start, end), word = token.span(), token.group()[:1].isalnum()
        action = rng.choice(("replace", "insert", "delete"))
        if rng.random() < 0.2:
            fragment = rng.choice(SPECIAL)
        elif action == "replace" and rng.random() < 0.5:
            fragment = rng.choice([t for t in corpus
                                   if t[:1].isalnum() == word])
        else:
            fragment = rng.choice(corpus)
        if action == "insert":
            fragment, end = fragment + b" ", start
        elif action == "delete":
            fragment = b""
        text = text[:start] + fragment + text[end:]
    return text


def call(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of one in-process CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def fuzz(count: int, seed: int = 1) -> tuple[list[tuple], Counter]:
    """Every call of the first `count` mutated inputs of the seed that
    breaks the contract, as (input number, argv, what went wrong), and
    how often each (command, exit code) was seen."""
    rng = random.Random(seed)
    corpus = sorted({m.group() for text, _ in SEEDS
                     for m in _TOKEN.finditer(text)})
    found, codes = [], Counter()
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "input.lcstrs"
        for number in range(count):
            text, term = rng.choice(SEEDS)
            path.write_bytes(mutated(rng, text, corpus))
            for argv in (["check", str(path)],
                         ["prove", str(path), "--timeout", "0.5"],
                         ["run", str(path), "--term", term, "--fuel", "200"]):
                argv += ["--format", "json"]
                try:
                    code, out = call(argv)
                    codes[argv[0], code] += 1
                    payload = json.loads(out)
                    jsonschema.validate(payload, SCHEMA)
                    assert code in (0, 1, 2), f"exit {code}"
                    assert payload["ok"] is (code == 0), "ok and exit differ"
                except Exception as error:      # anything is a violation
                    found.append((number, argv, repr(error)[:200]))
    return found, codes


def assert_contract(count: int, seed: int = 1) -> None:
    found, codes = fuzz(count, seed)
    assert not found, found[:5]
    print(dict(sorted(codes.items())))


class TestExitContract:
    def test_mutated_inputs_keep_the_contract(self):
        found, codes = fuzz(250)
        assert not found, found[:5]
        # the slice reaches every exit: valid and invalid files, proofs
        # found and not, normal forms and exhausted fuel
        assert {key for key in codes} >= {
            ("check", 0), ("check", 1), ("prove", 0), ("prove", 1),
            ("prove", 2), ("run", 0), ("run", 1), ("run", 2)}
