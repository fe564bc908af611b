"""The CLI's JSON writer: `cli._json(x)` is `json.dumps(x, indent=2)`, byte
for byte, on every golden, on the payloads of seeded random systems and on
edge cases; every `--format json` document is written by it; and it nests
no less deeply than the json module's encoder."""

import enum
import json
import random
from collections import OrderedDict
from pathlib import Path

import pytest

from helpers import gen_ground_term, gen_system, system_text
from lcstrs import cli
from lcstrs.cli import _json, main
from lcstrs.syntax import print_term

TESTS = Path(__file__).resolve().parent
SYSTEMS = TESTS.parent / "systems"
GOLDENS = sorted(path for pattern in ("check_*.json", "run_*.json",
                                      "prove_*.json")
                 for path in (TESTS / "golden").glob(pattern))


@pytest.mark.parametrize("path", GOLDENS, ids=lambda path: path.name)
def test_every_golden_reads_back_byte_for_byte(path):
    text = path.read_text()
    assert _json(json.loads(text)) + "\n" == text


STRINGS = ['say "hi"', "back\\slash", "two\nlines", "tab\there",
           "bell\x07 nul\x00 esc\x1b del\x7f", "café", "\U0001d4b3 x",
           "", "/tmp/dir name/fé.lcstrs"]
EDGES = [
    {}, [], [[]], {"a": {}}, [{}, []],
    {"a": [[]], "b": {"c": {}}, "d": [{}, []], "e": []},
    [True, 1, False, 0, None],
    {"ok": True, "one": 1, "no": False, "zero": 0, "none": None},
    [-1, -7, 10 ** 40, -(10 ** 40) + 1], 1.5, None, True, 0, "x",
    [0.1, -2.5e-300, 1e300], {"f": 1.0},
    STRINGS, {s: s for s in STRINGS}, {"nested": [{"deep": STRINGS}]},
    # no payload holds these; they take the writer's slow branches
    (1, ("a", ())), OrderedDict(b=[1], a={}), [enum.IntEnum("E", "A B").B],
]


@pytest.mark.parametrize("value", EDGES, ids=range(len(EDGES)))
def test_edge_cases(value):
    assert _json(value) == json.dumps(value, indent=2)
    assert _json([value, {"k": value}]) == json.dumps([value, {"k": value}],
                                                      indent=2)


def recorded_payloads(argv, monkeypatch, capsys) -> list:
    """The payloads `main(argv)` hands to the writer."""
    payloads = []

    def recording(obj):
        payloads.append(obj)
        return _json(obj)

    monkeypatch.setattr(cli, "_json", recording)
    main(argv)
    capsys.readouterr()
    return payloads


@pytest.mark.parametrize("seed", range(12))
def test_payloads_of_random_systems(seed, tmp_path, monkeypatch, capsys):
    rng = random.Random(seed)
    system = gen_system(rng)
    term = gen_ground_term(rng, system.signature, system.rules[0].lhs.type, 3)
    path = tmp_path / f"gen{seed}.lcstrs"
    path.write_text(system_text(system))
    for argv in (["check"], ["prove"],
                 ["run", "--term", print_term(term), "--fuel", "50"]):
        command, *options = argv
        payloads = recorded_payloads(
            [command, str(path), *options, "--format", "json"],
            monkeypatch, capsys)
        assert [payload["command"] for payload in payloads] == [command]
        assert _json(payloads[0]) == json.dumps(payloads[0], indent=2)


def test_no_document_goes_through_the_pure_python_encoder(
        tmp_path, monkeypatch, capsys):
    # with `indent` set, json.dumps encodes in pure Python: no `--format
    # json` document may take that path
    dumps = json.dumps

    def c_only(obj, **kwargs):
        if kwargs.get("indent") is not None:
            raise AssertionError("json.dumps called with indent")
        return dumps(obj, **kwargs)

    bad = tmp_path / "bad.lcstrs"
    bad.write_text("fun a : Int\nrule 0 -> 1 [true]\n")
    fact, loop = str(SYSTEMS / "fact.lcstrs"), str(SYSTEMS / "loop.lcstrs")
    monkeypatch.setattr(cli.json, "dumps", c_only)
    calls = [(["check", fact], 0), (["run", fact, "--term", "fact 3 exit"], 0),
             (["prove", fact], 0), (["prove", loop], 2),
             (["check", str(bad)], 1)]
    for argv, code in calls:
        assert main([*argv, "--format", "json"]) == code
        assert json.loads(capsys.readouterr().out)["command"] == argv[0]


def derivation(depth: int) -> dict:
    node = {"case": "rpo:base", "lhs": "x", "relation": "geq"}
    for level in range(depth - 1):
        node = {"case": "rpo:precedence", "lhs": f"f{level} x",
                "relation": "gt", "children": [node]}
    return node


def test_deep_derivation():
    # the writer recurses once per container level, as the json module's
    # encoder does; 400 derivation levels are 800 containers
    payload = {"command": "prove", "witness": {"rules": [
        {"index": 1, "derivation": derivation(400)}]}}
    assert _json(payload) == json.dumps(payload, indent=2)
