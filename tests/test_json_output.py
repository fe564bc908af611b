"""The CLI's JSON writers: `cli._json(x)` is `json.dumps(x, indent=2)`, byte
for byte, on every golden, on the payloads of seeded random systems and on
edge cases; every `--format json` document is written by it, except the
`steps` of a `run` document, which `cli._run_json` writes in one pass and
which must read back byte for byte too; and `_json` nests no less deeply
than the json module's encoder."""

import enum
import json
import random
from collections import OrderedDict
from pathlib import Path

import pytest

from helpers import LIST_SYSTEM, gen_ground_term, gen_system, system_text
from lcstrs import cli
from lcstrs.cli import _json, main
from lcstrs.rewrite import TRACE_CAP, InputSource, normalize
from lcstrs.syntax import parse_system, parse_term, print_term

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


def recorded_payloads(argv, monkeypatch, capsys) -> tuple[list, str]:
    """The payloads `main(argv)` hands to the writer, and what it printed."""
    payloads = []

    def recording(obj):
        payloads.append(obj)
        return _json(obj)

    monkeypatch.setattr(cli, "_json", recording)
    main(argv)
    return payloads, capsys.readouterr().out


def assert_same_lines(got: str, expected: str) -> None:
    """`got == expected`, reported at the first line that differs: a
    trace runs to 10000 steps, too long for a whole-text diff."""
    if got != expected:
        pairs = zip(got.splitlines(), expected.splitlines())
        line = next((i for i, (a, b) in enumerate(pairs, 1) if a != b),
                    None)
        pytest.fail(f"the texts differ at line {line}" if line else
                    "one text is a prefix of the other")


def assert_canonical(document: str) -> None:
    assert_same_lines(document,
                      json.dumps(json.loads(document), indent=2) + "\n")


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
        payloads, document = recorded_payloads(
            [command, str(path), *options, "--format", "json"],
            monkeypatch, capsys)
        assert [payload["command"] for payload in payloads] == [command]
        assert _json(payloads[0]) == json.dumps(payloads[0], indent=2)
        assert_canonical(document)


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


# ---------------------------------------------------------------------------
# The steps writer of `run`


def reference_run_document(path, term: str, strategy: str = "innermost",
                           fuel: int = 10000, inputs: tuple = ()) -> str:
    """The `run --format json` document, as `json.dumps` writes the whole
    payload with each step a dict and each position a list."""
    system = parse_system(Path(path).read_text(encoding="utf-8"))
    start = parse_term(term, system)
    result = normalize(start, system, strategy=strategy, fuel=fuel,
                       inputs=InputSource(list(inputs)))
    return json.dumps({
        "command": "run", "file": str(path), "ok": not result.exhausted,
        "start": print_term(start), "strategy": strategy, "fuel": fuel,
        "result": print_term(result.term),
        "normal_form": not result.exhausted,
        "total_steps": result.total_steps,
        "steps": [{"position": list(s.position), "kind": s.kind,
                   "term": print_term(s.result)} for s in result.steps],
    }, indent=2) + "\n"


def run_document(capsys, path, term: str, strategy: str = "innermost",
                 fuel: int = 10000, inputs: tuple = ()) -> str:
    """The document `run` prints, checked canonical and equal to the
    reference."""
    argv = ["run", str(path), "--term", term, "--strategy", strategy,
            "--fuel", str(fuel), "--format", "json"]
    if inputs:
        argv += ["--inputs", ",".join(map(str, inputs))]
    main(argv)
    document = capsys.readouterr().out
    assert_canonical(document)
    assert_same_lines(document, reference_run_document(path, term, strategy,
                                                       fuel, inputs))
    return document


@pytest.fixture(scope="module")
def list_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("list") / "list.lcstrs"
    path.write_text(LIST_SYSTEM)
    return path


RUNS = {
    "no-fuel": ("fact", "fact 3 exit", "innermost", 0, ()),
    "normal-start": ("fact", "exit 3", "innermost", 10000, ()),
    "loop-out-of-fuel": ("loop", "f 7", "innermost", 30, ()),
    "inputs": ("fact", "init", "innermost", 10000, (4,)),
    "fact-outermost": ("fact", "fact 5 exit", "outermost", 10000, ()),
    "map-outermost": ("list", "map ([+] 3) (range 2 21)", "outermost",
                      10000, ()),
    "fold-outermost": ("list", "fold [+] 4 (map ([*] 2) (range 1 24))",
                       "outermost", 10000, ()),
    "fold-innermost": ("list", "fold [*] 2 (range 3 14)", "innermost",
                       10000, ()),
}


@pytest.mark.parametrize("name", RUNS)
def test_run_documents(name, list_file, capsys):
    system, term, strategy, fuel, inputs = RUNS[name]
    path = list_file if system == "list" else SYSTEMS / f"{system}.lcstrs"
    document = run_document(capsys, path, term, strategy, fuel, inputs)
    steps = json.loads(document)["steps"]
    assert bool(steps) == (name not in ("no-fuel", "normal-start"))


def test_run_document_past_the_trace_cap(capsys):
    document = run_document(capsys, SYSTEMS / "iter.lcstrs",
                            "iter 3400 ([+] 1) 0", fuel=20000)
    payload = json.loads(document)
    assert payload["total_steps"] == 10201
    assert len(payload["steps"]) == TRACE_CAP == 10000


def test_run_document_of_an_awkward_path(tmp_path, capsys):
    # the file name is a JSON string with escapes and a non-ASCII letter
    path = tmp_path / 'say "hi" \\ café.lcstrs'
    path.write_text((SYSTEMS / "fact.lcstrs").read_text())
    document = run_document(capsys, path, "fact 2 exit")
    assert json.loads(document)["file"] == str(path)
    assert "\\u00e9" in document


@pytest.mark.parametrize("seed", range(12))
def test_run_documents_of_random_systems(seed, tmp_path, capsys):
    # the systems and terms of `test_payloads_of_random_systems`
    rng = random.Random(seed)
    system = gen_system(rng)
    term = gen_ground_term(rng, system.signature, system.rules[0].lhs.type, 3)
    path = tmp_path / f"gen{seed}.lcstrs"
    path.write_text(system_text(system))
    run_document(capsys, path, print_term(term), fuel=50)
