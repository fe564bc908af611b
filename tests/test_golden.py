"""Golden `prove --format json` outputs.

The stdout and exit code of `lcstrs prove <file> --format json` on the
shipped systems, a List map/fold/range system and one status-blowup system
were recorded before the term core's hashing was reworked, and must stay
byte for byte the same: the same witnesses, the same failure reports. A
change to the core that alters the iteration order of a set or dict of
terms shows up here.
"""

from pathlib import Path

import pytest

from lcstrs.cli import main

TESTS = Path(__file__).resolve().parent
SYSTEMS = TESTS.parent / "systems"
GOLDEN = TESTS / "golden"

LIST_SYSTEM = """\
(* user sort List with higher-order map and fold *)
fun nil : List
fun cons : Int -> List -> List
fun map : (Int -> Int) -> List -> List
fun fold : (Int -> Int -> Int) -> Int -> List -> Int
fun range : Int -> Int -> List
rule map f nil -> nil [true]
rule map f (cons x xs) -> cons (f x) (map f xs) [true]
rule fold f a nil -> a [true]
rule fold f a (cons x xs) -> fold f (f a x) xs [true]
rule range i n -> nil [i > n]
rule range i n -> cons i (range (i + 1) n) [i <= n]
"""

# one swap rule that only mul(2) orients, then a chain of three symbols
BLOWUP_K3 = """\
fun g : Int -> Int -> Int
fun h1 : Int -> Int -> Int -> Int
fun h2 : Int -> Int -> Int -> Int
fun h3 : Int -> Int -> Int -> Int
rule g x y -> g y (x - 1) [x > 0]
rule h1 x y z -> h2 x y z [true]
rule h2 x y z -> h3 x y z [true]
rule h3 x y z -> g x y [true]
"""

# name -> (system text, exit code recorded with the output)
CASES = {
    "fact": ((SYSTEMS / "fact.lcstrs").read_text(), 0),
    "iter": ((SYSTEMS / "iter.lcstrs").read_text(), 0),
    "loop": ((SYSTEMS / "loop.lcstrs").read_text(), 2),
    "empty": ((SYSTEMS / "empty.lcstrs").read_text(), 0),
    "list": (LIST_SYSTEM, 2),
    "blowup_k3": (BLOWUP_K3, 0),
}


def prove_json(name: str, text: str, directory: Path, monkeypatch,
               capsys) -> tuple[int, str]:
    """Run `prove NAME.lcstrs --format json` from inside `directory`, so
    the file path in the payload does not depend on where tests run."""
    (directory / f"{name}.lcstrs").write_text(text)
    monkeypatch.chdir(directory)
    code = main(["prove", f"{name}.lcstrs", "--format", "json"])
    return code, capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(CASES))
def test_prove_json_is_golden(name, tmp_path, monkeypatch, capsys):
    text, expected_code = CASES[name]
    code, out = prove_json(name, text, tmp_path, monkeypatch, capsys)
    assert code == expected_code
    assert out == (GOLDEN / f"prove_{name}.json").read_text()
