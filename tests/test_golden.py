"""Golden `prove --format json` outputs and `run` traces.

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


# Golden `run` traces, text and json: name -> (system, term, extra
# arguments, exit code recorded with the output). They were recorded
# before `normalize` became an incremental walk, and pin every step's
# position, kind and term, the step count and the normal form.
RUN_CASES = {
    "fact_6": ("fact", "fact 6 exit", [], 0),
    "iter_12": ("iter", "iter 12 ([+] 3) 5", [], 0),
    "loop_fuel_9": ("loop", "f 7", ["--fuel", "9"], 2),
    "fact_init_inputs_3": ("fact", "init", ["--inputs", "3"], 0),
}
LIST_TERMS = {
    "fold_map_range": "fold [+] 1 (map ([*] 2) (range 1 4))",
    "map_range": "map ([+] 3) (range 2 5)",
    "fold_range": "fold [*] 2 (range 1 4)",
}
for _strategy in ("innermost", "outermost"):
    for _name, _term in LIST_TERMS.items():
        RUN_CASES[f"list_{_name}_{_strategy}"] = (
            "list", _term, ["--strategy", _strategy], 0)


def run_output(case: str, fmt: str, directory: Path, monkeypatch,
               capsys) -> tuple[int, str, str]:
    """Run `run NAME.lcstrs --term ... --format FMT` from inside
    `directory`, so the file path in the payload does not depend on where
    tests run."""
    name, term, extra, _ = RUN_CASES[case]
    (directory / f"{name}.lcstrs").write_text(CASES[name][0])
    monkeypatch.chdir(directory)
    code = main(["run", f"{name}.lcstrs", "--term", term, "--format", fmt]
                + extra)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("fmt", ["json", "txt"])
@pytest.mark.parametrize("case", sorted(RUN_CASES))
def test_run_trace_is_golden(case, fmt, tmp_path, monkeypatch, capsys):
    code, out, err = run_output(case, "text" if fmt == "txt" else "json",
                                tmp_path, monkeypatch, capsys)
    assert code == RUN_CASES[case][3]
    assert err == ""
    assert out == (GOLDEN / f"run_{case}.{fmt}").read_text()
