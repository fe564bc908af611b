"""Golden `prove` outputs and `run` traces.

The stdout and exit code of `lcstrs prove <file> --format json` on the
shipped systems, a List map/fold/range system and status-blowup systems
must stay byte for byte the same: the same witnesses, the same failure
reports. A change to the core that alters the iteration order of a set or
dict of terms shows up here. The k=3 output was recorded before the term
core's hashing was reworked; the k=5 output and the text-mode outputs were
recorded before the status product was pruned, and pin its attempt counts.
"""

from pathlib import Path

import pytest

from helpers import LIST_SYSTEM, blowup_system
from lcstrs.cli import main

TESTS = Path(__file__).resolve().parent
SYSTEMS = TESTS.parent / "systems"
GOLDEN = TESTS / "golden"

# name -> (system text, exit code recorded with the output)
CASES = {
    "fact": ((SYSTEMS / "fact.lcstrs").read_text(), 0),
    "iter": ((SYSTEMS / "iter.lcstrs").read_text(), 0),
    "loop": ((SYSTEMS / "loop.lcstrs").read_text(), 2),
    "empty": ((SYSTEMS / "empty.lcstrs").read_text(), 0),
    "list": (LIST_SYSTEM, 2),
    "blowup_k3": (blowup_system(3), 0),
    "blowup_k5": (blowup_system(5), 0),
}
# the cases whose text-mode `prove` output is pinned as well
PROVE_TEXT_CASES = ("fact", "loop", "list", "blowup_k3")


def prove_output(name: str, fmt: str, directory: Path, monkeypatch,
                 capsys) -> tuple[int, str, str]:
    """Run `prove NAME.lcstrs --format FMT` from inside `directory`, so
    the file path in the payload does not depend on where tests run."""
    (directory / f"{name}.lcstrs").write_text(CASES[name][0])
    monkeypatch.chdir(directory)
    code = main(["prove", f"{name}.lcstrs", "--format", fmt])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("name", sorted(CASES))
def test_prove_json_is_golden(name, tmp_path, monkeypatch, capsys):
    code, out, _ = prove_output(name, "json", tmp_path, monkeypatch, capsys)
    assert code == CASES[name][1]
    assert out == (GOLDEN / f"prove_{name}.json").read_text()


@pytest.mark.parametrize("name", PROVE_TEXT_CASES)
def test_prove_text_is_golden(name, tmp_path, monkeypatch, capsys):
    code, out, err = prove_output(name, "text", tmp_path, monkeypatch, capsys)
    assert code == CASES[name][1]
    assert err == ""
    assert out == (GOLDEN / f"prove_{name}.txt").read_text()


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
