"""Golden `check` and `prove` outputs and `run` traces.

The stdout and exit code of `lcstrs prove <file> --format json` on the
shipped systems, a List map/fold/range system and status-blowup systems
must stay byte for byte the same: the same witnesses, the same failure
reports. A change to the core that alters the iteration order of a set or
dict of terms shows up here. The k=3 output was recorded before the term
core's hashing was reworked; the k=5 output and the text-mode outputs were
recorded before the status product was pruned, and pin its attempt counts.
The `--bounds 0,1,-1` outputs were recorded before the search state moved
into one object, and pin the attempts summed over several bounds. The
`chain` and `cube` outputs, the `iter` and `empty` text outputs and the
`check` outputs were recorded before text output became a view of the JSON
payload: `chain` pins a precedence edge that the JSON lists and the text
leaves out as implied, and `cube` two undecided entailments. The wide
multiset cases (`MULTISET_CASES`) were recorded before the multiset search
became a pruned depth-first search. The `curried` outputs, a proof with
`geq:app` nodes on partial applications and runs whose first step is at a
proper prefix of an application, were recorded before applications became
flat, `App(head, args)`. The last
test holds the text output of every golden call, and of calls on seeded
random systems, to `_text` of the JSON output.
"""

import json
import random
from pathlib import Path

import pytest

from helpers import (
    LIST_SYSTEM, blowup_system, gen_ground_term, gen_system, repeated_system,
    reversal_system, system_text,
)
from lcstrs.cli import _text, main
from lcstrs.syntax import print_term

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
    "chain": ("fun f : Int -> Int\nfun g : Int -> Int\nfun h : Int -> Int\n"
              "rule f x -> h x [true]\nrule g x -> h x [true]\n"
              "rule f x -> g x [true]\n", 0),
    # nonlinear: undecided without an SMT solver
    "cube": ("fun f : Int -> Int\n"
             "rule f x -> f (x - 1) [x * x * x > 8]\n", 2),
    # rules of arrow type and partial applications: the witness compares
    # `k x >= k (x + 0)` by `geq:app`, and `twice g` is a redex that is a
    # proper prefix of the application it heads
    "curried": ("fun twice : (Int -> Int) -> Int -> Int\n"
                "fun comp2 : (Int -> Int) -> (Int -> Int) -> Int -> Int\n"
                "fun f : Int -> Int -> Int\n"
                "fun k : Int -> Int -> Int\n"
                "rule twice g -> comp2 g g [true]\n"
                "rule comp2 g h x -> g (h x) [true]\n"
                "rule f (k x z) y -> f (k (x + 0) z) (y - 1) "
                "[y > 0 /\\ x = x]\n", 0),
}
# Wide multiset comparisons, recorded before the multiset search became a
# pruned depth-first search: their `deepest_failure`, undecided entailments
# and attempt counts depend on the order the search asks its comparisons
MULTISET_CASES = {
    **{f"reversal_n{n}": (reversal_system(n), 2) for n in range(3, 7)},
    **{f"repeated_n{n}": (repeated_system(n), 2) for n in range(4, 7)},
    **{f"reversal_eq_n{n}": (reversal_system(n, constrained=True), 2)
       for n in range(4, 7)},
    # the arity-4 systems of the first cycle of the benchmark's `entail`
    # workload on seed 1, four terminating and four not
    "entail_a4_t1": ("fun hkmm : Int -> Int -> Int -> Int -> Int\n"
                     "rule hkmm g1 g2 g3 g4 -> hkmm (g1 - 1) g2 g3 g4 "
                     "[g3 <= 7 /\\ g4 <= 4 /\\ g1 > 1]\n", 0),
    "entail_a4_t2": ("fun hlll : Int -> Int -> Int -> Int -> Int\n"
                     "rule hlll b1 b2 b3 b4 -> hlll b1 b2 (b3 - 2) b4 "
                     "[b2 <= 9 /\\ b3 > 2]\n", 0),
    "entail_a4_t3": ("fun hggg : Int -> Int -> Int -> Int -> Int\n"
                     "rule hggg e1 e2 e3 e4 -> hggg e1 (e2 - 1) e3 e4 "
                     "[e2 > 3 /\\ e4 <= 5]\n", 0),
    "entail_a4_t4": ("fun hctc : Int -> Int -> Int -> Int -> Int\n"
                     "rule hctc e1 e2 e3 e4 -> hctc e1 e2 (e3 - 2) e4 "
                     "[e4 * e1 > 2 /\\ e3 > 3]\n", 0),
    "entail_a4_n1": ("fun hjwc : Int -> Int -> Int -> Int -> Int\n"
                     "rule hjwc e1 e2 e3 e4 -> hjwc e1 e2 (e3 + 1) e4 "
                     "[e1 <= 4 /\\ e2 <= 6 /\\ e3 >= 2]\n", 2),
    "entail_a4_n2": ("fun hlpd : Int -> Int -> Int -> Int -> Int\n"
                     "rule hlpd e1 e2 e3 e4 -> hlpd e1 e2 (e3 + 1) e4 "
                     "[e2 <= 9 /\\ e3 >= 2]\n", 2),
    "entail_a4_n3": ("fun hnfl : Int -> Int -> Int -> Int -> Int\n"
                     "rule hnfl a1 a2 a3 a4 -> hnfl a1 a2 a3 (a4 + 1) "
                     "[a2 <= 5 /\\ a4 >= -3 /\\ a3 <= 9]\n", 2),
    "entail_a4_n4": ("fun htmf : Int -> Int -> Int -> Int -> Int\n"
                     "rule htmf a1 a2 a3 a4 -> htmf a1 (a2 + 1) a3 a4 "
                     "[a2 >= 0 /\\ a3 * a1 > 3]\n", 2),
    # a rotation only mul(3) orients: its witness has rpo:mul nodes
    "rotate3": ("fun g : Int -> Int -> Int -> Int\n"
                "rule g x y z -> g y z (x - 1) [x > 0]\n", 0),
}
CASES.update(MULTISET_CASES)
# the cases whose text-mode `prove` output is pinned as well
PROVE_TEXT_CASES = ("fact", "iter", "loop", "empty", "list", "blowup_k3",
                    "chain", "cube", *MULTISET_CASES)
# the cases whose `prove --bounds 0,1,-1 --format json` output is pinned
PROVE_BOUNDS_CASES = ("loop", "list")


def prove_output(name: str, fmt: str, directory: Path, monkeypatch,
                 capsys, extra: tuple[str, ...] = ()) -> tuple[int, str, str]:
    """Run `prove NAME.lcstrs --format FMT` from inside `directory`, so
    the file path in the payload does not depend on where tests run."""
    (directory / f"{name}.lcstrs").write_text(CASES[name][0])
    monkeypatch.chdir(directory)
    code = main(["prove", f"{name}.lcstrs", "--format", fmt, *extra])
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


@pytest.mark.parametrize("name", PROVE_BOUNDS_CASES)
def test_prove_bounds_json_is_golden(name, tmp_path, monkeypatch, capsys):
    code, out, err = prove_output(name, "json", tmp_path, monkeypatch, capsys,
                                  ("--bounds", "0,1,-1"))
    assert code == CASES[name][1]
    assert err == ""
    assert out == (GOLDEN / f"prove_{name}_bounds_0_1_-1.json").read_text()


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
    # the first step is at the prefix `twice ([+] 1)`, position
    # [0, 1, 0, 1, 0, 1, 0], inside a partial application `k ..`
    RUN_CASES[f"curried_{_strategy}"] = (
        "curried", "f (k (twice ([+] 1) 0 + 0) 5) 2",
        ["--strategy", _strategy], 0)


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


# the cases whose `check` output is pinned, text and json
CHECK_CASES = ("fact", "list")


@pytest.mark.parametrize("fmt", ["json", "txt"])
@pytest.mark.parametrize("name", CHECK_CASES)
def test_check_is_golden(name, fmt, tmp_path, monkeypatch, capsys):
    (tmp_path / f"{name}.lcstrs").write_text(CASES[name][0])
    monkeypatch.chdir(tmp_path)
    code = main(["check", f"{name}.lcstrs", "--format",
                 "text" if fmt == "txt" else "json"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    assert captured.out == (GOLDEN / f"check_{name}.{fmt}").read_text()


def view_calls() -> list:
    """(system name, system text, command and its options) of every golden
    call, then of `check`, `run` and `prove` on seeded random systems."""
    calls = [pytest.param(name, CASES[name][0], [command],
                          id=f"{command}-{name}")
             for name in sorted(CASES) for command in ("check", "prove")]
    calls += [pytest.param(name, CASES[name][0], ["run", "--term", term,
                                                  *extra], id=f"run-{case}")
              for case, (name, term, extra, _) in RUN_CASES.items()]
    for seed in range(12):
        rng = random.Random(seed)
        system = gen_system(rng)
        term = gen_ground_term(rng, system.signature,
                               system.rules[0].lhs.type, 3)
        text = system_text(system)
        argvs = {"check": ["check"], "prove": ["prove"],
                 "run": ["run", "--term", print_term(term), "--fuel", "50"]}
        calls += [pytest.param(f"gen{seed}", text, argv,
                               id=f"{command}-gen{seed}")
                  for command, argv in argvs.items()]
    return calls


@pytest.mark.parametrize("name, system, argv", view_calls())
def test_text_is_a_view_of_the_json(name, system, argv, tmp_path,
                                    monkeypatch, capsys):
    # the text is `_text` of the JSON payload, line for line
    (tmp_path / f"{name}.lcstrs").write_text(system)
    monkeypatch.chdir(tmp_path)
    command, *options = argv
    outputs = {}
    for fmt in ("text", "json"):
        code = main([command, f"{name}.lcstrs", *options, "--format", fmt])
        outputs[fmt] = code, capsys.readouterr().out
    assert outputs["text"][0] == outputs["json"][0]
    assert outputs["text"][1] == _text(json.loads(outputs["json"][1])) + "\n"
