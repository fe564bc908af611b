"""The cyclic garbage collector's contract with `run` and `main`.

Rewriting builds acyclic terms and leaves no reference cycles, so `main`
runs each command with a generation-0 threshold of `cli.YOUNG_THRESHOLD`
and puts back the thresholds it found however the command ends."""

import gc
from pathlib import Path

import pytest

from lcstrs import cli
from lcstrs.cli import main
from lcstrs.rewrite import normalize
from lcstrs.syntax import parse_system, parse_term

REPO = Path(__file__).resolve().parent.parent
SYSTEMS = REPO / "systems"
LOOP = str(SYSTEMS / "loop.lcstrs")
FACT = str(SYSTEMS / "fact.lcstrs")


@pytest.fixture
def paused_collector():
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def test_normalize_leaves_no_cyclic_garbage(monkeypatch, tmp_path,
                                            paused_collector):
    # the inputs of the first cycle of the benchmark's rewrite workload,
    # seed 1; parsing makes cycles of its own, so it happens first
    monkeypatch.syspath_prepend(str(REPO / "perfbench"))
    from workloads import cycles
    runs = []
    for case in next(cycles("rewrite", 1, str(tmp_path), str(SYSTEMS))):
        args = cli._build_parser().parse_args(case.argv)
        system = parse_system(Path(args.file).read_text())
        runs.append((case.name, parse_term(args.term, system), system,
                     args.strategy, int(args.fuel)))
    assert len(runs) == 13
    gc.collect()
    garbage = {}
    for name, term, system, strategy, fuel in runs:
        result = normalize(term, system, strategy=strategy, fuel=fuel)
        assert result.total_steps > 0
        del result
        garbage[name] = gc.collect()
    assert garbage == dict.fromkeys(garbage, 0)


@pytest.fixture
def thresholds():
    """A distinctive set of thresholds, and the suite's put back after."""
    saved = gc.get_threshold()
    gc.set_threshold(777, 11, 12)
    try:
        yield (777, 11, 12)
    finally:
        gc.set_threshold(*saved)


def test_a_command_runs_with_the_young_threshold(monkeypatch, capsys,
                                                 thresholds):
    seen = []

    def handler(args):
        seen.append(gc.get_threshold())
        return 0

    monkeypatch.setattr(cli, "cmd_check", handler)
    assert main(["check", FACT]) == 0
    assert seen == [(cli.YOUNG_THRESHOLD, 11, 12)] == [(10000, 11, 12)]
    assert gc.get_threshold() == thresholds


def raising(error):
    def handler(args):
        raise error
    return handler


@pytest.mark.parametrize("argv, handler, code", [
    (["check", FACT], None, 0),
    (["check", str(SYSTEMS)], None, 1),          # LcstrsError: a directory
    (["check", FACT], raising(RecursionError), 1),
    (["run", LOOP, "--term", "f 0", "--fuel", "10"], None, 2),
    (["run", LOOP], None, 2),                    # usage: no --term
    (["check", FACT], raising(BrokenPipeError(32, "Broken pipe")), 1),
], ids=["ok", "input-error", "too-deep", "out-of-fuel", "usage",
        "closed-stdout"])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_thresholds_are_put_back(argv, handler, code, fmt, monkeypatch,
                                 capsys, thresholds):
    if handler is not None:
        monkeypatch.setattr(cli, f"cmd_{argv[0]}", handler)
    assert main([*argv, "--format", fmt]) == code
    assert gc.get_threshold() == thresholds


def test_thresholds_set_meanwhile_are_kept(monkeypatch, capsys, thresholds):
    # another caller in the process set its own thresholds while the
    # command ran: they are not overwritten with the ones found at entry
    def handler(args):
        gc.set_threshold(5, 6, 7)
        return 0

    monkeypatch.setattr(cli, "cmd_check", handler)
    assert main(["check", FACT]) == 0
    assert gc.get_threshold() == (5, 6, 7)


def test_nested_calls_put_back_the_outer_thresholds(monkeypatch, capsys,
                                                    thresholds):
    seen = []

    def handler(args):
        seen.append(gc.get_threshold())
        if len(seen) == 1:
            assert main(["check", FACT]) == 0
            seen.append(gc.get_threshold())
        return 0

    monkeypatch.setattr(cli, "cmd_check", handler)
    assert main(["check", FACT]) == 0
    young = (cli.YOUNG_THRESHOLD, 11, 12)
    assert seen == [young, young, young]
    assert gc.get_threshold() == thresholds

