"""Witness search, witness checking, and failure reporting."""

import itertools
import json
import math
from pathlib import Path

import pytest

from helpers import LIST_SYSTEM, blowup_system
from lcstrs import prover
from lcstrs.horpo import LEX, HorpoParams, Mul
from lcstrs.prover import (
    FailureReport, ProverConfig, RuleFailure, Witness, check_witness,
    find_witness,
)
from lcstrs.solver import Solver
from lcstrs.syntax import parse_system, print_rule

SYSTEMS = Path(__file__).resolve().parent.parent / "systems"

LOOP = "fun f : Int -> Int\nrule f x -> f x [true]\n"
PLANTED = ("fun g : Int -> Int\nfun h : Int -> Int\n"
           "rule g x -> h x [true]\nrule h x -> x + 0 [true]\n")
# swapping arguments defeats the left-to-right comparison but not the
# multiset one
SWAP = ("fun pair : Int -> Int -> Int\nfun a : Int\n"
        "rule pair x y -> pair y (x - 1) [x > 0 /\\ y > x]\n")
# the first rule orients at once; the second rule then wishes for g > h
QUERY_CAP = ("fun g : Int -> Int\nfun h : Int -> Int\n"
             "rule g x -> g (x - 1) [x > 0]\n"
             "rule g x -> h x [x <= 0]\n")
# x !> y needs bound -3 here: descent stays above -2 but not above 0
DOWN = "fun down : Int -> Int\nrule down x -> down (x - 1) [x > -2]\n"
# Every search reads the statuses of a and c, first and third in `defined`
# order, and none reads b's. Rule 1 holds under lex only; rule 3 never
# holds. The searches for a = lex fail after two attempts, so the walk must
# skip the tuples (lex, mul(3), lex), (lex, mul(2), lex) and so on: a
# non-contiguous set in product order. The searches for a = mul(2) fail in
# one attempt, so crediting them two would change the count.
NONADJACENT = """\
fun a : Int -> Int -> Int
fun b : Int -> Int -> Int -> Int
fun c : Int -> Int -> Int
rule a x y -> a (x - 1) x [x > 0]
rule b x y z -> c x y [true]
rule c x y -> c y x [true]
"""
# h's rule holds under no status; the other rules orient without reading
# any status, and h is the last of the ten defined symbols
WIDE = ("".join(f"fun f{i} : Int -> Int -> Int\n" for i in range(9))
        + "fun h : Int -> Int -> Int\n"
        + "".join(f"rule f{i} x y -> x [true]\n" for i in range(9))
        + "rule h x y -> h (x + 1) y [true]\n")


def symbols(system, *names):
    return tuple(system.signature.lookup(n)[0] for n in names)


class Clock:
    """Stands in for `time.monotonic`: reads 0 for its first
    `expires_after` reads, then past every deadline."""

    def __init__(self, expires_after=math.inf):
        self.expires_after = expires_after
        self.reads = 0

    def __call__(self) -> float:
        self.reads += 1
        return 0.0 if self.reads <= self.expires_after else math.inf


class TestFindWitness:
    def test_factorial(self, fact_system):
        witness = find_witness(fact_system)
        assert isinstance(witness, Witness)
        init, fact, comp, exit_ = symbols(fact_system, "init", "fact",
                                          "comp", "exit")
        params = witness.params
        assert params.prec_gt(init, fact)
        assert params.prec_gt(fact, comp)
        assert params.prec_gt(init, exit_)
        assert params.status_of(fact) == LEX
        assert len(witness.derivations) == len(fact_system.rules)

    def test_found_witness_passes_check(self, fact_system):
        witness = find_witness(fact_system)
        assert check_witness(witness, fact_system).ok

    def test_empty_rule_set(self):
        system = parse_system("fun a : Int\n")
        witness = find_witness(system)
        assert isinstance(witness, Witness)
        assert witness.params.edges == frozenset()
        assert check_witness(witness, system).ok

    def test_loop_fails_with_report(self):
        system = parse_system(LOOP)
        report = find_witness(system)
        assert isinstance(report, FailureReport)
        assert not report.gave_up  # the space is exhausted, nothing undecided
        assert report.failures and report.failures[0].index == 1
        assert report.failures[0].deepest is not None
        assert "nontermination" not in report.to_text()

    def test_planted_witness_is_found(self):
        # if checking accepts some assignment in the space, search succeeds
        system = parse_system(PLANTED)
        g, h = symbols(system, "g", "h")
        planted = Witness(HorpoParams([(g, h)], {}, 0), ())
        replayed = check_witness(planted, system)
        assert replayed.ok
        found = find_witness(system)
        assert isinstance(found, Witness)
        assert found.params.prec_gt(g, h)

    def test_multiset_status_found_when_lex_fails(self):
        system = parse_system(SWAP)
        report_or_witness = find_witness(system)
        assert isinstance(report_or_witness, Witness)
        (pair,) = symbols(system, "pair")
        assert report_or_witness.params.status_of(pair) == Mul(2)

    def test_determinism(self, fact_system):
        a = find_witness(fact_system)
        b = find_witness(fact_system)
        assert json.dumps(a.to_dict()) == json.dumps(b.to_dict())

    def test_higher_order_iteration_example(self):
        system = parse_system((SYSTEMS / "iter.lcstrs").read_text())
        witness = find_witness(system)
        assert isinstance(witness, Witness)
        assert witness.params.edges == frozenset()  # subterm cases suffice
        assert check_witness(witness, system).ok

    def test_budget_gives_up_cleanly(self, fact_system):
        config = ProverConfig(timeout=0.0)
        report = find_witness(fact_system, config)
        assert isinstance(report, FailureReport)
        assert report.gave_up
        assert "gave up" in report.message

    def test_query_cap_gives_up_cleanly(self, monkeypatch):
        # the deadline passes after the first attempt and stops the retry
        # with g > h; the clock is read when the budget starts and at each
        # precedence node
        system = parse_system(QUERY_CAP)
        assert isinstance(find_witness(system), Witness)
        clock = Clock(expires_after=2)
        monkeypatch.setattr(prover.time, "monotonic", clock)
        report = find_witness(system)
        assert isinstance(report, FailureReport)
        assert report.gave_up
        assert report.searched == 1 and clock.reads == 3
        assert [f.index for f in report.failures] == [2]

    def test_deadline_stops_a_long_run_of_skips(self, monkeypatch):
        # WIDE's two searches read only h's status, the last position, so
        # every other tuple is skipped at a leaf: a run of skips as long as
        # the product. A deadline passing during that run stops the walk.
        system = parse_system(WIDE)
        expected = find_witness(system)
        assert isinstance(expected, FailureReport) and not expected.gave_up
        assert expected.searched == 2 ** 10
        clock = Clock()
        searched = []
        search = prover._search_precedence

        def recording(*args):
            outcome = search(*args)
            searched.append(clock.reads)
            return outcome

        monkeypatch.setattr(prover.time, "monotonic", clock)
        monkeypatch.setattr(prover, "_search_precedence", recording)
        assert find_witness(system).to_dict() == expected.to_dict()
        assert len(searched) == 2
        # one clock read per skip
        assert clock.reads == searched[-1] + 2 ** 10 - 2
        clock = Clock(expires_after=searched[-1] + 5)
        monkeypatch.setattr(prover.time, "monotonic", clock)
        report = find_witness(system)
        assert isinstance(report, FailureReport) and report.gave_up
        assert clock.reads == searched[-1] + 6
        assert report.searched == 2 + 5
        assert report.failures == expected.failures

    def test_expired_budget_stays_expired(self, monkeypatch):
        clock = Clock(expires_after=1)
        monkeypatch.setattr(prover.time, "monotonic", clock)
        budget = prover._Budget(60.0)
        assert budget.exceeded() and budget.expired
        assert budget.exceeded() and clock.reads == 2

    def test_bound_list_is_searched(self):
        system = parse_system(DOWN)
        assert isinstance(find_witness(system), FailureReport)
        witness = find_witness(system, ProverConfig(bounds=(0, -3)))
        assert isinstance(witness, Witness)
        assert witness.params.bound == -3


class TestCheckWitness:
    def test_handpicked_witness(self, fact_system):
        init, fact, comp, exit_ = symbols(fact_system, "init", "fact",
                                          "comp", "exit")
        params = HorpoParams([(init, fact), (fact, comp), (init, exit_)],
                             {fact: LEX}, 0)
        result = check_witness(Witness(params, ()), fact_system)
        assert result.ok, result.diagnostics

    def test_multiset_status_on_fact_fails(self, fact_system):
        init, fact, comp, exit_ = symbols(fact_system, "init", "fact",
                                          "comp", "exit")
        params = HorpoParams([(init, fact), (fact, comp), (init, exit_)],
                             {fact: Mul(2)}, 0)
        result = check_witness(Witness(params, ()), fact_system)
        assert not result.ok
        assert any("rule 4" in d for d in result.diagnostics)

    def test_missing_edge_fails_on_rule_one(self, fact_system):
        init, fact, comp = symbols(fact_system, "init", "fact", "comp")
        params = HorpoParams([(init, fact), (fact, comp)], {fact: LEX}, 0)
        result = check_witness(Witness(params, ()), fact_system)
        assert not result.ok
        assert any("rule 1" in d for d in result.diagnostics)


class TestWitnessOutput:
    def test_json_shape(self, fact_system):
        witness = find_witness(fact_system)
        data = witness.to_dict()
        assert data["version"] == 1
        assert data["bound"] == 0
        assert ["init", "fact"] in data["precedence"]
        assert data["status"]["fact"] == "lex"
        assert len(data["rules"]) == 4
        assert data["rules"][3]["derivation"]["relation"] == "gt"
        json.loads(json.dumps(witness.to_dict()))  # serializable

    def test_text_output(self, fact_system):
        witness = find_witness(fact_system)
        text = witness.to_text()
        assert "precedence:" in text
        assert "init > fact" in text
        assert "rule 4" in text

    def test_failure_report_json(self):
        system = parse_system(LOOP)
        report = find_witness(system)
        data = report.to_dict()
        assert data["gave_up"] is False
        assert data["rules"][0]["index"] == 1


def exhaustive_find_witness(system, config):
    """Reference for `find_witness`: `_search_precedence` on every tuple of
    the status product, in order, with no skipping, for each distinct
    bound."""
    defined = system.defined_symbols()
    budget = prover._Budget(config.timeout)
    for bound in dict.fromkeys(config.bounds):
        solver = Solver(smt_command=config.smt_command, bound=bound)
        for combo in itertools.product(
                *(prover._status_options(f) for f in defined)):
            outcome = prover._search_precedence(
                system, dict(zip(defined, combo)), bound, solver, budget)
            if isinstance(outcome, Witness):
                return outcome
            if budget.expired:
                break
        if budget.expired:
            break
    failures = ()
    gave_up = budget.expired
    if budget.failure is not None:
        index, engine = budget.failure
        deepest = engine.deepest_failure
        failures = (RuleFailure(index + 1, print_rule(system.rules[index]),
                                deepest[1] if deepest else None,
                                tuple(engine.unknowns)),)
        gave_up = gave_up or bool(engine.unknowns)
    return FailureReport(failures, budget.attempts, gave_up)


DIFFERENTIAL_CASES = {
    **{f"blowup_k{k}": (blowup_system(k), ProverConfig()) for k in range(2, 6)},
    "list": (LIST_SYSTEM, ProverConfig()),
    **{f"systems_{path.stem}": (path.read_text(), ProverConfig())
       for path in sorted(SYSTEMS.glob("*.lcstrs"))},
    "fact_bounds_0_1": ((SYSTEMS / "fact.lcstrs").read_text(),
                        ProverConfig(bounds=(0, 1))),
    "loop": (LOOP, ProverConfig()),
    "planted": (PLANTED, ProverConfig()),
    "swap": (SWAP, ProverConfig()),
    "query_cap": (QUERY_CAP, ProverConfig()),
    "down": (DOWN, ProverConfig()),
    "down_bounds_0_-3": (DOWN, ProverConfig(bounds=(0, -3))),
    "empty_rules": ("fun a : Int\n", ProverConfig()),
    "nonadjacent": (NONADJACENT, ProverConfig()),
    "nonadjacent_bounds_0_1": (NONADJACENT, ProverConfig(bounds=(0, 1))),
    "nonadjacent_bounds_0_1_0": (NONADJACENT, ProverConfig(bounds=(0, 1, 0))),
    "loop_no_bounds": (LOOP, ProverConfig(bounds=())),
    "empty_rules_no_bounds": ("fun a : Int\n", ProverConfig(bounds=())),
}


class TestPrunedStatusWalk:
    @pytest.mark.parametrize("name", sorted(DIFFERENTIAL_CASES))
    def test_agrees_with_exhaustive_product(self, name):
        text, config = DIFFERENTIAL_CASES[name]
        system = parse_system(text)
        expected = exhaustive_find_witness(system, config)
        got = find_witness(system, config)
        assert type(got) is type(expected)
        assert got.to_dict() == expected.to_dict()
