"""Witness search, witness checking, and failure reporting."""

import itertools
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import (
    LIST_SYSTEM, all_read_system, blowup_system, derived_witness, gen_system,
    repeated_system,
)
from lcstrs import horpo, prover
from lcstrs.cli import _text
from lcstrs.core import LcstrsError
from lcstrs.horpo import LEX, Horpo, HorpoParams, Mul
from lcstrs.prover import (
    FailureReport, ProverConfig, Witness, check_witness, find_witness,
)
from lcstrs.solver import Solver
from lcstrs.syntax import parse_system

REPO = Path(__file__).resolve().parent.parent
SYSTEMS = REPO / "systems"

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
# The first attempt misses f > g and s > g, either of which orients rule 1;
# each then misses g > h for rule 2, and rule 3 never orients.
BRANCHING = ("fun s : Int -> Int\nfun f : Int -> Int\n"
             "fun g : Int -> Int\nfun h : Int -> Int\n"
             "rule f (s x) -> g x [true]\nrule g x -> h x [true]\n"
             "rule h x -> h x [true]\n")
# f > g orients rule 1 and g > h rule 2; rule 3 then fails under every
# precedence, in the descent onto its argument
CYCLE = ("fun f : Int -> Int\nfun g : Int -> Int\nfun h : Int -> Int\n"
         "rule f x -> g x [true]\nrule g x -> h x [true]\n"
         "rule h x -> f (x * x) [x * x > 4]\n")
# nonlinear: its two entailments stay undecided without an SMT solver
CUBE = "fun f : Int -> Int\nrule f x -> f (x - 1) [x * x * x > 8]\n"
# under f > g, rule 1 orients past two undecided entailments; rule 2 then
# fails under every precedence
CUBE_THEN_LOOP = ("fun f : Int -> Int\nfun g : Int -> Int\n"
                  "rule f x -> g (x - 1) [x * x * x > 8]\n"
                  "rule g x -> g x [true]\n")
# each rule wants one more edge, so the precedence search grows a chain of
# 120 edges, one attempt per edge
CHAIN = ("".join(f"fun f{i} : Int -> Int\n" for i in range(121))
         + "".join(f"rule f{i} x -> f{i + 1} x [true]\n" for i in range(120)))

# Rule 2 needs p > q. The search for c = lex first orients it under p > q,
# which rule 1 needs under lex; rule 3 holds only under mul(2). The search
# for c = mul(2) reaches rule 2 under no edge, so reusing the record made
# under p > q would be unsound there.
REUSED_ACROSS_TUPLES = """\
fun c : Int -> Int -> Int
fun p : Int -> Int
fun q : Int -> Int
rule c (p x) (q x) -> c (q x) x [true]
rule p x -> q x [true]
rule c x y -> c y (x - 1) [x > 0 /\\ y > x]
"""
# Rule 1 holds under f > h or g > h; rule 2 only under f > h, and rule 3
# only under h > f. The branch g > h reaches rule 2 without the edge its
# record from the branch f > h used; reusing it would orient the loop
# f x -> h x -> f x.
REUSED_ACROSS_BRANCHES = """\
fun f : Int -> Int
fun g : Int -> Int
fun h : Int -> Int
rule f (g x) -> h x [true]
rule f x -> h x [true]
rule h x -> f x [true]
"""


def symbols(system, *names):
    return tuple(system.signature.lookup(n)[0] for n in names)


def document(result, system):
    """The printed document of a witness or a failure report."""
    return (result.to_dict(system) if isinstance(result, Witness)
            else result.to_dict())


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
        assert "nontermination" not in _text(
            {"command": "prove", "report": report.to_dict()})

    def test_planted_witness_is_found(self):
        # if checking accepts some assignment in the space, search succeeds
        system = parse_system(PLANTED)
        g, h = symbols(system, "g", "h")
        planted = derived_witness(HorpoParams([(g, h)], {}, 0), system)
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
        assert (json.dumps(a.to_dict(fact_system))
                == json.dumps(b.to_dict(fact_system)))

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

    def test_deadline_stops_inside_one_orientation(self, monkeypatch):
        # the mul(10) orientation of `f x .. x` asks tens of thousands of
        # comparisons. The clock is read when the budget starts, at each
        # of the two attempts, and by the mul(10) engine after
        # CLOCK_EVERY comparisons, where the deadline has passed
        system = parse_system(repeated_system(10))
        expected = find_witness(system)
        assert not expected.gave_up and expected.searched == 10
        clock = Clock(expires_after=3)
        monkeypatch.setattr(prover.time, "monotonic", clock)
        report = find_witness(system)
        assert report.gave_up and report.searched == 2 and clock.reads == 4
        # the failure named is the lex attempt's, not the interrupted one's
        assert report.failures == expected.failures

    def test_an_interrupted_engine_is_not_kept(self, monkeypatch):
        system = parse_system(repeated_system(10))
        f, = symbols(system, "f")
        clock = Clock(expires_after=2)
        monkeypatch.setattr(prover.time, "monotonic", clock)
        budget = prover._Budget(60.0)
        records = [[]]
        outcome = prover._search_precedence(
            system, {f: Mul(10)}, 0, Solver(deadline=budget.deadline),
            budget, records)
        assert clock.reads == 3 and budget.expired
        assert not isinstance(outcome, Witness) and budget.attempts == 1
        # neither a record nor the failure the report would name
        assert records == [[]] and budget.failure is None

    def test_precedence_search_is_depth_first_in_miss_order(self,
                                                             monkeypatch):
        tried = []

        def recording(edges, status, bound):
            tried.append(sorted(f"{f.name}>{g.name}" for f, g in edges))
            return HorpoParams(edges, status, bound)

        monkeypatch.setattr(prover, "HorpoParams", recording)
        report = find_witness(parse_system(BRANCHING))
        assert isinstance(report, FailureReport) and report.searched == 5
        assert tried == [[], ["f>g"], ["f>g", "g>h"], ["s>g"],
                         ["g>h", "s>g"]]

    def test_long_chain_under_a_low_recursion_limit(self):
        # neither search recurses per symbol or per edge
        script = ("import sys\n"
                  "from lcstrs.prover import find_witness\n"
                  "from lcstrs.syntax import parse_system\n"
                  "system = parse_system(sys.stdin.read())\n"
                  "sys.setrecursionlimit(100)\n"
                  "witness = find_witness(system)\n"
                  "print(sorted(f'{f.name} {g.name}'\n"
                  "             for f, g in witness.params.edges))\n")
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        proc = subprocess.run([sys.executable, "-c", script], input=CHAIN,
                              capture_output=True, text=True, env=env,
                              timeout=120)
        assert proc.stderr == ""
        chain = sorted(f"f{i} f{i + 1}" for i in range(120))
        assert proc.stdout == f"{chain}\n"

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

    def test_file_bound_is_the_default(self):
        assert ProverConfig().bounds is None
        witness = find_witness(parse_system("option bound -3\n" + DOWN))
        assert isinstance(witness, Witness)
        assert witness.params.bound == -3


class TestCheckWitness:
    def test_handpicked_witness(self, fact_system):
        init, fact, comp, exit_ = symbols(fact_system, "init", "fact",
                                          "comp", "exit")
        params = HorpoParams([(init, fact), (fact, comp), (init, exit_)],
                             {fact: LEX}, 0)
        result = check_witness(derived_witness(params, fact_system),
                               fact_system)
        assert result.ok, result.diagnostics

    def test_multiset_status_on_fact_fails(self, fact_system):
        init, fact, comp, exit_ = symbols(fact_system, "init", "fact",
                                          "comp", "exit")
        params = HorpoParams([(init, fact), (fact, comp), (init, exit_)],
                             {fact: Mul(2)}, 0)
        result = check_witness(derived_witness(params, fact_system),
                               fact_system)
        assert not result.ok
        assert any("rule 4" in d for d in result.diagnostics)

    def test_missing_edge_fails_on_rule_one(self, fact_system):
        init, fact, comp = symbols(fact_system, "init", "fact", "comp")
        params = HorpoParams([(init, fact), (fact, comp)], {fact: LEX}, 0)
        result = check_witness(derived_witness(params, fact_system),
                               fact_system)
        assert not result.ok
        assert any("rule 1" in d for d in result.diagnostics)


class TestWitnessOutput:
    def test_json_shape(self, fact_system):
        witness = find_witness(fact_system)
        data = witness.to_dict(fact_system)
        assert data["version"] == 1
        assert data["bound"] == 0
        assert ["init", "fact"] in data["precedence"]
        assert data["status"]["fact"] == "lex"
        assert len(data["rules"]) == 4
        assert data["rules"][3]["derivation"]["relation"] == "gt"
        json.loads(json.dumps(witness.to_dict(fact_system)))  # serializable

    def test_text_output(self, fact_system):
        witness = find_witness(fact_system)
        text = _text({"command": "prove",
                      "witness": witness.to_dict(fact_system)})
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
    bound. Each search starts from no orientation records, so no rule's
    orientation is reused from another status tuple's search."""
    defined = system.defined_symbols()
    budget = prover._Budget(config.timeout)
    bounds = (system.bound,) if config.bounds is None else config.bounds
    for bound in dict.fromkeys(bounds):
        solver = Solver(smt_command=config.smt_command)
        for combo in itertools.product(
                *(prover._status_options(f) for f in defined)):
            outcome = prover._search_precedence(
                system, dict(zip(defined, combo)), bound, solver, budget,
                [[] for _ in system.rules])
            if isinstance(outcome, Witness):
                return outcome
            if budget.expired:
                break
        if budget.expired:
            break
    return prover._failure_report(system, budget)


DIFFERENTIAL_CASES = {
    **{f"blowup_k{k}": (blowup_system(k), ProverConfig()) for k in range(2, 6)},
    **{f"all_read_k{k}": (all_read_system(k), ProverConfig())
       for k in range(2, 5)},
    "list": (LIST_SYSTEM, ProverConfig()),
    **{f"systems_{path.stem}": (path.read_text(), ProverConfig())
       for path in sorted(SYSTEMS.glob("*.lcstrs"))},
    "fact_bounds_0_1": ((SYSTEMS / "fact.lcstrs").read_text(),
                        ProverConfig(bounds=(0, 1))),
    "loop": (LOOP, ProverConfig()),
    "reused_across_tuples": (REUSED_ACROSS_TUPLES, ProverConfig()),
    "reused_across_branches": (REUSED_ACROSS_BRANCHES, ProverConfig()),
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
        assert document(got, system) == document(expected, system)
        if isinstance(got, Witness):
            assert check_witness(got, system, Solver()).ok

    @staticmethod
    def scripted_tree(rng, sizes, unread, witness_share):
        """A decision tree over status positions: a node is (position,
        one subtree per status there) and reads a position its path has
        not; a leaf is the attempts of a failed search, or None for a
        witness."""
        leaf_share = 0.05 if len(unread) == len(sizes) else 0.35
        if not unread or rng.random() < leaf_share:
            return None if rng.random() < witness_share else rng.randint(1, 4)
        position = rng.choice(sorted(unread))
        return position, [
            TestPrunedStatusWalk.scripted_tree(
                rng, sizes, unread - {position}, witness_share)
            for _ in range(sizes[position])]

    def test_agrees_with_exhaustive_product_on_scripted_searches(
            self, monkeypatch):
        # The outcome of a scripted search depends only on the statuses
        # its path reads, the premise of the walk, so the walk must give
        # what the whole product does: its jumps, and the attempts they
        # credit, come from the read positions of the entry that matched.
        rng = random.Random(24)
        tree = defined = options = None

        def scripted(system, status, bound, solver, budget, records):
            node, read = tree, set()
            while isinstance(node, tuple):
                position, children = node
                read.add(defined[position])
                node = children[options[position].index(
                    status[defined[position]])]
            if node is None:
                return Witness(HorpoParams((), status, bound), ())
            budget.attempts += node
            return read

        monkeypatch.setattr(prover, "_search_precedence", scripted)
        outcomes = {"reads nothing": 0, "witness": 0, "report": 0}
        for _ in range(1000):
            arities = [rng.randint(1, 3) for _ in range(rng.randint(2, 6))]
            system = parse_system("".join(
                f"fun f{i} : {'Int -> ' * arity}Int\n"
                f"rule f{i} {' '.join(f'x{j}' for j in range(arity))}"
                " -> x0 [true]\n" for i, arity in enumerate(arities)))
            defined = system.defined_symbols()
            options = [prover._status_options(f) for f in defined]
            tree = self.scripted_tree(
                rng, [len(column) for column in options],
                frozenset(range(len(defined))),
                rng.choice((0.0, 0.05, 0.2)))
            config = ProverConfig(bounds=rng.choice((None, (0, 1))))
            expected = exhaustive_find_witness(system, config)
            assert document(find_witness(system, config), system) == \
                document(expected, system)
            outcomes["reads nothing"] += not isinstance(tree, tuple)
            outcomes["witness" if isinstance(expected, Witness)
                     else "report"] += 1
        assert min(outcomes.values()) > 0


class TestOrientationRecords:
    """A rule is oriented afresh only when a precedence or status answer
    its earlier orientations used comes out differently."""

    @staticmethod
    def fresh_orientations(monkeypatch, text: str):
        count = [0]
        orient = Horpo.orient_rule

        def counted(self, rule):
            count[0] += 1
            return orient(self, rule)

        monkeypatch.setattr(Horpo, "orient_rule", counted)
        return find_witness(parse_system(text)), count[0]

    def test_all_read_orients_each_rule_once_per_status(self, monkeypatch):
        # 3^k precedence searches; each h rule has one record per status of
        # its symbol, and the loop rule one (5103 orientations at k=6 when
        # every attempt orients every rule it reaches afresh)
        k = 6
        report, fresh = self.fresh_orientations(monkeypatch,
                                                all_read_system(k))
        assert isinstance(report, FailureReport)
        assert report.searched == 3 ** k
        assert fresh <= 3 * k + 1

    def test_blowup_orients_each_rule_at_most_twice(self, monkeypatch):
        # two precedence searches (44 orientations at k=7 without records)
        k = 7
        witness, fresh = self.fresh_orientations(monkeypatch,
                                                 blowup_system(k))
        assert isinstance(witness, Witness)
        assert fresh <= 2 * k + 2

    def test_a_record_holds_only_where_its_precedence_hits_do(self):
        system = parse_system(REUSED_ACROSS_TUPLES)
        witness = find_witness(system)
        assert isinstance(witness, Witness)
        p, q = symbols(system, "p", "q")
        assert witness.params.edges == {(p, q)}
        assert check_witness(witness, system).ok
        report = find_witness(parse_system(REUSED_ACROSS_BRANCHES))
        assert isinstance(report, FailureReport) and not report.gave_up
        assert report.searched == 4


def derivation(engine):
    return (None if engine.judgment is None
            else engine.judgment.to_dict(engine.constraint))


class TestKeptEngines:
    """An engine kept as a rule's record answers, wherever the search
    reuses it, as a fresh engine with a fresh solver would, and keeps no
    memo."""

    @staticmethod
    def find_checking_reuse(monkeypatch, system, config):
        """`find_witness`, with each reuse of a kept engine checked against
        a fresh orientation; returns the number of reuses."""
        search, alike = prover._search_precedence, Horpo.answers_alike
        kept: list = []         # the records of each search
        reuses: list = []

        def searched(system, status, bound, solver, budget, records):
            kept.append(records)
            return search(system, status, bound, solver, budget, records)

        def answers_alike(record, params):
            if not alike(record, params):
                return False
            index = next(i for i, engines in enumerate(kept[-1])
                         if any(e is record for e in engines))
            fresh = Horpo(params, Solver())
            fresh.orient_rule(system.rules[index])
            assert derivation(record) == derivation(fresh)
            assert record.deepest_failure == fresh.deepest_failure
            assert record.unknowns == fresh.unknowns
            reuses.append(record)
            return True

        with monkeypatch.context() as patched:
            patched.setattr(prover, "_search_precedence", searched)
            patched.setattr(Horpo, "answers_alike", answers_alike)
            find_witness(system, config)
        assert all(not engine._memo for records in kept
                   for engines in records for engine in engines)
        return len(reuses)

    @pytest.mark.parametrize("name", sorted(DIFFERENTIAL_CASES))
    def test_differential_cases(self, monkeypatch, name):
        text, config = DIFFERENTIAL_CASES[name]
        reuses = self.find_checking_reuse(monkeypatch, parse_system(text),
                                          config)
        if name.startswith(("all_read", "blowup")):
            assert reuses > 0

    def test_generated_systems(self, monkeypatch):
        reuses = sum(self.find_checking_reuse(
            monkeypatch, gen_system(random.Random(seed)), ProverConfig())
            for seed in range(30))
        assert reuses > 0


class TestReportRendering:
    """Only the failure a report shows is rendered."""

    @staticmethod
    def rendered(monkeypatch, text):
        """`find_witness` on `text`, and the terms it printed."""
        printed = []

        def counted(term, memo=None):
            printed.append(term)
            return print_term(term, memo)

        print_term = horpo.print_term
        with monkeypatch.context() as patched:
            patched.setattr(horpo, "print_term", counted)
            patched.setattr(prover, "print_term", counted)
            return find_witness(parse_system(text)), printed

    def test_cycle_renders_one_deepest_failure(self, monkeypatch):
        # three orientations fail, and the report shows the last
        report, printed = self.rendered(monkeypatch, CYCLE)
        assert len(printed) == 2
        failure, = report.failures
        assert failure.index == 3
        assert failure.deepest == "rpo: x vs f (x * x)"

    def test_undecided_entailments_are_rendered_for_the_report(
            self, monkeypatch):
        report, printed = self.rendered(monkeypatch, CUBE)
        failure, = report.failures
        assert len(failure.unknowns) == 2
        assert len(printed) == 2 + 2 * len(failure.unknowns)
        golden = json.loads((REPO / "tests" / "golden" /
                             "prove_cube.json").read_text())
        assert report.to_dict() == golden["report"]
        # those of an orientation the report does not show stay unrendered
        report, printed = self.rendered(monkeypatch, CUBE_THEN_LOOP)
        failure, = report.failures
        assert (failure.index, failure.unknowns) == (2, ())
        assert len(printed) == 2
