"""Matching, respecting substitutions, steps, normalization, joinability."""

import dataclasses
import gc
import math
import os
import random
import subprocess
import sys
import threading
import time
import weakref
from collections import Counter
from pathlib import Path

import pytest

from helpers import (
    BOOL_VARS, INT_VARS, RecordingInputs, calc_redexes, gen_ground_term,
    gen_system, gen_theory_term, joinable_bfs, random_calc_normalize,
    reference_normalize, replay, respects_by_instantiation, subterms,
    variable_headed_system, with_variables,
)
from lcstrs import rewrite, theory
from lcstrs.core import (
    BOOL_T, FunctionSymbol, INT_T, LcstrsError, Rule, Substitution,
    Variable, arrow,
)
from lcstrs.rewrite import (
    InputSource, RewriteStep, calc_normal_form, joinable_calc, match,
    normalize, respects, step_at,
)
from lcstrs.syntax import System, parse_system, parse_term, print_term
from lcstrs.theory import bool_value, int_value

SYSTEMS = Path(__file__).resolve().parent.parent / "systems"


class TestMatch:
    def test_rule_head(self, terms):
        sigma = match(terms("fact n k"), terms("fact 1 exit"))
        assert sigma == Substitution({terms.var("n"): int_value(1),
                                      terms.var("k"): terms("exit")})

    def test_variable_pattern(self, terms):
        x = Variable("x", INT_T)
        sigma = match(x, terms("fact 1 exit"))
        assert sigma == Substitution({x: terms("fact 1 exit")})

    def test_type_mismatch_is_a_precondition_violation(self, terms):
        x = Variable("x", arrow(INT_T, INT_T))
        with pytest.raises(LcstrsError):
            match(x, terms("fact 1 exit"))

    def test_three_way_binding(self, terms):
        sigma = match(terms("comp g f x"), terms("comp exit ([*] 1) 1"))
        assert sigma == Substitution({
            terms.var("g"): terms("exit"),
            terms.var("f"): terms("[*] 1"),
            terms.var("x"): int_value(1),
        })

    def test_nonlinear_pattern(self, fact_system):
        ctx = {}
        pattern = parse_term("y + y", fact_system, ctx)
        assert match(pattern, parse_term("3 + 3", fact_system)) is not None
        assert match(pattern, parse_term("3 + 4", fact_system)) is None

    def test_subject_variables_are_constants(self, fact_system):
        ctx = {}
        pattern = parse_term("fact n k", fact_system, ctx)
        subject = parse_term("fact m exit", fact_system,
                             {"m": Variable("m", INT_T)})
        sigma = match(pattern, subject)
        assert sigma.get(ctx["n"]) == Variable("m", INT_T)

    def test_mismatching_symbol(self, terms):
        assert match(terms("fact n k"), terms("comp exit exit 1")) is None


class TestRespects:
    def test_recursive_rule_taken(self, fact_system, terms):
        rule = fact_system.rules[3]
        ctx_rule = {v.name: v for v in rule.lhs.free_vars}
        sigma = Substitution({ctx_rule["n"]: int_value(1),
                              ctx_rule["k"]: terms("exit")})
        assert respects(sigma, rule) is True

    def test_base_rule_blocked_by_constraint(self, fact_system, terms):
        rule = fact_system.rules[2]
        ctx_rule = {v.name: v for v in rule.lhs.free_vars}
        sigma = Substitution({ctx_rule["n"]: int_value(1),
                              ctx_rule["k"]: terms("exit")})
        assert respects(sigma, rule) is False

    def test_fresh_variable_must_be_a_value(self, fact_system):
        rule = fact_system.rules[0]  # init -> fact n exit [true]
        (n,) = rule.logical_vars
        assert respects(Substitution({n: int_value(7)}), rule) is True
        bad = Substitution({n: theory.ADD.apply(int_value(3), int_value(4))})
        assert respects(bad, rule) is False

    def test_non_ground_constraint_is_false(self, fact_system):
        rule = fact_system.rules[3]
        assert respects(Substitution(), rule) is False

    def test_agrees_with_instantiation(self):
        rng = random.Random(97)
        rules = _sample_rules(rng)
        verdicts = Counter()
        for rule in rules:
            free = (rule.lhs.free_vars | rule.rhs.free_vars
                    | rule.constraint.free_vars)
            for i in range(30):
                sigma = Substitution({
                    v: t for v in sorted(free, key=lambda v: v.name)
                    if (t := _instance(rng, v)) is not None})
                bound = (-2, 0, 3)[i % 3]
                expected = respects_by_instantiation(sigma, rule, bound)
                assert respects(sigma, rule, bound) is expected, (rule, sigma)
                verdicts[expected] += 1
        assert verdicts[True] > 500 and verdicts[False] > 500


    def test_compiled_constraints_agree(self):
        # a system's compiled check of a rule at the system's bound, given
        # values for its logical variables in name order, against `respects`
        rng = random.Random(89)
        rules = _sample_rules(rng)
        verdicts = Counter()
        for bound in (-2, 0, 3):
            system = System(theory.base_signature(), tuple(rules), (),
                            bound=bound)
            compiled = rewrite._compiled(system)
            assert rewrite._compiled(system) is compiled    # built once
            # the checks are compiled at the bound, which is fixed
            with pytest.raises(dataclasses.FrozenInstanceError):
                system.bound = bound + 1
            _, table, variable_headed, _, _ = compiled
            entries = sorted([*(e for es in table.values() for e in es),
                              *(e for _, e in variable_headed)],
                             key=lambda e: e[0])
            assert [e[0] for e in entries] == list(range(len(rules)))
            for rule, (_, same, lhs, logical, fresh, holds) in zip(rules,
                                                                  entries):
                assert same is rule and lhs == rule.lhs
                assert fresh == tuple(v for v in logical
                                      if v not in rule.lhs.free_vars)
                assert logical == tuple(sorted(rule.logical_vars,
                                               key=lambda v: v.name))
                for _ in range(10):
                    values = [_value(rng, v) for v in logical]
                    sigma = Substitution(dict(zip(logical, values)))
                    verdict = holds(tuple(map(theory.semantic_value, values)))
                    assert verdict is respects(sigma, rule, bound), (rule, sigma)
                    verdicts[verdict] += 1
        assert verdicts[True] > 500 and verdicts[False] > 500


def _sample_rules(rng):
    """The shipped rules, random systems' rules, and rules whose
    constraints are random theory terms over x, y, z, p, q."""
    rules = [rule for path in sorted(SYSTEMS.glob("*.lcstrs"))
             for rule in parse_system(path.read_text()).rules]
    for _ in range(30):
        rules.extend(gen_system(rng).rules)
    variables = INT_VARS + BOOL_VARS
    f = FunctionSymbol("f", arrow(*(v.type for v in variables), INT_T))
    for _ in range(60):
        phi = with_variables(rng, gen_theory_term(rng, BOOL_T, budget=15))
        rules.append(Rule(f.apply(*variables), INT_VARS[0], phi))
    return rules


def _value(rng, v):
    if v.type == INT_T:
        return int_value(rng.randint(-5, 5))
    return bool_value(rng.random() < 0.5)


def _instance(rng, v):
    """A random image of `v`: mostly a value, sometimes a non-value of the
    same type, sometimes none (the variable stays unbound)."""
    roll = rng.random()
    if roll < 0.1 or v.type not in (INT_T, BOOL_T):
        return None
    if v.type == INT_T:
        if roll < 0.2:
            return theory.ADD.apply(int_value(1), int_value(2))
        return int_value(rng.randint(-5, 5))
    if roll < 0.2:
        return theory.NOT.apply(bool_value(True))
    return bool_value(rng.random() < 0.5)


class TestStepAt:
    def test_root_of_fact_1_exit(self, fact_system, terms):
        t = terms("fact 1 exit")
        steps = step_at(t, (), fact_system)
        assert len(steps) == 1
        assert steps[0].kind == "rule#4"
        assert steps[0].result == terms("fact (1 - 1) (comp exit ([*] 1))")

    def test_calculation_position(self, fact_system, terms):
        t = terms("fact (1 - 1) (comp exit ([*] 1))")
        steps = step_at(t, (0, 1), fact_system)
        assert [s.kind for s in steps] == ["calc"]
        assert steps[0].result == terms("fact 0 (comp exit ([*] 1))")

    def test_values_are_normal(self, fact_system):
        assert step_at(int_value(0), (), fact_system) == []

    def test_invalid_position(self, fact_system):
        with pytest.raises(LcstrsError):
            step_at(int_value(0), (0,), fact_system)

    def test_input_oracle_feeds_fresh_variables(self, fact_system, terms):
        t = terms("init")
        steps = step_at(t, (), fact_system, inputs=InputSource([7]))
        assert steps[0].result == terms("fact 7 exit")
        default = step_at(t, (), fact_system)
        assert default[0].result == terms("fact 0 exit")

    def test_input_value_type_mismatch_is_an_error(self, fact_system, terms):
        with pytest.raises(LcstrsError):
            step_at(terms("init"), (), fact_system, inputs=InputSource([True]))

    def test_rule_order_then_calc(self, fact_system):
        text = "fun f : Int -> Int\nrule f x -> 0 [true]\nrule f x -> 1 [true]\n"
        from lcstrs.syntax import parse_system
        system = parse_system(text)
        t = parse_term("f (1 + 1)", system)
        steps = step_at(t, (1,), system)
        assert [s.kind for s in steps] == ["calc"]
        root = step_at(t, (), system)
        assert [s.kind for s in root] == ["rule#1", "rule#2"]

    def test_steps_always_respect(self, fact_system):
        rng = random.Random(41)
        for _ in range(200):
            t = gen_ground_term(rng, fact_system.signature, INT_T, 4)
            for pos, _ in subterms(t):
                for step in step_at(t, pos, fact_system):
                    if step.rule_index is not None:
                        rule = fact_system.rules[step.rule_index]
                        assert respects(step.subst, rule, fact_system.bound)


class TestInputSource:
    def test_values_in_order_then_defaults(self):
        source = InputSource([4, True])
        x, p = Variable("x", INT_T), Variable("p", BOOL_T)
        assert [source.value_for(v) for v in (x, p, x, p)] == [
            int_value(4), bool_value(True), int_value(0), bool_value(False)]

    def test_a_value_that_does_not_fit_is_an_error(self):
        with pytest.raises(LcstrsError) as raised:
            InputSource([True]).value_for(Variable("x", INT_T))
        assert str(raised.value) == (
            "input value True does not fit variable 'x' : Int")

    def test_draws_take_linear_time(self):
        # 10^5 draws within 6 times the time of 2.5 * 10^4: a linear cost
        # gives about 4, one that moves the rest of the values on every
        # draw about 8
        x = Variable("x", INT_T)

        def seconds(n: int) -> float:
            best = float("inf")
            for _ in range(3):
                source = InputSource([1] * n)
                start = time.perf_counter()
                for _ in range(n):
                    source.value_for(x)
                best = min(best, time.perf_counter() - start)
            return best

        small, large = seconds(25000), seconds(100000)
        assert large < 6 * small, (small, large)


class TestNormalize:
    def test_paper_trace(self, fact_system, terms):
        result = normalize(terms("fact 1 exit"), fact_system)
        rendered = [print_term(s.result) for s in result.steps]
        assert rendered[:3] == [
            "fact (1 - 1) (comp exit ([*] 1))",
            "fact 0 (comp exit ([*] 1))",
            "comp exit ([*] 1) 1",
        ]
        assert result.term == terms("exit 1")
        assert not result.exhausted
        assert result.total_steps == 5

    def test_an_unknown_strategy_is_rejected(self, fact_system, terms):
        with pytest.raises(LcstrsError) as raised:
            normalize(terms("exit 1"), fact_system, "leftmost")
        assert str(raised.value) == "unknown strategy 'leftmost'"

    def test_negative_fuel_is_rejected(self, fact_system, terms):
        with pytest.raises(LcstrsError) as raised:
            normalize(terms("exit 1"), fact_system, fuel=-1)
        assert str(raised.value) == "fuel must be non-negative"

    def test_normal_form_is_fixed(self, fact_system, terms):
        result = normalize(terms("exit 1"), fact_system)
        assert result.total_steps == 0
        assert result.term == terms("exit 1")

    def test_negative_argument_takes_base_rule(self, fact_system, terms):
        result = normalize(terms("fact (0 - 1) exit"), fact_system)
        assert result.term == terms("exit 1")

    def test_trace_entries_are_dataclass_steps(self, fact_system, terms):
        step, = normalize(terms("fact 0 exit"), fact_system).steps[:1]
        plain = RewriteStep(step.position, step.rule_index, step.subst,
                            step.result)
        assert step == plain and step.kind == plain.kind == "rule#3"
        assert vars(step) == vars(plain)
        with pytest.raises(dataclasses.FrozenInstanceError):
            step.position = (0,)

    def test_fuel_exhaustion_reports_partial_trace(self):
        from lcstrs.syntax import parse_system
        system = parse_system("fun f : Int -> Int\nrule f x -> f x [true]\n")
        result = normalize(parse_term("f 0", system), system, fuel=10)
        assert result.exhausted
        assert result.total_steps == 10
        assert len(result.steps) == 10

    def test_trace_cap_bounds_memory(self, monkeypatch):
        from lcstrs.syntax import parse_system
        system = parse_system("fun f : Int -> Int\nrule f x -> f x [true]\n")
        monkeypatch.setattr(rewrite, "TRACE_CAP", 5)
        result = normalize(parse_term("f 0", system), system, fuel=50)
        assert result.total_steps == 50
        assert len(result.steps) == 5

    @pytest.mark.parametrize("strategy", ["innermost", "outermost"])
    def test_input_draw_order(self, strategy):
        # `g 5` matches both rules, each drawing a fresh value, and stays
        # put until a draw satisfies a constraint: every scan for a redex
        # probes it again and draws two more values. Recorded before the
        # normalizer skipped subterms known to be normal.
        from lcstrs.syntax import parse_system
        system = parse_system(
            "fun g : Int -> Int\n"
            "fun pair : Int -> Int -> Int\n"
            "rule g x -> x + y [y > x]\n"
            "rule g x -> x - z [z > 10]\n")
        inputs = InputSource([1, 2, 3, 4, 7, 20, 99])
        result = normalize(parse_term("pair (g 5) (1 + 2 + 3)", system),
                           system, strategy=strategy, inputs=inputs)
        trace = [(s.position, s.kind, print_term(s.result),
                  s.subst and sorted((v.name, print_term(t))
                                     for v, t in s.subst.items()))
                 for s in result.steps]
        assert trace == [
            ((1, 0, 1), "calc", "pair (g 5) (3 + 3)", None),
            ((1,), "calc", "pair (g 5) 6", None),
            ((0, 1), "rule#1", "pair (5 + 7) 6", [("x", "5"), ("y", "7")]),
            ((0, 1), "calc", "pair 12 6", None),
        ]
        assert print_term(result.term) == "pair 12 6"
        # y = 1, z = 2, y = 3, z = 4, y = 7, z = 20 were drawn, in order
        assert inputs.value_for(Variable("w", INT_T)) == int_value(99)

    def test_variable_headed_rule_keeps_file_order(self):
        # `x a` has a variable head, so it may match any term of type Int
        # with at least one argument; the rule table must still list it
        # between the two `c y` rules for the same redex
        system = variable_headed_system()
        c, = system.signature.lookup("c")
        d, = system.signature.lookup("d")
        compiled = rewrite._compiled(system)

        def indices(head, nargs):
            rules = rewrite._rules_at(compiled, (head, nargs))
            return None if rules is None else [e[0] for e in rules]

        assert indices(c, 1) == [0, 1, 2]
        assert indices(d, 2) == [1]
        # `d a` has type Int -> Int, and `d` no argument
        assert indices(d, 1) is None and indices(d, 0) is None
        # a free variable head, and operators at their arity with no rule:
        # `x a` has type Int, so it may match `1 + 2` but not `1 <= 2`
        assert indices(Variable("f", arrow(INT_T, INT_T)), 1) == [1]
        assert indices(theory.ADD, 2) == [1]
        assert indices(theory.LE, 2) == []
        t = parse_term("d (c a) a", system)
        assert [s.kind for s in step_at(t, (0, 1), system)] == [
            "rule#1", "rule#2", "rule#3"]
        result = normalize(t, system)
        assert [(s.position, s.kind) for s in result.steps] == [
            ((0, 1), "rule#1"), ((), "rule#2")]
        assert print_term(result.term) == "0"

    def test_outermost_strategy(self, fact_system, terms):
        result = normalize(terms("fact 1 exit"), fact_system,
                           strategy="outermost")
        assert result.term == terms("exit 1")

    def test_trace_replay(self, fact_system, terms):
        rng = random.Random(43)
        for _ in range(30):
            t = gen_ground_term(rng, fact_system.signature, INT_T, 4)
            result = normalize(t, fact_system, fuel=200)
            current = t
            for step in result.steps:
                assert replay(step, current, fact_system), (
                    print_term(current), step.kind)
                current = step.result
            assert current == result.term

    def test_subject_reduction_on_random_systems(self):
        rng = random.Random(47)
        for _ in range(25):
            system = gen_system(rng)
            for _ in range(8):
                target = rng.choice(system.declarations).type
                while hasattr(target, "result"):
                    target = target.result
                t = gen_ground_term(rng, system.signature, target, 4)
                result = normalize(t, system, fuel=60)
                current = t
                for step in result.steps:
                    assert step.result.type == current.type
                    current = step.result


def _outcome(run):
    """What a normalizer call gives, or the error it raises."""
    try:
        return run()
    except LcstrsError as e:
        return type(e).__name__, str(e)


def _assert_same_as_reference(term, system, strategy, values=(), fuel=100):
    """`normalize` and `reference_normalize` give the same positions, rule
    indices, substitutions and terms, the same last term, and draw the
    same inputs, or raise the same error."""
    inputs, reference_inputs = RecordingInputs(values), RecordingInputs(values)

    def run():
        result = normalize(term, system, strategy, fuel, inputs)
        return ([(s.position, s.rule_index, s.subst, s.result)
                 for s in result.steps], result.term, result.exhausted)

    got = _outcome(run)
    expected = _outcome(lambda: reference_normalize(
        term, system, strategy, fuel, reference_inputs))
    assert got == expected, (print_term(term), strategy, values)
    assert inputs.draws == reference_inputs.draws
    return got


def assert_same_as_reference(count: int, seed: int = 1) -> Counter:
    """`normalize` agrees with `reference_normalize` on `count` seeded
    `gen_system` systems with patterned left sides, each run on three
    ground terms under both strategies, with a few input values and fuel
    for 40 steps. The two strategies run on the same nodes, so the second
    also meets the marks the first left. Returns how often the slice met
    each case the resumed walk must get right."""
    rng = random.Random(seed)
    seen = Counter()
    for _ in range(count):
        system = gen_system(rng, patterns=True)
        *_, variable_headed, _, depth = rewrite._compiled(system)
        seen["non-linear left side"] += depth == math.inf
        seen["left side deeper than 2"] += 2 < depth < math.inf
        seen["variable head"] += bool(variable_headed)
        seen["constant left side"] += any(
            type(rule.lhs) is FunctionSymbol for rule in system.rules)
        for _ in range(3):
            target = rng.choice(system.declarations).type
            while hasattr(target, "result"):
                target = target.result
            t = gen_ground_term(rng, system.signature, target, 4)
            values = [rng.randint(-3, 3) for _ in range(rng.randint(0, 4))]
            for strategy in ("innermost", "outermost"):
                trace, _, exhausted = _assert_same_as_reference(
                    t, system, strategy, values, fuel=40)
                seen["fuel ran out"] += exhausted
                seen["input drawn"] += any(
                    subst is not None and any(v.name == "w" for v, _ in
                                              subst.items())
                    for _, _, subst, _ in trace)
                positions = [position for position, *_ in trace]
                seen[f"{strategy} step above the last hole"] += any(
                    len(here) < len(last) and last[:len(here)] == here
                    for last, here in zip(positions, positions[1:]))
    return seen


ORDERING_SYSTEM = """\
option bound {bound}
fun g : Int -> Int
fun h : Int -> Int -> Int
fun k : Int -> Int
fun b : Bool -> Int
rule g x -> g (x - 1) [x !> x - 1]
rule h x y -> h (x - 1) y [x !>= y]
rule k x -> y - z [y !> x]
rule b p -> b q [p !> q]
rule b p -> 7 [p !>= p /\\ not p]
"""


class TestProbeDifferential:
    """`normalize`, whose probes use each rule's compiled constraint and
    build contracta without re-checking, against a reference that matches
    every rule, decides `respects` through `interpret` and rebuilds with
    the checking constructor and `replace_at`."""

    @pytest.mark.parametrize("strategy", ["innermost", "outermost"])
    def test_nonlinear_left_side(self, strategy):
        system = parse_system(
            "fun eq : Int -> Int -> Bool\nrule eq x x -> true [true]\n")
        results = [_assert_same_as_reference(parse_term(text, system), system,
                                             strategy)
                   for text in ("eq 3 3", "eq 3 4", "eq (1 + 2) 3")]
        assert [print_term(last) for _, last, _ in results] == [
            "true", "eq 3 4", "true"]

    @pytest.mark.parametrize("strategy", ["innermost", "outermost"])
    def test_variable_headed_rule(self, strategy):
        system = variable_headed_system()
        for text in ("d (c a) a", "c (c a)", "d a (c (c a))"):
            _assert_same_as_reference(parse_term(text, system), system,
                                      strategy)

    @pytest.mark.parametrize("strategy", ["innermost", "outermost"])
    def test_variable_headed_rule_of_another_type(self, strategy):
        # `x a` has type Int, and `h a`, under the key (h, 1), which has a
        # rule of its own, type Bool: `x a` must not be tried there
        base = parse_system("fun a : Int\nfun c : Int -> Int\n"
                            "fun h : Int -> Bool\n"
                            "fun pair : Bool -> Int -> Int\n"
                            "rule h y -> y > 0 [true]\n")
        a, = base.signature.lookup("a")
        x = Variable("x", arrow(INT_T, INT_T))
        system = System(base.signature,
                        (Rule(x.apply(a), int_value(0), theory.TRUE),
                         *base.rules), base.declarations)
        results = [_assert_same_as_reference(parse_term(text, system), system,
                                             strategy)
                   for text in ("pair (h a) (c a)", "h (c a)",
                                "pair (h (c a)) (c (c a))")]
        assert [print_term(last) for _, last, _ in results] == [
            "pair (a > 0) 0", "false", "pair false (c 0)"]

    @pytest.mark.parametrize("strategy", ["innermost", "outermost"])
    @pytest.mark.parametrize("values", [[], [3], [5, 2, 7], [True]])
    def test_fact_init_under_inputs(self, fact_system, strategy, values):
        trace = _assert_same_as_reference(
            parse_term("init", fact_system), fact_system, strategy, values)
        if values == [True]:
            assert trace[0] == "LcstrsError"

    @pytest.mark.parametrize("strategy", ["innermost", "outermost"])
    @pytest.mark.parametrize("bound", [-3, 2])
    def test_ordering_constraints_under_a_bound(self, strategy, bound):
        system = parse_system(ORDERING_SYSTEM.format(bound=bound))
        # `g` counts down to the bound
        _, last, _ = _assert_same_as_reference(
            parse_term("g 5", system), system, strategy)
        assert last.arg == int_value(bound)
        for text, values in [("g (0 - 5)", ()), ("h 3 1", ()),
                             ("h 3 (0 - 2)", ()), ("h 4 4", ()),
                             ("k 2", (1, 5, -7, 4)), ("k (1 + 1)", (9,)),
                             ("b true", (False,)), ("b true", (True, False)),
                             ("b false", ())]:
            _assert_same_as_reference(
                parse_term(text, system), system, strategy, values)

    @pytest.mark.parametrize("strategy", ["innermost", "outermost"])
    def test_random_systems(self, strategy):
        rng = random.Random(71)
        for _ in range(20):
            system = gen_system(rng)
            for _ in range(4):
                target = rng.choice(system.declarations).type
                while hasattr(target, "result"):
                    target = target.result
                t = gen_ground_term(rng, system.signature, target, 4)
                _assert_same_as_reference(
                    t, system, strategy,
                    [rng.randint(-3, 3) for _ in range(3)], fuel=40)


# `p x` steps to `q`, and `q x y z`, at depth 3, the deepest left side, to
# `s`: a step at `p 1` gives the ancestors on its head chain a new head
# and argument count, and `q 2 3 4` lies 3 above the hole, `s 5` 4 above it
HEAD_CHAIN_SYSTEM = """\
fun p : Int -> Int -> Int -> Int -> Int -> Int
fun q : Int -> Int -> Int -> Int -> Int
fun s : Int -> Int
fun pair : Int -> Int -> Int
rule p x -> q [x > 0]
rule q x y z -> s [true]
rule s x -> x + 1 [true]
"""


class TestResumedWalk:
    """After a step the walk goes on from the hole: innermost at the
    contractum, outermost after probing the ancestors within the deepest
    left side's depth of the hole, and from the root after an input was
    drawn. Each case is compared with the reference, which walks from the
    root every time."""

    @pytest.mark.parametrize("strategy", ["innermost", "outermost"])
    def test_a_new_head_on_the_head_chain(self, strategy):
        system = parse_system(HEAD_CHAIN_SYSTEM)
        results = [_assert_same_as_reference(parse_term(text, system),
                                             system, strategy)
                   for text in ("p 1 2 3 4 5", "p 0 2 3 4 5",
                                "pair (p 1 2 3 4 5) (p (1 + 1) 2 3 4 0)")]
        trace, last, _ = results[0]
        # `q 2 3 4` at distance 3 of the hole, then `s 5` above it
        assert [position for position, *_ in trace] == [
            (0, 0, 0, 0), (0,), (), ()]
        assert [print_term(last) for _, last, _ in results] == [
            "6", "p 0 2 3 4 5", "pair 6 1"]

    @pytest.mark.parametrize("strategy", ["innermost", "outermost"])
    def test_a_nonlinear_ancestor_far_above_the_hole(self, strategy):
        # the calculation at depth 4 makes both sides of `eq` equal
        system = parse_system("fun eq : Int -> Int -> Bool\n"
                              "fun h : Int -> Int\n"
                              "rule eq x x -> true [true]\n")
        trace, last, _ = _assert_same_as_reference(
            parse_term("eq (h (h (1 + 2))) (h (h 3))", system), system,
            strategy)
        assert [position for position, *_ in trace] == [(0, 1, 1, 1), ()]
        assert print_term(last) == "true"

    @pytest.mark.parametrize("strategy", ["innermost", "outermost"])
    @pytest.mark.parametrize("values", [[], [1, 2, 9], [7, 1, 1, 1, 1]])
    def test_inputs_drawn_left_of_the_hole(self, strategy, values):
        # every probe of `g 5` draws, so the walk after each step of `k`
        # starts at the root and probes `g 5` again
        system = parse_system(MARKED_SYSTEM + "rule g x -> x + y [y > x]\n"
                              "rule k x -> k (x - 1) [x > 0]\n")
        _assert_same_as_reference(
            parse_term("pair (g 5) (pair (k 2) (g (1 + 1)))", system),
            system, strategy, values)

    @pytest.mark.parametrize("strategy", ["innermost", "outermost"])
    def test_fuel_running_out_on_a_resumed_step(self, strategy):
        system = parse_system(HEAD_CHAIN_SYSTEM)
        term = parse_term("pair (p 1 2 3 4 5) (p 1 2 3 4 5)", system)
        for fuel in range(10):
            trace, _, exhausted = _assert_same_as_reference(
                term, system, strategy, fuel=fuel)
            assert len(trace) == min(fuel, 8) and exhausted == (fuel < 8)

    def test_seeded_pattern_systems(self):
        # the slice holds every case the walk must get right
        seen = assert_same_as_reference(40)
        assert min(seen.values()) > 0 and len(seen) == 8, seen

    @pytest.mark.parametrize("strategy", ["innermost", "outermost"])
    @pytest.mark.parametrize("values", [[], [3, 9], [True]])
    def test_a_constant_left_side(self, strategy, values):
        system = parse_system("fun c : Int\nfun f : Int -> Int -> Int\n"
                              "rule c -> y [y > 2]\n"
                              "rule f x y -> f y x [x > y]\n")
        _assert_same_as_reference(parse_term("f c (f (c + 1) c)", system),
                                  system, strategy, values)


MARKED_SYSTEM = """\
fun g : Int -> Int
fun k : Int -> Int
fun pair : Int -> Int -> Int
"""


class TestNormalMarks:
    """`normalize` marks a subterm normal for its system, and the mark
    outlives the call. Later calls on the same nodes, with other inputs,
    under another bound or under another system, must still give the
    reference traces."""

    @pytest.mark.parametrize("strategy", ["innermost", "outermost"])
    def test_a_shared_term_under_other_inputs(self, strategy):
        system = parse_system(MARKED_SYSTEM + "rule g x -> x + y [y > x]\n"
                              "rule k x -> k (x - 1) [x > 0]\n")
        # `pair (k 0) (k 2)` reaches a normal form without a draw, so its
        # nodes are marked; `g 5` draws on every probe and never is
        term = parse_term("pair (pair (k 0) (k 2)) (g 5)", system)
        # a system without rules marks the whole term, for itself only
        normalize(term, dataclasses.replace(system, rules=()))
        lasts = [print_term(_assert_same_as_reference(
                     term, system, strategy, values)[1])
                 for values in ([7], [9], [1, 7], [])]
        assert lasts == ["pair (pair (k 0) (k 0)) 12",
                         "pair (pair (k 0) (k 0)) 14",
                         "pair (pair (k 0) (k 0)) (g 5)",
                         "pair (pair (k 0) (k 0)) (g 5)"]

    @pytest.mark.parametrize("strategy", ["innermost", "outermost"])
    def test_a_term_under_another_bound(self, strategy):
        # `x !> 0` is `x > b /\ x > 0`: at bound 2, `g 2` is normal
        system = parse_system("option bound 2\n" + MARKED_SYSTEM +
                              "rule g x -> g (x - 1) [x !> 0]\n")
        lower = dataclasses.replace(system, bound=0)
        term = parse_term("pair (g 2) (g 3)", system)
        lasts = [print_term(_assert_same_as_reference(
                     term, bounded, strategy)[1])
                 for bounded in (system, lower, system, lower)]
        assert lasts == ["pair (g 2) (g 2)", "pair (g 0) (g 0)"] * 2

    @pytest.mark.parametrize("strategy", ["innermost", "outermost"])
    def test_a_subterm_shared_by_two_systems(self, strategy):
        first = parse_system(MARKED_SYSTEM + "rule k x -> k (x - 1) [x > 0]\n")
        second = parse_system(MARKED_SYSTEM + "rule g x -> x + 1 [true]\n")
        # normal under `first`, whose symbols `second` matches by equality
        shared = parse_term("pair (g 1) (k 0)", first)
        pair, = second.signature.lookup("pair")
        term = pair.apply(shared, parse_term("k 1", second))
        results = [_assert_same_as_reference(t, system, strategy)[1]
                   for system in (first, second, first, second)
                   for t in (shared, term)]
        assert [print_term(t) for t in results] == [
            "pair (g 1) (k 0)", "pair (pair (g 1) (k 0)) (k 0)",
            "pair 2 (k 0)", "pair (pair 2 (k 0)) (k 1)"] * 2

    def test_threads_racing_on_shared_marks(self):
        # two systems mark the same nodes from four threads, switching
        # often: a mark another system overwrote costs a rescan, and no
        # thread may skip a node that is not normal under its own system
        first = parse_system(MARKED_SYSTEM + "rule k x -> k (x - 1) [x > 0]\n")
        second = parse_system(MARKED_SYSTEM + "rule g x -> x + 1 [true]\n")
        shared = parse_term("pair (pair (g 1) (k 3)) (pair (g 2) (k 0))",
                            first)
        expected = {system: reference_normalize(
                        shared, system, "innermost", 100, InputSource())[1]
                    for system in (first, second)}
        wrong = []

        def work(system):
            for _ in range(200):
                last = normalize(shared, system).term
                if last != expected[system]:
                    wrong.append(print_term(last))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(system,))
                       for system in (first, second) * 2]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []

    def test_a_mark_keeps_no_system_alive(self):
        system = parse_system(MARKED_SYSTEM + "rule k x -> k (x - 1) [x > 0]\n")
        # `k (1 + 2)` ends in `k 0`, whose `0` is the process-wide
        # `int_value(0)`: marked normal, it must not hold the system
        result = normalize(parse_term("pair 0 (k (1 + 2))", system), system)
        assert result.term.arg.arg is int_value(0)
        survivor = weakref.ref(system)
        del system, result
        gc.collect()
        assert survivor() is None


# `normalize` on `iter N ([+] 1) 0`, a term of constant size for 3N steps,
# printing the process's peak resident set size (`ru_maxrss`)
PEAK_RSS_SCRIPT = """\
import resource, sys
from lcstrs.rewrite import normalize
from lcstrs.syntax import parse_system, parse_term
with open(sys.argv[1]) as handle:
    system = parse_system(handle.read())
term = parse_term(f"iter {sys.argv[2]} ([+] 1) 0", system)
assert not normalize(term, system, fuel=10 ** 9).exhausted
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


class TestBoundedMemory:
    def test_peak_memory_does_not_grow_with_the_steps(self):
        # the trace keeps at most TRACE_CAP steps, and neither the marks
        # nor the bounded integer cache grow with the step count: ten
        # times the steps (9001 and 90001) stay within 1.5 times the memory
        env = dict(os.environ, PYTHONPATH=str(SYSTEMS.parent / "src"))

        def peak(n: int) -> int:
            done = subprocess.run(
                [sys.executable, "-c", PEAK_RSS_SCRIPT,
                 str(SYSTEMS / "iter.lcstrs"), str(n)],
                env=env, capture_output=True, text=True, check=True)
            return int(done.stdout)

        small, large = peak(3000), peak(30000)
        assert large <= 1.5 * small, (small, large)

    def test_the_rule_table_does_not_grow_with_the_terms(self):
        # the table is built from the rules and the theory operators: 3000
        # distinct integer literals and free-variable heads leave it as
        # it was, under both strategies
        system = variable_headed_system()
        compiled = rewrite._compiled(system)
        _, table, variable_headed, constants, _ = compiled

        def size():
            return (len(system.__dict__), len(table),
                    sum(map(len, table.values())), len(variable_headed),
                    len(constants))

        before = size()
        c, = system.signature.lookup("c")
        d, = system.signature.lookup("d")
        steps = 0
        for n in range(3000):
            f = Variable(f"f{n}", arrow(INT_T, INT_T, INT_T))
            term = d.apply(c.apply(int_value(n)), f.apply(
                int_value(-n), theory.ADD.apply(int_value(n), int_value(1))))
            for strategy in ("innermost", "outermost"):
                steps += normalize(term, system, strategy).total_steps
        assert steps == 2 * 3000 * 2
        assert rewrite._compiled(system) is compiled and size() == before


class TestCalcNormalForm:
    def test_paper_step(self, terms):
        t = terms("fact (1 - 1) (comp exit ([*] 1))")
        assert calc_normal_form(t) == terms("fact 0 (comp exit ([*] 1))")

    def test_value_fixed(self):
        assert calc_normal_form(int_value(5)) == int_value(5)

    def test_nested_arithmetic(self, terms):
        assert calc_normal_form(terms("(1 + 2) + (3 + 4)")) == int_value(10)

    def test_unchanged_nodes_are_kept(self, terms):
        # a subtree with nothing to calculate comes back as the same node,
        # with its cached hash; only the path to a calculation is rebuilt
        t = terms("fact (n + 1) (comp exit ([*] (2 * 3)))")
        reduced = calc_normal_form(t)
        assert calc_normal_form(reduced) is reduced
        assert reduced.head is t.head                # fact (n + 1)
        assert reduced.arg is not t.arg
        assert reduced.arg.head is t.arg.head        # comp exit

    def test_size_strictly_decreases(self):
        rng = random.Random(53)
        for _ in range(500):
            t = gen_theory_term(rng, budget=12)
            for _, successor in calc_redexes(t):
                assert successor.size < t.size

    def test_confluence_random_orders(self):
        rng = random.Random(59)
        for _ in range(500):
            t = gen_theory_term(rng, budget=12)
            a = random_calc_normalize(t, random.Random(rng.random()))
            b = random_calc_normalize(t, random.Random(rng.random()))
            assert a == b == calc_normal_form(t)


class TestJoinable:
    def test_one_step(self, terms):
        assert joinable_calc(terms("1 + 1"), terms("2"))

    def test_reflexive(self, terms):
        t = terms("fact n k")
        assert joinable_calc(t, t)

    def test_distinct_normal_forms(self, terms):
        assert not joinable_calc(terms("exit (1 + 1)"), terms("exit 3"))

    def test_terms_of_different_types_are_rejected(self, terms):
        with pytest.raises(LcstrsError) as raised:
            joinable_calc(terms("1"), terms("true"))
        assert str(raised.value) == "joinable_calc: types Int and Bool differ"

    def test_matches_bfs_oracle_on_small_terms(self, fact_system):
        rng = random.Random(61)
        checked = 0
        while checked < 300:
            ty = rng.choice((INT_T, BOOL_T))
            s = gen_theory_term(rng, ty, budget=8)
            t = gen_theory_term(rng, ty, budget=8)
            if s.size > 8 or t.size > 8:
                continue
            checked += 1
            assert joinable_calc(s, t) == joinable_bfs(s, t)

    def test_bfs_oracle_on_mixed_terms(self, fact_system):
        rng = random.Random(67)
        for _ in range(150):
            s = gen_ground_term(rng, fact_system.signature, INT_T, 3)
            t = gen_ground_term(rng, fact_system.signature, INT_T, 3)
            if s.size > 8 or t.size > 8:
                continue
            assert joinable_calc(s, t) == joinable_bfs(s, t)
