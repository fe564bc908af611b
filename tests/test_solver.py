"""Entailment verdicts, the SMT-LIB translation, and the process interface."""

import random
import sys
import threading
from pathlib import Path

import pytest

from helpers import BOOL_VARS, INT_VARS, all_read_system, with_variables
from lcstrs import prover, theory
from lcstrs import solver as solver_module
from lcstrs.core import (
    App, BOOL_T, INT_T, Substitution, Variable,
)
from lcstrs.solver import Solver, SolverError, compile_constraint, to_smtlib
from lcstrs.syntax import parse_system, parse_term
from lcstrs.theory import TheoryError, int_value, interpret, value_symbol

FAKE_SMT = Path(__file__).resolve().parent / "fake_smt.py"


def fake_smt(mode: str) -> str:
    return f"{sys.executable} {FAKE_SMT} {mode}"


@pytest.fixture
def P(fact_system):
    ctx = {}

    def parse(text):
        return parse_term(text, fact_system, ctx)
    parse.ctx = ctx
    return parse


class TestEvalGround:
    def test_comparisons(self, P):
        assert interpret(P("1 <= 0")) is False
        assert interpret(P("1 > 0")) is True

    def test_ordering_expansion(self, P):
        assert interpret(P("(3 !> 1) /\\ true")) is True

    def test_non_ground_rejected(self, P):
        with pytest.raises(TheoryError):
            interpret(P("n > 0"))


class TestFastPaths:
    def test_strict_ordering_goal(self, P):
        assert Solver().entails(P("n > 0"), P("n !> (n - 1)")).is_yes

    def test_weak_ordering_goal(self, P):
        assert Solver().entails(P("n > 0"), P("n !>= (n - 1)")).is_yes

    def test_trivial(self, P):
        assert Solver().entails(P("true"), P("true")).is_yes

    def test_reflexive_weak_instance(self, P):
        assert Solver().entails(P("n > 0"), P("n !>= n")).is_yes

    def test_conjunct_of_antecedent(self, P):
        verdict = Solver().entails(P("n > 0 /\\ n < 7"), P("n < 7"))
        assert verdict.is_yes

    def test_premise_used_twice(self, fact_system):
        ctx = {}
        phi = parse_term("z - x < 3", fact_system, ctx)
        psi = parse_term("z - x + (z - x) < 3 + 3", fact_system, ctx)
        assert Solver().entails(phi, psi).is_yes

    def test_premise_literal_inside_a_disjunction(self, fact_system):
        ctx = {v: Variable(v, BOOL_T) for v in "abc"}
        phi = parse_term("a \\/ b", fact_system, ctx)
        psi = parse_term("(a \\/ b) \\/ c", fact_system, ctx)
        assert Solver().entails(phi, psi, variables=psi.free_vars).is_yes

    @pytest.mark.parametrize("goal", ["p !>= p", "false !>= false",
                                      "x * y !>= x * y"])
    def test_reflexive_weak_ordering_on_both_sorts(self, fact_system, goal):
        ctx = {"p": Variable("p", BOOL_T)}
        phi = parse_term("n > 0", fact_system, ctx)
        psi = parse_term(goal, fact_system, ctx)
        variables = phi.free_vars | psi.free_vars
        assert Solver().entails(phi, psi, variables).is_yes

    def test_linear_combination(self):
        # two-premise combination: a > 0 and b > 0 entail a + b > 1
        a = Variable("a", INT_T)
        b = Variable("b", INT_T)
        phi = theory.AND.apply(theory.GT.apply(a, int_value(0)),
                               theory.GT.apply(b, int_value(0)))
        psi = theory.GT.apply(theory.ADD.apply(a, b), int_value(1))
        assert Solver().entails(phi, psi).is_yes

    def test_counterexample_found_and_verified(self, P):
        verdict = Solver().entails(P("n <= 0"), P("n !> 0"))
        assert verdict.is_no
        (var, value), = verdict.counterexample.items()
        assert var.name == "n"
        sigma = Substitution({var: value_symbol(value)})
        assert interpret(sigma.apply(P("n <= 0"))) is True
        assert interpret(sigma.apply(P("n !> 0"))) is False

    def test_ground_queries_never_unknown(self):
        rng = random.Random(71)
        from helpers import gen_theory_term
        solver = Solver()
        for _ in range(300):
            phi = gen_theory_term(rng, theory.BOOL_T, budget=9)
            psi = gen_theory_term(rng, theory.BOOL_T, budget=9)
            verdict = solver.entails(phi, psi)
            assert not verdict.is_unknown

    def test_unknown_when_inconclusive_without_smt(self, P):
        # valid but nonlinear: no fast path applies, no counterexample exists
        phi = P("true")
        psi = P("n * n >= 0")
        verdict = Solver().entails(phi, psi, variables=psi.free_vars)
        assert verdict.is_unknown

    def test_variable_cover_precondition(self, P):
        with pytest.raises(SolverError):
            Solver().entails(P("true"), P("m > 0"), variables=())

    def test_extended_variable_set(self, P):
        # m is not in the antecedent: the claim must hold for every value
        verdict = Solver().entails(P("n > 0"), P("m !>= m"),
                                   variables=(P.ctx["n"], P.ctx["m"]))
        assert verdict.is_yes
        verdict = Solver().entails(P("n > 0"), P("m !> 0"),
                                   variables=(P.ctx["n"], P.ctx["m"]))
        assert verdict.is_no

    def test_cache_transparency(self, P):
        solver = Solver()
        first = solver.entails(P("n > 0"), P("n !> (n - 1)"))
        second = solver.entails(P("n > 0"), P("n !> (n - 1)"))
        fresh = Solver().entails(P("n > 0"), P("n !> (n - 1)"))
        assert first.is_yes and second.is_yes and fresh.is_yes
        assert solver.queries == 1  # second call served from cache

    def test_cache_key_is_terms_and_variable_set(self, P):
        solver = Solver()
        phi, psi = P("n > 0"), P("n !> (n - 1)")
        n, m = P.ctx["n"], Variable("m", INT_T)
        assert solver.entails(phi, psi).is_yes
        # equal terms built apart hit the cache
        assert solver.entails(P("n > 0"), P("n !> (n - 1)"), {n}).is_yes
        assert solver.queries == 1
        # a larger variable set is a different query
        assert solver.entails(phi, psi, {n, m}).is_yes
        assert solver.queries == 2


class TestRefutation:
    """What the case split and the elimination over the integers prove
    without an SMT solver, and what happens past their bound."""

    @pytest.fixture
    def Q(self, fact_system):
        ctx = {"p": Variable("p", BOOL_T), "q": Variable("q", BOOL_T)}
        return lambda text: parse_term(text, fact_system, ctx)

    @pytest.mark.parametrize("phi, psi", [
        ("x != y", "2 * x != 2 * y"),           # a scaled `!=` premise
        ("(-1) = y + y", "false"),              # no integer is -1/2
        ("true", "5 - z != z"),                 # nor 5/2
        ("not true", "not q"),                  # the antecedent is false
        ("p", "not false"),
        ("x > 2 /\\ y <= 3", "x !>= y"),        # x = y = 3 or x > y
    ])
    def test_valid_without_smt(self, Q, phi, psi):
        phi, psi = Q(phi), Q(psi)
        verdict = Solver().entails(phi, psi, phi.free_vars | psi.free_vars)
        assert verdict.is_yes

    @pytest.mark.parametrize("valid", [True, False])
    def test_more_cases_than_the_limit(self, Q, valid):
        # each `!=` of the negated goal doubles the cases: 2^8 or 2^7 of
        # them, more than REFUTATION_LIMIT
        values = range(8) if valid else (0, 1, 2, 3, 4, 6, 7)
        phi = Q("0 <= x /\\ x <= 7")
        psi = Q(" \\/ ".join(f"x = {v}" for v in values))
        assert 2 ** len(values) > solver_module.REFUTATION_LIMIT
        verdict = Solver().entails(phi, psi)
        if valid:
            assert not verdict.is_no
        else:
            assert repr(verdict) == "No(x=5)"


class TestSoundnessSampling:
    def test_yes_verdicts_never_falsified(self, P):
        solver = Solver()
        queries = [
            (P("n > 0"), P("n !> (n - 1)")),
            (P("n > 0"), P("n !>= (n - 1)")),
            (P("n > 0 /\\ n < 7"), P("n < 7")),
            (P("n >= 3"), P("n > 1")),
            (P("true"), P("true")),
        ]
        rng = random.Random(73)
        for phi, psi in queries:
            assert solver.entails(phi, psi).is_yes
            variables = sorted(phi.free_vars | psi.free_vars,
                               key=lambda v: v.name)
            for _ in range(1000):
                sigma = Substitution({
                    v: value_symbol(rng.randint(-50, 50)) for v in variables})
                if interpret(sigma.apply(phi)) is True:
                    assert interpret(sigma.apply(psi)) is True


ALL_OPERATORS = {
    theory.ADD, theory.SUB, theory.MUL, theory.LE, theory.LT, theory.GE,
    theory.GT, theory.EQ, theory.NE, theory.AND, theory.OR, theory.NOT,
    theory.SUP_INT, theory.SUPEQ_INT, theory.SUP_BOOL, theory.SUPEQ_BOOL,
}


def _heads(term, out):
    if isinstance(term, App):
        head, args = term.spine()
        out.add(head)
        for a in args:
            _heads(a, out)
    return out


class TestCompiledConstraints:
    def test_agrees_with_interpret(self):
        from helpers import gen_theory_term
        rng = random.Random(79)
        variables = INT_VARS + BOOL_VARS
        seen = set()
        for i in range(2400):
            term = with_variables(
                rng, gen_theory_term(rng, budget=rng.randint(5, 25)))
            _heads(term, seen)
            bound = (-2, 0, 3)[i % 3]
            compiled = compile_constraint(term, variables, bound)
            for _ in range(2):
                env = tuple(rng.randint(-12, 12) for _ in INT_VARS) + \
                    tuple(rng.random() < 0.5 for _ in BOOL_VARS)
                sigma = Substitution({
                    v: value_symbol(val) for v, val in zip(variables, env)})
                expected = interpret(sigma.apply(term), bound)
                got = compiled(env)
                # type too: True == 1 in Python
                assert (type(got), got) == (type(expected), expected), term
                assigned = interpret(term, bound, dict(zip(variables, env)))
                assert (type(assigned), assigned) == \
                    (type(expected), expected), term
        assert seen >= ALL_OPERATORS

    def test_refutations_rest_on_the_interpreter(self, P, monkeypatch):
        # a compiler that claims a counterexample for every assignment
        def lying(term, variables, bound):
            holds = term is phi
            return lambda env: holds

        monkeypatch.setattr(solver_module, "compile_constraint", lying)
        # valid, nonlinear: only the search (stage 3) is left to decide it
        phi = P("a * b > c /\\ d > 0")
        psi = P("a * b + d > c")
        assert Solver().entails(phi, psi).is_unknown
        phi, psi = P("x >= 3"), P("x > 5")
        verdict = Solver().entails(phi, psi)
        assert repr(verdict) == "No(x=3)"
        sigma = Substitution({
            v: value_symbol(val) for v, val in verdict.counterexample.items()})
        assert interpret(sigma.apply(phi)) is True
        assert interpret(sigma.apply(psi)) is False

    @pytest.mark.parametrize("phi, psi, bound, expected", [
        # exhaustive enumeration, in itertools.product order
        ("x >= 3", "x > 5", 0, "No(x=3)"),
        ("x >= 3", "x !> 5", 3, "No(x=3)"),
        ("(p \\/ x > 2) /\\ y < 2", "p !> (x > y)", 0,
         "No(p=False, x=3, y=0)"),
        # 13^5 assignments exceed SEARCH_LIMIT: seeded random draws
        ("a + b + c + d + e > 150", "a > 50 \\/ b > 50", 0,
         "No(a=2, b=2, c=100, d=-1, e=100)"),
        # no seeded draw refutes it: the first corner after them does
        ("a * b + c * d > e /\\ e > 50", "a > 0 \\/ c > 0", 0,
         "No(a=-10, b=-10, c=-10, d=-10, e=100)"),
    ])
    def test_first_counterexample_is_pinned(self, P, phi, psi, bound,
                                            expected):
        assert repr(Solver(bound=bound).entails(P(phi), P(psi))) == expected


class TestSmtTranslation:
    def test_simple_comparison(self, P):
        assert to_smtlib(P("n > 0")) == "(> n 0)"

    def test_ordering_expansion(self, P):
        assert to_smtlib(P("n !> (n - 1)")) == "(and (> n 0) (> n (- n 1)))"
        assert to_smtlib(P("n !> (n - 1)"), bound=2) == \
            "(and (> n 2) (> n (- n 1)))"

    def test_weak_ordering_expansion(self, P):
        assert to_smtlib(P("n !>= m")) == \
            "(or (= n m) (and (> n 0) (> n m)))"

    def test_boolean_ordering_expansion(self, fact_system):
        ctx = {"a": Variable("a", BOOL_T), "b": Variable("b", BOOL_T)}
        t = parse_term("a !> b", fact_system, ctx)
        assert to_smtlib(t) == "(and a (not b))"

    def test_reflexive_weak_ordering_is_true(self, P):
        assert to_smtlib(P("n !>= n")) == "true"

    @pytest.mark.parametrize("text, bound, expected", [
        ("not (p !> q) \\/ (p !>= (x !> y))", 0,
         "(or (not (and p (not q))) (or p (not (and (> x 0) (> x y)))))"),
        ("(p !> q) !>= (x !>= y)", -2,
         "(or (and p (not q)) (not (or (= x y) (and (> x (- 2)) (> x y)))))"),
        ("(x !>= x) /\\ (p !>= p)", 0, "(and true true)"),
    ])
    def test_nested_and_negated_orderings(self, fact_system, text, bound,
                                          expected):
        ctx = {name: Variable(name, INT_T) for name in "xy"}
        ctx.update({name: Variable(name, BOOL_T) for name in "pq"})
        t = parse_term(text, fact_system, ctx)
        assert to_smtlib(t, bound) == expected

    def test_true_literal(self, P):
        assert to_smtlib(P("true")) == "true"

    def test_long_sum_does_not_recurse(self):
        x = Variable("x", INT_T)
        one = theory.int_value(1)
        total = x
        for _ in range(2999):
            total = theory.ADD.apply(total, one)
        text = to_smtlib(theory.GT.apply(total, theory.int_value(0)))
        assert text == "(> " + "(+ " * 2999 + "x" + " 1)" * 2999 + " 0)"

    def test_negative_literal(self, P):
        assert to_smtlib(P("n > (-5)")) == "(> n (- 5))"

    def test_connectives_and_distinct(self, P):
        t = P("n != 0 \\/ not (n >= 2)")
        assert to_smtlib(t) == "(or (distinct n 0) (not (>= n 2)))"

    def test_golden_script(self, P, fact_system):
        golden = Path(__file__).parent / "golden" / "rule4_strict.smt2"
        script = Solver().smt_script(P("n > 0"), P("n !> (n - 1)"))
        assert script == golden.read_text()

    def test_non_constraint_rejected(self, P):
        with pytest.raises(SolverError):
            to_smtlib(P("1 + 1"))


class TestExternalSolver:
    def test_unsat_means_yes(self, P):
        solver = Solver(smt_command=fake_smt("unsat"))
        phi = P("true")
        psi = P("n * n >= 0")
        assert solver.entails(phi, psi, variables=psi.free_vars).is_yes

    def test_sat_model_means_verified_no(self, P, monkeypatch):
        # falsifiable nonlinear query: the linear fast path cannot decide it
        monkeypatch.setattr(solver_module, "SEARCH_LIMIT", 0)
        solver = Solver(smt_command=fake_smt("eval"))
        phi = P("true")
        psi = P("n * n > n")
        verdict = solver.entails(phi, psi, variables=psi.free_vars)
        assert verdict.is_no
        (var, value), = verdict.counterexample.items()
        assert value * value <= value

    def test_unknown_answer(self, P):
        solver = Solver(smt_command=fake_smt("unknown"))
        psi = P("n * n >= 0")
        assert solver.entails(P("true"), psi, variables=psi.free_vars).is_unknown

    def test_garbage_answer(self, P):
        solver = Solver(smt_command=fake_smt("garbage"))
        psi = P("n * n >= 0")
        assert solver.entails(P("true"), psi, variables=psi.free_vars).is_unknown

    def test_timeout_maps_to_unknown(self, P, monkeypatch):
        monkeypatch.setattr(solver_module, "SMT_TIMEOUT", 0.5)
        solver = Solver(smt_command=fake_smt("hang"))
        psi = P("n * n >= 0")
        assert solver.entails(P("true"), psi, variables=psi.free_vars).is_unknown

    def test_missing_binary_maps_to_unknown(self, P):
        solver = Solver(smt_command="/no/such/solver --flags")
        psi = P("n * n >= 0")
        assert solver.entails(P("true"), psi, variables=psi.free_vars).is_unknown

    def test_backend_never_flips_fast_path_verdicts(self, P):
        # the fake backend would answer garbage; fast paths decide first
        with_smt = Solver(smt_command=fake_smt("garbage"))
        without = Solver()
        cases = [
            (P("n > 0"), P("n !> (n - 1)")),
            (P("n <= 0"), P("n !> 0")),
            (P("n > 0 /\\ n < 7"), P("n < 7")),
        ]
        for phi, psi in cases:
            a = without.entails(phi, psi)
            b = with_smt.entails(phi, psi)
            assert (a.is_yes, a.is_no) == (b.is_yes, b.is_no)

    def test_nonlinear_sat_via_eval_backend_on_mixed_sorts(self, fact_system,
                                                           monkeypatch):
        ctx = {"a": Variable("a", BOOL_T), "n": Variable("n", INT_T)}
        phi = parse_term("a \\/ n > 35", fact_system, ctx)
        psi = parse_term("a /\\ n * n > 0", fact_system, ctx)
        monkeypatch.setattr(solver_module, "SEARCH_LIMIT", 0)
        solver = Solver(smt_command=fake_smt("eval"))
        verdict = solver.entails(phi, psi, variables=ctx.values())
        assert verdict.is_no


class TestQueryLog:
    def test_log_keeps_one_record_per_distinct_query(self, P):
        solver = Solver()
        solver.entails(P("n > 0"), P("n !> (n - 1)"))
        solver.entails(P("n > 0"), P("n !> (n - 1)"))
        assert len(solver.log) == solver.queries == 1
        record, = solver.log
        assert record.phi == P("n > 0") and record.verdict.is_yes
        assert record.variables == frozenset({P.ctx["n"]})

    def test_log_is_a_live_view_in_first_asked_order(self, P):
        solver = Solver()
        log = solver.log
        solver.entails(P("n > 0"), P("n !> (n - 1)"))
        solver.entails(P("n >= 3"), P("n > 1"))
        solver.entails(P("n > 0"), P("n !> (n - 1)"))
        assert [r.psi for r in log] == [P("n !> (n - 1)"), P("n > 1")]
        assert not hasattr(log, "append")

    def test_log_of_a_search_is_bounded_by_distinct_queries(self,
                                                            monkeypatch):
        # 3^4 precedence searches ask the same two entailments
        solvers = []

        def recording(**kwargs):
            solvers.append(Solver(**kwargs))
            return solvers[-1]

        monkeypatch.setattr(prover, "Solver", recording)
        report = prover.find_witness(parse_system(all_read_system(4)))
        assert report.searched == 3 ** 4
        assert [(len(s.log), s.queries) for s in solvers] == [(2, 2)]

    def test_a_solver_shared_between_threads_keeps_one_record(self):
        # two threads ask the same distinct queries in opposite orders
        from helpers import gen_theory_term
        rng = random.Random(83)
        queries = {}
        while len(queries) < 200:
            phi, psi = (with_variables(rng, gen_theory_term(
                rng, theory.BOOL_T, budget=rng.randint(5, 13))) for _ in range(2))
            queries[phi, psi] = None
        queries = list(queries)
        alone = Solver()
        expected = {q: repr(alone.entails(*q, q[0].free_vars | q[1].free_vars))
                    for q in queries}
        shared = Solver()
        start = threading.Barrier(2)
        answers = [{}, {}]

        def ask(order, out):
            start.wait()
            for q in order:
                out[q] = repr(shared.entails(
                    *q, q[0].free_vars | q[1].free_vars))

        threads = [threading.Thread(target=ask, args=(order, out)) for
                   order, out in zip((queries, queries[::-1]), answers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            sys.setswitchinterval(interval)
        assert answers == [expected, expected]
        assert shared.queries == len(shared.log) == 200
