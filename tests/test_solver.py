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
    App, BaseType, BOOL_T, INT_T, Substitution, Variable, arrow,
)
from lcstrs.solver import (
    Solver, SolverError, _assignments, _parse_model, compile_constraint,
    to_smtlib,
)
from lcstrs.syntax import parse_system, parse_term
from lcstrs.theory import TheoryError, int_value, interpret, value_symbol

FAKE_SMT = Path(__file__).resolve().parent / "fake_smt.py"
REPO = Path(__file__).resolve().parent.parent


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

    @pytest.mark.parametrize("n", [5, 6])
    def test_the_case_limit_gives_up(self, Q, n):
        # each disjunction of the antecedent doubles the cases: the split
        # of 5 of them ends within REFUTATION_LIMIT iterations, that of 6
        # does not, and the query is left undecided, never taken for Yes
        phi = Q(" /\\ ".join(f"(v{i} = 1 \\/ v{i} = 2)" for i in range(n)))
        psi = Q(" + ".join(f"v{i}" for i in range(n)) + f" >= {n}")
        assert solver_module._refuted(phi, psi, 0) is (n == 5)
        verdict = Solver().entails(phi, psi, phi.free_vars | psi.free_vars)
        assert repr(verdict) == ("Yes" if n == 5 else "Unknown(fast paths "
                                 "inconclusive and no SMT solver configured)")


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
        out.add(term.head)
        for a in term.args:
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
        assert repr(Solver().entails(P(phi), P(psi), bound=bound)) == expected


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


class TestQueryVariables:
    """`entails` and `smt_script` take one variable set, checked alike:
    variables of theory sort that cover both constraints."""

    @pytest.mark.parametrize("method", ["entails", "smt_script"])
    def test_a_variable_of_a_sort_outside_the_theory_is_rejected(
            self, P, method):
        n = Variable("n", BaseType("Nat"))
        with pytest.raises(SolverError) as raised:
            getattr(Solver(), method)(P("true"), P("true"), {n})
        assert str(raised.value) == (
            "entailment variables must be variables of theory sort, "
            "not 'n : Nat'")

    @pytest.mark.parametrize("method", ["entails", "smt_script"])
    def test_a_variable_of_function_type_is_rejected(self, P, method):
        f = Variable("f", arrow(INT_T, INT_T))
        with pytest.raises(SolverError) as raised:
            getattr(Solver(), method)(P("x > 0"), P("x > 1"), {P.ctx["x"], f})
        assert str(raised.value) == (
            "entailment variables must be variables of theory sort, "
            "not 'f : Int -> Int'")

    @pytest.mark.parametrize("method", ["entails", "smt_script"])
    def test_the_variables_must_cover_both_constraints(self, P, method):
        with pytest.raises(SolverError) as raised:
            getattr(Solver(), method)(P("x > 0"), P("y > 0"))
        assert str(raised.value) == (
            "entailment variables must cover both constraints' free "
            "variables: 'y' is missing")


class TestModelReader:
    def test_values_of_both_sorts_and_both_signs(self, P):
        n, m, p = (Variable("n", INT_T), Variable("m", INT_T),
                   Variable("p", BOOL_T))
        text = ("sat\n(\n  (define-fun n () Int (- 5))\n"
                "  (define-fun m () Int 12)\n"
                "  (define-fun p () Bool true)\n)\n")
        assert _parse_model(text, {"n": n, "m": m, "p": p}) == {
            n: -5, m: 12, p: True}
        assert _parse_model("(define-fun p () Bool false)", {"p": p}) == {
            p: False}

    def test_a_quoted_name_is_read_without_its_bars(self):
        v = Variable("a b", INT_T)
        assert _parse_model("((define-fun |a b| () Int (- 7)))",
                            {"a b": v}) == {v: -7}

    def test_a_name_outside_the_query_is_skipped(self):
        n = Variable("n", INT_T)
        text = ("((define-fun k () Int 3)\n"
                " (define-fun n () Int 4))")
        assert _parse_model(text, {"n": n}) == {n: 4}

    def test_a_model_that_is_no_counterexample_is_unknown(self, P):
        # the refutation cannot read n * n, the search finds nothing, and
        # the scripted solver answers sat with n = 0, where psi holds
        solver = Solver(smt_command=fake_smt("zero"))
        psi = P("n * n >= 0")
        verdict = solver.entails(P("true"), psi, psi.free_vars)
        assert repr(verdict) == "Unknown(SMT model did not verify)"


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


def assert_sessions_are_prefixes(solver):
    """One session per distinct (phi, varset, bound) decided, and each
    session's models are the tuples of `_assignments` where phi holds, in
    their order, up to where the search stopped: never longer, never out of
    order."""
    assert set(solver._sessions) == {(r.phi, r.variables, r.bound)
                                     for r in solver.log}
    for (phi, varset, bound), session in solver._sessions.items():
        assert session.variables == sorted(varset, key=lambda v: v.name)
        holds = compile_constraint(phi, session.variables, bound)
        satisfying = [values for values in _assignments(
            session.variables, bound) if holds(values) is True]
        assert session.models == satisfying[:len(session.models)]


class TestSessions:
    """One session per antecedent, variable set and bound: the antecedent
    compiled once, one iterator over the pool and its models cached,
    answering a goal before the refutation runs. Every verdict must be the
    one a fresh solver gives."""

    def test_a_query_at_another_bound_is_decided_at_its_own(self, P):
        # x !> y means x > b /\ x > y: at bound 0 the pool has no
        # counterexample, at bound 5 it has x = 6, y = 0
        x = P.ctx["x"] = Variable("x", INT_T)
        y = P.ctx["y"] = Variable("y", INT_T)
        phi, psi = P("x !> y"), P("x != 6")
        solver = Solver()
        assert solver.entails(phi, psi, {x, y}, 0).is_unknown
        assert repr(solver.entails(phi, psi, {x, y}, 5)) == "No(x=6, y=0)"
        assert repr(Solver().entails(phi, psi, {x, y}, 5)) == "No(x=6, y=0)"
        assert [r.bound for r in solver.log] == [0, 5]
        assert len(solver._sessions) == 2
        assert_sessions_are_prefixes(solver)

    @pytest.mark.parametrize("bound", [-1, 0, 2])
    def test_a_shared_solver_answers_as_fresh_ones(self, bound):
        # the golden corpus, and each phi with three other goals of it
        from test_entails_golden import corpus
        rng = random.Random(2207 + bound)
        queries = [(phi, psi) for phi, psi, _ in corpus()]
        goals = [psi for _, psi in queries]
        queries += [(phi, psi) for phi, _ in queries
                    for psi in rng.sample(goals, 3)]
        rng.shuffle(queries)
        shared = Solver()
        for phi, psi in queries:
            variables = phi.free_vars | psi.free_vars
            assert repr(shared.entails(phi, psi, variables, bound)) == repr(
                Solver().entails(phi, psi, variables, bound)), (phi, psi)
        assert shared.queries == len(set(queries))
        assert len(shared._sessions) < shared.queries

    def test_the_antecedent_is_compiled_once_per_variable_set(
            self, P, monkeypatch):
        phi = P("n > 2 /\\ n < 50")
        m = P.ctx["m"] = Variable("m", INT_T)
        queries = [(P(goal), phi.free_vars) for goal in (
            "n > 3", "n < 10", "n != 5", "n * n < 100", "n = 3", "n !> 7",
            "n + n > 7")]
        queries += [(P(goal), phi.free_vars | {m}) for goal in (
            "n > m", "m < 10", "n < 10")]
        expected = [repr(Solver().entails(phi, psi, variables))
                    for psi, variables in queries]
        compiled = []

        def counting(term, variables, bound):
            compiled.append(term)
            return compile_constraint(term, variables, bound)

        monkeypatch.setattr(solver_module, "compile_constraint", counting)
        solver = Solver()
        assert [repr(solver.entails(phi, psi, variables))
                for psi, variables in queries] == expected
        # once for {n} and once for {n, m}, however many goals were searched
        assert compiled.count(phi) == 2
        assert len(compiled) <= 2 + len(queries)
        monkeypatch.undo()
        assert_sessions_are_prefixes(solver)

    def test_a_no_from_cached_models_needs_no_refutation(self, P,
                                                         monkeypatch):
        refutations = []
        refuted = solver_module._refuted

        def counting(phi, psi, bound):
            refutations.append(psi)
            return refuted(phi, psi, bound)

        monkeypatch.setattr(solver_module, "_refuted", counting)
        solver = Solver()
        phi = P("n > 0 /\\ n < 9")
        m = P.ctx["m"] = Variable("m", INT_T)
        # the pool in product order: 0, 1, -1, 2, -2, 3, ...
        assert repr(solver.entails(phi, P("n > 5"))) == "No(n=1)"
        assert repr(solver.entails(phi, P("n < 3"))) == "No(n=3)"
        assert refutations == [P("n > 5"), P("n < 3")]
        # answered by the models n = 1, 2, 3
        assert repr(solver.entails(phi, P("n != 2"))) == "No(n=2)"
        assert repr(solver.entails(phi, P("n > 1"))) == "No(n=1)"
        assert len(refutations) == 2
        # the same antecedent over another variable set: a session of its own
        assert repr(solver.entails(phi, P("n > 1"), {P.ctx["n"], m})) == \
            "No(m=0, n=1)"
        assert len(refutations) == 3
        # a goal that no model falsifies is refuted, then searched
        assert repr(solver.entails(phi, P("n < 100"))) == "Yes"
        assert repr(solver.entails(phi, P("n < 7"))) == "No(n=7)"
        assert len(refutations) == 5
        assert_sessions_are_prefixes(solver)

    def test_a_no_from_cached_models_rests_on_the_interpreter(
            self, P, monkeypatch):
        # a compiled goal that claims a counterexample at every point
        def lying(term, variables, bound):
            if term is phi:
                return compile_constraint(term, variables, bound)
            return lambda env: False

        monkeypatch.setattr(solver_module, "compile_constraint", lying)
        phi = P("a * b > c /\\ d > 0")
        solver = Solver()
        assert repr(solver.entails(phi, P("d > 1"))) == \
            repr(Solver().entails(phi, P("d > 1")))
        assert solver._sessions[phi, phi.free_vars, 0].models
        # valid, and nonlinear: no cached model may answer it
        assert solver.entails(phi, P("a * b + d > c")).is_unknown
        assert solver.entails(phi, P("d > 0")).is_yes

    def test_the_pinned_corner_after_two_goals_on_its_antecedent(self, P):
        # both earlier goals are refuted by seeded draws; the third goes
        # on from where they stopped, to the corners
        phi = P("a * b + c * d > e /\\ e > 50")
        solver = Solver()
        assert repr(solver.entails(phi, P("e != 100"))) == \
            "No(a=10, b=100, c=1, d=-5, e=100)"
        assert repr(solver.entails(phi, P("b > -10"))) == \
            "No(a=-10, b=-10, c=10, d=2, e=100)"
        session = solver._sessions[phi, phi.free_vars, 0]
        drawn = len(session.models)
        assert repr(solver.entails(phi, P("a > 0 \\/ c > 0"))) == \
            "No(a=-10, b=-10, c=-10, d=-10, e=100)"
        assert drawn < len(session.models)
        assert_sessions_are_prefixes(solver)

    def test_models_are_bounded_by_the_pool(self, P):
        # undecided goals exhaust the pool; asking more keeps one copy
        solver = Solver()
        phi = P("n >= -3 \\/ m > 5")
        goals = ["n * n >= 0", "n * n + m * m >= 0", "n * n != 2",
                 "m * m != 3"]
        for goal in goals * 2:
            assert solver.entails(phi, P(goal)).is_unknown
        session, = solver._sessions.values()
        pool = list(_assignments(session.variables, 0))
        holds = compile_constraint(phi, session.variables, 0)
        assert session.models == [t for t in pool if holds(t)]
        assert len(pool) > len(session.models) > len(pool) // 2
        assert solver.queries == len(goals)
        assert_sessions_are_prefixes(solver)

    def test_threads_sharing_sessions_answer_as_fresh_solvers(self, P):
        # more threads than cores, each asking the same goals on two
        # antecedents in its own order; a goal is falsified at one point of
        # the pool at most (4 is not in it), so the searches are long and
        # go on from each other's stopping points. Every verdict must be a
        # fresh solver's, and the models must stay in the search's order
        rng = random.Random(89)
        values = (-10, -3, 0, 2, 4, 7, 100)
        queries = [(P(phi), P(f"x != {a} \\/ y != {b} \\/ z != {c}"))
                   for phi in ("x + y + 250 > z", "x * y + 10000 >= z")
                   for a, b, c in (rng.choices(values, k=3)
                                   for _ in range(15))]
        expected = {q: repr(Solver().entails(*q, P.ctx.values()))
                    for q in queries}
        shared = Solver()
        start = threading.Barrier(4)
        answers = [{} for _ in range(4)]

        def ask(order, out):
            start.wait()
            for q in order:
                out[q] = repr(shared.entails(*q, P.ctx.values()))

        orders = [random.Random(i).sample(queries, len(queries))
                  for i in range(4)]
        threads = [threading.Thread(target=ask, args=(order, out))
                   for order, out in zip(orders, answers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert answers == [expected] * 4
        assert len(shared._sessions) == 2
        assert_sessions_are_prefixes(shared)

    def test_the_first_entail_cycle_refutes_only_what_models_leave(
            self, monkeypatch, tmp_path, capsys):
        # seed 1 of the benchmark's entail workload: 225 decisions, 121 of
        # them No; a No that a cached model answers is never refuted. The
        # counts are those of perfbench/workloads.py's generator, and a
        # change to the entail workload must count them again. The witness
        # check asks only the entailments its derivations name
        monkeypatch.syspath_prepend(str(REPO / "perfbench"))
        from workloads import cycles
        from lcstrs import cli
        decided, refuted, solvers = [], [], []
        decide, refute = Solver._decide, solver_module._refuted

        def deciding(solver, phi, psi, varset, bound):
            decided.append(decide(solver, phi, psi, varset, bound))
            solvers.append(solver)
            return decided[-1]

        def refuting(*args):
            refuted.append(refute(*args))
            return refuted[-1]

        monkeypatch.setattr(Solver, "_decide", deciding)
        monkeypatch.setattr(solver_module, "_refuted", refuting)
        cycle = next(cycles("entail", 1, str(tmp_path), str(REPO / "systems")))
        for case in cycle:
            assert cli.main(case.argv) in (0, 2)
        capsys.readouterr()
        assert len(decided) == 225
        assert sum(v.is_no for v in decided) == 121
        assert len(refuted) <= 147
        for solver in dict.fromkeys(solvers):
            assert_sessions_are_prefixes(solver)
