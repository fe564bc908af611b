"""The path ordering: relation examples, extensions, orientation, replay."""

import itertools
import random

import pytest

from helpers import (
    dershowitz_manna_gt, multisets_up_to, product_scan_cover,
    repeated_system,
)
from lcstrs import horpo, theory
from lcstrs.core import BOOL_T, INT_T, LcstrsError, Rule, Variable, arrow
from lcstrs.horpo import (
    LEX, Horpo, HorpoParams, Mul, multiset_extension_search,
)
from lcstrs.solver import Solver
from lcstrs.syntax import parse_system, parse_term, print_term
from lcstrs.theory import int_value


def derivation_cases(derivation: dict) -> set[str]:
    """The case of every node of a derivation document."""
    cases, stack = set(), [derivation]
    while stack:
        node = stack.pop()
        cases.add(node["case"])
        stack.extend(node.get("children", ()))
    return cases


@pytest.fixture
def witness_params(fact_system):
    sig = fact_system.signature
    init, fact, comp, exit_ = (sig.lookup(n)[0]
                               for n in ("init", "fact", "comp", "exit"))
    return HorpoParams(
        precedence=[(init, fact), (fact, comp), (init, exit_)],
        status={fact: LEX}, bound=0)


@pytest.fixture
def engine(witness_params):
    return Horpo(witness_params)


@pytest.fixture
def under(witness_params):
    """An engine comparing under `phi` and its variables, or `cvars`."""
    def build(phi, cvars=None):
        return Horpo(witness_params, None, phi,
                     phi.free_vars if cvars is None else cvars)
    return build


@pytest.fixture
def T(fact_system):
    ctx = {"n": Variable("n", INT_T), "m": Variable("m", INT_T),
           "k": Variable("k", arrow(INT_T, INT_T))}

    def parse(text):
        return parse_term(text, fact_system, ctx)
    parse.ctx = ctx
    return parse


class TestParams:
    def test_cycle_rejected(self, fact_system):
        sig = fact_system.signature
        init, fact = sig.lookup("init")[0], sig.lookup("fact")[0]
        with pytest.raises(LcstrsError):
            HorpoParams(precedence=[(init, fact), (fact, init)])

    def test_self_edge_rejected(self, fact_system):
        init = fact_system.signature.lookup("init")[0]
        with pytest.raises(LcstrsError):
            HorpoParams(precedence=[(init, init)])

    def test_theory_edge_rejected(self, fact_system):
        init = fact_system.signature.lookup("init")[0]
        with pytest.raises(LcstrsError):
            HorpoParams(precedence=[(init, theory.ADD)])

    def test_non_theory_above_theory(self, witness_params, fact_system):
        fact = fact_system.signature.lookup("fact")[0]
        assert witness_params.prec_gt(fact, theory.ADD)
        assert witness_params.prec_gt(fact, int_value(1))
        assert not witness_params.prec_gt(theory.ADD, fact)
        assert not witness_params.prec_gt(theory.ADD, theory.MUL)

    def test_transitive_closure(self, witness_params, fact_system):
        sig = fact_system.signature
        init, comp = sig.lookup("init")[0], sig.lookup("comp")[0]
        assert witness_params.prec_gt(init, comp)  # via fact

    def test_mul_status_needs_k_at_least_two(self):
        with pytest.raises(LcstrsError):
            Mul(1)



class TestGeq:
    def test_theory_entailment(self, under, T):
        j = under(T("n > 0")).geq(T("n"), T("n - 1"))
        assert j is not None and j.case == "geq:theory"

    def test_ground_reflexive(self, engine, T):
        t = T("exit 1")
        j = engine.geq(t, t)
        assert j is not None and j.case == "geq:calc-join"
        one = int_value(1)
        assert engine.geq(one, one) is not None

    def test_higher_typed_variable_reflexive(self, engine, T):
        T("fact n k")
        j = engine.geq(T("k"), T("k"))
        assert j is not None and j.case == "geq:calc-join"

    def test_type_mismatch_raises(self, engine, T):
        with pytest.raises(LcstrsError):
            engine.geq(T("exit"), T("1"))

    def test_unknown_entailment_falls_through_to_later_cases(self, T):
        phi = T("n > 0")
        engine = Horpo(HorpoParams(), None, phi, phi.free_vars)
        s = T("n * n + (1 - 1)")
        t = T("n * n + 0")
        j = engine.geq(s, t)
        assert j is not None and j.case == "geq:calc-join"
        assert engine.unknowns  # the semantic case was tried and gave up


class TestGt:
    def test_theory_strict(self, under, T):
        j = under(T("n > 0")).gt(T("n"), T("n - 1"))
        assert j is not None and j.case == "gt:theory"

    def test_structural_descent(self, under, T):
        j = under(T("n <= 0")).gt(T("fact n k"), T("k 1"))
        assert j is not None and j.case == "gt:descent"

    def test_ground_strict_fails_upward(self, engine, T):
        assert engine.gt(T("1"), T("2")) is None

    def test_same_head_argument_comparison(self, engine, T):
        j = engine.gt(T("fact (n + 1) k"), T("fact n k"))
        assert j is None  # n + 1 above n is not entailed by `true`
        j = engine.gt(T("fact 3 exit"), T("fact 2 exit"))
        assert j is not None

    def test_variable_head_argument_comparison(self, engine, T):
        j = engine.gt(T("k (fact 3 exit)"), T("k (fact 2 exit)"))
        assert j is not None and j.case == "gt:args-var"

    def test_variable_head_over_theory_arguments_fails(self, engine, T):
        # k 3 is a theory term, so the structural cases do not apply, and
        # its head variable is outside the constraint's variables
        assert engine.gt(T("k 3"), T("k 1")) is None

    def test_gt_implies_geq(self, under, T):
        cases = [(T("n"), T("n - 1"), T("n > 0")),
                 (T("fact n k"), T("k 1"), T("n <= 0")),
                 (T("fact 3 exit"), T("fact 2 exit"), T("true"))]
        for s, t, phi in cases:
            engine = under(phi)
            assert engine.gt(s, t) is not None
            assert engine.geq(s, t) is not None


class TestRpo:
    def test_recursive_rule_lex(self, under, T):
        j = under(T("n > 0")).rpo(T("fact n k"),
                                  T("fact (n - 1) (comp k ([*] n))"))
        assert j is not None

        def lex_nodes(node):
            if node.relation == "lex":
                yield node
            for child in node.children:
                yield from lex_nodes(child)

        # the derivation hinges on a lexicographic comparison whose first
        # position is strict (n above n - 1 under n > 0)
        lex = next(lex_nodes(j), None)
        assert lex is not None and lex.data == 0

    def test_lex_status_required_for_recursive_rule(self, fact_system, T):
        sig = fact_system.signature
        init, fact, comp, exit_ = (sig.lookup(n)[0]
                                   for n in ("init", "fact", "comp", "exit"))
        mul_params = HorpoParams(
            [(init, fact), (fact, comp), (init, exit_)], {fact: Mul(2)}, 0)
        phi = T("n > 0")
        engine = Horpo(mul_params, None, phi, phi.free_vars)
        assert engine.rpo(T("fact n k"),
                          T("fact (n - 1) (comp k ([*] n))")) is None

    def test_precedence_leaf(self, engine, T):
        j = engine.rpo(T("init"), T("exit"))
        assert j is not None and j.case == "rpo:precedence"

    def test_subterm_case(self, under, T):
        T("fact n k")
        j = under(T("n <= 0")).rpo(T("fact n k"), T("k"))
        assert j is not None and j.case == "rpo:subterm"

    def test_theory_lhs_fails_immediately(self, engine, T):
        assert engine.rpo(T("n + 1"), T("n")) is None

    def test_variable_headed_lhs_fails(self, engine, T):
        T("fact n k")
        assert engine.rpo(T("k 1"), T("k")) is None

    def test_value_and_constrained_variable_base(self, engine, under, T):
        j = engine.rpo(T("init"), T("42"))
        assert j is not None
        cvars = frozenset({T.ctx.setdefault("n", Variable("n", INT_T))})
        j = under(T("true"), cvars).rpo(T("init"), T("n"))
        assert j is not None and j.case == "rpo:base"
        assert engine.rpo(T("init"), T("n")) is None


class TestLexExt:
    def test_rule_four_argument_lists(self, under, T):
        j = under(T("n > 0")).lex_ext([T("n"), T("k")],
                                      [T("n - 1"), T("comp k ([*] n)")])
        assert j is not None and j.data == 0

    def test_no_strict_position(self, engine, T):
        assert engine.lex_ext([T("n")], [T("n")]) is None

    def test_earlier_failure_blocks(self, engine, T):
        T("fact n k")
        ss = [T("n"), T("k")]
        ts = [T("n"), T("comp k ([*] n)")]
        # position 1 admits neither a strict nor a weak comparison, so even
        # a later strict pair would not help; here there is none anyway
        assert engine.lex_ext(ss, ts) is None

    def test_blocking_even_with_later_strict_pair(self, engine, T):
        k2 = Variable("k2", arrow(INT_T, INT_T))
        ss = [T("k"), T("3")]
        ts = [k2, T("1")]
        # unrelated variables at position 0 block the strict pair behind them
        assert engine.lex_ext(ss, ts) is None
        assert engine.gt(T("3"), T("1")) is not None


class TestMulExt:
    def test_double_cover(self, engine, T):
        j = engine.mul_ext([T("3"), T("1")], [T("2"), T("2")])
        assert j is not None
        pi, strict = j.data
        assert pi == (0, 0) and strict == frozenset({0})

    def test_all_weak_is_not_strict_enough(self, engine, T):
        assert engine.mul_ext([T("1"), T("2")], [T("1"), T("2")]) is None

    def test_source_surplus(self, engine, T):
        j = engine.mul_ext([T("2"), T("1")], [T("1")])
        assert j is not None
        pi, strict = j.data
        # verify the returned witness satisfies the cover conditions
        ss, ts = [T("2"), T("1")], [T("1")]
        for jdx, idx in enumerate(pi):
            if idx in strict:
                assert engine.gt(ss[idx], ts[jdx]) is not None
            else:
                assert engine.geq(ss[idx], ts[jdx]) is not None
        assert strict or len(ss) > len(ts)

    def test_empty_sources(self, engine, T):
        assert engine.mul_ext([], [T("1")]) is None
        assert engine.mul_ext([], []) is None
        assert engine.mul_ext([T("1")], []) is not None

    def test_search_matches_brute_force_oracle_quick(self):
        universe = (0, 1, 2, 3)
        multisets = multisets_up_to(3, universe)
        gt_fn = lambda a, b: a > b
        geq_fn = lambda a, b: a >= b
        for ms, ns in itertools.product(multisets, repeat=2):
            found = multiset_extension_search(
                len(ms), len(ns),
                lambda i, j: gt_fn(ms[i], ns[j]),
                lambda i, j: geq_fn(ms[i], ns[j]))
            expected = dershowitz_manna_gt(ms, ns, gt_fn)
            assert (found is not None) == expected, (ms, ns)

    def test_search_returns_the_product_scans_first_cover(self):
        # seeded random oracles of every size m, n in 0..5, m = 0 and
        # n = 0 included; `gt` and `geq` are drawn apart, so `gt` need not
        # imply `geq`. The pruned search must return the very (pi, S) of
        # the scan it replaced
        rng = random.Random(33)
        sizes, covers, gt_not_geq = set(), 0, 0
        for _ in range(3000):
            m, n = rng.randint(0, 5), rng.randint(0, 5)
            p_gt, p_geq = rng.random(), rng.random()
            pairs = list(itertools.product(range(m), range(n)))
            gt = {pair: rng.random() < p_gt for pair in pairs}
            geq = {pair: rng.random() < p_geq for pair in pairs}
            found = multiset_extension_search(
                m, n, lambda i, j: gt[i, j], lambda i, j: geq[i, j])
            assert found == product_scan_cover(
                m, n, lambda i, j: gt[i, j], lambda i, j: geq[i, j]), \
                (m, n, gt, geq)
            sizes.add((m, n))
            covers += found is not None
            gt_not_geq += any(gt[p] and not geq[p] for p in pairs)
        assert sizes == set(itertools.product(range(6), repeat=2))
        assert 1000 < covers < 2000 and gt_not_geq > 1000


class TestOrientRule:
    def test_all_factorial_rules(self, fact_system, witness_params):
        for rule in fact_system.rules:
            engine = Horpo(witness_params)
            assert engine.orient_rule(rule) is not None, print_term(rule.lhs)

    def test_fresh_variable_handled_by_extension(self, fact_system,
                                                 witness_params):
        rule = fact_system.rules[0]  # init -> fact n exit [true]
        j = Horpo(witness_params).orient_rule(rule)
        assert j is not None
        # n is covered as a constrained variable
        assert "rpo:base" in derivation_cases(j.to_dict(rule.constraint))

    def test_identity_rule_fails(self, fact_system, witness_params, T):
        t = T("fact n k")
        rule = Rule(t, t, T("true"))
        assert Horpo(witness_params).orient_rule(rule) is None


class TestJudgments:
    def test_replay(self, fact_system, witness_params):
        # every node of a derivation re-derives, by the same case, in a
        # fresh engine under the rule's context asked the relation the
        # node names
        for rule in fact_system.rules:
            engine = Horpo(witness_params, None, rule.constraint,
                           rule.logical_vars)
            relations = {"geq": engine.geq, "gt": engine.gt,
                         "rpo": engine.rpo, "lex": engine.lex_ext,
                         "mul": engine.mul_ext}
            stack = [Horpo(witness_params).orient_rule(rule)]
            while stack:
                j = stack.pop()
                got = relations[j.relation](j.lhs, j.rhs)
                assert got is not None and got.case == j.case, \
                    j.to_dict(rule.constraint)
                stack.extend(j.children)

    def test_same_type_discipline(self, fact_system, witness_params):
        def walk(j):
            if j.relation in ("geq", "gt"):
                assert j.lhs.type == j.rhs.type
            for c in j.children:
                walk(c)
        for rule in fact_system.rules:
            walk(Horpo(witness_params).orient_rule(rule))

    def test_serialization_shape(self, fact_system, witness_params):
        rule = fact_system.rules[3]
        d = Horpo(witness_params).orient_rule(rule).to_dict(rule.constraint)
        assert d["relation"] == "gt"
        assert "children" in d and d["case"] == "gt:descent"
        assert {"rpo:lex", "gt:theory"} <= derivation_cases(d)

    def test_memoization_stable(self, under, T):
        engine = under(T("n <= 0"))
        first = engine.gt(T("fact n k"), T("k 1"))
        second = engine.gt(T("fact n k"), T("k 1"))
        assert first is second


class TestDeadline:
    @staticmethod
    def orientation(n: int):
        """The rule of `f x .. x` at n arguments, and the parameters that
        give f mul(n): its multiset search asks about n * 2^(n+1)
        comparisons, all of them of a handful of distinct ones."""
        system = parse_system(repeated_system(n))
        f, = system.signature.lookup("f")
        return system.rules[0], HorpoParams(status={f: Mul(n)})

    def test_a_passed_deadline_stops_one_orientation(self, monkeypatch):
        rule, params = self.orientation(12)
        reads = []
        monkeypatch.setattr(horpo.time, "monotonic",
                            lambda: reads.append(None) or 1.0)
        engine = Horpo(params, Solver(deadline=0.5))
        with pytest.raises(horpo._Expired):
            engine.orient_rule(rule)
        # the first read of the clock, after CLOCK_EVERY comparisons, ends it
        assert len(reads) == 1
        assert engine._asked == horpo.CLOCK_EVERY
        assert len(engine._memo) < horpo.CLOCK_EVERY

    def test_clock_reads_are_clock_every_comparisons_apart(self,
                                                           monkeypatch):
        rule, params = self.orientation(12)
        reads = []
        monkeypatch.setattr(horpo.time, "monotonic",
                            lambda: reads.append(None) or 0.0)
        engine = Horpo(params, Solver(deadline=0.5))
        assert engine.orient_rule(rule) is None
        assert engine._asked > 100 * horpo.CLOCK_EVERY
        assert len(reads) == engine._asked // horpo.CLOCK_EVERY


class TestOrderingSanity:
    def test_irreflexive_on_random_terms(self, fact_system, witness_params):
        from helpers import gen_ground_term
        rng = random.Random(79)
        engine = Horpo(witness_params)
        for _ in range(300):
            t = gen_ground_term(rng, fact_system.signature,
                                rng.choice((INT_T, BOOL_T, arrow(INT_T, INT_T))),
                                depth=3)
            assert engine.gt(t, t) is None

    def test_irreflexive_with_variables(self, fact_system, witness_params, T):
        engine = Horpo(witness_params)
        for text in ("fact n k", "k 1", "comp k k", "n + 1", "fact (n - 1) k"):
            t = T(text)
            assert engine.gt(t, t) is None
