"""Term algebra: typechecking, free variables, substitution, rule validity."""

import dataclasses
import random

import pytest

from pathlib import Path

from helpers import (
    gen_ground_term, gen_system, gen_theory_term, recursive_free_vars,
    recursive_is_theory_term, subterms,
)
from lcstrs.core import (
    App, ArrowType, BaseType, BOOL_T, FunctionSymbol, INT_T, PreApp, PreLeaf,
    Rule, RuleError, Substitution, TypingError, Variable, arrow,
    typecheck,
)
from lcstrs import core, theory
from lcstrs.rewrite import InputSource, normalize
from lcstrs.syntax import parse_system, parse_term
from lcstrs.theory import int_value

SYSTEMS = Path(__file__).resolve().parent.parent / "systems"


def leaf(name):
    return PreLeaf(name)


def pre(*names):
    return PreApp(leaf(names[0]), [leaf(n) for n in names[1:]])


class TestTypes:
    def test_theory_types(self):
        assert INT_T.is_theory_type
        assert BOOL_T.is_theory_type
        assert arrow(INT_T, INT_T).is_theory_type
        assert arrow(INT_T, INT_T, BOOL_T).is_theory_type
        # higher-order argument disqualifies
        assert not arrow(arrow(INT_T, INT_T), INT_T).is_theory_type
        assert not BaseType("List").is_theory_type

    def test_arrow_right_associative_printing(self):
        assert str(arrow(INT_T, INT_T, INT_T)) == "Int -> Int -> Int"
        assert str(ArrowType(arrow(INT_T, INT_T), INT_T)) == "(Int -> Int) -> Int"

    def test_structural_equality(self):
        assert arrow(INT_T, BOOL_T) == ArrowType(INT_T, BOOL_T)
        assert arrow(INT_T, INT_T, INT_T) == ArrowType(INT_T, ArrowType(INT_T, INT_T))
        assert arrow(INT_T, BOOL_T) != arrow(BOOL_T, INT_T)

    def test_a_sort_is_a_base_type(self):
        first, second = BaseType("List"), BaseType("List")
        assert first is not second
        assert first == second and hash(first) == hash(second)
        assert str(first) == "List"
        assert not first.is_theory_type
        assert first != BaseType("Int") and BaseType("Int") != INT_T


def one_of_each() -> list:
    """A fresh, never hashed instance of each type and term class."""
    f = FunctionSymbol("f", arrow(INT_T, BaseType("List")))
    x = Variable("x", INT_T)
    return [BaseType("List"), ArrowType(INT_T, BOOL_T), f, x, App(f, (x,))]


class TestHashContract:
    """Hashes are computed once per node and equal the dataclass hash of
    the field tuple, so sets and dicts of terms iterate in a fixed order."""

    def test_hash_is_the_hash_of_the_field_tuple(self):
        for node in one_of_each():
            fields = tuple(getattr(node, f.name)
                           for f in dataclasses.fields(node))
            assert hash(node) == hash(fields), type(node).__name__
            assert hash(node) == hash(fields)  # the cached value too

    def test_each_class_defines_its_own_hash(self):
        # a @dataclass that generates the hash also puts it in the class's
        # own __dict__, but compiles it from a string, not from core.py
        for node in one_of_each():
            own = type(node).__dict__.get("__hash__")
            assert own is not None, type(node).__name__
            assert own.__code__.co_filename == core.__file__, type(node).__name__

    def test_first_hash_is_stored_on_the_node(self):
        for node in one_of_each():
            value = hash(node)
            assert node.__dict__["_hash"] == value, type(node).__name__

    def test_not_hashed_at_construction(self):
        # a variable is hashed when it builds its own free-variable set
        for node in one_of_each():
            if not isinstance(node, Variable):
                assert "_hash" not in node.__dict__, type(node).__name__

    def test_equal_terms_built_apart_hash_equal(self):
        first, second = one_of_each(), one_of_each()
        for a, b in zip(first, second):
            assert a is not b
            assert a == b and hash(a) == hash(b)

    def test_second_hash_does_not_visit_children(self, monkeypatch):
        succ = FunctionSymbol("succ", arrow(INT_T, INT_T))
        term = Variable("x", INT_T)
        for _ in range(200):
            term = App(succ, (term,))
        visited = []
        original = App.__hash__

        def counting_hash(node):
            visited.append(node)
            return original(node)

        monkeypatch.setattr(App, "__hash__", counting_hash)
        first = hash(term)
        assert len(visited) == 200
        assert hash(term) == first
        assert len(visited) == 201


class TestStoredFacts:
    """What rewriting reads of every matching rule, `is_value` and
    `Rule.logical_vars`, is stored when the object is built."""

    def test_symbols_store_is_value(self):
        for symbol, value in [(int_value(7), True), (theory.TRUE, True),
                              (theory.ADD, False),
                              (FunctionSymbol("f", arrow(INT_T, INT_T)), False)]:
            assert symbol.__dict__["is_value"] is value, symbol.name
        x = Variable("x", INT_T)
        for term in (x, App(theory.NOT, (Variable("b", BOOL_T),))):
            assert "is_value" not in term.__dict__
            assert term.is_value is False

    def test_rule_stores_logical_vars(self):
        g = FunctionSymbol("g", arrow(INT_T, INT_T))
        x, y = Variable("x", INT_T), Variable("y", INT_T)
        rule = Rule(g.apply(x), g.apply(y), theory.GT.apply(x, int_value(0)))
        assert rule.__dict__["logical_vars"] == {x, y} == (
            rule.constraint.free_vars
            | (rule.rhs.free_vars - rule.lhs.free_vars))


class TestTypecheck:
    def test_fact_application(self, fact_system):
        t = typecheck(pre("fact", "1", "exit"), fact_system.signature)
        assert t.type == INT_T

    def test_lone_symbol(self, fact_system):
        t = typecheck(leaf("init"), fact_system.signature)
        assert t.type == INT_T

    def test_argument_mismatch(self, fact_system):
        # exit : Int -> Int applied to itself
        with pytest.raises(TypingError):
            typecheck(pre("exit", "exit"), fact_system.signature)

    def test_applying_base_typed_term(self, fact_system):
        with pytest.raises(TypingError):
            typecheck(pre("init", "1"), fact_system.signature)

    def test_applying_a_closed_base_typed_application(self):
        # `f a` is closed at type Int with an argument still to apply
        with pytest.raises(TypingError) as raised:
            parse_system("fun f : Int -> Int\nfun a : Int\n"
                         "rule f x -> f a a [true]\n")
        assert str(raised.value) == (
            "3:13: cannot apply a term of base type Int to an argument")

    def test_unknown_variable_type(self, fact_system):
        with pytest.raises(TypingError):
            typecheck(leaf("mystery"), fact_system.signature)

    def test_variable_inferred_from_argument_position(self, fact_system):
        ctx = {}
        t = typecheck(pre("fact", "n", "k"), fact_system.signature, ctx)
        assert t.type == INT_T
        assert ctx["n"].type == INT_T
        assert ctx["k"].type == arrow(INT_T, INT_T)

    def test_variable_used_at_two_types(self, fact_system):
        ctx = {}
        typecheck(pre("fact", "n", "k"), fact_system.signature, ctx)
        with pytest.raises(TypingError):
            typecheck(pre("exit", "k"), fact_system.signature, ctx)


class TestFreeVars:
    def test_symbol_has_none(self, terms):
        assert terms("init").free_vars == frozenset()

    def test_vars_of_application(self, terms):
        t = terms("fact n k")
        assert {v.name for v in t.free_vars} == {"n", "k"}

    def test_union_equation(self, terms):
        t = terms("fact (n - 1) (comp k ([*] n))")
        assert {v.name for v in t.free_vars} == {"n", "k"}
        assert t.free_vars == recursive_free_vars(t)


class TestSubstitution:
    def test_apply_on_rule_pattern(self, terms):
        t = terms("fact n k")
        sigma = Substitution({terms.var("n"): int_value(1),
                              terms.var("k"): terms("exit")})
        assert sigma.apply(t) == terms("fact 1 exit")

    def test_symbols_are_fixed(self, terms):
        t = terms("init")
        sigma = Substitution({Variable("x", INT_T): int_value(7)})
        assert sigma.apply(t) == t

    def test_variable_head(self, terms):
        terms("fact n k")  # seeds k : Int -> Int
        t = terms("k 1")
        sigma = Substitution({terms.var("k"): terms("exit")})
        assert sigma.apply(t) == terms("exit 1")

    def test_type_preservation_rejected(self):
        with pytest.raises(TypingError):
            Substitution({Variable("x", INT_T): theory.TRUE})

    def test_unbound_variables_are_fixed_points(self, terms):
        t = terms("fact n k")
        assert Substitution().apply(t) == t

    def test_type_preservation_random(self, fact_system):
        rng = random.Random(11)
        sig = fact_system.signature
        for _ in range(200):
            x = Variable("x", INT_T)
            k = Variable("k", arrow(INT_T, INT_T))
            body = sig.lookup("fact")[0].apply(x, k)
            sigma = Substitution({
                x: gen_ground_term(rng, sig, INT_T, 3),
                k: gen_ground_term(rng, sig, arrow(INT_T, INT_T), 3),
            })
            out = sigma.apply(body)
            assert out.type == body.type

    def test_fvar_subst_law(self, fact_system):
        # FVar(t sigma) is the union of FVar(sigma(x)) over x in FVar(t)
        rng = random.Random(13)
        sig = fact_system.signature
        n = Variable("n", INT_T)
        k = Variable("k", arrow(INT_T, INT_T))
        m = Variable("m", INT_T)
        t = sig.lookup("fact")[0].apply(n, k)
        for _ in range(100):
            image_n = theory.ADD.apply(m, gen_ground_term(rng, sig, INT_T, 3))
            sigma = Substitution({n: image_n})
            expect = frozenset().union(
                *(sigma.get(v).free_vars for v in t.free_vars))
            assert sigma.apply(t).free_vars == expect


class TestCheckedBuild:
    def test_a_head_of_base_type_is_rejected(self):
        with pytest.raises(TypingError) as raised:
            App(int_value(1), (int_value(2),))
        assert str(raised.value) == (
            "cannot apply a term of base type Int to an argument")

    def test_an_application_needs_an_argument(self):
        with pytest.raises(TypingError) as raised:
            App(theory.ADD, ())
        assert str(raised.value) == "an application needs an argument"

    def test_an_argument_of_another_type_is_rejected(self):
        with pytest.raises(TypingError) as raised:
            App(theory.ADD, (theory.TRUE,))
        assert str(raised.value) == "argument has type Bool, expected Int"


class TestTrustedBuild:
    def test_rebuilt_nodes_equal_checked_ones(self, monkeypatch):
        # every node `Substitution.apply` and the normalizer's plugging
        # build without the type check, on the shipped systems and on
        # random ones, against the checking constructor on the same
        # children
        typed = App._typed
        built = []

        def compared(head, args, ty):
            new = typed(head, args, ty)
            checked = App(head, args)
            for field in ("type", "free_vars", "size", "is_theory_term"):
                assert getattr(new, field) == getattr(checked, field), field
            assert new == checked and hash(new) == hash(checked)
            built.append(new)
            return new

        monkeypatch.setattr(App, "_typed", compared)
        runs = [(SYSTEMS / "fact.lcstrs", "fact 6 exit"),
                (SYSTEMS / "fact.lcstrs", "init"),
                (SYSTEMS / "iter.lcstrs", "iter 4 ([-] 3) 10"),
                (SYSTEMS / "iter.lcstrs", "iter 3 (iter 2 ([+] 1)) 0"),
                (SYSTEMS / "loop.lcstrs", "f (1 + 2)")]
        for path, text in runs:
            system = parse_system(path.read_text())
            for strategy in ("innermost", "outermost"):
                normalize(parse_term(text, system), system, strategy,
                          fuel=40, inputs=InputSource([4]))
        rng = random.Random(29)
        for _ in range(40):
            system = gen_system(rng)
            for _ in range(4):
                target = rng.choice(system.declarations).type
                while hasattr(target, "result"):
                    target = target.result
                t = gen_ground_term(rng, system.signature, target, 4)
                for strategy in ("innermost", "outermost"):
                    normalize(t, system, strategy, fuel=40)
        assert len(built) > 1000


def nodes(term):
    """Every node of `term`, each application with its arguments below it."""
    stack = [term]
    while stack:
        t = stack.pop()
        yield t
        stack.extend(t.args)


class TestFlatShape:
    """An application is one node, `App(head, args)`, with a leaf for its
    head, however it was built; positions and sizes stay those of the
    curried term."""

    def test_built_from_a_prefix_equals_parsed_whole(self, terms):
        whole = terms("fact 1 exit")
        for built in (terms("fact 1").apply(terms("exit")),
                      App(terms("fact 1"), (terms("exit"),)),
                      terms("fact").apply(int_value(1), terms("exit"))):
            assert built == whole and hash(built) == hash(whole)
            assert built.head is whole.head and built.args == whole.args
        assert repr(whole) == "((fact 1) exit)" and whole.size == 5

    def test_no_application_has_an_application_head(self, fact_system):
        rng = random.Random(41)
        sig = fact_system.signature
        k = Variable("k", arrow(INT_T, INT_T))
        seen = 0
        for _ in range(200):
            t = gen_ground_term(rng, sig, INT_T, 4)
            image = gen_ground_term(rng, sig, arrow(INT_T, INT_T), 3)
            instance = Substitution({k: image}).apply(
                sig.lookup("comp")[0].apply(k, k, t))
            last = normalize(instance, fact_system, fuel=30).term
            for term in (t, instance, last):
                for node in nodes(term):
                    assert type(node.head) is not App
                    seen += type(node) is App
        assert seen > 1000

    def test_a_variable_head_flattens_under_substitution(self, terms):
        comp, exit_ = terms("comp"), terms("exit")
        x = Variable("x", arrow(arrow(INT_T, INT_T), INT_T, INT_T))
        sigma = Substitution({x: comp.apply(exit_)})
        instance = sigma.apply(x.apply(exit_))
        assert instance == terms("comp exit exit")
        assert instance.head is comp and instance.args == (exit_, exit_)

    def test_an_instance_calculates(self):
        x = Variable("x", arrow(INT_T, INT_T))
        sigma = Substitution({x: theory.MUL.apply(int_value(2))})
        instance = sigma.apply(x.apply(int_value(3)))
        assert theory.try_calculate(instance) == int_value(6)

    def test_positions_round_trip(self, fact_system):
        # every curried position of seeded terms, from the walker in
        # tests/helpers.py: the subterm there, and a replacement there
        # read back and undone
        rng = random.Random(43)
        checked = 0
        for _ in range(100):
            t = gen_ground_term(rng, fact_system.signature, INT_T, 4)
            positions = list(subterms(t))
            assert len(positions) == t.size
            for position, sub in positions:
                assert t.subterm_at(position) == sub
                hole = Variable("hole", sub.type)
                replaced = t.replace_at(position, hole)
                assert replaced.subterm_at(position) == hole
                assert replaced.replace_at(position, sub) == t
                checked += 1
        assert checked > 1000


class TestTheoryTermFlag:
    def test_matches_recursive_oracle(self, fact_system):
        rng = random.Random(17)
        for _ in range(300):
            t = gen_ground_term(rng, fact_system.signature, INT_T, 4)
            assert t.is_theory_term == recursive_is_theory_term(t)
        for _ in range(300):
            t = gen_theory_term(rng, budget=10)
            assert t.is_theory_term and recursive_is_theory_term(t)

    def test_subterms_of_theory_terms_are_theory_terms(self):
        rng = random.Random(19)
        for _ in range(200):
            t = gen_theory_term(rng, budget=12)
            for _, sub in subterms(t):
                assert sub.is_theory_term

    def test_ground_theory_terms_have_theory_types(self):
        rng = random.Random(23)
        for _ in range(300):
            t = gen_theory_term(rng, budget=12)
            assert not t.free_vars
            assert t.type.is_theory_type


class TestValidateRule:
    def test_fact_rules_accepted(self, fact_system):
        for rule in fact_system.rules:
            assert Rule(rule.lhs, rule.rhs, rule.constraint) == rule

    def test_fresh_theory_variable_on_right_accepted(self, terms):
        rule = Rule(terms("init"), terms("fact n exit"), terms("true"))
        assert {v.name for v in rule.logical_vars} == {"n"}

    def test_logical_vars_of_fact(self, fact_system):
        # Var(constraint) plus the variables fresh on the right; it keeps
        # constraint variables the left side binds, which matching binds
        assert [sorted(v.name for v in rule.logical_vars)
                for rule in fact_system.rules] == [["n"], [], ["n"], ["n"]]
        assert [sorted(v.name for v in rule.logical_vars - rule.lhs.free_vars)
                for rule in fact_system.rules] == [["n"], [], [], []]

    def test_theory_lhs_rejected(self, terms):
        with pytest.raises(RuleError) as err:
            Rule(terms("1 + x", expected=INT_T), terms("x"), terms("true"))
        assert err.value.condition == 2

    def test_type_mismatch_rejected(self, terms):
        with pytest.raises(RuleError) as err:
            Rule(terms("exit"), terms("init"), terms("true"))
        assert err.value.condition == 1

    def test_non_boolean_constraint_rejected(self, terms):
        with pytest.raises(RuleError) as err:
            Rule(terms("fact n k"), terms("k 1"), terms("n + 1"))
        assert err.value.condition == 3

    def test_non_theory_constraint_rejected(self, fact_system):
        box_ctx = {}
        lhs = parse_term("fact n k", fact_system, box_ctx)
        rhs = parse_term("k 1", fact_system, box_ctx)
        bad = parse_term("exit n > 0", fact_system, box_ctx)
        with pytest.raises(RuleError) as err:
            Rule(lhs, rhs, bad)
        assert err.value.condition == 3

    def test_higher_order_constraint_variable_rejected(self, fact_system):
        ctx = {}
        lhs = parse_term("fact n k", fact_system, ctx)
        rhs = parse_term("k 1", fact_system, ctx)
        k = ctx["k"]
        phi = theory.SUPEQ_INT.apply(k.apply(int_value(0)), int_value(0))
        assert phi.free_vars == frozenset((k,))
        with pytest.raises(RuleError) as err:
            Rule(lhs, rhs, phi)
        assert err.value.condition == 3

    def test_fresh_higher_order_variable_rejected(self, fact_system):
        ctx = {}
        lhs = parse_term("fact n k", fact_system, ctx)
        rhs = parse_term("fact n j", fact_system, {"n": ctx["n"],
                                                   "j": Variable("j", arrow(INT_T, INT_T))})
        with pytest.raises(RuleError) as err:
            Rule(lhs, rhs, parse_term("true", fact_system))
        assert err.value.condition == 4
