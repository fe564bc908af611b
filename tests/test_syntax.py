"""File format, term parsing, and pretty-printing."""

import random

import pytest

from helpers import gen_ground_term, gen_theory_term
from lcstrs import theory
from lcstrs.core import (
    App, BOOL_T, INT_T, RuleError, TypingError, Variable, arrow,
)
from lcstrs.syntax import (
    ParseError, parse_system, parse_term, print_rule, print_term,
)
from lcstrs.theory import int_value


class TestParseSystem:
    def test_factorial_file(self, fact_system):
        assert len(fact_system.declarations) == 4
        assert len(fact_system.rules) == 4
        names = [s.name for s in fact_system.declarations]
        assert names == ["init", "exit", "comp", "fact"]
        assert fact_system.declarations[3].type == arrow(
            INT_T, arrow(INT_T, INT_T), INT_T)

    def test_empty_rule_set(self):
        system = parse_system("fun a : Int\n")
        assert len(system.rules) == 0
        assert [s.name for s in system.declarations] == ["a"]

    def test_theory_lhs_rule_rejected(self):
        with pytest.raises(RuleError) as err:
            parse_system("fun a : Int\nrule 0 -> 1 [true]\n")
        assert err.value.condition == 2

    def test_missing_constraint_rejected(self):
        with pytest.raises(ParseError):
            parse_system("fun f : Int -> Int\nrule f x -> f x\n")

    def test_duplicate_declaration_rejected(self):
        with pytest.raises(Exception):
            parse_system("fun a : Int\nfun a : Int\n")

    def test_builtin_name_collision_rejected(self):
        with pytest.raises(Exception):
            parse_system("fun true : Int\n")

    def test_comments_and_blank_lines(self):
        text = """
(* a comment
   spanning (* nested *) lines *)
fun a : Int   (* trailing *)

option bound 2
"""
        system = parse_system(text)
        assert system.bound == 2
        assert [s.name for s in system.declarations] == ["a"]

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse_system("fun a : Int\nwat\n")
        assert err.value.line == 2

    def test_bound_option(self):
        assert parse_system("fun a : Int\n").bound == 0
        assert parse_system("option bound -3\n").bound == -3
        # converted by int(), as before the option was checked on parse
        assert parse_system("option bound  1_000 \n").bound == 1000
        with pytest.raises(ParseError) as err:
            parse_system("fun a : Int\noption bound two\n")
        assert (err.value.line, err.value.col) == (2, 14)
        assert "option bound must be an integer, got 'two'" in str(err.value)

    def test_user_sorts_are_not_theory(self):
        system = parse_system("fun cons : Elem -> List -> List\nfun nil : List\n")
        cons = system.signature.lookup("cons")[0]
        assert not cons.type.is_theory_type


class TestParseTerm:
    def test_rule_rhs(self, terms):
        t = terms("fact (n - 1) (comp k ([*] n))")
        fact = terms.system.signature.lookup("fact")[0]
        comp = terms.system.signature.lookup("comp")[0]
        n, k = terms.var("n"), terms.var("k")
        expected = fact.apply(
            theory.SUB.apply(n, int_value(1)),
            comp.apply(k, App(theory.MUL, n)))
        assert t == expected

    def test_parenthesized_literal(self, terms):
        assert terms("(1)") == int_value(1)

    def test_bracket_partial_application(self, terms):
        t = terms("[<=] 0")
        assert t.type == arrow(INT_T, BOOL_T)

    def test_juxtaposition_left_associative(self, terms):
        assert terms("fact 1 exit") == App(
            App(terms.system.signature.lookup("fact")[0], int_value(1)),
            terms("exit"))

    def test_precedence(self, terms):
        assert terms("1 + 2 * 3") == theory.ADD.apply(
            int_value(1), theory.MUL.apply(int_value(2), int_value(3)))
        assert terms("1 * 2 + 3") == theory.ADD.apply(
            theory.MUL.apply(int_value(1), int_value(2)), int_value(3))
        assert terms("1 - 2 - 3") == theory.SUB.apply(
            theory.SUB.apply(int_value(1), int_value(2)), int_value(3))

    def test_logical_precedence(self, terms):
        t = terms("n > 0 /\\ n < 9 \\/ false")
        head, _ = t.spine()
        assert head is theory.OR

    def test_negative_literals(self, terms):
        assert terms("-5") == int_value(-5)
        assert terms("n - 5") == theory.SUB.apply(terms.var("n"), int_value(5))
        assert terms("fact (-5) exit").type == INT_T
        assert terms("(0 - 5)") == theory.SUB.apply(int_value(0), int_value(5))

    def test_ordering_operator_overload(self, fact_system):
        ctx = {"a": Variable("a", BOOL_T), "b": Variable("b", BOOL_T)}
        t = parse_term("a !> b", fact_system, ctx)
        head, _ = t.spine()
        assert head is theory.SUP_BOOL
        t2 = parse_term("1 !> 0", fact_system)
        head2, _ = t2.spine()
        assert head2 is theory.SUP_INT

    def test_not_is_plain_application(self, terms):
        t = terms("not (n > 0)")
        head, args = t.spine()
        assert head is theory.NOT and len(args) == 1

    def test_trailing_tokens_rejected(self, fact_system):
        with pytest.raises(ParseError):
            parse_term("1 + 2 )", fact_system)

    def test_applying_literal_is_a_typing_error(self, fact_system):
        with pytest.raises(TypingError):
            parse_term("1 2", fact_system)

    def test_unbalanced_parens_rejected(self, fact_system):
        with pytest.raises(ParseError):
            parse_term("(1 + 2", fact_system)


class TestPrintTerm:
    def test_example_terms_round_trip(self, terms):
        for text in ("fact (n - 1) (comp k ([*] n))", "[<=] 0", "(1)"):
            t = terms(text)
            assert parse_term(print_term(t), terms.system, terms.ctx) == t

    def test_application_chain_prints_flat(self, terms):
        assert print_term(terms("((fact 1) exit)")) == "fact 1 exit"

    def test_infix_ordering_prints_infix(self, terms):
        assert print_term(terms("n !> 0")) == "n !> 0"
        assert print_term(terms("n !>= (n - 1)")) == "n !>= n - 1"

    def test_bracket_form_for_partial_application(self, terms):
        assert print_term(terms("[*] n")) == "[*] n"
        assert print_term(terms("[+]")) == "[+]"

    def test_minimal_parentheses(self, terms):
        assert print_term(terms("1 + 2 * 3")) == "1 + 2 * 3"
        assert print_term(terms("(1 + 2) * 3")) == "(1 + 2) * 3"
        assert print_term(terms("exit (1 + 1)")) == "exit (1 + 1)"
        assert print_term(terms("n - (2 - 1)")) == "n - (2 - 1)"
        assert print_term(terms("n - 2 - 1")) == "n - 2 - 1"

    def test_negative_literal_operand_parenthesized(self, terms):
        t = terms("fact (-5) exit")
        assert print_term(t) == "fact (-5) exit"
        assert parse_term(print_term(t), terms.system, terms.ctx) == t


class TestRoundTripProperty:
    def test_random_ground_terms(self, fact_system):
        rng = random.Random(29)
        for _ in range(400):
            t = gen_ground_term(rng, fact_system.signature,
                                rng.choice((INT_T, BOOL_T, arrow(INT_T, INT_T))),
                                depth=4)
            assert parse_term(print_term(t), fact_system) == t, print_term(t)

    def test_random_theory_terms(self, fact_system):
        rng = random.Random(31)
        for _ in range(400):
            t = gen_theory_term(rng, budget=14)
            assert parse_term(print_term(t), fact_system) == t, print_term(t)

    def test_terms_with_variables(self, fact_system):
        rng = random.Random(37)
        n = Variable("n", INT_T)
        k = Variable("k", arrow(INT_T, INT_T))
        fact = fact_system.signature.lookup("fact")[0]
        pool = [
            fact.apply(n, k),
            App(k, theory.ADD.apply(n, int_value(1))),
            theory.SUPEQ_INT.apply(n, int_value(0)),
            theory.AND.apply(theory.SUP_BOOL.apply(theory.TRUE, theory.FALSE),
                             theory.GT.apply(n, int_value(-3))),
        ]
        for t in pool:
            reparsed = parse_term(print_term(t), fact_system,
                                  {"n": n, "k": k})
            assert reparsed == t

    def test_rule_printing_reparses(self, fact_system, fact_source):
        printed = "\n".join(
            ["fun init : Int", "fun exit : Int -> Int",
             "fun comp : (Int -> Int) -> (Int -> Int) -> Int -> Int",
             "fun fact : Int -> (Int -> Int) -> Int"]
            + [f"rule {print_rule(r)}" for r in fact_system.rules])
        reparsed = parse_system(printed)
        assert reparsed.rules == fact_system.rules
