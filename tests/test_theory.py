"""Interpretation of ground theory terms and root-level calculation."""

import random
import re

import pytest

from helpers import gen_theory_term
from lcstrs import theory
from lcstrs.core import (
    BOOL_T, INT_T, BaseType, FunctionSymbol, Variable, arrow,
)
from lcstrs.solver import compile_constraint
from lcstrs.syntax import parse_term
from lcstrs.theory import (
    FALSE, GT, SUP_BOOL, SUP_INT, SUPEQ_BOOL, SUPEQ_INT, TheoryError, TRUE,
    expansion, int_value, interpret, semantic_value, try_calculate,
    value_symbol,
)


@pytest.fixture
def P(fact_system):
    def parse(text, ctx=None):
        return parse_term(text, fact_system, ctx)
    return parse


class TestInterpret:
    def test_subtraction(self, P):
        assert interpret(P("1 - 1")) == 0

    def test_truth(self):
        assert interpret(TRUE) is True
        assert interpret(FALSE) is False

    def test_bounded_ordering(self, P):
        assert interpret(P("3 !> 1")) is True
        assert interpret(P("0 !> (-5)")) is False  # 0 is not above the bound
        assert interpret(P("0 !> (-5)"), bound=-3) is True

    def test_weak_is_reflexive_closure(self):
        rng = random.Random(3)
        for _ in range(1000):
            x, y = rng.randint(-20, 20), rng.randint(-20, 20)
            strict = interpret(SUP_INT.apply(int_value(x), int_value(y)))
            weak = interpret(SUPEQ_INT.apply(int_value(x), int_value(y)))
            assert weak == (x == y or strict)

    def test_strict_ordering_chains_terminate(self):
        # greedy descent under the bounded ordering always bottoms out
        rng = random.Random(151)
        for _ in range(300):
            bound = rng.randint(-5, 5)
            x = rng.randint(-20, 60)
            steps = 0
            while True:
                y = x - rng.randint(1, 4)
                if not interpret(SUP_INT.apply(int_value(x), int_value(y)),
                                 bound=bound):
                    break
                x = y
                steps += 1
                assert steps < 200

    def test_bool_ordering(self, P):
        assert interpret(P("true !> false")) is True
        assert interpret(P("false !> true")) is False
        assert interpret(P("true !> true")) is False
        assert interpret(P("true !>= true")) is True
        assert interpret(P("false !>= false")) is True
        assert interpret(P("false !>= true")) is False

    def test_non_ground_rejected(self, P):
        t = P("n + 1", {"n": Variable("n", INT_T)})
        with pytest.raises(TheoryError):
            interpret(t)

    def test_non_theory_rejected(self, P):
        with pytest.raises(TheoryError):
            interpret(P("fact 1 exit"))

    def test_total_on_random_ground_theory_terms(self):
        rng = random.Random(5)
        for _ in range(2000):
            t = gen_theory_term(rng, budget=12)
            value = interpret(t)
            assert isinstance(value, (int, bool))

    def test_partial_application_has_no_value(self, P):
        with pytest.raises(TheoryError):
            interpret(P("[+] 1"))
        with pytest.raises(TheoryError):
            interpret(theory.ADD)

    def test_uninterpreted_theory_symbol(self):
        f = FunctionSymbol("f", arrow(INT_T, INT_T), is_theory=True)
        with pytest.raises(TheoryError, match="no interpretation for symbol 'f'"):
            interpret(f.apply(int_value(1)))
        assert try_calculate(f.apply(int_value(1))) is None

    def test_variables_take_their_values(self, P):
        n, p = Variable("n", INT_T), Variable("p", theory.BOOL_T)
        t = P("n * 2 !> 3 /\\ p", {"n": n, "p": p})
        assert interpret(t, values={n: 2, p: True}) is True
        assert interpret(t, values={n: 1, p: True}) is False
        with pytest.raises(TheoryError, match="not a ground term"):
            interpret(t, values={n: 2})


# each ordering symbol, its argument values, and what it means at a bound b,
# written out here rather than read from the theory
ORDERINGS = [
    (SUP_INT, range(-6, 7), lambda x, y, b: x > b and x > y),
    (SUPEQ_INT, range(-6, 7), lambda x, y, b: x == y or (x > b and x > y)),
    (SUP_BOOL, (False, True), lambda x, y, b: x and not y),
    (SUPEQ_BOOL, (False, True), lambda x, y, b: x or not y),
]


class TestOrderingMeaning:
    @pytest.mark.parametrize("symbol, values, meaning", ORDERINGS,
                             ids=["sup_int", "supeq_int", "sup_bool",
                                  "supeq_bool"])
    def test_every_evaluation_gives_the_formula(self, symbol, values, meaning):
        sort_type = symbol.type.arg
        x, y = Variable("x", sort_type), Variable("y", sort_type)
        for bound in (-3, 0, 2):
            compiled = compile_constraint(symbol.apply(x, y), (x, y), bound)
            for vx in values:
                for vy in values:
                    expected = meaning(vx, vy, bound)
                    ground = symbol.apply(value_symbol(vx), value_symbol(vy))
                    assert interpret(ground, bound) is expected
                    assert try_calculate(ground, bound) is value_symbol(expected)
                    assert compiled((vx, vy)) is expected

    def test_weak_on_equal_arguments_expands_to_true(self):
        x, p = Variable("x", INT_T), Variable("p", BOOL_T)
        for bound in (-3, 0, 2):
            assert expansion(SUPEQ_INT, (x, x), bound) is TRUE
            assert expansion(SUPEQ_BOOL, (p, p), bound) is TRUE
        assert expansion(GT, (x, x), 0) is None

    def test_one_symbol_pair_per_theory_sort(self):
        assert theory.sup_symbol(INT_T, True) is SUP_INT
        assert theory.sup_symbol(INT_T, False) is SUPEQ_INT
        assert theory.sup_symbol(BOOL_T, True) is SUP_BOOL
        assert theory.sup_symbol(BOOL_T, False) is SUPEQ_BOOL
        with pytest.raises(TheoryError, match="no ordering symbol for sort List"):
            theory.sup_symbol(BaseType("List"), True)


class TestValues:
    def test_round_trip_is_identity(self):
        rng = random.Random(7)
        for _ in range(500):
            n = rng.randint(-10**12, 10**12)
            assert semantic_value(value_symbol(n)) == n
        assert semantic_value(value_symbol(True)) is True
        assert semantic_value(value_symbol(False)) is False

    def test_values_are_stored(self):
        for n in (0, -1, 7, -12, 10**30, -(10**30)):
            assert semantic_value(int_value(n)) == int(str(n))
        assert semantic_value(TRUE) is True
        assert semantic_value(FALSE) is False
        for symbol in (theory.ADD, FunctionSymbol("5", INT_T),
                       FunctionSymbol("c", INT_T, is_theory=True)):
            with pytest.raises(TheoryError, match=re.escape(
                    f"'{symbol.name}' is not a value symbol")):
                semantic_value(symbol)

    def test_bool_and_int_values_distinct(self):
        assert value_symbol(True) != value_symbol(1)
        assert value_symbol(False) != value_symbol(0)

    def test_values_are_values(self):
        assert int_value(-5).is_value
        assert TRUE.is_value
        assert not theory.ADD.is_value

    def test_arbitrary_precision(self):
        big = 10**40
        assert interpret(theory.MUL.apply(int_value(big), int_value(big))) == 10**80


class TestTryCalculate:
    def test_subtraction_redex(self, P):
        assert try_calculate(P("1 - 1")) == int_value(0)

    def test_non_theory_head(self, P):
        assert try_calculate(P("fact 0 exit")) is None

    def test_partial_application(self, P):
        # type Int -> Int is not a theory sort
        assert try_calculate(P("[*] 1")) is None

    def test_value_is_not_a_redex(self):
        assert try_calculate(int_value(3)) is None
        assert try_calculate(TRUE) is None

    def test_non_value_argument(self, P):
        assert try_calculate(P("(1 + 2) + 3")) is None

    def test_soundness_on_random_redexes(self):
        rng = random.Random(9)
        found = 0
        for _ in range(3000):
            t = gen_theory_term(rng, budget=7)
            calculated = try_calculate(t)
            if calculated is None:
                continue
            found += 1
            assert calculated.is_value
            assert interpret(calculated) == interpret(t)
        assert found > 100
