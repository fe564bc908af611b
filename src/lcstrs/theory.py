"""The built-in integer/boolean theory.

Houses the fixed theory signature (literals, arithmetic, comparisons,
connectives and the ordering symbols used by the termination checker), the
semantic domains, the interpretation of theory terms under an assignment of
values to their variables, its compiled form, and root-level calculation.

Semantic values are plain Python objects: `int` for Int and `bool` for Bool
(exact, arbitrary-precision arithmetic); each value symbol stores its own.
Each operator is a function of its argument values. An ordering symbol
means its `expansion` into the operators, the one place where the
configurable lower bound b enters:

    x !> y   is   x > b /\\ x > y

on integers, which is well founded for any finite b, and x /\\ not y on
booleans, where true !> false is the only strict pair. The weak versions
are the reflexive closures.
"""

from __future__ import annotations

import operator
import re
import sys
from functools import lru_cache
from typing import Callable, Mapping, Optional, Sequence, Union

from .core import (
    App, BaseType, BOOL_T, FunctionSymbol, INT_T, LcstrsError, Signature, Term,
    Variable, arrow, is_theory_sort_type,
)

SemValue = Union[int, bool]


class TheoryError(LcstrsError):
    pass


def _value_symbol(name: str, sort: BaseType, value: SemValue) -> FunctionSymbol:
    """A value symbol that stores its semantic value."""
    symbol = FunctionSymbol(name, sort, is_theory=True)
    object.__setattr__(symbol, "value", value)
    return symbol


TRUE = _value_symbol("true", BOOL_T, True)
FALSE = _value_symbol("false", BOOL_T, False)

ADD = FunctionSymbol("+", arrow(INT_T, INT_T, INT_T), is_theory=True)
SUB = FunctionSymbol("-", arrow(INT_T, INT_T, INT_T), is_theory=True)
MUL = FunctionSymbol("*", arrow(INT_T, INT_T, INT_T), is_theory=True)

LE = FunctionSymbol("<=", arrow(INT_T, INT_T, BOOL_T), is_theory=True)
LT = FunctionSymbol("<", arrow(INT_T, INT_T, BOOL_T), is_theory=True)
GE = FunctionSymbol(">=", arrow(INT_T, INT_T, BOOL_T), is_theory=True)
GT = FunctionSymbol(">", arrow(INT_T, INT_T, BOOL_T), is_theory=True)
EQ = FunctionSymbol("=", arrow(INT_T, INT_T, BOOL_T), is_theory=True)
NE = FunctionSymbol("!=", arrow(INT_T, INT_T, BOOL_T), is_theory=True)

AND = FunctionSymbol("/\\", arrow(BOOL_T, BOOL_T, BOOL_T), is_theory=True)
OR = FunctionSymbol("\\/", arrow(BOOL_T, BOOL_T, BOOL_T), is_theory=True)
NOT = FunctionSymbol("not", arrow(BOOL_T, BOOL_T), is_theory=True)

# ordering symbols, one strict/weak pair per theory sort
SUP_INT = FunctionSymbol("!>", arrow(INT_T, INT_T, BOOL_T), is_theory=True)
SUPEQ_INT = FunctionSymbol("!>=", arrow(INT_T, INT_T, BOOL_T), is_theory=True)
SUP_BOOL = FunctionSymbol("!>", arrow(BOOL_T, BOOL_T, BOOL_T), is_theory=True)
SUPEQ_BOOL = FunctionSymbol("!>=", arrow(BOOL_T, BOOL_T, BOOL_T), is_theory=True)

_SUP = {(INT_T, True): SUP_INT, (INT_T, False): SUPEQ_INT,
        (BOOL_T, True): SUP_BOOL, (BOOL_T, False): SUPEQ_BOOL}


def sup_symbol(sort: BaseType, strict: bool) -> FunctionSymbol:
    try:
        return _SUP[(sort, strict)]
    except KeyError:
        raise TheoryError(f"no ordering symbol for sort {sort}") from None


_INT_LITERAL = re.compile(r"-?[0-9]+\Z")
_INTEGER = re.compile(r"[+-]?\d+(?:_\d+)*\Z")     # what `int` reads


# bounded, so a long run keeps a working set of its integers, not all: one
# seed-1 benchmark cycle computes 436 distinct ones on `rewrite`, 100 on
# `check`, 12 on `entail` and 2 on `search`. Callers compare them with ==.
@lru_cache(maxsize=4096)
def int_value(n: int) -> FunctionSymbol:
    try:
        name = str(n)
    except ValueError:      # past the interpreter's digit limit
        raise _too_many_digits() from None
    return _value_symbol(name, INT_T, n)


def _too_many_digits() -> TheoryError:
    return TheoryError(f"integer has more than {sys.get_int_max_str_digits()}"
                       f" digits, the interpreter's limit")


def parse_int(text: str) -> int:
    """`int(text)`, with a TheoryError past the interpreter's limit."""
    try:
        return int(text)
    except ValueError:
        if _INTEGER.match(text.strip()):
            raise _too_many_digits() from None
        raise


def bool_value(b: bool) -> FunctionSymbol:
    return TRUE if b else FALSE


def value_symbol(value: SemValue) -> FunctionSymbol:
    """The unique value symbol interpreting to `value`."""
    if isinstance(value, bool):
        return bool_value(value)
    if isinstance(value, int):
        return int_value(value)
    raise TheoryError(f"no value symbol for {value!r}")


def semantic_value(symbol: FunctionSymbol) -> SemValue:
    """The value a value symbol stores; `true`, `false` and the symbols of
    `int_value` are the only ones."""
    value = symbol.value
    if value is None:
        raise TheoryError(f"'{symbol.name}' is not a value symbol")
    return value


def _literal_resolver(name: str) -> Optional[FunctionSymbol]:
    return int_value(parse_int(name)) if _INT_LITERAL.match(name) else None


#: the interpretation of each operator: a function of its argument values
_OPERATIONS = {
    ADD: operator.add, SUB: operator.sub, MUL: operator.mul,
    LE: operator.le, LT: operator.lt, GE: operator.ge, GT: operator.gt,
    EQ: operator.eq, NE: operator.ne,
    AND: operator.and_, OR: operator.or_, NOT: operator.not_,
}


def expansion(head: Term, args: tuple[Term, ...], bound: int) -> Optional[Term]:
    """What an ordering symbol applied to `args` means, one level deep, in
    the operators: on Int, x !> y is (x > b) /\\ (x > y) for the bound b,
    and x !>= y adds the disjunct x = y; on Bool, x !> y is x /\\ not y and
    x !>= y is x \\/ not y; s !>= s is true on either sort. None for any
    other head."""
    if len(args) != 2:
        return None
    x, y = args
    if head is SUP_INT or head is SUPEQ_INT:
        if head is SUP_INT:
            return AND.apply(GT.apply(x, int_value(bound)), GT.apply(x, y))
        if x == y:
            return TRUE
        return OR.apply(EQ.apply(x, y), expansion(SUP_INT, args, bound))
    if head is SUP_BOOL:
        return AND.apply(x, NOT.apply(y))
    if head is SUPEQ_BOOL:
        return TRUE if x == y else OR.apply(x, NOT.apply(y))
    return None


def interpret(term: Term, bound: int = 0,
              values: Optional[Mapping[Variable, SemValue]] = None) -> SemValue:
    """Interpret a theory term of base type. Each variable takes its value
    from `values`, a map from variables to semantic values; without
    `values` the term must be ground. A partial application has no value.
    """
    if not term.is_theory_term:
        raise TheoryError(f"not a theory term: {term!r}")
    if term.free_vars and (values is None or not values.keys() >= term.free_vars):
        raise TheoryError(f"not a ground term: {term!r}")
    if not isinstance(term.type, BaseType):
        raise TheoryError(f"partial application has no value: {term!r}")
    return _eval(term, bound, values)


def _eval(term: Term, bound: int, values):
    if isinstance(term, Variable):
        return values[term]
    if term.is_value:
        return semantic_value(term)
    head, args = term.spine()
    operation = _OPERATIONS.get(head)
    if operation is not None:
        return operation(*[_eval(a, bound, values) for a in args])
    expanded = expansion(head, args, bound)
    if expanded is None:
        raise TheoryError(f"no interpretation for symbol '{head.name}'")
    return _eval(expanded, bound, values)


#: a compiled theory term: its value under an environment tuple
Compiled = Callable[[tuple], SemValue]

_COMPILED_BINARY = {
    ADD: lambda x, y, b: lambda env: x(env) + y(env),
    SUB: lambda x, y, b: lambda env: x(env) - y(env),
    MUL: lambda x, y, b: lambda env: x(env) * y(env),
    LE: lambda x, y, b: lambda env: x(env) <= y(env),
    LT: lambda x, y, b: lambda env: x(env) < y(env),
    GE: lambda x, y, b: lambda env: x(env) >= y(env),
    GT: lambda x, y, b: lambda env: x(env) > y(env),
    EQ: lambda x, y, b: lambda env: x(env) == y(env),
    NE: lambda x, y, b: lambda env: x(env) != y(env),
    AND: lambda x, y, b: lambda env: x(env) and y(env),
    OR: lambda x, y, b: lambda env: x(env) or y(env),
    SUP_INT: lambda x, y, b: lambda env: (v := x(env)) > b and v > y(env),
    SUPEQ_INT: lambda x, y, b: lambda env: (
        (v := x(env)) == (w := y(env)) or (v > b and v > w)),
    SUP_BOOL: lambda x, y, b: lambda env: x(env) and not y(env),
    SUPEQ_BOOL: lambda x, y, b: lambda env: x(env) or not y(env),
}


def compile_constraint(term: Term, variables: Sequence[Variable],
                       bound: int) -> Compiled:
    """Compile a theory term of base sort into a closure over an
    environment tuple whose i-th entry is the value of `variables[i]`.

    The closure computes what `interpret` computes under that assignment
    (the ordering symbols relative to `bound`). Operators are resolved
    here, once; `interpret` stays the reference semantics.
    """
    return _compile(term, {v: i for i, v in enumerate(variables)}, bound)


def _compile(term: Term, index: dict[Variable, int], bound: int) -> Compiled:
    if isinstance(term, Variable):
        return operator.itemgetter(index[term])
    if isinstance(term, FunctionSymbol):
        value = semantic_value(term)
        return lambda env: value
    head, args = term.spine()
    compiled = [_compile(a, index, bound) for a in args]
    if head is NOT and len(args) == 1:
        x, = compiled
        return lambda env: not x(env)
    make = _COMPILED_BINARY.get(head) if len(args) == 2 else None
    if make is None:
        raise TheoryError(f"cannot compile constraint term: {term!r}")
    return make(*compiled, bound)


def try_calculate(term: Term, bound: int = 0,
                  head: Optional[Term] = None) -> Optional[Term]:
    """The unique root-level calculation step, if the term admits one.

    Applies when the term is an interpreted theory symbol fully applied to
    values and its type is a theory sort; the result is the value symbol
    with the same interpretation. Otherwise returns None. `head` is the
    term's head leaf, where the caller has it.
    """
    if head is None:
        head = term
        while type(head) is App:
            head = head.head
    operation = _OPERATIONS.get(head)
    if operation is None and not head.is_theory_term:   # the common miss
        return None
    if not is_theory_sort_type(term.type):
        return None
    args = []
    while type(term) is App:
        if not term.arg.is_value:
            return None
        args.append(term.arg)
        term = term.head
    args.reverse()
    if operation is not None:
        return value_symbol(operation(*map(semantic_value, args)))
    expanded = expansion(head, tuple(args), bound)
    return None if expanded is None else value_symbol(_eval(expanded, bound, None))


_BUILTINS = (
    TRUE, FALSE, ADD, SUB, MUL, LE, LT, GE, GT, EQ, NE, AND, OR, NOT,
)
_OVERLOADED = (SUP_INT, SUP_BOOL, SUPEQ_INT, SUPEQ_BOOL)
#: the symbols a calculation step can rewrite, when applied to their arity
OPERATORS = (*_OPERATIONS, *_OVERLOADED)

#: names of infix operators with their parse precedence level
INFIX_LEVELS = {
    "\\/": 1,
    "/\\": 2,
    "<=": 3, "<": 3, ">=": 3, ">": 3, "=": 3, "!=": 3, "!>": 3, "!>=": 3,
    "+": 4, "-": 4,
    "*": 5,
}


def base_signature() -> Signature:
    """A fresh signature containing exactly the built-in theory symbols."""
    sig = Signature(_BUILTINS, literal=_literal_resolver)
    for sym in _OVERLOADED:
        sig.add(sym, overload=True)
    return sig
