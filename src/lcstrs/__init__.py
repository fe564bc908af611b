"""Logically constrained simply-typed term rewriting.

A library and command-line toolkit for applicative higher-order rewrite
systems whose rules are guarded by first-order constraints over built-in
integer and boolean theories: parsing, typechecking, execution of the
rewrite relation, and automated termination proving via a constrained
recursive path ordering that emits machine-checkable witnesses.
"""

from .core import (
    App, ArrowType, BaseType, BOOL_T, FunctionSymbol, INT_T, LcstrsError,
    Rule, RuleError, Signature, Substitution, Term, Type, TypingError,
    Variable, arrow, typecheck,
)
from .horpo import LEX, Horpo, HorpoParams, Judgment, Lex, Mul
from .prover import (
    CheckResult, FailureReport, ProverConfig, Witness, check_witness,
    find_witness,
)
from .rewrite import (
    InputSource, NormalizationResult, RewriteStep, calc_normal_form,
    joinable_calc, match, normalize, respects, step_at,
)
from .solver import (
    No, Solver, Unknown, Verdict, YES, Yes, to_smtlib,
)
from .syntax import (
    ParseError, System, parse_system, parse_term, print_rule, print_term,
)
from .theory import (
    SemValue, TheoryError, base_signature, bool_value, int_value, interpret,
    try_calculate, value_symbol,
)

__version__ = "0.1.0"
