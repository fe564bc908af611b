"""Logically constrained simply-typed term rewriting.

A library and command-line toolkit for applicative higher-order rewrite
systems whose rules are guarded by first-order constraints over built-in
integer and boolean theories: parsing, typechecking, execution of the
rewrite relation, and automated termination proving via a constrained
recursive path ordering that emits machine-checkable witnesses.

A name is imported from its module the first time it is read (PEP 562),
so a `check` or `run` never loads the prover's modules.
"""

import importlib

_EXPORTS = {
    "core": ("App", "ArrowType", "BaseType", "BOOL_T", "FunctionSymbol",
             "INT_T", "LcstrsError", "Rule", "RuleError", "Signature",
             "Substitution", "Term", "Type", "TypingError", "Variable",
             "arrow", "typecheck"),
    "horpo": ("LEX", "Horpo", "HorpoParams", "Judgment", "Lex", "Mul"),
    "prover": ("CheckResult", "FailureReport", "ProverConfig", "Witness",
               "check_witness", "find_witness"),
    "rewrite": ("InputSource", "NormalizationResult", "RewriteStep",
                "calc_normal_form", "joinable_calc", "match", "normalize",
                "respects", "step_at"),
    "solver": ("No", "Solver", "Unknown", "Verdict", "YES", "Yes",
               "to_smtlib"),
    "syntax": ("ParseError", "System", "parse_system", "parse_term",
               "print_rule", "print_term"),
    "theory": ("SemValue", "TheoryError", "base_signature", "bool_value",
               "int_value", "interpret", "try_calculate", "value_symbol"),
}
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted(globals().keys() | _HOME.keys())
