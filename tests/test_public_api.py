"""The public surface: one entry point per job, no second ways in.

Adding a name to `lcstrs`, or bringing back a removed wrapper or alias,
must be a deliberate change to this file.
"""

import inspect
import types

import pytest

import lcstrs
from lcstrs import core, horpo, prover, rewrite, solver, syntax

PUBLIC = [
    "App", "ArrowType", "BOOL", "BOOL_T", "BaseType", "CheckResult",
    "FailureReport", "FunctionSymbol", "Horpo", "HorpoParams", "INT", "INT_T",
    "InputSource", "Judgment", "LEX", "LcstrsError", "Lex", "Mul", "No",
    "NormalizationResult", "ParseError", "ProverConfig", "RewriteStep", "Rule",
    "RuleError", "SemValue", "Signature", "Solver", "Sort", "Substitution",
    "System", "Term", "TheoryError", "Type", "TypingError", "Unknown",
    "Variable", "Verdict", "Witness", "YES", "Yes", "arrow", "base_signature",
    "bool_value", "calc_normal_form", "check_witness",
    "eval_ground_constraint", "find_witness", "int_value", "interpret",
    "joinable_calc", "match", "normalize", "parse_system", "parse_term",
    "print_rule", "print_term", "respects", "step_at", "to_smtlib",
    "try_calculate", "typecheck", "value_symbol",
]

# module-level names that duplicated a method or a constructor
REMOVED = [
    "free_vars", "apply_subst", "validate_rule", "geq", "gt", "rpo",
    "lex_ext", "mul_ext", "orient_rule", "replay_judgment", "entails",
    "print_type", "SystemFile", "ThreadPoolExecutor", "_creates_cycle",
]

# attributes that nothing read
REMOVED_ATTRIBUTES = [
    (core.Signature, "copy"), (core.Substitution, "domain"),
    (horpo.HorpoParams, "closure_pairs"), (syntax.System, "file"),
    (prover.ProverConfig, "jobs"), (prover.Witness, "to_json"),
    (prover.CheckResult, "__bool__"),
]

# keywords that nothing set, or only tests; the last three limits are
# module constants now
REMOVED_PARAMETERS = [
    (syntax.System, "file"), (prover.ProverConfig, "jobs"),
    (prover.ProverConfig, "max_queries"), (prover.check_witness, "jobs"),
    (solver.Solver, "search_limit"), (solver.Solver, "timeout"),
    (rewrite.normalize, "trace_cap"),
]


def test_package_exports_are_pinned():
    names = sorted(name for name, value in vars(lcstrs).items()
                   if not name.startswith("_")
                   and not isinstance(value, types.ModuleType))
    assert names == sorted(PUBLIC)


@pytest.mark.parametrize("module", [lcstrs, core, horpo, solver, syntax,
                                    prover], ids=lambda m: m.__name__)
def test_removed_names_stay_removed(module):
    assert [name for name in REMOVED if hasattr(module, name)] == []


def test_removed_attributes_stay_removed():
    assert [f"{owner.__name__}.{name}" for owner, name in REMOVED_ATTRIBUTES
            if hasattr(owner, name)] == []
    assert [f"{owner.__name__}({name}=)" for owner, name in REMOVED_PARAMETERS
            if name in inspect.signature(owner).parameters] == []
    assert [name for name in ("search_limit", "timeout")
            if hasattr(solver.Solver(), name)] == []
