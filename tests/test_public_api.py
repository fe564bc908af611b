"""The public surface: one entry point per job, no second ways in.

Adding a name to `lcstrs`, or bringing back a removed wrapper or alias,
must be a deliberate change to this file.
"""

import ast
import importlib.util
import inspect
import types
from pathlib import Path

import pytest

import lcstrs
from lcstrs import cli, core, horpo, prover, rewrite, solver, syntax, theory

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

PUBLIC = [
    "App", "ArrowType", "BOOL_T", "BaseType", "CheckResult",
    "FailureReport", "FunctionSymbol", "Horpo", "HorpoParams", "INT_T",
    "InputSource", "Judgment", "LEX", "LcstrsError", "Lex", "Mul", "No",
    "NormalizationResult", "ParseError", "ProverConfig", "RewriteStep", "Rule",
    "RuleError", "SemValue", "Signature", "Solver", "Substitution",
    "System", "Term", "TheoryError", "Type", "TypingError", "Unknown",
    "Variable", "Verdict", "Witness", "YES", "Yes", "arrow", "base_signature",
    "bool_value", "calc_normal_form", "check_witness", "find_witness",
    "int_value", "interpret", "joinable_calc", "match", "normalize",
    "parse_system", "parse_term", "print_rule", "print_term", "respects",
    "step_at", "to_smtlib", "try_calculate", "typecheck", "value_symbol",
]

# module-level names that duplicated a method, a constructor or a type
REMOVED = [
    "free_vars", "apply_subst", "validate_rule", "geq", "gt", "rpo",
    "lex_ext", "mul_ext", "orient_rule", "replay_judgment", "entails",
    "print_type", "SystemFile", "ThreadPoolExecutor", "_creates_cycle",
    "_status_walk", "expand_orderings", "Sort", "INT", "BOOL",
    "eval_ground_constraint",
    # an application is flat: its head and arguments are read off the node
    "_symbol_spine",
    # one token pattern: an integer is a run of ASCII digits
    "_token_regex", "_token_finder",
    # an overloaded name's symbol is picked once, before its arguments
    "_Choice", "_fits",
]

# attributes that nothing read
REMOVED_ATTRIBUTES = [
    (core.Signature, "copy"), (core.Substitution, "domain"),
    (horpo.HorpoParams, "closure_pairs"), (syntax.System, "file"),
    (prover.ProverConfig, "jobs"), (prover.Witness, "to_json"),
    (prover.CheckResult, "__bool__"), (core.Rule, "fresh_vars"),
    (prover.CheckResult, "derivations"), (rewrite.RewriteStep, "replay"),
    # text is a view of the JSON payload, `cli._text`
    (horpo.Judgment, "to_text"), (prover.Witness, "to_text"),
    (prover.FailureReport, "to_text"), (horpo.HorpoParams, "hasse_pairs"),
    # term views only tests read, now `tests/helpers.py` or `free_vars`
    (core.Term, "subterms"), (core.Term, "is_ground"),
    # protocol methods that nothing called; `get` is the lookup
    (core.Substitution, "__getitem__"), (core.Substitution, "__iter__"),
    (core.Substitution, "__len__"), (core.Signature, "__contains__"),
    # what rewriting compiles of a system is `rewrite._compiled`'s table
    (syntax.System, "rules_for"), (syntax.System, "constraint_checks"),
    # an application is flat, `App(head, args)`, with one trusted constructor
    (core.Term, "spine"), (core.App, "arg"), (core.App, "_rebuilt"),
]

# keywords that nothing set, or only tests; three limits are module
# constants now, and each entailment query carries its bound
REMOVED_PARAMETERS = [
    (syntax.System, "file"), (syntax.System, "options"),
    (prover.CheckResult, "derivations"), (prover.FailureReport, "message"),
    (prover.ProverConfig, "jobs"),
    (prover.ProverConfig, "max_queries"), (prover.check_witness, "jobs"),
    (solver.Solver, "search_limit"), (solver.Solver, "timeout"),
    (solver.Solver, "bound"),
    (rewrite.normalize, "trace_cap"),
]


def _defined_names(module) -> set:
    """The names a module's own top-level statements bind, read from its
    source: a class, a function or an assignment, not an import."""
    names = set()
    for node in ast.parse(Path(module.__file__).read_text()).body:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return names


def test_package_exports_are_pinned():
    # the package resolves a name on first use, so `vars(lcstrs)` holds
    # only the names read so far; `dir` and `__all__` list every one
    names = sorted(name for name in dir(lcstrs) if not name.startswith("_")
                   and not isinstance(getattr(lcstrs, name), types.ModuleType))
    assert names == sorted(PUBLIC)
    assert sorted(lcstrs.__all__) == sorted(PUBLIC)
    modules = (core, horpo, prover, rewrite, solver, syntax, theory)
    defined = {module: _defined_names(module) for module in modules}
    for name in PUBLIC:
        homes = [module for module in modules if name in defined[module]]
        assert len(homes) == 1, name
        assert getattr(lcstrs, name) is getattr(homes[0], name), name


@pytest.mark.parametrize("module", [lcstrs, core, horpo, solver, syntax,
                                    prover, theory], ids=lambda m: m.__name__)
def test_removed_names_stay_removed(module):
    assert [name for name in REMOVED if hasattr(module, name)] == []


def test_removed_attributes_stay_removed():
    assert [f"{owner.__name__}.{name}" for owner, name in REMOVED_ATTRIBUTES
            if hasattr(owner, name)] == []
    assert [f"{owner.__name__}({name}=)" for owner, name in REMOVED_PARAMETERS
            if name in inspect.signature(owner).parameters] == []
    assert [name for name in ("search_limit", "timeout", "bound")
            if hasattr(solver.Solver(), name)] == []


def test_tracer_puts_back_what_it_rebinds():
    # perfbench/tracer.py traces layers by rebinding names of these modules
    # and their classes; `uninstall` must leave every one as it was
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    modules = (cli, core, horpo, prover, rewrite, solver, syntax, theory)
    owners = list(modules) + [
        value for module in modules for value in vars(module).values()
        if isinstance(value, type) and value.__module__ == module.__name__]

    def snapshot():
        return {(owner, name): value for owner in owners
                for name, value in vars(owner).items()}

    before = snapshot()
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        rebound = {f"{owner.__name__}.{name}"
                   for (owner, name), value in snapshot().items()
                   if before.get((owner, name)) is not value}
    finally:
        tracer.uninstall()
    assert {"lcstrs.rewrite.interpret", "lcstrs.solver.interpret",
            "lcstrs.rewrite.try_calculate", "Substitution.apply"} <= rebound
    after = snapshot()
    assert after.keys() == before.keys()
    assert [f"{owner.__name__}.{name}" for (owner, name), value in after.items()
            if before[(owner, name)] is not value] == []
