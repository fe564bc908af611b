"""Constraint entailment.

`phi entails psi` holds when every assignment of values to the constraint
variables that satisfies phi also satisfies psi. Verdicts are three-valued:
Yes, No (with a verified counterexample), or Unknown.

The decision pipeline, where a session is the counterexample search of one
antecedent phi over one variable set at one bound, for the solver's lifetime:
  1. the session's cached models, the points of its pool drawn so far
     where phi holds: the first one where psi is false is a counterexample
     (psi is compiled once per query; phi once per session);
  2. a refutation of phi /\\ not psi: a case split over `/\\`, `\\/`
     and `not` that replaces an ordering atom by its expansion as it
     meets it, where an atom that is not a linear comparison is an opaque
     literal, and Fourier-Motzkin elimination over the integers of each
     case's linear facts (a `!=` split last into `>` or `<`); past
     `REFUTATION_LIMIT` cases or facts it gives up;
  3. the session's search continued over the small value assignments it
     has not drawn yet, each one where phi holds cached as a model;
  4. an external SMT solver over SMT-LIB 2 (QF_LIA), if configured.

Every counterexample of stages 1 and 3 is re-verified with
`theory.interpret` before it is reported. The models are a prefix, in the
pool's order, of the points where phi holds, so stages 1 and 3 together
find the first counterexample in that order whichever queries came before:
the verdict of a query does not depend on them. Stages 1-3 need no external
tooling; stage 4 only ever strengthens the answer (unsat gives Yes, a model
is verified by evaluation before a No is returned, anything else is
Unknown).
"""

from __future__ import annotations

import itertools
import math
import random
import re
import shlex
import subprocess
import threading
import time
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Union, ValuesView

from . import theory
from .core import (
    BOOL_T, FunctionSymbol, INT_T, LcstrsError, Term, Variable,
    is_theory_sort_type,
)
from .theory import (
    ADD, AND, EQ, FALSE, GE, GT, LE, LT, MUL, NE, NOT, OR, SUB, TRUE,
    Compiled, SemValue, compile_constraint, interpret,
)


class SolverError(LcstrsError):
    pass


# ---------------------------------------------------------------------------
# Verdicts


class Verdict:
    is_yes = False
    is_no = False
    is_unknown = False


class Yes(Verdict):
    is_yes = True

    def __repr__(self):
        return "Yes"


class No(Verdict):
    is_no = True

    def __init__(self, counterexample: dict[Variable, SemValue]):
        self.counterexample = dict(counterexample)

    def __repr__(self):
        inner = ", ".join(f"{v.name}={val}" for v, val in sorted(
            self.counterexample.items(), key=lambda it: it[0].name))
        return f"No({inner})"


class Unknown(Verdict):
    is_unknown = True

    def __init__(self, reason: str):
        self.reason = reason

    def __repr__(self):
        return f"Unknown({self.reason})"


YES = Yes()


def _check_logical_constraint(term: Term, what: str) -> None:
    if not term.is_theory_term or term.type != BOOL_T:
        raise SolverError(f"{what} is not a logical constraint: {term!r}")
    for v in term.free_vars:
        if not is_theory_sort_type(v.type):
            raise SolverError(
                f"{what} has a variable '{v.name}' of non-theory type {v.type}")


def _check_query(phi: Term, psi: Term, varset: frozenset) -> None:
    """Check the query `phi entails psi` over `varset`: two logical
    constraints, and variables of theory sort that cover both."""
    _check_logical_constraint(phi, "antecedent")
    _check_logical_constraint(psi, "consequent")
    wrong = [v for v in varset if not (
        isinstance(v, Variable) and is_theory_sort_type(v.type))]
    if wrong:
        v = min(wrong, key=repr)
        raise SolverError("entailment variables must be variables of theory "
                          f"sort, not '{v!r} : {v.type}'")
    covered = phi.free_vars | psi.free_vars
    if not covered <= varset:
        raise SolverError(
            "entailment variables must cover both constraints' free "
            f"variables: '{min(v.name for v in covered - varset)}' is missing")


# ---------------------------------------------------------------------------
# Refutation: a case split, then Fourier-Motzkin elimination

# coefficients by variable name, and the constant
Poly = tuple[dict[str, int], int]

# comparison -> the (sign, shift) pairs for which the comparison says
# sign * (left - right) + shift >= 0; a `!=` is split into `>` or `<`
_GE0 = {GE: ((1, 0),), GT: ((1, -1),), LE: ((-1, 0),), LT: ((-1, -1),),
        EQ: ((1, 0), (-1, 0))}
# comparison -> the comparison that holds exactly when it does not
_COMPLEMENT = {GE: LT, GT: LE, LE: GT, LT: GE, EQ: NE, NE: EQ}


def _linearize(term: Term) -> Optional[Poly]:
    """Integer term -> linear polynomial (coefficients, constant), or None
    if the term is nonlinear or not built from the arithmetic fragment."""
    if isinstance(term, Variable):
        return ({term.name: 1}, 0)
    if isinstance(term, FunctionSymbol):
        if term.is_value and term.type == INT_T:
            return ({}, theory.semantic_value(term))
        return None
    head, args = term.head, term.args
    if len(args) != 2 or not (head is ADD or head is SUB or head is MUL):
        return None
    left, right = _linearize(args[0]), _linearize(args[1])
    if left is None or right is None:
        return None
    if head is ADD:
        return _poly_add(left, right, 1)
    if head is SUB:
        return _poly_add(left, right, -1)
    if not left[0]:
        return _poly_scale(right, left[1])
    if not right[0]:
        return _poly_scale(left, right[1])
    return None  # product of two non-constant terms


def _poly_add(a: Poly, b: Poly, sign: int) -> Poly:
    coeffs = dict(a[0])
    for v, c in b[0].items():
        coeffs[v] = coeffs.get(v, 0) + sign * c
        if coeffs[v] == 0:
            del coeffs[v]
    return coeffs, a[1] + sign * b[1]


def _poly_scale(p: Poly, k: int) -> Poly:
    return ({v: c * k for v, c in p[0].items()} if k else {}), p[1] * k


def _difference(head: Term, args: tuple) -> Optional[Poly]:
    """left - right, for a comparison `head` of two linear Int terms; None
    for any other atom."""
    if len(args) != 2 or head not in _COMPLEMENT:
        return None
    left, right = _linearize(args[0]), _linearize(args[1])
    if left is None or right is None:
        return None
    return _poly_add(left, right, -1)


REFUTATION_LIMIT = 64    # cases per query, and facts per case


def _refuted(phi: Term, psi: Term, bound: int) -> bool:
    """Whether `phi /\\ not psi` has no integer model, the ordering symbols
    read relative to `bound`: each case of it is refuted by `_infeasible`.
    False when a case survives, or past `REFUTATION_LIMIT` cases."""
    # a case: the formulas to take apart, each with its polarity; the
    # polarity of each opaque atom; the facts p >= 0; and the disjunctions
    # put off, the splits of `!=` at the bottom
    stack = [([(phi, True), (psi, False)], {}, [], [])]
    for _ in range(REFUTATION_LIMIT):
        if not stack:
            return True
        todo, literals, facts, later = stack.pop()
        while todo:
            term, positive = todo.pop()
            head, args = term.head, term.args
            if head is NOT:
                todo.append((args[0], not positive))
            elif head is AND or head is OR:
                parts = [(args[0], positive), (args[1], positive)]
                if (head is AND) == positive:
                    todo += parts
                else:
                    later.append(parts)
            elif isinstance(head, FunctionSymbol) and not args:  # true, false
                if theory.semantic_value(head) != positive:
                    break
            elif (d := _difference(head, args)) is None:
                if (expanded := theory.expansion(head, args, bound)) is not None:
                    todo.append((expanded, positive))
                elif literals.setdefault(term, positive) != positive:
                    break
            elif (op := head if positive else _COMPLEMENT[head]) is not NE:
                facts += [_poly_add(({}, shift), d, sign)
                          for sign, shift in _GE0[op]]
            elif d[0]:
                later.insert(0, [(GT.apply(*args), True),
                                 (LT.apply(*args), True)])
            elif d[1] == 0:     # a constant: zero refutes, others hold
                break
        else:
            if later:
                first, second = later.pop()
                stack.append(([second], dict(literals), facts[:], later[:]))
                stack.append(([first], literals, facts, later))
            elif not _infeasible(facts):
                return False
    return not stack


def _infeasible(facts: list[Poly]) -> bool:
    """Whether no integer point satisfies every fact p >= 0, shown by
    Fourier-Motzkin elimination with the gcd tightening of the Omega test
    (Pugh, 1991): each fact is divided by the gcd of its coefficients, its
    constant rounded down. False when the facts have a rational solution,
    or past `REFUTATION_LIMIT` facts."""
    while True:
        tightest: dict[frozenset, Poly] = {}
        for coeffs, k in facts:
            g = math.gcd(*coeffs.values())   # 0 for a constant
            if g > 1:
                coeffs, k = {v: c // g for v, c in coeffs.items()}, k // g
            key = frozenset(coeffs.items())
            if key not in tightest or k < tightest[key][1]:
                tightest[key] = coeffs, k
        if tightest.pop(frozenset(), ({}, 0))[1] < 0:
            return True
        lower: dict[str, list] = {}     # the facts where v's coefficient
        upper: dict[str, list] = {}     # is > 0, and where it is < 0
        for p in tightest.values():
            for v, c in p[0].items():
                (lower if c > 0 else upper).setdefault(v, []).append(p)
        both = [v for v in lower if v in upper]
        if not both or len(tightest) > REFUTATION_LIMIT:
            return False
        # eliminate exactly, where all coefficients on one side are 1, if
        # a variable allows it; else make the fewest new facts. A fact with
        # a variable bounded on one side only is dropped.
        x = min(both, key=lambda v: (
            any(p[0][v] != 1 for p in lower[v])
            and any(p[0][v] != -1 for p in upper[v]),
            len(lower[v]) * len(upper[v])))
        facts = [p for p in tightest.values() if x not in p[0] and all(
            v in lower and v in upper for v in p[0])]
        facts += [
            _poly_add(_poly_scale(p, -q[0][x]), _poly_scale(q, p[0][x]), 1)
            for p in lower[x] for q in upper[x]]


# ---------------------------------------------------------------------------
# SMT-LIB translation

_SMT_OPS = {ADD: "+", SUB: "-", MUL: "*", LE: "<=", LT: "<", GE: ">=",
            GT: ">", EQ: "=", NE: "distinct", AND: "and", OR: "or",
            NOT: "not"}

_SIMPLE_SYMBOL = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def _smt_name(name: str) -> str:
    return name if _SIMPLE_SYMBOL.match(name) else f"|{name}|"


def to_smtlib(constraint: Term, bound: int = 0) -> str:
    """Render a logical constraint as an SMT-LIB 2 term over QF_LIA.

    Each ordering symbol is translated as its expansion into linear
    arithmetic, so the output never contains uninterpreted functions.
    """
    _check_logical_constraint(constraint, "constraint")
    return _to_sexp(constraint, bound)


def _to_sexp(term: Term, bound: int) -> str:
    """The S-expression of `term`, written left to right from an explicit
    stack of terms to translate and of text to copy."""
    out: list[str] = []
    stack: list[Union[Term, str]] = [term]
    while stack:
        term = stack.pop()
        if isinstance(term, str):
            out.append(term)
        elif isinstance(term, Variable):
            out.append(_smt_name(term.name))
        elif term is TRUE or term is FALSE:
            out.append(term.name)
        elif isinstance(term, FunctionSymbol):
            if not (term.is_value and term.type == INT_T):
                raise SolverError(
                    f"unsupported symbol '{term.name}' in SMT translation")
            n = theory.semantic_value(term)
            out.append(str(n) if n >= 0 else f"(- {-n})")
        else:
            head, args = term.head, term.args
            expanded = theory.expansion(head, args, bound)
            if expanded is not None:
                stack.append(expanded)
                continue
            op = _SMT_OPS.get(head)
            if op is None or len(args) != head.type.arity:
                raise SolverError(
                    f"unsupported term in SMT translation: {term!r}")
            out.append("(" + op)
            stack.append(")")
            for a in reversed(args):
                stack.extend((a, " "))
    return "".join(out)


_SMT_SORTS = {INT_T: "Int", BOOL_T: "Bool"}

_MODEL_ENTRY = re.compile(
    r"\(define-fun\s+(\|[^|]*\||[^\s()]+)\s*\(\s*\)\s*(Int|Bool)\s+"
    r"(\(\s*-\s*[0-9]+\s*\)|-?[0-9]+|true|false)\s*\)")


def _parse_model(text: str, variables: dict[str, Variable]
                 ) -> dict[Variable, SemValue]:
    model: dict[Variable, SemValue] = {}
    for name, sort, value in _MODEL_ENTRY.findall(text):
        name = name.strip("|")
        var = variables.get(name)
        if var is None:
            continue
        if sort == "Bool":
            model[var] = value == "true"
        elif value.startswith("("):
            model[var] = -int(value.strip("()- \t"))
        else:
            model[var] = int(value)
    return model


# ---------------------------------------------------------------------------
# The solver


_SEARCH_INTS = (0, 1, -1, 2, -2, 3, -3, 5, -5, 7, 10, -10, 100)
SEARCH_LIMIT = 4096     # value tuples tried per counterexample search
SMT_TIMEOUT = 2.0       # seconds per call of the external solver


@dataclass
class QueryRecord:
    """One distinct query and its verdict: the solver's cache entry."""
    phi: Term
    psi: Term
    variables: frozenset
    bound: int
    verdict: Verdict


def _assignments(variables: list[Variable], bound: int) -> Iterable[tuple]:
    """Value tuples for `variables`: all of them in product order when
    there are at most `SEARCH_LIMIT`, else that many seeded draws and then
    the corners (each value its pool's least or greatest) when there are at
    most `SEARCH_LIMIT` of those."""
    ints = tuple(dict.fromkeys(_SEARCH_INTS + (bound, bound + 1, bound - 1)))
    pools = [(False, True) if v.type == BOOL_T else ints for v in variables]
    if math.prod(len(p) for p in pools) <= SEARCH_LIMIT:
        return itertools.product(*pools)
    rng = random.Random(0)
    draws = (tuple(rng.choice(pool) for pool in pools)
             for _ in range(SEARCH_LIMIT))
    if 2 ** len(pools) > SEARCH_LIMIT:
        return draws
    return itertools.chain(draws, itertools.product(
        *((min(p), max(p)) for p in pools)))


def _drawn_models(phi: Term, variables: list[Variable], bound: int,
                  models: list[tuple]) -> Iterator[tuple]:
    """The tuples of `_assignments` where phi holds, in their order, each
    appended to `models` before it is given. phi is compiled at the first
    draw."""
    holds = compile_constraint(phi, variables, bound)
    for values in _assignments(variables, bound):
        if holds(values) is True:
            models.append(values)
            yield values


class _Session:
    """The counterexample search of one antecedent phi over one variable
    set at one bound: phi, the bound and the variables in name order; the
    models, the value tuples drawn so far where phi holds; and the one
    generator that draws the rest, so that each search goes on where the
    last one stopped. A decision holds the lock, so threads that share the
    solver keep the models in the search's order."""

    def __init__(self, phi: Term, varset: frozenset, bound: int):
        self.phi, self.bound = phi, bound
        self.variables = sorted(varset, key=lambda v: v.name)
        self.models: list[tuple] = []
        self.undrawn = _drawn_models(phi, self.variables, bound, self.models)
        self.lock = threading.Lock()

    def first_counterexample(self, psi: Term, goal: Compiled,
                             points: Iterable[tuple]
                             ) -> Optional[dict[Variable, SemValue]]:
        """The first of `points`, value tuples where phi holds, that `goal`
        (psi compiled) and then `interpret` show to be a counterexample."""
        for values in points:
            if goal(values) is False:
                assignment = dict(zip(self.variables, values))
                if self.is_counterexample(psi, assignment):
                    return assignment
        return None

    def is_counterexample(self, psi: Term,
                          assignment: dict[Variable, SemValue]) -> bool:
        return (interpret(self.phi, self.bound, assignment) is True
                and interpret(psi, self.bound, assignment) is False)


class Solver:
    """Entailment engine with memoization, one counterexample-search session
    per antecedent, variable set and bound, and an optional SMT backend.

    `smt_command` is a full command line (e.g. "z3 -in") for a process
    that reads SMT-LIB 2 on stdin and reports sat/unsat plus a model on
    stdout. Without it, only the built-in fast paths and counterexample
    search run; inconclusive queries come back Unknown. The `deadline`
    (`time.monotonic()`) bounds each SMT call and each engine asking it.
    """

    def __init__(self, smt_command: Optional[str] = None,
                 deadline: float = math.inf):
        self.smt_command = smt_command
        self.deadline = deadline
        self._cache: dict[tuple, QueryRecord] = {}
        self._sessions: dict[tuple, _Session] = {}

    @property
    def log(self) -> ValuesView[QueryRecord]:
        """One record per distinct query, in the order first asked: a live,
        read-only view of the cache."""
        return self._cache.values()

    @property
    def queries(self) -> int:
        """The number of distinct queries decided."""
        return len(self._cache)

    # -- public entry points -------------------------------------------

    def entails(self, phi: Term, psi: Term,
                variables: Optional[Iterable[Variable]] = None,
                bound: int = 0) -> Verdict:
        """Decide whether phi entails psi over the given variable set, the
        ordering symbols read relative to `bound`.

        `variables` defaults to the free variables of phi; they must be
        theory-sort variables that cover both constraints' free variables.
        """
        varset = frozenset(phi.free_vars if variables is None else variables)
        key = (phi, psi, varset, bound)
        record = self._cache.get(key)
        if record is None:     # a cached query passed the check
            _check_query(phi, psi, varset)
            record = self._cache.setdefault(key, QueryRecord(
                phi, psi, varset, bound, self._decide(phi, psi, varset, bound)))
        return record.verdict

    def smt_script(self, phi: Term, psi: Term,
                   variables: Optional[Iterable[Variable]] = None,
                   bound: int = 0) -> str:
        """The SMT-LIB 2 script refuting `phi entails psi` (satisfiable
        exactly when a counterexample exists), over the variable set that
        `entails` would take."""
        varset = frozenset(phi.free_vars if variables is None else variables)
        _check_query(phi, psi, varset)
        lines = ["(set-option :produce-models true)", "(set-logic QF_LIA)"]
        for v in sorted(varset, key=lambda v: v.name):
            lines.append(
                f"(declare-const {_smt_name(v.name)} {_SMT_SORTS[v.type]})")
        lines.append(f"(assert {_to_sexp(phi, bound)})")
        lines.append(f"(assert (not {_to_sexp(psi, bound)}))")
        lines.extend(["(check-sat)", "(get-model)", "(exit)"])
        return "\n".join(lines) + "\n"

    # -- pipeline stages -------------------------------------------------

    def _decide(self, phi: Term, psi: Term, varset: frozenset,
                bound: int) -> Verdict:
        session = self._sessions.get((phi, varset, bound))
        if session is None:
            session = self._sessions.setdefault(
                (phi, varset, bound), _Session(phi, varset, bound))
        with session.lock:
            goal = None
            if session.models:
                goal = compile_constraint(psi, session.variables, bound)
                counterexample = session.first_counterexample(
                    psi, goal, session.models)
                if counterexample is not None:
                    return No(counterexample)
            if _refuted(phi, psi, bound):
                return YES
            if goal is None:
                goal = compile_constraint(psi, session.variables, bound)
            counterexample = session.first_counterexample(
                psi, goal, session.undrawn)
        if counterexample is not None:
            return No(counterexample)
        if self.smt_command:
            return self._ask_smt(session, psi)
        return Unknown("fast paths inconclusive and no SMT solver configured")

    def _ask_smt(self, session: _Session, psi: Term) -> Verdict:
        timeout = min(SMT_TIMEOUT, self.deadline - time.monotonic())
        if timeout <= 0:
            return Unknown("SMT solver not called: the deadline has passed")
        script = self.smt_script(session.phi, psi, session.variables,
                                 session.bound)
        try:
            proc = subprocess.run(
                shlex.split(self.smt_command), input=script.encode(),
                capture_output=True, timeout=timeout)
        except (OSError, subprocess.TimeoutExpired, ValueError) as e:
            return Unknown(f"SMT solver failed: {e.__class__.__name__}")
        output = proc.stdout.decode(errors="replace")
        status = next(
            (w for w in output.split() if w in ("sat", "unsat", "unknown")), None)
        if status == "unsat":
            return YES
        if status == "sat":
            names = {v.name: v for v in session.variables}
            model = _parse_model(output, names)
            assignment = {v: model.get(v, False if v.type == BOOL_T else 0)
                          for v in session.variables}
            if session.is_counterexample(psi, assignment):
                return No(assignment)
            return Unknown("SMT model did not verify")
        return Unknown(f"SMT solver answered {status or 'nothing'}")
