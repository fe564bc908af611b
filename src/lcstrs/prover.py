"""Automatic search for ordering parameters that orient every rule.

The search walks a small, finite space: for each candidate bound and each
assignment of statuses to defined symbols (lexicographic first, then
multiset by descending width), it grows a precedence incrementally. An
orientation attempt that fails reports which precedence queries came up
empty; each such edge is hypothesized in turn, rejecting cycles, and the
attempt is retried. Precedence growth never invalidates an orientation
that already succeeded, so the first fully-oriented assignment wins.

The assignments are walked in product order, by rank: one counter. A
precedence search depends on the statuses only through the ones it
reads, so an assignment that agrees with a failed one on every status
that search read would fail the same way. The tuples that share their
statuses up to a position form a block of consecutive ranks, so after
searching or skipping a tuple the walk jumps to the end of its block at
the last position the refuting search read, and credits each tuple
jumped over with the attempts that search made. The first witness found,
and the attempt count of a failure report, are those of the unpruned
product. A run of skips can be as long as the product, so the walk also
stops where the deadline has passed at a skip.

The walk is a loop over that counter and the precedence search a loop
over an explicit stack of edge sets, so neither recurses on the number
of symbols, rules or edges.

The state of the whole search lives in one `_Budget`: the deadline and
whether it has passed, the attempts covered, and the furthest failure,
which the report names. The search's solver holds the deadline too, so
one orientation stops there, and its engine is dropped. Each distinct
bound is searched once.

Under one bound, orienting a rule depends on the parameters only through
the precedence pairs and statuses the engine asked about. So each rule
keeps, across all the attempts and status assignments of a bound, the
engines that oriented it, one per distinct set of answers, each with its
memo released: an engine is its orientation's record. An attempt reuses
an engine whose questions its parameters answer alike, and only
otherwise orients the rule with a fresh engine and keeps that one too.
The search's one solver keeps every verdict, so a reused engine gives
what a fresh one would: the same witness, failure report and attempt count.
Only the reported failure is rendered.

A witness is a certificate: `check_witness` checks each node of each
rule's derivation against the side condition of the case it names, with
the entailment leaves proved again by a fresh solver unless it is given
one. It searches nothing and runs no engine, so an engine that derives a
false comparison cannot get its proof past the check.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from . import theory
from .core import (
    App, FunctionSymbol, LcstrsError, Rule, Term, Variable,
    is_theory_sort_type,
)
from .horpo import LEX, Horpo, HorpoParams, Judgment, Mul, Status, _Expired, _render
from .rewrite import joinable_calc
from .solver import Solver
from .syntax import System, print_rule, print_term


@dataclass
class ProverConfig:
    bounds: Optional[Sequence[int]] = None    # None: the system's bound
    timeout: float = 60.0                 # wall-clock budget, seconds
    smt_command: Optional[str] = None


@dataclass
class Witness:
    """Ordering parameters plus one derivation per rule, in rule order."""
    params: HorpoParams
    derivations: tuple[Judgment, ...]

    def to_dict(self, system: System) -> dict:
        """The document, each derivation under its rule's constraint."""
        memo: dict = {}     # one for the document: derivations share terms
        status = {f.name: repr(st) for f, st in sorted(
            self.params.status.items(), key=lambda it: it[0].name)}
        return {
            "version": 1,
            "bound": self.params.bound,
            "precedence": [[f.name, g.name] for f, g in sorted(
                self.params.edges, key=lambda e: (e[0].name, e[1].name))],
            "status": status,
            "rules": [
                {
                    "index": i + 1,
                    "lhs": print_term(j.lhs, memo),
                    "rhs": print_term(j.rhs, memo),
                    "constraint": print_term(rule.constraint, memo),
                    "derivation": j.to_dict(rule.constraint, memo),
                }
                for i, (rule, j) in enumerate(zip(system.rules,
                                                  self.derivations))
            ],
        }


@dataclass
class RuleFailure:
    index: int                      # 1-based rule number
    rule: str
    deepest: Optional[str]          # deepest comparison that failed
    unknowns: tuple[str, ...]       # entailments that came back Unknown


@dataclass
class FailureReport:
    """Why no witness was found. Never a claim of nontermination: either
    the finite search space is exhausted or the prover gave up (budget or
    Unknown entailments)."""
    failures: tuple[RuleFailure, ...]
    searched: int                   # orientation attempts covered: made,
                                    # or skipped as repeats of a failed search
    gave_up: bool                   # budget exhausted or Unknowns encountered

    @property
    def message(self) -> str:
        kind = ("gave up before exhausting the search space" if self.gave_up
                else "no witness exists in the search space")
        return f"{kind} ({self.searched} orientation attempts)"

    def to_dict(self) -> dict:
        return {
            "message": self.message,
            "gave_up": self.gave_up,
            "attempts": self.searched,
            "rules": [
                {"index": f.index, "rule": f.rule, "deepest_failure": f.deepest,
                 "unknown_entailments": list(f.unknowns)}
                for f in self.failures
            ],
        }


ProveResult = Union[Witness, FailureReport]


class _Budget:
    """The state of one search: its deadline, whether that has passed, the
    orientation attempts covered, and the furthest failure."""

    def __init__(self, timeout: float):
        self.deadline = time.monotonic() + timeout
        self.expired = False
        self.attempts = 0
        # (index of the first rule not oriented, the engine of its failed
        # orientation) of the first attempt that oriented the most rules
        self.failure: Optional[tuple[int, Horpo]] = None

    def exceeded(self) -> bool:
        if not self.expired:
            self.expired = time.monotonic() > self.deadline
        return self.expired


def _status_options(symbol: FunctionSymbol) -> list[Status]:
    arity = symbol.type.arity
    return [LEX] + [Mul(k) for k in range(arity, 1, -1)]


def find_witness(system: System, config: Optional[ProverConfig] = None
                 ) -> ProveResult:
    """Search bounds, statuses and precedences for a verified witness."""
    cfg = config or ProverConfig()
    bounds = (system.bound,) if cfg.bounds is None else cfg.bounds
    defined = system.defined_symbols()
    position = {f: i for i, f in enumerate(defined)}
    options = [_status_options(f) for f in defined]
    # blocks[i]: the number of tuples that share their first i statuses
    blocks = [math.prod(map(len, options[i:]))
              for i in range(len(options) + 1)]
    budget = _Budget(cfg.timeout)

    solver = Solver(smt_command=cfg.smt_command, deadline=budget.deadline)
    for bound in dict.fromkeys(bounds):     # each distinct bound once
        records: list[list[Horpo]] = [[] for _ in system.rules]
        # the sorted read positions of a failed search -> {the statuses at
        # those positions: the attempts it made}
        refuted: dict = {}
        rank = 0            # of the current status tuple, in product order
        while rank < blocks[0] and not budget.expired:
            statuses = [column[rank // blocks[i + 1] % len(column)]
                        for i, column in enumerate(options)]
            for read, failed in refuted.items():
                attempts = failed.get(tuple(statuses[i] for i in read))
                if attempts is not None:
                    searched = 0
                    break
            else:
                made = budget.attempts
                outcome = _search_precedence(
                    system, dict(zip(defined, statuses)), bound, solver,
                    budget, records)
                if isinstance(outcome, Witness):
                    return outcome
                # statuses of symbols without rules are lex in every tuple
                read = tuple(sorted(position[f] for f in outcome
                                    if f in position))
                attempts = budget.attempts - made
                refuted.setdefault(read, {})[
                    tuple(statuses[i] for i in read)] = attempts
                searched = 1
            # a skip reads the clock; a search has read it already
            if budget.expired or not searched and budget.exceeded():
                break
            # the tuples up to the end of this one's block at its last read
            # position agree with it on every status read
            block = blocks[read[-1] + 1] if read else blocks[0]
            following = (rank // block + 1) * block
            budget.attempts += attempts * (following - rank - searched)
            rank = following
        if budget.expired:
            break
    return _failure_report(system, budget)


def _failure_report(system: System, budget: _Budget) -> FailureReport:
    """The report of a search that found no witness. Its one failure is
    rendered here, the only place it is read."""
    failures: tuple[RuleFailure, ...] = ()
    gave_up = budget.expired
    if budget.failure is not None:
        index, engine = budget.failure
        deepest = engine.deepest_failure
        unknowns = tuple(f"{print_term(engine.constraint)} entails "
                         f"{print_term(goal)}: {reason}"
                         for goal, reason in engine.unknowns)
        failures = (RuleFailure(index + 1, print_rule(system.rules[index]),
                                deepest[1] if deepest else None, unknowns),)
        gave_up = gave_up or bool(unknowns)
    return FailureReport(failures, budget.attempts, gave_up)


def _search_precedence(system: System, status: dict, bound: int,
                       solver: Solver, budget: _Budget,
                       records: list[list[Horpo]]
                       ) -> Union[Witness, set[FunctionSymbol]]:
    """Depth-first growth of the precedence edge set for one status/bound
    choice. `records` holds the engines that oriented each rule under this
    bound and `solver` so far: a rule is oriented by a fresh engine, which
    is appended, only when the attempt's parameters answer none of them
    alike. Each failed attempt is offered to `budget.failure`; one whose
    orientation the deadline interrupts is not. Returns a Witness, or else
    the symbols whose status any orientation of any attempt read."""
    visited: set[frozenset] = set()
    reads: set[FunctionSymbol] = set()
    stack: list[frozenset] = [frozenset()]
    while stack:
        edges = stack.pop()
        if edges in visited:
            continue
        if budget.exceeded():
            break
        visited.add(edges)
        budget.attempts += 1
        params = HorpoParams(edges, status, bound)
        derivations = []
        for index, rule in enumerate(system.rules):
            record = next((r for r in records[index]
                           if r.answers_alike(params)), None)
            if record is None:
                record = Horpo(params, solver)
                try:
                    record.orient_rule(rule)
                except _Expired:    # its memo is partial: keep nothing
                    budget.expired = True
                    return reads
                records[index].append(record)
            reads.update(record.status_reads)
            if record.judgment is None:
                break
            derivations.append(record.judgment)
        else:
            return Witness(params, tuple(derivations))
        if budget.failure is None or index > budget.failure[0]:
            budget.failure = (index, record)
        # pushed in reverse, so the first miss is grown first
        for f, g in reversed(sorted(record.prec_misses,
                                    key=lambda e: (e[0].name, e[1].name))):
            # a miss relates two distinct non-theory symbols, so this
            # holds exactly when f is reachable from g: f > g would close
            # a cycle
            if not params.prec_gt(g, f):
                stack.append(edges | {(f, g)})
    return reads


def params_from_dict(data: dict, signature) -> HorpoParams:
    """Rebuild ordering parameters from a witness JSON document, so a
    third party can re-check a proof from its serialized form alone."""
    def symbol(name: str) -> FunctionSymbol:
        found = signature.lookup(name)
        if not found:
            raise ValueError(f"witness names unknown symbol '{name}'")
        return found[0]

    def field(key: str, kind: type):
        value = data.get(key)
        if type(value) is not kind:     # rejects True for an int, too
            raise ValueError(f"missing or malformed '{key}' in witness")
        return value

    bound = field("bound", int)
    edges = []
    for pair in field("precedence", list):
        if not (isinstance(pair, list) and len(pair) == 2
                and all(isinstance(name, str) for name in pair)):
            raise ValueError(f"bad precedence entry {pair!r} in witness")
        edges.append((symbol(pair[0]), symbol(pair[1])))
    status: dict[FunctionSymbol, Status] = {}
    for name, st in field("status", dict).items():
        f = symbol(name)
        # only a status the search can give f, spelled as `to_dict` does
        found = [o for o in _status_options(f) if repr(o) == st]
        if not found:
            raise ValueError(f"bad status {st!r} in witness")
        status[f] = found[0]
    try:
        return HorpoParams(edges, status, bound)
    except LcstrsError as error:        # a cycle, or a theory symbol
        raise ValueError(f"{error} in witness") from None


@dataclass
class CheckResult:
    ok: bool
    diagnostics: tuple[str, ...] = ()


def check_witness(witness: Witness, system: System,
                  solver: Optional[Solver] = None) -> CheckResult:
    """Check the witness as a certificate: each rule's derivation must be
    a `gt` comparison of the rule's sides under its constraint and logical
    variables, and each node must meet the side condition of the case it
    names, under the witness parameters revalidated, with every entailment
    leaf proved again by `solver` (fresh unless given). Nothing is
    searched, and no engine runs."""
    params = HorpoParams(witness.params.edges, witness.params.status,
                         witness.params.bound)
    solver = solver or Solver()
    derivations = witness.derivations
    if len(derivations) != len(system.rules):
        return CheckResult(False, (
            f"witness has {len(derivations)} derivations for "
            f"{len(system.rules)} rules",))
    diagnostics: list[str] = []
    for index, (rule, root) in enumerate(zip(system.rules, derivations)):
        failure = _certify(root, rule, params, solver)
        if failure is not None:
            diagnostics.append(f"rule {index + 1} not oriented: "
                               f"{print_rule(rule)} ({failure})")
    return CheckResult(not diagnostics, tuple(diagnostics))


def _certify(root: Judgment, rule: Rule, params: HorpoParams,
             solver: Solver) -> Optional[str]:
    """None when `root` derives `rule.lhs > rule.rhs` under the rule's
    constraint and logical variables, else what fails first, in the order
    the document prints the nodes. An explicit stack walks the tree, each
    node shared by several parents checked once; a node's children are
    matched against what its case requires before any of them is
    visited."""
    if not (isinstance(root, Judgment) and root.relation == "gt"
            and root.lhs == rule.lhs and root.rhs == rule.rhs):
        return "its derivation is not a strict comparison of its sides"
    checked: set[int] = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in checked:
            continue
        checked.add(id(node))
        required = _required(node, rule, params, solver)
        children = node.children
        matched = required is not None and len(children) == len(required)
        if matched:
            for child, (rel, lhs, rhs) in zip(children, required):
                if not (isinstance(child, Judgment) and child.relation == rel
                        and (child.lhs is lhs or child.lhs == lhs)
                        and (child.rhs is rhs or child.rhs == rhs)):
                    matched = False
                    break
        if not matched:
            return (f"node {node.case} fails on {node.relation}: "
                    f"{_render(node.lhs, None)} vs {_render(node.rhs, None)}")
        stack.extend(reversed(children))
    return None


def _required(node: Judgment, rule: Rule, params: HorpoParams,
              solver: Solver) -> Optional[list]:
    """The side condition of `node`'s case under the constraint and
    logical variables of `rule`, its rule: the (relation, lhs, rhs) its
    children must have, in order, or None where the condition fails or
    the case is unknown. Each arm mirrors the branch of `Horpo` that
    builds the case, and none searches. The arms come in the order of how
    often the search's derivations use their cases, since a `match` tries
    them one after another."""
    s, t, i, cvars = node.lhs, node.rhs, node.data, rule.logical_vars
    match node.case:
        case "rpo:subterm":
            if (not _peelable(s) or not _index(i, len(s.args))
                    or s.args[i].type != t.type):
                return None
            return [("geq", s.args[i], t)]
        case "geq:calc-join":
            joined = s.type == t.type and joinable_calc(s, t, params.bound)
            return [] if joined else None
        case "rpo:parts":
            if not _peelable(s) or type(t) is not App:
                return None
            prefix, last = t.curried()
            return [("rpo", s, prefix), ("rpo", s, last)]
        case "gt:descent":
            return [("rpo", s, t)] if s.type == t.type else None
        case "rpo:precedence":
            if (not _peelable(s) or not isinstance(t.head, FunctionSymbol)
                    or not params.prec_gt(s.head, t.head)):
                return None
            return [("rpo", s, ti) for ti in t.args]
        case "geq:theory" | "gt:theory":
            if not (s.is_theory_term and t.is_theory_term
                    and is_theory_sort_type(s.type) and s.type == t.type
                    and (s.free_vars | t.free_vars) <= cvars):
                return None
            strict = node.case == "gt:theory"
            goal = theory.sup_symbol(s.type, strict).apply(s, t)
            verdict = solver.entails(rule.constraint, goal, cvars,
                                     params.bound)
            return [] if verdict.is_yes else None
        case "rpo:lex" | "rpo:mul":
            s_head, s_args, t_args = s.head, s.args, t.args
            if not _peelable(s) or t.head != s_head or not t_args:
                return None
            status = params.status_of(s_head)
            if node.case == "rpo:lex" and status == LEX:
                extension = ("lex", s_args, t_args)
            elif (node.case == "rpo:mul" and isinstance(status, Mul)
                    and status.k <= len(t_args)):
                extension = ("mul", s_args[:status.k], t_args[:status.k])
            else:
                return None
            return [extension] + [("rpo", s, ti) for ti in t_args]
        case "mul:cover":
            # a map pi from targets to sources and a set of strict
            # sources: each strict source covers at least one target and
            # dominates all of them, each other source covers exactly one
            # target weakly, and some source is strict or covers nothing
            if not (type(node.data) is tuple and len(node.data) == 2):
                return None
            pi, strict = node.data
            if not (type(pi) is tuple and len(pi) == len(t)
                    and all(_index(j, len(s)) for j in pi)
                    and isinstance(strict, frozenset) and strict <= set(pi)
                    and (strict or len(s) > len(t))
                    and all(pi.count(j) == 1 for j in pi
                            if j not in strict)):
                return None
            return [("gt" if j in strict else "geq", s[j], tj)
                    for j, tj in zip(pi, t)]
        case "lex:strict-prefix":
            if not _index(i, min(len(s), len(t))):
                return None
            return ([("geq", si, ti) for si, ti in zip(s[:i], t[:i])]
                    + [("gt", s[i], t[i])])
        case "rpo:base":
            if not _peelable(s) or not (
                    t.is_value or (isinstance(t, Variable) and t in cvars)):
                return None
            return []
        case "geq:app":
            # the prefixes have one type: the sides' and the last arguments'
            if (s.is_theory_term or type(s) is not App or type(t) is not App
                    or s.type != t.type or s.args[-1].type != t.args[-1].type):
                return None
            (s_prefix, s_last), (t_prefix, t_last) = s.curried(), t.curried()
            return [("geq", s_prefix, t_prefix), ("geq", s_last, t_last)]
        case "geq:strict":
            return [("gt", s, t)]
        case "gt:args-fun" | "gt:args-var":
            if s.is_theory_term:
                return None
            s_head, s_args, t_args = s.head, s.args, t.args
            if (s_head != t.head or len(s_args) != len(t_args)
                    or isinstance(s_head, FunctionSymbol)
                    != (node.case == "gt:args-fun")
                    or not _index(i, len(s_args))):
                return None
            return [("gt" if k == i else "geq", si, ti)
                    for k, (si, ti) in enumerate(zip(s_args, t_args))]
    return None


def _index(value, size: int) -> bool:
    return type(value) is int and 0 <= value < size


def _peelable(s: Term) -> bool:
    """Whether `s` is no theory term and a function symbol heads it."""
    return not s.is_theory_term and isinstance(s.head, FunctionSymbol)
