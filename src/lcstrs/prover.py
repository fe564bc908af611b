"""Automatic search for ordering parameters that orient every rule.

The search walks a small, finite space: for each candidate bound and each
assignment of statuses to defined symbols (lexicographic first, then
multiset by descending width), it grows a precedence incrementally. An
orientation attempt that fails reports which precedence queries came up
empty; each such edge is hypothesized in turn, rejecting cycles, and the
attempt is retried. Precedence growth never invalidates an orientation
that already succeeded, so the first fully-oriented assignment wins.

The assignments are walked in product order, symbol by symbol, with
pruning. A precedence search depends on the statuses only through the
ones it reads, so an assignment that agrees with a failed one on every
status that search read would fail the same way: the walk skips every
such assignment, whole subtrees at a time, and credits the attempts the
failed search made to each. The first witness found, and the attempt
count of a failure report, are those of the unpruned product.

The state of the whole search lives in one `_Budget`: the deadline and
whether it has passed, the attempts covered, and the furthest failure,
which the report names. Each distinct bound is searched once.

A found witness is self-certifying: `check_witness` replays every rule
from scratch with fresh caches.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .core import FunctionSymbol
from .horpo import LEX, Horpo, HorpoParams, Judgment, Mul, Status
from .solver import Solver
from .syntax import System, print_rule, print_term


@dataclass
class ProverConfig:
    bounds: Sequence[int] = (0,)
    timeout: float = 60.0                 # wall-clock budget, seconds
    smt_command: Optional[str] = None


@dataclass
class Witness:
    """Ordering parameters plus one derivation per rule, in rule order."""
    params: HorpoParams
    derivations: tuple[Judgment, ...]

    def to_dict(self) -> dict:
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
                    "lhs": print_term(j.lhs),
                    "rhs": print_term(j.rhs),
                    "constraint": print_term(j.constraint),
                    "derivation": j.to_dict(),
                }
                for i, j in enumerate(self.derivations)
            ],
        }

    def to_text(self) -> str:
        lines = ["termination witness"]
        lines.append(f"  bound: {self.params.bound}")
        hasse = self.params.hasse_pairs()
        prec = ", ".join(f"{f.name} > {g.name}" for f, g in hasse) or "(empty)"
        lines.append(f"  precedence: {prec}")
        status = ", ".join(
            f"{f.name}: {st!r}" for f, st in sorted(
                self.params.status.items(), key=lambda it: it[0].name))
        lines.append(f"  status: {status or '(all lexicographic)'}")
        for i, j in enumerate(self.derivations):
            lines.append(f"  rule {i + 1}: {print_term(j.lhs)} -> "
                         f"{print_term(j.rhs)} [{print_term(j.constraint)}]")
            lines.append(j.to_text(indent=4))
        return "\n".join(lines)


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
    message: str = ""

    def __post_init__(self):
        if not self.message:
            kind = ("gave up before exhausting the search space" if self.gave_up
                    else "no witness exists in the search space")
            self.message = f"{kind} ({self.searched} orientation attempts)"

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

    def to_text(self) -> str:
        lines = [f"no termination witness found: {self.message}"]
        for f in self.failures:
            lines.append(f"  rule {f.index}: {f.rule}")
            if f.deepest:
                lines.append(f"    deepest failing comparison: {f.deepest}")
            for u in f.unknowns:
                lines.append(f"    undecided entailment: {u}")
        return "\n".join(lines)


ProveResult = Union[Witness, FailureReport]


class _Budget:
    """The state of one search: its deadline, whether that has passed, the
    orientation attempts covered, and the furthest failure."""

    def __init__(self, timeout: float):
        self.deadline = time.monotonic() + timeout
        self.expired = False
        self.attempts = 0
        # (index of the first rule not oriented, the engine that failed on
        # it) of the first attempt that oriented the most rules
        self.failure: Optional[tuple[int, Horpo]] = None

    def exceeded(self) -> bool:
        if not self.expired:
            self.expired = time.monotonic() > self.deadline
        return self.expired


def _status_options(symbol: FunctionSymbol) -> list[Status]:
    arity = symbol.type.arity
    return [LEX] + [Mul(k) for k in range(arity, 1, -1)]


def _status_walk(options: list[list[Status]], refuted: dict,
                 budget: _Budget):
    """Yield the tuples of `product(*options)` in order, minus every tuple
    that agrees with a refuted one at each position that one's search read.

    `refuted` maps the sorted read positions of a failed search to {the
    statuses at those positions: the attempts it made}; the caller adds to
    it as tuples fail. A skipped tuple would repeat such a search step for
    step, so its attempts are credited to the budget. The walk stops when
    the deadline has passed where a search was skipped: a run of skips can
    be as long as the product, so it too must stop at the deadline.
    """
    prefix: list[Status] = []

    def walk(depth: int):
        for positions, failed in refuted.items():
            if positions and positions[-1] >= depth:
                continue
            attempts = failed.get(tuple(prefix[i] for i in positions))
            if attempts is not None:
                if not budget.exceeded():
                    budget.attempts += attempts * math.prod(
                        len(column) for column in options[depth:])
                return
        if depth == len(options):
            yield tuple(prefix)
            return
        for option in options[depth]:
            prefix.append(option)
            yield from walk(depth + 1)
            prefix.pop()
            if budget.expired:
                return

    return walk(0)


def find_witness(system: System, config: Optional[ProverConfig] = None
                 ) -> ProveResult:
    """Search bounds, statuses and precedences for a verified witness."""
    cfg = config or ProverConfig()
    if cfg.bounds and not system.rules:
        # the empty witness orients every rule
        return Witness(HorpoParams((), {}, cfg.bounds[0]), ())
    defined = system.defined_symbols()
    position = {f: i for i, f in enumerate(defined)}
    options = [_status_options(f) for f in defined]
    budget = _Budget(cfg.timeout)

    for bound in dict.fromkeys(cfg.bounds):     # each distinct bound once
        solver = Solver(smt_command=cfg.smt_command, bound=bound)
        refuted: dict = {}
        for combo in _status_walk(options, refuted, budget):
            made = budget.attempts
            outcome = _search_precedence(system, dict(zip(defined, combo)),
                                         bound, solver, budget)
            if isinstance(outcome, Witness):
                return outcome
            if budget.expired:
                break
            # statuses of symbols without rules are lex in every tuple
            read = tuple(sorted(position[f] for f in outcome if f in position))
            refuted.setdefault(read, {})[tuple(combo[i] for i in read)] = (
                budget.attempts - made)
        if budget.expired:
            break

    failures: tuple[RuleFailure, ...] = ()
    gave_up = budget.expired
    if budget.failure is not None:
        # rendered once, for the report that is shown
        index, engine = budget.failure
        deepest = engine.deepest_failure
        failures = (RuleFailure(index + 1, print_rule(system.rules[index]),
                                deepest[1] if deepest else None,
                                tuple(engine.unknowns)),)
        gave_up = gave_up or bool(engine.unknowns)
    return FailureReport(failures, budget.attempts, gave_up)


def _search_precedence(system: System, status: dict, bound: int,
                       solver: Solver, budget: _Budget
                       ) -> Union[Witness, set[FunctionSymbol]]:
    """Depth-first growth of the precedence edge set for one status/bound
    choice. Each failed attempt is offered to `budget.failure`. Returns a
    Witness, or else the symbols whose status any engine of any attempt
    read."""
    visited: set[frozenset] = set()
    reads: set[FunctionSymbol] = set()

    def dfs(edges: frozenset) -> Optional[Witness]:
        if edges in visited or budget.exceeded():
            return None
        visited.add(edges)
        budget.attempts += 1
        params = HorpoParams(edges, status, bound)
        derivations = []
        for index, rule in enumerate(system.rules):
            engine = Horpo(params, solver)
            judgment = engine.orient_rule(rule)
            reads.update(engine.status_reads)
            if judgment is None:
                break
            derivations.append(judgment)
        else:
            return Witness(params, tuple(derivations))
        if budget.failure is None or index > budget.failure[0]:
            budget.failure = (index, engine)
        for f, g in sorted(engine.prec_misses,
                           key=lambda e: (e[0].name, e[1].name)):
            # a miss relates two distinct non-theory symbols, so this
            # holds exactly when f is reachable from g: f > g would close
            # a cycle
            if params.prec_gt(g, f):
                continue
            found = dfs(edges | {(f, g)})
            if found is not None or budget.expired:
                return found
        return None

    return dfs(frozenset()) or reads


def params_from_dict(data: dict, signature) -> HorpoParams:
    """Rebuild ordering parameters from a witness JSON document, so a
    third party can re-check a proof from its serialized form alone."""
    def symbol(name: str) -> FunctionSymbol:
        found = signature.lookup(name)
        if not found:
            raise ValueError(f"witness names unknown symbol '{name}'")
        return found[0]

    edges = [(symbol(f), symbol(g)) for f, g in data["precedence"]]
    status: dict[FunctionSymbol, Status] = {}
    for name, st in data["status"].items():
        if st == "lex":
            status[symbol(name)] = LEX
        elif st.startswith("mul(") and st.endswith(")"):
            status[symbol(name)] = Mul(int(st[4:-1]))
        else:
            raise ValueError(f"bad status {st!r} in witness")
    return HorpoParams(edges, status, int(data["bound"]))


@dataclass
class CheckResult:
    ok: bool
    diagnostics: tuple[str, ...] = ()
    derivations: tuple[Optional[Judgment], ...] = ()


def check_witness(witness: Witness, system: System,
                  solver: Optional[Solver] = None) -> CheckResult:
    """Re-validate the witness parameters and re-orient every rule with
    fresh caches, independently of whatever search produced the witness."""
    params = HorpoParams(witness.params.edges, witness.params.status,
                         witness.params.bound)
    if solver is None:
        solver = Solver(bound=params.bound)
    diagnostics: list[str] = []
    derivations: list[Optional[Judgment]] = []
    for index, rule in enumerate(system.rules):
        engine = Horpo(params, solver)
        judgment = engine.orient_rule(rule)
        derivations.append(judgment)
        if judgment is None:
            note = f"rule {index + 1} not oriented: {print_rule(rule)}"
            deepest = engine.deepest_failure
            if deepest:
                note += f" (deepest failure: {deepest[1]})"
            diagnostics.append(note)
    return CheckResult(not diagnostics, tuple(diagnostics), tuple(derivations))
