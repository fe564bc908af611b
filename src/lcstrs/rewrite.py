"""The rewrite relation: matching, rule and calculation steps, normalization.

A step either instantiates a rule with a substitution that respects it, or
calculates a fully-applied theory redex; both may happen at any position.
Variables that matching cannot bind (fresh right-hand side or
constraint-only variables) are instantiated from a pluggable input source.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import Optional, Sequence, Union

from .core import (
    App, BOOL_T, INT_T, LcstrsError, Rule, Substitution, Term, Variable,
)
from .syntax import System
from .theory import (
    OPERATORS, bool_value, compile_constraint, int_value, interpret,
    semantic_value, try_calculate, value_symbol,
)

Position = tuple[int, ...]
TRACE_CAP = 10000   # steps `normalize` keeps in its trace


def match(pattern: Term, subject: Term) -> Optional[Substitution]:
    """First-order applicative matching: the unique substitution over the
    pattern's variables sending pattern to subject, if one exists.

    Subject variables act as constants. Pattern and subject must have the
    same type.
    """
    if pattern.type != subject.type:
        raise LcstrsError(
            f"match: pattern type {pattern.type} differs from subject type "
            f"{subject.type}")
    bindings: dict[Variable, Term] = {}
    stack = [(pattern, subject)]
    pop, push = stack.pop, stack.append
    # the `is` tests skip the structural comparison of shared nodes
    while stack:
        p, s = pop()
        if type(p) is App:
            if type(s) is not App:
                return None
            push((p.head, s.head))
            push((p.arg, s.arg))
        elif type(p) is Variable:
            if p.type is not s.type and p.type != s.type:
                return None
            bound = bindings.get(p)
            if bound is None:
                bindings[p] = s
            elif bound is not s and bound != s:
                return None
        elif p is not s and p != s:  # function symbol leaf
            return None
    return Substitution._trusted(bindings)   # each binding's type was checked


def respects(subst: Substitution, rule: Rule, bound: int = 0) -> bool:
    """Whether a substitution respects a rule: constraint variables and
    fresh right-hand side variables go to values, and the constraint is
    true under those values."""
    values = {}
    for v in rule.logical_vars:
        term = subst.get(v)
        if not term.is_value:
            return False
        values[v] = semantic_value(term)
    return interpret(rule.constraint, bound, values) is True


class InputSource:
    """Supplies value terms for rule variables left unbound by matching.

    Draws from a user-provided list first (in order of use), then falls
    back to deterministic defaults: 0 for Int, false for Bool. `drawn`
    counts the draws, which `normalize` reads.
    """

    def __init__(self, values: Sequence[Union[int, bool]] = ()):
        self._queue = deque(values)
        self.drawn = 0

    def value_for(self, var: Variable) -> Term:
        self.drawn += 1
        if self._queue:
            value = self._queue.popleft()
            term = value_symbol(value)
            if term.type != var.type:
                raise LcstrsError(
                    f"input value {value!r} does not fit variable "
                    f"'{var.name}' : {var.type}")
            return term
        if var.type == INT_T:
            return int_value(0)
        if var.type == BOOL_T:
            return bool_value(False)
        raise LcstrsError(
            f"variable '{var.name}' of type {var.type} cannot take an input value")


@dataclass(frozen=True)
class RewriteStep:
    """One rewrite step: where it happened, what kind, and the whole result."""
    position: Position
    rule_index: Optional[int]  # None marks a calculation step
    subst: Optional[Substitution]
    result: Term

    @classmethod
    def _trusted(cls, position: Position, rule_index: Optional[int],
                 subst: Optional[Substitution], result: Term) -> "RewriteStep":
        """The step, built without the frozen dataclass's `__setattr__`."""
        step = object.__new__(cls)
        step.__dict__.update(position=position, rule_index=rule_index,
                             subst=subst, result=result)
        return step

    @property
    def kind(self) -> str:
        return "calc" if self.rule_index is None else f"rule#{self.rule_index + 1}"


# A contraction found by `_probe`: the rule index (None for a calculation),
# the substitution (None for a calculation) and the contractum.
Contraction = tuple[Optional[int], Optional[Substitution], Term]


def _probe(redex: Term, head: Term, rules: Sequence[tuple],
           system: System, inputs: InputSource) -> list[Contraction]:
    """Every step at the root of `redex`, with head leaf `head`: rule steps
    in file order, then the calculation step if one applies. `rules` are
    the entries `_rules_at` gives for the redex.

    Every rule that matches draws values for its fresh variables, even
    after an earlier rule applied and even if its constraint then fails,
    so a probe that drew can answer differently next time.

    A matching substitution respects its rule when every logical variable
    goes to a value and the rule's constraint, compiled once per system
    at its bound, holds under those values: what `respects` decides.
    Consecutive entries with one left side share its match.
    """
    found: list[Contraction] = []
    last = matched = None
    for index, rule, lhs, logical, fresh, holds in rules:
        if lhs is not last:
            last, matched = lhs, match(lhs, redex)
        if matched is None:
            continue
        subst = matched
        if fresh:   # values for the variables matching left unbound
            subst = Substitution((*subst.items(), *(
                (v, inputs.value_for(v)) for v in fresh)))
        values = tuple(subst.get(v).value for v in logical)
        if None not in values and holds(values):
            found.append((index, subst, subst.apply(rule.rhs)))
    # only a theory symbol or a variable heads a calculation redex
    calculated = (try_calculate(redex, system.bound, head)
                  if head.is_theory_term else None)
    if calculated is not None:
        found.append((None, None, calculated))
    return found


def step_at(term: Term, position: Position, system: System,
            inputs: Optional[InputSource] = None) -> list[RewriteStep]:
    """All steps whose redex is exactly the subterm at `position`:
    rule steps in file order, then the calculation step if one applies."""
    redex = term.subterm_at(position)
    if inputs is None:
        inputs = InputSource()
    head, args = redex.spine()
    rules = _rules_at(_compiled(system), (head, len(args))) or ()
    found = _probe(redex, head, rules, system, inputs)
    return [RewriteStep(position, index, subst,
                        term.replace_at(position, contractum))
            for index, subst, contractum in found]


def _compiled(system: System) -> tuple:
    """What rewriting reads of a system, built once and kept in it: the
    token marking a subterm normal for it; a table from (head symbol,
    argument count) to the rules whose left side has them, in file order,
    each as (index, rule, left side, logical variables in name order, those
    of them not on the left side, constraint compiled over the logical
    variables at the system's bound), with an empty entry for every theory
    operator at its arity; (argument count, entry) for each
    variable-headed left side; the constant left sides; and `D`, the
    deepest position of a left side, at least 2, unbounded if a left side
    is non-linear. Rules with equal left sides, one after the other in the
    file, share one left side object. It depends on the rules alone, not
    on the terms."""
    compiled = system.__dict__.get("_compiled")
    if compiled is not None:
        return compiled
    table = {(op, op.type.arity): [] for op in OPERATORS}
    variable_headed, depth = [], 2
    lhs = None
    for index, rule in enumerate(system.rules):
        if lhs is None or not _same(lhs, rule.lhs):
            lhs = rule.lhs
        logical = tuple(sorted(rule.logical_vars, key=lambda v: v.name))
        entry = (index, rule, lhs, logical,
                 tuple(v for v in logical if v not in lhs.free_vars),
                 compile_constraint(rule.constraint, logical, system.bound))
        head, args = lhs.spine()
        if type(head) is Variable:
            variable_headed.append((len(args), entry))
        else:
            table.setdefault((head, len(args)), []).append(entry)
        occurrences, stack = 0, [(lhs, 0)]
        while stack:
            t, below = stack.pop()
            if type(t) is App:
                stack += ((t.head, below + 1), (t.arg, below + 1))
            else:
                occurrences += type(t) is Variable
                depth = max(depth, below)
        if occurrences > len(lhs.free_vars):
            depth = math.inf
    constants = frozenset(head for head, nargs in table if nargs == 0)
    return system.__dict__.setdefault("_compiled", (
        object(), table, tuple(variable_headed), constants, depth))


def _same(s: Term, t: Term) -> bool:
    """Whether two terms are equal, compared without recursion."""
    stack = [(s, t)]
    while stack:
        a, b = stack.pop()
        if type(a) is App and type(b) is App:
            stack += ((a.head, b.head), (a.arg, b.arg))
        elif type(a) is App or type(b) is App or a != b:
            return False
    return True


def _rules_at(compiled: tuple, key: tuple) -> Optional[list]:
    """The entries of the rules that can match a term with this (head leaf,
    argument count) key, in file order, or None where neither a rule nor a
    calculation can. A left side with a variable head and k arguments may
    match any term of its type with at least k arguments."""
    _, table, variable_headed, _, _ = compiled
    ty, nargs = key[0].type, key[1]
    for _ in range(nargs):
        ty = ty.result
    merged = [entry for k, entry in variable_headed
              if k <= nargs and entry[2].type == ty]
    rules = table.get(key)
    return (sorted((*(rules or ()), *merged), key=lambda e: e[0]) if merged
            else rules)


@dataclass
class NormalizationResult:
    term: Term
    steps: list[RewriteStep] = field(default_factory=list)
    total_steps: int = 0
    exhausted: bool = False  # fuel ran out before a normal form was reached


def normalize(term: Term, system: System, strategy: str = "innermost",
              fuel: int = 10000, inputs: Optional[InputSource] = None
              ) -> NormalizationResult:
    """Apply steps until no position admits one, or fuel runs out.

    Each step takes the first step `step_at` lists at the first position
    that has one, in leftmost-innermost (head subtree, argument subtree,
    node) or leftmost-outermost (node, head subtree, argument subtree)
    order. One walk on an explicit stack serves every step: a step rebuilds
    the hole's open ancestors into their frames, so every pending entry
    stays current, and the walk goes on at the contractum, where innermost
    probes the ancestors as it leaves them. Outermost goes back to the
    ancestor `D` above the hole (see `_compiled`) to probe again those
    below it, past the subtrees left of the path, marked normal. One
    farther up was probed without a step or a draw, and still gives none:
    the hole lies strictly under a position where each left side has a
    variable, bound to an application before and after the step, never to
    a value, so neither a linear match nor a constraint changes, or a
    symbol, which that application fails to match; a calculation reads two
    levels down. A hole on its head chain gives it a new head, but a left
    side for that head is at least as deep as the chain. After a step that
    follows an input draw (`inputs` counts them), the walk starts again at
    the root, so draws happen in the order a walk from the root makes them.
    The walk carries each node's head leaf and argument count, and probes
    a node only where a left side or a theory operator can match.

    A subterm whose whole subtree was walked without a step and without
    an input drawn is marked normal for `system` (its `_normal` entry is
    the system's token), in this call or an earlier one, and skipped: no
    input was drawn below a mark, so it depends only on the rules and the
    bound, which a frozen `System` fixes. The token is a bare object the
    system holds, so a marked leaf that every system shares, such as
    `int_value(0)`, keeps none alive, and another system's mark costs a
    rescan. The trace keeps at most `TRACE_CAP` steps.
    """
    if strategy not in ("innermost", "outermost"):
        raise LcstrsError(f"unknown strategy {strategy!r}")
    if fuel < 0:
        raise LcstrsError("fuel must be non-negative")
    if inputs is None:
        inputs = InputSource()
    innermost = strategy == "innermost"
    compiled = _compiled(system)
    mark, table, variable_headed, constants, depth = compiled
    get = partial(_rules_at, compiled) if variable_headed else table.get
    rebuilt = App._rebuilt
    result = NormalizationResult(term)
    started = inputs.drawn      # the draws when the walk last started
    # An entry to enter is (node, parent frame, side, head leaf, argument
    # count), its head None where it starts a spine; a leaf is entered only
    # at the root or as a constant left side. A node being walked is its
    # frame, [parent frame, side, node, head, argument count, draws].
    stack: list = [(term, None, 0, None, 0)]
    pop, push = stack.pop, stack.append
    while True:
        while stack:
            item = pop()
            if type(item) is list:      # leaving a node
                node, head, n = item[2], item[3], item[4]
                if innermost and (rules := get((head, n))) is not None and (
                        steps := _probe(node, head, rules, system, inputs)):
                    parent, side = item[0], item[1]
                    break
                if inputs.drawn == item[5]:
                    node.__dict__["_normal"] = mark
                continue
            node, parent, side, head, n = item
            if node.__dict__.get("_normal") is mark:
                continue
            if head is None:
                head = node
                while type(head) is App:
                    head, n = head.head, n + 1
            frame = [parent, side, node, head, n, inputs.drawn]
            if not innermost and (rules := get((head, n))) is not None and (
                    steps := _probe(node, head, rules, system, inputs)):
                break
            push(frame)
            if type(node) is App:
                child = node.arg
                if type(child) is App or constants and child in constants:
                    push((child, frame, 1, None, 0))
                child = node.head
                if type(child) is App or constants and child in constants:
                    push((child, frame, 0, head, n - 1))
        else:
            return result
        if result.total_steps == fuel:
            result.exhausted = True
            return result
        index, subst, contractum = steps[0]     # at `side` of `parent`
        head, n = contractum, 0
        while type(head) is App:
            head, n = head.head, n + 1
        # rebuild each ancestor into its frame, and give those whose head
        # chain holds the hole the contractum's head
        t, f, s, chain, path = contractum, parent, side, n, []
        while f is not None:
            node = f[2]
            f[2] = t = (rebuilt(node, t, node.arg) if s == 0
                        else rebuilt(node, node.head, t))
            path.append(s)
            if chain is not None and s == 0:
                chain += 1
                f[3], f[4] = head, chain
            else:
                chain = None
            s, f = f[1], f[0]
        result.term = t
        if len(result.steps) < TRACE_CAP:
            path.reverse()
            result.steps.append(
                RewriteStep._trusted(tuple(path), index, subst, t))
        result.total_steps += 1
        if inputs.drawn != started:
            stack[:] = [(t, None, 0, None, 0)]
            started = inputs.drawn
        elif not innermost and parent is not None:
            # walk again from the ancestor `D` above the hole, or the root:
            # the subtrees left of the path are marked normal
            f, d = parent, 1
            while d < depth and f[0] is not None:
                f, d = f[0], d + 1
            while pop() is not f:
                pass
            push((f[2], f[0], f[1], f[3], f[4]))
        elif type(contractum) is App or contractum in constants:
            push((contractum, parent, side, head, n))


def calc_normal_form(term: Term, bound: int = 0) -> Term:
    """The unique normal form under calculation steps alone.

    One bottom-up pass suffices: calculation redexes take value arguments,
    so reducing subterms first leaves at most a root step. A node that
    nothing changes is returned itself, keeping its cached hash.
    """
    if isinstance(term, App):
        head = calc_normal_form(term.head, bound)
        arg = calc_normal_form(term.arg, bound)
        reduced = (term if head is term.head and arg is term.arg
                   else App(head, arg))
        calculated = try_calculate(reduced, bound)
        return calculated if calculated is not None else reduced
    return term


def joinable_calc(s: Term, t: Term, bound: int = 0) -> bool:
    """Whether two terms reach a common term via calculation steps alone.

    Calculation redexes never overlap, so comparing normal forms is sound
    and complete.
    """
    if s.type != t.type:
        raise LcstrsError(
            f"joinable_calc: types {s.type} and {t.type} differ")
    if s == t:
        return True
    return calc_normal_form(s, bound) == calc_normal_form(t, bound)
