"""The rewrite relation: matching, rule and calculation steps, normalization.

A step either instantiates a rule with a substitution that respects it, or
calculates a fully-applied theory redex; both may happen at any position.
Variables that matching cannot bind (fresh right-hand side or
constraint-only variables) are instantiated from a pluggable input source.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from .core import (
    App, BOOL_T, INT_T, LcstrsError, Rule, Substitution, Term, Variable,
)
from .syntax import System
from .theory import (
    bool_value, int_value, interpret, semantic_value, try_calculate,
    value_symbol,
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
    back to deterministic defaults: 0 for Int, false for Bool.
    """

    def __init__(self, values: Sequence[Union[int, bool]] = ()):
        self._queue = list(values)

    def value_for(self, var: Variable) -> Term:
        if self._queue:
            value = self._queue.pop(0)
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

    @property
    def kind(self) -> str:
        return "calc" if self.rule_index is None else f"rule#{self.rule_index + 1}"


# A contraction found by `_probe`: the rule index (None for a calculation),
# the substitution (None for a calculation) and the contractum.
Contraction = tuple[Optional[int], Optional[Substitution], Term]


def _probe(redex: Term, system: System,
           inputs: InputSource) -> tuple[list[Contraction], bool]:
    """Every step at the root of `redex`: rule steps in file order, then
    the calculation step if one applies; and whether an input was drawn.

    Every rule that matches draws values for its fresh variables, even
    after an earlier rule applied and even if its constraint then fails,
    so a probe that drew can answer differently next time.

    A matching substitution respects its rule when every logical variable
    goes to a value and the rule's constraint, compiled once per system
    at its bound, holds under those values: what `respects` decides.
    """
    head, nargs = redex, 0
    while isinstance(head, App):
        head, nargs = head.head, nargs + 1
    found: list[Contraction] = []
    drew = False
    for index, rule in system.rules_for(head, nargs):
        if rule.lhs.type != redex.type:
            continue
        subst = match(rule.lhs, redex)
        if subst is None:
            continue
        logical, holds = system.constraint_checks[index]
        # values for the variables matching left unbound, in name order
        drawn = {v: inputs.value_for(v) for v in logical if v not in subst}
        if drawn:
            drew = True
            subst = Substitution((*subst.items(), *drawn.items()))
        values = tuple(subst.get(v).value for v in logical)
        if None not in values and holds(values):
            found.append((index, subst, subst.apply(rule.rhs)))
    # only a theory symbol or a variable heads a calculation redex
    calculated = (try_calculate(redex, system.bound) if head.is_theory_term
                  else None)
    if calculated is not None:
        found.append((None, None, calculated))
    return found, drew


def step_at(term: Term, position: Position, system: System,
            inputs: Optional[InputSource] = None) -> list[RewriteStep]:
    """All steps whose redex is exactly the subterm at `position`:
    rule steps in file order, then the calculation step if one applies."""
    redex = term.subterm_at(position)
    if inputs is None:
        inputs = InputSource()
    found, _ = _probe(redex, system, inputs)
    return [RewriteStep(position, index, subst,
                        term.replace_at(position, contractum))
            for index, subst, contractum in found]


# The context of a subterm during the walk: None at the root, else
# (context of the parent, 0 for the head or 1 for the argument, parent).
Context = Optional[tuple["Context", int, App]]


def _find_redex(term: Term, system: System, inputs: InputSource,
                innermost: bool) -> Optional[tuple[Context, Contraction]]:
    """The first position of `term` that admits a step, in leftmost-
    innermost (head subtree, argument subtree, node) or leftmost-outermost
    (node, head subtree, argument subtree) order, with its first step.

    A subterm whose whole subtree was probed without a step and without
    an input drawn is marked normal for the system: its `_normal` entry is
    set to the system's token. A subterm with that mark is skipped.
    """
    mark = system.__dict__.setdefault("_normal_mark", object())
    draws = 0
    # (subterm, context, None on entry or the draw count when it was entered)
    stack: list[tuple[Term, Context, Optional[int]]] = [(term, None, None)]
    while stack:
        t, ctx, entered = stack.pop()
        leaving = entered is not None
        if not leaving:
            if t.__dict__.get("_normal") is mark:
                continue
            stack.append((t, ctx, draws))
            if isinstance(t, App):
                stack.append((t.arg, (ctx, 1, t), None))
                stack.append((t.head, (ctx, 0, t), None))
        # innermost probes a node on leaving it, outermost on entering it
        if leaving == innermost:
            found, drew = _probe(t, system, inputs)
            if found:
                return ctx, found[0]
            draws += drew
        if leaving and draws == entered:
            t.__dict__["_normal"] = mark
    return None


def _plug(ctx: Context, term: Term) -> tuple[Position, Term]:
    """The position of a context's hole and the context filled with `term`,
    a term of the hole's type: each ancestor is rebuilt with its own type,
    without re-checking it."""
    path = []
    rebuilt = App._rebuilt
    while ctx is not None:
        ctx, side, parent = ctx
        path.append(side)
        term = (rebuilt(parent, term, parent.arg) if side == 0
                else rebuilt(parent, parent.head, term))
    path.reverse()
    return tuple(path), term


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

    The strategy fixes the search order for redexes only; both strategies
    explore every position. Each step takes the first step `step_at` lists
    at the first position that has one. Every search starts at the root,
    carries each subterm down with its context, and skips subterms marked
    normal for `system` (see `_find_redex`), in this call or an earlier
    one: no input was drawn below a mark, so it depends only on the rules
    and the bound, which a frozen `System` fixes. The token is a bare
    object the system holds, so a marked leaf that every system shares,
    such as `int_value(0)`, keeps none alive, and another system's mark
    costs a rescan. The trace keeps at most `TRACE_CAP` steps.
    """
    if strategy not in ("innermost", "outermost"):
        raise LcstrsError(f"unknown strategy {strategy!r}")
    if fuel < 0:
        raise LcstrsError("fuel must be non-negative")
    if inputs is None:
        inputs = InputSource()
    innermost = strategy == "innermost"
    result = NormalizationResult(term)
    while True:
        found = _find_redex(result.term, system, inputs, innermost)
        if found is None:
            break
        if result.total_steps == fuel:
            result.exhausted = True
            break
        ctx, (index, subst, contractum) = found
        position, result.term = _plug(ctx, contractum)
        if len(result.steps) < TRACE_CAP:
            result.steps.append(RewriteStep(position, index, subst, result.term))
        result.total_steps += 1
    return result


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
