"""A constraint-indexed recursive path ordering on applicative terms.

Three mutually recursive relations drive everything, each indexed by the
engine's logical constraint and variable set: a weak comparison `geq`, a
strict comparison `gt`, and a structural descent relation `rpo` that peels
arguments off a symbol-headed term. Theory terms of base sort are compared
semantically, through entailment of the built-in ordering symbols;
everything else is compared structurally using a precedence on function
symbols and a per-symbol status (lexicographic or k-ary multiset
comparison of arguments).

A rule is oriented by a strict comparison of its sides under the rule's
constraint, with the constraint's variable set enlarged by the variables
that are fresh on the right: respecting substitutions instantiate those by
values, which is exactly what the base case of the descent relation needs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional, Sequence, Union

from . import theory
from .core import (
    App, FunctionSymbol, LcstrsError, Rule, Term, Variable,
    is_theory_sort_type,
)
from .rewrite import joinable_calc
from .solver import Solver, Verdict
from .syntax import print_term


@dataclass(frozen=True)
class Lex:
    """Lexicographic argument comparison."""

    def __repr__(self):
        return "lex"


@dataclass(frozen=True)
class Mul:
    """Multiset comparison of the first k arguments (k >= 2)."""
    k: int

    def __post_init__(self):
        if self.k < 2:
            raise LcstrsError(f"multiset status needs k >= 2, got {self.k}")

    def __repr__(self):
        return f"mul({self.k})"


LEX = Lex()
Status = Union[Lex, Mul]


class HorpoParams:
    """Parameters of one ordering instance: precedence edges among
    non-theory symbols, status per symbol (default lexicographic), and the
    lower bound for the integer ordering symbol.

    The precedence implicitly puts every non-theory symbol above every
    theory symbol; theory symbols are mutually incomparable. Explicit
    edges must be acyclic.
    """

    def __init__(self, precedence: Iterable[tuple[FunctionSymbol, FunctionSymbol]] = (),
                 status: Optional[Mapping[FunctionSymbol, Status]] = None,
                 bound: int = 0):
        edges = frozenset(precedence)
        for f, g in edges:
            if f.is_theory or g.is_theory:
                raise LcstrsError(
                    "precedence edges may only relate non-theory symbols "
                    f"(got {f.name} > {g.name})")
            if f == g:
                raise LcstrsError(f"precedence edge {f.name} > {f.name} is a cycle")
        self.edges = edges
        self.status = dict(status or {})
        for f, st in self.status.items():
            if not isinstance(st, (Lex, Mul)):
                raise LcstrsError(f"bad status {st!r} for {f.name}")
        self.bound = bound
        self._closure = _transitive_closure(edges)
        for f, above in self._closure.items():
            if f in above:
                raise LcstrsError("precedence contains a cycle through "
                                  f"'{f.name}'")

    def prec_gt(self, f: FunctionSymbol, g: FunctionSymbol) -> bool:
        if f == g:
            return False
        if not f.is_theory and g.is_theory:
            return True
        return g in self._closure.get(f, ())

    def status_of(self, f: FunctionSymbol) -> Status:
        return self.status.get(f, LEX)


def _transitive_closure(edges: frozenset) -> dict:
    direct: dict = {}
    for f, g in edges:
        direct.setdefault(f, set()).add(g)
    closure: dict = {}
    for f in direct:
        seen: set = set()
        stack = list(direct.get(f, ()))
        while stack:
            g = stack.pop()
            if g in seen:
                continue
            seen.add(g)
            stack.extend(direct.get(g, ()))
        closure[f] = seen
    return closure


# ---------------------------------------------------------------------------
# Judgments


@dataclass(frozen=True)
class Judgment:
    """A successful comparison with its full derivation tree.

    `case` names the rule of the definition that applied, as
    `relation:rule`; `data` carries case-specific payload (the strict
    position for lexicographic comparisons, the mapping and strict set
    for multiset comparisons). A node stores nothing its case or
    comparison fixes: the constraint and variable set are those of the
    engine that built it (a rule's, in a witness), and a `*:theory` leaf
    is built only on a Yes entailment.
    """
    case: str
    lhs: object     # Term, or tuple of Terms for lex/mul
    rhs: object
    children: tuple = ()
    data: object = None

    @property
    def relation(self) -> str:
        """geq | gt | rpo | lex | mul: the prefix of `case`."""
        return self.case.partition(":")[0]

    def to_dict(self, constraint: Term, memo: Optional[dict] = None) -> dict:
        """The derivation as nested dicts under `constraint`, its rule's;
        `memo` is `print_term`'s."""
        d = {
            "relation": self.relation,
            "case": self.case,
            "lhs": _render(self.lhs, memo),
            "rhs": _render(self.rhs, memo),
            "constraint": print_term(constraint, memo),
        }
        if self.case.endswith(":theory"):
            d["entailment"] = "Yes"
        detail = self._detail()
        if detail is not None:
            d["detail"] = detail
        if self.children:
            d["children"] = [c.to_dict(constraint, memo) for c in self.children]
        return d

    def _detail(self) -> Optional[str]:
        if self.data is None:
            return None
        if self.case == "rpo:subterm":
            return f"argument {self.data + 1}"
        if isinstance(self.data, int):
            return f"strict at position {self.data + 1}"
        if isinstance(self.data, tuple) and len(self.data) == 2:
            pi, strict = self.data
            pairs = ", ".join(f"t{j + 1}<-s{i + 1}" for j, i in enumerate(pi))
            strict_s = ", ".join(f"s{i + 1}" for i in sorted(strict)) or "none"
            return f"map {pairs}; strict {strict_s}"
        return str(self.data)


def _render(side, memo: Optional[dict]) -> str:
    if isinstance(side, Term):
        return print_term(side, memo)
    return "(" + ", ".join(print_term(t, memo) for t in side) + ")"


# ---------------------------------------------------------------------------
# Generalized multiset extension search


def multiset_extension_search(m: int, n: int,
                              gt_ok: Callable[[int, int], bool],
                              geq_ok: Callable[[int, int], bool]
                              ) -> Optional[tuple[tuple[int, ...], frozenset]]:
    """Search for a cover of n targets by m sources.

    Looks for a map pi from target indices to source indices and a set S of
    source indices such that strict sources (those in S) dominate all their
    targets, non-strict sources cover exactly one target weakly, and either
    S is nonempty or there are more sources than targets. Returns (pi, S)
    or None.

    A loop over an explicit stack gives targets 0..n-1 their sources in
    turn, trying sources 0..m-1 in order: it meets complete maps in product
    order, so it returns the product's first cover. A source is empty,
    strict (its targets are all `gt`) or closed (one target, `geq` and not
    `gt`). A target goes to an empty source, or if `gt` to a strict one, so
    a prefix is cut only where some group is already invalid, as it stays
    on every completion. Below target j the search depends only on j and
    the sources' states, so a (j, states) that failed is not searched again.
    """
    EMPTY, STRICT, CLOSED = "empty", "strict", "closed"
    states = [(EMPTY,) * m]     # states[j]: each source's, before target j
    pi: list[int] = []
    failed: set = set()
    i = 0                       # the next source to try for target j
    while True:
        j, state = len(pi), states[-1]
        if j == n and (STRICT in state or m > n):
            return tuple(pi), frozenset(
                k for k, st in enumerate(state) if st is STRICT)
        if j == n or i == 0 and (j, state) in failed:
            i = m
        for i in range(i, m):
            st = state[i]
            if st is not CLOSED and gt_ok(i, j):
                placed = STRICT
                break
            if st is EMPTY and geq_ok(i, j):
                placed = CLOSED
                break
        else:
            failed.add((j, state))
            if not pi:
                return None
            states.pop()
            i = pi.pop() + 1
            continue
        pi.append(i)
        states.append(state[:i] + (placed,) + state[i + 1:])
        i = 0


# ---------------------------------------------------------------------------
# The ordering engine


CLOCK_EVERY = 256       # comparisons asked between two reads of the clock


class _Expired(Exception):
    """The solver's deadline passed during an orientation."""


class Horpo:
    """One proof context: parameters, a solver, the constraint and variable
    set every comparison is under, and memoized judgments.

    Also records, per orientation attempt, every question it asks of the
    parameters: the precedence queries between non-theory symbols that held
    (`prec_hits`) and that failed (`prec_misses`, which drive a parameter
    search), and the symbols whose status it read (`status_reads`; a search
    need not retry statuses that went unread). Besides the bound, these are
    its only reads of the parameters, so its result holds for any
    parameters with the same bound that answer them alike
    (`answers_alike`). `orient_rule` keeps its result as `judgment` and
    releases the memo, so the prover keeps each orienting engine as its
    rule's record, with the entailments that came back Unknown
    (`unknowns`) and the deepest failed comparison (`deepest_failure`),
    and reuses it in place of a fresh engine. Every `CLOCK_EVERY`
    comparisons asked, memo hits included, it reads the clock, and past its
    solver's deadline raises `_Expired`: its memo is then partial.
    """

    def __init__(self, params: HorpoParams, solver: Optional[Solver] = None,
                 constraint: Term = theory.TRUE,
                 logical_vars: frozenset = frozenset()):
        self.params = params
        self.solver = solver or Solver()
        self.constraint, self.logical_vars = constraint, logical_vars
        self._memo: dict = {}
        self._depth = 0
        self._asked = 0     # comparisons asked, memo hits included
        self.prec_hits: set[tuple[FunctionSymbol, FunctionSymbol]] = set()
        self.prec_misses: set[tuple[FunctionSymbol, FunctionSymbol]] = set()
        self.status_reads: set[FunctionSymbol] = set()
        # (goal, reason) of each entailment that came back Unknown
        self.unknowns: list[tuple[Term, str]] = []
        self.judgment: Optional[Judgment] = None
        self._deepest: Optional[tuple[int, str, Term, Term]] = None

    # -- public relations --------------------------------------------------

    def geq(self, s: Term, t: Term) -> Optional[Judgment]:
        if s.type != t.type:
            raise LcstrsError("weak comparison requires terms of equal type")
        return self._run("geq", s, t)

    def gt(self, s: Term, t: Term) -> Optional[Judgment]:
        return self._run("gt", s, t)

    def rpo(self, s: Term, t: Term) -> Optional[Judgment]:
        return self._run("rpo", s, t)

    def lex_ext(self, ss: Sequence[Term],
                ts: Sequence[Term]) -> Optional[Judgment]:
        """Strict comparison at some position, weak on everything before it."""
        prefix: list[Judgment] = []
        for i in range(min(len(ss), len(ts))):
            strict = self._run("gt", ss[i], ts[i])
            if strict is not None:
                return Judgment("lex:strict-prefix", tuple(ss), tuple(ts),
                                tuple(prefix) + (strict,), i)
            weak = self._run("geq", ss[i], ts[i])
            if weak is None:
                return None
            prefix.append(weak)
        return None

    def mul_ext(self, ss: Sequence[Term],
                ts: Sequence[Term]) -> Optional[Judgment]:
        """Generalized multiset comparison of two argument lists."""
        run = self._run
        found = multiset_extension_search(
            len(ss), len(ts),
            lambda i, j: run("gt", ss[i], ts[j]) is not None,
            lambda i, j: run("geq", ss[i], ts[j]) is not None)
        if found is None:
            return None
        pi, strict = found
        # a repeated comparison is a hit in the memo of `_run`
        children = tuple(run("gt" if i in strict else "geq", ss[i], tj)
                         for i, tj in zip(pi, ts))
        return Judgment("mul:cover", tuple(ss), tuple(ts), children,
                        (pi, strict))

    def orient_rule(self, rule: Rule) -> Optional[Judgment]:
        """Compare the rule's sides strictly under its constraint and
        logical variables, made the context; keep the result as `judgment`
        and release the memo."""
        self.constraint, self.logical_vars = rule.constraint, rule.logical_vars
        self._memo.clear()      # its judgments hold under the old context
        self.judgment = self._run("gt", rule.lhs, rule.rhs)
        self._memo.clear()
        return self.judgment

    def answers_alike(self, params: HorpoParams) -> bool:
        """Whether `params` answer every precedence and status question
        this engine asked as its own did: with the same bound, its results
        then hold under `params` unchanged."""
        return (all(params.prec_gt(f, g) for f, g in self.prec_hits)
                and not any(params.prec_gt(f, g) for f, g in self.prec_misses)
                and all(params.status_of(f) == self.params.status_of(f)
                        for f in self.status_reads))

    # -- plumbing ------------------------------------------------------

    def _run(self, rel: str, s: Term, t: Term) -> Optional[Judgment]:
        """The memoized comparison `rel` ("geq", "gt" or "rpo"), noting the
        deepest one that fails. A weak comparison of terms of different
        types fails at once and is neither memoized nor noted."""
        self._asked += 1
        if (not self._asked % CLOCK_EVERY
                and time.monotonic() > self.solver.deadline):
            raise _Expired
        if rel == "geq" and s.type != t.type:
            return None
        key = (rel, s, t)
        if key in self._memo:
            return self._memo[key]
        self._depth += 1
        try:
            result = self._RELATIONS[rel](self, s, t)
        finally:
            self._depth -= 1
        self._memo[key] = result
        if result is None:
            depth = self._depth + 1
            if self._deepest is None or depth > self._deepest[0]:
                self._deepest = (depth, rel, s, t)
        return result

    @property
    def deepest_failure(self) -> Optional[tuple[int, str]]:
        """The deepest failed comparison as (depth, "rel: s vs t"), printed
        only when read: most attempts fail, few reports are shown."""
        if self._deepest is None:
            return None
        depth, rel, s, t = self._deepest
        return depth, f"{rel}: {print_term(s)} vs {print_term(t)}"

    def _entail_ordering(self, s: Term, t: Term,
                         strict: bool) -> Optional[Verdict]:
        """Entailment of s !> t (or s !>= t) when both sides are theory
        terms of one theory sort covered by the engine's variables."""
        if not (s.is_theory_term and t.is_theory_term):
            return None
        if not (is_theory_sort_type(s.type) and s.type == t.type):
            return None
        if not (s.free_vars | t.free_vars) <= self.logical_vars:
            return None
        goal = theory.sup_symbol(s.type, strict).apply(s, t)
        verdict = self.solver.entails(self.constraint, goal,
                                      self.logical_vars, self.params.bound)
        if verdict.is_unknown:
            self.unknowns.append((goal, verdict.reason))
        return verdict

    # -- the three relations -------------------------------------------

    def _geq(self, s: Term, t: Term) -> Optional[Judgment]:
        verdict = self._entail_ordering(s, t, strict=False)
        if verdict is not None and verdict.is_yes:
            return Judgment("geq:theory", s, t)
        strict = self._run("gt", s, t)
        if strict is not None:
            return Judgment("geq:strict", s, t, (strict,))
        if joinable_calc(s, t, self.params.bound):
            return Judgment("geq:calc-join", s, t)
        # the sides have one type: the prefixes do where the last arguments do
        if (not s.is_theory_term and type(s) is App and type(t) is App
                and s.args[-1].type == t.args[-1].type):
            (s_prefix, s_last), (t_prefix, t_last) = s.curried(), t.curried()
            prefix = self._run("geq", s_prefix, t_prefix)
            if prefix is not None:
                last = self._run("geq", s_last, t_last)
                if last is not None:
                    return Judgment("geq:app", s, t, (prefix, last))
        return None

    def _gt(self, s: Term, t: Term) -> Optional[Judgment]:
        verdict = self._entail_ordering(s, t, strict=True)
        if verdict is not None and verdict.is_yes:
            return Judgment("gt:theory", s, t)
        if s.type == t.type:
            descent = self._run("rpo", s, t)
            if descent is not None:
                return Judgment("gt:descent", s, t, (descent,))
        if not s.is_theory_term:
            s_args, t_args = s.args, t.args
            if (s.head == t.head and s_args
                    and len(s_args) == len(t_args)):
                case = ("gt:args-fun" if isinstance(s.head, FunctionSymbol)
                        else "gt:args-var")
                weak = []
                for si, ti in zip(s_args, t_args):
                    w = self._run("geq", si, ti)
                    if w is None:
                        return None
                    weak.append(w)
                for i, (si, ti) in enumerate(zip(s_args, t_args)):
                    strict = self._run("gt", si, ti)
                    if strict is not None:
                        children = tuple(weak[:i]) + (strict,) + tuple(weak[i + 1:])
                        return Judgment(case, s, t, children, i)
        return None

    def _rpo(self, s: Term, t: Term) -> Optional[Judgment]:
        if s.is_theory_term:
            return None
        s_head, s_args = s.head, s.args
        if not isinstance(s_head, FunctionSymbol):
            return None
        # (1) some argument already covers the whole of t
        for i, si in enumerate(s_args):
            if si.type == t.type:
                j = self._run("geq", si, t)
                if j is not None:
                    return Judgment("rpo:subterm", s, t, (j,), i)
        t_head, t_args = t.head, t.args
        # (2) descend into the prefix and the last argument. Peeling one
        # argument at a time subsumes every way of splitting the
        # application into a head and argument segments.
        if t_args:
            prefix, last = t.curried()
            left = self._run("rpo", s, prefix)
            if left is not None:
                right = self._run("rpo", s, last)
                if right is not None:
                    return Judgment("rpo:parts", s, t, (left, right))
        # (3) smaller head symbol by precedence
        if isinstance(t_head, FunctionSymbol):
            above = self.params.prec_gt(s_head, t_head)
            # only between two distinct non-theory symbols does the answer
            # depend on the parameters
            if not (s_head.is_theory or t_head.is_theory) and s_head != t_head:
                (self.prec_hits if above else self.prec_misses).add(
                    (s_head, t_head))
            if above:
                children = self._below(s, t_args)
                if children is not None:
                    return Judgment("rpo:precedence", s, t, children)
        # (4)/(5) same head: compare argument lists by the head's status
        if isinstance(t_head, FunctionSymbol) and t_head == s_head and t_args:
            status = self.params.status_of(s_head)
            self.status_reads.add(s_head)
            ext = None
            if isinstance(status, Lex):
                ext = self.lex_ext(s_args, t_args)
                case = "rpo:lex"
            elif status.k <= len(t_args):
                ext = self.mul_ext(s_args[:min(len(s_args), status.k)],
                                   t_args[:status.k])
                case = "rpo:mul"
            if ext is not None:
                children = self._below(s, t_args)
                if children is not None:
                    return Judgment(case, s, t, (ext,) + children)
        # (6) values and constrained variables are minimal
        if t.is_value or (isinstance(t, Variable) and t in self.logical_vars):
            return Judgment("rpo:base", s, t)
        return None

    def _below(self, s: Term,
               t_args: Sequence[Term]) -> Optional[tuple[Judgment, ...]]:
        """The descent of s onto each of t_args, in order, or None at the
        first that fails."""
        children = []
        for ti in t_args:
            j = self._run("rpo", s, ti)
            if j is None:
                return None
            children.append(j)
        return tuple(children)

    _RELATIONS = {"geq": _geq, "gt": _gt, "rpo": _rpo}
