"""Shared test machinery: random term generators and independent oracles."""

from __future__ import annotations

import itertools
import random
from collections import Counter
from typing import Iterator

from lcstrs.core import (
    App, ArrowType, BOOL_T, FunctionSymbol, INT_T, LcstrsError, PreApp, Rule,
    Signature, Substitution, Term, Type, TypingError, Variable,
)
from lcstrs import theory
from lcstrs.horpo import Horpo
from lcstrs.prover import Witness
from lcstrs.theory import (
    ADD, AND, EQ, GE, GT, LE, LT, MUL, NE, NOT, OR, SUB, SUP_BOOL, SUP_INT,
    SUPEQ_BOOL, SUPEQ_INT, bool_value, int_value,
)
from lcstrs.rewrite import (
    InputSource, Position, RewriteStep, match, respects, step_at,
)
from lcstrs.syntax import print_rule
from lcstrs.theory import try_calculate

INT_BINOPS = (ADD, SUB, MUL)
CMP_OPS = (LE, LT, GE, GT, EQ, NE, SUP_INT, SUPEQ_INT)
BOOL_BINOPS = (AND, OR, SUP_BOOL, SUPEQ_BOOL)


# ---------------------------------------------------------------------------
# Random ground theory terms


def gen_theory_term(rng: random.Random, sort=None, budget: int = 12) -> Term:
    """A random ground theory term of the given sort within a node budget."""
    if sort is None:
        sort = rng.choice((INT_T, BOOL_T))
    if sort == INT_T:
        if budget < 5 or rng.random() < 0.25:
            return int_value(rng.randint(-9, 9))
        op = rng.choice(INT_BINOPS)
        left_budget = rng.randint(1, budget - 4)
        left = gen_theory_term(rng, INT_T, left_budget)
        right = gen_theory_term(rng, INT_T, budget - 3 - left.size)
        return op.apply(left, right)
    if budget < 5 or rng.random() < 0.25:
        return bool_value(rng.random() < 0.5)
    kind = rng.random()
    if kind < 0.5:
        op = rng.choice(CMP_OPS)
        left_budget = rng.randint(1, budget - 4)
        left = gen_theory_term(rng, INT_T, left_budget)
        right = gen_theory_term(rng, INT_T, budget - 3 - left.size)
        return op.apply(left, right)
    if kind < 0.8 or budget < 5:
        op = rng.choice(BOOL_BINOPS)
        left_budget = rng.randint(1, budget - 4)
        left = gen_theory_term(rng, BOOL_T, left_budget)
        right = gen_theory_term(rng, BOOL_T, budget - 3 - left.size)
        return op.apply(left, right)
    return NOT.apply(gen_theory_term(rng, BOOL_T, budget - 2))


INT_VARS = tuple(Variable(name, INT_T) for name in ("x", "y", "z"))
BOOL_VARS = tuple(Variable(name, BOOL_T) for name in ("p", "q"))


def with_variables(rng: random.Random, term: Term) -> Term:
    """The term with about half of its value leaves replaced by variables
    of the same sort."""
    if isinstance(term, FunctionSymbol):
        if term.is_value and rng.random() < 0.5:
            return rng.choice(INT_VARS if term.type == INT_T else BOOL_VARS)
        return term
    return App(term.head, tuple(with_variables(rng, a) for a in term.args))


# ---------------------------------------------------------------------------
# Random well-typed ground terms over an arbitrary signature


def argument_types(ty: Type) -> tuple[Type, ...]:
    out = []
    while isinstance(ty, ArrowType):
        out.append(ty.arg)
        ty = ty.result
    return tuple(out)


def _result_after(ty, k: int):
    for _ in range(k):
        if not isinstance(ty, ArrowType):
            return None
        ty = ty.result
    return ty


def gen_ground_term(rng: random.Random, signature: Signature, target,
                    depth: int, int_lo: int = -5, int_hi: int = 5) -> Term:
    """A random ground well-typed term of the target type.

    Depth bounds the recursion; at depth <= 0 the candidates that need the
    fewest arguments are preferred, which terminates for every type the
    fixture signatures can express.
    """
    if depth < -10:
        raise RuntimeError("generator recursed too deep")
    candidates = []
    for symbol in signature.symbols():
        for k in range(symbol.type.arity + 1):
            if _result_after(symbol.type, k) == target:
                candidates.append((symbol, k))
    if target == INT_T:
        candidates.append((None, 0))  # integer literal
    if target == BOOL_T:
        candidates.append((bool_value(rng.random() < 0.5), 0))
    if depth <= 0:
        min_k = min(k for _, k in candidates)
        candidates = [c for c in candidates if c[1] == min_k]
    symbol, k = rng.choice(candidates)
    if symbol is None:
        return int_value(rng.randint(int_lo, int_hi))
    term: Term = symbol
    for arg_type in argument_types(symbol.type)[:k]:
        term = term.apply(gen_ground_term(rng, signature, arg_type,
                                          depth - 1, int_lo, int_hi))
    return term


# ---------------------------------------------------------------------------
# Independent oracles


def recursive_is_theory_term(t: Term) -> bool:
    """Direct recursion on the defining grammar (oracle for the cached flag)."""
    if isinstance(t, Variable):
        return True
    if isinstance(t, FunctionSymbol):
        return t.is_theory
    return recursive_is_theory_term(t.head) and all(
        map(recursive_is_theory_term, t.args))


def recursive_free_vars(t: Term) -> frozenset:
    if isinstance(t, Variable):
        return frozenset((t,))
    if isinstance(t, FunctionSymbol):
        return frozenset()
    return recursive_free_vars(t.head).union(*map(recursive_free_vars, t.args))


def respects_by_instantiation(subst, rule: Rule, bound: int = 0) -> bool:
    """Reference for `rewrite.respects`: the logical variables go to
    values, and the constraint instantiated by the substitution is ground
    and interprets to true."""
    for v in rule.logical_vars:
        if not subst.get(v).is_value:
            return False
    phi = subst.apply(rule.constraint)
    if phi.free_vars:
        return False
    return theory.interpret(phi, bound) is True


def replay(step: RewriteStep, source: Term, system) -> bool:
    """Re-derive a recorded step from its source term: some step at the
    same position by the same rule, with the step's values for the rule's
    fresh variables, gives the same result."""
    for other in step_at(source, step.position, system,
                         inputs=_ReplayInputs(step)):
        if other.rule_index == step.rule_index and other.result == step.result:
            return True
    return False


class _ReplayInputs:
    """Input source that reproduces a recorded step's fresh-variable values."""

    def __init__(self, step: RewriteStep):
        self._subst = step.subst

    def value_for(self, var: Variable) -> Term:
        if self._subst is None:
            raise LcstrsError("calculation steps take no inputs")
        return self._subst.get(var)


class RecordingInputs(InputSource):
    """An input source that logs every draw as (variable name, value)."""

    def __init__(self, values=()):
        super().__init__(values)
        self.draws = []

    def value_for(self, var: Variable) -> Term:
        term = super().value_for(var)
        self.draws.append((var.name, term))
        return term


def checked_instance(term: Term, mapping: dict) -> Term:
    """`term` with its variables replaced, every node built by the checking
    `App` constructor."""
    if isinstance(term, Variable):
        return mapping.get(term, term)
    if isinstance(term, App):
        return App(checked_instance(term.head, mapping),
                   tuple(checked_instance(a, mapping) for a in term.args))
    return term


def reference_probe(redex: Term, system, inputs) -> list[tuple]:
    """Reference for the steps at the root of `redex`: every rule in file
    order is matched, its logical variables that matching left unbound
    draw inputs in name order, and `respects`, through `interpret`, decides
    the checked substitution; then the calculation step. Each step is
    (rule index or None, substitution or None, contractum)."""
    found = []
    for index, rule in enumerate(system.rules):
        if rule.lhs.type != redex.type:
            continue
        sigma = match(rule.lhs, redex)
        if sigma is None:
            continue
        mapping = dict(sigma.items())
        for v in sorted(rule.logical_vars - mapping.keys(),
                        key=lambda v: v.name):
            mapping[v] = inputs.value_for(v)
        subst = Substitution(mapping)
        if respects(subst, rule, system.bound):
            found.append((index, subst, checked_instance(rule.rhs, mapping)))
    calculated = try_calculate(redex, system.bound)
    if calculated is not None:
        found.append((None, None, calculated))
    return found


def reference_normalize(term: Term, system, strategy: str, fuel: int,
                        inputs) -> tuple[list[tuple], Term, bool]:
    """Reference for `normalize`: every step probes the positions of the
    whole term from scratch, leftmost-innermost (head subtree, argument
    subtree, node) or leftmost-outermost (node first), and rewrites the
    first one that has a step with `Term.replace_at`. Returns the trace as
    (position, rule index, substitution, result) tuples, the last term,
    and whether fuel ran out."""
    trace = []
    current = term
    while True:
        pairs = list(subterms(current))     # outermost order
        if strategy == "innermost":
            pairs.sort(key=lambda pair: pair[0] + (2,))
        for pos, subterm in pairs:
            found = reference_probe(subterm, system, inputs)
            if found:
                break
        else:
            return trace, current, False
        if len(trace) == fuel:
            return trace, current, True
        index, subst, contractum = found[0]
        current = current.replace_at(pos, contractum)
        trace.append((pos, index, subst, current))


def subterms(term: Term) -> Iterator[tuple[Position, Term]]:
    """All (position, subterm) pairs of `term`, root first."""
    stack = [((), term)]
    while stack:
        pos, t = stack.pop()
        yield pos, t
        if isinstance(t, App):
            prefix, last = t.curried()
            stack.append((pos + (1,), last))
            stack.append((pos + (0,), prefix))


def calc_redexes(t: Term, bound: int = 0) -> list[tuple[Position, Term]]:
    """All positions where a calculation step applies, with the results."""
    out = []
    for pos, sub in subterms(t):
        calculated = try_calculate(sub, bound)
        if calculated is not None:
            out.append((pos, t.replace_at(pos, calculated)))
    return out


def random_calc_normalize(t: Term, rng: random.Random, bound: int = 0,
                          watch_size=None) -> Term:
    """Normalize under calculation steps in a random order."""
    current = t
    while True:
        redexes = calc_redexes(current, bound)
        if not redexes:
            return current
        _, successor = rng.choice(redexes)
        if watch_size is not None:
            watch_size(current, successor)
        current = successor


def calc_reachable(t: Term, bound: int = 0, cap: int = 10000) -> set[Term]:
    """Breadth-first closure of a term under single calculation steps."""
    seen = {t}
    queue = [t]
    while queue:
        current = queue.pop(0)
        for _, successor in calc_redexes(current, bound):
            if successor not in seen:
                seen.add(successor)
                queue.append(successor)
        if len(seen) > cap:
            raise RuntimeError("calculation graph unexpectedly large")
    return seen


def joinable_bfs(s: Term, t: Term, bound: int = 0) -> bool:
    """Joinability decided by exploring the full calculation графs."""
    return bool(calc_reachable(s, bound) & calc_reachable(t, bound))


def dershowitz_manna_gt(ms, ns, strict_gt) -> bool:
    """Classic multiset ordering, replayed from its definition: remove a
    nonempty submultiset X from M and add any Y whose members are each
    strictly below some member of X."""
    m_list = list(ms)
    n_count = Counter(ns)
    for r in range(1, len(m_list) + 1):
        for keep in itertools.combinations(range(len(m_list)), r):
            x = [m_list[i] for i in keep]
            rest = Counter(m_list[i] for i in range(len(m_list))
                           if i not in keep)
            if rest - n_count:
                continue  # M - X must be contained in N
            y = n_count - rest
            if all(any(strict_gt(xi, yi) for xi in x)
                   for yi in y.elements()):
                return True
    return False


def product_scan_cover(m: int, n: int, gt_ok, geq_ok):
    """Reference for `horpo.multiset_extension_search`: the scan of every
    map pi from n targets to m sources in `itertools.product` order that
    the search replaced. A map is a cover when each source's group is all
    `gt` (the source is strict) or one target `geq`, and some source is
    strict or m > n. Returns the first (pi, S), or None."""
    if m == 0:
        return None
    for pi in itertools.product(range(m), repeat=n):
        groups: dict[int, list[int]] = {}
        for j, i in enumerate(pi):
            groups.setdefault(i, []).append(j)
        strict = set()
        ok = True
        for i, js in groups.items():
            if all(gt_ok(i, j) for j in js):
                strict.add(i)
            elif len(js) == 1 and geq_ok(i, js[0]):
                continue
            else:
                ok = False
                break
        if not ok:
            continue
        if strict or m > n:
            return pi, frozenset(strict)
    return None


def multisets_up_to(size: int, universe) -> list[tuple]:
    """All multisets (as sorted tuples) of size <= `size` over a universe."""
    out = []
    for k in range(size + 1):
        out.extend(itertools.combinations_with_replacement(universe, k))
    return out


# ---------------------------------------------------------------------------
# Random valid rewrite systems (for subject-reduction style properties)

_ARG_TYPES = (INT_T, BOOL_T, ArrowType(INT_T, INT_T))


def gen_system(rng: random.Random, n_symbols: int = 3, n_rules: int = 4,
               patterns: bool = False):
    """A random valid system: symbol-headed linear left sides over fresh
    variables, right sides built from the left side's variables and ground
    material, constraints over the theory-sorted variables.

    With `patterns`, the system also declares an Int constant `c`, which
    may head a left side of its own, and a left side may stop short of its
    head's arity, may hold values, symbols and applications of declared
    symbols and repeated variables, or may have a variable head; a
    constraint may read a fresh variable, for which a step draws an input.
    """
    from lcstrs.syntax import System

    signature = theory.base_signature()
    defined = []
    for i in range(n_symbols):
        arity = rng.randint(1, 3)
        args = tuple(rng.choice(_ARG_TYPES) for _ in range(arity))
        result = rng.choice((INT_T, BOOL_T))
        symbol = FunctionSymbol(f"h{i}", ArrowType(args[0], _fold(args[1:], result)))
        signature.add(symbol)
        defined.append(symbol)
    if patterns:
        constant = FunctionSymbol("c", INT_T)
        signature.add(constant)
        defined.append(constant)

    rules = []
    for _ in range(n_rules):
        head = rng.choice(defined)
        arg_types = argument_types(head.type)
        if patterns:
            lhs, variables = _gen_pattern(rng, head, arg_types, defined)
        else:
            variables = [Variable(f"v{i}", ty)
                         for i, ty in enumerate(arg_types)]
            lhs = head.apply(*variables)
        fresh = (Variable("w", INT_T)
                 if patterns and rng.random() < 0.3 else None)
        rhs = _gen_rhs(rng, signature, lhs.type,
                       variables + [fresh] if fresh else variables,
                       depth=2 if patterns else 3)
        constraint = _gen_constraint(rng, variables)
        if fresh:
            constraint = AND.apply(constraint, GT.apply(
                fresh, int_value(rng.randint(-2, 2))))
        rules.append(Rule(lhs, rhs, constraint))
    return System(signature=signature, rules=tuple(rules),
                  declarations=tuple(defined))


def _gen_pattern(rng, head, arg_types, defined):
    """A left side for `gen_system(patterns=True)` and its variables: `head`
    applied to some of its arguments, or, one time in ten, a variable
    applied to an Int application of a declared symbol."""
    variables = []

    def argument(ty, nest):
        roll = rng.random()
        same = [v for v in variables if v.type == ty]
        if same and roll < 0.15:
            return rng.choice(same)     # a non-linear left side
        if roll < 0.3 and ty == INT_T:
            return int_value(rng.randint(-1, 2))
        if roll < 0.3 and ty == BOOL_T:
            return bool_value(rng.random() < 0.5)
        nested = [(s, k) for s in defined for k in range(s.type.arity + 1)
                  if _result_after(s.type, k) == ty]
        if nest and nested and roll < 0.6:
            symbol, k = rng.choice(nested)
            return symbol.apply(*(argument(t, False) for t in
                                  argument_types(symbol.type)[:k]))
        v = Variable(f"v{len(variables)}", ty)
        variables.append(v)
        return v

    applied = [(s, k) for s in defined for k in range(1, s.type.arity + 1)
               if _result_after(s.type, k) == INT_T]
    if applied and rng.random() < 0.1:
        symbol, k = rng.choice(applied)
        head_var = Variable("F", ArrowType(INT_T, INT_T))
        variables.append(head_var)
        inner = symbol.apply(*(argument(t, False) for t in
                               argument_types(symbol.type)[:k]))
        return head_var.apply(inner), variables
    k = rng.randint(min(1, len(arg_types)), len(arg_types))
    return head.apply(*(argument(t, True) for t in arg_types[:k])), variables


def system_text(system) -> str:
    """The text of a system file that declares `system`'s symbols and
    states its rules."""
    lines = [f"fun {s.name} : {s.type}" for s in system.declarations]
    lines += [f"rule {print_rule(r)}" for r in system.rules]
    return "\n".join(lines) + "\n"


def _fold(args, result):
    for ty in reversed(args):
        result = ArrowType(ty, result)
    return result


def _gen_rhs(rng, signature, target, variables, depth):
    usable = [v for v in variables if v.type == target]
    if usable and rng.random() < 0.4:
        return rng.choice(usable)
    return gen_ground_term(rng, signature, target, depth)


def _gen_constraint(rng, variables):
    int_vars = [v for v in variables if v.type == INT_T]
    if not int_vars or rng.random() < 0.3:
        return theory.TRUE
    v = rng.choice(int_vars)
    op = rng.choice((LE, LT, GE, GT))
    return op.apply(v, int_value(rng.randint(-3, 3)))


# ---------------------------------------------------------------------------
# Systems shared by the prover suites, and witnesses of chosen parameters


def derived_witness(params, system, solver=None) -> Witness:
    """A witness of `params` whose derivations fresh engines build, one
    per rule, all over `solver`, or each over a fresh one when it is None.
    A rule no engine orients gets None, which `check_witness` rejects as
    not a strict comparison of the rule's sides."""
    return Witness(params, tuple(Horpo(params, solver).orient_rule(rule)
                                 for rule in system.rules))


LIST_SYSTEM = """\
(* user sort List with higher-order map and fold *)
fun nil : List
fun cons : Int -> List -> List
fun map : (Int -> Int) -> List -> List
fun fold : (Int -> Int -> Int) -> Int -> List -> Int
fun range : Int -> Int -> List
rule map f nil -> nil [true]
rule map f (cons x xs) -> cons (f x) (map f xs) [true]
rule fold f a nil -> a [true]
rule fold f a (cons x xs) -> fold f (f a x) xs [true]
rule range i n -> nil [i > n]
rule range i n -> cons i (range (i + 1) n) [i <= n]
"""


def variable_headed_system():
    """`c y -> 1`, `x a -> 0` and `c y -> 2`, in that order: the middle
    rule has a variable head, so it may match any term with at least one
    argument. The parser cannot infer the type of `x`, so the rule is
    built directly."""
    from lcstrs.syntax import System, parse_system

    base = parse_system(
        "fun a : Int\n"
        "fun c : Int -> Int\n"
        "fun d : Int -> Int -> Int\n"
        "rule c y -> 1 [true]\n"
        "rule c y -> 2 [true]\n")
    a, = base.signature.lookup("a")
    x = Variable("x", ArrowType(INT_T, INT_T))
    variable_headed = Rule(x.apply(a), int_value(0), theory.TRUE)
    return System(base.signature,
                  (base.rules[0], variable_headed, base.rules[1]),
                  base.declarations)


def blowup_system(k: int) -> str:
    """The status-blowup family: one swap rule that only mul(2) orients,
    then a chain of k arity-3 symbols. The swap rule comes first, so an
    unpruned status product tries every status of the chain while g is
    still lex: 3^k precedence searches before the witness."""
    lines = ["fun g : Int -> Int -> Int"]
    lines += [f"fun h{i} : Int -> Int -> Int -> Int" for i in range(1, k + 1)]
    lines.append("rule g x y -> g y (x - 1) [x > 0]")
    lines += [f"rule h{i} x y z -> h{i + 1} x y z [true]" for i in range(1, k)]
    lines.append(f"rule h{k} x y z -> g x y [true]")
    return "\n".join(lines) + "\n"


def reversal_system(n: int, constrained: bool = False) -> str:
    """The argument reversal `f x1 .. xn -> f xn .. x1`, a wide multiset
    comparison: mul(n) covers each target by its own source weakly, and
    no source strictly, so every status fails and the search space is
    exhausted. `constrained` adds `x1 = x2 /\\ .. /\\ x(n-1) = xn`, under
    which every source is `geq` every target and none is `gt`."""
    xs = [f"x{i}" for i in range(1, n + 1)]
    guard = (" /\\ ".join(f"{a} = {b}" for a, b in zip(xs, xs[1:]))
             if constrained else "true")
    return (f"fun f : {' -> '.join(['Int'] * (n + 1))}\n"
            f"rule f {' '.join(xs)} -> f {' '.join(reversed(xs))} "
            f"[{guard}]\n")


def repeated_system(n: int) -> str:
    """`f x .. x -> f x .. x` with n arguments: every source covers every
    target weakly and none strictly."""
    xs = " ".join(["x"] * n)
    return (f"fun f : {' -> '.join(['Int'] * (n + 1))}\n"
            f"rule f {xs} -> f {xs} [true]\n")


_SHIFTS = ("x", "y", "x - 1", "y - 1", "x + 1", "y + 1")
_GUARDS = ("true", "x > 0", "y > 0", "x > y", "y > x", "x >= y",
           "x > 0 /\\ y > x", "x > y /\\ y > 0")


def gen_recursive_system(rng: random.Random) -> str:
    """A random system of guarded argument shifts between two binary
    symbols f and g, whose right sides, unlike `gen_system`'s, call
    defined symbols recursively; a quarter of them add the higher-order
    `h k x -> h k (k x)` and `s x -> x - 1`."""
    lines = ["fun f : Int -> Int -> Int", "fun g : Int -> Int -> Int"]
    rules = []
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.25:     # a swap, which only mul(2) orients
            shifts = ("y", rng.choice(("x", "x - 1")))
        else:
            shifts = (rng.choice(_SHIFTS), rng.choice(_SHIFTS))
        args = " ".join(shift if shift in "xy" else f"({shift})"
                        for shift in shifts)
        rules.append(f"rule {rng.choice('fg')} x y -> {rng.choice('fg')} "
                     f"{args} [{rng.choice(_GUARDS)}]")
    if rng.random() < 0.25:
        lines += ["fun h : (Int -> Int) -> Int -> Int", "fun s : Int -> Int"]
        rules += ["rule h k x -> h k (k x) [x > 0]",
                  "rule s x -> x - 1 [true]"]
    return "\n".join(lines + rules) + "\n"


def all_read_system(k: int) -> str:
    """The all-read family: k arity-3 symbols, each with a rule that every
    status orients and every search reads the status of, then a loop no
    search orients. The status walk makes 3^k precedence searches, which
    ask the same two entailments."""
    lines = [f"fun h{i} : Int -> Int -> Int -> Int" for i in range(1, k + 1)]
    lines.append("fun f : Int -> Int")
    lines += [f"rule h{i} x y z -> h{i} (x - 1) y z [x > 0]"
              for i in range(1, k + 1)]
    lines.append("rule f x -> f x [true]")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Reference typechecker: the rule for overloaded names that `typecheck`
# replaced, kept as the oracle of its differential test


def reference_typecheck(pre, signature: Signature, ctx: dict,
                        expected=None) -> Term:
    """The term `pre` denotes, typed by direct recursion: an overloaded
    name takes the first of its symbols, in signature order, that types its
    whole application, each tried on a copy of `ctx`. `ctx` gains the
    variables inferred; an ill-typed term raises TypingError."""
    leaf, args = (pre.head, pre.args) if isinstance(pre, PreApp) else (pre, [])
    symbols = signature.lookup(leaf.name)
    if not symbols:
        head = ctx.get(leaf.name)
        if head is None:
            if args or expected is None:
                raise TypingError(f"cannot infer the type of '{leaf.name}'")
            head = ctx[leaf.name] = Variable(leaf.name, expected)
        return _reference_apply(head, args, signature, ctx, expected)
    for symbol in symbols:
        trial = dict(ctx)
        try:
            term = _reference_apply(symbol, args, signature, trial, expected)
        except TypingError:
            continue
        ctx.update(trial)
        return term
    raise TypingError(f"no symbol '{leaf.name}' types the application")


def _reference_apply(head: Term, args, signature, ctx, expected) -> Term:
    ty = head.type
    typed = []
    for a in args:
        if not isinstance(ty, ArrowType):
            raise TypingError(f"cannot apply a term of type {ty}")
        typed.append(reference_typecheck(a, signature, ctx, ty.arg))
        ty = ty.result
    if expected is not None and ty != expected:
        raise TypingError(f"term has type {ty}, expected {expected}")
    return App(head, tuple(typed)) if typed else head


# ---------------------------------------------------------------------------
# Reference lexer: the character-by-character scanner and comment stripper
# the regex lexer replaced, kept as the oracle of the differential tests.
# An integer is a run of ASCII digits, the theory's literals; an identifier
# starts with a letter, `_` or a numeric character that is not a decimal
# digit (`²`, `½`), so a decimal digit outside ASCII (`٣`) is an error.

_ASCII_DIGITS = "0123456789"
_REFERENCE_OPERATORS = ("!>=", "!>", "!=", "<=", ">=", "->", "/\\", "\\/",
                        "<", ">", "=", "+", "-", "*")


def reference_tokenize(text: str, first_line: int = 1) -> list[tuple]:
    """(kind, text, line, col) of every token, or the scanner's ParseError."""
    from lcstrs.syntax import ParseError

    tokens: list[tuple] = []

    def prev_is_operand() -> bool:
        return bool(tokens) and (tokens[-1][0] in ("ident", "int")
                                 or tokens[-1][1] in (")", "]"))

    line, col = first_line, 1
    i = 0
    while i < len(text):
        c = text[i]
        if c == "\n":
            line, col = line + 1, 1
            i += 1
            continue
        if c.isspace():
            i, col = i + 1, col + 1
            continue
        start_col = col
        if c in _ASCII_DIGITS or (c == "-" and i + 1 < len(text)
                                  and text[i + 1] in _ASCII_DIGITS
                                  and not prev_is_operand()):
            j = i + 1
            while j < len(text) and text[j] in _ASCII_DIGITS:
                j += 1
            tokens.append(("int", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if (c.isalnum() or c == "_") and not c.isdecimal():
            j = i + 1
            while j < len(text) and (text[j].isalnum() or text[j] in "_'"):
                j += 1
            tokens.append(("ident", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if c in "()[]:":
            tokens.append(("punct", c, line, start_col))
            i, col = i + 1, col + 1
            continue
        for op in _REFERENCE_OPERATORS:
            if text.startswith(op, i):
                tokens.append(("arrow" if op == "->" else "op", op, line,
                               start_col))
                i += len(op)
                col += len(op)
                break
        else:
            raise ParseError(f"unexpected character {c!r}", line, start_col)
    return tokens


def reference_strip_comments(text: str) -> str:
    """Replace (* ... *) comments (nestable) by spaces, keeping newlines."""
    from lcstrs.syntax import ParseError

    out = []
    depth = 0
    opened = (0, 0)     # line and column of the outermost open `(*`
    i = 0
    line, col = 1, 1
    while i < len(text):
        if text.startswith("(*", i):
            if depth == 0:
                opened = (line, col)
            depth += 1
            out.append("  ")
            i, col = i + 2, col + 2
        elif depth and text.startswith("*)", i):
            depth -= 1
            out.append("  ")
            i, col = i + 2, col + 2
        else:
            c = text[i]
            if c == "\n":
                line, col = line + 1, 1
                out.append("\n")
            else:
                out.append(c if depth == 0 else " ")
                col += 1
            i += 1
    if depth:
        raise ParseError("unterminated comment", *opened)
    return "".join(out)
