"""Applicative simply-typed terms over a signature with built-in theory sorts.

Terms are immutable trees of function symbols, variables and applications.
An application is flat, `App(head, args)`: a symbol or a variable applied
to all its arguments, so `f a b` is one node however it was built. Every
node stores its type and a few derived facts when it is built (free
variables, size, whether the term is built from theory material only,
whether it is a value), and later at most a mark, written by `rewrite`,
that it is normal under some system; no field, equality or hash reads it.
Construction rejects ill-typed applications, so any `Term` in circulation
is well typed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Callable, Iterable, Iterator, Mapping, NamedTuple, Optional, Union,
)


class LcstrsError(Exception):
    """Base class for all errors raised by this package."""


class TypingError(LcstrsError):
    def __init__(self, message: str, pos: Optional[tuple[int, int]] = None):
        self.pos = pos
        if pos is not None:
            message = f"{pos[0]}:{pos[1]}: {message}"
        super().__init__(message)


class RuleError(LcstrsError):
    """A rewrite rule violates one of its four well-formedness conditions."""

    def __init__(self, condition: int, message: str):
        self.condition = condition
        super().__init__(f"rule condition ({condition}): {message}")


# ---------------------------------------------------------------------------
# Types
#
# A type is a sort (`BaseType`) or an arrow between types. Types and terms
# are frozen dataclasses with the generated `__eq__`.
# Each class defines its own `__hash__` that returns the generated value,
# the hash of the tuple of its fields, but computes it only once per node:
# the generated one recurses over the whole tree on every call, and terms
# are hashed as memo and cache keys all through proof search. The value is
# the same as the generated one, so sets and dicts of terms iterate in the
# same order. It is not computed at construction: the `check` benchmark
# workload builds 11,531 applications in its first seed-1 cycle and hashes
# none of them, and hashing each in `_fill` took that cycle from 121 to
# 130 ms (7% slower; best of 7 in process, 2 vCPU, Python 3.11).


def _store_hash(node, fields: tuple) -> int:
    h = hash(fields)
    object.__setattr__(node, "_hash", h)
    return h


class Type:
    """A simple type: either a sort or an arrow between types."""

    is_theory_type: bool
    _hash = None

    @property
    def arity(self) -> int:
        n, t = 0, self
        while isinstance(t, ArrowType):
            n, t = n + 1, t.result
        return n


@dataclass(frozen=True)
class BaseType(Type):
    """A sort; Int and Bool are the theory sorts."""
    name: str
    is_theory_type: bool = False

    def __hash__(self) -> int:
        h = self._hash
        return h if h is not None else _store_hash(
            self, (self.name, self.is_theory_type))

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class ArrowType(Type):
    arg: Type
    result: Type

    def __hash__(self) -> int:
        h = self._hash
        return h if h is not None else _store_hash(
            self, (self.arg, self.result))

    @property
    def is_theory_type(self) -> bool:
        # argument must be a theory sort, not just any theory type
        return (isinstance(self.arg, BaseType) and self.arg.is_theory_type
                and self.result.is_theory_type)

    def __str__(self) -> str:
        left = f"({self.arg})" if isinstance(self.arg, ArrowType) else str(self.arg)
        return f"{left} -> {self.result}"


INT_T = BaseType("Int", is_theory_type=True)
BOOL_T = BaseType("Bool", is_theory_type=True)


def arrow(*types: Type) -> Type:
    """Right-fold types into an arrow: arrow(A, B, C) is A -> (B -> C)."""
    if not types:
        raise ValueError("arrow() needs at least one type")
    result = types[-1]
    for t in reversed(types[:-1]):
        result = ArrowType(t, result)
    return result


def is_theory_sort_type(t: Type) -> bool:
    return isinstance(t, BaseType) and t.is_theory_type


# ---------------------------------------------------------------------------
# Terms


class Term:
    """Base class for terms. Symbols and variables are themselves terms:
    a leaf is its own head, with no arguments. Positions are curried: in
    `f s1 .. sn`, 0 is the prefix `f s1 .. s(n-1)` and 1 is `sn`."""

    type: Type
    free_vars: frozenset
    size: int
    is_theory_term: bool
    args: tuple = ()
    is_value = False    # each function symbol stores its own
    value = None        # a value symbol's semantic value, set by the theory
    _hash = None

    def apply(self, *args: "Term") -> "Term":
        return App(self, args) if args else self

    def subterm_at(self, position: tuple[int, ...]) -> "Term":
        t = self
        for step in position:
            if not t.args or step not in (0, 1):
                raise LcstrsError(f"invalid position {list(position)}")
            t = t.curried()[step]
        return t

    def replace_at(self, position: tuple[int, ...], replacement: "Term") -> "Term":
        if not position:
            if replacement.type != self.type:
                raise TypingError(
                    f"replacement has type {replacement.type}, expected {self.type}")
            return replacement
        if not self.args or position[0] not in (0, 1):
            raise LcstrsError(f"invalid position {list(position)}")
        parts = list(self.curried())
        parts[position[0]] = parts[position[0]].replace_at(position[1:],
                                                           replacement)
        return App(parts[0], (parts[1],))

    def prefix(self, n: int) -> "Term":
        """The head applied to the first `n` arguments."""
        if n == len(self.args):
            return self
        ty = self.head.type
        for _ in range(n):
            ty = ty.result
        return App._typed(self.head, self.args[:n], ty) if n else self.head


@dataclass(frozen=True)
class FunctionSymbol(Term):
    name: str
    type: Type
    is_theory: bool = False

    def __post_init__(self):
        if self.is_theory and not self.type.is_theory_type:
            raise TypingError(
                f"theory symbol '{self.name}' must have a theory type, got {self.type}")
        object.__setattr__(self, "free_vars", frozenset())
        object.__setattr__(self, "size", 1)
        object.__setattr__(self, "is_theory_term", self.is_theory)
        object.__setattr__(self, "is_value",
                           self.is_theory and isinstance(self.type, BaseType))

    head = property(lambda self: self)

    def __hash__(self) -> int:
        h = self._hash
        return h if h is not None else _store_hash(
            self, (self.name, self.type, self.is_theory))

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Variable(Term):
    name: str
    type: Type

    def __post_init__(self):
        object.__setattr__(self, "free_vars", frozenset((self,)))
        object.__setattr__(self, "size", 1)
        object.__setattr__(self, "is_theory_term", True)

    head = property(lambda self: self)

    def __hash__(self) -> int:
        h = self._hash
        return h if h is not None else _store_hash(self, (self.name, self.type))

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True)
class App(Term):
    """A symbol or a variable applied to one or more arguments, a head
    application flattened in; `size` and `repr` are the curried term's."""
    head: Term
    args: tuple[Term, ...]

    def __post_init__(self):
        head, args = self.head, tuple(self.args)
        if type(head) is App:
            head, args = head.head, head.args + args
        if not args:
            raise TypingError("an application needs an argument")
        ty = head.type
        for a in args:
            if not isinstance(ty, ArrowType):
                raise TypingError(
                    f"cannot apply a term of base type {ty} to an argument")
            if ty.arg is not a.type and ty.arg != a.type:
                raise TypingError(
                    f"argument has type {a.type}, expected {ty.arg}")
            ty = ty.result
        _fill(self, head, args, ty)

    @classmethod
    def _typed(cls, head: Term, args: tuple, ty: Type) -> "App":
        """`head`, a leaf, applied to `args` of the types it takes, giving
        `ty`: built without the check."""
        return _fill(object.__new__(cls), head, args, ty)

    def curried(self) -> tuple[Term, Term]:
        """The prefix without the last argument, and that argument: the
        two children of the curried application."""
        return self.prefix(len(self.args) - 1), self.args[-1]

    def __hash__(self) -> int:
        h = self._hash
        return h if h is not None else _store_hash(self, (self.head, self.args))

    def __repr__(self) -> str:
        return "(" * len(self.args) + repr(self.head) + "".join(
            f" {a!r})" for a in self.args)


def _fill(node: App, head: Term, args: tuple, ty: Type) -> App:
    """Write `node`'s fields, past the frozen `__setattr__`."""
    free, size, theory = head.free_vars, head.size + len(args), head.is_theory_term
    for a in args:
        fv = a.free_vars
        free = free | fv if free and fv else free or fv
        size += a.size
        theory = theory and a.is_theory_term
    fields = node.__dict__
    fields["head"] = head
    fields["args"] = args
    fields["type"] = ty
    fields["free_vars"] = free
    fields["size"] = size
    fields["is_theory_term"] = theory
    return node


# ---------------------------------------------------------------------------
# Substitutions


class Substitution:
    """A type-preserving finite map from variables to terms.

    Variables outside the domain are fixed points, so applying a
    substitution never fails.
    """

    def __init__(self, mapping: Mapping[Variable, Term] = ()):
        m = dict(mapping)
        for v, t in m.items():
            if not isinstance(v, Variable):
                raise TypingError(f"substitution key {v!r} is not a variable")
            if v.type != t.type:
                raise TypingError(
                    f"substitution maps '{v.name}' : {v.type} to a term of type {t.type}")
        self._map = m

    @classmethod
    def _trusted(cls, mapping: dict[Variable, Term]) -> "Substitution":
        """A substitution over bindings whose types were already checked;
        it keeps `mapping` itself."""
        subst = cls.__new__(cls)
        subst._map = mapping
        return subst

    def get(self, var: Variable, default: Optional[Term] = None) -> Term:
        if default is None:
            default = var
        return self._map.get(var, default)

    def __contains__(self, var: Variable) -> bool:
        return var in self._map

    def items(self):
        return self._map.items()

    def apply(self, term: Term) -> Term:
        """The instance of `term`. Each variable keeps its type, so every
        rebuilt application keeps the type it had and is not re-checked;
        a ground subterm is shared, not copied. A variable head bound to
        an application is flattened into it: `(x a)σ` with `σ(x) = f b`
        is `f b a`."""
        mapping = self._map
        typed = App._typed

        def instance(t: Term) -> Term:
            if not t.free_vars:
                return t
            if type(t) is Variable:
                return mapping.get(t, t)
            head, args = t.head, tuple(map(instance, t.args))
            if type(head) is Variable:
                head = mapping.get(head, head)
                if type(head) is App:
                    return typed(head.head, head.args + args, t.type)
            return typed(head, args, t.type)

        return instance(term)

    def __eq__(self, other) -> bool:
        return isinstance(other, Substitution) and self._map == other._map

    def __repr__(self) -> str:
        inner = ", ".join(f"{v.name} := {t!r}" for v, t in sorted(
            self._map.items(), key=lambda it: it[0].name))
        return "{" + inner + "}"


# ---------------------------------------------------------------------------
# Signatures and typechecking

LiteralResolver = Callable[[str], Optional[FunctionSymbol]]


class Signature:
    """Maps names to declared function symbols.

    A resolver hook turns literal spellings (integer tokens) into value
    symbols on demand. Each undeclared name looked up is resolved once and
    remembered, with its value symbol or, for a name that is no literal
    (a variable), with none; so the cache grows only with the names looked
    up. Only built-in symbols may be overloaded.
    """

    def __init__(self, symbols: Iterable[FunctionSymbol] = (),
                 literal: Optional[LiteralResolver] = None):
        self._by_name: dict[str, tuple[FunctionSymbol, ...]] = {}
        self._literal = literal
        self._resolved: dict[str, tuple[FunctionSymbol, ...]] = {}
        for s in symbols:
            self.add(s)

    def add(self, symbol: FunctionSymbol, overload: bool = False) -> None:
        have = self._by_name.get(symbol.name)
        if have is not None and not overload:
            raise LcstrsError(f"symbol '{symbol.name}' is already declared")
        self._by_name[symbol.name] = (have or ()) + (symbol,)

    def lookup(self, name: str) -> tuple[FunctionSymbol, ...]:
        found = self._by_name.get(name) or self._resolved.get(name)
        if found is None:
            lit = None if self._literal is None else self._literal(name)
            found = self._resolved[name] = () if lit is None else (lit,)
        return found

    def symbols(self) -> Iterator[FunctionSymbol]:
        for group in self._by_name.values():
            yield from group


class PreLeaf(NamedTuple):
    """An unresolved name in a pre-term, with its source position."""
    name: str
    pos: Optional[tuple[int, int]] = None


class PreApp(NamedTuple):
    """A name applied to its arguments, first to last."""
    head: PreLeaf
    args: list["PreTerm"]


PreTerm = Union[PreLeaf, PreApp]


def typecheck(pre: PreTerm, signature: Signature,
              context: Optional[dict[str, Variable]] = None,
              expected: Optional[Type] = None) -> Term:
    """Resolve and type a pre-term, arguments left to right.

    Names found in the signature become symbols; everything else is a
    variable. Variable types come from `context` or are inferred from the
    position in which the variable first appears; conflicting uses are
    errors. `context` is updated in place with inferred variables. Each
    application is one node, built once all its arguments have the types
    its head takes, so without the check that `App` makes.

    An overloaded name, `!>` or `!>=`, has one symbol per theory sort, and
    `_variant` picks the one its application is typed with before any
    argument is typed; each application is typed once. The walk keeps an
    explicit stack of open applications, so nesting depth is not bounded
    by Python's recursion limit.
    """
    ctx = {} if context is None else context
    # a name is read from the signature's dicts, and from `ctx` when the
    # signature has no symbol for it; `_lookup` only resolves a new name
    declared, known = signature._by_name, signature._resolved
    typed = App._typed
    # open applications: [head, arguments, those typed so far, type after
    # them, expected type, position of the head]
    frames: list[list] = []
    while True:
        # resolve the head of `pre`
        if type(pre) is PreApp:
            leaf, args = pre
        else:
            leaf, args = pre, ()
        name, pos = leaf
        symbols = declared.get(name) or known.get(name)
        if symbols is None:
            symbols = _lookup(signature, leaf)
        if symbols:
            head = (symbols[0] if len(symbols) == 1 else
                    _variant(symbols, args, expected, ctx, signature))
        else:
            head = ctx.get(name)
            if head is None or (not args and expected is not None
                                and head.type is not expected
                                and head.type != expected):
                head = _variable(leaf, bool(args), expected, ctx)
        if args:                # type the first argument next
            ty = head.type
            if type(ty) is not ArrowType:
                raise TypingError(f"cannot apply a term of base type "
                                  f"{ty} to an argument", pos)
            frames.append([head, args, [], ty, expected, pos])
            pre, expected = args[0], ty.arg
            continue
        # `head` is typed: close it and the applications it ends
        t = head
        while True:
            ty = t.type
            if expected is not None and ty is not expected and ty != expected:
                raise TypingError(f"term has type {ty}, expected {expected}",
                                  pos)
            if not frames:
                return t
            frame = frames[-1]
            done = frame[2]
            done.append(t)
            ty = frame[3].result
            if len(done) < len(frame[1]):
                break
            frames.pop()
            t = typed(frame[0], tuple(done), ty)
            expected, pos = frame[4], frame[5]
        if type(ty) is not ArrowType:
            raise TypingError(f"cannot apply a term of base type "
                              f"{ty} to an argument", frame[5])
        frame[3] = ty
        pre, expected = frame[1][len(done)], ty.arg


def _lookup(signature: Signature, leaf: PreLeaf) -> tuple[FunctionSymbol, ...]:
    """The symbols `leaf` names; a literal past a limit is a TypingError
    at its position."""
    try:
        return signature.lookup(leaf.name)
    except LcstrsError as e:
        raise TypingError(str(e), leaf.pos) from None


def _variant(symbols: tuple[FunctionSymbol, ...], args, expected: Optional[Type],
             ctx: dict[str, Variable], signature: Signature) -> FunctionSymbol:
    """The symbol of an overloaded name that its application is typed with:
    the one that takes the type of the first argument whose head fixes it
    (a symbol, a literal, or a variable in `ctx`; an ordering symbol applied
    to two arguments gives Bool); if none does, the one whose type after
    the arguments is the expected type; else the first. Any other symbol
    fails on that argument or on the expected type."""
    for arg in args:
        leaf, n = (arg.head, len(arg.args)) if type(arg) is PreApp else (arg, 0)
        found = _lookup(signature, leaf)
        head = found[0] if found else ctx.get(leaf.name)
        if head is None:
            continue            # a fresh variable takes any sort
        ty = _after(head.type, n)
        return next((s for s in symbols if type(s.type) is ArrowType
                     and s.type.arg == ty), symbols[0])
    return next((s for s in symbols if expected is not None
                 and _after(s.type, len(args)) == expected), symbols[0])


def _after(ty: Type, n: int) -> Optional[Type]:
    """`ty` after `n` arguments, or None if it takes fewer."""
    for _ in range(n):
        if type(ty) is not ArrowType:
            return None
        ty = ty.result
    return ty


def _variable(leaf: PreLeaf, applied: bool, expected: Optional[Type],
              ctx: dict[str, Variable]) -> Variable:
    """The variable a name outside the signature denotes, typed from the
    context or, on first sight, from the expected type."""
    var = ctx.get(leaf.name)
    if var is None:
        if applied or expected is None:
            raise TypingError(
                f"cannot infer the type of variable '{leaf.name}'", leaf.pos)
        var = Variable(leaf.name, expected)
        ctx[leaf.name] = var
    elif (not applied and expected is not None and var.type is not expected
          and var.type != expected):
        raise TypingError(
            f"variable '{leaf.name}' has type {var.type} but is used at "
            f"{expected}", leaf.pos)
    return var


# ---------------------------------------------------------------------------
# Rewrite rules


@dataclass(frozen=True)
class Rule:
    """A constrained rewrite rule lhs -> rhs [constraint].

    Construction enforces the four well-formedness conditions:
      (1) both sides have the same type,
      (2) the left side is not a theory term,
      (3) the constraint is a logical constraint (a boolean theory term
          whose free variables all have theory sorts),
      (4) variables fresh on the right have theory sorts.
    """

    lhs: Term
    rhs: Term
    constraint: Term

    def __post_init__(self):
        if self.lhs.type != self.rhs.type:
            raise RuleError(
                1, f"sides have different types {self.lhs.type} and {self.rhs.type}")
        if self.lhs.is_theory_term:
            raise RuleError(2, "left-hand side is a theory term")
        phi = self.constraint
        if not phi.is_theory_term:
            raise RuleError(3, "constraint is not a theory term")
        if phi.type != BOOL_T:
            raise RuleError(3, f"constraint has type {phi.type}, expected Bool")
        for v in sorted(phi.free_vars, key=lambda v: v.name):
            if not is_theory_sort_type(v.type):
                raise RuleError(
                    3, f"constraint variable '{v.name}' has non-theory type {v.type}")
        fresh = self.rhs.free_vars - self.lhs.free_vars
        for v in sorted(fresh, key=lambda v: v.name):
            if not is_theory_sort_type(v.type):
                raise RuleError(
                    4, f"variable '{v.name}' is fresh on the right but has "
                       f"non-theory type {v.type}")
        # the variables a respecting substitution must send to values
        object.__setattr__(self, "logical_vars", phi.free_vars | fresh)

    def __repr__(self) -> str:
        return f"{self.lhs!r} -> {self.rhs!r} [{self.constraint!r}]"
