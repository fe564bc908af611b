"""Applicative simply-typed terms over a signature with built-in theory sorts.

Terms are immutable trees of function symbols, variables and applications.
Every node stores its type and a few derived facts when it is built (free
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
# workload builds about 23k applications per seed-1 cycle and hashes none of
# them, and hashing every term at construction cost it 3.4% of work_per_s
# (median of 6 paired runs, slower in 5; 2 vCPU, Python 3.11).


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
    """Base class for terms. Symbols and variables are themselves terms."""

    type: Type
    free_vars: frozenset
    size: int
    is_theory_term: bool
    is_value = False    # each function symbol stores its own
    value = None        # a value symbol's semantic value, set by the theory
    _hash = None

    def spine(self) -> tuple["Term", tuple["Term", ...]]:
        """Decompose into the head leaf and the argument list."""
        t, args = self, []
        while isinstance(t, App):
            args.append(t.arg)
            t = t.head
        return t, tuple(reversed(args))

    def apply(self, *args: "Term") -> "Term":
        t = self
        for a in args:
            t = App(t, a)
        return t

    def subterm_at(self, position: tuple[int, ...]) -> "Term":
        t = self
        for step in position:
            if not isinstance(t, App) or step not in (0, 1):
                raise LcstrsError(f"invalid position {list(position)}")
            t = t.head if step == 0 else t.arg
        return t

    def replace_at(self, position: tuple[int, ...], replacement: "Term") -> "Term":
        if not position:
            if replacement.type != self.type:
                raise TypingError(
                    f"replacement has type {replacement.type}, expected {self.type}")
            return replacement
        if not isinstance(self, App) or position[0] not in (0, 1):
            raise LcstrsError(f"invalid position {list(position)}")
        if position[0] == 0:
            return App(self.head.replace_at(position[1:], replacement), self.arg)
        return App(self.head, self.arg.replace_at(position[1:], replacement))


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

    def __hash__(self) -> int:
        h = self._hash
        return h if h is not None else _store_hash(self, (self.name, self.type))

    def __repr__(self) -> str:
        return self.name


@dataclass(frozen=True)
class App(Term):
    head: Term
    arg: Term

    def __post_init__(self):
        head, arg = self.head, self.arg
        ht = head.type
        if not isinstance(ht, ArrowType):
            raise TypingError(
                f"cannot apply a term of base type {ht} to an argument")
        if ht.arg is not arg.type and ht.arg != arg.type:
            raise TypingError(
                f"argument has type {arg.type}, expected {ht.arg}")
        # the derived fields, written past the frozen `__setattr__`
        fields = self.__dict__
        fields["type"] = ht.result
        fields["free_vars"] = head.free_vars | arg.free_vars
        fields["size"] = head.size + arg.size + 1
        fields["is_theory_term"] = head.is_theory_term and arg.is_theory_term

    @classmethod
    def _rebuilt(cls, node: "App", head: Term, arg: Term) -> "App":
        """`node` with its children replaced by terms of the same types,
        built without the type check: the new node has `node`'s type."""
        new = object.__new__(cls)
        fields = new.__dict__
        fields["head"] = head
        fields["arg"] = arg
        fields["type"] = node.type
        fields["free_vars"] = head.free_vars | arg.free_vars
        fields["size"] = head.size + arg.size + 1
        fields["is_theory_term"] = head.is_theory_term and arg.is_theory_term
        return new

    @classmethod
    def _typed(cls, head: Term, arg: Term) -> "App":
        """`head` applied to `arg`, which has the type `head` takes, built
        without the type check."""
        new = object.__new__(cls)
        fields = new.__dict__
        fields["head"] = head
        fields["arg"] = arg
        fields["type"] = head.type.result
        hv, av = head.free_vars, arg.free_vars
        fields["free_vars"] = hv | av if hv and av else hv or av
        fields["size"] = head.size + arg.size + 1
        fields["is_theory_term"] = head.is_theory_term and arg.is_theory_term
        return new

    def __hash__(self) -> int:
        h = self._hash
        return h if h is not None else _store_hash(self, (self.head, self.arg))

    def __repr__(self) -> str:
        return f"({self.head!r} {self.arg!r})"


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
        a ground subterm is shared, not copied."""
        mapping = self._map
        rebuilt = App._rebuilt

        def instance(t: Term) -> Term:
            if not t.free_vars:
                return t
            if isinstance(t, Variable):
                return mapping.get(t, t)
            return rebuilt(t, instance(t.head), instance(t.arg))

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
    application is built once its argument has the type its head takes,
    so without the check that `App` makes.

    An overloaded name tries its symbols in signature order on its whole
    application; the first that types it wins, and if none does, the
    error of the first is raised. A later symbol that takes fewer
    arguments than the application has, or whose type after them is not
    the expected one, would fail too, so it is skipped: nested overloads
    are typed without retrying every combination of their symbols. The
    walk keeps explicit stacks of open applications and open overload
    choices, so nesting depth is not bounded by Python's recursion limit.
    """
    ctx = {} if context is None else context
    # a name is read from the signature's dicts, and from `ctx` when the
    # signature has no symbol for it; `lookup` only resolves a new name
    declared, known, lookup = (signature._by_name, signature._resolved,
                               signature.lookup)
    typed = App._typed
    # open applications: [head applied so far, arguments, index of the
    # argument being typed, expected type, position of the head]
    frames: list[list] = []
    choices: list[_Choice] = []
    while True:
        try:
            while True:
                if pre is not None:     # resolve the head of `pre`
                    if type(pre) is PreApp:
                        leaf, args = pre
                    else:
                        leaf, args = pre, ()
                    name, pos = leaf
                    symbols = declared.get(name) or known.get(name)
                    if symbols is None:
                        try:
                            symbols = lookup(name)
                        except LcstrsError as e:    # a literal past a limit
                            raise TypingError(str(e), pos) from None
                    if symbols:
                        head = symbols[0]
                        if len(symbols) > 1:
                            choices.append(_Choice(len(frames), symbols, args,
                                                   expected, pos, ctx))
                    else:
                        head = ctx.get(name)
                        if head is None or (not args and expected is not None
                                            and head.type is not expected
                                            and head.type != expected):
                            head = _variable(leaf, bool(args), expected, ctx)
                    pre = None
                if args:                # type the first argument next
                    ty = head.type
                    if type(ty) is not ArrowType:
                        raise TypingError(f"cannot apply a term of base type "
                                          f"{ty} to an argument", pos)
                    frames.append([head, args, 0, expected, pos])
                    pre, expected = args[0], ty.arg
                    continue
                # `head` is typed: close it and the applications it ends
                t = head
                while True:
                    ty = t.type
                    if (expected is not None and ty is not expected
                            and ty != expected):
                        raise TypingError(
                            f"term has type {ty}, expected {expected}", pos)
                    if choices and choices[-1].depth == len(frames):
                        choices.pop()   # typed with the symbol it tried
                    if not frames:
                        return t
                    frame = frames[-1]
                    t = typed(frame[0], t)
                    k = frame[2] + 1
                    if k < len(frame[1]):
                        break
                    frames.pop()
                    expected, pos = frame[3], frame[4]
                ty = t.type
                if type(ty) is not ArrowType:
                    raise TypingError(f"cannot apply a term of base type "
                                      f"{ty} to an argument", frame[4])
                frame[0], frame[2] = t, k
                pre, expected = frame[1][k], ty.arg
        except TypingError as e:
            error = e
        # go back to the innermost open choice with a symbol left
        while True:
            if not choices:
                raise error
            choice = choices[-1]
            ctx.clear()
            ctx.update(choice.ctx)
            if choice.first_error is None:
                choice.first_error = error
            choice.tried += 1
            while (choice.tried < len(choice.symbols)
                   and not _fits(choice.symbols[choice.tried],
                                 len(choice.args), choice.expected)):
                choice.tried += 1
            if choice.tried < len(choice.symbols):
                break
            choices.pop()
            error = choice.first_error
        del frames[choice.depth:]
        head, args = choice.symbols[choice.tried], choice.args
        expected, pos, pre = choice.expected, choice.pos, None


class _Choice:
    """An overloaded name whose application is being typed with one of
    its symbols, and what trying the next one starts from."""

    __slots__ = ("depth", "symbols", "tried", "args", "expected", "pos",
                 "ctx", "first_error")

    def __init__(self, depth: int, symbols: tuple[FunctionSymbol, ...],
                 args: list[PreTerm], expected: Optional[Type],
                 pos: Optional[tuple[int, int]], ctx: dict[str, Variable]):
        self.depth = depth          # open applications outside it
        self.symbols = symbols
        self.tried = 0
        self.args = args
        self.expected = expected
        self.pos = pos
        self.ctx = dict(ctx)
        self.first_error: Optional[TypingError] = None


def _fits(symbol: FunctionSymbol, arguments: int,
          expected: Optional[Type]) -> bool:
    """Whether `symbol` applied to that many arguments has the expected
    type, where one is expected."""
    ty = symbol.type
    for _ in range(arguments):
        if type(ty) is not ArrowType:
            return False
        ty = ty.result
    return expected is None or ty == expected


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
