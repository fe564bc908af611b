"""Concrete text format for rewrite systems and terms.

The file format is line oriented:

    fun NAME : TYPE               symbol declaration
    rule LHS -> RHS [CONSTRAINT]  rewrite rule (constraint brackets mandatory)
    option KEY VALUE              tool option, e.g. `option bound 0`
    (* ... *)                     comment, nestable, may span lines

Terms use juxtaposition for application (left associative), parentheses for
grouping, infix theory operators with conventional precedence (`*` over
`+ -` over comparisons over `/\\` over `\\/`), and the bracket-prefix form
`[op]` which turns any infix operator into a curried prefix symbol. Types
use `->`, right associative.

Identifiers that are not declared symbols are variables; their types are
inferred during typechecking.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from . import theory
from .core import (
    ArrowType, BaseType, BOOL, FunctionSymbol, INT, LcstrsError, PreApp,
    PreLeaf, PreTerm, Rule, Signature, Sort, Term, Type, Variable, typecheck,
)


class ParseError(LcstrsError):
    def __init__(self, message: str, line: int, col: int):
        self.line = line
        self.col = col
        super().__init__(f"{line}:{col}: {message}")


# ---------------------------------------------------------------------------
# Lexer

_OPERATORS = ("!>=", "!>", "!=", "<=", ">=", "->", "/\\", "\\/",
              "<", ">", "=", "+", "-", "*")
_PUNCT = "()[]:"


@dataclass(frozen=True)
class Token:
    kind: str  # ident | int | op | arrow | punct | end
    text: str
    line: int
    col: int

    @property
    def pos(self) -> tuple[int, int]:
        return (self.line, self.col)


def _is_ident_start(c: str) -> bool:
    return c.isalpha() or c == "_"


def _is_ident_char(c: str) -> bool:
    return c.isalnum() or c in "_'"


def _prev_is_operand(tokens: list[Token]) -> bool:
    if not tokens:
        return False
    t = tokens[-1]
    return t.kind in ("ident", "int") or t.text in (")", "]")


def tokenize(text: str, first_line: int = 1) -> list[Token]:
    tokens: list[Token] = []
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
        if c.isdigit() or (c == "-" and i + 1 < len(text) and text[i + 1].isdigit()
                           and not _prev_is_operand(tokens)):
            j = i + 1
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(Token("int", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if _is_ident_start(c):
            j = i + 1
            while j < len(text) and _is_ident_char(text[j]):
                j += 1
            tokens.append(Token("ident", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if c in _PUNCT:
            tokens.append(Token("punct", c, line, start_col))
            i, col = i + 1, col + 1
            continue
        for op in _OPERATORS:
            if text.startswith(op, i):
                kind = "arrow" if op == "->" else "op"
                tokens.append(Token(kind, op, line, start_col))
                i += len(op)
                col += len(op)
                break
        else:
            raise ParseError(f"unexpected character {c!r}", line, start_col)
    return tokens


def _strip_comments(text: str) -> str:
    """Replace (* ... *) comments (nestable) by whitespace, keeping newlines."""
    out = []
    depth = 0
    open_line = 0
    i = 0
    line = 1
    while i < len(text):
        if text.startswith("(*", i):
            if depth == 0:
                open_line = line
            depth += 1
            out.append("  ")
            i += 2
        elif depth and text.startswith("*)", i):
            depth -= 1
            out.append("  ")
            i += 2
        else:
            c = text[i]
            if c == "\n":
                line += 1
                out.append("\n")
            else:
                out.append(c if depth == 0 else " ")
            i += 1
    if depth:
        raise ParseError("unterminated comment", open_line, 1)
    return "".join(out)


# ---------------------------------------------------------------------------
# Term and type parsing

_CMP_OPS = ("<=", "<", ">=", ">", "=", "!=", "!>", "!>=")


class _Parser:
    def __init__(self, tokens: list[Token], end_line: int = 0):
        self.tokens = tokens
        self.i = 0
        self.end_line = end_line or (tokens[-1].line if tokens else 1)

    def peek(self) -> Optional[Token]:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self) -> Token:
        t = self.peek()
        if t is None:
            raise ParseError("unexpected end of input", self.end_line, 9999)
        self.i += 1
        return t

    def expect(self, text: str) -> Token:
        t = self.next()
        if t.text != text:
            raise ParseError(f"expected {text!r}, found {t.text!r}", t.line, t.col)
        return t

    def at_end(self) -> bool:
        return self.i >= len(self.tokens)

    # terms ----------------------------------------------------------------

    def parse_term(self) -> PreTerm:
        return self._parse_infix(1)

    def _parse_infix(self, level: int) -> PreTerm:
        if level == 1:   # \/ left associative
            return self._binary_chain(("\\/",), 2)
        if level == 2:   # /\ left associative
            return self._binary_chain(("/\\",), 3)
        if level == 3:   # comparisons, non-associative
            left = self._parse_infix(4)
            t = self.peek()
            if t is not None and t.kind == "op" and t.text in _CMP_OPS:
                self.next()
                right = self._parse_infix(4)
                return PreApp(PreApp(PreLeaf(t.text, t.pos), left, t.pos),
                              right, t.pos)
            return left
        if level == 4:   # + - left associative
            return self._binary_chain(("+", "-"), 5)
        if level == 5:   # * left associative
            return self._binary_chain(("*",), 6)
        return self._parse_app()

    def _binary_chain(self, ops: tuple[str, ...], next_level: int) -> PreTerm:
        left = self._parse_infix(next_level)
        while True:
            t = self.peek()
            if t is None or t.kind != "op" or t.text not in ops:
                return left
            self.next()
            right = self._parse_infix(next_level)
            left = PreApp(PreApp(PreLeaf(t.text, t.pos), left, t.pos), right, t.pos)

    def _starts_atom(self, t: Optional[Token]) -> bool:
        return t is not None and (
            t.kind in ("ident", "int") or t.text in ("(", "["))

    def _parse_app(self) -> PreTerm:
        t = self._parse_atom()
        while self._starts_atom(self.peek()):
            arg = self._parse_atom()
            t = PreApp(t, arg, t.pos if isinstance(t, (PreLeaf, PreApp)) else None)
        return t

    def _parse_atom(self) -> PreTerm:
        t = self.next()
        if t.kind in ("ident", "int"):
            return PreLeaf(t.text, t.pos)
        if t.text == "(":
            inner = self.parse_term()
            self.expect(")")
            return inner
        if t.text == "[":
            op = self.next()
            if op.kind != "op":
                raise ParseError(
                    f"expected an infix operator inside brackets, found {op.text!r}",
                    op.line, op.col)
            self.expect("]")
            return PreLeaf(op.text, op.pos)
        raise ParseError(f"unexpected token {t.text!r}", t.line, t.col)

    # types ----------------------------------------------------------------

    def parse_type(self, sorts: dict[str, Sort]) -> Type:
        left = self._parse_type_atom(sorts)
        t = self.peek()
        if t is not None and t.kind == "arrow":
            self.next()
            return ArrowType(left, self.parse_type(sorts))
        return left

    def _parse_type_atom(self, sorts: dict[str, Sort]) -> Type:
        t = self.next()
        if t.text == "(":
            inner = self.parse_type(sorts)
            self.expect(")")
            return inner
        if t.kind == "ident":
            sort = sorts.get(t.text)
            if sort is None:
                sort = Sort(t.text)
                sorts[t.text] = sort
            return BaseType(sort)
        raise ParseError(f"expected a type, found {t.text!r}", t.line, t.col)


# ---------------------------------------------------------------------------
# Systems


@dataclass
class System:
    """A validated rewrite system: signature, rules, and options."""
    signature: Signature
    rules: tuple[Rule, ...]
    options: dict[str, str]
    declarations: tuple[FunctionSymbol, ...]

    @property
    def bound(self) -> int:
        """Lower bound used to interpret the integer ordering symbol."""
        raw = self.options.get("bound", "0")
        try:
            return int(raw)
        except ValueError:
            raise LcstrsError(
                f"option bound must be an integer, got {raw!r}") from None

    def rules_for(self, head: Term, nargs: int) -> tuple[tuple[int, Rule], ...]:
        """(file index, rule) for every rule whose left side can match a
        term with this head leaf and number of arguments, in file order.

        A left side `f l1 .. ln` with a symbol head matches only terms
        `f s1 .. sn`; one with a variable head and k arguments may match
        any term with at least k arguments.
        """
        by_head, variable_headed = self._rule_index
        found = by_head.get((head, nargs), ())
        if variable_headed:
            found = tuple(sorted(
                found + tuple((i, rule) for i, k, rule in variable_headed
                              if k <= nargs),
                key=lambda pair: pair[0]))
        return found

    @cached_property
    def _rule_index(self) -> tuple[dict, tuple]:
        by_head: dict[tuple[FunctionSymbol, int], tuple[tuple[int, Rule], ...]] = {}
        variable_headed = []
        for i, rule in enumerate(self.rules):
            head, args = rule.lhs.spine()
            if isinstance(head, FunctionSymbol):
                key = (head, len(args))
                by_head[key] = by_head.get(key, ()) + ((i, rule),)
            else:
                variable_headed.append((i, len(args), rule))
        return by_head, tuple(variable_headed)

    def defined_symbols(self) -> tuple[FunctionSymbol, ...]:
        seen: dict[FunctionSymbol, None] = {}
        for rule in self.rules:
            head, _ = rule.lhs.spine()
            if isinstance(head, FunctionSymbol):
                seen.setdefault(head, None)
        return tuple(seen)


_RESERVED = {"fun", "rule", "option", "Int", "Bool"}


def parse_system(text: str) -> System:
    """Parse and validate a whole system file."""
    stripped = _strip_comments(text)
    declarations: list[tuple[str, Type]] = []
    options: dict[str, str] = {}
    sorts = {"Int": INT, "Bool": BOOL}
    rule_lines: list[tuple[int, list[Token], list[Token], list[Token]]] = []

    for lineno, line in enumerate(stripped.split("\n"), start=1):
        tokens = tokenize(line, first_line=lineno)
        if not tokens:
            continue
        head = tokens[0]
        if head.text == "fun":
            if len(tokens) < 4 or tokens[1].kind != "ident" or tokens[2].text != ":":
                raise ParseError("expected 'fun NAME : TYPE'", lineno, head.col)
            name = tokens[1].text
            if name in _RESERVED:
                raise ParseError(f"'{name}' is a reserved name", lineno,
                                 tokens[1].col)
            parser = _Parser(tokens[3:], end_line=lineno)
            ty = parser.parse_type(sorts)
            if not parser.at_end():
                t = parser.next()
                raise ParseError(f"unexpected token {t.text!r} after type",
                                 t.line, t.col)
            declarations.append((name, ty))
        elif head.text == "rule":
            lhs_toks, rhs_toks, con_toks = _split_rule_tokens(tokens[1:], lineno)
            rule_lines.append((lineno, lhs_toks, rhs_toks, con_toks))
        elif head.text == "option":
            if len(tokens) < 3 or tokens[1].kind != "ident":
                raise ParseError("expected 'option KEY VALUE'", lineno, head.col)
            options[tokens[1].text] = line[tokens[2].col - 1:].strip()
        else:
            raise ParseError(
                f"expected 'fun', 'rule' or 'option', found {head.text!r}",
                lineno, head.col)

    signature = theory.base_signature()
    declared: list[FunctionSymbol] = []
    for name, ty in declarations:
        symbol = FunctionSymbol(name, ty)
        signature.add(symbol)
        declared.append(symbol)

    rules = []
    for lineno, lhs_toks, rhs_toks, con_toks in rule_lines:
        ctx: dict[str, Variable] = {}
        lhs = typecheck(_parse_pre(lhs_toks, lineno), signature, ctx)
        rhs = typecheck(_parse_pre(rhs_toks, lineno), signature, ctx,
                        expected=lhs.type)
        constraint = typecheck(_parse_pre(con_toks, lineno), signature, ctx,
                               expected=theory.BOOL_T)
        rules.append(Rule(lhs, rhs, constraint))

    return System(signature=signature, rules=tuple(rules),
                  options=options, declarations=tuple(declared))


def _split_rule_tokens(tokens: list[Token], lineno: int
                       ) -> tuple[list[Token], list[Token], list[Token]]:
    arrow_at = next((i for i, t in enumerate(tokens) if t.kind == "arrow"), None)
    if arrow_at is None:
        raise ParseError("rule is missing '->'", lineno, 1)
    if not tokens or tokens[-1].text != "]":
        raise ParseError("rule is missing its [CONSTRAINT] part", lineno, 1)
    depth = 0
    open_at = None
    for i in range(len(tokens) - 1, -1, -1):
        if tokens[i].text == "]":
            depth += 1
        elif tokens[i].text == "[":
            depth -= 1
            if depth == 0:
                open_at = i
                break
    if open_at is None or open_at <= arrow_at:
        raise ParseError("rule is missing its [CONSTRAINT] part", lineno, 1)
    lhs = tokens[:arrow_at]
    rhs = tokens[arrow_at + 1:open_at]
    constraint = tokens[open_at + 1:-1]
    if not lhs or not rhs or not constraint:
        raise ParseError("expected 'rule LHS -> RHS [CONSTRAINT]'", lineno, 1)
    return lhs, rhs, constraint


def _parse_pre(tokens: list[Token], lineno: int) -> PreTerm:
    parser = _Parser(tokens, end_line=lineno)
    pre = parser.parse_term()
    if not parser.at_end():
        t = parser.next()
        raise ParseError(f"unexpected token {t.text!r}", t.line, t.col)
    return pre


def parse_term(text: str, system_or_signature,
               context: Optional[dict[str, Variable]] = None,
               expected: Optional[Type] = None) -> Term:
    """Parse and typecheck a single term against a system or signature."""
    sig = getattr(system_or_signature, "signature", system_or_signature)
    tokens = tokenize(text)
    if not tokens:
        raise ParseError("empty term", 1, 1)
    pre = _parse_pre(tokens, tokens[-1].line)
    return typecheck(pre, sig, context, expected)


# ---------------------------------------------------------------------------
# Printing

_L_OR, _L_AND, _L_CMP, _L_ADD, _L_MUL, _L_APP, _L_ATOM = 1, 2, 3, 4, 5, 6, 7
_NON_ASSOC_LEVELS = (_L_CMP,)


def print_term(term: Term) -> str:
    """Render a term with minimal parentheses; reparsing yields the term."""
    return _print(term, 0)


def _print(term: Term, level: int) -> str:
    head, args = term.spine()
    if isinstance(head, FunctionSymbol) and head.name in theory.INFIX_LEVELS:
        if len(args) == 2:
            lvl = theory.INFIX_LEVELS[head.name]
            left_lvl = lvl + 1 if lvl in _NON_ASSOC_LEVELS else lvl
            s = (f"{_print(args[0], left_lvl)} {head.name} "
                 f"{_print(args[1], lvl + 1)}")
            return _wrap(s, lvl, level)
        bracket = f"[{head.name}]"
        if not args:
            return bracket
        s = " ".join([bracket] + [_print(a, _L_ATOM) for a in args])
        return _wrap(s, _L_APP, level)
    if not args:
        return _leaf(head, level)
    s = " ".join([_leaf(head, _L_APP)] + [_print(a, _L_ATOM) for a in args])
    return _wrap(s, _L_APP, level)


def _leaf(term: Term, level: int) -> str:
    name = term.name  # FunctionSymbol or Variable
    if name.startswith("-") and level >= _L_ADD:
        return f"({name})"  # negative literal in operand position
    return name


def _wrap(s: str, lvl: int, required: int) -> str:
    return f"({s})" if lvl < required else s


def print_rule(rule: Rule) -> str:
    return (f"{print_term(rule.lhs)} -> {print_term(rule.rhs)} "
            f"[{print_term(rule.constraint)}]")
