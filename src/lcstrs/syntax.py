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

import re
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional

from . import theory
from .core import (
    App, ArrowType, BaseType, FunctionSymbol, LcstrsError, PreApp,
    PreLeaf, PreTerm, Rule, Signature, Sort, Term, Type, Variable, typecheck,
)


class ParseError(LcstrsError):
    def __init__(self, message: str, line: int, col: int):
        self.line = line
        self.col = col
        super().__init__(f"{line}:{col}: {message}")


# ---------------------------------------------------------------------------
# Lexer
#
# One regex with a named group per token kind. In a str pattern `\s` is
# exactly `str.isspace` (an ASCII class would miss \x1c-\x1f), `\w` is
# `str.isalnum` plus `_`, and `\d` is `str.isdecimal`. An integer is a run
# of `str.isdigit` characters and an identifier starts with a
# `str.isalpha` character or `_`. Outside ASCII those differ from `\d` and
# `[^\W\d]` on a few hundred numeric characters (`²`, `½`, `Ⅷ`), so a text
# that has any gets a pattern naming the ones it has.


# builds a NamedTuple (a token or a pre-term) from a tuple of its fields,
# without the Python-level `__new__` its class defines
_new = tuple.__new__


class Token(NamedTuple):
    kind: str  # ident | int | op | arrow | punct
    text: str
    line: int
    col: int

    @property
    def pos(self) -> tuple[int, int]:
        return (self.line, self.col)


_TOKEN_PATTERN = r"""
    (?P<int>[\d{digits}]+)
  | (?P<ident>{not_alpha}[^\W\d][\w']*)
  | (?P<arrow>->)
  | (?P<op>!>=|!>|!=|<=|>=|/\\|\\/|[<>=+\-*])
  | (?P<punct>[()\[\]:])
  | (?P<bad>\S)
"""


def _token_regex(numeric: str) -> re.Pattern:
    """The token pattern for texts whose non-decimal numeric characters
    (digits like `²` and non-digits like `½`) are those of `numeric`."""
    digits = "".join(re.escape(c) for c in numeric if c.isdigit())
    not_alpha = f"(?![{re.escape(numeric)}])" if numeric else ""
    return re.compile(_TOKEN_PATTERN.format(digits=digits, not_alpha=not_alpha),
                      re.VERBOSE)


_TOKENS = _token_regex("")


def _token_finder(text: str):
    if text.isascii():
        return _TOKENS.finditer
    numeric = "".join(sorted(c for c in set(text) if c.isalnum()
                             and not c.isalpha() and not c.isdecimal()))
    return _token_regex(numeric).finditer if numeric else _TOKENS.finditer


def tokenize(text: str, first_line: int = 1) -> list[Token]:
    """The tokens of `text`, its lines numbered from `first_line`."""
    finditer = _token_finder(text)
    tokens: list[Token] = []
    append = tokens.append
    for line, chunk in enumerate(text.split("\n"), first_line):
        for m in finditer(chunk):
            kind = m.lastgroup
            start = m.start()
            if kind == "int" and start and chunk[start - 1] == "-" and (
                    len(tokens) < 2 or not _is_operand(tokens[-2])):
                # `-` right before digits, not after an operand: a literal
                tokens[-1] = Token("int", "-" + m.group(), line, start)
            elif kind == "bad":
                raise ParseError(f"unexpected character {m.group()!r}",
                                 line, start + 1)
            else:
                append(_new(Token, (kind, m.group(), line, start + 1)))
    return tokens


def _is_operand(t: Token) -> bool:
    return t.kind == "ident" or t.kind == "int" or t.text in (")", "]")


_COMMENT_MARK = re.compile(r"\(\*|\*\)")


def _strip_comments(text: str) -> str:
    """Replace (* ... *) comments (nestable) by spaces, keeping newlines."""
    if "(*" not in text:
        return text
    out = []
    depth = 0
    kept = 0        # text[:kept] is done
    for m in _COMMENT_MARK.finditer(text):
        if m.group() == "(*":
            if depth == 0:
                out.append(text[kept:m.start()])
                kept = m.start()
            depth += 1
        elif depth:
            depth -= 1
            if depth == 0:
                out.append("\n".join(" " * len(part) for part in
                                      text[kept:m.end()].split("\n")))
                kept = m.end()
    if depth:
        raise ParseError("unterminated comment",
                         text.count("\n", 0, kept) + 1, 1)
    out.append(text[kept:])
    return "".join(out)


# ---------------------------------------------------------------------------
# Term and type parsing
#
# Both parsers keep explicit stacks. Terms use precedence climbing over the
# levels of `theory.INFIX_LEVELS`, with juxtaposition as level `_L_APP`; an
# open parenthesis is a level-0 entry on the operator stack, so nesting
# depth is not bounded by Python's recursion limit.

_L_OR, _L_AND, _L_CMP, _L_ADD, _L_MUL, _L_APP, _L_ATOM = 1, 2, 3, 4, 5, 6, 7
_NON_ASSOC_LEVELS = (_L_CMP,)
_LEVEL = theory.INFIX_LEVELS


class _Parser:
    def __init__(self, tokens: list[Token], end_line: int = 0):
        self.tokens = tokens
        self.i = 0
        self.end_line = end_line or (tokens[-1].line if tokens else 1)

    def next(self) -> Token:
        """The next token, consumed; the end of input is an error."""
        i = self.i
        if i >= len(self.tokens):
            raise ParseError("unexpected end of input", self.end_line, 9999)
        self.i = i + 1
        return self.tokens[i]

    def expect(self, text: str) -> None:
        t = self.next()
        if t.text != text:
            raise ParseError(f"expected {text!r}, found {t.text!r}",
                             t.line, t.col)

    def at_end(self) -> bool:
        return self.i >= len(self.tokens)

    # terms ----------------------------------------------------------------

    def parse_term(self) -> PreTerm:
        """One term; stops before the first token that cannot continue it,
        which includes a second comparison operator at the same level."""
        tokens = self.tokens
        n = len(tokens)
        operands: list[PreTerm] = []    # left operands of `operators`
        # (level, infix operator token); an open parenthesis is level 0
        # and a pending application `_L_APP`, both without a token
        operators: list[tuple] = []
        while True:
            # an operand
            t = self.next()
            kind = t.kind
            if kind == "ident" or kind == "int":
                operand = _new(PreLeaf, (t.text, (t.line, t.col)))
            elif t.text == "(":
                operators.append((0, None))
                continue
            elif t.text == "[":
                op = self.next()
                if op.kind != "op":
                    raise ParseError(
                        "expected an infix operator inside brackets, "
                        f"found {op.text!r}", op.line, op.col)
                self.expect("]")
                operand = _new(PreLeaf, (op.text, (op.line, op.col)))
            else:
                raise ParseError(f"unexpected token {t.text!r}", t.line, t.col)
            # what follows an operand
            while True:
                if operators and operators[-1][0] == _L_APP:
                    operators.pop()
                    head = operands.pop()
                    operand = _new(PreApp, (head, operand, head.pos))
                i = self.i
                if i < n:
                    t = tokens[i]
                    kind = t.kind
                    if kind == "op":
                        level = _LEVEL[t.text]
                        while operators and operators[-1][0] > level:
                            operand = _infix(operators.pop()[1],
                                             operands.pop(), operand)
                        top = operators[-1][0] if operators else 0
                        if top < level or level not in _NON_ASSOC_LEVELS:
                            if top == level:
                                operand = _infix(operators.pop()[1],
                                                 operands.pop(), operand)
                            operands.append(operand)
                            operators.append((level, t))
                            self.i = i + 1
                            break
                    elif (kind == "ident" or kind == "int"
                          or t.text == "(" or t.text == "["):
                        operands.append(operand)
                        operators.append((_L_APP, None))
                        break
                # the term, or the innermost parenthesised group, ends here
                while operators and operators[-1][0]:
                    operand = _infix(operators.pop()[1], operands.pop(),
                                     operand)
                if not operators:
                    return operand
                operators.pop()
                self.expect(")")

    # types ----------------------------------------------------------------

    def parse_type(self, base_types: dict[str, BaseType]) -> Type:
        """A type; `->` associates to the right. One chain of arrow
        operands per open parenthesis. A new sort name gets a sort and
        a base type in `base_types`."""
        chains: list[list[Type]] = [[]]
        while True:
            t = self.next()
            if t.text == "(":
                chains.append([])
                continue
            if t.kind != "ident":
                raise ParseError(f"expected a type, found {t.text!r}",
                                 t.line, t.col)
            ty = base_types.get(t.text)
            if ty is None:
                ty = base_types[t.text] = BaseType(Sort(t.text))
            while True:
                chains[-1].append(ty)
                i = self.i
                if i < len(self.tokens) and self.tokens[i].kind == "arrow":
                    self.i = i + 1
                    break
                chain = chains.pop()
                ty = chain.pop()
                while chain:
                    ty = ArrowType(chain.pop(), ty)
                if not chains:
                    return ty
                self.expect(")")


def _infix(op: Token, left: PreTerm, right: PreTerm) -> PreApp:
    pos = (op.line, op.col)
    return _new(PreApp, (_new(PreApp, (_new(PreLeaf, (op.text, pos)), left,
                                        pos)), right, pos))


# ---------------------------------------------------------------------------
# Systems


@dataclass
class System:
    """A validated rewrite system: signature, rules, and options."""
    signature: Signature
    rules: tuple[Rule, ...]
    options: dict[str, str]
    declarations: tuple[FunctionSymbol, ...]
    bound: int = 0      # lower bound of the integer ordering symbol

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
    bound = 0
    base_types = {"Int": theory.INT_T, "Bool": theory.BOOL_T}
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
            ty = parser.parse_type(base_types)
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
            value = options[tokens[1].text] = line[tokens[2].col - 1:].strip()
            if tokens[1].text == "bound":
                try:
                    bound = int(value)
                except ValueError:
                    raise ParseError(
                        f"option bound must be an integer, got {value!r}",
                        lineno, tokens[2].col) from None
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
                  options=options, declarations=tuple(declared), bound=bound)


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


def print_term(term: Term, memo: Optional[dict] = None) -> str:
    """Render a term with minimal parentheses; reparsing yields the term.

    `memo` maps `id(node)` to `(node, text, start, end, level)` for each
    application node rendered with it: its unparenthesised text is
    `text[start:end]`, a slice of the text of the term it was printed in,
    and it needs parentheses in every position that requires a level above
    `level`. The node is kept so that its id is not reused. Printing the
    terms of one trace with one memo renders each shared subterm once; a
    node's entry costs the same whatever its size.
    """
    if type(term) is not App:
        return _leaf(term, 0)
    if memo is not None:
        done = memo.get(id(term))
        if done is not None:
            _, text, start, end, _ = done
            return text[start:end]
    return _render(term, memo)


def _render(term: App, memo: Optional[dict]) -> str:
    """The text of `term`, written left to right from an explicit stack of
    pieces; each application node rendered is entered in `memo`."""
    out: list[str] = []
    size = 0                    # characters in `out`
    spans: list[list] = []      # [node, start, end, level] per node rendered
    stack: list = [(term, 0)]   # text, (application, required level), span
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
            size += len(item)
        elif type(item) is tuple:
            node, required = item
            if memo is not None and id(node) in memo:
                _, text, start, end, level = memo[id(node)]
                piece = text[start:end]
                if level < required:
                    piece = f"({piece})"
                out.append(piece)
                size += len(piece)
                continue
            level, parts = _layout(node)
            if level < required:
                out.append("(")
                size += 1
                stack.append(")")
            if memo is not None:
                span = [node, size, 0, level]
                spans.append(span)
                stack.append(span)
            stack += parts
        else:                       # the end of a span
            item[2] = size
    text = "".join(out)
    for node, start, end, level in spans:
        memo[id(node)] = (node, text, start, end, level)
    return text


def _layout(node: App) -> tuple[int, list]:
    """The level of an application node and its pieces, last first: texts
    and (application argument, required level) pairs."""
    args = []
    head = node
    while type(head) is App:
        args.append(head.arg)   # last first
        head = head.head
    name = head.name
    if len(args) == 2 and isinstance(head, FunctionSymbol) and name in _LEVEL:
        lvl = _LEVEL[name]
        left = lvl + 1 if lvl in _NON_ASSOC_LEVELS else lvl
        return lvl, [_piece(args[0], lvl + 1), f" {name} ",
                     _piece(args[1], left)]
    parts: list = []
    for a in args:
        parts += (_piece(a, _L_ATOM), " ")
    parts.append(_leaf(head, _L_APP))
    return _L_APP, parts


def _piece(term: Term, required: int):
    return (term, required) if type(term) is App else _leaf(term, required)


def _leaf(term: Term, required: int) -> str:
    name = term.name  # FunctionSymbol or Variable
    if isinstance(term, FunctionSymbol) and name in _LEVEL:
        return f"[{name}]"
    if name.startswith("-") and required >= _L_ADD:
        return f"({name})"  # negative literal in operand position
    return name


def print_rule(rule: Rule) -> str:
    return (f"{print_term(rule.lhs)} -> {print_term(rule.rhs)} "
            f"[{print_term(rule.constraint)}]")
