"""Concrete text format for rewrite systems and terms.

The file format is line oriented:

    fun NAME : TYPE               symbol declaration
    rule LHS -> RHS [CONSTRAINT]  rewrite rule (constraint brackets mandatory)
    option bound N                the only option: the ordering's lower bound
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
from typing import NamedTuple, Optional

from . import theory
from .core import (
    App, ArrowType, BaseType, FunctionSymbol, LcstrsError, PreApp, PreLeaf,
    PreTerm, Rule, RuleError, Signature, Term, Type, Variable, typecheck,
)


class ParseError(LcstrsError):
    def __init__(self, message: str, line: int, col: int):
        self.line = line
        self.col = col
        super().__init__(f"{line}:{col}: {message}")


# ---------------------------------------------------------------------------
# Lexer
#
# One regex, matched with `findall` once per line: each match is the
# whitespace before a token and one group per token kind, of which only the
# token's own is not empty, or the whitespace before the end of the line
# (without that alternative a blank line would be scanned again from every
# one of its characters). Columns are a running sum of the lengths. In a str
# pattern `\s` is exactly `str.isspace` (an ASCII class would miss
# \x1c-\x1f), `\w` is `str.isalnum` plus `_`, and `\d` is `str.isdecimal`.
# An integer is a run of ASCII digits, the theory's literals, and an
# identifier starts with a `\w` character that is not a decimal digit, so a
# decimal digit outside ASCII (`٣`) is an unexpected character.


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


# groups: whitespace, int, ident, arrow, op, punct, bad
_TOKENS = re.compile(r"""
    (\s*)
    (?: ([0-9]+)
      | ([^\W\d][\w']*)
      | (->)
      | (!>=|!>|!=|<=|>=|/\\|\\/|[<>=+\-*])
      | ([()\[\]:])
      | (\S)
      | $ )
""", re.VERBOSE)


def tokenize(text: str, first_line: int = 1) -> list[Token]:
    """The tokens of `text`, its lines numbered from `first_line`."""
    tokens: list[Token] = []
    append = tokens.append
    line = first_line
    for chunk in text.split("\n"):
        col = 1     # the column where the next match starts
        for space, num, ident, arrow, op, punct, bad in _TOKENS.findall(chunk):
            col += len(space)
            if ident:
                append(_new(Token, ("ident", ident, line, col)))
                col += len(ident)
            elif punct:
                append(_new(Token, ("punct", punct, line, col)))
                col += 1
            elif op:
                append(_new(Token, ("op", op, line, col)))
                col += len(op)
            elif num:
                if not space and col > 1 and chunk[col - 2] == "-" and (
                        len(tokens) < 2 or not _is_operand(tokens[-2])):
                    # `-` right before digits, not after an operand: a literal
                    tokens[-1] = _new(Token, ("int", "-" + num, line, col - 1))
                else:
                    append(_new(Token, ("int", num, line, col)))
                col += len(num)
            elif arrow:
                append(_new(Token, ("arrow", arrow, line, col)))
                col += 2
            elif bad:
                raise ParseError(f"unexpected character {bad!r}", line, col)
        line += 1
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
    if depth:       # an error at the outermost open comment's `(*`
        line = text.count("\n", 0, kept) + 1
        raise ParseError("unterminated comment", line,
                         kept - text.rfind("\n", 0, kept))
    out.append(text[kept:])
    return "".join(out)


# ---------------------------------------------------------------------------
# Term and type parsing
#
# Both parsers keep explicit stacks. Terms use precedence climbing over the
# levels of `theory.INFIX_LEVELS`, with juxtaposition as level `_L_APP`; an
# open parenthesis is a level-0 entry on the operator stack, so nesting
# depth is not bounded by Python's recursion limit. An application is one
# `PreApp` of a name and all its arguments: an argument given to an
# application, parenthesised or infix, joins its argument list, and
# `typecheck` makes it one `App` node.

_L_OR, _L_AND, _L_CMP, _L_ADD, _L_MUL, _L_APP, _L_ATOM = 1, 2, 3, 4, 5, 6, 7
_NON_ASSOC_LEVELS = (_L_CMP,)
_LEVEL = theory.INFIX_LEVELS


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0

    def end_error(self) -> ParseError:
        """The error of reading past the last token, placed just after it."""
        last = self.tokens[-1]
        return ParseError("unexpected end of input", last.line,
                          last.col + len(last.text))

    def at_end(self) -> bool:
        return self.i >= len(self.tokens)

    # terms ----------------------------------------------------------------

    def parse_term(self) -> PreTerm:
        """One term; stops before the first token that cannot continue it,
        which includes a second comparison operator at the same level."""
        tokens = self.tokens
        n = len(tokens)
        i = self.i
        operands: list[PreTerm] = []    # left operands of `operators`
        # levels: an infix operator's, 0 for an open parenthesis, `_L_APP`
        # for a pending application; `infixes` has each infix operator's leaf
        operators: list[int] = []
        infixes: list[PreLeaf] = []
        while True:
            # an operand
            if i == n:
                raise self.end_error()
            kind, text, line, col = tokens[i]
            i += 1
            if kind == "ident" or kind == "int":
                operand = _new(PreLeaf, (text, (line, col)))
            elif text == "(":
                operators.append(0)
                continue
            elif text == "[":
                if i == n:
                    raise self.end_error()
                kind, text, line, col = tokens[i]
                if kind != "op":
                    raise ParseError(
                        "expected an infix operator inside brackets, "
                        f"found {text!r}", line, col)
                i += 1
                if i == n:
                    raise self.end_error()
                t = tokens[i]
                if t.text != "]":
                    raise ParseError(f"expected ']', found {t.text!r}",
                                     t.line, t.col)
                i += 1
                operand = _new(PreLeaf, (text, (line, col)))
            else:
                raise ParseError(f"unexpected token {text!r}", line, col)
            # what follows an operand
            while True:
                if operators and operators[-1] == _L_APP:
                    operators.pop()
                    head = operands.pop()
                    if type(head) is PreApp:
                        head.args.append(operand)
                        operand = head
                    else:
                        operand = _new(PreApp, (head, [operand]))
                if i < n:
                    kind, text, line, col = tokens[i]
                    if kind == "op":
                        level = _LEVEL[text]
                        while operators and operators[-1] > level:
                            operators.pop()
                            operand = _new(PreApp, (infixes.pop(), [
                                operands.pop(), operand]))
                        top = operators[-1] if operators else 0
                        if top < level or level not in _NON_ASSOC_LEVELS:
                            if top == level:
                                operators.pop()
                                operand = _new(PreApp, (infixes.pop(), [
                                    operands.pop(), operand]))
                            operands.append(operand)
                            operators.append(level)
                            infixes.append(_new(PreLeaf, (text, (line, col))))
                            i += 1
                            break
                    elif (kind == "ident" or kind == "int"
                          or text == "(" or text == "["):
                        operands.append(operand)
                        operators.append(_L_APP)
                        break
                # the term, or the innermost parenthesised group, ends here
                while operators and operators[-1]:
                    operators.pop()
                    operand = _new(PreApp, (infixes.pop(), [operands.pop(),
                                                            operand]))
                if not operators:
                    self.i = i
                    return operand
                operators.pop()
                if i == n:
                    raise self.end_error()
                t = tokens[i]
                if t.text != ")":
                    raise ParseError(f"expected ')', found {t.text!r}",
                                     t.line, t.col)
                i += 1

    # types ----------------------------------------------------------------

    def parse_type(self, base_types: dict[str, BaseType]) -> Type:
        """A type; `->` associates to the right. One chain of arrow
        operands per open parenthesis. A new sort name gets its base type
        in `base_types`."""
        tokens = self.tokens
        n = len(tokens)
        i = self.i
        chains: list[list[Type]] = [[]]
        while True:
            if i == n:
                raise self.end_error()
            kind, text, line, col = tokens[i]
            i += 1
            if text == "(":
                chains.append([])
                continue
            if kind != "ident":
                raise ParseError(f"expected a type, found {text!r}", line, col)
            ty = base_types.get(text)
            if ty is None:
                ty = base_types[text] = BaseType(text)
            while True:
                chains[-1].append(ty)
                if i < n and tokens[i].kind == "arrow":
                    i += 1
                    break
                chain = chains.pop()
                ty = chain.pop()
                while chain:
                    ty = ArrowType(chain.pop(), ty)
                if not chains:
                    self.i = i
                    return ty
                if i == n:
                    raise self.end_error()
                t = tokens[i]
                if t.text != ")":
                    raise ParseError(f"expected ')', found {t.text!r}",
                                     t.line, t.col)
                i += 1


# ---------------------------------------------------------------------------
# Systems


@dataclass(frozen=True)
class System:
    """A validated rewrite system: signature, rules, and the bound. Frozen,
    since rewriting keeps what it compiles of it (`rewrite._compiled`)."""
    signature: Signature
    rules: tuple[Rule, ...]
    declarations: tuple[FunctionSymbol, ...]
    bound: int = 0      # lower bound of the integer ordering symbol

    def defined_symbols(self) -> tuple[FunctionSymbol, ...]:
        return tuple(dict.fromkeys(rule.lhs.head for rule in self.rules
                                   if type(rule.lhs.head) is FunctionSymbol))


_RESERVED = {"fun", "rule", "option", "Int", "Bool"}


def parse_system(text: str) -> System:
    """Parse and validate a whole system file.

    Lines are read in file order, each declaration entering the signature
    as it is read, so the first bad line or repeated name is the error
    reported. The rules are typechecked after the last line, so a rule may
    use a symbol declared below it.
    """
    stripped = _strip_comments(text)
    signature = theory.base_signature()
    declarations: list[FunctionSymbol] = []
    bound: Optional[int] = None
    base_types = {"Int": theory.INT_T, "Bool": theory.BOOL_T}
    rule_lines: list[tuple[list[Token], list[Token], list[Token]]] = []

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
            parser = _Parser(tokens[3:])
            ty = parser.parse_type(base_types)
            if not parser.at_end():
                t = parser.tokens[parser.i]
                raise ParseError(f"unexpected token {t.text!r} after type",
                                 t.line, t.col)
            symbol = FunctionSymbol(name, ty)
            try:
                signature.add(symbol)
            except LcstrsError as e:    # declared twice, or built in
                raise ParseError(str(e), lineno, tokens[1].col) from None
            declarations.append(symbol)
        elif head.text == "rule":
            rule_lines.append(_split_rule_tokens(tokens))
        elif head.text == "option":
            if len(tokens) < 3 or tokens[1].kind != "ident":
                raise ParseError("expected 'option KEY VALUE'", lineno, head.col)
            if tokens[1].text != "bound":
                raise ParseError(f"unknown option {tokens[1].text!r}",
                                 lineno, tokens[1].col)
            if bound is not None:
                raise ParseError("option bound is already set",
                                 lineno, tokens[1].col)
            value = line[tokens[2].col - 1:].strip()
            try:
                bound = theory.parse_int(value)
            except ValueError:
                raise ParseError(
                    f"option bound must be an integer, got {value!r}",
                    lineno, tokens[2].col) from None
            except theory.TheoryError as e:
                raise ParseError(str(e), lineno, tokens[2].col) from None
        else:
            raise ParseError(
                f"expected 'fun', 'rule' or 'option', found {head.text!r}",
                lineno, head.col)

    rules = []
    for lhs_toks, rhs_toks, con_toks in rule_lines:
        ctx: dict[str, Variable] = {}
        lhs = typecheck(_parse_pre(lhs_toks), signature, ctx)
        rhs = typecheck(_parse_pre(rhs_toks), signature, ctx,
                        expected=lhs.type)
        constraint = typecheck(_parse_pre(con_toks), signature, ctx,
                               expected=theory.BOOL_T)
        try:
            rules.append(Rule(lhs, rhs, constraint))
        except RuleError as e:      # placed at the rule's first token
            e.args = (f"{lhs_toks[0].line}:{lhs_toks[0].col}: {e}",)
            raise

    return System(signature=signature, rules=tuple(rules),
                  declarations=tuple(declarations),
                  bound=0 if bound is None else bound)


def _split_rule_tokens(tokens: list[Token]
                       ) -> tuple[list[Token], list[Token], list[Token]]:
    """The sides and the constraint of a rule line, whose first token is
    its `rule` keyword; a malformed line is an error at that keyword."""
    keyword, tokens = tokens[0], tokens[1:]
    arrow_at = next((i for i, t in enumerate(tokens) if t.kind == "arrow"), None)
    if arrow_at is None:
        raise ParseError("rule is missing '->'", *keyword.pos)
    if not tokens or tokens[-1].text != "]":
        raise ParseError("rule is missing its [CONSTRAINT] part", *keyword.pos)
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
        raise ParseError("rule is missing its [CONSTRAINT] part", *keyword.pos)
    lhs = tokens[:arrow_at]
    rhs = tokens[arrow_at + 1:open_at]
    constraint = tokens[open_at + 1:-1]
    if not lhs or not rhs or not constraint:
        raise ParseError("expected 'rule LHS -> RHS [CONSTRAINT]'",
                         *keyword.pos)
    return lhs, rhs, constraint


def _parse_pre(tokens: list[Token]) -> PreTerm:
    parser = _Parser(tokens)
    pre = parser.parse_term()
    if not parser.at_end():
        t = parser.tokens[parser.i]
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
    pre = _parse_pre(tokens)
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
    head, args = node.head, node.args
    name = head.name
    if len(args) == 2 and isinstance(head, FunctionSymbol) and name in _LEVEL:
        lvl = _LEVEL[name]
        left = lvl + 1 if lvl in _NON_ASSOC_LEVELS else lvl
        return lvl, [_piece(args[1], lvl + 1), f" {name} ",
                     _piece(args[0], left)]
    parts: list = []
    for a in reversed(args):
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
