"""Concrete syntax for the formula language.

Grammar (ASCII only; outside tokens, ASCII whitespace, that is space, tab,
LF, CR, VT and FF, is ignored):

    formula  := imp ("<->" imp)*                      right-associative
    imp      := or ("->" or)*                         right-associative
    or       := and ("|" and)*                        left-associative
    and      := unary ("&" unary)*                    left-associative
    unary    := ("~" | "<" coalition ">" | "[" coalition "]"
              | "pref" "(" AGENT ")" | "Pref" "(" AGENT ")")* primary
    primary  := "(" formula ")"
              | "better" "(" AGENT "," formula "," formula ")"
              | NAME ("(" ARG ("," ARG)* ")")? | OUTCOME
    coalition := "{" (AGENT ("," AGENT)*)? "}" | "N"

Every named form NAME is one row of the table `_FORMS`: the kinds of its
arguments ARG (an agent, an outcome, a ranking [x,...], a profile literal
[[x,...],...] or a quoted SCF file path), each read by the `_Parser`
method of that name, and the builder it is expanded by at parse time, so
the evaluator only ever sees the core grammar.  The rows are true, false,
rep(i,x,y), ballot(i,[...]), ballotAll([[...],...]),
trueprofile([[...],...]), scf("path") and one per property kind of
`encodings.PropertyId`, bare or with an agent argument as the kind is
named.  `KEYWORDS` is the table's names with N, pref, Pref and better.
`better(i,f,g)` takes formulas, so it is parsed as a level of the formula
instead.  Formulas are parsed on explicit stacks (operator precedence),
so long operator chains and deep nesting are limited by memory only.

The text is cut into tokens by one compiled regex, `_TOKEN_RE`, matched
once per token: ASCII whitespace, then a word, number, symbol or quoted
string, or nothing, which is a lexical error where text remains.  A token
keeps its offsets, and the `SourceSpan` an error reports is built from
them only when the error is raised.

`format_formula` prints the canonical minimally-parenthesized core form;
parsing it back yields the same (interned) node.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional, Union

from . import encodings, files
from .core import InvalidDomain, LinearOrder, Profile, ScfTable, _check_outcomes
from .logic import (
    And,
    Box,
    Diamond,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    Out,
    Pref,
    PrefBox,
    Rep,
    Top,
    TRUE,
)

__all__ = [
    "SourceSpan",
    "ParseError",
    "Context",
    "parse",
    "format_formula",
]

@dataclass(frozen=True)
class SourceSpan:
    """Byte offsets [start, end) into the parsed text."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.end < self.start:
            raise ValueError(f"bad span {self.start}..{self.end}")

    def __str__(self) -> str:
        return f"{self.start}..{self.end}"


class ParseError(ValueError):
    def __init__(self, message: str, span: SourceSpan):
        self.span = span
        super().__init__(f"{message} at {span}")
        self.message = message


@dataclass(frozen=True)
class Context:
    """Parsing context: agent count and outcome names."""

    n: int
    outcomes: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise InvalidDomain(f"need at least one agent, got n={self.n}")
        object.__setattr__(self, "outcomes", _check_outcomes(self.outcomes))
        for name in self.outcomes:
            if name in KEYWORDS:
                raise InvalidDomain(f"outcome name {name!r} collides with a keyword")


# ASCII whitespace only, as the grammar says (str.isspace() also holds for
# \x1c-\x1f and for non-ASCII spaces such as U+3000), then one token: a
# number, a word, a symbol or a quoted string, in the groups `_KINDS` names;
# or nothing, where no token starts
_TOKEN_RE = re.compile(
    r"[ \t\n\r\x0b\x0c]*(?:([0-9]+(?![A-Za-z0-9]))|([A-Za-z0-9]+)"
    r"|(<->|->|[~&|<>\[\]{}(),])|'([^']*)'|\"([^\"]*)\")?"
)
_KINDS = (None, "number", "word", "symbol", "string", "string")


class _Token:
    """A token, its kind (word, number, string, symbol or eof), its text
    (a string's without the quotes) and its offsets [start, end)."""

    __slots__ = ("kind", "text", "start", "end")

    def __init__(self, kind: str, text: str, start: int, end: int):
        self.kind, self.text, self.start, self.end = kind, text, start, end

    @property
    def span(self) -> SourceSpan:
        return SourceSpan(self.start, self.end)


def _tokenize(text: str) -> list[_Token]:
    """The tokens of `text` and an eof token, one `_TOKEN_RE` match each;
    spans are built only when an error reads them.  As the pattern matches
    the empty string, `finditer` finds each match where the last ended, and
    a match with no token before the end of the text is a lexical error at
    the character there."""
    tokens: list[_Token] = []
    length = len(text)
    for match in _TOKEN_RE.finditer(text):
        group = match.lastindex
        if group is None:
            at = match.end()
            if at == length:
                break
            if text[at] in "'\"":
                raise ParseError("unterminated string literal", SourceSpan(at, length))
            raise ParseError(f"unexpected character {text[at]!r}", SourceSpan(at, at + 1))
        start, end = match.span(group)
        if group > 3:  # a string's span takes in its quotes
            start, end = start - 1, end + 1
        tokens.append(_Token(_KINDS[group], match[group], start, end))
    tokens.append(_Token("eof", "", length, length))
    return tokens


# binary operators: precedence (tighter binds higher), builder
_BINARY: dict[str, tuple[int, Callable[[Formula, Formula], Formula]]] = {
    "&": (4, And),
    "|": (3, Or),
    "->": (2, Implies),
    "<->": (1, Iff),
}
_RIGHT_ASSOCIATIVE = frozenset({"->", "<->"})

# named form -> (its argument kinds, each the `_Parser` method that reads
# one, and its builder over the context and the arguments).  Rows call the
# builders through the module name `encodings` when they run.
_FORMS: dict[str, tuple[tuple[str, ...], Callable[..., Formula]]] = {
    "true": ((), lambda ctx: TRUE),
    "false": ((), lambda ctx: Not(TRUE)),
    "rep": (("agent", "outcome", "outcome"), lambda ctx, *args: Rep(*args)),
    "ballot": (("agent", "ranking"), lambda ctx, *args: encodings.ballot_agent(*args)),
    "ballotAll": (("profile_literal",), lambda ctx, p: encodings.ballot_profile(p)),
    "trueprofile": (
        ("profile_literal",),
        lambda ctx, p: encodings.trueprofile(p, ctx.outcomes),
    ),
    "scf": (("path",), lambda ctx, table: encodings.rho(table, "diamond")),
    **{
        kind: (
            ("agent",) if kind in encodings.PropertyId.AGENT_KINDS else (),
            lambda ctx, *agent, kind=kind: encodings.property_formula(
                encodings.PropertyId(kind, *agent), ctx.n, ctx.outcomes
            ),
        )
        for kind in encodings.PropertyId.KINDS
    },
}

KEYWORDS = frozenset({*_FORMS, "N", "pref", "Pref", "better"})


@dataclass
class _Level:
    """One parenthesized level of a formula being parsed, or one argument
    list of `better(i, f, g)` (with `agent` set and `args` filling up)."""

    agent: Optional[int] = None
    args: list[Formula] = field(default_factory=list)
    prefixes: list[Callable[[Formula], Formula]] = field(default_factory=list)
    operands: list[Formula] = field(default_factory=list)
    operators: list[str] = field(default_factory=list)

    def reduce(self, incoming: Optional[str]) -> None:
        """Apply the pending binary operators that bind at least as tightly
        as `incoming` (all of them for None), rightmost first."""
        floor = _BINARY[incoming][0] if incoming is not None else 0
        while self.operators:
            prec = _BINARY[self.operators[-1]][0]
            if prec < floor or (prec == floor and incoming in _RIGHT_ASSOCIATIVE):
                return
            right = self.operands.pop()
            left = self.operands.pop()
            self.operands.append(_BINARY[self.operators.pop()][1](left, right))


class _Parser:
    def __init__(self, text: str, ctx: Context):
        self.text = text
        self.ctx = ctx
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        token = self.tokens[self.pos]
        if token.kind != "eof":
            self.pos += 1
        return token

    def expect(self, text: str) -> _Token:
        token = self.peek()
        if token.kind == "symbol" and token.text == text:
            return self.advance()
        raise ParseError(f"expected {text!r}, found {token.text or 'end of input'!r}", token.span)

    def at_symbol(self, text: str) -> bool:
        token = self.peek()
        return token.kind == "symbol" and token.text == text

    # --- grammar ---------------------------------------------------------

    def formula(self) -> Formula:
        """Operator-precedence parse on explicit stacks: prefix operators
        wait for their operand, binary operators for the end of their right
        operand, and each "(" or "better(i," opens a level of its own, so
        neither long chains nor deep nesting recurse.  In a `better` level
        a "," ends the first argument and the ")" after the second builds
        the macro, which the outer level takes as an operand."""
        outer: list[_Level] = []
        level = _Level()
        while True:
            level.prefixes = self.prefix_operators()
            token = self.peek()
            if (token.kind, token.text) in (("symbol", "("), ("word", "better")):
                self.advance()
                outer.append(level)
                level = _Level()
                if token.text == "better":
                    self.expect("(")
                    level.agent = self.agent()
                    self.expect(",")
                continue
            node = self.primary()
            while True:
                for apply in reversed(level.prefixes):
                    node = apply(node)
                level.prefixes = []
                level.operands.append(node)
                token = self.peek()
                if token.kind == "symbol" and token.text in _BINARY:
                    level.reduce(token.text)
                    level.operators.append(token.text)
                    self.advance()
                    break
                level.reduce(None)
                node = level.operands.pop()
                if not outer:
                    return node
                if level.agent is not None:
                    level.args.append(node)
                    if len(level.args) == 1:
                        self.expect(",")
                        break
                    node = encodings.better(self.ctx.n, self.ctx.outcomes, level.agent, *level.args)
                self.expect(")")
                level = outer.pop()

    def prefix_operators(self) -> list[Callable[[Formula], Formula]]:
        """The prefix operators before an operand, outermost first."""
        prefixes: list[Callable[[Formula], Formula]] = []
        while True:
            token = self.peek()
            if self.at_symbol("~"):
                self.advance()
                prefixes.append(Not)
            elif self.at_symbol("<") or self.at_symbol("["):
                close = ">" if token.text == "<" else "]"
                self.advance()
                coalition = self.coalition()
                self.expect(close)
                prefixes.append(partial(Diamond if close == ">" else Box, coalition))
            elif token.kind == "word" and token.text in ("pref", "Pref"):
                self.advance()
                self.expect("(")
                agent = self.agent()
                self.expect(")")
                prefixes.append(partial(Pref if token.text == "pref" else PrefBox, agent))
            else:
                return prefixes

    def coalition(self) -> frozenset[int]:
        token = self.peek()
        if token.kind == "word" and token.text == "N":
            self.advance()
            return frozenset(range(1, self.ctx.n + 1))
        if self.at_symbol("{"):
            self.advance()
            members: set[int] = set()
            if not self.at_symbol("}"):
                members.add(self.agent())
                while self.at_symbol(","):
                    self.advance()
                    members.add(self.agent())
            self.expect("}")
            return frozenset(members)
        raise ParseError(
            f"malformed coalition: expected '{{' or 'N', found {token.text or 'end of input'!r}",
            token.span,
        )

    def agent(self) -> int:
        token = self.peek()
        if token.kind != "number":
            raise ParseError(
                f"expected an agent number, found {token.text or 'end of input'!r}", token.span
            )
        value = int(token.text)
        if not 1 <= value <= self.ctx.n:
            raise ParseError(f"unknown agent token {token.text!r} (agents are 1..{self.ctx.n})", token.span)
        self.advance()
        return value

    def outcome(self) -> str:
        token = self.peek()
        if token.kind in ("word", "number") and token.text in self.ctx.outcomes:
            self.advance()
            return token.text
        raise ParseError(
            f"unknown outcome token {token.text or 'end of input'!r}"
            f" (outcomes are {', '.join(self.ctx.outcomes)})",
            token.span,
        )

    def ranking(self) -> LinearOrder:
        start = self.expect("[")
        names = [self.outcome()]
        while self.at_symbol(","):
            self.advance()
            names.append(self.outcome())
        end = self.expect("]")
        if sorted(names) != sorted(self.ctx.outcomes):
            raise ParseError(
                "ranking is not a permutation of the outcome set",
                SourceSpan(start.span.start, end.span.end),
            )
        return LinearOrder(tuple(names))

    def profile_literal(self) -> Profile:
        start = self.expect("[")
        orders = [self.ranking()]
        while self.at_symbol(","):
            self.advance()
            orders.append(self.ranking())
        end = self.expect("]")
        if len(orders) != self.ctx.n:
            raise ParseError(
                f"profile literal needs {self.ctx.n} rankings, found {len(orders)}",
                SourceSpan(start.span.start, end.span.end),
            )
        return Profile(tuple(orders))

    def path(self) -> ScfTable:
        """A quoted SCF file path, loaded and checked against the context."""
        token = self.peek()
        if token.kind != "string":
            raise ParseError("scf(...) takes a quoted path", token.span)
        self.advance()
        try:
            table = files.load_scf(token.text)
        except (OSError, ValueError) as exc:
            raise ParseError(f"cannot load SCF {token.text!r}: {exc}", token.span) from exc
        if table.agents != self.ctx.n or set(table.outcomes) != set(self.ctx.outcomes):
            raise ParseError(
                f"SCF {token.text!r} is over (n={table.agents}, K={table.outcomes}),"
                f" context is (n={self.ctx.n}, K={self.ctx.outcomes})",
                token.span,
            )
        return table

    def primary(self) -> Formula:
        """A named form of `_FORMS` with its arguments, or an outcome."""
        token = self.peek()
        if token.kind == "string":
            raise ParseError("string literal outside scf(...)", token.span)
        if token.kind not in ("word", "number"):
            raise ParseError(
                f"expected a formula, found {token.text or 'end of input'!r}", token.span
            )
        form = _FORMS.get(token.text)
        if form is None:
            return Out(self.outcome())
        self.advance()
        kinds, build = form
        args = []
        for k, kind in enumerate(kinds):
            self.expect("," if k else "(")
            args.append(getattr(self, kind)())
        if kinds:
            self.expect(")")
        return build(self.ctx, *args)


def _as_context(ctx: Union[Context, tuple]) -> Context:
    if isinstance(ctx, Context):
        return ctx
    n, outcomes = ctx
    return Context(n, tuple(outcomes))


def parse(text: str, ctx: Union[Context, tuple]) -> Formula:
    """Parse `text` into a core-grammar formula over the context's (n, K).

    Raises ParseError, carrying a SourceSpan, on any lexical error,
    unbalanced bracketing, unknown agent/outcome token or malformed
    coalition.
    """
    parser = _Parser(text, _as_context(ctx))
    result = parser.formula()
    trailing = parser.peek()
    if trailing.kind != "eof":
        raise ParseError(f"unexpected trailing input {trailing.text!r}", trailing.span)
    return result


def _coalition_str(coalition: frozenset[int]) -> str:
    return "{" + ",".join(str(i) for i in sorted(coalition)) + "}"


def format_formula(formula: Formula) -> str:
    """Canonical minimally-parenthesized rendering of a core-grammar tree;
    `parse(format_formula(f))` is `f` itself, as nodes are interned.

    Written left to right from an explicit stack of pending nodes and
    literal text, so depth is limited by memory only."""
    out: list[str] = []
    stack: list[Union[Formula, str]] = [formula]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        kind = type(item)
        if kind is Top:
            out.append("true")
        elif kind is Rep:
            out.append(f"rep({item.agent},{item.left},{item.right})")
        elif kind is Out:
            out.append(item.name)
        elif kind is Or:
            if type(item.right) is Or:
                stack += [")", item.right, " | (", item.left]
            else:
                stack += [item.right, " | ", item.left]
        elif kind is Not and type(item.child) is Top:
            out.append("false")
        elif kind is Not or kind is Diamond or kind is Pref:
            if kind is Not:
                head = "~"
            elif kind is Diamond:
                head = f"<{_coalition_str(item.coalition)}> "
            else:
                head = f"pref({item.agent}) "
            # a disjunction under a prefix operator needs parentheses
            if type(item.child) is Or:
                stack += [")", item.child, head + "("]
            else:
                stack += [item.child, head]
        else:
            raise TypeError(f"not a formula node: {item!r}")
    return "".join(out)
