"""Concrete syntax for expressions.

Grammar, loosest binding first::

    imply := or ( "->" imply )?          right associative, chain-collected
    or    := iand ( "|" iand )*
    iand  := and ( "@" and )*            left associative, chain-collected
    and   := not ( "&" not )*
    not   := "!" not | atom
    atom  := "0" | "1" | name | "(" imply ")"

``@`` binds tighter than ``|``, which binds tighter than ``->``.  Mixing
``@`` and ``->`` inside the same pair of parentheses is rejected with a
fix-it hint: the two chain operators pair in opposite directions, so an
unparenthesized mix has no reading that respects both.

One compiled regex splits the text into tokens: a one-character operator
or parenthesis, ``->``, a word (a run of letters, digits and underscores),
or any other non-space character, which is an error.  Whitespace between
tokens is skipped.  A word is ``0``, ``1`` or a name, which starts with a
letter or underscore; any other word is an error.  The tokens are held as
parallel kind/text/position lists, which the recursive descent reads by
index, taking a run of ``!`` in one loop.
"""

from __future__ import annotations

import re

from .errors import ParseError
from .expr import (
    FALSE,
    TRUE,
    And,
    Expr,
    Not,
    Or,
    Var,
    iand_chain,
    imply_chain,
)

_MIX_HINT = (
    "cannot mix '@' and '->' at the same nesting level; "
    "add parentheses, e.g. (A @ B) -> C or A @ (B -> C)"
)

# Operators, then words, then any other non-space character (an error).
# ``\w`` is ``str.isalnum`` or ``_``, and the whitespace that ``finditer``
# skips is ``str.isspace``, character for character.
_TOKEN_RE = re.compile(r"[!&@|()]|->|\w+|\S")
_FIXED = frozenset(("!", "&", "@", "|", "(", ")", "->", "0", "1"))


def _tokenize(text: str) -> tuple[list[str], list[str], list[int]]:
    """Parallel kind, text and position lists, ending with an ``EOF`` token.

    A token's kind is its own text for operators, parentheses, ``0`` and
    ``1``, and ``NAME`` for a name.
    """
    kinds: list[str] = []
    texts: list[str] = []
    positions: list[int] = []
    for m in _TOKEN_RE.finditer(text):
        tok = m[0]
        if tok in _FIXED:
            kinds.append(tok)
        elif tok[0].isalpha() or tok[0] == "_":
            kinds.append("NAME")
        elif tok[0].isdigit():
            raise ParseError(
                f"name cannot start with a digit: {tok!r}", m.start()
            )
        elif tok == "-":
            raise ParseError("expected '->' after '-'", m.start())
        else:
            raise ParseError(f"unexpected character {tok[0]!r}", m.start())
        texts.append(tok)
        positions.append(m.start())
    kinds.append("EOF")
    texts.append("")
    positions.append(len(text))
    return kinds, texts, positions


class _Parser:
    def __init__(self, text: str) -> None:
        self.kinds, self.texts, self.positions = _tokenize(text)
        self.index = 0
        self.names: dict[str, Var] = {}  # one Var per distinct name

    # Every level returns (expression, naked_iand): the flag records an
    # '@' consumed inside the current parentheses, and parentheses clear it.

    def parse_imply(self) -> tuple[Expr, bool]:
        left, left_naked = self.parse_or()
        kinds = self.kinds
        if kinds[self.index] != "->":
            return left, left_naked
        if left_naked:
            raise ParseError(_MIX_HINT, self.positions[self.index])
        operands = [left]
        while kinds[self.index] == "->":
            arrow = self.index
            self.index += 1
            right, right_naked = self.parse_or()
            if right_naked:
                raise ParseError(_MIX_HINT, self.positions[arrow])
            operands.append(right)
        return imply_chain(operands), False

    def parse_or(self) -> tuple[Expr, bool]:
        first, naked = self.parse_iand()
        kinds = self.kinds
        if kinds[self.index] != "|":
            return first, naked
        operands = [first]
        while kinds[self.index] == "|":
            self.index += 1
            nxt, nxt_naked = self.parse_iand()
            naked = naked or nxt_naked
            operands.append(nxt)
        return Or(tuple(operands)), naked

    def parse_iand(self) -> tuple[Expr, bool]:
        first = self.parse_and()
        kinds = self.kinds
        if kinds[self.index] != "@":
            return first, False
        operands = [first]
        while kinds[self.index] == "@":
            self.index += 1
            operands.append(self.parse_and())
        return iand_chain(operands), True

    def parse_and(self) -> Expr:
        first = self.parse_not()
        kinds = self.kinds
        if kinds[self.index] != "&":
            return first
        operands = [first]
        while kinds[self.index] == "&":
            self.index += 1
            operands.append(self.parse_not())
        return And(tuple(operands))

    def parse_not(self) -> Expr:
        """A run of ``!`` and the atom it negates."""
        kinds = self.kinds
        i = start = self.index
        while kinds[i] == "!":
            i += 1
        self.index = i + 1
        kind = kinds[i]
        if kind == "NAME":
            name = self.texts[i]
            e = self.names.get(name)
            if e is None:
                e = self.names[name] = Var(name)
        elif kind == "(":
            e, _ = self.parse_imply()
            closing = self.index
            self.index = closing + 1
            if kinds[closing] != ")":
                raise ParseError("expected ')'", self.positions[closing])
        elif kind == "0":
            e = FALSE
        elif kind == "1":
            e = TRUE
        elif kind == ")":
            raise ParseError("unmatched ')'", self.positions[i])
        elif kind == "EOF":
            raise ParseError("unexpected end of input", self.positions[i])
        else:
            raise ParseError(
                f"unexpected token {self.texts[i]!r}", self.positions[i]
            )
        for _ in range(i - start):
            e = Not(e)
        return e


def parse(text: str) -> Expr:
    """Parse concrete syntax into an expression tree."""
    parser = _Parser(text)
    expr, _ = parser.parse_imply()
    i = parser.index
    if parser.kinds[i] != "EOF":
        raise ParseError(
            f"trailing input {parser.texts[i]!r}", parser.positions[i]
        )
    return expr
