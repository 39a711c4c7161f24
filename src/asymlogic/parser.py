"""Concrete syntax for expressions.

Grammar::

    binary := not ( op not )*    op: a row of expr.BINARY_OPERATORS
    not    := "!" not | atom
    atom   := "0" | "1" | name | "(" binary ")"

The binary operators are the rows of ``expr.BINARY_OPERATORS``, loosest
binding first: ``->``, ``|``, ``@``, ``&``.  A run of one operator is one
node, built by its row's node type, so ``a @ b @ c`` is one IAND chain
(pairing left to right) and ``a -> b -> c`` one IMPLY chain (pairing right
to left).  One loop reads every level by precedence climbing:
``parse_binary(level)`` reads an operand, then each run of an operator
that binds tighter than ``level``, reading the run's operands at that
operator's own level.

Mixing ``@`` and ``->`` inside the same pair of parentheses is rejected
with a fix-it hint: the two chain operators pair in opposite directions,
so an unparenthesized mix has no reading that respects both.  The state
``naked`` records an ``@`` read inside the current parentheses; a ``(``
saves and clears it and its ``)`` restores it.  A run of ``->`` checks it
before its first arrow and after each right operand, and reports the
arrow before the operand.

One ``findall`` of a compiled regex splits the text into tokens: a
one-character operator or parenthesis, ``->``, a word (a run of ASCII
letters, digits and underscores), or any other non-space character, which
is an error.  Whitespace between tokens is skipped.  A word is ``0``, ``1``
or a name, which starts with a letter or underscore; any other word is an
error.  An operator's kind is its own text, so the parser reads the
token texts by index and takes a run of ``!`` in one loop.  A token is
checked where the parser first reads it, and a name only the first time
it is read.  Token positions are found only when the parse fails: the
error path runs the regex again, reports the first bad token if there is
one (so a token error wins over a grammar error, wherever it stands) and
otherwise the grammar error at its token's position.

The parser keeps one ``Var`` for each name and one ``Not`` for each name
written with a single ``!``, so ``!a & !a`` holds one ``Not(Var('a'))``
node twice.  Nesting is bounded: an atom may stand inside at most
``MAX_NESTING`` parentheses and ``!`` together, and the ``(`` or ``!`` that
crosses the bound is a ``ParseError``, so every tree ``parse`` returns is
shallow enough for the recursive walks over it.
"""

from __future__ import annotations

import re

from .errors import ParseError
from .expr import (
    BINARY_OPERATORS,
    FALSE,
    TRUE,
    Expr,
    IandChain,
    ImplyChain,
    Not,
    Var,
)

MAX_NESTING = 100  # parentheses and '!' around any one atom
_TOO_DEEP = f"nesting deeper than {MAX_NESTING} levels of '(' and '!'"

_MIX_HINT = (
    "cannot mix '@' and '->' at the same nesting level; "
    "add parentheses, e.g. (A @ B) -> C or A @ (B -> C)"
)

# Operators, then ASCII words, then any other non-space character (an
# error), so a letter such as ``\u00e9`` is an error at its own position.
# The whitespace that ``findall`` skips is ``str.isspace``, character for
# character, so a no-break space is a space.
_TOKEN_RE = re.compile(r"[!&@|()]|->|[A-Za-z0-9_]+|\S")
# a binary operator's level is its row in the table, counting the loosest
# as 1; any other token is at level 0 and ends every run
_BINDS = {text: i for i, (text, _) in enumerate(BINARY_OPERATORS, 1)}
_OPERATORS = frozenset(_BINDS).union("!()")
_DIGITS = "0123456789"
_NAME_START = frozenset(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_"
)
_EOF = ""  # the token after the last one; no token is empty


def _token_error(tok: str) -> str | None:
    """Why a token cannot stand in any expression, or ``None``."""
    if tok in _OPERATORS or tok[0] in _NAME_START or tok in ("0", "1"):
        return None
    if tok[0] in _DIGITS:
        return f"name cannot start with a digit: {tok!r}"
    if tok == "-":
        return "expected '->' after '-'"
    return f"unexpected character {tok[0]!r}"


class _Parser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.texts = _TOKEN_RE.findall(text)
        self.texts.append(_EOF)
        self.index = 0
        self.depth = 0  # parentheses and '!' around the current token
        self.naked = False  # an '@' was read inside the current parentheses
        # one node per atom: the constants and each name, and each negated
        self.atoms: dict[str, Expr] = {"0": FALSE, "1": TRUE}
        self.negated: dict[str, Not] = {}

    def error(self, message: str, index: int) -> ParseError:
        """The first bad token's error, or ``message`` at token ``index``."""
        position = len(self.text)
        for i, m in enumerate(_TOKEN_RE.finditer(self.text)):
            bad = _token_error(m[0])
            if bad is not None:
                return ParseError(bad, m.start())
            if i == index:
                position = m.start()
        return ParseError(message, position)

    def parse_binary(self, level: int) -> Expr:
        """An operand, then each run of an operator binding tighter than
        ``level``, its operands read at the operator's own level."""
        left = self.parse_not()
        texts = self.texts
        while True:
            op = texts[self.index]
            own = _BINDS.get(op, 0)
            if own <= level:
                return left
            _, node = BINARY_OPERATORS[own - 1]
            operands = [left]
            arrow = node is ImplyChain  # '@' already read may not meet '->'
            if arrow and self.naked:
                raise self.error(_MIX_HINT, self.index)
            while texts[self.index] == op:
                at = self.index
                self.index = at + 1
                operands.append(self.parse_binary(own))
                if arrow and self.naked:
                    raise self.error(_MIX_HINT, at)
            if node is IandChain:
                self.naked = True
            left = node(tuple(operands))

    def parse_not(self) -> Expr:
        """A run of ``!`` and the atom it negates."""
        texts = self.texts
        i = start = self.index
        while texts[i] == "!":
            i += 1
        self.index = i + 1
        tok = texts[i]
        outer = self.depth
        # the k-th token from ``start`` is at level outer + k + 1, so the
        # one that crosses the bound is k = MAX_NESTING - outer; a '(' at
        # the bound is found by the descent inside it, as k = -1
        depth = outer + i - start
        if depth > MAX_NESTING:
            raise self.error(_TOO_DEEP, start + MAX_NESTING - outer)
        if tok == "(":
            self.depth = depth + 1
            naked, self.naked = self.naked, False
            e = self.parse_binary(0)
            self.depth, self.naked = outer, naked
            closing = self.index
            if texts[closing] != ")":
                raise self.error("expected ')'", closing)
            self.index = closing + 1
        else:
            e = self.atoms.get(tok)
            if e is None:
                e = self.atoms[tok] = self.name(tok, i)
            if i > start:
                start += 1  # the innermost '!' is the atom's shared Not
                neg = self.negated.get(tok)
                if neg is None:
                    neg = self.negated[tok] = Not(e)
                e = neg
        for _ in range(i - start):
            e = Not(e)
        return e

    def name(self, tok: str, i: int) -> Var:
        """The ``Var`` of a name read for the first time."""
        if tok == ")":
            raise self.error("unmatched ')'", i)
        if tok == _EOF:
            raise self.error("unexpected end of input", i)
        if tok in _OPERATORS:
            raise self.error(f"unexpected token {tok!r}", i)
        bad = _token_error(tok)
        if bad is not None:
            raise self.error(bad, i)
        return Var(tok)


def parse(text: str) -> Expr:
    """Parse concrete syntax into an expression tree."""
    parser = _Parser(text)
    expr = parser.parse_binary(0)
    i = parser.index
    if parser.texts[i] != _EOF:
        raise parser.error(f"trailing input {parser.texts[i]!r}", i)
    return expr
