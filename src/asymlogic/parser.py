"""Concrete syntax for expressions.

Grammar::

    binary := not ( op not )*    op: a row of expr.BINARY_OPERATORS
    not    := "!" not | atom
    atom   := "0" | "1" | name | "(" binary ")"

The binary operators are the rows of ``expr.BINARY_OPERATORS``, loosest
binding first: ``->``, ``|``, ``@``, ``&``.  A run of one operator is one
node, built by its row's node type, so ``a @ b @ c`` is one IAND chain
(pairing left to right) and ``a -> b -> c`` one IMPLY chain (pairing right
to left); a parenthesized chain at its run's associative end is spliced
in, as the chain constructors do.  One loop reads the token texts by
index, with no call per token: after each operand (a run of ``!`` and its
atom) it closes every open run that binds tighter than the next token,
then extends a run or opens one.  The open runs, and per open ``(`` its
``!`` count, the saved ``naked`` flag and the depth outside it, are on
explicit stacks.

Mixing ``@`` and ``->`` inside one pair of parentheses is rejected with a
fix-it hint, as the two chain operators pair in opposite directions.  A
run of ``->`` checks ``naked``, set once an ``@`` run closes inside the
current parentheses, before its first arrow and after each operand, and
reports the arrow before the operand.

The tokens are the pieces of one ``str.split()``, after each operator,
parenthesis and ``->`` is padded with spaces by ``str.replace``.  So a
token is one of those, or a run of other non-space characters, which is
``0``, ``1``, a name (an ASCII letter or underscore, then ASCII letters,
digits and underscores) or an error.  A token not yet read as an atom is
checked to be a name once, by one regex ``fullmatch``, when the parser
first meets it; as a run has two operands or more, nodes are built by
``object.__new__``, without the constructors' checks.  Positions are found
only when the parse fails: the error path splits the text again by the
regex ``_TOKEN_RE``, where every other non-space character is a token of
its own, reports the first bad token if there is one (so a token error
wins over a grammar error, wherever it stands) and otherwise the grammar
error at its token's position.  The two splits give the same tokens
wherever the text has no bad token, and where it has one the parse fails
and reports it.

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

# The error path's tokens: operators, then ASCII words, then any other
# non-space character (an error), so a letter such as ``\u00e9`` is an
# error at its own position.  The whitespace that ``finditer`` skips is
# ``str.isspace``, character for character, as for ``str.split``, so a
# no-break space is a space.
_TOKEN_RE = re.compile(r"[!&@|()]|->|[A-Za-z0-9_]+|\S")
_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*").fullmatch
# a binary operator's level is its row in the table, counting the loosest
# as 1; any other token is at level 0 and ends every run
_BINDS = {text: i for i, (text, _) in enumerate(BINARY_OPERATORS, 1)}
# each level's node type and the field its operands go in
_NODES = [None] + [(node, "operands" if node in (IandChain, ImplyChain)
                    else "children") for _, node in BINARY_OPERATORS]
_ARROW = _BINDS["->"]
_OPERATORS = frozenset(_BINDS).union("!()")
_NAME_START = frozenset("_ABCDEFGHIJKLMNOPQRSTUVWXYZ"
                        "abcdefghijklmnopqrstuvwxyz")
_EOF = ""  # the token after the last one; no token is empty
_NO_ATOM = {")": "unmatched ')'", _EOF: "unexpected end of input"}
_new = object.__new__


def _token_error(tok: str) -> str | None:
    """Why a token cannot stand in any expression, or ``None``."""
    if tok in _OPERATORS or tok[0] in _NAME_START or tok in ("0", "1"):
        return None
    if tok[0] in "0123456789":
        return f"name cannot start with a digit: {tok!r}"
    if tok == "-":
        return "expected '->' after '-'"
    return f"unexpected character {tok[0]!r}"


def _error(text: str, message: str, index: int) -> ParseError:
    """The first bad token's error, or ``message`` at token ``index``."""
    position = len(text)
    for i, m in enumerate(_TOKEN_RE.finditer(text)):
        bad = _token_error(m[0])
        if bad is not None:
            return ParseError(bad, m.start())
        if i == index:
            position = m.start()
    return ParseError(message, position)


def parse(text: str) -> Expr:
    """Parse concrete syntax into an expression tree."""
    texts = (text.replace("->", " -> ").replace("(", " ( ")
             .replace(")", " ) ").replace("!", " ! ").replace("&", " & ")
             .replace("@", " @ ").replace("|", " | ").split())
    texts.append(_EOF)
    binds = _BINDS.get
    # one node per atom: the constants and each name, and each negated
    atoms: dict[str, Expr] = {"0": FALSE, "1": TRUE}
    negated: dict[str, Not] = {}
    i = depth = 0  # depth: parentheses and '!' around the current group
    naked = False  # an '@' run closed inside the current parentheses
    # the open run: its level (0 for none), its last operator's index and
    # its operands; the runs below it and outside each '(' are on ``runs``
    top, at, ops = 0, 0, []
    runs: list[tuple[int, int, list[Expr]]] = []
    parens: list[tuple[int, bool, int]] = []  # '!' count, naked, depth
    while True:
        tok = texts[i]
        e = atoms.get(tok)
        if e is None:
            start = i
            while tok == "!":
                i += 1
                tok = texts[i]
            bangs = i - start
            # the k-th token from ``start`` is at level depth + k + 1, so
            # the one that crosses the bound is k = MAX_NESTING - depth
            if depth + bangs > MAX_NESTING:
                raise _error(text, _TOO_DEEP, start + MAX_NESTING - depth)
            if tok == "(":
                parens.append((bangs, naked, depth))
                runs.append((top, at, ops))
                top, naked, depth = 0, False, depth + bangs + 1
                if depth > MAX_NESTING:  # no atom fits inside
                    raise _error(text, _TOO_DEEP, i)
                i += 1
                continue
            e = atoms.get(tok)
            if e is None:
                if not _NAME(tok):  # a bad token, or holds one: see _error
                    message = _NO_ATOM.get(tok, f"unexpected token {tok!r}")
                    raise _error(text, message, i)
                e = atoms[tok] = _new(Var)
                e.__dict__["name"] = tok
            if bangs:  # the innermost '!' is the atom's shared Not
                e = negated.get(tok) or negated.setdefault(tok, Not(e))
                while bangs > 1:
                    e = Not(e)
                    bangs -= 1
        i += 1
        # close each run that binds tighter than the next token, then
        # extend a run or open one
        while True:
            tok = texts[i]
            level = binds(tok, 0)
            if level >= top and level:
                if naked and level == _ARROW:  # an '@' run closed before it
                    raise _error(text, _MIX_HINT, at if level == top else i)
                if level == top:
                    ops.append(e)
                    at = i
                else:
                    runs.append((top, at, ops))
                    top, at, ops = level, i, [e]
                break
            if not top:  # the group ends
                if not parens:
                    if tok != _EOF:
                        raise _error(text, f"trailing input {tok!r}", i)
                    return e
                if tok != ")":
                    raise _error(text, "expected ')'", i)
                bangs, naked, depth = parens.pop()
                top, at, ops = runs.pop()
                i += 1
                for _ in range(bangs):
                    e = Not(e)
                continue
            if naked and top == _ARROW:  # an '@' run closed in the operand
                raise _error(text, _MIX_HINT, at)
            ops.append(e)
            node, field = _NODES[top]
            if node is IandChain and type(ops[0]) is IandChain:
                ops[:1] = ops[0].operands
            elif node is ImplyChain and type(ops[-1]) is ImplyChain:
                ops[-1:] = ops[-1].operands
            e = _new(node)
            e.__dict__[field] = tuple(ops)
            naked |= node is IandChain
            top, at, ops = runs.pop()
        i += 1
