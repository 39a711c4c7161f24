"""Expression trees for the asymmetric operators IAND and IMPLY.

IAND (written ``@``) is ``x AND NOT y``; IMPLY (written ``->``) is
``NOT x OR y``.  Neither is commutative or associative, so multi-operand
chains carry a fixed pairing direction as part of their structure:

* ``IandChain(x1, x2, x3)`` means ``(x1 @ x2) @ x3`` (pairs left to right),
* ``ImplyChain(x1, x2, x3)`` means ``x1 -> (x2 -> x3)`` (pairs right to left).

Only the associative side of a chain may be flattened: a nested IAND chain
in first position, or a nested IMPLY chain in last position.  Flattening
anywhere else would change the function computed.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from operator import is_not
from typing import Iterator, Sequence, Union

from .errors import ArityError

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

Path = tuple[int, ...]


@dataclass(frozen=True)
class Const:
    value: int

    def __post_init__(self) -> None:
        if self.value not in (0, 1):
            raise ValueError(f"expr: constant must be 0 or 1, got {self.value!r}")

    def __repr__(self) -> str:
        return f"Const({self.value})"


@dataclass(frozen=True)
class Var:
    name: str

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not _NAME_RE.match(self.name):
            raise ValueError(
                f"expr: variable names are letters, digits and underscores, "
                f"not starting with a digit; got {self.name!r}"
            )

    def __repr__(self) -> str:
        return f"Var({self.name!r})"


@dataclass(frozen=True)
class Not:
    child: "Expr"

    def __repr__(self) -> str:
        return f"Not({self.child!r})"


@dataclass(frozen=True)
class And:
    children: tuple["Expr", ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "children", tuple(self.children))
        if len(self.children) < 2:
            raise ArityError("expr: And requires at least two operands")

    def __repr__(self) -> str:
        return f"And{self.children!r}"


@dataclass(frozen=True)
class Or:
    children: tuple["Expr", ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "children", tuple(self.children))
        if len(self.children) < 2:
            raise ArityError("expr: Or requires at least two operands")

    def __repr__(self) -> str:
        return f"Or{self.children!r}"


@dataclass(frozen=True)
class IandChain:
    operands: tuple["Expr", ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "operands", tuple(self.operands))
        if len(self.operands) < 2:
            raise ArityError("expr: IandChain requires at least two operands")

    def __repr__(self) -> str:
        return f"IandChain{self.operands!r}"


@dataclass(frozen=True)
class ImplyChain:
    operands: tuple["Expr", ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "operands", tuple(self.operands))
        if len(self.operands) < 2:
            raise ArityError("expr: ImplyChain requires at least two operands")

    def __repr__(self) -> str:
        return f"ImplyChain{self.operands!r}"


Expr = Union[Const, Var, Not, And, Or, IandChain, ImplyChain]

TRUE = Const(1)
FALSE = Const(0)


def iand_chain(operands: Sequence[Expr]) -> IandChain:
    """Build an IAND chain, flattening a nested chain in first position only.

    ``(a @ b) @ c @ d`` and ``a @ b @ c @ d`` are the same pairing, so a
    leading IandChain merges into the new chain.  Chains in later positions
    are kept nested: ``a @ (b @ c)`` is a genuinely different function.
    """
    ops = list(operands)
    if len(ops) < 2:
        raise ArityError("expr: iand_chain requires at least two operands")
    while isinstance(ops[0], IandChain):
        ops[0:1] = list(ops[0].operands)
    return IandChain(tuple(ops))


def imply_chain(operands: Sequence[Expr]) -> ImplyChain:
    """Build an IMPLY chain, flattening a nested chain in last position only.

    ``a -> b -> (c -> d)`` and ``a -> b -> c -> d`` are the same pairing, so
    a trailing ImplyChain merges.  Chains in earlier positions are kept
    nested: ``(a -> b) -> c`` is a different function.
    """
    ops = list(operands)
    if len(ops) < 2:
        raise ArityError("expr: imply_chain requires at least two operands")
    while isinstance(ops[-1], ImplyChain):
        ops[-1:] = list(ops[-1].operands)
    return ImplyChain(tuple(ops))


def children(e: Expr) -> tuple[Expr, ...]:
    """Immediate subexpressions of a node, in positional order."""
    t = type(e)
    if t is Var or t is Const:
        return ()
    if t is Not:
        return (e.child,)
    if t is IandChain or t is ImplyChain:
        return e.operands
    if t is And or t is Or:
        return e.children
    raise TypeError(f"expr: not an expression node: {e!r}")


def rebuild(e: Expr, kids: tuple[Expr, ...]) -> Expr:
    """Reconstruct a node of the same kind around new children.

    Structural edit only: chain constructors' flattening is deliberately
    not applied, so rewrites never silently change pairing.
    """
    t = type(e)
    if t is Var or t is Const:
        return e
    if t is Not:
        return Not(kids[0])
    if t is And or t is Or or t is IandChain or t is ImplyChain:
        return t(kids)
    raise TypeError(f"expr: not an expression node: {e!r}")


def variables(e: Expr) -> tuple[str, ...]:
    """Variable names in first-appearance (preorder) order."""
    seen: dict[str, None] = {}

    def walk(node: Expr) -> None:
        if isinstance(node, Var):
            seen.setdefault(node.name, None)
            return
        for c in children(node):
            walk(c)

    walk(e)
    return tuple(seen)


def normalize_not(e: Expr) -> Expr:
    """Remove double negations and push Not through constants.

    No other structure changes; in particular chains and And/Or operand
    order are untouched.  A subtree with nothing to change is returned as
    the same object, so a tree already in this form comes back unchanged.
    """
    t = type(e)
    if t is Not:
        child = e.child
        inner = normalize_not(child)
        if type(inner) is Not:
            return inner.child
        if type(inner) is Const:
            return Const(1 - inner.value)
        return e if inner is child else Not(inner)
    if t is Var or t is Const:
        return e
    kids = children(e)
    new = tuple(map(normalize_not, kids))
    return rebuild(e, new) if any(map(is_not, new, kids)) else e


def iter_subexpressions(e: Expr, _path: Path = ()) -> Iterator[tuple[Path, Expr]]:
    """Yield (path, node) pairs in preorder; paths are child-index tuples."""
    yield _path, e
    for i, c in enumerate(children(e)):
        yield from iter_subexpressions(c, _path + (i,))


def subexpr_at(e: Expr, path: Path) -> Expr:
    node = e
    for i in path:
        kids = children(node)
        if not 0 <= i < len(kids):
            raise NoPathError(path, e)
        node = kids[i]
    return node


class NoPathError(LookupError):
    def __init__(self, path: Path, e: Expr) -> None:
        super().__init__(f"expr: no subexpression at {path} in {e!r}")


def replace_at(e: Expr, path: Path, replacement: Expr) -> Expr:
    if not path:
        return replacement
    kids = list(children(e))
    i = path[0]
    if not 0 <= i < len(kids):
        raise NoPathError(path, e)
    kids[i] = replace_at(kids[i], path[1:], replacement)
    return rebuild(e, tuple(kids))


def literal_count(e: Expr) -> int:
    """Number of variable and constant leaves (the rewrite cost measure)."""
    if isinstance(e, (Const, Var)):
        return 1
    return sum(literal_count(c) for c in children(e))


def operator_count(e: Expr) -> int:
    """Number of operator nodes (Not, And, Or and both chains)."""
    if isinstance(e, (Const, Var)):
        return 0
    return 1 + sum(operator_count(c) for c in children(e))


# Printing precedence, loosest binding first.  These match the concrete
# grammar in parser.py: ! > & > @ > | > ->
_LEVEL: dict[type, int] = {
    ImplyChain: 10,
    Or: 20,
    IandChain: 30,
    And: 40,
    Not: 50,
    Var: 60,
    Const: 60,
}


def format_expr(e: Expr) -> str:
    """Render an expression in the concrete grammar.

    Minimal parentheses, except that any chain deviating from its default
    pairing is fully parenthesized and an IAND chain used directly as an
    IMPLY operand is parenthesized (the grammar refuses bare mixing).
    ``parse(format_expr(e)) == e`` for expressions built with the smart
    constructors and normalize_not.
    """
    return _fmt(e, 0)


# the operator between the children of each n-ary node but ImplyChain
_SEPARATOR: dict[type, str] = {Or: " | ", IandChain: " @ ", And: " & "}


def _fmt(e: Expr, min_level: int) -> str:
    t = type(e)
    level = _LEVEL[t]
    if t is Var:
        text = e.name
    elif t is Const:
        text = str(e.value)
    elif t is Not:
        text = "!" + _fmt(e.child, level)
    elif t is ImplyChain:
        text = " -> ".join(_fmt_imply_operand(c) for c in e.operands)
    else:
        text = _SEPARATOR[t].join(_fmt(c, level + 1) for c in children(e))
    if level < min_level:
        return f"({text})"
    return text


def _fmt_imply_operand(c: Expr) -> str:
    # '@' and '->' may not mix at one nesting level, so an operand that
    # would otherwise print a bare '@' (an IAND chain, possibly under a
    # bare OR) is parenthesized even though '@' binds tighter.
    if _prints_bare_iand(c):
        return f"({_fmt(c, 0)})"
    return _fmt(c, 11)


def _prints_bare_iand(c: Expr) -> bool:
    if isinstance(c, IandChain):
        return True
    if isinstance(c, Or):
        return any(isinstance(k, IandChain) for k in c.children)
    return False
