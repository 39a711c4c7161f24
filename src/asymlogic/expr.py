"""Expression trees for the asymmetric operators IAND and IMPLY.

IAND (written ``@``) is ``x AND NOT y``; IMPLY (written ``->``) is
``NOT x OR y``.  Neither is commutative or associative, so multi-operand
chains carry a fixed pairing direction as part of their structure:

* ``IandChain(x1, x2, x3)`` means ``(x1 @ x2) @ x3`` (pairs left to right),
* ``ImplyChain(x1, x2, x3)`` means ``x1 -> (x2 -> x3)`` (pairs right to left).

Only the associative side of a chain may be flattened: a nested IAND chain
in first position, or a nested IMPLY chain in last position.  Flattening
anywhere else would change the function computed.  The chain constructors
flatten that side themselves, so each chain has one tree: no IandChain
starts with an IandChain, and no ImplyChain ends with an ImplyChain.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from operator import is_not
from typing import Iterator, Sequence, Union

from .errors import ArityError

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

Path = tuple[int, ...]


def _check_name(name: object, where: str) -> None:
    """Raise ``ValueError`` for module ``where`` unless ``name`` is a name."""
    if not isinstance(name, str) or not _NAME_RE.match(name):
        raise ValueError(
            f"{where}: variable names are letters, digits and underscores, "
            f"not starting with a digit; got {name!r}"
        )


@dataclass(frozen=True)
class Const:
    value: int

    def __post_init__(self) -> None:
        # an int, not a bool or float, so it prints as the parser reads it
        if type(self.value) is not int or self.value not in (0, 1):
            raise ValueError(f"expr: constant must be 0 or 1, got {self.value!r}")

    def __repr__(self) -> str:
        return f"Const({self.value})"


@dataclass(frozen=True)
class Var:
    name: str

    def __post_init__(self) -> None:
        _check_name(self.name, "expr")

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
        vars(self)["children"] = tuple(self.children)
        if len(self.children) < 2:
            raise ArityError("expr: And requires at least two operands")

    def __repr__(self) -> str:
        return f"And{self.children!r}"


@dataclass(frozen=True)
class Or:
    children: tuple["Expr", ...]

    def __post_init__(self) -> None:
        vars(self)["children"] = tuple(self.children)
        if len(self.children) < 2:
            raise ArityError("expr: Or requires at least two operands")

    def __repr__(self) -> str:
        return f"Or{self.children!r}"


@dataclass(frozen=True)
class IandChain:
    operands: tuple["Expr", ...]

    def __post_init__(self) -> None:
        ops = tuple(self.operands)
        if len(ops) < 2:
            raise ArityError("expr: IandChain requires at least two operands")
        # (a @ b) @ c pairs as a @ b @ c; the leading chain is flat itself
        if type(ops[0]) is IandChain:
            ops = ops[0].operands + ops[1:]
        vars(self)["operands"] = ops

    def __repr__(self) -> str:
        return f"IandChain{self.operands!r}"


@dataclass(frozen=True)
class ImplyChain:
    operands: tuple["Expr", ...]

    def __post_init__(self) -> None:
        ops = tuple(self.operands)
        if len(ops) < 2:
            raise ArityError("expr: ImplyChain requires at least two operands")
        # a -> (b -> c) pairs as a -> b -> c; the last chain is flat itself
        if type(ops[-1]) is ImplyChain:
            ops = ops[:-1] + ops[-1].operands
        vars(self)["operands"] = ops

    def __repr__(self) -> str:
        return f"ImplyChain{self.operands!r}"


Expr = Union[Const, Var, Not, And, Or, IandChain, ImplyChain]

TRUE = Const(1)
FALSE = Const(0)


def iand_chain(operands: Sequence[Expr]) -> IandChain:
    """``IandChain(operands)``, which flattens a chain in first position."""
    return IandChain(tuple(operands))


def imply_chain(operands: Sequence[Expr]) -> ImplyChain:
    """``ImplyChain(operands)``, which flattens a chain in last position."""
    return ImplyChain(tuple(operands))


# The binary operators, loosest binding first: each row is the operator's
# text and its node type, whose constructor joins a run of its operands.
# The parser climbs this table and the printer reads its binding levels and
# separators from it; '!' binds tighter than every row.
BINARY_OPERATORS = (
    ("->", ImplyChain),
    ("|", Or),
    ("@", IandChain),
    ("&", And),
)


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

    A chain's constructor flattens its associative end, so a rewrite that
    puts a chain there gives the flat tree; the pairing never changes.
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
    _names(e, seen)
    return tuple(seen)


def _names(e: Expr, seen: dict[str, None]) -> None:
    # a module-level walk: a nested one would refer to itself through its
    # closure and leave a reference cycle behind on every call
    if isinstance(e, Var):
        seen.setdefault(e.name, None)
        return
    for c in children(e):
        _names(c, seen)


def negate(e: Expr) -> Expr:
    """The complement of ``e``, the one negation rule: ``Not(x)`` gives
    ``x``, a constant the other constant and any other node ``Not(e)``."""
    t = type(e)
    if t is Not:
        return e.child
    if t is Const:
        return FALSE if e.value else TRUE
    return Not(e)


def peel(e: Expr) -> Expr:
    """``e`` as ``normalize_not`` leaves its root: ``Not`` pairs collapsed
    and a negated constant folded.  Nothing below the root is read (so a
    chain keeps an operand ``normalize_not`` would splice into it), and a
    root with nothing to change comes back as the same object."""
    while type(e) is Not and type(e.child) in (Not, Const):
        e = negate(e.child)
    return e


def normalize_not(e: Expr) -> Expr:
    """Remove double negations and push Not through constants.

    A ``Not`` is its normalized child ``negate``d; no other structure
    changes, so chains and And/Or operand order are untouched.  A subtree
    with nothing to change is returned as the same object.
    """
    t = type(e)
    if t is Not:
        child = e.child
        inner = normalize_not(child)
        if inner is child and type(inner) not in (Not, Const):
            return e
        return negate(inner)
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


# Printing precedence from the table, loosest first: -> < | < @ < & < !
_LEVEL: dict[type, int] = {
    node: 10 * i for i, (_, node) in enumerate(BINARY_OPERATORS, 1)
}
_LEVEL.update({Not: 50, Var: 60, Const: 60})
# the operator between the children of each n-ary node
_SEPARATOR = {node: f" {text} " for text, node in BINARY_OPERATORS}


def format_expr(e: Expr) -> str:
    """Render an expression in the concrete grammar.

    Minimal parentheses, except that any chain deviating from its default
    pairing is fully parenthesized and an IAND chain used directly as an
    IMPLY operand is parenthesized (the grammar refuses bare mixing).
    ``parse(format_expr(e)) == e`` for every tree, since the chain
    constructors leave one tree per chain.
    """
    return _fmt(e, 0)


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
        text = _SEPARATOR[t].join(map(_fmt_imply_operand, e.operands))
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
