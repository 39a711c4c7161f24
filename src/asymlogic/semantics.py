"""Truth-table semantics, the equivalence oracle, and table-level duals.

Row convention: for a variable order ``(v1, ..., vn)``, row index ``r``
assigns ``vi`` the bit ``(n-1-i)`` of ``r``, so the first variable is the
most significant bit.  Row 0 is all zeros, row ``2**n - 1`` all ones.

A table is one int whose bit ``r`` is the function's value on row ``r``.
Expressions are evaluated once over whole variable columns (the bit-sliced
tables of ABC's ``Abc_Tt*`` routines): NOT is XOR with the all-ones mask,
AND and OR are ``&`` and ``|``, and a chain takes one complement, as
``x1 & NOT (x2 | ... | xn)`` for IAND and ``NOT (x1 & ... & x(n-1)) | xn``
for IMPLY.  The columns of an ``n``-variable table, their complements and
the all-ones mask are its rails (``_rails``): built once per width and kept
up to 16 variables, they are what the oracle, the minimizer and both
compilers' replays start from, and a negated name reads its complement
from them; a wider table's rails hold no complements.  A table, and so
every compiled program and netlist, has at most ``MAX_TABLE_VARS`` names
(``_check_count``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import CapacityError, EvaluationError
from .expr import (
    And,
    Const,
    Expr,
    IandChain,
    ImplyChain,
    Not,
    Or,
    Var,
    _check_name,
    variables,
)

MAX_TABLE_VARS = 24

Assignment = dict[str, int]

_DIGIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


@dataclass(frozen=True, init=False)
class TruthTable:
    """A complete function table over an explicit variable order.

    ``mask`` holds row ``r`` in bit ``r``; ``bits`` is the same table as a
    tuple of 0/1 values, one per row.
    """

    variables: tuple[str, ...]
    mask: int

    def __init__(self, variables: Iterable[str], bits: Iterable[int]) -> None:
        names = _check_order(variables)
        bits = tuple(bits)
        _check_row_count(names, len(bits))
        if not all(b in (0, 1) for b in bits):
            raise ValueError("semantics: table bits must be 0 or 1")
        digits = "".join("1" if b else "0" for b in reversed(bits))
        vars(self).update(variables=names, mask=int(digits, 2))

    @classmethod
    def _of(cls, names: tuple[str, ...], mask: int) -> "TruthTable":
        """The table over checked ``names`` with a mask in range."""
        t = object.__new__(cls)
        vars(t).update(variables=names, mask=mask)
        return t

    @classmethod
    def from_mask(cls, names: Iterable[str], mask: int) -> "TruthTable":
        """The table whose row ``r`` is bit ``r`` of ``mask``."""
        names = _check_order(names)
        if mask < 0 or mask.bit_length() > 1 << len(names):
            raise ValueError(
                f"semantics: mask has bits beyond row {(1 << len(names)) - 1}"
            )
        return cls._of(names, mask)

    @classmethod
    def from_string(cls, names: tuple[str, ...], bits: str) -> "TruthTable":
        if bits.replace("0", "").replace("1", ""):
            raise ValueError("semantics: table string must contain only 0/1")
        names = _check_order(names)
        _check_row_count(names, len(bits))
        return cls._of(names, int(bits[::-1], 2))

    @property
    def bits(self) -> tuple[int, ...]:
        return tuple(self.to_string().encode().translate(_DIGIT_BYTES))

    def to_string(self) -> str:
        return format(self.mask, f"0{1 << len(self.variables)}b")[::-1]

    def row_assignment(self, row: int) -> Assignment:
        return row_assignment(self.variables, row)


def _check_count(n: int) -> None:
    """Raise ``CapacityError`` for more than ``MAX_TABLE_VARS`` names."""
    if n > MAX_TABLE_VARS:
        raise CapacityError(
            f"semantics: truth tables support at most {MAX_TABLE_VARS} "
            f"variables, got {n}"
        )


def _check_order(names: Iterable[str]) -> tuple[str, ...]:
    """``names`` as a tuple: at most ``MAX_TABLE_VARS`` of them, each a
    name, none repeated."""
    names = tuple(names)
    _check_count(len(names))
    for name in names:
        _check_name(name, "semantics")
    if len(set(names)) != len(names):
        raise ValueError("semantics: duplicate variable in table order")
    return names


def _check_row_count(names: tuple[str, ...], rows: int) -> None:
    if rows != 1 << len(names):
        raise ValueError(
            f"semantics: expected {1 << len(names)} rows for "
            f"{len(names)} variables, got {rows}"
        )


def row_assignment(names: tuple[str, ...], row: int) -> Assignment:
    n = len(names)
    if not 0 <= row < 1 << n:
        raise ValueError(f"semantics: row {row} is outside [0, 2**{n})")
    return {name: (row >> (n - 1 - i)) & 1 for i, name in enumerate(names)}


def columns(n: int) -> list[int]:
    """Row masks of the ``n`` variables in table order (first is the MSB).

    Built by doubling one period of each column: division of the all-ones
    mask, the other textbook route, is quadratic on CPython's long ints.
    """
    size = 1 << n
    out = []
    for k in range(n - 1, -1, -1):
        w = 1 << k
        col = ((1 << w) - 1) << w
        span = 2 * w
        while span < size:
            col |= col << span
            span *= 2
        out.append(col)
    return out


# each width's rails, filled on first use: an entry is immutable once made,
# so every caller may share it
_RAILS: dict[int, tuple[tuple[int, ...], tuple[int, ...], int]] = {}
_RAILS_KEPT = 16  # the widest table whose rails stay cached


def _rails(n: int) -> tuple[tuple[int, ...], tuple[int, ...] | None, int]:
    """``(columns, complements, full)`` of an ``n``-variable table: each
    variable's row mask, its complement within ``full``, and the all-ones
    mask.  Kept after the first call for ``n <= 16``, about 0.5 MiB over
    all such ``n``.  A wider table's columns (0.25 MiB at 17 variables,
    48 MiB at 24) are built per call and freed with it, and its
    complements are None: a reader XORs those it needs."""
    rails = _RAILS.get(n)
    if rails is None:
        cols = tuple(columns(n))
        full = (1 << (1 << n)) - 1
        if n > _RAILS_KEPT:
            return cols, None, full
        rails = _RAILS[n] = cols, tuple([full ^ c for c in cols]), full
    return rails


def rows_of(mask: int) -> list[int]:
    """Indices of the set bits of ``mask``, ascending."""
    return [r for r, c in enumerate(format(mask, "b")[::-1]) if c == "1"]


def lowest_row(mask: int) -> int:
    """Index of the lowest set bit of a nonzero ``mask``."""
    return (mask & -mask).bit_length() - 1


def evaluate(e: Expr, assignment: Assignment) -> int:
    """Evaluate an expression to 0 or 1 under a total assignment.

    IAND chains fold left with ``acc AND NOT x``; IMPLY chains fold right
    with ``NOT x OR acc``.  A variable the expression reads must be bound to
    an int 0 or 1 (a bool counts), else ``EvaluationError``.
    """
    env = {name: _bit(assignment, name, "semantics")  # _eval names the unbound
           for name in variables(e) if name in assignment}
    return _eval(e, env, {name: 1 ^ bit for name, bit in env.items()}, 1)


def _bit(assignment: Assignment, name: str, who: str) -> int:
    """``assignment[name]`` as an int 0 or 1 (a bool counts as an int)."""
    if name not in assignment:
        raise EvaluationError(f"{who}: unbound input {name!r}")
    bit = assignment[name]
    if type(bit) is not int and isinstance(bit, int):
        bit = int(bit)  # a bool is stored as the int it equals
    if type(bit) is not int or bit not in (0, 1):
        raise EvaluationError(f"{who}: {name!r} must be 0 or 1, got {bit!r}")
    return bit


def _eval(
    e: Expr, env: dict[str, int], neg: dict[str, int], full: int
) -> int:
    """Evaluate over bit-sliced values: ``env`` maps names to masks within
    ``full`` and ``neg`` maps them to their complements, and the result is
    the mask of rows where ``e`` is true.

    Dispatches on the exact node type, leaves and chains first: they are
    the nodes of every two-level form the oracle checks.  A negated name,
    about half the leaves of a two-level form, reads its complement from
    ``neg`` instead of taking one."""
    t = type(e)
    if t is Var:
        try:
            return env[e.name]
        except KeyError:
            raise EvaluationError(
                f"semantics: unbound variable {e.name!r}"
            ) from None
    if t is Not:
        c = e.child
        if type(c) is Var:
            try:
                return neg[c.name]
            except KeyError:
                pass  # unbound: the Var arm names it
        return full ^ _eval(c, env, neg, full)
    if t is IandChain:
        ops = e.operands
        acc = _eval(ops[0], env, neg, full)
        rest = 0
        for x in ops[1:]:
            rest |= _eval(x, env, neg, full)
        return acc & (full ^ rest)
    if t is ImplyChain:
        ops = e.operands
        acc = _eval(ops[-1], env, neg, full)
        rest = full
        for x in reversed(ops[:-1]):
            rest &= _eval(x, env, neg, full)
        return acc | (full ^ rest)
    if t is And:
        acc = full
        for c in e.children:
            acc &= _eval(c, env, neg, full)
        return acc
    if t is Or:
        acc = 0
        for c in e.children:
            acc |= _eval(c, env, neg, full)
        return acc
    if t is Const:
        return full if e.value else 0
    raise EvaluationError(f"semantics: not an expression node: {e!r}")


def _table_masks(names: tuple[str, ...], *exprs: Expr) -> list[int]:
    cols, comps, full = _rails(len(names))
    env, neg = dict(zip(names, cols)), dict(zip(names, comps or ()))
    return [_eval(e, env, neg, full) for e in exprs]


def _union_order(e1: Expr, e2: Expr) -> tuple[str, ...]:
    return tuple(dict.fromkeys(variables(e1) + variables(e2)))


def truth_table(e: Expr, names: tuple[str, ...] | None = None) -> TruthTable:
    """Tabulate an expression, defaulting to first-appearance variable order."""
    if names is None:
        names = variables(e)
    else:
        names = tuple(names)
        missing = set(variables(e)) - set(names)
        if missing:
            raise EvaluationError(
                f"semantics: variable order omits {sorted(missing)}"
            )
    names = _check_order(names)
    return TruthTable._of(names, _table_masks(names, e)[0])


@dataclass(frozen=True)
class Verdict:
    """Result of an equivalence check; falsy when a counterexample exists."""

    equal: bool
    counterexample: Assignment | None = None

    def __bool__(self) -> bool:
        return self.equal


def equivalent(e1: Expr, e2: Expr) -> Verdict:
    """Exhaustively compare two expressions over their unioned variables.

    The variable order is first appearance in ``e1`` then ``e2``; the
    counterexample, if any, is the lowest-index differing row.
    """
    order = _check_order(_union_order(e1, e2))
    m1, m2 = _table_masks(order, e1, e2)
    diff = m1 ^ m2
    if not diff:
        return Verdict(True)
    return Verdict(False, row_assignment(order, lowest_row(diff)))


def check_oracle(
    result: Expr | TruthTable, want: Expr | TruthTable, what: str
) -> None:
    """Raise ``AssertionError`` unless ``result`` computes ``want``.

    ``want`` is a table (a table ``result`` must equal it, an expression is
    tabulated over its variable order) or an expression (both are compared
    over their unioned variables).  The check runs at every optimisation
    level, ``python -O`` included, for every function up to
    ``MAX_TABLE_VARS`` variables; beyond the table cap there is nothing to
    compare against and it returns without checking.  An object computes
    its own function, so ``check_oracle(x, x, ...)`` returns at once, as it
    does for a ``simplify`` that takes no step.
    """
    if result is want:
        return
    if isinstance(want, TruthTable):
        ok = (result == want if isinstance(result, TruthTable)
              else _table_masks(want.variables, result)[0] == want.mask)
    else:
        order = _union_order(result, want)
        if len(order) > MAX_TABLE_VARS:
            return
        m1, m2 = _table_masks(order, result, want)
        ok = m1 == m2
    if not ok:
        raise AssertionError(f"{what}: result does not match its truth table")


def classical_dual_tt(t: TruthTable) -> TruthTable:
    """Classical dual: complement the output on the complemented input row.

    ``dual(f)(a1..an) = NOT f(NOT a1, ..., NOT an)``.  An involution.
    """
    return TruthTable.from_mask(t.variables, _complement_rows(t))


def demorgan_dual_tt(t: TruthTable) -> TruthTable:
    """Operand-reversing dual: complement inputs and reverse their order.

    ``dual(f)(a1..an) = NOT f(NOT an, ..., NOT a1)``.  An involution; it maps
    the table of an IAND chain to the table of the IMPLY chain over the same
    operand list, and back.
    """
    n = len(t.variables)
    mask = _complement_rows(t)
    cols = _rails(n)[0]
    # swap variable i with variable n-1-i: move each row whose bit for i
    # is set and whose bit for n-1-i is clear onto its mirror row, and back
    for i in range(n // 2):
        j = n - 1 - i
        shift = (1 << (n - 1 - i)) - (1 << i)
        low = cols[j] & ~cols[i]
        high = low << shift
        mask = (
            (mask & ~(low | high))
            | ((mask & low) << shift)
            | ((mask & high) >> shift)
        )
    return TruthTable.from_mask(t.variables, mask)


def _complement_rows(t: TruthTable) -> int:
    """Mask of ``NOT f(NOT x)``: row ``r`` takes the complement of row
    ``2**n - 1 - r``, which reverses the mask's row order."""
    size = 1 << len(t.variables)
    reflected = int(format(t.mask, f"0{size}b")[::-1], 2)
    return ((1 << size) - 1) ^ reflected
