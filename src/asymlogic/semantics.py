"""Truth-table semantics, the equivalence oracle, and table-level duals.

Row convention: for a variable order ``(v1, ..., vn)``, row index ``r``
assigns ``vi`` the bit ``(n-1-i)`` of ``r``, so the first variable is the
most significant bit.  Row 0 is all zeros, row ``2**n - 1`` all ones.

A table is one int whose bit ``r`` is the function's value on row ``r``.
Expressions are evaluated once over whole variable columns (the bit-sliced
tables of ABC's ``Abc_Tt*`` routines): NOT is XOR with the all-ones mask,
AND and OR are ``&`` and ``|``, and a chain takes one complement, as
``x1 & NOT (x2 | ... | xn)`` for IAND and ``NOT (x1 & ... & x(n-1)) | xn``
for IMPLY.
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
        self._set(names, int(digits, 2))

    def _set(self, names: tuple[str, ...], mask: int) -> None:
        object.__setattr__(self, "variables", names)
        object.__setattr__(self, "mask", mask)

    @classmethod
    def from_mask(cls, names: Iterable[str], mask: int) -> "TruthTable":
        """The table whose row ``r`` is bit ``r`` of ``mask``."""
        names = _check_order(names)
        if mask < 0 or mask.bit_length() > 1 << len(names):
            raise ValueError(
                f"semantics: mask has bits beyond row {(1 << len(names)) - 1}"
            )
        t = cls.__new__(cls)
        t._set(names, mask)
        return t

    @classmethod
    def from_string(cls, names: tuple[str, ...], bits: str) -> "TruthTable":
        if bits.replace("0", "").replace("1", ""):
            raise ValueError("semantics: table string must contain only 0/1")
        names = _check_order(names)
        _check_row_count(names, len(bits))
        return cls.from_mask(names, int(bits[::-1], 2))

    @property
    def bits(self) -> tuple[int, ...]:
        return tuple(self.to_string().encode().translate(_DIGIT_BYTES))

    def to_string(self) -> str:
        return format(self.mask, f"0{1 << len(self.variables)}b")[::-1]

    def row_assignment(self, row: int) -> Assignment:
        return row_assignment(self.variables, row)


def _check_order(names: Iterable[str]) -> tuple[str, ...]:
    names = tuple(names)
    n = len(names)
    if n > MAX_TABLE_VARS:
        raise CapacityError(
            f"semantics: truth tables support at most {MAX_TABLE_VARS} "
            f"variables, got {n}"
        )
    if len(set(names)) != n:
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
    0 or 1, else ``EvaluationError``.
    """
    for name in variables(e):
        if assignment.get(name, 0) not in (0, 1):
            raise EvaluationError(
                f"semantics: variable {name!r} must be 0 or 1, "
                f"got {assignment[name]!r}"
            )
    return _eval(e, assignment, 1)


def _eval(e: Expr, env: dict[str, int], full: int) -> int:
    """Evaluate over bit-sliced values: ``env`` maps names to masks within
    ``full``, and the result is the mask of rows where ``e`` is true.

    Dispatches on the exact node type, leaves and chains first: they are
    the nodes of every two-level form the oracle checks."""
    t = type(e)
    if t is Var:
        try:
            return env[e.name]
        except KeyError:
            raise EvaluationError(
                f"semantics: unbound variable {e.name!r}"
            ) from None
    if t is Not:
        return full ^ _eval(e.child, env, full)
    if t is IandChain:
        ops = e.operands
        acc = _eval(ops[0], env, full)
        rest = 0
        for x in ops[1:]:
            rest |= _eval(x, env, full)
        return acc & (full ^ rest)
    if t is ImplyChain:
        ops = e.operands
        acc = _eval(ops[-1], env, full)
        rest = full
        for x in reversed(ops[:-1]):
            rest &= _eval(x, env, full)
        return acc | (full ^ rest)
    if t is And:
        acc = full
        for c in e.children:
            acc &= _eval(c, env, full)
        return acc
    if t is Or:
        acc = 0
        for c in e.children:
            acc |= _eval(c, env, full)
        return acc
    if t is Const:
        return full if e.value else 0
    raise EvaluationError(f"semantics: not an expression node: {e!r}")


def _table_masks(names: tuple[str, ...], *exprs: Expr) -> list[int]:
    full = (1 << (1 << len(names))) - 1
    env = dict(zip(names, columns(len(names))))
    return [_eval(e, env, full) for e in exprs]


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
    return TruthTable.from_mask(names, _table_masks(names, e)[0])


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
    order = _union_order(e1, e2)
    if len(order) > MAX_TABLE_VARS:
        raise CapacityError(
            f"semantics: equivalence supports at most {MAX_TABLE_VARS} "
            f"variables, got {len(order)}"
        )
    m1, m2 = _table_masks(order, e1, e2)
    diff = m1 ^ m2
    if not diff:
        return Verdict(True)
    return Verdict(False, row_assignment(order, lowest_row(diff)))


def check_oracle(result: Expr, want: Expr | TruthTable, what: str) -> None:
    """Raise ``AssertionError`` unless ``result`` computes ``want``.

    ``want`` is a table (``result`` is tabulated over its variable order)
    or an expression (both are compared over their unioned variables).
    The check runs at every optimisation level, ``python -O`` included, for
    every function up to ``MAX_TABLE_VARS`` variables; beyond the table cap
    there is nothing to compare against and it returns without checking.
    """
    if isinstance(want, TruthTable):
        ok = _table_masks(want.variables, result)[0] == want.mask
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
    cols = columns(n)
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
