"""Canonical normal forms for the asymmetric logic sets.

Disjunctive forms: SOI (OR of IAND chains) and NOI (NAND of IMPLY chains),
both driven by the ON-set of a truth table.  Conjunctive forms: IOS (IAND
of sums) and ION (IMPLY of NANDs), which chain semantics restrict to
functions with exactly one ON row / one OFF row respectively; outside that
domain they return an ``Unsupported`` value rather than raising.

Term encodings, for a minterm with literals ``l1 .. lk`` in table order:

* SOI term: ``IandChain(l1, !l2, ..., !lk)``: first literal as written,
  the rest complemented, because the chain evaluates ``l1 AND NOT(!l2)...``.
* NOI term: ``ImplyChain(l1, ..., l_{k-1}, !lk)``: only the last literal
  complemented, so the term's negation is exactly the minterm product.

Terms are ordered by ascending minterm index.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ShapeError
from .expr import (
    And,
    Const,
    Expr,
    IandChain,
    ImplyChain,
    Not,
    Or,
    Var,
    normalize_not,
)
from .semantics import TruthTable, check_oracle, lowest_row, rows_of


@dataclass(frozen=True)
class Unsupported:
    """A requested form that does not exist for the given function."""

    reason: str


Literal = Expr  # a Var or a Not(Var)


def _complement(lit: Expr) -> Expr:
    match lit:
        case Var():
            return Not(lit)
        case Not(Var() as v):
            return v
    raise ShapeError(f"canon: expected a literal, got {type(lit).__name__}")


def _is_literal(e: Expr) -> bool:
    return isinstance(e, Var) or (
        isinstance(e, Not) and isinstance(e.child, Var)
    )


def _minterm_literals(names: tuple[str, ...], row: int) -> tuple[Expr, ...]:
    n = len(names)
    return tuple(
        Var(name) if (row >> (n - 1 - i)) & 1 else Not(Var(name))
        for i, name in enumerate(names)
    )


def soi_term(literals: tuple[Expr, ...]) -> Expr:
    """IAND chain equal to the product of the given literals."""
    if not literals:
        return Const(1)
    if len(literals) == 1:
        return literals[0]
    return IandChain(
        (literals[0], *(_complement(x) for x in literals[1:]))
    )


def noi_term(literals: tuple[Expr, ...]) -> Expr:
    """IMPLY chain whose negation is the product of the given literals."""
    if not literals:
        return Const(0)
    if len(literals) == 1:
        return _complement(literals[0])
    return ImplyChain((*literals[:-1], _complement(literals[-1])))


def _require_vars(t: TruthTable, what: str) -> None:
    if not t.variables:
        raise ShapeError(f"canon: {what} needs a table with >= 1 variable")


def soi_from_tt(t: TruthTable) -> Expr:
    """Canonical OR-of-IAND-chains for a truth table."""
    _require_vars(t, "soi_from_tt")
    terms = [
        soi_term(_minterm_literals(t.variables, r)) for r in rows_of(t.mask)
    ]
    result: Expr
    if not terms:
        result = Const(0)
    elif len(terms) == 1:
        result = terms[0]
    else:
        result = Or(tuple(terms))
    check_oracle(result, t, "canon")
    return result


def noi_from_tt(t: TruthTable) -> Expr:
    """Canonical NAND-of-IMPLY-chains for a truth table."""
    _require_vars(t, "noi_from_tt")
    terms = [
        noi_term(_minterm_literals(t.variables, r)) for r in rows_of(t.mask)
    ]
    result: Expr
    if not terms:
        result = Const(0)
    elif len(terms) == 1:
        result = normalize_not(Not(terms[0]))
    else:
        result = Not(And(tuple(terms)))
    check_oracle(result, t, "canon")
    return result


def _soi_terms(e: Expr) -> tuple[Expr, ...]:
    match e:
        case Const():
            return (e,)
        case Or(kids):
            terms = kids
        case _:
            terms = (e,)
    for term in terms:
        match term:
            case IandChain(ops):
                if not all(_is_literal(x) for x in ops):
                    raise ShapeError(
                        "canon: SOI terms must be IAND chains of literals"
                    )
            case _ if _is_literal(term):
                pass
            case _:
                raise ShapeError(
                    "canon: not an SOI expression (OR of IAND chains "
                    f"or literals): offending term {type(term).__name__}"
                )
    return terms


def _noi_terms(e: Expr) -> tuple[Expr, ...]:
    match e:
        case Const():
            return (e,)
        case _ if _is_literal(e):
            # a one-minterm NOI over one variable normalizes to a literal
            return (_complement(e),)
        case Not(And(kids)):
            terms = kids
        case Not(child):
            terms = (child,)
        case _:
            raise ShapeError(
                "canon: not a NOI expression (negated AND of IMPLY chains "
                f"or literals): got {type(e).__name__}"
            )
    for term in terms:
        match term:
            case ImplyChain(ops):
                if not all(_is_literal(x) for x in ops):
                    raise ShapeError(
                        "canon: NOI terms must be IMPLY chains of literals"
                    )
            case _ if _is_literal(term):
                pass
            case _:
                raise ShapeError(
                    "canon: NOI terms must be IMPLY chains or literals, "
                    f"got {type(term).__name__}"
                )
    return terms


def soi_to_noi(e: Expr) -> Expr:
    """Term-by-term conversion: NOT(IandChain(x1..xk)) = ImplyChain(!xk..!x1)."""
    terms = _soi_terms(normalize_not(e))
    if len(terms) == 1 and isinstance(terms[0], Const):
        return terms[0]
    converted = []
    for term in terms:
        match term:
            case IandChain(ops):
                converted.append(
                    ImplyChain(tuple(_complement(x) for x in reversed(ops)))
                )
            case _:
                converted.append(_complement(term))
    if len(converted) == 1:
        result = normalize_not(Not(converted[0]))
    else:
        result = Not(And(tuple(converted)))
    check_oracle(result, e, "canon")
    return result


def noi_to_soi(e: Expr) -> Expr:
    """Term-by-term conversion: NOT(ImplyChain(y1..yk)) = IandChain(!yk..!y1)."""
    terms = _noi_terms(normalize_not(e))
    if len(terms) == 1 and isinstance(terms[0], Const):
        return terms[0]
    converted = []
    for term in terms:
        match term:
            case ImplyChain(ops):
                converted.append(
                    IandChain(tuple(_complement(x) for x in reversed(ops)))
                )
            case _:
                converted.append(_complement(term))
    result = converted[0] if len(converted) == 1 else Or(tuple(converted))
    check_oracle(result, e, "canon")
    return result


def _maxterm_sum(names: tuple[str, ...], row: int) -> Expr:
    """Full-support sum that is false exactly at ``row``."""
    n = len(names)
    lits = tuple(
        Not(Var(name)) if (row >> (n - 1 - i)) & 1 else Var(name)
        for i, name in enumerate(names)
    )
    return lits[0] if len(lits) == 1 else Or(lits)


def _minterm_nand(names: tuple[str, ...], row: int) -> Expr:
    """Negated full-support product that is false exactly at ``row``."""
    lits = _minterm_literals(names, row)
    body = lits[0] if len(lits) == 1 else And(lits)
    return normalize_not(Not(body))


def ios_from_tt(t: TruthTable) -> Expr | Unsupported:
    """IAND of sums; representable exactly when the ON-set is one row.

    ``S1 @ S2`` evaluates to ``S1 AND NOT S2``, so with full-support sums the
    result is true on exactly one row: S2 is the sum false only at that row
    and S1 any sum false elsewhere (the lowest-index OFF row is used).
    """
    _require_vars(t, "ios_from_tt")
    ons = t.mask.bit_count()
    if ons != 1:
        return Unsupported(
            "an IAND of full-support sums denotes a single-ON-row function; "
            f"this table has {ons} ON rows"
        )
    p = t.mask.bit_length() - 1
    off = lowest_row(~t.mask)
    result = IandChain(
        (_maxterm_sum(t.variables, off), _maxterm_sum(t.variables, p))
    )
    check_oracle(result, t, "canon")
    return result


def ion_from_tt(t: TruthTable) -> Expr | Unsupported:
    """IMPLY of minterm-NANDs; representable exactly when the OFF-set is one
    row, plus the constant-1 table via the tautology ``N -> N``.

    ``N1 -> N2`` is ``NOT N1 OR N2``; with full-support NAND operands that
    is false on exactly one row.  N1 is built from the highest-index ON row
    and N2 from the single OFF row.
    """
    _require_vars(t, "ion_from_tt")
    top = (1 << len(t.variables)) - 1
    offs = ((1 << (top + 1)) - 1) ^ t.mask
    if not offs:
        nand = _minterm_nand(t.variables, top)
        result = ImplyChain((nand, nand))
        check_oracle(result, t, "canon")
        return result
    if offs.bit_count() != 1:
        return Unsupported(
            "an IMPLY of full-support minterm-NANDs denotes a function with "
            f"at most one OFF row; this table has {offs.bit_count()} OFF rows"
        )
    p = offs.bit_length() - 1
    n1 = _minterm_nand(t.variables, t.mask.bit_length() - 1)
    n2 = _minterm_nand(t.variables, p)
    result = ImplyChain((n1, n2))
    check_oracle(result, t, "canon")
    return result

