"""Canonical normal forms for the asymmetric logic sets.

Disjunctive forms: SOI (OR of IAND chains) and NOI (NAND of IMPLY chains),
both driven by the ON-set of a truth table.  Conjunctive forms: IOS (IAND
of sums) and ION (IMPLY of NANDs), which chain semantics restrict to
functions with exactly one ON row / one OFF row respectively; outside that
domain they return an ``Unsupported`` value rather than raising.

Two-level forms.  SOI and NOI are two spellings of one sum of products,
held as a tuple of products, each a tuple of literals (``()`` is 0, a form
holding the empty product is 1).  ``soi_products`` / ``noi_products`` read
an expression into that form and ``soi_form`` / ``noi_form`` write it back;
a product ``l1 .. lk`` is written

* as an SOI term ``IandChain(l1, !l2, ..., !lk)``: the head as written, the
  rest complemented, because the chain evaluates ``l1 AND NOT(!l2)...``;
* as a NOI term ``ImplyChain(l1, ..., l_{k-1}, !lk)``: only the last
  literal complemented, so the term's negation is exactly the product.

A one-literal product is the bare literal (SOI) or its complement (NOI).
By the conversion theorem ``NOT(x1 @ ... @ xk) = !xk -> ... -> !x1``,
converting between the forms reverses each product.  Readers fold constant
operands with the chain identity laws: a literal that is 1 drops out, a 0
drops its product, and the empty product makes the whole form 1.

Canonical terms are ordered by ascending minterm index.
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


Product = tuple[Expr, ...]  # literals: each a Var or a Not(Var)


def complement(x: Expr) -> Expr:
    """The complement of a literal, or of a constant while folding."""
    t = type(x)
    if t is Var:
        return Not(x)
    if t is Not and type(x.child) is Var:
        return x.child
    if t is Const:
        return Const(1 - x.value)
    raise ShapeError(f"canon: expected a literal, got {t.__name__}")


def literals(names: tuple[str, ...], value: int, care: int) -> Product:
    """A cube's literals: each of ``names`` (the first is the MSB) whose
    ``care`` bit is set, complemented where its ``value`` bit is clear.
    A minterm cares for every variable: ``care = -1``."""
    n = len(names)
    return tuple(
        Var(name) if value >> (n - 1 - i) & 1 else Not(Var(name))
        for i, name in enumerate(names) if care >> (n - 1 - i) & 1
    )


def soi_term(literals: Product) -> Expr:
    """IAND chain equal to the product of the given literals."""
    if not literals:
        return Const(1)
    if len(literals) == 1:
        return literals[0]
    return IandChain((literals[0], *map(complement, literals[1:])))


def noi_term(literals: Product) -> Expr:
    """IMPLY chain whose negation is the product of the given literals."""
    if not literals:
        return Const(0)
    if len(literals) == 1:
        return complement(literals[0])
    return ImplyChain((*literals[:-1], complement(literals[-1])))


def soi_form(products: tuple[Product, ...]) -> Expr:
    """OR of IAND chains for a sum of products."""
    if not products:
        return Const(0)
    terms = tuple(map(soi_term, products))
    return terms[0] if len(terms) == 1 else Or(terms)


def noi_form(products: tuple[Product, ...]) -> Expr:
    """NAND of IMPLY chains for a sum of products."""
    if not products:
        return Const(0)
    terms = tuple(map(noi_term, products))
    return normalize_not(Not(terms[0])) if len(terms) == 1 else Not(And(terms))


_SOI_SHAPE = "an SOI expression (OR of IAND chains or literals)"
_NOI_SHAPE = "a NOI expression (negated AND of IMPLY chains or literals)"


def _operands(term: Expr, chain: type, shape: str) -> tuple[Expr, ...]:
    """A two-level form's term as operands: a ``chain``'s, or the term
    itself if it is a literal or a constant; ShapeError naming the form's
    ``shape`` for a term that is neither."""
    t = type(term)
    if t is chain:
        return term.operands
    if t is Var or t is Const or (t is Not and type(term.child) is Var):
        return (term,)
    raise ShapeError(f"canon: not {shape}: got {t.__name__}")


def _fold(
    plain: tuple[Expr, ...], flipped: tuple[Expr, ...]
) -> Product | None:
    """The product of ``plain`` and the complements of ``flipped``, with
    each constant 1 dropped, or None if a constant 0 makes it 0; ShapeError
    for an operand that is no literal."""
    kept = []
    for flip, operands in ((0, plain), (1, flipped)):
        for x in operands:
            t = type(x)
            if t is Var or (t is Not and type(x.child) is Var):
                kept.append(complement(x) if flip else x)
            elif t is not Const:
                raise ShapeError(
                    "canon: chain operands must be literals, "
                    f"got {t.__name__}"
                )
            elif x.value == flip:
                return None
    return tuple(kept)


def soi_products(e: Expr) -> tuple[Product, ...]:
    """Read an SOI expression (an OR of IAND chains of literals, a chain, a
    literal or a constant) as a sum of products.

    Reading stops at the first term that folds to 1.
    """
    e = normalize_not(e)
    products: list[Product] = []
    for term in e.children if type(e) is Or else (e,):
        ops = _operands(term, IandChain, _SOI_SHAPE)
        p = _fold(ops[:1], ops[1:])
        if p == ():
            return ((),)
        if p is not None:
            products.append(p)
    return tuple(products)


def noi_products(e: Expr) -> tuple[Product, ...]:
    """Read a NOI expression (a negated AND of IMPLY chains of literals, a
    negated chain, a literal or a constant) as a sum of products.

    Reading stops at the first term that folds to 1.
    """
    e = normalize_not(e)
    match e:
        case Const(value):
            return ((),) if value else ()
        case Var():
            return ((e,),)
        case Not(And(kids)):
            terms = kids
        case Not(child):
            terms = (child,)
        case _:
            raise ShapeError(
                f"canon: not {_NOI_SHAPE}: got {type(e).__name__}"
            )
    products: list[Product] = []
    for term in terms:
        ops = _operands(term, ImplyChain, _NOI_SHAPE)
        p = _fold(ops[:-1], ops[-1:])
        if p == ():
            return ((),)
        if p is not None:
            products.append(p)
    return tuple(products)


def _require_vars(t: TruthTable, what: str) -> None:
    if not t.variables:
        raise ShapeError(f"canon: {what} needs a table with >= 1 variable")


def _minterms(t: TruthTable) -> tuple[Product, ...]:
    return tuple(literals(t.variables, r, -1) for r in rows_of(t.mask))


def soi_from_tt(t: TruthTable) -> Expr:
    """Canonical OR-of-IAND-chains for a truth table."""
    _require_vars(t, "soi_from_tt")
    result = soi_form(_minterms(t))
    check_oracle(result, t, "canon")
    return result


def noi_from_tt(t: TruthTable) -> Expr:
    """Canonical NAND-of-IMPLY-chains for a truth table."""
    _require_vars(t, "noi_from_tt")
    result = noi_form(_minterms(t))
    check_oracle(result, t, "canon")
    return result


def _reversed(products: tuple[Product, ...]) -> tuple[Product, ...]:
    return tuple(p[::-1] for p in products)


def soi_to_noi(e: Expr) -> Expr:
    """Term-by-term conversion: NOT(IandChain(x1..xk)) = ImplyChain(!xk..!x1)."""
    result = noi_form(_reversed(soi_products(e)))
    check_oracle(result, e, "canon")
    return result


def noi_to_soi(e: Expr) -> Expr:
    """Term-by-term conversion: NOT(ImplyChain(y1..yk)) = IandChain(!yk..!y1)."""
    result = soi_form(_reversed(noi_products(e)))
    check_oracle(result, e, "canon")
    return result


def _maxterm_sum(names: tuple[str, ...], row: int) -> Expr:
    """Full-support sum that is false exactly at ``row``."""
    lits = tuple(map(complement, literals(names, row, -1)))
    return lits[0] if len(lits) == 1 else Or(lits)


def _minterm_nand(names: tuple[str, ...], row: int) -> Expr:
    """Negated full-support product that is false exactly at ``row``."""
    lits = literals(names, row, -1)
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

