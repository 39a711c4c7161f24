"""Canonical normal forms for the asymmetric logic sets.

Disjunctive forms: SOI (OR of IAND chains) and NOI (NAND of IMPLY chains),
both driven by the ON-set of a truth table.  Conjunctive forms: IOS (IAND
of sums) and ION (IMPLY of NANDs), which chain semantics restrict to
functions with exactly one ON row / one OFF row respectively; outside that
domain they return an ``Unsupported`` value rather than raising.

Two-level forms.  SOI and NOI are two spellings of one sum of products,
held as a tuple of products, each a tuple of literals (``()`` is 0, a form
holding the empty product is 1).  One reader takes an expression apart in
a single pass, into its variable names, its products and a check of its
shape; ``soi_products`` / ``noi_products`` return its products and the
compilers take its names too.  ``soi_form`` / ``noi_form`` write a sum of
products back; a product ``l1 .. lk`` is written

* as an SOI term ``IandChain(l1, !l2, ..., !lk)``: the head as written, the
  rest complemented, because the chain evaluates ``l1 AND NOT(!l2)...``;
* as a NOI term ``ImplyChain(l1, ..., l_{k-1}, !lk)``: only the last
  literal complemented, so the term's negation is exactly the product.

A one-literal product is the bare literal (SOI) or its complement (NOI).
By the conversion theorem ``NOT(x1 @ ... @ xk) = !xk -> ... -> !x1``,
converting between the forms reverses each product.  The reader folds
constant operands with the chain identity laws: a literal that is 1 drops
out, a 0 drops its product, and the empty product makes the whole form 1.
It reads every term and operand even so, and raises ShapeError for any of
the wrong shape, wherever it stands.  It reads a ``Var`` or ``Not(Var)``
operand as it stands and peels every other node it reads with
``expr.peel``.  The reader and both writers complement with
``expr.negate``, the one negation rule; the writers take their products
as literals, as the reader, ``literals`` and the minimizer make them.

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
    negate,
    peel,
)
from .semantics import TruthTable, check_oracle, lowest_row, rows_of


@dataclass(frozen=True)
class Unsupported:
    """A requested form that does not exist for the given function."""

    reason: str


Product = tuple[Expr, ...]  # literals: each a Var or a Not(Var)


LiteralTable = tuple[tuple[int, tuple[Not, Var]], ...]


def literal_table(names: tuple[str, ...]) -> LiteralTable:
    """The ``2n`` literals of a variable order, each built once: per name
    (the first is the MSB) its row bit and its pair ``(Not(v), v)``, so
    the literal of polarity ``p`` is ``pair[p]``.  Every product built
    from one table shares these nodes."""
    n = len(names)
    return tuple(
        (n - 1 - i, (Not(v), v)) for i, v in enumerate(map(Var, names))
    )


def literals(table: LiteralTable, value: int, care: int) -> Product:
    """A cube's literals, picked from ``table``: each variable whose
    ``care`` bit is set, complemented where its ``value`` bit is clear.
    A minterm cares for every variable: ``care = -1``."""
    return tuple(pair[value >> b & 1] for b, pair in table if care >> b & 1)


def soi_term(literals: Product) -> Expr:
    """IAND chain equal to the product of the given literals."""
    if not literals:
        return Const(1)
    if len(literals) == 1:
        return literals[0]
    return IandChain((literals[0], *map(negate, literals[1:])))


def noi_term(literals: Product) -> Expr:
    """IMPLY chain whose negation is the product of the given literals."""
    if not literals:
        return Const(0)
    if len(literals) == 1:
        return negate(literals[0])
    return ImplyChain((*literals[:-1], negate(literals[-1])))


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
    return negate(terms[0] if len(terms) == 1 else And(terms))


_SOI_SHAPE = "an SOI expression (OR of IAND chains or literals)"
_NOI_SHAPE = "a NOI expression (negated AND of IMPLY chains or literals)"


def _read(
    e: Expr, noi: bool
) -> tuple[tuple[str, ...], tuple[Product, ...]]:
    """Read an SOI expression, or a NOI expression if ``noi``, in one pass:
    its variable names in first-appearance order and its sum of products.

    Every term and every operand is read, so a term or an operand of the
    wrong shape raises ShapeError wherever it stands.  A literal or a
    constant reads the same in both forms.  The result is the same as for
    ``normalize_not(e)``, without a walk of its own: each node the reader
    looks at (the root, each term, each operand) is peeled as it is read
    (``peel``), except that a ``Var`` or ``Not(Var)`` operand, which has
    nothing to peel, is read inline.  Only a double-negated chain at its
    chain's associative end, which ``normalize_not`` splices
    (``!!(a @ b) @ c``), is refused.
    """
    e = peel(e)
    t = type(e)
    if noi and t is Not:
        terms = e.child.children if type(e.child) is And else (e.child,)
    elif noi and t is not Var and t is not Const:
        raise ShapeError(f"canon: not {_NOI_SHAPE}: got {t.__name__}")
    else:
        noi = False
        terms = e.children if t is Or else (e,)
    chain, shape = (ImplyChain, _NOI_SHAPE) if noi else (IandChain, _SOI_SHAPE)
    names: list[str] = []
    products: list[Product] = []
    for term in terms:
        t = type(term)
        if t is Not:
            term = peel(term)
            t = type(term)
        if t is chain:
            ops = term.operands
        elif t is Var or t is Const or (t is Not and type(term.child) is Var):
            ops = (term,)
        else:
            raise ShapeError(f"canon: not {shape}: got {t.__name__}")
        # SOI complements every operand after the head, NOI only the last
        cut = len(ops) - 1 if noi else 1
        kept: list[Expr] = []
        zero = False
        for i, x in enumerate(ops):
            t = type(x)
            if t is Not:  # a literal as it stands, or peeled
                v = x.child
                if type(v) is not Var:
                    x = peel(x)
                    t = type(x)
                    v = x.child if t is Not else x
            else:
                v = x
            if t is Const:  # as read: a 1 drops out, a 0 drops the product
                zero |= x.value == (i >= cut)
                continue
            if type(v) is not Var:
                raise ShapeError(
                    "canon: chain operands must be literals, "
                    f"got {t.__name__}"
                )
            names.append(v.name)
            kept.append(x if i < cut else negate(x))
        if not zero:
            products.append(tuple(kept))
    if () in products:
        products = [()]
    return tuple(dict.fromkeys(names)), tuple(products)


def soi_products(e: Expr) -> tuple[Product, ...]:
    """Read an SOI expression (an OR of IAND chains of literals, a chain, a
    literal or a constant) as a sum of products."""
    return _read(e, False)[1]


def noi_products(e: Expr) -> tuple[Product, ...]:
    """Read a NOI expression (a negated AND of IMPLY chains of literals, a
    negated chain, a literal or a constant) as a sum of products."""
    return _read(e, True)[1]


def _require_vars(t: TruthTable, what: str) -> None:
    if not t.variables:
        raise ShapeError(f"canon: {what} needs a table with >= 1 variable")


def _minterms(t: TruthTable) -> tuple[Product, ...]:
    table = literal_table(t.variables)
    return tuple(literals(table, r, -1) for r in rows_of(t.mask))


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


def _maxterm_sum(table: LiteralTable, row: int) -> Expr:
    """Full-support sum that is false exactly at ``row``: the complement
    of each literal of its minterm, the literals of ``~row``."""
    lits = literals(table, ~row, -1)
    return lits[0] if len(lits) == 1 else Or(lits)


def _minterm_nand(table: LiteralTable, row: int) -> Expr:
    """Negated full-support product that is false exactly at ``row``."""
    lits = literals(table, row, -1)
    body = lits[0] if len(lits) == 1 else And(lits)
    return negate(body)


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
    table = literal_table(t.variables)
    result = IandChain((_maxterm_sum(table, off), _maxterm_sum(table, p)))
    check_oracle(result, t, "canon")
    return result


def ion_from_tt(t: TruthTable) -> Expr | Unsupported:
    """IMPLY of minterm-NANDs; representable exactly when the OFF-set is one
    row, plus the constant-1 table via the tautology ``N -> N``.

    ``N1 -> N2`` is ``NOT N1 OR N2``; with full-support NAND operands that
    is false on exactly one row.  N1 is built from the highest-index ON row
    and N2 from the single OFF row, or from the top row when there is none,
    which gives ``N -> N``.
    """
    _require_vars(t, "ion_from_tt")
    top = (1 << len(t.variables)) - 1
    offs = ((1 << (top + 1)) - 1) ^ t.mask
    if offs.bit_count() > 1:
        return Unsupported(
            "an IMPLY of full-support minterm-NANDs denotes a function with "
            f"at most one OFF row; this table has {offs.bit_count()} OFF rows"
        )
    table = literal_table(t.variables)
    p = (offs or 1 << top).bit_length() - 1
    n1 = _minterm_nand(table, t.mask.bit_length() - 1)
    n2 = _minterm_nand(table, p)
    result = ImplyChain((n1, n2))
    check_oracle(result, t, "canon")
    return result

