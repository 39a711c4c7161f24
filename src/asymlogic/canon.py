"""Canonical normal forms for the asymmetric logic sets.

Disjunctive forms: SOI (OR of IAND chains) and NOI (NAND of IMPLY chains),
both driven by the ON-set of a truth table.  Conjunctive forms: IOS (IAND
of sums) and ION (IMPLY of NANDs), which chain semantics restrict to
functions with exactly one ON row / one OFF row respectively; outside that
domain they return an ``Unsupported`` value rather than raising.

Two-level forms.  SOI and NOI are two spellings of one sum of products,
held as ``(names, products)``: a product is a tuple of literal codes
``2*i + p``, the ``i``-th name plain (``p = 1``) or complemented
(``p = 0``), so ``code ^ 1`` is the complement, the one complement of a
literal; ``()`` is 0, and a form holding the empty product is 1.  The
reader (``_read``) takes an expression apart into that form in one pass,
checking its shape, and ``cube_form`` makes it from cubes; both number
the names in first-read order.  The compilers take the form as it is, and
the writers ``soi_form`` / ``noi_form`` index one ``literal_table`` of its
names, one ``Var`` and one ``Not`` per name, by code.  A product
``c1 .. ck`` is written

* as an SOI term ``IandChain(c1, c2 ^ 1, ..., ck ^ 1)``: the head as
  written, the rest complemented, because the chain evaluates
  ``c1 AND NOT(c2 ^ 1)...``;
* as a NOI term ``ImplyChain(c1, ..., c_{k-1}, ck ^ 1)``: only the last
  literal complemented, so the term's negation is exactly the product.

A one-literal product is the bare literal (SOI) or its complement (NOI).
By the conversion theorem ``NOT(x1 @ ... @ xk) = !xk -> ... -> !x1``,
converting between the forms reverses each product: ``soi_to_noi`` and
``noi_to_soi`` read, reverse and write codes.  The reader folds constant
operands with the chain identity laws: a literal that is 1 drops out, a 0
drops its product, and the empty product makes the whole form 1; a name
it read keeps its number even so.  It reads every term and operand, and
raises ShapeError for any of the wrong shape, wherever it stands.  It
reads a ``Var`` or ``Not(Var)`` operand as it stands and peels every other
node it reads with ``expr.peel``.  ``expr.negate`` complements only what
is not a literal: the NAND's outer ``Not`` and ``ion_from_tt``'s operands.

Canonical terms are ordered by ascending minterm index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

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


Codes = tuple[int, ...]  # a product as literal codes over a names tuple
Form = tuple[tuple[str, ...], tuple[Codes, ...]]  # (names, products)


def literal_table(names: tuple[str, ...]) -> tuple[Expr, ...]:
    """The ``2n`` literals of a names tuple, indexed by code: ``Not(v)``
    then ``v`` per name, each built once, so every literal written or
    decoded through one table shares these nodes."""
    return tuple(x for v in map(Var, names) for x in (Not(v), v))


def cube_form(
    names: tuple[str, ...], cubes: Iterable[tuple[int, int]]
) -> Form:
    """Cubes ``(value, care)`` over ``names`` (the first is the MSB) as a
    two-level form over the names they read, numbered in first-read
    order.  Each name whose ``care`` bit is set is a literal, complemented
    where its ``value`` bit is clear; a minterm cares for every name:
    ``care = -1``."""
    n = len(names)
    index: dict[int, int] = {}  # row bit -> number, given as first read
    products = []
    for value, care in cubes:
        care &= (1 << n) - 1
        p = []
        while care:
            b = care.bit_length() - 1  # the first name left
            care ^= 1 << b
            p.append(2 * index.setdefault(b, len(index)) + (value >> b & 1))
        products.append(tuple(p))
    return tuple([names[n - 1 - b] for b in index]), tuple(products)


def soi_form(form: Form) -> Expr:
    """OR of IAND chains for a two-level form: a product ``c1 .. ck`` is
    the chain of ``c1`` and the complements ``c ^ 1`` of the rest."""
    lit = literal_table(form[0])
    terms = tuple([
        IandChain((lit[p[0]], *[lit[c ^ 1] for c in p[1:]])) if len(p) > 1
        else lit[p[0]] if p else Const(1)
        for p in form[1]])
    if not terms:
        return Const(0)
    return terms[0] if len(terms) == 1 else Or(terms)


def noi_form(form: Form) -> Expr:
    """NAND of IMPLY chains for a two-level form: a product ``c1 .. ck`` is
    the chain of ``c1 .. c_{k-1}`` and the complement ``ck ^ 1``."""
    lit = literal_table(form[0])
    terms = tuple([
        ImplyChain((*[lit[c] for c in p[:-1]], lit[p[-1] ^ 1])) if len(p) > 1
        else lit[p[0] ^ 1] if p else Const(0)
        for p in form[1]])
    if not terms:
        return Const(0)
    return negate(terms[0] if len(terms) == 1 else And(terms))


_SOI_SHAPE = "an SOI expression (OR of IAND chains or literals)"
_NOI_SHAPE = "a NOI expression (negated AND of IMPLY chains or literals)"


def _read(e: Expr, noi: bool) -> Form:
    """Read an SOI expression, or a NOI expression if ``noi``, in one pass
    as a two-level form: its variable names in first-appearance order and
    its sum of products, as codes over those names.

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
    index: dict[str, int] = {}  # each name's number, given as first read
    products: list[Codes] = []
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
        kept: list[int] = []
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
            code = 2 * index.setdefault(v.name, len(index)) + (x is v)
            kept.append(code if i < cut else code ^ 1)
        if not zero:
            products.append(tuple(kept))
    if () in products:
        products = [()]
    return tuple(index), tuple(products)


def _require_vars(t: TruthTable, what: str) -> None:
    if not t.variables:
        raise ShapeError(f"canon: {what} needs a table with >= 1 variable")


def _minterms(t: TruthTable, rows: Iterable[int] | None = None) -> Form:
    """The minterm of each of ``rows``, by default the ON rows of ``t``."""
    rows = rows_of(t.mask) if rows is None else rows
    return cube_form(t.variables, [(r, -1) for r in rows])


def soi_from_tt(t: TruthTable) -> Expr:
    """Canonical OR-of-IAND-chains for a truth table."""
    result = soi_form(_minterms(t))
    check_oracle(result, t, "canon")
    return result


def noi_from_tt(t: TruthTable) -> Expr:
    """Canonical NAND-of-IMPLY-chains for a truth table."""
    result = noi_form(_minterms(t))
    check_oracle(result, t, "canon")
    return result


def _reversed(form: Form) -> Form:
    return form[0], tuple([p[::-1] for p in form[1]])


def soi_to_noi(e: Expr) -> Expr:
    """Term-by-term conversion: NOT(IandChain(x1..xk)) = ImplyChain(!xk..!x1)."""
    result = noi_form(_reversed(_read(e, False)))
    check_oracle(result, e, "canon")
    return result


def noi_to_soi(e: Expr) -> Expr:
    """Term-by-term conversion: NOT(ImplyChain(y1..yk)) = IandChain(!yk..!y1)."""
    result = soi_form(_reversed(_read(e, True)))
    check_oracle(result, e, "canon")
    return result


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
    # the sums false exactly at ``off`` and at ``p``: each is the
    # complement of that row's minterm, the literals of ``~row``
    names, sums = _minterms(t, [~off, ~p])
    lit = literal_table(names)
    result = IandChain(tuple([
        Or(tuple([lit[c] for c in s])) if len(s) > 1 else lit[s[0]]
        for s in sums]))
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
    p = (offs or 1 << top).bit_length() - 1
    names, minterms = _minterms(t, [t.mask.bit_length() - 1, p])
    lit = literal_table(names)
    result = ImplyChain(tuple([
        negate(And(tuple([lit[c] for c in m]))) if len(m) > 1
        else lit[m[0] ^ 1]
        for m in minterms]))
    check_oracle(result, t, "canon")
    return result
