"""Hypothesis strategies over the expression algebra (variables A..D)."""

from __future__ import annotations

from hypothesis import strategies as st

from asymlogic.expr import (
    And,
    Const,
    Expr,
    IandChain,
    ImplyChain,
    Not,
    Or,
    Var,
    children,
    rebuild,
)

NAMES = ("A", "B", "C", "D")

variables_st = st.sampled_from(NAMES).map(Var)
constants_st = st.sampled_from((Const(0), Const(1)))
literals_st = st.sampled_from(
    tuple(Var(n) for n in NAMES) + tuple(Not(Var(n)) for n in NAMES)
)


def _extend(inner: st.SearchStrategy[Expr]) -> st.SearchStrategy[Expr]:
    # a chain may hold a chain at any position; its constructor flattens
    # the associative end, as the parser's does
    kids = st.lists(inner, min_size=2, max_size=4).map(tuple)
    return st.one_of(
        inner.map(Not),
        kids.map(And),
        kids.map(Or),
        kids.map(IandChain),
        kids.map(ImplyChain),
    )


def expressions(max_leaves: int = 12) -> st.SearchStrategy[Expr]:
    return st.recursive(
        st.one_of(variables_st, constants_st), _extend, max_leaves=max_leaves
    )


def _nest(chain, operands, inner, i) -> Expr:
    return chain((*operands[:i], inner, *operands[i:]))


def nested_chains(max_leaves: int = 8) -> st.SearchStrategy[Expr]:
    """A chain built by its raw constructor, holding a chain of either kind
    at a drawn position (first, inside or last) among ``expressions``."""
    part = expressions(max_leaves)
    chain = st.sampled_from((IandChain, ImplyChain))
    operands = st.lists(part, min_size=1, max_size=3)
    inner = st.builds(
        lambda c, ops: c(tuple(ops)),
        chain, st.lists(part, min_size=2, max_size=3),
    )
    return st.builds(_nest, chain, operands, inner, st.integers(0, 3))


@st.composite
def stacked_nots(draw, base: st.SearchStrategy[Expr]) -> Expr:
    """An expression from ``base`` with 0 to 3 ``Not`` stacked on every
    node, so that double negations and negated constants stand at the root,
    at terms, at operands and below them."""

    def stack(e):
        kids = children(e)
        if kids:
            e = rebuild(e, tuple(map(stack, kids)))
        for _ in range(draw(st.integers(0, 3))):
            e = Not(e)
        return e

    return stack(draw(base))


chains_st = st.one_of(
    st.lists(literals_st, min_size=2, max_size=4).map(tuple).map(IandChain),
    st.lists(literals_st, min_size=2, max_size=4).map(tuple).map(ImplyChain),
)

_soi_term = st.one_of(
    literals_st,
    st.lists(literals_st, min_size=2, max_size=4).map(tuple).map(IandChain),
)
soi_exprs = st.one_of(
    _soi_term,
    st.lists(_soi_term, min_size=2, max_size=4).map(tuple).map(Or),
)

_noi_term = st.one_of(
    literals_st,
    st.lists(literals_st, min_size=2, max_size=4).map(tuple).map(ImplyChain),
)
noi_exprs = st.one_of(
    _noi_term.map(Not),
    st.lists(_noi_term, min_size=2, max_size=4).map(tuple).map(And).map(Not),
)

# the same shapes with constants allowed wherever a literal may stand; the
# two-level readers fold them with the chain identity laws
_operand_st = st.one_of(literals_st, constants_st)
_chain_ops = st.lists(_operand_st, min_size=2, max_size=4).map(tuple)

_const_soi_term = st.one_of(_operand_st, _chain_ops.map(IandChain))
soi_exprs_with_constants = st.one_of(
    _const_soi_term,
    st.lists(_const_soi_term, min_size=2, max_size=4).map(tuple).map(Or),
)

_const_noi_term = st.one_of(_operand_st, _chain_ops.map(ImplyChain))
noi_exprs_with_constants = st.one_of(
    _const_noi_term.map(Not),
    st.lists(_const_noi_term, min_size=2, max_size=4)
    .map(tuple)
    .map(And)
    .map(Not),
)
