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
    iand_chain,
    imply_chain,
)

NAMES = ("A", "B", "C", "D")

variables_st = st.sampled_from(NAMES).map(Var)
constants_st = st.sampled_from((Const(0), Const(1)))
literals_st = st.sampled_from(
    tuple(Var(n) for n in NAMES) + tuple(Not(Var(n)) for n in NAMES)
)


def _extend(inner: st.SearchStrategy[Expr]) -> st.SearchStrategy[Expr]:
    # chains go through the smart constructors so the structures generated
    # here are the canonical (flattened) pairings the parser also produces
    kids = st.lists(inner, min_size=2, max_size=4).map(tuple)
    return st.one_of(
        inner.map(Not),
        kids.map(And),
        kids.map(Or),
        kids.map(iand_chain),
        kids.map(imply_chain),
    )


def expressions(max_leaves: int = 12) -> st.SearchStrategy[Expr]:
    return st.recursive(
        st.one_of(variables_st, constants_st), _extend, max_leaves=max_leaves
    )


def var_expressions(max_leaves: int = 12) -> st.SearchStrategy[Expr]:
    """Expressions without constants (useful where tables must be nontrivial)."""
    return st.recursive(variables_st, _extend, max_leaves=max_leaves)


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
