"""Expression tree construction, traversal, and printing."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from asymlogic.expr import (
    And,
    Const,
    FALSE,
    IandChain,
    ImplyChain,
    Not,
    NoPathError,
    Or,
    TRUE,
    Var,
    children,
    format_expr,
    iand_chain,
    imply_chain,
    iter_subexpressions,
    literal_count,
    negate,
    normalize_not,
    operator_count,
    rebuild,
    subexpr_at,
    variables,
)
from asymlogic.errors import ArityError
from asymlogic.parser import parse

from .helpers import (
    cyclic_garbage,
    one_chain_tree,
    reference_normalize_not,
)
from .strategies import (
    expressions,
    noi_exprs_with_constants,
    soi_exprs_with_constants,
    stacked_nots,
)

A, B, C, D = Var("A"), Var("B"), Var("C"), Var("D")


class TestConstruction:
    def test_constants(self):
        assert TRUE == Const(1) and FALSE == Const(0)
        with pytest.raises(ValueError):
            Const(2)

    @pytest.mark.parametrize("value", [True, False, 1.0, 0.0, 2, -1, "1"])
    def test_constant_must_be_the_int_0_or_1(self, value):
        # True and 1.0 compare equal to 1 but print as text the parser
        # cannot read back
        with pytest.raises(ValueError):
            Const(value)

    @pytest.mark.parametrize(
        "ctor", [And, Or, IandChain, ImplyChain, iand_chain, imply_chain]
    )
    def test_arity_minimum_two(self, ctor):
        with pytest.raises(ArityError):
            ctor((A,))
        with pytest.raises(ArityError):
            ctor(())
        assert len(children(ctor((A, B)))) == 2

    def test_nodes_are_hashable_and_comparable(self):
        assert IandChain((A, B)) == IandChain((A, B))
        assert hash(Not(A)) == hash(Not(A))
        assert And((A, B)) != Or((A, B))


class TestOneTreePerChain:
    """The chain constructors flatten their associative end, so no code
    path builds a second tree for one chain."""

    def test_leading_iand_chain_is_spliced(self):
        assert IandChain((IandChain((A, B)), C)).operands == (A, B, C)
        deep = IandChain((IandChain((IandChain((A, B)), C)), D))
        assert deep.operands == (A, B, C, D)

    def test_trailing_imply_chain_is_spliced(self):
        assert ImplyChain((A, ImplyChain((B, C)))).operands == (A, B, C)
        deep = ImplyChain((A, ImplyChain((B, ImplyChain((C, D))))))
        assert deep.operands == (A, B, C, D)

    @pytest.mark.parametrize("outer, inner, at", [
        (IandChain, IandChain, 1),  # a @ (b @ c) is another function
        (IandChain, IandChain, -1),
        (ImplyChain, ImplyChain, 0),  # (a -> b) -> c is another function
        (ImplyChain, ImplyChain, 1),
        (IandChain, ImplyChain, 0),  # another operator never splices
        (ImplyChain, IandChain, -1),
        (IandChain, Or, 0),
        (ImplyChain, And, -1),
    ])
    def test_other_positions_stay_nested(self, outer, inner, at):
        operands = [A, B, C]
        operands[at] = inner((B, D))
        assert outer(tuple(operands)).operands == tuple(operands)

    def test_arity_is_checked_before_splicing(self):
        with pytest.raises(ArityError):
            IandChain((IandChain((A, B)),))
        with pytest.raises(ArityError):
            ImplyChain((ImplyChain((A, B)),))

    def test_every_builder_gives_the_flat_chain(self):
        flat = IandChain((A, B, C))
        assert rebuild(flat, (IandChain((A, B)), C)) == flat
        head = Not(Not(IandChain((A, B))))
        assert normalize_not(IandChain((head, C))) == flat
        assert normalize_not(parse("!!(a @ b) @ c")) == parse("a @ b @ c")
        tail = ImplyChain((A, Not(Not(ImplyChain((B, C))))))
        assert normalize_not(tail) == ImplyChain((A, B, C))

    @given(stacked_nots(expressions(max_leaves=8)))
    def test_normalize_not_round_trips(self, e):
        normal = normalize_not(e)
        assert one_chain_tree(normal)
        assert parse(format_expr(normal)) == normal


class TestChainHelpers:
    def test_iand_chain_flattens_first_position_only(self):
        inner = IandChain((A, B))
        assert iand_chain((inner, C)) == IandChain((A, B, C))
        # a nested chain anywhere else keeps its own grouping
        assert iand_chain((C, inner)) == IandChain((C, inner))

    def test_imply_chain_flattens_last_position_only(self):
        inner = ImplyChain((B, C))
        assert imply_chain((A, inner)) == ImplyChain((A, B, C))
        assert imply_chain((inner, A)) == ImplyChain((inner, A))

    def test_deep_flattening(self):
        e = iand_chain((iand_chain((A, B)), C))
        assert e == IandChain((A, B, C))
        e2 = imply_chain((A, imply_chain((B, imply_chain((C, D))))))
        assert e2 == ImplyChain((A, B, C, D))


class TestTraversal:
    def test_variables_first_appearance(self):
        e = Or((IandChain((B, A)), And((C, B))))
        assert variables(e) == ("B", "A", "C")

    def test_variables_leaves_no_cyclic_garbage(self):
        e = parse("(a @ !b) | c & (d -> a)")
        assert cyclic_garbage(variables, e) == 0

    def test_iter_subexpressions_preorder(self):
        e = Or((Not(A), B))
        walk = list(iter_subexpressions(e))
        assert walk[0] == ((), e)
        assert ((0,), Not(A)) in walk
        assert ((0, 0), A) in walk
        assert ((1,), B) in walk

    def test_subexpr_at(self):
        e = Or((Not(A), B))
        assert subexpr_at(e, (0, 0)) == A
        with pytest.raises(NoPathError):
            subexpr_at(e, (5,))
        with pytest.raises(NoPathError):
            subexpr_at(e, (0, 0, 0))

    @given(expressions())
    def test_rebuild_roundtrip(self, e):
        assert rebuild(e, children(e)) == e


class TestNormalization:
    def test_normalize_not(self):
        assert normalize_not(Not(Not(A))) == A
        assert normalize_not(Not(Const(0))) == Const(1)
        assert normalize_not(Not(Not(Not(A)))) == Not(A)
        assert normalize_not(Or((Not(Not(A)), B))) == Or((A, B))

    def test_unchanged_subtrees_are_kept(self):
        kept = IandChain((A, Not(B)))
        e = Or((Not(Not(C)), kept))
        out = normalize_not(e)
        assert out == Or((C, kept)) and out.children[1] is kept
        normal = Not(And((kept, ImplyChain((Not(A), Const(1))))))
        assert normalize_not(normal) is normal

    @given(st.one_of(
        expressions(), soi_exprs_with_constants, noi_exprs_with_constants
    ))
    def test_matches_rebuild_always_reference(self, e):
        normal = reference_normalize_not(e)
        assert normalize_not(e) == normal
        # the reference builds a fresh tree with no !! and no negated
        # constant, which comes back as the same object
        assert normalize_not(normal) is normal

    def test_negate_collapses_the_root(self):
        assert negate(A) == Not(A)
        assert negate(Not(A)) is A
        assert negate(Const(0)) == Const(1) and negate(Const(1)) == Const(0)
        assert negate(Not(Not(A))) == Not(A)  # only the root collapses

    @given(expressions().map(normalize_not))
    def test_negate_is_the_normalized_complement(self, e):
        assert negate(e) == normalize_not(Not(e))
        assert negate(negate(e)) == e

    def test_counts(self):
        e = Or((IandChain((A, Not(B))), C))
        assert literal_count(e) == 3
        assert operator_count(e) == 3  # Or, IandChain, Not


class TestFormatting:
    @pytest.mark.parametrize(
        "e, text",
        [
            (IandChain((A, B, C)), "A @ B @ C"),
            (ImplyChain((A, B, C)), "A -> B -> C"),
            (Or((IandChain((A, B)), C)), "A @ B | C"),
            (IandChain((Or((A, B)), C)), "(A | B) @ C"),
            (And((A, Or((B, C)))), "A & (B | C)"),
            (Not(IandChain((A, B))), "!(A @ B)"),
            (Not(A), "!A"),
            (ImplyChain((IandChain((A, B)), C)), "(A @ B) -> C"),
            (IandChain((A, ImplyChain((B, C)))), "A @ (B -> C)"),
            (Or((ImplyChain((A, B)), C)), "(A -> B) | C"),
            (IandChain((A, IandChain((B, C)))), "A @ (B @ C)"),
            (Const(1), "1"),
            (And((Const(0), A)), "0 & A"),
        ],
    )
    def test_frozen_renderings(self, e, text):
        assert format_expr(e) == text

    @given(expressions())
    def test_format_parse_roundtrip(self, e):
        assert parse(format_expr(e)) == e
