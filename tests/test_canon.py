"""Canonical chain forms and the SOI/NOI conversions."""

from __future__ import annotations

from itertools import product

import pytest
from hypothesis import given

from asymlogic.canon import (
    Unsupported,
    _read,
    ion_from_tt,
    ios_from_tt,
    noi_form,
    noi_from_tt,
    noi_products,
    noi_to_soi,
    soi_form,
    soi_from_tt,
    soi_products,
    soi_to_noi,
)
from asymlogic.errors import ShapeError
from asymlogic.expr import (
    And,
    Const,
    IandChain,
    ImplyChain,
    Not,
    Or,
    Var,
    variables,
)
from asymlogic.parser import parse
from asymlogic.semantics import TruthTable, equivalent, truth_table

from .strategies import (
    noi_exprs,
    noi_exprs_with_constants,
    soi_exprs,
    soi_exprs_with_constants,
)

A, B, C = Var("A"), Var("B"), Var("C")
NAMES3 = ("A", "B", "C")
NAMES4 = ("A", "B", "C", "D")


def all_tables(names):
    n = len(names)
    for bits in product((0, 1), repeat=1 << n):
        yield TruthTable(names, bits)


class TestDisjunctiveForms:
    def test_soi_term_encoding_first_literal_plain(self):
        # minterm 100 keeps A as written and complements the complements
        t = TruthTable(NAMES3, (0, 0, 0, 0, 1, 0, 0, 0))
        assert soi_from_tt(t) == IandChain((A, B, C))
        # minterm 011: first literal is !A, the rest are complemented
        t2 = TruthTable(NAMES3, (0, 0, 0, 1, 0, 0, 0, 0))
        assert soi_from_tt(t2) == IandChain((Not(A), Not(B), Not(C)))

    def test_soi_two_terms_ascending(self):
        t = TruthTable(NAMES3, (0, 0, 0, 0, 1, 0, 0, 1))
        assert soi_from_tt(t) == Or(
            (IandChain((A, B, C)), IandChain((A, Not(B), Not(C))))
        )

    def test_noi_term_encoding_last_literal_complemented(self):
        # ON = {010, 110}: the function B AND NOT C
        t = TruthTable(NAMES3, (0, 0, 1, 0, 0, 0, 1, 0))
        assert noi_from_tt(t) == Not(
            And(
                (
                    ImplyChain((Not(A), B, C)),
                    ImplyChain((A, B, C)),
                )
            )
        )

    def test_constant_zero(self):
        t = TruthTable(NAMES3, (0,) * 8)
        assert soi_from_tt(t) == Const(0)
        assert noi_from_tt(t) == Const(0)

    def test_constant_one_is_full_expansion(self):
        t = TruthTable(("A", "B"), (1, 1, 1, 1))
        soi = soi_from_tt(t)
        assert isinstance(soi, Or) and len(soi.children) == 4
        noi = noi_from_tt(t)
        assert isinstance(noi, Not) and len(noi.child.children) == 4

    def test_single_variable_terms_are_literals(self):
        t = TruthTable(("A",), (0, 1))
        assert soi_from_tt(t) == A
        assert noi_from_tt(t) == A
        t0 = TruthTable(("A",), (1, 0))
        assert soi_from_tt(t0) == Not(A)
        assert noi_from_tt(t0) == Not(A)

    def test_empty_variable_table_rejected(self):
        with pytest.raises(ShapeError):
            soi_from_tt(TruthTable((), (1,)))
        with pytest.raises(ShapeError):
            noi_from_tt(TruthTable((), (0,)))

    @pytest.mark.parametrize("names", [("A",), ("A", "B"), NAMES3])
    def test_exhaustive_oracle(self, names):
        for t in all_tables(names):
            assert truth_table(soi_from_tt(t), names).bits == t.bits
            assert truth_table(noi_from_tt(t), names).bits == t.bits


class TestConversions:
    def test_single_term_example(self):
        assert soi_to_noi(IandChain((A, B))) == Not(
            ImplyChain((Not(B), Not(A)))
        )

    def test_conversion_reverses_and_complements(self):
        soi = Or((IandChain((A, B, C)), IandChain((A, Not(B), Not(C)))))
        noi = soi_to_noi(soi)
        assert noi == Not(
            And(
                (
                    ImplyChain((Not(C), Not(B), Not(A))),
                    ImplyChain((C, B, Not(A))),
                )
            )
        )

    def test_literal_terms_are_self_dual_across_forms(self):
        # a literal is already both a valid SOI and a valid NOI of itself
        assert soi_to_noi(A) == A
        assert soi_to_noi(Not(A)) == Not(A)
        assert noi_to_soi(A) == A
        assert noi_to_soi(Not(A)) == Not(A)

    def test_constants_pass_through(self):
        assert soi_to_noi(Const(0)) == Const(0)
        assert noi_to_soi(Const(0)) == Const(0)

    def test_round_trip_is_structural(self):
        soi = Or((IandChain((A, Not(B))), C))
        assert noi_to_soi(soi_to_noi(soi)) == soi
        noi = Not(And((ImplyChain((A, B)), ImplyChain((B, Not(C))))))
        assert soi_to_noi(noi_to_soi(noi)) == noi

    @given(soi_exprs)
    def test_round_trip_property(self, soi):
        assert noi_to_soi(soi_to_noi(soi)) == soi

    @pytest.mark.parametrize("names", [("A",), ("A", "B"), NAMES3])
    def test_canonical_round_trips_exhaustive(self, names):
        for t in all_tables(names):
            soi = soi_from_tt(t)
            noi = noi_from_tt(t)
            assert noi_to_soi(soi_to_noi(soi)) == soi
            assert soi_to_noi(noi_to_soi(noi)) == noi
            # converted forms stay on the same function
            assert truth_table(soi_to_noi(soi), names).bits == t.bits
            assert truth_table(noi_to_soi(noi), names).bits == t.bits

    def test_shape_errors(self):
        not_soi = "not an SOI expression .*: got "
        not_noi = "not a NOI expression .*: got "
        with pytest.raises(ShapeError, match=not_soi + "And"):
            soi_to_noi(And((A, B)))
        with pytest.raises(ShapeError, match=not_soi + "ImplyChain"):
            soi_to_noi(Or((A, ImplyChain((A, B)))))
        with pytest.raises(ShapeError, match="operands must be literals"):
            soi_to_noi(IandChain((A, Or((B, C)))))
        with pytest.raises(ShapeError, match=not_noi + "Or"):
            noi_to_soi(Or((A, B)))
        with pytest.raises(ShapeError, match=not_noi + "Or"):
            noi_to_soi(Not(Or((A, B))))
        with pytest.raises(ShapeError, match=not_noi + "IandChain"):
            noi_to_soi(Not(And((IandChain((A, B)), C))))
        with pytest.raises(ShapeError, match="operands must be literals"):
            noi_to_soi(Not(ImplyChain((And((A, B)), C))))
        # a constant that settles the form does not end the reading
        with pytest.raises(ShapeError, match=not_soi + "ImplyChain"):
            soi_products(parse("1 | (A -> B)"))
        with pytest.raises(ShapeError, match="operands must be literals"):
            soi_products(parse("A @ 1 @ (B | C)"))
        with pytest.raises(ShapeError, match="operands must be literals"):
            noi_products(parse("!((A -> B) & (0 -> (C @ D)))"))
        with pytest.raises(ShapeError, match=not_noi + "Or"):
            noi_products(parse("!(0 & (A | B))"))


class TestProducts:
    def test_soi_products(self):
        assert soi_products(Or((IandChain((A, B, Not(C))), Not(A)))) == (
            (A, Not(B), C),
            (Not(A),),
        )

    def test_noi_products(self):
        noi = Not(And((ImplyChain((A, B, C)), Not(A))))
        assert noi_products(noi) == ((A, B, Not(C)), (A,))
        assert noi_products(A) == ((A,),)
        assert noi_products(Not(A)) == ((Not(A),),)

    def test_constants(self):
        for read in (soi_products, noi_products):
            assert read(Const(0)) == ()
            assert read(Const(1)) == ((),)

    def test_constant_operands_fold(self):
        # a 1 literal drops out, a 0 literal drops its product
        assert soi_products(parse("A @ B @ 1 | C")) == ((C,),)
        assert soi_products(parse("1 @ A @ 0")) == ((Not(A),),)
        assert noi_products(parse("!((A -> 1) & (1 -> B))")) == ((Not(B),),)
        assert noi_products(parse("!((A -> 0) & B)")) == ((A,), (Not(B),))

    def test_a_true_term_makes_the_form_one(self):
        assert soi_products(parse("A | 1 @ 0 | B")) == ((),)
        assert noi_products(parse("!(A & 0 & B)")) == ((),)

    @pytest.mark.parametrize("strategy, noi", [
        (soi_exprs, False),
        (noi_exprs, True),
        (soi_exprs_with_constants, False),
        (noi_exprs_with_constants, True),
    ])
    def test_reader_names_are_the_variables(self, strategy, noi):
        @given(strategy)
        def check(e):
            assert _read(e, noi)[0] == variables(e)

        check()

    def test_writers_invert_readers(self):
        soi = Or((IandChain((A, Not(B))), C))
        assert soi_form(soi_products(soi)) == soi
        noi = Not(And((ImplyChain((A, B)), C)))
        assert noi_form(noi_products(noi)) == noi

    @given(soi_exprs)
    def test_conversion_reverses_each_product(self, soi):
        noi = soi_to_noi(soi)
        assert noi_products(noi) == tuple(p[::-1] for p in soi_products(soi))

    @given(noi_exprs)
    def test_noi_conversion_reverses_each_product(self, noi):
        soi = noi_to_soi(noi)
        assert soi_products(soi) == tuple(p[::-1] for p in noi_products(noi))


class TestConstantOperands:
    @given(soi_exprs_with_constants)
    def test_soi_to_noi_keeps_the_table(self, soi):
        noi = soi_to_noi(soi)
        assert truth_table(noi, NAMES4).bits == truth_table(soi, NAMES4).bits
        assert noi_products(noi) == tuple(p[::-1] for p in soi_products(soi))

    @given(noi_exprs_with_constants)
    def test_noi_to_soi_keeps_the_table(self, noi):
        soi = noi_to_soi(noi)
        assert truth_table(soi, NAMES4).bits == truth_table(noi, NAMES4).bits
        assert soi_products(soi) == tuple(p[::-1] for p in noi_products(noi))


class TestConjunctiveForms:
    def test_ios_single_on_row(self):
        t = TruthTable(NAMES3, (0, 0, 0, 0, 1, 0, 0, 0))
        assert ios_from_tt(t) == IandChain(
            (Or((A, B, C)), Or((Not(A), B, C)))
        )

    def test_ios_uses_lowest_off_row(self):
        # ON = {000}: the first OFF row is 001
        t = TruthTable(NAMES3, (1, 0, 0, 0, 0, 0, 0, 0))
        form = ios_from_tt(t)
        assert form.operands[0] == Or((A, B, Not(C)))
        assert truth_table(form, NAMES3).bits == t.bits

    def test_ion_single_off_row(self):
        t = TruthTable(NAMES3, (1, 1, 1, 0, 1, 1, 1, 1))
        assert ion_from_tt(t) == ImplyChain(
            (
                Not(And((A, B, C))),
                Not(And((Not(A), B, C))),
            )
        )

    def test_ion_constant_one_tautology(self):
        t = TruthTable(NAMES3, (1,) * 8)
        nand = Not(And((A, B, C)))
        assert ion_from_tt(t) == ImplyChain((nand, nand))

    def test_support_domains_exhaustive(self):
        for t in all_tables(NAMES3):
            ons = sum(t.bits)
            ios = ios_from_tt(t)
            assert isinstance(ios, Unsupported) == (ons != 1)
            if not isinstance(ios, Unsupported):
                assert truth_table(ios, NAMES3).bits == t.bits
            ion = ion_from_tt(t)
            offs = len(t.bits) - ons
            assert isinstance(ion, Unsupported) == (offs != 1 and offs != 0)
            if not isinstance(ion, Unsupported):
                assert truth_table(ion, NAMES3).bits == t.bits

    def test_unsupported_reasons_mention_row_counts(self):
        r = ios_from_tt(TruthTable(("A", "B"), (1, 1, 0, 0)))
        assert isinstance(r, Unsupported) and "2 ON rows" in r.reason
        r = ion_from_tt(TruthTable(("A", "B"), (1, 0, 0, 0)))
        assert isinstance(r, Unsupported) and "3 OFF rows" in r.reason

    def test_constant_zero_unsupported_for_ios(self):
        assert isinstance(
            ios_from_tt(TruthTable(("A",), (0, 0))), Unsupported
        )

    def test_single_variable_forms(self):
        t = TruthTable(("A",), (0, 1))
        ios = ios_from_tt(t)
        assert truth_table(ios, ("A",)).bits == (0, 1)
        ion = ion_from_tt(t)
        assert truth_table(ion, ("A",)).bits == (0, 1)
