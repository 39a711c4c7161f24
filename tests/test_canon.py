"""Canonical chain forms and the SOI/NOI conversions."""

from __future__ import annotations

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asymlogic.canon import (
    Unsupported,
    _minterms,
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
    iter_subexpressions,
    normalize_not,
    peel,
    variables,
)
from asymlogic.parser import parse
from asymlogic.semantics import TruthTable, equivalent, truth_table

from .helpers import reference_literals, shared_literals
from .strategies import (
    expressions,
    noi_exprs,
    noi_exprs_with_constants,
    soi_exprs,
    soi_exprs_with_constants,
    stacked_nots,
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


class TestMinterms:
    def test_equal_the_per_literal_construction(self):
        # one literal table per call: every minterm shares its 2n nodes
        for m in range(256):
            rows = [r for r in range(8) if m >> r & 1]
            got = _minterms(TruthTable.from_mask(NAMES3, m))
            assert got == tuple(
                reference_literals(NAMES3, r, -1) for r in rows
            ), m
            # a literal per variable and polarity that some ON row reads
            assert len(shared_literals(got)) == sum(
                len({r >> b & 1 for r in rows}) for b in range(3)
            )


def _peeled(e):
    """Whether ``e``'s root is as ``normalize_not`` leaves a root."""
    return type(e) is not Not or type(e.child) not in (Not, Const)


class TestPeel:
    """``expr.peel``, the reader's one negation step, changes only the root
    and leaves it as ``normalize_not`` would."""

    @settings(max_examples=300)
    @given(stacked_nots(expressions(max_leaves=8)))
    def test_peels_the_root_only(self, e):
        p = peel(e)
        assert _peeled(p)
        assert normalize_not(p) == normalize_not(e)
        if _peeled(e):
            assert p is e
        elif type(p) is not Const:  # a node of e, reached through Nots
            below = [e]
            while type(below[-1]) is Not:
                below.append(below[-1].child)
            assert any(node is p for node in below)


def _spliced_by_normalize_not(e):
    """Whether a chain in ``e`` has a ``Not``-stacked chain of its own kind
    at its associative end."""
    return any(
        (type(n) is IandChain and type(peel(n.operands[0])) is IandChain)
        or (type(n) is ImplyChain and type(peel(n.operands[-1])) is ImplyChain)
        for _, n in iter_subexpressions(e)
    )


def _read_outcome(e, noi):
    """The names and products, or the ShapeError's type and message."""
    try:
        return _read(e, noi)
    except ShapeError as exc:
        return type(exc), str(exc)


class TestReaderPeelsAsItReads:
    """``_read`` peels negations only at the nodes it reads; the result is
    the one it gives for the whole tree normalized first."""

    @pytest.mark.parametrize("noi", [False, True])
    @settings(max_examples=300)
    @given(data=st.data())
    def test_matches_normalized_tree(self, noi, data):
        base = st.one_of(
            soi_exprs_with_constants, noi_exprs_with_constants,
            expressions(max_leaves=8),
        )
        e = data.draw(stacked_nots(base))
        got = _read_outcome(e, noi)
        if _spliced_by_normalize_not(e):
            # the one difference: the reader refuses a double-negated
            # chain at its chain's associative end, which normalize_not
            # splices into that chain
            assert got[0] is ShapeError
        else:
            assert got == _read_outcome(normalize_not(e), noi)

    @pytest.mark.parametrize("text, noi, kind, names, product", [
        ("!!(a @ b) @ c", False, "IandChain", "abc", ("a", "!b", "!c")),
        ("!(c -> !!(a -> b))", True, "ImplyChain", "cab", ("c", "a", "!b")),
    ])
    def test_double_negated_chain_at_the_associative_end(
        self, text, noi, kind, names, product
    ):
        # kept as a ShapeError, so CLI inputs of this shape still exit 2,
        # though the normalized tree is a flat chain the reader accepts
        e = parse(text)
        with pytest.raises(ShapeError, match=f"got {kind}"):
            _read(e, noi)
        flat = normalize_not(e)
        assert flat == parse(text.replace("!!", ""))
        products = (tuple(map(parse, product)),)
        assert _read(flat, noi) == (tuple(names), products)

    @pytest.mark.parametrize("text, noi, products", [
        ("!!(A @ !!!B | !!C)", False, ((A, B), (C,))),
        ("!!!(A -> !!B) ", True, ((A, Not(B)),)),
        ("!!!(!!(A -> !1) & !!!0)", True, ((A,),)),
        ("A @ !!!0 | B", False, ((B,),)),
        ("!!!!1", True, ((),)),
        ("!!!1", False, ()),
    ])
    def test_stacked_negations_fold(self, text, noi, products):
        assert _read(parse(text), noi)[1] == products

    @pytest.mark.parametrize("text, noi, message", [
        ("!!!(A @ B)", False, "got Not"),
        ("!(A | !!(B @ C))", True, "got Or"),
        ("A @ !!(B | C)", False, "got Or"),
        ("!!!(A -> !!!(B -> C))", True, "got Not"),
    ])
    def test_stacked_negations_of_the_wrong_shape(self, text, noi, message):
        e = parse(text)
        with pytest.raises(ShapeError, match=message):
            _read(e, noi)
        assert _read_outcome(e, noi) == _read_outcome(normalize_not(e), noi)

    # operands a literal reads past (None) or refuses (the error's node)
    _OPERANDS = {
        "double Not": (Not(Not(B)), None),
        "Not 0": (Not(Const(0)), None),
        "Not 1": (Not(Const(1)), None),
        "triple Not": (Not(Not(Not(B))), None),
        "triple Not over a chain": (Not(Not(Not(IandChain((B, C))))), "Not"),
        "IAND chain": (IandChain((B, C)), "IandChain"),
        "IMPLY chain": (ImplyChain((B, C)), "ImplyChain"),
    }

    @pytest.mark.parametrize("noi", [False, True])
    @pytest.mark.parametrize("at", [0, 1, 2])
    @pytest.mark.parametrize("kind", list(_OPERANDS))
    def test_operand_at_head_middle_and_tail(self, noi, at, kind):
        operand, refused = self._OPERANDS[kind]
        chain = ImplyChain if noi else IandChain
        ops = [A, Not(C), B]
        ops[at] = operand
        terms = (Not(C), chain(tuple(ops)), chain((C, Not(A))))
        e = Not(And(terms)) if noi else Or(terms)
        got = _read_outcome(e, noi)
        assert got == _read_outcome(normalize_not(e), noi)
        # a chain at its own associative end is spliced by its constructor
        spliced = type(operand) is chain and at == (2 if noi else 0)
        if refused is None or spliced:
            assert got[0] is not ShapeError
        else:
            assert got == (
                ShapeError,
                f"canon: chain operands must be literals, got {refused}",
            )


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
