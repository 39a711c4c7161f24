"""Grammar: precedence, chain grouping, and the @ / -> mixing guard."""

from __future__ import annotations

import random
import re
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asymlogic.canon import _decoded, cube_form, noi_form, soi_form
from asymlogic.errors import ParseError
from asymlogic.expr import (
    BINARY_OPERATORS,
    And,
    Const,
    IandChain,
    ImplyChain,
    Not,
    Or,
    Var,
    children,
    format_expr,
    iter_subexpressions,
)
from asymlogic.laws import simplify
from asymlogic.parser import MAX_NESTING, parse
from asymlogic.semantics import equivalent, truth_table

from .helpers import one_chain_tree, reference_parse, reference_regex_parse
from .strategies import expressions, nested_chains

A, B, C, D = Var("A"), Var("B"), Var("C"), Var("D")


class TestAtoms:
    def test_constants_and_names(self):
        assert parse("0") == Const(0)
        assert parse("1") == Const(1)
        assert parse("carry_out") == Var("carry_out")
        assert parse("( A )") == A

    def test_name_cannot_start_with_digit(self):
        with pytest.raises(ParseError, match="name cannot start with a digit"):
            parse("0abc")
        with pytest.raises(ParseError):
            parse("10")


class TestPrecedence:
    @pytest.mark.parametrize(
        "text, expected",
        [
            ("!A & B", And((Not(A), B))),
            ("A & B @ C", IandChain((And((A, B)), C))),
            ("A @ B | C", Or((IandChain((A, B)), C))),
            ("A | B -> C", ImplyChain((Or((A, B)), C))),
            ("!A @ !B", IandChain((Not(A), Not(B)))),
            ("A & (B | C)", And((A, Or((B, C))))),
            ("!(A @ B)", Not(IandChain((A, B)))),
        ],
    )
    def test_binding_order(self, text, expected):
        assert parse(text) == expected

    def test_chains_group_flat(self):
        assert parse("A @ B @ C @ D") == IandChain((A, B, C, D))
        assert parse("A -> B -> C -> D") == ImplyChain((A, B, C, D))

    def test_explicit_grouping_is_preserved(self):
        assert parse("A @ (B @ C)") == IandChain((A, IandChain((B, C))))
        assert parse("(A @ B) @ C") == IandChain((A, B, C))
        assert parse("(A -> B) -> C") == ImplyChain((ImplyChain((A, B)), C))
        assert parse("A -> (B -> C)") == ImplyChain((A, B, C))

    def test_variadic_and_or(self):
        assert parse("A & B & C") == And((A, B, C))
        assert parse("A | B | C") == Or((A, B, C))


class TestMixingGuard:
    def test_mixing_is_rejected_with_hint(self):
        with pytest.raises(ParseError) as exc:
            parse("A @ B -> C")
        assert "cannot mix '@' and '->'" in str(exc.value)
        assert "add parentheses" in str(exc.value)
        assert exc.value.position == 6

    def test_mixing_rejected_on_right_side_too(self):
        with pytest.raises(ParseError):
            parse("A -> B @ C")

    def test_mixing_rejected_through_or(self):
        # '|' binds tighter than '->', so the '@' is still at arrow level
        with pytest.raises(ParseError):
            parse("A @ B | C -> D")

    def test_parentheses_resolve_mixing(self):
        assert parse("(A @ B) -> C") == ImplyChain((IandChain((A, B)), C))
        assert parse("A @ (B -> C)") == IandChain((A, ImplyChain((B, C))))
        assert parse("(A @ B | C) -> D") == ImplyChain(
            (Or((IandChain((A, B)), C)), D)
        )


class TestErrors:
    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("", "unexpected end of input"),
            ("A &", "unexpected end of input"),
            ("(A | B", "expected ')'"),
            ("A)", "trailing input"),
            ("A $ B", "unexpected character"),
            ("A - B", "expected '->' after '-'"),
            ("A B", "trailing input"),
        ],
    )
    def test_messages(self, text, fragment):
        with pytest.raises(ParseError, match=re.escape(fragment)):
            parse(text)

    def test_position_is_reported(self):
        with pytest.raises(ParseError) as exc:
            parse("A & $")
        assert exc.value.position == 4

    def test_token_error_wins_over_an_earlier_grammar_error(self):
        # every token is checked before the grammar is, wherever it stands
        with pytest.raises(ParseError) as exc:
            parse("A ) 0abc")
        assert "name cannot start with a digit" in str(exc.value)
        assert exc.value.position == 4

    @pytest.mark.parametrize("text, char, position", [
        ("a\u00e9", "\u00e9", 1),
        ("\u00e9 & A", "\u00e9", 0),
        ("A & \u00b2", "\u00b2", 4),
        ("\u0663x", "\u0663", 0),
        ("x\uff41", "\uff41", 1),
    ])
    def test_non_ascii_letters_and_digits(self, text, char, position):
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert str(exc.value) == (
            f"unexpected character {char!r} (at position {position})"
        )

    def test_unicode_spaces_separate_tokens(self):
        assert parse("A\u00a0&\u2003B") == And((A, B))


def _nested(depth: int, opener: str) -> str:
    closer = ")" if opener == "(" else ""
    return opener * depth + "A" + closer * depth


class TestNestingBound:
    """An atom may stand inside at most MAX_NESTING parentheses and '!'
    together; the token that crosses the bound is the error."""

    @pytest.mark.parametrize("opener", ["(", "!"])
    def test_at_the_bound(self, opener):
        e = parse(_nested(MAX_NESTING, opener))
        assert truth_table(e).variables == ("A",)
        assert parse(format_expr(e)) == e

    @pytest.mark.parametrize("opener", ["(", "!"])
    def test_one_past_the_bound(self, opener):
        with pytest.raises(ParseError) as exc:
            parse(_nested(MAX_NESTING + 1, opener))
        assert exc.value.position == MAX_NESTING
        assert f"nesting deeper than {MAX_NESTING}" in str(exc.value)

    def test_parentheses_and_negations_count_together(self):
        # each level is '!(' and one more '!' crosses the bound
        half = MAX_NESTING // 2
        assert parse("!(" * half + "A" + ")" * half)
        with pytest.raises(ParseError) as exc:
            parse("!(" * half + "!A" + ")" * half)
        assert exc.value.position == MAX_NESTING

    def test_nesting_is_per_atom_not_per_text(self):
        # siblings each at the bound: the depth returns after ')'
        deep = _nested(MAX_NESTING, "(")
        assert parse(f"{deep} & {deep} | !{_nested(MAX_NESTING - 1, '!')}")

    def test_a_worst_case_at_the_bound(self):
        # 25 nestings of four levels each: three '(' and one '!'
        text = "t"
        for _ in range(MAX_NESTING // 4):
            text = f"(((!{text} & x) @ x) | x -> x)"
        e = parse(text)
        assert parse(format_expr(e)) == e
        assert truth_table(e).variables == ("t", "x")
        assert equivalent(simplify(e).expression, e)
        with pytest.raises(ParseError) as exc:
            parse(f"(((!{text} & x) @ x) | x -> x)")
        assert exc.value.position == MAX_NESTING  # each level is one char


class TestSharedNegations:
    def test_one_not_per_negated_name(self):
        e = parse("!a & !a | !b @ !a")
        (first, second), chain = e.children[0].children, e.children[1]
        assert first is second
        assert chain.operands[1] is first
        assert first == Not(Var("a"))

    def test_one_var_per_name_under_any_negation(self):
        e = parse("a & !a & !!a & !(a)")
        a = e.children[0]
        assert e.children[1].child is a
        assert e.children[2].child.child is a
        assert e.children[3].child is a


class TestRoundTrip:
    @given(expressions())
    def test_parse_inverts_format(self, e):
        assert parse(format_expr(e)) == e

    def test_raw_nested_chain_reflattens(self):
        # a trailing nested IMPLY chain is the same right-pairing, so the
        # printed form parses back to the canonical flat chain
        raw = ImplyChain((A, ImplyChain((B, C))))
        assert parse(format_expr(raw)) == ImplyChain((A, B, C))
        raw2 = IandChain((IandChain((A, B)), C))
        assert parse(format_expr(raw2)) == IandChain((A, B, C))
        # the constructors flatten too, so the raw trees are the flat ones
        assert raw == ImplyChain((A, B, C))
        assert raw2 == IandChain((A, B, C))

    @given(nested_chains())
    def test_parse_inverts_format_on_nested_chains(self, e):
        assert one_chain_tree(e)
        assert parse(format_expr(e)) == e

    def test_whitespace_insensitivity(self):
        assert parse("A@B|!C") == parse(" A  @ B |  ! C ")


# Operators, a lone '-', digits next to names, ASCII and Unicode spaces, and
# Unicode letters, digits and numerics, which are unexpected characters:
# each hits a different tokenizer path.
_PIECES = (
    "!", "!!", "&", "@", "|", "(", ")", "->", "-", ">", "$",
    "0", "1", "A", "b_2", "_x", " ", "\t", "\u00a0",
    "\u00e9", "\uff41", "\u00b2", "\u0663", "\u00bd",
)


def _outcome(parser, text):
    """The tree, or the error's type, message and position."""
    try:
        return parser(text)
    except Exception as exc:  # the error itself is the outcome compared
        return type(exc), str(exc), getattr(exc, "position", None)


class TestMatchesReference:
    """The regex tokenizer and the operator-table loop against a copy of the
    character-by-character tokenizer and the descent they replaced."""

    @pytest.mark.parametrize("text", [
        "0A", "1_", "01", "A - B", "A -", "A\u00a0&\tB", "\u00e9 & A",
        "\uff41", "A & \u00b2", "\u0663x", "A | \u00bd", "\u00bdA",
        "A0 @ B", "!!!(A)", "!", ")", "(A", "A ->", "A @ B ->", "A @ B -> )",
        "A -> B @ )", "(A @ B) -> C @ D", "A -> (B @ C) -> D @ E",
    ])
    def test_edge_cases(self, text):
        assert _outcome(parse, text) == _outcome(reference_parse, text)

    @settings(max_examples=1000)
    @given(st.lists(st.sampled_from(_PIECES), max_size=16).map("".join))
    def test_piece_strings(self, text):
        assert _outcome(parse, text) == _outcome(reference_parse, text)

    @given(expressions())
    def test_formatted_expressions(self, e):
        text = format_expr(e)
        assert parse(text) == reference_parse(text)

    @settings(max_examples=500)
    @given(expressions(), st.sampled_from(_PIECES), st.data())
    def test_one_piece_inserted(self, e, piece, data):
        # grammar and mixing errors inside otherwise well-formed text
        text = format_expr(e)
        i = data.draw(st.integers(0, len(text)))
        text = text[:i] + piece + text[i:]
        assert _outcome(parse, text) == _outcome(reference_parse, text)

    @pytest.mark.parametrize("x, y", permutations(
        [text for text, _ in BINARY_OPERATORS], 2
    ))
    def test_two_operators(self, x, y):
        text = f"A {x} B {y} C"
        outcome = _outcome(parse, text)
        assert outcome == _outcome(reference_parse, text)
        if {x, y} == {"@", "->"}:
            assert outcome[0] is ParseError and "cannot mix" in outcome[1]
        else:
            assert parse(format_expr(outcome)) == outcome


# the pieces where a padded split and a regex scan could part: a '-' and a
# '>' apart or together, a letter and a space outside ASCII, a separator
# control character, a digit-led word and a stray character
_SPLIT_PIECES = (
    "-", ">", "- >", "->", "\u00e9", "\x1c", "\u00a0", "1a", "$",
    "a", "b_1", "0", "1", "!", "&", "@", "|", "(", ")", " ",
)


class TestTokenizer:
    """The padded ``split`` against the regex scan the error path uses:
    the same tree, or the same error type, message and position."""

    def test_every_code_point_as_a_separator_and_after_not(self):
        # each space, and each code point below U+3000, where all but one
        # of the spaces are
        chars = {chr(c) for c in range(0x3000)}
        chars.update(ch for ch in map(chr, range(0x110000)) if ch.isspace())
        for ch in sorted(chars):
            for text in (f"a{ch}b", f"a{ch}&{ch}b", f"!{ch}a"):
                assert (_outcome(parse, text)
                        == _outcome(reference_regex_parse, text)), text

    def test_seeded_strings(self):
        rng = random.Random(29)
        for _ in range(20_000):
            text = "".join(rng.choices(_SPLIT_PIECES, k=rng.randint(1, 10)))
            assert (_outcome(parse, text)
                    == _outcome(reference_regex_parse, text)), text

    def test_regex_scan_matches_the_character_reference(self):
        for text in ("a->b", "a - > b", "!\u00e9", "1a & b", "a\x1c&\x1cb"):
            assert (_outcome(reference_regex_parse, text)
                    == _outcome(reference_parse, text))


def _one_node_per_atom(e):
    """Whether ``e`` holds one ``Var`` per name and one ``Not`` per name
    negated once, and each such ``Not`` holds its name's ``Var``."""
    nodes = {}
    for _, n in iter_subexpressions(e):
        if type(n) is Var:
            key = n.name
        elif type(n) is Not and type(n.child) is Var:
            key = "!" + n.child.name
        else:
            continue
        if nodes.setdefault(key, n) is not n:
            return False
    return all(n.child is nodes[k[1:]] for k, n in nodes.items() if k[0] == "!")


def _random_products(seed, n, cubes):
    """``cubes`` seeded products over ``n`` variables, 2 to 6 literals each."""
    rng = random.Random(seed)
    pairs = []
    for _ in range(cubes):
        care = sum(1 << b for b in rng.sample(range(n), rng.randint(2, 6)))
        pairs.append((rng.getrandbits(n), care))
    return _decoded(cube_form(tuple(f"x{i}" for i in range(n)), pairs))


class TestAtWorkloadScale:
    """Two-level texts at the sizes the compilers take, long runs of each
    operator and a text at the nesting bound, against the reference."""

    @pytest.mark.parametrize("form", [soi_form, noi_form])
    @pytest.mark.parametrize("seed, n, cubes", [
        (1, 8, 16), (2, 10, 64), (3, 12, 128), (4, 16, 512),
    ])
    def test_two_level_texts(self, form, seed, n, cubes):
        text = format_expr(form(_random_products(seed, n, cubes)))
        e = parse(text)
        assert e == reference_parse(text)
        assert _one_node_per_atom(e)

    @pytest.mark.parametrize("op, node", BINARY_OPERATORS)
    def test_long_runs(self, op, node):
        operands = [f"x{k % 97}" if k % 3 else f"!x{k % 89}"
                    for k in range(20_000)]
        text = f" {op} ".join(operands)
        e = parse(text)
        assert type(e) is node and len(children(e)) == 20_000
        assert e == reference_parse(text)
        assert _one_node_per_atom(e)

    @pytest.mark.parametrize("text", [
        "(" * MAX_NESTING + "A" + ")" * MAX_NESTING,
        "!" * MAX_NESTING + "A",
        "!(" * (MAX_NESTING // 2) + "A @ B" + ")" * (MAX_NESTING // 2),
        "(" * (MAX_NESTING - 1) + "!A -> (B @ A)" + ")" * (MAX_NESTING - 1),
    ])
    def test_at_the_nesting_bound(self, text):
        e = parse(text)
        assert e == reference_parse(text)
        assert _one_node_per_atom(e)
