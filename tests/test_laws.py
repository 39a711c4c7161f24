"""Law catalog verification, pattern rewriting, simplify, and duals."""

from __future__ import annotations

import json
import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from asymlogic import laws
from asymlogic.errors import NoMatchError, ShapeError
from asymlogic.expr import (
    And,
    Const,
    Expr,
    IandChain,
    ImplyChain,
    Not,
    Or,
    Var,
    format_expr,
    iter_subexpressions,
    literal_count,
    normalize_not,
    subexpr_at,
    variables,
)
from asymlogic.laws import (
    Rule,
    _can_reduce,
    _literal_delta,
    catalog,
    classical_rules,
    demonstrations,
    demorgan_dual_expr,
    dual,
    export_report,
    match_pattern,
    rewrite_once,
    simplify,
    substitute,
    verify_rule,
    verify_rules,
)
from asymlogic.parser import parse
from asymlogic.semantics import (
    classical_dual_tt,
    equivalent,
    truth_table,
)

from .helpers import (
    assignments,
    cyclic_garbage,
    naive_eval,
    one_chain_tree,
    reference_dual,
    reference_format_expr,
    reference_match_pattern,
    reference_replace_at,
    reference_simplify,
    reference_substitute,
)
from .strategies import (
    expressions,
    noi_exprs_with_constants,
    soi_exprs_with_constants,
    stacked_nots,
)

A, B, C = Var("A"), Var("B"), Var("C")


class TestCatalog:
    def test_size_and_uniqueness(self):
        rules = catalog()
        assert len(rules) == 89
        names = [r.name for r in rules]
        assert len(set(names)) == len(names)

    def test_every_rule_proven(self):
        start = time.monotonic()
        reports = verify_rules(catalog() + classical_rules())
        elapsed = time.monotonic() - start
        refuted = [r.name for r in reports if r.status != "Proven"]
        assert refuted == []
        assert elapsed < 5.0

    def test_rows_hold_the_canonical_spelling(self):
        # each side of a row is written as format_expr prints its parse, and
        # a row marked "=" is the one that also gave the "-rev" rule
        rules = catalog() + classical_rules() + demonstrations()
        by_name = {r.name: r for r in rules}
        rows = laws._CATALOG + laws._CLASSICAL + laws._DEMONSTRATIONS
        for row in rows:
            name, _, equation, *_ = row.split("; ")
            rule = by_name[name]
            mark = "=" if f"{name}-rev" in by_name else "=>"
            assert equation == (
                f"{format_expr(rule.lhs)} {mark} {format_expr(rule.rhs)}"
            ), name
        reversed_ = sum(1 for row in rows if " = " in row)
        assert len(rules) == len(rows) + reversed_ == 108

    def test_rows_field_counts_assignments(self):
        by_name = {r.name: r for r in verify_rules(catalog())}
        assert by_name["annulment-iand-right"].rows == 2
        assert by_name["non-inverting-assoc-iand"].rows == 8

    @pytest.mark.parametrize("rule", catalog(), ids=lambda r: r.name)
    def test_against_naive_oracle(self, rule):
        names: dict[str, None] = {}
        for v in variables(rule.lhs) + variables(rule.rhs):
            names.setdefault(v, None)
        for env in assignments(tuple(names)):
            assert naive_eval(rule.lhs, env) == naive_eval(rule.rhs, env), (
                rule.name,
                env,
            )

    def test_families_present(self):
        names = {r.name for r in catalog()}
        for expected in (
            "inversion-iand",
            "asymmetric-commutation-imply",
            "inverting-assoc-iand-cycle",
            "distributive-law-iv-imply-chain",
            "demorgan-or-to-iand",
            "conversion-iand-to-imply-3",
        ):
            assert expected in names

    def test_classical_rules_separate(self):
        classical = {r.name for r in classical_rules()}
        assert "and-identity" in classical
        assert classical.isdisjoint({r.name for r in catalog()})
        assert all(
            r.citation == "conventional Boolean algebra"
            for r in classical_rules()
        )


class TestDemonstrations:
    def test_expected_outcomes(self):
        outcomes = {r.name: (r.expect, verify_rule(r)) for r in demonstrations()}
        exp, rep = outcomes["conventional-non-associativity-iand"]
        assert exp == "refuted" and rep.status == "Refuted"
        assert rep.counterexample == {"A": 1, "B": 0, "C": 1}
        exp, rep = outcomes["duality-procedure-imply-chain"]
        assert exp == "proven" and rep.status == "Proven"
        exp, rep = outcomes["duality-printed-or-form-imply-chain"]
        assert exp == "refuted" and rep.status == "Refuted"
        assert rep.counterexample == {"A": 0, "B": 0, "C": 0}

    def test_demonstrations_not_in_catalog(self):
        demo_names = {r.name for r in demonstrations()}
        assert demo_names.isdisjoint({r.name for r in catalog()})


class TestRuleValidation:
    def test_rhs_metavariables_must_appear_in_lhs(self):
        with pytest.raises(ValueError):
            Rule("bad", "none", A, B)

    def test_expect_field_validated(self):
        with pytest.raises(ValueError):
            Rule("bad", "none", A, A, expect="maybe")


class TestReportExport:
    def test_jsonl_records(self):
        reports = verify_rules(catalog()[:3])
        text = export_report(reports)
        lines = text.strip().split("\n")
        assert len(lines) == 3
        for line in lines:
            record = json.loads(line)
            assert set(record) == {"name", "citation", "status", "rows"}
            assert record["status"] == "Proven"

    def test_refuted_record_carries_counterexample(self):
        rule = Rule("fake-commutation", "none", IandChain((A, B)),
                    IandChain((B, A)), expect="refuted")
        record = json.loads(export_report([verify_rule(rule)]).strip())
        assert record["status"] == "Refuted"
        assert record["counterexample"] == {"A": 0, "B": 1}


class TestMatching:
    def test_metavariables_match_subexpressions(self):
        pattern = IandChain((A, B))
        subject = IandChain((Or((Var("x"), Var("y"))), Var("z")))
        binding = match_pattern(pattern, subject)
        assert binding == {"A": Or((Var("x"), Var("y"))), "B": Var("z")}

    def test_repeated_metavariable_requires_equality(self):
        pattern = IandChain((A, A))
        assert match_pattern(pattern, IandChain((Var("p"), Var("p")))) is not None
        assert match_pattern(pattern, IandChain((Var("p"), Var("q")))) is None

    def test_complement_binding(self):
        # A @ !A matches !p @ p by binding A to !p
        pattern = IandChain((A, Not(A)))
        subject = IandChain((Not(Var("p")), Var("p")))
        binding = match_pattern(pattern, subject)
        assert binding == {"A": Not(Var("p"))}

    def test_complement_binding_normalizes_any_subject(self):
        # the complement of !!p & q is !(p & q), equal to the first operand;
        # Not(subject) alone would be !(!!p & q) and miss the match
        p, q = Var("p"), Var("q")
        subject = IandChain((Not(And((p, q))), And((Not(Not(p)), q))))
        want = {"A": Not(And((p, q)))}
        assert match_pattern(parse("A @ !A"), subject) == want
        assert reference_match_pattern(parse("A @ !A"), subject) == want

    def test_arity_must_agree(self):
        assert match_pattern(IandChain((A, B)), IandChain((A, B, C))) is None
        assert match_pattern(And((A, B)), And((A, B, C))) is None

    def test_operator_must_agree(self):
        assert match_pattern(IandChain((A, B)), ImplyChain((A, B))) is None

    def test_substitute_uses_smart_chain_constructors(self):
        binding = {"A": IandChain((Var("x"), Var("y"))), "B": Var("z")}
        out = substitute(IandChain((A, B)), binding)
        assert out == IandChain((Var("x"), Var("y"), Var("z")))


class TestRewriteOnce:
    def test_applies_at_position(self):
        e = Or((IandChain((Var("p"), Const(1))), Var("q")))
        rule = next(r for r in catalog() if r.name == "annulment-iand-right")
        out = rewrite_once(e, rule, (0,))
        assert out == Or((Const(0), Var("q")))

    def test_no_match_raises(self):
        rule = next(r for r in catalog() if r.name == "annulment-iand-right")
        with pytest.raises(NoMatchError):
            rewrite_once(And((A, B)), rule, ())

    def test_bad_position_raises_no_match(self):
        rule = next(r for r in catalog() if r.name == "annulment-iand-right")
        with pytest.raises(NoMatchError):
            rewrite_once(A, rule, (3, 3))

    def test_result_is_normalized(self):
        # inversion: 1 @ p rewrites to !p; with p = !x the result folds to x
        rule = next(r for r in catalog() if r.name == "inversion-iand")
        out = rewrite_once(IandChain((Const(1), Not(Var("x")))), rule, ())
        assert out == Var("x")


class TestSimplify:
    def test_inverse_idempotency_example(self):
        result = simplify(parse("A @ !A"))
        assert result.expression == A
        assert [s.rule for s in result.steps] == ["inverse-idempotency-i-iand"]

    def test_annulment_then_identity_example(self):
        result = simplify(parse("(A @ 1) | B"))
        assert result.expression == B
        assert [s.rule for s in result.steps] == [
            "annulment-iand-right",
            "or-identity-left",
        ]

    def test_tautology_example(self):
        result = simplify(parse("A -> A"))
        assert result.expression == Const(1)
        assert [s.rule for s in result.steps] == ["null-idempotency-imply"]

    def test_budget_zero_means_no_rewrites(self):
        result = simplify(parse("A @ !A"), budget=0)
        assert result.expression == parse("A @ !A")
        assert result.steps == ()

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            simplify(A, budget=-1)

    def test_leaves_no_cyclic_garbage(self):
        e = parse("(a @ a) | (b -> 1) | (!c & c) | (d @ !d)")
        for rules in (None, catalog()):
            assert simplify(e, rules).steps
            assert cyclic_garbage(simplify, e, rules) == 0

    def test_leftmost_site_wins_ties(self):
        result = simplify(parse("(A @ A) | (B @ B)"))
        assert result.steps[0].position == (0,)

    def test_only_strict_literal_reductions(self):
        for step_prev, step in zip(
            [parse("(A @ 1) | (B -> B)")]
            + [s.result for s in simplify(parse("(A @ 1) | (B -> B)")).steps],
            simplify(parse("(A @ 1) | (B -> B)")).steps,
        ):
            assert literal_count(step.result) < literal_count(step_prev)

    @given(expressions(max_leaves=8))
    def test_preserves_function(self, e):
        result = simplify(e, budget=16)
        assert equivalent(e, result.expression)

    @given(expressions(max_leaves=8))
    def test_never_increases_literal_count(self, e):
        result = simplify(e, budget=16)
        assert literal_count(result.expression) <= literal_count(e)


RULE_SETS = {
    "default": None,
    "catalog": catalog(),
    "classical": classical_rules(),
    "demonstrations": demonstrations(),
}
BUDGETS = (0, 1, 3, 64)
CARRY_BUDGETS = (1, 3, 64)


def _planted_or(rng: random.Random, n: int, terms: int) -> Expr:
    """An OR of irreducible binary terms and planted redundancies such as
    ``x @ x`` or ``x -> 1``, with ``x`` a literal or a binary term."""
    names = [Var(f"v{i}") for i in range(n)]

    def literal() -> Expr:
        v = rng.choice(names)
        return Not(v) if rng.random() < 0.5 else v

    def binary() -> Expr:
        kind = rng.choice((IandChain, ImplyChain, And))
        return kind((literal(), literal()))

    planted = (
        lambda x: IandChain((x, x)),
        lambda x: IandChain((x, Const(0))),
        lambda x: IandChain((Const(1), x)),
        lambda x: ImplyChain((x, Const(1))),
        lambda x: And((x, Const(1))),
        lambda x: Or((x, Const(0))),
        lambda x: ImplyChain((x, x)),
        lambda x: ImplyChain((x, Const(0))),
        lambda x: And((x, x)),
        lambda x: IandChain((x, Not(x))),
    )
    kids = []
    for j in range(terms):
        if j % 2:
            kids.append(binary())
        else:
            x = binary() if j % 4 else literal()
            kids.append(normalize_not(rng.choice(planted)(x)))
    rng.shuffle(kids)
    return Or(tuple(kids))


class TestSimplifyMatchesReference:
    """The binding-scored search against the whole-tree rebuild it
    replaced: same expression, same steps."""

    @pytest.mark.parametrize("rules", RULE_SETS.values(), ids=RULE_SETS)
    @settings(deadline=None)
    @given(
        st.one_of(
            expressions(),
            soi_exprs_with_constants,
            noi_exprs_with_constants,
        )
    )
    def test_generated_expressions(self, rules, e):
        for budget in BUDGETS:
            assert simplify(e, rules, budget) == reference_simplify(
                e, rules, budget
            )

    @given(expressions(max_leaves=6))
    def test_bare_metavariable_lhs(self, x):
        # such an lhs matches every node; this rule holds only on
        # tautologies, so it is applied to x | !x
        rules = (Rule("collapse", "tautologies", A, Const(1)),)
        rules += classical_rules()
        e = Or((x, Not(x)))
        for budget in (1, 64):
            assert simplify(e, rules, budget) == reference_simplify(
                e, rules, budget
            )

    @given(expressions(max_leaves=6))
    def test_negated_metavariable_lhs(self, x):
        # ``!A`` binds the complement of any node that is not a Not, so it
        # matches every node too; this rule holds only on contradictions,
        # so it is applied to x @ x
        rules = (Rule("contradiction", "contradictions", Not(A), Const(0)),)
        e = IandChain((x, x))
        for budget in (1, 64):
            result = simplify(e, rules, budget)
            assert result == reference_simplify(e, rules, budget)
            assert result.expression == Const(0)

    @pytest.mark.parametrize("n", [8, 12, 16])
    def test_planted_redundancy(self, n):
        rng = random.Random(n)
        for terms in (4, 5, 6):
            e = _planted_or(rng, n, terms)
            for budget in (3, 64):
                result = simplify(e, budget=budget)
                assert result == reference_simplify(e, budget=budget)
            assert result.steps  # the planted terms were found

    # simplify carries each node's matches between rounds by node identity;
    # these inputs put one node object at several paths

    # a proven rule whose rhs repeats A; "and-idempotent" would beat it
    SQUARE = (
        Rule("square", "test", parse("(A | 0) & (A | 0)"), parse("A & A")),
    ) + tuple(r for r in classical_rules() if r.name != "and-idempotent")

    @staticmethod
    def _squarable(x: Expr, y: Expr) -> Expr:
        # two equal operands (A | 0), distinct objects, inside an OR
        twin = Or((Or((x, Const(0))), Const(0)))
        return Or((And((Or((Or((x, Const(0))), Const(0))), twin)), y))

    def test_rhs_repeat_puts_one_object_at_two_paths(self):
        assert verify_rule(self.SQUARE[0]).status == "Proven"
        e = self._squarable(Var("p"), Var("q"))
        result = simplify(e, self.SQUARE, 64)
        assert result == reference_simplify(e, self.SQUARE, 64)
        first = result.steps[0]
        assert first.rule == "square"
        left, right = first.result.children[0].children
        assert left is right
        # the shared p | 0 is matched at both paths, or-identity at each,
        # and their parent, a new node, by square again
        assert [s.rule for s in result.steps] == ["square", "square"]

    @settings(deadline=None)
    @given(expressions(max_leaves=6), expressions(max_leaves=6))
    def test_rhs_repeating_a_metavariable(self, x, y):
        e = self._squarable(x, y)
        for budget in CARRY_BUDGETS:
            assert simplify(e, self.SQUARE, budget) == reference_simplify(
                e, self.SQUARE, budget
            )

    @pytest.mark.parametrize("rules", RULE_SETS.values(), ids=RULE_SETS)
    @settings(deadline=None)
    @given(expressions(max_leaves=6), expressions(max_leaves=6))
    def test_shared_subtrees(self, rules, x, y):
        e = Or((x, And((x, y)), x))
        for budget in CARRY_BUDGETS:
            assert simplify(e, rules, budget) == reference_simplify(
                e, rules, budget
            )

    @settings(deadline=None)
    @given(expressions())
    def test_no_state_between_calls(self, e):
        for rules in (None, None, classical_rules(), catalog()):
            for budget in CARRY_BUDGETS:
                assert simplify(e, rules, budget) == reference_simplify(
                    e, rules, budget
                )


    # the parser keeps one Not per name written with a single '!', so a
    # parsed tree holds that node at every such path

    def test_parsed_negations_are_shared(self):
        e = parse("!a & !a | (!a @ b) | !a -> !b & !a")
        negs = [n for _, n in iter_subexpressions(e) if n == Not(Var("a"))]
        assert len(negs) == 5 and all(n is negs[0] for n in negs)
        for rules in RULE_SETS.values():
            for budget in CARRY_BUDGETS:
                assert simplify(e, rules, budget) == reference_simplify(
                    e, rules, budget
                )

    @pytest.mark.parametrize("rules", RULE_SETS.values(), ids=RULE_SETS)
    @settings(deadline=None)
    @given(expressions())
    def test_parsed_expressions(self, rules, e):
        e = parse(format_expr(e))
        for budget in CARRY_BUDGETS:
            assert simplify(e, rules, budget) == reference_simplify(
                e, rules, budget
            )

class TestStaticFilter:
    RULES = catalog() + classical_rules()

    def test_drops_the_rules_that_cannot_cut_literals(self):
        dropped = [
            r for r in self.RULES if not _can_reduce(*_literal_delta(r))
        ]
        assert len(self.RULES) == 105 and len(dropped) == 71
        names = {r.name for r in dropped}
        assert "asymmetric-commutation-iand" in names
        assert "non-inverting-assoc-imply" in names
        assert "identity-iand-rev" in names
        assert "identity-iand" not in names

    @settings(max_examples=50)
    @given(st.lists(expressions(max_leaves=6), min_size=3, max_size=3))
    def test_delta_from_binding(self, values):
        binding = dict(zip("ABC", values))
        for rule in self.RULES:
            const, weights = _literal_delta(rule)
            got = const + sum(
                w * literal_count(binding[m]) for m, w in weights
            )
            want = literal_count(substitute(rule.rhs, binding))
            want -= literal_count(substitute(rule.lhs, binding))
            assert got == want, rule.name

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(expressions(max_leaves=6), min_size=3, max_size=3),
        expressions(),
    )
    def test_rewrites_add_the_delta(self, values, e):
        # what simplify relies on: the delta is exact under every match,
        # complement bindings included, and a dropped rule never cuts
        nodes = [node for _, node in iter_subexpressions(e)]
        for rule in self.RULES:
            const, weights = _literal_delta(rule)
            own = substitute(rule.lhs, dict(zip("ABC", values)))
            for subject in [normalize_not(own), *nodes]:
                binding = match_pattern(rule.lhs, subject)
                if binding is None:
                    continue
                delta = literal_count(rewrite_once(subject, rule, ()))
                delta -= literal_count(subject)
                assert delta == const + sum(
                    w * literal_count(binding[m]) for m, w in weights
                ), rule.name
                if not _can_reduce(const, weights):
                    assert delta >= 0, rule.name


class TestDual:
    @pytest.mark.parametrize(
        "text, expected",
        [
            ("A @ B @ C", "A | !B | !C"),
            ("A -> B -> C", "!A & !B & C"),
            ("A & 0", "A | 1"),
            ("A | B", "A & B"),
            ("!A", "!A"),
            ("A @ B", "A | !B"),
            ("A -> B", "!A & B"),
        ],
    )
    def test_examples(self, text, expected):
        assert format_expr(dual(parse(text))) == expected

    @given(expressions())
    def test_table_level_agreement(self, e):
        names = variables(e)
        if not names:
            return
        t = truth_table(e, names)
        assert truth_table(dual(e), names).bits == classical_dual_tt(t).bits

    @given(expressions())
    def test_involution_up_to_table(self, e):
        names = variables(e)
        if not names:
            return
        t = truth_table(e, names)
        assert truth_table(dual(dual(e)), names).bits == t.bits

    def test_oracle_rejects_wrong_dual(self, monkeypatch):
        monkeypatch.setattr(laws, "_dual", lambda e: e)
        with pytest.raises(AssertionError, match="dual"):
            dual(parse("A @ B"))

    def test_beyond_table_cap(self):
        e = Or(tuple(Var(f"x{i}") for i in range(30)))
        assert dual(e) == And(e.children)


_ALL_RULES = catalog() + classical_rules()
_TREES = st.one_of(
    expressions(), soi_exprs_with_constants, noi_exprs_with_constants
)


class TestTreeWalksMatchReference:
    """The ``children``/``rebuild`` walks against copies of the per-type
    ``match`` code they replaced."""

    @given(_TREES)
    def test_format_and_dual(self, e):
        assert format_expr(e) == reference_format_expr(e)
        d = dual(e)
        assert d == reference_dual(e)
        assert format_expr(d) == reference_format_expr(reference_dual(e))

    @settings(deadline=None)
    @given(_TREES)
    @example(parse("!(p & q) @ (!!p & q)"))  # complement of a non-normal node
    def test_every_rule_at_every_subtree(self, e):
        for _, node in iter_subexpressions(e):
            for rule in _ALL_RULES:
                binding = match_pattern(rule.lhs, node)
                assert binding == reference_match_pattern(rule.lhs, node)
                if binding is None:
                    continue
                new = substitute(rule.rhs, binding)
                assert new == reference_substitute(rule.rhs, binding)


def _rule(name: str) -> Rule:
    return next(r for r in _ALL_RULES if r.name == name)


class TestRuleIndex:
    """The rules ``simplify`` tries on a node, narrowed by the node's root
    type and the kind of each operand."""

    RULES = _ALL_RULES + demonstrations()
    # every rule, scored alike, so that none is dropped before narrowing
    INDEX = laws._Index((rule, 0, ()) for rule in RULES)

    @settings(deadline=None)
    @given(_TREES)
    @example(parse("(!p @ p) | (p -> !p) | !p & p"))  # complement-bound !A
    @example(parse("(p @ 1) | (0 @ p) | (1 -> p) | p & 0 | 1 | p"))
    @example(parse("!(a @ b @ c) | (a @ b) & c | (a -> b | c) | (a | b) @ c"))
    def test_narrowing_drops_no_match(self, e):
        for _, node in iter_subexpressions(e):
            tried = {s[0].name for s in self.INDEX.rules(node)}
            for rule in self.RULES:
                if match_pattern(rule.lhs, node) is not None:
                    assert rule.name in tried, (rule.name, format_expr(node))

    def test_operand_kinds_narrow_the_list(self):
        index = laws._default_index()
        tried = {s[0].name for s in index.rules(parse("p @ q"))}
        assert "null-idempotency-iand" in tried
        # each needs a constant operand
        assert not tried & {"annulment-iand-right", "identity-iand"}
        tried = {s[0].name for s in index.rules(parse("p @ 1"))}
        assert "annulment-iand-right" in tried
        assert "identity-iand" not in tried


class TestPathLocalRewrite:
    """A rewrite normalizes only the substituted right side and peels each
    node rebuilt above it, which on a Not-normal tree is the whole tree's
    normalization; ``rewrite_once`` still normalizes any input whole."""

    @staticmethod
    def _whole(e: Expr, path, rule: Rule, binding) -> Expr:
        return normalize_not(
            reference_replace_at(e, path, substitute(rule.rhs, binding))
        )

    @settings(max_examples=50, deadline=None)
    @given(_TREES)
    def test_every_default_rule_at_every_match(self, e):
        e = normalize_not(e)
        for path, node in iter_subexpressions(e):
            for rule in _ALL_RULES:
                binding = match_pattern(rule.lhs, node)
                if binding is not None:
                    got = laws._rewrite(e, path, rule, binding)
                    assert got == self._whole(e, path, rule, binding)

    def test_double_negation_above_collapses(self):
        e = parse("(a & b) | !(1 @ p)")
        rule, path = _rule("inversion-iand"), (1, 0)  # 1 @ A => !A
        binding = match_pattern(rule.lhs, subexpr_at(e, path))
        got = laws._rewrite(e, path, rule, binding)
        assert got == parse("a & b | p") == self._whole(e, path, rule, binding)
        assert got.children[0] is e.children[0]  # off the path: kept

    def test_chain_in_the_leading_operand_flattens(self):
        e = parse("!(!a | b) @ c")
        rule, path = _rule("demorgan-or-to-iand"), (0,)  # !(A | B) => !A @ B
        binding = match_pattern(rule.lhs, subexpr_at(e, path))
        got = laws._rewrite(e, path, rule, binding)
        assert got == IandChain((Var("a"), Var("b"), Var("c")))
        assert got == self._whole(e, path, rule, binding)

    @settings(max_examples=50, deadline=None)
    @given(stacked_nots(expressions(max_leaves=6)))
    def test_rewrite_once_normalizes_any_input(self, e):
        for path, node in iter_subexpressions(e):
            for rule in _ALL_RULES:
                binding = match_pattern(rule.lhs, node)
                if binding is not None:
                    got = rewrite_once(e, rule, path)
                    assert got == self._whole(e, path, rule, binding)


class TestRewritesKeepOneTree:
    """A rewrite that puts a chain at its chain's associative end gives the
    flat chain, which prints as text that parses back to it."""

    def test_rewrite_into_the_leading_operand(self):
        rule = next(r for r in catalog() if r.name == "demorgan-or-to-iand")
        out = rewrite_once(parse("!(!a | b) @ c"), rule, (0,))
        assert out == IandChain((Var("a"), Var("b"), Var("c")))

    @settings(deadline=None)
    @given(_TREES)
    def test_every_rewrite_round_trips(self, e):
        for path, node in iter_subexpressions(e):
            for rule in _ALL_RULES:
                if match_pattern(rule.lhs, node) is not None:
                    out = rewrite_once(e, rule, path)
                    assert one_chain_tree(out)
                    assert parse(format_expr(out)) == out


class TestDemorganDualExpr:
    def test_chain_swap(self):
        assert demorgan_dual_expr(parse("A @ B @ C")) == parse("A -> B -> C")
        assert demorgan_dual_expr(parse("A -> B")) == parse("A @ B")

    def test_swapped_chain_is_flat(self):
        # (p @ q) -> x once gave the nested (p @ q) @ x
        out = demorgan_dual_expr(parse("(p @ q) -> x"))
        assert out == parse("p @ q @ x")
        assert parse(format_expr(out)) == out

    def test_rejects_non_chains(self):
        with pytest.raises(ShapeError):
            demorgan_dual_expr(And((A, B)))
        with pytest.raises(ShapeError):
            demorgan_dual_expr(A)
