"""Rewrite-rule catalog for the asymmetric operators, with verification.

The rules are rows of text in the concrete grammar, one table each for the
catalog, the classical helper rules and the demonstrations, and ``parse``
reads them on first use.  Every ``Var`` leaf inside a rule pattern is a
metavariable that matches an arbitrary subexpression.  A pattern is
compiled once, into one closure per node (``_matcher``), and both
``match_pattern`` and ``simplify`` run that matcher.  A rule is admitted
to the default catalog only if ``verify_rule`` proves it by exhaustive
enumeration, so the catalog doubles as a machine-checked law table.
Expected-negative exhibits (shapes that look like laws but are not) live
in ``demonstrations`` instead.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache, lru_cache
from operator import attrgetter
from typing import Callable, Iterable

from .errors import NoMatchError, ShapeError
from .expr import (
    And,
    Const,
    Expr,
    IandChain,
    ImplyChain,
    Not,
    NoPathError,
    Or,
    Path,
    Var,
    children,
    format_expr,
    iter_subexpressions,
    literal_count,
    negate,
    normalize_not,
    peel,
    rebuild,
    subexpr_at,
    variables,
)
from .parser import parse
from .semantics import Assignment, check_oracle, equivalent


@dataclass(frozen=True)
class Rule:
    """A directed rewrite ``lhs => rhs`` over metavariable patterns."""

    name: str
    citation: str
    lhs: Expr
    rhs: Expr
    expect: str = "proven"

    def __post_init__(self) -> None:
        unbound = set(variables(self.rhs)) - set(variables(self.lhs))
        if unbound:
            raise ValueError(
                f"laws: rule {self.name!r} has right-side metavariables "
                f"{sorted(unbound)} that the left side never binds"
            )
        if self.expect not in ("proven", "refuted"):
            raise ValueError(f"laws: bad expectation {self.expect!r}")

    def __repr__(self) -> str:
        return (
            f"Rule({self.name}: {format_expr(self.lhs)}"
            f" => {format_expr(self.rhs)})"
        )


@dataclass(frozen=True)
class RuleReport:
    """Outcome of exhaustively checking one rule."""

    name: str
    citation: str
    status: str
    rows: int
    counterexample: Assignment | None = None

    def record(self) -> dict:
        out: dict = {
            "name": self.name,
            "citation": self.citation,
            "status": self.status,
            "rows": self.rows,
        }
        if self.counterexample is not None:
            out["counterexample"] = dict(self.counterexample)
        return out


# One rule per row: ``name; citation; equation``, and a demonstration adds
# ``; expect``.  An equation ``lhs => rhs`` is one directed rule; ``lhs =
# rhs`` is a bidirectional one, read as the rule and its ``-rev`` twin.
# Both sides are in the concrete grammar, spelled as ``format_expr`` prints
# them, and every name is a metavariable.

_CATALOG = (
    # Constant annulment: both orientations exist for IAND, one for IMPLY.
    # The reverses would invent an unbound metavariable, so they are omitted.
    "annulment-iand-right; annulment law; A @ 1 => 0",
    "annulment-iand-left; annulment law; 0 @ A => 0",
    "annulment-imply; annulment law; A -> 1 => 1",
    "inversion-iand; inversion law; 1 @ A = !A",
    "inversion-imply; inversion law; A -> 0 = !A",
    "identity-iand; identity law; A @ 0 = A",
    "identity-imply; identity law; 1 -> A = A",
    "null-idempotency-iand; null idempotency; A @ A => 0",
    "null-idempotency-imply; null idempotency; A -> A => 1",
    "inverse-idempotency-i-iand; inverse idempotency I; A @ !A = A",
    "inverse-idempotency-i-imply; inverse idempotency I; A -> !A = !A",
    "inverse-idempotency-ii-iand; inverse idempotency II; !A @ A = !A",
    "inverse-idempotency-ii-imply; inverse idempotency II; !A -> A = A",
    # Both commutations are involutions, so each reverse is the rule itself.
    "asymmetric-commutation-iand; asymmetric commutation; A @ B => !B @ !A",
    "asymmetric-commutation-imply; asymmetric commutation; A -> B => !B -> !A",
    # Swapping two inverted operands needs no complementation; swapping an
    # inverted with a non-inverted operand complements both.  The swaps are
    # involutions and the cycles compose from them, so no reverses appear.
    "non-inverting-assoc-iand; non-inverting associativity; A @ B @ C => A @ C @ B",
    "non-inverting-assoc-imply; non-inverting associativity; A -> B -> C => B -> A -> C",
    "inverting-assoc-iand; inverting associativity; A @ B @ C => !B @ !A @ C",
    "inverting-assoc-iand-ends; inverting associativity; A @ B @ C => !C @ B @ !A",
    "inverting-assoc-iand-cycle; inverting associativity; A @ B @ C => !C @ !A @ B",
    "inverting-assoc-imply; inverting associativity; A -> B -> C => A -> !C -> !B",
    "inverting-assoc-imply-ends; inverting associativity; A -> B -> C => !C -> B -> !A",
    "inverting-assoc-imply-cycle; inverting associativity; A -> B -> C => B -> !C -> !A",
    "distributive-law-i-iand; distributive law I; A @ B & C = A @ B | A @ C",
    "distributive-law-i-imply; distributive law I; A -> B & C = (A -> B) & (A -> C)",
    "distributive-law-ii-iand; distributive law II; (A @ B) & C = A @ B @ !C",
    "distributive-law-ii-imply; distributive law II; (A -> B) & C = !A & C | B & C",
    "distributive-law-iii-iand; distributive law III; (A | B) @ C = A @ C | B @ C",
    "distributive-law-iii-imply; distributive law III; A | B -> C = (A -> C) & (B -> C)",
    "distributive-law-iv-iand; distributive law IV; A @ (B | C) = (A @ B) & (A @ C)",
    "distributive-law-iv-imply; distributive law IV; A -> B | C = (A -> B) | C",
    "distributive-law-iv-imply-chain; distributive law IV; A -> B | C = A -> !B -> C",
    "distributive-law-v-iand; distributive law V; A & (B @ C) = A & B @ C",
    "distributive-law-v-iand-alt; distributive law V; A & (B @ C) = A @ !B @ C",
    "distributive-law-v-imply; distributive law V; A & (B -> C) = A & !B | A & C",
    "distributive-law-vi-iand; distributive law VI; A | B @ C = (A | B) & (A | !C)",
    "distributive-law-vi-imply; distributive law VI; A | (B -> C) = !A -> B -> C",
    "distributive-law-vii-iand; distributive law VII; A @ B | C = (A | C) & (!B | C)",
    "distributive-law-vii-imply; distributive law VII; A & B -> C = A -> B -> C",
    "demorgan-iand; De Morgan law for asymmetric logic; !(A @ B) = !A | B",
    "demorgan-imply; De Morgan law for asymmetric logic; !(A -> B) = A & !B",
    "demorgan-or-to-iand; De Morgan law for asymmetric logic; !(A | B) = !A @ B",
    "demorgan-and-to-imply; De Morgan law for asymmetric logic; !(A & B) = A -> !B",
    "demorgan-iand-3; De Morgan law for asymmetric logic; !(A @ B @ C) = !A | B | C",
    "demorgan-imply-3; De Morgan law for asymmetric logic; !(A -> B -> C) = A & B & !C",
    "demorgan-or-to-iand-3; De Morgan law for asymmetric logic; !(A | B | C) = !A @ B @ C",
    "demorgan-and-to-imply-3; De Morgan law for asymmetric logic; !(A & B & C) = A -> B -> !C",
    "conversion-imply-to-iand; IAND-IMPLY De Morgan duality; !(A -> B) = A @ B",
    "conversion-imply-to-iand-swapped; IAND-IMPLY De Morgan duality; !(A -> B) = !B @ !A",
    "conversion-imply-to-iand-3; IAND-IMPLY De Morgan duality; !(A -> B -> C) = !C @ !B @ !A",
    "conversion-iand-to-imply; IAND-IMPLY De Morgan duality; !(A @ B) = !B -> !A",
    "conversion-iand-to-imply-3; IAND-IMPLY De Morgan duality; !(A @ B @ C) = !C -> !B -> !A",
)

_CLASSICAL = (
    "and-identity; conventional Boolean algebra; A & 1 = A",
    "and-identity-left; conventional Boolean algebra; 1 & A => A",
    "and-annulment; conventional Boolean algebra; A & 0 => 0",
    "and-annulment-left; conventional Boolean algebra; 0 & A => 0",
    "and-idempotent; conventional Boolean algebra; A & A = A",
    "and-complement; conventional Boolean algebra; A & !A => 0",
    "or-identity; conventional Boolean algebra; A | 0 = A",
    "or-identity-left; conventional Boolean algebra; 0 | A => A",
    "or-annulment; conventional Boolean algebra; A | 1 => 1",
    "or-annulment-left; conventional Boolean algebra; 1 | A => 1",
    "or-idempotent; conventional Boolean algebra; A | A = A",
    "or-complement; conventional Boolean algebra; A | !A => 1",
)

_DEMONSTRATIONS = (
    "conventional-non-associativity-iand; conventional non-associativity; A @ B @ C => A @ (B @ C); refuted",
    "duality-procedure-imply-chain; principle of duality; !A & !B & C => !(!A -> !B -> !C); proven",
    "duality-printed-or-form-imply-chain; principle of duality; !A | !B | C => !(!A -> !B -> !C); refuted",
)


@cache
def _read(rows: tuple[str, ...]) -> tuple[Rule, ...]:
    """The rules of a table's rows, parsed on the first call, not at import."""
    rules: list[Rule] = []
    for row in rows:
        name, citation, equation, *expect = row.split("; ")
        both = " = " in equation
        lhs, rhs = map(parse, equation.split(" = " if both else " => "))
        rules.append(Rule(name, citation, lhs, rhs, *expect))
        if both:
            rules.append(Rule(f"{name}-rev", citation, rhs, lhs))
    return tuple(rules)


def catalog() -> tuple[Rule, ...]:
    """Every directed rule for the asymmetric operators, all Proven."""
    return _read(_CATALOG)


def classical_rules() -> tuple[Rule, ...]:
    """Helper rules over plain AND/OR, used by ``simplify``."""
    return _read(_CLASSICAL)


def demonstrations() -> tuple[Rule, ...]:
    """Exhibits kept out of the catalog: expected refutations plus the
    duality cross-check.

    The first shows that reassociating a left-paired IAND chain changes the
    function.  The last two compare candidate duals of a three-operand
    IMPLY chain against the defining form NOT f(complemented operands): the
    four-step dual procedure's AND form is proven, while the circulating
    OR form is refuted.
    """
    return _read(_DEMONSTRATIONS)


def verify_rule(rule: Rule) -> RuleReport:
    """Exhaustively check a rule's two sides; metavariables range over 0/1.

    The left side binds every metavariable (``Rule`` checks it), so its
    variables are the ones the two sides are compared over.
    """
    verdict = equivalent(rule.lhs, rule.rhs)
    rows = 1 << len(variables(rule.lhs))
    if verdict:
        return RuleReport(rule.name, rule.citation, "Proven", rows)
    return RuleReport(
        rule.name, rule.citation, "Refuted", rows, verdict.counterexample
    )


def verify_rules(rules: tuple[Rule, ...]) -> list[RuleReport]:
    return [verify_rule(r) for r in rules]


def export_report(reports: list[RuleReport]) -> str:
    """One JSON record per line, stable key order."""
    return "\n".join(json.dumps(r.record(), sort_keys=True) for r in reports)


# --- pattern matching and rewriting ---------------------------------------

# A compiled pattern: ``match(subject, binding, complement)`` says whether
# ``subject`` matches, adding to ``binding`` what it binds.  A ``!A`` binds
# ``complement(subject)`` to ``A`` for a subject that is not a ``Not``.
_Matcher = Callable[[Expr, dict[str, Expr], Callable[[Expr], Expr]], bool]


def match_pattern(pattern: Expr, subject: Expr) -> dict[str, Expr] | None:
    """Match a metavariable pattern against a subject expression.

    Returns the binding on success, None otherwise.  A negated bare
    metavariable may bind to the complement of a non-negated subject, so
    e.g. ``A @ !A`` matches ``!p @ p`` with ``A = !p``.  The complement is
    ``normalize_not(Not(subject))``, for any subject.
    """
    binding: dict[str, Expr] = {}
    if _matcher(pattern)(subject, binding, _complement):
        return binding
    return None


def _complement(e: Expr) -> Expr:
    return normalize_not(Not(e))


@lru_cache(maxsize=512)
def _matcher(pattern: Expr) -> _Matcher:
    """``pattern`` compiled once: one closure per pattern node, with the
    node's type and arity fixed.  A metavariable binds the subject it meets
    first, and each later one must equal it."""
    t = type(pattern)
    if t is Var:
        name = pattern.name
        return lambda s, b, c: (v := b.setdefault(name, s)) is s or v == s
    if t is Const:
        value = pattern.value
        return lambda s, b, c: type(s) is Const and s.value == value
    kids = tuple(map(_matcher, children(pattern)))
    if t is Not:
        m = kids[0]
        if type(pattern.child) is Var:
            return lambda s, b, c: m(s.child if type(s) is Not else c(s), b, c)
        return lambda s, b, c: type(s) is Not and m(s.child, b, c)
    chain = t is IandChain or t is ImplyChain
    operands = attrgetter("operands" if chain else "children")
    if len(kids) == 2:
        m0, m1 = kids
        return lambda s, b, c: (
            type(s) is t and len(k := operands(s)) == 2
            and m0(k[0], b, c) and m1(k[1], b, c)
        )
    n = len(kids)
    return lambda s, b, c: (
        type(s) is t and len(k := operands(s)) == n
        and all(m(x, b, c) for m, x in zip(kids, k))
    )


def substitute(pattern: Expr, binding: dict[str, Expr]) -> Expr:
    if type(pattern) is Var:
        return binding[pattern.name]
    kids = tuple(substitute(k, binding) for k in children(pattern))
    return rebuild(pattern, kids)


def _build(pattern: Expr, binding: dict[str, Expr]) -> Expr:
    """``normalize_not(substitute(pattern, binding))`` for Not-normal bound
    values, without a walk of any bound subtree.  Each ``Not`` of the
    pattern is built as the ``negate`` of its built operand, which for a
    Not-normal operand is its ``peel``ed ``Not``, and a chain's constructor
    flattens a chain at its associative end as ``normalize_not`` would."""
    t = type(pattern)
    if t is Var:
        return binding[pattern.name]
    if t is Const:
        return pattern
    if t is Not:
        return negate(_build(pattern.child, binding))
    return t(tuple(_build(k, binding) for k in children(pattern)))


def rewrite_once(e: Expr, rule: Rule, position: Path) -> Expr:
    """Apply one rule at one position; the whole result is Not-normalized."""
    try:
        subject = subexpr_at(e, position)
    except NoPathError:
        raise NoMatchError(
            f"laws: rule {rule.name!r}: no node at position {position}"
        ) from None
    binding = match_pattern(rule.lhs, subject)
    if binding is None:
        raise NoMatchError(
            f"laws: rule {rule.name!r} does not match at position {position}"
        )
    return normalize_not(_rewrite(e, position, rule, binding))


def _rewrite(e: Expr, path: Path, rule: Rule, binding: dict) -> Expr:
    """The one rewrite step: ``rule`` at ``path`` under ``binding``.

    The right side is built Not-normal from the binding (``_build``), and
    each node rebuilt above it is ``peel``ed, bottom up.  On a Not-normal
    ``e``, whose subtrees and so whose bound values are Not-normal, that is
    all that ``normalize_not`` of the whole result would change: only a
    rebuilt ``Not`` can come to stand over a ``Not`` or a constant, and a
    rebuilt chain's constructor flattens a chain put at its associative
    end.  So the result is Not-normal, and every subtree off the path is
    the object it was in ``e``.  ``rewrite_once`` normalizes the result
    whole, for any ``e`` and binding.
    """
    new = _build(rule.rhs, binding)
    above = []
    for i in path:
        above.append(e)
        e = children(e)[i]
    for node, i in zip(reversed(above), reversed(path)):
        kids = children(node)
        new = peel(rebuild(node, (*kids[:i], new, *kids[i + 1:])))
    return new


@dataclass(frozen=True)
class SimplifyStep:
    rule: str
    position: Path
    result: Expr


@dataclass(frozen=True)
class SimplifyResult:
    expression: Expr
    steps: tuple[SimplifyStep, ...]


def simplify(
    e: Expr,
    rules: tuple[Rule, ...] | None = None,
    budget: int = 64,
) -> SimplifyResult:
    """Greedy cost-descent rewriting.

    Each round applies the single rule application that most reduces the
    literal count (ties: fewer operators, then rule name, then leftmost
    position) and stops when nothing reduces it or the budget runs out.
    A match is scored from its binding (``_literal_delta``); only a match
    that can still win is built and has its operators counted.

    Every tree a round looks at is Not-normal, so no step walks a bound
    subtree again: each rule's compiled left side binds a ``!A`` to the
    ``negate`` of a node that is not a ``Not``, which is its
    ``normalize_not(Not(node))``, and a candidate's right side is built
    Not-normal from the binding (``_build``).

    Each node has one record per call, kept by node identity: its matches
    that cut literals, scored, its literal and operator counts, and the
    least score anywhere in its subtree (``_record``).  The rules tried on
    a node are those its root type and operand kinds admit (``_Index``).
    A rewrite rebuilds only the nodes on one path and keeps every other
    subtree as the same object, so each round records only the new nodes.
    A round descends from the root only into subtrees whose least score
    can still tie or beat the best match so far.  The records hold their
    nodes, so no id is reused while they live, and they end with the call.
    """
    if budget < 0:
        raise ValueError("laws: simplify budget must be >= 0")
    index = _default_index() if rules is None else _index(rules)
    records: dict[int, _Record] = {}
    current = normalize_not(e)
    steps: list[SimplifyStep] = []
    for _ in range(budget):
        top = _record(current, records, index)
        base = top[1]
        best: tuple[tuple, Rule, Path, Expr] | None = None
        reach = -1  # a contender's delta is at most this
        stack = [(top, ())]
        while stack:
            (node, _, _, found, least), path = stack.pop()
            if least > reach:
                continue
            for delta, rule, binding in found:
                if delta > reach:
                    continue
                candidate = _rewrite(current, path, rule, binding)
                ops = _operators(candidate, records)
                key = (base + delta, ops, rule.name, path)
                if best is None or key < best[0]:
                    best = (key, rule, path, candidate)
                    reach = delta
            kids = children(node)
            for i in range(len(kids) - 1, -1, -1):
                rec = records[id(kids[i])]
                if rec[4] <= reach:
                    stack.append((rec, path + (i,)))
        if best is None:
            break
        _, rule, path, current = best
        steps.append(SimplifyStep(rule.name, path, current))
    check_oracle(current, e, "simplify")
    return SimplifyResult(current, tuple(steps))


# (node, literals, operators, reductions, least delta) as ``_record`` makes it
_Record = tuple[Expr, int, int, list, int]


def _record(node: Expr, records: dict[int, _Record], index: _Index) -> _Record:
    """``node``'s record in ``records``, made with those of its subtrees
    that have none.

    Its reductions are ``(delta, rule, binding)`` for each match that cuts
    literals, in the index's rule order, with ``delta`` the
    ``_literal_delta`` sum over the bound subtrees' literal counts.  Its
    least delta is the least of its own and its subtrees', 0 if none cuts.
    """
    rec = records.get(id(node))
    if rec is not None:
        return rec
    kids = children(node)
    lits, ops, least = (0, 1, 0) if kids else (1, 0, 0)
    for kid in kids:
        _, k_lits, k_ops, _, k_least = _record(kid, records, index)
        lits += k_lits
        ops += k_ops
        if k_least < least:
            least = k_least
    found = []
    for rule, const, weights, match in index.rules(node):
        binding: dict[str, Expr] = {}
        if not match(node, binding, negate):
            continue
        delta = const
        for name, w in weights:
            delta += w * _literals(binding[name], records)
        if delta < 0:
            found.append((delta, rule, binding))
            if delta < least:
                least = delta
    rec = records[id(node)] = (node, lits, ops, found, least)
    return rec


def _literals(value: Expr, records: dict[int, _Record]) -> int:
    """The literal count of a bound subtree, read from its record or, for
    the ``Not`` a complement binding puts over a node, from the node's."""
    rec = records.get(id(value))
    if rec is None and type(value) is Not:
        rec = records.get(id(value.child))
    return literal_count(value) if rec is None else rec[1]


def _operators(node: Expr, records: dict[int, _Record]) -> int:
    """The operator count of a tree, read from the records of its subtrees
    that have one."""
    rec = records.get(id(node))
    if rec is not None:
        return rec[2]
    kids = children(node)
    if not kids:
        return 0
    n = 1
    for kid in kids:
        n += _operators(kid, records)
    return n


def _literal_delta(rule: Rule) -> tuple[int, tuple[tuple[str, int], ...]]:
    """What one application of ``rule`` adds to the literal count, as a
    constant and a weight per metavariable (zero weights left out).

    Both count leaves of ``rhs`` minus leaves of ``lhs``: the constant
    counts ``Const`` leaves, a weight counts one metavariable.  The added
    literals under a binding ``b`` are ``const + sum(w * literal_count(
    b[m]))``, exactly: a binding has the literal count of the subtree it
    matched (also the complement binding of ``!A``), n-ary patterns match
    only at their own arity, and neither chain flattening nor
    ``normalize_not`` changes the number of leaves.
    """
    const = 0
    weights: dict[str, int] = {}
    for sign, side in ((1, rule.rhs), (-1, rule.lhs)):
        for _, node in iter_subexpressions(side):
            if isinstance(node, Var):
                weights[node.name] = weights.get(node.name, 0) + sign
            elif isinstance(node, Const):
                const += sign
    return const, tuple((m, w) for m, w in weights.items() if w)


def _can_reduce(const: int, weights: tuple[tuple[str, int], ...]) -> bool:
    """Whether some binding makes the rule cut literals.  Every binding has
    at least one literal, so with no negative weight the delta is at least
    ``const + sum(weights)``."""
    if any(w < 0 for _, w in weights):
        return True
    return const + sum(w for _, w in weights) < 0


# (rule, constant, weights) as ``_literal_delta`` gives them
_Scored = tuple[Rule, int, tuple[tuple[str, int], ...]]
# a scored rule and its compiled left side
_Entry = tuple[Rule, int, tuple[tuple[str, int], ...], _Matcher]


class _Index:
    """Scored rules, each with its compiled left side (``_matcher``), and
    the ones to try on a node, narrowed by the node's root type and the
    kind of each operand (``_kind``).

    A pattern operand that is a constant matches only that constant; a
    metavariable or ``!A`` matches any operand; any other pattern only an
    operand of its own type.  So whether a rule can match a node depends on
    the node's type and its operands' kinds alone, and the list for each
    such key is made the first time a node with it is met, then kept.  A
    node whose type and arity no ``lhs`` has gets only the rules whose
    ``lhs`` matches every node (``_wild``), so the keys are bounded by the
    rules' arities.  Every list keeps the given rule order.
    """

    def __init__(self, scored: Iterable[_Scored]) -> None:
        self.scored = tuple((*s, _matcher(s[0].lhs)) for s in scored)
        self.shapes = {
            (type(s[0].lhs), len(children(s[0].lhs))) for s in self.scored
        }
        self.anywhere = tuple(s for s in self.scored if _wild(s[0].lhs))
        self.narrowed: dict[tuple, tuple[_Entry, ...]] = {}

    def rules(self, node: Expr) -> tuple[_Entry, ...]:
        t = type(node)
        kids = children(node)
        if (t, len(kids)) not in self.shapes:
            return self.anywhere
        key = (t, *map(_kind, kids))
        hit = self.narrowed.get(key)
        if hit is None:
            hit = self.narrowed[key] = tuple(
                s for s in self.scored if _admits(s[0].lhs, key)
            )
        return hit


def _kind(e: Expr) -> int | type:
    """An operand's kind for the index: a constant's value, else its type."""
    return e.value if type(e) is Const else type(e)


def _admits(pattern: Expr, key: tuple) -> bool:
    """Whether ``pattern`` can match a node with the root type and operand
    kinds of ``key``."""
    if _wild(pattern):
        return True
    operands = children(pattern)
    return (
        type(pattern) is key[0]
        and len(operands) == len(key) - 1
        and all(map(_takes, operands, key[1:]))
    )


def _takes(pattern: Expr, kind: int | type) -> bool:
    """Whether an operand pattern can match an operand of ``kind``."""
    if _wild(pattern):
        return True
    if type(pattern) is Const:
        return kind == pattern.value
    return kind is type(pattern)


def _wild(pattern: Expr) -> bool:
    """Whether a pattern matches every node: a metavariable, or ``!A``,
    which binds the complement of a node that is not a ``Not``."""
    t = type(pattern)
    return t is Var or t is Not and type(pattern.child) is Var


def _index(rules: tuple[Rule, ...]) -> _Index:
    """The index of the rules that can cut literals, in the given order."""
    scored = ((rule, *_literal_delta(rule)) for rule in rules)
    return _Index(s for s in scored if _can_reduce(s[1], s[2]))


@cache
def _default_index() -> _Index:
    """The default rules' index, built on the first call, not at import."""
    return _index(catalog() + classical_rules())


# --- duality ---------------------------------------------------------------


def dual(e: Expr) -> Expr:
    """Structural dual: swap AND/OR and 0/1; an IAND chain becomes the OR
    of its operands with every inverted (non-first) operand complemented;
    an IMPLY chain becomes the AND with every inverted (non-last) operand
    complemented.  The result's table is the classical dual of the input's.
    """
    result = _dual(e)
    flipped = substitute(e, {v: Not(Var(v)) for v in variables(e)})
    check_oracle(result, Not(flipped), "dual")
    return result


def _dual(e: Expr) -> Expr:
    t = type(e)
    if t is Const:
        return negate(e)
    if t is Var:
        return e
    kids = [_dual(k) for k in children(e)]
    # complement the operands a chain inverts: all but the first of an
    # IAND chain, all but the last of an IMPLY chain, the child of a Not
    if t is IandChain:
        kids[1:] = map(negate, kids[1:])
    elif t is ImplyChain:
        kids[:-1] = map(negate, kids[:-1])
    elif t is Not:
        return negate(kids[0])
    return (Or if t is And or t is IandChain else And)(tuple(kids))


def demorgan_dual_expr(e: Expr) -> Expr:
    """Swap chain operators over an unchanged operand list.

    The resulting function is NOT f applied to the complemented operands in
    reversed order, which is exactly the table-level operand-reversing dual
    when the operands are distinct variables.  The new chain flattens its
    associative end: ``(p @ q) -> x`` gives ``p @ q @ x``.
    """
    t = type(e)
    if t is IandChain:
        return ImplyChain(e.operands)
    if t is ImplyChain:
        return IandChain(e.operands)
    raise ShapeError(
        "laws: demorgan_dual_expr expects an IAND or IMPLY chain, got "
        f"{type(e).__name__}"
    )
