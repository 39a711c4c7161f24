"""Rewrite-rule catalog for the asymmetric operators, with verification.

Every ``Var`` leaf inside a rule pattern is a metavariable that matches an
arbitrary subexpression.  A rule is admitted to the default catalog only if
``verify_rule`` proves it by exhaustive enumeration, so the catalog doubles
as a machine-checked law table.  Expected-negative exhibits (shapes that
look like laws but are not) live in ``demonstrations`` instead.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache

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
    iand_chain,
    imply_chain,
    iter_subexpressions,
    literal_count,
    normalize_not,
    operator_count,
    replace_at,
    subexpr_at,
    variables,
)
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


_A = Var("A")
_B = Var("B")
_C = Var("C")


def _rule(name: str, citation: str, lhs: Expr, rhs: Expr) -> Rule:
    return Rule(name, citation, lhs, rhs)


def _both(name: str, citation: str, lhs: Expr, rhs: Expr) -> list[Rule]:
    """A bidirectional equation as two directed rules (``-rev`` suffix)."""
    return [
        Rule(name, citation, lhs, rhs),
        Rule(f"{name}-rev", citation, rhs, lhs),
    ]


def _identity_rules() -> list[Rule]:
    rules: list[Rule] = []
    # Constant annulment: both orientations exist for IAND, one for IMPLY.
    # The reverses would invent an unbound metavariable, so they are omitted.
    rules.append(
        _rule("annulment-iand-right", "annulment law",
              IandChain((_A, Const(1))), Const(0))
    )
    rules.append(
        _rule("annulment-iand-left", "annulment law",
              IandChain((Const(0), _A)), Const(0))
    )
    rules.append(
        _rule("annulment-imply", "annulment law",
              ImplyChain((_A, Const(1))), Const(1))
    )
    rules += _both("inversion-iand", "inversion law",
                   IandChain((Const(1), _A)), Not(_A))
    rules += _both("inversion-imply", "inversion law",
                   ImplyChain((_A, Const(0))), Not(_A))
    rules += _both("identity-iand", "identity law",
                   IandChain((_A, Const(0))), _A)
    rules += _both("identity-imply", "identity law",
                   ImplyChain((Const(1), _A)), _A)
    rules.append(
        _rule("null-idempotency-iand", "null idempotency",
              IandChain((_A, _A)), Const(0))
    )
    rules.append(
        _rule("null-idempotency-imply", "null idempotency",
              ImplyChain((_A, _A)), Const(1))
    )
    rules += _both("inverse-idempotency-i-iand", "inverse idempotency I",
                   IandChain((_A, Not(_A))), _A)
    rules += _both("inverse-idempotency-i-imply", "inverse idempotency I",
                   ImplyChain((_A, Not(_A))), Not(_A))
    rules += _both("inverse-idempotency-ii-iand", "inverse idempotency II",
                   IandChain((Not(_A), _A)), Not(_A))
    rules += _both("inverse-idempotency-ii-imply", "inverse idempotency II",
                   ImplyChain((Not(_A), _A)), _A)
    return rules


def _commutation_rules() -> list[Rule]:
    # Both are involutions, so each reverse is the rule itself.
    return [
        _rule("asymmetric-commutation-iand", "asymmetric commutation",
              IandChain((_A, _B)), IandChain((Not(_B), Not(_A)))),
        _rule("asymmetric-commutation-imply", "asymmetric commutation",
              ImplyChain((_A, _B)), ImplyChain((Not(_B), Not(_A)))),
    ]


def _associativity_rules() -> list[Rule]:
    # Swapping two inverted operands needs no complementation; swapping an
    # inverted with a non-inverted operand complements both.  The swaps are
    # involutions and the cycles compose from them, so no reverses appear.
    iand3 = IandChain((_A, _B, _C))
    imply3 = ImplyChain((_A, _B, _C))
    return [
        _rule("non-inverting-assoc-iand", "non-inverting associativity",
              iand3, IandChain((_A, _C, _B))),
        _rule("non-inverting-assoc-imply", "non-inverting associativity",
              imply3, ImplyChain((_B, _A, _C))),
        _rule("inverting-assoc-iand", "inverting associativity",
              iand3, IandChain((Not(_B), Not(_A), _C))),
        _rule("inverting-assoc-iand-ends", "inverting associativity",
              iand3, IandChain((Not(_C), _B, Not(_A)))),
        _rule("inverting-assoc-iand-cycle", "inverting associativity",
              iand3, IandChain((Not(_C), Not(_A), _B))),
        _rule("inverting-assoc-imply", "inverting associativity",
              imply3, ImplyChain((_A, Not(_C), Not(_B)))),
        _rule("inverting-assoc-imply-ends", "inverting associativity",
              imply3, ImplyChain((Not(_C), _B, Not(_A)))),
        _rule("inverting-assoc-imply-cycle", "inverting associativity",
              imply3, ImplyChain((_B, Not(_C), Not(_A)))),
    ]


def _distributive_rules() -> list[Rule]:
    rules: list[Rule] = []
    rules += _both("distributive-law-i-iand", "distributive law I",
                   IandChain((_A, And((_B, _C)))),
                   Or((IandChain((_A, _B)), IandChain((_A, _C)))))
    rules += _both("distributive-law-i-imply", "distributive law I",
                   ImplyChain((_A, And((_B, _C)))),
                   And((ImplyChain((_A, _B)), ImplyChain((_A, _C)))))
    rules += _both("distributive-law-ii-iand", "distributive law II",
                   And((IandChain((_A, _B)), _C)),
                   IandChain((_A, _B, Not(_C))))
    rules += _both("distributive-law-ii-imply", "distributive law II",
                   And((ImplyChain((_A, _B)), _C)),
                   Or((And((Not(_A), _C)), And((_B, _C)))))
    rules += _both("distributive-law-iii-iand", "distributive law III",
                   IandChain((Or((_A, _B)), _C)),
                   Or((IandChain((_A, _C)), IandChain((_B, _C)))))
    rules += _both("distributive-law-iii-imply", "distributive law III",
                   ImplyChain((Or((_A, _B)), _C)),
                   And((ImplyChain((_A, _C)), ImplyChain((_B, _C)))))
    rules += _both("distributive-law-iv-iand", "distributive law IV",
                   IandChain((_A, Or((_B, _C)))),
                   And((IandChain((_A, _B)), IandChain((_A, _C)))))
    rules += _both("distributive-law-iv-imply", "distributive law IV",
                   ImplyChain((_A, Or((_B, _C)))),
                   Or((ImplyChain((_A, _B)), _C)))
    rules += _both("distributive-law-iv-imply-chain", "distributive law IV",
                   ImplyChain((_A, Or((_B, _C)))),
                   ImplyChain((_A, Not(_B), _C)))
    rules += _both("distributive-law-v-iand", "distributive law V",
                   And((_A, IandChain((_B, _C)))),
                   IandChain((And((_A, _B)), _C)))
    rules += _both("distributive-law-v-iand-alt", "distributive law V",
                   And((_A, IandChain((_B, _C)))),
                   IandChain((_A, Not(_B), _C)))
    rules += _both("distributive-law-v-imply", "distributive law V",
                   And((_A, ImplyChain((_B, _C)))),
                   Or((And((_A, Not(_B))), And((_A, _C)))))
    rules += _both("distributive-law-vi-iand", "distributive law VI",
                   Or((_A, IandChain((_B, _C)))),
                   And((Or((_A, _B)), Or((_A, Not(_C))))))
    rules += _both("distributive-law-vi-imply", "distributive law VI",
                   Or((_A, ImplyChain((_B, _C)))),
                   ImplyChain((Not(_A), _B, _C)))
    rules += _both("distributive-law-vii-iand", "distributive law VII",
                   Or((IandChain((_A, _B)), _C)),
                   And((Or((_A, _C)), Or((Not(_B), _C)))))
    rules += _both("distributive-law-vii-imply", "distributive law VII",
                   ImplyChain((And((_A, _B)), _C)),
                   ImplyChain((_A, _B, _C)))
    return rules


def _demorgan_rules() -> list[Rule]:
    cite = "De Morgan law for asymmetric logic"
    rules: list[Rule] = []
    rules += _both("demorgan-iand", cite,
                   Not(IandChain((_A, _B))), Or((Not(_A), _B)))
    rules += _both("demorgan-imply", cite,
                   Not(ImplyChain((_A, _B))), And((_A, Not(_B))))
    rules += _both("demorgan-or-to-iand", cite,
                   Not(Or((_A, _B))), IandChain((Not(_A), _B)))
    rules += _both("demorgan-and-to-imply", cite,
                   Not(And((_A, _B))), ImplyChain((_A, Not(_B))))
    rules += _both("demorgan-iand-3", cite,
                   Not(IandChain((_A, _B, _C))), Or((Not(_A), _B, _C)))
    rules += _both("demorgan-imply-3", cite,
                   Not(ImplyChain((_A, _B, _C))), And((_A, _B, Not(_C))))
    rules += _both("demorgan-or-to-iand-3", cite,
                   Not(Or((_A, _B, _C))), IandChain((Not(_A), _B, _C)))
    rules += _both("demorgan-and-to-imply-3", cite,
                   Not(And((_A, _B, _C))), ImplyChain((_A, _B, Not(_C))))
    return rules


def _conversion_rules() -> list[Rule]:
    cite = "IAND-IMPLY De Morgan duality"
    rules: list[Rule] = []
    rules += _both("conversion-imply-to-iand", cite,
                   Not(ImplyChain((_A, _B))), IandChain((_A, _B)))
    rules += _both("conversion-imply-to-iand-swapped", cite,
                   Not(ImplyChain((_A, _B))),
                   IandChain((Not(_B), Not(_A))))
    rules += _both("conversion-imply-to-iand-3", cite,
                   Not(ImplyChain((_A, _B, _C))),
                   IandChain((Not(_C), Not(_B), Not(_A))))
    rules += _both("conversion-iand-to-imply", cite,
                   Not(IandChain((_A, _B))),
                   ImplyChain((Not(_B), Not(_A))))
    rules += _both("conversion-iand-to-imply-3", cite,
                   Not(IandChain((_A, _B, _C))),
                   ImplyChain((Not(_C), Not(_B), Not(_A))))
    return rules


def catalog() -> tuple[Rule, ...]:
    """Every directed rule for the asymmetric operators, all Proven."""
    return tuple(
        _identity_rules()
        + _commutation_rules()
        + _associativity_rules()
        + _distributive_rules()
        + _demorgan_rules()
        + _conversion_rules()
    )


def classical_rules() -> tuple[Rule, ...]:
    """Helper rules over plain AND/OR, used by ``simplify``."""
    cite = "conventional Boolean algebra"
    rules: list[Rule] = []
    rules += _both("and-identity", cite, And((_A, Const(1))), _A)
    rules.append(_rule("and-identity-left", cite, And((Const(1), _A)), _A))
    rules.append(_rule("and-annulment", cite, And((_A, Const(0))), Const(0)))
    rules.append(_rule("and-annulment-left", cite,
                       And((Const(0), _A)), Const(0)))
    rules += _both("and-idempotent", cite, And((_A, _A)), _A)
    rules.append(_rule("and-complement", cite,
                       And((_A, Not(_A))), Const(0)))
    rules += _both("or-identity", cite, Or((_A, Const(0))), _A)
    rules.append(_rule("or-identity-left", cite, Or((Const(0), _A)), _A))
    rules.append(_rule("or-annulment", cite, Or((_A, Const(1))), Const(1)))
    rules.append(_rule("or-annulment-left", cite,
                       Or((Const(1), _A)), Const(1)))
    rules += _both("or-idempotent", cite, Or((_A, _A)), _A)
    rules.append(_rule("or-complement", cite, Or((_A, Not(_A))), Const(1)))
    return tuple(rules)


def demonstrations() -> tuple[Rule, ...]:
    """Exhibits kept out of the catalog: expected refutations plus the
    duality cross-check.

    The first shows that reassociating a left-paired IAND chain changes the
    function.  The last two compare candidate duals of a three-operand
    IMPLY chain against the defining form NOT f(complemented operands): the
    four-step dual procedure's AND form is proven, while the circulating
    OR form is refuted.
    """
    defining_dual = Not(ImplyChain((Not(_A), Not(_B), Not(_C))))
    return (
        Rule(
            "conventional-non-associativity-iand",
            "conventional non-associativity",
            IandChain((_A, _B, _C)),
            IandChain((_A, IandChain((_B, _C)))),
            expect="refuted",
        ),
        Rule(
            "duality-procedure-imply-chain",
            "principle of duality",
            And((Not(_A), Not(_B), _C)),
            defining_dual,
            expect="proven",
        ),
        Rule(
            "duality-printed-or-form-imply-chain",
            "principle of duality",
            Or((Not(_A), Not(_B), _C)),
            defining_dual,
            expect="refuted",
        ),
    )


def verify_rule(rule: Rule) -> RuleReport:
    """Exhaustively check a rule's two sides; metavariables range over 0/1."""
    names: dict[str, None] = {}
    for v in variables(rule.lhs) + variables(rule.rhs):
        names.setdefault(v, None)
    verdict = equivalent(rule.lhs, rule.rhs)
    rows = 1 << len(names)
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


def match_pattern(pattern: Expr, subject: Expr) -> dict[str, Expr] | None:
    """Match a metavariable pattern against a subject expression.

    Returns the binding on success, None otherwise.  A negated bare
    metavariable may bind to the complement of a non-negated subject, so
    e.g. ``A @ !A`` matches ``!p @ p`` with ``A = !p``.
    """
    binding: dict[str, Expr] = {}
    if _match(pattern, subject, binding):
        return binding
    return None


def _match(pattern: Expr, subject: Expr, binding: dict[str, Expr]) -> bool:
    match pattern:
        case Var(name):
            return _bind(name, subject, binding)
        case Const(v):
            return isinstance(subject, Const) and subject.value == v
        case Not(inner):
            if isinstance(subject, Not):
                return _match(inner, subject.child, binding)
            if isinstance(inner, Var):
                return _bind(inner.name, normalize_not(Not(subject)), binding)
            return False
        case And(pk) | Or(pk) | IandChain(pk) | ImplyChain(pk):
            if type(subject) is not type(pattern):
                return False
            sk = (
                subject.children
                if type(subject) in (And, Or)
                else subject.operands
            )
            return len(sk) == len(pk) and all(
                _match(p, s, binding) for p, s in zip(pk, sk)
            )
    return False


def _bind(name: str, value: Expr, binding: dict[str, Expr]) -> bool:
    seen = binding.get(name)
    if seen is None:
        binding[name] = value
        return True
    return seen == value


def substitute(pattern: Expr, binding: dict[str, Expr]) -> Expr:
    match pattern:
        case Var(name):
            return binding[name]
        case Const():
            return pattern
        case Not(inner):
            return Not(substitute(inner, binding))
        case And(kids):
            return And(tuple(substitute(k, binding) for k in kids))
        case Or(kids):
            return Or(tuple(substitute(k, binding) for k in kids))
        case IandChain(ops):
            return iand_chain([substitute(k, binding) for k in ops])
        case ImplyChain(ops):
            return imply_chain([substitute(k, binding) for k in ops])
    raise TypeError(f"laws: not a pattern node: {pattern!r}")


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
    replacement = substitute(rule.rhs, binding)
    return normalize_not(replace_at(e, position, replacement))


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
    """
    if budget < 0:
        raise ValueError("laws: simplify budget must be >= 0")
    index = _default_index() if rules is None else _index(rules)
    anywhere = index[_ANYWHERE]
    current = normalize_not(e)
    steps: list[SimplifyStep] = []
    for _ in range(budget):
        base = literal_count(current)
        best: tuple[tuple, Rule, Path, Expr] | None = None
        most = base - 1  # a contender has at most this many literals
        for path, node in iter_subexpressions(current):
            for rule, const, weights in index.get(_shape(node), anywhere):
                binding = match_pattern(rule.lhs, node)
                if binding is None:
                    continue
                lits = base + const
                for name, w in weights:
                    lits += w * literal_count(binding[name])
                if lits > most:
                    continue
                candidate = normalize_not(
                    replace_at(current, path, substitute(rule.rhs, binding))
                )
                key = (lits, operator_count(candidate), rule.name, path)
                if best is None or key < best[0]:
                    best = (key, rule, path, candidate)
                    most = lits
        if best is None:
            break
        _, rule, path, current = best
        steps.append(SimplifyStep(rule.name, path, current))
    check_oracle(current, e, "simplify")
    return SimplifyResult(current, tuple(steps))


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


def _shape(e: Expr) -> tuple[type, int]:
    return type(e), len(children(e))


# a bare-metavariable lhs has this shape, and it matches every node
_ANYWHERE = (Var, 0)

# (rule, constant, weights) as ``_literal_delta`` gives them
_Scored = tuple[Rule, int, tuple[tuple[str, int], ...]]
_Index = dict[tuple[type, int], tuple[_Scored, ...]]


def _index(rules: tuple[Rule, ...]) -> _Index:
    """The rules that can cut literals, by the root type and arity of their
    ``lhs``; each entry also holds the bare-metavariable rules, and all
    keep the given rule order."""
    kept = []
    for rule in rules:
        const, weights = _literal_delta(rule)
        if _can_reduce(const, weights):
            kept.append((rule, const, weights))
    shapes = {_shape(s[0].lhs) for s in kept} | {_ANYWHERE}
    return {
        shape: tuple(
            s for s in kept if _shape(s[0].lhs) in (shape, _ANYWHERE)
        )
        for shape in shapes
    }


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
    match e:
        case Const(v):
            return Const(1 - v)
        case Var():
            return e
        case Not(child):
            return normalize_not(Not(_dual(child)))
        case And(kids):
            return Or(tuple(_dual(k) for k in kids))
        case Or(kids):
            return And(tuple(_dual(k) for k in kids))
        case IandChain(ops):
            first = _dual(ops[0])
            rest = (normalize_not(Not(_dual(x))) for x in ops[1:])
            return Or((first, *rest))
        case ImplyChain(ops):
            front = (normalize_not(Not(_dual(x))) for x in ops[:-1])
            last = _dual(ops[-1])
            return And((*front, last))
    raise TypeError(f"laws: not an expression node: {e!r}")


def demorgan_dual_expr(e: Expr) -> Expr:
    """Swap chain operators over an unchanged operand list.

    The resulting function is NOT f applied to the complemented operands in
    reversed order, which is exactly the table-level operand-reversing dual
    when the operands are distinct variables.
    """
    match e:
        case IandChain(ops):
            return ImplyChain(ops)
        case ImplyChain(ops):
            return IandChain(ops)
    raise ShapeError(
        "laws: demorgan_dual_expr expects an IAND or IMPLY chain, got "
        f"{type(e).__name__}"
    )
