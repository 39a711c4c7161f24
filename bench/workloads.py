"""Seeded input generators with known answers, one per workload.

Each generator takes the workload seed and returns the cases one pass of
the closed loop runs, in order.  Sizes come from a fixed grid and the seed
draws everything else (names, cubes, planted rows), so every seed costs
about the same while no two seeds share their functions.  Every expected
answer is computed here, by ``reference``, from the cube lists or the
predicates that define each function; nothing is taken from ``asymlogic``.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, replace

import reference as ref

Literal = tuple[str, int]  # (variable, polarity); polarity 0 complements
Cube = tuple[Literal, ...]

_NAME_POOL = tuple(f"{c}{d}" for c in "abcdeghkmpqrstuwyz" for d in range(10))


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def random_names(rng: random.Random, n: int) -> tuple[str, ...]:
    return tuple(rng.sample(_NAME_POOL, n))


_NAME_TOKEN = re.compile(r"\b[a-z]\d\b")  # every name in _NAME_POOL


def renaming(rng: random.Random, names):
    """A seeded renaming of ``names`` into the pool, as ``(mapping,
    rename)``: ``rename`` applies it to a text.  New names keep the length
    of the old ones, so texts keep their length and shape."""
    mapping = dict(zip(names, random_names(rng, len(names))))
    return mapping, lambda text: _NAME_TOKEN.sub(
        lambda m: mapping[m.group()], text)


def renamed_pass(cases: list, seed: int, index: int) -> list:
    """The cases of pass ``index`` of the closed loop.

    Pass 0 is the cases as generated.  Every later pass renames each
    case's variables by its own seeded draw, which leaves the function and
    the work unchanged.  So no input repeats between passes, and a cache
    keyed by input cannot stand in for the work being measured.
    """
    if index == 0:
        return list(cases)
    rng = random.Random(f"rename:{seed}:{index}")
    return [case.renamed(rng) for case in cases]


def random_cubes(rng: random.Random, names, count: int, lo: int,
                 hi: int) -> list[Cube]:
    """``count`` cubes of mixed polarity and literal order.

    Cube ``j`` has ``lo + j % (hi - lo + 1)`` literals, so sizes are fixed
    by the arguments.  Variables are dealt from reshuffled decks of all
    names, so every name occurs once the cubes hold ``len(names)`` literals.
    """
    deck: list[str] = []
    cubes = []
    for j in range(count):
        picked: list[str] = []
        while len(picked) < lo + j % (hi - lo + 1):
            if not deck:
                deck = rng.sample(names, len(names))
            v = deck.pop()
            if v in picked:
                deck.insert(0, v)
            else:
                picked.append(v)
        cubes.append(tuple((v, rng.randint(0, 1)) for v in picked))
    return cubes


def lit_text(lit: Literal) -> str:
    return lit[0] if lit[1] else "!" + lit[0]


def comp_text(lit: Literal) -> str:
    return lit_text((lit[0], 1 - lit[1]))


def soi_text(cubes: list[Cube]) -> str:
    """OR of IAND chains: ``l1 @ !l2 @ ... @ !lk`` is the product of the l."""
    return " | ".join(
        " @ ".join([lit_text(c[0])] + [comp_text(x) for x in c[1:]])
        for c in cubes
    )


def noi_text(cubes: list[Cube]) -> str:
    """NAND of IMPLY chains: ``l1 -> ... -> !lk`` is NOT(l1 & ... & lk)."""
    terms = [
        " -> ".join([lit_text(x) for x in c[:-1]] + [comp_text(c[-1])])
        for c in cubes
    ]
    return "!(" + " & ".join(f"({t})" for t in terms) + ")"


def minterm_text(row: int, names: tuple[str, ...]) -> str:
    a = ref.assignment_of(row, names)
    return " & ".join(lit_text((v, a[v])) for v in names)


def _function(names, cubes) -> int:
    return ref.cubes_column(cubes, ref.variable_columns(names),
                            ref.full_mask(len(names)))


# --- synth -------------------------------------------------------------------
# Table file -> minimize -> both compilers, through the CLI.  The minimizer
# dominates (prime generation and the exact cover search), with the oracle
# check inside it; the compilers are a few percent.  Structured functions
# are classic shapes whose two-level covers are large; symmetric functions
# with cyclic cores (no essential primes) make the cover search branch; the
# random tables, from random cube lists, vary the rest.  The seed permutes
# and renames the inputs of the fixed functions, which leaves their cost
# unchanged, and draws the random ones.  Full-density random tables are
# not used: at 5-6 variables a few draws in a hundred cost 100-1000 times
# the median, so no run length gives a steady figure across seeds.


def _num(bits) -> int:
    v = 0
    for b in bits:
        v = (v << 1) | b
    return v


def _weights(*allowed):
    return lambda x: int(sum(x) in allowed)


_STRUCTURED = (
    ("parity", (6, 7, 8), lambda x: sum(x) & 1),
    ("majority", (6, 7, 8), lambda x: int(2 * sum(x) > len(x))),
    ("threshold2", (6, 7, 8), lambda x: int(sum(x) >= 2)),
    ("carry", (6, 8), lambda x: int(
        _num(x[:len(x) // 2]) + _num(x[len(x) // 2:]) >> (len(x) // 2))),
    ("comparator", (6, 8), lambda x: int(
        _num(x[:len(x) // 2]) > _num(x[len(x) // 2:]))),
    ("notallequal", (5,), _weights(1, 2, 3, 4)),
    ("weights12_", (4,), _weights(1, 2)),
    ("weights23_", (4,), _weights(2, 3)),
    ("weights023_", (4,), _weights(0, 2, 3)),
)


@dataclass(frozen=True)
class SynthCase:
    label: str
    names: tuple[str, ...]
    column: int

    def renamed(self, rng: random.Random) -> SynthCase:
        # the column is indexed by position, so only the names change
        return replace(self, names=random_names(rng, len(self.names)))

    def file_text(self) -> str:
        return (" ".join(self.names) + "\n"
                + ref.table_string(self.column, len(self.names)) + "\n")


def _permuted(rng: random.Random, n: int, f) -> tuple[tuple[str, ...], int]:
    """``f`` with seeded input names and a seeded input permutation."""
    names = random_names(rng, n)
    perm = rng.sample(range(n), n)
    column = 0
    for row in range(1 << n):
        bits = [(row >> (n - 1 - i)) & 1 for i in range(n)]
        if f([bits[perm[j]] for j in range(n)]):
            column |= 1 << row
    return names, column


SYNTH_RANDOM_TABLES = 42  # random tables per size


def make_synth(seed: int) -> list[SynthCase]:
    rng = rng_for("synth", seed)
    cases = []
    for label, sizes, f in _STRUCTURED:
        for n in sizes:
            cases.append(SynthCase(f"{label}{n}", *_permuted(rng, n, f)))
    for n in (5, 6):
        for _ in range(SYNTH_RANDOM_TABLES):
            names = random_names(rng, n)
            cubes = random_cubes(rng, names, rng.randint(3, 6), 3, 4)
            cases.append(SynthCase(f"cubes{n}", names,
                                   _function(names, cubes)))
    rng.shuffle(cases)
    return cases


# --- compile -----------------------------------------------------------------
# Parse NOI and SOI texts, compile both, render both, replay sampled inputs
# on both simulators.  No minimizer and no oracle run, so this bypasses
# minimize and semantics and measures the parser, memristor (with its
# peephole) and spindiode layers, which synth leaves at a few percent.

COMPILE_GRID = tuple((n, k) for n in range(8, 13) for k in (16, 32, 48, 64))
COMPILE_VECTORS = 8  # sampled rows per case


@dataclass(frozen=True)
class CompileCase:
    names: tuple[str, ...]
    cubes: tuple[Cube, ...]
    noi: str
    soi: str
    column: int
    vectors: tuple[int, ...]  # rows replayed on both simulators

    def renamed(self, rng: random.Random) -> CompileCase:
        mapping, rename = renaming(rng, self.names)
        return replace(
            self, names=tuple(mapping[v] for v in self.names),
            cubes=tuple(tuple((mapping[v], p) for v, p in c)
                        for c in self.cubes),
            noi=rename(self.noi), soi=rename(self.soi))


def make_compile(seed: int) -> list[CompileCase]:
    rng = rng_for("compile", seed)
    cases = []
    for n, k in COMPILE_GRID * 5:
        names = random_names(rng, n)
        cubes = random_cubes(rng, names, k, 2, 5)
        cases.append(CompileCase(
            names, tuple(cubes), noi_text(cubes), soi_text(cubes),
            _function(names, cubes),
            tuple(rng.randrange(1 << n) for _ in range(COMPILE_VECTORS))))
    rng.shuffle(cases)
    return cases


# --- verify ------------------------------------------------------------------
# One CLI `table` or `verify` command per operation.  Semantics does nearly
# all the work, once as a full scan (tables, equal pairs) and once as an
# early-exit search (unequal pairs stop at the planted row), so a change
# that speeds one use of the evaluator and slows the other shows here.
# Sizes are fixed by the grid, with fewer cases where a scan costs more,
# and every name occurs in every expression, so full scans cost the same on
# every seed.  The planted rows of the unequal pairs fall one in each of as
# many equal slices of the scan, in a fixed order, so early exits cost the
# same on every seed too.

_VERIFY_PER_SIZE = {8: 16, 9: 8, 10: 5, 11: 3, 12: 2}
VERIFY_GRID = tuple(
    (kind, n, (4, 8)[j % 2])
    for kind in ("table", "equal", "unequal")
    for n, count in _VERIFY_PER_SIZE.items()
    for j in range(count)
)


@dataclass(frozen=True)
class VerifyCase:
    kind: str
    names: tuple[str, ...]
    argv: tuple[str, ...]
    rows: int  # rows the evaluator must examine
    expected: object  # table string, or the counterexample assignment

    def renamed(self, rng: random.Random) -> VerifyCase:
        mapping, rename = renaming(rng, self.names)
        expected = self.expected
        if self.kind == "unequal":
            expected = {mapping[v]: b for v, b in expected.items()}
        return replace(self, names=tuple(mapping[v] for v in self.names),
                       argv=tuple(rename(a) for a in self.argv),
                       expected=expected)


def make_verify(seed: int) -> list[VerifyCase]:
    rng = rng_for("verify", seed)
    slices = sum(kind == "unequal" for kind, _, _ in VERIFY_GRID)
    slot = 0
    cases = []
    for i, (kind, n, k) in enumerate(VERIFY_GRID):
        names = random_names(rng, n)
        cubes = random_cubes(rng, names, k, 2, 5)
        soi, noi = soi_text(cubes), noi_text(cubes)
        if kind == "table":
            text = soi if i % 2 else noi
            cases.append(VerifyCase(
                kind, names, ("table", text, "--vars", ",".join(names),
                       "--format", "structured"),
                1 << n, ref.table_string(_function(names, cubes), n)))
        elif kind == "equal":
            scanned = ref.first_appearance(soi + " " + noi)
            cases.append(VerifyCase(
                kind, names, ("verify", soi, noi, "--format", "structured"),
                1 << len(scanned), None))
        else:
            e = soi if i % 2 else noi
            order = ref.first_appearance(e)
            order += tuple(v for v in names if v not in order)
            # stride 7 is coprime to the slice count: one row per slice
            row = int((7 * slot % slices + rng.random()) * (1 << n) / slices)
            slot += 1
            m = minterm_text(row, order)
            planted = f"({e}) @ ({m}) | ({m}) @ ({e})"
            cases.append(VerifyCase(
                kind, names, ("verify", e, planted, "--format", "structured"),
                row + 1, ref.assignment_of(row, order)))
    rng.shuffle(cases)
    return cases


# --- simplify ----------------------------------------------------------------
# parse -> simplify -> format_expr.  The only workload that exercises the
# law catalog and expression rewriting.  Planted redundancies give the
# greedy rewriter work; irreducible binary terms make it scan without
# rewriting.  A binary term in place of x makes some planted patterns sit
# inside a longer chain, where exact-arity matching misses them.

# fewer cases with more subterms, which cost several times more each
_SIMPLIFY_PER_TERMS = {4: 20, 5: 8, 6: 4, 7: 2, 8: 1}
SIMPLIFY_GRID = tuple((n, k) for n in (8, 12, 16)
                      for k, count in _SIMPLIFY_PER_TERMS.items()
                      for _ in range(count))
PLANTED = ("x @ x", "x @ 0", "1 @ x", "x -> 1", "x & 1", "x | 0", "x -> x",
           "x -> 0", "x & x", "x @ !x")


@dataclass(frozen=True)
class SimplifyCase:
    names: tuple[str, ...]
    text: str
    column: int
    literals: int

    def renamed(self, rng: random.Random) -> SimplifyCase:
        mapping, rename = renaming(rng, self.names)
        return replace(self, names=tuple(mapping[v] for v in self.names),
                       text=rename(self.text))


def _binary(rng: random.Random, names) -> str:
    a, b = rng.sample(names, 2)
    op = rng.choice(("@", "->", "&"))
    return f"{lit_text((a, rng.randint(0, 1)))} {op} " \
        f"{lit_text((b, rng.randint(0, 1)))}"


def make_simplify(seed: int) -> list[SimplifyCase]:
    """Half the subterms are planted, cycling through PLANTED, with x a
    literal and a binary term in turn; the other half are irreducible."""
    rng = rng_for("simplify", seed)
    pattern = rng.randrange(len(PLANTED))
    cases = []
    for n, k in SIMPLIFY_GRID:
        names = random_names(rng, n)
        terms = []
        for j in range(k):
            if j % 2:
                terms.append(_binary(rng, names))
                continue
            if j % 4:
                x = f"({_binary(rng, names)})"
            else:
                x = lit_text((rng.choice(names), rng.randint(0, 1)))
            terms.append(PLANTED[pattern % len(PLANTED)].replace("x", x))
            pattern += 1
        rng.shuffle(terms)
        text = " | ".join(f"({t})" for t in terms)
        column, literals = ref.eval_text(text, ref.variable_columns(names),
                                         ref.full_mask(n))
        cases.append(SimplifyCase(names, text, column, literals))
    rng.shuffle(cases)
    return cases
