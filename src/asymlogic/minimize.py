"""Two-level minimization targeting the asymmetric chain forms.

Prime implicants come from iterative cube merging over the ON-set plus
don't-cares; covers are chosen exactly (essential cubes first, then an
exhaustive branch over the rest) with the objective ordered by total
literal count, then cube count, then ascending cube encoding.  The chosen
cubes are re-emitted as SOI or NOI terms over only their non-dash literals.

Cube notation: one trit per variable in table order ('1' plain, '0'
complemented, '-' absent), so "1-1" over (A, B, C) is the product A AND C.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import CapacityError
from .expr import Expr, Not, Var
from .semantics import (
    TruthTable,
    check_oracle,
    columns,
    lowest_row,
    rows_of,
)
from .canon import noi_form, soi_form

MAX_MINIMIZE_VARS = 12
# Branch-and-bound nodes one cover search may visit.  The synth benchmark's
# hardest covers take about 10**4; uniformly random 7-variable tables pass
# 10**6 within seconds and would otherwise run for minutes.
MAX_COVER_NODES = 1_000_000


@dataclass(frozen=True)
class Cube:
    """A product term: one trit ('0', '1', '-') per variable, MSB first."""

    trits: str

    def __post_init__(self) -> None:
        if not self.trits or any(c not in "01-" for c in self.trits):
            raise ValueError(f"minimize: bad cube string {self.trits!r}")

    @property
    def literal_count(self) -> int:
        return sum(1 for c in self.trits if c != "-")

    def covers(self, row: int) -> bool:
        n = len(self.trits)
        for i, c in enumerate(self.trits):
            if c != "-" and ((row >> (n - 1 - i)) & 1) != int(c):
                return False
        return True

    def sort_key(self) -> tuple[int, str]:
        return (int(self.trits.replace("-", "0"), 2), self.trits)

    def literals(self, names: tuple[str, ...]) -> tuple[Expr, ...]:
        out: list[Expr] = []
        for name, c in zip(names, self.trits):
            if c == "1":
                out.append(Var(name))
            elif c == "0":
                out.append(Not(Var(name)))
        return tuple(out)


@dataclass(frozen=True)
class PrimeImplicantSet:
    variables: tuple[str, ...]
    cubes: tuple[Cube, ...]


@dataclass(frozen=True)
class CoverSolution:
    cubes: tuple[Cube, ...]
    cost: int  # total literal count
    trace: tuple[str, ...]


def _check_rows(rows: Iterable[int], n: int, what: str) -> set[int]:
    out = set()
    for r in rows:
        if not 0 <= r < (1 << n):
            raise ValueError(f"minimize: {what} row {r} out of range for n={n}")
        out.add(r)
    return out


def _trits(value: int, care: int, n: int) -> str:
    chars = []
    for i in range(n):
        bit = n - 1 - i
        if (care >> bit) & 1:
            chars.append("1" if (value >> bit) & 1 else "0")
        else:
            chars.append("-")
    return "".join(chars)


def prime_implicants(
    onset: Iterable[int],
    dc: Iterable[int] = (),
    n: int = 0,
    variables: tuple[str, ...] | None = None,
) -> PrimeImplicantSet:
    """All prime implicants of the ON-set (don't-cares may enlarge cubes).

    Cubes covering only don't-care rows are dropped.  Capacity is capped at
    12 variables; rows outside ``[0, 2**n)`` or overlapping ON/DC sets raise
    ``ValueError``.
    """
    if n > MAX_MINIMIZE_VARS:
        raise CapacityError(
            f"minimize: {n} variables exceeds the cap of {MAX_MINIMIZE_VARS}"
        )
    if n < 1:
        raise ValueError("minimize: need n >= 1")
    ons = _check_rows(onset, n, "ON")
    dcs = _check_rows(dc, n, "DC")
    if ons & dcs:
        raise ValueError(
            f"minimize: ON and DC sets overlap on rows {sorted(ons & dcs)}"
        )
    names = variables if variables is not None else tuple(
        f"x{i}" for i in range(n)
    )
    if len(names) != n:
        raise ValueError("minimize: variable list does not match n")

    full = (1 << n) - 1
    current = {(r, full) for r in ons | dcs}
    primes: set[tuple[int, int]] = set()
    while current:
        merged: set[tuple[int, int]] = set()
        nxt: set[tuple[int, int]] = set()
        by_care: dict[int, list[tuple[int, int]]] = {}
        for cube in current:
            by_care.setdefault(cube[1], []).append(cube)
        for care, group in by_care.items():
            group.sort()
            for i, a in enumerate(group):
                for b in group[i + 1 :]:
                    diff = a[0] ^ b[0]
                    if diff & (diff - 1) == 0 and diff:
                        nxt.add((a[0] & ~diff, care & ~diff))
                        merged.add(a)
                        merged.add(b)
        primes |= current - merged
        current = nxt

    cubes = [Cube(_trits(v, c, n)) for v, c in primes]
    on_rows = sum(1 << r for r in ons)
    cubes = [q for q, m in zip(cubes, _row_masks(cubes, n)) if m & on_rows]
    cubes.sort(key=Cube.sort_key)
    return PrimeImplicantSet(tuple(names), tuple(cubes))


def _row_masks(cubes: Iterable[Cube], n: int) -> list[int]:
    """Each cube's covered rows as a mask: the AND of its literal columns."""
    cols = columns(n)
    full = (1 << (1 << n)) - 1
    out = []
    for q in cubes:
        rows = full
        for c, col in zip(q.trits, cols):
            if c == "1":
                rows &= col
            elif c == "0":
                rows &= ~col
        out.append(rows)
    return out


def minimum_cover(
    primes: PrimeImplicantSet, onset: Iterable[int]
) -> CoverSolution:
    """Exact minimum cover of the ON rows by the given primes.

    Objective: least total literal count, then fewest cubes, then the
    lexicographically least tuple of cube encodings.  Essential primes
    (sole cover of some row) are taken first and recorded in the trace.
    Row sets are int masks, bit ``r`` for row ``r``.  A search that would
    visit more than ``MAX_COVER_NODES`` nodes raises ``CapacityError``.
    """
    cubes = list(primes.cubes)
    masks = _row_masks(cubes, len(primes.variables))
    trace: list[str] = []
    chosen: list[Cube] = []

    uncovered = 0
    for r in set(onset):
        uncovered |= 1 << r
    once = twice = 0
    for m in masks:
        twice |= once & m
        once |= m
    if uncovered & ~once:
        row = lowest_row(uncovered & ~once)
        raise ValueError(f"minimize: ON row {row} covered by no prime")
    # Essentials in order of their lowest sole-cover row.  Taking them
    # cannot make another row's cover unique, since every cube still counts.
    sole = uncovered & ~twice
    essentials = sorted(
        (lowest_row(sole & m), i) for i, m in enumerate(masks) if sole & m
    )
    for r, i in essentials:
        chosen.append(cubes[i])
        trace.append(f"essential {cubes[i].trits}: sole cover of row {r}")
        uncovered &= ~masks[i]

    if uncovered:
        taken = {i for _, i in essentials}
        best = _branch_and_bound(
            [(m, q) for i, (q, m) in enumerate(zip(cubes, masks))
             if i not in taken],
            uncovered,
        )
        for q in sorted(best, key=Cube.sort_key):
            chosen.append(q)
            trace.append(f"selected {q.trits}: completes the cover")

    for q in chosen:
        if q.literal_count == 0:
            trace.append("degenerate: all-dash cube, function is constant 1")
    chosen.sort(key=Cube.sort_key)
    cost = sum(q.literal_count for q in chosen)
    return CoverSolution(tuple(chosen), cost, tuple(trace))


def _branch_and_bound(
    rest: list[tuple[int, Cube]], uncovered: int
) -> list[Cube]:
    """Least-cost cubes of ``rest`` (row mask, cube) covering ``uncovered``.

    Depth first, with an explicit stack so that the depth (one level per
    selected cube) is not bounded by the interpreter's recursion limit.
    Each node branches on its lowest uncovered row, trying the cubes that
    cover it in prime order.  A node is pruned when its (literals, cubes)
    already exceeds the best cover's; ties on both go to the least tuple
    of cube sort keys.
    """
    # (rows, literals, sort key, cube) per cube, listed under each
    # uncovered row it covers, in prime order
    by_row: dict[int, list[tuple[int, int, tuple[int, str], Cube]]] = {}
    for m, q in rest:
        c = (m, q.literal_count, q.sort_key(), q)
        rows = m & uncovered
        while rows:
            by_row.setdefault(lowest_row(rows), []).append(c)
            rows &= rows - 1
    sel: list[tuple[int, int, tuple[int, str], Cube]] = []
    best: list[Cube] = []
    best_key: tuple | None = None
    # open nodes, root first: (literals, uncovered rows, untried branches)
    frames: list[tuple[int, int, Iterator]] = []
    lits, left, nodes = 0, uncovered, 0
    while True:
        nodes += 1
        if nodes > MAX_COVER_NODES:
            raise CapacityError(
                "minimize: the cover search passed its budget of "
                f"{MAX_COVER_NODES} nodes"
            )
        if best_key is None or (lits, len(sel)) <= best_key[:2]:
            if not left:
                key = (lits, len(sel), tuple(sorted(c[2] for c in sel)))
                if best_key is None or key < best_key:
                    best, best_key = [c[3] for c in sel], key
            else:
                frames.append((lits, left, iter(by_row[lowest_row(left)])))
        # step into the next untried branch of the deepest open node
        while frames:
            f_lits, f_left, branches = frames[-1]
            if len(sel) == len(frames):  # back from one of its branches
                sel.pop()
            c = next(branches, None)
            if c is None:
                frames.pop()
                continue
            sel.append(c)
            lits, left = f_lits + c[1], f_left & ~c[0]
            break
        else:
            return best


def minimize_table(t: TruthTable) -> tuple[PrimeImplicantSet, CoverSolution]:
    """Prime implicants and a minimum cover for a table's ON-set."""
    n = len(t.variables)
    ons = rows_of(t.mask)
    if not ons:
        return (
            PrimeImplicantSet(t.variables, ()),
            CoverSolution((), 0, ("empty ON-set: function is constant 0",)),
        )
    primes = prime_implicants(ons, (), n, t.variables)
    return primes, minimum_cover(primes, ons)


def cover_form(t: TruthTable, cover: CoverSolution, form: str) -> Expr:
    """A cover of ``t``'s ON-set as ``form`` "soi" (OR of IAND chains) or
    "noi" (NAND of IMPLY chains), checked against ``t`` by the oracle."""
    products = tuple(q.literals(t.variables) for q in cover.cubes)
    result = noi_form(products) if form == "noi" else soi_form(products)
    check_oracle(result, t, "minimize")
    return result


def minimized_soi(t: TruthTable) -> Expr:
    """Minimum-cover OR of IAND chains for a table."""
    return cover_form(t, minimize_table(t)[1], "soi")


def minimized_noi(t: TruthTable) -> Expr:
    """Minimum-cover NAND of IMPLY chains for a table."""
    return cover_form(t, minimize_table(t)[1], "noi")


def cover_text(primes: PrimeImplicantSet, cover: CoverSolution) -> str:
    """Interchange text: variable-order header line, then one cube per line."""
    lines = [" ".join(primes.variables)]
    lines.extend(q.trits for q in cover.cubes)
    return "\n".join(lines) + "\n"
