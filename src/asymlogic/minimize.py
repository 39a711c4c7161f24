"""Two-level minimization targeting the asymmetric chain forms.

Prime implicants come from one implicant mask per dash set ``D`` (a set of
row bits), over the table's int mask: bit ``r`` of ``imp[D]`` is set when
the cube with value ``r`` and dashes ``D`` lies inside ON plus don't-cares.
``imp[0]`` is that union, and adding the dash ``p`` is one shift-AND,
``imp[D | p] = imp[D] & (imp[D] >> 2**p)`` over the rows with bit ``p``
clear.  The primes with dashes ``D`` are the bits of ``imp[D]`` that no
implicant with one more dash contains.  Covers are chosen exactly
(essential cubes first, then an exhaustive branch over the rest) with the
objective ordered by total literal count, then cube count, then ascending
cube encoding.  The chosen cubes are re-emitted as SOI or NOI terms over
only their non-dash literals.

Cubes are ``(value, care)`` ints over the row bits, first variable as the
MSB.  Their trit view has one character per variable in table order ('1'
plain, '0' complemented, '-' absent), so "1-1" over (A, B, C) is the
product A AND C: value 0b101, care 0b101.
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


@dataclass(frozen=True, init=False, repr=False)
class Cube:
    """A product term over ``width`` variables, as ints over the row bits.

    Bit ``i`` of ``care`` is set when the variable of row bit ``i`` (the
    first variable is the MSB) appears in the product, and bit ``i`` of
    ``value`` is then its polarity, 1 plain and 0 complemented; ``value``
    is 0 outside ``care``.  ``Cube("1-0")`` parses the trit view, which
    ``trits`` gives back: value 0b100, care 0b101, width 3.
    """

    value: int
    care: int
    width: int

    def __init__(self, trits: str) -> None:
        if not trits or not set(trits) <= {"0", "1", "-"}:
            raise ValueError(f"minimize: bad cube string {trits!r}")
        value = int(trits.replace("-", "0"), 2)
        care = int(trits.replace("0", "1").replace("-", "0"), 2)
        self._set(value, care, len(trits))

    def _set(self, value: int, care: int, width: int) -> None:
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "care", care)
        object.__setattr__(self, "width", width)

    @classmethod
    def _of(cls, value: int, care: int, width: int) -> "Cube":
        q = cls.__new__(cls)
        q._set(value, care, width)
        return q

    def __repr__(self) -> str:
        return f"Cube(trits={self.trits!r})"

    @property
    def trits(self) -> str:
        """One trit per variable in table order: '1', '0' or '-'."""
        v, c = self.value, self.care
        return "".join(
            ("1" if v >> i & 1 else "0") if c >> i & 1 else "-"
            for i in range(self.width - 1, -1, -1)
        )

    @property
    def literal_count(self) -> int:
        return self.care.bit_count()

    def covers(self, row: int) -> bool:
        return row & self.care == self.value

    def sort_key(self) -> tuple[int, int]:
        """Value, then care: the same order as the trit view's
        ``(int(trits.replace("-", "0"), 2), trits)``, since '-' sorts
        before '0'."""
        return (self.value, self.care)

    def literals(self, names: tuple[str, ...]) -> tuple[Expr, ...]:
        self._check_width(len(names))
        out: list[Expr] = []
        for i, name in enumerate(names):
            bit = 1 << (self.width - 1 - i)
            if self.care & bit:
                out.append(Var(name) if self.value & bit else Not(Var(name)))
        return tuple(out)

    def _check_width(self, n: int) -> None:
        if self.width != n:
            raise ValueError(
                f"minimize: cube {self.trits} has {self.width} trits "
                f"for {n} variables"
            )


@dataclass(frozen=True)
class PrimeImplicantSet:
    variables: tuple[str, ...]
    cubes: tuple[Cube, ...]

    def __post_init__(self) -> None:
        for q in self.cubes:
            q._check_width(len(self.variables))


@dataclass(frozen=True)
class CoverSolution:
    cubes: tuple[Cube, ...]
    cost: int  # total literal count
    trace: tuple[str, ...]


def _check_size(n: int) -> None:
    if n > MAX_MINIMIZE_VARS:
        raise CapacityError(
            f"minimize: {n} variables exceeds the cap of {MAX_MINIMIZE_VARS}"
        )
    if n < 1:
        raise ValueError("minimize: need n >= 1")


def _row_mask(rows: Iterable[int], n: int, what: str) -> int:
    mask = 0
    for r in rows:
        if not 0 <= r < (1 << n):
            raise ValueError(f"minimize: {what} row {r} out of range for n={n}")
        mask |= 1 << r
    return mask


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
    _check_size(n)
    on = _row_mask(onset, n, "ON")
    dcs = _row_mask(dc, n, "DC")
    if on & dcs:
        raise ValueError(
            f"minimize: ON and DC sets overlap on rows {rows_of(on & dcs)}"
        )
    names = variables if variables is not None else tuple(
        f"x{i}" for i in range(n)
    )
    if len(names) != n:
        raise ValueError("minimize: variable list does not match n")
    return _prime_implicants(on, dcs, tuple(names))


def _prime_implicants(
    on: int, dc: int, names: tuple[str, ...]
) -> PrimeImplicantSet:
    """``prime_implicants`` over row masks; the caller has checked that
    ``1 <= len(names) <= MAX_MINIMIZE_VARS``."""
    n = len(names)
    full = (1 << n) - 1
    # clear[p]: the rows whose bit p is 0
    clear = [~col for col in reversed(columns(n))]
    # imp[d]: the values of the implicants with dash set d (0 once a
    # subset's mask is empty, since every superset's is then empty too)
    imp = [0] * (1 << n)
    imp[0] = on | dc
    for d in range(1, 1 << n):
        low = d & -d
        m = imp[d ^ low]
        if m:
            imp[d] = m & (m >> low) & clear[low.bit_length() - 1]
    found = []
    for d, m in enumerate(imp):
        if not m:
            continue
        care = full ^ d
        rest = care
        while rest:  # drop the halves of each implicant with one more dash
            low = rest & -rest
            up = imp[d | low]
            m &= ~(up | up << low)
            rest ^= low
        while m:
            found.append((lowest_row(m), care))
            m &= m - 1
    found.sort()
    cubes = [Cube._of(v, c, n) for v, c in found]
    if dc:  # drop the cubes that cover only don't-cares
        cubes = [q for q in cubes if _rows(q) & on]
    return PrimeImplicantSet(names, tuple(cubes))


def _rows(q: Cube) -> int:
    """The rows a cube covers as a mask: its value, doubled once per dash."""
    rows = 1 << q.value
    dashes = ((1 << q.width) - 1) ^ q.care
    while dashes:
        low = dashes & -dashes
        rows |= rows << low
        dashes ^= low
    return rows


def minimum_cover(
    primes: PrimeImplicantSet, onset: Iterable[int]
) -> CoverSolution:
    """Exact minimum cover of the ON rows by the given primes.

    Objective: least total literal count, then fewest cubes, then the
    lexicographically least tuple of cube encodings.  Essential primes
    (sole cover of some row) are taken first and recorded in the trace.
    Row sets are int masks, bit ``r`` for row ``r``.  An ON row outside
    ``[0, 2**n)`` raises ``ValueError``, as in ``prime_implicants``.  A
    search that would visit more than ``MAX_COVER_NODES`` nodes raises
    ``CapacityError``.
    """
    cubes = list(primes.cubes)
    masks = [_rows(q) for q in cubes]
    trace: list[str] = []
    chosen: list[Cube] = []

    uncovered = _row_mask(onset, len(primes.variables), "ON")
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
    by_row: dict[int, list[tuple[int, int, tuple[int, int], Cube]]] = {}
    for m, q in rest:
        c = (m, q.literal_count, q.sort_key(), q)
        rows = m & uncovered
        while rows:
            by_row.setdefault(lowest_row(rows), []).append(c)
            rows &= rows - 1
    sel: list[tuple[int, int, tuple[int, int], Cube]] = []
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
    if not t.mask:
        return (
            PrimeImplicantSet(t.variables, ()),
            CoverSolution((), 0, ("empty ON-set: function is constant 0",)),
        )
    _check_size(len(t.variables))
    primes = _prime_implicants(t.mask, 0, t.variables)
    return primes, minimum_cover(primes, rows_of(t.mask))


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
