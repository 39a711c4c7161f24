"""Two-level minimization targeting the asymmetric chain forms.

Prime implicants come from one implicant mask per dash set ``D`` (a set of
row bits), over the table's int mask: bit ``r`` of ``imp[D]`` is set when
the cube with value ``r`` and dashes ``D`` lies inside ON plus don't-cares.
``imp[0]`` is that union, and adding the dash ``p`` is one shift-AND,
``imp[D | p] = imp[D] & (imp[D] >> 2**p)`` over the rows with bit ``p``
clear.  Only non-empty masks are made: each set grows from the set
without its highest dash, once, and an empty mask ends its growth.  The
primes with dashes ``D`` are the bits of ``imp[D]`` that no implicant with
one more dash contains; each implicant marks its two halves in the sets
one dash smaller.  Covers are chosen exactly
(essential cubes first, then a branch and bound over the rest) with the
objective ordered by total literal count, then cube count, then ascending
cube encoding.  The search runs on ``(value, care)`` pairs, and a set or
cover makes its ``Cube`` objects only when its ``cubes`` are read.  The
CLI's table route hands the chosen pairs to both compilers as literal
codes (``canon.cube_form``), and ``cover_form`` writes the same codes as
an SOI or a NOI.  Only the public ``Cube.literals`` and
``CoverSolution.products`` decode codes into ``Var`` / ``Not`` literals.

Cubes are ``(value, care)`` ints over the row bits, first variable as the
MSB.  Their trit view has one character per variable in table order ('1'
plain, '0' complemented, '-' absent), so "1-1" over (A, B, C) is the
product A AND C: value 0b101, care 0b101.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import CapacityError
from .expr import Expr, _check_name
from .semantics import (
    TruthTable,
    _rails,
    check_oracle,
    lowest_row,
    rows_of,
)
from .canon import cube_form, literal_table, noi_form, soi_form

Pair = tuple[int, int]  # a cube as (value, care)
Product = tuple[Expr, ...]  # literals: each a Var or a Not(Var)

MAX_MINIMIZE_VARS = 12
# Budget units one cover search may use (see ``_branch_and_bound``).  The
# synth benchmark's hardest cover takes about 4 * 10**3; most uniformly
# random 8-variable tables pass 10**6 within a second and would otherwise
# run for minutes.
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
        vars(self).update(value=value, care=care, width=len(trits))

    @classmethod
    def _of(cls, value: int, care: int, width: int) -> "Cube":
        q = object.__new__(cls)
        vars(q).update(value=value, care=care, width=width)
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
        if not 0 <= row < 1 << self.width:
            raise ValueError(
                f"minimize: row {row} is outside [0, 2**{self.width})"
            )
        return row & self.care == self.value

    def sort_key(self) -> tuple[int, int]:
        """Value, then care: the same order as the trit view's
        ``(int(trits.replace("-", "0"), 2), trits)``, since '-' sorts
        before '0'."""
        return (self.value, self.care)

    def literals(self, names: tuple[str, ...]) -> Product:
        """The cube as a product of ``names``, the table's variables."""
        self._check_width(len(names))
        return _products(names, [(self.value, self.care)])[0]

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
        for name in self.variables:
            _check_name(name, "minimize")
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("minimize: duplicate variable names")
        for q in self.cubes:
            q._check_width(len(self.variables))

    @classmethod
    def _of(
        cls, variables: tuple[str, ...], pairs: tuple[Pair, ...]
    ) -> "PrimeImplicantSet":
        """The set of ``(value, care)`` pairs over a table's names, which
        the table has checked; its ``cubes`` are made on first read."""
        s = object.__new__(cls)
        vars(s).update(variables=variables, _pairs=pairs,
                       _width=len(variables))
        return s

    def __getattr__(self, name: str):
        return _cube_view(self, name)


def _cube_view(obj, name: str):
    """A missing ``cubes`` or ``_pairs`` of a set or a cover, made from the
    other on first read: the search keeps ``(value, care)`` pairs, and a
    set or cover built from cubes has only those."""
    d = vars(obj)
    if name == "cubes" and "_pairs" in d:
        d[name] = tuple([Cube._of(*q, d["_width"]) for q in d["_pairs"]])
    elif name == "_pairs" and "cubes" in d:
        d[name] = tuple([(q.value, q.care) for q in d["cubes"]])
    else:
        raise AttributeError(
            f"{type(obj).__name__!r} object has no attribute {name!r}"
        )
    return d[name]


# the trace line of each kind of cover search event (kind, cube, row)
_TRACE = {
    "essential": "essential {q.trits}: sole cover of row {row}",
    "selected": "selected {q.trits}: completes the cover",
    "degenerate": "degenerate: all-dash cube, function is constant 1",
}


@dataclass(frozen=True)
class CoverSolution:
    """A cover, its literal count and the steps that chose it.  A cover
    from the search keeps its cubes as ``(value, care)`` pairs, and makes
    its ``cubes`` and words its ``trace`` when each is first read."""

    cubes: tuple[Cube, ...]
    cost: int  # total literal count
    trace: tuple[str, ...]

    def __getattr__(self, name: str):
        # called only for a missing attribute: the trace of a cover from
        # the search, worded from its (kind, pair, row) events
        if name != "trace" or "_events" not in vars(self):
            return _cube_view(self, name)
        width = self._width
        trace = tuple([
            _TRACE[kind].format(q=q and Cube._of(*q, width), row=row)
            for kind, q, row in self._events])
        vars(self)["trace"] = trace
        return trace

    def products(self, names: tuple[str, ...]) -> tuple[Product, ...]:
        """The cubes as products of ``names``, the table's variables.  The
        literals are decoded through one ``canon.literal_table``, so each
        variable is one ``Var`` and one ``Not`` across all products."""
        _check_widths(self, len(names))
        return _products(names, self._pairs)


def _check_widths(cover: CoverSolution, n: int) -> None:
    """Each cube of ``cover`` has ``n`` trits.  A cover from the search
    holds the one width of its cubes, so its cubes are made only when that
    width is not ``n``, to name the first that differs."""
    if vars(cover).get("_width") != n:
        for q in cover.cubes:
            q._check_width(n)


def _products(
    names: tuple[str, ...], pairs: Iterable[Pair]
) -> tuple[Product, ...]:
    """Cubes over ``names`` as products of literals.  Each name is checked
    as its ``Var`` checks it, whether a cube reads it or not."""
    for name in names:
        _check_name(name, "expr")
    names, codes = cube_form(names, pairs)
    lit = literal_table(names)
    return tuple([tuple(map(lit.__getitem__, p)) for p in codes])


def _check_size(n: int) -> None:
    if n > MAX_MINIMIZE_VARS:
        raise CapacityError(
            f"minimize: {n} variables exceeds the cap of {MAX_MINIMIZE_VARS}"
        )


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
    if n < 1:
        raise ValueError("minimize: need n >= 1")
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
    return PrimeImplicantSet(tuple(names), tuple(
        [Cube._of(v, c, n) for v, c in _prime_implicants(on, dcs, n)]))


def _prime_implicants(on: int, dc: int, n: int) -> tuple[Pair, ...]:
    """The cubes of ``prime_implicants`` over row masks, as ``(value,
    care)`` pairs in order; the caller has checked that
    ``n <= MAX_MINIMIZE_VARS``."""
    full = (1 << n) - 1
    # (2**p, the rows whose bit p is 0) for each dash p
    dashes = [(1 << p, ~col) for p, col in enumerate(reversed(_rails(n)[0]))]
    # (d, imp[d]) for each dash set d whose mask is non-empty.  Each set is
    # grown once, from d without its highest dash, and an empty mask stops
    # the growth, since every superset's mask is then empty too.
    grown = [(0, on | dc)]
    for d, m in grown:  # grows as it is read
        for low, clear in dashes[d.bit_length():]:
            up = m & (m >> low) & clear
            if up:
                grown.append((d | low, up))
    # covered[d]: the values with dashes d inside an implicant with one
    # more dash, both halves of each, marked from the larger sets
    covered = [0] * (1 << n)
    for d, m in grown:
        rest = d
        while rest:
            low = rest & -rest
            covered[d ^ low] |= m | m << low
            rest ^= low
    found = []
    for d, m in grown:
        m &= ~covered[d]
        care = full ^ d
        while m:
            found.append((lowest_row(m), care))
            m &= m - 1
    found.sort()
    if dc:  # drop the cubes that cover only don't-cares
        found = [q for q in found if _rows(*q, n) & on]
    return tuple(found)


def _rows(value: int, care: int, width: int) -> int:
    """The rows a cube covers as a mask: its value, doubled once per dash."""
    rows = 1 << value
    dashes = ((1 << width) - 1) ^ care
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
    ``[0, 2**n)`` raises ``ValueError``, as in ``prime_implicants``.  The
    search after the essentials prunes with a lower bound, so the cover
    is the one optimum of this objective however it is found.  It has a
    budget of ``MAX_COVER_NODES`` units, one per search node, one per row
    its bound visits and one per cube of each complete cover compared on
    the tie-break; a search that needs more raises ``CapacityError``.
    """
    return _minimum_cover(
        primes, _row_mask(onset, len(primes.variables), "ON"))


def _minimum_cover(primes: PrimeImplicantSet, uncovered: int) -> CoverSolution:
    """``minimum_cover`` of the ON rows in the mask ``uncovered``."""
    cubes = primes._pairs
    width = len(primes.variables)
    masks = [_rows(v, c, width) for v, c in cubes]
    events: list[tuple[str, Pair | None, int | None]] = []
    chosen: list[Pair] = []
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
        events.append(("essential", cubes[i], r))
        uncovered &= ~masks[i]

    if uncovered:
        taken = {i for _, i in essentials}
        best = _branch_and_bound(
            [(m, q) for i, (q, m) in enumerate(zip(cubes, masks))
             if i not in taken],
            uncovered,
        )
        for q in sorted(best):
            chosen.append(q)
            events.append(("selected", q, None))

    for q in chosen:
        if not q[1]:
            events.append(("degenerate", q, None))
    chosen.sort()
    cover = object.__new__(CoverSolution)
    vars(cover).update(cost=sum(c.bit_count() for _, c in chosen),
                       _pairs=tuple(chosen), _width=width, _events=events)
    return cover


def _branch_and_bound(
    rest: list[tuple[int, Pair]], uncovered: int
) -> list[Pair]:
    """Least-cost cubes of ``rest`` (row mask, ``(value, care)`` pair)
    covering ``uncovered``.

    The uncovered rows are renumbered once, fewest covering cubes first and
    then by row, so a node's lowest uncovered row is its most constrained
    one.  The search is depth first, with an explicit stack so that the
    depth (one level per selected cube) is not bounded by the interpreter's
    recursion limit.  Each node branches on its lowest uncovered row,
    trying the cubes that cover it in prime order, unless its bound prunes
    it.

    The bound, once a cover is known, takes a greedy independent set of
    the uncovered rows, in row order: rows no cube covers two of.  Any
    completion selects a cube of its own for each such row, with at least
    that row's cheapest cube's literals, so it ends at no less than the
    node's (literals, cubes) plus the set's (cheapest literals, size), and
    so does every part of the set.  The set grows until that bound exceeds
    the best cover's (literals, cubes), in tuple order, and the node is
    then pruned: each completion has more literals than the best, or as
    many and more cubes, so its key is greater whatever its sort keys.  A
    node whose bound only ties is kept, so ties on both still go to the
    least tuple of cube sort keys, and the cover returned is the one
    optimum of the full objective.

    The budget is ``MAX_COVER_NODES`` units: one per node, one per row the
    bound visits, and one per cube of each complete cover whose sort keys
    are compared; a search that needs more raises ``CapacityError``.
    """
    # the indices in ``rest`` of the cubes covering each uncovered row
    covering: dict[int, list[int]] = {}
    for j, (m, _) in enumerate(rest):
        rows = m & uncovered
        while rows:
            covering.setdefault(lowest_row(rows), []).append(j)
            rows &= rows - 1
    # row i below is the i-th most constrained; masks are over these rows
    order = sorted(covering, key=lambda r: (len(covering[r]), r))
    masks = [0] * len(rest)
    for i, r in enumerate(order):
        for j in covering[r]:
            masks[j] |= 1 << i
    # (rows, literals, cube) per cube, listed under each row it covers in
    # prime order; per row, the rows sharing a cube with it and the
    # literals of its cheapest cube.  A pair is its own sort key.
    cubes = [(m, q[1].bit_count(), q) for m, (_, q) in zip(masks, rest)]
    by_row = [[cubes[j] for j in covering[r]] for r in order]
    near = [0] * len(order)
    for i, b in enumerate(by_row):
        for c in b:
            near[i] |= c[0]
    cheapest = [min(c[1] for c in b) for b in by_row]
    sel: list[tuple[int, int, Pair]] = []
    best: list[Pair] = []
    best_key: tuple | None = None
    cap: tuple[int, int] | None = None  # the best cover's (literals, cubes)
    # open nodes, root first: (literals, uncovered rows, untried branches)
    frames: list[tuple[int, int, Iterator]] = []
    lits, left, units = 0, (1 << len(order)) - 1, 0
    while True:
        units += 1
        bound, free = (lits, len(sel)), left
        if cap is not None:
            while free and bound <= cap:
                i = lowest_row(free)
                bound = (bound[0] + cheapest[i], bound[1] + 1)
                free &= ~near[i]
                units += 1
        if cap is None or bound <= cap:
            if not left:
                units += len(sel)
                key = (lits, len(sel), tuple(sorted(c[2] for c in sel)))
                if best_key is None or key < best_key:
                    best, best_key, cap = [c[2] for c in sel], key, key[:2]
            else:
                frames.append((lits, left, iter(by_row[lowest_row(left)])))
        if units > MAX_COVER_NODES:
            raise CapacityError(
                "minimize: the cover search passed its budget of "
                f"{MAX_COVER_NODES} nodes"
            )
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
            PrimeImplicantSet._of(t.variables, ()),
            CoverSolution((), 0, ("empty ON-set: function is constant 0",)),
        )
    n = len(t.variables)
    _check_size(n)
    primes = PrimeImplicantSet._of(
        t.variables, _prime_implicants(t.mask, 0, n))
    return primes, _minimum_cover(primes, t.mask)


def cover_form(t: TruthTable, cover: CoverSolution, form: str) -> Expr:
    """A cover of ``t``'s ON-set as ``form`` "soi" (OR of IAND chains) or
    "noi" (NAND of IMPLY chains), checked against ``t`` by the oracle."""
    _check_widths(cover, len(t.variables))
    codes = cube_form(t.variables, cover._pairs)
    result = noi_form(codes) if form == "noi" else soi_form(codes)
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
