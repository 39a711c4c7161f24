"""Two-input gate netlists for SOI expressions.

The gate library has exactly two cells, matching a device whose second
input is inverting:

* ``OR(a, b)``   = a OR b
* ``IAND(a, b)`` = a AND NOT b

An SOI expression maps directly: each IAND chain becomes a left-to-right
cascade of IAND cells, and the OR of terms becomes a balanced tree of OR
cells.  Gate inputs are references: ``in:<name>`` reads a primary input,
``!in:<name>`` reads its complement (an inverting input tap, which lets a
complemented chain head or operand cost zero gates), and ``g<i>`` reads an
earlier gate.  Gates are listed in topological order.

The compiler reads a sum of products, from an expression by
``canon.soi_products`` (folding constant operands) or from a table's cover;
a product ``l1 .. lk`` becomes the cascade ``l1 IAND !l2 ... IAND !lk``.

One loop replays a netlist: each value is a mask of rows
(``semantics.columns``), a tap ``!in:x`` reads ``full ^ x``, ``OR`` is
``a | b`` and ``IAND`` is ``a & (full ^ b)``.  The compiler runs it once
over all rows and checks the output mask against its source, an expression
or a table; ``simulate_netlist`` runs it over the single row ``full = 1``.  A
``Netlist`` checks its references when it is built, so the loop reads
only values that exist.
"""

from __future__ import annotations

from dataclasses import dataclass

from .canon import Product, soi_products
from .errors import EvaluationError
from .expr import Expr, Not, variables
from .semantics import MAX_TABLE_VARS, TruthTable, check_oracle, columns


@dataclass(frozen=True)
class Gate:
    gid: int
    kind: str  # "OR" | "IAND"
    in_a: str
    in_b: str

    def __post_init__(self) -> None:
        if self.kind not in ("OR", "IAND"):
            raise ValueError(f"spindiode: unknown gate kind {self.kind!r}")

    @property
    def ref(self) -> str:
        return f"g{self.gid}"


@dataclass(frozen=True)
class Netlist:
    inputs: tuple[str, ...]
    gates: tuple[Gate, ...]
    output: str

    def __post_init__(self) -> None:
        """Check every reference, then resolve each to a value slot once.

        Input ``i`` reads slot ``i`` and its complement slot ``n + i``.  A
        gate writes the slot of a gate value past its last read, if there
        is one, so a replay over all rows holds only values still to be
        read.
        """
        n = len(self.inputs)
        base = 2 * n  # gate k is value base + k
        slot = {f"in:{x}": i for i, x in enumerate(self.inputs)}
        slot.update((f"!in:{x}", n + i) for i, x in enumerate(self.inputs))
        ops = []
        for k, g in enumerate(self.gates):
            if g.gid != k:
                raise ValueError(
                    f"spindiode: gate {k} is numbered g{g.gid}; "
                    f"gates must be g0, g1, ... in order"
                )
            a, b = slot.get(g.in_a), slot.get(g.in_b)
            if a is None or b is None:
                bad = g.in_a if a is None else g.in_b
                raise ValueError(
                    f"spindiode: g{k} reads {bad!r}, which is neither a "
                    f"declared input tap nor an earlier gate"
                )
            ops.append((g.kind == "OR", a, b))
            slot[f"g{k}"] = base + k
        out = slot.get(self.output)
        if out is None:
            raise ValueError(
                f"spindiode: output {self.output!r} is neither a declared "
                f"input tap nor a gate"
            )
        last = [len(ops)] * (base + len(ops))  # each value's last reader
        for k, (_, a, b) in enumerate(ops):
            last[a] = last[b] = k
        last[out] = len(ops)
        where = list(range(base))  # the slot of each value
        free: list[int] = []
        size = base
        plan = []
        for k, (is_or, a, b) in enumerate(ops):
            if a >= base and last[a] == k:
                free.append(where[a])
            if b >= base and b != a and last[b] == k:
                free.append(where[b])
            if free:
                where.append(free.pop())
            else:
                where.append(size)
                size += 1
            plan.append((is_or, where[a], where[b], where[-1]))
        object.__setattr__(self, "_plan", (size, tuple(plan), where[out]))


def _ref(lit: Expr, invert: bool = False) -> str:
    """The input tap reading a literal, or its complement if ``invert``."""
    if type(lit) is Not:
        lit, invert = lit.child, not invert
    return f"!in:{lit.name}" if invert else f"in:{lit.name}"


def compile_soi(e: Expr, inputs: tuple[str, ...] | None = None) -> Netlist:
    """Compile an SOI expression to an OR/IAND netlist.

    ``inputs`` fixes the primary-input order (it must cover the expression's
    variables); by default the expression's first-appearance order is used.
    Constant expressions need at least one declared input to realize the
    constant as ``x IAND x`` (0) or ``x OR NOT x`` (1).

    Up to ``MAX_TABLE_VARS`` inputs, the netlist is replayed over every
    input row and checked against ``e`` (``semantics.check_oracle``): a
    wrong netlist raises ``AssertionError``.
    """
    used = variables(e)
    if inputs is None:
        names = used
    else:
        names = tuple(inputs)
        if len(set(names)) != len(names):
            raise ValueError("spindiode: duplicate input names")
        missing = [v for v in used if v not in names]
        if missing:
            raise EvaluationError(
                f"spindiode: inputs do not cover variables {missing}"
            )
    return _compile(names, soi_products(e), e)


def _compile(
    names: tuple[str, ...], products: tuple[Product, ...],
    want: Expr | TruthTable,
) -> Netlist:
    """The netlist of a sum of products, checked against ``want``."""
    gates: list[Gate] = []

    def emit(kind: str, in_a: str, in_b: str) -> str:
        gates.append(Gate(len(gates), kind, in_a, in_b))
        return gates[-1].ref

    if products in ((), ((),)):  # constant 0 or 1
        if not names:
            raise ValueError(
                "spindiode: a constant netlist needs at least one input"
            )
        x = f"in:{names[0]}"
        if products:  # x OR NOT x
            out = emit("OR", x, f"!in:{names[0]}")
        else:  # x IAND x
            out = emit("IAND", x, x)
    else:
        refs = []
        for p in products:
            acc = _ref(p[0])
            for x in p[1:]:
                acc = emit("IAND", acc, _ref(x, True))
            refs.append(acc)
        while len(refs) > 1:  # balanced OR tree by adjacent pairing
            nxt = [
                emit("OR", refs[i], refs[i + 1])
                for i in range(0, len(refs) - 1, 2)
            ]
            if len(refs) % 2:
                nxt.append(refs[-1])
            refs = nxt
        out = refs[0]

    netlist = Netlist(names, tuple(gates), out)
    n = len(names)
    if n <= MAX_TABLE_VARS:
        mask = _replay(netlist, columns(n), (1 << (1 << n)) - 1)
        check_oracle(want, TruthTable.from_mask(names, mask), "spindiode")
    return netlist


def simulate_netlist(netlist: Netlist, inputs: dict[str, int]) -> int:
    """Evaluate the netlist on one assignment of every declared input.

    This is the one-row case of the replay ``compile_soi`` runs over every
    row at once.
    """
    bits = []
    for name in netlist.inputs:
        if name not in inputs:
            raise EvaluationError(f"spindiode: unbound input {name!r}")
        bit = inputs[name]
        if bit not in (0, 1):
            raise EvaluationError(f"spindiode: input {name!r} must be 0 or 1")
        bits.append(bit)
    return _replay(netlist, bits, 1)


def _replay(netlist: Netlist, cols: list[int], full: int) -> int:
    """The output's row mask within ``full``, given each input's mask."""
    size, plan, out = netlist._plan
    vals = cols + [full ^ c for c in cols]
    vals += [0] * (size - len(vals))
    for is_or, a, b, dst in plan:
        vals[dst] = vals[a] | vals[b] if is_or else vals[a] & (full ^ vals[b])
    return vals[out]


def netlist_stats(netlist: Netlist) -> dict[str, int]:
    """Gate count, depth (longest input-to-output path), and per-kind counts."""
    depth: dict[str, int] = {}

    def ref_depth(ref: str) -> int:
        return depth.get(ref, 0)  # primary inputs are depth 0

    for g in netlist.gates:
        depth[g.ref] = 1 + max(ref_depth(g.in_a), ref_depth(g.in_b))
    return {
        "gates": len(netlist.gates),
        "depth": ref_depth(netlist.output),
        "iands": sum(1 for g in netlist.gates if g.kind == "IAND"),
        "ors": sum(1 for g in netlist.gates if g.kind == "OR"),
    }


def gate_text(g: Gate) -> str:
    """One gate as an interchange line: ``g<i> = <KIND> <a> <b>``."""
    return f"{g.ref} = {g.kind} {g.in_a} {g.in_b}"


def netlist_text(netlist: Netlist) -> str:
    """Interchange text: inputs header, one gate per line, output footer."""
    lines = ["inputs " + " ".join(netlist.inputs)]
    lines.extend(map(gate_text, netlist.gates))
    lines.append(f"output {netlist.output}")
    return "\n".join(lines) + "\n"
