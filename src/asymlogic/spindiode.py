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

The expression is read as a sum of products (``canon.soi_products``), which
folds constant operands before any gate is emitted; a product ``l1 .. lk``
becomes the cascade ``l1 IAND !l2 ... IAND !lk``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .canon import soi_products
from .errors import EvaluationError
from .expr import Expr, Not, variables


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

    gates: list[Gate] = []

    def emit(kind: str, in_a: str, in_b: str) -> str:
        gates.append(Gate(len(gates), kind, in_a, in_b))
        return gates[-1].ref

    products = soi_products(e)
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
        return Netlist(names, tuple(gates), out)

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
    return Netlist(names, tuple(gates), refs[0])


def _ref_value(ref: str, inputs: dict[str, int], vals: dict[str, int]) -> int:
    if ref.startswith("in:") or ref.startswith("!in:"):
        name = ref.split(":", 1)[1]
        if name not in inputs:
            raise EvaluationError(f"spindiode: unbound input {name!r}")
        bit = inputs[name]
        if bit not in (0, 1):
            raise EvaluationError(f"spindiode: input {name!r} must be 0 or 1")
        return 1 - bit if ref.startswith("!") else bit
    return vals[ref]


def simulate_netlist(netlist: Netlist, inputs: dict[str, int]) -> int:
    """Evaluate the netlist (gates are already in topological order)."""
    vals: dict[str, int] = {}
    for g in netlist.gates:
        a = _ref_value(g.in_a, inputs, vals)
        b = _ref_value(g.in_b, inputs, vals)
        vals[g.ref] = (a | b) if g.kind == "OR" else (a & (1 - b))
    return _ref_value(netlist.output, inputs, vals)


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
