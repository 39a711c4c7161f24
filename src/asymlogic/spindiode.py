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

Over ``n`` inputs, input ``i`` is value ``i``, its complement ``n + i`` and
gate ``k`` value ``2n + k``.  The compiler reads a two-level form of
literal codes (``canon``), from a table's cover or, by one pass of the
canon reader, from an expression, with its constant operands folded.  A
code ``c`` reads tap ``tap[c]``, a plain literal its input and a
complemented one the input's complement, so ``tap[c ^ 1]`` is the
complement.  A product ``l1 .. lk`` becomes the cascade
``l1 IAND !l2 ... IAND !lk``, emitted as ``(is_or, a, b)`` gates over
value indices.

The compiler builds its netlist straight from those gates
(``_from_plan``), and the ``Netlist`` constructor resolves the reference
text of a hand-built one into the same gates.  Both run one check over
them (``_settle``), which also records each value's last reader: inputs
are distinct names, a gate reads only taps and earlier gates, and the
output is a value.  A plan-built netlist makes its ``gates`` on first
read; ``netlist_text`` formats the indices.
One loop replays the gates: each value is a mask of rows, the taps
``in:x`` and ``!in:x`` start from the table's rails (``semantics._rails``),
a column and its complement, ``OR`` is ``a | b`` and ``IAND`` is
``a & (full ^ b)``; each gate appends its value, and a value is dropped
after its last read.  The compiler refuses more than ``MAX_TABLE_VARS``
inputs, runs the loop over all rows, checks the output mask against its
source and keeps that checked column on the netlist: 2^n bits for n
inputs, 2 MiB at the 24-input table cap.  ``simulate_netlist`` of a
compiled netlist reads its output from that column; a netlist built by
the constructor or by ``dataclasses.replace`` has none, and
``simulate_netlist`` runs the loop over the single row ``full = 1``.
``netlist_stats`` takes depth over the same gates; ``netlist_text`` takes
each gate's own reference from the value texts it formats the gates'
inputs with.
"""

from __future__ import annotations

from dataclasses import dataclass

from .canon import Form, _read
from .errors import EvaluationError
from .expr import Expr, _check_name
from .semantics import TruthTable, _bit, _check_count, _rails, check_oracle


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
        """Resolve every reference to a value index once, then check the
        result as ``_from_plan`` does."""
        value = {r: v for v, r in
                 enumerate(_references(self.inputs, len(self.gates)))}
        ops = []
        for k, g in enumerate(self.gates):
            if g.gid != k:
                raise ValueError(
                    f"spindiode: gate {k} is numbered g{g.gid}; "
                    f"gates must be g0, g1, ... in order"
                )
            a, b = value.get(g.in_a), value.get(g.in_b)
            if a is None or b is None:
                raise _bad_read(k, g.in_a if a is None else g.in_b)
            ops.append((g.kind == "OR", a, b))
        out = value.get(self.output)
        if out is None:
            raise _bad_output(self.output)
        _settle(self, tuple(ops), out)

    def __getattr__(self, name: str):
        # called only for a missing attribute: the gates of a plan-built
        # netlist, made on first read
        if name != "gates" or "_ops" not in vars(self):
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        text = _references(self.inputs, len(self._ops))
        gates = tuple([Gate(k, _KIND[is_or], text[a], text[b])
                       for k, (is_or, a, b) in enumerate(self._ops)])
        vars(self)["gates"] = gates
        return gates


_KIND = ("IAND", "OR")  # a gate's kind, indexed by its is_or flag


def _from_plan(
    inputs: tuple[str, ...], ops: tuple[tuple[bool, int, int], ...], out: int
) -> Netlist:
    """The netlist of ``(is_or, a, b)`` gates over value indices with
    output value ``out``, checked as the constructor checks it; its
    ``gates`` are made on first read."""
    netlist = object.__new__(Netlist)
    vars(netlist).update(inputs=inputs, output=_reference(inputs, out))
    _settle(netlist, ops, out)
    return netlist


def _settle(
    netlist: Netlist, ops: tuple[tuple[bool, int, int], ...], out: int
) -> None:
    """Check the inputs and a plan of gates over value indices, then keep
    it as ``_ops``, the output value as ``_out`` and each value's last
    reader as ``_last`` (the gate count for the output and an unread
    value).  Raise ``ValueError`` for a duplicate input or one that is not
    a name, a gate that reads itself or a later value, or an output that
    is no value."""
    inputs = netlist.inputs
    n = len(inputs)
    if len(set(inputs)) != n:
        raise ValueError("spindiode: duplicate input names")
    for name in inputs:
        _check_name(name, "spindiode")
    base = 2 * n  # gate k is value base + k
    end = len(ops)
    last = [end] * (base + end)  # each value's last reader
    for k, (_, a, b) in enumerate(ops):
        if not (0 <= a < base + k and 0 <= b < base + k):
            bad = b if 0 <= a < base + k else a
            raise _bad_read(k, _reference(inputs, bad))
        last[a] = last[b] = k
    if not 0 <= out < base + end:
        raise _bad_output(_reference(inputs, out))
    last[out] = end
    vars(netlist).update(_ops=ops, _out=out, _last=tuple(last))


def _bad_read(k: int, ref: str) -> ValueError:
    return ValueError(
        f"spindiode: g{k} reads {ref!r}, which is neither a declared input "
        f"tap nor an earlier gate"
    )


def _bad_output(ref: str) -> ValueError:
    return ValueError(
        f"spindiode: output {ref!r} is neither a declared input tap nor a "
        f"gate"
    )


def _references(inputs: tuple[str, ...], gates: int) -> list[str]:
    """The reference text of every value, indexed by value."""
    return ([f"in:{x}" for x in inputs] + [f"!in:{x}" for x in inputs]
            + [f"g{k}" for k in range(gates)])


def _reference(inputs: tuple[str, ...], v: int) -> str:
    """The reference text of value ``v``; a value past the taps, or below
    0, reads as a gate."""
    n = len(inputs)
    if 0 <= v < 2 * n:
        return f"!in:{inputs[v - n]}" if v >= n else f"in:{inputs[v]}"
    return f"g{v - 2 * n}"


def compile_soi(e: Expr, inputs: tuple[str, ...] | None = None) -> Netlist:
    """Compile an SOI expression to an OR/IAND netlist.

    ``inputs`` fixes the primary-input order (it must cover the expression's
    variables); by default the expression's first-appearance order is used.
    Constant expressions need at least one declared input to realize the
    constant as ``x IAND x`` (0) or ``x OR NOT x`` (1).

    More than ``MAX_TABLE_VARS`` (24) inputs raise the table cap's
    ``CapacityError``.  The netlist is replayed over every input row and
    checked against ``e`` (``semantics.check_oracle``): a wrong netlist
    raises ``AssertionError``.
    """
    form = _read(e, noi=False)
    if inputs is None:
        names = form[0]
    else:
        names = tuple(inputs)
        missing = [v for v in form[0] if v not in names]
        if missing:
            raise EvaluationError(
                f"spindiode: inputs do not cover variables {missing}"
            )
    return _compile(names, form, e)


def _compile(
    names: tuple[str, ...], form: Form, want: Expr | TruthTable
) -> Netlist:
    """The netlist of a two-level form over inputs ``names``, which hold
    the form's names, checked against ``want``.  More than
    ``MAX_TABLE_VARS`` inputs raise ``CapacityError``."""
    _check_count(len(names))
    n = len(names)
    at = {x: i for i, x in enumerate(names)}
    tap = [v for i in map(at.__getitem__, form[0]) for v in (n + i, i)]
    products = form[1]
    ops: list[tuple[bool, int, int]] = []  # (is_or, a, b) over value indices
    last = 2 * n - 1  # the value of the last gate is last + len(ops)
    if products in ((), ((),)):  # 1 is x OR NOT x, 0 is x IAND x
        if not names:
            raise ValueError(
                "spindiode: a constant netlist needs at least one input"
            )
        ops.append((True, 0, n) if products else (False, 0, 0))
        out = last + 1
    else:
        refs = []
        for p in products:  # l1 IAND !l2 ... IAND !lk, from the taps
            acc = tap[p[0]]
            for c in p[1:]:
                ops.append((False, acc, tap[c ^ 1]))
                acc = last + len(ops)
            refs.append(acc)
        while len(refs) > 1:  # balanced OR tree by adjacent pairing
            nxt = []
            for a, b in zip(refs[::2], refs[1::2]):
                ops.append((True, a, b))
                nxt.append(last + len(ops))
            if len(refs) % 2:
                nxt.append(refs[-1])
            refs = nxt
        out = refs[0]

    netlist = _from_plan(names, tuple(ops), out)
    cols, comps, full = _rails(n)  # no complements past 16 names: XOR them
    mask = _replay(netlist, [*cols, *(comps or [full ^ c for c in cols])],
                   full)
    # ``_of`` trusts the names: ``_settle`` checked them as the inputs
    check_oracle(want, TruthTable._of(names, mask), "spindiode")
    # checked: ``simulate_netlist`` reads its output from this column
    vars(netlist)["_column"] = mask
    return netlist


def simulate_netlist(netlist: Netlist, inputs: dict[str, int]) -> int:
    """Evaluate the netlist on one assignment of every declared input.

    A netlist from ``compile_soi`` or the table route keeps the output
    column its compiler checked over every row (2^n bits for n inputs),
    and the result is that column's bit on the row of ``inputs``.  Any
    other netlist, one built by the constructor or by
    ``dataclasses.replace``, replays its gates over the single row
    ``full = 1``, the one-row case of the compiler's replay.
    """
    bits = [_bit(inputs, name, "spindiode") for name in netlist.inputs]
    column = vars(netlist).get("_column")
    if column is None:
        return _replay(netlist, bits + [1 ^ b for b in bits], 1)
    row = 0
    for bit in bits:
        row = row << 1 | bit
    return column >> row & 1


def _replay(netlist: Netlist, vals: list[int | None], full: int) -> int:
    """The output's row mask within ``full``, given in ``vals`` the masks of
    the taps, each input's and then each complement's.  Each gate appends
    its value to ``vals``, and a value is set to None after its last read."""
    last = netlist._last
    for k, (is_or, a, b) in enumerate(netlist._ops):
        vals.append(vals[a] | vals[b] if is_or else vals[a] & (full ^ vals[b]))
        if last[a] == k:
            vals[a] = None
        if last[b] == k:
            vals[b] = None
    return vals[netlist._out]


def netlist_stats(netlist: Netlist) -> dict[str, int]:
    """Gate count, depth (longest input-to-output path), and per-kind counts."""
    ops = netlist._ops
    depth = [0] * (2 * len(netlist.inputs))  # inputs and taps are depth 0
    for _, a, b in ops:
        depth.append(1 + max(depth[a], depth[b]))
    ors = sum(op[0] for op in ops)
    return {"gates": len(ops), "depth": depth[netlist._out],
            "iands": len(ops) - ors, "ors": ors}


def _lines(netlist: Netlist) -> list[str]:
    """One interchange line per gate: ``g<i> = <KIND> <a> <b>``, each
    gate's own reference taken from the texts ``_references`` made."""
    text = _references(netlist.inputs, len(netlist._ops))
    return [f"{ref} = {_KIND[is_or]} {text[a]} {text[b]}"
            for ref, (is_or, a, b) in zip(text[2 * len(netlist.inputs):],
                                          netlist._ops)]


def netlist_text(netlist: Netlist) -> str:
    """Interchange text: inputs header, one gate per line, output footer."""
    lines = ["inputs " + " ".join(netlist.inputs)]
    lines += _lines(netlist)
    lines.append(f"output {netlist.output}")
    return "\n".join(lines) + "\n"
