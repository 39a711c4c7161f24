"""Independent bit-parallel reference used to check every benchmark output.

A function of ``n`` variables is one Python int, its *column*: bit ``r`` is
the function's value on row ``r``.  Rows follow the package's convention
(the first variable is the most significant row bit), so a column maps to a
table string by reading bits 0 .. 2**n - 1.  Each checker below evaluates a
program, a netlist or an expression over all rows at once and never imports
``asymlogic``: the package under test cannot vouch for itself.
"""

from __future__ import annotations

import re


class Rejected(Exception):
    """An output that does not compute the expected function."""


def full_mask(n: int) -> int:
    return (1 << (1 << n)) - 1


def variable_columns(names: tuple[str, ...]) -> dict[str, int]:
    """Column of each variable: ones on the rows that assign it 1."""
    n = len(names)
    width = 1 << n
    cols = {}
    for i, name in enumerate(names):
        half = 1 << (n - 1 - i)  # run length of equal bits for this variable
        pattern = ((1 << half) - 1) << half
        span = 2 * half
        while span < width:
            pattern |= pattern << span
            span *= 2
        cols[name] = pattern
    return cols


def cube_column(cube: tuple[tuple[str, int], ...], cols: dict[str, int],
                mask: int) -> int:
    """Product of literals ``(name, polarity)``; polarity 0 complements."""
    acc = mask
    for name, pol in cube:
        acc &= cols[name] if pol else ~cols[name]
    return acc & mask


def cubes_column(cubes, cols: dict[str, int], mask: int) -> int:
    acc = 0
    for cube in cubes:
        acc |= cube_column(cube, cols, mask)
    return acc


def table_string(column: int, n: int) -> str:
    return format(column, f"0{1 << n}b")[::-1]


def row_of(assignment: dict[str, int], names: tuple[str, ...]) -> int:
    row = 0
    for name in names:
        row = (row << 1) | assignment[name]
    return row


def assignment_of(row: int, names: tuple[str, ...]) -> dict[str, int]:
    n = len(names)
    return {name: (row >> (n - 1 - i)) & 1 for i, name in enumerate(names)}


# --- RESET/IMPLY programs ----------------------------------------------------

_REG = re.compile(r"r(\d+)\Z")


def _reg(token: str) -> int:
    m = _REG.match(token)
    if not m:
        raise Rejected(f"bad register {token!r}")
    return int(m.group(1))


def parse_steps(lines) -> list[tuple[str, int, int]]:
    """``RESET rT`` / ``IMPLY rC rS`` lines as ``(op, cond, target)``."""
    steps = []
    for line in lines:
        parts = line.split()
        if len(parts) == 2 and parts[0] == "RESET":
            steps.append(("RESET", -1, _reg(parts[1])))
        elif len(parts) == 3 and parts[0] == "IMPLY":
            steps.append(("IMPLY", _reg(parts[1]), _reg(parts[2])))
        else:
            raise Rejected(f"bad step {line!r}")
    return steps


def parse_program_text(text: str):
    """``program_text`` interchange text as ``(registers, bindings, output,
    steps)``."""
    lines = text.splitlines()
    head = lines[0].split() if lines else []
    if len(head) != 2 or head[0] != "registers" or not head[1].isdigit():
        raise Rejected("program text lacks a 'registers N' header")
    registers = int(head[1])
    bindings = []
    i = 1
    while i < len(lines) and lines[i].startswith("input "):
        _, name, reg = lines[i].split()
        bindings.append((name, _reg(reg)))
        i += 1
    if i >= len(lines) or not lines[i].startswith("output "):
        raise Rejected("program text lacks an 'output rK' line")
    output = _reg(lines[i].split()[1])
    return registers, bindings, output, parse_steps(lines[i + 1:])


def run_program(registers: int, bindings, output: int, steps,
                cols: dict[str, int], mask: int) -> int:
    """Column computed by a RESET/IMPLY program.

    Input registers are bound by variable name, start at their variable's
    column and must never be written; every other register starts at 0.
    """
    regs = [0] * registers
    inputs = set()
    for name, reg in bindings:
        if name not in cols:
            raise Rejected(f"program binds unknown variable {name!r}")
        if not 0 <= reg < registers or reg in inputs:
            raise Rejected(f"bad input register r{reg}")
        regs[reg] = cols[name]
        inputs.add(reg)
    for op, cond, target in steps:
        if not 0 <= target < registers or (op == "IMPLY"
                                           and not 0 <= cond < registers):
            raise Rejected("step register out of range")
        if target in inputs:
            raise Rejected(f"program writes input register r{target}")
        if op == "RESET":
            regs[target] = 0
        else:
            if cond == target:
                raise Rejected("IMPLY condition equals its target")
            regs[target] = (~regs[cond] | regs[target]) & mask
    if not 0 <= output < registers:
        raise Rejected("output register out of range")
    return regs[output]


# --- IAND/OR netlists --------------------------------------------------------


def parse_gate_lines(lines) -> list[tuple[str, str, str, str]]:
    """``g<i> = KIND a b`` lines as ``(ref, kind, a, b)``."""
    gates = []
    for line in lines:
        parts = line.split()
        if len(parts) != 5 or parts[1] != "=" or parts[2] not in ("OR", "IAND"):
            raise Rejected(f"bad gate {line!r}")
        gates.append((parts[0], parts[2], parts[3], parts[4]))
    return gates


def run_netlist(gates, output: str, cols: dict[str, int],
                mask: int) -> tuple[int, int]:
    """Column and depth of a netlist; gates must be in topological order."""
    vals: dict[str, int] = {}
    depth: dict[str, int] = {}

    def ref(r: str) -> tuple[int, int]:
        for prefix, neg in (("in:", False), ("!in:", True)):
            if r.startswith(prefix):
                name = r[len(prefix):]
                if name not in cols:
                    raise Rejected(f"netlist reads unknown input {name!r}")
                return (~cols[name] & mask if neg else cols[name]), 0
        if r not in vals:
            raise Rejected(f"netlist reads {r!r} before it is defined")
        return vals[r], depth[r]

    for gid, kind, a, b in gates:
        if gid in vals:
            raise Rejected(f"gate {gid} defined twice")
        (va, da), (vb, db) = ref(a), ref(b)
        vals[gid] = (va | vb) if kind == "OR" else (va & ~vb & mask)
        depth[gid] = 1 + max(da, db)
    return ref(output)


# --- expression text ---------------------------------------------------------

_TOKEN = re.compile(r"\s*(->|[!&@|()01]|[A-Za-z_][A-Za-z0-9_]*)")


def tokenize(text: str) -> list[str]:
    tokens, pos = [], 0
    text = text.rstrip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise Rejected(f"bad expression text at {pos}: {text[pos:pos + 10]!r}")
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


def first_appearance(text: str) -> tuple[str, ...]:
    """Variable names in order of first appearance in an expression text."""
    seen: dict[str, None] = {}
    for tok in tokenize(text):
        if tok[0].isalpha() or tok[0] == "_":
            seen.setdefault(tok, None)
    return tuple(seen)


def eval_text(text: str, cols: dict[str, int], mask: int) -> tuple[int, int]:
    """Column and literal count (variable and constant leaves) of a text.

    Precedence, loosest first: ``->`` (groups right), ``|``, ``@`` (groups
    left), ``&``, ``!``.
    """
    tokens = tokenize(text) + ["<end>"]
    pos = 0
    leaves = 0

    def peek() -> str:
        return tokens[pos]

    def take() -> str:
        nonlocal pos
        pos += 1
        return tokens[pos - 1]

    def imply() -> int:
        left = orr()
        if peek() == "->":
            take()
            return (~left | imply()) & mask
        return left

    def orr() -> int:
        acc = iand()
        while peek() == "|":
            take()
            acc |= iand()
        return acc

    def iand() -> int:
        acc = andd()
        while peek() == "@":
            take()
            acc &= ~andd()
        return acc & mask

    def andd() -> int:
        acc = nott()
        while peek() == "&":
            take()
            acc &= nott()
        return acc

    def nott() -> int:
        if peek() == "!":
            take()
            return ~nott() & mask
        return atom()

    def atom() -> int:
        nonlocal leaves
        tok = take()
        if tok == "(":
            val = imply()
            if take() != ")":
                raise Rejected("expected ')'")
            return val
        if tok in ("0", "1"):
            leaves += 1
            return mask if tok == "1" else 0
        if tok in cols:
            leaves += 1
            return cols[tok]
        raise Rejected(f"unexpected token {tok!r}")

    value = imply()
    if peek() != "<end>":
        raise Rejected(f"trailing token {peek()!r}")
    return value, leaves
