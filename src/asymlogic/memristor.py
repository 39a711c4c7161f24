"""Stateful-implication compiler: NOI expressions to RESET/IMPLY schedules.

The machine model is an array of single-bit registers with two in-place
primitives:

* ``RESET r``    drives register ``r`` to 0;
* ``IMPLY c, s`` stores ``NOT state[c] OR state[s]`` into ``s`` (material
  implication with the condition register read-only).

A NOI expression ``NOT(T1 AND ... AND Tm)`` maps onto this directly: the
output register accumulates ``NOT T1 OR ... OR NOT Tm`` by one IMPLY per
term, and each term register accumulates its IMPLY chain the same way.
A term ``NOT(l1 AND ... AND lk)`` takes one IMPLY per literal into its
work register; a negative literal is first inverted into a scratch
register, and a term that is a lone negative literal ``!y`` IMPLYs ``y``
straight into the output.  The compiler emits this schedule in one pass
and assigns registers as it emits the steps, not in a second pass: inputs
are pinned to ``r0 .. r(k-1)``, each RESET takes the smallest free
register, and a scratch register is free again right after its last read.

Three sources reach that one compiler (``_compile``) as a two-level form
of literal codes (``canon``), which binds its ``i``-th name to register
``i``: a NOI expression (``compile_noi``), in first-appearance order; a
table's minimum cover (the CLI's table route), checked over the table's
header, in the order its products first read each name; and the NAND of
two names (``compile_nand``), ``RESET s; IMPLY p, s; IMPLY q, s``.

A program's plan is ``_plan``, a ``(read, written)`` register pair per
step with ``read`` None for a ``RESET``.  The compiler emits that plan and
builds its program from it (``_from_plan``); the ``ImplyProgram``
constructor resolves hand-built steps into the same plan.  Both run one
check over the plan (``_settle``): inputs are names on distinct registers,
every register is in range, no IMPLY reads the register it writes, and no
step writes an input, so a program replays from any input assignment.
One rule finds a step's fault (``_fault``); the check applies it to each
distinct pair once, and walks the plan in order only to word the first
fault.  A plan-built program makes its ``steps`` on first read.

One loop replays the plan: each register holds a mask of rows, an input
starting from its column of the table's rails (``semantics._rails``),
``RESET r`` clears ``r`` and ``IMPLY p, q`` sets ``q`` to ``(full ^ p) | q``.
An IMPLY that reads an input takes that XOR too: a lookup of the input's
complement in the rails, and the test that picks it, cost more than the
XOR of a 12-variable column.  The compiler runs it once over all rows,
checks the output mask against its source, a NOI expression or a table,
and keeps that checked column on the program with the register of each
name of its row order: 2^n bits for n variables, 2 MiB at the table cap
of 24, past which it refuses a source.  ``simulate`` of a compiled
program reads its output from that column; a program built by the
constructor or by ``dataclasses.replace`` has none, and ``simulate``
runs the loop over the single row ``full = 1``,
as ``step_semantics`` does for one step.  A result's ``state`` and
``trace`` are replayed together from its start when either is first read.
``step_count`` counts the plan's resets, and ``program_text`` formats the
plan, each distinct pair once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .canon import Codes, Form, _read
from .expr import And, Expr, Not, Var, _check_name
from .semantics import TruthTable, _bit, _check_count, _rails, check_oracle


@dataclass(frozen=True)
class Reset:
    target: int


@dataclass(frozen=True)
class Imply:
    cond: int
    set: int

    def __post_init__(self) -> None:
        if self.cond == self.set:
            raise ValueError(
                f"memristor: IMPLY condition and target must differ (r{self.cond})"
            )


Step = Union[Reset, Imply]


@dataclass(frozen=True)
class ImplyProgram:
    registers: int
    bindings: tuple[tuple[str, int], ...]  # (variable, register), read-only
    output: int
    steps: tuple[Step, ...]

    def __post_init__(self) -> None:
        """Resolve every step once into ``_plan`` and check the plan."""
        _settle(self, tuple(map(_pair, self.steps)))

    def __getattr__(self, name: str):
        # called only for a missing attribute: the steps of a plan-built
        # program, made on first read
        if name != "steps" or "_plan" not in vars(self):
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        steps = tuple([Reset(w) if r is None else Imply(r, w)
                       for r, w in self._plan])
        vars(self)["steps"] = steps
        return steps


def _pair(step: Step) -> tuple[int | None, int]:
    """A step's ``(read, written)`` plan pair."""
    if type(step) is Reset:
        return None, step.target
    return step.cond, step.set


def _from_plan(
    registers: int, bindings: tuple[tuple[str, int], ...], output: int,
    plan: tuple[tuple[int | None, int], ...],
) -> ImplyProgram:
    """The program of a plan, checked as the constructor checks it; its
    ``steps`` are made on first read."""
    program = object.__new__(ImplyProgram)
    vars(program).update(registers=registers, bindings=bindings,
                         output=output)
    _settle(program, plan)
    return program


def _settle(
    program: ImplyProgram, plan: tuple[tuple[int | None, int], ...]
) -> None:
    """Check the bindings, the plan and the output, then store the plan as
    ``_plan``.  Raise ``ValueError`` unless every input is a name bound to
    its own register, every register is in range, no IMPLY reads the
    register it writes and no step writes an input."""
    registers = program.registers
    inputs: set[int] = set()
    names: set[str] = set()
    for name, reg in program.bindings:
        _check_name(name, "memristor")
        if not 0 <= reg < registers:
            raise ValueError(
                f"memristor: input {name!r} bound to register r{reg} "
                "out of range"
            )
        if reg in inputs:
            raise ValueError(f"memristor: two inputs bound to r{reg}")
        if name in names:
            raise ValueError(f"memristor: input {name!r} bound twice")
        inputs.add(reg)
        names.add(name)
    # a plan repeats few distinct pairs: check each once, and walk the plan
    # only to word the first fault
    for read, written in set(plan):
        if _fault(read, written, registers, inputs):
            raise ValueError(next(filter(None, (
                _fault(r, w, registers, inputs) for r, w in plan))))
    if not 0 <= program.output < registers:
        raise ValueError("memristor: output register out of range")
    vars(program)["_plan"] = plan


def _fault(
    read: int | None, written: int, registers: int, inputs: set[int]
) -> str | None:
    """The fault of one step, or None: a register out of range, its read
    checked before its write, an IMPLY that reads the register it writes,
    or a write to an input register."""
    for r in (written,) if read is None else (read, written):
        if not 0 <= r < registers:
            return f"memristor: register r{r} out of range"
    if read == written:
        return f"memristor: IMPLY condition and target must differ (r{read})"
    if written in inputs:
        return f"memristor: program writes input register r{written}"
    return None


@dataclass(frozen=True)
class SimulationResult:
    """A run of a program: the output bit, the final register state and
    the state after every step.  A result from ``simulate`` replays its
    plan once from its start, for ``state`` and ``trace`` both, when either
    is first read."""

    output: int
    state: tuple[int, ...]
    trace: tuple[tuple[int, ...], ...]  # full state after every step

    def __getattr__(self, name: str):
        # called only for a missing attribute: the state and trace of a
        # result from ``simulate``, replayed together from its start
        if name not in ("state", "trace") or "_start" not in vars(self):
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        regs = list(self._start)
        trace = []
        for step in self._plan:
            _replay((step,), regs, 1)
            trace.append(tuple(regs))
        vars(self).update(state=tuple(regs), trace=tuple(trace))
        return vars(self)[name]


def step_semantics(state: tuple[int, ...], step: Step) -> tuple[int, ...]:
    """One machine step applied to an immutable register state."""
    regs = list(state)
    _replay((_pair(step),), regs, 1)
    return tuple(regs)


def simulate(
    program: ImplyProgram, inputs: dict[str, int]
) -> SimulationResult:
    """Run a program from an input assignment.

    Bound registers start at their input value, every other register at 0;
    the trace holds the full state after each step.  A program from
    ``compile_noi`` or the table route keeps the output column its compiler
    checked over every row (2^n bits for n variables), and its ``output``
    is that column's bit on the row of ``inputs``.  Any other program, one
    built by the constructor or by ``dataclasses.replace``, replays its
    plan over the single row ``full = 1``, the one-row case of the
    compiler's replay.  Either way ``state`` and ``trace`` are replayed
    from the same start on first read.
    """
    regs = [0] * program.registers
    for name, reg in program.bindings:
        regs[reg] = _bit(inputs, name, "memristor")
    result = object.__new__(SimulationResult)
    vars(result).update(_start=tuple(regs), _plan=program._plan)
    column = vars(program).get("_column")
    if column is None:
        _replay(program._plan, regs, 1)
        vars(result).update(output=regs[program.output], state=tuple(regs))
    else:
        order, mask = column
        row = 0
        for reg in order:  # an unbound name is on no register: it reads 0
            row = row << 1 | (0 if reg is None else regs[reg])
        vars(result)["output"] = mask >> row & 1
    return result


def _replay(
    plan: tuple[tuple[int | None, int], ...], regs: list[int], full: int
) -> None:
    """Run a resolved plan in place over registers that hold row masks
    within ``full``."""
    for read, written in plan:
        if read is None:
            regs[written] = 0
        else:
            regs[written] |= full ^ regs[read]


def step_count(program: ImplyProgram) -> dict[str, int]:
    total = len(program._plan)
    resets = [r for r, _ in program._plan].count(None)
    return {
        "total": total,
        "resets": resets,
        "implies": total - resets,
        "registers": program.registers,
    }


def compile_nand(in1: str, in2: str) -> ImplyProgram:
    """The classic three-step NAND: RESET s; IMPLY p, s; IMPLY q, s.

    The compiler emits it as it does ``compile_noi``'s program for
    ``!(in1 & in2)``, replays it over every row and checks it against the
    NAND.  Two equal names raise ``ValueError``.
    """
    names, want = (in1, in2), Not(And((Var(in1), Var(in2))))
    return _compile(names, (names, ((0,), (2,))), want, True)


def compile_noi(e: Expr, *, peephole: bool = True) -> ImplyProgram:
    """Compile a NOI expression (or a degenerate form) to a step schedule.

    One pass of the canon reader takes the expression's variable names, in
    first-appearance order, and its sum of products: a NOI, a negated
    chain, a literal or a constant, with constant chain operands folded.
    More than ``MAX_TABLE_VARS`` (24) names raise the table cap's
    ``CapacityError``.

    With ``peephole=False`` the schedule keeps the double inversions of the
    textbook lowering: a positive last operand ``x`` of a term is inverted
    twice into scratch registers before it is IMPLY'd into the work
    register, and a lone ``!y`` term gets its own work register.  The
    result computes the same function in more steps.

    The program is replayed over every input row and checked against
    ``e`` (``semantics.check_oracle``): a wrong schedule raises
    ``AssertionError``.
    """
    form = _read(e, noi=True)
    return _compile(form[0], form, e, peephole)


def _compile(
    names: tuple[str, ...], form: Form, want: Expr | TruthTable,
    peephole: bool,
) -> ImplyProgram:
    """``_lower``'s program of a two-level form, which binds the form's
    names, replayed over every row of ``names`` and checked against
    ``want``.  More than ``MAX_TABLE_VARS`` names raise ``CapacityError``."""
    _check_count(len(names))
    program = _lower(*form, peephole)
    cols, _, full = _rails(len(names))
    col = dict(zip(names, cols))
    regs = [0] * program.registers
    for name, reg in program.bindings:
        regs[reg] = col[name]
    _replay(program._plan, regs, full)
    mask = regs[program.output]
    # a table checked its names, and ``_settle`` any other as bindings
    check_oracle(want, TruthTable._of(names, mask), "memristor")
    # checked: ``simulate`` reads its output from this column
    reg = dict(program.bindings)
    vars(program)["_column"] = (tuple(map(reg.get, names)), mask)
    return program


def _lower(
    names: tuple[str, ...], products: tuple[Codes, ...], peephole: bool
) -> ImplyProgram:
    nin = len(names)
    bindings = tuple((name, i) for i, name in enumerate(names))
    match products:
        case ((),):  # 1 is 0 -> 0: two resets and an IMPLY
            plan = ((None, nin), (None, nin + 1), (nin, nin + 1))
            return _from_plan(nin + 2, bindings, nin + 1, plan)
        case ((c,),) if c & 1:  # a plain literal is its input register
            return _from_plan(nin, bindings, c >> 1, ())

    # Every scratch register is free again at the end of its term, so the
    # smallest free register a RESET takes is fixed by its role: the
    # output, the term's work register w, the scratch register f that
    # inverts a literal, and g, the second inversion of the textbook
    # lowering.
    out, w, f, g = nin, nin + 1, nin + 2, nin + 3
    # the steps into w of literal code c, on register c >> 1: one IMPLY,
    # after inverting a complemented literal (c even) into f
    into_w = [s for r in range(nin) for s in (
        ((None, f), (r, f), (f, w)), ((r, w),))]

    plan: list[tuple[int | None, int]] = [(None, out)]
    for p in products:
        # the term is the IMPLY chain p1 -> ... -> p(k-1) -> !pk, that is
        # NOT p1 OR ... OR NOT pk: one IMPLY per literal
        last = p[-1]
        if peephole and len(p) == 1 and not last & 1:
            # the work register would hold NOT (NOT y), which is y
            plan.append((last >> 1, out))
            continue
        if peephole or not last & 1:
            tail = into_w[last]
        else:
            tail = ((None, f), (last >> 1, f), (None, g), (f, g), (g, w))
        plan.append((None, w))
        for c in p[:-1]:
            plan += into_w[c]
        plan += tail
        plan.append((w, out))
    # the highest register is the highest written: every read is of an
    # input or of a register written before it
    top = max([r for _, r in plan])
    return _from_plan(top + 1, bindings, out, tuple(plan))


def _lines(program: ImplyProgram) -> list[str]:
    """One interchange line per step, e.g. ``IMPLY r0 r2``; a plan repeats
    few distinct pairs, so each is formatted once."""
    text = {(r, w): f"RESET r{w}" if r is None else f"IMPLY r{r} r{w}"
            for r, w in set(program._plan)}
    return list(map(text.__getitem__, program._plan))


def program_text(program: ImplyProgram) -> str:
    """Interchange text: header lines, then one RESET/IMPLY line per step."""
    lines = [f"registers {program.registers}"]
    lines.extend(f"input {name} r{reg}" for name, reg in program.bindings)
    lines.append(f"output r{program.output}")
    lines += _lines(program)
    return "\n".join(lines) + "\n"
