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

Input registers are never written, so a program replays from any input
assignment.  One loop replays it: each register holds a mask of rows
(``semantics.columns``), ``RESET r`` clears ``r`` and ``IMPLY p, q`` sets
``q`` to ``(full ^ p) | q``.  The compiler runs it once over all rows and
checks the output mask against its source, a NOI expression or a table;
``simulate`` and ``step_semantics`` run it over the single row ``full = 1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .canon import Product, _read
from .errors import CapacityError, EvaluationError
from .expr import Expr, Not, Var
from .semantics import TruthTable, check_oracle, columns

MAX_COMPILE_VARS = 16


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
        inputs: set[int] = set()
        names: set[str] = set()
        for name, reg in self.bindings:
            if not 0 <= reg < self.registers:
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
        for step in self.steps:
            regs = (
                (step.target,) if type(step) is Reset
                else (step.cond, step.set)
            )
            for r in regs:
                if not 0 <= r < self.registers:
                    raise ValueError(f"memristor: register r{r} out of range")
            written = regs[-1]
            if written in inputs:
                raise ValueError(
                    f"memristor: program writes input register r{written}"
                )
        if not 0 <= self.output < self.registers:
            raise ValueError("memristor: output register out of range")


@dataclass(frozen=True)
class SimulationResult:
    output: int
    state: tuple[int, ...]
    trace: tuple[tuple[int, ...], ...]  # full state after every step


def step_semantics(state: tuple[int, ...], step: Step) -> tuple[int, ...]:
    """One machine step applied to an immutable register state."""
    regs = list(state)
    _replay((step,), regs, 1)
    return tuple(regs)


def simulate(
    program: ImplyProgram, inputs: dict[str, int]
) -> SimulationResult:
    """Replay a program from an input assignment.

    Bound registers start at their input value, every other register at 0;
    the trace holds the full state after each step.  This is the one-row
    case of the replay ``compile_noi`` runs over every row at once.
    """
    regs = [0] * program.registers
    for name, reg in program.bindings:
        if name not in inputs:
            raise EvaluationError(f"memristor: unbound input {name!r}")
        bit = inputs[name]
        if bit not in (0, 1):
            raise EvaluationError(f"memristor: input {name!r} must be 0 or 1")
        regs[reg] = bit
    trace: list[tuple[int, ...]] = []
    _replay(program.steps, regs, 1, trace)
    return SimulationResult(regs[program.output], tuple(regs), tuple(trace))


def _replay(
    steps: tuple[Step, ...], regs: list[int], full: int,
    trace: list[tuple[int, ...]] | None = None,
) -> None:
    """Run ``steps`` in place over registers that hold row masks within
    ``full``, appending the register file after each step to ``trace``."""
    for s in steps:
        if type(s) is Reset:
            regs[s.target] = 0
        else:
            regs[s.set] |= full ^ regs[s.cond]
        if trace is not None:
            trace.append(tuple(regs))


def _table(program: ImplyProgram, names: tuple[str, ...]) -> TruthTable:
    """The output over every row of ``names``, which hold the inputs."""
    col = dict(zip(names, columns(len(names))))
    regs = [0] * program.registers
    for name, reg in program.bindings:
        regs[reg] = col[name]
    _replay(program.steps, regs, (1 << (1 << len(names))) - 1)
    return TruthTable.from_mask(names, regs[program.output])


def step_count(program: ImplyProgram) -> dict[str, int]:
    resets = sum(1 for s in program.steps if isinstance(s, Reset))
    return {
        "total": len(program.steps),
        "resets": resets,
        "implies": len(program.steps) - resets,
        "registers": program.registers,
    }


def compile_nand(in1: str, in2: str, work: int = 2) -> ImplyProgram:
    """The classic three-step NAND: RESET s; IMPLY p, s; IMPLY q, s."""
    if work < 2:
        raise ValueError("memristor: work register collides with an input")
    return ImplyProgram(
        registers=work + 1,
        bindings=((in1, 0), (in2, 1)),
        output=work,
        steps=(Reset(work), Imply(0, work), Imply(1, work)),
    )


def compile_noi(e: Expr, *, peephole: bool = True) -> ImplyProgram:
    """Compile a NOI expression (or a degenerate form) to a step schedule.

    One pass of the canon reader takes the expression's variable names, in
    first-appearance order, and its sum of products: a NOI, a negated
    chain, a literal or a constant, with constant chain operands folded.
    Capacity is capped at 16 input variables.

    With ``peephole=False`` the schedule keeps the double inversions of the
    textbook lowering: a positive last operand ``x`` of a term is inverted
    twice into scratch registers before it is IMPLY'd into the work
    register, and a lone ``!y`` term gets its own work register.  The
    result computes the same function in more steps.

    The program is replayed over every input row and checked against
    ``e`` (``semantics.check_oracle``): a wrong schedule raises
    ``AssertionError``.
    """
    names, products = _read(e, noi=True)
    return _compile(names, products, e, peephole)


def _compile(
    names: tuple[str, ...], products: tuple[Product, ...],
    want: Expr | TruthTable, peephole: bool,
) -> ImplyProgram:
    """``_lower``'s program, replayed and checked against ``want``."""
    program = _lower(names, products, peephole)
    order = want.variables if isinstance(want, TruthTable) else names
    check_oracle(want, _table(program, order), "memristor")
    return program


# Every step a compiled program can hold, built once: ``_lower`` uses
# registers 0 .. nin + 3 only, and nin is at most MAX_COMPILE_VARS.
_REGS = range(MAX_COMPILE_VARS + 4)
_RESETS = tuple(Reset(r) for r in _REGS)
_IMPLIES = tuple(tuple(Imply(c, s) if c != s else None for s in _REGS)
                 for c in _REGS)


def _lower(
    names: tuple[str, ...], products: tuple[Product, ...], peephole: bool
) -> ImplyProgram:
    if len(names) > MAX_COMPILE_VARS:
        raise CapacityError(
            f"memristor: {len(names)} variables exceeds the cap of "
            f"{MAX_COMPILE_VARS}"
        )
    nin = len(names)
    bindings = tuple((name, i) for i, name in enumerate(names))
    src_of = {name: i for i, name in enumerate(names)}
    match products:
        case ((),):
            return ImplyProgram(
                nin + 2,
                bindings,
                nin + 1,
                (Reset(nin), Reset(nin + 1), Imply(nin, nin + 1)),
            )
        case ((Var(name),),):
            return ImplyProgram(nin, bindings, src_of[name], ())

    # Every scratch register is free again at the end of its term, so the
    # smallest free register a RESET takes is fixed by its role: the
    # output, the term's work register w, the scratch register f that
    # inverts a literal, and g, the second inversion of the textbook
    # lowering.
    out, w, f, g = nin, nin + 1, nin + 2, nin + 3
    imply = _IMPLIES
    # a literal's steps into w: one IMPLY, after inverting a negation into f
    positive = {name: (imply[r][w],) for name, r in src_of.items()}
    negative = {
        name: (_RESETS[f], imply[r][f], imply[f][w])
        for name, r in src_of.items()
    }

    steps: list[Step] = [_RESETS[out]]
    top = out  # the highest register used
    for p in products:
        # the term is the IMPLY chain p1 -> ... -> p(k-1) -> !pk, that is
        # NOT p1 OR ... OR NOT pk: one IMPLY per literal
        last = p[-1]
        if type(last) is Not:
            if peephole and len(p) == 1:
                # the work register would hold NOT (NOT y), which is y
                steps.append(imply[src_of[last.child.name]][out])
                continue
            tail = negative[last.child.name]
            top = max(top, f)
        elif peephole:
            tail = positive[last.name]
            top = max(top, w)
        else:
            r = src_of[last.name]
            tail = (_RESETS[f], imply[r][f], _RESETS[g], imply[f][g],
                    imply[g][w])
            top = g
        steps.append(_RESETS[w])
        for x in p[:-1]:
            if type(x) is Var:
                steps += positive[x.name]
            else:
                steps += negative[x.child.name]
                top = max(top, f)
        steps += tail
        steps.append(imply[w][out])
    return ImplyProgram(top + 1, bindings, out, tuple(steps))


def step_text(step: Step) -> str:
    """One step as an interchange line, e.g. ``IMPLY r0 r2``."""
    if isinstance(step, Reset):
        return f"RESET r{step.target}"
    return f"IMPLY r{step.cond} r{step.set}"


def program_text(program: ImplyProgram) -> str:
    """Interchange text: header lines, then one RESET/IMPLY line per step."""
    lines = [f"registers {program.registers}"]
    lines.extend(f"input {name} r{reg}" for name, reg in program.bindings)
    lines.append(f"output r{program.output}")
    lines.extend(map(step_text, program.steps))
    return "\n".join(lines) + "\n"
