"""Stateful-implication compiler: NOI expressions to RESET/IMPLY schedules.

The machine model is an array of single-bit registers with two in-place
primitives:

* ``RESET r``    drives register ``r`` to 0;
* ``IMPLY c, s`` stores ``NOT state[c] OR state[s]`` into ``s`` (material
  implication with the condition register read-only).

A NOI expression ``NOT(T1 AND ... AND Tm)`` maps onto this directly: the
output register accumulates ``NOT T1 OR ... OR NOT Tm`` by one IMPLY per
term, and each term register accumulates its IMPLY chain the same way.
The compiler emits that schedule naively over virtual registers, runs an
optional double-inversion peephole to a fixpoint, then assigns physical
registers by linear scan (inputs pinned first, scratch registers reused
after their last read).

Input registers are never written; programs are replayable from any input
assignment.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Union

from .canon import complement, noi_products
from .errors import CapacityError, EvaluationError
from .expr import Expr, Var, variables

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
        inputs = {reg for _, reg in self.bindings}
        for step in self.steps:
            regs = (
                (step.target,) if isinstance(step, Reset)
                else (step.cond, step.set)
            )
            for r in regs:
                if not 0 <= r < self.registers:
                    raise ValueError(f"memristor: register r{r} out of range")
            written = step.target if isinstance(step, Reset) else step.set
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
    out = list(state)
    match step:
        case Reset(target):
            out[target] = 0
        case Imply(cond, set=target):
            out[target] = (1 - state[cond]) | state[target]
    return tuple(out)


def simulate(
    program: ImplyProgram, inputs: dict[str, int]
) -> SimulationResult:
    """Replay a program from an input assignment.

    Bound registers start at their input value, every other register at 0;
    the trace holds the full state after each step.
    """
    state = [0] * program.registers
    for name, reg in program.bindings:
        if name not in inputs:
            raise EvaluationError(f"memristor: unbound input {name!r}")
        bit = inputs[name]
        if bit not in (0, 1):
            raise EvaluationError(f"memristor: input {name!r} must be 0 or 1")
        state[reg] = bit
    cur = tuple(state)
    trace = []
    for step in program.steps:
        cur = step_semantics(cur, step)
        trace.append(cur)
    return SimulationResult(cur[program.output], cur, tuple(trace))


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

    The expression is read as a sum of products (``canon.noi_products``):
    a NOI, a negated chain, a literal or a constant, with constant chain
    operands folded.  Capacity is capped at 16 input variables.
    """
    names = variables(e)
    if len(names) > MAX_COMPILE_VARS:
        raise CapacityError(
            f"memristor: {len(names)} variables exceeds the cap of "
            f"{MAX_COMPILE_VARS}"
        )
    nin = len(names)
    bindings = tuple((name, i) for i, name in enumerate(names))
    src_of = {name: i for i, name in enumerate(names)}

    products = noi_products(e)
    match products:
        case ():
            return ImplyProgram(nin + 1, bindings, nin, (Reset(nin),))
        case ((),):
            return ImplyProgram(
                nin + 2,
                bindings,
                nin + 1,
                (Reset(nin), Reset(nin + 1), Imply(nin, nin + 1)),
            )
        case ((Var(name),),):
            return ImplyProgram(nin, bindings, src_of[name], ())

    steps: list[Step] = []
    counter = nin

    def fresh() -> int:
        nonlocal counter
        counter += 1
        return counter - 1

    def literal_source(lit: Expr) -> int:
        """Register holding the literal's value; negations are materialized."""
        if type(lit) is Var:
            return src_of[lit.name]
        f = fresh()
        steps.append(Reset(f))
        steps.append(Imply(src_of[lit.child.name], f))
        return f

    out = fresh()
    steps.append(Reset(out))
    for p in products:
        # the term is the IMPLY chain p1 -> ... -> p(k-1) -> !pk
        w = fresh()
        steps.append(Reset(w))
        # prefix operands contribute NOT x each: one IMPLY per operand
        for x in p[:-1]:
            steps.append(Imply(literal_source(x), w))
        # the last operand contributes x itself: invert twice
        last = literal_source(complement(p[-1]))
        n = fresh()
        steps.append(Reset(n))
        steps.append(Imply(last, n))
        steps.append(Imply(n, w))
        steps.append(Imply(w, out))

    inputs = set(range(nin))
    if peephole:
        steps = _eliminate_double_inversions(steps, inputs, out)
    phys_steps, nregs, phys_out = _allocate(steps, nin, out)
    return ImplyProgram(nregs, bindings, phys_out, tuple(phys_steps))


def _eliminate_double_inversions(
    steps: list[Step], inputs: set[int], output: int
) -> list[Step]:
    """Collapse ``a = NOT b; u = NOT a; ... IMPLY u, t`` into ``IMPLY b, t``.

    Applies only when ``a`` and ``u`` are scratch registers each written
    exactly by a RESET/IMPLY pair, each read exactly once, and ``b`` is not
    rewritten inside the window; repeats to a fixpoint.
    """
    while True:
        writes: dict[int, list[int]] = {}
        reads: dict[int, list[int]] = {}
        for idx, s in enumerate(steps):
            if isinstance(s, Reset):
                writes.setdefault(s.target, []).append(idx)
            else:
                writes.setdefault(s.set, []).append(idx)
                reads.setdefault(s.cond, []).append(idx)

        def is_def_pair(reg: int) -> bool:
            w = writes.get(reg, [])
            return (
                len(w) == 2
                and isinstance(steps[w[0]], Reset)
                and isinstance(steps[w[1]], Imply)
            )

        applied = False
        for u in sorted(writes, key=lambda r: writes[r][0]):
            if u == output or u in inputs or not is_def_pair(u):
                continue
            if len(reads.get(u, [])) != 1:
                continue
            a = steps[writes[u][1]].cond
            if a == output or a in inputs or not is_def_pair(a):
                continue
            if reads.get(a, []) != [writes[u][1]]:
                continue
            b = steps[writes[a][1]].cond
            use = reads[u][0]
            window = range(writes[a][1] + 1, use)
            if any(i in window for i in writes.get(b, [])):
                continue
            dead = {writes[a][0], writes[a][1], writes[u][0], writes[u][1]}
            new_steps: list[Step] = []
            for idx, s in enumerate(steps):
                if idx in dead:
                    continue
                if idx == use:
                    new_steps.append(Imply(b, s.set))
                else:
                    new_steps.append(s)
            steps = new_steps
            applied = True
            break
        if not applied:
            return steps


def _allocate(
    steps: list[Step], nin: int, output: int
) -> tuple[list[Step], int, int]:
    """Linear-scan physical assignment: inputs pinned at 0..nin-1, scratch
    registers take the smallest free index at their RESET and are recycled
    after their last use; the output register is never recycled."""
    last: dict[int, int] = {}
    for idx, s in enumerate(steps):
        regs = (s.target,) if isinstance(s, Reset) else (s.cond, s.set)
        for r in regs:
            last[r] = idx

    phys: dict[int, int] = {v: v for v in range(nin)}
    free: list[int] = []
    next_new = nin
    high = nin - 1
    out_steps: list[Step] = []
    for idx, s in enumerate(steps):
        if isinstance(s, Reset):
            if s.target not in phys:
                if free:
                    phys[s.target] = heapq.heappop(free)
                else:
                    phys[s.target] = next_new
                    next_new += 1
            high = max(high, phys[s.target])
            out_steps.append(Reset(phys[s.target]))
            touched = (s.target,)
        else:
            out_steps.append(Imply(phys[s.cond], phys[s.set]))
            touched = (s.cond, s.set)
        for v in touched:
            if v >= nin and v != output and last[v] == idx:
                heapq.heappush(free, phys[v])
                del phys[v]
    if output not in phys:  # zero-step or input-passthrough programs
        if output < nin:
            phys[output] = output
        else:
            phys[output] = next_new
            next_new += 1
            high = max(high, phys[output])
    high = max(high, phys[output])
    return out_steps, high + 1, phys[output]


def program_text(program: ImplyProgram) -> str:
    """Interchange text: header lines, then one RESET/IMPLY line per step."""
    lines = [f"registers {program.registers}"]
    lines.extend(f"input {name} r{reg}" for name, reg in program.bindings)
    lines.append(f"output r{program.output}")
    for s in program.steps:
        if isinstance(s, Reset):
            lines.append(f"RESET r{s.target}")
        else:
            lines.append(f"IMPLY r{s.cond} r{s.set}")
    return "\n".join(lines) + "\n"
