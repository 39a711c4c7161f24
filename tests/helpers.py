"""Independent per-row references used as test oracles.

Chains are expanded into their defining binary pairings (IAND left, IMPLY
right) and evaluated with plain Python operators, deliberately avoiding the
production fold so the two implementations can disagree.  The table duals,
the counterexample search and the exact cover search are likewise written
row by row and set by set, against the production code's bit masks.  The
NOI compiler's reference emits the textbook schedule with every double
inversion, removes them afterwards by a def/use rewrite run to a fixpoint
and then assigns physical registers in a separate linear-scan pass, where
the production compiler emits the final schedule directly and assigns each
register as it emits the step.
The simplifier's reference builds, normalizes and recounts the whole tree
for every match of every rule, where the production search scores a match
from its binding and builds only the ones that can win.  The machine
simulators' references step one row at a time, copying the register file
at every step and resolving each netlist reference string on every row,
where the production simulators run one bit-parallel replay loop over
steps resolved once into register pairs, and the interchange texts'
references format the step and gate objects, where the production code
formats the plan.  The program validator's
reference checks one step at a time, where the production constructor
checks each distinct pair of the resolved plan once.  The
prime generator's reference merges cubes pairwise within each care group
and sorts trit strings, where the production code takes one shift-AND per
dash set over the table's mask and sorts int cubes.  The parser's references
tokenize character by character, or by one regex scan, into one token
object each, where the production parser splits its text on whitespace
after padding each operator with spaces and finds positions only on
error, and
the ``normalize_not`` reference rebuilds every node, where the production
code returns unchanged subtrees as they are.  The pattern matcher,
``substitute``, ``rebuild``, the structural dual and the printer are
copies with one class-pattern ``match`` arm per node type, where the
production walks dispatch through ``children`` and ``rebuild``; the
simplifier's reference matches, substitutes and replaces with these
copies, replacing a subtree by ``reference_replace_at`` where the
production splices the rewritten path in ``laws._rewrite``.  The
cube-to-product reference builds a fresh ``Var``, or ``Not(Var)``, for
every literal of every cube and reads a program's binding order back with
``variables``, where the production code numbers each name as its cubes
first read it and decodes those literal codes through one table of ``2n``
nodes per names tuple.  The netlist compiler's reference reads each term
of the expression itself and writes gate texts as it goes, where the
production compiler lowers the canon reader's literal codes to value
indices and formats them afterwards.
"""

from __future__ import annotations

import gc
import heapq
import re
from dataclasses import dataclass
from itertools import product
from typing import Iterable, Iterator

from asymlogic.expr import (
    FALSE,
    TRUE,
    And,
    Const,
    Expr,
    IandChain,
    ImplyChain,
    Not,
    Or,
    NoPathError,
    Path,
    Var,
    children,
    iand_chain,
    imply_chain,
    iter_subexpressions,
    literal_count,
    negate,
    normalize_not,
    operator_count,
    variables,
)
from asymlogic.canon import noi_products
from asymlogic.laws import (
    Rule,
    SimplifyResult,
    SimplifyStep,
    catalog,
    classical_rules,
)
from asymlogic.errors import CapacityError, EvaluationError, ParseError
from asymlogic.memristor import (
    Imply,
    ImplyProgram,
    Reset,
    SimulationResult,
    Step,
)
from asymlogic.minimize import (
    MAX_MINIMIZE_VARS,
    CoverSolution,
    Cube,
    PrimeImplicantSet,
)
from asymlogic.semantics import columns
from asymlogic.spindiode import Netlist


def iand2(a: int, b: int) -> int:
    return a & (1 - b)


def imply2(a: int, b: int) -> int:
    return (1 - a) | b


def naive_eval(e: Expr, env: dict[str, int]) -> int:
    match e:
        case Const(value):
            return value
        case Var(name):
            return env[name]
        case Not(child):
            return 1 - naive_eval(e.child, env)
        case And(children):
            out = 1
            for c in children:
                out &= naive_eval(c, env)
            return out
        case Or(children):
            out = 0
            for c in children:
                out |= naive_eval(c, env)
            return out
        case IandChain(operands):
            acc = naive_eval(operands[0], env)
            for x in operands[1:]:
                acc = iand2(acc, naive_eval(x, env))
            return acc
        case ImplyChain(operands):
            acc = naive_eval(operands[-1], env)
            for x in reversed(operands[:-1]):
                acc = imply2(naive_eval(x, env), acc)
            return acc
    raise TypeError(f"unknown node {type(e).__name__}")


def assignments(names: tuple[str, ...]) -> Iterator[dict[str, int]]:
    """All assignments in row order (first name is the most significant bit)."""
    for bits in product((0, 1), repeat=len(names)):
        yield dict(zip(names, bits))


def naive_table(e: Expr, names: tuple[str, ...] | None = None) -> tuple[int, ...]:
    order = names if names is not None else variables(e)
    return tuple(naive_eval(e, env) for env in assignments(order))


def naive_counterexample(e1: Expr, e2: Expr) -> dict[str, int] | None:
    """The first assignment, in row order over the unioned variables, on
    which the two expressions differ."""
    order = tuple(dict.fromkeys(variables(e1) + variables(e2)))
    for env in assignments(order):
        if naive_eval(e1, env) != naive_eval(e2, env):
            return env
    return None


def naive_classical_dual(bits: tuple[int, ...]) -> tuple[int, ...]:
    """``NOT f(NOT x)``, one row at a time."""
    top = len(bits) - 1
    return tuple(1 - bits[top ^ r] for r in range(top + 1))


def naive_demorgan_dual(bits: tuple[int, ...], n: int) -> tuple[int, ...]:
    """``NOT f`` on the complemented inputs in reversed order, one row at a
    time."""
    top = len(bits) - 1

    def reverse(x: int) -> int:
        return int(format(x, f"0{n}b")[::-1], 2) if n else 0

    return tuple(1 - bits[reverse(top ^ r)] for r in range(top + 1))


def reference_minimum_cover(
    primes: PrimeImplicantSet, onset: Iterable[int]
) -> CoverSolution:
    """Exact cover over row sets and per-row ``Cube.covers`` tests: the
    search ``minimum_cover`` must match cube for cube and trace line for
    trace line."""
    ons = sorted(set(onset))
    cubes = list(primes.cubes)
    trace: list[str] = []
    chosen: list[Cube] = []

    uncovered = set(ons)
    while True:
        essentials: list[tuple[Cube, int]] = []
        for r in sorted(uncovered):
            hits = [q for q in cubes if q.covers(r)]
            if not hits:
                raise ValueError(f"minimize: ON row {r} covered by no prime")
            if len(hits) == 1 and hits[0] not in chosen:
                if all(q is not hits[0] for q, _ in essentials):
                    essentials.append((hits[0], r))
        if not essentials:
            break
        for q, r in essentials:
            chosen.append(q)
            trace.append(f"essential {q.trits}: sole cover of row {r}")
            uncovered -= {row for row in uncovered if q.covers(row)}

    if uncovered:
        rest = [q for q in cubes if q not in chosen]
        best: list[Cube] | None = None
        best_key: tuple | None = None

        def search(sel: list[Cube], left: set[int]) -> None:
            nonlocal best, best_key
            lits = sum(q.literal_count for q in sel)
            if best_key is not None and (lits, len(sel)) > best_key[:2]:
                return
            if not left:
                key = (
                    lits,
                    len(sel),
                    tuple(reference_sort_key(q)
                          for q in sorted(sel, key=reference_sort_key)),
                )
                if best_key is None or key < best_key:
                    best, best_key = list(sel), key
                return
            row = min(left)
            for q in rest:
                if q in sel or not q.covers(row):
                    continue
                sel.append(q)
                search(sel, {r for r in left if not q.covers(r)})
                sel.pop()

        search([], set(uncovered))
        assert best is not None
        for q in sorted(best, key=reference_sort_key):
            chosen.append(q)
            trace.append(f"selected {q.trits}: completes the cover")

    for q in chosen:
        if q.literal_count == 0:
            trace.append("degenerate: all-dash cube, function is constant 1")
    chosen.sort(key=reference_sort_key)
    cost = sum(q.literal_count for q in chosen)
    return CoverSolution(tuple(chosen), cost, tuple(trace))


def reference_literals(
    names: tuple[str, ...], value: int, care: int
) -> tuple[Expr, ...]:
    """A cube's literals, one new node per literal: each of ``names`` (the
    first is the MSB) whose ``care`` bit is set, complemented where its
    ``value`` bit is clear."""
    n = len(names)
    return tuple(
        Var(name) if value >> (n - 1 - i) & 1 else Not(Var(name))
        for i, name in enumerate(names) if care >> (n - 1 - i) & 1
    )


def reference_products(
    cover: CoverSolution, names: tuple[str, ...]
) -> tuple[tuple[Expr, ...], ...]:
    """``CoverSolution.products`` built literal by literal."""
    return tuple(
        reference_literals(names, q.value, q.care) for q in cover.cubes
    )


def reference_binding_order(
    products: tuple[tuple[Expr, ...], ...]
) -> tuple[str, ...]:
    """The names of the products' literals in first-appearance order,
    read with ``variables`` one literal at a time."""
    return tuple(dict.fromkeys(
        v for p in products for x in p for v in variables(x)))


def shared_literals(
    products: tuple[tuple[Expr, ...], ...]
) -> dict[tuple[str, int], Expr]:
    """The one node each (name, polarity) has across ``products``,
    polarity 1 plain and 0 complemented; raises ``AssertionError`` if a
    literal is built twice, or if a ``Not`` does not hold the plain
    literal's own ``Var``."""
    seen: dict[tuple[str, int], Expr] = {}
    for p in products:
        for x in p:
            key = (x.child.name, 0) if type(x) is Not else (x.name, 1)
            if seen.setdefault(key, x) is not x:
                raise AssertionError(f"{key} built twice")
    for (name, polarity), x in seen.items():
        plain = seen.get((name, 1))
        if polarity == 0 and plain is not None and x.child is not plain:
            raise AssertionError(f"{name}: two Vars")
    return seen


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


def reference_sort_key(q: Cube) -> tuple[int, str]:
    """The cube order as the trit strings gave it."""
    return (int(q.trits.replace("-", "0"), 2), q.trits)


def reference_prime_implicants(
    onset: Iterable[int],
    dc: Iterable[int] = (),
    n: int = 0,
    variables: tuple[str, ...] | None = None,
) -> PrimeImplicantSet:
    """Quine-McCluskey by pairwise merging within each care group, cubes
    built from trit strings and sorted by ``reference_sort_key``: the primes
    ``prime_implicants`` must match cube for cube and in order."""
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
    cubes.sort(key=reference_sort_key)
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


def reference_compile_noi(e: Expr, *, peephole: bool = True) -> ImplyProgram:
    """``compile_noi`` by naive emission, then (with ``peephole``) the
    fixpoint double-inversion rewrite, then a linear-scan register
    allocation: the program ``compile_noi`` must match step for step."""
    names = variables(e)
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
        if type(lit) is Var:
            return src_of[lit.name]
        f = fresh()
        steps.append(Reset(f))
        steps.append(Imply(src_of[lit.child.name], f))
        return f

    out = fresh()
    steps.append(Reset(out))
    for p in products:
        w = fresh()
        steps.append(Reset(w))
        for x in p[:-1]:
            steps.append(Imply(literal_source(x), w))
        last = literal_source(negate(p[-1]))
        n = fresh()
        steps.append(Reset(n))
        steps.append(Imply(last, n))
        steps.append(Imply(n, w))
        steps.append(Imply(w, out))

    if peephole:
        steps = reference_eliminate_double_inversions(
            steps, set(range(nin)), out
        )
    phys_steps, nregs, phys_out = reference_allocate(steps, nin, out)
    return ImplyProgram(nregs, bindings, phys_out, tuple(phys_steps))


def reference_allocate(
    steps: list[Step], nin: int, output: int
) -> tuple[list[Step], int, int]:
    """Linear-scan physical assignment: inputs pinned at 0..nin-1, scratch
    registers take the smallest free index at their first RESET and are
    recycled after their last use; the output register, which the schedule
    resets first, is never recycled."""
    last: dict[int, int] = {}
    for idx, s in enumerate(steps):
        regs = (s.target,) if isinstance(s, Reset) else (s.cond, s.set)
        for r in regs:
            last[r] = idx

    phys: dict[int, int] = {v: v for v in range(nin)}
    free: list[int] = []
    next_new = nin
    out_steps: list[Step] = []
    for idx, s in enumerate(steps):
        if isinstance(s, Reset):
            if s.target not in phys:
                if free:
                    phys[s.target] = heapq.heappop(free)
                else:
                    phys[s.target] = next_new
                    next_new += 1
            out_steps.append(Reset(phys[s.target]))
            touched = (s.target,)
        else:
            out_steps.append(Imply(phys[s.cond], phys[s.set]))
            touched = (s.cond, s.set)
        for v in touched:
            if v >= nin and v != output and last[v] == idx:
                heapq.heappush(free, phys[v])
                del phys[v]
    return out_steps, next_new, phys[output]


def reference_eliminate_double_inversions(
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


def reference_simplify(
    e: Expr, rules: tuple[Rule, ...] | None = None, budget: int = 64
) -> SimplifyResult:
    """``simplify`` by rebuilding the whole tree for every match of every
    rule and keeping the least ``(literals, operators, rule name, path)``
    among those that cut literals: the result ``simplify`` must match step
    for step."""
    if rules is None:
        rules = catalog() + classical_rules()
    current = normalize_not(e)
    steps: list[SimplifyStep] = []
    for _ in range(budget):
        base = literal_count(current)
        best: tuple[tuple, Rule, Path, Expr] | None = None
        for path, node in iter_subexpressions(current):
            for rule in rules:
                binding = reference_match_pattern(rule.lhs, node)
                if binding is None:
                    continue
                candidate = normalize_not(
                    reference_replace_at(
                        current, path, reference_substitute(rule.rhs, binding)
                    )
                )
                lits = literal_count(candidate)
                if lits >= base:
                    continue
                key = (lits, operator_count(candidate), rule.name, path)
                if best is None or key < best[0]:
                    best = (key, rule, path, candidate)
        if best is None:
            break
        _, rule, path, current = best
        steps.append(SimplifyStep(rule.name, path, current))
    return SimplifyResult(current, tuple(steps))


def reference_check_program(
    registers: int, bindings: tuple[tuple[str, int], ...], output: int,
    steps: tuple[Step, ...],
) -> None:
    """The per-step validation ``ImplyProgram`` ran before it resolved its
    steps into a plan: the error its constructor must raise, step for step
    and register for register."""
    inputs: set[int] = set()
    names: set[str] = set()
    for name, reg in bindings:
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
    for step in steps:
        regs = (
            (step.target,) if type(step) is Reset
            else (step.cond, step.set)
        )
        for r in regs:
            if not 0 <= r < registers:
                raise ValueError(f"memristor: register r{r} out of range")
        written = regs[-1]
        if written in inputs:
            raise ValueError(
                f"memristor: program writes input register r{written}"
            )
    if not 0 <= output < registers:
        raise ValueError("memristor: output register out of range")


def reference_step_count(program: ImplyProgram) -> dict[str, int]:
    """``step_count`` by counting the step objects."""
    resets = sum(1 for s in program.steps if isinstance(s, Reset))
    return {
        "total": len(program.steps),
        "resets": resets,
        "implies": sum(1 for s in program.steps if isinstance(s, Imply)),
        "registers": program.registers,
    }


def reference_step_semantics(
    state: tuple[int, ...], step: Step
) -> tuple[int, ...]:
    """One machine step applied to an immutable register state."""
    out = list(state)
    match step:
        case Reset(target):
            out[target] = 0
        case Imply(cond, set=target):
            out[target] = (1 - state[cond]) | state[target]
    return tuple(out)


def reference_simulate(
    program: ImplyProgram, inputs: dict[str, int]
) -> SimulationResult:
    """Replay a program from an input assignment, one copied state per
    step: the result ``simulate`` must match in output, state and trace."""
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
        cur = reference_step_semantics(cur, step)
        trace.append(cur)
    return SimulationResult(cur[program.output], cur, tuple(trace))


def reference_ref_value(
    ref: str, inputs: dict[str, int], vals: dict[str, int]
) -> int:
    if ref.startswith("in:") or ref.startswith("!in:"):
        name = ref.split(":", 1)[1]
        if name not in inputs:
            raise EvaluationError(f"spindiode: unbound input {name!r}")
        bit = inputs[name]
        if bit not in (0, 1):
            raise EvaluationError(f"spindiode: input {name!r} must be 0 or 1")
        return 1 - bit if ref.startswith("!") else bit
    return vals[ref]


def reference_simulate_netlist(
    netlist: Netlist, inputs: dict[str, int]
) -> int:
    """Evaluate the netlist gate by gate, resolving every reference string
    on every row: the value ``simulate_netlist`` must match."""
    vals: dict[str, int] = {}
    for g in netlist.gates:
        a = reference_ref_value(g.in_a, inputs, vals)
        b = reference_ref_value(g.in_b, inputs, vals)
        vals[g.ref] = (a | b) if g.kind == "OR" else (a & (1 - b))
    return reference_ref_value(netlist.output, inputs, vals)


def reference_netlist_stats(netlist: Netlist) -> dict[str, int]:
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


def reference_program_text(program: ImplyProgram) -> str:
    """Interchange text formatted from the step objects, one line each:
    the text ``program_text`` must match byte for byte."""
    lines = [f"registers {program.registers}"]
    lines += [f"input {name} r{reg}" for name, reg in program.bindings]
    lines.append(f"output r{program.output}")
    for step in program.steps:
        match step:
            case Reset(target):
                lines.append(f"RESET r{target}")
            case Imply(cond, set=target):
                lines.append(f"IMPLY r{cond} r{target}")
    return "\n".join(lines) + "\n"


def reference_netlist_text(netlist: Netlist) -> str:
    """Interchange text formatted from the gate objects, one line each:
    the text ``netlist_text`` must match byte for byte."""
    lines = ["inputs " + " ".join(netlist.inputs)]
    lines += [f"{g.ref} = {g.kind} {g.in_a} {g.in_b}" for g in netlist.gates]
    lines.append(f"output {netlist.output}")
    return "\n".join(lines) + "\n"


def reference_compile_soi(
    e: Expr, inputs: tuple[str, ...] | None = None
) -> str:
    """``netlist_text(compile_soi(e, inputs))``, built from the expression
    alone: each term of the normalized sum is read as a product of
    ``(name, polarity)`` literals (the head as written, the rest
    complemented; a 1 drops out, a 0 drops the product and the empty
    product makes the sum 1), written as one IAND ladder per product from
    reference texts, then an OR tree pairing adjacent values."""
    e = reference_normalize_not(e)
    names = variables(e) if inputs is None else tuple(inputs)
    products: list[list[tuple[str, int]]] = []
    for term in e.children if type(e) is Or else (e,):
        ops = term.operands if type(term) is IandChain else (term,)
        product: list[tuple[str, int]] | None = []
        for i, x in enumerate(ops):
            flip = int(i > 0)
            match x:
                case Const(value):
                    if value ^ flip == 0:
                        product = None
                    continue
                case Var(name):
                    lit = (name, 1 ^ flip)
                case Not(Var(name)):
                    lit = (name, flip)
                case _:
                    raise ValueError(f"not an SOI operand: {x!r}")
            if product is not None:
                product.append(lit)
        if product is not None:
            products.append(product)
    if [] in products:
        products = [[]]

    def tap(name: str, polarity: int) -> str:
        return f"in:{name}" if polarity else f"!in:{name}"

    lines: list[str] = []

    def gate(kind: str, a: str, b: str) -> str:
        ref = f"g{len(lines)}"
        lines.append(f"{ref} = {kind} {a} {b}")
        return ref

    if not products:
        out = gate("IAND", tap(names[0], 1), tap(names[0], 1))
    elif products == [[]]:
        out = gate("OR", tap(names[0], 1), tap(names[0], 0))
    else:
        refs = []
        for (head, *rest) in products:
            acc = tap(*head)
            for name, polarity in rest:
                acc = gate("IAND", acc, tap(name, 1 - polarity))
            refs.append(acc)
        while len(refs) > 1:
            pairs = [gate("OR", a, b) for a, b in zip(refs[::2], refs[1::2])]
            refs = pairs + refs[len(refs) - len(refs) % 2:]
        out = refs[0]
    return "\n".join(
        ["inputs " + " ".join(names), *lines, f"output {out}"]) + "\n"


def one_chain_tree(e: Expr) -> bool:
    """Whether no IandChain in ``e`` has an IandChain as its first operand
    and no ImplyChain an ImplyChain as its last."""
    return not any(
        (type(n) is IandChain and type(n.operands[0]) is IandChain)
        or (type(n) is ImplyChain and type(n.operands[-1]) is ImplyChain)
        for _, n in iter_subexpressions(e)
    )


def cyclic_garbage(fn, *args) -> int:
    """How many unreachable objects one call ``fn(*args)`` leaves to the
    cyclic collector: the call runs with the collector off, and
    ``gc.collect`` then counts what only it could free."""
    gc.collect()
    was_on = gc.isenabled()
    gc.disable()
    try:
        fn(*args)
        return gc.collect()
    finally:
        if was_on:
            gc.enable()


def reference_normalize_not(e: Expr) -> Expr:
    """``normalize_not`` that rebuilds every operator node."""
    if isinstance(e, Not):
        inner = reference_normalize_not(e.child)
        if isinstance(inner, Not):
            return inner.child
        if isinstance(inner, Const):
            return Const(1 - inner.value)
        return Not(inner)
    if isinstance(e, (Const, Var)):
        return e
    return reference_rebuild(
        e, tuple(reference_normalize_not(c) for c in children(e))
    )


# --- the per-type ``match`` walks that expr and laws used to hold ----------


def reference_rebuild(e: Expr, kids: tuple[Expr, ...]) -> Expr:
    """Reconstruct a node of the same kind around new children.

    A chain's constructor flattens its associative end, as for every
    other builder; no arm here changes the pairing.
    """
    match e:
        case Const() | Var():
            return e
        case Not():
            return Not(kids[0])
        case And():
            return And(kids)
        case Or():
            return Or(kids)
        case IandChain():
            return IandChain(kids)
        case ImplyChain():
            return ImplyChain(kids)
    raise TypeError(f"expr: not an expression node: {e!r}")


def reference_replace_at(e: Expr, path: Path, replacement: Expr) -> Expr:
    if not path:
        return replacement
    kids = list(children(e))
    i = path[0]
    if not 0 <= i < len(kids):
        raise NoPathError(path, e)
    kids[i] = reference_replace_at(kids[i], path[1:], replacement)
    return reference_rebuild(e, tuple(kids))


# Printing precedence, loosest binding first.  These match the concrete
# grammar in parser.py: ! > & > @ > | > ->
_LEVEL: dict[type, int] = {
    ImplyChain: 10,
    Or: 20,
    IandChain: 30,
    And: 40,
    Not: 50,
    Var: 60,
    Const: 60,
}


def reference_format_expr(e: Expr) -> str:
    """``format_expr`` by one class-pattern arm per node type."""
    return _fmt(e, 0)


def _fmt(e: Expr, min_level: int) -> str:
    level = _LEVEL[type(e)]
    match e:
        case Const(v):
            text = str(v)
        case Var(name):
            text = name
        case Not(child):
            text = "!" + _fmt(child, 50)
        case And(kids):
            text = " & ".join(_fmt(c, 41) for c in kids)
        case Or(kids):
            text = " | ".join(_fmt(c, 21) for c in kids)
        case IandChain(ops):
            text = " @ ".join(_fmt(c, 31) for c in ops)
        case ImplyChain(ops):
            text = " -> ".join(_fmt_imply_operand(c) for c in ops)
        case _:
            raise TypeError(f"expr: not an expression node: {e!r}")
    if level < min_level:
        return f"({text})"
    return text


def _fmt_imply_operand(c: Expr) -> str:
    # '@' and '->' may not mix at one nesting level, so an operand that
    # would otherwise print a bare '@' (an IAND chain, possibly under a
    # bare OR) is parenthesized even though '@' binds tighter.
    if _prints_bare_iand(c):
        return f"({_fmt(c, 0)})"
    return _fmt(c, 11)


def _prints_bare_iand(c: Expr) -> bool:
    if isinstance(c, IandChain):
        return True
    if isinstance(c, Or):
        return any(isinstance(k, IandChain) for k in c.children)
    return False


def reference_match_pattern(
    pattern: Expr, subject: Expr
) -> dict[str, Expr] | None:
    """Match a metavariable pattern against a subject expression.

    Returns the binding on success, None otherwise.  A negated bare
    metavariable may bind to the complement of a non-negated subject, so
    e.g. ``A @ !A`` matches ``!p @ p`` with ``A = !p``.
    """
    binding: dict[str, Expr] = {}
    if _match(pattern, subject, binding):
        return binding
    return None


def _match(pattern: Expr, subject: Expr, binding: dict[str, Expr]) -> bool:
    match pattern:
        case Var(name):
            return _bind(name, subject, binding)
        case Const(v):
            return isinstance(subject, Const) and subject.value == v
        case Not(inner):
            if isinstance(subject, Not):
                return _match(inner, subject.child, binding)
            if isinstance(inner, Var):
                return _bind(inner.name, normalize_not(Not(subject)), binding)
            return False
        case And(pk) | Or(pk) | IandChain(pk) | ImplyChain(pk):
            if type(subject) is not type(pattern):
                return False
            sk = (
                subject.children
                if type(subject) in (And, Or)
                else subject.operands
            )
            return len(sk) == len(pk) and all(
                _match(p, s, binding) for p, s in zip(pk, sk)
            )
    return False


def _bind(name: str, value: Expr, binding: dict[str, Expr]) -> bool:
    seen = binding.get(name)
    if seen is None:
        binding[name] = value
        return True
    return seen == value


def reference_substitute(pattern: Expr, binding: dict[str, Expr]) -> Expr:
    match pattern:
        case Var(name):
            return binding[name]
        case Const():
            return pattern
        case Not(inner):
            return Not(reference_substitute(inner, binding))
        case And(kids):
            return And(tuple(reference_substitute(k, binding) for k in kids))
        case Or(kids):
            return Or(tuple(reference_substitute(k, binding) for k in kids))
        case IandChain(ops):
            return iand_chain([reference_substitute(k, binding) for k in ops])
        case ImplyChain(ops):
            return imply_chain([reference_substitute(k, binding) for k in ops])
    raise TypeError(f"laws: not a pattern node: {pattern!r}")


def reference_dual(e: Expr) -> Expr:
    """``laws._dual`` by one class-pattern arm per node type."""
    match e:
        case Const(v):
            return Const(1 - v)
        case Var():
            return e
        case Not(child):
            return normalize_not(Not(reference_dual(child)))
        case And(kids):
            return Or(tuple(reference_dual(k) for k in kids))
        case Or(kids):
            return And(tuple(reference_dual(k) for k in kids))
        case IandChain(ops):
            first = reference_dual(ops[0])
            rest = (normalize_not(Not(reference_dual(x))) for x in ops[1:])
            return Or((first, *rest))
        case ImplyChain(ops):
            front = (normalize_not(Not(reference_dual(x))) for x in ops[:-1])
            last = reference_dual(ops[-1])
            return And((*front, last))
    raise TypeError(f"laws: not an expression node: {e!r}")


_MIX_HINT = (
    "cannot mix '@' and '->' at the same nesting level; "
    "add parentheses, e.g. (A @ B) -> C or A @ (B -> C)"
)


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    position: int


_SINGLE = {
    "!": "NOT",
    "&": "AND",
    "@": "IAND",
    "|": "OR",
    "(": "LPAREN",
    ")": "RPAREN",
    "0": "ZERO",
    "1": "ONE",
}


# A word is a run of ASCII letters, digits and underscores; any other
# letter or digit is an unexpected character.
_WORD = frozenset(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_"
)


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "-":
            if i + 1 < n and text[i + 1] == ">":
                tokens.append(_Token("IMPLY", "->", i))
                i += 2
                continue
            raise ParseError("expected '->' after '-'", i)
        if ch in _SINGLE and not (ch in "01" and _ident_tail(text, i)):
            tokens.append(_Token(_SINGLE[ch], ch, i))
            i += 1
            continue
        if ch in _WORD:
            j = i
            while j < n and text[j] in _WORD:
                j += 1
            word = text[i:j]
            if word[0].isdigit():
                raise ParseError(f"name cannot start with a digit: {word!r}", i)
            tokens.append(_Token("NAME", word, i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("EOF", "", n))
    return tokens


# The error path's tokens, from one regex scan: an operator, ``->``, an
# ASCII word, or any other non-space character, each of its own.
_REGEX_TOKEN = re.compile(r"[!&@|()]|->|[A-Za-z0-9_]+|\S")
_REGEX_KINDS = {**_SINGLE, "->": "IMPLY"}


def _regex_tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    for m in _REGEX_TOKEN.finditer(text):
        word, i = m[0], m.start()
        kind = _REGEX_KINDS.get(word)
        if kind is None:
            if word[0] in "0123456789":
                raise ParseError(
                    f"name cannot start with a digit: {word!r}", i
                )
            if word[0] not in _WORD:
                if word == "-":
                    raise ParseError("expected '->' after '-'", i)
                raise ParseError(f"unexpected character {word!r}", i)
            kind = "NAME"
        tokens.append(_Token(kind, word, i))
    tokens.append(_Token("EOF", "", len(text)))
    return tokens


def _ident_tail(text: str, i: int) -> bool:
    """True when the digit at ``i`` starts a longer word (an invalid name)."""
    return i + 1 < len(text) and text[i + 1] in _WORD


class _Parser:
    def __init__(self, tokens: list[_Token]) -> None:
        self.tokens = tokens
        self.index = 0

    @property
    def head(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    # Every level returns (expression, naked_iand): the flag records an
    # '@' consumed inside the current parentheses, and parentheses clear it.

    def parse_imply(self) -> tuple[Expr, bool]:
        left, left_naked = self.parse_or()
        if self.head.kind != "IMPLY":
            return left, left_naked
        if left_naked:
            raise ParseError(_MIX_HINT, self.head.position)
        operands = [left]
        while self.head.kind == "IMPLY":
            arrow = self.advance()
            right, right_naked = self.parse_or()
            if right_naked:
                raise ParseError(_MIX_HINT, arrow.position)
            operands.append(right)
        return imply_chain(operands), False

    def parse_or(self) -> tuple[Expr, bool]:
        first, naked = self.parse_iand()
        operands = [first]
        while self.head.kind == "OR":
            self.advance()
            nxt, nxt_naked = self.parse_iand()
            naked = naked or nxt_naked
            operands.append(nxt)
        if len(operands) == 1:
            return first, naked
        return Or(tuple(operands)), naked

    def parse_iand(self) -> tuple[Expr, bool]:
        first = self.parse_and()
        operands = [first]
        while self.head.kind == "IAND":
            self.advance()
            operands.append(self.parse_and())
        if len(operands) == 1:
            return first, False
        return iand_chain(operands), True

    def parse_and(self) -> Expr:
        first = self.parse_not()
        operands = [first]
        while self.head.kind == "AND":
            self.advance()
            operands.append(self.parse_not())
        if len(operands) == 1:
            return first
        return And(tuple(operands))

    def parse_not(self) -> Expr:
        if self.head.kind == "NOT":
            self.advance()
            return Not(self.parse_not())
        return self.parse_atom()

    def parse_atom(self) -> Expr:
        tok = self.advance()
        match tok.kind:
            case "ZERO":
                return FALSE
            case "ONE":
                return TRUE
            case "NAME":
                return Var(tok.text)
            case "LPAREN":
                inner, _ = self.parse_imply()
                closing = self.advance()
                if closing.kind != "RPAREN":
                    raise ParseError("expected ')'", closing.position)
                return inner
            case "RPAREN":
                raise ParseError("unmatched ')'", tok.position)
            case "EOF":
                raise ParseError("unexpected end of input", tok.position)
        raise ParseError(f"unexpected token {tok.text!r}", tok.position)


def reference_parse(text: str) -> Expr:
    """``parse`` by a character-by-character tokenizer and a descent that
    recurses once per ``!``."""
    return _descend(_tokenize(text))


def reference_regex_parse(text: str) -> Expr:
    """``reference_parse`` over the tokens of one regex scan."""
    return _descend(_regex_tokenize(text))


def _descend(tokens: list[_Token]) -> Expr:
    parser = _Parser(tokens)
    expr, _ = parser.parse_imply()
    if parser.head.kind != "EOF":
        raise ParseError(
            f"trailing input {parser.head.text!r}", parser.head.position
        )
    return expr
