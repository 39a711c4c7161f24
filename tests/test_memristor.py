"""Stateful-implication compiler: schedules, peephole, and replay."""

from __future__ import annotations

import random
import subprocess
import sys
import textwrap
from dataclasses import replace
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asymlogic import memristor
from asymlogic.canon import noi_from_tt
from asymlogic.cli import main
from asymlogic.errors import CapacityError, EvaluationError, ShapeError
from asymlogic.expr import (
    And,
    Const,
    ImplyChain,
    Not,
    Var,
    variables,
)
from asymlogic.memristor import (
    Imply,
    ImplyProgram,
    Reset,
    compile_nand,
    compile_noi,
    program_text,
    simulate,
    step_count,
    step_semantics,
)
from asymlogic.minimize import minimized_noi
from asymlogic.parser import parse
from asymlogic.semantics import TruthTable, evaluate

from .helpers import (
    assignments,
    reference_check_program,
    reference_compile_noi,
    reference_simulate,
    reference_step_count,
    reference_step_semantics,
)
from .strategies import noi_exprs, noi_exprs_with_constants

GOLDEN = Path(__file__).parent / "golden"
CARRY = TruthTable(("A", "B", "C"), (0, 0, 0, 1, 0, 1, 1, 1))
SUM = TruthTable(("A", "B", "C"), (0, 1, 1, 0, 1, 0, 0, 1))

# hand-written programs over five registers, two of them bound inputs
_steps = st.one_of(
    st.integers(2, 4).map(Reset),
    st.tuples(st.integers(0, 4), st.integers(2, 4))
    .filter(lambda cs: cs[0] != cs[1])
    .map(lambda cs: Imply(*cs)),
)
_programs = st.builds(
    lambda out, steps: ImplyProgram(
        5, (("p", 0), ("q", 1)), out, tuple(steps)
    ),
    st.integers(0, 4),
    st.lists(_steps, max_size=12),
)


class TestStepSemantics:
    def test_reset(self):
        assert step_semantics((1, 1), Reset(0)) == (0, 1)

    @pytest.mark.parametrize(
        "cond, target, expected",
        [(0, 0, 1), (0, 1, 1), (1, 0, 0), (1, 1, 1)],
    )
    def test_imply_truth_table(self, cond, target, expected):
        # s <- NOT cond OR s
        state = (cond, target)
        assert step_semantics(state, Imply(0, 1)) == (cond, expected)

    def test_imply_requires_distinct_registers(self):
        with pytest.raises(ValueError):
            Imply(2, 2)


class TestProgramValidation:
    def test_input_registers_are_read_only(self):
        with pytest.raises(ValueError):
            ImplyProgram(2, (("p", 0),), 1, (Reset(0),))
        with pytest.raises(ValueError):
            ImplyProgram(2, (("p", 0),), 1, (Imply(1, 0),))

    def test_register_bounds(self):
        with pytest.raises(ValueError):
            ImplyProgram(1, (), 0, (Reset(3),))
        with pytest.raises(ValueError):
            ImplyProgram(1, (), 5, ())

    def test_bound_register_out_of_range(self):
        with pytest.raises(ValueError, match="memristor: input 'p' bound to "
                           "register r5 out of range"):
            ImplyProgram(2, (("p", 5),), 1, ())

    def test_two_inputs_on_one_register(self):
        with pytest.raises(ValueError, match="memristor: two inputs bound "
                           "to r0"):
            ImplyProgram(2, (("p", 0), ("q", 0)), 1, ())

    def test_variable_bound_twice(self):
        with pytest.raises(ValueError, match="memristor: input 'p' bound "
                           "twice"):
            ImplyProgram(3, (("p", 0), ("p", 1)), 2, ())


# steps over registers -2 .. 6 of a five-register file: some out of range,
# some negative, some writing an input register
_any_steps = st.one_of(
    st.integers(-2, 6).map(Reset),
    st.tuples(st.integers(-2, 6), st.integers(-2, 6))
    .filter(lambda cs: cs[0] != cs[1])
    .map(lambda cs: Imply(*cs)),
)


def _raised(build):
    """The ValueError's message, or ``None`` when nothing is raised."""
    try:
        build()
    except ValueError as exc:
        return str(exc)
    return None


class TestValidationMatchesReference:
    """The constructor checks each distinct pair of its plan once; the
    message is the one the per-step reference raises, for the first fault."""

    BINDINGS = (("p", 0), ("q", 1))

    def _check(self, steps, output=2):
        fields = (5, self.BINDINGS, output, tuple(steps))
        got = _raised(lambda: ImplyProgram(*fields))
        assert got == _raised(lambda: reference_check_program(*fields))
        return got

    @pytest.mark.parametrize("steps, message", [
        ([Reset(2), Imply(7, 2)], "memristor: register r7 out of range"),
        ([Reset(2), Imply(2, 5)], "memristor: register r5 out of range"),
        ([Reset(5)], "memristor: register r5 out of range"),
        ([Imply(-1, 2)], "memristor: register r-1 out of range"),
        ([Reset(-3)], "memristor: register r-3 out of range"),
        ([Reset(2), Imply(2, 1)], "memristor: program writes input "
         "register r1"),
        ([Reset(0)], "memristor: program writes input register r0"),
    ])
    def test_each_fault(self, steps, message):
        assert self._check(steps) == message

    @pytest.mark.parametrize("steps, message", [
        # a write to an input, then a register out of range
        ([Imply(2, 0), Reset(9)], "memristor: program writes input "
         "register r0"),
        ([Reset(9), Imply(2, 0)], "memristor: register r9 out of range"),
        # in one step, the read is checked before the write
        ([Imply(8, 1)], "memristor: register r8 out of range"),
        ([Imply(-1, 6)], "memristor: register r-1 out of range"),
        ([Imply(3, 6), Imply(-1, 2)], "memristor: register r6 out of "
         "range"),
        # a bad step before a bad output
        ([Reset(1)], "memristor: program writes input register r1"),
    ])
    def test_first_of_two_faults(self, steps, message):
        assert self._check(steps, output=7) == message

    def test_bad_output_after_good_steps(self):
        assert self._check([Reset(2)], output=5) == (
            "memristor: output register out of range"
        )

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_any_steps, max_size=8), st.integers(-1, 5))
    def test_random_programs(self, steps, output):
        self._check(steps, output)


class TestPlanMatchesSteps:
    """``_plan`` is the steps resolved once; everything that replays or
    counts a program reads it, and must agree with the steps themselves."""

    @settings(max_examples=150, deadline=None)
    @given(_programs)
    def test_step_count(self, prog):
        assert step_count(prog) == reference_step_count(prog)

    @settings(max_examples=150, deadline=None)
    @given(_programs)
    def test_step_by_step_replay(self, prog):
        # step_semantics chained over a program gives the reference trace
        for env in assignments(("p", "q")):
            cur = (env["p"], env["q"], 0, 0, 0)
            for step, after in zip(prog.steps,
                                   reference_simulate(prog, env).trace):
                cur = step_semantics(cur, step)
                assert cur == after

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(noi_exprs, noi_exprs_with_constants))
    def test_compiled_step_count(self, e):
        prog = compile_noi(e)
        assert step_count(prog) == reference_step_count(prog)


class TestNand:
    def test_exact_schedule(self):
        p = compile_nand("p", "q")
        assert p.steps == (Reset(2), Imply(0, 2), Imply(1, 2))
        assert p.bindings == (("p", 0), ("q", 1))
        assert p.output == 2

    def test_counts(self):
        assert step_count(compile_nand("p", "q")) == {
            "total": 3,
            "resets": 1,
            "implies": 2,
            "registers": 3,
        }

    @pytest.mark.parametrize(
        "p_bit, q_bit, s_column, result",
        [
            (1, 1, (0, 0, 0), 0),
            (0, 0, (0, 1, 1), 1),
            (1, 0, (0, 0, 1), 1),
            (0, 1, (0, 1, 1), 1),
        ],
    )
    def test_work_register_trace(self, p_bit, q_bit, s_column, result):
        prog = compile_nand("p", "q")
        r = simulate(prog, {"p": p_bit, "q": q_bit})
        assert tuple(state[2] for state in r.trace) == s_column
        assert r.output == result

    def test_golden_text(self):
        assert program_text(compile_nand("p", "q")) == (
            GOLDEN / "nand_program.txt"
        ).read_text()

    def test_nand_noi_collapses_to_same_schedule(self):
        prog = compile_noi(Not(And((Var("p"), Var("q")))))
        assert prog.steps == (Reset(2), Imply(0, 2), Imply(1, 2))
        assert compile_nand("p", "q") == prog
        for env in assignments(("p", "q")):
            assert (simulate(compile_nand("p", "q"), env).trace
                    == simulate(prog, env).trace)

    def test_checked_by_the_oracle_once(self, monkeypatch):
        calls = []

        def recording(*args):
            calls.append(args)
            return real(*args)

        real = memristor.check_oracle
        monkeypatch.setattr(memristor, "check_oracle", recording)
        compile_nand("p", "q")
        assert len(calls) == 1

    def test_names_are_checked(self):
        with pytest.raises(ValueError, match="^memristor: input 'p' bound"):
            compile_nand("p", "p")
        with pytest.raises(ValueError, match="^expr: variable names"):
            compile_nand("p", "1q")


class TestCompileNoi:
    def test_reduced_carry_golden(self):
        prog = compile_noi(minimized_noi(CARRY))
        assert program_text(prog) == (GOLDEN / "carry_program.txt").read_text()
        assert step_count(prog) == {
            "total": 13,
            "resets": 4,
            "implies": 9,
            "registers": 5,
        }

    def test_canonical_carry_is_larger_but_equal(self):
        reduced = compile_noi(minimized_noi(CARRY))
        canonical = compile_noi(noi_from_tt(CARRY))
        assert step_count(canonical)["total"] == 27
        assert step_count(reduced)["total"] < step_count(canonical)["total"]
        for env in assignments(CARRY.variables):
            row = (env["A"] << 2) | (env["B"] << 1) | env["C"]
            assert simulate(reduced, env).output == CARRY.bits[row]
            assert simulate(canonical, env).output == CARRY.bits[row]

    def test_constants(self):
        assert simulate(compile_noi(Const(0)), {}).output == 0
        assert simulate(compile_noi(Const(1)), {}).output == 1

    def test_passthrough_variable(self):
        prog = compile_noi(Var("A"))
        assert prog.steps == ()
        assert simulate(prog, {"A": 1}).output == 1
        assert simulate(prog, {"A": 0}).output == 0

    def test_single_inversion(self):
        prog = compile_noi(Not(Var("A")))
        assert step_count(prog)["total"] == 2
        assert simulate(prog, {"A": 0}).output == 1

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            compile_noi(And((Var("A"), Var("B"))))
        with pytest.raises(ShapeError):
            compile_noi(Not(And((Var("A"), And((Var("B"), Var("C")))))))
        with pytest.raises(ShapeError):
            compile_noi(Not(ImplyChain((Var("A"), And((Var("B"), Var("C")))))))

    def test_capacity(self):
        # 25 names, one past the table cap: refused with the table's error
        terms = tuple(
            ImplyChain((Var(f"v{i}"), Var("x"))) for i in range(24)
        )
        with pytest.raises(
            CapacityError,
            match="^semantics: truth tables support at most 24 variables, "
                  "got 25$",
        ):
            compile_noi(Not(And(terms)))

    def test_peephole_off_is_still_correct(self):
        noi = minimized_noi(CARRY)
        raw = compile_noi(noi, peephole=False)
        slim = compile_noi(noi)
        assert step_count(raw)["total"] > step_count(slim)["total"]
        for env in assignments(CARRY.variables):
            assert simulate(raw, env).output == simulate(slim, env).output

    @settings(max_examples=60, deadline=None)
    @given(noi_exprs)
    def test_compiled_program_matches_evaluation(self, e):
        prog = compile_noi(e)
        for env in assignments(variables(e)):
            assert simulate(prog, env).output == evaluate(e, env)

    @settings(max_examples=60, deadline=None)
    @given(noi_exprs)
    def test_inputs_never_written(self, e):
        prog = compile_noi(e)
        input_regs = {reg for _, reg in prog.bindings}
        for step in prog.steps:
            written = step.target if isinstance(step, Reset) else step.set
            assert written not in input_regs

    @settings(max_examples=30, deadline=None)
    @given(noi_exprs)
    def test_registers_only_fall_at_resets(self, e):
        # IMPLY can only raise a register, so 1 -> 0 transitions happen
        # exactly at RESET steps
        prog = compile_noi(e)
        for env in assignments(variables(e)):
            result = simulate(prog, env)
            prev = list(result.trace[0]) if result.trace else []
            for step, state in zip(prog.steps[1:], result.trace[1:]):
                for reg, (before, after) in enumerate(zip(prev, state)):
                    if before == 1 and after == 0:
                        assert isinstance(step, Reset) and step.target == reg
                prev = state

    @settings(max_examples=60, deadline=None)
    @given(noi_exprs_with_constants)
    def test_constant_operands_fold(self, e):
        prog = compile_noi(e)
        assert {name for name, _ in prog.bindings} == set(variables(e))
        for env in assignments(variables(e)):
            assert simulate(prog, env).output == evaluate(e, env)

    def test_folded_constant_keeps_its_inputs(self):
        # A -> 1 is 1, so the NAND is 0; A stays bound and unread
        a, b = Var("A"), Var("B")
        prog = compile_noi(Not(ImplyChain((a, Const(1)))))
        assert prog.bindings == (("A", 0),)
        assert prog.steps == (Reset(1),) and prog.output == 1
        # 1 -> !B is !B, so the NAND is B: a passthrough of input B
        prog = compile_noi(Not(And((ImplyChain((a, Const(1))),
                                    ImplyChain((Const(1), Not(b)))))))
        assert prog.steps == () and prog.output == 1

    def test_full_three_variable_sweep(self):
        names = ("A", "B", "C")
        for bits in product((0, 1), repeat=8):
            t = TruthTable(names, bits)
            prog = compile_noi(noi_from_tt(t))
            for row, want in enumerate(bits):
                env = t.row_assignment(row)
                assert simulate(prog, env).output == want


def _parity(names: tuple[str, ...]) -> TruthTable:
    return TruthTable.from_mask(
        names,
        sum(1 << r for r in range(1 << len(names)) if bin(r).count("1") % 2),
    )


def _cube_table(names: tuple[str, ...], rng: random.Random) -> TruthTable:
    """The OR of a few random cubes of 1-4 literals (cheap to minimize at
    7-8 variables, unlike a uniformly random table)."""
    n = len(names)
    mask = 0
    for _ in range(rng.randint(1, n)):
        fixed = {v: rng.randint(0, 1)
                 for v in rng.sample(range(n), rng.randint(1, min(4, n)))}
        for r in range(1 << n):
            if all((r >> (n - 1 - v)) & 1 == b for v, b in fixed.items()):
                mask |= 1 << r
    return TruthTable.from_mask(names, mask)


class TestMatchesFixpointReference:
    """``compile_noi`` emits in one pass the program that the naive
    schedule, rewritten to a fixpoint and allocated, converges to."""

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(noi_exprs, noi_exprs_with_constants), st.booleans())
    def test_noi_exprs(self, e, peephole):
        assert compile_noi(e, peephole=peephole) == reference_compile_noi(
            e, peephole=peephole
        )

    @pytest.mark.parametrize("peephole", [True, False])
    @pytest.mark.parametrize("n", range(2, 9))
    def test_parity_and_minimized_tables(self, n, peephole):
        names = tuple(f"x{i}" for i in range(n))
        rng = random.Random(n)
        tables = [_parity(names)] + [_cube_table(names, rng) for _ in range(4)]
        if n <= 6:
            tables += [TruthTable.from_mask(names, rng.getrandbits(1 << n))
                       for _ in range(4)]
        for t in tables:
            for e in (minimized_noi(t), noi_from_tt(t)):
                assert compile_noi(e, peephole=peephole) == (
                    reference_compile_noi(e, peephole=peephole)
                )

    def test_naive_schedule_keeps_the_double_inversion(self):
        # !(A -> !B) is A AND B: the naive schedule inverts B twice
        e = Not(ImplyChain((Var("A"), Not(Var("B")))))
        assert compile_noi(e).steps == (
            Reset(2), Reset(3), Imply(0, 3), Imply(1, 3), Imply(3, 2),
        )
        assert compile_noi(e, peephole=False).steps == (
            Reset(2), Reset(3), Imply(0, 3),
            Reset(4), Imply(1, 4), Reset(5), Imply(4, 5), Imply(5, 3),
            Imply(3, 2),
        )


class TestSimulate:
    def test_trace_records_every_step(self):
        prog = compile_nand("p", "q")
        r = simulate(prog, {"p": 1, "q": 0})
        assert len(r.trace) == 3
        assert r.state == r.trace[-1]

    def test_unbound_input(self):
        with pytest.raises(EvaluationError):
            simulate(compile_nand("p", "q"), {"p": 1})

    def test_non_bit_input(self):
        with pytest.raises(EvaluationError):
            simulate(compile_nand("p", "q"), {"p": 2, "q": 0})

    @pytest.mark.parametrize("e", [Var("p"), Not(Var("p"))])
    def test_float_input_is_rejected(self, e):
        with pytest.raises(EvaluationError, match="^memristor: 'p' must be"):
            simulate(compile_noi(e), {"p": 1.0})

    def test_bool_input_reads_as_int(self):
        r = simulate(compile_noi(Var("p")), {"p": True})
        assert r.output == 1 and type(r.output) is int
        assert all(type(v) is int for v in r.state)
        assert simulate(compile_nand("p", "q"), {"p": True, "q": True}).output == 0


class TestLazyReplay:
    """A result's ``state`` and ``trace`` come from one replay of the plan,
    whichever is read first."""

    @pytest.mark.parametrize("first", ["state", "trace"])
    @pytest.mark.parametrize("text", ["a", "!(a & !b)", "!((a -> !b) & c)"])
    def test_either_field_first(self, first, text):
        prog = compile_noi(parse(text))
        for env in assignments(variables(parse(text))):
            r = simulate(prog, env)
            getattr(r, first)
            assert r == reference_simulate(prog, env)

    def test_empty_plan(self):
        r = simulate(compile_noi(parse("a")), {"a": 1})
        assert r.trace == () and r.state == (1,) and r.output == 1

    def test_each_step_replays_once(self, monkeypatch):
        prog = compile_noi(parse("!((a -> !b) & (b -> c))"))
        calls = []

        def counting(plan, regs, full):
            calls.append(plan)
            real(plan, regs, full)

        real = memristor._replay
        monkeypatch.setattr(memristor, "_replay", counting)
        r = simulate(prog, {"a": 1, "b": 0, "c": 1})
        assert r.state == r.trace[-1]
        assert len(calls) == len(prog._plan)


class TestMatchesStepwiseReference:
    """``simulate`` and ``step_semantics`` are the one-row case of the
    bit-parallel replay; they return what the copy-per-step reference
    returns, output, state and trace alike."""

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(noi_exprs, noi_exprs_with_constants), st.booleans())
    def test_compiled_programs_on_every_row(self, e, peephole):
        prog = compile_noi(e, peephole=peephole)
        for env in assignments(variables(e)):
            assert simulate(prog, env) == reference_simulate(prog, env)

    @settings(max_examples=150, deadline=None)
    @given(_programs)
    def test_hand_written_programs_on_every_row(self, prog):
        for env in assignments(("p", "q")):
            assert simulate(prog, env) == reference_simulate(prog, env)

    def test_implies_that_read_inputs(self):
        # every IMPLY but the last reads an input register, r0 twice
        prog = ImplyProgram(5, (("a", 0), ("b", 1), ("c", 2)), 4, (
            Reset(3), Imply(0, 3), Imply(1, 3), Reset(4), Imply(2, 4),
            Imply(0, 4), Imply(3, 4),
        ))
        for env in assignments(("a", "b", "c")):
            got, want = simulate(prog, env), reference_simulate(prog, env)
            assert (got.output, got.state, got.trace) == (
                want.output, want.state, want.trace)
            state = (env["a"], env["b"], env["c"], 0, 0)
            for step, after in zip(prog.steps, want.trace):
                assert step_semantics(state, step) == after
                state = after

    @settings(max_examples=150, deadline=None)
    @given(st.tuples(*[st.integers(0, 1)] * 5), _steps)
    def test_step_semantics(self, state, step):
        assert step_semantics(state, step) == reference_step_semantics(
            state, step
        )


def _drop_last(steps: list, nin: int) -> list:
    return steps[:-1]


def _retarget(steps: list, nin: int) -> list:
    """Move the first IMPLY that reads an input onto the next input."""
    i = next(i for i, s in enumerate(steps)
             if isinstance(s, Imply) and s.cond < nin)
    wrong = Imply((steps[i].cond + 1) % nin, steps[i].set)
    return steps[:i] + [wrong] + steps[i + 1:]


class TestOracleCatchesWrongSchedules:
    """``compile_noi`` replays its program over every row and checks it
    against its input: a schedule that loses or misroutes one step is an
    ``AssertionError`` (CLI exit 3), with or without ``python -O``."""

    @pytest.fixture(params=[_drop_last, _retarget])
    def mutate(self, request, monkeypatch):
        real = memristor._lower

        def wrong(names, products, peephole):
            prog = real(names, products, peephole)
            steps = request.param(list(prog.steps), len(prog.bindings))
            return replace(prog, steps=tuple(steps))

        monkeypatch.setattr(memristor, "_lower", wrong)

    @pytest.mark.parametrize("form", [minimized_noi, noi_from_tt])
    @pytest.mark.parametrize("table", [CARRY, SUM], ids=["carry", "sum"])
    def test_compile_raises(self, mutate, form, table):
        e = form(table)
        with pytest.raises(AssertionError, match="memristor"):
            compile_noi(e)

    def test_nand_raises(self, mutate):
        with pytest.raises(AssertionError, match="memristor"):
            compile_nand("p", "q")

    def test_cli_exits_3(self, mutate, tmp_path, capsys):
        path = tmp_path / "carry.tbl"
        path.write_text("A B C\n00010111\n")
        argv = ["compile", "--target", "memristor", "--table-file", str(path)]
        assert main(argv) == 3
        assert "internal error: AssertionError" in capsys.readouterr().err

    def test_fires_under_optimize_flag(self):
        script = textwrap.dedent(
            """
            import sys
            from asymlogic import memristor
            from asymlogic.cli import main
            if __debug__:
                sys.exit(9)
            from dataclasses import replace
            real = memristor._lower
            def dropping(names, products, peephole):
                prog = real(names, products, peephole)
                return replace(prog, steps=prog.steps[:-1])
            memristor._lower = dropping
            sys.exit(main(["compile", "--target", "memristor",
                           "!((A -> !B) & (A -> !C) & (B -> !C))"]))
            """
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 3, proc.stderr
        assert "internal error: AssertionError" in proc.stderr
