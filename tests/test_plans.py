"""Plan-built programs and netlists against the public constructors.

The compilers build ``ImplyProgram`` and ``Netlist`` straight from their
plans and keep the output column they checked; ``simulate`` reads that
column, and ``steps``, ``gates``, ``state`` and ``trace`` are made on
first read.  These tests hold the plan-built objects to the ones the
constructors build from those fields, which replay, the texts to the ones
formatted from the step and gate objects, and the compile path to building
no step or gate object at all.
"""

from __future__ import annotations

import copy
import dataclasses
import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asymlogic import cli, memristor, spindiode
from asymlogic.cli import main
from asymlogic.canon import Product, noi_form, soi_form
from asymlogic.errors import CapacityError, EvaluationError
from asymlogic.expr import Not, Var, format_expr
from asymlogic.memristor import (
    Imply,
    ImplyProgram,
    Reset,
    compile_noi,
    program_text,
    simulate,
)
from asymlogic.parser import parse
from asymlogic.semantics import MAX_TABLE_VARS, evaluate, row_assignment
from asymlogic.spindiode import (
    Gate,
    Netlist,
    compile_soi,
    netlist_text,
    simulate_netlist,
)

from .helpers import (
    assignments,
    reference_netlist_text,
    reference_program_text,
    reference_simulate,
    reference_simulate_netlist,
)
from .strategies import (
    noi_exprs,
    noi_exprs_with_constants,
    soi_exprs,
    soi_exprs_with_constants,
)

NOI = "!((A -> !B) & (A -> !C) & (B -> !C))"
SOI = "A @ !B | B @ C | !A"


def _same_program(prog: ImplyProgram) -> None:
    """``prog``, built from its plan, against the constructor's rebuild of
    a copy: ``prog`` meets it before its own steps are read."""
    twin = copy.copy(prog)
    rebuilt = ImplyProgram(twin.registers, twin.bindings, twin.output,
                           twin.steps)
    assert "steps" not in vars(prog)
    assert prog == rebuilt
    assert hash(prog) == hash(rebuilt)
    assert repr(prog) == repr(rebuilt)
    assert prog._plan == rebuilt._plan
    assert program_text(prog) == program_text(rebuilt) == (
        reference_program_text(rebuilt)
    )


def _same_netlist(net: Netlist) -> None:
    """``net``, built from its plan, against the constructor's rebuild of
    a copy: ``net`` meets it before its own gates are read."""
    twin = copy.copy(net)
    rebuilt = Netlist(twin.inputs, twin.gates, twin.output)
    assert "gates" not in vars(net)
    assert net == rebuilt
    assert hash(net) == hash(rebuilt)
    assert repr(net) == repr(rebuilt)
    assert (net._ops, net._out, net._last) == (
        rebuilt._ops, rebuilt._out, rebuilt._last)
    assert netlist_text(net) == netlist_text(rebuilt) == (
        reference_netlist_text(rebuilt)
    )


def _same_traces(prog: ImplyProgram) -> None:
    for env in assignments(tuple(name for name, _ in prog.bindings)):
        got, want = simulate(prog, env), reference_simulate(prog, env)
        assert "trace" not in vars(got)
        assert got.trace == want.trace
        assert got == want and repr(got) == repr(want)


class TestCompiledMatchesRebuilt:
    @settings(max_examples=150, deadline=None)
    @given(st.one_of(noi_exprs, noi_exprs_with_constants), st.booleans())
    def test_programs(self, e, peephole):
        prog = compile_noi(e, peephole=peephole)
        assert prog == compile_noi(e, peephole=peephole)
        _same_program(compile_noi(e, peephole=peephole))
        _same_traces(prog)

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(soi_exprs, soi_exprs_with_constants))
    def test_netlists(self, e):
        net = compile_soi(e, inputs=("A", "B", "C", "D"))
        assert net == compile_soi(e, inputs=("A", "B", "C", "D"))
        _same_netlist(compile_soi(e, inputs=("A", "B", "C", "D")))

    def test_every_three_variable_table_on_the_cli_route(self, tmp_path):
        parser = cli.build_parser()
        for bits in product("01", repeat=8):
            path = tmp_path / "t.tbl"
            path.write_text("A B C\n" + "".join(bits) + "\n")
            for target in ("memristor", "spindiode"):
                args = parser.parse_args(
                    ["compile", "--target", target, "--table-file", str(path)])
                if target == "memristor":
                    prog, _ = cli._build_memristor(args)
                    _same_program(prog)
                    _same_traces(prog)
                else:
                    _same_netlist(cli._build_spindiode(args))

    def test_lazy_fields_replace_like_fields(self):
        prog = compile_noi(parse(NOI))
        wider = dataclasses.replace(prog, registers=prog.registers + 1)
        assert wider.steps == prog.steps and wider._plan == prog._plan
        net = compile_soi(parse(SOI))
        assert dataclasses.replace(net, output="in:A").gates == net.gates
        result = simulate(prog, {"A": 1, "B": 0, "C": 1})
        assert dataclasses.replace(result, output=9).trace == result.trace

    def test_missing_attributes_still_raise(self):
        prog = compile_noi(parse(NOI))
        net = compile_soi(parse(SOI))
        result = simulate(prog, {"A": 1, "B": 0, "C": 1})
        for obj in (prog, net, result):
            with pytest.raises(AttributeError, match="no attribute 'nope'"):
                obj.nope


class TestNoStepOrGateObjects:
    """The compile path builds no ``Reset``, ``Imply`` or ``Gate``: the
    steps and gates are made only where a caller reads them."""

    @pytest.fixture()
    def made(self, monkeypatch):
        made: list[str] = []
        for cls in (Reset, Imply, Gate):
            real = cls.__init__

            def counting(self, *args, real=real, name=cls.__name__, **kw):
                made.append(name)
                real(self, *args, **kw)

            monkeypatch.setattr(cls, "__init__", counting)
        return made

    def test_library_calls(self, made):
        prog = compile_noi(parse(NOI))
        net = compile_soi(parse(SOI))
        program_text(prog)
        netlist_text(net)
        for env in assignments(("A", "B", "C")):
            simulate(prog, env).output
            simulate_netlist(net, env)
        assert made == []
        # the count sees a read field
        prog.steps
        assert made.count("Reset") == 4 and made.count("Imply") == 9

    def test_cli_compile(self, made, capsys, tmp_path):
        path = tmp_path / "carry.tbl"
        path.write_text("A B C\n00010111\n")
        table = ["--table-file", str(path)]
        for target, source in (("memristor", [NOI]), ("spindiode", [SOI]),
                               ("memristor", table), ("spindiode", table)):
            argv = ["compile", "--target", target, *source,
                    "--format", "structured"]
            assert main(argv) == 0
        capsys.readouterr()
        assert made == []


class TestInputNames:
    """Input names are checked like variable names, so the interchange
    text reads back: a space or a ``!`` in a name is a ``ValueError``."""

    @pytest.mark.parametrize("name", ["a b", "", "1x", "!A", "in:A"])
    def test_program_bindings(self, name):
        with pytest.raises(ValueError, match="^memristor: variable names"):
            ImplyProgram(3, ((name, 0),), 2, (Reset(2),))
        with pytest.raises(ValueError, match="^memristor: variable names"):
            memristor._from_plan(3, ((name, 0),), 2, ((None, 2),))

    @pytest.mark.parametrize("name", ["x y", "", "1x", "!A", "in:A"])
    def test_netlist_inputs(self, name):
        gates = (Gate(0, "OR", "in:A", f"in:{name}"),)
        with pytest.raises(ValueError, match="^spindiode: variable names"):
            Netlist(("A", name), gates, "g0")
        with pytest.raises(ValueError, match="^spindiode: variable names"):
            spindiode._from_plan(("A", name), ((True, 0, 1),), 4)

    def test_compile_soi_declared_inputs(self):
        with pytest.raises(ValueError, match="^spindiode: variable names"):
            compile_soi(parse("A | B"), inputs=("A", "B", "x y"))

    def test_cli_exits_2(self, monkeypatch, capsys):
        # the CLI reads names through the parser; a bad name reaching the
        # compiler is an input error, not an internal one
        real = spindiode._compile
        monkeypatch.setattr(spindiode, "_compile",
                            lambda names, *rest: real(names + ("x y",), *rest))
        assert main(["compile", "--target", "spindiode", "A | B"]) == 2
        assert "variable names" in capsys.readouterr().err


class TestPlanChecks:
    """The checks the constructors make also hold for a plan handed over
    by a compiler."""

    def test_imply_reads_what_it_writes(self):
        with pytest.raises(ValueError, match="must differ .r2."):
            memristor._from_plan(3, (("p", 0),), 2, ((None, 2), (2, 2)))

    @pytest.mark.parametrize("plan, message", [
        (((None, 5),), "register r5 out of range"),
        (((None, 0),), "program writes input register r0"),
        (((7, 2),), "register r7 out of range"),
    ])
    def test_program_faults(self, plan, message):
        with pytest.raises(ValueError, match=f"^memristor: {message}$"):
            memristor._from_plan(3, (("p", 0),), 2, plan)

    @pytest.mark.parametrize("ops, out, message", [
        (((True, 0, 2),), 2, "g0 reads 'g0'"),
        (((True, 0, 1), (False, 3, 2)), 3, "g1 reads 'g1'"),
        (((True, -1, 1),), 2, "g0 reads 'g-3'"),
        (((True, 0, 1),), 3, "output 'g1'"),
        ((), 2, "output 'g0'"),
    ])
    def test_netlist_faults(self, ops, out, message):
        with pytest.raises(ValueError, match=f"^spindiode: {message}"):
            spindiode._from_plan(("A",), ops, out)

    def test_duplicate_inputs(self):
        with pytest.raises(ValueError, match="^spindiode: duplicate input"):
            spindiode._from_plan(("A", "A"), (), 0)


def _table_route(tmp_path, bits: str, target: str):
    """The CLI's program or netlist for the table ``bits`` over A B C."""
    path = tmp_path / "t.tbl"
    path.write_text(f"A B C\n{bits}\n")
    args = cli.build_parser().parse_args(
        ["compile", "--target", target, "--table-file", str(path)])
    if target == "memristor":
        return cli._build_memristor(args)[0]
    return cli._build_spindiode(args)


def _program_twin(prog: ImplyProgram) -> ImplyProgram:
    twin = ImplyProgram(prog.registers, prog.bindings, prog.output,
                        prog.steps)
    assert "_column" in vars(prog) and "_column" not in vars(twin)
    return twin


def _netlist_twin(net: Netlist) -> Netlist:
    twin = Netlist(net.inputs, net.gates, net.output)
    assert "_column" in vars(net) and "_column" not in vars(twin)
    return twin


def _same_runs(prog: ImplyProgram, names: tuple[str, ...]) -> None:
    """On every row over ``names``, the column's answer against the replay
    of the constructor-built twin and the stepwise reference."""
    twin = _program_twin(prog)
    for env in assignments(names):
        got = simulate(prog, env)
        assert "state" not in vars(got) and "trace" not in vars(got)
        for want in (simulate(twin, env), reference_simulate(prog, env)):
            assert got.output == want.output
            assert got.state == want.state
            assert got.trace == want.trace


def _same_netlist_runs(net: Netlist) -> None:
    twin = _netlist_twin(net)
    for env in assignments(net.inputs):
        assert simulate_netlist(net, env) == simulate_netlist(twin, env) == (
            reference_simulate_netlist(net, env)
        )


class TestColumnMatchesReplay:
    """A compiled object answers ``simulate`` from the column its compiler
    checked; the constructor-built twin, which has no column, replays."""

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(noi_exprs, noi_exprs_with_constants), st.booleans())
    def test_programs(self, e, peephole):
        _same_runs(compile_noi(e, peephole=peephole), ("A", "B", "C", "D"))

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(soi_exprs, soi_exprs_with_constants))
    def test_netlists(self, e):
        _same_netlist_runs(compile_soi(e, inputs=("A", "B", "C", "D")))

    def test_every_three_variable_table(self, tmp_path):
        for bits in map("".join, product("01", repeat=8)):
            _same_runs(_table_route(tmp_path, bits, "memristor"),
                       ("A", "B", "C"))
            _same_netlist_runs(_table_route(tmp_path, bits, "spindiode"))

    def test_unbound_header_names(self, tmp_path):
        # f = A over (A, B, C): the cover binds A alone, and B and C are
        # in the column's row order on no register
        prog = _table_route(tmp_path, "00001111", "memristor")
        assert prog.bindings == (("A", 0),)
        _same_runs(prog, ("A", "B", "C"))
        for a in (0, 1):
            assert simulate(prog, {"A": a}).output == a


def _wide_products(n: int) -> tuple[Product, ...]:
    """Seeded products of up to four literals that together read each of
    ``n`` names once."""
    rng = random.Random(n)
    order = [Var(f"x{i}") for i in rng.sample(range(n), n)]
    return tuple(
        tuple(Not(v) if rng.random() < 0.5 else v for v in order[i:i + 4])
        for i in range(0, n, 4))


def _sampled_rows(n: int) -> list[dict[str, int]]:
    """Rows 0 and ``2**n - 1`` and 30 seeded rows of ``n`` names."""
    names = tuple(f"x{i}" for i in range(n))
    rng = random.Random(-n)
    rows = [0, (1 << n) - 1] + [rng.randrange(1 << n) for _ in range(30)]
    return [row_assignment(names, r) for r in rows]


class TestCompileToTheTableCap:
    """Both compilers take up to ``MAX_TABLE_VARS`` names, check what they
    compile and keep its column; past the cap both refuse the source with
    the table's ``CapacityError`` (CLI exit 2)."""

    @pytest.mark.parametrize("n", [17, MAX_TABLE_VARS])
    def test_programs(self, n):
        noi = noi_form(_wide_products(n))
        prog = compile_noi(noi)
        assert len(prog.bindings) == n
        twin = _program_twin(prog)
        for env in _sampled_rows(n):
            want = evaluate(noi, env)
            assert simulate(prog, env).output == want
            assert simulate(twin, env).output == want

    @pytest.mark.parametrize("n", [17, MAX_TABLE_VARS])
    def test_netlists(self, n):
        soi = soi_form(_wide_products(n))
        net = compile_soi(soi)
        assert len(net.inputs) == n
        twin = _netlist_twin(net)
        for env in _sampled_rows(n):
            want = evaluate(soi, env)
            assert simulate_netlist(net, env) == want
            assert simulate_netlist(twin, env) == want

    def test_refused_beyond_the_table_cap(self, capsys):
        n = MAX_TABLE_VARS + 1
        error = (f"semantics: truth tables support at most {MAX_TABLE_VARS} "
                 f"variables, got {n}")
        products = _wide_products(n)
        names = tuple(f"x{i}" for i in range(n))
        for compile_ in (lambda: compile_noi(noi_form(products)),
                         lambda: compile_soi(soi_form(products)),
                         lambda: compile_soi(parse("x0 @ x1"), inputs=names)):
            with pytest.raises(CapacityError) as err:
                compile_()
            assert str(err.value) == error
        for target, form in (("memristor", noi_form), ("spindiode", soi_form)):
            text = format_expr(form(products))
            assert main(["compile", "--target", target, text]) == 2
            assert capsys.readouterr().err == f"error: {error}\n"


def _outcome(run, *args):
    """What a run returns, or the text of the ``EvaluationError`` it
    raises."""
    try:
        result = run(*args)
    except EvaluationError as err:
        return str(err)
    if isinstance(result, int):
        return result
    return result.output, result.state, result.trace


# assignments over (A, B, C) that a program bound to A alone, or to all
# three, must check as before
_ENVS = [
    {"A": 1, "B": 0},  # C missing
    {"A": 1, "B": 2, "C": 0},
    {"A": True, "B": 0, "C": True},
    {"A": 1, "B": 0, "C": 1, "D": 1, "E": 7},  # extra names
    {"A": 1},  # B and C missing
    {"A": 1.0, "B": 0, "C": 0},
]


class TestInputsCheckedAsBefore:
    """A compiled object and its constructor-built twin give the same
    result or the same error text on every assignment."""

    @pytest.mark.parametrize("bits", ["00001111", "00010111"],
                             ids=["A alone", "carry"])
    def test_programs(self, tmp_path, bits):
        prog = _table_route(tmp_path, bits, "memristor")
        twin = _program_twin(prog)
        for env in _ENVS:
            got = _outcome(simulate, prog, env)
            assert got == _outcome(simulate, twin, env), env
        if bits == "00010111":
            assert _outcome(simulate, prog, {"A": 1, "B": 0}) == (
                "memristor: unbound input 'C'")

    @pytest.mark.parametrize("bits", ["00001111", "00010111"],
                             ids=["A alone", "carry"])
    def test_netlists(self, tmp_path, bits):
        # a netlist reads every declared input, bound by its gates or not
        net = _table_route(tmp_path, bits, "spindiode")
        twin = _netlist_twin(net)
        for env in _ENVS:
            got = _outcome(simulate_netlist, net, env)
            assert got == _outcome(simulate_netlist, twin, env), env
        assert _outcome(simulate_netlist, net, {"A": 1}) == (
            "spindiode: unbound input 'B'")

    def test_replace_carries_no_column(self):
        prog = compile_noi(parse(NOI))
        moved = dataclasses.replace(prog, output=0)  # the output is A
        assert "_column" not in vars(moved)
        net = compile_soi(parse(SOI))
        tapped = dataclasses.replace(net, output="!in:B")
        assert "_column" not in vars(tapped)
        for env in assignments(("A", "B", "C")):
            assert simulate(moved, env) == reference_simulate(moved, env)
            assert simulate(moved, env).output == env["A"]
            assert simulate_netlist(tapped, env) == 1 - env["B"]
