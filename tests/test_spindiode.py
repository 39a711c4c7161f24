"""Gate netlists: synthesis, folding, validation, stats, and simulation."""

from __future__ import annotations

import subprocess
import sys
import textwrap
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asymlogic import spindiode
from asymlogic.canon import soi_from_tt
from asymlogic.cli import main
from asymlogic.errors import EvaluationError, ShapeError
from asymlogic.expr import (
    Const,
    IandChain,
    Not,
    Or,
    Var,
    variables,
)
from asymlogic.minimize import minimized_soi
from asymlogic.parser import parse
from asymlogic.semantics import TruthTable, evaluate
from asymlogic.spindiode import (
    Gate,
    Netlist,
    compile_soi,
    netlist_stats,
    netlist_text,
    simulate_netlist,
)

from .helpers import (
    assignments,
    reference_netlist_stats,
    reference_simulate_netlist,
)
from .strategies import soi_exprs, soi_exprs_with_constants

GOLDEN = Path(__file__).parent / "golden"
CARRY = TruthTable(("A", "B", "C"), (0, 0, 0, 1, 0, 1, 1, 1))

A, B, C = Var("A"), Var("B"), Var("C")


class TestGate:
    def test_ref_names_follow_gate_ids(self):
        assert Gate(3, "OR", "g0", "g1").ref == "g3"

    def test_kind_is_validated(self):
        with pytest.raises(ValueError):
            Gate(0, "NAND", "in:A", "in:B")


class TestCompileCarry:
    def test_golden_netlist(self):
        net = compile_soi(minimized_soi(CARRY), inputs=CARRY.variables)
        assert netlist_text(net) == (GOLDEN / "carry_netlist.txt").read_text()

    def test_stats(self):
        net = compile_soi(minimized_soi(CARRY), inputs=CARRY.variables)
        assert netlist_stats(net) == {"gates": 5, "depth": 3, "iands": 3, "ors": 2}

    def test_matches_table_on_all_rows(self):
        net = compile_soi(minimized_soi(CARRY), inputs=CARRY.variables)
        for row, want in enumerate(CARRY.bits):
            assert simulate_netlist(net, CARRY.row_assignment(row)) == want


class TestCompileShapes:
    def test_two_term_canonical(self):
        t = TruthTable(("A", "B", "C"), (0, 0, 0, 0, 1, 0, 0, 1))
        net = compile_soi(soi_from_tt(t), inputs=t.variables)
        lines = netlist_text(net).splitlines()
        assert lines == [
            "inputs A B C",
            "g0 = IAND in:A in:B",
            "g1 = IAND g0 in:C",
            "g2 = IAND in:A !in:B",
            "g3 = IAND g2 !in:C",
            "g4 = OR g1 g3",
            "output g4",
        ]
        assert netlist_stats(net) == {"gates": 5, "depth": 3, "iands": 4, "ors": 1}

    def test_single_chain_uses_two_gates(self):
        net = compile_soi(IandChain((A, Not(B), Not(C))))
        assert netlist_stats(net)["gates"] == 2
        assert net.gates[0].in_b == "!in:B"
        assert net.gates[1].in_b == "!in:C"

    def test_literal_passthrough(self):
        assert compile_soi(A).gates == ()
        assert compile_soi(A).output == "in:A"
        assert compile_soi(Not(A)).output == "!in:A"
        assert simulate_netlist(compile_soi(Not(A)), {"A": 0}) == 1

    def test_or_tree_is_balanced(self):
        # eight terms pair into a three-level tree instead of a seven-deep rake
        t = TruthTable(("A", "B", "C"), (1,) * 8)
        net = compile_soi(soi_from_tt(t), inputs=t.variables)
        assert netlist_stats(net)["depth"] == 2 + 3


class TestConstantFolding:
    def test_const_one_netlist(self):
        net = compile_soi(Const(1), inputs=("A",))
        assert len(net.gates) == 1 and net.gates[0].kind == "OR"
        assert simulate_netlist(net, {"A": 0}) == 1
        assert simulate_netlist(net, {"A": 1}) == 1

    def test_const_zero_netlist(self):
        net = compile_soi(Const(0), inputs=("A",))
        assert len(net.gates) == 1 and net.gates[0].kind == "IAND"
        assert simulate_netlist(net, {"A": 0}) == 0
        assert simulate_netlist(net, {"A": 1}) == 0

    def test_const_without_inputs_is_rejected(self):
        with pytest.raises(ValueError):
            compile_soi(Const(1))

    def test_iand_with_const_one_right_is_false(self):
        # A AND NOT 1 == 0, so the term folds away entirely
        net = compile_soi(IandChain((A, Const(1))), inputs=("A",))
        assert simulate_netlist(net, {"A": 1}) == 0

    def test_iand_with_const_zero_right_is_passthrough(self):
        net = compile_soi(IandChain((A, Const(0))))
        assert net.gates == ()
        assert net.output == "in:A"

    def test_const_one_head_complements(self):
        # 1 AND NOT A == NOT A with zero gates via the inverting tap
        net = compile_soi(IandChain((Const(1), A)))
        assert net.gates == ()
        assert net.output == "!in:A"

    def test_or_drops_false_terms(self):
        e = Or((IandChain((A, Const(1))), IandChain((B, C))))
        net = compile_soi(e)
        assert netlist_stats(net) == {"gates": 1, "depth": 1, "iands": 1, "ors": 0}

    def test_folded_term_emits_no_gates(self):
        # the term A @ B @ 1 is 0: it folds away before any gate is emitted
        net = compile_soi(parse("A @ B @ 1 | C"))
        assert net.gates == ()
        assert net.output == "in:C"
        assert netlist_stats(net)["gates"] == 0

    @settings(max_examples=60, deadline=None)
    @given(soi_exprs_with_constants)
    def test_constant_operands_fold(self, e):
        net = compile_soi(e, inputs=("A", "B", "C", "D"))
        for env in assignments(net.inputs):
            assert simulate_netlist(net, env) == evaluate(e, env)

    def test_or_with_true_term_is_constant(self):
        e = Or((IandChain((A, B)), Const(1)))
        net = compile_soi(e)
        for env in assignments(("A", "B")):
            assert simulate_netlist(net, env) == 1


class TestInputHandling:
    def test_declared_inputs_must_cover_variables(self):
        with pytest.raises(EvaluationError):
            compile_soi(IandChain((A, B)), inputs=("A",))

    def test_duplicate_inputs_rejected(self):
        with pytest.raises(ValueError, match="^spindiode: duplicate input"):
            compile_soi(A, inputs=("A", "A"))

    def test_default_order_is_first_appearance(self):
        net = compile_soi(Or((IandChain((B, C)), IandChain((A, C)))))
        assert net.inputs == ("B", "C", "A")

    def test_extra_declared_inputs_are_kept(self):
        net = compile_soi(A, inputs=("A", "B"))
        assert net.inputs == ("A", "B")
        assert simulate_netlist(net, {"A": 1, "B": 0}) == 1

    def test_unbound_simulation_input(self):
        with pytest.raises(EvaluationError):
            simulate_netlist(compile_soi(A), {})

    def test_non_bit_simulation_input(self):
        with pytest.raises(EvaluationError):
            simulate_netlist(compile_soi(A), {"A": 7})

    @pytest.mark.parametrize("text", ["A", "!A", "A @ B"])
    def test_float_input_is_rejected(self, text):
        net = compile_soi(parse(text), inputs=("A", "B"))
        with pytest.raises(EvaluationError, match="^spindiode: 'A' must be"):
            simulate_netlist(net, {"A": 1.0, "B": 0})

    def test_bool_input_reads_as_int(self):
        for text, want in (("A", 1), ("!A", 0), ("A @ B", 1)):
            net = compile_soi(parse(text), inputs=("A", "B"))
            got = simulate_netlist(net, {"A": True, "B": False})
            assert got == want and type(got) is int

    def test_every_declared_input_must_be_bound(self):
        # B is declared but no gate reads it; it must still be bound
        net = compile_soi(A, inputs=("A", "B"))
        with pytest.raises(EvaluationError, match="'B'"):
            simulate_netlist(net, {"A": 1})


class TestShapeErrors:
    def test_nested_chain_operand(self):
        with pytest.raises(ShapeError):
            compile_soi(IandChain((A, IandChain((B, C)))))

    def test_or_of_non_terms(self):
        with pytest.raises(ShapeError):
            compile_soi(Or((A, Not(Or((B, C))))))

    def test_imply_is_not_a_sum_shape(self):
        from asymlogic.expr import ImplyChain

        with pytest.raises(ShapeError):
            compile_soi(ImplyChain((A, B)))


class TestTopology:
    @settings(max_examples=60, deadline=None)
    @given(soi_exprs)
    def test_gate_inputs_refer_backwards(self, e):
        net = compile_soi(e)
        seen = {f"in:{n}" for n in net.inputs} | {f"!in:{n}" for n in net.inputs}
        for gate in net.gates:
            assert gate.in_a in seen and gate.in_b in seen
            seen.add(gate.ref)
        assert net.output in seen

    @settings(max_examples=60, deadline=None)
    @given(soi_exprs)
    def test_simulation_matches_evaluation(self, e):
        names = variables(e)
        net = compile_soi(e, inputs=names if names else ("A",))
        for env in assignments(net.inputs):
            assert simulate_netlist(net, env) == evaluate(e, env)


class TestExhaustiveSweep:
    def test_every_three_variable_function(self):
        names = ("A", "B", "C")
        for bits in product((0, 1), repeat=8):
            t = TruthTable(names, bits)
            for build in (soi_from_tt, minimized_soi):
                net = compile_soi(build(t), inputs=names)
                for row, want in enumerate(bits):
                    assert simulate_netlist(net, t.row_assignment(row)) == want


class TestNetlistValidation:
    """A ``Netlist`` checks every reference when it is built."""

    def test_forward_gate_reference(self):
        with pytest.raises(ValueError, match="^spindiode: g0 reads 'g1'"):
            Netlist(("A",), (Gate(0, "OR", "g1", "in:A"),), "g0")

    def test_gate_reads_itself(self):
        with pytest.raises(ValueError, match="^spindiode: g0 reads 'g0'"):
            Netlist(("A",), (Gate(0, "IAND", "in:A", "g0"),), "g0")

    def test_gate_ids_in_order(self):
        with pytest.raises(ValueError, match="^spindiode: gate 0 is .* g1"):
            Netlist(("A",), (Gate(1, "OR", "in:A", "in:A"),), "g1")
        gates = (Gate(0, "OR", "in:A", "in:A"), Gate(0, "OR", "g0", "in:A"))
        with pytest.raises(ValueError, match="^spindiode: gate 1 is .* g0"):
            Netlist(("A",), gates, "g0")

    def test_duplicate_input_names(self):
        # the tap in:A could otherwise mean either declared input
        with pytest.raises(ValueError, match="^spindiode: duplicate input"):
            Netlist(("A", "A"), (Gate(0, "IAND", "in:A", "in:A"),), "g0")
        with pytest.raises(ValueError, match="^spindiode: duplicate input"):
            Netlist(("A", "B", "A"), (), "in:B")

    def test_missing_output_gate(self):
        with pytest.raises(ValueError, match="^spindiode: output 'g3'"):
            Netlist(("A",), (Gate(0, "OR", "in:A", "!in:A"),), "g3")

    def test_output_tap_on_undeclared_input(self):
        with pytest.raises(ValueError, match="^spindiode: output '!in:Z'"):
            Netlist(("A",), (), "!in:Z")

    @pytest.mark.parametrize("tap", ["in:Z", "!in:Z", "Z", "g01"])
    def test_unknown_tap(self, tap):
        gates = (Gate(0, "OR", "in:A", "in:A"), Gate(1, "IAND", "g0", tap))
        with pytest.raises(ValueError, match=f"^spindiode: g1 reads '{tap}'"):
            Netlist(("A",), gates, "g1")


@st.composite
def _netlists(draw) -> Netlist:
    """Valid netlists over three inputs, gate values read any number of
    times (compiled netlists read each exactly once)."""
    names = ("A", "B", "C")
    refs = [f"{s}in:{x}" for x in names for s in ("", "!")]
    gates = []
    for k in range(draw(st.integers(0, 8))):
        a, b = draw(st.sampled_from(refs)), draw(st.sampled_from(refs))
        gates.append(Gate(k, draw(st.sampled_from(("OR", "IAND"))), a, b))
        refs.append(f"g{k}")
    return Netlist(names, tuple(gates), draw(st.sampled_from(refs)))


class TestMatchesRowwiseReference:
    """``simulate_netlist`` is the one-row case of the bit-parallel replay;
    it returns what the gate-by-gate reference returns."""

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(soi_exprs, soi_exprs_with_constants))
    def test_compiled_netlists_on_every_row(self, e):
        net = compile_soi(e, inputs=("A", "B", "C", "D"))
        for env in assignments(net.inputs):
            assert simulate_netlist(net, env) == reference_simulate_netlist(
                net, env
            )

    @settings(max_examples=150, deadline=None)
    @given(_netlists())
    def test_hand_written_netlists_on_every_row(self, net):
        for env in assignments(net.inputs):
            assert simulate_netlist(net, env) == reference_simulate_netlist(
                net, env
            )


class TestStatsMatchReference:
    """``netlist_stats`` reads the resolved value indices; it returns what
    the reference, which walks the reference strings, returns."""

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(soi_exprs, soi_exprs_with_constants))
    def test_compiled_netlists(self, e):
        net = compile_soi(e, inputs=("A", "B", "C", "D"))
        assert netlist_stats(net) == reference_netlist_stats(net)

    @settings(max_examples=150, deadline=None)
    @given(_netlists())
    def test_hand_written_netlists(self, net):
        assert netlist_stats(net) == reference_netlist_stats(net)

    @pytest.mark.parametrize(
        "inputs, gates, output, want",
        [
            # the output is an input tap, and the one gate goes unread
            (("A", "B"), (Gate(0, "OR", "in:A", "!in:B"),), "!in:B",
             {"gates": 1, "depth": 0, "iands": 0, "ors": 1}),
            # g1 reads g0 twice and is not read; the output is g0
            (("A",), (Gate(0, "IAND", "in:A", "!in:A"),
                      Gate(1, "OR", "g0", "g0")), "g0",
             {"gates": 2, "depth": 1, "iands": 1, "ors": 1}),
            (("A",), (), "in:A", {"gates": 0, "depth": 0, "iands": 0, "ors": 0}),
            # g1 reads g0 last and takes its slot, and g2 takes g1's
            (("A", "B"), (Gate(0, "IAND", "in:A", "in:B"),
                          Gate(1, "OR", "g0", "!in:B"),
                          Gate(2, "IAND", "g1", "in:A")), "g2",
             {"gates": 3, "depth": 3, "iands": 2, "ors": 1}),
        ],
    )
    def test_hand_built_netlists(self, inputs, gates, output, want):
        net = Netlist(inputs, gates, output)
        assert netlist_stats(net) == reference_netlist_stats(net) == want


def _flip_first_tap(from_plan):
    """A plan entry whose first gate reads the complement of the input tap
    it was given."""

    def corrupted(inputs, ops, out):
        is_or, a, b = ops[0]
        n = len(inputs)
        return from_plan(inputs, ((is_or, a, (b + n) % (2 * n)),) + ops[1:],
                         out)

    return corrupted


class TestOracleCatchesWrongNetlists:
    """``compile_soi`` replays its netlist over every row and checks it
    against its input: one corrupted tap is an ``AssertionError`` (CLI
    exit 3), with or without ``python -O``."""

    @pytest.fixture()
    def corrupt(self, monkeypatch):
        monkeypatch.setattr(spindiode, "_from_plan",
                            _flip_first_tap(spindiode._from_plan))

    @pytest.mark.parametrize("form", [minimized_soi, soi_from_tt])
    def test_compile_raises(self, corrupt, form):
        with pytest.raises(AssertionError, match="spindiode"):
            compile_soi(form(CARRY), inputs=CARRY.variables)

    def test_cli_exits_3(self, corrupt, capsys):
        assert main(["compile", "--target", "spindiode", "A @ B | C"]) == 3
        assert "internal error: AssertionError" in capsys.readouterr().err

    def test_fires_under_optimize_flag(self):
        script = textwrap.dedent(
            """
            import sys
            from asymlogic import spindiode
            from asymlogic.cli import main
            if __debug__:
                sys.exit(9)
            real = spindiode._from_plan
            def corrupted(inputs, ops, out):
                is_or, a, b = ops[0]
                n = len(inputs)
                head = (is_or, a, (b + n) % (2 * n))
                return real(inputs, (head,) + ops[1:], out)
            spindiode._from_plan = corrupted
            sys.exit(main(["compile", "--target", "spindiode", "A @ B"]))
            """
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 3, proc.stderr
        assert "internal error: AssertionError" in proc.stderr

    def test_no_check_beyond_the_table_cap(self):
        # 25 variables: nothing to tabulate, so the netlist is returned as is
        names = tuple(f"x{i}" for i in range(25))
        net = compile_soi(IandChain(tuple(map(Var, names))))
        assert netlist_stats(net)["gates"] == 24
        env = dict.fromkeys(names, 0) | {"x0": 1}
        assert simulate_netlist(net, env) == 1
