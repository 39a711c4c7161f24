"""Truth-table semantics, equivalence, and the two table-level duals."""

from __future__ import annotations

import random
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from asymlogic import semantics
from asymlogic.canon import literal_table, literals, noi_form, noi_term
from asymlogic.canon import soi_form, soi_term
from asymlogic.errors import CapacityError, EvaluationError
from asymlogic.expr import (
    And,
    Const,
    Expr,
    IandChain,
    ImplyChain,
    Not,
    Or,
    Var,
    variables,
)
from asymlogic.laws import simplify
from asymlogic.memristor import compile_noi
from asymlogic.semantics import (
    MAX_TABLE_VARS,
    TruthTable,
    check_oracle,
    classical_dual_tt,
    demorgan_dual_tt,
    equivalent,
    evaluate,
    row_assignment,
    truth_table,
)
from asymlogic.spindiode import compile_soi

from .helpers import (
    assignments,
    naive_classical_dual,
    naive_counterexample,
    naive_demorgan_dual,
    naive_eval,
    naive_table,
)
from .strategies import expressions, stacked_nots

A, B, C = Var("A"), Var("B"), Var("C")


class TestOperatorTables:
    def test_iand_table(self):
        assert truth_table(IandChain((A, B))).to_string() == "0010"

    def test_imply_table(self):
        assert truth_table(ImplyChain((A, B))).to_string() == "1101"

    def test_chain_pairing_left_and_right(self):
        # (A @ B) @ C and A -> (B -> C) are the chain meanings
        iand3 = IandChain((A, B, C))
        imply3 = ImplyChain((A, B, C))
        for env in assignments(("A", "B", "C")):
            ab = env["A"] & (1 - env["B"])
            assert evaluate(iand3, env) == ab & (1 - env["C"])
            bc = (1 - env["B"]) | env["C"]
            assert evaluate(imply3, env) == (1 - env["A"]) | bc

    @given(expressions(), st.integers(0, 15))
    def test_matches_naive_reference(self, e, seed):
        names = variables(e) or ("A",)
        env = {n: (seed >> i) & 1 for i, n in enumerate(names)}
        assert evaluate(e, env) == naive_eval(e, env)


class TestTruthTable:
    def test_row_assignment_msb_first(self):
        assert row_assignment(("A", "B", "C"), 4) == {"A": 1, "B": 0, "C": 0}
        assert row_assignment(("A", "B", "C"), 3) == {"A": 0, "B": 1, "C": 1}

    @pytest.mark.parametrize("row", [4, -1])
    def test_row_assignment_rejects_rows_out_of_range(self, row):
        # rows are 0 .. 2**n - 1; 4 would alias row 0 and -1 read all ones
        message = rf"row {row} is outside \[0, 2\*\*2\)"
        with pytest.raises(ValueError, match=message):
            row_assignment(("A", "B"), row)
        with pytest.raises(ValueError, match=message):
            TruthTable.from_string(("A", "B"), "0110").row_assignment(row)

    def test_default_variable_order_is_first_appearance(self):
        t = truth_table(Or((B, A)))
        assert t.variables == ("B", "A")

    def test_explicit_order_must_cover_variables(self):
        with pytest.raises(EvaluationError):
            truth_table(And((A, B)), ("A",))

    def test_explicit_order_can_add_variables(self):
        t = truth_table(A, ("A", "B"))
        assert t.to_string() == "0011"

    def test_unbound_variable(self):
        with pytest.raises(EvaluationError):
            evaluate(A, {})

    @pytest.mark.parametrize(
        "e, env",
        [
            (Not(A), {"A": 2}),
            (ImplyChain((A, B)), {"A": 0, "B": -1}),
            (And((A, B)), {"A": 1, "B": 3}),
        ],
    )
    def test_non_bit_value(self, e, env):
        with pytest.raises(EvaluationError, match="must be 0 or 1"):
            evaluate(e, env)

    @pytest.mark.parametrize("e", [A, Not(A)])
    def test_float_bit_is_rejected(self, e):
        with pytest.raises(EvaluationError, match="^semantics: 'A' must be"):
            evaluate(e, {"A": 1.0})

    def test_bool_bit_reads_as_int(self):
        for e, want in ((A, 1), (Not(A), 0), (IandChain((A, B)), 1)):
            got = evaluate(e, {"A": True, "B": False})
            assert got == want and type(got) is int

    def test_unread_variable_is_not_checked(self):
        assert evaluate(A, {"A": 1, "Z": 7}) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            TruthTable(("A",), (0,))  # wrong length
        with pytest.raises(ValueError):
            TruthTable(("A", "A"), (0, 0, 0, 0))  # duplicate names
        with pytest.raises(ValueError):
            TruthTable(("A",), (0, 2))  # non-bit
        with pytest.raises(CapacityError):
            TruthTable(tuple(f"v{i}" for i in range(25)), (0,) * (1 << 25))

    @pytest.mark.parametrize("name", ["1b", "a-b", "", "x y", 3])
    def test_names_that_are_not_names_are_rejected(self, name):
        # a table once held any string as a name, and the CLI's table
        # command printed it back as a header with exit 0
        builds = (
            lambda: TruthTable(("a", name), (0, 0, 0, 1)),
            lambda: TruthTable.from_mask(("a", name), 1),
            lambda: TruthTable.from_string(("a", name), "0001"),
            lambda: truth_table(A, ("A", name)),
        )
        for build in builds:
            with pytest.raises(ValueError, match="semantics: variable names"):
                build()

    def test_from_string_checks_the_order_once(self, monkeypatch):
        calls = []
        real = semantics._check_order

        def counting(names):
            calls.append(names)
            return real(names)

        monkeypatch.setattr(semantics, "_check_order", counting)
        assert TruthTable.from_string(("A", "B"), "0110").mask == 0b0110
        assert calls == [("A", "B")]

    def test_string_roundtrip(self):
        t = TruthTable.from_string(("A", "B"), "0110")
        assert t.bits == (0, 1, 1, 0)
        assert t.to_string() == "0110"
        assert t.row_assignment(2) == {"A": 1, "B": 0}

    @pytest.mark.parametrize("n", range(7))
    def test_mask_bits_and_string_agree(self, n):
        # bit r of the mask is row r; every constructor and view agrees
        rng = random.Random(n)
        names = tuple(f"v{i}" for i in range(n))
        for _ in range(20):
            bits = tuple(rng.randint(0, 1) for _ in range(1 << n))
            text = "".join(map(str, bits))
            t = TruthTable(names, bits)
            assert t == TruthTable.from_string(names, text)
            assert t.mask == sum(b << r for r, b in enumerate(bits))
            assert t == TruthTable.from_mask(names, t.mask)
            assert t.bits == bits and t.to_string() == text
            assert TruthTable(names, t.bits) == t

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            TruthTable.from_string(("A",), "011")  # wrong length
        with pytest.raises(ValueError):
            TruthTable.from_string(("A",), "0x")
        with pytest.raises(ValueError):
            TruthTable.from_mask(("A",), 0b100)  # a row past the table
        with pytest.raises(ValueError):
            TruthTable.from_mask(("A", "A"), 0)
        with pytest.raises(CapacityError):
            TruthTable.from_mask(tuple(f"v{i}" for i in range(25)), 0)
        with pytest.raises(ValueError):
            TruthTable(("A",), ("0", "1"))
        with pytest.raises(ValueError):
            TruthTable(("A",), (0, 256))
        # any value equal to 0 or 1 is a bit, as before the int storage
        assert TruthTable(("A",), (0.0, True)) == TruthTable(("A",), (0, 1))

    @given(expressions())
    def test_table_matches_naive_reference(self, e):
        names = variables(e)
        if not names:
            names = ("A",)
        assert truth_table(e, names).bits == naive_table(e, names)

    def test_long_and_nested_chains_match_naive_reference(self):
        # each chain folds with one complement; the reference pairs operands
        rng = random.Random(5)
        names = ("A", "B", "C", "D", "E", "F")

        def operand(depth: int) -> Expr:
            if depth and rng.random() < 0.3:
                return chain(depth - 1)
            leaf = rng.choice((*map(Var, names), Const(0), Const(1)))
            return Not(leaf) if rng.random() < 0.3 else leaf

        def chain(depth: int) -> Expr:
            ops = tuple(operand(depth) for _ in range(rng.randint(2, 12)))
            return rng.choice((IandChain, ImplyChain))(ops)

        for _ in range(60):
            e = chain(3)
            assert truth_table(e, names).bits == naive_table(e, names)


class TestEquivalence:
    def test_verdict_truthiness(self):
        assert equivalent(A, A)
        assert not equivalent(A, Not(A))

    def test_counterexample_is_lowest_index(self):
        X, Y = Var("X"), Var("Y")
        v = equivalent(IandChain((X, Y)), IandChain((Y, X)))
        assert not v.equal
        assert v.counterexample == {"X": 0, "Y": 1}

    def test_union_variable_order(self):
        v = equivalent(A, B)
        assert not v.equal
        assert list(v.counterexample) == ["A", "B"]

    def test_asymmetric_commutation_equivalence(self):
        assert equivalent(IandChain((A, B)), IandChain((Not(B), Not(A))))

    @given(expressions(), expressions())
    def test_counterexample_is_lowest_differing_row(self, e1, e2):
        v = equivalent(e1, e2)
        want = naive_counterexample(e1, e2)
        assert v.equal == (want is None)
        if want is not None:
            assert list(v.counterexample.items()) == list(want.items())


class TestOracle:
    """``check_oracle`` tabulates both sides, except for one object passed
    as both, which computes its own function."""

    @staticmethod
    def _count(monkeypatch) -> list:
        calls = []
        real = semantics._table_masks

        def counting(names, *exprs):
            calls.append(len(exprs))
            return real(names, *exprs)

        monkeypatch.setattr(semantics, "_table_masks", counting)
        return calls

    def test_one_object_is_not_evaluated(self, monkeypatch):
        calls = self._count(monkeypatch)
        e = IandChain((A, Not(B)))
        check_oracle(e, e, "same")
        assert calls == []
        check_oracle(e, IandChain((A, Not(B))), "equal")  # a copy is checked
        assert calls == [2]
        with pytest.raises(AssertionError, match="wrong"):
            check_oracle(e, Not(e), "wrong")

    def test_simplify_without_a_step_is_not_evaluated(self, monkeypatch):
        calls = self._count(monkeypatch)
        e = IandChain((A, B))
        assert simplify(e).expression is e
        assert calls == []
        simplify(IandChain((A, Const(0))))  # one step: A @ 0 => A
        assert calls == [2]


def _random_tables(seed: int):
    rng = random.Random(seed)
    for n in range(7):
        names = tuple(f"v{i}" for i in range(n))
        for _ in range(12):
            yield n, TruthTable(
                names, tuple(rng.randint(0, 1) for _ in range(1 << n))
            )


def test_duals_match_per_row_definitions():
    for n, t in _random_tables(7):
        assert classical_dual_tt(t).bits == naive_classical_dual(t.bits)
        assert demorgan_dual_tt(t).bits == naive_demorgan_dual(t.bits, n)


class TestTableCap:
    """Tabulation and equivalence at the 24-variable cap, in well under a
    second each."""

    NAMES = tuple(f"x{i}" for i in range(MAX_TABLE_VARS))

    def cubes(self) -> list[tuple[Expr, ...]]:
        # eight cubes told apart by x0..x2, so pairwise disjoint, with
        # three more literals each; together they use all 24 variables
        x = [Var(name) for name in self.NAMES]
        out = []
        for j in range(8):
            lits = [
                x[i] if (j >> (2 - i)) & 1 else Not(x[i]) for i in range(3)
            ]
            lits += [x[3 + 2 * j], Not(x[4 + 2 * j]), x[19 + j % 5]]
            out.append(tuple(lits))
        return out

    def test_soi_noi_and_planted_row(self):
        soi = Or(tuple(soi_term(c) for c in self.cubes()))
        noi = Not(And(tuple(noi_term(c) for c in self.cubes())))
        order = variables(soi)
        assert sorted(order) == sorted(self.NAMES)

        t = truth_table(soi, self.NAMES)
        assert t.mask.bit_count() == 8 << (MAX_TABLE_VARS - 6)
        rng = random.Random(24)
        rows = [rng.randrange(1 << 24) for _ in range(64)]
        for r in [0, (1 << 24) - 1, *rows]:
            env = row_assignment(self.NAMES, r)
            assert (t.mask >> r) & 1 == naive_eval(soi, env)

        assert equivalent(soi, noi)
        assert equivalent(noi, soi)

        planted = {name: rng.randint(0, 1) for name in order}
        minterm = And(
            tuple(Var(n) if v else Not(Var(n)) for n, v in planted.items())
        )
        flipped = Or((And((soi, Not(minterm))), And((Not(soi), minterm))))
        v = equivalent(soi, flipped)
        assert not v.equal
        assert list(v.counterexample.items()) == list(planted.items())

    def test_one_cap_for_tables_and_equivalence(self):
        # equivalence once raised its own wording of the cap
        x = [Var(f"x{i}") for i in range(MAX_TABLE_VARS + 1)]
        message = (
            f"semantics: truth tables support at most {MAX_TABLE_VARS} "
            f"variables, got {MAX_TABLE_VARS + 1}"
        )
        with pytest.raises(CapacityError) as table:
            truth_table(And(tuple(x)))
        with pytest.raises(CapacityError) as verdict:
            equivalent(And(tuple(x[:13])), And(tuple(x[13:])))
        assert str(table.value) == str(verdict.value) == message


class TestClassicalDual:
    def test_and_or_swap(self):
        t_and = truth_table(And((A, B)))
        t_or = truth_table(Or((A, B)))
        assert classical_dual_tt(t_and).bits == t_or.bits
        assert classical_dual_tt(t_or).bits == t_and.bits

    @given(expressions())
    def test_involution(self, e):
        t = truth_table(e, variables(e) or ("A",))
        assert classical_dual_tt(classical_dual_tt(t)).bits == t.bits

    @given(expressions())
    def test_defining_property(self, e):
        # dual(f)(x) = NOT f(NOT x)
        names = variables(e) or ("A",)
        t = truth_table(e, names)
        d = classical_dual_tt(t)
        top = (1 << len(names)) - 1
        for r in range(len(t.bits)):
            assert d.bits[r] == 1 - t.bits[top ^ r]


class TestDemorganDual:
    def test_iand_maps_to_imply(self):
        t = demorgan_dual_tt(truth_table(IandChain((A, B))))
        assert t.bits == truth_table(ImplyChain((A, B))).bits

    def test_imply_maps_to_iand(self):
        t = demorgan_dual_tt(truth_table(ImplyChain((A, B))))
        assert t.bits == truth_table(IandChain((A, B))).bits

    @given(expressions())
    def test_involution(self, e):
        t = truth_table(e, variables(e) or ("A",))
        assert demorgan_dual_tt(demorgan_dual_tt(t)).bits == t.bits

    @given(
        st.permutations(("A", "B", "C", "D")),
        st.integers(2, 4),
        st.booleans(),
    )
    def test_chain_operand_preserving_swap(self, names, arity, start_iand):
        # For a chain over distinct plain variables (in table order), the
        # De Morgan dual of its table is the OTHER chain on the same
        # operands.  Mixed or repeated literals break the alignment between
        # operand positions and table columns, so they are out of scope.
        ops = tuple(Var(n) for n in names[:arity])
        chain = IandChain(ops) if start_iand else ImplyChain(ops)
        swapped = ImplyChain(ops) if start_iand else IandChain(ops)
        t = truth_table(chain)
        assert demorgan_dual_tt(t).bits == truth_table(swapped).bits

    def test_constant_tables(self):
        t0 = truth_table(Const(0), ("A",))
        assert demorgan_dual_tt(t0).bits == (1, 1)
        assert classical_dual_tt(t0).bits == (1, 1)


class TestNegatedNames:
    """A negated name reads its complement from the rails: the shapes the
    two-level workloads never build."""

    def test_one_not_shared_across_operands(self):
        na = Not(A)
        e = Or((And((na, B)), IandChain((C, na)), ImplyChain((na, na, C))))
        assert truth_table(e).bits == naive_table(e)
        assert equivalent(e, Or((And((Not(A), B)), IandChain((C, Not(A))),
                                 ImplyChain((Not(A), Not(A), C)))))
        assert equivalent(IandChain((na, B)), And((na, Not(B))))

    @pytest.mark.parametrize("e", [
        Not(A), And((B, Not(A))), Not(Not(A)), IandChain((B, Not(A))),
    ])
    def test_unbound_negated_name(self, e):
        with pytest.raises(EvaluationError) as exc:
            evaluate(e, {"B": 1})
        assert str(exc.value) == "semantics: unbound variable 'A'"

    @given(stacked_nots(expressions()), st.integers(0, 15))
    def test_evaluate_matches_naive_reference(self, e, seed):
        env = {n: (seed >> i) & 1 for i, n in enumerate("ABCD")}
        assert evaluate(e, env) == naive_eval(e, env)


def _two_level_pair(n: int) -> tuple[Expr, Expr]:
    """A seeded SOI over ``n`` variables and the NOI of the same cubes."""
    rng = random.Random(n)
    table = literal_table(tuple(f"x{i}" for i in range(n)))
    products = tuple(
        literals(table, rng.getrandbits(n),
                 sum(1 << b for b in rng.sample(range(n), 3)))
        for _ in range(2 * n)
    )
    return soi_form(products), noi_form(products)


class TestRails:
    """Each width's columns, complements and all-ones mask are built once
    and kept up to 16 variables; wider ones are freed after each call."""

    def test_one_compile_pair_builds_the_columns_once(self, monkeypatch):
        calls = []
        real = semantics.columns

        def counting(n):
            calls.append(n)
            return real(n)

        monkeypatch.setattr(semantics, "_RAILS", {})
        monkeypatch.setattr(semantics, "columns", counting)
        soi, noi = _two_level_pair(10)
        compile_soi(soi)
        compile_noi(noi)
        assert calls == [10]

    def test_cached_rails_are_tuples(self):
        cols, comps, full = semantics._rails(5)
        assert type(cols) is tuple and type(comps) is tuple
        assert cols == tuple(semantics.columns(5))
        assert comps == tuple(full ^ c for c in cols)
        assert full == (1 << 32) - 1
        assert semantics._rails(5)[0] is cols

    def test_only_tables_up_to_16_variables_are_kept(self, monkeypatch):
        monkeypatch.setattr(semantics, "_RAILS", {})
        for n in (16, 17):
            semantics._rails(n)
        assert list(semantics._RAILS) == [16]

    def test_wider_tables_build_no_complements(self):
        # past the cache a negated name XORs its own complement
        cols, comps, full = semantics._rails(17)
        assert comps is None
        assert cols == tuple(semantics.columns(17))
        x = [Var(f"x{i}") for i in range(17)]
        t = truth_table(And((Not(x[0]), *x[1:])))
        assert t.mask == 1 << ((1 << 16) - 1)

    def test_equivalence_at_20_variables_keeps_no_memory(self):
        soi, noi = _two_level_pair(20)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            assert equivalent(soi, noi)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown < 1 << 20

    def test_import_builds_no_rails(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import asymlogic.semantics as s; print(s._RAILS)"],
            capture_output=True, text=True, check=True,
        )
        assert proc.stdout == "{}\n"
