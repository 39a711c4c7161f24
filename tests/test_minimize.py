"""Prime implicants, exact covers, and minimized chain forms."""

from __future__ import annotations

import dataclasses
import random
import subprocess
import sys
import textwrap
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asymlogic import minimize
from asymlogic.cli import main
from asymlogic.errors import CapacityError
from asymlogic.expr import Const, Not, Var, format_expr
from asymlogic.minimize import (
    Cube,
    cover_form,
    cover_text,
    minimize_table,
    minimized_noi,
    minimized_soi,
    minimum_cover,
    prime_implicants,
)
from asymlogic.semantics import TruthTable, truth_table

from .helpers import reference_minimum_cover

CARRY = TruthTable(("A", "B", "C"), (0, 0, 0, 1, 0, 1, 1, 1))
SUM3 = TruthTable(("A", "B", "C"), (0, 1, 1, 0, 1, 0, 0, 1))


class TestCube:
    def test_validation(self):
        with pytest.raises(ValueError):
            Cube("")
        with pytest.raises(ValueError):
            Cube("10x")

    def test_covers_msb_first(self):
        assert Cube("1-1").covers(0b101)
        assert Cube("1-1").covers(0b111)
        assert not Cube("1-1").covers(0b100)

    def test_literal_count(self):
        assert Cube("--").literal_count == 0
        assert Cube("1-0").literal_count == 2

    def test_sort_key_orders_by_encoding(self):
        cubes = [Cube("11-"), Cube("-11"), Cube("1-1")]
        cubes.sort(key=Cube.sort_key)
        assert [q.trits for q in cubes] == ["-11", "1-1", "11-"]

    def test_literals_in_variable_order(self):
        lits = Cube("1-0").literals(("A", "B", "C"))
        assert lits == (Var("A"), Not(Var("C")))


class TestPrimeImplicants:
    def test_carry_primes(self):
        primes = prime_implicants([3, 5, 6, 7], (), 3, ("A", "B", "C"))
        assert [q.trits for q in primes.cubes] == ["-11", "1-1", "11-"]

    def test_isolated_minterms_stay_full(self):
        primes = prime_implicants([1, 2, 4, 7], (), 3)
        assert [q.trits for q in primes.cubes] == ["001", "010", "100", "111"]

    def test_dont_cares_enlarge_cubes(self):
        # ON={01}, DC={11}: together they merge into the cube -1
        primes = prime_implicants([1], [3], 2)
        assert [q.trits for q in primes.cubes] == ["-1"]

    def test_dc_only_cubes_dropped(self):
        # the pair {2,3} merges to 1- but covers no ON row
        primes = prime_implicants([0], [2, 3], 2)
        assert all(any(q.covers(r) for r in [0]) for q in primes.cubes)

    def test_default_variable_names(self):
        primes = prime_implicants([0], (), 2)
        assert primes.variables == ("x0", "x1")

    def test_errors(self):
        with pytest.raises(CapacityError):
            prime_implicants([0], (), 13)
        with pytest.raises(ValueError):
            prime_implicants([4], (), 2)
        with pytest.raises(ValueError):
            prime_implicants([1], [1], 2)
        with pytest.raises(ValueError):
            prime_implicants([0], (), 2, ("A",))


class TestMinimumCover:
    def test_carry_cover_is_all_essentials(self):
        primes, cover = minimize_table(CARRY)
        assert [q.trits for q in cover.cubes] == ["-11", "1-1", "11-"]
        assert cover.cost == 6
        assert all(line.startswith("essential") for line in cover.trace)

    def test_cyclic_cover_uses_branching(self):
        # ON = {0,1,2,5,6,7}: six 2-literal primes, none essential
        t = TruthTable(("A", "B", "C"), (1, 1, 1, 0, 0, 1, 1, 1))
        primes, cover = minimize_table(t)
        assert len(primes.cubes) == 6
        assert len(cover.cubes) == 3 and cover.cost == 6
        assert all(line.startswith("selected") for line in cover.trace)
        assert truth_table(minimized_soi(t), t.variables).bits == t.bits

    def test_uncoverable_row_raises(self):
        primes = prime_implicants([0], (), 2)
        with pytest.raises(ValueError):
            minimum_cover(primes, [0, 3])

    def test_degenerate_constant_one(self):
        t = TruthTable(("A", "B"), (1, 1, 1, 1))
        _, cover = minimize_table(t)
        assert [q.trits for q in cover.cubes] == ["--"]
        assert any("degenerate" in line for line in cover.trace)

    def test_constant_zero(self):
        t = TruthTable(("A", "B"), (0, 0, 0, 0))
        primes, cover = minimize_table(t)
        assert cover.cubes == () and cover.cost == 0


# not-all-equal over five variables: a cyclic core with no essential prime,
# and the hardest cover of the synth benchmark on seeds 1-10 (11 577 nodes)
NAE5 = TruthTable.from_mask(tuple("ABCDE"), (1 << 32) - 1 - 1 - (1 << 31))


class TestCoverBudget:
    def test_hardest_benchmark_cover_is_far_inside_the_budget(self):
        _, cover = minimize_table(NAE5)
        assert len(cover.cubes) == 5 and cover.cost == 10
        assert minimize.MAX_COVER_NODES >= 10 * 11_577

    def test_exhausted_budget_raises(self, monkeypatch):
        monkeypatch.setattr(minimize, "MAX_COVER_NODES", 11_576)
        with pytest.raises(CapacityError, match="budget of 11576 nodes"):
            minimize_table(NAE5)
        monkeypatch.setattr(minimize, "MAX_COVER_NODES", 11_577)
        minimize_table(NAE5)

    def test_random_seven_variable_table_fails_cleanly(self, tmp_path, capsys):
        # a uniformly random 7-variable table whose cover search ran for
        # about a minute unbudgeted; it now stops a few seconds in
        bits = (
            "0011001100111000100001011111101000101111111010101001100110101001"
            "1100011100100000111001110111101101111101101001111110001111101011"
        )
        path = tmp_path / "random7.txt"
        path.write_text(f"a b c d e f g\n{bits}\n")
        argv = ["minimize", "--form", "noi", "--table-file", str(path)]
        assert main(argv) == 2
        assert "cover search passed its budget" in capsys.readouterr().err

    def test_random_twelve_variable_table_fails_cleanly(
        self, tmp_path, capsys
    ):
        # at the minimization cap the search selects hundreds of cubes on
        # one path; it must run out of budget, not out of stack
        rng = random.Random(12)
        bits = "".join(rng.choice("01") for _ in range(1 << 12))
        names = " ".join(f"x{i}" for i in range(12))
        path = tmp_path / "random12.txt"
        path.write_text(f"{names}\n{bits}\n")
        argv = ["minimize", "--form", "noi", "--table-file", str(path)]
        assert main(argv) == 2
        assert "cover search passed its budget" in capsys.readouterr().err


def _cube_list_onset(rng: random.Random, n: int) -> list[int]:
    rows: set[int] = set()
    for _ in range(rng.randint(2, 6)):
        care = rng.sample(range(n), rng.randint(1, 4))
        fixed = {i: rng.randint(0, 1) for i in care}
        rows |= {
            r for r in range(1 << n)
            if all((r >> (n - 1 - i)) & 1 == v for i, v in fixed.items())
        }
    return sorted(rows)


class TestCoverMatchesReference:
    """The bit-mask search against the row-set search it replaced: same
    cubes, same cost, same trace."""

    def test_all_three_variable_functions(self):
        for value in range(1, 256):
            ons = [r for r in range(8) if (value >> r) & 1]
            primes = prime_implicants(ons, (), 3, ("A", "B", "C"))
            assert minimum_cover(primes, ons) == reference_minimum_cover(
                primes, ons
            )

    @pytest.mark.parametrize("n", [5, 6])
    def test_seeded_tables(self, n):
        rng = random.Random(n)
        branched = 0
        for k in range(40):
            if k % 2:
                density = 0.5 if n == 5 else 0.3
                ons = [r for r in range(1 << n) if rng.random() < density]
            else:
                ons = _cube_list_onset(rng, n)
            primes = prime_implicants(ons, (), n)
            cover = minimum_cover(primes, ons)
            assert cover == reference_minimum_cover(primes, ons)
            branched += any(s.startswith("selected") for s in cover.trace)
        assert branched  # the branch and bound ran, not only essentials

    def test_uncoverable_row_message(self):
        primes = prime_implicants([0, 1], (), 3)
        with pytest.raises(ValueError) as want:
            reference_minimum_cover(primes, [0, 1, 5, 6])
        with pytest.raises(ValueError) as got:
            minimum_cover(primes, [0, 1, 5, 6])
        assert str(got.value) == str(want.value)


class TestOracleAlwaysOn:
    """A broken cover is caught at every size up to the table cap, with or
    without ``python -O``."""

    NAMES = tuple("ABCDEFGHIJK")  # 11 variables

    @pytest.fixture()
    def drop_a_cube(self, monkeypatch):
        real = minimize.minimum_cover

        def dropping(primes, onset):
            cover = real(primes, onset)
            return dataclasses.replace(cover, cubes=cover.cubes[1:])

        monkeypatch.setattr(minimize, "minimum_cover", dropping)

    def table(self) -> TruthTable:
        # rows 0, 1 and 2047: the cubes 0000000000- and 11111111111
        return TruthTable.from_mask(self.NAMES, 0b11 | 1 << 2047)

    @pytest.mark.parametrize("emit", [minimized_soi, minimized_noi])
    def test_dropped_cube_is_an_error(self, drop_a_cube, emit):
        with pytest.raises(AssertionError, match="minimize"):
            emit(self.table())

    def test_fires_under_optimize_flag(self, tmp_path):
        path = tmp_path / "eleven.tbl"
        path.write_text(
            " ".join(self.NAMES) + "\n" + self.table().to_string() + "\n"
        )
        script = textwrap.dedent(
            """
            import dataclasses, sys
            from asymlogic import minimize
            from asymlogic.cli import main
            if __debug__:
                sys.exit(9)
            real = minimize.minimum_cover
            def dropping(primes, onset):
                cover = real(primes, onset)
                return dataclasses.replace(cover, cubes=cover.cubes[1:])
            minimize.minimum_cover = dropping
            argv = ["minimize", "--form", "noi", "--table-file", sys.argv[1]]
            sys.exit(main(argv))
            """
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script, str(path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 3, proc.stderr
        assert "internal error: AssertionError" in proc.stderr


class TestMinimizedForms:
    def test_carry_noi_terms(self):
        noi = minimized_noi(CARRY)
        assert format_expr(noi) == "!((B -> !C) & (A -> !C) & (A -> !B))"

    def test_carry_soi_terms(self):
        soi = minimized_soi(CARRY)
        assert format_expr(soi) == "B @ !C | A @ !C | A @ !B"

    def test_sum_keeps_four_full_terms(self):
        noi = minimized_noi(SUM3)
        assert len(noi.child.children) == 4
        assert truth_table(noi, SUM3.variables).bits == SUM3.bits

    def test_constants(self):
        assert minimized_soi(TruthTable(("A",), (0, 0))) == Const(0)
        assert minimized_noi(TruthTable(("A",), (0, 0))) == Const(0)
        assert minimized_soi(TruthTable(("A",), (1, 1))) == Const(1)
        assert minimized_noi(TruthTable(("A",), (1, 1))) == Const(1)

    def test_single_cube_single_literal(self):
        # f = NOT A over (A, B) minimizes to the cube 0-
        t = TruthTable(("A", "B"), (1, 1, 0, 0))
        assert minimized_soi(t) == Not(Var("A"))
        assert minimized_noi(t) == Not(Var("A"))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_exhaustive_oracle(self, n):
        names = tuple("ABCD"[:n])
        for bits in product((0, 1), repeat=1 << n):
            t = TruthTable(names, bits)
            assert truth_table(minimized_soi(t), names).bits == bits
            assert truth_table(minimized_noi(t), names).bits == bits

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, (1 << 16) - 1))
    def test_four_variable_tables(self, value):
        bits = tuple((value >> i) & 1 for i in range(16))
        t = TruthTable(("A", "B", "C", "D"), bits)
        assert truth_table(minimized_soi(t), t.variables).bits == bits
        assert truth_table(minimized_noi(t), t.variables).bits == bits


class TestCoverForm:
    def test_matches_minimized_forms(self):
        _, cover = minimize_table(CARRY)
        assert cover_form(CARRY, cover, "soi") == minimized_soi(CARRY)
        assert cover_form(CARRY, cover, "noi") == minimized_noi(CARRY)


class TestCoverText:
    def test_format(self):
        primes, cover = minimize_table(CARRY)
        assert cover_text(primes, cover) == "A B C\n-11\n1-1\n11-\n"
