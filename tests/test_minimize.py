"""Prime implicants, exact covers, and minimized chain forms."""

from __future__ import annotations

import copy
import dataclasses
import json
import pickle
import random
import re
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
    CoverSolution,
    Cube,
    PrimeImplicantSet,
    cover_form,
    cover_text,
    minimize_table,
    minimized_noi,
    minimized_soi,
    minimum_cover,
    prime_implicants,
)
from asymlogic.semantics import TruthTable, columns, rows_of, truth_table

from .helpers import (
    reference_minimum_cover,
    reference_prime_implicants,
    reference_products,
    reference_sort_key,
    shared_literals,
)

CARRY = TruthTable(("A", "B", "C"), (0, 0, 0, 1, 0, 1, 1, 1))
SUM3 = TruthTable(("A", "B", "C"), (0, 1, 1, 0, 1, 0, 0, 1))
NAMES3 = ("A", "B", "C")


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

    @pytest.mark.parametrize("row", [8, -1])
    def test_covers_rejects_rows_outside_the_table(self, row):
        # a row past the width once answered from its low bits alone
        with pytest.raises(ValueError, match=re.escape(
            f"minimize: row {row} is outside [0, 2**3)"
        )):
            Cube("1-0").covers(row)
        assert Cube("1-0").covers(0b110) and not Cube("1-0").covers(0b111)

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

    def test_ints_msb_first(self):
        q = Cube("1-0")
        assert (q.value, q.care, q.width) == (0b100, 0b101, 3)
        assert repr(q) == "Cube(trits='1-0')"
        assert Cube(trits="1-0") == q and q.sort_key() == (0b100, 0b101)

    def test_round_trip_and_order_over_all_five_variable_cubes(self):
        cubes = [Cube("".join(t)) for t in product("01-", repeat=5)]
        assert len(cubes) == 243
        for q, t in zip(cubes, product("01-", repeat=5)):
            assert q.trits == "".join(t)
            assert q.value & ~q.care == 0
            assert Cube(q.trits) == q
            assert q.literal_count == 5 - t.count("-")
            assert [r for r in range(32) if q.covers(r)] == [
                r for r in range(32)
                if all(c == "-" or int(c) == (r >> (4 - i)) & 1
                       for i, c in enumerate(t))
            ]
        assert sorted(cubes, key=Cube.sort_key) == sorted(
            cubes, key=reference_sort_key
        )

    def test_duplicate_variable_names_are_rejected(self):
        # ("A", "A") once gave the contradictory products (!A, A), (A, !A)
        with pytest.raises(ValueError, match="duplicate variable names"):
            prime_implicants([1, 2], n=2, variables=("A", "A"))
        with pytest.raises(ValueError, match="duplicate variable names"):
            PrimeImplicantSet(("A", "B", "A"), ())
        assert PrimeImplicantSet(("A", "B"), (Cube("1-"),)).variables == (
            "A", "B"
        )

    @pytest.mark.parametrize("name", ["1x", "a-b", "", "x y", 3])
    def test_names_that_are_not_names_are_rejected(self, name):
        # prime_implicants once returned a set over "1x", and the error
        # surfaced only when a product built Var("1x")
        want = "minimize: variable names are letters"
        with pytest.raises(ValueError, match=want):
            prime_implicants([1], n=1, variables=(name,))
        with pytest.raises(ValueError, match=want):
            PrimeImplicantSet(("A", name), ())

    @pytest.mark.parametrize("argv", [
        ["minimize", "--form", "soi"],
        ["minimize", "--form", "noi"],
        ["compile", "--target", "memristor"],
        ["compile", "--target", "spindiode"],
        ["table"],
        ["canon", "--form", "soi"],
    ])
    @pytest.mark.parametrize("bits", ["01", "00"])
    def test_cli_rejects_a_bad_header(self, tmp_path, capsys, argv, bits):
        # the all-zero table once compiled to a netlist with input "1x",
        # and table and canon once echoed the header with exit 0; the
        # table file's reader refuses it for every command
        path = tmp_path / "bad.tbl"
        path.write_text(f"1x\n{bits}\n")
        assert main([*argv, "--table-file", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: semantics: variable names are letters")

    @pytest.mark.parametrize("argv", [["table"], ["canon", "--form", "noi"]])
    def test_cli_rejects_a_bad_vars_order(self, capsys, argv):
        # table once printed the header "a 1b" with exit 0
        assert main([*argv, "a", "--vars", "a,1b"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: semantics: variable names are letters")

    def test_wrong_width_is_rejected(self):
        # a narrow cube once "covered" rows of a wider table, and a wide
        # one rows of a narrower table, by zipping over the mismatch
        with pytest.raises(ValueError, match="cube 1 has 1 trits for 2"):
            PrimeImplicantSet(("A", "B"), (Cube("1"),))
        with pytest.raises(ValueError, match="cube 11 has 2 trits for 1"):
            PrimeImplicantSet(("A",), (Cube("11"),))
        with pytest.raises(ValueError, match="cube 1-0 has 3 trits for 2"):
            Cube("1-0").literals(("A", "B"))


def _seeded_prime_covers():
    """Seeded uniformly random 5- to 8-variable tables, each with all of
    its primes as one cover: an exact cover of such an 8-variable table
    may pass the search budget, and ``products`` reads only cubes."""
    rng = random.Random(5)
    for n in (5, 6, 7, 8):
        for _ in range(3):
            names = tuple(rng.sample([f"v{i}" for i in range(12)], n))
            mask = rng.getrandbits(1 << n)
            primes = prime_implicants(rows_of(mask), n=n, variables=names)
            cost = sum(q.literal_count for q in primes.cubes)
            yield names, CoverSolution(primes.cubes, cost, ())


class TestProducts:
    """``CoverSolution.products`` picks every literal from one table per
    call: equal to building each literal anew, one node per literal."""

    COVERS3 = [
        (NAMES3, minimize_table(TruthTable.from_mask(NAMES3, m))[1])
        for m in range(256)
    ]

    @pytest.mark.parametrize("covers", [COVERS3, list(_seeded_prime_covers())],
                             ids=["all3", "primes5-8"])
    def test_equals_the_per_literal_construction(self, covers):
        for names, cover in covers:
            products = cover.products(names)
            assert products == reference_products(cover, names), cover
            shared_literals(products)
        # some covers read every variable in both polarities
        assert any(len(shared_literals(c.products(n))) == 2 * len(n)
                   for n, c in covers)

    def test_one_node_per_literal_across_products(self):
        # three cubes read A and !A; all three share one node of each,
        # and the Not holds the Var the plain literal is
        cover = CoverSolution((Cube("1-0"), Cube("01-"), Cube("1-1")), 6, ())
        p = cover.products(NAMES3)
        assert p[0][0] is p[2][0] and p[0][0] == Var("A")
        assert p[1][0] == Not(Var("A")) and p[1][0].child is p[0][0]
        assert p[0][1] == Not(Var("C")) and p[0][1].child is p[2][1]

    def test_checks_stay(self):
        with pytest.raises(ValueError, match="cube 1-0 has 3 trits for 2"):
            CoverSolution((Cube("1-0"),), 2, ()).products(("A", "B"))
        with pytest.raises(ValueError, match="expr: variable names are"):
            CoverSolution((Cube("1"),), 1, ()).products(("1x",))
        assert CoverSolution((), 0, ()).products(NAMES3) == ()


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


def _threshold(n: int, k: int) -> list[int]:
    """The rows with at least ``k`` ones among ``n`` variables."""
    return [r for r in range(1 << n) if r.bit_count() >= k]


def _random_cubes(rng: random.Random, n: int, count: int) -> list[int]:
    """The rows of ``count`` random cubes with 3 to ``n - 3`` literals."""
    rows: set[int] = set()
    for _ in range(count):
        care = rng.sample(range(n), rng.randint(3, n - 3))
        fixed = {i: rng.randint(0, 1) for i in care}
        rows |= {
            r for r in range(1 << n)
            if all((r >> (n - 1 - i)) & 1 == v for i, v in fixed.items())
        }
    return sorted(rows)


class TestPrimesMatchReference:
    """The implicant masks against the pairwise merge they replaced: the
    same cubes in the same order."""

    @staticmethod
    def same(ons, dcs, n):
        got = prime_implicants(ons, dcs, n)
        want = reference_prime_implicants(ons, dcs, n)
        assert [q.trits for q in got.cubes] == [q.trits for q in want.cubes]
        assert got == want

    def test_every_three_variable_on_dc_off_assignment(self):
        for kinds in product("01-", repeat=8):
            ons = [r for r, k in enumerate(kinds) if k == "1"]
            dcs = [r for r, k in enumerate(kinds) if k == "-"]
            self.same(ons, dcs, 3)

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 9, 10, 12])
    def test_seeded_tables(self, n):
        # up to the minimize cap; there only the half-density table (k = 1),
        # as the reference takes 0.4 s on it and 4 s on the cube list
        rng = random.Random(100 + n)
        for k in range(n == 12, 12 if n < 8 else 4 if n == 8 else 2):
            rows = list(range(1 << n))
            if k % 2:
                ons = [r for r in rows if rng.random() < 0.5]
            else:
                ons = _cube_list_onset(rng, n)
            dcs = []
            if k % 4 >= 2:  # some don't-cares among the OFF rows
                dcs = [r for r in sorted(set(rows) - set(ons))
                       if rng.random() < 0.25]
            self.same(ons, dcs, n)

    @pytest.mark.parametrize("k", [2, 5])  # threshold-2 and majority
    def test_eight_variable_threshold_functions(self, k):
        self.same(_threshold(8, k), (), 8)


TWELVE = tuple(f"x{i}" for i in range(12))


class TestTwelveVariableCap:
    """The advertised minimization cap is reachable."""

    def test_threshold_two(self):
        t = TruthTable.from_mask(TWELVE, sum(1 << r for r in _threshold(12, 2)))
        primes, cover = minimize_table(t)
        assert len(primes.cubes) == len(cover.cubes) == 66
        assert cover.cost == 132
        assert all(line.startswith("essential") for line in cover.trace)

    def test_majority(self):
        t = TruthTable.from_mask(TWELVE, sum(1 << r for r in _threshold(12, 7)))
        primes, cover = minimize_table(t)
        assert len(primes.cubes) == len(cover.cubes) == 792
        assert cover.cost == 792 * 7

    def test_random_cubes_give_exactly_the_primes(self):
        # checked with masks built here from the variable columns
        rng = random.Random(24)
        ons = _random_cubes(rng, 12, 24)
        dcs = [r for r in range(1 << 12)
               if r not in set(ons) and rng.random() < 0.05]
        on = sum(1 << r for r in ons)
        allowed = on | sum(1 << r for r in dcs)
        cols = columns(12)
        top = (1 << (1 << 12)) - 1

        def rows(q: Cube, skip: int = -1) -> int:
            m = top
            for i, c in enumerate(q.trits):
                if c != "-" and i != skip:
                    m &= cols[i] if c == "1" else top ^ cols[i]
            return m

        primes = prime_implicants(ons, dcs, 12, TWELVE)
        assert len(primes.cubes) > 24
        covered = 0
        for q in primes.cubes:
            m = rows(q)
            assert m & ~allowed == 0  # an implicant
            assert m & on  # not only don't-cares
            for i, c in enumerate(q.trits):  # prime: no literal is spare
                if c != "-":
                    assert rows(q, skip=i) & ~allowed
            covered |= m
        assert on & ~covered == 0

    def test_cli_minimize_exits_zero(self, tmp_path, capsys):
        t = TruthTable.from_mask(TWELVE, sum(1 << r for r in _threshold(12, 2)))
        path = tmp_path / "threshold2.txt"
        path.write_text(" ".join(TWELVE) + "\n" + t.to_string() + "\n")
        argv = ["minimize", "--form", "soi", "--table-file", str(path)]
        assert main(argv) == 0
        assert capsys.readouterr().out.count("|") == 65


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

    @pytest.mark.parametrize("t", [
        CARRY,  # essentials
        TruthTable(NAMES3, (1, 1, 1, 0, 0, 1, 1, 1)),  # selected
        TruthTable(("A",), (1, 1)),  # degenerate
        TruthTable(("A",), (0, 0)),  # constant 0, built by the constructor
    ])
    def test_deferred_trace_behaves_as_constructed(self, t):
        # a cover from the search words its trace on first read; unread, it
        # equals, hashes, prints and copies as the constructor's cover
        read = minimize_table(t)[1]
        built = CoverSolution(read.cubes, read.cost, read.trace)
        assert minimize_table(t)[1] == built
        assert hash(minimize_table(t)[1]) == hash(built)
        assert repr(minimize_table(t)[1]) == repr(built)
        assert copy.deepcopy(minimize_table(t)[1]) == built
        assert pickle.loads(pickle.dumps(minimize_table(t)[1])) == built
        cover = minimize_table(t)[1]
        assert cover.trace is cover.trace
        with pytest.raises(AttributeError, match="'traces'"):
            cover.traces

    def test_uncoverable_row_raises(self):
        primes = prime_implicants([0], (), 2)
        with pytest.raises(ValueError):
            minimum_cover(primes, [0, 3])

    @pytest.mark.parametrize("row", [-1, 4, 9])
    def test_out_of_range_row_raises(self, row):
        primes = prime_implicants([1, 2], n=2)
        with pytest.raises(
            ValueError, match=f"ON row {row} out of range for n=2"
        ):
            minimum_cover(primes, [row])

    def test_degenerate_constant_one(self):
        t = TruthTable(("A", "B"), (1, 1, 1, 1))
        _, cover = minimize_table(t)
        assert [q.trits for q in cover.cubes] == ["--"]
        assert any("degenerate" in line for line in cover.trace)

    def test_constant_zero(self):
        t = TruthTable(("A", "B"), (0, 0, 0, 0))
        primes, cover = minimize_table(t)
        assert cover.cubes == () and cover.cost == 0

    def test_constant_one_over_no_variables(self):
        # the one row is 1: the all-dash cube over no variables, as over A
        primes, cover = minimize_table(TruthTable((), (1,)))
        assert [q.trits for q in cover.cubes] == [""] and cover.cost == 0
        assert primes.cubes == cover.cubes
        assert any("degenerate" in line for line in cover.trace)
        assert minimize_table(TruthTable((), (0,)))[1].cubes == ()
        with pytest.raises(ValueError, match="need n >= 1"):
            prime_implicants([0], (), 0)


# not-all-equal over five variables: a cyclic core with no essential prime,
# and the hardest cover of the synth benchmark on seeds 1-10 (3 703 budget
# units: 1 241 nodes, 1 350 rows visited by the bound, 1 112 sorted cubes)
NAE5 = TruthTable.from_mask(tuple("ABCDE"), (1 << 32) - 1 - 1 - (1 << 31))


def _random_table_file(tmp_path, n: int, seed: int):
    """A table file of ``n`` variables with seeded uniformly random rows."""
    rng = random.Random(seed)
    bits = "".join(rng.choice("01") for _ in range(1 << n))
    names = " ".join(f"x{i}" for i in range(n))
    path = tmp_path / f"random{n}.txt"
    path.write_text(f"{names}\n{bits}\n")
    return path


class TestCoverBudget:
    def test_hardest_benchmark_cover_is_far_inside_the_budget(self):
        _, cover = minimize_table(NAE5)
        assert len(cover.cubes) == 5 and cover.cost == 10
        assert minimize.MAX_COVER_NODES >= 10 * 3_703

    def test_exhausted_budget_raises(self, monkeypatch):
        monkeypatch.setattr(minimize, "MAX_COVER_NODES", 3_702)
        with pytest.raises(CapacityError, match="budget of 3702 nodes"):
            minimize_table(NAE5)
        monkeypatch.setattr(minimize, "MAX_COVER_NODES", 3_703)
        minimize_table(NAE5)

    def test_random_seven_variable_table_finishes(self, tmp_path, capsys):
        # a uniformly random 7-variable table; a search without the lower
        # bound needs about 2 * 10**7 nodes, far past the budget, to find
        # the same cover
        bits = (
            "0011001100111000100001011111101000101111111010101001100110101001"
            "1100011100100000111001110111101101111101101001111110001111101011"
        )
        path = tmp_path / "random7.txt"
        path.write_text(f"a b c d e f g\n{bits}\n")
        argv = ["minimize", "--form", "noi", "--table-file", str(path),
                "--format", "structured"]
        assert main(argv) == 0  # the CLI checks the form by the oracle
        record = json.loads(capsys.readouterr().out)
        assert record["cost"] == 123 and len(record["cover"]) == 25
        t = TruthTable(tuple("abcdefg"), tuple(map(int, bits)))
        assert truth_table(minimized_noi(t), t.variables).bits == t.bits

    def test_random_eight_variable_table_fails_cleanly(
        self, tmp_path, capsys
    ):
        # the lower bound does not finish every table: this one still
        # passes the budget, and exits 2 well under a second in
        path = _random_table_file(tmp_path, 8, 8)
        argv = ["minimize", "--form", "noi", "--table-file", str(path)]
        assert main(argv) == 2
        assert "cover search passed its budget" in capsys.readouterr().err

    def test_random_twelve_variable_table_fails_cleanly(
        self, tmp_path, capsys
    ):
        # at the minimization cap the search selects hundreds of cubes on
        # one path; it must run out of budget, not out of stack
        path = _random_table_file(tmp_path, 12, 12)
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

    def test_every_four_variable_function_that_branches(self):
        # 27 416 of the 65 536 functions have a cover that is not all
        # essentials; the search's bound and row order decide only these
        branched = 0
        for value in range(1, 1 << 16):
            ons = [r for r in range(16) if (value >> r) & 1]
            primes = prime_implicants(ons, (), 4, ("A", "B", "C", "D"))
            cover = minimum_cover(primes, ons)
            if any(s.startswith("selected") for s in cover.trace):
                branched += 1
                assert cover == reference_minimum_cover(primes, ons), value
        assert branched == 27_416

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
        real = minimize._minimum_cover

        def dropping(primes, onset):
            cover = real(primes, onset)
            return dataclasses.replace(cover, cubes=cover.cubes[1:])

        monkeypatch.setattr(minimize, "_minimum_cover", dropping)

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
            real = minimize._minimum_cover
            def dropping(primes, onset):
                cover = real(primes, onset)
                return dataclasses.replace(cover, cubes=cover.cubes[1:])
            minimize._minimum_cover = dropping
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
        for bit in (0, 1):
            t = TruthTable((), (bit,))
            assert minimized_soi(t) == minimized_noi(t) == Const(bit)

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
