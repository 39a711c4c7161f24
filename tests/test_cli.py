"""Command-line interface: subcommands, formats, and exit codes."""

from __future__ import annotations

import argparse
import dataclasses
import json
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from asymlogic import cli, memristor, minimize, semantics, spindiode
from asymlogic.cli import load_table_file, main
from asymlogic.memristor import compile_noi
from asymlogic.minimize import minimize_table, minimized_noi, minimized_soi
from asymlogic.parser import MAX_NESTING
from asymlogic.semantics import TruthTable
from asymlogic.spindiode import compile_soi

from .helpers import reference_binding_order, reference_products

CARRY_BITS = "00010111"
GOLDEN_CLI = Path(__file__).parent / "golden" / "cli"
GOLDEN_CASES = json.loads((GOLDEN_CLI / "cases.json").read_text())


@pytest.fixture()
def carry_file(tmp_path):
    path = tmp_path / "carry.tbl"
    path.write_text("A B C\n00010111\n")
    return str(path)


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTable:
    def test_expression_source(self, capsys):
        code, out, _ = run(capsys, "table", "A @ B")
        assert code == 0
        assert out == "A B\n0010\n"

    def test_imply(self, capsys):
        code, out, _ = run(capsys, "table", "A -> B")
        assert out == "A B\n1101\n"

    def test_variable_order_override(self, capsys):
        _, out, _ = run(capsys, "table", "A @ B", "--vars", "B,A")
        assert out == "B A\n0100\n"

    def test_file_source(self, capsys, carry_file):
        code, out, _ = run(capsys, "table", "--table-file", carry_file)
        assert code == 0
        assert out == f"A B C\n{CARRY_BITS}\n"

    def test_structured(self, capsys):
        _, out, _ = run(capsys, "table", "--format", "structured", "A @ B")
        assert json.loads(out) == {"variables": ["A", "B"], "table": "0010"}


class TestSourceErrors:
    def test_both_sources(self, capsys, carry_file):
        code, _, err = run(capsys, "table", "A", "--table-file", carry_file)
        assert code == 2 and err.startswith("error:")

    def test_neither_source(self, capsys):
        code, _, err = run(capsys, "table")
        assert code == 2 and err.startswith("error:")

    def test_vars_with_file_source(self, capsys, carry_file):
        code, _, err = run(
            capsys, "table", "--table-file", carry_file, "--vars", "A,B,C"
        )
        assert code == 2 and "expression sources" in err

    @pytest.mark.parametrize("target", ["memristor", "spindiode"])
    @pytest.mark.parametrize(
        "command", [["compile"], ["simulate", "--inputs", "01"]]
    )
    def test_compilers_take_no_vars(self, capsys, command, target):
        # both once accepted --vars and ignored it
        code, out, err = run(
            capsys, *command, "--target", target, "a @ b", "--vars", "b,a"
        )
        assert code == 2 and out == ""
        assert "unrecognized arguments: --vars b,a" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "table", "--table-file", "/nonexistent.tbl")
        assert code == 2 and err.startswith("error:")

    def test_file_with_a_utf8_bom(self, capsys, tmp_path, carry_file):
        # some editors start a UTF-8 file with a byte-order mark
        bom = tmp_path / "bom.tbl"
        bom.write_bytes(b"\xef\xbb\xbf" + Path(carry_file).read_bytes())
        for target in ("memristor", "spindiode"):
            plain = run(capsys, "compile", "--target", target,
                        "--table-file", carry_file)
            assert plain[0] == 0
            assert run(capsys, "compile", "--target", target,
                       "--table-file", str(bom)) == plain

    def test_malformed_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.tbl"
        bad.write_text("A B\n001\n")
        code, _, err = run(capsys, "table", "--table-file", str(bad))
        assert code == 2 and err.startswith("error:")

    def test_parse_error_mentions_position(self, capsys):
        code, _, err = run(capsys, "table", "A @ B -> C")
        assert code == 2
        assert "error:" in err and "parenthes" in err

    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "nonsense")[0] == 2

    @pytest.mark.parametrize("opener, closer", [("(", ")"), ("!", "")])
    def test_nesting_at_the_bound(self, capsys, opener, closer):
        text = opener * MAX_NESTING + "A" + closer * MAX_NESTING
        code, out, _ = run(capsys, "table", text)
        assert code == 0
        assert out.splitlines()[0].split() == ["A"]

    @pytest.mark.parametrize("opener, closer", [("(", ")"), ("!", "")])
    def test_nesting_past_the_bound(self, capsys, opener, closer):
        depth = MAX_NESTING + 1
        code, out, err = run(
            capsys, "table", opener * depth + "A" + closer * depth
        )
        assert code == 2 and out == ""
        assert err == (
            f"error: nesting deeper than {MAX_NESTING} levels of '(' and "
            f"'!' (at position {MAX_NESTING})\n"
        )

    def test_deep_nesting_far_past_the_bound(self, capsys):
        code, _, err = run(capsys, "table", "!" * 5000 + "A")
        assert code == 2 and err.startswith("error: nesting deeper")

    @pytest.mark.parametrize("text, position", [
        ("a\u00e9", 1), ("A & \u00b2", 4),
    ])
    def test_non_ascii_name(self, capsys, text, position):
        code, _, err = run(capsys, "table", text)
        assert code == 2
        assert err == (
            f"error: unexpected character {text[position]!r} "
            f"(at position {position})\n"
        )


class TestLaws:
    def test_catalog_all_proven(self, capsys):
        code, out, _ = run(capsys, "laws")
        assert code == 0
        assert out.rstrip().endswith("105/105 catalog rules proven")
        assert "demonstrations:" in out
        assert "Refuted (expected refuted)" in out

    def test_structured_records(self, capsys):
        code, out, _ = run(capsys, "laws", "--format", "structured")
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert len(records) == 108
        rules = [r for r in records if "kind" not in r]
        demos = [r for r in records if r.get("kind") == "demonstration"]
        assert len(rules) == 105 and len(demos) == 3
        assert all(r["status"] == "Proven" for r in rules)
        assert {d["expected"] for d in demos} == {"proven", "refuted"}


class TestCanon:
    def test_noi_canonical(self, capsys, carry_file):
        code, out, _ = run(
            capsys, "canon", "--form", "noi", "--table-file", carry_file
        )
        assert code == 0
        assert out == (
            "!((!A -> B -> !C) & (A -> !B -> !C)"
            " & (A -> B -> C) & (A -> B -> !C))\n"
        )

    def test_soi_expression_source(self, capsys):
        # a lone IAND of plain variables is its own canonical sum
        code, out, _ = run(capsys, "canon", "--form", "soi", "A @ B")
        assert code == 0 and out == "A @ B\n"
        _, out, _ = run(capsys, "canon", "--form", "soi", "A -> B")
        assert out == "!A @ B | !A @ !B | A @ !B\n"

    def test_unsupported_is_not_an_error(self, capsys, carry_file):
        code, out, _ = run(
            capsys, "canon", "--form", "ios", "--table-file", carry_file
        )
        assert code == 0
        assert out.startswith("unsupported:") and "4 ON rows" in out

    def test_unsupported_structured(self, capsys, carry_file):
        code, out, _ = run(
            capsys, "canon", "--form", "ion", "--table-file", carry_file,
            "--format", "structured",
        )
        assert code == 0
        record = json.loads(out)
        assert record["status"] == "unsupported" and record["form"] == "ion"

    def test_ios_on_single_on_row(self, capsys):
        code, out, _ = run(capsys, "canon", "--form", "ios", "A @ B")
        assert code == 0 and "@" in out


class TestConvert:
    def test_soi_to_noi(self, capsys):
        code, out, _ = run(capsys, "convert", "--to", "noi", "A @ !B | C @ !D")
        assert code == 0 and out == "!((B -> !A) & (D -> !C))\n"

    def test_noi_to_soi_round_trip(self, capsys):
        _, noi, _ = run(capsys, "convert", "--to", "noi", "A @ !B | C @ !D")
        _, back, _ = run(capsys, "convert", "--to", "soi", noi.strip())
        assert back == "A @ !B | C @ !D\n"

    def test_wrong_shape(self, capsys):
        code, _, err = run(capsys, "convert", "--to", "noi", "A -> B")
        assert code == 2 and err.startswith("error:")

    @pytest.mark.parametrize("argv, message", [
        (("compile", "--target", "spindiode", "A -> B"),
         "not an SOI expression (OR of IAND chains or literals): "
         "got ImplyChain"),
        (("convert", "--to", "soi", "!(A | B)"),
         "not a NOI expression (negated AND of IMPLY chains or literals): "
         "got Or"),
        (("convert", "--to", "noi", "A @ (B | C)"),
         "chain operands must be literals, got Or"),
        (("compile", "--target", "memristor", "!((A & B) -> C)"),
         "chain operands must be literals, got And"),
        # a constant that settles the form does not end the reading
        (("convert", "--to", "noi", "1 | (A -> B)"),
         "not an SOI expression (OR of IAND chains or literals): "
         "got ImplyChain"),
        (("compile", "--target", "spindiode", "1 | (A | B)"),
         "not an SOI expression (OR of IAND chains or literals): got Or"),
        (("compile", "--target", "spindiode", "A @ 1 @ (B | C)"),
         "chain operands must be literals, got Or"),
        (("compile", "--target", "memristor", "!((A -> B) & (0 -> (C @ D)))"),
         "chain operands must be literals, got IandChain"),
    ])
    def test_shape_error_names_the_form(self, capsys, argv, message):
        code, _, err = run(capsys, *argv)
        assert code == 2 and err == f"error: canon: {message}\n"


class TestMinimize:
    @pytest.mark.parametrize("form", ["soi", "noi"])
    @pytest.mark.parametrize("value", ["0", "1"])
    def test_constant_over_no_variables(self, capsys, form, value):
        code, out, _ = run(capsys, "minimize", "--form", form, value)
        assert (code, out) == (0, f"{value}\n")
        code, out, _ = run(
            capsys, "minimize", "--form", form, "--format", "structured",
            value,
        )
        record = json.loads(out)
        assert code == 0 and record["expr"] == value
        assert record["cost"] == 0 and record["variables"] == []

    def test_noi_text(self, capsys, carry_file):
        code, out, _ = run(
            capsys, "minimize", "--form", "noi", "--table-file", carry_file
        )
        assert code == 0
        assert out == "!((B -> !C) & (A -> !C) & (A -> !B))\n"

    def test_soi_with_cover(self, capsys, carry_file):
        code, out, _ = run(
            capsys, "minimize", "--form", "soi", "--cover",
            "--table-file", carry_file,
        )
        assert code == 0
        assert out == "B @ !C | A @ !C | A @ !B\nA B C\n-11\n1-1\n11-\n"

    def test_structured(self, capsys, carry_file):
        _, out, _ = run(
            capsys, "minimize", "--form", "soi", "--table-file", carry_file,
            "--format", "structured",
        )
        record = json.loads(out)
        assert record["cover"] == ["-11", "1-1", "11-"]
        assert record["cost"] == 6
        assert len(record["trace"]) == 3

    @pytest.mark.parametrize(
        "extra", [(), ("--cover",), ("--format", "structured")]
    )
    def test_one_cover_search_per_command(
        self, capsys, carry_file, monkeypatch, extra
    ):
        calls = []
        real = minimize._minimum_cover

        def counting(primes, onset):
            calls.append(primes)
            return real(primes, onset)

        monkeypatch.setattr(minimize, "_minimum_cover", counting)
        code, _, _ = run(
            capsys, "minimize", "--form", "noi", "--table-file", carry_file,
            *extra,
        )
        assert code == 0 and len(calls) == 1


class TestCompile:
    def test_memristor_text(self, capsys):
        code, out, _ = run(
            capsys, "compile", "--target", "memristor", "!(p & q)"
        )
        assert code == 0
        assert out == (
            "registers 3\ninput p r0\ninput q r1\noutput r2\n"
            "RESET r2\nIMPLY r0 r2\nIMPLY r1 r2\n"
        )

    def test_memristor_table_source_minimizes_first(self, capsys, carry_file):
        code, out, _ = run(
            capsys, "compile", "--target", "memristor",
            "--table-file", carry_file, "--format", "structured",
        )
        record = json.loads(out)
        assert record["counts"]["total"] == 13
        assert record["inputs"] == [["B", 0], ["C", 1], ["A", 2]]
        assert len(record["steps"]) == 13

    def test_spindiode_text(self, capsys, carry_file):
        code, out, _ = run(
            capsys, "compile", "--target", "spindiode",
            "--table-file", carry_file,
        )
        assert code == 0
        assert out.splitlines()[0] == "inputs A B C"
        assert out.splitlines()[-1] == "output g4"

    def test_spindiode_structured_stats(self, capsys, carry_file):
        _, out, _ = run(
            capsys, "compile", "--target", "spindiode",
            "--table-file", carry_file, "--format", "structured",
        )
        record = json.loads(out)
        assert record["stats"] == {"gates": 5, "depth": 3, "iands": 3, "ors": 2}

    def test_memristor_rejects_non_noi_expression(self, capsys):
        code, _, err = run(capsys, "compile", "--target", "memristor", "A | B")
        assert code == 2 and err.startswith("error:")


class TestSimulate:
    @pytest.mark.parametrize(
        "bits, want", [("000", 0), ("011", 1), ("101", 1), ("111", 1)]
    )
    def test_spindiode_rows(self, capsys, carry_file, bits, want):
        code, out, _ = run(
            capsys, "simulate", "--target", "spindiode",
            "--table-file", carry_file, "--inputs", bits,
        )
        assert code == 0 and out == f"output {want}\n"

    def test_memristor_binding_order(self, capsys, carry_file):
        # table input compiles the reduced form, which binds (B, C, A);
        # the bits still follow the table header (A, B, C)
        code, out, _ = run(
            capsys, "simulate", "--target", "memristor",
            "--table-file", carry_file, "--inputs", "110",
        )
        assert code == 0 and out == "output 1\n"

    @pytest.mark.parametrize("target", ["memristor", "spindiode"])
    def test_table_rows_in_header_order(self, capsys, tmp_path, target):
        # not symmetric in its inputs: the memristor binds (B, A, C), and
        # reading "100" in that order gives row 2 (1) instead of row 4 (0)
        path = tmp_path / "f.tbl"
        path.write_text("A B C\n00110111\n")
        for row, want in enumerate("00110111"):
            code, out, _ = run(
                capsys, "simulate", "--target", target, "--table-file",
                str(path), "--inputs", format(row, "03b"),
            )
            assert code == 0 and out == f"output {want}\n", row

    def test_memristor_structured_trace(self, capsys):
        _, out, _ = run(
            capsys, "simulate", "--target", "memristor", "!(p & q)",
            "--inputs", "11", "--format", "structured",
        )
        record = json.loads(out)
        assert record["output"] == 0
        assert len(record["trace"]) == 3

    def test_wrong_bit_count(self, capsys):
        code, _, err = run(
            capsys, "simulate", "--target", "memristor", "!(p & q)",
            "--inputs", "1",
        )
        assert code == 2 and "--inputs needs 2 bits" in err

    def test_non_bit_characters(self, capsys):
        code, _, err = run(
            capsys, "simulate", "--target", "spindiode", "A @ B",
            "--inputs", "2x",
        )
        assert code == 2 and err.startswith("error:")


def _cube_tables(seed: int, count: int) -> list[TruthTable]:
    """Seeded 4- to 8-variable tables, each an OR of two to five random
    cubes, so that every cover search stays small."""
    rng = random.Random(seed)
    tables = []
    for _ in range(count):
        n = rng.randint(4, 8)
        cubes = []
        for _ in range(rng.randint(2, 5)):
            care = rng.getrandbits(n) | 1 << rng.randrange(n)
            cubes.append((rng.getrandbits(n) & care, care))
        mask = sum(1 << r for r in range(1 << n)
                   if any(r & c == v for v, c in cubes))
        names = tuple(rng.sample("ABCDEFGHJK", n))
        tables.append(TruthTable.from_mask(names, mask))
    return tables


class TestTableRoute:
    """``--table-file`` hands the minimum cover's products straight to the
    compilers, which check their result against the table itself."""

    TABLES3 = [TruthTable.from_mask(("A", "B", "C"), m) for m in range(256)]

    @staticmethod
    def source(tmp_path, t: TruthTable) -> argparse.Namespace:
        path = tmp_path / "t.tbl"
        path.write_text(" ".join(t.variables) + "\n" + t.to_string() + "\n")
        return argparse.Namespace(expr=None, table_file=str(path), vars=None)

    @pytest.mark.parametrize(
        "tables", [TABLES3, _cube_tables(11, 40)], ids=["all3", "cubes4-8"]
    )
    def test_same_program_and_netlist_as_the_expr_route(
        self, tmp_path, tables
    ):
        permuted = 0
        for t in tables:
            args = self.source(tmp_path, t)
            program, names = cli._build_memristor(args)
            assert names == t.variables
            assert program == compile_noi(minimized_noi(t)), t
            bound = tuple(n for n, _ in program.bindings)
            permuted += bound != tuple(v for v in t.variables if v in bound)
            netlist = cli._build_spindiode(args)
            assert netlist == compile_soi(minimized_soi(t),
                                          inputs=t.variables), t
        if tables is self.TABLES3:
            # binding in header order would fail these: 145 tables, 136 of
            # them over all three inputs (e.g. 11001000 binds B, C, A)
            assert permuted == 145

    @pytest.mark.parametrize(
        "tables", [TABLES3, _cube_tables(23, 40)], ids=["all3", "cubes4-8"]
    )
    def test_inputs_in_first_appearance_order(self, capsys, tmp_path, tables):
        # the program binds the names its products read, in the order they
        # first read them, as ``variables`` gives it literal by literal
        for t in tables:
            path = self.source(tmp_path, t).table_file
            code, out, _ = run(
                capsys, "compile", "--target", "memristor", "--table-file",
                path, "--format", "structured",
            )
            products = reference_products(minimize_table(t)[1], t.variables)
            want = reference_binding_order(products)
            assert code == 0
            inputs = json.loads(out)["inputs"]
            assert inputs == [[n, r] for r, n in enumerate(want)], t

    @pytest.mark.parametrize("target", ["memristor", "spindiode"])
    def test_simulate_agrees_on_every_row(self, capsys, tmp_path, target):
        for t in self.TABLES3:
            path = self.source(tmp_path, t).table_file
            for row, want in enumerate(t.to_string()):
                code, out, _ = run(
                    capsys, "simulate", "--target", target, "--table-file",
                    path, "--inputs", format(row, "03b"),
                )
                assert (code, out) == (0, f"output {want}\n"), (t, row)

    def test_evaluates_no_expression(self, capsys, carry_file, monkeypatch):
        def forbidden(*args, **kwargs):
            raise RuntimeError("the table route built or read an Expr")

        monkeypatch.setattr(semantics, "_eval", forbidden)
        monkeypatch.setattr(memristor, "_read", forbidden)
        monkeypatch.setattr(spindiode, "_read", forbidden)
        monkeypatch.setattr(cli, "cover_form", forbidden)
        for target in ("memristor", "spindiode"):
            code, _, err = run(
                capsys, "compile", "--target", target,
                "--table-file", carry_file,
            )
            assert code == 0, err
            code, out, err = run(
                capsys, "simulate", "--target", target,
                "--table-file", carry_file, "--inputs", "110",
            )
            assert (code, out) == (0, "output 1\n"), err


class TestTableRouteOracle:
    """A wrong cover reaches the compilers unchecked, and each compiler's
    check against the table stops it: an ``AssertionError`` naming the
    compiler (CLI exit 3), with or without ``python -O``."""

    @pytest.fixture()
    def drop_a_cube(self, monkeypatch):
        real = minimize._minimum_cover

        def dropping(primes, onset):
            cover = real(primes, onset)
            return dataclasses.replace(cover, cubes=cover.cubes[1:])

        monkeypatch.setattr(minimize, "_minimum_cover", dropping)

    @pytest.mark.parametrize("target", ["memristor", "spindiode"])
    def test_compiler_raises(self, drop_a_cube, carry_file, target):
        args = argparse.Namespace(expr=None, table_file=carry_file, vars=None)
        build = getattr(cli, f"_build_{target}")
        with pytest.raises(AssertionError, match=target):
            build(args)

    @pytest.mark.parametrize("target", ["memristor", "spindiode"])
    def test_cli_exits_3(self, drop_a_cube, capsys, carry_file, target):
        code, _, err = run(
            capsys, "compile", "--target", target, "--table-file", carry_file
        )
        assert code == 3
        assert f"AssertionError: {target}:" in err

    @pytest.mark.parametrize("target", ["memristor", "spindiode"])
    def test_fires_under_optimize_flag(self, carry_file, target):
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
            sys.exit(main(["compile", "--target", sys.argv[1],
                           "--table-file", sys.argv[2]]))
            """
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script, target, carry_file],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 3, proc.stderr
        assert f"AssertionError: {target}:" in proc.stderr


class TestVerify:
    def test_equivalent(self, capsys):
        code, out, _ = run(capsys, "verify", "A -> B", "!A | B")
        assert code == 0 and out == "equivalent\n"

    def test_inequivalent_with_counterexample(self, capsys):
        code, out, _ = run(capsys, "verify", "A @ B", "B @ A")
        assert code == 1
        assert out == "inequivalent\ncounterexample: A=0 B=1\n"

    def test_structured(self, capsys):
        code, out, _ = run(
            capsys, "verify", "A @ B", "B @ A", "--format", "structured"
        )
        assert code == 1
        assert json.loads(out) == {
            "status": "inequivalent",
            "counterexample": {"A": 0, "B": 1},
        }


class TestDuals:
    def test_classical_dual(self, capsys):
        code, out, _ = run(capsys, "dual", "A @ B")
        assert code == 0 and out == "A | !B\n"

    def test_classical_dual_of_sum(self, capsys):
        _, out, _ = run(capsys, "dual", "A @ B | C")
        assert out == "(A | !B) & C\n"

    def test_chain_swap_dual(self, capsys):
        code, out, _ = run(capsys, "dmdual", "A @ B @ C")
        assert code == 0 and out == "A -> B -> C\n"

    def test_chain_swap_rejects_non_chains(self, capsys):
        code, _, err = run(capsys, "dmdual", "A & B")
        assert code == 2 and err.startswith("error:")


class TestTableFileParsing:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "t.tbl"
        path.write_text("X Y\n0110\n")
        t = load_table_file(str(path))
        assert t.variables == ("X", "Y") and t.bits == (0, 1, 1, 0)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "t.tbl"
        path.write_text("\nX Y\n\n0110\n\n")
        t = load_table_file(str(path))
        assert t.bits == (0, 1, 1, 0)

    @pytest.mark.parametrize("expr", ["0", "1", "A @ B"])
    def test_table_output_reads_back(self, capsys, tmp_path, expr):
        # a constant's table has a blank names line, then its one bit
        path = tmp_path / "t.tbl"
        _, text, _ = run(capsys, "table", expr)
        path.write_text(text)
        src = ["--table-file", str(path)]
        assert run(capsys, "table", *src) == (0, text, "")
        for form in ("soi", "noi"):
            got = run(capsys, "minimize", "--form", form, "--cover", *src)
            assert got == run(capsys, "minimize", "--form", form, "--cover",
                              expr)
            assert got[0] == 0
        t = load_table_file(str(path))
        n = len(t.variables)
        for row, bit in enumerate(t.bits):
            bits = "".join(str(row >> (n - 1 - i) & 1) for i in range(n))
            assert run(capsys, "simulate", "--target", "memristor", *src,
                       "--inputs", bits) == (0, f"output {bit}\n", "")
        # a netlist of no inputs is refused on both routes alike
        assert run(capsys, "compile", "--target", "spindiode", *src) == run(
            capsys, "compile", "--target", "spindiode", expr)


def test_readme_quick_start(capsys):
    # the README's Quick start block runs and prints what its comments say
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Quick start (Python)\n", 1)[1]
    exec(section.split("```python\n", 1)[1].split("```", 1)[0], {})
    out = capsys.readouterr().out.splitlines()
    assert out[:2] == ["00010111", "!((B -> !C) & (A -> !C) & (A -> !B))"]
    steps = [line for line in out if line.startswith(("RESET ", "IMPLY "))]
    assert len(steps) == 13
    assert out[-2:] == ["1", "{'A': 0, 'B': 1}"]


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "asymlogic", "table", "A @ B"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "A B\n0010\n"


def test_head_pipe_does_not_crash():
    # laws output into a closed pipe must exit cleanly, not with a traceback
    script = (
        "import subprocess, sys; "
        "p = subprocess.Popen([sys.executable, '-m', 'asymlogic', 'laws'], "
        "stdout=subprocess.PIPE, stderr=subprocess.PIPE); "
        "p.stdout.read(64); p.stdout.close(); p.wait(); "
        "sys.exit(0 if b'Traceback' not in p.stderr.read() else 1)"
    )
    proc = subprocess.run([sys.executable, "-c", script])
    assert proc.returncode == 0


# Every command with valid words; help, no words; an unknown command and a
# bad choice; a word left over, an abbreviated option, and "--".
DISPATCH_ARGV = [
    ["table", "A @ B", "--vars", "B,A"],
    ["laws", "--format", "structured"],
    ["canon", "--form", "ion", "--table-file", "f.tbl"],
    ["convert", "--to", "noi", "A @ B"],
    ["minimize", "--form", "soi", "--cover", "A | B"],
    ["compile", "--target", "memristor", "!(A & B)"],
    ["simulate", "--target", "spindiode", "--inputs", "10", "A @ B"],
    ["verify", "A", "A -> A"],
    ["dual", "A @ B"],
    ["dmdual", "A @ B @ C"],
    ["-h"],
    ["compile", "-h"],
    [],
    ["bogus", "A"],
    ["compile", "--target", "fpga", "A"],
    ["table", "A", "--bogus"],
    ["table", "--tab", "f.tbl"],
    ["table", "--", "-A"],
    ["table", "A", "--", "B"],
    ["--", "table", "A"],
]


def _parsed(parse, argv, capsys):
    """The namespace, or the exit code, then what was printed."""
    try:
        result = parse(argv)
    except SystemExit as ex:
        result = ex.code
    captured = capsys.readouterr()
    return result, captured.out, captured.err


@pytest.mark.parametrize("argv", DISPATCH_ARGV, ids=" ".join)
def test_dispatch_reads_argv_as_the_full_parser(capsys, argv):
    want = _parsed(cli._build_parsers()[0].parse_args, argv, capsys)
    assert _parsed(cli._parse, argv, capsys) == want
    if isinstance(want[0], argparse.Namespace):
        assert want[0].command == argv[0]
    else:  # main returns the exit code and prints the same words
        assert run(capsys, *argv) == want


def test_parser_is_built_once(monkeypatch, capsys):
    from asymlogic import cli

    build, built = cli._build_parsers, []

    def counting_build_parsers():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "_parsers", None)
    monkeypatch.setattr(cli, "_build_parsers", counting_build_parsers)
    assert main(["table", "A @ B"]) == 0
    assert main(["table", "A -> B"]) == 0
    assert len(built) == 1
    assert capsys.readouterr().out == "A B\n0010\nA B\n1101\n"


@pytest.mark.parametrize(
    "case", GOLDEN_CASES, ids=[c["stdout"][:-4] for c in GOLDEN_CASES]
)
def test_golden_output(capsys, case):
    # every subcommand in both formats: stdout bytes and exit code pinned;
    # a --table-file argument names a file next to the goldens
    argv = case["argv"]
    argv = [
        str(GOLDEN_CLI / a) if i and argv[i - 1] == "--table-file" else a
        for i, a in enumerate(argv)
    ]
    code, out, _ = run(capsys, *argv)
    assert code == case["exit"]
    assert out == (GOLDEN_CLI / case["stdout"]).read_text()
