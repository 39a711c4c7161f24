"""Walk a one-bit full adder through the whole toolchain.

Builds the carry and sum truth tables, derives canonical and reduced
two-level forms, and compiles each output for both hardware targets.  The
minimizer and both compilers check their result against its input on every
row, so a wrong form, schedule or netlist stops the walk with an
``AssertionError``.

Run from the repository root:

    python3 scripts/full_adder_demo.py
    python3 scripts/full_adder_demo.py --output sum --skip-canonical
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass

from asymlogic import (
    TruthTable,
    compile_noi,
    compile_soi,
    format_expr,
    minimized_noi,
    minimized_soi,
    netlist_stats,
    netlist_text,
    noi_from_tt,
    program_text,
    step_count,
)

VARIABLES = ("A", "B", "C")
TABLES = {
    "carry": TruthTable(VARIABLES, (0, 0, 0, 1, 0, 1, 1, 1)),
    "sum": TruthTable(VARIABLES, (0, 1, 1, 0, 1, 0, 0, 1)),
}


@dataclass(frozen=True)
class DemoConfig:
    outputs: tuple[str, ...]
    show_canonical: bool


def parse_args(argv: list[str] | None = None) -> DemoConfig:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output",
        choices=("carry", "sum", "both"),
        default="both",
        help="which adder output to walk through",
    )
    parser.add_argument(
        "--skip-canonical",
        action="store_true",
        help="skip the unreduced canonical schedules",
    )
    args = parser.parse_args(argv)
    outputs = ("carry", "sum") if args.output == "both" else (args.output,)
    return DemoConfig(outputs=outputs, show_canonical=not args.skip_canonical)


def heading(text: str) -> None:
    print(f"\n=== {text} ===")


def walk(name: str, table: TruthTable, config: DemoConfig) -> None:
    heading(f"{name}: truth table")
    print(" ".join(table.variables))
    print(table.to_string())

    reduced_noi = minimized_noi(table)
    reduced_soi = minimized_soi(table)
    heading(f"{name}: two-level forms")
    print(f"canonical NOI: {format_expr(noi_from_tt(table))}")
    print(f"reduced NOI:   {format_expr(reduced_noi)}")
    print(f"reduced SOI:   {format_expr(reduced_soi)}")

    heading(f"{name}: stateful-implication schedule (reduced)")
    program = compile_noi(reduced_noi)
    sys.stdout.write(program_text(program))
    print(f"counts: {step_count(program)}")
    if config.show_canonical:
        canonical = compile_noi(noi_from_tt(table))
        total = step_count(canonical)["total"]
        reduced_total = step_count(program)["total"]
        print(f"canonical schedule: {total} steps (reduced: {reduced_total})")

    heading(f"{name}: gate netlist (reduced)")
    netlist = compile_soi(reduced_soi, inputs=table.variables)
    sys.stdout.write(netlist_text(netlist))
    print(f"stats: {netlist_stats(netlist)}")

    print(f"\n{name}: every form, schedule and netlist matches the table")


def main(argv: list[str] | None = None) -> int:
    config = parse_args(argv)
    for n in config.outputs:
        walk(n, TABLES[n], config)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
