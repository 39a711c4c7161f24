"""Command-line front end for the asymmetric-logic toolchain.

Expression grammar (tightest first):

    !e              negation
    e & e           AND
    e @ e @ ...     IAND chain, left-grouping
    e | e           OR
    e -> e -> ...   IMPLY chain, right-grouping

``@`` and ``->`` may not mix at one nesting level; parenthesize.  Atoms are
``0``, ``1``, identifiers, and parenthesized expressions.

Truth-table files have two lines: variable names separated by spaces, then
``2**n`` bits with the first variable as the most significant row bit.  A
constant is a table over no variables, so its file has the one line ``0``
or ``1`` (its names line is empty, and no name can be a digit), as
``table`` prints it.  Blank lines are skipped.

``main`` reads well-formed argv itself, from a table of the options that
each command's parser declares; help, errors and any other argv go to the
full parser, which prints the usage and error text.

Exit codes: 0 success, 1 a law was refuted or expressions are inequivalent,
2 usage or malformed input, 3 internal error.  ``--format structured``
prints one JSON record per line instead of plain text.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Callable

from . import memristor, spindiode
from .canon import (
    Unsupported,
    cube_form,
    ion_from_tt,
    ios_from_tt,
    noi_from_tt,
    noi_to_soi,
    soi_from_tt,
    soi_to_noi,
)
from .errors import AsymLogicError
from .expr import Expr, format_expr
from .laws import (
    RuleReport,
    catalog,
    classical_rules,
    demonstrations,
    demorgan_dual_expr,
    dual,
    verify_rule,
)
from .memristor import compile_noi, program_text, simulate, step_count
from .minimize import cover_form, cover_text, minimize_table
from .parser import parse
from .semantics import TruthTable, equivalent, truth_table
from .spindiode import (
    compile_soi,
    netlist_stats,
    netlist_text,
    simulate_netlist,
)


def _split_names(text: str) -> tuple[str, ...]:
    return tuple(part for part in text.replace(",", " ").split() if part)


def load_table_file(path: str) -> TruthTable:
    """The table in a file of names then bits; a UTF-8 byte-order mark, as
    some editors write, is not part of the first name.  A lone ``0`` or
    ``1`` is a constant, a table over no variables."""
    with open(path, encoding="utf-8-sig") as fh:
        lines = [line.strip() for line in fh if line.strip()]
    if lines in (["0"], ["1"]):  # its names line is blank
        return TruthTable.from_string((), lines[0])
    if len(lines) != 2:
        raise ValueError(
            f"table file {path!r} must have two lines: names, then bits"
        )
    return TruthTable.from_string(_split_names(lines[0]), lines[1])


def _add_source(p: argparse.ArgumentParser, order: bool = True) -> None:
    """An expression or a table file, and with ``order`` a ``--vars`` order;
    the compilers bind in their own order, so they take no ``--vars``."""
    p.add_argument("expr", nargs="?", help="expression text")
    p.add_argument("--table-file", help="truth-table file (names, then bits)")
    p.set_defaults(vars=None)
    if order:
        p.add_argument(
            "--vars",
            help="variable order for an expression source, e.g. 'A,B,C'",
        )


def _source_table(args: argparse.Namespace) -> TruthTable:
    if (args.expr is None) == (args.table_file is None):
        raise ValueError("provide exactly one of: an expression, --table-file")
    if args.table_file is not None:
        if args.vars:
            raise ValueError("--vars applies only to expression sources")
        return load_table_file(args.table_file)
    e = parse(args.expr)
    order = _split_names(args.vars) if args.vars else None
    return truth_table(e, order)


def _source_expr(args: argparse.Namespace) -> Expr:
    if args.expr is None:
        raise ValueError("this command needs an expression argument")
    return parse(args.expr)


# What a subcommand hands ``main``: its exit code, then its JSON records and
# its text.  ``main`` calls only the builder of the form it prints.
_Output = tuple[int, Callable[[], list[dict]], Callable[[], str]]


def _cmd_table(args: argparse.Namespace) -> _Output:
    t = _source_table(args)
    names, bits = list(t.variables), t.to_string()
    return (
        0,
        lambda: [{"variables": names, "table": bits}],
        lambda: f"{' '.join(names)}\n{bits}\n",
    )


def _cmd_laws(args: argparse.Namespace) -> _Output:
    reports = [verify_rule(rule) for rule in catalog() + classical_rules()]
    demos = [(rule.expect, verify_rule(rule)) for rule in demonstrations()]

    def records() -> list[dict]:
        return [r.record() for r in reports] + [
            {**r.record(), "kind": "demonstration", "expected": expect}
            for expect, r in demos
        ]

    def text() -> str:
        lines = [_report_line(r) for r in reports]
        lines.append("demonstrations:")
        lines += [_report_line(r, f"(expected {e}) ") for e, r in demos]
        proven = sum(1 for r in reports if r.status == "Proven")
        lines.append(f"{proven}/{len(reports)} catalog rules proven")
        return "".join(line + "\n" for line in lines)

    refuted = any(r.status == "Refuted" for r in reports)
    return (1 if refuted else 0), records, text


def _report_line(report: RuleReport, note: str = "") -> str:
    line = (
        f"{report.status:7} {note}{report.name} "
        f"[{report.citation}] rows={report.rows}"
    )
    if report.counterexample is not None:
        line += " counterexample: " + _fmt_assignment(report.counterexample)
    return line


def _fmt_assignment(assignment: dict[str, int]) -> str:
    return " ".join(f"{k}={v}" for k, v in assignment.items())


def _cmd_canon(args: argparse.Namespace) -> _Output:
    t = _source_table(args)
    form = {
        "soi": soi_from_tt,
        "noi": noi_from_tt,
        "ios": ios_from_tt,
        "ion": ion_from_tt,
    }[args.form](t)
    if isinstance(form, Unsupported):
        return (
            0,
            lambda: [{"form": args.form, "status": "unsupported",
                      "reason": form.reason}],
            lambda: f"unsupported: {form.reason}\n",
        )
    expr = format_expr(form)
    return (
        0,
        lambda: [{"form": args.form, "status": "ok", "expr": expr}],
        lambda: expr + "\n",
    )


_CONVERT = {"noi": soi_to_noi, "soi": noi_to_soi}


def _cmd_expr(args: argparse.Namespace) -> _Output:
    """convert, dual and dmdual: one expression in, one expression out."""
    e = _source_expr(args)
    transform = args.transform or _CONVERT[args.to]
    expr = format_expr(transform(e))
    return 0, lambda: [{"expr": expr}], lambda: expr + "\n"


def _cmd_minimize(args: argparse.Namespace) -> _Output:
    t = _source_table(args)
    primes, cover = minimize_table(t)
    expr = format_expr(cover_form(t, cover, args.form))
    return (
        0,
        lambda: [{
            "expr": expr,
            "variables": list(t.variables),
            "cover": [q.trits for q in cover.cubes],
            "cost": cover.cost,
            "trace": list(cover.trace),
        }],
        lambda: f"{expr}\n{cover_text(primes, cover) if args.cover else ''}",
    )


def _table_form(args: argparse.Namespace):
    """The table file's table, and its minimum cover as a two-level form
    over the names the cover reads, in first-read order."""
    t = _source_table(args)
    return t, cube_form(t.variables, minimize_table(t)[1]._pairs)


def _build_memristor(args: argparse.Namespace):
    """The program, and the input order that ``--inputs`` reads: the table
    file's header, or first appearance in the expression, which is also
    the order of the program's bindings."""
    if args.table_file is not None:
        t, form = _table_form(args)
        return memristor._compile(t.variables, form, t, True), t.variables
    program = compile_noi(_source_expr(args))
    return program, tuple(n for n, _ in program.bindings)


def _build_spindiode(args: argparse.Namespace):
    if args.table_file is not None:
        t, form = _table_form(args)
        return spindiode._compile(t.variables, form, t)
    return compile_soi(_source_expr(args))


def _cmd_compile(args: argparse.Namespace) -> _Output:
    if args.target == "memristor":
        program, _ = _build_memristor(args)
        return (
            0,
            lambda: [{
                "registers": program.registers,
                "inputs": [[n, r] for n, r in program.bindings],
                "output": program.output,
                "steps": memristor._lines(program),
                "counts": step_count(program),
            }],
            lambda: program_text(program),
        )
    netlist = _build_spindiode(args)
    return (
        0,
        lambda: [{
            "inputs": list(netlist.inputs),
            "gates": spindiode._lines(netlist),
            "output": netlist.output,
            "stats": netlist_stats(netlist),
        }],
        lambda: netlist_text(netlist),
    )


def _bits_assignment(names: tuple[str, ...], bits: str) -> dict[str, int]:
    if len(bits) != len(names) or any(c not in "01" for c in bits):
        raise ValueError(
            f"--inputs needs {len(names)} bits over "
            f"({' '.join(names) or 'no inputs'}), got {bits!r}"
        )
    return {name: int(c) for name, c in zip(names, bits)}


def _cmd_simulate(args: argparse.Namespace) -> _Output:
    if args.target == "memristor":
        program, names = _build_memristor(args)
        result = simulate(program, _bits_assignment(names, args.inputs))
        return (
            0,
            lambda: [{
                "output": result.output,
                "state": list(result.state),
                "trace": [list(s) for s in result.trace],
            }],
            lambda: f"output {result.output}\n",
        )
    netlist = _build_spindiode(args)
    bit = simulate_netlist(
        netlist, _bits_assignment(netlist.inputs, args.inputs)
    )
    return 0, lambda: [{"output": bit}], lambda: f"output {bit}\n"


def _cmd_verify(args: argparse.Namespace) -> _Output:
    verdict = equivalent(parse(args.expr1), parse(args.expr2))
    status = "equivalent" if verdict.equal else "inequivalent"
    cex = verdict.counterexample

    def text() -> str:
        if verdict.equal:
            return status + "\n"
        return f"{status}\ncounterexample: {_fmt_assignment(cex)}\n"

    return (
        0 if verdict.equal else 1,
        lambda: [{"status": status}
                 | ({} if cex is None else {"counterexample": cex})],
        text,
    )


def _build_parsers() -> tuple[
    argparse.ArgumentParser, dict[str, argparse.ArgumentParser]
]:
    """The full parser, and each command word's own parser."""
    parser = argparse.ArgumentParser(
        prog="asymlogic",
        description="Logic toolchain for the IAND (@) and IMPLY (->) operators",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table", help="print a truth table")
    _add_source(p)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("laws", help="verify the algebraic law catalog")
    p.set_defaults(func=_cmd_laws)

    p = sub.add_parser("canon", help="canonical form of a function")
    p.add_argument("--form", choices=("soi", "noi", "ios", "ion"),
                   required=True)
    _add_source(p)
    p.set_defaults(func=_cmd_canon)

    p = sub.add_parser("convert", help="convert between SOI and NOI forms")
    p.add_argument("--to", choices=("noi", "soi"), required=True)
    p.add_argument("expr", help="expression in the other form")
    p.set_defaults(func=_cmd_expr, transform=None)

    p = sub.add_parser("minimize", help="minimum two-level form")
    p.add_argument("--form", choices=("soi", "noi"), required=True)
    p.add_argument("--cover", action="store_true",
                   help="also print the chosen cubes")
    _add_source(p)
    p.set_defaults(func=_cmd_minimize)

    p = sub.add_parser("compile", help="compile to a hardware schedule")
    p.add_argument("--target", choices=("memristor", "spindiode"),
                   required=True)
    _add_source(p, order=False)
    p.set_defaults(func=_cmd_compile)

    p = sub.add_parser("simulate", help="compile and run on given inputs")
    p.add_argument("--target", choices=("memristor", "spindiode"),
                   required=True)
    p.add_argument("--inputs", required=True,
                   help="one bit per input: in the table file's column order, "
                   "or in first-appearance order for an expression")
    _add_source(p, order=False)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("verify", help="check two expressions for equivalence")
    p.add_argument("expr1")
    p.add_argument("expr2")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("dual", help="classical dual of an expression")
    p.add_argument("expr", help="expression text")
    p.set_defaults(func=_cmd_expr, transform=dual)

    p = sub.add_parser("dmdual", help="De Morgan dual of a chain")
    p.add_argument("expr", help="expression text")
    p.set_defaults(func=_cmd_expr, transform=demorgan_dual_expr)

    for p in sub.choices.values():  # main prints either form for each
        p.add_argument(
            "--format",
            choices=("text", "structured"),
            default="text",
            help="structured prints one JSON record per line",
        )
    return parser, sub.choices


_WORD = object()  # the value of an option that stores the word after it


def _table(p: argparse.ArgumentParser) -> tuple | None:
    """What ``_read`` needs of a command's parser, drawn from the actions
    and ``set_defaults`` values it declares: each option string's (dest,
    choices, value), where the value is ``_WORD`` or the constant the
    option stores; the positional dests and how many argv must give; the
    required dests; and every default, in the order argparse sets them.
    None when an action is one the reader does not apply, so that argparse
    reads every argv of the command."""
    options, positionals, required, defaults = {}, [], set(), {}
    for a in p._actions:
        if a.dest != argparse.SUPPRESS and a.default != argparse.SUPPRESS:
            defaults.setdefault(a.dest, a.default)
        if isinstance(a, argparse._HelpAction):
            continue  # argparse prints the help
        if isinstance(a, argparse._StoreConstAction):
            value = a.const
        elif type(a) is argparse._StoreAction and a.type is None and (
                a.nargs is None or not a.option_strings and a.nargs == "?"):
            value = _WORD
        else:
            return None
        if not a.option_strings:
            positionals.append(a)
            continue
        options.update(dict.fromkeys(a.option_strings,
                                     (a.dest, a.choices, value)))
        if a.required:
            required.add(a.dest)
    least = sum(a.nargs is None for a in positionals)
    # argparse may give an optional positional no word before a later one
    # reads it, so the reader takes required ones or one optional one
    if len(positionals) > 1 and least < len(positionals) or any(
            a.choices is not None for a in positionals):
        return None
    for dest, value in p._defaults.items():
        defaults.setdefault(dest, value)
    return (options, tuple(a.dest for a in positionals), least,
            frozenset(required), defaults)


def _read(table: tuple, argv: list[str]) -> argparse.Namespace | None:
    """The namespace that ``parse_args(argv)`` returns, when each word after
    the command is an option string followed by a valid value that does not
    start with ``-``, or a positional; None for any other argv."""
    options, positionals, least, required, defaults = table
    values, given, seen = dict(defaults), [], set()
    words = iter(argv[1:])
    for word in words:
        if word[:1] != "-":
            given.append(word)
            continue
        if word not in options:
            return None
        dest, choices, value = options[word]
        if value is _WORD:
            value = next(words, "-")  # a missing value reads as "-"
            if value[:1] == "-" or (
                    choices is not None and value not in choices):
                return None
        values[dest] = value
        seen.add(dest)
    if not least <= len(given) <= len(positionals) or required - seen:
        return None
    values.update(zip(positionals, given))
    args = argparse.Namespace(command=argv[0])
    vars(args).update(values)  # faster than __init__'s setattr per value
    return args


_parsers: tuple[
    argparse.ArgumentParser, dict[str, tuple | None]
] | None = None


def _parse(argv: list[str] | None) -> argparse.Namespace:
    """``argv`` as the full parser's ``parse_args`` reads it, printing the
    same help and errors.  The reader takes well-formed argv of a command
    from that command's table; the full parser reads any other argv."""
    global _parsers
    if _parsers is None:  # built on first use, then kept for the process
        parser, commands = _build_parsers()
        _parsers = parser, {name: _table(p) for name, p in commands.items()}
    parser, tables = _parsers
    if argv is None:
        argv = sys.argv[1:]
    table = tables.get(argv[0]) if argv else None
    if table is not None and (args := _read(table, argv)) is not None:
        return args
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse(argv)
    except SystemExit as ex:
        return ex.code if isinstance(ex.code, int) else 2
    try:
        code, records, text = args.func(args)
        if args.format == "structured":
            lines = (json.dumps(r, sort_keys=True) + "\n" for r in records())
            sys.stdout.write("".join(lines))
        else:
            sys.stdout.write(text())
        return code
    except BrokenPipeError:  # e.g. piped into head; not an input error
        return 0
    except (AsymLogicError, ValueError, OSError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2
    except Exception as ex:  # pragma: no cover - defensive
        print(f"internal error: {type(ex).__name__}: {ex}", file=sys.stderr)
        return 3


def entry() -> None:
    code = main()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)
