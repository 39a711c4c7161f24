"""Benchmark of the asymlogic toolchain: one workload, one seed, one client.

    python3 bench/run.py --workload synth --seed 1 --seconds 30 --trace 0

Runs one closed-loop client in one process with no threads: the next
operation starts when the previous one returns.  Operations run in whole
passes over the seed's cases until ``--seconds`` have passed; each pass
after the first renames every case's variables, so no input repeats.
Every output is checked, untimed, by the independent reference in
``reference.py``.  ``--trace 0`` reports the end-to-end metrics, each time
scaled to the machine's speed while it was taken (see ``calibrate.py``);
``--trace 1`` is a separate run that records spans around each public call
and reports the per-layer metrics.  The last line of
standard output is one JSON object.  Run with assertions on: the package's
``__debug__`` oracle checks are part of what is measured.
"""

from __future__ import annotations

from time import perf_counter

STARTED = perf_counter()  # setup_s runs from here to the end of set-up

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import calibrate  # noqa: E402
import reference as ref  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 3  # full passes over the cases per untraced run
ORACLE_VAR_LIMIT = 10  # the package runs its oracle checks up to this size

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
)


def call_cli(main, argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


def _expect(cond: bool, why: str) -> None:
    if not cond:
        raise ref.Rejected(why)


def _check_program(record_or_text, names, column, mask) -> dict:
    cols = ref.variable_columns(names)
    if isinstance(record_or_text, str):
        regs, bindings, out, steps = ref.parse_program_text(record_or_text)
    else:
        rec = record_or_text
        regs, bindings, out = rec["registers"], rec["inputs"], rec["output"]
        steps = ref.parse_steps(rec["steps"])
        resets = sum(1 for s in steps if s[0] == "RESET")
        _expect(rec["counts"] == {"total": len(steps), "resets": resets,
                                  "implies": len(steps) - resets,
                                  "registers": regs}, "step counts disagree")
    got = ref.run_program(regs, bindings, out, steps, cols, mask)
    _expect(got == column, "program computes the wrong function")
    return {"noi_steps": len(steps), "noi_registers": regs}


def _check_netlist(inputs, gate_lines, output, names, column, mask) -> dict:
    _expect(set(inputs) <= set(names), "netlist has unknown inputs")
    gates = ref.parse_gate_lines(gate_lines)
    got, depth = ref.run_netlist(gates, output, ref.variable_columns(names),
                                 mask)
    _expect(got == column, "netlist computes the wrong function")
    return {"soi_gates": len(gates), "soi_depth": depth}


class Workload:
    """The seed's cases, and the items each pass of the closed loop runs.

    ``items`` is pass 0, made in set-up; ``pass_items`` makes later passes
    from renamed cases (see ``workloads.renamed_pass``).
    """

    SIZES: tuple[str, ...] = ()
    make = None  # the generator in ``workloads``

    def __init__(self, lib, cli, seed: int, workdir: Path) -> None:
        self.lib, self.cli, self.seed, self.workdir = lib, cli, seed, workdir
        self.cases = self.make(seed)
        self.items = self.pass_items(0)

    def pass_items(self, index: int) -> list:
        return [self.item(i, case) for i, case in enumerate(
            workloads.renamed_pass(self.cases, self.seed, index))]

    def item(self, i: int, case):
        return case


class Synth(Workload):
    """Table file through ``compile`` for both targets, in-process CLI."""

    SIZES = ("noi_steps", "noi_registers", "soi_gates", "soi_depth")
    make = staticmethod(workloads.make_synth)

    def item(self, i: int, case):
        path = self.workdir / f"table{i}.txt"
        path.write_text(case.file_text(), encoding="utf-8")
        return case, str(path)

    @staticmethod
    def _argv(path: str, target: str) -> list[str]:
        return ["compile", "--target", target, "--table-file", path,
                "--format", "structured"]

    def run(self, item):
        _, path = item
        return tuple(call_cli(self.cli.main, self._argv(path, target))
                     for target in ("memristor", "spindiode"))

    def check(self, item, out) -> dict:
        case, _ = item
        (c1, noi), (c2, soi) = out
        _expect(c1 == 0 and c2 == 0, f"exit codes {c1}, {c2}")
        mask = ref.full_mask(len(case.names))
        sizes = _check_program(json.loads(noi), case.names, case.column, mask)
        net = json.loads(soi)
        _expect(tuple(net["inputs"]) == case.names, "netlist input order")
        sizes.update(_check_netlist(net["inputs"], net["gates"],
                                    net["output"], case.names, case.column,
                                    mask))
        _expect(net["stats"]["gates"] == sizes["soi_gates"]
                and net["stats"]["depth"] == sizes["soi_depth"],
                "netlist stats disagree")
        return sizes

    def traced(self, item, tr: tracing.Tracer):
        with tr.span("op"):
            out = tuple(
                tr.call("cli.main", call_cli, self.cli.main,
                        self._argv(item[1], target))
                for target in ("memristor", "spindiode"))
        self._replay(item[1], tr)
        return out

    def _replay(self, path: str, tr: tracing.Tracer) -> None:
        """The library calls ``compile --table-file`` makes, in order."""
        lib, c = self.lib, tr.call
        with tr.span("replay"):
            t = c("cli.load_table_file", self.cli.load_table_file, path)
            noi = c("minimize.minimized_noi", lib.minimized_noi, t)
            prog = c("memristor.compile_noi", lib.compile_noi, noi)
            c("memristor.program_text", lib.program_text, prog)
            c("memristor.step_count", lib.step_count, prog)
            t = c("cli.load_table_file", self.cli.load_table_file, path)
            soi = c("minimize.minimized_soi", lib.minimized_soi, t)
            net = c("spindiode.compile_soi", lib.compile_soi, soi,
                    inputs=t.variables)
            c("spindiode.netlist_text", lib.netlist_text, net)
            c("spindiode.netlist_stats", lib.netlist_stats, net)
        tr.counts["noi_steps_compiled"] += len(prog.steps)
        tr.counts["gates_compiled"] += len(net.gates)
        n = len(t.variables)
        ons = [r for r, b in enumerate(t.bits) if b]
        with tr.span("diag"):
            # each minimized_* runs minimize_table and then the oracle
            for form in (noi, soi):
                if ons:
                    primes = c("minimize.prime_implicants",
                               lib.prime_implicants, ons, (), n, t.variables)
                    cover = c("minimize.minimum_cover", lib.minimum_cover,
                              primes, ons)
                    tr.counts["primes"] += len(primes.cubes)
                    tr.counts["cover_cubes"] += len(cover.cubes)
                    tr.counts["essential"] += sum(
                        line.startswith("essential ") for line in cover.trace)
                if n <= ORACLE_VAR_LIMIT:
                    c("semantics.oracle", lib.truth_table, form, t.variables)
            plain = c("memristor.compile_noi_nopeephole", lib.compile_noi,
                      noi, peephole=False)
        tr.counts["noi_steps_nopeephole"] += len(plain.steps)


class Compile(Workload):
    """Parse, compile, render and simulate NOI and SOI texts."""

    SIZES = Synth.SIZES
    make = staticmethod(workloads.make_compile)

    def item(self, i: int, case):
        return case, [ref.assignment_of(r, case.names) for r in case.vectors]

    def run(self, item):
        lib = self.lib
        case, vectors = item
        prog = lib.compile_noi(lib.parse(case.noi))
        net = lib.compile_soi(lib.parse(case.soi))
        return (lib.program_text(prog), lib.netlist_text(net),
                tuple((lib.simulate(prog, a).output,
                       lib.simulate_netlist(net, a)) for a in vectors))

    def check(self, item, out) -> dict:
        case, _ = item
        ptext, ntext, sims = out
        mask = ref.full_mask(len(case.names))
        sizes = _check_program(ptext, case.names, case.column, mask)
        lines = ntext.splitlines()
        _expect(len(lines) >= 2 and lines[0].startswith("inputs")
                and lines[-1].startswith("output "), "netlist text frame")
        sizes.update(_check_netlist(lines[0].split()[1:], lines[1:-1],
                                    lines[-1].split()[1], case.names,
                                    case.column, mask))
        for row, (a, b) in zip(case.vectors, sims):
            want = (case.column >> row) & 1
            _expect(a == want and b == want, f"simulators disagree on {row}")
        return sizes

    def traced(self, item, tr: tracing.Tracer):
        lib, c = self.lib, tr.call
        case, vectors = item
        with tr.span("op"):
            noi = c("parser.parse", lib.parse, case.noi)
            soi = c("parser.parse", lib.parse, case.soi)
            prog = c("memristor.compile_noi", lib.compile_noi, noi)
            net = c("spindiode.compile_soi", lib.compile_soi, soi)
            out = (c("memristor.program_text", lib.program_text, prog),
                   c("spindiode.netlist_text", lib.netlist_text, net),
                   tuple((c("memristor.simulate", lib.simulate, prog,
                            a).output,
                          c("spindiode.simulate_netlist",
                            lib.simulate_netlist, net, a))
                         for a in vectors))
        with tr.span("diag"):
            plain = c("memristor.compile_noi_nopeephole", lib.compile_noi,
                      noi, peephole=False)
        k = tr.counts
        k["parse_nodes"] += sum(lib.literal_count(e) + lib.operator_count(e)
                                for e in (noi, soi))
        k["noi_steps_compiled"] += len(prog.steps)
        k["noi_steps_nopeephole"] += len(plain.steps)
        k["gates_compiled"] += len(net.gates)
        k["simulated_steps"] += len(prog.steps) * len(vectors)
        k["simulated_gates"] += len(net.gates) * len(vectors)
        return out


class Verify(Workload):
    """One ``table`` or ``verify`` command, in-process CLI."""

    make = staticmethod(workloads.make_verify)

    def run(self, case):
        return call_cli(self.cli.main, case.argv)

    def check(self, case, out) -> dict:
        code, text = out
        rec = json.loads(text)
        if case.kind == "table":
            _expect(code == 0, f"exit code {code}")
            _expect(rec == {"variables": case.argv[3].split(","),
                            "table": case.expected}, "wrong table")
        elif case.kind == "equal":
            _expect(code == 0 and rec == {"status": "equivalent"},
                    f"equal pair reported {rec} with exit code {code}")
        else:
            _expect(code == 1 and rec == {"status": "inequivalent",
                                          "counterexample": case.expected},
                    f"unequal pair reported {rec} with exit code {code}")
        return {}

    def traced(self, case, tr: tracing.Tracer):
        with tr.span("op"):
            out = tr.call("cli.main", call_cli, self.cli.main, case.argv)
        self._replay(case, tr)
        return out

    def _replay(self, case, tr: tracing.Tracer) -> None:
        """The library calls ``table`` or ``verify`` makes, in order."""
        lib, c = self.lib, tr.call
        with tr.span("replay"):
            if case.kind == "table":
                order = tuple(case.argv[3].split(","))
                e = c("parser.parse", lib.parse, case.argv[1])
                t = c("semantics.truth_table", lib.truth_table, e, order)
                c("semantics.to_string", t.to_string)
                tr.counts["table_rows"] += case.rows
                exprs = (e,)
            else:
                exprs = (c("parser.parse", lib.parse, case.argv[1]),
                         c("parser.parse", lib.parse, case.argv[2]))
                c("semantics.equivalent", lib.equivalent, *exprs)
                tr.counts["equivalent_rows"] += case.rows
        tr.counts["parse_nodes"] += sum(
            lib.literal_count(e) + lib.operator_count(e) for e in exprs)


class Simplify(Workload):
    """``parse`` -> ``simplify`` -> ``format_expr``."""

    SIZES = ("simplified_literals",)
    make = staticmethod(workloads.make_simplify)

    def run(self, case):
        lib = self.lib
        return lib.format_expr(lib.simplify(lib.parse(case.text)).expression)

    def check(self, case, out) -> dict:
        got, literals = ref.eval_text(
            out, ref.variable_columns(case.names), ref.full_mask(len(case.names)))
        _expect(got == case.column, "simplify changed the function")
        _expect(literals <= case.literals, "simplify added literals")
        return {"simplified_literals": literals}

    def traced(self, case, tr: tracing.Tracer):
        lib, c = self.lib, tr.call
        with tr.span("op"):
            e = c("parser.parse", lib.parse, case.text)
            result = c("laws.simplify", lib.simplify, e)
            out = c("expr.format_expr", lib.format_expr, result.expression)
        with tr.span("diag"):
            # simplify's own oracle check, made again where it runs
            if len(lib.variables(e)) <= ORACLE_VAR_LIMIT:
                c("semantics.oracle", lib.equivalent, e, result.expression)
        k = tr.counts
        k["parse_nodes"] += lib.literal_count(e) + lib.operator_count(e)
        k["simplify_steps"] += len(result.steps)
        k["literals_in"] += case.literals
        k["literals_out"] += lib.literal_count(result.expression)
        return out


WORKLOADS = {"synth": Synth, "compile": Compile, "verify": Verify,
             "simplify": Simplify}


class Checker:
    """Checks every output; keeps each case's output sizes from pass 0."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.sizes: dict[int, dict] = {}
        self.failures: list[str] = []

    def __call__(self, idx: int, item, out, error: str | None) -> bool:
        if error is None:
            try:
                self.sizes.setdefault(idx, self.workload.check(item, out))
            except (ref.Rejected, ValueError, LookupError, TypeError) as ex:
                error = f"rejected: {ex}"
        if error is not None and len(self.failures) < 5:
            self.failures.append(f"case {idx}: {error}")
        return error is None

    def size_totals(self) -> Counter:
        """Output sizes summed once over the cases."""
        totals: Counter = Counter()
        for sizes in self.sizes.values():
            totals.update(sizes)
        return totals


def closed_loop(workload, seconds: float, checker: Checker, tr=None):
    """Run whole passes over the cases until ``seconds`` have passed.

    Pass 0 runs ``workload.items``; each later pass is made, untimed, when
    it starts.  Untraced runs run at least MIN_PASSES passes and time the
    calibration kernel after every operation (and once before the first);
    traced runs run at least one pass.

    Returns per-operation latencies, the kernel times around them, the
    failure count and, when traced, the summed untraced and traced times of
    the same operations.
    """
    items = workload.items
    cases = len(items)
    latencies: list[float] = []
    failed = 0
    untraced = traced = 0.0
    kernel = [calibrate.kernel_s()] if tr is None else []
    start = perf_counter()
    i = 0
    while True:
        done = perf_counter() - start >= seconds and i >= (
            cases if tr is not None else MIN_PASSES * cases)
        if done and i % cases == 0:
            break
        idx = i % cases
        if idx == 0 and i:
            items = workload.pass_items(i // cases)
        t0 = perf_counter()
        out, error = None, None
        try:
            out = workload.run(items[idx])
        except Exception as ex:  # a failed operation is counted, not fatal
            error = f"{type(ex).__name__}: {ex}"
        latencies.append(perf_counter() - t0)
        untraced += latencies[-1]
        if tr is None:
            kernel.append(calibrate.kernel_s())
        ok = checker(idx, items[idx], out, error)
        if tr is not None:
            tr.op = i
            first = len(tr.spans)
            try:
                out, error = workload.traced(items[idx], tr), None
            except Exception as ex:
                error = f"{type(ex).__name__}: {ex}"
            traced += sum(s.end - s.start for s in tr.spans[first:]
                          if s.name == "op")
            ok = checker(idx, items[idx], out, error) and ok
        failed += not ok
        i += 1
    return latencies, kernel, failed, untraced, traced


def setup(name: str, seed: int, scratch: Path):
    """Import, generate inputs, compute references and write table files."""
    import asymlogic
    import asymlogic.cli
    workdir = Path(tempfile.mkdtemp(dir=scratch))
    return WORKLOADS[name](asymlogic, asymlogic.cli, seed, workdir)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not __debug__:
        print("error: run without -O; the package's oracle checks are part "
              "of the measured work", file=sys.stderr)
        return 2
    src = ROOT / "src"
    if not (src / "asymlogic" / "__init__.py").is_file():
        print(f"error: no package source under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    with tempfile.TemporaryDirectory(prefix=".bench-tmp-", dir=ROOT) as tmp:
        workload = setup(args.workload, args.seed, Path(tmp))
        gc.collect()
        setup_raw = perf_counter() - STARTED
        checker = Checker(workload)
        tr = tracing.Tracer() if args.trace else None
        t0 = perf_counter()
        latencies, kernel, failed, untraced, traced = closed_loop(
            workload, args.seconds, checker, tr)
        wall = perf_counter() - t0
    attempted = len(latencies)
    for line in checker.failures:
        print(f"failed {line}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: {attempted} operations "
          f"over {len(workload.items)} cases, one closed-loop client, "
          f"{wall:.1f} s wall, python {sys.version.split()[0]}")
    if args.trace:
        values, layer_self = tracing.summarize(tr, untraced, traced)
        if args.workload != "verify":
            for name in tracing.VERIFY_ONLY:
                del values[name]
        values.update(checker.size_totals())
        units = dict(tracing.PER_LAYER)
        print("  layer       self_s    share")
        for layer, own in layer_self.items():
            print(f"  {layer:<10} {own:8.3f} {values[layer + '.share']:8.3f}")
        trace_dir = ROOT / ".bench-out"
        trace_dir.mkdir(exist_ok=True)
        tr.write(trace_dir / f"spans-{args.workload}-{args.seed}.json")
    else:
        cases = len(workload.items)
        # each latency scaled by the kernel times just before and after it;
        # a case's latency is the median of its scaled repetitions
        scaled = [calibrate.scaled(t, (a + b) / 2)
                  for t, a, b in zip(latencies, kernel, kernel[1:])]
        per_case = [statistics.median(scaled[c::cases]) for c in range(cases)]
        # set-up is too short for the kernel times next to it to be a
        # steady measure of speed; the run's median kernel time is used
        speed = statistics.median(kernel)
        values = {
            "setup_s": calibrate.scaled(setup_raw, speed),
            "ops_per_s": cases / sum(per_case),
            "op_ms_p50": 1e3 * statistics.median(per_case),
            "op_ms_p90": 1e3 * statistics.quantiles(per_case, n=10)[8],
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = dict(END_TO_END)
        print(f"  {'fail_frac':<42} {failed / attempted:.6g} ratio "
              f"({failed}/{attempted})")
        print(f"  latency samples: {cases} cases, each the median of "
              f"{attempted // cases} passes")
        print(f"  unscaled: setup {setup_raw:.4g} s, op p50 "
              f"{1e3 * statistics.median(latencies):.4g} ms; kernel median "
              f"{1e3 * speed:.4g} ms (reference "
              f"{1e3 * calibrate.KERNEL_REF_S:.4g} ms)")
        sizes = checker.size_totals()
        for name in workload.SIZES:
            print(f"  {name:<42} {sizes[name]} {dict(tracing.PER_LAYER)[name]}")
    for name, value in values.items():
        print(f"  {name:<42} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
