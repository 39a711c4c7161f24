"""Spans recorded around public calls, and the per-layer metrics built on them.

The benchmark wraps each call it makes into ``asymlogic`` in a span named
``<module>.<function>``; nothing inside the package is instrumented.  Spans
are kept in memory and written out when the run ends.  Three kinds of root
span share an operation id: ``op`` (the operation itself), ``replay`` (the
library calls a CLI operation makes, made again one by one) and ``diag``
(diagnostic calls such as the prime/cover split, which time parts of a call
the benchmark cannot see into).  Layer self times and shares come from the
``op`` and ``replay`` trees only.
"""

from __future__ import annotations

import json
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from time import perf_counter

LAYERS = ("parser", "expr", "semantics", "laws", "minimize", "memristor",
          "spindiode", "cli")

# (name, unit) of every per-layer metric, in report order.  Work counts
# (primes, steps, gates) are means per call, so they do not depend on how
# many operations fit in the run.
PER_LAYER = (
    ("parser.parse.calls", "count"),
    ("parser.parse.busy_s", "s"),
    ("parser.parse.nodes_per_s", "1/s"),
    ("expr.format_expr.calls", "count"),
    ("expr.format_expr.busy_s", "s"),
    ("semantics.truth_table.calls", "count"),
    ("semantics.truth_table.busy_s", "s"),
    ("semantics.truth_table.rows_per_s", "1/s"),
    ("semantics.equivalent.calls", "count"),
    ("semantics.equivalent.busy_s", "s"),
    ("semantics.equivalent.rows_per_s", "1/s"),
    ("semantics.oracle.busy_s", "s"),
    ("laws.simplify.calls", "count"),
    ("laws.simplify.busy_s", "s"),
    ("laws.simplify.steps", "count"),
    ("laws.simplify.literal_reduction", "ratio"),
    ("minimize.prime_implicants.calls", "count"),
    ("minimize.prime_implicants.busy_s", "s"),
    ("minimize.prime_implicants.primes", "count"),
    ("minimize.minimum_cover.calls", "count"),
    ("minimize.minimum_cover.busy_s", "s"),
    ("minimize.minimum_cover.essential_frac", "ratio"),
    ("minimize.minimized_noi.busy_s", "s"),
    ("minimize.minimized_soi.busy_s", "s"),
    ("minimize.emit_s", "s"),
    ("memristor.compile_noi.calls", "count"),
    ("memristor.compile_noi.busy_s", "s"),
    ("memristor.compile_noi.steps", "count"),
    ("memristor.peephole_s", "s"),
    ("memristor.peephole_removed_frac", "ratio"),
    ("memristor.simulate.calls", "count"),
    ("memristor.simulate.busy_s", "s"),
    ("memristor.simulate.steps_per_s", "1/s"),
    ("memristor.program_text.busy_s", "s"),
    ("spindiode.compile_soi.calls", "count"),
    ("spindiode.compile_soi.busy_s", "s"),
    ("spindiode.compile_soi.gates", "count"),
    ("spindiode.simulate_netlist.calls", "count"),
    ("spindiode.simulate_netlist.busy_s", "s"),
    ("spindiode.simulate_netlist.gates_per_s", "1/s"),
    ("spindiode.netlist_text.busy_s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.busy_s", "s"),
    ("cli.self_s", "s"),
    *((f"{layer}.errors", "count") for layer in LAYERS),
    *((f"{layer}.share", "ratio") for layer in LAYERS),
    ("trace.overhead_frac", "ratio"),
    ("noi_steps", "steps"),
    ("noi_registers", "registers"),
    ("soi_gates", "gates"),
    ("soi_depth", "gates"),
    ("simplified_literals", "literals"),
)

# Only the verify workload calls these functions, and BENCHMARK.json leaves
# it out, so the other workloads do not report them.
VERIFY_ONLY = tuple(name for name, _ in PER_LAYER if name.startswith(
    ("semantics.truth_table.", "semantics.equivalent.")))

ROOTS = ("op", "replay", "diag")


@dataclass(slots=True)
class Span:
    name: str
    op: int
    parent: int | None
    start: float
    end: float = 0.0
    error: bool = False


class Tracer:
    """In-memory span recorder; ``counts`` holds work counted at the spans."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.op = 0
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        record = Span(name, self.op, parent, perf_counter())
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield record
        except Exception:
            record.error = True
            raise
        finally:
            record.end = perf_counter()
            self._open.pop()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


def _roots(spans: list[Span]) -> list[str]:
    """Name of the root span above each span."""
    root: list[str] = []
    for s in spans:
        root.append(s.name if s.parent is None else root[s.parent])
    return root


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part its child spans cover."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, covered)]


def summarize(tracer: Tracer, untraced_s: float,
              traced_s: float) -> tuple[dict, dict]:
    """Per-layer metrics as ``{name: value}`` for every name in PER_LAYER,
    and each layer's self time in seconds.

    ``untraced_s`` and ``traced_s`` are the summed times of the same
    operations run without and with spans, for the tracing overhead.
    """
    spans, counts = tracer.spans, tracer.counts
    calls: Counter = Counter()
    busy: Counter = Counter()
    errors: Counter = Counter()
    layer_self: Counter = Counter()
    op_total = replayed = 0.0
    for s, root, own in zip(spans, _roots(spans), self_times(spans)):
        d = s.end - s.start
        if s.name in ROOTS:
            if s.name == "op":
                op_total += d
            continue
        if root == "replay" and spans[s.parent].name == "replay":
            replayed += d
        calls[s.name] += 1
        busy[s.name] += d
        layer = s.name.split(".")[0]
        errors[layer] += s.error
        if root != "diag":
            layer_self[layer] += own

    def rate(work: float, seconds: float) -> float:
        return work / seconds if seconds > 0 else 0.0

    def frac(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    cli_self = busy["cli.main"] - replayed if calls["cli.main"] else 0.0
    # cli.main covers its own library calls; its layer time is the rest
    layer_self["cli"] += cli_self - busy["cli.main"]
    m = {
        "parser.parse.nodes_per_s": rate(counts["parse_nodes"],
                                         busy["parser.parse"]),
        "semantics.truth_table.rows_per_s": rate(
            counts["table_rows"], busy["semantics.truth_table"]),
        "semantics.equivalent.rows_per_s": rate(
            counts["equivalent_rows"], busy["semantics.equivalent"]),
        "laws.simplify.steps": frac(counts["simplify_steps"],
                                    calls["laws.simplify"]),
        "laws.simplify.literal_reduction": frac(
            counts["literals_in"] - counts["literals_out"],
            counts["literals_in"]),
        "minimize.prime_implicants.primes": frac(
            counts["primes"], calls["minimize.prime_implicants"]),
        "minimize.minimum_cover.essential_frac": frac(
            counts["essential"], counts["cover_cubes"]),
        "minimize.emit_s": (busy["minimize.minimized_noi"]
                            + busy["minimize.minimized_soi"]
                            - busy["minimize.prime_implicants"]
                            - busy["minimize.minimum_cover"]
                            - busy["semantics.oracle"])
        if calls["minimize.minimized_noi"] else 0.0,
        "memristor.compile_noi.steps": frac(
            counts["noi_steps_compiled"], calls["memristor.compile_noi"]),
        "memristor.peephole_s": busy["memristor.compile_noi"]
        - busy["memristor.compile_noi_nopeephole"],
        "memristor.peephole_removed_frac": 1 - frac(
            counts["noi_steps_compiled"], counts["noi_steps_nopeephole"])
        if counts["noi_steps_nopeephole"] else 0.0,
        "memristor.simulate.steps_per_s": rate(counts["simulated_steps"],
                                               busy["memristor.simulate"]),
        "spindiode.compile_soi.gates": frac(
            counts["gates_compiled"], calls["spindiode.compile_soi"]),
        "spindiode.simulate_netlist.gates_per_s": rate(
            counts["simulated_gates"], busy["spindiode.simulate_netlist"]),
        "cli.self_s": cli_self,
        "trace.overhead_frac": frac(traced_s - untraced_s, untraced_s),
    }
    for layer in LAYERS:
        m[f"{layer}.errors"] = errors[layer]
        m[f"{layer}.share"] = frac(layer_self[layer], op_total)
    out = {}
    for name, _unit in PER_LAYER:
        if name in m:
            out[name] = m[name]
        elif name.endswith(".calls"):
            out[name] = calls[name[: -len(".calls")]]
        elif name.endswith(".busy_s"):
            out[name] = busy[name[: -len(".busy_s")]]
        else:  # the size counts, filled in by the caller
            out[name] = counts[name]
    return out, {layer: layer_self[layer] for layer in LAYERS}
