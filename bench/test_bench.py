"""Tests of the benchmark's own code: the reference, generators and checks.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import pytest

import calibrate
import reference as ref
import run
import tracing
import workloads

GOLDEN = run.ROOT / "tests" / "golden"
CARRY = (("A", "B", "C"), "00010111")  # majority of three
NAND = (("p", "q"), "1110")


def run_golden_program(text: str, names) -> int:
    regs, bindings, out, steps = ref.parse_program_text(text)
    return ref.run_program(regs, bindings, out, steps,
                           ref.variable_columns(names),
                           ref.full_mask(len(names)))


@pytest.mark.parametrize("fname, spec", [("nand_program.txt", NAND),
                                         ("carry_program.txt", CARRY)])
def test_golden_programs(fname, spec):
    names, table = spec
    text = (GOLDEN / fname).read_text(encoding="utf-8")
    assert ref.table_string(run_golden_program(text, names),
                            len(names)) == table


def test_golden_netlist():
    names, table = CARRY
    lines = (GOLDEN / "carry_netlist.txt").read_text().splitlines()
    gates = ref.parse_gate_lines(lines[1:-1])
    value, depth = ref.run_netlist(gates, lines[-1].split()[1],
                                   ref.variable_columns(names),
                                   ref.full_mask(3))
    assert ref.table_string(value, 3) == table
    assert depth == 3


def test_program_with_a_dropped_step_is_rejected():
    names, table = CARRY
    lines = (GOLDEN / "carry_program.txt").read_text().splitlines()
    header = 5  # registers, three inputs, output
    for i in range(header, len(lines)):
        if lines[i].startswith("IMPLY"):
            broken = "\n".join(lines[:i] + lines[i + 1:])
            got = run_golden_program(broken, names)
            assert ref.table_string(got, 3) != table, lines[i]


def test_program_binds_registers_by_name():
    # the same schedule with the input lines listed in another order
    names, table = CARRY
    lines = (GOLDEN / "carry_program.txt").read_text().splitlines()
    shuffled = lines[:1] + [lines[3], lines[1], lines[2]] + lines[4:]
    got = run_golden_program("\n".join(shuffled), names)
    assert ref.table_string(got, 3) == table


def test_program_writing_an_input_is_rejected():
    with pytest.raises(ref.Rejected):
        run_golden_program("registers 3\ninput p r0\ninput q r1\noutput r2\n"
                           "RESET r0\n", NAND[0])


def test_variable_columns_follow_row_convention():
    cols = ref.variable_columns(("a", "b", "c"))
    assert ref.table_string(cols["a"], 3) == "00001111"
    assert ref.table_string(cols["c"], 3) == "01010101"


def test_expression_text_semantics():
    names = ("a", "b", "c")
    cols, mask = ref.variable_columns(names), ref.full_mask(3)

    def table(text):
        return ref.table_string(ref.eval_text(text, cols, mask)[0], 3)

    assert table("a @ b @ c") == table("a & !b & !c")
    assert table("a -> b -> c") == table("!a | !b | c")
    assert table("!(a -> b)") == table("a & !b")
    assert ref.eval_text("(a @ 0) | 1", cols, mask)[1] == 3


@pytest.mark.parametrize("make", [workloads.make_synth,
                                  workloads.make_compile,
                                  workloads.make_verify,
                                  workloads.make_simplify])
def test_generators_are_deterministic_for_a_seed(make):
    assert make(7) == make(7)
    assert make(7) != make(8)
    # 100 cases leave 10 latency samples beyond the 90th percentile
    assert len(make(7)) >= 100


def test_cube_texts_match_their_cube_lists():
    for case in workloads.make_compile(3):
        cols = ref.variable_columns(case.names)
        mask = ref.full_mask(len(case.names))
        assert ref.cubes_column(case.cubes, cols, mask) == case.column
        for text in (case.soi, case.noi):
            assert ref.eval_text(text, cols, mask)[0] == case.column


def test_planted_row_is_the_only_difference():
    cases = [c for c in workloads.make_verify(5) if c.kind == "unequal"]
    assert cases
    for case in cases:
        _, e, planted = case.argv[:3]
        order = tuple(case.expected)
        cols, mask = ref.variable_columns(order), ref.full_mask(len(order))
        diff = (ref.eval_text(e, cols, mask)[0]
                ^ ref.eval_text(planted, cols, mask)[0])
        row = ref.row_of(case.expected, order)
        assert diff == 1 << row
        assert case.rows == row + 1
        # the evaluator scans in first-appearance order: e's names lead
        assert order[:len(ref.first_appearance(e))] == ref.first_appearance(e)


def test_structured_tables_have_their_functions_on_set_sizes():
    # permuting and complementing inputs permutes rows, so the count holds
    cases = {c.label: c for c in workloads.make_synth(2)}
    for label, ones in (("parity6", 32), ("majority7", 64),
                        ("threshold26", 57), ("carry6", 28),
                        ("comparator6", 28)):
        assert bin(cases[label].column).count("1") == ones, label


def test_benchmark_json_names_what_the_runs_report():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        m for m in tracing.PER_LAYER if m[0] not in tracing.VERIFY_ONLY]
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_package_outputs_pass_the_checks(name, tmp_path):
    run.sys.path.insert(0, str(run.ROOT / "src"))
    workload = run.setup(name, 11, tmp_path)
    workload.cases = workload.cases[:4]
    workload.items = workload.items[:4]
    checker = run.Checker(workload)
    tr = tracing.Tracer()
    latencies, kernel, failed, _, _ = run.closed_loop(workload, 0.0, checker,
                                                      tr)
    assert failed == 0, checker.failures
    assert kernel == []
    metrics, _ = tracing.summarize(tr, 1.0, 1.0)
    assert set(metrics) == {n for n, _ in tracing.PER_LAYER}
    # untraced: MIN_PASSES passes, the later ones on renamed cases
    latencies, kernel, failed, _, _ = run.closed_loop(workload, 0.0, checker)
    assert len(latencies) == run.MIN_PASSES * 4
    assert len(kernel) == len(latencies) + 1  # before and after each op
    assert failed == 0, checker.failures


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_renamed_passes_repeat_no_input_and_keep_the_work(name, tmp_path):
    run.sys.path.insert(0, str(run.ROOT / "src"))
    workload = run.setup(name, 12, tmp_path)
    workload.cases = workload.cases[:6]
    inputs, sizes = [], []
    for index in range(3):  # synth rewrites its table files for each pass
        items = workload.pass_items(index)
        inputs.append(items)
        sizes.append([workload.check(item, workload.run(item))
                      for item in items])
    for first, second, third in zip(*inputs):
        assert first != second and first != third and second != third
    assert sizes[1] == sizes[0] and sizes[2] == sizes[0]


def test_scaling_cancels_a_uniform_slowdown():
    ref_s = calibrate.KERNEL_REF_S
    assert calibrate.scaled(0.05, ref_s) == pytest.approx(0.05)
    # the same work on a machine running at half speed reads the same
    assert calibrate.scaled(0.10, 2 * ref_s) == pytest.approx(0.05)
    assert calibrate.kernel_s() > 0
