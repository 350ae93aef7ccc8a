"""Tests of the benchmark itself: oracles, seeding and the traced report.

Run with:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TINY = workloads.Sizes(
    random_sets=2,
    rational_pairs=2,
    int_products=2,
    int_index=60,
    deep_index=300,
    startup_runs=1,
    seq_n=20,
    oct_n=20,
    sum_n=20,
    sum_delta0_n=10,
    seq_rational_n=6,
    oct_rational_n=6,
    sum_rational_n=6,
    extras=True,
)


@pytest.fixture(scope="module")
def program():
    return workloads.load_program()


@pytest.fixture()
def setup(program):
    inputs = workloads.make_inputs(TINY, 7)
    runner = workloads.CliRunner(program)
    runner.in_process = True
    operands = workloads.build_operands(program, TINY, inputs)
    ops = workloads.build_ops(program, TINY, inputs, operands, runner)
    return SimpleNamespace(inputs=inputs, runner=runner, ops={op.metric: op for op in ops}, all_ops=ops)


def _tamper_first(outputs, change):
    return [change(outputs[0])] + outputs[1:]


def test_untampered_outputs_pass(setup):
    for op in setup.all_ops:
        if not op.known_defect:
            assert all(op.check(op.run())), op.metric


@pytest.mark.parametrize("metric", ["cli.seq_s", "cli.oct_s", "cli.sum_s", "cli.sum_delta0_s", "cli.verify_s"])
def test_tampered_cli_output_is_caught(setup, metric):
    op = setup.ops[metric]
    outputs = op.run()
    assert all(op.check(outputs))  # the first repetition is the reference for later ones

    def flip_last_digit(out):
        body = bytearray(out.stdout)
        at = max(i for i, ch in enumerate(body) if chr(ch).isdigit())
        body[at] = ord("7") if body[at] != ord("7") else ord("3")
        return dataclasses.replace(out, stdout=bytes(body))

    assert op.check(_tamper_first(outputs, flip_last_digit))[0] is False
    assert op.check(_tamper_first(outputs, lambda out: dataclasses.replace(out, returncode=1)))[0] is False


def test_tampered_products_are_caught(setup, program):
    Octonion = program["octonion"].Octonion

    def bump(o):
        return Octonion((o.components[0] + 1,) + o.components[1:])

    op = setup.ops["kernel.int_s"]
    assert op.check(_tamper_first(op.run(), bump))[0] is False

    op = setup.ops["kernel.rational_s"]
    outputs = op.run()
    for position in range(len(workloads.LAW_SIDES)):
        sides = list(outputs[0])
        value = sides[position]
        sides[position] = bump(value) if isinstance(value, Octonion) else value + 1
        assert op.check([tuple(sides)] + outputs[1:])[0] is False, workloads.LAW_SIDES[position]


def test_tampered_terms_and_report_are_caught(setup):
    op = setup.ops["kernel.deep_term_s"]
    assert op.check(_tamper_first(op.run(), lambda v: v + 1))[0] is False

    op = setup.ops["suite_s"]
    (report,) = op.run()
    assert op.check([report]) == [True]
    data = json.loads(report.to_json())
    data["categories"]["shift_formula"]["run"] -= 1
    fake = SimpleNamespace(to_json=lambda: json.dumps(data))
    assert op.check([fake]) == [False]


def test_reference_product_is_the_octonion_table(program):
    Octonion = program["octonion"].Octonion
    for i in range(8):
        for j in range(8):
            a, b = Octonion.basis(i).components, Octonion.basis(j).components
            assert (Octonion.basis(i) * Octonion.basis(j)).components == oracles.oct_mul(a, b)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_follow_the_seed(name):
    sizes = workloads.WORKLOADS[name]
    first = workloads.digest(workloads.make_inputs(sizes, 3))
    assert first == workloads.digest(workloads.make_inputs(sizes, 3))
    assert first != workloads.digest(workloads.make_inputs(sizes, 4))


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(workloads.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)


def test_traced_run_reports_every_per_layer_metric(setup, program):
    tally = run.Tally()
    args = SimpleNamespace(seconds=0)
    metrics, detail = run.run_traced(args, setup.all_ops, tally, program, setup.runner)
    assert list(metrics) == [name for name, _unit in tracing.PER_LAYER]
    assert tally.correct and tally.attempted > 0
    assert metrics["octonion.mul.calls"] > 0 and metrics["verify.checks.run"] > 0
    assert metrics["trace.overhead_ratio"] > 1.0
    # tracing is removed again: no wrapper is left on the program
    assert not hasattr(program["octonion"].Octonion.__mul__, "__wrapped__")
    assert not hasattr(program["sequences"].seq_term, "__wrapped__")


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "suite", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
