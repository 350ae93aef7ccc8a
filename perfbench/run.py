#!/usr/bin/env python3
"""The trioct benchmark: one closed-loop client, checked outputs, medians.

Usage:
  python3 perfbench/run.py --workload suite|kernel|cli_tables --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --compare PARENT.log CHANGE.log

A run prints an environment header line, a table of every metric with its
unit and sample count, and as its last line one JSON object with the keys
correct, attempted, failed and metrics.  --trace 0 reports the end-to-end
metrics, --trace 1 the per-layer ones from a separate traced pass.  A log
for --compare is the concatenated standard output of several runs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import compare
import tracing
import workloads
from workloads import END_TO_END, ROOT, WORKLOADS, ProgramMissing

SETUP_PROBES = 9


def git_commit() -> str:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args, inputs) -> dict:
    return {
        "python": sys.version,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "inputs_sha256": workloads.digest(inputs),
    }


def setup_probe(workload: str, seed: int) -> float:
    """Fresh-interpreter set-up: import the program and build its operands."""
    sizes = WORKLOADS[workload]
    inputs = workloads.make_inputs(sizes, seed)
    start = time.perf_counter()
    program = workloads.load_program()
    workloads.build_operands(program, sizes, inputs)
    return time.perf_counter() - start


def measure_setup(args) -> list[float]:
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(proc.stdout.split()[-1]))
    return samples


class Tally:
    """Attempted and failed operations, plus failures that are listed defects."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.known = 0

    def record(self, op, outputs) -> None:
        verdicts = op.check(outputs)
        self.attempted += len(verdicts)
        misses = verdicts.count(False)
        self.failed += misses
        if op.known_defect:
            self.known += misses

    @property
    def correct(self) -> bool:
        return self.failed == self.known


def run_pass(ops, tally: Tally, samples: dict | None = None, tracer=None) -> tuple[float, list]:
    """One repetition: every op timed, then checked.

    Returns the timed seconds and one (op, outputs, seconds) per op.
    """
    total = 0.0
    results = []
    for op in ops:
        if tracer is not None:
            call = tracer.root(f"bench.{op.metric or 'checked_only'}")
            tracer.install()
            try:
                start = time.perf_counter()
                outputs = call(op.run)
                elapsed = time.perf_counter() - start
            finally:
                tracer.uninstall()
        else:
            start = time.perf_counter()
            outputs = op.run()
            elapsed = time.perf_counter() - start
        total += elapsed
        if samples is not None and op.metric is not None:
            samples.setdefault(op.metric, []).append(elapsed)
        tally.record(op, outputs)
        results.append((op, outputs, elapsed))
    return total, results


def repeat(seconds: float, body) -> int:
    """Call body() until the next call would end past ``seconds``; at least once."""
    start = time.perf_counter()
    last = 0.0
    reps = 0
    while reps == 0 or time.perf_counter() - start + last <= seconds:
        began = time.perf_counter()
        body()
        last = time.perf_counter() - began
        reps += 1
    return reps


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def run_untraced(args, ops, tally: Tally) -> tuple[dict, dict]:
    samples: dict[str, list[float]] = {"setup_s": measure_setup(args)}
    reps = repeat(args.seconds, lambda: run_pass(ops, tally, samples))
    metrics = {name: statistics.median(samples[name]) for name, _ in END_TO_END if name in samples}
    metrics["peak_rss_mb"] = peak_rss_mb()
    samples["peak_rss_mb"] = [metrics["peak_rss_mb"]]
    return metrics, {"reps": reps, "samples": samples}


def _cli_walls(results) -> dict[tuple, float]:
    return {
        out.argv: out.wall_s
        for _op, outputs, _t in results
        for out in outputs
        if isinstance(out, workloads.CliResult)
    }


def run_traced(args, ops, tally: Tally, program, runner) -> tuple[dict, dict]:
    tracer = tracing.Tracer(program)
    runner.in_process = False
    _, results = run_pass(ops, tally)
    process_walls = _cli_walls(results)
    runner.in_process = True
    snapshots = []

    def body():
        untraced, results = run_pass(ops, tally)
        tracer.reset()
        traced, traced_results = run_pass(ops, tally, tracer=tracer)
        snap = tracer.snapshot()
        for op, outputs, _t in traced_results:
            for key, value in op.counters(outputs).items():
                snap[key] = snap.get(key, 0) + value
        suite_time = sum(t for op, _o, t in results if op.metric == "suite_s")
        snap["verify.checks.per_s"] = snap.get("verify.checks.run", 0) / suite_time
        inproc = _cli_walls(results)
        snap["cli.process_overhead_s"] = statistics.mean(process_walls[a] - inproc[a] for a in inproc)
        snap["trace.overhead_ratio"] = traced / untraced
        snapshots.append(snap)

    reps = repeat(args.seconds, body)
    return tracing.per_layer_metrics(snapshots), {"reps": reps, "edges": tracer.edge_table()}


def print_table(metrics: dict, units: dict, detail: dict) -> None:
    samples = detail.get("samples", {})
    for name, value in metrics.items():
        line = f"{name:<40} {value:>16.6g} {units[name]:<6}"
        values = samples.get(name)
        if values and len(values) > 1:
            q = statistics.quantiles(values, n=4)
            line += f" n={len(values)} p25={q[0]:.6g} p75={q[2]:.6g}"
        print(line)


def run(args) -> int:
    sizes = WORKLOADS[args.workload]
    inputs = workloads.make_inputs(sizes, args.seed)
    try:
        program = workloads.load_program()
    except (ProgramMissing, ImportError) as exc:
        print(f"perfbench: cannot load the program: {exc}", file=sys.stderr)
        return 2
    # the documented default, whatever PYTHONINTMAXSTRDIGITS says
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    print(json.dumps({"env": environment(args, inputs)}))
    runner = workloads.CliRunner(program)
    operands = workloads.build_operands(program, sizes, inputs)
    ops = workloads.build_ops(program, sizes, inputs, operands, runner)
    tally = Tally()
    if args.trace:
        metrics, detail = run_traced(args, ops, tally, program, runner)
        units = dict(tracing.PER_LAYER)
    else:
        metrics, detail = run_untraced(args, ops, tally)
        units = dict(END_TO_END)
    print(f"repetitions: {detail['reps']}")
    print_table(metrics, units, detail)
    for parent, child, calls in detail.get("edges", []):
        print(f"span {parent or '-'} -> {child}: {calls}")
    rate = tally.failed / tally.attempted
    print(f"error_rate: {rate:.6g} ({tally.failed} failed / {tally.attempted} attempted, "
          f"{tally.known} of them listed defects)")
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--compare", nargs=2, metavar=("PARENT_LOG", "CHANGE_LOG"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare.main(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_probe:
        print(setup_probe(args.workload, args.seed))
        return 0
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
