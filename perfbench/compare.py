"""Report-only comparison of two sets of benchmark runs.

Each log is the concatenated standard output of several runs of
``run.py``; runs pair up in order within each workload.  For every
workload and end-to-end metric it prints both sides' median and quartiles
and how many pairs each side won (ties count for neither).  It never
fails a comparison: the exit code is 0 whenever both logs parse.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def read_log(path: str) -> dict[str, list[dict]]:
    """workload -> result objects of its untraced runs, in log order."""
    runs: dict[str, list[dict]] = defaultdict(list)
    env = None
    for line in Path(path).read_text().splitlines():
        if not line.startswith("{"):
            continue
        record = json.loads(line)
        if "env" in record:
            env = record["env"]
        elif "metrics" in record and env is not None and not env["traced"]:
            runs[env["workload"]].append(record)
            env = None
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def compare(parent: dict[str, list[dict]], change: dict[str, list[dict]], metrics: list[dict]) -> list[str]:
    lines = [
        f"{'workload':<11} {'metric':<20} {'parent p25/p50/p75':>32} {'change p25/p50/p75':>32} "
        f"{'ratio':>7} {'wins p/c':>9} pairs"
    ]
    for workload in sorted(set(parent) & set(change)):
        pairs = list(zip(parent[workload], change[workload]))
        for metric in metrics:
            name = metric["name"]
            a = [p["metrics"][name]["value"] for p, _ in pairs]
            b = [c["metrics"][name]["value"] for _, c in pairs]
            sign = 1 if metric["better"] == "lower" else -1
            change_wins = sum(1 for x, y in zip(a, b) if sign * (y - x) < 0)
            parent_wins = sum(1 for x, y in zip(a, b) if sign * (y - x) > 0)
            qa, qb = quartiles(a), quartiles(b)
            lines.append(
                f"{workload:<11} {name:<20} {'/'.join(f'{v:.4g}' for v in qa):>32} "
                f"{'/'.join(f'{v:.4g}' for v in qb):>32} {qb[1] / qa[1]:>7.3f} "
                f"{parent_wins:>4}/{change_wins:<4} {len(pairs)}"
            )
        failed = [sum(r["failed"] for r in side[workload]) for side in (parent, change)]
        attempted = [sum(r["attempted"] for r in side[workload]) for side in (parent, change)]
        lines.append(
            f"{workload:<11} {'error_rate':<20} parent {failed[0]}/{attempted[0]}  change {failed[1]}/{attempted[1]}"
        )
    return lines


def main(parent_log: str, change_log: str) -> int:
    metrics = json.loads(BENCHMARK_JSON.read_text())["end_to_end"]
    for line in compare(read_log(parent_log), read_log(change_log), metrics):
        print(line)
    return 0
