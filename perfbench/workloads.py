"""Workloads: seeded inputs, the timed operations and their oracle checks.

Every workload runs the same operations; the sizes decide which layers do
most of the work.  Each end-to-end metric is measured in every workload, at
full size in its own workload and at a small size in the others, so a
change to one layer shows where it should and is checked for side effects
where it should not.
"""

from __future__ import annotations

import hashlib
import importlib
import io
import json
import os
import random
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import oracles

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# (name, unit) of every end-to-end metric; all are medians over a run's samples.
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("suite_s", "s"),
    ("kernel.rational_s", "s"),
    ("kernel.int_s", "s"),
    ("kernel.deep_term_s", "s"),
    ("cli.startup_s", "s"),
    ("cli.seq_s", "s"),
    ("cli.oct_s", "s"),
    ("cli.sum_s", "s"),
    ("cli.sum_delta0_s", "s"),
    ("cli.verify_s", "s"),
)

SUITE_N_MAX = 40
SUITE_M_MAX = 20
VERIFY_N_MAX = 8
VERIFY_M_MAX = 5
# first index whose lift has a component past Python's 4300-digit int-to-str limit
DEFECT_INDEX = 16300


@dataclass(frozen=True)
class Sizes:
    """How much of each operation one repetition of a workload does.

    A CLI ``*_rational_n`` of None skips the seeded rational family.
    """

    random_sets: int
    rational_pairs: int
    int_products: int
    int_index: int
    deep_index: int
    startup_runs: int
    seq_n: int
    oct_n: int
    sum_n: int
    sum_delta0_n: int
    seq_rational_n: int | None = None
    oct_rational_n: int | None = None
    sum_rational_n: int | None = None
    extras: bool = False


_LIGHT = dict(
    rational_pairs=8,
    int_products=40,
    int_index=3000,
    deep_index=20000,
    startup_runs=1,
    seq_n=300,
    oct_n=300,
    sum_n=300,
    sum_delta0_n=60,
)

WORKLOADS: dict[str, Sizes] = {
    # run_suite over the presets plus seeded random sets: shift_formula,
    # sum_octonions and the term cache; many small families, each cold
    "suite": Sizes(**dict(_LIGHT, random_sets=22)),
    # exact kernels as a library user calls them: Fraction-heavy products,
    # bigint products and deep single terms
    "kernel": Sizes(
        **dict(_LIGHT, random_sets=0, rational_pairs=40, int_products=300, deep_index=50000)
    ),
    # the console commands as subprocesses: long warm prefixes, row
    # formatting, process start and the delta = 0 fallback
    "cli_tables": Sizes(
        **dict(
            _LIGHT,
            random_sets=0,
            startup_runs=2,
            seq_n=800,
            oct_n=1500,
            sum_n=800,
            sum_delta0_n=150,
            seq_rational_n=80,
            oct_rational_n=150,
            sum_rational_n=150,
            extras=True,
        )
    ),
}


# -- inputs -----------------------------------------------------------------

@dataclass(frozen=True)
class Inputs:
    """Everything a run feeds the program, generated from the seed alone."""

    suite_sets: tuple[tuple[int, ...], ...]
    rational_pairs: tuple[tuple[tuple[Fraction, ...], tuple[Fraction, ...]], ...]
    int_pairs: tuple[tuple[int, int], ...]
    deep_indices: tuple[int, int]
    rational_family: tuple[Fraction, ...]
    delta0_family: tuple[int, ...]
    table_preset: str
    defect_index: int


def _balanced_sets(rng: random.Random, count: int) -> tuple[tuple[int, ...], ...]:
    """Integer parameter sets on the suite's random ranges, Latin-hypercube style.

    Coefficients lie in [-5, 5] and seeds in [-3, 3], as in
    make_random_params; each column holds every value equally often in a
    seeded order, so the mix of cheap and costly families barely varies
    from seed to seed.
    """
    columns = []
    for lo, hi in ((-5, 5),) * 3 + ((-3, 3),) * 3:
        width = hi - lo + 1
        column = [lo + i % width for i in range(count)]
        rng.shuffle(column)
        columns.append(column)
    return tuple(zip(*columns))


def make_inputs(sizes: Sizes, seed: int) -> Inputs:
    rng = random.Random(seed)
    sign = lambda: rng.choice((1, -1))
    return Inputs(
        suite_sets=_balanced_sets(rng, sizes.random_sets),
        rational_pairs=tuple(
            tuple(tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(8)) for _ in "pq")
            for _ in range(sizes.rational_pairs)
        ),
        int_pairs=tuple(
            (sizes.int_index + rng.randrange(100), sizes.int_index + rng.randrange(100))
            for _ in range(sizes.int_products)
        ),
        deep_indices=(sizes.deep_index + rng.randrange(256), sizes.deep_index + rng.randrange(256)),
        # fixed coefficients keep the growth of the terms, and so the cost,
        # the same for every seed
        rational_family=(
            Fraction(1, 2),
            Fraction(2, 3),
            Fraction(1, 6),
            *(Fraction(sign() * rng.randint(1, 3), rng.randint(1, 4)) for _ in range(3)),
        ),
        # r + s + t - 1 = 0: the closed-form prefix sum is undefined
        delta0_family=(1, 1, -1, *(rng.randint(-3, 3) for _ in range(3))),
        table_preset=rng.choice(sorted(oracles.PRESETS)),
        defect_index=DEFECT_INDEX + rng.randrange(100),
    )


def digest(inputs: Inputs) -> str:
    return hashlib.sha256(repr(inputs).encode()).hexdigest()


# -- the program ------------------------------------------------------------

LAYERS = ("scalars", "octonion", "sequences", "cubic", "octseq", "genfunc", "verify", "cli")


class ProgramMissing(RuntimeError):
    pass


def load_program() -> dict:
    """Import every trioct layer from this checkout's src/."""
    if not (SRC / "trioct" / "__init__.py").is_file():
        raise ProgramMissing(f"no trioct package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    program = {name: importlib.import_module(f"trioct.{name}") for name in LAYERS}
    if Path(program["cli"].__file__).resolve().parent != SRC / "trioct":
        raise ProgramMissing(f"trioct was imported from outside {SRC}")
    return program


@dataclass
class Operands:
    """The inputs as program objects; building them is part of set-up."""

    suite_config: object
    rational_pairs: list
    int_pairs: list
    tribonacci: object


def build_operands(program: dict, sizes: Sizes, inputs: Inputs) -> Operands:
    seqs, octonion, verify = program["sequences"], program["octonion"], program["verify"]
    Octonion, Params = octonion.Octonion, seqs.RecurrenceParams
    config = verify.SuiteConfig(
        extra_params=tuple(Params(*p) for p in inputs.suite_sets),
        n_max=SUITE_N_MAX,
        m_max=SUITE_M_MAX,
    )
    lifted = {}
    if inputs.int_pairs:
        values = oracles.terms(oracles.PRESETS["tribonacci"], max(max(p) for p in inputs.int_pairs) + 8)
        for pair in inputs.int_pairs:
            for n in pair:
                if n not in lifted:
                    lifted[n] = Octonion(values[n : n + 8])
    return Operands(
        suite_config=config,
        rational_pairs=[(Octonion(p), Octonion(q)) for p, q in inputs.rational_pairs],
        int_pairs=[(lifted[a], lifted[b]) for a, b in inputs.int_pairs],
        tribonacci=seqs.preset_lookup("tribonacci"),
    )


# -- running the CLI --------------------------------------------------------

@dataclass
class CliResult:
    argv: tuple[str, ...]
    returncode: int
    stdout: bytes
    wall_s: float


class CliRunner:
    """Runs ``trioct`` commands as subprocesses, or in-process through ``cli.main``.

    Subprocesses get this checkout's src/ as their only PYTHONPATH entry and
    Python's default int-to-str digit limit, whatever the caller's
    environment says.
    """

    def __init__(self, program: dict):
        self.program = program
        self.in_process = False
        self.env = {k: v for k, v in os.environ.items() if k not in ("PYTHONINTMAXSTRDIGITS", "PYTHONPATH")}
        self.env["PYTHONPATH"] = str(SRC)

    def __call__(self, argv: tuple[str, ...]) -> CliResult:
        if self.in_process:
            out, err = io.StringIO(), io.StringIO()
            start = time.perf_counter()
            with redirect_stdout(out), redirect_stderr(err):
                code = self.program["cli"].main(list(argv))
            return CliResult(argv, code, out.getvalue().encode(), time.perf_counter() - start)
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "trioct.cli", *argv],
            cwd=ROOT,
            env=self.env,
            stdin=subprocess.DEVNULL,
            capture_output=True,
            timeout=150,
        )
        return CliResult(argv, proc.returncode, proc.stdout, time.perf_counter() - start)


# -- operations ---------------------------------------------------------------

@dataclass
class Op:
    """One timed call and its oracle.

    ``run`` returns one output per attempted operation; ``check`` returns
    one verdict per output.  ``metric`` is the end-to-end metric the time
    counts toward (None: checked and counted, but not timed into a metric).
    ``counters`` derives per-layer counts from the outputs.
    """

    metric: str | None
    run: Callable[[], list]
    check: Callable[[list], list[bool]]
    known_defect: bool = False
    counters: Callable[[list], dict[str, float]] = field(default=lambda outputs: {})


def _report_ok(expected_runs: dict[str, int]) -> Callable[[str], bool]:
    """A suite report passes, and matches the first one a run saw byte for byte."""
    first: list[str] = []

    def ok(text: str) -> bool:
        first[:] = first or [text]
        try:
            report = json.loads(text)
        except ValueError:
            return False
        return text == first[0] and oracles.suite_report_ok(report, expected_runs)

    return ok


def _suite_op(program: dict, operands: Operands, inputs: Inputs) -> Op:
    verify = program["verify"]
    ok = _report_ok(oracles.expected_suite_runs(len(oracles.PRESETS), list(inputs.suite_sets), SUITE_N_MAX, SUITE_M_MAX))

    def check(outputs):
        return [ok(outputs[0].to_json())]

    def counters(outputs):
        report = json.loads(outputs[0].to_json())
        return {"verify.checks.run": sum(c["run"] for c in report["categories"].values())}

    return Op("suite_s", lambda: [verify.run_suite(operands.suite_config)], check, counters=counters)


LAW_SIDES = ("pq", "norm_pq", "norm_p", "p(pq)", "(pp)q", "(pq)q", "p(qq)", "(pq)p", "p(qp)",
             "conj(pq)", "conj(q)conj(p)", "p conj(p)", "conj(p)p")


def law_mix(p, q) -> tuple:
    """The criterion-8 law mix on one pair, in program objects (LAW_SIDES order)."""
    pq = p * q
    cp = p.conjugate()
    return (pq, pq.norm_sq(), p.norm_sq(), p * pq, (p * p) * q, pq * q, p * (q * q), pq * p,
            p * (q * p), pq.conjugate(), q.conjugate() * cp, p * cp, cp * p)


def _rational_op(operands: Operands, inputs: Inputs) -> Op:
    def run():
        return [law_mix(p, q) for p, q in operands.rational_pairs]

    def check(outputs):
        verdicts = []
        for (p, q), sides in zip(inputs.rational_pairs, outputs):
            named = {k: getattr(v, "components", v) for k, v in zip(LAW_SIDES, sides)}
            verdicts.append(oracles.laws_ok(p, q, named))
        return verdicts

    return Op("kernel.rational_s", run, check)


def _int_op(operands: Operands, inputs: Inputs) -> Op:
    lifted = oracles.terms(oracles.PRESETS["tribonacci"], max((max(p) for p in inputs.int_pairs), default=0) + 8)
    expected = [oracles.oct_mul(lifted[a : a + 8], lifted[b : b + 8]) for a, b in inputs.int_pairs]

    def check(outputs):
        return [out.components == want for out, want in zip(outputs, expected)]

    return Op("kernel.int_s", lambda: [a * b for a, b in operands.int_pairs], check)


def _deep_op(program: dict, operands: Operands, inputs: Inputs) -> Op:
    seqs = program["sequences"]
    n_v, n_u = inputs.deep_indices
    trib = oracles.PRESETS["tribonacci"]
    expected = [oracles.term_at(trib, n_v), oracles.term_at(trib, n_u, companion=True)]

    def run():
        return [seqs.seq_term(operands.tribonacci, n_v), seqs.u_term(operands.tribonacci, n_u)]

    return Op("kernel.deep_term_s", run, lambda outputs: [a == b for a, b in zip(outputs, expected)])


def _family_args(params: tuple) -> tuple[str, ...]:
    # --key=value keeps negative values from reading as options
    return tuple(f"--{k}={v}" for k, v in zip(("r", "s", "t", "v0", "v1", "v2"), params))


def _cli_op(runner: CliRunner, metric: str | None, cases: list[tuple[tuple[str, ...], Callable[[CliResult], bool]]],
            known_defect: bool = False) -> Op:
    def run():
        return [runner(argv) for argv, _ in cases]

    def check(outputs):
        return [out.returncode == 0 and ok(out) for out, (_, ok) in zip(outputs, cases)]

    def counters(outputs):
        return {"cli.bytes_out": sum(len(out.stdout) for out in outputs)}

    return Op(metric, run, check, known_defect, counters)


def _equals(expected: bytes) -> Callable[[CliResult], bool]:
    return lambda out: out.stdout == expected


def _cli_ops(runner: CliRunner, sizes: Sizes, inputs: Inputs) -> list[Op]:
    trib = oracles.PRESETS["tribonacci"]
    preset = ("--preset", "tribonacci")
    rational = _family_args(inputs.rational_family)
    delta0 = _family_args(inputs.delta0_family)

    def table(command: str, render, n: int, rational_n: int | None):
        cases = [((command, *preset, "--n", f"0..{n}"), _equals(render(trib, 0, n)))]
        if rational_n is not None:
            cases.append(((command, *rational, "--n", f"0..{rational_n}"),
                          _equals(render(inputs.rational_family, 0, rational_n))))
        return cases

    startup = [(("seq", *preset, "--n", "0"), _equals(oracles.seq_csv(trib, 0, 0)))]
    report_ok = _report_ok(oracles.expected_suite_runs(len(oracles.PRESETS), [], VERIFY_N_MAX, VERIFY_M_MAX))

    ops = [_cli_op(runner, "cli.startup_s", startup) for _ in range(sizes.startup_runs)]
    ops += [
        _cli_op(runner, "cli.seq_s", table("seq", oracles.seq_csv, sizes.seq_n, sizes.seq_rational_n)),
        _cli_op(runner, "cli.oct_s", table("oct", oracles.oct_csv, sizes.oct_n, sizes.oct_rational_n)),
        _cli_op(runner, "cli.sum_s", table("sum", oracles.sum_csv, sizes.sum_n, sizes.sum_rational_n)),
        _cli_op(runner, "cli.sum_delta0_s", [
            (("sum", *delta0, "--n", f"0..{sizes.sum_delta0_n}"),
             _equals(oracles.sum_csv(inputs.delta0_family, 0, sizes.sum_delta0_n))),
        ]),
        _cli_op(runner, "cli.verify_s", [
            (("verify", "--preset", "all", "--n-max", str(VERIFY_N_MAX), "--m-max", str(VERIFY_M_MAX),
              "--report", "json"),
             lambda out: report_ok(out.stdout.decode(errors="replace"))),
        ]),
    ]
    if sizes.extras:
        table_params = oracles.PRESETS[inputs.table_preset]
        ops.append(_cli_op(runner, None, [
            (("roots", "--preset", inputs.table_preset),
             lambda out: oracles.roots_ok(table_params, out.stdout.decode(errors="replace"))),
            (("genfunc", "--preset", inputs.table_preset), _equals(oracles.genfunc_text(table_params))),
        ]))
        d = inputs.defect_index
        ops.append(_cli_op(runner, None, [(("oct", *preset, "--n", str(d)), _equals(oracles.oct_csv(trib, d, d)))],
                           known_defect=True))
    return ops


def build_ops(program: dict, sizes: Sizes, inputs: Inputs, operands: Operands, runner: CliRunner) -> list[Op]:
    """All operations of one repetition, oracles prepared up front."""
    return [
        _suite_op(program, operands, inputs),
        _rational_op(operands, inputs),
        _int_op(operands, inputs),
        _deep_op(program, operands, inputs),
        *_cli_ops(runner, sizes, inputs),
    ]
