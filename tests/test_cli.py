"""CLI: formats, parameter sources, exit codes, determinism."""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trioct import PRESET_NAMES, OctSequenceContext, RecurrenceParams, format_scalar, preset_lookup
from trioct.cli import main

ROOT = Path(__file__).resolve().parent.parent


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_seq_csv(capsys):
    code, out, err = run_cli(capsys, "seq", "--preset", "tribonacci", "--n", "0..7", "--format", "csv")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "n,value"
    assert len(lines) == 9
    assert lines[-1] == "7,24"


def test_seq_text(capsys):
    code, out, _ = run_cli(capsys, "seq", "--preset", "padovan", "--n", "9", "--format", "text")
    assert code == 0
    assert out == "9: 4\n"


def test_seq_jsonl(capsys):
    code, out, _ = run_cli(capsys, "seq", "--preset", "narayana", "--n", "6..7", "--format", "jsonl")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert rows == [{"n": 6, "value": "4"}, {"n": 7, "value": "6"}]


def test_oct_csv_jacobsthal(capsys):
    code, out, _ = run_cli(
        capsys, "oct", "--preset", "third-order-jacobsthal", "--n", "0", "--format", "csv"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,e0,e1,e2,e3,e4,e5,e6,e7"
    assert lines[1] == "0,0,1,1,2,5,9,18,37"


def test_oct_jsonl_schema(capsys):
    code, out, _ = run_cli(capsys, "oct", "--preset", "tribonacci", "--n", "0", "--format", "jsonl")
    assert code == 0
    row = json.loads(out)
    assert row == {"n": 0, "components": ["0", "1", "1", "2", "4", "7", "13", "24"]}


def test_sum_csv(capsys):
    code, out, _ = run_cli(capsys, "sum", "--preset", "tribonacci", "--n", "0..2", "--format", "csv")
    assert code == 0
    assert out.splitlines()[-1] == "2,2,4,7,13,24,44,81,149"


def test_sum_delta_zero_rows_are_the_running_sums(capsys):
    code, out, _ = run_cli(
        capsys, "sum",
        "--r", "1", "--s", "1", "--t", "-1", "--v0", "0", "--v1", "1", "--v2", "1",
        "--n", "0..3", "--format", "csv",
    )
    assert code == 0
    # terms run 0,1,1,2,2,3,3,4,...; the n=0 row is the first lift itself
    lines = out.splitlines()
    assert lines[1] == "0,0,1,1,2,2,3,3,4"


@pytest.mark.parametrize(
    "source, params",
    [(("--preset", name), preset_lookup(name)) for name in PRESET_NAMES]
    + [
        (
            ("--r=1/2", "--s=2/3", "--t=1/6", "--v0=1/3", "--v1=-2", "--v2=5/7"),
            RecurrenceParams(*map(Fraction, ("1/2", "2/3", "1/6", "1/3", "-2", "5/7"))),
        )
    ],
)
def test_sum_rows_match_the_closed_form(capsys, source, params):
    ctx = OctSequenceContext(params)
    for text, indices in (("0..60", range(61)), ("17..23", range(17, 24)), ("45", [45])):
        code, out, err = run_cli(capsys, "sum", *source, "--n", text, "--format", "csv")
        assert code == 0 and err == ""
        expected = [f"{n}," + ",".join(map(format_scalar, ctx.sum_octonions(n).components)) for n in indices]
        assert out.splitlines()[1:] == expected


@pytest.mark.parametrize("command", ["seq", "oct", "sum"])
@pytest.mark.parametrize("text", [str(10**20), f"0..{10**20}"])
def test_index_past_maxsize_is_a_usage_error(capsys, command, text):
    code, out, err = run_cli(capsys, command, "--preset", "tribonacci", "--n", text)
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and str(sys.maxsize) in err
    assert "islice" not in err


def test_verify_past_maxsize_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "verify", "--n-max", str(10**20))
    assert code == 1 and out == ""
    assert err.startswith("trioct: error: n_max = ") and err.count("\n") == 1
    assert str(sys.maxsize) in err and "islice" not in err


def test_verify_past_the_size_cap_fails_at_once(capsys):
    # the shifts read up to term m_max + n_max + 7; the cap is checked before any check runs
    code, out, err = run_cli(capsys, "verify", "--preset", "tribonacci", "--m-max", "2000000")
    assert code == 1 and out == ""
    assert err.startswith("trioct: error: term 2000047 is past the size cap") and err.count("\n") == 1


def _cli_process(*argv: str) -> subprocess.CompletedProcess:
    # a subprocess with a timeout: a regression to an O(n) walk fails in seconds
    return subprocess.run(
        [sys.executable, "-m", "trioct.cli", *argv],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), capture_output=True, timeout=60,
    )


@pytest.mark.parametrize("fmt", ["csv", "jsonl", "text"])
def test_seq_from_a_deep_start_matches_the_walk_from_zero(fmt):
    # seq and oct rows start from the jump to the first index, sum rows from
    # the jump of the running sums to the index after it
    oct_header = b"n,e0,e1,e2,e3,e4,e5,e6,e7\n"
    for command, csv_header in (("seq", b"n,value\n"), ("oct", oct_header), ("sum", oct_header)):
        deep = _cli_process(command, "--preset", "tribonacci", "--n", "2990..3010", "--format", fmt)
        full = _cli_process(command, "--preset", "tribonacci", "--n", "0..3010", "--format", fmt)
        assert deep.returncode == full.returncode == 0
        header = csv_header if fmt == "csv" else b""
        rows = full.stdout.splitlines(keepends=True)[-21:]
        assert deep.stdout == header + b"".join(rows)


def test_oct_row_of_a_bounded_family_at_a_huge_index():
    # x^3 = 1 here, so the terms repeat with period 3 and the jump's powers stay small
    proc = _cli_process("oct", "--r=0", "--s=0", "--t=1", "--v0=1", "--v1=2", "--v2=3", "--n", str(10**12))
    assert proc.returncode == 0 and proc.stderr == b""
    assert proc.stdout == b"n,e0,e1,e2,e3,e4,e5,e6,e7\n1000000000000,2,3,1,2,3,1,2,3\n"


def test_sum_row_of_a_bounded_family_at_a_huge_index():
    n = 10**12
    proc = _cli_process("sum", "--r=0", "--s=0", "--t=1", "--v0=1", "--v1=2", "--v2=3", "--n", str(n))
    assert proc.returncode == 0 and proc.stderr == b""
    # the terms repeat 1, 2, 3: component l sums the n + 1 terms from index l
    period = (1, 2, 3)
    row = [(n + 1) // 3 * 6 + sum(period[(l + k) % 3] for k in range((n + 1) % 3)) for l in range(8)]
    assert proc.stdout == b"n,e0,e1,e2,e3,e4,e5,e6,e7\n" + f"{n},{','.join(map(str, row))}\n".encode()


@pytest.mark.parametrize("command", ["seq", "oct", "sum"])
@pytest.mark.parametrize("text", [str(10**12), f"0..{10**12}"])
def test_index_past_the_size_cap_fails_fast(command, text):
    proc = _cli_process(command, "--preset", "tribonacci", "--n", text)
    assert proc.returncode == 1 and proc.stdout == b""
    assert proc.stderr.count(b"\n") == 1
    # a seq row reads only term(n); an oct or sum row reads up to term(n + 7)
    last = 10**12 if command == "seq" else 10**12 + 7
    assert proc.stderr.startswith(f"trioct: error: term {last} is past the size cap".encode())


def test_roots_labels(capsys):
    code, out, _ = run_cli(capsys, "roots", "--preset", "tribonacci")
    assert code == 0
    labels = [line.split(" = ")[0] for line in out.splitlines()]
    assert labels == [
        "alpha", "omega1", "omega2", "discriminant",
        "weight_alpha", "weight_omega1", "weight_omega2",
    ]
    alpha = float(out.splitlines()[0].split(" = ")[1])
    assert abs(alpha - 1.8392867552141612) < 1e-12


def test_roots_out_of_regime(capsys):
    code, out, err = run_cli(
        capsys, "roots", "--r", "0", "--s", "3", "--t", "0", "--v0", "0", "--v1", "1", "--v2", "1"
    )
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and "discriminant" in err


def test_genfunc_output(capsys):
    code, out, _ = run_cli(capsys, "genfunc", "--preset", "tribonacci")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "e0: x"
    assert lines[1] == "e1: 1"
    assert lines[7] == "e7: 24 + 20x + 13x^2"
    assert lines[8] == "denominator: 1 - x - x^2 - x^3"


def test_explicit_params_match_preset(capsys):
    _, expected, _ = run_cli(capsys, "seq", "--preset", "tribonacci", "--n", "0..9", "--format", "csv")
    code, out, _ = run_cli(
        capsys, "seq",
        "--r", "1", "--s", "1", "--t", "1", "--v0", "0", "--v1", "1", "--v2", "1",
        "--n", "0..9", "--format", "csv",
    )
    assert code == 0
    assert out == expected


def test_rational_explicit_params(capsys):
    code, out, _ = run_cli(
        capsys, "seq",
        "--r", "1/2", "--s", "1", "--t", "0", "--v0", "0", "--v1", "2", "--v2", "1",
        "--n", "3", "--format", "csv",
    )
    assert code == 0
    assert out.splitlines()[1] == "3,5/2"


def test_config_file(tmp_path, capsys):
    config = tmp_path / "family.cfg"
    config.write_text(
        "# a comment\n"
        "r = 1\n"
        "s = 1  # trailing comment\n"
        "t = 2\n"
        "v0 = 0\n"
        "v1 = 1\n"
        "v2 = 1\n"
    )
    code, out, _ = run_cli(capsys, "seq", "--config", str(config), "--n", "7", "--format", "csv")
    assert code == 0
    assert out.splitlines()[1] == "7,37"


def test_config_file_is_closed(tmp_path):
    config = tmp_path / "family.cfg"
    config.write_text("r = 1\ns = 1\nt = 1\nv0 = 0\nv1 = 0\nv2 = 1\n")
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-m", "trioct.cli", "seq", "--config", str(config), "--n", "0..3"],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""


def test_config_file_rational_value(tmp_path, capsys):
    config = tmp_path / "family.cfg"
    config.write_text("r = 1/2\ns = 1\nt = 0\nv0 = 0\nv1 = 2\nv2 = 1\n")
    code, out, _ = run_cli(capsys, "seq", "--config", str(config), "--n", "3", "--format", "text")
    assert code == 0
    assert out == "3: 5/2\n"


@pytest.mark.parametrize(
    "body, fragment",
    [
        ("r = 1.5\ns = 1\nt = 1\nv0 = 0\nv1 = 1\nv2 = 1\n", "integer or rational"),
        ("q = 1\nr = 1\ns = 1\nt = 1\nv0 = 0\nv1 = 1\nv2 = 1\n", "key"),
        ("r = 1\ns = 1\n", "missing keys"),
    ],
)
def test_config_file_errors(tmp_path, capsys, body, fragment):
    config = tmp_path / "family.cfg"
    config.write_text(body)
    code, out, err = run_cli(capsys, "seq", "--config", str(config), "--n", "0")
    assert code == 1
    assert fragment in err


def test_usage_errors(capsys):
    assert run_cli(capsys, "seq", "--n", "0")[0] == 1  # no parameter source
    assert run_cli(capsys, "seq", "--preset", "tribonacci", "--r", "1", "--n", "0")[0] == 1
    assert run_cli(capsys, "seq", "--preset", "nope", "--n", "0")[0] == 1
    assert run_cli(capsys, "seq", "--preset", "tribonacci", "--n", "5..2")[0] == 1
    assert run_cli(capsys, "seq", "--preset", "tribonacci", "--n", "x")[0] == 1
    assert run_cli(capsys, "nonsense")[0] == 1
    code, _, err = run_cli(capsys, "seq", "--preset", "tribonacci", "--n", "-3")
    assert code == 1 and err.strip()


def test_out_file(tmp_path, capsys):
    target = tmp_path / "seq.csv"
    code, out, _ = run_cli(
        capsys, "seq", "--preset", "tribonacci", "--n", "0..3", "--format", "csv", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert target.read_text().splitlines()[-1] == "3,2"


def test_out_file_unwritable(tmp_path, capsys):
    target = tmp_path / "missing" / "dir" / "x.csv"
    code, out, err = run_cli(capsys, "seq", "--preset", "tribonacci", "--n", "0..3", "--out", str(target))
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("trioct: error: cannot write")
    assert not target.parent.exists()


@pytest.mark.parametrize(
    "params, fragment",
    [
        (("--r=" + "9" * 400, "--s=1", "--t=1", "--v0=0", "--v1=1", "--v2=1"), "coefficient r"),
        (("--r=1", "--s=1", "--t=1", "--v0=0", "--v1=1", "--v2=" + "9" * 400), "initial value v2"),
        (("--r=1", "--s=-" + "9" * 200, "--t=1", "--v0=0", "--v1=1", "--v2=1"), "discriminant"),
        (("--r=1" + "0" * 113, "--s=1", "--t=1", "--v0=0", "--v1=1", "--v2=1"), "discriminant"),
        (("--r=1", "--s=1", "--t=1", "--v0=17" + "0" * 307, "--v1=0", "--v2=0"), "weights"),
    ],
)
def test_roots_out_of_float_range(capsys, params, fragment):
    code, out, err = run_cli(capsys, "roots", *params)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and fragment in err and "out of float range" in err
    assert "Traceback" not in err


def test_negative_rational_separate_argument(capsys):
    family = ("--r", "1", "--t", "1", "--v0", "0", "--v1", "1", "--v2", "1", "--n", "0..5")
    _, joined, _ = run_cli(capsys, "seq", "--s=-1/3", *family)
    code, separate, err = run_cli(capsys, "seq", "--s", "-1/3", *family)
    assert code == 0 and err == ""
    assert separate == joined
    assert separate.splitlines()[4] == "3,2/3"


def test_oct_prints_terms_past_the_int_digit_limit(capsys):
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    code, out, err = run_cli(capsys, "oct", "--preset", "tribonacci", "--n", "16300", "--format", "csv")
    assert code == 0 and err == ""
    e0 = out.splitlines()[1].split(",")[1]
    assert len(e0) > 4300 and e0.isdigit()
    assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit
    if 0 < limit < 5000:  # parsing the inputs keeps the interpreter's limit
        huge = ("--r=1" + "0" * 5000, "--s=1", "--t=1", "--v0=0", "--v1=1", "--v2=1", "--n", "0")
        code, out, err = run_cli(capsys, "seq", *huge)
        assert code == 1 and out == "" and "limit" in err and err.count("\n") == 1


def test_verify_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "--preset", "all", "--n-max", "5", "--m-max", "3")
    assert code == 0
    report = json.loads(out)
    assert set(report) == {"categories", "errata", "seed"}
    assert all(entry["failed"] == 0 for entry in report["categories"].values())


def test_verify_single_preset_text(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--preset", "narayana", "--n-max", "5", "--m-max", "3",
        "--report", "text",
    )
    assert code == 0
    assert "result: PASS" in out


def test_verify_repeat_runs_identical(capsys):
    args = ("verify", "--preset", "all", "--n-max", "6", "--m-max", "4", "--random-sets", "5", "--seed", "2")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_verify_bad_config(capsys):
    assert run_cli(capsys, "verify", "--n-max", "1")[0] == 1
    assert run_cli(capsys, "verify", "--preset", "nope")[0] == 1


def test_help_exits_zero(capsys):
    assert run_cli(capsys, "--help")[0] == 0


# bounded argv for every command: small indices, suites and coefficients,
# so that no drawn invocation starts a long walk; about one value in
# twenty is junk
_JUNK = ("1/0", "x", "5..3", "", "-", "1.5", "..", "3..", "1/-2", "0x10", "--bogus")


def _or_junk(valid):
    return st.integers(0, 19).flatmap(lambda k: st.sampled_from(_JUNK) if k == 0 else valid)


_value = _or_junk(
    st.one_of(
        st.integers(-6, 6).map(str),
        st.builds(lambda p, q: f"{p}/{q}", st.integers(-6, 6), st.integers(1, 6)),
    )
)
_index = _or_junk(
    st.one_of(
        st.integers(0, 200).map(str),
        st.builds(lambda a, d: f"{a}..{min(a + d, 200)}", st.integers(0, 200), st.integers(-3, 60)),
    )
)
_preset = _or_junk(st.sampled_from(PRESET_NAMES + ("third-order-jacobsthal", "all")))
_small = _or_junk(st.integers(-1, 12).map(str))


@st.composite
def _family(draw):
    source = draw(st.sampled_from(("preset", "explicit", "explicit", "both", "none")))
    args = []
    if source in ("preset", "both"):
        args += ["--preset", draw(_preset)]
    if source in ("explicit", "both"):
        for key in ("r", "s", "t", "v0", "v1", "v2"):
            if draw(st.integers(0, 19)):  # now and then a key is left out
                args.append(f"--{key}={draw(_value)}")
    return args


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(("seq", "oct", "sum", "roots", "genfunc", "verify")))
    args = [command]
    if command == "verify":
        for flag, values in (
            ("--preset", _preset),
            ("--n-max", _small),
            ("--m-max", _small),
            ("--random-sets", _or_junk(st.integers(-1, 3).map(str))),
            ("--seed", _or_junk(st.integers(-5, 5).map(str))),
            ("--report", _or_junk(st.sampled_from(("json", "text")))),
        ):
            if draw(st.booleans()):
                args += [flag, draw(values)]
        if "--n-max" not in args:  # the default grid is larger than the bound
            args += ["--n-max", "12"]
    else:
        args += draw(_family())
        if command in ("seq", "oct", "sum"):
            if draw(st.integers(0, 19)):
                args += ["--n", draw(_index)]
            if draw(st.booleans()):
                args += ["--format", draw(_or_junk(st.sampled_from(("csv", "jsonl", "text"))))]
    if not draw(st.integers(0, 19)):
        args.insert(draw(st.integers(0, len(args))), draw(st.sampled_from(("--help", "--bogus"))))
    return args


@settings(max_examples=150, deadline=None)
@given(_argv())
def test_main_never_raises_on_bounded_argv(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (argv, code)
    if code == 1:
        assert err.getvalue().count("\n") == 1, (argv, err.getvalue())
        assert err.getvalue().startswith("trioct: error: ")
