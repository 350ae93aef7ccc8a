"""The scripts under scripts/ run end to end as subprocesses."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )


def test_reproduce_tables():
    proc = run_script("reproduce_tables.py")
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    jacobsthal = proc.stdout.split("[third_order_jacobsthal]")[1]
    assert "e2: 1 + x + 2x^2   <-- catalog prints 1 + x + x^2" in jacobsthal
    # sum_correction and the companion terms agree with the catalog
    assert "disagrees with catalog" not in proc.stdout
    tribonacci = proc.stdout.split("[tribonacci]")
    assert "w = (-1, -1, -3, -5, -9, -17, -31, -57)" in tribonacci[2]
    assert "m=8: A=24 B=20 C=13" in tribonacci[3]
    # the catalog's summation forms, each checked against the direct sums
    assert "disagrees with the direct sums" not in proc.stdout
    assert "catalog: sum(0..n) = (O(n+2) + O(n) - c) / 2, c = (1, 1, 3, 5, 9, 17, 31, 57)\n" in tribonacci[2]
    padovan = proc.stdout.split("[padovan]")[2]
    assert "catalog: sum(0..n) = O(n+5) - c, c = (1, 1, 2, 2, 3, 4, 5, 7)\n" in padovan


def _mutants_script():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_listed_mutant_applies_once():
    script = _mutants_script()
    for mutant in script.MUTANTS:
        assert (ROOT / mutant.file).read_text().count(mutant.snippet) == 1, mutant
        assert all((ROOT / test).is_file() for test in mutant.tests), mutant


def test_mutants_fails_on_an_uncaught_or_a_stale_mutant(capsys):
    script = _mutants_script()
    comment = "# the term line's key in OctSequenceContext._lines"
    tests = ("tests/test_package.py",)
    uncaught = script.Mutant("src/trioct/octseq.py", comment, "# an edited comment", tests)
    stale = script.Mutant("src/trioct/octseq.py", "a snippet the source does not hold", "", tests)
    assert script.main((uncaught,)) == 1
    assert "FAILED (no test caught it)" in capsys.readouterr().out
    assert script.main((stale,)) == 1
    assert "FAILED (its snippet occurs 0 times in src/trioct/octseq.py)" in capsys.readouterr().out
    # a mutant the tests catch passes
    assert script.main(script.MUTANTS[-1:]) == 0
    assert "caught: src/trioct/genfunc.py" in capsys.readouterr().out
    # the working tree keeps its source
    assert comment in (ROOT / "src" / "trioct" / "octseq.py").read_text()
