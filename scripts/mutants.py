#!/usr/bin/env python3
"""Check that the tests catch each listed mutant of the library.

A mutant is (file, snippet, replacement, tests): the exact snippet, which
must occur once in the file, is replaced, and the named test files are run
on the result.  The script copies src/ and tests/ into a temporary
directory and applies one mutant at a time there, so the working tree is
never written.  It fails (exit 1) when a mutant's snippet does not occur
exactly once, so that the list cannot go stale silently, and when the
tests pass on a mutant: a check that no test would notice losing.  The 17
listed mutants take about 37 s of wall time on 2 CPUs (Python 3.11).

Usage: python scripts/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    file: str
    snippet: str
    replacement: str
    tests: tuple[str, ...]


_OCTSEQ, _CUBIC, _GENFUNC, _VERIFY = (f"src/trioct/{m}.py" for m in ("octseq", "cubic", "genfunc", "verify"))
_OCTSEQ_TESTS = ("tests/test_octseq.py",)
_GENFUNC_TESTS = ("tests/test_genfunc.py",)
_VERIFY_TESTS = ("tests/test_verify.py",)

MUTANTS = (
    # the root-based windows: a value shared across indices that belongs to one index
    Mutant(_OCTSEQ, "lambda n: weight * x ** (n + 2)", "lambda n: weight * x ** (lo + 2)", _OCTSEQ_TESTS),
    Mutant(_OCTSEQ, "main_a * a ** (2 * n)", "main_a * a ** (2 * lo)", _OCTSEQ_TESTS),
    Mutant(_CUBIC, "range(lo + shift, hi + shift)", "range(lo, hi)", _OCTSEQ_TESTS),
    # the quadratic addends read the wrong term; the terms are read past their overflow
    Mutant(_OCTSEQ, "xx * z[k + 2]", "xx * z[k + 1]", _OCTSEQ_TESTS),
    Mutant(_OCTSEQ, "if i >= len(scales) or i + 10 > len(z):", "if i >= len(scales):", _OCTSEQ_TESTS),
    # a zero's sign: the omega1 part added instead of its negation subtracted
    Mutant(_OCTSEQ, "p_a * a - -p_b * b", "p_a * a + p_b * b", _OCTSEQ_TESTS),
    # the Binet check's companion half reads the terms instead of the companion terms
    Mutant(_VERIFY, '"u"), u)', '"u"), ctx.line(0, end))', _VERIFY_TESTS),
    # the octonion Binet check compares with the lift one index on
    Mutant(_VERIFY, "tuple(z[n : n + 8])", "tuple(z[n + 1 : n + 9])", _VERIFY_TESTS),
    # the packed tests: a slot one bit too narrow (2^B > weight*max|x|), a rational relation's
    # weights left unscaled, the companion terms read one slot off, the prefix sums' gap(0)
    # left unchecked, the packed expansion compared with itself instead of the term
    # windows, and a test that fails counted as passing instead of building its pairs
    Mutant(
        _VERIFY,
        "(weight * self.top).bit_length() // 8 + 1",
        "((weight * self.top).bit_length() + 7) // 8",
        _VERIFY_TESTS,
    ),
    Mutant(_VERIFY, "for w, j in _integral(terms) if self.rational else terms:", "for w, j in terms:", _VERIFY_TESTS),
    Mutant(_VERIFY, "_companion_holds(ctx, config.deepest + 1,", "_companion_holds(ctx, config.deepest,", _VERIFY_TESTS),
    Mutant(_VERIFY, "return targets.count(gap) == width and packing.zero(", "return packing.zero(", _VERIFY_TESTS),
    Mutant(
        _VERIFY,
        "packing.window(n, 8) for n in range(count)",
        "gf_series(packed, r, s, t, count, 0)[n] for n in range(count)",
        _VERIFY_TESTS,
    ),
    Mutant(_VERIFY, "return (count, iter(())) if holds else", "return (count, iter(())) if True else", _VERIFY_TESTS),
    # the tabulated sum rows: padovan's offset one too small, the constant passed un-negated
    Mutant(_VERIFY, '"padovan": ((1, 0, 0), 3, 1),', '"padovan": ((1, 0, 0), 2, 1),', _VERIFY_TESTS),
    Mutant(_VERIFY, "(-constant).components,", "constant.components,", _VERIFY_TESTS),
    # the one copy of the generating function's recurrence, which the packed test runs
    # too, reading the wrong coefficient
    Mutant(_GENFUNC, "value = value + t * c[n - 3]", "value = value + t * c[n - 2]", _GENFUNC_TESTS),
)


def check(mutant: Mutant, copy: Path) -> str | None:
    """None when the tests catch the mutant in the copy, else why it fails the script."""
    source = (ROOT / mutant.file).read_text()
    found = source.count(mutant.snippet)
    if found != 1:
        return f"its snippet occurs {found} times in {mutant.file}"
    target = copy / mutant.file
    target.write_text(source.replace(mutant.snippet, mutant.replacement))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *mutant.tests],
            cwd=copy,
            env=dict(os.environ, PYTHONPATH=str(copy / "src")),
            capture_output=True,
            text=True,
        )
    finally:
        target.write_text(source)
    if proc.returncode == 0:
        return "no test caught it"
    # 1 is failing tests; anything else (a missing test file, an import error) is no verdict
    if proc.returncode != 1:
        return f"pytest exited with {proc.returncode}: {proc.stdout.strip().splitlines()[-1:]}"
    return None


def main(mutants: tuple[Mutant, ...] = MUTANTS) -> int:
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for part in ("src", "tests"):
            ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
            shutil.copytree(ROOT / part, copy / part, ignore=ignore)
        for mutant in mutants:
            why = check(mutant, copy)
            failures += why is not None
            status = "caught" if why is None else f"FAILED ({why})"
            print(f"{status}: {mutant.file}: {mutant.snippet!r} -> {mutant.replacement!r}", flush=True)
    print(f"{len(mutants) - failures} of {len(mutants)} mutants caught")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
