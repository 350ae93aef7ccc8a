"""The package's public surface and what importing it loads."""

import os
import subprocess
import sys
from pathlib import Path

import trioct

SRC = Path(__file__).resolve().parent.parent / "src"


def test_every_exported_name_resolves():
    missing = [name for name in trioct.__all__ if not hasattr(trioct, name)]
    assert missing == []


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from trioct import *", namespace)
    assert [name for name in trioct.__all__ if name not in namespace] == []
    assert set(trioct.__all__) <= set(dir(trioct))


def test_table_commands_load_only_scalars_and_sequences():
    code = (
        "import io, sys\n"
        "from contextlib import redirect_stdout\n"
        "from trioct.cli import main\n"
        "for command in ('seq', 'oct', 'sum'):\n"
        "    with redirect_stdout(io.StringIO()):\n"
        "        assert main([command, '--preset', 'tribonacci', '--n', '0..20']) == 0\n"
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('trioct'))))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "trioct.sequences" in loaded
    unloaded = {"trioct.octonion", "trioct.octseq", "trioct.cubic", "trioct.genfunc", "trioct.verify"}
    assert loaded & unloaded == set()
