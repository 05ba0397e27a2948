"""The public examples run against the current API."""

import runpy
from pathlib import Path

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def test_quickstart_runs(capsys):
    runpy.run_path(str(EXAMPLES / "quickstart.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "parallel execution matches serial execution" in out
    assert "parallel cost :        43652 work units (8 threads)" in out
