"""Every demo script runs to completion against this checkout's package."""
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import cli_env

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(script, tmp_path):
    res = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True,
        timeout=120, env=cli_env(), cwd=tmp_path,
    )
    assert res.returncode == 0, res.stderr
