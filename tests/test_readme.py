"""Every ```python block of README.md runs in a fresh interpreter against
this checkout's package, so the README cannot use a name the package no
longer has."""
import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import cli_env

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_block_runs(code, tmp_path):
    res = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=120, env=cli_env(), cwd=tmp_path,
    )
    assert res.returncode == 0, res.stderr
