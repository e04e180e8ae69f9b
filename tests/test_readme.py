"""Every ```python block of README.md runs in a fresh interpreter against
this checkout's package, and every `mfgl` command of its ```bash blocks
parses with the command line's own parser, so the README cannot use a
name or a flag the package no longer has."""
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import cli_env
from mfgl.cli import _build_parser

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```", README, re.M | re.S)
# each command of a bash block with its `\` continuations joined, as argv
COMMANDS = [
    words[1:]
    for block in re.findall(r"^```bash\n(.*?)^```", README, re.M | re.S)
    for line in block.replace("\\\n", " ").splitlines()
    for words in [shlex.split(line, comments=True)]
    if words[:1] == ["mfgl"]
]


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_block_runs(code, tmp_path):
    res = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=120, env=cli_env(), cwd=tmp_path,
    )
    assert res.returncode == 0, res.stderr


def test_readme_has_mfgl_commands():
    assert {argv[0] for argv in COMMANDS} == {"plan", "estimate", "bench"}


@pytest.mark.parametrize("argv", COMMANDS, ids=[argv[0] for argv in COMMANDS])
def test_readme_command_parses(argv):
    _build_parser().parse_args(argv)
