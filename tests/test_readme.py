"""Every ```python block of README.md runs in a fresh interpreter against
this checkout's package, every `mfgl` command of its ```bash blocks
parses with the command line's own parser, and every `--flag` and
`mfgl.module.name` its prose quotes is one the parser or the package
has, so the README cannot use a name or a flag the package no longer
has, its `--flag a|b|c` lists are the parser's choices, and its
`plan.json` keys are the writer's, in the writer's order."""
import argparse
import functools
import importlib
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import cli_env
from mfgl.acquisition import _JSON_KEYS
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


# each `--flag a|b|c` choice list of the prose, as (flag, choices)
CHOICE_LISTS = re.findall(r"`(--[a-z-]+) ([\w-]+(?:\|[\w-]+)+)`", README)
# choices that parse but that every pipeline entry refuses (exit 3), as
# README says in its own words rather than in a list
REFUSED = {"--solver": {"nystrom"}}


def _subcommand_actions():
    parser = _build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return [action for command in sub.choices.values() for action in command._actions]


def _parser_choices():
    return {flag: set(action.choices) for action in _subcommand_actions()
            if action.choices for flag in action.option_strings}


def test_readme_has_choice_lists():
    assert {flag for flag, _ in CHOICE_LISTS} == {"--solver", "--normalization", "--format", "--metric"}


@pytest.mark.parametrize("flag, listed", CHOICE_LISTS, ids=[flag for flag, _ in CHOICE_LISTS])
def test_readme_choice_list_is_the_parsers(flag, listed):
    listed = listed.split("|")
    assert len(set(listed)) == len(listed)
    assert set(listed) == _parser_choices()[flag] - REFUSED.get(flag, set())


# the prose, its code blocks cut out, and the flags and package names it quotes
PROSE = re.sub(r"^```.*?^```", "", README, flags=re.M | re.S)
PROSE_FLAGS = sorted(set(re.findall(r"`(--[A-Za-z][\w-]*)", PROSE)))
PROSE_NAMES = sorted(set(re.findall(r"`(mfgl(?:\.\w+)+)", PROSE)))


def test_readme_prose_flags_are_the_parsers():
    flags = {flag for action in _subcommand_actions() for flag in action.option_strings}
    assert PROSE_FLAGS
    assert [flag for flag in PROSE_FLAGS if flag not in flags] == []


def _resolves(name: str) -> bool:
    """``mfgl.module`` imports and each further part is an attribute."""
    parts = name.split(".")
    try:
        functools.reduce(getattr, parts[2:], importlib.import_module(".".join(parts[:2])))
    except (ImportError, AttributeError):
        return False
    return True


def test_readme_prose_names_resolve():
    assert PROSE_NAMES
    assert [name for name in PROSE_NAMES if not _resolves(name)] == []


def test_readme_plan_json_keys_are_the_writers():
    # each sub-bullet of the plan.json list names its keys before the colon
    (block,) = re.findall(r"^- `plan\.json`, with these keys in this order:\n((?:  .*\n)+)", README, re.M)
    heads = re.findall(r"^  - (.+?): ", block, re.M)
    assert re.findall(r"`(\w+)`", " ".join(heads)) == list(_JSON_KEYS)
