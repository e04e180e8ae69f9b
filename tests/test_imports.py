"""Every module of the package, the tests and the demos uses each name it
imports.  A standard-library ``ast`` scan stands in for pyflakes' F401:
an imported name counts as used when the module reads it anywhere, as a
name or as the head of an attribute chain, or lists it in ``__all__``.
An import line marked ``# noqa: F401`` is a deliberate re-export.
README's demo list names exactly the demo files."""
import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    path for folder in ("src/mfgl", "tests", "demos") for path in (ROOT / folder).rglob("*.py")
)


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports and never reads, with their lines."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if "# noqa: F401" in lines[node.end_lineno - 1]:
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = alias.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(
                c.value for c in ast.walk(node.value)
                if isinstance(c, ast.Constant) and isinstance(c.value, str)
            )
    unused = sorted((line, name) for name, line in imported.items() if name not in used)
    return [f"line {line}: {name}" for line, name in unused]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_the_scan_sees_what_it_should():
    source = (
        "from __future__ import annotations\n"
        "import os, numpy.linalg\n"
        "from a import (b,\n    c as d)  # noqa: F401\n"
        "from e import f, g\n"
        "__all__ = ['f']\n"
        "numpy.linalg.norm\n"
    )
    assert unused_imports(source) == ["line 2: os", "line 5: g"]


def test_package_lists_match_its_files():
    demos_section = (ROOT / "README.md").read_text().split("## Demos\n", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^- `([\w.]+\.py)`", demos_section, re.M)
    assert sorted(listed) == sorted(p.name for p in (ROOT / "demos").glob("*.py"))
