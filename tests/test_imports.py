"""Every top-level import of the package and its tests is read.

A module's top-level import binds a name; the name must be read somewhere
in that module (as a name or the root of an attribute chain) or be listed
in its ``__all__``, which is how ``adiaframe/__init__.py`` re-exports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p.relative_to(ROOT).as_posix()
               for folder in ("src", "tests") for p in (ROOT / folder).rglob("*.py"))


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in bound.items() if name not in read)


def test_scan_flags_an_unused_import():
    source = "import os\nimport sys\nfrom typing import Any as A, List\n__all__ = ['List']\nsys.exit()\n"
    assert unused_imports(source) == ["A (line 3)", "os (line 1)"]


@pytest.mark.parametrize("path", FILES)
def test_no_unused_imports(path):
    assert unused_imports((ROOT / path).read_text()) == []
