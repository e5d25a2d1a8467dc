"""The package's tolerances have one source.

Every check reads its threshold from the one tolerance profile that
``active_profile()`` returns.  A parameter named like a per-call override
(``tol``, ``imag_tol``, ``prof``, ``floor``) would be a second source of
tolerances, and an environment variable read by the package would make the
thresholds depend on the shell a run starts from; either fails here.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p.relative_to(ROOT).as_posix() for p in (ROOT / "src").rglob("*.py"))
OVERRIDES = {"tol", "imag_tol", "prof", "floor"}
ENVIRONMENT = {"environ", "environb", "getenv", "getenvb"}


def tolerance_parameters(source: str) -> list:
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            for arg in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]:
                if arg is not None and arg.arg in OVERRIDES:
                    found.append(f"{getattr(node, 'name', 'lambda')}({arg.arg}) (line {node.lineno})")
    return found


def environment_reads(source: str) -> list:
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT
                and isinstance(node.value, ast.Name) and node.value.id == "os"):
            found.append((node.lineno, f"os.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [(node.lineno, f"from os import {alias.name}")
                      for alias in node.names if alias.name in ENVIRONMENT]
    return [f"{text} (line {line})" for line, text in sorted(found)]


def test_scan_flags_a_tolerance_parameter():
    source = ("def f(a, tol=None):\n    pass\n"
              "class C:\n    def ok(self, *, prof=None):\n        g = lambda floor: floor\n"
              "def h(x, tolerance):\n    return x\n")
    assert tolerance_parameters(source) == ["f(tol) (line 1)", "ok(prof) (line 4)",
                                            "lambda(floor) (line 5)"]


def test_scan_flags_an_environment_read():
    source = ("import os\nfrom os import getenv, path\n"
              "a = os.environ.get('A', 'x')\nb = os.getenv('B')\nc = os.path.join('d', 'e')\n")
    assert environment_reads(source) == ["from os import getenv (line 2)",
                                         "os.environ (line 3)", "os.getenv (line 4)"]


@pytest.mark.parametrize("path", FILES)
def test_no_tolerance_parameters(path):
    assert tolerance_parameters((ROOT / path).read_text()) == []


@pytest.mark.parametrize("path", FILES)
def test_no_environment_reads(path):
    assert environment_reads((ROOT / path).read_text()) == []
