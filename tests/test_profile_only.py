"""No function of the package takes a tolerance of its own.

Every check reads its threshold from the active tolerance profile, so a
parameter named like a per-call override (``tol``, ``imag_tol``, ``prof``,
``floor``) is a second source of tolerances and fails here.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p.relative_to(ROOT).as_posix() for p in (ROOT / "src").rglob("*.py"))
OVERRIDES = {"tol", "imag_tol", "prof", "floor"}


def tolerance_parameters(source: str) -> list:
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            for arg in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]:
                if arg is not None and arg.arg in OVERRIDES:
                    found.append(f"{getattr(node, 'name', 'lambda')}({arg.arg}) (line {node.lineno})")
    return found


def test_scan_flags_a_tolerance_parameter():
    source = ("def f(a, tol=None):\n    pass\n"
              "class C:\n    def ok(self, *, prof=None):\n        g = lambda floor: floor\n"
              "def h(x, tolerance):\n    return x\n")
    assert tolerance_parameters(source) == ["f(tol) (line 1)", "ok(prof) (line 4)",
                                            "lambda(floor) (line 5)"]


@pytest.mark.parametrize("path", FILES)
def test_no_tolerance_parameters(path):
    assert tolerance_parameters((ROOT / path).read_text()) == []
