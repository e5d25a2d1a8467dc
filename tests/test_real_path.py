"""Real Hamiltonians take real LAPACK and BLAS.

A row of a stack whose H(x) has no imaginary part is eigensolved as a real
symmetric matrix, and U^dag dH U is formed in float64 where U and dH are
real too.  The choice is made per row, so every stacked row stays bit for
bit its one-row call, and it is made in one place: ``operators._eigh`` is
the only Hermitian eigensolve under ``src/``, which the scan at the end
checks.
"""

import ast
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from numpy.testing import assert_allclose

from adiaframe import (MatrixPolynomialFamily, build_frame, frame_path, goe, hermitian_eig,
                       kubo_friction, random_linear_family)
from adiaframe.families import PAULI_X, PAULI_Y, PAULI_Z
from adiaframe.frames import _frame_kernel
from adiaframe.operators import _align_to_reference, _eigh, _real_rows
from adiaframe.tolerances import active_profile

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(p.relative_to(ROOT).as_posix() for p in (ROOT / "src").rglob("*.py"))


def routes(call):
    """``call()``, the dtype of each stack ``np.linalg.eigh`` solved in it,
    and the rows of each kernel call whose U^dag dH U was formed in float64."""
    eigh, dtypes, products = np.linalg.eigh, [], []

    def solve(a):
        dtypes.append(a.dtype)
        return eigh(a)

    def real_rows(*args, **kwargs):
        products.append(_real_rows(*args, **kwargs))
        return products[-1]

    with mock.patch("numpy.linalg.eigh", solve), mock.patch("adiaframe.frames._real_rows", real_rows):
        return call(), dtypes, products


def closes_force_split(frame, fam):
    u = frame.basis
    target = -(u.conj().T @ fam.gradient(frame.x) @ u)
    assert_allclose(frame.adiabatic + frame.diabatic, target, rtol=0,
                    atol=1e-12 * np.abs(target).max())


class TestMixedStack:
    # H = x sigma_y + sigma_z is real at x = 0 only, where dH = sigma_y is
    # not; with x^2 sigma_y + x sigma_x, dH = sigma_x is real there too
    FAMILIES = {
        "complex_gradient": MatrixPolynomialFamily([((1,), PAULI_Y), ((0,), PAULI_Z)]),
        "real_gradient": MatrixPolynomialFamily([((2,), PAULI_Y), ((1,), PAULI_X),
                                                 ((0,), PAULI_Z)]),
    }
    XS = np.array([[-0.2], [-0.1], [0.0], [0.1], [0.0], [0.2]])

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_rows_match_one_row_calls(self, name):
        fam = self.FAMILIES[name]
        # a chain on the phase path: its phases are a cumulative product,
        # which rounds apart from the one-row calls
        stacked, dtypes, _ = routes(lambda: _frame_kernel(fam, self.XS))
        assert dtypes == [np.float64, np.complex128]        # the two x = 0 rows, the rest
        w, u, gad, same, perms = stacked
        ref = None
        for i, x in enumerate(self.XS):
            single = _frame_kernel(fam, x[None], ref)
            spectrum = hermitian_eig(fam.evaluate(x), reference=ref)
            for levels in (single[0][0], spectrum.eigenvalues):
                assert w[i].tobytes() == levels.tobytes()
            for basis in (single[1][0], spectrum.basis):
                assert_allclose(u[i], basis, rtol=0, atol=1e-15)
            assert_allclose(gad[i], single[2][0], rtol=0, atol=1e-15)
            assert same[i].tobytes() == single[3][0].tobytes()
            assert perms[i] == single[4][0]
            ref = single[1][0]

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_per_row_references_match_one_row_calls(self, name):
        # references at 1.001 x: the x = 0 rows follow a real basis and stay real
        fam = self.FAMILIES[name]
        refs = np.array([_frame_kernel(fam, 1.001 * x[None])[1][0] for x in self.XS])
        stacked, _, products = routes(lambda: _frame_kernel(fam, self.XS, refs))
        assert np.array_equal(products, [name == "real_gradient" and self.XS[:, 0] == 0.0])
        for i, x in enumerate(self.XS):
            single = _frame_kernel(fam, x[None], refs[i])
            for got, want in zip(stacked[:4], single[:4]):
                assert got[i].tobytes() == want[0].tobytes()

    @pytest.mark.parametrize("vectors", [True, False])
    def test_eigensolve_rows_match_one_row_calls(self, vectors):
        hs = self.FAMILIES["complex_gradient"].evaluate_many(self.XS)
        w, u, real = _eigh(hs, vectors)
        assert np.array_equal(real, self.XS[:, 0] == 0.0)
        for i in range(len(hs)):
            w1, u1, real1 = _eigh(hs[i:i + 1], vectors)
            assert real1 is bool(real[i])
            assert w[i].tobytes() == w1[0].tobytes()
            assert (u is None and u1 is None) if not vectors else u[i].tobytes() == u1[0].tobytes()

    def test_real_rows_of_a_real_frame(self):
        # alone, the x = 0 row of the real-gradient family is real throughout
        fam = self.FAMILIES["real_gradient"]
        w, u, gad, _, _ = _frame_kernel(fam, np.zeros((1, 1)))
        assert u.dtype == gad.dtype == np.complex128
        assert not u.imag.any() and not gad.imag.any()
        assert_allclose(gad[0, 0], [[0.0, 1.0], [1.0, 0.0]], atol=1e-15)


class TestRealFamily:
    def test_goe_frame_matches_complex_eigh(self):
        fam = random_linear_family(40, 2, "goe", seed=3)
        x = np.array([0.3, -0.4])
        frame, dtypes, products = routes(lambda: build_frame(fam, x))
        assert dtypes == [np.float64] and products == [True]
        assert frame.basis.dtype == np.complex128
        w, u = np.linalg.eigh(fam.evaluate(x).astype(np.complex128))
        assert_allclose(frame.eigenvalues, w, rtol=0, atol=1e-12 * np.abs(w).max())
        want = np.abs(u.conj().T @ fam.gradient(x) @ u)
        assert_allclose(np.abs(frame.grad_adiabatic), want, rtol=0, atol=1e-12 * want.max())
        closes_force_split(frame, fam)

    def test_degenerate_spectrum_takes_the_cluster_path(self):
        rng = np.random.default_rng(8)
        a, b = goe(3, rng), goe(3, rng)
        fam = MatrixPolynomialFamily([((0,), np.kron(np.eye(2), a)),
                                      ((1,), np.kron(np.eye(2), b))])
        with mock.patch("adiaframe.operators._align_to_reference",
                        wraps=_align_to_reference) as align:
            frames, dtypes, _ = routes(lambda: frame_path(fam, [[0.4], [0.41], [0.42]]))
        assert dtypes == [np.float64]
        assert align.call_count == 2                    # every row after the first
        for frame in frames:
            assert frame.spectrum.degenerate
            assert np.count_nonzero(frame.same_cluster) == 12
            closes_force_split(frame, fam)

    def test_kubo_friction_symmetric(self):
        fam = random_linear_family(30, 2, "goe", seed=5)
        gamma = kubo_friction(fam, [0.2, -0.1], 0.7).gamma
        asym = np.abs(gamma - gamma.T).max() / np.abs(gamma).max()
        assert asym <= active_profile().friction_symmetry
        assert np.all(np.diag(gamma) > 0.0)


# ---------------------------------------------------------------------------
# one eigensolve helper

EIGENSOLVERS = {"eigh", "eigvalsh"}
# the helper, and the two density-matrix spectra, which are not Hamiltonians
ALLOWED = {("src/adiaframe/operators.py", "_eigh"),
           ("src/adiaframe/entropy.py", "von_neumann_entropy"),
           ("src/adiaframe/dynamics.py", "QuantumState.validate")}


def eigensolver_uses(source: str) -> list:
    """(enclosing def, text, line) of each ``*.eigh``/``*.eigvalsh`` reference
    and each import of either name."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if isinstance(child, ast.Attribute) and child.attr in EIGENSOLVERS:
                found.append((scope, f".{child.attr}", child.lineno))
            elif isinstance(child, ast.ImportFrom):
                found.extend((scope, f"import {alias.name}", child.lineno)
                             for alias in child.names if alias.name in EIGENSOLVERS)
            visit(child, scope)

    visit(ast.parse(source), "")
    return found


def test_scan_flags_an_eigensolver_call():
    source = ("import numpy as np\nfrom numpy.linalg import eigvalsh\n"
              "class Q:\n    def f(self, a):\n        return np.linalg.eigh(a)\n"
              "def g(a):\n    return scipy.linalg.eigh(a), np.linalg.eig(a)\n")
    assert eigensolver_uses(source) == [("", "import eigvalsh", 2), ("Q.f", ".eigh", 5),
                                        ("g", ".eigh", 7)]


@pytest.mark.parametrize("path", FILES)
def test_hermitian_eigensolves_go_through_one_helper(path):
    uses = eigensolver_uses((ROOT / path).read_text())
    assert [use for use in uses if (path, use[0]) not in ALLOWED] == []


def test_each_allowed_use_exists():
    found = {(path, scope) for path in FILES
             for scope, _, _ in eigensolver_uses((ROOT / path).read_text())}
    assert ALLOWED <= found
