"""Ready-made Hamiltonian families and random-matrix draws."""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .frames import CallableFamily, HamiltonianFamily
from .operators import require_hermitian
from .units import HBAR

__all__ = [
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "IDENTITY2",
    "MatrixPolynomialFamily",
    "rotating_field_family",
    "avoided_crossing_family",
    "goe",
    "gue",
    "random_linear_family",
]

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY2 = np.eye(2, dtype=complex)


class MatrixPolynomialFamily(HamiltonianFamily):
    """H(x) = sum over terms of (prod_k x_k^e_k) * M, with Hermitian M.

    ``terms`` is a sequence of ``(exponents, matrix)`` pairs; every exponent
    tuple must have one nonnegative integer per coordinate.  The gradient is
    analytic (term-by-term differentiation of the monomials).
    """

    def __init__(self, terms, fd_step=1e-5):
        terms = list(terms)
        if not terms:
            raise ValidationError("polynomial family needs at least one term")
        exps0, mat0 = terms[0]
        n = len(tuple(exps0))
        dim = np.asarray(mat0).shape[0]
        super().__init__(n, dim, fd_step)
        checked = []
        for exps, mat in terms:
            exps = tuple(int(e) for e in exps)
            if len(exps) != n or any(e < 0 for e in exps):
                raise ValidationError(f"exponent tuple {exps} invalid for {n} coordinate(s)")
            mat = require_hermitian(mat, name="polynomial term matrix")
            if mat.shape != (dim, dim):
                raise ValidationError("all term matrices must share one dimension")
            checked.append((exps, mat))
        # the terms stacked once: exponents [term, k] and matrices [term, i, j],
        # with each term's matrix a view of the stack
        self._exps = np.array([exps for exps, _ in checked])
        self._mats = np.array([mat for _, mat in checked])
        self.terms = [(exps, mat) for (exps, _), mat in zip(checked, self._mats)]

    def evaluate_many(self, xs):
        xs = self._coerce_xs(xs)
        return np.einsum("tj,jab->tab", np.prod(xs[:, None, :] ** self._exps, axis=-1),
                         self._mats)

    def gradient_many(self, xs):
        # d/dx_k of prod_i x_i^e_i = e_k x_k^(e_k - 1) prod_{i != k} x_i^e_i
        xs, exps = self._coerce_xs(xs), self._exps
        lowered = exps[None, :, :] - np.eye(self.n_coords, dtype=int)[:, None, :]
        coeff = exps.T * np.prod(xs[:, None, None, :] ** np.maximum(lowered, 0), axis=-1)
        return np.einsum("tkj,jab->tkab", coeff, self._mats)


def rotating_field_family(gamma: float = 1.0, b0: float = 1.0) -> CallableFamily:
    """Spin-1/2 in a field of constant magnitude whose direction rotates with x.

    H(x) = -(hbar*gamma*b0/2) (sin x * sigma_x + cos x * sigma_z).  The
    eigenvalues are constant (+-hbar*gamma*b0/2) while the eigenframe turns,
    so the adiabatic force vanishes and the connection is exactly
    (hbar/2) * sigma_y.
    """
    a = 0.5 * HBAR * gamma * b0

    def h(x):
        return -a * (np.sin(x[0]) * PAULI_X + np.cos(x[0]) * PAULI_Z)

    def dh(x):
        return np.array([-a * (np.cos(x[0]) * PAULI_X - np.sin(x[0]) * PAULI_Z)])

    return CallableFamily(1, 2, h, dh)


def avoided_crossing_family(slope: float = 1.0, gap: float = 0.25) -> MatrixPolynomialFamily:
    """Two-level sweep H(x) = slope*x*sigma_z + gap*sigma_x (minimum gap 2*gap)."""
    if gap == 0.0:
        raise ValidationError("gap must be nonzero, otherwise the levels truly cross")
    return MatrixPolynomialFamily([((1,), slope * PAULI_Z), ((0,), gap * PAULI_X)])


def goe(dim: int, rng) -> np.ndarray:
    """Real symmetric Gaussian matrix (A + A^T)/2 with ~N(0,1) entries."""
    a = rng.standard_normal((dim, dim))
    return (a + a.T) * 0.5


def gue(dim: int, rng) -> np.ndarray:
    """Complex Hermitian Gaussian matrix (B + B^dag)/2."""
    b = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (b + b.conj().T) * 0.5


def random_linear_family(dim: int, n_coords: int = 1, ensemble: str = "goe",
                         seed=0, scale: float = 1.0) -> MatrixPolynomialFamily:
    """W(x) = A + sum_k x_k B_k with A, B_k drawn from a Gaussian ensemble."""
    rng = np.random.default_rng(seed)
    draw = {"goe": goe, "gue": gue}.get(ensemble)
    if draw is None:
        raise ValidationError(f"unknown ensemble '{ensemble}' (use 'goe' or 'gue')")
    zero = (0,) * n_coords
    terms = [(zero, draw(dim, rng))]
    for k in range(n_coords):
        exps = tuple(1 if j == k else 0 for j in range(n_coords))
        terms.append((exps, scale * draw(dim, rng)))
    return MatrixPolynomialFamily(terms)
