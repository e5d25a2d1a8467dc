import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from adiaframe import (
    DomainError,
    NumericalError,
    Spectrum,
    ValidationError,
    commutator,
    expectation,
    hermitian_eig,
    hermitize,
    require_hermitian,
    spectral_function,
)
from adiaframe.families import PAULI_X, PAULI_Y, PAULI_Z
from adiaframe.operators import _cluster_labels, _eigh


def random_hermitian(dim, rng):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2


class TestHermitianEig:
    def test_diagonal_input_sorted(self):
        spec = hermitian_eig(np.diag([2.0, 1.0, 3.0]))
        assert_allclose(spec.eigenvalues, [1.0, 2.0, 3.0])
        assert spec.permutation == (0, 1, 2)
        assert not spec.degenerate
        # gauge: columns of a permuted identity with +1 entries
        assert_allclose(np.abs(spec.basis), np.eye(3)[:, [1, 0, 2]], atol=1e-14)
        assert_allclose(spec.basis.imag, 0.0, atol=1e-14)

    @pytest.mark.parametrize("dim", [2, 3, 5, 8])
    def test_reconstruction_and_unitarity(self, dim):
        rng = np.random.default_rng(dim)
        for _ in range(5):
            h = random_hermitian(dim, rng)
            spec = hermitian_eig(h)
            u = spec.basis
            assert_allclose((u * spec.eigenvalues) @ u.conj().T, h, atol=1e-12 * np.abs(h).max())
            assert_allclose(u.conj().T @ u, np.eye(dim), atol=1e-12)
            assert_allclose(u.conj().T @ h @ u, np.diag(spec.eigenvalues), atol=1e-12)

    def test_gauge_leading_entry_real_positive(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            h = random_hermitian(5, rng)
            spec = hermitian_eig(h)
            lead = np.argmax(np.abs(spec.basis), axis=0)
            vals = spec.basis[lead, np.arange(5)]
            assert np.all(vals.real > 0.0)
            assert_allclose(vals.imag, 0.0, atol=1e-13)

    def test_gauge_deterministic_across_calls(self):
        rng = np.random.default_rng(3)
        h = random_hermitian(6, rng)
        a = hermitian_eig(h)
        b = hermitian_eig(h.copy())
        assert np.array_equal(a.basis, b.basis)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)

    def test_reference_keeps_labels_across_crossing(self):
        # W(x) = x*sigma_z has a true crossing at x = 0; threaded labels
        # follow the states, so the eigenvalue order inverts past it
        spec = None
        for x in (-1.0, -0.5, -0.05, 0.05, 0.5, 1.0):
            spec = hermitian_eig(x * PAULI_Z, reference=spec)
        assert_allclose(spec.eigenvalues, [1.0, -1.0])
        assert spec.permutation == (1, 0)
        assert_allclose(spec.basis, np.eye(2), atol=1e-12)

    def test_reference_phases_overlaps_positive(self):
        rng = np.random.default_rng(11)
        h = random_hermitian(4, rng)
        ref = hermitian_eig(h)
        h2 = h + 1e-3 * random_hermitian(4, rng)
        spec = hermitian_eig(h2, reference=ref)
        ov = np.einsum("ij,ij->j", ref.basis.conj(), spec.basis)
        assert np.all(ov.real > 0.99)
        assert_allclose(ov.imag, 0.0, atol=1e-12)

    def test_reference_shape_mismatch(self):
        with pytest.raises(ValidationError):
            hermitian_eig(PAULI_Z, reference=np.eye(3, dtype=complex))

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValidationError):
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_asymmetry_near_the_float_range_rejected(self):
        # A - A^dag overflows to inf here; the check still rejects, without a warning
        with pytest.raises(ValidationError, match="not self-adjoint"):
            require_hermitian(np.array([[1e308j, 0.0], [0.0, 0.0]]))

    def test_degenerate_flag(self):
        spec = hermitian_eig(np.eye(3))
        assert spec.degenerate
        spec2 = hermitian_eig(np.diag([0.0, 1.0, 2.0]))
        assert not spec2.degenerate


@settings(max_examples=60, deadline=None, derandomize=True)
@given(t=st.integers(1, 4), m=st.integers(1, 6), seed=st.integers(0, 2 ** 16),
       magnitude=st.integers(-12, 3),
       kind=st.sampled_from(["random", "degenerate", "chained", "on_the_gap"]))
def test_cluster_labels_match_the_diff_formula(t, m, seed, magnitude, kind):
    # bit for bit the labels of the np.diff form of the cluster rule
    rng = np.random.default_rng(seed)
    gap = 2.0 ** -30                   # a power of two: multiples of it subtract exactly
    w = rng.normal(size=(t, m)) * 10.0 ** magnitude
    if kind == "degenerate":
        w[:, : (m + 1) // 2] = w[:, :1]
    elif kind == "chained":            # neighbours just inside and outside the gap
        steps = gap * rng.choice([0.5, 0.999, 1.0, 1.001, 2.0], size=(t, m))
        w = w[:, :1] + np.cumsum(steps * np.maximum(np.abs(w[:, :1]), 1.0), axis=1)
    elif kind == "on_the_gap":         # scale 1, neighbour gaps of exactly 0, 1 or 2 gaps
        w = gap * np.cumsum(rng.integers(0, 3, size=(t, m)), axis=1)
    w = np.sort(w, axis=1)
    scale = np.maximum(np.maximum(w[..., -1] - w[..., 0], np.abs(w).max(axis=-1)), 1.0)
    expected = np.zeros(w.shape, dtype=int)
    (np.diff(w, axis=-1) >= gap * scale[..., None]).cumsum(axis=-1, out=expected[..., 1:])
    labels, near = _cluster_labels(w, gap)
    assert near is False
    assert labels.dtype == expected.dtype
    assert labels.tobytes() == expected.tobytes()


class TestCommutator:
    def test_pauli_algebra(self):
        assert_allclose(commutator(PAULI_X, PAULI_Y), 2j * PAULI_Z)
        assert_allclose(commutator(PAULI_Y, PAULI_Z), 2j * PAULI_X)
        assert_allclose(commutator(PAULI_Z, PAULI_X), 2j * PAULI_Y)

    def test_antisymmetry_and_antihermiticity(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            a = random_hermitian(4, rng)
            b = random_hermitian(4, rng)
            c = commutator(a, b)
            assert_allclose(c, -commutator(b, a), atol=1e-13)
            assert_allclose(c, -c.conj().T, atol=1e-13)

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            commutator(PAULI_Z, np.eye(3))


class TestExpectation:
    def test_trivials(self):
        assert expectation(np.eye(2) / 2, PAULI_Z) == pytest.approx(0.0)
        rho = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
        assert expectation(rho, PAULI_Z) == pytest.approx(1.0)

    def test_coherent_state(self):
        c = np.array([1.0, 1.0]) / np.sqrt(2.0)
        rho = np.outer(c, c.conj())
        assert expectation(rho, PAULI_X) == pytest.approx(1.0)
        assert expectation(rho, PAULI_Z) == pytest.approx(0.0)

    def test_imaginary_residual_raises(self):
        c = np.array([1.0, 1.0]) / np.sqrt(2.0)
        rho = np.outer(c, c.conj())
        skew = np.array([[0.0, 1j], [0.0, 0.0]])
        with pytest.raises(NumericalError):
            expectation(rho, skew)

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            expectation(np.eye(2) / 2, np.eye(3))


class TestSpectralFunction:
    def test_identity_function_reproduces_operator(self):
        rng = np.random.default_rng(5)
        h = random_hermitian(4, rng)
        assert_allclose(spectral_function(h, lambda w: w), h, atol=1e-12)

    def test_exponential_of_pauli_x(self):
        out = spectral_function(PAULI_X, np.exp)
        expected = np.cosh(1.0) * np.eye(2) + np.sinh(1.0) * PAULI_X
        assert_allclose(out, expected, atol=1e-12)

    def test_diagonal_staircase_exact(self):
        h = np.diag([0.0, 1.0, 2.0, 3.0])
        step = spectral_function(h, lambda w: float(w >= 1.5))
        assert_allclose(step, np.diag([0.0, 0.0, 1.0, 1.0]))

    def test_square_then_compare(self):
        rng = np.random.default_rng(8)
        h = random_hermitian(3, rng)
        assert_allclose(spectral_function(h, lambda w: w * w), h @ h, atol=1e-12)

    def test_domain_error(self):
        import math
        with pytest.raises(DomainError):
            spectral_function(PAULI_Z, math.log)

    @pytest.mark.parametrize("h", [PAULI_Z, PAULI_X + 0.5 * PAULI_Z], ids=["diagonal", "eigensolved"])
    def test_function_raising_is_a_domain_error(self, h):
        def f(w):
            raise ZeroDivisionError("no value here")

        with pytest.raises(DomainError, match=r"function undefined at eigenvalue .*: no value here") as err:
            spectral_function(h, f)
        assert isinstance(err.value.__cause__, ZeroDivisionError)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_is_a_domain_error(self, value):
        with pytest.raises(DomainError, match=r"non-finite values at eigenvalues \[1\.\]"):
            spectral_function(np.diag([-1.0, 1.0]), lambda w: value if w > 0 else w)


class TestEigensolverFailure:
    """A LinAlgError from LAPACK comes out of ``_eigh`` as a NumericalError."""

    STACKS = {
        "real": np.array([PAULI_Z, PAULI_X]),
        "complex": np.array([PAULI_Y, PAULI_Y + PAULI_Z]),
        "mixed": np.array([PAULI_X, PAULI_Y]),
    }

    @pytest.mark.parametrize("vectors", [True, False])
    @pytest.mark.parametrize("kind", sorted(STACKS))
    def test_linalg_error_becomes_numerical_error(self, monkeypatch, kind, vectors):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh" if vectors else "eigvalsh", fail)
        with pytest.raises(NumericalError, match=r"eigensolver failed to converge on a 2x2 matrix") as err:
            _eigh(self.STACKS[kind].astype(complex), vectors)
        assert isinstance(err.value.__cause__, np.linalg.LinAlgError)


class TestHermitize:
    def test_projects_onto_hermitian_part(self):
        a = np.array([[1.0, 2.0 + 1j], [0.0, 3.0]])
        h = hermitize(a)
        assert_allclose(h, h.conj().T)
        assert_allclose(h[0, 1], (a[0, 1] + np.conj(a[1, 0])) / 2)

    def test_spectrum_dataclass_roundtrip(self):
        spec = Spectrum(np.array([1.0, 2.0]), np.eye(2, dtype=complex))
        assert spec.dim == 2
        assert spec.permutation == (0, 1)
        assert_allclose((spec.basis * spec.eigenvalues) @ spec.basis.conj().T,
                        np.diag([1.0, 2.0]))
