from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from adiaframe import (
    CallableFamily,
    DegeneracyError,
    DegenerateFrameWarning,
    MatrixPolynomialFamily,
    avoided_crossing_family,
    build_frame,
    connection_ops,
    diabatic_forces,
    forces,
    frame_path,
    hermitian_eig,
    moving_frame_hamiltonian,
    QuantumState,
    random_linear_family,
    rotating_field_family,
    run_driven,
    uniform_drive,
)
from adiaframe.errors import ValidationError
from adiaframe.families import PAULI_X, PAULI_Y, PAULI_Z
from adiaframe.operators import Spectrum

SIGMA_Y_HALF = 0.5 * np.array([[0.0, -1j], [1j, 0.0]])


class TestBuildFrame:
    def test_two_level_closed_form(self):
        fam = avoided_crossing_family(1.3, 0.4)
        frame = build_frame(fam, [0.6])
        a, b = 1.3 * 0.6, 0.4
        r = np.hypot(a, b)
        assert_allclose(frame.eigenvalues, [-r, r], atol=1e-12)
        # |P_01| = slope*gap / (2 r^2) for H = slope*x*sz + gap*sx
        assert_allclose(abs(frame.connections[0, 0, 1]), 1.3 * 0.4 / (2 * r * r),
                        atol=1e-12)

    def test_connections_hermitian_zero_diagonal(self):
        fam = random_linear_family(5, 2, "gue", seed=4)
        frame = build_frame(fam, [0.2, -0.4])
        for p in frame.connections:
            assert_allclose(p, p.conj().T, atol=1e-12)
            assert_allclose(np.diagonal(p), 0.0, atol=1e-12)

    def test_rotating_field_constant_levels_and_connection(self):
        fam = rotating_field_family(gamma=1.5, b0=0.8)
        for x in (-1.0, 0.3, 0.9):
            frame = build_frame(fam, [x])
            assert_allclose(frame.eigenvalues, [-0.6, 0.6], atol=1e-12)
            assert_allclose(frame.connections[0], SIGMA_Y_HALF, atol=1e-12)
        # far from the gauge's pivot only the magnitude is fixed
        frame = build_frame(fam, [2.2])
        assert_allclose(np.abs(frame.connections[0]), np.abs(SIGMA_Y_HALF),
                        atol=1e-12)

    def test_constant_family_no_connection(self):
        fam = MatrixPolynomialFamily([((0,), 1.0 * PAULI_Z + 0.3 * PAULI_X)])
        frame = build_frame(fam, [1.7])
        assert_allclose(frame.connections, 0.0, atol=1e-13)
        fp = forces(fam, frame)
        assert_allclose(fp.total, 0.0, atol=1e-13)

    def test_grad_cached(self):
        fam = avoided_crossing_family()
        frame = build_frame(fam, [0.5])
        assert frame.grad_adiabatic is not None
        assert frame.grad_adiabatic.shape == (1, 2, 2)


class TestConnectionMethods:
    def test_finite_difference_converges_to_perturbative(self):
        fam = random_linear_family(4, 2, "gue", seed=9)
        x = np.array([0.3, -0.7])
        frame = build_frame(fam, x)
        errs = []
        for h in (1e-3, 5e-4):
            p_fd = connection_ops(fam, x, frame.spectrum,
                                  method="finite_difference", fd_step=h)
            errs.append(np.abs(p_fd - frame.connections).max())
        ratio = errs[0] / errs[1]
        assert 3.7 < ratio < 4.3

    def test_finite_difference_diagonal_small(self):
        fam = rotating_field_family(gamma=2.0, b0=1.0)
        frame = build_frame(fam, [0.4])
        p_fd = connection_ops(fam, [0.4], frame.spectrum,
                              method="finite_difference", fd_step=1e-5)
        scale = max(np.abs(p_fd).max(), 1.0)
        assert np.abs(np.einsum("kii->ki", p_fd)).max() < 5e-8 * scale

    def test_unknown_method(self):
        fam = avoided_crossing_family()
        frame = build_frame(fam, [0.5])
        with pytest.raises(ValidationError):
            connection_ops(fam, [0.5], frame.spectrum, method="nope")

    def test_degenerate_perturbative_raises(self):
        fam = MatrixPolynomialFamily([((1,), np.diag([1.0, 1.0, 2.0]).astype(complex))])
        spec = hermitian_eig(fam.evaluate([1.0]))
        assert spec.degenerate
        with pytest.raises(DegeneracyError):
            connection_ops(fam, [1.0], spec, method="perturbative")

    def test_degenerate_auto_falls_back_with_warning(self):
        fam = MatrixPolynomialFamily([((1,), np.diag([1.0, 1.0, 2.0]).astype(complex))])
        spec = hermitian_eig(fam.evaluate([1.0]))
        with pytest.warns(DegenerateFrameWarning):
            p = connection_ops(fam, [1.0], spec, method="auto")
        # diagonal gradient family: eigenvectors never rotate
        assert_allclose(p, 0.0, atol=1e-9)


class TestForces:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_decomposition_identity(self, seed):
        fam = random_linear_family(5, 2, "gue", seed=seed)
        x = np.array([0.4, 0.9])
        frame = build_frame(fam, x)
        fp = forces(fam, frame)
        target = -frame.grad_adiabatic
        assert_allclose(fp.total, target, atol=1e-10 * np.abs(target).max())

    def test_structure(self):
        fam = random_linear_family(4, 1, "goe", seed=12)
        frame = build_frame(fam, [1.1])
        fp = forces(fam, frame)
        for k in range(fam.n_coords):
            fa = fp.adiabatic[k]
            assert_allclose(fa, np.diag(np.diagonal(fa)), atol=1e-13)
            assert_allclose(fa.imag, 0.0, atol=1e-13)
            fd = fp.diabatic[k]
            assert_allclose(np.diagonal(fd), 0.0, atol=1e-13)
            assert_allclose(fd, fd.conj().T, atol=1e-12)

    def test_hellmann_feynman_gradient(self):
        fam = random_linear_family(4, 1, "goe", seed=6)
        h = 1e-5
        wp = np.linalg.eigvalsh(fam.evaluate([0.5 + h]))
        wm = np.linalg.eigvalsh(fam.evaluate([0.5 - h]))
        frame = build_frame(fam, [0.5])
        grad_w = np.einsum("kjj->kj", frame.grad_adiabatic).real
        assert_allclose(grad_w[0], (wp - wm) / (2 * h), atol=1e-8)

    def test_diabatic_from_commutator(self):
        fam = avoided_crossing_family(2.0, 0.3)
        frame = build_frame(fam, [-0.2])
        w = np.diag(frame.eigenvalues.astype(complex))
        for k in range(fam.n_coords):
            direct = -1j * (w @ frame.connections[k] - frame.connections[k] @ w)
            assert_allclose(diabatic_forces(frame)[k], direct, atol=1e-13)


@settings(max_examples=40)
@given(dim=st.integers(2, 6), n_coords=st.integers(1, 2), ensemble=st.sampled_from(["goe", "gue"]),
       seed=st.integers(0, 2 ** 16), x=st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2))
def test_force_split_identity(dim, n_coords, ensemble, seed, x):
    # F_k + f_k = -U^dag dH/dx^k U, F_k diagonal, f_k with a zero diagonal
    fam = random_linear_family(dim, n_coords, ensemble, seed=seed)
    frame = build_frame(fam, x[:n_coords])
    fp = forces(fam, frame)
    u = frame.basis
    target = -(u.conj().T @ fam.gradient(x[:n_coords]) @ u)
    assert_allclose(fp.total, target, rtol=0, atol=1e-12 * np.abs(target).max())
    off = ~np.eye(dim, dtype=bool)
    assert np.all(fp.adiabatic[:, off] == 0.0)
    assert np.all(np.einsum("kii->ki", fp.diabatic) == 0.0)


class TestGaugeRule:
    @settings(max_examples=30)
    @given(dim=st.integers(2, 6), seed=st.integers(0, 2 ** 16), x=st.floats(-1.0, 1.0),
           step=st.floats(-1e-3, 1e-3))
    def test_phase_only_path_matches_hermitian_eig(self, dim, seed, x, step):
        fam = random_linear_family(dim, 1, "gue", seed=seed)
        with mock.patch("adiaframe.frames.hermitian_eig", side_effect=AssertionError("fell back")):
            first = build_frame(fam, [x])
            frame = build_frame(fam, [x + step], prev=first)
        for got, spec in ((first, hermitian_eig(fam.evaluate([x]))),
                          (frame, hermitian_eig(fam.evaluate([x + step]), reference=first.basis))):
            assert np.array_equal(got.basis, spec.basis)
            assert np.array_equal(got.eigenvalues, spec.eigenvalues)
            assert got.spectrum.permutation == spec.permutation
            assert not got.spectrum.degenerate

    def test_frame_path_takes_assignment_across_true_crossing(self):
        # W(x) = x*sigma_z: consecutive bases across x = 0 do not overlap
        fam = MatrixPolynomialFamily([((1,), PAULI_Z)])
        xs = [-1.0, -0.5, -0.05, 0.05, 0.5, 1.0]
        with mock.patch("adiaframe.frames.hermitian_eig", wraps=hermitian_eig) as eig:
            frames = frame_path(fam, xs)
        assert eig.call_count == len(xs)
        assert [fr.spectrum.permutation for fr in frames] == [(0, 1)] * 3 + [(1, 0)] * 3
        assert_allclose(frames[-1].eigenvalues, [1.0, -1.0])
        assert_allclose(frames[-1].basis, np.eye(2), atol=1e-12)

    def test_run_driven_follows_true_crossing_and_closes_ledger(self):
        fam = MatrixPolynomialFamily([((1,), PAULI_Z)])
        state = QuantumState.from_rho(np.diag([0.7, 0.3]).astype(complex))
        with mock.patch("adiaframe.frames.hermitian_eig", wraps=hermitian_eig) as eig:
            traj = run_driven(fam, uniform_drive([-0.99], [1.0]), state, 2.0, 10)
        assert eig.call_count == 21
        # labels follow the states: level 0 keeps W = x, level 1 keeps W = -x
        x_end = traj.x[-1, 0]
        assert_allclose(traj.e_mean[-1], 0.7 * x_end - 0.3 * x_end, rtol=1e-12)
        assert_allclose(traj.populations[-1], [0.7, 0.3], atol=1e-12)
        d_e = traj.e_mean[-1] - traj.e_mean[0]
        assert abs(d_e - traj.q_cum[-1] - traj.w_cum[-1]) <= 1e-12 * abs(d_e)


class TestGaugeInvariance:
    def test_connection_magnitudes_gauge_independent(self):
        rng = np.random.default_rng(21)
        fam = random_linear_family(4, 1, "gue", seed=13)
        x = np.array([0.7])
        frame = build_frame(fam, x)
        # re-derive the frame against a randomly re-phased reference
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=4))
        ref = Spectrum(frame.eigenvalues, frame.basis * phases[None, :])
        spec2 = hermitian_eig(fam.evaluate(x), reference=ref)
        p2 = connection_ops(fam, x, spec2, method="perturbative")
        assert_allclose(np.abs(p2), np.abs(frame.connections), atol=1e-10)
        assert_allclose(spec2.eigenvalues, frame.eigenvalues, atol=1e-12)


class TestMovingFrame:
    def test_rotating_field_generator(self):
        fam = rotating_field_family(gamma=1.5, b0=0.8)
        frame = build_frame(fam, [0.9])
        h_mov = moving_frame_hamiltonian(frame, [0.7])
        expected = np.diag([-0.6, 0.6]).astype(complex) - 0.7 * SIGMA_Y_HALF
        assert_allclose(h_mov, expected, atol=1e-12)

    def test_zero_velocity_is_diagonal(self):
        fam = avoided_crossing_family()
        frame = build_frame(fam, [0.3])
        assert_allclose(moving_frame_hamiltonian(frame, [0.0]),
                        np.diag(frame.eigenvalues.astype(complex)), atol=1e-13)

    def test_velocity_shape_checked(self):
        fam = avoided_crossing_family()
        frame = build_frame(fam, [0.3])
        with pytest.raises(ValidationError):
            moving_frame_hamiltonian(frame, [1.0, 2.0])


class TestFramePath:
    def test_threading_keeps_overlaps_positive(self):
        fam = avoided_crossing_family(1.0, 0.2)
        xs = np.linspace(-2.0, 2.0, 41)[:, None]
        frames = frame_path(fam, xs)
        for prev, nxt in zip(frames[:-1], frames[1:]):
            ov = np.einsum("ij,ij->j", prev.basis.conj(), nxt.basis)
            assert np.all(ov.real > 0.9)

    def test_family_dimension_guard(self):
        fam = CallableFamily(1, 2, lambda x: np.eye(3, dtype=complex))
        with pytest.raises(ValidationError):
            build_frame(fam, [0.0])


class TestFamilies:
    def test_polynomial_gradient_matches_fd(self):
        fam = MatrixPolynomialFamily([
            ((2, 0), 0.5 * PAULI_Z),
            ((0, 1), 0.3 * PAULI_X),
            ((1, 1), 0.2 * PAULI_Y),
        ])
        x = np.array([0.7, -1.2])
        g = fam.gradient(x)
        h = 1e-6
        for k in range(2):
            xp, xm = x.copy(), x.copy()
            xp[k] += h
            xm[k] -= h
            fd = (fam.evaluate(xp) - fam.evaluate(xm)) / (2 * h)
            assert_allclose(g[k], fd, atol=1e-8)

    def test_callable_family_default_fd_gradient(self):
        fam = CallableFamily(1, 2, lambda x: np.cos(x[0]) * PAULI_Z + np.sin(x[0]) * PAULI_X)
        g = fam.gradient([0.4])
        expected = -np.sin(0.4) * PAULI_Z + np.cos(0.4) * PAULI_X
        assert_allclose(g[0], expected, atol=1e-8)

    def test_zero_gap_rejected(self):
        with pytest.raises(ValidationError):
            avoided_crossing_family(1.0, 0.0)

    def test_polynomial_rejects_non_hermitian_term(self):
        with pytest.raises(ValidationError):
            MatrixPolynomialFamily([((1,), np.array([[0.0, 1.0], [0.0, 0.0]]))])

    def test_random_linear_family_seeded(self):
        a = random_linear_family(4, 2, "goe", seed=5)
        b = random_linear_family(4, 2, "goe", seed=5)
        for (ea, ma), (eb, mb) in zip(a.terms, b.terms):
            assert ea == eb
            assert np.array_equal(ma, mb)
        with pytest.raises(ValidationError):
            random_linear_family(4, 1, "poisson")
