import sys
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from adiaframe import (
    AdiabaticFrame,
    CallableFamily,
    HamiltonianFamily,
    MatrixPolynomialFamily,
    avoided_crossing_family,
    build_frame,
    frame_path,
    gue,
    haar_unitary,
    hermitian_eig,
    hermitize,
    kubo_friction,
    moving_frame_hamiltonian,
    QuantumState,
    random_density_matrix,
    random_linear_family,
    rotating_field_family,
    run_driven,
    uniform_drive,
)
from adiaframe.errors import ValidationError
from adiaframe.families import PAULI_X, PAULI_Y, PAULI_Z
from adiaframe import frames
from adiaframe.frames import (_connections, _evaluate_checked, _finite_difference_connections,
                              _frame_kernel)
from adiaframe.operators import Spectrum, _align_to_reference

SIGMA_Y_HALF = 0.5 * np.array([[0.0, -1j], [1j, 0.0]])
# relative bound on how far F and f move under a change of gauge inside the
# degeneracy clusters
GAUGE_INVARIANCE = 1e-10


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
        assert_allclose(frame.adiabatic + frame.diabatic, 0.0, atol=1e-13)

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
            p_fd = _finite_difference_connections(fam, x, frame.spectrum, fd_step=h)
            errs.append(np.abs(p_fd - frame.connections).max())
        ratio = errs[0] / errs[1]
        assert 3.7 < ratio < 4.3

    def test_finite_difference_diagonal_small(self):
        fam = rotating_field_family(gamma=2.0, b0=1.0)
        frame = build_frame(fam, [0.4])
        p_fd = _finite_difference_connections(fam, [0.4], frame.spectrum, fd_step=1e-5)
        scale = max(np.abs(p_fd).max(), 1.0)
        assert np.abs(np.einsum("kii->ki", p_fd)).max() < 5e-8 * scale

    def test_degenerate_perturbative_is_block_formula(self):
        fam = MatrixPolynomialFamily([((1,), np.diag([1.0, 1.0, 2.0]).astype(complex))])
        frame = build_frame(fam, [1.0])
        assert frame.spectrum.degenerate
        p = frame.connections
        # zero inside the cluster {0, 1}; the gap formula to level 2, the
        # finite-difference oracle's value
        assert np.all(p[:, :2, :2] == 0.0)
        p_fd = _finite_difference_connections(fam, [1.0], frame.spectrum)
        assert_allclose(p, p_fd, atol=1e-9)

    def test_degenerate_default_needs_no_fallback(self):
        fam = MatrixPolynomialFamily([((1,), np.diag([1.0, 1.0, 2.0]).astype(complex))])
        # diagonal gradient family: eigenvectors never rotate
        assert_allclose(build_frame(fam, [1.0]).connections, 0.0, atol=1e-9)


class TestForces:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_decomposition_identity(self, seed):
        fam = random_linear_family(5, 2, "gue", seed=seed)
        x = np.array([0.4, 0.9])
        frame = build_frame(fam, x)
        target = -frame.grad_adiabatic
        assert_allclose(frame.adiabatic + frame.diabatic, target, atol=1e-10 * np.abs(target).max())

    def test_structure(self):
        fam = random_linear_family(4, 1, "goe", seed=12)
        frame = build_frame(fam, [1.1])
        for k in range(fam.n_coords):
            fa = frame.adiabatic[k]
            assert_allclose(fa, np.diag(np.diagonal(fa)), atol=1e-13)
            assert_allclose(fa.imag, 0.0, atol=1e-13)
            fd = frame.diabatic[k]
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
            assert_allclose(frame.diabatic[k], direct, atol=1e-13)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(dim=st.integers(2, 6), n_coords=st.integers(1, 2), ensemble=st.sampled_from(["goe", "gue"]),
       seed=st.integers(0, 2 ** 16), x=st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=2))
def test_force_split_identity(dim, n_coords, ensemble, seed, x):
    # F_k + f_k = -U^dag dH/dx^k U, F_k block-diagonal on the cluster mask,
    # f_k zero on it; the mask is the identity on these generic draws
    fam = random_linear_family(dim, n_coords, ensemble, seed=seed)
    frame = build_frame(fam, x[:n_coords])
    u = frame.basis
    target = -(u.conj().T @ fam.gradient(x[:n_coords]) @ u)
    assert_allclose(frame.adiabatic + frame.diabatic, target, rtol=0,
                    atol=1e-12 * np.abs(target).max())
    assert np.array_equal(frame.same_cluster, np.eye(dim, dtype=bool))
    assert np.all(frame.adiabatic[:, ~frame.same_cluster] == 0.0)
    assert np.all(frame.diabatic[:, frame.same_cluster] == 0.0)


class TestGaugeRule:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(dim=st.integers(2, 6), seed=st.integers(0, 2 ** 16), x=st.floats(-1.0, 1.0),
           step=st.floats(-1e-3, 1e-3))
    def test_phase_only_path_matches_hermitian_eig(self, dim, seed, x, step):
        fam = random_linear_family(dim, 1, "gue", seed=seed)
        with mock.patch("adiaframe.operators._align_to_reference", side_effect=AssertionError("fell back")):
            first = build_frame(fam, [x])
            frame = build_frame(fam, [x + step], prev=first)
        for got, spec in ((first, hermitian_eig(fam.evaluate([x]))),
                          (frame, hermitian_eig(fam.evaluate([x + step]), reference=first.basis))):
            assert np.array_equal(got.basis, spec.basis)
            assert np.array_equal(got.eigenvalues, spec.eigenvalues)
            assert got.spectrum.permutation == spec.permutation
            assert not got.spectrum.degenerate

    @pytest.mark.parametrize("case", ["crossing", "degenerate", "degenerate_no_reference"])
    def test_fallback_paths_match_hermitian_eig(self, case):
        # hermitian_eig is the kernel's gauge on a stack of one, also where
        # the gauge aligns by assignment and cluster rotation
        if case == "crossing":      # W(x) = x*sigma_z, reference across x = 0
            fam, x, ref_x = MatrixPolynomialFamily([((1,), PAULI_Z)]), [0.05], [-0.05]
        else:                       # levels 0 and 1 degenerate at x = 0
            fam, x, ref_x = TestDegenerateSpectra.FAMILY, [0.0, 0.0], [1e-3, -2e-3]
        ref = None if case == "degenerate_no_reference" else hermitian_eig(fam.evaluate(ref_x)).basis
        with mock.patch("adiaframe.operators._align_to_reference", wraps=_align_to_reference) as align:
            w, u, _, same, perms, _ = _frame_kernel(fam, np.array([x]), ref)
            spec = hermitian_eig(fam.evaluate(x), reference=ref)
        assert align.call_count == (0 if ref is None else 2)
        assert np.array_equal(u[0], spec.basis)
        assert np.array_equal(w[0], spec.eigenvalues)
        assert Spectrum(w[0], u[0], perms[0]).permutation == spec.permutation
        assert (np.count_nonzero(same[0]) > fam.dim) == spec.degenerate == (case != "crossing")
        if case == "crossing":
            assert spec.permutation == (1, 0)

    def test_frame_path_takes_assignment_across_true_crossing(self):
        # W(x) = x*sigma_z: consecutive bases across x = 0 do not overlap
        fam = MatrixPolynomialFamily([((1,), PAULI_Z)])
        xs = [-1.0, -0.5, -0.05, 0.05, 0.5, 1.0]
        with mock.patch("adiaframe.operators._align_to_reference", wraps=_align_to_reference) as align:
            frames = frame_path(fam, xs)
        assert align.call_count == len(xs) - 1
        assert [fr.spectrum.permutation for fr in frames] == [(0, 1)] * 3 + [(1, 0)] * 3
        assert_allclose(frames[-1].eigenvalues, [1.0, -1.0])
        assert_allclose(frames[-1].basis, np.eye(2), atol=1e-12)

    def test_run_driven_follows_true_crossing_and_closes_ledger(self):
        fam = MatrixPolynomialFamily([((1,), PAULI_Z)])
        state = QuantumState.from_rho(np.diag([0.7, 0.3]).astype(complex))
        with mock.patch("adiaframe.operators._align_to_reference", wraps=_align_to_reference) as align:
            traj = run_driven(fam, uniform_drive([-0.99], [1.0]), state, 2.0, 10)
        assert align.call_count == 20
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
        u2 = spec2.basis
        p2 = _connections(spec2.eigenvalues, u2.conj().T @ fam.gradient(x) @ u2, frame.same_cluster)
        assert_allclose(np.abs(p2), np.abs(frame.connections), atol=1e-10)
        assert_allclose(spec2.eigenvalues, frame.eigenvalues, atol=1e-12)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(block=st.integers(1, 3), copies=st.integers(2, 3), extra=st.integers(0, 2),
           n_coords=st.integers(1, 2), seed=st.integers(0, 2 ** 16))
    def test_block_split_gauge_covariant(self, block, copies, extra, n_coords, seed):
        # H(x) = V0 (A + ... + A + B) V0^dag + x^k G_k at x = 0: each level of
        # the repeated block A is an exactly degenerate cluster, which G_k splits
        rng = np.random.default_rng(seed)
        dim = block * copies + extra
        h0 = np.zeros((dim, dim), dtype=complex)
        a = gue(block, rng)
        for c in range(copies):
            h0[c * block:(c + 1) * block, c * block:(c + 1) * block] = a
        if extra:
            h0[-extra:, -extra:] = 4.0 * np.eye(extra) + gue(extra, rng)
        v0 = haar_unitary(dim, rng)
        fam = MatrixPolynomialFamily(
            [((0,) * n_coords, hermitize(v0 @ h0 @ v0.conj().T))]
            + [(tuple(int(j == k) for j in range(n_coords)), gue(dim, rng)) for k in range(n_coords)])
        x = np.zeros(n_coords)
        frame = build_frame(fam, x)
        assert frame.spectrum.degenerate

        # a random U(k) inside each cluster, then random column phases
        v = np.zeros((dim, dim), dtype=complex)
        for cluster in np.unique(frame.same_cluster, axis=0):
            idx = np.flatnonzero(cluster)
            v[np.ix_(idx, idx)] = haar_unitary(len(idx), rng)
        v *= np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, dim))[None, :]
        u = frame.basis @ v
        gad = u.conj().T @ fam.gradient(x) @ u
        p = _connections(frame.eigenvalues, gad, frame.same_cluster)
        turned = AdiabaticFrame(x=x, spectrum=Spectrum(frame.eigenvalues, u), connections=p,
                                grad_adiabatic=gad, same_cluster=frame.same_cluster)
        rho = random_density_matrix(dim, rng)
        for name in ("adiabatic", "diabatic"):
            op, op_turned = getattr(frame, name), getattr(turned, name)
            scale = max(1.0, np.abs(op).max())
            assert_allclose(op_turned, v.conj().T @ op @ v, rtol=0, atol=GAUGE_INVARIANCE * scale)
            assert_allclose(np.einsum("kij,ji->k", op_turned, v.conj().T @ rho @ v),
                            np.einsum("kij,ji->k", op, rho), rtol=0, atol=GAUGE_INVARIANCE * scale)


class TestDegenerateSpectra:
    # H = diag(0, 0, 2) + x B + y C at x = y = 0, where B couples the
    # degenerate levels 0 and 1
    B = np.array([[0.0, 1.0, 0.3], [1.0, 0.0, 0.0], [0.3, 0.0, 0.5]], dtype=complex)
    C = np.array([[0.2, 0.0, 0.0], [0.0, -0.4, 0.7j], [0.0, -0.7j, 0.0]])
    FAMILY = MatrixPolynomialFamily([((0, 0), np.diag([0.0, 0.0, 2.0]).astype(complex)),
                                     ((1, 0), B), ((0, 1), C)])

    def test_forces_split_block_wise(self):
        frame = build_frame(self.FAMILY, [0.0, 0.0])
        assert frame.spectrum.degenerate
        u = frame.basis
        target = -(u.conj().T @ self.FAMILY.gradient([0.0, 0.0]) @ u)
        assert_allclose(frame.adiabatic + frame.diabatic, target, rtol=0,
                        atol=1e-12 * np.abs(target).max())
        inside = frame.same_cluster & ~np.eye(3, dtype=bool)
        assert np.abs(frame.adiabatic[0][inside]).min() > 0.5
        assert np.all(frame.adiabatic[:, ~frame.same_cluster] == 0.0)
        assert np.all(frame.diabatic[:, frame.same_cluster] == 0.0)

    def test_kubo_friction_symmetric(self):
        gamma = kubo_friction(self.FAMILY, [0.0, 0.0], 1.0).gamma
        assert gamma.shape == (2, 2)
        assert_allclose(gamma, gamma.T, rtol=1e-12, atol=0)
        assert np.all(np.diag(gamma) > 0.0)


class TestPerRowReference:
    """The kernel's per-row reference mode is B single-row calls, bit for bit."""

    @staticmethod
    def assert_rows_match(fam, xs, refs):
        stacked = _frame_kernel(fam, xs, refs)
        for i in range(len(xs)):
            single = _frame_kernel(fam, xs[i:i + 1], refs[i])
            for got, want in zip(stacked[:4], single[:4]):
                assert np.array_equal(got[i], want[0])
            assert stacked[4][i] == single[4][0]
        return stacked

    def test_nondegenerate_step(self):
        fam = random_linear_family(6, 2, "gue", seed=17)
        rng = np.random.default_rng(4)
        x0 = rng.uniform(-1.0, 1.0, (5, 2))
        refs = np.array([_frame_kernel(fam, x[None])[1][0] for x in x0])
        with mock.patch("adiaframe.operators._align_to_reference", side_effect=AssertionError("fell back")):
            self.assert_rows_match(fam, x0 + rng.uniform(-1e-3, 1e-3, x0.shape), refs)

    def test_degenerate_row_sends_every_row_to_the_align_path(self):
        fam = TestDegenerateSpectra.FAMILY
        x1 = np.array([[0.3, -0.2], [0.0, 0.0], [-0.1, 0.4]])
        refs = np.array([_frame_kernel(fam, x[None])[1][0] for x in x1 + 1e-3])
        with mock.patch("adiaframe.operators._align_to_reference", wraps=_align_to_reference) as align:
            stacked = self.assert_rows_match(fam, x1, refs)
        assert align.call_count == 4        # every row stacked, and the degenerate row alone
        # the nondegenerate rows' assignments are the identity
        assert stacked[4][0] == stacked[4][2] == () and stacked[4][1] != ()

    def test_reference_shape_checked(self):
        fam = random_linear_family(3, 1, "gue", seed=2)
        with pytest.raises(ValidationError):
            _frame_kernel(fam, np.zeros((2, 1)), np.tile(np.eye(3), (3, 1, 1)))


class TestChainedAlignPath:
    """A chain that takes the align path is one single-row chained call per row, byte for byte."""

    @staticmethod
    def assert_rows_match(fam, xs, ref):
        stacked = _frame_kernel(fam, xs, ref)
        for i in range(len(xs)):
            single = _frame_kernel(fam, xs[i:i + 1], ref)
            for got, want in zip(stacked[:4], single[:4]):
                assert got[i].tobytes() == want[0].tobytes()
            assert stacked[4][i] == single[4][0]
            ref = single[1][0]
        return stacked

    def test_assignment_on_each_row_past_a_true_crossing(self):
        # the family of the exact-crossing mean-force test: past x = 0 the
        # labels no longer ascend, so each row is aligned by assignment
        a = 0.6
        fam = MatrixPolynomialFamily([((0,), np.diag([0.0, 0.0, 2.0]).astype(complex)),
                                      ((1,), np.array([[1.0, 0.0, a], [0.0, -1.0, 0.0],
                                                       [a, 0.0, 0.0]], dtype=complex))])
        ref = frame_path(fam, np.linspace(-1.0, 0.2, 25)[:, None])[-1].basis
        with mock.patch("adiaframe.operators._align_to_reference", wraps=_align_to_reference) as align:
            stacked = self.assert_rows_match(fam, np.array([[0.21], [0.22]]), ref)
        assert align.call_count == 4        # each row, stacked and alone
        assert all(perm not in ((), (0, 1, 2)) for perm in stacked[4])

    def test_cluster_rotation_on_a_family_degenerate_everywhere(self):
        rng = np.random.default_rng(8)
        a, b = gue(3, rng), gue(3, rng)
        fam = MatrixPolynomialFamily([((0,), np.kron(np.eye(2), a)), ((1,), np.kron(np.eye(2), b))])
        ref = _frame_kernel(fam, np.array([[0.4]]))[1][0]
        with mock.patch("adiaframe.operators._align_to_reference", wraps=_align_to_reference) as align:
            stacked = self.assert_rows_match(fam, np.array([[0.41], [0.42]]), ref)
        assert align.call_count == 4
        assert all(np.count_nonzero(same) == 12 for same in stacked[3])


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
        with pytest.raises(ValidationError, match=r"shape \(3, 3\) at x = \[0\.25\]"):
            build_frame(fam, [0.25])

    @pytest.mark.parametrize("defect", ["non-finite", "not self-adjoint"])
    def test_failed_check_names_first_bad_configuration(self, defect):
        # H(x) turns bad past x = 0.5; the message names the first such row
        bad = {"non-finite": np.nan * PAULI_Z, "not self-adjoint": 0.1j * PAULI_X}[defect]
        fam = CallableFamily(1, 2, lambda x: PAULI_X + (bad if x[0] > 0.5 else 0.0 * PAULI_Z))
        with pytest.raises(ValidationError, match=rf"^H\(x\) (contains|is) {defect}.* at x = \[0\.7\]"):
            frame_path(fam, [[0.0], [0.3], [0.7], [0.9]])

    def test_self_adjointness_message_gives_the_first_bad_row_and_its_defect(self):
        # the defect 2 x |0.1 i sigma_x| grows with x; the message reports row x = 0.7
        # and its own max |H - H^dag| = 0.14, not the stack's largest, 0.18 at x = 0.9
        fam = CallableFamily(1, 2, lambda x: PAULI_X + (x[0] > 0.5) * x[0] * 0.1j * PAULI_X)
        with pytest.raises(ValidationError, match=r"at x = \[0\.7\]: max \|H - H\^dag\| = 1\.400e-01$"):
            frame_path(fam, [[0.0], [0.3], [0.7], [0.9]])

    def test_self_adjointness_bound_is_per_row(self):
        # at x = 1e-12 the anti-Hermitian 1e-3 i sigma_x is a tenth of H; at
        # x = 1 it is below 1e-12 of the largest entry, which must not excuse row 0
        fam = CallableFamily(1, 2, lambda x: 1e10 * x[0] * PAULI_Z + 1e-3j * PAULI_X)
        for call in (lambda: build_frame(fam, [1e-12]), lambda: frame_path(fam, [[1e-12], [1.0]])):
            with pytest.raises(ValidationError, match=r"not self-adjoint at x = \[1\.e-12\]"):
                call()
        assert len(frame_path(fam, [[1.0], [2.0]])) == 2


class _FixedStack(HamiltonianFamily):
    """H at row i of ``xs`` is row i of a fixed stack."""

    def __init__(self, hs):
        super().__init__(1, hs.shape[-1])
        self.hs = hs

    def evaluate_many(self, xs):
        return self.hs[:len(xs)].copy()


class TestHermiticityChunks:
    """The self-adjointness check runs chunk by chunk over a stack of H."""

    M = 16
    ROWS = frames._CHECK_CHUNK // M ** 2            # rows per chunk

    def stack(self, t):
        hs = np.array([gue(self.M, np.random.default_rng(i)) for i in range(t)])
        return hs, np.arange(t, dtype=float)[:, None]

    def test_one_row_past_a_chunk(self):
        hs, xs = self.stack(self.ROWS + 1)
        assert np.array_equal(_evaluate_checked(_FixedStack(hs), xs), hs)
        hs[-1, 0, 1] += 1e-3                        # the one row of the second chunk
        with pytest.raises(ValidationError, match=rf"not self-adjoint at x = \[{self.ROWS}\.\]: "
                                                  r"max \|H - H\^dag\| = 1\.000e-03$"):
            _evaluate_checked(_FixedStack(hs), xs)

    def test_bad_row_in_the_third_chunk_is_named(self):
        hs, xs = self.stack(3 * self.ROWS)
        bad = 2 * self.ROWS + 5
        hs[bad, 2, 7] += 0.5j
        hs[bad + 3, 1, 0] += 1.0                    # a later bad row is not the one named
        with pytest.raises(ValidationError, match=rf"not self-adjoint at x = \[{bad}\.\]: "
                                                  r"max \|H - H\^dag\| = 5\.000e-01$"):
            _evaluate_checked(_FixedStack(hs), xs)

    def test_non_finite_row_in_a_later_chunk_comes_first(self):
        # as for an unchunked check: a non-finite row anywhere fails before row 1's defect
        hs, xs = self.stack(2 * self.ROWS + 1)
        hs[1, 0, 1] += 1.0
        hs[self.ROWS + 3, 4, 4] = np.nan
        with pytest.raises(ValidationError, match=rf"^H\(x\) contains non-finite entries at x = "
                                                  rf"\[{self.ROWS + 3}\.\]$"):
            _evaluate_checked(_FixedStack(hs), xs)


class TestFloatRange:
    """Entries near the float range overflow H - H^dag, the spread and gaps of
    the levels, and W_j - W_i: the frame still comes out, with no warning."""

    def test_no_overflow_warning(self):
        anti = CallableFamily(1, 2, lambda x: np.array([[0.0, 1e308], [-1e308, 0.0]], dtype=complex))
        herm = CallableFamily(1, 2, lambda x: np.array([[1e308, 1e308], [1e308, -1e308]], dtype=complex))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=r"not self-adjoint at x = \[0\.\]: "
                                                      r"max \|H - H\^dag\| = inf$"):
                build_frame(anti, [0.0])
            frame = build_frame(herm, [0.0])
        assert_allclose(frame.eigenvalues, [-np.sqrt(2.0) * 1e308, np.sqrt(2.0) * 1e308], rtol=1e-15)
        assert not frame.spectrum.degenerate
        assert np.array_equal(frame.same_cluster, np.eye(2, dtype=bool))
        assert np.array_equal(frame.connections, np.zeros((1, 2, 2)))


    def test_diabatic_forces_from_halved_levels(self):
        # W_1 - W_0 = 2 sqrt(2) 1e308 overflows; from halved levels f is
        # finite and F + f = -U^dag dH U as on any frame
        h = np.array([[1e308, 1e308], [1e308, -1e308]])
        fam = MatrixPolynomialFamily([((0,), h), ((1,), PAULI_X + 0.5 * PAULI_Y)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            frame = build_frame(fam, [0.0])
            f, big_f = frame.diabatic, frame.adiabatic
            # the stacked route of the integrators, with the kernel's flag
            w, _, gad, same, _, near = _frame_kernel(fam, np.zeros((1, 1)))
            stacked = frames._force_split(w, _connections(w, gad, same, near), gad, same, near=near)
        gad = frame.grad_adiabatic
        assert np.isfinite(f).all()
        assert_allclose(big_f + f, -gad, rtol=0, atol=1e-14 * np.abs(gad).max())
        assert np.abs(f[0, 0, 1]) > 0.1
        assert np.array_equal(frame.same_cluster, np.eye(2, dtype=bool))
        assert near and np.array_equal(stacked[0][0], f) and np.array_equal(stacked[1][0], big_f)


def count_errstate_entries(monkeypatch) -> list:
    """Record every entry into np.errstate from the package, as a context
    manager or as a decorator: both make their state by _make_extobj, two
    frames below the package's code.  numpy.linalg's own scopes are not counted."""
    from numpy._core import _ufunc_config

    entries, make = [], _ufunc_config._make_extobj

    def counted(*args, **kwargs):
        caller = sys._getframe(2)
        if caller.f_globals["__name__"].startswith("adiaframe"):
            entries.append(caller.f_code.co_name)
        return make(*args, **kwargs)

    monkeypatch.setattr(_ufunc_config, "_make_extobj", counted)
    return entries


class TestErrstateScopes:
    """np.errstate is entered only for levels or entries near the float range."""

    @pytest.mark.parametrize("dim", [2, 8])
    def test_ordinary_stack_enters_no_scope(self, monkeypatch, dim):
        fam = random_linear_family(dim, 2, "gue", seed=dim)
        xs = np.array([[0.1, -0.2], [0.3, 0.4]])
        frames._frame_kernel(fam, xs[:1])                 # any first-call set-up outside the count
        entries = count_errstate_entries(monkeypatch)
        out = frames._frame_kernel(fam, xs)
        assert entries == []
        w, _, gad, same, _, near = out
        assert not near
        frames._force_split(w, _connections(w, gad, same, near), gad, same, near=near)
        build_frame(fam, xs[0]).diabatic
        assert entries == []

    def test_near_range_stack_enters_its_scopes(self, monkeypatch):
        h = np.array([[1e308, 1e308], [1e308, -1e308]])
        fam = MatrixPolynomialFamily([((0,), h), ((1,), PAULI_X)])
        entries = count_errstate_entries(monkeypatch)
        near = frames._frame_kernel(fam, np.zeros((1, 1)))[-1]
        assert near and entries == ["_evaluate_checked", "_cluster_labels"]


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
