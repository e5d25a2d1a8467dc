import numpy as np
import pytest
from numpy.testing import assert_allclose

from adiaframe import (
    QuantumState,
    avoided_crossing_family,
    build_frame,
    random_linear_family,
    run_driven,
    uniform_drive,
)
from adiaframe.entropy import (
    ProjectorFamily,
    entropy_delta,
    entropy_series,
    haar_unitary,
    max_entropy_drift,
    project,
    projected_diabatic_force,
    random_density_matrix,
    von_neumann_entropy,
)
from adiaframe.errors import ValidationError
from adiaframe.units import KB

LN2 = float(np.log(2.0))


class TestVonNeumannEntropy:
    def test_pure_state_is_exactly_zero(self):
        s = von_neumann_entropy(QuantumState.pure(0, 3).rho)
        assert s == 0.0
        assert np.copysign(1.0, s) == 1.0

    def test_known_values(self):
        assert_allclose(von_neumann_entropy(np.eye(2) / 2.0), KB * LN2, atol=1e-14)
        s = von_neumann_entropy(np.diag([0.25, 0.75]))
        assert_allclose(s, 0.5623351446188083 * KB, atol=1e-14)

    def test_accepts_quantum_state(self):
        st = QuantumState.maximally_mixed(4)
        assert_allclose(von_neumann_entropy(st), KB * np.log(4.0), atol=1e-14)

    def test_negative_eigenvalue_threshold(self):
        with pytest.raises(ValidationError):
            von_neumann_entropy(np.diag([1.0 + 1e-6, -1e-6]))
        s = von_neumann_entropy(np.diag([1.0 + 1e-9, -1e-9]))
        assert s == 0.0

    def test_unitary_invariance(self):
        rng = np.random.default_rng(3)
        rho = random_density_matrix(4, rng)
        s0 = von_neumann_entropy(rho)
        for _ in range(20):
            u = haar_unitary(4, rng)
            assert abs(von_neumann_entropy(u @ rho @ u.conj().T) - s0) < 1e-10

    def test_series_and_drift(self):
        rhos = [np.eye(2) / 2.0, np.diag([0.25, 0.75]), np.diag([1.0, 0.0])]
        s = entropy_series(rhos)
        assert_allclose(s, [KB * LN2, 0.5623351446188083 * KB, 0.0], atol=1e-14)
        assert_allclose(max_entropy_drift(rhos), KB * LN2, atol=1e-14)


class TestProjectorFamily:
    def test_complete_dephasing_blocks(self):
        fam = ProjectorFamily.complete_dephasing(3)
        assert fam.blocks == ((0,), (1,), (2,))
        assert fam.n_blocks == 3
        assert_allclose(fam.mask(), np.eye(3))

    def test_two_outcome(self):
        fam = ProjectorFamily.two_outcome(4, (2, 0))
        assert fam.blocks == ((0, 2), (1, 3))
        assert_allclose(fam.labels(), [0, 1, 0, 1])
        p0 = fam.projector(0)
        assert_allclose(p0, np.diag([1.0, 0.0, 1.0, 0.0]).astype(complex))
        assert_allclose(p0 @ p0, p0)
        assert_allclose(fam.projector(0) + fam.projector(1), np.eye(4))

    def test_partition_must_be_complete_and_disjoint(self):
        with pytest.raises(ValidationError):
            ProjectorFamily(dim=3, blocks=((0,), (1,)))
        with pytest.raises(ValidationError):
            ProjectorFamily(dim=3, blocks=((0, 1), (1, 2)))
        with pytest.raises(ValidationError):
            ProjectorFamily(dim=2, blocks=((0, 1), ()))

    def test_basis_must_be_unitary(self):
        with pytest.raises(ValidationError):
            ProjectorFamily.complete_dephasing(2, basis=np.ones((2, 2)))

    def test_outcome_probabilities(self):
        fam = ProjectorFamily.two_outcome(3, (0,))
        rho = np.diag([0.2, 0.3, 0.5]).astype(complex)
        assert_allclose(fam.outcome_probabilities(rho), [0.2, 0.8])


    @pytest.mark.parametrize("make", [lambda u: ProjectorFamily.complete_dephasing(3, basis=u),
                                      lambda u: ProjectorFamily.two_outcome(3, (0, 2), basis=u)])
    def test_projectors_in_a_haar_basis(self, make):
        rng = np.random.default_rng(3)
        fam = make(haar_unitary(3, rng))
        ps = [fam.projector(i) for i in range(fam.n_blocks)]
        for i, p in enumerate(ps):
            assert_allclose(p, p.conj().T, atol=1e-14)
            assert_allclose(p @ p, p, atol=1e-14)
            for q in ps[i + 1:]:
                assert_allclose(p @ q, 0.0, atol=1e-14)
        assert_allclose(sum(ps), np.eye(3), atol=1e-14)

    @pytest.mark.parametrize("make", [lambda u: ProjectorFamily.complete_dephasing(3, basis=u),
                                      lambda u: ProjectorFamily.two_outcome(3, (0, 2), basis=u)])
    def test_outcome_probabilities_in_a_haar_basis(self, make):
        # the measured states are the columns of the basis, as in projector(i)
        rng = np.random.default_rng(3)
        fam = make(haar_unitary(3, rng))
        rho = random_density_matrix(3, rng)
        probs = fam.outcome_probabilities(rho)
        expected = [np.trace(fam.projector(i) @ rho).real for i in range(fam.n_blocks)]
        assert_allclose(probs, expected, rtol=0, atol=1e-14)
        assert_allclose(probs.sum(), 1.0, rtol=0, atol=1e-14)

class TestProject:
    def test_kills_coherences_keeps_populations(self):
        st = QuantumState.from_amplitudes([1.0, 1.0] / np.sqrt(2))
        out = project(st, ProjectorFamily.complete_dephasing(2))
        assert isinstance(out, QuantumState)
        assert_allclose(out.rho, np.diag([0.5, 0.5]).astype(complex), atol=1e-15)

    def test_idempotent_and_trace_exact(self):
        rng = np.random.default_rng(9)
        fam = ProjectorFamily.two_outcome(4, (0, 1))
        for _ in range(10):
            rho = random_density_matrix(4, rng)
            out = project(rho, fam)
            assert np.trace(out).real == np.trace(rho).real
            assert np.array_equal(project(out, fam), out)
            assert_allclose(np.diagonal(out), np.diagonal(rho), atol=0.0)

    def test_matches_projector_sum(self):
        rng = np.random.default_rng(14)
        rho = random_density_matrix(4, rng)
        fam = ProjectorFamily.two_outcome(4, (1, 2))
        explicit = sum(fam.projector(i) @ rho @ fam.projector(i)
                       for i in range(fam.n_blocks))
        assert_allclose(project(rho, fam), explicit, atol=1e-14)

    def test_rotated_basis_preserves_state_properties(self):
        rng = np.random.default_rng(5)
        u = haar_unitary(3, rng)
        fam = ProjectorFamily.complete_dephasing(3, basis=u)
        rho = random_density_matrix(3, rng)
        out = project(rho, fam)
        assert_allclose(np.trace(out).real, 1.0, atol=1e-13)
        assert np.linalg.eigvalsh(out).min() > -1e-13
        assert_allclose(out, out.conj().T, atol=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            project(np.eye(3) / 3.0, ProjectorFamily.complete_dephasing(2))


class TestEntropyDelta:
    def test_equal_superposition_gains_ln2(self):
        st = QuantumState.from_amplitudes([1.0, 1.0] / np.sqrt(2))
        before, after, delta = entropy_delta(st)
        assert abs(before) < 1e-14
        assert_allclose(after, KB * LN2, atol=1e-12)
        assert_allclose(delta, KB * LN2, atol=1e-12)

    def test_diagonal_state_unchanged(self):
        before, after, delta = entropy_delta(np.diag([0.25, 0.75]))
        assert delta == 0.0
        assert before == after

    def test_pinching_never_lowers_entropy(self):
        rng = np.random.default_rng(17)
        worst = np.inf
        for _ in range(200):
            rho = random_density_matrix(4, rng)
            _, _, delta = entropy_delta(rho)
            worst = min(worst, delta)
        assert worst >= -1e-12 * KB

    def test_coarse_family_gains_less(self):
        rng = np.random.default_rng(23)
        rho = random_density_matrix(4, rng)
        _, _, fine = entropy_delta(rho)
        _, _, coarse = entropy_delta(rho, ProjectorFamily.two_outcome(4, (0, 1)))
        assert coarse <= fine + 1e-14


class TestProjectedDiabaticForce:
    def test_pinched_force_is_structurally_zero(self):
        fam = avoided_crossing_family(1.0, 0.5)
        frame = build_frame(fam, [0.3])
        st = QuantumState.from_amplitudes([1.0, 1.0] / np.sqrt(2))
        out = projected_diabatic_force(frame, st)
        assert out.shape == (1,)
        assert out[0] == 0.0
        raw = np.einsum("kij,ji->k", frame.diabatic, st.rho).real
        assert abs(raw[0]) > 1e-3

    def test_block_pinching_keeps_in_block_force(self):
        fam = random_linear_family(4, 1, "gue", seed=7)
        frame = build_frame(fam, [0.6])
        rng = np.random.default_rng(2)
        rho = random_density_matrix(4, rng)
        block = ProjectorFamily.two_outcome(4, (0, 1))
        kept = projected_diabatic_force(frame, rho, block)
        pinched = project(rho, block)
        direct = np.einsum("kij,ji->k", frame.diabatic, pinched).real
        assert_allclose(kept, direct, atol=1e-14)

    def test_rotated_family_rejected(self):
        fam = avoided_crossing_family()
        frame = build_frame(fam, [0.3])
        rot = ProjectorFamily.complete_dephasing(2, basis=haar_unitary(2, 1))
        with pytest.raises(ValidationError):
            projected_diabatic_force(frame, QuantumState.pure(0, 2), rot)


class TestEntropyAlongRuns:
    def test_static_diagonal_state_has_zero_drift(self):
        fam = random_linear_family(3, 1, "gue", seed=5, scale=3.0)
        st = QuantumState.from_rho(np.diag([0.5, 0.3, 0.2]).astype(complex))
        traj = run_driven(fam, uniform_drive([0.4], [0.0]), st, 1.0, 200,
                          record_every=20)
        assert max_entropy_drift(traj.rho) == 0.0

    def test_unitary_drive_drift_shrinks_at_fourth_order(self):
        fam = random_linear_family(3, 1, "gue", seed=5, scale=3.0)
        st = QuantumState.from_rho(np.diag([0.5, 0.3, 0.2]).astype(complex))
        drive = uniform_drive([-2.0], [4.0])
        d1 = max_entropy_drift(run_driven(fam, drive, st, 1.0, 1000,
                                          record_every=100).rho)
        d2 = max_entropy_drift(run_driven(fam, drive, st, 1.0, 2000,
                                          record_every=200).rho)
        assert d1 < 1e-7 * KB
        assert d2 < d1 / 8.0

    def test_projection_event_jump_equals_audited_gain(self):
        fam = random_linear_family(3, 1, "gue", seed=5, scale=3.0)
        dephase = ProjectorFamily.complete_dephasing(3)
        st = QuantumState.from_amplitudes([0.7, 0.5, np.sqrt(0.26)])
        traj = run_driven(fam, uniform_drive([-2.0], [4.0]), st, 1.0, 1000,
                          record_every=100,
                          events={500: lambda qs: project(qs, dephase)})
        log = traj.extras["events"][0]
        _, _, delta = entropy_delta(log["rho_before"], dephase)
        jump = von_neumann_entropy(log["rho_after"]) - von_neumann_entropy(log["rho_before"])
        assert delta > 0.1 * KB
        assert abs(jump - delta) < 1e-12 * KB


class TestRandomStates:
    def test_haar_unitary_properties(self):
        rng = np.random.default_rng(31)
        u = haar_unitary(5, rng)
        assert_allclose(u @ u.conj().T, np.eye(5), atol=1e-13)
        assert np.array_equal(haar_unitary(4, 12), haar_unitary(4, 12))

    def test_random_density_matrix_is_a_state(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            rho = random_density_matrix(4, rng)
            assert_allclose(np.trace(rho).real, 1.0, atol=1e-13)
            assert np.linalg.eigvalsh(rho).min() > -1e-13
            assert_allclose(rho, rho.conj().T, atol=1e-14)

    def test_rank_control(self):
        rng = np.random.default_rng(11)
        lam = np.linalg.eigvalsh(random_density_matrix(5, rng, rank=2))
        assert (lam > 1e-12).sum() == 2
        with pytest.raises(ValidationError):
            random_density_matrix(3, rng, rank=4)
        with pytest.raises(ValidationError):
            random_density_matrix(3, rng, rank=0)
