import numpy as np
import pytest
from numpy.testing import assert_allclose

from adiaframe import (
    ApparatusState,
    DynamicsScenario,
    EnergyLedger,
    FrictionSpec,
    MatrixPolynomialFamily,
    QuantumState,
    Trajectory,
    avoided_crossing_family,
    build_frame,
    quantum_step,
    random_density_matrix,
    random_linear_family,
    rotating_field_family,
    run_branching,
    run_driven,
    run_mean_force,
    sample_branch_counts,
    time_averaged_diabatic_force,
    uniform_drive,
)
from adiaframe.errors import StepSizeError, ValidationError
from adiaframe.families import PAULI_X, PAULI_Z

CONSTANT_FAMILY = MatrixPolynomialFamily([((0,), PAULI_Z)])


class TestQuantumState:
    def test_from_amplitudes(self):
        st = QuantumState.from_amplitudes([1.0, 1.0] / np.sqrt(2))
        assert_allclose(st.rho, 0.5 * np.ones((2, 2)), atol=1e-15)
        assert_allclose(st.populations, [0.5, 0.5])
        assert_allclose(st.purity(), 1.0, atol=1e-14)

    def test_from_amplitudes_norm_checked(self):
        with pytest.raises(ValidationError):
            QuantumState.from_amplitudes([1.0, 0.5])

    def test_pure_and_mixed(self):
        st = QuantumState.pure(1, 3)
        assert_allclose(st.populations, [0.0, 1.0, 0.0])
        mm = QuantumState.maximally_mixed(4)
        assert_allclose(mm.purity(), 0.25, atol=1e-15)

    def test_from_rho_validation(self):
        with pytest.raises(ValidationError):
            QuantumState.from_rho(np.diag([0.6, 0.6]))
        with pytest.raises(ValidationError):
            QuantumState.from_rho(np.array([[0.5, 0.5], [0.0, 0.5]]))
        with pytest.raises(ValidationError):
            QuantumState.from_rho(np.diag([1.2, -0.2]))

    def test_copy_independent(self):
        st = QuantumState.pure(0, 2)
        cp = st.copy()
        cp.rho[0, 0] = 0.0
        assert st.rho[0, 0] == 1.0


class TestApparatusState:
    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            ApparatusState(x=[0.0, 1.0], v=[0.0])

    def test_metric_forms(self):
        app = ApparatusState(x=[0.0], v=[0.0], metric=2.5)
        assert_allclose(app.metric_at([0.0]), [[2.5]])
        app = ApparatusState(x=[0.0, 0.0], v=[0.0, 0.0], metric=np.diag([1.0, 3.0]))
        assert_allclose(app.metric_at([0.0, 0.0]), np.diag([1.0, 3.0]))
        app = ApparatusState(x=[0.0], v=[0.0], metric=lambda x: [[1.0 + x[0] ** 2]])
        assert_allclose(app.metric_at([2.0]), [[5.0]])

    def test_metric_must_be_positive_definite(self):
        app = ApparatusState(x=[0.0], v=[0.0], metric=lambda x: [[x[0]]])
        with pytest.raises(ValidationError):
            app.metric_at([-1.0])

    def test_potential_grad_fd_matches_analytic(self):
        pot = lambda x: 0.5 * x[0] ** 2 + np.cos(x[1])
        grad = lambda x: np.array([x[0], -np.sin(x[1])])
        fd_app = ApparatusState(x=[0.3, 1.1], v=[0.0, 0.0], potential=pot)
        an_app = ApparatusState(x=[0.3, 1.1], v=[0.0, 0.0], potential=pot,
                                potential_grad=grad)
        assert_allclose(fd_app.potential_grad_at([0.3, 1.1]),
                        an_app.potential_grad_at([0.3, 1.1]), atol=1e-8)

    def test_kinetic_energy(self):
        app = ApparatusState(x=[0.0], v=[2.0], metric=3.0)
        assert_allclose(app.kinetic_energy(), 6.0)


class TestEnergyLedger:
    def test_record_and_residual(self):
        led = EnergyLedger.open(1.0)
        led.record(0.25, -0.1, e_mean=1.15)
        assert_allclose(led.q_cum, 0.25)
        assert_allclose(led.w_cum, -0.1)
        assert_allclose(led.residual, 0.0, atol=1e-15)
        assert led.closure_ok()

    def test_closure_detects_imbalance(self):
        led = EnergyLedger.open(0.0)
        led.record(0.5, 0.0, e_mean=1.0)
        assert not led.closure_ok()


class TestContainers:
    def test_trajectory_weight_bounds(self):
        base = dict(t=np.array([0.0, 1.0]), x=np.zeros((2, 1)), v=np.zeros((2, 1)),
                    rho=np.tile(np.eye(2, dtype=complex) / 2, (2, 1, 1)),
                    e_mean=np.zeros(2), q_cum=np.zeros(2), w_cum=np.zeros(2),
                    ledger=EnergyLedger.open(0.0))
        with pytest.raises(ValidationError):
            Trajectory(weight=1.5, **base)
        bad = dict(base, t=np.array([0.0, 0.0]))
        with pytest.raises(ValidationError):
            Trajectory(**bad)

    def test_scenario_validation(self):
        fam = avoided_crossing_family()
        app = ApparatusState(x=[0.0], v=[0.0])
        st = QuantumState.pure(0, 2)
        with pytest.raises(ValidationError):
            DynamicsScenario(family=fam, apparatus=app, state=st, dt=-1.0, n_steps=10)
        with pytest.raises(ValidationError):
            DynamicsScenario(family=fam, apparatus=app, state=st, dt=0.1, n_steps=0)
        with pytest.raises(ValidationError):
            DynamicsScenario(family=fam, apparatus=app, state=st, dt=0.1, n_steps=10,
                             record_every=0)
        st3 = QuantumState.pure(0, 3)
        with pytest.raises(ValidationError):
            DynamicsScenario(family=fam, apparatus=app, state=st3, dt=0.1, n_steps=10)
        app2 = ApparatusState(x=[0.0, 0.0], v=[0.0, 0.0])
        with pytest.raises(ValidationError):
            DynamicsScenario(family=fam, apparatus=app2, state=st, dt=0.1, n_steps=10)


class TestQuantumStep:
    def test_stationary_eigenstate(self):
        fam = avoided_crossing_family(1.0, 0.5)
        frame = build_frame(fam, [0.4])
        st = QuantumState.pure(0, 2)
        seg = [([0.4], [0.0])] * 3
        st1, frame1 = quantum_step(fam, frame, st, seg, 0.05)
        assert_allclose(st1.rho, st.rho, atol=1e-15)
        assert_allclose(frame1.eigenvalues, frame.eigenvalues)

    def test_segment_start_must_match(self):
        fam = avoided_crossing_family()
        frame = build_frame(fam, [0.0])
        seg = [([0.5], [1.0]), ([0.55], [1.0]), ([0.6], [1.0])]
        with pytest.raises(ValidationError):
            quantum_step(fam, frame, QuantumState.pure(0, 2), seg, 0.1)

    def test_bad_dt(self):
        fam = avoided_crossing_family()
        frame = build_frame(fam, [0.0])
        with pytest.raises(ValidationError):
            quantum_step(fam, frame, QuantumState.pure(0, 2), [([0.0], [0.0])] * 3, -0.1)


class TestRunDriven:
    def test_static_diagonal_state_is_fixed(self):
        fam = avoided_crossing_family(1.0, 0.5)
        st = QuantumState.from_rho(np.diag([0.3, 0.7]).astype(complex))
        traj = run_driven(fam, uniform_drive([0.2], [0.0]), st, 1.0, 50)
        assert_allclose(traj.rho[-1], st.rho, atol=1e-15)
        assert traj.q_cum[-1] == 0.0
        assert traj.w_cum[-1] == 0.0

    def test_free_phase_evolution(self):
        fam = MatrixPolynomialFamily([((0,), 1.3 * PAULI_Z + 0.7 * PAULI_X)])
        st = QuantumState.from_amplitudes([1.0, 1.0] / np.sqrt(2))
        traj = run_driven(fam, uniform_drive([0.0], [0.0]), st, 3.0, 3000,
                          record_every=3000)
        w = build_frame(fam, [0.0]).eigenvalues
        expected = 0.5 * np.exp(-1j * (w[0] - w[1]) * 3.0)
        assert abs(traj.rho[-1][0, 1] - expected) < 1e-9

    def test_purity_conserved(self):
        fam = random_linear_family(3, 1, "gue", seed=2)
        st = QuantumState.from_rho(np.diag([0.5, 0.3, 0.2]).astype(complex))
        traj = run_driven(fam, uniform_drive([-1.0], [1.5]), st, 2.0, 1000,
                          record_every=100)
        purity = np.einsum("tij,tji->t", traj.rho, traj.rho).real
        assert np.abs(purity - purity[0]).max() < 1e-9

    def test_matches_manual_stepping(self):
        fam = avoided_crossing_family(1.0, 0.5)
        path = uniform_drive([-1.0], [1.0])
        traj = run_driven(fam, path, QuantumState.pure(0, 2), 2.0, 400,
                          record_every=400)
        frame = build_frame(fam, [-1.0])
        state = QuantumState.pure(0, 2)
        ledger = EnergyLedger.open(frame.eigenvalues[0])
        dt = 2.0 / 400
        for i in range(400):
            seg = lambda s, t0=i * dt: path(t0 + s)
            state, frame = quantum_step(fam, frame, state, seg, dt, ledger=ledger)
        assert np.abs(state.rho - traj.rho[-1]).max() < 1e-12
        assert abs(ledger.q_cum - traj.q_cum[-1]) < 1e-12
        assert abs(ledger.w_cum - traj.w_cum[-1]) < 1e-12
        assert traj.ledger.closure_ok()

    def test_sudden_sweep_transition_probability(self):
        # two-level crossing swept at finite speed: the surviving adiabatic
        # population follows the standard exponential crossing formula
        slope, gap, v = 2.0, 0.35, 2.0
        fam = avoided_crossing_family(slope, gap)
        traj = run_driven(fam, uniform_drive([-4.0], [v]), QuantumState.pure(0, 2),
                          4.0, 4000, record_every=4000)
        p_stay = 1.0 - np.exp(-np.pi * gap**2 / (slope * v))
        assert abs(traj.populations[-1, 0] - p_stay) < 5e-3

    def test_oversized_step_detected(self):
        fam = avoided_crossing_family(1.0, 0.5)
        with pytest.raises(StepSizeError):
            run_driven(fam, uniform_drive([-1.0], [1e4]), QuantumState.pure(0, 2),
                       2.0, 2)

    def test_step_past_rk4_stability_limit_raises(self):
        # one RK4 step this long leaves a density matrix with eigenvalue -104.5
        # and trace 1, so the trace-drift check alone cannot see it
        fam = random_linear_family(32, 1, "gue", seed=1, scale=0.3)
        st = QuantumState.from_rho(random_density_matrix(32, np.random.default_rng(0)))
        with pytest.raises(StepSizeError, match=r"dt = 1\.000e\+00 at t = 0\.0"):
            run_driven(fam, uniform_drive([-0.5], [1.0]), st, 1.0, 1)
        traj = run_driven(fam, uniform_drive([-0.5], [1.0]), st, 1.0, 100)
        assert np.linalg.eigvalsh(traj.rho[-1]).min() > -1e-10

    def test_quantum_step_checks_step_size(self):
        fam = random_linear_family(32, 1, "gue", seed=1, scale=0.3)
        st = QuantumState.from_rho(random_density_matrix(32, np.random.default_rng(0)))
        frame = build_frame(fam, [-0.5])
        with pytest.raises(StepSizeError, match=r"dt = 1\.000e\+00 at x = "):
            quantum_step(fam, frame, st, uniform_drive([-0.5], [1.0]), 1.0)

    def test_events_applied_and_logged(self):
        fam = avoided_crossing_family(1.0, 0.5)
        flip = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        traj = run_driven(
            fam, uniform_drive([-1.0], [1.0]), QuantumState.pure(0, 2), 2.0, 100,
            record_every=10, events={50: lambda qs: QuantumState(rho=flip @ qs.rho @ flip)},
        )
        assert traj.event_steps == (50,)
        ev = traj.extras["events"][0]
        assert ev["step"] == 50
        assert_allclose(np.trace(ev["rho_after"]).real, 1.0, atol=1e-12)
        assert_allclose(ev["rho_after"], flip @ ev["rho_before"] @ flip, atol=1e-15)

    def test_event_step_bounds(self):
        fam = avoided_crossing_family()
        with pytest.raises(ValidationError):
            run_driven(fam, uniform_drive([0.0], [1.0]), QuantumState.pure(0, 2),
                       1.0, 10, events={11: lambda qs: qs})

    def test_record_schedule(self):
        fam = avoided_crossing_family()
        traj = run_driven(fam, uniform_drive([0.0], [0.1]), QuantumState.pure(0, 2),
                          1.05, 105, record_every=10)
        assert traj.n_samples == 12
        assert_allclose(traj.t[:3], [0.0, 0.1, 0.2], atol=1e-12)
        assert_allclose(traj.t[-1], 1.05, atol=1e-12)
        assert_allclose(traj.populations.sum(axis=1), 1.0, atol=1e-12)

    def test_input_validation(self):
        fam = avoided_crossing_family()
        st = QuantumState.pure(0, 2)
        with pytest.raises(ValidationError):
            run_driven(fam, uniform_drive([0.0], [1.0]), st, -1.0, 10)
        with pytest.raises(ValidationError):
            run_driven(fam, uniform_drive([0.0], [1.0]), st, 1.0, 10, record_every=0)


class TestUniformDrive:
    def test_path_values(self):
        path = uniform_drive([1.0, -1.0], [0.5, 2.0])
        x, v = path(2.0)
        assert_allclose(x, [2.0, 3.0])
        assert_allclose(v, [0.5, 2.0])


class TestBranching:
    def test_branch_weights_and_pure_work(self):
        fam = avoided_crossing_family(1.0, 0.5)
        app = ApparatusState(x=[-1.0], v=[0.5])
        st = QuantumState.from_rho(np.diag([0.3, 0.7]).astype(complex))
        sc = DynamicsScenario(family=fam, apparatus=app, state=st, dt=1e-3,
                              n_steps=200, record_every=50)
        trajs = run_branching(sc)
        assert [tr.branch_label for tr in trajs] == [0, 1]
        assert_allclose([tr.weight for tr in trajs], [0.3, 0.7])
        for tr in trajs:
            assert tr.ledger.q_cum == 0.0
            assert abs(tr.ledger.residual) < 1e-12
            assert np.all(tr.q_cum == 0.0)

    def test_zero_weight_branches_skipped(self):
        fam = avoided_crossing_family()
        app = ApparatusState(x=[0.5], v=[0.0])
        sc = DynamicsScenario(family=fam, apparatus=app, state=QuantumState.pure(0, 2),
                              dt=1e-3, n_steps=10)
        trajs = run_branching(sc)
        assert len(trajs) == 1
        assert trajs[0].weight == 1.0

    def test_unnormalized_weights_rejected(self):
        fam = avoided_crossing_family()
        app = ApparatusState(x=[0.5], v=[0.0])
        bad = QuantumState(rho=np.diag([0.3, 0.3]).astype(complex))
        sc = DynamicsScenario(family=fam, apparatus=app, state=bad, dt=1e-3, n_steps=10)
        with pytest.raises(ValidationError):
            run_branching(sc)

    def test_harmonic_shadow_energy_conserved(self):
        # on a flat level the apparatus is a pure oscillator; velocity-Verlet
        # conserves the step-size-shifted oscillator energy to roundoff
        omega = 2.0
        period = 2.0 * np.pi / omega
        n_per = 200
        dt = period / n_per
        app = ApparatusState(x=[1.0], v=[0.0],
                             potential=lambda x: 0.5 * omega**2 * x[0] ** 2,
                             potential_grad=lambda x: np.array([omega**2 * x[0]]))
        sc = DynamicsScenario(family=CONSTANT_FAMILY, apparatus=app,
                              state=QuantumState.pure(0, 2), dt=dt,
                              n_steps=10 * n_per, record_every=n_per)
        traj = run_branching(sc)[0]
        shadow = 0.5 * traj.v[:, 0] ** 2 \
            + 0.5 * omega**2 * (1.0 - (omega * dt) ** 2 / 4.0) * traj.x[:, 0] ** 2
        assert np.abs(shadow - shadow[0]).max() / shadow[0] < 1e-10

    def test_friction_decay_and_heat_budget(self):
        gamma, v0, total_t, n = 0.2, 2.0, 0.125, 12500
        app = ApparatusState(x=[0.0], v=[v0])
        sc = DynamicsScenario(family=CONSTANT_FAMILY, apparatus=app,
                              state=QuantumState.pure(0, 2), dt=total_t / n,
                              n_steps=n, friction=FrictionSpec.constant(gamma),
                              record_every=n // 10)
        traj = run_branching(sc)[0]
        v_exact = v0 * np.exp(-gamma * traj.t)
        assert np.abs(traj.v[:, 0] - v_exact).max() / v0 < 1e-7
        assert np.all(np.diff(traj.v[:, 0]) < 0.0)
        ke_loss = 0.5 * v0**2 - 0.5 * traj.v[-1, 0] ** 2
        heat = traj.extras["friction_heat"][-1]
        assert abs(ke_loss - heat) / ke_loss < 1e-6

    def test_friction_corrector_diverges_loudly(self):
        app = ApparatusState(x=[0.0], v=[1.0])
        sc = DynamicsScenario(family=CONSTANT_FAMILY, apparatus=app,
                              state=QuantumState.pure(0, 2), dt=1.0, n_steps=3,
                              friction=FrictionSpec.constant(5.0))
        with pytest.raises(StepSizeError):
            run_branching(sc)

    def test_position_dependent_metric_energy_drift(self):
        app = ApparatusState(x=[0.8], v=[0.6],
                             metric=lambda x: [[1.0 + 0.5 * np.sin(x[0])]],
                             potential=lambda x: 0.5 * x[0] ** 2,
                             potential_grad=lambda x: np.array([x[0]]))
        sc = DynamicsScenario(family=CONSTANT_FAMILY, apparatus=app,
                              state=QuantumState.pure(0, 2), dt=1e-3, n_steps=5000,
                              record_every=500)
        traj = run_branching(sc)[0]
        energy = traj.extras["apparatus_energy"]
        assert np.abs(energy - energy[0]).max() < 5e-4


class TestSampleBranchCounts:
    def test_seeded_and_normalized(self):
        st = QuantumState.from_rho(np.diag([0.25, 0.75]).astype(complex))
        c1 = sample_branch_counts(st, 1000, seed=7)
        c2 = sample_branch_counts(st, 1000, seed=7)
        assert np.array_equal(c1, c2)
        assert c1.sum() == 1000
        rng = np.random.default_rng(7)
        assert np.array_equal(sample_branch_counts(st, 1000, rng), c1)

    def test_validation(self):
        st = QuantumState.pure(0, 2)
        with pytest.raises(ValidationError):
            sample_branch_counts(st, 0, seed=1)
        bad = QuantumState(rho=np.diag([0.4, 0.4]).astype(complex))
        with pytest.raises(ValidationError):
            sample_branch_counts(bad, 10, seed=1)


class TestMeanForce:
    def test_eigenstate_tracks_single_branch(self):
        fam = avoided_crossing_family(1.0, 1.0)
        make_app = lambda: ApparatusState(x=[-2.0], v=[0.3], metric=5.0)
        st = QuantumState.pure(0, 2)
        kw = dict(family=fam, state=st, dt=2e-3, n_steps=1000, record_every=100)
        branch = run_branching(DynamicsScenario(apparatus=make_app(), **kw))[0]
        mean = run_mean_force(DynamicsScenario(apparatus=make_app(), **kw))
        assert np.abs(mean.x - branch.x).max() < 1e-3
        assert abs(mean.ledger.residual) < 1e-9


class TestAveragedDiabaticForce:
    def test_decreases_for_slower_traversal(self):
        fam = rotating_field_family(gamma=2.0, b0=1.0)
        path = uniform_drive([0.0], [1.0])
        st = QuantumState.pure(0, 2)
        vals = [time_averaged_diabatic_force(fam, path, 2 * np.pi, 600, st, scale=s)[0]
                for s in (1.0, 0.5)]
        assert vals[0] > vals[1] > 0.0

    def test_scale_positive(self):
        fam = rotating_field_family()
        with pytest.raises(ValidationError):
            time_averaged_diabatic_force(fam, uniform_drive([0.0], [1.0]), 1.0, 10,
                                         QuantumState.pure(0, 2), scale=0.0)
