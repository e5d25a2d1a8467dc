import dataclasses
from unittest import mock

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
    SternGerlachConfig,
    Trajectory,
    avoided_crossing_family,
    build_frame,
    random_density_matrix,
    random_linear_family,
    rotating_field_family,
    run_branching,
    run_driven,
    run_mean_force,
    sample_branch_counts,
    sg_family,
    time_averaged_diabatic_force,
    uniform_drive,
)
import adiaframe.dynamics as dynamics
import adiaframe.operators as operators
from adiaframe.errors import StepSizeError, ValidationError
from adiaframe.families import PAULI_X, PAULI_Z

CONSTANT_FAMILY = MatrixPolynomialFamily([((0,), PAULI_Z)])


class TestQuantumState:
    def test_from_amplitudes(self):
        st = QuantumState.from_amplitudes([1.0, 1.0] / np.sqrt(2))
        assert_allclose(st.rho, 0.5 * np.ones((2, 2)), atol=1e-15)
        assert_allclose(st.populations, [0.5, 0.5])
        assert_allclose(np.trace(st.rho @ st.rho).real, 1.0, atol=1e-14)

    def test_from_amplitudes_norm_checked(self):
        with pytest.raises(ValidationError):
            QuantumState.from_amplitudes([1.0, 0.5])

    def test_pure_and_mixed(self):
        st = QuantumState.pure(1, 3)
        assert_allclose(st.populations, [0.0, 1.0, 0.0])
        mm = QuantumState.maximally_mixed(4)
        assert_allclose(np.trace(mm.rho @ mm.rho).real, 0.25, atol=1e-15)

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

    def test_constant_metric_checked_when_built(self):
        for metric in (-1.0, [[1.0, 2.0], [2.0, 1.0]]):
            with pytest.raises(ValidationError, match="positive definite"):
                ApparatusState(x=[0.0, 0.0], v=[0.0, 0.0], metric=metric)
        with pytest.raises(ValidationError, match="shape"):
            ApparatusState(x=[0.0, 0.0], v=[0.0, 0.0], metric=np.eye(3))

    def test_non_finite_configuration_named(self):
        for x, v, name in (([np.nan], [0.0], "x"), ([0.0, 1.0], [0.0, np.inf], "v")):
            with pytest.raises(ValidationError, match=rf"apparatus {name} = .* is not finite"):
                ApparatusState(x=x, v=v)

    def test_non_finite_potential_named(self):
        def pot(x):
            return np.nan if x[0] > 0.5 else 0.5 * x[0] ** 2

        fd = ApparatusState(x=[0.0], v=[1.0], potential=pot)
        analytic = ApparatusState(x=[0.0], v=[1.0], potential=pot,
                                  potential_grad=lambda x: np.array([np.inf * x[0]]))
        assert fd.potential_at([0.25]) == 0.03125
        with pytest.raises(ValidationError, match=r"potential is nan at x = \[0\.75\]"):
            fd.potential_at([0.75])
        with pytest.raises(ValidationError, match=r"potential is nan at x = "):
            fd.potential_grad_at([0.5])         # the central difference reaches past 0.5
        with pytest.raises(ValidationError, match=r"potential gradient is \[inf\] at x = \[0\.25\]"):
            analytic.potential_grad_at([0.25])

    def test_kinetic_energy(self):
        app = ApparatusState(x=[0.0], v=[2.0], metric=3.0)
        assert_allclose(app.kinetic_energy(), 6.0)


class TestEnergyLedger:
    def test_record_and_residual(self):
        led = EnergyLedger(e_start=1.0, e_mean=1.15, q_cum=0.25, w_cum=-0.1)
        assert_allclose(led.residual, 0.0, atol=1e-15)
        assert led.closure_ok()

    def test_closure_detects_imbalance(self):
        led = EnergyLedger(e_start=0.0, e_mean=1.0, q_cum=0.5)
        assert led.w_cum == 0.0
        assert_allclose(led.residual, 0.5)
        assert not led.closure_ok()

    def test_ledger_is_frozen(self):
        led = EnergyLedger(e_start=0.0, e_mean=1.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            led.q_cum = 1.0


def recorded_runs(kind, record_every):
    """The trajectories of a 20-step ``kind`` run with step 0.025."""
    dim = {"driven_m2": 2, "driven_m5": 5}.get(kind, 3)
    fam = random_linear_family(dim, 1, "gue", seed=dim)
    st = QuantumState.from_rho(random_density_matrix(dim, np.random.default_rng(dim)))
    if kind.startswith("driven"):
        return [run_driven(fam, uniform_drive([-1.0], [2.0]), st, 0.5, 20, record_every=record_every)]
    sc = DynamicsScenario(family=fam, apparatus=ApparatusState(x=[0.1], v=[0.5], metric=2.0),
                          state=st, dt=0.025, n_steps=20, record_every=record_every)
    return run_branching(sc) if kind == "branching" else [run_mean_force(sc)]


class TestRecordingRule:
    """Every run records step 0, each ``record_every``-th step and the last,
    and its ledger is its first and last rows."""

    @pytest.mark.parametrize("kind", ["driven_m2", "driven_m5", "mean_force", "branching"])
    @pytest.mark.parametrize("record_every, steps", [(1, range(21)), (7, [0, 7, 14, 20]),
                                                     (25, [0, 20])])
    def test_recorded_steps_and_ledger(self, kind, record_every, steps):
        trajs = recorded_runs(kind, record_every)
        assert len(trajs) == (3 if kind == "branching" else 1)
        for traj in trajs:
            np.testing.assert_array_equal(traj.t, 0.025 * np.array(steps))
            assert len(traj.x) == len(traj.rho) == len(traj.q_cum) == len(steps)
            led = traj.ledger
            assert (np.array([led.e_start, led.e_mean, led.q_cum, led.w_cum]).tobytes()
                    == np.array([traj.e_mean[0], traj.e_mean[-1], traj.q_cum[-1],
                                 traj.w_cum[-1]]).tobytes())


class TestContainers:
    def test_trajectory_weight_bounds(self):
        base = dict(t=np.array([0.0, 1.0]), x=np.zeros((2, 1)), v=np.zeros((2, 1)),
                    rho=np.tile(np.eye(2, dtype=complex) / 2, (2, 1, 1)),
                    e_mean=np.array([0.5, 1.0]), q_cum=np.array([0.0, 0.25]),
                    w_cum=np.array([0.0, 0.25]))
        assert Trajectory(**base).ledger == EnergyLedger(0.5, 1.0, 0.25, 0.25)
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

    @pytest.mark.parametrize("dt", [np.nan, np.inf])
    def test_non_finite_dt_named(self, dt):
        with pytest.raises(ValidationError, match=r"^dt must be positive and finite, got (nan|inf)"):
            DynamicsScenario(family=avoided_crossing_family(), apparatus=ApparatusState(x=[0.0], v=[1.0]),
                             state=QuantumState.pure(0, 2), dt=dt, n_steps=10)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_duration_and_scale_named(self, value):
        fam, path, st = avoided_crossing_family(), uniform_drive([-1.0], [1.0]), QuantumState.pure(0, 2)
        with pytest.raises(ValidationError, match=r"^duration must be positive and finite, got (nan|inf)"):
            run_driven(fam, path, st, value, 10)
        with pytest.raises(ValidationError,
                           match=r"^velocity scale must be positive and finite, got (nan|inf)"):
            time_averaged_diabatic_force(fam, path, 1.0, 10, st, scale=value)

    @pytest.mark.parametrize("run", [run_branching, run_mean_force])
    def test_non_finite_potential_stops_the_run(self, run):
        # the potential is blamed where it turns nan, not the family one step later
        app = ApparatusState(x=[0.0], v=[1.0], potential=lambda x: np.nan if x[0] > 0.05 else 0.0,
                             potential_grad=lambda x: np.array([np.nan if x[0] > 0.05 else 0.0]))
        sc = DynamicsScenario(family=random_linear_family(3, 1, "gue", seed=2), apparatus=app,
                              state=QuantumState.pure(0, 3), dt=0.01, n_steps=20)
        with pytest.raises(ValidationError, match=r"^potential (gradient )?is .*nan.* at x = "):
            run(sc)


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
        gamma, v0, total_t, n = 0.2, 2.0, 0.125, 125
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

    def test_friction_follows_the_tensor(self):
        # a FrictionSpec holding a tensor damps, whichever constructor made it;
        # without one the apparatus coasts
        runs = []
        for friction in (FrictionSpec(gamma=np.array([[5.0]])), FrictionSpec.constant(5.0), None):
            sc = DynamicsScenario(family=CONSTANT_FAMILY, apparatus=ApparatusState(x=[0.0], v=[1.0]),
                                  state=QuantumState.pure(0, 2), dt=1e-3, n_steps=200,
                                  record_every=50, friction=friction)
            runs.append(run_branching(sc)[0])
        assert np.array_equal(runs[0].v, runs[1].v)
        assert np.array_equal(runs[0].extras["friction_heat"], runs[1].extras["friction_heat"])
        assert_allclose(runs[0].v[-1, 0], np.exp(-5.0 * 0.2), rtol=1e-5)
        assert np.all(runs[2].v == 1.0)

    def test_friction_tensor_must_match_the_apparatus(self):
        # a scalar gamma is a 1 x 1 tensor: on two coordinates the scenario names
        # both shapes instead of the kick failing inside numpy
        fam = random_linear_family(2, 2, "goe", seed=0)

        def run(friction):
            app = ApparatusState(x=[0.1, 0.2], v=[0.3, -0.1])
            return run_branching(DynamicsScenario(family=fam, apparatus=app,
                                                  state=QuantumState.pure(0, 2), dt=1e-3,
                                                  n_steps=10, friction=friction))

        with pytest.raises(ValidationError, match=r"shape \(1, 1\).*2 coordinate"):
            run(FrictionSpec.constant(0.5))
        damped = run(FrictionSpec.constant(0.5 * np.eye(2)))[0]
        assert damped.extras["friction_heat"][-1] > 0.0

    def test_constant_friction_must_dissipate(self):
        # only the symmetric part of Gamma does work: it must be positive
        # semidefinite; a singular one and an antisymmetric part are allowed
        def scenario(friction, n):
            app = ApparatusState(x=np.full(n, 0.1), v=np.full(n, 0.3))
            fam = random_linear_family(2, n, "goe", seed=0)
            return DynamicsScenario(family=fam, apparatus=app, state=QuantumState.pure(0, 2),
                                    dt=1e-3, n_steps=10, friction=friction)

        with pytest.raises(ValidationError, match="not dissipative"):
            scenario(FrictionSpec.constant(-0.5), 1)
        with pytest.raises(ValidationError, match="not dissipative"):
            scenario(FrictionSpec.constant([[1.0, 0.0], [0.0, -1e-6]]), 2)
        for gamma in ([[1.0, 1.0], [1.0, 1.0]], [[1.0, 2.0], [-2.0, 1.0]]):
            heat = run_branching(scenario(FrictionSpec.constant(gamma), 2))[0].extras["friction_heat"]
            assert heat[-1] >= 0.0

    def test_dissipation_checked_near_the_float_range(self):
        # Gamma + Gamma^T would overflow; the check neither warns nor misreads the sign
        dynamics._require_dissipative([[1e308]])
        with pytest.raises(ValidationError, match="not dissipative"):
            dynamics._require_dissipative([[-1e308]])

    def test_position_dependent_metric_energy_drift(self):
        app = ApparatusState(x=[0.8], v=[0.6],
                             metric=lambda x: [[1.0 + 0.5 * np.sin(x[0])]],
                             potential=lambda x: 0.5 * x[0] ** 2,
                             potential_grad=lambda x: np.array([x[0]]))
        sc = DynamicsScenario(family=CONSTANT_FAMILY, apparatus=app,
                              state=QuantumState.pure(0, 2), dt=2e-2, n_steps=250,
                              record_every=25)
        traj = run_branching(sc)[0]
        energy = traj.extras["apparatus_energy"]
        assert np.abs(energy - energy[0]).max() < 5e-4


class TestLockstep:
    """Every branch of a lockstep run is bit for bit the run of its pure state."""

    @staticmethod
    def assert_branches_match_single_runs(scenario):
        runs = run_branching(scenario)
        assert len(runs) > 1
        for traj in runs:
            pure = QuantumState.pure(traj.branch_label, scenario.family.dim)
            alone, = run_branching(dataclasses.replace(scenario, state=pure))
            for name in ("t", "x", "v", "rho", "e_mean", "q_cum", "w_cum"):
                assert np.array_equal(getattr(traj, name), getattr(alone, name)), name
            for name in ("apparatus_energy", "friction_heat"):
                assert np.array_equal(traj.extras[name], alone.extras[name]), name
            assert traj.ledger == alone.ledger
        return runs

    @staticmethod
    def stern_gerlach_scenario():
        cfg = SternGerlachConfig()
        app = ApparatusState(x=[0.0, 0.0, 0.0], v=[0.0, 1.1, 0.0], metric=cfg.mass)
        return DynamicsScenario(family=sg_family(cfg), apparatus=app,
                                state=QuantumState.from_rho(np.diag([0.35, 0.65]).astype(complex)),
                                dt=1.0 / 200, n_steps=200, record_every=20)

    def test_stern_gerlach_family(self):
        self.assert_branches_match_single_runs(self.stern_gerlach_scenario())

    def test_branching_builds_no_connections(self):
        # the branches move on W_k with the Hellmann-Feynman forces: P is never read
        built = AssertionError("P built")
        with mock.patch("adiaframe.frames._connections", side_effect=built), \
                mock.patch("adiaframe.dynamics._connections", side_effect=built):
            assert len(run_branching(self.stern_gerlach_scenario())) == 2

    def test_gue_family_two_coordinates(self):
        fam = random_linear_family(8, 2, "gue", seed=11)
        app = ApparatusState(x=[0.2, -0.3], v=[0.4, 0.1], metric=2.0)
        sc = DynamicsScenario(family=fam, apparatus=app,
                              state=QuantumState.from_rho(random_density_matrix(8, 5)),
                              dt=1e-3, n_steps=150, record_every=15)
        assert len(self.assert_branches_match_single_runs(sc)) == 8

    @pytest.mark.parametrize("friction", [FrictionSpec.constant(0.8),
                                          FrictionSpec(gamma=lambda x: [[0.8 + 0.1 * x[0]]])])
    def test_friction_rows_converge_at_different_iterations(self, monkeypatch, friction):
        rows_per_call = []
        acceleration = dynamics._acceleration

        def counted(*args):
            accel = acceleration(*args)

            def counting(v, rows):
                rows_per_call.append(len(v))
                return accel(v, rows)

            return counting

        monkeypatch.setattr(dynamics, "_acceleration", counted)
        sc = DynamicsScenario(family=avoided_crossing_family(1.0, 0.5),
                              apparatus=ApparatusState(x=[-1.0], v=[0.5]),
                              state=QuantumState.from_rho(np.diag([0.3, 0.7]).astype(complex)),
                              dt=1e-2, n_steps=100, friction=friction,
                              record_every=10)
        run_branching(sc)
        assert 1 in rows_per_call and 2 in rows_per_call      # one row kept iterating alone
        monkeypatch.undo()
        runs = self.assert_branches_match_single_runs(sc)
        assert all(tr.extras["friction_heat"][-1] > 0.0 for tr in runs)

    def test_full_constant_mass_matrix(self):
        fam = random_linear_family(3, 2, "gue", seed=3)
        app = ApparatusState(x=[0.1, 0.2], v=[0.3, -0.2], metric=[[2.0, 0.3], [0.3, 1.5]])
        sc = DynamicsScenario(family=fam, apparatus=app,
                              state=QuantumState.from_rho(np.diag([0.2, 0.5, 0.3]).astype(complex)),
                              dt=1e-3, n_steps=100, record_every=10)
        self.assert_branches_match_single_runs(sc)

    def test_callable_metric_with_potential(self):
        app = ApparatusState(x=[0.8], v=[0.6], metric=lambda x: [[1.0 + 0.5 * np.sin(x[0])]],
                             potential=lambda x: 0.5 * x[0] ** 2)
        sc = DynamicsScenario(family=avoided_crossing_family(1.0, 0.5), apparatus=app,
                              state=QuantumState.from_rho(np.diag([0.6, 0.4]).astype(complex)),
                              dt=1e-3, n_steps=100, record_every=10)
        self.assert_branches_match_single_runs(sc)


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

    def test_fourth_order_closure(self):
        # a mixed 3-level state on two coordinates with a mass matrix and friction:
        # the ledger residual falls by about 2^4 each time dt halves
        fam = random_linear_family(3, 2, "gue", seed=1)

        def residual(n_steps):
            app = ApparatusState(x=[0.1, 0.2], v=[0.8, -0.5], metric=[[2.0, 0.3], [0.3, 1.5]])
            traj = run_mean_force(DynamicsScenario(
                family=fam, apparatus=app, state=QuantumState.from_rho(random_density_matrix(3, 4)),
                dt=1.0 / n_steps, n_steps=n_steps, record_every=n_steps,
                friction=FrictionSpec.constant([[0.3, 0.05], [0.05, 0.2]])))
            assert traj.ledger.closure_ok()
            return abs(traj.ledger.residual)

        r50, r100, r200 = residual(50), residual(100), residual(200)
        assert r50 < 1e-8
        assert r50 / r100 > 12.0 and r100 / r200 > 12.0

    def test_ledger_closes_through_exact_crossing(self):
        # level 1 of H(x) = [[x, 0, a x], [0, -x, 0], [a x, 0, 2]] never couples and
        # crosses the lowest level of the other block at x = 0: past it the labels
        # no longer ascend, so every kernel row there is aligned by assignment
        a = 0.6
        fam = MatrixPolynomialFamily([((0,), np.diag([0.0, 0.0, 2.0]).astype(complex)),
                                      ((1,), np.array([[1.0, 0.0, a], [0.0, -1.0, 0.0],
                                                       [a, 0.0, 0.0]], dtype=complex))])
        state = QuantumState.from_rho(np.diag([0.5, 0.3, 0.2]).astype(complex))

        def residual(n_steps):
            sc = DynamicsScenario(family=fam, apparatus=ApparatusState(x=[-1.0], v=[1.5], metric=5.0),
                                  state=state, dt=1.5 / n_steps, n_steps=n_steps, record_every=10)
            with mock.patch("adiaframe.operators._align_to_reference",
                            wraps=operators._align_to_reference) as aligned:
                traj = run_mean_force(sc)
            assert traj.x[0, 0] < 0.0 < traj.x[-1, 0]
            assert aligned.call_count > n_steps
            assert_allclose(traj.populations[:, 1], 0.3, rtol=0, atol=1e-12)
            return abs(traj.ledger.residual)

        coarse, fine = residual(100), residual(200)
        assert coarse < 1e-8
        assert coarse / fine > 12.0

    def test_one_eigensolve_per_step(self):
        # a step's midpoint and end share one kernel call, so an n-step run
        # eigensolves n + 1 times: once per step and once for the start
        fam = random_linear_family(4, 2, "gue", seed=6)
        st = QuantumState.from_rho(random_density_matrix(4, np.random.default_rng(2)))
        sc = DynamicsScenario(family=fam, apparatus=ApparatusState(x=[0.1, -0.3], v=[0.5, 0.2]),
                              state=st, dt=1e-2, n_steps=25)
        with mock.patch("adiaframe.frames._eigensolve", wraps=operators._eigensolve) as solve:
            run_mean_force(sc)
        assert solve.call_count == sc.n_steps + 1

    def test_checks_step_size(self):
        fam = random_linear_family(32, 1, "gue", seed=1, scale=0.3)
        st = QuantumState.from_rho(random_density_matrix(32, np.random.default_rng(0)))
        sc = DynamicsScenario(family=fam, apparatus=ApparatusState(x=[-0.5], v=[1.0]),
                              state=st, dt=1.0, n_steps=1)
        with pytest.raises(StepSizeError, match=r"dt = 1\.000e\+00 at x = "):
            run_mean_force(sc)


class TestAveragedDiabaticForce:
    def test_decreases_for_slower_traversal(self):
        fam = rotating_field_family(gamma=2.0, b0=1.0)
        path = uniform_drive([0.0], [1.0])
        st = QuantumState.pure(0, 2)
        vals = [time_averaged_diabatic_force(fam, path, 2 * np.pi, 600, st, scale=s)[0]
                for s in (1.0, 0.5)]
        assert vals[0] > vals[1] > 0.0

    @pytest.mark.parametrize("scale", [1e-300, 1e-320, 5e-324])
    def test_scale_too_small_named(self, scale):
        # n_steps / scale overflows to inf; the retraced run cannot be built
        with pytest.raises(ValidationError, match=r"^velocity scale \S+ is too small"):
            time_averaged_diabatic_force(rotating_field_family(), uniform_drive([0.0], [1.0]), 1.0,
                                         10, QuantumState.pure(0, 2), scale=scale)

    def test_scale_positive(self):
        fam = rotating_field_family()
        with pytest.raises(ValidationError):
            time_averaged_diabatic_force(fam, uniform_drive([0.0], [1.0]), 1.0, 10,
                                         QuantumState.pure(0, 2), scale=0.0)
