from unittest import mock

import numpy as np
import pytest
from numpy.testing import assert_allclose

from adiaframe import (
    QuantumState,
    SternGerlachConfig,
    sg_family,
    sg_hamiltonian,
    sg_run,
)
from adiaframe.errors import ValidationError
from adiaframe.families import PAULI_X, PAULI_Y, PAULI_Z
from adiaframe.units import HBAR


class TestHamiltonian:
    def test_axial_field(self):
        h = sg_hamiltonian([0.0, 0.0, 2.0], gamma=1.5)
        assert_allclose(h, -0.5 * HBAR * 1.5 * 2.0 * PAULI_Z, atol=0.0)

    def test_eigenvalues_scale_with_field_magnitude(self):
        b = np.array([0.6, 0.0, 0.8])
        w = np.linalg.eigvalsh(sg_hamiltonian(b, gamma=2.0))
        assert_allclose(w, [-HBAR, HBAR], atol=1e-14)

    def test_field_shape_checked(self):
        with pytest.raises(ValidationError):
            sg_hamiltonian([1.0, 0.0])


class TestConfig:
    def test_default_profile(self):
        cfg = SternGerlachConfig()
        assert_allclose(cfg.field_at([0.2, 5.0, 0.1]), [-0.1, 0.0, 1.05])
        db = cfg.field_grad_at([0.0, 0.0, 0.0])
        expected = np.zeros((3, 3))
        expected[0, 0] = -0.5
        expected[2, 2] = 0.5
        assert_allclose(db, expected)

    def test_parameter_validation(self):
        with pytest.raises(ValidationError):
            SternGerlachConfig(gamma=0.0)
        with pytest.raises(ValidationError):
            SternGerlachConfig(mass=-1.0)

    def test_family_gradient_matches_field(self):
        cfg = SternGerlachConfig(gamma=1.3, field_strength=0.9, field_gradient=0.4)
        fam = sg_family(cfg)
        r = np.array([0.1, 0.0, -0.2])
        g = fam.gradient(r)
        h = 1e-6
        for k in range(3):
            rp, rm = r.copy(), r.copy()
            rp[k] += h
            rm[k] -= h
            fd = (fam.evaluate(rp) - fam.evaluate(rm)) / (2.0 * h)
            assert_allclose(g[k], fd, atol=1e-9)


class TestStackedFamily:
    CFG = SternGerlachConfig(gamma=1.3, field_strength=0.9, field_gradient=0.4)
    POINTS = np.random.default_rng(5).normal(size=(7, 3)) * [1.0, 3.0, 0.5]

    def test_rows_are_the_one_point_formulas_bit_for_bit(self):
        cfg = self.CFG
        fam = sg_family(cfg)
        db = cfg.field_grad_at(None)
        grad = (-0.5 * HBAR * cfg.gamma) * np.einsum(
            "kc,cij->kij", db, np.stack([PAULI_X, PAULI_Y, PAULI_Z]))
        hs, gs = fam.evaluate_many(self.POINTS), fam.gradient_many(self.POINTS)
        assert hs.shape == (7, 2, 2) and gs.shape == (7, 3, 2, 2)
        for r, h, g in zip(self.POINTS, hs, gs):
            expected = sg_hamiltonian(cfg.field_at(r), cfg.gamma)
            assert h.tobytes() == expected.tobytes() == fam.evaluate(r).tobytes()
            assert g.tobytes() == grad.tobytes() == fam.gradient(r).tobytes()

    def test_stack_is_one_coupling_of_the_field_of_its_rows(self):
        # B(r) and the Zeeman coupling are written once: the family calls
        # field_at and sg_hamiltonian on its whole stack
        cfg = self.CFG
        fam = sg_family(cfg)
        with mock.patch("adiaframe.stern_gerlach.sg_hamiltonian", wraps=sg_hamiltonian) as coupling, \
                mock.patch.object(SternGerlachConfig, "field_at", autospec=True,
                                  side_effect=SternGerlachConfig.field_at) as field:
            hs = fam.evaluate_many(self.POINTS)
        assert field.call_count == 1 and coupling.call_count == 1
        assert np.array_equal(field.call_args.args[1], self.POINTS)
        b, gamma = coupling.call_args.args
        assert b.tobytes() == cfg.field_at(self.POINTS).tobytes() and gamma == cfg.gamma
        assert hs.tobytes() == sg_hamiltonian(b, gamma).tobytes()

    def test_field_and_coupling_take_stacks(self):
        cfg = self.CFG
        b = cfg.field_at(self.POINTS.reshape(7, 1, 3))
        assert b.shape == (7, 1, 3)
        assert b[:, 0].tobytes() == np.array([cfg.field_at(r) for r in self.POINTS]).tobytes()
        assert sg_hamiltonian(b, cfg.gamma).shape == (7, 1, 2, 2)

    def test_family_keeps_the_config_of_its_construction(self):
        cfg = SternGerlachConfig(gamma=1.3, field_strength=0.9, field_gradient=0.4)
        fam = sg_family(cfg)
        hs, gs = fam.evaluate_many(self.POINTS), fam.gradient_many(self.POINTS)
        cfg.gamma, cfg.field_strength, cfg.field_gradient = 2.0, 0.1, 3.0
        assert np.array_equal(fam.evaluate_many(self.POINTS), hs)
        assert np.array_equal(fam.gradient_many(self.POINTS), gs)

    def test_gradient_is_a_fresh_writable_array(self):
        fam = sg_family(self.CFG)
        g = fam.gradient(self.POINTS[0])
        assert g.flags.writeable
        g[:] = 0.0
        assert np.abs(fam.gradient(self.POINTS[0])).max() > 0.0
        assert np.abs(fam.gradient_many(self.POINTS)).min(axis=0).max() > 0.0

    def test_stack_shape_checked(self):
        with pytest.raises(ValidationError, match=r"xs must have shape \(t, 3\)"):
            sg_family(self.CFG).evaluate_many(np.zeros((2, 2)))

    @pytest.mark.parametrize("mode", ["branching", "mean_force"])
    def test_runs_never_take_the_one_point_methods(self, mode):
        # every frame of a run evaluates H and dH on its stack of rows
        cls = type(sg_family(self.CFG))
        with mock.patch.object(cls, "evaluate", autospec=True, wraps=cls.evaluate) as ev, \
                mock.patch.object(cls, "gradient", autospec=True, wraps=cls.gradient) as gr:
            res = sg_run(self.CFG, mode=mode, duration=0.2, n_steps=50)
        assert len(res.trajectories) == (2 if mode == "branching" else 1)
        assert ev.call_count == 0 and gr.call_count == 0


@pytest.fixture(scope="module")
def result():
    return sg_run(SternGerlachConfig(), duration=1.0, n_steps=800, record_every=8)


class TestBranchingRun:
    def test_labels_and_signs(self, result):
        assert result.labels == ("+", "-")
        assert result.branch("+").x[-1, 2] > 0.0
        assert result.branch("-").x[-1, 2] < 0.0

    def test_on_axis_parabolas(self, result):
        accel = 0.5 * HBAR * 1.0 * 0.5 / 1.0
        for label, sign in (("+", 1.0), ("-", -1.0)):
            traj = result.branch(label)
            assert_allclose(traj.x[:, 2], sign * 0.5 * accel * traj.t ** 2,
                            atol=1e-9)
            assert_allclose(traj.x[:, 1], traj.t, atol=1e-9)
            assert np.all(traj.x[:, 0] == 0.0)

    def test_separation_and_closure(self, result):
        assert_allclose(result.separation, 0.25, atol=1e-9)
        for residual in result.closure_residuals.values():
            assert residual < 1e-7

    def test_weights_exact_for_exact_populations(self):
        st = QuantumState.from_rho(np.diag([0.25, 0.75]).astype(complex))
        res = sg_run(SternGerlachConfig(), state=st, duration=0.1, n_steps=20)
        assert res.weights[0] == 0.25
        assert res.weights[1] == 0.75

    def test_weight_within_norm_tolerance(self):
        # |c|^2 = 1.00000000002 is within the amplitude-norm tolerance: the run
        # keeps the weight as the state gives it
        st = QuantumState.from_amplitudes([1.00000000001, 0.0])
        res = sg_run(SternGerlachConfig(), state=st, duration=0.1, n_steps=10)
        assert res.labels == ("+",)
        assert res.weights[0] == st.populations[0] > 1.0

    def test_gradient_mirror(self, result):
        mirrored = sg_run(SternGerlachConfig(field_gradient=-0.5), duration=1.0,
                          n_steps=800, record_every=8)
        assert_allclose(mirrored.branch("+").x[:, 2],
                        -result.branch("+").x[:, 2], atol=1e-10)

    def test_unknown_label(self, result):
        with pytest.raises(KeyError):
            result.branch("0")


class TestSampledRun:
    def test_counts_seeded(self):
        kw = dict(mode="sampled", n_samples=10000, seed=42, duration=1.0,
                  n_steps=800, record_every=8)
        res = sg_run(SternGerlachConfig(), **kw)
        again = sg_run(SternGerlachConfig(), **kw)
        assert np.array_equal(res.counts, again.counts)
        assert res.counts.sum() == 10000
        assert np.abs(res.counts - 5000).max() <= 150

    def test_needs_sample_size(self):
        with pytest.raises(ValidationError):
            sg_run(SternGerlachConfig(), mode="sampled", duration=0.1, n_steps=10)

    def test_unknown_mode(self):
        with pytest.raises(ValidationError):
            sg_run(SternGerlachConfig(), mode="averaged")


class TestMeanForceRun:
    def test_symmetric_beam_stays_near_axis(self):
        res = sg_run(SternGerlachConfig(), mode="mean_force", duration=1.0,
                     n_steps=400)
        assert len(res.trajectories) == 1
        traj = res.trajectories[0]
        # the averaged state splits no beam: z deflection stays far below the
        # branch parabola z = 0.125 while the weights never enter
        assert np.abs(traj.x[:, 2]).max() < 1e-3
        assert res.labels == ()
