import json
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

import adiaframe
from adiaframe import (
    CallableFamily,
    MatrixPolynomialFamily,
    avoided_crossing_family,
    build_frame,
    canonical_populations,
    canonical_state,
    counting_function,
    density_of_states,
    entropy_temperature,
    hermitian_eig,
    kubo_friction,
    maxwell_check,
    mean_level_spacing,
    microcanonical_force,
    random_linear_family,
)
from adiaframe.errors import DomainError, ValidationError
from adiaframe.families import PAULI_X, PAULI_Y, PAULI_Z, goe
from adiaframe.units import KB

STAIRCASE = np.array([0.0, 1.0, 2.0, 3.0])


class TestCountingFunction:
    def test_sharp_staircase(self):
        assert counting_function(STAIRCASE, 1.5) == 2.0
        assert counting_function(STAIRCASE, -0.5) == 0.0
        assert counting_function(STAIRCASE, 3.0) == 4.0
        out = counting_function(STAIRCASE, np.array([[0.5, 2.5]]))
        assert out.shape == (1, 2)
        assert_allclose(out, [[1.0, 3.0]])

    def test_zero_sigma_matches_sharp(self):
        e = np.linspace(-1.0, 4.0, 17)
        assert_allclose(counting_function(STAIRCASE, e, sigma=0.0),
                        counting_function(STAIRCASE, e))

    def test_narrow_smoothing_approaches_staircase(self):
        e = np.array([0.5, 1.5, 2.5])
        assert_allclose(counting_function(STAIRCASE, e, sigma=0.01),
                        [1.0, 2.0, 3.0], atol=1e-6)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValidationError):
            counting_function(STAIRCASE, 1.0, sigma=-0.1)
        with pytest.raises(ValidationError):
            counting_function([], 1.0)


class TestDensityOfStates:
    def test_is_derivative_of_counting(self):
        rng = np.random.default_rng(0)
        levels = np.sort(rng.normal(size=12))
        e = np.linspace(-2.0, 2.0, 9)
        h = 1e-6
        fd = (counting_function(levels, e + h, sigma=0.2)
              - counting_function(levels, e - h, sigma=0.2)) / (2.0 * h)
        assert_allclose(density_of_states(levels, e, 0.2), fd, atol=1e-6)

    def test_total_weight(self):
        levels = np.array([0.0, 0.3, 1.1])
        e = np.linspace(-6.0, 7.0, 4001)
        assert_allclose(np.trapezoid(density_of_states(levels, e, 0.4), e),
                        3.0, atol=1e-6)

    def test_needs_positive_sigma(self):
        with pytest.raises(ValidationError):
            density_of_states(STAIRCASE, 1.0, 0.0)


class TestEntropyTemperature:
    def test_grid_validation(self):
        with pytest.raises(ValidationError):
            entropy_temperature(STAIRCASE, [0.0, 1.0], 0.1)
        with pytest.raises(ValidationError):
            entropy_temperature(STAIRCASE, [0.0, 1.0, 0.5], 0.1)

    def test_counting_identity_on_harmonic_ladder(self):
        levels = 0.5 * np.arange(1000)
        grid = np.linspace(levels[100], levels[900], 301)
        curve = entropy_temperature(levels, grid, 3.0 * 0.5)
        assert curve.valid.sum() > 250
        assert curve.counting_identity_residual().max() < 0.02
        mask = curve.valid
        assert_allclose(curve.entropy[mask], KB * np.log(curve.omega[mask]))

    def test_residual_needs_statistical_weight(self):
        curve = entropy_temperature([1000.0, 1001.0], np.linspace(0.0, 1.0, 11), 0.5)
        with pytest.raises(DomainError):
            curve.counting_identity_residual()


class TestMicrocanonicalForce:
    def test_two_level_shell_picks_one_branch(self):
        fam = avoided_crossing_family(1.0, 0.5)
        r = np.hypot(0.8, 0.5)
        force = microcanonical_force(fam, [0.8], -r, 1e-3)
        assert_allclose(force, [0.8 / r], atol=1e-12)

    def test_uniform_shift_is_exact(self):
        rng = np.random.default_rng(8)
        fam = MatrixPolynomialFamily([((0,), goe(5, rng)),
                                      ((1,), 0.7 * np.eye(5, dtype=complex))])
        e_mid = float(np.linalg.eigvalsh(fam.evaluate([0.3]))[2])
        force = microcanonical_force(fam, [0.3], e_mid, 0.5)
        assert_allclose(force, [-0.7], atol=1e-14)

    def test_needs_positive_sigma(self):
        fam = avoided_crossing_family()
        with pytest.raises(ValidationError):
            microcanonical_force(fam, [0.0], 0.0, 0.0)


class TestMaxwellCheck:
    def test_dense_spectrum_identities(self):
        fam = random_linear_family(60, 1, "goe", seed=3)
        levels = np.linalg.eigvalsh(fam.evaluate([0.2]))
        sigma = 5.0 * mean_level_spacing(levels)
        report = maxwell_check(fam, [0.2], float(np.quantile(levels, 0.45)), sigma)
        assert report.residual_entropy_form.max() < 0.05
        assert report.residual_isentropic_form.max() < 0.05
        assert report.ok()

    def test_unbracketed_entropy_detected(self):
        fam = random_linear_family(60, 1, "goe", seed=3)
        levels = np.linalg.eigvalsh(fam.evaluate([0.2]))
        sigma = 5.0 * mean_level_spacing(levels)
        with pytest.raises(DomainError):
            maxwell_check(fam, [0.2], float(np.quantile(levels, 0.45)), sigma,
                          energy_halfwidth=1e-6)

    def test_non_hermitian_displaced_configuration_named(self):
        # H(x) = diag(0, ..., 5) + x B with the single entry B[0, 3] = 1:
        # self-adjoint at x = 0 only, so the levels at x +- dx are not real
        b = np.zeros((6, 6))
        b[0, 3] = 1.0
        fam = CallableFamily(1, 6, lambda x: np.diag(np.arange(6.0)) + x[0] * b,
                             lambda x: b[None])
        with pytest.raises(ValidationError, match=r"at x = \[0\.001\]"):
            build_frame(fam, [1e-3])
        with pytest.raises(ValidationError, match=r"at x = \[0\.001\]"):
            maxwell_check(fam, [0.0], 2.5, 0.5, dx=1e-3)

    def test_saturated_count_detected(self):
        fam = random_linear_family(60, 1, "goe", seed=3)
        levels = np.linalg.eigvalsh(fam.evaluate([0.2]))
        spacing = mean_level_spacing(levels)
        with pytest.raises(DomainError):
            maxwell_check(fam, [0.2], float(levels.max() + 50.0 * spacing),
                          0.5 * spacing)


class TestCanonical:
    def test_infinite_temperature_is_uniform(self):
        assert_allclose(canonical_populations([3.0, 9.0, 4.0], 0.0),
                        np.ones(3) / 3.0)

    def test_two_level_form(self):
        p = canonical_populations([-1.0, 1.0], 0.7)
        assert_allclose(p[0], np.exp(0.7) / (2.0 * np.cosh(0.7)), atol=1e-15)
        assert_allclose(p.sum(), 1.0, atol=1e-15)

    def test_zero_temperature_limit(self):
        assert_allclose(canonical_populations([0.0, 0.5, 2.0], 1e4),
                        [1.0, 0.0, 0.0], atol=1e-12)

    def test_energy_offset_invariance(self):
        w = np.array([-1.0, 0.4, 1.0])
        assert_allclose(canonical_populations(w, 0.7),
                        canonical_populations(w + 5.0, 0.7), atol=1e-10)

    def test_negative_beta_overflow_safe(self):
        p = canonical_populations([0.0, 500.0, 1000.0], -2.0)
        assert np.all(np.isfinite(p))
        assert_allclose(p.sum(), 1.0)
        assert p.argmax() == 2

    def test_accepts_spectrum(self):
        spec = hermitian_eig(np.diag([-1.0, 1.0]).astype(complex))
        assert_allclose(canonical_populations(spec, 0.7),
                        canonical_populations([-1.0, 1.0], 0.7))

    def test_accepts_an_adiabatic_frame(self):
        # an object with eigenvalues is read through them, bit for bit
        frame = build_frame(random_linear_family(5, 1, "gue", seed=2), [0.3])
        for beta in (0.7, -1.3):
            assert np.array_equal(canonical_populations(frame, beta),
                                  canonical_populations(frame.eigenvalues, beta))

    def test_canonical_state(self):
        st = canonical_state([-1.0, 1.0], 0.7)
        st.validate()
        assert_allclose(st.populations, canonical_populations([-1.0, 1.0], 0.7))
        assert_allclose(st.rho, np.diag(st.populations).astype(complex))


class TestMeanLevelSpacing:
    def test_values(self):
        assert mean_level_spacing([0.0, 1.0, 5.0]) == 2.5
        assert mean_level_spacing([2.0]) == 0.0


class TestKuboFriction:
    def test_constant_family_has_no_friction(self):
        fam = MatrixPolynomialFamily([((0,), PAULI_Z)])
        assert_allclose(kubo_friction(fam, [0.0], 1.0, eta=0.5).gamma, [[0.0]])

    def test_two_coordinate_tensor_frozen(self):
        fam = MatrixPolynomialFamily([
            ((0, 0), 1.0 * PAULI_Z),
            ((1, 0), 0.7 * PAULI_X + 0.2 * PAULI_Z),
            ((0, 1), 0.5 * PAULI_Y - 0.3 * PAULI_X),
        ])
        tensor = kubo_friction(fam, (0.3, -0.2), 1.2, eta=0.9)
        expected = np.array([[0.04996495457286845, -0.020964770657706903],
                             [-0.020964770657706903, 0.04102981637691347]])
        assert_allclose(tensor.gamma, expected, rtol=1e-10)
        assert tensor.n_coords == 2
        assert tensor.beta == 1.2
        assert tensor.eta == 0.9

    def test_dense_real_family_symmetric_nonnegative(self):
        fam = random_linear_family(6, 2, "goe", seed=4)
        tensor = kubo_friction(fam, [0.5, -0.3], 2.0)
        g = tensor.gamma
        assert np.abs(g - g.T).max() <= 1e-8 * np.abs(g).max()
        assert np.all(np.diagonal(g) >= 0.0)

    def test_default_relaxation_rate(self):
        fam = random_linear_family(6, 2, "goe", seed=4)
        levels = np.linalg.eigvalsh(fam.evaluate([0.5, -0.3]))
        tensor = kubo_friction(fam, [0.5, -0.3], 2.0)
        assert_allclose(tensor.eta, 0.1 * mean_level_spacing(levels), rtol=1e-12)

    def test_eta_must_be_positive(self):
        fam = avoided_crossing_family()
        with pytest.raises(ValidationError):
            kubo_friction(fam, [0.0], 1.0, eta=0.0)


def traced_peak(call) -> int:
    """The traced allocation peak of ``call()``, after one untraced warm-up call."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemoryPeaks:
    FAM = random_linear_family(400, 2, "goe", seed=1)
    X = np.array([0.2, -0.4])

    def test_kubo_friction_peak(self):
        """The traced peak of kubo_friction on a 400-level, 2-coordinate GOE
        family stays within 10 % of 18.5 MiB; a full AdiabaticFrame and a
        complex (n, n, m, m) moment stack took it to 36.9 MiB."""
        peak = traced_peak(lambda: kubo_friction(self.FAM, self.X, 0.1))
        assert peak <= 1.1 * 18.5 * 2 ** 20, f"peak {peak / 2 ** 20:.2f} MiB"

    def test_maxwell_check_peak(self):
        """The traced peak of maxwell_check on the same family stays within
        10 % of 18.6 MiB; checking its 5-row stack of H for self-adjointness
        all at once took it to 36.8 MiB."""
        peak = traced_peak(lambda: maxwell_check(self.FAM, self.X, -2.0, 1.0))
        assert peak <= 1.1 * 18.6 * 2 ** 20, f"peak {peak / 2 ** 20:.2f} MiB"


def test_scipy_special_waits_for_the_first_smoothed_count():
    # scipy.special is most of the package's import time and only erf needs it
    code = ("import json, sys\n"
            "import numpy as np\n"
            "import adiaframe\n"
            "assert 'scipy.special' not in sys.modules\n"
            "curve = adiaframe.entropy_temperature(np.arange(10.0), np.linspace(2.0, 7.0, 11), 0.8)\n"
            "assert 'scipy.special' in sys.modules\n"
            "print(json.dumps(curve.entropy.tolist()))\n")
    src = str(pathlib.Path(adiaframe.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    here = entropy_temperature(np.arange(10.0), np.linspace(2.0, 7.0, 11), 0.8).entropy
    assert json.loads(out) == here.tolist()
