"""Batched family evaluation: evaluate_many/gradient_many against the per-point calls."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from adiaframe import (CallableFamily, HamiltonianFamily, MatrixPolynomialFamily, QuantumState,
                       avoided_crossing_family, run_driven, uniform_drive)
from adiaframe.errors import ValidationError
from adiaframe.families import PAULI_X, PAULI_Y, PAULI_Z, gue

# rows with zeros, negatives and both signs of each coordinate
POINTS = np.array([[0.0, 0.0], [0.7, -1.2], [-0.3, 0.0], [0.0, 2.5], [-1.1, -0.4]])


def polynomial_family():
    return MatrixPolynomialFamily([
        ((2, 1), 0.5 * PAULI_Z),
        ((0, 0), 0.3 * PAULI_X),
        ((1, 0), 0.2 * PAULI_Y),
        ((0, 3), 0.1 * PAULI_Z + 0.4 * PAULI_X),
    ])


def assert_matches_per_point(fam, xs):
    many = fam.evaluate_many(xs)
    grads = fam.gradient_many(xs)
    assert many.shape == (len(xs), fam.dim, fam.dim)
    assert grads.shape == (len(xs), fam.n_coords, fam.dim, fam.dim)
    assert_allclose(many, np.array([fam.evaluate(x) for x in xs]), rtol=0, atol=1e-14)
    assert_allclose(grads, np.array([fam.gradient(x) for x in xs]), rtol=0, atol=1e-14)


class TestBatchedEvaluation:
    def test_polynomial_mixed_exponents(self):
        fam = polynomial_family()
        assert_matches_per_point(fam, POINTS)
        # the closed form of polynomial_family and of its gradient
        c = 0.1 * PAULI_Z + 0.4 * PAULI_X
        for (x, y), h, (gx, gy) in zip(POINTS, fam.evaluate_many(POINTS), fam.gradient_many(POINTS)):
            assert_allclose(h, 0.5 * x * x * y * PAULI_Z + 0.3 * PAULI_X + 0.2 * x * PAULI_Y + y ** 3 * c,
                            rtol=0, atol=1e-14)
            assert_allclose(gx, x * y * PAULI_Z + 0.2 * PAULI_Y, rtol=0, atol=1e-14)
            assert_allclose(gy, 0.5 * x * x * PAULI_Z + 3.0 * y * y * c, rtol=0, atol=1e-14)

    def test_one_row_is_the_stack_bit_for_bit(self):
        # nonlinear monomials, where a per-term sum and the stacked einsum
        # round differently: evaluate/gradient must be the stack's row
        rng = np.random.default_rng(5)
        mats = [gue(3, rng) for _ in range(3)]
        fam = MatrixPolynomialFamily(zip([(2, 1), (0, 3), (1, 1)], mats))
        xs = rng.uniform(-2.0, 2.0, size=(200, 2))
        many, grads = fam.evaluate_many(xs), fam.gradient_many(xs)
        for x, h, g in zip(xs, many, grads):
            assert np.array_equal(fam.evaluate(x), h)
            assert np.array_equal(fam.gradient(x), g)

    def test_terms_are_checked_and_stacked_at_construction(self):
        # the family keeps the matrices it checked: writing into the caller's
        # array afterwards, even a non-Hermitian entry, does not reach H(x)
        m = 0.4 * PAULI_X + 0.1 * PAULI_Z
        fam = MatrixPolynomialFamily([((0, 0), m), ((1, 0), PAULI_Z.copy())])
        before = fam.evaluate_many(POINTS)
        m[0, 1] = 7.0
        assert np.array_equal(fam.evaluate_many(POINTS), before)
        assert fam.terms[0][1][0, 1] == 0.4
        with pytest.raises(ValidationError):
            MatrixPolynomialFamily([((0, 0), m)])

    def test_callable_family_with_gradient(self):
        fam = polynomial_family()
        assert_matches_per_point(CallableFamily(2, 2, fam.evaluate, fam.gradient), POINTS)

    def test_callable_family_finite_difference_gradient(self):
        fam = CallableFamily(1, 2, lambda x: np.cos(x[0]) * PAULI_Z + np.sin(x[0]) * PAULI_X)
        assert_matches_per_point(fam, POINTS[:, :1])

    def test_default_gradient_is_central_differences_on_every_row(self):
        # (f(x + h e_k) - f(x - h e_k)) / 2h written out point by point
        def f(x):
            return np.cos(x[0]) * PAULI_Z + np.sin(x[0] * x[1]) * PAULI_X + x[1] ** 3 * PAULI_Y

        fam = CallableFamily(2, 2, f, fd_step=[1e-3, 2e-4])
        expected = np.array([[(f(x + h * e) - f(x - h * e)) / (2.0 * h)
                              for h, e in zip(fam.fd_step, np.eye(2))] for x in POINTS])
        assert np.array_equal(fam.gradient_many(POINTS), expected)
        assert np.array_equal(fam.gradient(POINTS[1]), expected[1])

    def test_every_family_is_written_on_stacks(self):
        # evaluate and gradient are the base class's one-row case, never redefined
        classes, todo = [], [HamiltonianFamily]
        while todo:
            subs = todo.pop().__subclasses__()
            classes += [cls for cls in subs if cls.__module__.startswith("adiaframe.")]
            todo += subs
        assert {cls.__name__ for cls in classes} >= {"CallableFamily", "MatrixPolynomialFamily",
                                                     "_SternGerlachFamily"}
        for cls in classes:
            assert "evaluate_many" in vars(cls), cls
            assert "evaluate" not in vars(cls) and "gradient" not in vars(cls), cls

    def test_polynomial_rejects_wrong_shape(self):
        with pytest.raises(ValidationError):
            polynomial_family().evaluate_many(POINTS[:, :1])
        with pytest.raises(ValidationError):
            polynomial_family().gradient_many(POINTS[0])


class TestDrivenPathShapes:
    @pytest.mark.parametrize("path", [
        lambda t: (np.array([t, 0.0]), np.array([1.0])),      # x has two coordinates
        lambda t: (np.array([t]), np.array([1.0, 0.0])),      # v has two coordinates
        lambda t: (np.array([[t]]), np.array([1.0])),         # x is a matrix
        lambda t: ([t] if t < 0.5 else [t, t], [1.0]),        # x changes shape on the way
    ])
    def test_wrong_shape_raises_validation_error(self, path):
        with pytest.raises(ValidationError):
            run_driven(avoided_crossing_family(), path, QuantumState.pure(0, 2), 1.0, 10)

    def test_scalar_path_accepted(self):
        fam = avoided_crossing_family()
        traj = run_driven(fam, lambda t: (-1.0 + t, 1.0), QuantumState.pure(0, 2), 1.0, 10)
        ref = run_driven(fam, uniform_drive([-1.0], [1.0]), QuantumState.pure(0, 2), 1.0, 10)
        assert np.array_equal(traj.rho, ref.rho)
