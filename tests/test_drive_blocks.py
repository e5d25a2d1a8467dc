"""Driven runs stepped in blocks of steps, against the same run in one block.

``dynamics._DRIVE_BLOCK`` sizes a block by the complex entries of its node
stacks.  Each test shrinks it to force block boundaries and compares the run
with the run whose one block holds every step: bit for bit where every
block takes the gauge's all-at-once path, the same error where a check
fails in a later block, and within rounding through an exact crossing,
where the gauge falls back in some blocks only.
"""

from unittest import mock

import numpy as np
import pytest
from numpy.testing import assert_allclose

from adiaframe import (CallableFamily, MatrixPolynomialFamily, QuantumState, dynamics, operators,
                       random_linear_family, run_driven, time_averaged_diabatic_force, uniform_drive)
from adiaframe.errors import StepSizeError, ValidationError
from adiaframe.units import HBAR

ONE_BLOCK = 2 ** 62
FIELDS = ("t", "x", "v", "rho", "e_mean", "q_cum", "w_cum")


def block_entries(fam, steps: int) -> int:
    """The ``_DRIVE_BLOCK`` that gives blocks of ``steps`` steps on ``fam``."""
    return steps * 2 * fam.n_coords * fam.dim ** 2


def one_and_blocked(fam, run, steps: int):
    """``run()`` in one block and in blocks of ``steps`` steps, with the
    number of blocks (frame-kernel calls) of the blocked run."""
    with mock.patch.object(dynamics, "_DRIVE_BLOCK", ONE_BLOCK):
        one = run()
    with mock.patch.object(dynamics, "_DRIVE_BLOCK", block_entries(fam, steps)), \
            mock.patch("adiaframe.dynamics._frame_kernel", wraps=dynamics._frame_kernel) as kernel:
        blocked = run()
    return one, blocked, kernel.call_count


def dephase(state):
    return QuantumState(rho=np.diag(state.rho.diagonal()))


def mixed(dim: int) -> QuantumState:
    return QuantumState.from_rho(np.diag(np.arange(dim, 0.0, -1.0) / (dim * (dim + 1) / 2)))


@pytest.mark.parametrize("dim, n_coords", [(2, 1), (5, 1), (2, 2), (5, 2)])
def test_blocked_run_is_the_one_block_run(dim, n_coords):
    # blocks of 8 steps: the event at step 16 ends block 2, the one at 21 lies
    # inside block 3; record_every = 3 does not divide the block, and the
    # last of the 6 blocks holds 5 steps
    fam = random_linear_family(dim, n_coords, "gue", seed=dim + n_coords)
    path = uniform_drive([-1.0, 0.4][:n_coords], [1.5, -0.7][:n_coords])
    one, blocked, blocks = one_and_blocked(
        fam, lambda: run_driven(fam, path, mixed(dim), 1.5, 45, record_every=3,
                                events={16: dephase, 21: dephase}), 8)
    assert blocks == 6
    for name in FIELDS:
        assert np.array_equal(getattr(one, name), getattr(blocked, name)), name
    assert sorted(one.extras) == sorted(blocked.extras) == ["diabatic_mean", "events"]
    assert np.array_equal(one.extras["diabatic_mean"], blocked.extras["diabatic_mean"])
    assert blocked.event_steps == one.event_steps == (16, 21)
    for a, b in zip(one.extras["events"], blocked.extras["events"]):
        assert a["step"] == b["step"]
        assert np.array_equal(a["rho_before"], b["rho_before"])
        assert np.array_equal(a["rho_after"], b["rho_after"])


@pytest.mark.parametrize("dim", [2, 5])
def test_blocked_time_average_is_the_one_block_average(dim):
    fam = random_linear_family(dim, 1, "gue", seed=7)
    path = uniform_drive([-1.0], [2.0])
    one, blocked, blocks = one_and_blocked(
        fam, lambda: time_averaged_diabatic_force(fam, path, 1.0, 20, mixed(dim), scale=0.5), 4)
    assert blocks == 10
    assert np.array_equal(one, blocked)


def test_step_size_error_in_block_three():
    # H = c x sigma_z along x = t: dt * spread / hbar = 2 c t dt / hbar passes
    # 2 sqrt(2) first at node 20 (t = 10 dt), inside block 3 of 4 steps
    n_steps, duration = 40, 1.0
    dt = duration / n_steps
    c = 2.0 * np.sqrt(2.0) * HBAR / (2.0 * 9.75 * dt * dt)
    fam = MatrixPolynomialFamily([((1,), c * np.diag([1.0, -1.0]).astype(complex))])
    path = uniform_drive([0.0], [1.0])
    messages = []
    for entries in (ONE_BLOCK, block_entries(fam, 4)):
        with mock.patch.object(dynamics, "_DRIVE_BLOCK", entries), \
                mock.patch("adiaframe.dynamics._frame_kernel", wraps=dynamics._frame_kernel) as kernel, \
                pytest.raises(StepSizeError) as err:
            run_driven(fam, path, QuantumState.pure(0, 2), duration, n_steps)
        messages.append((str(err.value), kernel.call_count))
    assert messages[0][0] == messages[1][0]
    assert f"at t = {10 * dt}" in messages[0][0]
    assert [calls for _, calls in messages] == [1, 3]


def test_non_hermitian_error_in_block_three():
    def h(x):
        m = np.array([[x[0], 1.0], [1.0, -x[0]]], dtype=complex)
        if x[0] > 0.55:
            m[0, 1] += 1e-3
        return m

    fam = CallableFamily(1, 2, h, lambda x: np.array([np.diag([1.0, -1.0])], dtype=complex))
    path = uniform_drive([0.0], [1.0])              # nodes at x = i / 40; node 23 is first past 0.55
    messages = []
    for entries in (ONE_BLOCK, block_entries(fam, 4)):
        with mock.patch.object(dynamics, "_DRIVE_BLOCK", entries), \
                mock.patch("adiaframe.dynamics._frame_kernel", wraps=dynamics._frame_kernel) as kernel, \
                pytest.raises(ValidationError) as err:
            run_driven(fam, path, QuantumState.pure(0, 2), 1.0, 20)
        messages.append((str(err.value), kernel.call_count))
    assert messages[0][0] == messages[1][0]
    assert messages[0][0].startswith(f"H(x) is not self-adjoint at x = {np.array([23 / 40])}")
    assert [calls for _, calls in messages] == [1, 3]


def test_exact_crossing_within_rounding():
    # level 1 of H(x) = [[x, 0, a x], [0, -x, 0], [a x, 0, 2]] never couples and
    # crosses the lowest level of the other block at x = 0, a node of the drive:
    # the one-block run aligns every row in order, the blocked run only the
    # blocks from the crossing on
    fam = MatrixPolynomialFamily([((0,), np.diag([0.0, 0.0, 2.0]).astype(complex)),
                                  ((1,), np.array([[1.0, 0.0, 0.6], [0.0, -1.0, 0.0],
                                                   [0.6, 0.0, 0.0]], dtype=complex))])
    state = QuantumState.from_rho(np.diag([0.5, 0.3, 0.2]).astype(complex))
    aligned = []

    def run():
        with mock.patch("adiaframe.operators._align_to_reference",
                        wraps=operators._align_to_reference) as align:
            traj = run_driven(fam, uniform_drive([-1.0], [1.0]), state, 2.0, 100, record_every=5)
        aligned.append(align.call_count)
        return traj

    one, blocked, blocks = one_and_blocked(fam, run, 8)
    assert blocks == 13
    assert aligned[0] == 200 and 0 < aligned[1] < 200
    assert_allclose(blocked.populations, one.populations, rtol=0, atol=1e-12)
    assert_allclose(blocked.populations[:, 1], 0.3, rtol=0, atol=1e-12)
    for name in ("e_mean", "q_cum", "w_cum"):
        assert_allclose(getattr(blocked, name), getattr(one, name), rtol=0, atol=1e-12)
    assert blocked.ledger.closure_ok()
