"""The driven routes: the frame kernel's node data, the RK4 step kernel, the
transfer maps of small systems and the ledger quadrature.

The reference below is the four-stage formula the ledger quadrature
replaced: two-product commutators and one einsum of every stage state with
the diabatic and adiabatic forces of its node, stepping the state as well.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from adiaframe import (CallableFamily, QuantumState, avoided_crossing_family, frame_path,
                       random_linear_family, run_driven, uniform_drive)
from adiaframe import dynamics
from adiaframe.errors import StepSizeError
from adiaframe.frames import _connections, _force_split, _frame_kernel
from adiaframe.operators import hermitize
from adiaframe.units import HBAR


def reference_ledger(fam, path, rho0, duration, n_steps, events):
    """Cumulative (Q, W) and rho after every step by the four-stage einsum formula."""
    dt = duration / n_steps
    times = 0.5 * dt * np.arange(2 * n_steps + 1)
    xs = np.array([path(t)[0] for t in times])
    vs = np.array([path(t)[1] for t in times])
    w, _, gad, same, *_ = _frame_kernel(fam, xs)
    p = _connections(w, gad, same)
    f_ops, f_ad = _force_split(w, p, gad, same)
    h = np.array([np.diag(wi) for wi in w]).astype(complex) - np.einsum("tk,tkij->tij", vs, p)

    def rhs(hh, r):
        return (-1j / HBAR) * (hh @ r - r @ hh)

    rho, q, wk, out, rhos = rho0.astype(complex), 0.0, 0.0, [], []
    for step in range(1, n_steps + 1):
        a, b, c = 2 * step - 2, 2 * step - 1, 2 * step
        k1 = rhs(h[a], rho)
        r2 = rho + 0.5 * dt * k1
        k2 = rhs(h[b], r2)
        r3 = rho + 0.5 * dt * k2
        k3 = rhs(h[b], r3)
        r4 = rho + dt * k3
        k4 = rhs(h[c], r4)
        for r, node, wgt in zip((rho, r2, r3, r4), (a, b, b, c), (1.0, 2.0, 2.0, 1.0)):
            q += wgt * dt / 6.0 * (-np.einsum("kij,ji->k", f_ops[node], r).real @ vs[node])
            wk += wgt * dt / 6.0 * (-np.einsum("kij,ji->k", f_ad[node], r).real @ vs[node])
        rho = rho + dt / 6.0 * (k1 + 2.0 * (k2 + k3) + k4)
        rho = hermitize(rho) / np.trace(rho).real
        if step in events:
            rho = events[step](QuantumState(rho=rho)).rho
        out.append((q, wk))
        rhos.append(rho)
    return np.array(out), np.array(rhos)


def dephase(state):
    return QuantumState(rho=np.diag(state.rho.diagonal()))


class TestLedgerQuadrature:
    def test_matches_four_stage_formula_with_event(self):
        fam = random_linear_family(3, 1, "gue", seed=4)
        path = uniform_drive([-1.0], [1.5])
        rho0 = np.diag([0.5, 0.3, 0.2]).astype(complex)
        events = {23: dephase}
        traj = run_driven(fam, path, QuantumState.from_rho(rho0), 2.0, 60,
                          record_every=7, events=events)
        ref, rhos = reference_ledger(fam, path, rho0, 2.0, 60, events)
        rows = np.array([7 * k for k in range(1, 9)] + [60]) - 1
        assert_allclose(traj.q_cum[1:], ref[rows, 0], rtol=1e-12, atol=0)
        assert_allclose(traj.w_cum[1:], ref[rows, 1], rtol=1e-12, atol=0)
        assert_allclose(traj.rho[1:], rhos[rows], rtol=0, atol=1e-12)
        assert traj.q_cum[0] == 0.0 and traj.w_cum[0] == 0.0
        assert_allclose([traj.ledger.q_cum, traj.ledger.w_cum], ref[-1], rtol=1e-12, atol=0)

    def test_matches_four_stage_formula_through_avoided_crossing(self):
        fam = avoided_crossing_family(1.0, 0.5)
        path = uniform_drive([-1.0], [1.0])
        rho0 = QuantumState.pure(0, 2).rho
        traj = run_driven(fam, path, QuantumState(rho=rho0), 2.0, 400, record_every=400)
        ref, rhos = reference_ledger(fam, path, rho0, 2.0, 400, {})
        assert_allclose(traj.rho[-1], rhos[-1], rtol=0, atol=1e-12)
        assert_allclose([traj.q_cum[-1], traj.w_cum[-1]], ref[-1], rtol=0, atol=1e-12)
        assert traj.ledger.closure_ok()

    @pytest.mark.parametrize("dim", [2, 3, dynamics._TRANSFER_MAX_DIM, dynamics._TRANSFER_MAX_DIM + 1])
    def test_both_routes_match_four_stage_formula_with_event(self, dim):
        fam = random_linear_family(dim, 1, "gue", seed=10 + dim)
        path = uniform_drive([-1.0], [1.5])
        rho0 = np.diag(np.arange(dim, 0.0, -1.0) / (dim * (dim + 1) / 2)).astype(complex)
        events = {31: dephase}
        traj = run_driven(fam, path, QuantumState.from_rho(rho0), 2.0, 80,
                          record_every=9, events=events)
        ref, rhos = reference_ledger(fam, path, rho0, 2.0, 80, events)
        rows = np.array([9 * k for k in range(1, 9)] + [80]) - 1
        assert_allclose(traj.q_cum[1:], ref[rows, 0], rtol=1e-12, atol=0)
        assert_allclose(traj.w_cum[1:], ref[rows, 1], rtol=1e-12, atol=0)
        assert_allclose(traj.rho[1:], rhos[rows], rtol=0, atol=1e-12)
        assert_allclose(traj.extras["events"][0]["rho_after"], rhos[30], rtol=0, atol=1e-12)
        # every read sees the state Hermitized and divided by its trace
        for read in (traj.rho, traj.extras["events"][0]["rho_before"]):
            assert np.array_equal(read, read.conj().swapaxes(-1, -2))
            assert_allclose(np.trace(read, axis1=-2, axis2=-1), 1.0, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 8])
    def test_route_is_chosen_by_dimension(self, dim):
        fam = random_linear_family(dim, 1, "gue", seed=dim)
        with mock.patch("adiaframe.dynamics._rk4_step", wraps=dynamics._rk4_step) as step, \
                mock.patch("adiaframe.dynamics._transfer_maps", wraps=dynamics._transfer_maps) as maps:
            run_driven(fam, uniform_drive([-1.0], [1.0]), QuantumState.maximally_mixed(dim), 1.0, 20)
        by_maps = dim <= 4
        assert step.call_count == (0 if by_maps else 20)
        assert (maps.call_count > 0) == by_maps

    @pytest.mark.parametrize("dim", [2, dynamics._TRANSFER_MAX_DIM + 1])
    def test_trace_drift_raises_on_both_routes(self, dim):
        fam = random_linear_family(dim, 1, "gue", seed=2)
        events = {5: lambda state: QuantumState(rho=2.0 * state.rho)}
        with pytest.raises(StepSizeError, match=r"trace drifted by 1\.000e\+00 in one step"):
            run_driven(fam, uniform_drive([-1.0], [1.0]), QuantumState.maximally_mixed(dim), 1.0, 40,
                       record_every=10, events=events)

    def test_fourth_order_closure_three_levels(self):
        fam = random_linear_family(3, 1, "gue", seed=1)
        path = uniform_drive([-1.0], [1.5])
        state = QuantumState.from_rho(np.diag([0.6, 0.3, 0.1]).astype(complex))

        def residual(n_steps):
            traj = run_driven(fam, path, state, 2.0, n_steps, record_every=n_steps)
            d_e = traj.e_mean[-1] - traj.e_mean[0]
            return abs(d_e - traj.q_cum[-1] - traj.w_cum[-1])

        coarse, fine = residual(100), residual(200)
        assert coarse < 1e-6
        assert coarse / fine >= 8.0


@settings(max_examples=20, deadline=None, derandomize=True)
@given(dim=st.integers(2, 5), seed=st.integers(0, 2 ** 16), v=st.floats(0.5, 2.0))
def test_node_routes_agree(dim, seed, v):
    fam = random_linear_family(dim, 1, "gue", seed=seed)
    xs = -1.0 + v * np.linspace(0.0, 1.0, 81)[:, None]
    with mock.patch("adiaframe.operators._align_to_reference", side_effect=AssertionError("fell back")):
        w, _, gad, same, *_ = _frame_kernel(fam, xs)
    p = _connections(w, gad, same)
    f_ops, f_ad = _force_split(w, p, gad, same)
    # no overlap passes a threshold of 1, so every node is aligned to the one before
    with mock.patch("adiaframe.operators._PHASE_ONLY_OVERLAP", 1.0):
        frames = frame_path(fam, xs)
    scale = max(1.0, max(np.abs(fr.connections).max() for fr in frames))
    assert_allclose(w, [fr.eigenvalues for fr in frames], rtol=0, atol=1e-10)
    assert_allclose(np.abs(p), [np.abs(fr.connections) for fr in frames], rtol=0, atol=1e-10 * scale)
    assert_allclose(f_ops, [fr.diabatic for fr in frames], rtol=0, atol=1e-10 * scale)
    assert_allclose(f_ad, [-fr.grad_adiabatic * np.eye(dim) for fr in frames], rtol=0, atol=1e-10)

    # the base-class loops of a CallableFamily give the same run
    state = QuantumState.from_rho(np.diag(np.arange(1.0, dim + 1) / (dim * (dim + 1) / 2)))
    wrapped = CallableFamily(1, dim, fam.evaluate, fam.gradient)
    runs = [run_driven(f, uniform_drive([-1.0], [v]), state, 1.0, 40, record_every=40)
            for f in (fam, wrapped)]
    assert_allclose(runs[1].q_cum, runs[0].q_cum, rtol=0, atol=1e-12)
    assert_allclose(runs[1].w_cum, runs[0].w_cum, rtol=0, atol=1e-12)
    assert_allclose(runs[1].populations, runs[0].populations, rtol=0, atol=1e-12)


@pytest.mark.parametrize("path", [uniform_drive([-1.0], [1.5]), uniform_drive([0.5, -2.0], [0.25, 3.0])])
def test_uniform_drive_nodes_in_one_broadcast(path):
    fam = random_linear_family(2, len(path(0.0)[0]), "gue", seed=1)
    times = 0.5 * (3.0 / 1000) * np.arange(2 * 1000 + 1)
    broadcast = dynamics._path_nodes(fam, path, times)
    per_t = dynamics._path_nodes(fam, lambda t: path(t), times)
    for a, b in zip(broadcast, per_t):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("path", [uniform_drive([-1.0], [2.0]),
                                  uniform_drive([0.3, -0.2], [1.0, -0.5])])
def test_slowed_drive_keeps_the_broadcast_nodes(path):
    fam = random_linear_family(2, len(path(0.0)[0]), "gue", seed=1)
    state = QuantumState.pure(0, 2)
    with mock.patch.object(dynamics, "_DRIVE_BLOCK", 8 * 2 * fam.n_coords * 4), \
            mock.patch("adiaframe.dynamics._path_nodes", wraps=dynamics._path_nodes) as nodes:
        averaged = dynamics.time_averaged_diabatic_force(fam, path, 1.0, 40, state, scale=0.5)
    assert nodes.call_count == 10   # the 80 retraced steps in blocks of 8
    assert all(call.args[1] is path for call in nodes.call_args_list)     # the drive's own nodes
    # at the retraced times, each node once
    times = np.concatenate([call.args[2] for call in nodes.call_args_list])
    assert np.array_equal(times, 0.5 * (0.5 * (2.0 / 80) * np.arange(2 * 80 + 1)))
    per_t_run = dynamics.time_averaged_diabatic_force(fam, lambda t: path(t), 1.0, 40, state,
                                                      scale=0.5)
    assert np.array_equal(averaged, per_t_run)


def test_lz_sweep_memory_peak():
    """The traced allocation peak of the benchmark's 2-level sweep stays
    within 10 % of 3.0 MiB, its peak stepped in blocks of 2 048 steps."""
    fam = avoided_crossing_family(20.0, 2.0)
    path = uniform_drive([-10.0], [5.0])
    run_driven(fam, path, QuantumState.pure(0, 2), 4.0 / 20_000, 1)     # first-call allocations
    tracemalloc.start()
    try:
        run_driven(fam, path, QuantumState.pure(0, 2), 4.0, 20_000, record_every=2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * 3.0 * 2 ** 20, f"peak {peak / 2 ** 20:.2f} MiB"


def test_driven_memory_does_not_grow_with_steps():
    """Ten times the steps of a 2-level drive that records only its ends
    peaks within 10 % of the shorter run: a run holds one block at a time."""
    fam = avoided_crossing_family(20.0, 2.0)
    path = uniform_drive([-10.0], [5.0])
    run_driven(fam, path, QuantumState.pure(0, 2), 4.0 / 20_000, 1)     # first-call allocations
    peaks = []
    for n_steps in (20_000, 200_000):
        tracemalloc.start()
        try:
            run_driven(fam, path, QuantumState.pure(0, 2), 4.0, n_steps, record_every=n_steps)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0], f"peaks {peaks[0] / 2 ** 20:.2f}, {peaks[1] / 2 ** 20:.2f} MiB"
