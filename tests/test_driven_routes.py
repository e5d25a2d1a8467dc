"""The driven route: the frame kernel's node data, the RK4 step kernel and
the ledger quadrature.

The reference below is the four-stage formula the ledger quadrature
replaced: two-product commutators and one einsum of every stage state with
the diabatic forces and adiabatic force diagonals of its node.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from adiaframe import (CallableFamily, QuantumState, diabatic_forces, frame_path,
                       random_linear_family, run_driven, uniform_drive)
from adiaframe.frames import _force_split, _frame_kernel
from adiaframe.operators import hermitize
from adiaframe.units import HBAR


def reference_ledger(fam, path, rho0, duration, n_steps, events):
    """Cumulative (Q, W) after every step by the four-stage einsum formula."""
    dt = duration / n_steps
    times = 0.5 * dt * np.arange(2 * n_steps + 1)
    xs = np.array([path(t)[0] for t in times])
    vs = np.array([path(t)[1] for t in times])
    w, _, gad, p, _ = _frame_kernel(fam, xs)
    f_ops, fd = _force_split(w, p, gad)
    h = np.array([np.diag(wi) for wi in w]).astype(complex) - np.einsum("tk,tkij->tij", vs, p)

    def rhs(hh, r):
        return (-1j / HBAR) * (hh @ r - r @ hh)

    rho, q, wk, out = rho0.astype(complex), 0.0, 0.0, []
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
            wk += wgt * dt / 6.0 * (-(fd[node] @ r.diagonal().real) @ vs[node])
        rho = rho + dt / 6.0 * (k1 + 2.0 * (k2 + k3) + k4)
        rho = hermitize(rho) / np.trace(rho).real
        if step in events:
            rho = events[step](QuantumState(rho=rho)).rho
        out.append((q, wk))
    return np.array(out)


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
        ref = reference_ledger(fam, path, rho0, 2.0, 60, events)
        steps = [7 * k for k in range(1, 9)] + [60]
        assert_allclose(traj.q_cum[1:], ref[np.array(steps) - 1, 0], rtol=1e-12, atol=0)
        assert_allclose(traj.w_cum[1:], ref[np.array(steps) - 1, 1], rtol=1e-12, atol=0)
        assert traj.q_cum[0] == 0.0 and traj.w_cum[0] == 0.0
        assert_allclose([traj.ledger.q_cum, traj.ledger.w_cum], ref[-1], rtol=1e-12, atol=0)

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


@settings(max_examples=20)
@given(dim=st.integers(2, 5), seed=st.integers(0, 2 ** 16), v=st.floats(0.5, 2.0))
def test_node_routes_agree(dim, seed, v):
    fam = random_linear_family(dim, 1, "gue", seed=seed)
    xs = -1.0 + v * np.linspace(0.0, 1.0, 81)[:, None]
    with mock.patch("adiaframe.frames.hermitian_eig", side_effect=AssertionError("fell back")):
        w, _, gad, p, _ = _frame_kernel(fam, xs)
    f_ops, fd = _force_split(w, p, gad)
    # no overlap passes a threshold of 1, so every node takes hermitian_eig
    with mock.patch("adiaframe.frames._PHASE_ONLY_OVERLAP", 1.0):
        frames = frame_path(fam, xs)
    scale = max(1.0, max(np.abs(fr.connections).max() for fr in frames))
    assert_allclose(w, [fr.eigenvalues for fr in frames], rtol=0, atol=1e-10)
    assert_allclose(np.abs(p), [np.abs(fr.connections) for fr in frames], rtol=0, atol=1e-10 * scale)
    assert_allclose(f_ops, [diabatic_forces(fr) for fr in frames], rtol=0, atol=1e-10 * scale)
    assert_allclose(fd, [-np.einsum("kii->ki", fr.grad_adiabatic).real for fr in frames],
                    rtol=0, atol=1e-10)

    # the base-class loops of a CallableFamily give the same run
    state = QuantumState.from_rho(np.diag(np.arange(1.0, dim + 1) / (dim * (dim + 1) / 2)))
    wrapped = CallableFamily(1, dim, fam.evaluate, fam.gradient)
    runs = [run_driven(f, uniform_drive([-1.0], [v]), state, 1.0, 40, record_every=40)
            for f in (fam, wrapped)]
    assert_allclose(runs[1].q_cum, runs[0].q_cum, rtol=0, atol=1e-12)
    assert_allclose(runs[1].w_cum, runs[0].w_cum, rtol=0, atol=1e-12)
    assert_allclose(runs[1].populations, runs[0].populations, rtol=0, atol=1e-12)
