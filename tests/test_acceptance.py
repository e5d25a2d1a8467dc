"""End-to-end acceptance checks for the simulator.

Each test exercises one headline capability at desk scale, asserts the
advertised tolerance, and prints a one-line PASS summary with the measured
margin.  Every test also enforces its own runtime budget.
"""

import json
import time
import warnings

import numpy as np
from numpy.polynomial.legendre import leggauss
from numpy.random import default_rng
from numpy.testing import assert_allclose
from scipy.integrate import quad
from scipy.linalg import expm

from adiaframe import (HBAR, KB, MatrixPolynomialFamily, ProjectorFamily,
                       QuantumState, SternGerlachConfig,
                       avoided_crossing_family, build_frame,
                       canonical_populations, entropy_delta,
                       entropy_temperature, haar_unitary,
                       kubo_friction, maxwell_check, mean_level_spacing,
                       project, projected_diabatic_force,
                       random_density_matrix, random_linear_family,
                       rotating_field_family, run_driven, sg_run,
                       time_averaged_diabatic_force, uniform_drive,
                       von_neumann_entropy)
from adiaframe.cli import parse_config, run_scenario
from adiaframe.frames import _finite_difference_connections

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1j], [1j, 0.0]])
PAULI_Z = np.diag([1.0, -1.0]).astype(complex)


def report(name, elapsed, budget, detail):
    assert elapsed < budget, f"{name} took {elapsed:.1f}s, budget {budget}s"
    print(f"{name}: PASS ({detail}, {elapsed:.2f}s)")


def test_first_law_closure():
    start = time.monotonic()
    fam = avoided_crossing_family(20.0, 2.0)
    path = uniform_drive([-10.0], [5.0])
    state0 = QuantumState.pure(0, 2)

    def closure(n_steps):
        traj = run_driven(fam, path, state0, 4.0, n_steps, record_every=n_steps)
        d_e = traj.e_mean[-1] - traj.e_mean[0]
        resid = abs(d_e - traj.q_cum[-1] - traj.w_cum[-1])
        scale = max(abs(d_e), abs(traj.q_cum[-1]), abs(traj.w_cum[-1]))
        return resid, scale

    resid, scale = closure(10_000)
    assert resid < 1e-6 * scale
    resid_half, _ = closure(20_000)
    ratio = resid / resid_half
    assert ratio >= 8.0
    report("first-law closure", time.monotonic() - start, 5.0,
           f"residual {resid / scale:.2e} of scale, dt-halving ratio {ratio:.1f}")


def test_branching_statistics_and_kinematics():
    start = time.monotonic()
    config = SternGerlachConfig()

    uneven = sg_run(config, state=QuantumState.from_rho(np.diag([0.25, 0.75])),
                    duration=1.0, n_steps=800, record_every=8)
    assert tuple(uneven.weights) == (0.25, 0.75)

    sampled = sg_run(config, duration=1.0, n_steps=800, record_every=8,
                     mode="sampled", n_samples=10_000, seed=42)
    assert sum(sampled.counts) == 10_000
    for count in sampled.counts:
        assert abs(count - 5000) <= 3 * np.sqrt(2500)

    accel = 0.5 * HBAR * config.gamma * config.field_gradient / config.mass
    plus = sampled.branch("+")
    t = plus.t
    assert_allclose(plus.x[:, 2], 0.5 * accel * t ** 2, rtol=1e-9, atol=1e-15)
    assert_allclose(plus.x[:, 1], t, rtol=1e-9, atol=1e-15)
    minus = sampled.branch("-")
    assert_allclose(minus.x[:, 2], -0.5 * accel * t ** 2, rtol=1e-9, atol=1e-15)
    report("branching statistics", time.monotonic() - start, 30.0,
           f"counts {tuple(int(c) for c in sampled.counts)}, parabola rtol 1e-9")


def test_projected_transition_force_vanishes():
    start = time.monotonic()
    rng = default_rng(2026)
    worst = 0.0
    for _ in range(100):
        dim = int(rng.integers(2, 7))
        n_coords = int(rng.integers(1, 4))
        fam = random_linear_family(dim, n_coords, "gue",
                                   seed=int(rng.integers(1 << 31)))
        frame = build_frame(fam, rng.normal(size=n_coords))
        state = QuantumState.from_rho(random_density_matrix(dim, rng))
        f_ops = frame.diabatic
        means = projected_diabatic_force(frame, state)
        for k in range(n_coords):
            scale = np.linalg.norm(f_ops[k])
            assert abs(means[k]) < 1e-13 * scale
            worst = max(worst, abs(means[k]) / scale)
    report("projected transition force", time.monotonic() - start, 5.0,
           f"worst |mean|/norm {worst:.1e} over 100 draws")


def test_measurement_entropy_monotonicity():
    start = time.monotonic()
    rng = default_rng(7)
    worst = np.inf
    for _ in range(1000):
        state = QuantumState.from_rho(random_density_matrix(4, rng))
        family = ProjectorFamily.complete_dephasing(4, basis=haar_unitary(4, rng))
        delta = entropy_delta(state, family)[2]
        assert delta >= -1e-12 * KB
        worst = min(worst, delta)

    equal = QuantumState.from_amplitudes(np.full(2, np.sqrt(0.5)))
    delta_eq = entropy_delta(equal)[2]
    assert abs(delta_eq - KB * np.log(2.0)) < 1e-12
    report("entropy monotonicity", time.monotonic() - start, 5.0,
           f"min gain {worst / KB:.2e} k_B, ln 2 dev {abs(delta_eq - KB * np.log(2.0)):.1e}")


def test_entropy_conserved_until_projection():
    start = time.monotonic()
    fam = random_linear_family(3, 1, "gue", seed=5)
    state0 = QuantumState.from_rho(np.diag([0.5, 0.3, 0.2]))
    path = uniform_drive([-2.0], [2.0])

    free = run_driven(fam, path, state0, 2.0, 1000, record_every=100)
    s_free = np.array([von_neumann_entropy(r) for r in free.rho])
    drift = np.abs(s_free - s_free[0]).max()
    assert drift < 1e-7 * KB

    measurement = ProjectorFamily.complete_dephasing(3)
    evented = run_driven(fam, path, state0, 2.0, 1000, record_every=100,
                         events={500: lambda rho: project(rho, measurement)})
    s = np.array([von_neumann_entropy(r) for r in evented.rho])
    audited = entropy_delta(evented.extras["events"][0]["rho_before"],
                            measurement)[2]
    jump = s[5] - s[4]
    assert abs(jump - audited) < 1e-10 * KB
    assert np.abs(s[5:] - s[5]).max() < 1e-7 * KB
    report("unitary entropy invariance", time.monotonic() - start, 10.0,
           f"drift {drift / KB:.1e} k_B, jump-audit gap {abs(jump - audited) / KB:.1e} k_B")


def test_transition_force_averages_out_when_slow():
    start = time.monotonic()
    fam = rotating_field_family(2.0, 1.0)
    path = uniform_drive([0.0], [1.0])
    ground = QuantumState.from_amplitudes(build_frame(fam, [0.0]).basis[:, 0])
    norms = []
    for scale in (1.0, 0.5, 0.25):
        avg = time_averaged_diabatic_force(fam, path, 2.0 * np.pi, 2000, ground,
                                           scale=scale)
        norms.append(float(np.linalg.norm(avg)))
    assert norms[0] > norms[1] > norms[2]
    report("oscillation averaging", time.monotonic() - start, 30.0,
           "averages " + " > ".join(f"{n:.4f}" for n in norms))


def test_microcanonical_identities_on_random_matrix():
    start = time.monotonic()
    fam = random_linear_family(400, 1, "goe", seed=11)
    x = [0.4]
    levels = build_frame(fam, x).eigenvalues
    sigma = 5.0 * mean_level_spacing(levels)

    grid = np.linspace(np.quantile(levels, 0.25), np.quantile(levels, 0.75), 401)
    curve = entropy_temperature(levels, grid, sigma)
    counting = float(np.abs(curve.counting_identity_residual()[curve.valid]).max())
    assert counting < 0.02

    check = maxwell_check(fam, x, float(np.quantile(levels, 0.4)), sigma)
    assert float(check.residual_entropy_form.max()) < 0.05
    assert float(check.residual_isentropic_form.max()) < 0.05
    assert check.ok()
    report("microcanonical identities", time.monotonic() - start, 60.0,
           f"counting {counting:.2%}, force residual {float(check.residual_entropy_form.max()):.2e}")


def test_friction_tensor_against_quadrature():
    start = time.monotonic()
    fam = MatrixPolynomialFamily([
        ((0, 0), PAULI_Z),
        ((1, 0), 0.7 * PAULI_X + 0.2 * PAULI_Z),
        ((0, 1), 0.5 * PAULI_Y - 0.3 * PAULI_X),
    ])
    x, beta, eta = [0.3, -0.2], 1.2, 0.9
    tensor = kubo_friction(fam, x, beta, eta=eta)

    frame = build_frame(fam, x)
    f_ops = frame.diabatic
    rho = np.diag(canonical_populations(frame.eigenvalues, beta)).astype(complex)
    wd = np.diag(frame.eigenvalues).astype(complex)

    nodes, weights = leggauss(48)
    lams = 0.5 * beta * (nodes + 1.0)
    lam_weights = 0.5 * beta * weights
    twisted = [[expm(lam * wd) @ f @ expm(-lam * wd) for f in f_ops]
               for lam in lams]

    def correlation(t, k, j):
        phase = expm(1j * wd * t / HBAR)
        fk_t = phase @ f_ops[k] @ phase.conj().T
        fj_t = phase @ f_ops[j] @ phase.conj().T
        total = 0.0
        for lw, tw in zip(lam_weights, twisted):
            sym = 0.5 * (np.trace(rho @ tw[j] @ fk_t)
                         + np.trace(rho @ tw[k] @ fj_t))
            total += lw * sym.real
        return total

    gamma_quad = np.empty((2, 2))
    for k in range(2):
        for j in range(2):
            gamma_quad[k, j] = quad(
                lambda t: np.exp(-eta * t) * correlation(t, k, j),
                0.0, 40.0 / eta, limit=400)[0]
    rel = np.abs(gamma_quad - tensor.gamma).max() / np.abs(tensor.gamma).max()
    assert rel < 1e-4

    real_tensor = kubo_friction(random_linear_family(6, 2, "goe", seed=4),
                                [0.5, -0.3], beta=2.0)
    gamma = real_tensor.gamma
    assert np.abs(gamma - gamma.T).max() <= 1e-8 * np.abs(gamma).max()
    assert np.all(np.diag(gamma) >= 0.0)
    report("friction quadrature", time.monotonic() - start, 30.0,
           f"spectral-sum vs quadrature rel {rel:.1e}")


def test_connection_oracle():
    start = time.monotonic()
    fam = random_linear_family(4, 2, "gue", seed=9)
    x = [0.3, -0.7]
    frame = build_frame(fam, x)
    errs = []
    for h in (1e-3, 5e-4):
        p_fd = _finite_difference_connections(fam, x, frame.spectrum, fd_step=h)
        off = p_fd - frame.connections
        for k in range(2):
            np.fill_diagonal(off[k], 0.0)
        errs.append(float(np.abs(off).max()))
    ratio = errs[0] / errs[1]
    assert 3.5 < ratio < 4.5

    rot = build_frame(rotating_field_family(1.5, 0.8), [0.9])
    dev = float(np.abs(rot.connections[0] - 0.5 * HBAR * PAULI_Y).max())
    assert dev < 1e-8
    report("connection oracle", time.monotonic() - start, 5.0,
           f"fd ratio {ratio:.3f}, analytic dev {dev:.1e}")


def test_ledger_closes_through_exact_crossing():
    # H(x) = [[x, 0, a x], [0, -x, 0], [a x, 0, 2]]: level 1 never couples,
    # so it crosses the lowest level of the other block exactly at x = 0,
    # where the drive puts a node; the force split there is block-wise
    start = time.monotonic()
    a = 0.6
    fam = MatrixPolynomialFamily([((0,), np.diag([0.0, 0.0, 2.0]).astype(complex)),
                                  ((1,), np.array([[1.0, 0.0, a], [0.0, -1.0, 0.0],
                                                   [a, 0.0, 0.0]], dtype=complex))])
    assert build_frame(fam, [0.0]).spectrum.degenerate
    state = QuantumState.from_rho(np.diag([0.5, 0.3, 0.2]).astype(complex))

    def closure(n_steps):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = run_driven(fam, uniform_drive([-1.0], [1.0]), state, 2.0, n_steps,
                              record_every=n_steps)
        assert_allclose(traj.populations[-1, 1], 0.3, atol=1e-12)
        d_e = traj.e_mean[-1] - traj.e_mean[0]
        return abs(d_e - traj.q_cum[-1] - traj.w_cum[-1])

    coarse, fine = closure(100), closure(200)
    assert coarse < 1e-6
    ratio = coarse / fine
    assert ratio >= 8.0
    report("exact-crossing closure", time.monotonic() - start, 5.0,
           f"residual {coarse:.2e}, dt-halving ratio {ratio:.1f}")


def test_rerun_is_bit_identical(tmp_path):
    start = time.monotonic()
    cfg = parse_config({"kind": "stern_gerlach", "mode": "sampled", "seed": 11,
                        "stern_gerlach": {"steps": 200, "record_every": 20,
                                          "n_samples": 2000}})
    d1, d2 = tmp_path / "first", tmp_path / "second"
    run_scenario(cfg, str(d1))
    run_scenario(cfg, str(d2))
    names = sorted(p.name for p in d1.iterdir())
    assert names == sorted(p.name for p in d2.iterdir())
    for name in names:
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
    counts = json.loads((d1 / "report.json").read_text())["summary"]["counts"]
    report("deterministic rerun", time.monotonic() - start, 30.0,
           f"{len(names)} files identical, counts {counts}")
