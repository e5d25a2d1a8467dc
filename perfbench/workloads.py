"""The four benchmark workloads.

Each workload turns a seed into inputs (``prepare``), names the program
calls that make up one fixed unit of work through the public API of
``adiaframe`` (``steps``, the timed part), pulls the numbers to check out of
their results (``collect``), and checks them (``checks``) against
computations made apart from the program (``reference``) or against
properties the method must have.  Every check is
a ``(name, value, tolerance)`` triple that passes when ``value <= tolerance``;
``CORRUPTIONS`` holds, for every check, one deliberate corruption of an
output that the check must catch (see ``selftest.py``).

The program is always reached through module attributes at call time
(``af.run_driven``, ``cli.main``), never through names bound at import, so
the tracer in ``tracer.py`` sees every call.  ``scipy.integrate`` is imported
only inside the reference computations, after the set-up time is taken.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import os
import shutil

import numpy as np

import adiaframe as af
from adiaframe import cli

# adiaframe works in natural units (hbar = k_B = 1); the reference
# computations below use the same convention.
HBAR = 1.0


def check(name, value, tolerance):
    """One named check; NaN never passes."""
    value, tolerance = float(value), float(tolerance)
    return {"name": name, "value": value, "tolerance": tolerance,
            "passed": bool(value <= tolerance)}


def _gauge(vecs):
    """Eigenvector columns phased so the largest-magnitude entry is real and
    positive (the first such entry on ties): adiaframe's documented gauge
    for a frame built without a reference."""
    rows = np.argmax(np.abs(vecs), axis=0)
    lead = vecs[rows, np.arange(vecs.shape[1])]
    return vecs * (lead.conj() / np.abs(lead))[None, :]


def _solve(rhs, y0, duration):
    from scipy.integrate import solve_ivp
    sol = solve_ivp(rhs, (0.0, duration), y0, method="DOP853", rtol=1e-12, atol=1e-12)
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    return sol.y[:, -1]


def _propagate_rho(ham, rho0, duration):
    """Lab-basis von Neumann equation i hbar drho/dt = [H(t), rho]."""
    m = rho0.shape[0]

    def rhs(t, y):
        rho = y.reshape(m, m)
        h = ham(t)
        return ((-1j / HBAR) * (h @ rho - rho @ h)).ravel()

    return _solve(rhs, rho0.astype(complex).ravel(), duration).reshape(m, m)


def _adiabatic_populations(h, rho):
    _, u = np.linalg.eigh(h)
    return np.einsum("ia,ij,ja->a", u.conj(), rho, u).real


# ---------------------------------------------------------------------------


class LzSweep:
    """Landau-Zener sweep on the vectorised two-level driven route."""

    name = "lz_sweep"
    slope, gap, duration, n_steps, record_every = 20.0, 2.0, 4.0, 20_000, 2_000

    def prepare(self, seed, workdir):
        rng = np.random.default_rng([seed, 1])
        v = 5.0 * (1.0 + 0.02 * rng.uniform(-1.0, 1.0))
        return {"x0": -0.5 * v * self.duration, "v": v}

    def _run(self, inp, n_steps, duration):
        fam = af.avoided_crossing_family(self.slope, self.gap)
        path = af.uniform_drive([float(inp["x0"])], [float(inp["v"])])
        return af.run_driven(fam, path, af.QuantumState.pure(0, 2), duration, n_steps,
                             record_every=min(n_steps, self.record_every))

    def setup_call(self, inp, work):
        self._run(inp, 1, self.duration / self.n_steps)

    def steps(self, inp, work):
        return [lambda: self._run(inp, self.n_steps, self.duration)]

    def collect(self, results, work):
        traj, = results
        return {"pop": traj.populations[-1].copy(), "q": float(traj.q_cum[-1]),
                "w": float(traj.w_cum[-1])}

    def _ham(self, x):
        return np.array([[self.slope * x, self.gap], [self.gap, -self.slope * x]], dtype=complex)

    def reference(self, inp):
        x0, v = float(inp["x0"]), float(inp["v"])
        w0, u0 = np.linalg.eigh(self._ham(x0))
        psi = _solve(lambda t, y: (-1j / HBAR) * (self._ham(x0 + v * t) @ y),
                     u0[:, 0].astype(complex), self.duration)
        h1 = self._ham(x0 + v * self.duration)
        _, u1 = np.linalg.eigh(h1)
        return {"pop": np.abs(u1.conj().T @ psi) ** 2,
                "de": float(np.vdot(psi, h1 @ psi).real) - float(w0[0]),
                "lz": float(np.exp(-2.0 * np.pi * self.gap ** 2 / (HBAR * 2.0 * self.slope * v)))}

    def checks(self, out, ref, first):
        scale = max(abs(ref["de"]), abs(out["q"]), abs(out["w"]))
        return [
            check("populations_vs_propagation", np.abs(out["pop"] - ref["pop"]).max(), 1e-8),
            check("energy_change_vs_ledger", abs(ref["de"] - out["q"] - out["w"]) / scale, 1e-8),
            check("upper_level_vs_landau_zener", abs(out["pop"][1] - ref["lz"]), 1e-4),
        ]


class SgBranching:
    """Stern-Gerlach branching run on the sequential frame route."""

    name = "sg_branching"
    duration, n_steps, record_every = 1.0, 1600, 16

    def prepare(self, seed, workdir):
        rng = np.random.default_rng([seed, 2])
        return {"v0y": rng.uniform(0.8, 1.2), "phase": rng.uniform(0.0, 2.0 * np.pi)}

    def _amplitudes(self, inp):
        return np.array([1.0, np.exp(1j * float(inp["phase"]))]) / np.sqrt(2.0)

    def _run(self, inp, n_steps, duration):
        state = af.QuantumState.from_amplitudes(self._amplitudes(inp))
        return af.sg_run(af.SternGerlachConfig(), state=state,
                         v0=(0.0, float(inp["v0y"]), 0.0), duration=duration,
                         n_steps=n_steps, mode="branching",
                         record_every=min(n_steps, self.record_every))

    def setup_call(self, inp, work):
        self._run(inp, 1, self.duration / self.n_steps)

    def steps(self, inp, work):
        return [lambda: self._run(inp, self.n_steps, self.duration)]

    def collect(self, results, work):
        result, = results
        return {"labels": list(result.labels),
                "weights": np.array(result.weights, dtype=float),
                "t": [traj.t.copy() for traj in result.trajectories],
                "x": [traj.x.copy() for traj in result.trajectories],
                "v": [traj.v.copy() for traj in result.trajectories]}

    def reference(self, inp):
        cfg = af.SternGerlachConfig()
        dt = self.duration / self.n_steps
        return {"gamma": cfg.gamma, "g": cfg.field_gradient, "b0": cfg.field_strength,
                "mass": cfg.mass, "v0y": float(inp["v0y"]),
                "t": np.arange(0, self.n_steps + 1, self.record_every) * dt,
                # "+" is the moment aligned with the field, the lower level at r0
                "born": {"+": abs(self._amplitudes(inp)[0]) ** 2,
                         "-": abs(self._amplitudes(inp)[1]) ** 2}}

    def checks(self, out, ref, first):
        accel = HBAR * ref["gamma"] * ref["g"] / (2.0 * ref["mass"])
        sign = {"+": 1.0, "-": -1.0}
        kin = born = energy = 0.0
        z = {}
        labels_ok = sorted(out["labels"]) == ["+", "-"]
        for lab, w, t, x, v in zip(out["labels"], out["weights"], out["t"], out["x"], out["v"]):
            if t.shape != ref["t"].shape:
                kin = np.inf
                continue
            exact = np.stack([np.zeros_like(ref["t"]), ref["v0y"] * ref["t"],
                              sign[lab] * 0.5 * accel * ref["t"] ** 2], axis=1)
            kin = max(kin, np.abs(t - ref["t"]).max(), np.abs(x - exact).max())
            born = max(born, abs(w - ref["born"][lab]))
            field = np.stack([-ref["g"] * x[:, 0], np.zeros(len(x)),
                              ref["b0"] + ref["g"] * x[:, 2]], axis=1)
            level = -sign[lab] * 0.5 * HBAR * ref["gamma"] * np.linalg.norm(field, axis=1)
            e = 0.5 * ref["mass"] * (v ** 2).sum(axis=1) + level
            energy = max(energy, np.abs(e - e[0]).max() / max(1.0, abs(e[0])))
            z[lab] = x[:, 2]
        mirror = np.abs(z["+"] + z["-"]).max() if len(z) == 2 else np.inf
        return [
            check("branch_labels", 0.0 if labels_ok else 1.0, 0.0),
            check("kinematics_vs_closed_form", kin, 1e-9),
            check("weights_vs_born", born, 1e-12),
            check("branch_energy_conserved", energy, 1e-10),
            check("mirror_symmetry", mirror, 1e-12),
        ]


class MeanForce8:
    """Self-consistent mean-force run on an 8-level GUE family."""

    name = "mean_force_8"
    dim, coords, mass, dt, n_steps, record_every = 8, 2, 2.0, 1e-3, 1000, 10

    def prepare(self, seed, workdir):
        rng = np.random.default_rng([seed, 3])
        z = rng.standard_normal((self.dim, self.dim)) + 1j * rng.standard_normal((self.dim, self.dim))
        q, r = np.linalg.qr(z)
        basis = q * (r.diagonal() / np.abs(r.diagonal()))
        lam = rng.dirichlet(np.ones(self.dim))
        return {"family_seed": int(rng.integers(2 ** 31)),
                "rho": (basis * lam) @ basis.conj().T,
                "x0": rng.uniform(-0.5, 0.5, self.coords),
                "v0": rng.uniform(-0.5, 0.5, self.coords)}

    def _family(self, inp):
        return af.random_linear_family(self.dim, self.coords, "gue", seed=int(inp["family_seed"]))

    def _run(self, inp, n_steps):
        app = af.ApparatusState(x=np.array(inp["x0"]), v=np.array(inp["v0"]), metric=self.mass)
        scenario = af.DynamicsScenario(family=self._family(inp), apparatus=app,
                                       state=af.QuantumState.from_rho(np.array(inp["rho"])),
                                       dt=self.dt, n_steps=n_steps,
                                       record_every=min(n_steps, self.record_every))
        return af.run_mean_force(scenario)

    def setup_call(self, inp, work):
        self._run(inp, 1)

    def steps(self, inp, work):
        return [lambda: self._run(inp, self.n_steps)]

    def collect(self, results, work):
        traj, = results
        return {"x": traj.x[-1].copy(), "v": traj.v[-1].copy(), "pop": traj.populations[-1].copy(),
                "e_total": 0.5 * self.mass * (traj.v ** 2).sum(axis=1) + traj.e_mean,
                "de": float(traj.e_mean[-1] - traj.e_mean[0]),
                "q": float(traj.q_cum[-1]), "w": float(traj.w_cum[-1])}

    def reference(self, inp):
        """Ehrenfest dynamics of (x, v, rho) in the lab basis, force -Tr(rho dH)."""
        mats = [mat for _, mat in self._family(inp).terms]
        a, grads = mats[0], np.array(mats[1:])
        x0 = np.array(inp["x0"], dtype=float)
        w0, u0 = np.linalg.eigh(a + np.einsum("k,kij->ij", x0, grads))
        u0 = _gauge(u0)
        rho0 = u0 @ np.array(inp["rho"]) @ u0.conj().T
        n, m = self.coords, self.dim

        def rhs(t, y):
            x, v = y[:n].real, y[n:2 * n].real
            rho = y[2 * n:].reshape(m, m)
            h = a + np.einsum("k,kij->ij", x, grads)
            force = -np.einsum("kij,ji->k", grads, rho).real
            drho = (-1j / HBAR) * (h @ rho - rho @ h)
            return np.concatenate([v, force / self.mass, drho.ravel()])

        y0 = np.concatenate([x0, np.array(inp["v0"], dtype=float), rho0.ravel()]).astype(complex)
        y = _solve(rhs, y0, self.dt * self.n_steps)
        x, v, rho = y[:n].real, y[n:2 * n].real, y[2 * n:].reshape(m, m)
        h = a + np.einsum("k,kij->ij", x, grads)
        return {"x": x, "v": v, "pop": np.sort(_adiabatic_populations(h, rho))}

    def checks(self, out, ref, first):
        scale = max(abs(out["de"]), abs(out["q"]), abs(out["w"]))
        drift = np.abs(out["e_total"] - out["e_total"][0]).max()
        return [
            check("position_velocity_vs_ehrenfest",
                  max(np.abs(out["x"] - ref["x"]).max(), np.abs(out["v"] - ref["v"]).max()), 1e-5),
            check("sorted_populations_vs_ehrenfest",
                  np.abs(np.sort(out["pop"]) - ref["pop"]).max(), 1e-5),
            # second-order Verlet kick: total energy drifts by O(dt^2)
            check("total_energy_drift", drift / max(1.0, abs(out["e_total"][0])), 10.0 * self.dt ** 2),
            check("ledger_closure", abs(out["de"] - out["q"] - out["w"]) / scale, 1e-8),
        ]


def _matrix(m):
    m = np.asarray(m, dtype=complex)
    return np.stack([m.real, m.imag], axis=-1).tolist()


def _family_cfg(terms):
    exps0, mat0 = terms[0]
    return {"coords": len(exps0), "dim": int(np.shape(mat0)[0]),
            "terms": [{"exponents": list(e), "matrix": _matrix(m)} for e, m in terms]}


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array(rows[1:], dtype=float)


class CliDense:
    """The ``adiaframe`` command line on large and reporting-heavy configs."""

    name = "cli_dense"
    n_levels, driven_levels = 400, 32
    kinds = ("thermo_curve", "kubo", "custom_family", "entropy_audit")
    drive32 = {"x0": [-0.5], "velocity": [1.0], "duration": 1.0, "steps": 500,
               "record_every": 50}
    audit_drive = {"x0": [-2.0], "velocity": [4.0], "duration": 1.0, "steps": 2000,
                   "record_every": 200}
    audit_event_step = 1000

    def prepare(self, seed, workdir):
        rng = np.random.default_rng([seed, 4])

        def goe(n):
            a = rng.standard_normal((n, n))
            return 0.5 * (a + a.T)

        def gue(n):
            b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            return 0.5 * (b + b.conj().T)

        n = self.n_levels
        a, b1, b2 = goe(n), goe(n), goe(n)
        x = rng.uniform(-0.5, 0.5, 2)
        levels = np.linalg.eigvalsh(a + x[0] * b1 + x[1] * b2)
        dense = _family_cfg([((0, 0), a), ((1, 0), b1), ((0, 1), b2)])
        beta, eta = 0.1, 1.0
        c, d = gue(self.driven_levels), 0.3 * gue(self.driven_levels)
        pops32 = rng.dirichlet(np.ones(self.driven_levels))
        e3, f3 = gue(3), 3.0 * gue(3)
        pops3 = rng.dirichlet(np.ones(3))
        driven = {"kind": "custom_family", "seed": seed,
                  "family": _family_cfg([((0,), c), ((1,), d)]),
                  "state": {"populations": pops32.tolist()}, "drive": self.drive32}
        configs = {
            "thermo_curve": {
                "kind": "thermo_curve", "family": dense,
                "thermo": {"x": x.tolist(), "sigma": 5.0 * (levels[-1] - levels[0]) / (n - 1),
                           "e_min": float(np.quantile(levels, 0.25)),
                           "e_max": float(np.quantile(levels, 0.75)), "n_grid": 401,
                           "check_energy": float(np.quantile(levels, 0.4))}},
            "kubo": {"kind": "kubo", "family": dense,
                     "kubo": {"x": x.tolist(), "beta": beta, "eta": eta}},
            "custom_family": driven,
            "entropy_audit": {
                "kind": "entropy_audit", "seed": seed, "n_samples": 200,
                "family": _family_cfg([((0,), e3), ((1,), f3)]),
                "state": {"populations": pops3.tolist()}, "drive": self.audit_drive,
                "event": {"step": self.audit_event_step}},
            # the set-up call: the first step of the 32-level driven run
            "setup": dict(driven, drive=dict(self.drive32, steps=1, record_every=1,
                                             duration=self.drive32["duration"] / self.drive32["steps"])),
        }
        for kind, cfg in configs.items():
            with open(os.path.join(workdir, f"{kind}.json"), "w") as fh:
                fh.write(json.dumps(cfg))
        return {"a": a, "b": np.stack([b1, b2]), "x": x, "beta": beta, "eta": eta,
                "c": c, "d": d, "pops32": pops32, "pops3": pops3}

    def _main(self, work, kind, out):
        return cli.main(["--config", os.path.join(work, f"{kind}.json"), "--out", out, "--quiet"])

    def setup_call(self, inp, work):
        code = self._main(work, "setup", os.path.join(work, "setup-out"))
        if code != 0:
            raise RuntimeError(f"set-up config exited with code {code}")

    def steps(self, inp, work):
        return [functools.partial(self._main, work, kind, os.path.join(work, "out", kind))
                for kind in self.kinds]

    def collect(self, results, work):
        root = os.path.join(work, "out")
        codes = dict(zip(self.kinds, results))
        hashes = {}
        for kind in self.kinds:
            for name in sorted(os.listdir(os.path.join(root, kind))):
                with open(os.path.join(root, kind, name), "rb") as fh:
                    hashes[f"{kind}/{name}"] = hashlib.sha256(fh.read()).hexdigest()
        with open(os.path.join(root, "thermo_curve", "report.json")) as fh:
            levels = np.array(json.load(fh)["summary"]["levels"])
        _, gamma = _read_csv(os.path.join(root, "kubo", "gamma.csv"))
        header, series = _read_csv(os.path.join(root, "custom_family", "series.csv"))
        col = {name: i for i, name in enumerate(header)}
        pops = series[-1, [col[f"pop_{i}"] for i in range(self.driven_levels)]]
        _, entropy = _read_csv(os.path.join(root, "entropy_audit", "entropy.csv"))
        with open(os.path.join(root, "entropy_audit", "report.json")) as fh:
            audit = json.load(fh)["summary"]
        shutil.rmtree(root)
        return {"codes": codes, "hashes": hashes, "levels": levels, "gamma": gamma,
                "pops32": pops, "e32": series[:, col["e_mean"]],
                "q32": series[-1, col["q_cum"]], "w32": series[-1, col["w_cum"]],
                "entropy_t": entropy[:, 0], "entropy": entropy[:, 1],
                "s_after": audit["entropy_after"], "jump": audit["entropy_jump"]}

    def reference(self, inp):
        a, b, x = inp["a"], inp["b"], inp["x"]
        w, u = np.linalg.eigh(a + np.einsum("k,kij->ij", x, b))
        # friction tensor: Gamma_kj = sum_ab Re[(f_j)_ab (f_k)_ba] (p_b - p_a)/(W_a - W_b)
        #                              * eta / (eta^2 + ((W_a - W_b)/hbar)^2),  f_k = -offdiag(U^T B_k U)
        f = -(u.T @ b @ u)
        f[:, np.arange(len(w)), np.arange(len(w))] = 0.0
        p = np.exp(-inp["beta"] * (w - w.min()))
        p /= p.sum()
        delta = w[:, None] - w[None, :]
        np.fill_diagonal(delta, 1.0)
        kernel = (p[None, :] - p[:, None]) / delta * inp["eta"] / (inp["eta"] ** 2 + (delta / HBAR) ** 2)
        gamma = np.array([[np.sum(fj * fk.T * kernel) for fj in f] for fk in f])

        c, d = inp["c"], inp["d"]
        x0, vel, duration = self.drive32["x0"][0], self.drive32["velocity"][0], self.drive32["duration"]
        _, u0 = np.linalg.eigh(c + x0 * d)
        rho0 = (u0 * inp["pops32"]) @ u0.conj().T
        rho = _propagate_rho(lambda t: c + (x0 + vel * t) * d, rho0, duration)
        h1 = c + (x0 + vel * duration) * d
        pops3 = inp["pops3"]
        return {"levels": w, "gamma": gamma, "e32": float(np.trace(rho @ h1).real),
                "pops32": np.sort(_adiabatic_populations(h1, rho)),
                "s0": float(-(pops3 * np.log(pops3)).sum())}

    def checks(self, out, ref, first):
        gscale = np.abs(ref["gamma"]).max()
        gamma = out["gamma"]
        e32 = out["e32"]
        escale = max(abs(e32[-1] - e32[0]), abs(out["q32"]), abs(out["w32"]))
        t_split = (self.audit_event_step - 0.5) * self.audit_drive["duration"] / self.audit_drive["steps"]
        t = out["entropy_t"] - out["entropy_t"][0]
        pre, post = out["entropy"][t < t_split], out["entropy"][t > t_split]
        flat = max(np.abs(pre - ref["s0"]).max(), np.abs(post - out["s_after"]).max())
        changed = sorted(set(out["hashes"].items()) ^ set(first["hashes"].items()))
        return [
            check("cli_exit_codes", sum(code != 0 for code in out["codes"].values()), 0),
            check("thermo_levels_vs_eigvalsh",
                  np.abs(np.sort(out["levels"]) - ref["levels"]).max() / np.abs(ref["levels"]).max(), 1e-10),
            check("kubo_gamma_vs_spectral_sum", np.abs(gamma - ref["gamma"]).max() / gscale, 1e-8),
            check("kubo_gamma_symmetric", np.abs(gamma - gamma.T).max() / gscale, 1e-12),
            check("kubo_gamma_diagonal_nonnegative", -gamma.diagonal().min() / gscale, 0.0),
            check("driven32_energy_vs_propagation", abs(e32[-1] - ref["e32"]), 1e-6),
            check("driven32_populations_vs_propagation",
                  np.abs(np.sort(out["pops32"]) - ref["pops32"]).max(), 1e-6),
            check("driven32_ledger_closure", abs(e32[-1] - e32[0] - out["q32"] - out["w32"]) / escale, 1e-8),
            check("audit_entropy_flat", flat, 1e-7),
            check("audit_entropy_jump_nonnegative", -out["jump"], 0.0),
            check("rerun_byte_identical", len(changed), 0),
        ]


WORKLOADS = {cls.name: cls for cls in (LzSweep, SgBranching, MeanForce8, CliDense)}


# One corruption per check: a small shift of a value the check reads.
def _shift(key, index, amount):
    def corrupt(out):
        out[key][index] += amount
    return corrupt


def _scale(key, factor):
    def corrupt(out):
        out[key] = out[key] * factor
    return corrupt


def _branch(key, axis, amount):
    def corrupt(out):
        out[key][0][-1, axis] += amount
    return corrupt


def _set(key, value):
    def corrupt(out):
        out[key] = value
    return corrupt


def _flip_hash(out):
    name = sorted(out["hashes"])[0]
    out["hashes"][name] = "0" * 64


def _break_code(out):
    out["codes"]["kubo"] = 1


def _unsymmetric(out):
    out["gamma"] = out["gamma"].copy()
    out["gamma"][0, 1] *= 1.0 + 1e-9


def _negative_diagonal(out):
    out["gamma"] = out["gamma"].copy()
    out["gamma"][0, 0] = -1e-6 * abs(out["gamma"]).max()


def _entropy_step(out):
    out["entropy"] = out["entropy"].copy()
    out["entropy"][1] += 1e-6


def _swap_labels(out):
    out["labels"] = ["+", "+"]


CORRUPTIONS = {
    "lz_sweep": {
        "populations_vs_propagation": _shift("pop", 1, 1e-6),
        "energy_change_vs_ledger": lambda out: out.update(q=out["q"] + 1e-6 * abs(out["w"])),
        "upper_level_vs_landau_zener": _shift("pop", 1, 1e-3),
    },
    "sg_branching": {
        "branch_labels": _swap_labels,
        "kinematics_vs_closed_form": _branch("x", 0, 1e-8),
        "weights_vs_born": _shift("weights", 0, 1e-9),
        "branch_energy_conserved": _branch("v", 1, 1e-8),
        "mirror_symmetry": _branch("x", 2, 1e-10),
    },
    "mean_force_8": {
        "position_velocity_vs_ehrenfest": _shift("x", 0, 1e-4),
        "sorted_populations_vs_ehrenfest": _shift("pop", 0, 1e-4),
        "total_energy_drift": _shift("e_total", -1, 1e-3),
        "ledger_closure": lambda out: out.update(q=out["q"] + 1e-6 * max(abs(out["q"]), abs(out["w"]))),
    },
    "cli_dense": {
        "cli_exit_codes": _break_code,
        "thermo_levels_vs_eigvalsh": _shift("levels", 7, 1e-6),
        "kubo_gamma_vs_spectral_sum": _scale("gamma", 1.0 + 1e-6),
        "kubo_gamma_symmetric": _unsymmetric,
        "kubo_gamma_diagonal_nonnegative": _negative_diagonal,
        "driven32_energy_vs_propagation": _shift("e32", -1, 1e-5),
        "driven32_populations_vs_propagation": _shift("pops32", 3, 1e-5),
        "driven32_ledger_closure": lambda out: out.update(q32=out["q32"] + 1e-6 * abs(out["w32"]) + 1e-6),
        "audit_entropy_flat": _entropy_step,
        "audit_entropy_jump_nonnegative": _set("jump", -1e-9),
        "rerun_byte_identical": _flip_hash,
    },
}
