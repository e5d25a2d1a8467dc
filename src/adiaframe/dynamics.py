"""Coupled evolution of a quantum object and a classical apparatus.

The quantum state is carried in the instantaneous adiabatic basis of
H(x(t)); there it obeys

    i * hbar * drho/dt = [W(x) - v^k P_k(x), rho],

integrated with a classic fourth-order Runge-Kutta step whose stage frames
come from the one frame kernel of :mod:`adiaframe.frames`, with gauge
continuity along the path.  The apparatus moves with a
velocity-Verlet step that supports a configuration-dependent mass metric
and a friction force -Gamma v (both velocity couplings are resolved by a
fixed-point corrector on the kick).

Energy bookkeeping follows the first-law split of the object's mean energy
E = Tr(rho W): work flows through the adiabatic forces F_k and heat through
the diabatic forces f_k,

    dE = dQ + dW,   dW = -Tr(rho F_k) dx^k,   dQ = -Tr(rho f_k) dx^k.

The integrators accumulate Q and W with the same Runge-Kutta stages as rho,
so the closure residual of the ledger shrinks at the integrator's own
fourth order.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .errors import StepSizeError, ValidationError
from .frames import (AdiabaticFrame, HamiltonianFamily, _force_split, _frame_kernel, _generator,
                     build_frame, forces)
from .operators import hermitize, require_square
from .tolerances import active_profile
from .units import HBAR

__all__ = [
    "QuantumState",
    "ApparatusState",
    "FrictionSpec",
    "EnergyLedger",
    "Trajectory",
    "DynamicsScenario",
    "quantum_step",
    "run_branching",
    "run_mean_force",
    "run_driven",
    "uniform_drive",
    "sample_branch_counts",
    "time_averaged_diabatic_force",
]


# ---------------------------------------------------------------------------
# state containers


@dataclass
class QuantumState:
    """Density matrix in the current adiabatic basis."""

    rho: np.ndarray

    def __post_init__(self):
        self.rho = np.asarray(self.rho, dtype=complex)

    @classmethod
    def from_amplitudes(cls, c) -> "QuantumState":
        c = np.asarray(c, dtype=complex).ravel()
        norm = float(np.vdot(c, c).real)
        if abs(norm - 1.0) > active_profile().amplitude_norm:
            raise ValidationError(f"amplitude norm {norm!r} differs from 1 beyond tolerance")
        return cls(rho=np.outer(c, c.conj()))

    @classmethod
    def pure(cls, k: int, dim: int) -> "QuantumState":
        c = np.zeros(dim, dtype=complex)
        c[k] = 1.0
        return cls.from_amplitudes(c)

    @classmethod
    def from_rho(cls, rho) -> "QuantumState":
        state = cls(rho=rho)
        state.validate()
        return state

    @classmethod
    def maximally_mixed(cls, dim: int) -> "QuantumState":
        return cls(rho=np.eye(dim, dtype=complex) / dim)

    @property
    def dim(self) -> int:
        return self.rho.shape[0]

    @property
    def populations(self) -> np.ndarray:
        return self.rho.diagonal().real.copy()

    def purity(self) -> float:
        return float(np.einsum("ij,ji->", self.rho, self.rho).real)

    def expectation(self, a) -> float:
        from .operators import expectation
        return expectation(self.rho, a)

    def validate(self, prof=None) -> "QuantumState":
        prof = prof or active_profile()
        rho = require_square(self.rho, "density matrix")
        tr = complex(np.trace(rho))
        if not (abs(tr - 1.0) <= prof.trace):
            raise ValidationError(f"density matrix trace {tr} differs from 1 beyond {prof.trace:.1e}")
        dev = float(np.abs(rho - rho.conj().T).max())
        if dev > max(prof.hermiticity * max(1.0, float(np.abs(rho).max())), 1e-15):
            raise ValidationError(f"density matrix not Hermitian: max deviation {dev:.3e}")
        lam = np.linalg.eigvalsh(hermitize(rho))
        if lam.min() < -prof.positivity:
            raise ValidationError(f"density matrix has negative eigenvalue {lam.min():.3e}")
        return self

    def copy(self) -> "QuantumState":
        return QuantumState(rho=self.rho.copy())


@dataclass
class ApparatusState:
    """Classical configuration, velocity, and the mechanical structure maps.

    ``metric`` is a constant SPD matrix, a positive scalar mass, or a
    callable x -> SPD matrix; ``potential`` an optional callable x -> float.
    Analytic derivative callables can be supplied; otherwise central
    differences with ``fd_step`` are used.
    """

    x: np.ndarray
    v: np.ndarray
    metric: object = 1.0
    potential: object = None
    potential_grad: object = None
    metric_grad: object = None
    fd_step: float = 1e-6

    def __post_init__(self):
        self.x = np.atleast_1d(np.asarray(self.x, dtype=float))
        self.v = np.atleast_1d(np.asarray(self.v, dtype=float))
        if self.x.shape != self.v.shape:
            raise ValidationError(f"x shape {self.x.shape} and v shape {self.v.shape} differ")

    @property
    def n_coords(self) -> int:
        return self.x.shape[0]

    def metric_at(self, x) -> np.ndarray:
        n = self.n_coords
        if callable(self.metric):
            mu = np.asarray(self.metric(np.asarray(x, dtype=float)), dtype=float)
        elif np.ndim(self.metric) == 0:
            mu = float(self.metric) * np.eye(n)
        else:
            mu = np.asarray(self.metric, dtype=float)
        if mu.shape != (n, n):
            raise ValidationError(f"metric must have shape ({n}, {n}), got {mu.shape}")
        try:
            np.linalg.cholesky(mu)
        except np.linalg.LinAlgError:
            raise ValidationError(f"mass metric is not positive definite at x = {x}") from None
        return mu

    def metric_grad_at(self, x) -> np.ndarray | None:
        """d mu_ij / dx^k as [k, i, j], or None when the metric is constant."""
        if not callable(self.metric):
            return None
        x = np.asarray(x, dtype=float)
        n = self.n_coords
        if self.metric_grad is not None:
            g = np.asarray(self.metric_grad(x), dtype=float)
            if g.shape != (n, n, n):
                raise ValidationError(f"metric_grad must return shape ({n}, {n}, {n})")
            return g
        g = np.empty((n, n, n), dtype=float)
        for k in range(n):
            xp, xm = x.copy(), x.copy()
            xp[k] += self.fd_step
            xm[k] -= self.fd_step
            g[k] = (np.asarray(self.metric(xp), float) - np.asarray(self.metric(xm), float)) \
                / (2.0 * self.fd_step)
        return g

    def potential_at(self, x) -> float:
        if self.potential is None:
            return 0.0
        return float(self.potential(np.asarray(x, dtype=float)))

    def potential_grad_at(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        n = self.n_coords
        if self.potential is None:
            return np.zeros(n)
        if self.potential_grad is not None:
            g = np.asarray(self.potential_grad(x), dtype=float)
            if g.shape != (n,):
                raise ValidationError(f"potential_grad must return shape ({n},)")
            return g
        g = np.empty(n)
        for k in range(n):
            xp, xm = x.copy(), x.copy()
            xp[k] += self.fd_step
            xm[k] -= self.fd_step
            g[k] = (self.potential_at(xp) - self.potential_at(xm)) / (2.0 * self.fd_step)
        return g

    def kinetic_energy(self, x=None, v=None) -> float:
        x = self.x if x is None else x
        v = self.v if v is None else v
        return 0.5 * float(v @ self.metric_at(x) @ v)


@dataclass
class FrictionSpec:
    """Velocity-linear dissipative force -Gamma(x) v on the apparatus."""

    gamma: object = None
    enabled: bool = False

    @classmethod
    def none(cls) -> "FrictionSpec":
        return cls(gamma=None, enabled=False)

    @classmethod
    def constant(cls, gamma) -> "FrictionSpec":
        g = np.asarray(gamma, dtype=float)
        if g.ndim == 0:
            g = g.reshape(1, 1)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise ValidationError("friction tensor must be square")
        return cls(gamma=g, enabled=True)

    def gamma_at(self, x) -> np.ndarray | None:
        if not self.enabled or self.gamma is None:
            return None
        if callable(self.gamma):
            return np.asarray(self.gamma(np.asarray(x, dtype=float)), dtype=float)
        return np.asarray(self.gamma, dtype=float)


@dataclass
class EnergyLedger:
    """Running first-law account of the object's mean energy."""

    e_start: float
    e_mean: float
    q_cum: float = 0.0
    w_cum: float = 0.0

    @classmethod
    def open(cls, e0: float) -> "EnergyLedger":
        return cls(e_start=float(e0), e_mean=float(e0))

    def record(self, dq: float, dw: float, e_mean: float | None = None) -> "EnergyLedger":
        self.q_cum += float(dq)
        self.w_cum += float(dw)
        if e_mean is not None:
            self.e_mean = float(e_mean)
        return self

    @property
    def residual(self) -> float:
        return self.e_mean - self.e_start - self.q_cum - self.w_cum

    def closure_scale(self, floor: float | None = None) -> float:
        if floor is None:
            floor = active_profile().ledger_floor
        return max(abs(self.e_mean - self.e_start), abs(self.q_cum), abs(self.w_cum), floor)

    def closure_ok(self, prof=None) -> bool:
        prof = prof or active_profile()
        return abs(self.residual) <= prof.ledger_closure * self.closure_scale(prof.ledger_floor)


@dataclass
class Trajectory:
    """Sampled history of one run (or one branch of a run)."""

    t: np.ndarray
    x: np.ndarray
    v: np.ndarray
    rho: np.ndarray
    e_mean: np.ndarray
    q_cum: np.ndarray
    w_cum: np.ndarray
    ledger: EnergyLedger
    branch_label: object = None
    weight: float = 1.0
    event_steps: tuple = ()
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (0.0 <= self.weight <= 1.0):
            raise ValidationError(f"branch weight {self.weight} outside [0, 1]")
        if np.any(np.diff(self.t) <= 0.0):
            raise ValidationError("trajectory timestamps must be strictly increasing")

    @property
    def populations(self) -> np.ndarray:
        return np.einsum("tii->ti", self.rho).real

    @property
    def n_samples(self) -> int:
        return len(self.t)


@dataclass
class DynamicsScenario:
    """Inputs shared by the branching and mean-force runs."""

    family: HamiltonianFamily
    apparatus: ApparatusState
    state: QuantumState
    dt: float
    n_steps: int
    friction: FrictionSpec | None = None
    record_every: int = 1

    def __post_init__(self):
        if self.dt <= 0.0:
            raise ValidationError(f"dt must be positive, got {self.dt}")
        if self.n_steps < 1:
            raise ValidationError(f"n_steps must be >= 1, got {self.n_steps}")
        if self.record_every < 1:
            raise ValidationError("record_every must be >= 1")
        if self.apparatus.n_coords != self.family.n_coords:
            raise ValidationError("apparatus and family disagree on the number of coordinates")
        if self.state.dim != self.family.dim:
            raise ValidationError("quantum state and family disagree on the Hilbert dimension")


# ---------------------------------------------------------------------------
# quantum stepping


_RK4_IMAGINARY_LIMIT = 2.0 * np.sqrt(2.0)


def _check_step_size(hs: np.ndarray, dt: float, name: str, points) -> None:
    """Raise StepSizeError where dt passes RK4's stability limit for a generator.

    The von Neumann superoperator of a Hermitian generator h has eigenvalues
    -i (w_a - w_b) / hbar, and RK4 is stable on the imaginary axis up to
    |z| = 2 sqrt(2).  Gershgorin discs (the diagonal +- the off-diagonal row
    sums) bound the spectral spread of every generator in the stack ``hs``;
    ``points`` holds the ``name`` (t or x) of each generator for the message.
    """
    absh = np.abs(hs)
    diag = hs.diagonal(axis1=-2, axis2=-1).real
    radius = absh.sum(axis=-1) - absh.diagonal(axis1=-2, axis2=-1)
    ratio = dt * ((diag + radius).max(axis=-1) - (diag - radius).min(axis=-1)) / HBAR
    if ratio.max() > _RK4_IMAGINARY_LIMIT:
        i = int(np.argmax(ratio > _RK4_IMAGINARY_LIMIT))
        raise StepSizeError(
            f"step dt = {dt:.3e} at {name} = {points[i]} is past RK4's stability limit: "
            f"dt * spread / hbar = {ratio[i]:.3f} > 2 sqrt(2); reduce dt"
        )


def _node_operators(w, p, vs, f_ops=None, fad=None):
    """Generators h = W - v^k P_k (Hermitized) at a stack of path nodes and,
    given the diabatic forces and adiabatic force diagonals, the heat and
    work rates G_q = -v^k f_k, g_w = -v^k diag F_k: dQ/dt = Re Tr(G_q rho),
    dW/dt = g_w . diag(rho)."""
    h = hermitize(_generator(w, p, vs))
    if f_ops is None:
        return h, None
    return h, (-np.einsum("tk,tkij->tij", vs, f_ops), -np.einsum("tk,tki->ti", vs, fad))


def _rk4_step(rho, h, dt, prof, stages):
    """One cleaned RK4 step of i hbar drho/dt = [h, rho] over nodes h[0..2].

    With ``rho`` exactly Hermitian every stage state is too, so -i[h, r] =
    -i(X - X^dag) with X = h r.  Writes (rho, r2 + r3, r4) into ``stages``.
    """
    c = -0.5j * dt / HBAR
    x = h[0].dot(rho)       # ndarray.dot: less call overhead than @ on small matrices
    d1 = x - x.conj().T
    r2 = rho + c * d1
    x = h[1].dot(r2)
    d2 = x - x.conj().T
    r3 = rho + c * d2
    x = h[1].dot(r3)
    d3 = x - x.conj().T
    r4 = rho + (2.0 * c) * d3
    x = h[2].dot(r4)
    stages[0] = rho
    np.add(r2, r3, out=stages[1])
    stages[2] = r4
    rho_new = rho + (c / 3.0) * (d1 + 2.0 * (d2 + d3) + (x - x.conj().T))
    tr = complex(rho_new.trace())
    drift = abs(tr - 1.0)
    if not (drift <= prof.trace_drift_per_step):
        raise StepSizeError(
            f"trace drifted by {drift:.3e} in one step (tolerance "
            f"{prof.trace_drift_per_step:.1e}); reduce dt"
        )
    return hermitize(rho_new) / tr.real


def _ledger_increments(stages, gq, gw, dt):
    """Simpson/RK4 quadrature of (dQ, dW) over steps s with stage sums
    ``stages[s]`` and node rates ``gq[s]``/``gw[s]``: weights (1, 2 + 2, 1) dt/6."""
    wts = np.array([1.0, 2.0, 1.0]) * (dt / 6.0)
    dq = np.einsum("snij,snji->sn", stages, gq).real @ wts
    dw = np.einsum("snii,sni->sn", stages, gw).real @ wts
    return dq, dw


def _path_nodes(fam: HamiltonianFamily, pts):
    """x and v of the (x, v) pairs ``pts`` as two (len(pts), n_coords) arrays."""
    xs, vs = zip(*pts)
    fam.coerce_x(xs[0])
    shape = (len(pts), fam.n_coords)
    try:
        return [np.array(a, dtype=float).reshape(shape) for a in (xs, vs)]
    except ValueError:
        raise ValidationError(f"path x and v must have shape {shape[1:]} at every node") from None


def quantum_step(fam: HamiltonianFamily, frame_prev: AdiabaticFrame, state: QuantumState,
                 segment, dt: float, *, ledger: EnergyLedger | None = None):
    """One RK4 step of the moving-frame evolution along a path segment.

    Parameters
    ----------
    segment : callable or sequence
        ``s -> (x, v)`` for s in [0, dt], or the three (x, v) pairs at
        s = 0, dt/2, dt.  The start must coincide with ``frame_prev.x``.
    ledger : EnergyLedger, optional
        When given, heat and work increments are accumulated with the same
        Runge-Kutta stages used for the state.

    Returns
    -------
    (QuantumState, AdiabaticFrame)
        The advanced state and the frame at the segment end.
    """
    prof = active_profile()
    if dt <= 0.0:
        raise ValidationError(f"dt must be positive, got {dt}")
    pts = [segment(s) for s in (0.0, 0.5 * dt, dt)] if callable(segment) else list(segment)
    if len(pts) != 3:
        raise ValidationError("path segment must supply (x, v) at s = 0, dt/2, dt")
    xs, vs = _path_nodes(fam, pts)
    if not np.abs(xs[0] - frame_prev.x).max() <= 1e-9 * (1.0 + np.abs(frame_prev.x).max()):
        raise ValidationError("segment start does not match the previous frame's configuration")

    frame_m = build_frame(fam, xs[1], prev=frame_prev)
    frame_1 = build_frame(fam, xs[2], prev=frame_m)
    frames = (frame_prev, frame_m, frame_1)
    w = np.array([fr.eigenvalues for fr in frames])
    p = np.array([fr.connections for fr in frames])
    if ledger is None:
        h, rates = _node_operators(w, p, vs)
    else:
        pairs = [forces(fam, fr) for fr in frames]
        fad = np.array([fp.adiabatic.diagonal(axis1=1, axis2=2).real for fp in pairs])
        h, rates = _node_operators(w, p, vs, np.array([fp.diabatic for fp in pairs]), fad)
    _check_step_size(h, dt, "x", xs)

    stages = np.empty((1, 3, fam.dim, fam.dim), dtype=complex)
    rho_new = _rk4_step(hermitize(state.rho), h, dt, prof, stages[0])
    if ledger is not None:
        dq, dw = _ledger_increments(stages, *(g[None] for g in rates), dt)
        ledger.record(dq[0], dw[0], float(rho_new.diagonal().real @ frame_1.eigenvalues))
    return QuantumState(rho=rho_new), frame_1


# ---------------------------------------------------------------------------
# classical stepping


def _acceleration(app: ApparatusState, x, v, cons_force, friction: FrictionSpec | None):
    rhs = np.array(cons_force, dtype=float, copy=True)
    dmu = app.metric_grad_at(x)
    if dmu is not None:
        rhs += 0.5 * np.einsum("kij,i,j->k", dmu, v, v)
        rhs -= np.einsum("akj,a,j->k", dmu, v, v)
    if friction is not None:
        gam = friction.gamma_at(x)
        if gam is not None:
            rhs -= gam @ v
    return np.linalg.solve(app.metric_at(x), rhs)


def _kick(app: ApparatusState, x, v_start, cons_force, friction, half_dt):
    """v_start + half_dt * a(x, v) solved to a fixed point when a depends on v."""
    velocity_dependent = (friction is not None and friction.enabled) or callable(app.metric)
    v = v_start + half_dt * _acceleration(app, x, v_start, cons_force, friction)
    if not velocity_dependent:
        return v
    for _ in range(60):
        v_next = v_start + half_dt * _acceleration(app, x, v, cons_force, friction)
        if np.abs(v_next - v).max() <= 1e-13 * (1.0 + np.abs(v_next).max()):
            return v_next
        v = v_next
    raise StepSizeError("velocity corrector did not converge; reduce dt or friction strength")


def _branch_cons_force(app: ApparatusState, frame: AdiabaticFrame, k: int) -> np.ndarray:
    # -dW_k/dx (Hellmann-Feynman diagonal) - dV/dx
    return -frame.grad_adiabatic[:, k, k].real - app.potential_grad_at(frame.x)


def _vv_branch_step(app, fam, frame, k, friction, dt):
    x, v = app.x, app.v
    f0 = _branch_cons_force(app, frame, k)
    v_half = _kick(app, x, v, f0, friction, 0.5 * dt)
    x1 = x + dt * v_half
    frame1 = build_frame(fam, x1, prev=frame)
    f1 = _branch_cons_force(app, frame1, k)
    v1 = _kick(app, x1, v_half, f1, friction, 0.5 * dt)
    app1 = dataclasses.replace(app, x=x1, v=v1)
    return app1, frame1, v_half


# ---------------------------------------------------------------------------
# recorded runs


class _Recorder:
    def __init__(self, record_every: int, n_steps: int):
        self.record_every = record_every
        self.n_steps = n_steps
        self.rows = []

    def want(self, step: int) -> bool:
        return step % self.record_every == 0 or step == self.n_steps

    def add(self, t, x, v, rho, ledger: EnergyLedger):
        self.rows.append((t, x.copy(), v.copy(), rho.copy(),
                          ledger.e_mean, ledger.q_cum, ledger.w_cum))

    def build(self, ledger, **kwargs) -> Trajectory:
        ts, xs, vs, rhos, es, qs, ws = zip(*self.rows)
        return Trajectory(
            t=np.array(ts), x=np.array(xs), v=np.array(vs), rho=np.array(rhos),
            e_mean=np.array(es), q_cum=np.array(qs), w_cum=np.array(ws),
            ledger=ledger, **kwargs,
        )


def sample_branch_counts(state: QuantumState, n_samples: int, seed) -> np.ndarray:
    """Multinomial draw of branch assignments from the Born weights."""
    if n_samples < 1:
        raise ValidationError("n_samples must be >= 1")
    weights = state.populations
    total = float(weights.sum())
    if abs(total - 1.0) > active_profile().amplitude_norm or np.any(weights < -1e-12):
        raise ValidationError(f"branch weights {weights} do not form a distribution")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return rng.multinomial(n_samples, np.clip(weights, 0.0, None) / total)


def run_branching(scenario: DynamicsScenario) -> list:
    """Deterministic branch-resolved measurement run.

    Each adiabatic state k with nonzero initial population spawns one
    classical trajectory of the apparatus moving on W_k, carrying the Born
    weight fixed at t = 0.  The branch ledgers are pure work: the diabatic
    heat vanishes identically on an energy eigenstate.
    """
    fam, app0 = scenario.family, scenario.apparatus
    weights = scenario.state.populations
    total = float(weights.sum())
    if abs(total - 1.0) > active_profile().amplitude_norm:
        raise ValidationError(f"branch weights sum to {total!r}, expected 1")
    frame0 = build_frame(fam, app0.x)
    dt = scenario.dt
    m = fam.dim

    trajectories = []
    for k in range(m):
        if weights[k] == 0.0:
            continue
        app = dataclasses.replace(app0, x=app0.x.copy(), v=app0.v.copy())
        frame = frame0
        rho_k = QuantumState.pure(k, m).rho
        ledger = EnergyLedger.open(frame.eigenvalues[k])
        rec = _Recorder(scenario.record_every, scenario.n_steps)
        heat = 0.0
        mech = [app.kinetic_energy() + app.potential_at(app.x) + frame.eigenvalues[k]]
        heats = [0.0]
        rec.add(0.0, app.x, app.v, rho_k, ledger)
        for step in range(1, scenario.n_steps + 1):
            w_prev = frame.eigenvalues[k]
            x_prev, v_prev = app.x, app.v
            app, frame, v_half = _vv_branch_step(app, fam, frame, k, scenario.friction, dt)
            ledger.record(0.0, frame.eigenvalues[k] - w_prev, frame.eigenvalues[k])
            if scenario.friction is not None and scenario.friction.enabled:
                heat += _friction_heat_step(scenario.friction, x_prev, v_prev, v_half,
                                            app.x, app.v, dt)
            if rec.want(step):
                rec.add(step * dt, app.x, app.v, rho_k, ledger)
                mech.append(app.kinetic_energy() + app.potential_at(app.x) + frame.eigenvalues[k])
                heats.append(heat)
        traj = rec.build(ledger, branch_label=k, weight=float(weights[k]),
                         extras={"apparatus_energy": np.array(mech),
                                 "friction_heat": np.array(heats)})
        trajectories.append(traj)
    return trajectories


def _friction_heat_step(friction, x0, v0, v_half, x1, v1, dt):
    # Simpson rule on v.Gamma(x).v across the step
    x_mid = x0 + 0.5 * dt * v_half
    g0, gm, g1 = (friction.gamma_at(p) for p in (x0, x_mid, x1))
    val0 = float(v0 @ g0 @ v0)
    valm = float(v_half @ gm @ v_half)
    val1 = float(v1 @ g1 @ v1)
    return dt * (val0 + 4.0 * valm + val1) / 6.0


def run_mean_force(scenario: DynamicsScenario) -> Trajectory:
    """Self-consistent mean-force (Ehrenfest-like) run.

    The apparatus feels the state-averaged transformed force
    Tr(rho (F_k + f_k)) while the state evolves in the moving frame along
    the resulting path; heat and work are accumulated stage-consistently.
    """
    fam, app = scenario.family, scenario.apparatus
    state = scenario.state.copy()
    state.validate()
    friction, dt = scenario.friction, scenario.dt
    frame = build_frame(fam, app.x)
    ledger = EnergyLedger.open(float(state.rho.diagonal().real @ frame.eigenvalues))
    rec = _Recorder(scenario.record_every, scenario.n_steps)
    rec.add(0.0, app.x, app.v, state.rho, ledger)

    for step in range(1, scenario.n_steps + 1):
        fp = forces(fam, frame)
        mean_force = np.einsum("kij,ji->k", fp.total, state.rho).real
        cons = mean_force - app.potential_grad_at(app.x)
        v_half = _kick(app, app.x, app.v, cons, friction, 0.5 * dt)
        x1 = app.x + dt * v_half

        def segment(s, x=app.x, vh=v_half):
            return x + s * vh, vh

        state, frame = quantum_step(fam, frame, state, segment, dt, ledger=ledger)
        fp1 = forces(fam, frame)
        mean_force1 = np.einsum("kij,ji->k", fp1.total, state.rho).real
        cons1 = mean_force1 - app.potential_grad_at(x1)
        v1 = _kick(app, x1, v_half, cons1, friction, 0.5 * dt)
        app = dataclasses.replace(app, x=x1, v=v1)
        if rec.want(step):
            rec.add(step * dt, app.x, app.v, state.rho, ledger)
    return rec.build(ledger)


# ---------------------------------------------------------------------------
# driven runs along a prescribed path


def uniform_drive(x0, v):
    """Path callable for x(t) = x0 + v t at constant velocity."""
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    v = np.atleast_1d(np.asarray(v, dtype=float))

    def path(t: float):
        return x0 + v * t, v

    return path


def run_driven(fam: HamiltonianFamily, path, state0: QuantumState, duration: float,
               n_steps: int, *, t0: float = 0.0, record_every: int = 1,
               events: dict | None = None) -> Trajectory:
    """Evolve the quantum state along a prescribed apparatus path.

    Parameters
    ----------
    path : callable
        ``t -> (x, v)`` describing the drive.
    events : dict, optional
        ``{step_index: transform}`` applied to the state after that step
        completes (1-based); transforms receive and return a QuantumState.
        The pre- and post-event states are stored in ``extras['events']``.

    Returns
    -------
    Trajectory
        Sampled every ``record_every`` steps; ``extras['diabatic_mean']``
        holds Tr(rho f_k) at the recorded samples.
    """
    prof = active_profile()
    if duration <= 0.0 or n_steps < 1:
        raise ValidationError("duration must be positive and n_steps >= 1")
    if record_every < 1:
        raise ValidationError("record_every must be >= 1")
    events = dict(events or {})
    for step in events:
        if not 1 <= step <= n_steps:
            raise ValidationError(f"event step {step} outside 1..{n_steps}")

    dt = duration / n_steps
    times = t0 + 0.5 * dt * np.arange(2 * n_steps + 1)
    xs, vs = _path_nodes(fam, [path(float(t)) for t in times])
    w, _, gad, p, _ = _frame_kernel(fam, xs)
    f_ops, fd = _force_split(w, p, gad)
    del gad
    h_mov, (gq, gw) = _node_operators(w, p, vs, f_ops, fd)
    _check_step_size(h_mov, dt, "t", times)
    rec = _Recorder(record_every, n_steps)
    rec_steps = [step for step in range(1, n_steps + 1) if rec.want(step)]
    f_rec = f_ops[[0] + [2 * step for step in rec_steps]]
    del p, f_ops, fd

    state = state0.copy()
    state.validate()
    rho = hermitize(state.rho)
    ledger = EnergyLedger.open(float(rho.diagonal().real @ w[0]))
    rec.add(float(times[0]), xs[0], vs[0], rho, ledger)
    stages = np.empty((n_steps, 3, fam.dim, fam.dim), dtype=complex)
    event_log = []

    for step in range(1, n_steps + 1):
        c = 2 * step
        rho = _rk4_step(rho, h_mov[c - 2:c + 1], dt, prof, stages[step - 1])
        if step in events:
            before = rho.copy()
            out = events[step](QuantumState(rho=rho))
            rho = hermitize(np.asarray(out.rho, dtype=complex))
            event_log.append({"step": step, "rho_before": before, "rho_after": rho.copy()})
        if rec.want(step):
            ledger.e_mean = float(rho.diagonal().real @ w[c])
            rec.add(float(times[c]), xs[c], vs[c], rho, ledger)

    # the ledger quadrature after the loop; step s spans nodes 2s, 2s + 1, 2s + 2,
    # and the rows recorded in the loop get their cumulative Q and W here
    gq, gw = (np.moveaxis(np.lib.stride_tricks.sliding_window_view(g, 3, axis=0)[::2], -1, 1)
              for g in (gq, gw))
    q_cum, w_cum = (np.cumsum(d) for d in _ledger_increments(stages, gq, gw, dt))
    ledger.record(q_cum[-1], w_cum[-1])
    traj = rec.build(ledger, event_steps=tuple(sorted(events)), extras={})
    rows = np.array(rec_steps) - 1
    traj.q_cum[1:], traj.w_cum[1:] = q_cum[rows], w_cum[rows]
    traj.extras["diabatic_mean"] = np.einsum("tkij,tji->tk", f_rec, traj.rho).real
    if event_log:
        traj.extras["events"] = event_log
    return traj


def time_averaged_diabatic_force(fam: HamiltonianFamily, path, duration: float,
                                 n_steps: int, state0: QuantumState,
                                 scale: float = 1.0) -> np.ndarray:
    """Path average of |Tr(rho f_k)| with the drive velocity rescaled.

    The geometric path of ``path`` over [0, duration] is retraced at
    ``scale`` times the speed (duration/scale, same spatial resolution), and
    the absolute diabatic mean force is averaged over the traversal.  Slower
    traversals average the oscillatory coherences away, so the result
    decreases with ``scale``.
    """
    if scale <= 0.0:
        raise ValidationError("velocity scale must be positive")

    def slowed(t: float):
        x, v = path(scale * t)
        return x, scale * np.atleast_1d(np.asarray(v, dtype=float))

    traj = run_driven(fam, slowed, state0, duration / scale,
                      max(1, round(n_steps / scale)), record_every=1)
    return np.abs(traj.extras["diabatic_mean"]).mean(axis=0)
