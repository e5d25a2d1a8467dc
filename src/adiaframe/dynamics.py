"""Coupled evolution of a quantum object and a classical apparatus.

The quantum state is carried in the instantaneous adiabatic basis of
H(x(t)); there it obeys

    i * hbar * drho/dt = [W(x) - v^k P_k(x), rho],

integrated with a classic fourth-order Runge-Kutta step whose stage frames
come from the one frame kernel of :mod:`adiaframe.frames`, with gauge
continuity along the path.  The apparatus moves with a velocity-Verlet
step that supports a configuration-dependent mass metric and a friction
force -Gamma v (both velocity couplings are resolved by a fixed-point
corrector on the closing kick; the opening kick is explicit, so the step
stays second order).  Every run steps on the kernel's arrays, not on
frame objects: driven runs take the half-step nodes of a block of steps
in one call (``_DRIVE_BLOCK``), so a run holds the node stacks of one block
at a time, mean-force runs one call per step on its midpoint and end, and
branching runs step every branch in lockstep, one call per step in the
kernel's per-row reference mode.

A driven run takes one of two routes, chosen by the Hilbert dimension m
alone.  Up to m = 4 (``_TRANSFER_MAX_DIM``) it steps by RK4 transfer maps:
the step over each node triple is one linear map on vec(rho), built for a
chunk of steps at a time, so a step is one matrix-vector product and the
state is cleaned (Hermitized, divided by its trace) only where it is read.
Larger runs, like every mean-force step, take the per-step stage loop.  Both
routes fill the ledger's stage states with the same RK4 stage formula.

Energy bookkeeping follows the first-law split of the object's mean energy
E = Tr(rho W): work flows through the adiabatic forces F_k (block-diagonal on
degeneracy clusters) and heat through the diabatic forces f_k,

    dE = dQ + dW,   dW = -Tr(rho F_k) dx^k,   dQ = -Tr(rho f_k) dx^k.

The integrators accumulate Q and W with the same Runge-Kutta stages as rho,
and each recorded row holds E, Q and W.  A run's ledger is read from its
first and last rows, and its closure residual shrinks at the integrator's
own fourth order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import StepSizeError, ValidationError
from .frames import (HamiltonianFamily, _central_difference, _connections, _force_split,
                     _frame_kernel, _generator)
from .operators import _Chain, _eigh, hermitize, require_square
from .tolerances import active_profile
from .units import HBAR

__all__ = [
    "QuantumState",
    "ApparatusState",
    "FrictionSpec",
    "EnergyLedger",
    "Trajectory",
    "DynamicsScenario",
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
        if abs(norm - 1.0) > active_profile().trace:
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

    def validate(self) -> "QuantumState":
        prof = active_profile()
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
    callable x -> SPD matrix, checked once when constant and at every x when
    callable; ``potential`` an optional callable x -> float with an optional
    analytic gradient ``potential_grad``.  Other derivatives are central
    differences with ``fd_step``.
    """

    x: np.ndarray
    v: np.ndarray
    metric: object = 1.0
    potential: object = None
    potential_grad: object = None
    fd_step: float = 1e-6

    def __post_init__(self):
        self.x = np.atleast_1d(np.asarray(self.x, dtype=float))
        self.v = np.atleast_1d(np.asarray(self.v, dtype=float))
        if self.x.shape != self.v.shape:
            raise ValidationError(f"x shape {self.x.shape} and v shape {self.v.shape} differ")
        for name, arr in (("x", self.x), ("v", self.v)):
            if not np.all(np.isfinite(arr)):
                raise ValidationError(f"apparatus {name} = {arr} is not finite")
        self._metric = None                     # metric_at returns this cache once set
        self._metric = None if callable(self.metric) else self.metric_at(None)

    @property
    def n_coords(self) -> int:
        return self.x.shape[0]

    def metric_at(self, x) -> np.ndarray:
        if self._metric is not None:
            return self._metric.copy()
        n = self.n_coords
        if callable(self.metric):
            mu = np.asarray(self.metric(np.asarray(x, dtype=float)), dtype=float)
        elif np.ndim(self.metric) == 0:
            mu = float(self.metric) * np.eye(n)
        else:
            mu = np.array(self.metric, dtype=float)
        if mu.shape != (n, n):
            raise ValidationError(f"metric must have shape ({n}, {n}), got {mu.shape}")
        try:
            np.linalg.cholesky(mu)
        except np.linalg.LinAlgError:
            where = f" at x = {x}" if callable(self.metric) else ""
            raise ValidationError(f"mass metric is not positive definite{where}") from None
        return mu

    def metric_grad_at(self, x) -> np.ndarray | None:
        """d mu_ij / dx^k as [k, i, j], or None when the metric is constant."""
        if not callable(self.metric):
            return None
        return self._derivative(lambda y: np.asarray(self.metric(y), dtype=float), x)

    def potential_at(self, x) -> float:
        if self.potential is None:
            return 0.0
        value = float(self.potential(np.asarray(x, dtype=float)))
        if not np.isfinite(value):
            raise ValidationError(f"potential is {value} at x = {x}")
        return value

    def potential_grad_at(self, x) -> np.ndarray:
        if self.potential is None:
            return np.zeros(self.n_coords)
        if self.potential_grad is None:
            g = self._derivative(self.potential_at, x)
        else:
            g = np.asarray(self.potential_grad(np.asarray(x, dtype=float)), dtype=float)
            if g.shape != (self.n_coords,):
                raise ValidationError(f"potential_grad must return shape ({self.n_coords},)")
        if not np.all(np.isfinite(g)):
            raise ValidationError(f"potential gradient is {g} at x = {x}")
        return g

    def _derivative(self, f, x) -> np.ndarray:
        """Central differences of f at x with step ``fd_step``."""
        return _central_difference(f, np.asarray(x, dtype=float), [self.fd_step] * self.n_coords)

    def kinetic_energy(self, x=None, v=None) -> float:
        x = self.x if x is None else x
        v = self.v if v is None else v
        return 0.5 * float(v @ self.metric_at(x) @ v)


@dataclass
class FrictionSpec:
    """Velocity-linear dissipative force -Gamma(x) v on the apparatus.

    ``gamma`` is a constant tensor or a callable x -> tensor; a run without
    friction takes ``friction=None`` instead.  A scenario checks that a
    constant Gamma dissipates (:func:`_require_dissipative`); a callable
    Gamma is not checked.
    """

    gamma: object

    @classmethod
    def constant(cls, gamma) -> "FrictionSpec":
        g = np.asarray(gamma, dtype=float)
        if g.ndim == 0:
            g = g.reshape(1, 1)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise ValidationError("friction tensor must be square")
        return cls(gamma=g)

    def gamma_at(self, x) -> np.ndarray:
        """Gamma at x, or at each row of a (B, n) stack x when Gamma is callable."""
        if callable(self.gamma):
            if np.ndim(x) == 2:
                return np.array([self.gamma_at(xb) for xb in x])
            return np.asarray(self.gamma(np.asarray(x, dtype=float)), dtype=float)
        return np.asarray(self.gamma, dtype=float)


def _require_dissipative(gamma) -> None:
    """Raise unless the symmetric part of the constant tensor ``gamma`` is
    positive semidefinite, within ``friction_diagonal_floor`` times max |Gamma|.
    Only that part does work, -v.Gamma.v; an antisymmetric part is allowed."""
    gamma = np.asarray(gamma, dtype=float)
    # halved before the sum, which cannot then overflow
    lowest = _eigh((0.5 * gamma + 0.5 * gamma.T)[None], vectors=False)[0][0, 0]
    if not lowest >= -active_profile().friction_diagonal_floor * np.abs(gamma).max():
        raise ValidationError(f"friction tensor is not dissipative: its symmetric part has "
                              f"eigenvalue {lowest:.6g}")


@dataclass(frozen=True)
class EnergyLedger:
    """First-law account of a run: E at its start and end, and the heat Q and
    work W in between, as read from its recorded rows (:attr:`Trajectory.ledger`)."""

    e_start: float
    e_mean: float
    q_cum: float = 0.0
    w_cum: float = 0.0

    @property
    def residual(self) -> float:
        return self.e_mean - self.e_start - self.q_cum - self.w_cum

    def closure_tolerance(self) -> float:
        """``ledger_closure`` times max(|E - E_start|, |Q|, |W|, ``ledger_floor``)."""
        prof = active_profile()
        return prof.ledger_closure * max(abs(self.e_mean - self.e_start), abs(self.q_cum),
                                         abs(self.w_cum), prof.ledger_floor)

    def closure_ok(self) -> bool:
        return abs(self.residual) <= self.closure_tolerance()


@dataclass
class Trajectory:
    """Sampled history of one run (or one branch of a run).

    The recorded rows are the run's only record: its energy ledger and the
    steps of its events are read from them.
    """

    t: np.ndarray
    x: np.ndarray
    v: np.ndarray
    rho: np.ndarray
    e_mean: np.ndarray
    q_cum: np.ndarray
    w_cum: np.ndarray
    branch_label: object = None
    weight: float = 1.0
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        top = 1.0 + active_profile().trace     # Born weights of admitted amplitudes
        if not (0.0 <= self.weight <= top):
            raise ValidationError(f"branch weight {self.weight} outside [0, {top!r}]")
        if np.any(np.diff(self.t) <= 0.0):
            raise ValidationError("trajectory timestamps must be strictly increasing")

    @property
    def ledger(self) -> EnergyLedger:
        """The run's ledger: E from the first row, and E, Q and W from the last."""
        return EnergyLedger(float(self.e_mean[0]), float(self.e_mean[-1]),
                            float(self.q_cum[-1]), float(self.w_cum[-1]))

    @property
    def event_steps(self) -> tuple:
        """The steps of the events in ``extras['events']``, in order."""
        return tuple(event["step"] for event in self.extras.get("events", ()))

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
        if not (np.isfinite(self.dt) and self.dt > 0.0):
            raise ValidationError(f"dt must be positive and finite, got {self.dt}")
        if self.n_steps < 1:
            raise ValidationError(f"n_steps must be >= 1, got {self.n_steps}")
        if self.record_every < 1:
            raise ValidationError("record_every must be >= 1")
        if self.apparatus.n_coords != self.family.n_coords:
            raise ValidationError("apparatus and family disagree on the number of coordinates")
        n = self.apparatus.n_coords
        if self.friction is not None and not callable(self.friction.gamma):
            if np.shape(self.friction.gamma) != (n, n):
                raise ValidationError(f"friction tensor has shape {np.shape(self.friction.gamma)}, "
                                      f"but the apparatus has {n} coordinate(s)")
            _require_dissipative(self.friction.gamma)
        if self.state.dim != self.family.dim:
            raise ValidationError("quantum state and family disagree on the Hilbert dimension")


# ---------------------------------------------------------------------------
# quantum stepping


_RK4_IMAGINARY_LIMIT = 2.0 * np.sqrt(2.0)

# Driven runs of at most this many levels step by RK4 transfer maps, one
# (m^2, m^2) matrix-vector product per step, where that beats the per-step
# stage loop; chunks of their maps hold about _TRANSFER_CHUNK complex entries.
_TRANSFER_MAX_DIM = 4
_TRANSFER_CHUNK = 2 ** 13

# A driven run steps its path a block of steps at a time: a multiple of 4
# steps, at least 4, whose (t, n, m, m) node stacks hold about _DRIVE_BLOCK
# complex entries each.
_DRIVE_BLOCK = 2 ** 14


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


def _rate(vs, ops):
    """-v^k O_k at a stack of path nodes: with O = f the heat rate operator
    G_q, with O = F the work rate operator G_w; dQ/dt = Re Tr(G_q rho),
    dW/dt = Re Tr(G_w rho)."""
    g = np.einsum("tk,tkij->tij", vs, ops)
    return np.negative(g, out=g)


def _rk4_stages(rho, h, dt, stages):
    """The RK4 stage states of i hbar drho/dt = [h, rho] over nodes h[0..2],
    from one state ``rho`` or from each of a stack of them (then each node
    and each stage a stack as well).

    With ``rho`` exactly Hermitian every stage state is too, so -i[h, r] =
    -i(X - X^dag) with X = h r.  Writes r2 + r3 and r4 into ``stages[1]`` and
    ``stages[2]``, and returns c = -i dt / (2 hbar), d1 + 2 (d2 + d3) and r4,
    with d_k = X_k - X_k^dag of stage k.
    """
    mul = np.ndarray.dot if rho.ndim == 2 else np.matmul    # dot: less call overhead on one small matrix
    c = -0.5j * dt / HBAR
    x = mul(h[0], rho)
    d1 = x - x.conj().swapaxes(-1, -2)
    r2 = rho + c * d1
    x = mul(h[1], r2)
    d2 = x - x.conj().swapaxes(-1, -2)
    r3 = rho + c * d2
    x = mul(h[1], r3)
    d3 = x - x.conj().swapaxes(-1, -2)
    r4 = rho + (2.0 * c) * d3
    np.add(r2, r3, out=stages[1])
    stages[2] = r4
    return c, d1 + 2.0 * (d2 + d3), r4


def _check_trace(tr) -> None:
    """Raise StepSizeError if the step-end trace ``tr`` drifted from 1 past
    ``trace_drift_per_step``; for an array of traces, at the first such."""
    tol = active_profile().trace_drift_per_step
    if isinstance(tr, np.ndarray):
        ok = np.abs(tr - 1.0) <= tol
        if ok.all():
            return
        tr = complex(tr[np.argmin(ok)])
    drift = abs(tr - 1.0)
    if not (drift <= tol):
        raise StepSizeError(
            f"trace drifted by {drift:.3e} in one step (tolerance {tol:.1e}); reduce dt"
        )


def _rk4_step(rho, h, dt, stages):
    """One cleaned RK4 step of i hbar drho/dt = [h, rho] over nodes h[0..2]
    from the Hermitian ``rho``; writes (rho, r2 + r3, r4) into ``stages``."""
    stages[0] = rho
    c, d, r4 = _rk4_stages(rho, h, dt, stages)
    x = h[2].dot(r4)
    rho_new = rho + (c / 3.0) * (d + (x - x.conj().T))
    tr = complex(rho_new.trace())
    _check_trace(tr)
    return hermitize(rho_new) / tr.real


def _transfer_maps(h, dt):
    """The RK4 step over each node triple h[s] = (h0, h_half, h1) as one linear
    map on row-major vec(rho), a (len(h), m^2, m^2) stack:

        T = I + (dt/6)(K1 + 2 K2 + 2 K3 + K4),   K1 = L0,   K2 = L_half (I + dt/2 K1),
        K3 = L_half (I + dt/2 K2),   K4 = L1 (I + dt K3),

    with L = -(i/hbar)(h (x) I - I (x) h^T) the von Neumann superoperator of each node.
    """
    s, _, m, _ = h.shape
    lv = np.zeros((s, 3, m, m, m, m), dtype=complex)
    for i in range(m):
        lv[:, :, :, i, :, i] = h                        # h (x) I
    ht = h.swapaxes(-1, -2)
    for i in range(m):
        lv[:, :, i, :, i, :] -= ht                      # - I (x) h^T
    lv = lv.reshape(s, 3, m * m, m * m)
    lv *= -1j / HBAR
    eye = np.eye(m * m)
    k2 = lv[:, 1] @ (eye + (0.5 * dt) * lv[:, 0])
    k3 = lv[:, 1] @ (eye + (0.5 * dt) * k2)
    k4 = lv[:, 2] @ (eye + dt * k3)
    return eye + (dt / 6.0) * (lv[:, 0] + 2.0 * (k2 + k3) + k4)


def _stepwise_route(rho, nodes, dt, stages, first, reads, read):
    """Step the Hermitian ``rho`` over the node triples ``nodes[s]`` of steps
    first + 1, first + 2, ... one cleaned RK4 step at a time; after each step
    in ``reads``, ``read(step, rho)`` gives the state to go on from.  Returns
    the state after the last step."""
    for s in range(len(nodes)):
        rho = _rk4_step(rho, nodes[s], dt, stages[s])
        if first + s + 1 in reads:
            rho = read(first + s + 1, rho)
    return rho


def _transfer_route(rho, nodes, dt, stages, first, reads, read):
    """:func:`_stepwise_route` by transfer maps: one matrix-vector product per
    step on vec(rho), written straight into ``stages[s, 0]``.

    The maps are built a chunk of steps at a time, each chunk's maps about
    ``_TRANSFER_CHUNK`` complex entries.  The state steps on uncleaned and is
    cleaned (Hermitized, divided by its trace) where it is read; the traces of
    the steps before each read and at each chunk's end are checked at once.
    Then the chunk's states are cleaned in place, so the ledger reads each at
    trace 1 as on the stage loop, and its stage states come from one stacked
    :func:`_rk4_stages`.  The state is returned as it steps on, cleaned only
    if the last step was read, so a run stepped in blocks steps as one.
    """
    n, m = len(nodes), rho.shape[0]
    flat = stages.reshape(n, -1)[:, :m * m]             # row s: vec(stages[s, 0])
    chunk = max(1, _TRANSFER_CHUNK // m ** 4)
    vec = rho.ravel()

    def check(lo, hi, end):
        """The traces of the step ends rho_{lo+1}..rho_hi, with vec(rho_hi) = ``end``."""
        _check_trace(np.append(stages[lo + 1:hi, 0].trace(axis1=1, axis2=2), end[::m + 1].sum()))

    for a in range(0, n, chunk):
        b = min(a + chunk, n)
        maps, lo = _transfer_maps(nodes[a:b], dt), a
        for s in range(a, b):
            flat[s] = vec
            vec = maps[s - a].dot(vec)
            if first + s + 1 in reads:
                check(lo, s + 1, vec)
                rho = vec.reshape(m, m)
                rho = read(first + s + 1, hermitize(rho) / complex(rho.trace()).real)
                vec, lo = rho.ravel(), s + 1
        if lo < b:
            check(lo, b, vec)
        rhos = stages[a:b, 0]
        rhos[...] = hermitize(rhos) / rhos.trace(axis1=1, axis2=2).real[:, None, None]
        _rk4_stages(rhos, np.moveaxis(nodes[a:b], 1, 0), dt, np.moveaxis(stages[a:b], 1, 0))
    return vec.reshape(m, m)


def _ledger_increments(stages, gq, gw, dt):
    """Simpson/RK4 quadrature of (dQ, dW) over steps s with stage sums
    ``stages[s]`` and node rates ``gq[s]``/``gw[s]``: weights (1, 2 + 2, 1) dt/6."""
    wts = np.array([1.0, 2.0, 1.0]) * (dt / 6.0)
    return tuple(np.einsum("snij,snji->sn", stages, g).real @ wts for g in (gq, gw))


def _step_nodes(g):
    """The (n_steps, 3, ...) view of the node stack ``g`` whose row s holds the
    nodes 2s, 2s + 1 and 2s + 2 of step s + 1."""
    return np.moveaxis(np.lib.stride_tricks.sliding_window_view(g, 3, axis=0)[::2], -1, 1)


def _path_nodes(fam: HamiltonianFamily, path, times):
    """x and v of ``path`` at each of ``times`` as two (len(times), n_coords)
    arrays: one broadcast for a :func:`uniform_drive`, one call per time otherwise."""
    nodes = getattr(path, "_nodes", None)
    xs, vs = nodes(times) if nodes is not None else zip(*[path(float(t)) for t in times])
    fam.coerce_x(xs[0])
    shape = (len(times), fam.n_coords)
    try:
        return [np.array(a, dtype=float).reshape(shape) for a in (xs, vs)]
    except ValueError:
        raise ValidationError(f"path x and v must have shape {shape[1:]} at every node") from None


# ---------------------------------------------------------------------------
# classical stepping


def _acceleration(app: ApparatusState, x, cons_force, friction: FrictionSpec | None):
    """(v, rows) -> a(x, v) at the ``rows`` of the (B, n) stacks ``x`` and
    ``cons_force``; the maps of x (metric, its gradient, Gamma) are taken once."""
    mu, dmu = (None if np.ndim(app.metric) == 0 else app._metric), None   # None: a scalar mass
    if callable(app.metric):
        mu = np.array([app.metric_at(xb) for xb in x])
        dmu = np.array([app.metric_grad_at(xb) for xb in x])
    gamma = None if friction is None else friction.gamma_at(x)

    def accel(v, rows):
        rhs = np.array(cons_force[rows], dtype=float)
        if dmu is not None:
            rhs += 0.5 * np.einsum("bkij,bi,bj->bk", dmu[rows], v, v)
            rhs -= np.einsum("bakj,ba,bj->bk", dmu[rows], v, v)
        if gamma is not None:
            rhs -= ((gamma if gamma.ndim == 2 else gamma[rows]) @ v[..., None])[..., 0]
        if mu is None:
            return rhs / float(app.metric)      # bit for bit solve(m * I, rhs)
        return np.linalg.solve(mu if mu.ndim == 2 else mu[rows], rhs[..., None])[..., 0]

    return accel


def _kick(app: ApparatusState, x, v_start, cons_force, friction, half_dt, implicit=True):
    """v_start + half_dt * a(x, v) at each row.  The opening kick of a step
    (``implicit=False``) takes a at v_start; the closing kick solves for v to
    a fixed point when a depends on v, each row stopping at the iterate where
    it converges.  An explicit half step composed with its implicit adjoint
    keeps the velocity-Verlet step symmetric, so second order in dt."""
    accel = _acceleration(app, x, cons_force, friction)
    rows = slice(None)                  # every row, as views, until one converges
    v = v_start + half_dt * accel(v_start, rows)
    if not implicit or (friction is None and not callable(app.metric)):
        return v
    for _ in range(60):
        v_rows = v[rows]
        v_next = v_start[rows] + half_dt * accel(v_rows, rows)
        done = np.abs(v_next - v_rows).max(axis=1) <= 1e-13 * (1.0 + np.abs(v_next).max(axis=1))
        v[rows] = v_next
        if np.count_nonzero(done) == len(done):
            return v
        rows = np.arange(len(v))[rows][~done]
    raise StepSizeError("velocity corrector did not converge; reduce dt or friction strength")


def _branch_levels(app: ApparatusState, x, w, gad, levels):
    """W_k and the force -dW_k/dx - dV/dx at each row b of ``x``, with
    k = ``levels[b]``; dW_k/dx is the Hellmann-Feynman diagonal of U^dag dH U."""
    rows = np.arange(len(levels))
    force = -gad[rows, :, levels, levels].real
    if app.potential is not None:
        force -= [app.potential_grad_at(xb) for xb in x]
    return w[rows, levels], force


# ---------------------------------------------------------------------------
# recorded runs


def _recorded_steps(record_every: int, n_steps: int) -> set:
    """The steps every run records: 0, each ``record_every``-th step and the last."""
    return {*range(0, n_steps + 1, record_every), n_steps}


def sample_branch_counts(state: QuantumState, n_samples: int, seed) -> np.ndarray:
    """Multinomial draw of branch assignments from the Born weights."""
    if n_samples < 1:
        raise ValidationError("n_samples must be >= 1")
    weights = state.populations
    total = float(weights.sum())
    if abs(total - 1.0) > active_profile().trace or np.any(weights < -1e-12):
        raise ValidationError(f"branch weights {weights} do not form a distribution")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    return rng.multinomial(n_samples, np.clip(weights, 0.0, None) / total)


def run_branching(scenario: DynamicsScenario) -> list:
    """Deterministic branch-resolved measurement run.

    Each adiabatic state k with nonzero initial population spawns one
    classical trajectory of the apparatus moving on W_k, carrying the Born
    weight fixed at t = 0.  The branch ledgers are pure work: the diabatic
    heat vanishes identically on an energy eigenstate.  The branches step in
    lockstep as the rows of one stack, with one frame-kernel call per step in
    its per-row reference mode (each row follows its own branch's previous
    basis), so each branch is bit for bit the run of that branch alone.
    """
    fam, app, friction, dt = scenario.family, scenario.apparatus, scenario.friction, scenario.dt
    weights = scenario.state.populations
    total = float(weights.sum())
    if abs(total - 1.0) > active_profile().trace:
        raise ValidationError(f"branch weights sum to {total!r}, expected 1")
    levels = np.flatnonzero(weights != 0.0)
    x, v = np.tile(app.x, (len(levels), 1)), np.tile(app.v, (len(levels), 1))
    w, basis, gad = (np.repeat(a, len(levels), axis=0) for a in _frame_kernel(fam, app.x[None])[:3])
    w0, force = _branch_levels(app, x, w, gad, levels)
    w, w_cum, heat = w0, np.zeros(len(levels)), np.zeros(len(levels))
    recorded = _recorded_steps(scenario.record_every, scenario.n_steps)

    def sample(step):
        mech = [app.kinetic_energy(xb, vb) + app.potential_at(xb) for xb, vb in zip(x, v)] + w
        return step * dt, x, v, w, w_cum.copy(), mech, heat.copy()

    samples = [sample(0)]
    for step in range(1, scenario.n_steps + 1):
        v_half = _kick(app, x, v, force, friction, 0.5 * dt, implicit=False)
        x1 = x + dt * v_half
        w1, basis, gad = _frame_kernel(fam, x1, basis)[:3]
        w1, force = _branch_levels(app, x1, w1, gad, levels)
        v1 = _kick(app, x1, v_half, force, friction, 0.5 * dt)
        w_cum += w1 - w
        if friction is not None:
            heat += _friction_heat_step(friction, x, v, v_half, x1, v1, dt)
        x, v, w = x1, v1, w1
        if step in recorded:
            samples.append(sample(step))

    ts, *cols = zip(*samples)
    xs, vs, es, w_cums, mechs, heats = (np.stack(col, axis=1) for col in cols)
    return [Trajectory(t=np.array(ts), x=xs[b], v=vs[b], e_mean=es[b], w_cum=w_cums[b],
                       rho=np.repeat(QuantumState.pure(k, fam.dim).rho[None], len(ts), axis=0),
                       q_cum=np.zeros(len(ts)), branch_label=int(k), weight=float(weights[k]),
                       extras={"apparatus_energy": mechs[b], "friction_heat": heats[b]})
            for b, k in enumerate(levels)]


def _friction_heat_step(friction, x0, v0, v_half, x1, v1, dt):
    """Simpson rule on v.Gamma(x).v across the step, at each row."""
    x_mid = x0 + 0.5 * dt * v_half
    val0, valm, val1 = (((v[:, None, :] @ friction.gamma_at(x)) @ v[..., None])[:, 0, 0]
                        for x, v in ((x0, v0), (x_mid, v_half), (x1, v1)))
    return dt * (val0 + 4.0 * valm + val1) / 6.0


def run_mean_force(scenario: DynamicsScenario) -> Trajectory:
    """Self-consistent mean-force (Ehrenfest-like) run.

    The apparatus feels the state-averaged transformed force
    Tr(rho (F_k + f_k)) while the state evolves in the moving frame along
    the resulting path; heat and work are accumulated stage-consistently.
    Each step makes one frame-kernel call on its midpoint and end, a chain
    of two from the start basis that shares evaluation, eigensolve, gauge
    and the force split.  The end node starts the next step and gives the
    force of the closing kick.
    """
    fam, app, friction, dt = scenario.family, scenario.apparatus, scenario.friction, scenario.dt

    def nodes(xs, ref=None):
        """(W, P, f, F) at the rows of ``xs``, and the basis at the last."""
        w, u, gad, same, _ = _frame_kernel(fam, xs, ref)
        p = _connections(w, gad, same)
        return (w, p, *_force_split(w, p, gad, same)), u[-1]

    def cons_force(nd, rho, x):
        """Tr(rho (F_k + f_k)) - dV/dx^k at the last row of the nodes ``nd``, at x."""
        _, _, f_ops, f_ad = nd
        return np.einsum("kij,ji->k", f_ad[-1] + f_ops[-1], rho).real - app.potential_grad_at(x)

    x, v, rho = app.x, app.v, scenario.state.validate().rho
    start, basis = nodes(x[None])
    e, q, work = float(rho.diagonal().real @ start[0][0]), 0.0, 0.0
    recorded = _recorded_steps(scenario.record_every, scenario.n_steps)
    rows = [(0.0, x, v, rho, e, q, work)]
    stages = np.empty((1, 3, fam.dim, fam.dim), dtype=complex)
    cons = cons_force(start, rho, x)
    for step in range(1, scenario.n_steps + 1):
        v_half = _kick(app, x[None], v[None], cons[None], friction, 0.5 * dt, implicit=False)[0]
        xs = np.array([x, x + (0.5 * dt) * v_half, x + dt * v_half])
        vs = np.array([v_half] * 3)
        ahead, basis = nodes(xs[1:], basis)
        w, p, f_ops, f_ad = (np.concatenate(a) for a in zip(start, ahead))
        h = hermitize(_generator(w, p, vs))
        _check_step_size(h, dt, "x", xs)
        rho = _rk4_step(hermitize(rho), h, dt, stages[0])
        dq, dw = _ledger_increments(stages, _rate(vs, f_ops)[None], _rate(vs, f_ad)[None], dt)
        e, q, work = float(rho.diagonal().real @ w[2]), q + float(dq[0]), work + float(dw[0])
        start, x = tuple(a[1:] for a in ahead), xs[2]
        cons = cons_force(start, rho, x)
        v = _kick(app, x[None], v_half[None], cons[None], friction, 0.5 * dt)[0]
        if step in recorded:
            rows.append((step * dt, x, v, rho, e, q, work))
    return Trajectory(*map(np.array, zip(*rows)))       # t, x, v, rho, E, Q, W


# ---------------------------------------------------------------------------
# driven runs along a prescribed path


def uniform_drive(x0, v):
    """Path callable for x(t) = x0 + v t at constant velocity."""
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    v = np.atleast_1d(np.asarray(v, dtype=float))

    def path(t: float):
        return x0 + v * t, v

    # every node of a driven run in one broadcast, bit for bit the calls per t
    path._nodes = lambda ts: (x0 + v * ts[:, None], np.repeat(v[None], len(ts), axis=0))
    return path


def run_driven(fam: HamiltonianFamily, path, state0: QuantumState, duration: float,
               n_steps: int, *, record_every: int = 1,
               events: dict | None = None) -> Trajectory:
    """Evolve the quantum state along a prescribed apparatus path.

    The state steps by RK4 transfer maps, one (m^2, m^2) matrix-vector
    product per step, when the family has at most ``_TRANSFER_MAX_DIM`` (4)
    levels, and by the per-step RK4 stage loop otherwise; the two routes
    agree to roundoff.  On both, events and recorded rows see the state
    Hermitized and divided by its trace, and an event's output Hermitized.
    The path is stepped a block of steps at a time, and a run holds the node
    stacks of one block only, so its memory does not grow with ``n_steps``
    beyond the recorded rows.

    Parameters
    ----------
    path : callable
        ``t -> (x, v)`` describing the drive; a :func:`uniform_drive` gives
        the node times of each block in one broadcast.
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
    times = _node_times(duration, n_steps)
    if record_every < 1:
        raise ValidationError("record_every must be >= 1")
    events = dict(events or {})
    for step in events:
        if not 1 <= step <= n_steps:
            raise ValidationError(f"event step {step} outside 1..{n_steps}")
    return _drive(fam, state0, n_steps, times, lambda ts: _path_nodes(fam, path, ts),
                  record_every, events)


def _node_times(duration: float, n_steps: int):
    """The half-step node times of a driven run, as the map (lo, hi) -> the
    times of nodes lo..hi - 1: node i is at 0.5 * (duration / n_steps) * i."""
    if not (np.isfinite(duration) and duration > 0.0):
        raise ValidationError(f"duration must be positive and finite, got {duration}")
    if n_steps < 1:
        raise ValidationError(f"n_steps must be >= 1, got {n_steps}")
    half = 0.5 * (duration / n_steps)
    return lambda lo, hi: half * np.arange(lo, hi)


def _drive(fam, state0, n_steps, times, nodes, record_every, events) -> Trajectory:
    """:func:`run_driven` on checked half-step nodes: ``times(lo, hi)`` are the
    times of nodes lo..hi - 1 and ``nodes(ts)`` the path's x and v at ``ts``.

    The steps go a block at a time (``_DRIVE_BLOCK``), each block through the
    whole pipeline on its own nodes: frame kernel, P, f and F, rates,
    generator, step-size check, route and ledger.  From one block to the
    next go only the recorded rows, the event log, the gauge chain, the
    state (uncleaned on the transfer route), the generator and rates of the
    shared node and the running Q and W, which go on as one cumulative sum.
    So each block is bit for bit a slice of the run uncut, except that the
    gauge picks its path per block (``operators._gauge``): where a row falls
    back, the blocks around it may differ by rounding.
    """
    m = fam.dim
    dt = float(times(2, 3)[0])                          # node 2's time is dt, exactly
    block = max(4, _DRIVE_BLOCK // (2 * fam.n_coords * m * m) // 4 * 4)
    recorded = _recorded_steps(record_every, n_steps)
    rec_steps, reads = np.array(sorted(recorded)), recorded.union(events)
    route = _transfer_route if m <= _TRANSFER_MAX_DIM else _stepwise_route

    state = state0.copy()
    state.validate()
    rho = hermitize(state.rho)
    rhos, e_mean, rows, event_log = [rho], [], [], []
    chain, shared, sums = _Chain(), (), (np.empty(0), np.empty(0))
    stages = np.empty((min(block, n_steps), 3, m, m), dtype=complex)

    def read(step, rho):
        """The event and the record of ``step`` on the clean state ``rho``."""
        if step in events:
            before = rho.copy()
            out = events[step](QuantumState(rho=rho))
            rho = hermitize(np.asarray(out.rho, dtype=complex))
            event_log.append({"step": step, "rho_before": before, "rho_after": rho.copy()})
        if step in recorded:
            rhos.append(rho)
        return rho

    for a in range(0, n_steps, block):
        b = min(a + block, n_steps)
        lo = 2 * a + (a > 0)                            # node 2a is the last block's
        ts = times(lo, 2 * b + 1)
        xs, vs = nodes(ts)
        # each (t, m, m) stack is freed as soon as it is used up: F overwrites
        # U^dag dH U, and P goes before the generator is Hermitized
        w, _, gad, same, _ = _frame_kernel(fam, xs, chain)
        p = _connections(w, gad, same)
        f_ops, gw = _force_split(w, p, gad, same, out=gad)
        del gad, same
        gw = _rate(vs, gw)
        gq = _rate(vs, f_ops)
        h_mov = _generator(w, p, vs)
        del p
        h_mov = hermitize(h_mov)
        _check_step_size(h_mov, dt, "t", ts)
        if a:
            h_mov, gq, gw = (np.concatenate(pair) for pair in zip(shared, (h_mov, gq, gw)))
        shared = tuple(g[-1:].copy() for g in (h_mov, gq, gw))

        rho = route(rho, _step_nodes(h_mov), dt, stages[:b - a], a, reads, read)
        # Q and W after each step of the block, going on from the last block's
        q, wk = (np.cumsum(np.concatenate((c, d)))[len(c):] for c, d in
                 zip(sums, _ledger_increments(stages[:b - a], _step_nodes(gq), _step_nodes(gw), dt)))
        sums = q[-1:], wk[-1:]
        steps = rec_steps[np.searchsorted(rec_steps, a + (a > 0)):np.searchsorted(rec_steps, b, "right")]
        if len(steps):
            idx, done = 2 * steps - lo, steps[steps > 0] - a - 1
            e_mean += [float(r.diagonal().real @ w[i]) for r, i in zip(rhos[-len(steps):], idx)]
            rows.append((ts[idx], xs[idx], vs[idx], f_ops[idx], q[done], wk[done]))

    t, x, v, f_rec, q_cum, w_cum = (np.concatenate(col) for col in zip(*rows))
    rhos = np.array(rhos)
    extras = {"diabatic_mean": np.einsum("tkij,tji->tk", f_rec, rhos).real}
    if event_log:
        extras["events"] = event_log
    return Trajectory(t, x, v, rhos, np.array(e_mean), np.concatenate(([0.0], q_cum)),
                      np.concatenate(([0.0], w_cum)), extras=extras)


def time_averaged_diabatic_force(fam: HamiltonianFamily, path, duration: float,
                                 n_steps: int, state0: QuantumState,
                                 scale: float = 1.0) -> np.ndarray:
    """Path average of |Tr(rho f_k)| with the drive velocity rescaled.

    The geometric path of ``path`` over [0, duration] is retraced at
    ``scale`` times the speed (duration/scale, same spatial resolution), and
    the absolute diabatic mean force is averaged over the traversal.  Slower
    traversals average the oscillatory coherences away, so the result
    shrinks as ``scale`` falls.
    """
    if not (np.isfinite(scale) and scale > 0.0):
        raise ValidationError(f"velocity scale must be positive and finite, got {scale}")
    if not n_steps / scale < 2 ** 63:
        raise ValidationError(f"velocity scale {scale} is too small: the retraced path "
                              f"would take {n_steps / scale:.3g} steps")
    n = max(1, round(n_steps / scale))

    def nodes(ts):
        xs, vs = _path_nodes(fam, path, scale * ts)
        return xs, scale * vs

    traj = _drive(fam, state0, n, _node_times(duration / scale, n), nodes, 1, {})
    return np.abs(traj.extras["diabatic_mean"]).mean(axis=0)
