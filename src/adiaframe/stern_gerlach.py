"""Spin-1/2 beam in an inhomogeneous magnetic field.

The object Hamiltonian is H(r) = -(hbar * gamma / 2) B(r) . sigma, so the
adiabatic surfaces are W(r) = -/+ (hbar * gamma / 2) |B(r)|: the lower
branch (index 0, labeled "+" for gamma > 0) keeps the moment aligned with
the local field and is pulled toward stronger field.  The default field

    B(r) = (-g x, 0, B0 + g z)

is divergence free and, on the beam axis x = 0, gives each branch a
constant transverse force hbar * gamma * g / 2, so the branch trajectories
are parabolas in z while drifting along y.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .dynamics import (ApparatusState, DynamicsScenario, QuantumState,
                       Trajectory, run_branching, run_mean_force,
                       sample_branch_counts)
from .errors import ValidationError
from .families import PAULI_X, PAULI_Y, PAULI_Z
from .frames import HamiltonianFamily
from .units import HBAR

__all__ = [
    "SternGerlachConfig",
    "SternGerlachResult",
    "sg_hamiltonian",
    "sg_family",
    "sg_run",
]

_PAULIS = np.stack([PAULI_X, PAULI_Y, PAULI_Z])


@dataclass
class SternGerlachConfig:
    """Geometry and coupling of the beam-splitting magnet (the
    quadrupole-plus-bias field of the module docstring)."""

    gamma: float = 1.0
    field_strength: float = 1.0
    field_gradient: float = 0.5
    mass: float = 1.0

    def __post_init__(self):
        if self.gamma <= 0.0:
            raise ValidationError("gyromagnetic ratio must be positive")
        if self.mass <= 0.0:
            raise ValidationError("mass must be positive")

    def field_at(self, r) -> np.ndarray:
        """B(r) at a point r, or at each row of a stack of points (trailing axis of 3)."""
        r = np.asarray(r, dtype=float)
        g, b0 = self.field_gradient, self.field_strength
        b = np.zeros(r.shape[:-1] + (3,))
        b[..., 0] = -g * r[..., 0]
        b[..., 2] = b0 + g * r[..., 2]
        return b

    def field_grad_at(self, r) -> np.ndarray:
        """d B_c / d r^k indexed as [k, c]; constant for this field."""
        g = self.field_gradient
        db = np.zeros((3, 3))
        db[0, 0] = -g        # dBx/dx
        db[2, 2] = g         # dBz/dz
        return db


def sg_hamiltonian(b_vec, gamma: float = 1.0) -> np.ndarray:
    """Zeeman coupling -(hbar * gamma / 2) B . sigma of a field vector or a stack of them."""
    b_vec = np.asarray(b_vec, dtype=float)
    if b_vec.shape[-1:] != (3,):
        raise ValidationError(f"field vector must have a trailing axis of 3, got shape {b_vec.shape}")
    return (-0.5 * HBAR * gamma) * np.einsum("...c,cij->...ij", b_vec, _PAULIS)


class _SternGerlachFamily(HamiltonianFamily):
    """H(r) = :func:`sg_hamiltonian` of the field of a copy of ``config``
    taken at construction, over the beam coordinates (x, y, z) and on stacks
    of them; the gradient is constant for this field, so it is built once."""

    def __init__(self, config: SternGerlachConfig):
        super().__init__(3, 2)
        self._config = replace(config)
        self._grad = sg_hamiltonian(config.field_grad_at(None), config.gamma)

    def evaluate_many(self, xs):
        return sg_hamiltonian(self._config.field_at(self._coerce_xs(xs)), self._config.gamma)

    def gradient_many(self, xs):
        return np.repeat(self._grad[None], len(self._coerce_xs(xs)), axis=0)


def sg_family(config: SternGerlachConfig) -> HamiltonianFamily:
    """Hamiltonian family over the beam coordinates (x, y, z): the Zeeman
    coupling of :func:`sg_hamiltonian` in the field of ``config``, evaluated
    on whole stacks of configurations, with its constant gradient built once."""
    return _SternGerlachFamily(config)


@dataclass
class SternGerlachResult:
    """Outcome of one splitting run."""

    mode: str
    config: SternGerlachConfig
    trajectories: list
    labels: tuple = ()
    weights: np.ndarray | None = None
    counts: np.ndarray | None = None
    separation: float = 0.0
    closure_residuals: dict = field(default_factory=dict)

    def branch(self, label: str) -> Trajectory:
        for lab, traj in zip(self.labels, self.trajectories):
            if lab == label:
                return traj
        raise KeyError(f"no branch labeled {label!r}")


def sg_run(config: SternGerlachConfig, *, state: QuantumState | None = None,
           r0=(0.0, 0.0, 0.0), v0=(0.0, 1.0, 0.0), duration: float = 1.0,
           n_steps: int = 400, mode: str = "branching", n_samples: int | None = None,
           seed=None, record_every: int = 1) -> SternGerlachResult:
    """Send a spin-1/2 beam through the magnet and collect the outcome.

    Parameters
    ----------
    state : QuantumState, optional
        Initial state in the adiabatic basis at ``r0``; defaults to the
        even superposition of the two branches.
    mode : str
        ``"branching"`` integrates every populated branch with its Born
        weight; ``"sampled"`` additionally draws ``n_samples`` shot counts;
        ``"mean_force"`` runs the single state-averaged trajectory.
    """
    fam = sg_family(config)
    if state is None:
        state = QuantumState.from_amplitudes(np.array([1.0, 1.0]) / np.sqrt(2.0))
    app = ApparatusState(x=np.asarray(r0, dtype=float), v=np.asarray(v0, dtype=float),
                         metric=config.mass)
    scenario = DynamicsScenario(family=fam, apparatus=app, state=state,
                                dt=duration / n_steps, n_steps=n_steps,
                                record_every=record_every)

    if mode == "mean_force":
        traj = run_mean_force(scenario)
        return SternGerlachResult(mode=mode, config=config, trajectories=[traj])
    if mode not in ("branching", "sampled"):
        raise ValidationError(f"unknown mode {mode!r}")

    trajectories = run_branching(scenario)
    # branch k runs on level k of the frame at r0, whose levels ascend: the
    # aligned moment (lower eigenvalue for gamma > 0) carries the "+" label
    labels = tuple("+-"[traj.branch_label] for traj in trajectories)
    weights = np.array([traj.weight for traj in trajectories])

    closure = {}
    for lab, traj in zip(labels, trajectories):
        e_app = traj.extras["apparatus_energy"]
        closure[lab] = float(np.abs(e_app - e_app[0]).max())

    separation = 0.0
    if len(trajectories) == 2:
        separation = float(np.linalg.norm(trajectories[0].x[-1] - trajectories[1].x[-1]))

    counts = None
    if mode == "sampled":
        if n_samples is None or n_samples < 1:
            raise ValidationError("sampled mode needs n_samples >= 1")
        full_counts = sample_branch_counts(state, n_samples, seed)
        counts = np.array([full_counts[traj.branch_label] for traj in trajectories])

    return SternGerlachResult(mode=mode, config=config, trajectories=trajectories,
                              labels=labels, weights=weights, counts=counts,
                              separation=separation, closure_residuals=closure)
