"""Adiabatic frames of a parameter-dependent Hamiltonian family.

A family x -> H(x) (x in R^n, H an m x m Hermitian matrix) is diagonalized
at each configuration into W(x) = U^dag H U.  The frame carries, besides the
spectrum, the connection operators

    P_k = i * hbar * U^dag (dU/dx^k),

computed either perturbatively from matrix elements of dH/dx^k (exact away
from degeneracies) or by central finite differences of the gauge-aligned
eigenbasis.  The diagonal of each P_k vanishes in the parallel-transport
gauge used here.  From the frame follow the adiabatic forces (eigenvalue
gradients, Hellmann-Feynman) and the diabatic forces

    f_k = -(i/hbar) [W, P_k],

which have zero diagonal and drive transitions between adiabatic states.
The generator of quantum evolution seen from the moving frame is
H_mov(x, v) = W(x) - v^k P_k(x).

Every frame comes from one kernel, ``_frame_kernel``, which maps a stack of
configurations to W, U and U^dag dH U with continuous labels and phases:
:func:`build_frame` runs it on a stack of one, :func:`frame_path` on a
whole path, and the driven integrator on its half-step nodes.  One split,
``_force_split``, turns (W, P, U^dag dH U) into the diabatic forces and the
adiabatic force diagonals for :func:`forces`, :func:`diabatic_forces` and
the driven ledger.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegeneracyError, DegenerateFrameWarning, ValidationError, NumericalError
from .operators import Spectrum, _fix_gauge_deterministic, hermitian_eig, hermitize
from .tolerances import active_profile
from .units import HBAR

__all__ = [
    "HamiltonianFamily",
    "CallableFamily",
    "AdiabaticFrame",
    "build_frame",
    "connection_ops",
    "forces",
    "diabatic_forces",
    "ForcePair",
    "moving_frame_hamiltonian",
    "frame_path",
]


class HamiltonianFamily:
    """Base class for x -> H(x) maps with an optional analytic gradient.

    Subclasses must implement :meth:`evaluate`; :meth:`gradient` falls back
    to central finite differences with step ``fd_step`` (scalar or one entry
    per coordinate).
    """

    def __init__(self, n_coords: int, dim: int, fd_step=1e-5):
        if n_coords < 1 or dim < 1:
            raise ValidationError(f"family needs n_coords >= 1 and dim >= 1, got {n_coords}, {dim}")
        self.n_coords = int(n_coords)
        self.dim = int(dim)
        step = np.asarray(fd_step, dtype=float)
        if step.ndim == 0:
            step = np.full(self.n_coords, float(step))
        if step.shape != (self.n_coords,) or np.any(step <= 0):
            raise ValidationError("fd_step must be a positive scalar or one positive step per coordinate")
        self.fd_step = step

    def coerce_x(self, x) -> np.ndarray:
        arr = np.atleast_1d(np.asarray(x, dtype=float))
        if arr.shape != (self.n_coords,):
            raise ValidationError(f"configuration must have shape ({self.n_coords},), got {arr.shape}")
        return arr

    def evaluate(self, x) -> np.ndarray:
        raise NotImplementedError

    def gradient(self, x) -> np.ndarray:
        """dH/dx^k for each coordinate, shape (n_coords, dim, dim)."""
        x = self.coerce_x(x)
        out = np.empty((self.n_coords, self.dim, self.dim), dtype=complex)
        for k in range(self.n_coords):
            h = self.fd_step[k]
            xp, xm = x.copy(), x.copy()
            xp[k] += h
            xm[k] -= h
            out[k] = (np.asarray(self.evaluate(xp), dtype=complex)
                      - np.asarray(self.evaluate(xm), dtype=complex)) / (2.0 * h)
        return out

    def evaluate_many(self, xs) -> np.ndarray:
        """H at each row of ``xs`` (shape (t, n_coords)), shape (t, dim, dim)."""
        return np.array([self.evaluate(x) for x in xs], dtype=complex)

    def gradient_many(self, xs) -> np.ndarray:
        """dH/dx^k at each row of ``xs``, shape (t, n_coords, dim, dim)."""
        return np.array([self.gradient(x) for x in xs], dtype=complex)


class CallableFamily(HamiltonianFamily):
    """Family defined by plain callables H(x) and optionally dH(x)."""

    def __init__(self, n_coords, dim, func, grad=None, fd_step=1e-5):
        super().__init__(n_coords, dim, fd_step)
        self._func = func
        self._grad = grad

    def evaluate(self, x):
        return np.asarray(self._func(self.coerce_x(x)), dtype=complex)

    def gradient(self, x):
        if self._grad is None:
            return super().gradient(x)
        g = np.asarray(self._grad(self.coerce_x(x)), dtype=complex)
        if g.shape != (self.n_coords, self.dim, self.dim):
            raise ValidationError(f"gradient callable returned shape {g.shape}")
        return g


@dataclass(frozen=True)
class AdiabaticFrame:
    """Instantaneous eigenframe of H at a configuration x.

    ``connections[k]`` is P_k in the frame's gauge (Hermitian, zero
    diagonal); ``grad_adiabatic[k]`` is U^dag (dH/dx^k) U, so force
    extraction does not re-evaluate the gradient.
    """

    x: np.ndarray
    spectrum: Spectrum
    connections: np.ndarray
    grad_adiabatic: np.ndarray

    @property
    def dim(self) -> int:
        return self.spectrum.dim

    @property
    def n_coords(self) -> int:
        return self.connections.shape[0]

    @property
    def eigenvalues(self) -> np.ndarray:
        return self.spectrum.eigenvalues

    @property
    def basis(self) -> np.ndarray:
        return self.spectrum.basis


@dataclass(frozen=True)
class ForcePair:
    """Adiabatic/diabatic split of the transformed force operators.

    ``adiabatic[k]`` is diagonal in the frame (eigenvalue gradients with a
    minus sign); ``diabatic[k]`` has zero diagonal.  Their sum equals
    U^dag (-dH/dx^k) U.
    """

    adiabatic: np.ndarray
    diabatic: np.ndarray

    @property
    def total(self) -> np.ndarray:
        return self.adiabatic + self.diabatic


# Above this |overlap| between consecutive bases no other column can match
# better, so the permutation is the identity and only phases need fixing.
_PHASE_ONLY_OVERLAP = 1.0 / np.sqrt(2.0)


def _in_frame(u, g):
    """U^dag G_k U for bases ``u`` (..., m, m) and operators ``g`` (..., n, m, m)."""
    return u.conj().swapaxes(-1, -2)[..., None, :, :] @ g @ u[..., None, :, :]


def _connections(w, gad):
    """P_k = i hbar <i|dH/dx^k|j> / (W_j - W_i) off the diagonal, zero on it."""
    denom = w[..., None, :] - w[..., :, None]          # [i, j] = W_j - W_i
    eye = np.eye(w.shape[-1], dtype=bool)
    denom[..., eye] = 1.0
    p = 1j * HBAR * gad / denom[..., None, :, :]
    p[..., eye] = 0.0
    return p


def _force_split(w, p, gad):
    """Diabatic forces f_k = -(i/hbar) [W, P_k] and adiabatic force diagonals
    -diag(U^dag dH/dx^k U); F_k + f_k = -U^dag dH/dx^k U wherever P_k is
    perturbative."""
    gaps = w[..., :, None] - w[..., None, :]           # [i, j] = W_i - W_j
    return (-1j / HBAR) * gaps[..., None, :, :] * p, -np.einsum("...kii->...ki", gad).real


def _generator(w, p, v):
    """W - v^k P_k, the generator of the frame-relative evolution."""
    return w[..., :, None] * np.eye(w.shape[-1]) - np.einsum("...k,...kij->...ij", v, p)


def _frame_kernel(fam: HamiltonianFamily, xs: np.ndarray, ref: np.ndarray | None = None):
    """Eigenframes at every row of ``xs``, continuous along the rows.

    ``ref`` is the basis before the first row (without it the first basis
    takes the deterministic gauge of :func:`hermitian_eig`).  Returns the
    stacks W (t, m), U (t, m, m), U^dag dH U (t, n, m, m) and P (t, n, m, m),
    and the per-row spectra (with their label permutations and degeneracy
    flags) where the rows went through :func:`hermitian_eig`, else None.

    When no row is degenerate and every column overlaps its predecessor by
    more than 1/sqrt(2), the phases follow from the cumulative product of
    the overlaps in one pass; otherwise each row goes through
    ``hermitian_eig(h, reference=previous)`` (linear assignment, cluster
    rotation) and degenerate rows get the warned finite-difference
    connections of :func:`connection_ops`.
    """
    prof = active_profile()
    t, m = len(xs), fam.dim
    hs = fam.evaluate_many(xs)
    if hs.shape != (t, m, m):
        raise ValidationError(f"family evaluated to shape {hs.shape[1:]}, expected ({m}, {m})")
    if not np.all(np.isfinite(hs)):
        raise ValidationError("H(x) contains non-finite entries")
    dev = np.abs(hs - hs.conj().swapaxes(-1, -2)).max()
    if dev > prof.hermiticity * np.abs(hs).max():
        raise ValidationError(f"H(x) is not self-adjoint: max |H - H^dag| = {dev:.3e}")
    if ref is not None and ref.shape != (m, m):
        raise ValidationError(f"reference frame shape {ref.shape} does not match operator dim {m}")
    try:
        w, u = np.linalg.eigh(hs)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver failed to converge on a {m}x{m} matrix") from exc
    scale = np.maximum(np.maximum(w[:, -1] - w[:, 0], np.abs(w).max(axis=1)), 1.0)
    degenerate = (np.diff(w, axis=1) < prof.degeneracy_gap * scale[:, None]).any(axis=1)
    if ref is None:
        u[0] = _fix_gauge_deterministic(u[0])
        prev, nxt = u[:-1], u[1:]
    else:
        prev, nxt = np.concatenate([ref[None], u[:-1]]), u
    ov = np.einsum("tik,tik->tk", prev.conj(), nxt)

    if not degenerate.any() and np.all(np.abs(ov) > _PHASE_ONLY_OVERLAP):
        nxt *= np.cumprod(ov / np.abs(ov), axis=0).conj()[:, None, :]
        gad = _in_frame(u, fam.gradient_many(xs))
        return w, u, gad, _connections(w, gad), None

    spectra, basis = [], ref
    for h in hs:
        spectra.append(hermitian_eig(h, reference=basis))
        basis = spectra[-1].basis
    w = np.array([s.eigenvalues for s in spectra])
    u = np.array([s.basis for s in spectra])
    gad = _in_frame(u, fam.gradient_many(xs))
    p = np.array([connection_ops(fam, x, s) if s.degenerate else _connections(s.eigenvalues, g)
                  for x, s, g in zip(xs, spectra, gad)])
    return w, u, gad, p, spectra


def _frames(fam: HamiltonianFamily, xs: np.ndarray, prev: AdiabaticFrame | None) -> list:
    w, u, gad, p, spectra = _frame_kernel(fam, xs, None if prev is None else prev.basis)
    spectra = spectra or [Spectrum(w[i], u[i]) for i in range(len(xs))]
    return [AdiabaticFrame(x=x, spectrum=s, connections=pk, grad_adiabatic=g)
            for x, s, pk, g in zip(xs, spectra, p, gad)]


def _finite_difference_connections(fam, x, spectrum, fd_step=None) -> np.ndarray:
    x = fam.coerce_x(x)
    steps = fam.fd_step if fd_step is None else np.full(fam.n_coords, float(fd_step))
    u = spectrum.basis
    p = np.empty((fam.n_coords, fam.dim, fam.dim), dtype=complex)
    for k in range(fam.n_coords):
        h = steps[k]
        xp, xm = x.copy(), x.copy()
        xp[k] += h
        xm[k] -= h
        up = hermitian_eig(fam.evaluate(xp), reference=u).basis
        um = hermitian_eig(fam.evaluate(xm), reference=u).basis
        du = (up - um) / (2.0 * h)
        p[k] = hermitize(1j * HBAR * (u.conj().T @ du))
    return p


def connection_ops(fam: HamiltonianFamily, x, spectrum: Spectrum,
                   method: str = "auto", fd_step: float | None = None) -> np.ndarray:
    """Connection operators P_k = i*hbar*U^dag dU/dx^k at one configuration.

    ``method`` is "perturbative" (matrix elements of dH over eigenvalue
    gaps; raises :class:`DegeneracyError` on a degenerate spectrum),
    "finite_difference" (centered differences of the gauge-aligned basis,
    Hermitized), or "auto" (perturbative with a warned fallback to finite
    differences when the spectrum is degenerate).
    """
    if method not in ("auto", "perturbative", "finite_difference"):
        raise ValidationError(f"unknown connection method '{method}'")
    if method == "finite_difference":
        return _finite_difference_connections(fam, x, spectrum, fd_step)
    if not spectrum.degenerate:
        return _connections(spectrum.eigenvalues, _in_frame(spectrum.basis, fam.gradient(x)))
    if method == "perturbative":
        raise DegeneracyError("spectrum is degenerate; perturbative connections unavailable")
    warnings.warn(
        "degenerate spectrum: falling back to finite-difference connections",
        DegenerateFrameWarning,
        stacklevel=2,
    )
    return _finite_difference_connections(fam, x, spectrum, fd_step)


def build_frame(fam: HamiltonianFamily, x, prev: AdiabaticFrame | None = None) -> AdiabaticFrame:
    """Diagonalize H(x) and attach connection operators.

    ``prev`` supplies the reference frame for label and phase continuity
    along a path; pass the frame from the previous configuration.
    """
    return _frames(fam, fam.coerce_x(x)[None], prev)[0]


def diabatic_forces(frame: AdiabaticFrame) -> np.ndarray:
    """f_k = -(i/hbar) [W, P_k]; zero diagonal by construction."""
    return _force_split(frame.eigenvalues, frame.connections, frame.grad_adiabatic)[0]


def forces(fam: HamiltonianFamily, frame: AdiabaticFrame) -> ForcePair:
    """Adiabatic/diabatic force operators of the frame.

    The decomposition satisfies U^dag (-dH/dx^k) U = F_k + f_k, by
    construction where the connections are perturbative.  On a degenerate
    frame, whose connections are finite differences, the residual of that
    identity is checked against the profile tolerance.
    """
    diabatic, fad = _force_split(frame.eigenvalues, frame.connections, frame.grad_adiabatic)
    adiabatic = np.zeros(diabatic.shape, dtype=complex)
    idx = np.arange(frame.dim)
    adiabatic[:, idx, idx] = fad
    if frame.spectrum.degenerate:
        prof = active_profile()
        target = -frame.grad_adiabatic
        scale = max(float(np.abs(target).max()), 1e-300)
        residual = float(np.abs(adiabatic + diabatic - target).max()) / scale
        if residual > prof.force_decomposition:
            raise NumericalError(
                f"force decomposition residual {residual:.3e} exceeds "
                f"{prof.force_decomposition:.1e}; gradient and eigenframe are inconsistent"
            )
    return ForcePair(adiabatic=adiabatic, diabatic=diabatic)


def moving_frame_hamiltonian(frame: AdiabaticFrame, v) -> np.ndarray:
    """Generator W(x) - v^k P_k(x) of the frame-relative evolution."""
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if v.shape != (frame.n_coords,):
        raise ValidationError(f"velocity must have shape ({frame.n_coords},), got {v.shape}")
    return _generator(frame.eigenvalues, frame.connections, v)


def frame_path(fam: HamiltonianFamily, xs, prev: AdiabaticFrame | None = None) -> list:
    """Frames along a sequence of configurations with continuity threading."""
    xs = [fam.coerce_x(x) for x in xs]
    return _frames(fam, np.array(xs), prev) if xs else []
