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
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegeneracyError, DegenerateFrameWarning, ValidationError, NumericalError
from .operators import Spectrum, hermitian_eig, hermitize, require_hermitian
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
    diagonal); ``grad_adiabatic`` caches U^dag (dH/dx^k) U when the builder
    computed it, so force extraction does not re-evaluate the gradient.
    """

    x: np.ndarray
    spectrum: Spectrum
    connections: np.ndarray
    grad_adiabatic: np.ndarray | None = None

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


def _grad_in_frame(fam: HamiltonianFamily, x, spectrum: Spectrum) -> np.ndarray:
    g = fam.gradient(x)
    u = spectrum.basis
    return u.conj().T @ g @ u


def _perturbative_connections(spectrum: Spectrum, grad_adiabatic: np.ndarray,
                              gap_threshold: float) -> np.ndarray:
    w = spectrum.eigenvalues
    denom = w[None, :] - w[:, None]          # denom[i, j] = W_j - W_i
    small = np.abs(denom) < gap_threshold
    np.fill_diagonal(small, False)
    if np.any(small):
        gap = np.abs(denom[small]).min()
        raise DegeneracyError(
            f"eigenvalue gap {gap:.3e} below threshold {gap_threshold:.3e}; "
            "perturbative connections are ill-conditioned"
        )
    np.fill_diagonal(denom, 1.0)
    p = 1j * HBAR * grad_adiabatic / denom[None, :, :]
    for k in range(p.shape[0]):
        np.fill_diagonal(p[k], 0.0)
    return p


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
                   method: str = "auto", fd_step: float | None = None,
                   grad_adiabatic: np.ndarray | None = None) -> np.ndarray:
    """Connection operators P_k = i*hbar*U^dag dU/dx^k at one configuration.

    ``method`` is "perturbative" (matrix elements of dH over eigenvalue
    gaps; raises :class:`DegeneracyError` on near-degenerate spectra),
    "finite_difference" (centered differences of the gauge-aligned basis,
    Hermitized), or "auto" (perturbative with a warned fallback to finite
    differences when the spectrum is degenerate).
    """
    if method not in ("auto", "perturbative", "finite_difference"):
        raise ValidationError(f"unknown connection method '{method}'")
    prof = active_profile()
    w = spectrum.eigenvalues
    scale = max(float(w.max() - w.min()), float(np.abs(w).max()), 1.0)
    gap_threshold = prof.degeneracy_gap * scale

    if method == "finite_difference":
        return _finite_difference_connections(fam, x, spectrum, fd_step)

    degenerate = spectrum.degenerate
    if not degenerate:
        if grad_adiabatic is None:
            grad_adiabatic = _grad_in_frame(fam, x, spectrum)
        try:
            return _perturbative_connections(spectrum, grad_adiabatic, gap_threshold)
        except DegeneracyError:
            if method == "perturbative":
                raise
            degenerate = True
    if method == "perturbative":
        raise DegeneracyError("spectrum is degenerate; perturbative connections unavailable")
    warnings.warn(
        "degenerate spectrum: falling back to finite-difference connections",
        DegenerateFrameWarning,
        stacklevel=2,
    )
    return _finite_difference_connections(fam, x, spectrum, fd_step)


def build_frame(fam: HamiltonianFamily, x, prev: AdiabaticFrame | None = None,
                *, method: str = "auto") -> AdiabaticFrame:
    """Diagonalize H(x) and attach connection operators.

    ``prev`` supplies the reference frame for label and phase continuity
    along a path; pass the frame from the previous configuration.
    """
    x = fam.coerce_x(x)
    h = require_hermitian(fam.evaluate(x), name="H(x)")
    if h.shape != (fam.dim, fam.dim):
        raise ValidationError(f"family evaluated to shape {h.shape}, expected ({fam.dim}, {fam.dim})")
    ref = prev.spectrum.basis if prev is not None else None
    spectrum = hermitian_eig(h, reference=ref)
    grad_ad = _grad_in_frame(fam, x, spectrum)
    p = connection_ops(fam, x, spectrum, method=method, grad_adiabatic=grad_ad)
    return AdiabaticFrame(x=x, spectrum=spectrum, connections=p, grad_adiabatic=grad_ad)


def diabatic_forces(frame: AdiabaticFrame) -> np.ndarray:
    """f_k = -(i/hbar) [W, P_k]; zero diagonal by construction."""
    w = frame.eigenvalues
    gaps = w[:, None] - w[None, :]           # gaps[i, j] = W_i - W_j
    return (-1j / HBAR) * gaps[None, :, :] * frame.connections


def forces(fam: HamiltonianFamily, frame: AdiabaticFrame) -> ForcePair:
    """Adiabatic/diabatic force operators of the frame.

    The decomposition satisfies U^dag (-dH/dx^k) U = F_k + f_k; the residual
    of that identity is checked against the profile tolerance.
    """
    prof = active_profile()
    grad_ad = frame.grad_adiabatic
    if grad_ad is None:
        grad_ad = _grad_in_frame(fam, frame.x, frame.spectrum)
    n, m = grad_ad.shape[0], frame.dim
    adiabatic = np.zeros((n, m, m), dtype=complex)
    for k in range(n):
        adiabatic[k] = np.diag(-grad_ad[k].diagonal().real)
    diabatic = diabatic_forces(frame)

    total = adiabatic + diabatic
    target = -grad_ad
    scale = max(float(np.abs(target).max()), 1e-300)
    residual = float(np.abs(total - target).max()) / scale
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
    return (np.diag(frame.eigenvalues.astype(complex))
            - np.einsum("k,kij->ij", v, frame.connections))


def frame_path(fam: HamiltonianFamily, xs, prev: AdiabaticFrame | None = None,
               *, method: str = "auto") -> list:
    """Frames along a sequence of configurations with continuity threading."""
    frames = []
    frame = prev
    for x in xs:
        frame = build_frame(fam, x, prev=frame, method=method)
        frames.append(frame)
    return frames
