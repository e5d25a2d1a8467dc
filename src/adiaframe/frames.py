"""Adiabatic frames of a parameter-dependent Hamiltonian family.

A family x -> H(x) (x in R^n, H an m x m Hermitian matrix) is diagonalized
at each configuration into W(x) = U^dag H U.  The frame carries, besides the
spectrum, the connection operators

    P_k = i * hbar * U^dag (dU/dx^k),

computed perturbatively from matrix elements of dH/dx^k between degeneracy
clusters and set to zero inside them: the parallel-transport gauge, which
on a degenerate cluster is the non-Abelian (Wilczek-Zee) one.  From the
frame follow the adiabatic forces F_k, the cluster blocks of
-U^dag (dH/dx^k) U (on a nondegenerate spectrum its diagonal, the
Hellmann-Feynman eigenvalue gradients), and the diabatic forces

    f_k = -(i/hbar) [W, P_k],

which vanish inside clusters and drive transitions between adiabatic
states.  F_k + f_k = -U^dag (dH/dx^k) U holds by construction on every
frame.  The generator of quantum evolution seen from the moving frame is
H_mov(x, v) = W(x) - v^k P_k(x).

Every frame comes from one kernel, ``_frame_kernel``, which maps a stack of
configurations to W, U and U^dag dH U with continuous labels and phases.
It evaluates and checks H on the whole stack, eigensolves it in one call
(``_eigensolve`` of :mod:`adiaframe.operators`; a real row of H in real
arithmetic, and U^dag dH U too where U and dH are real), and takes labels and
phases from the one gauge routine there (``_gauge``), which also serves
:func:`hermitian_eig`.  Chained, each row follows the one before:
:func:`build_frame` runs it on a stack of one, :func:`frame_path` on a
path, the driven integrator on the half-step nodes of each block of
steps, the chain carried from block to block, and the mean-force
integrator on each step's midpoint and end, from the step's start basis.
In the per-row reference mode each row follows its own basis: the
branching integrator steps all branches in one call.  Either way the gauge
takes one of two paths for the whole call: when no row is degenerate and
every overlap with its reference exceeds 1/sqrt(2), all phases are fixed
at once; otherwise every row is aligned in order (assignment, phases,
cluster rotation), each bit for bit its one-row call.  P is built
(``_connections``) only where it is read: for a frame's ``connections``
and for the driven and mean-force generators.  One split,
``_force_split``, turns (W, P, U^dag dH U) into f and F; each frame makes
it once, on first use, the driven ledger on each block's stack and the
mean-force run once per step, on its midpoint and end.  The integrators
and the spectral functions of :mod:`adiaframe.thermo` read the kernel's
arrays; the fields of :class:`AdiabaticFrame` serve the public API, the
entropy audits and the CLI.  Central finite differences of the
gauge-aligned basis (``_finite_difference_connections``) are kept as the
reference for P.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ValidationError
from .operators import Spectrum, _eigensolve, _gauge, _real_rows, hermitian_eig, hermitize
from .tolerances import active_profile
from .units import HBAR

__all__ = [
    "HamiltonianFamily",
    "CallableFamily",
    "AdiabaticFrame",
    "build_frame",
    "moving_frame_hamiltonian",
    "frame_path",
]


def _central_difference(f, x, steps) -> np.ndarray:
    """(f(x + h e_k) - f(x - h e_k)) / 2h for each k, h = ``steps[k]``, at x or each row of x."""
    e = np.eye(x.shape[-1])
    return np.stack([(f(x + h * e[k]) - f(x - h * e[k])) / (2.0 * h) for k, h in enumerate(steps)],
                    axis=x.ndim - 1)


class HamiltonianFamily:
    """Base class for x -> H(x) maps, written on stacks of configurations.

    Subclasses implement :meth:`evaluate_many`, and :meth:`gradient_many` where it is
    analytic; the default takes central differences on the whole stack with step ``fd_step``
    (scalar or per coordinate).  :meth:`evaluate` and :meth:`gradient` are the one-row case.
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

    def _coerce_xs(self, xs) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        if xs.ndim != 2 or xs.shape[1] != self.n_coords:
            raise ValidationError(f"xs must have shape (t, {self.n_coords}), got {xs.shape}")
        return xs

    def evaluate(self, x) -> np.ndarray:
        """H(x), shape (dim, dim)."""
        return self.evaluate_many(self.coerce_x(x)[None])[0]

    def gradient(self, x) -> np.ndarray:
        """dH/dx^k for each coordinate, shape (n_coords, dim, dim)."""
        return self.gradient_many(self.coerce_x(x)[None])[0]

    def evaluate_many(self, xs) -> np.ndarray:
        """H at each row of ``xs`` (shape (t, n_coords)), shape (t, dim, dim)."""
        raise NotImplementedError

    def gradient_many(self, xs) -> np.ndarray:
        """dH/dx^k at each row of ``xs``, shape (t, n_coords, dim, dim)."""
        return _central_difference(self.evaluate_many, self._coerce_xs(xs), self.fd_step)


class CallableFamily(HamiltonianFamily):
    """Family defined by plain callables H(x) and optionally dH(x), called row by row."""

    def __init__(self, n_coords, dim, func, grad=None, fd_step=1e-5):
        super().__init__(n_coords, dim, fd_step)
        self._func = func
        self._grad = grad

    def evaluate_many(self, xs):
        return np.array([self._func(x) for x in self._coerce_xs(xs)], dtype=complex)

    def gradient_many(self, xs):
        if self._grad is None:
            return super().gradient_many(xs)
        g = np.array([self._grad(x) for x in self._coerce_xs(xs)], dtype=complex)
        if g.shape[1:] != (self.n_coords, self.dim, self.dim):
            raise ValidationError(f"gradient callable returned shape {g.shape[1:]}")
        return g


@dataclass(frozen=True)
class AdiabaticFrame:
    """Instantaneous eigenframe of H at a configuration x.

    ``connections[k]`` is P_k in the frame's gauge (Hermitian, zero inside
    degeneracy clusters); ``grad_adiabatic[k]`` is U^dag (dH/dx^k) U, so
    force extraction does not re-evaluate the gradient; ``same_cluster`` is
    the (m, m) mask of level pairs in one degeneracy cluster.  The forces
    are read as ``adiabatic`` (F) and ``diabatic`` (f), with
    F_k + f_k = -U^dag (dH/dx^k) U.
    """

    x: np.ndarray
    spectrum: Spectrum
    connections: np.ndarray
    grad_adiabatic: np.ndarray
    same_cluster: np.ndarray

    @cached_property
    def _split(self):
        return _force_split(self.eigenvalues, self.connections, self.grad_adiabatic,
                            self.same_cluster)

    @property
    def diabatic(self) -> np.ndarray:
        """f_k = -(i/hbar) [W, P_k]; zero inside degeneracy clusters."""
        return self._split[0]

    @property
    def adiabatic(self) -> np.ndarray:
        """F_k, the degeneracy-cluster blocks of -U^dag (dH/dx^k) U."""
        return self._split[1]

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


def _in_frame(u, g, real=False):
    """U^dag G_k U for bases ``u`` (t, m, m) and operators ``g`` (t, n, m, m).

    Rows among ``real`` (the rows whose H was solved as real, from
    ``_eigensolve``) on which U and G have no imaginary part take the
    product in float64; the others, and every row of a stack with no real
    row, take it in complex128.
    """
    def product(u, g):
        return u.conj().swapaxes(-1, -2)[..., None, :, :] @ g @ u[..., None, :, :]

    def real_product(u, g):
        return product(np.ascontiguousarray(u.real), np.ascontiguousarray(g.real))

    if real is not False:
        real = _real_rows(u, g, rows=real)
    if real is False:
        return product(u, g)
    if real is True:
        return real_product(u, g).astype(complex)
    out = np.empty(g.shape, dtype=complex)
    out[real], out[~real] = real_product(u[real], g[real]), product(u[~real], g[~real])
    return out


@np.errstate(over="ignore")     # levels near the float range: W_j - W_i is inf, so P_ij is 0
def _level_gaps(w):
    """[..., i, j] = W_j - W_i for a stack of levels ``w``."""
    return w[..., None, :] - w[..., :, None]


def _connections(w, gad, same):
    """P_k = i hbar <i|dH/dx^k|j> / (W_j - W_i) between degeneracy clusters,
    zero inside them (``same`` marks the pairs in one cluster)."""
    denom = _level_gaps(w)
    denom[same] = 1.0
    p = 1j * HBAR * gad / denom[..., None, :, :]
    np.copyto(p, 0.0, where=same[..., None, :, :])
    return p


def _force_split(w, p, gad, same, out=None):
    """Diabatic forces f_k = -(i/hbar) [W, P_k] and adiabatic forces F_k, the
    blocks of -U^dag dH/dx^k U on the pairs ``same`` of one cluster (written
    into ``out``, which may be ``gad``).  With P from :func:`_connections`,
    F_k + f_k = -U^dag dH/dx^k U."""
    gaps = w[..., :, None] - w[..., None, :]           # [i, j] = W_i - W_j
    diabatic = (-1j / HBAR) * gaps[..., None, :, :] * p
    adiabatic = np.negative(gad, out=out)
    np.copyto(adiabatic, 0.0, where=~same[..., None, :, :])
    adiabatic.imag[..., np.eye(w.shape[-1], dtype=bool)] = 0.0     # Hermitian: real diagonal
    return diabatic, adiabatic


def _generator(w, p, v):
    """W - v^k P_k, the generator of the frame-relative evolution."""
    vp = np.einsum("...k,...kij->...ij", v, p)          # reused: one temporary stack less
    return np.subtract(w[..., :, None] * np.eye(w.shape[-1]), vp, out=vp)


# The self-adjointness check of ``_evaluate_checked`` takes the stack of H
# about this many entries at a time, so its temporaries are one chunk's
# rather than the whole stack's.
_CHECK_CHUNK = 2 ** 16

# Where every |H_ij| is at most this, H - H^dag cannot overflow and the check
# needs no np.errstate, which costs about a microsecond a call.
_HALF_FLOAT_MAX = np.finfo(float).max / 2


def _frame_kernel(fam: HamiltonianFamily, xs: np.ndarray, ref: np.ndarray | None = None):
    """Eigenframes at every row of ``xs`` with continuous labels and phases.

    ``ref`` is None, an (m, m) basis for row 0 of a chain, the
    ``operators._Chain`` of a chain cut into blocks, or a (t, m, m) stack of
    per-row references; ``operators._gauge`` gives labels and phases to the
    whole stack by one of its two paths (all phases at once, or every row
    aligned in order).  Returns the stacks W (t, m),
    U (t, m, m), U^dag dH U (t, n, m, m), the same-cluster masks (t, m, m)
    and the label permutation of each row (``()`` where it is the identity).
    """
    w, u, labels, real = _eigensolve(_evaluate_checked(fam, xs))
    perms = _gauge(w, u, labels, ref)
    same = labels[:, :, None] == labels[:, None, :]
    gad = _in_frame(u, fam.gradient_many(xs), real)
    return w, u, gad, same, perms


def _evaluate_checked(fam: HamiltonianFamily, xs: np.ndarray) -> np.ndarray:
    """H at every row of ``xs``, checked for shape, finiteness and
    self-adjointness (|H - H^dag| within ``hermiticity`` times the row's
    largest |entry|); a failed check names the first row of ``xs`` it fails at,
    and a non-finite row anywhere fails before any self-adjointness check.

    Besides the stack of H it holds |H| for the per-row scale, then H^dag,
    H - H^dag and its modulus for one chunk of rows at a time (about
    ``_CHECK_CHUNK`` entries, at least one row): at 400 levels, one row.
    """
    t, m = len(xs), fam.dim
    hs = fam.evaluate_many(xs)
    if hs.shape != (t, m, m):
        raise ValidationError(f"family evaluated to shape {hs.shape[1:]} at x = {xs[0]}, "
                              f"expected ({m}, {m})")
    scale = np.abs(hs).max(axis=(1, 2))
    bound = active_profile().hermiticity * scale
    if (scale <= _HALF_FLOAT_MAX).all():    # H - H^dag cannot overflow
        _check_self_adjoint(hs, xs, bound)
        return hs
    finite = np.isfinite(hs).all(axis=(1, 2))   # a non-finite entry, or |H_ij| near or past the float range
    if not finite.all():
        raise ValidationError(f"H(x) contains non-finite entries at x = {xs[np.argmin(finite)]}")
    with np.errstate(over="ignore"):            # H - H^dag may overflow: inf, and the check fails
        _check_self_adjoint(hs, xs, bound)
    return hs


def _check_self_adjoint(hs, xs, bound):
    """Check |H - H^dag| <= ``bound`` (one per row) on the stack ``hs``, a
    chunk of rows at a time."""
    m = hs.shape[-1]
    rows = max(1, _CHECK_CHUNK // (m * m))
    for start in range(0, len(hs), rows):
        h = hs[start:start + rows]
        dev = np.abs(h - h.conj().swapaxes(-1, -2))
        bad = dev > bound[start:start + rows, None, None]
        if bad.any():
            i = np.argmax(bad.reshape(-1)) // (m * m)
            raise ValidationError(f"H(x) is not self-adjoint at x = {xs[start + i]}: "
                                  f"max |H - H^dag| = {dev[i].max():.3e}")


def _frames(fam: HamiltonianFamily, xs: np.ndarray, prev: AdiabaticFrame | None) -> list:
    w, u, gad, same, perms = _frame_kernel(fam, xs, None if prev is None else prev.basis)
    p = _connections(w, gad, same)
    return [AdiabaticFrame(x=xs[i], connections=p[i], grad_adiabatic=gad[i], same_cluster=same[i],
                           spectrum=Spectrum(w[i], u[i], perms[i], np.count_nonzero(same[i]) > fam.dim))
            for i in range(len(xs))]


def _finite_difference_connections(fam, x, spectrum, fd_step=None) -> np.ndarray:
    """P_k from centered differences of the basis of ``spectrum``, aligned by
    :func:`hermitian_eig` at x +- h e_k and Hermitized: the reference for the
    perturbative P away from degeneracies (h = ``fd_step`` or the family's)."""
    x = fam.coerce_x(x)
    steps = fam.fd_step if fd_step is None else np.full(fam.n_coords, float(fd_step))
    u = spectrum.basis
    du = _central_difference(lambda y: hermitian_eig(fam.evaluate(y), reference=u).basis, x, steps)
    return hermitize(1j * HBAR * (u.conj().T @ du))


def build_frame(fam: HamiltonianFamily, x, prev: AdiabaticFrame | None = None) -> AdiabaticFrame:
    """Diagonalize H(x) and attach connection operators.

    ``prev`` supplies the reference frame for label and phase continuity
    along a path; pass the frame from the previous configuration.
    """
    return _frames(fam, fam.coerce_x(x)[None], prev)[0]


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
