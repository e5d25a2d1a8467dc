"""Dense Hermitian operator algebra with a deterministic eigenframe gauge.

Operators are plain complex ndarrays; the functions here validate the
invariants (self-adjointness, unitarity) instead of wrapping arrays in
classes.  :func:`hermitian_eig` eigendecomposes one matrix in a
deterministic gauge, and when a reference frame is supplied it keeps labels
and phases continuous along a parameter path, reporting the column
permutation it applied.  One cluster rule (``_cluster_labels``) says which
levels count as degenerate; the gauge rotates each such cluster as one block,
and the frame kernel of :mod:`adiaframe.frames` uses the same rule for its
block force split and the same alignment on whole stacks where labels may
swap.
"""

from __future__ import annotations

import numpy as np
from dataclasses import dataclass

from .errors import DomainError, NumericalError, ValidationError
from .tolerances import active_profile

__all__ = [
    "Spectrum",
    "hermitian_eig",
    "commutator",
    "expectation",
    "spectral_function",
    "hermitize",
    "require_square",
    "require_hermitian",
    "require_unitary",
]


def hermitize(a: np.ndarray) -> np.ndarray:
    """Return the Hermitian part (A + A^dag)/2 (of each matrix in a stack)."""
    return 0.5 * (a + a.conj().swapaxes(-1, -2))


def require_square(a, name: str = "matrix") -> np.ndarray:
    arr = np.asarray(a, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
        raise ValidationError(f"{name} must be a nonempty square matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite entries")
    return arr


def require_hermitian(a, tol: float | None = None, name: str = "operator") -> np.ndarray:
    """Validate self-adjointness within ``tol`` relative to the largest entry."""
    arr = require_square(a, name)
    if tol is None:
        tol = active_profile().hermiticity
    scale = np.abs(arr).max()
    if scale > 0.0:
        dev = np.abs(arr - arr.conj().T).max()
        if dev > tol * scale:
            raise ValidationError(
                f"{name} is not self-adjoint: max |A - A^dag| = {dev:.3e} "
                f"exceeds {tol:.1e} * max|entry| = {tol * scale:.3e}"
            )
    return arr


def require_unitary(u, tol: float | None = None, name: str = "matrix") -> np.ndarray:
    arr = require_square(u, name)
    if tol is None:
        tol = active_profile().unitarity
    dev = np.linalg.norm(arr.conj().T @ arr - np.eye(arr.shape[0]))
    if dev > tol * arr.shape[0]:
        raise ValidationError(f"{name} is not unitary: ||U^dag U - 1||_F = {dev:.3e}")
    return arr


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition H = basis @ diag(eigenvalues) @ basis^dag.

    Attributes
    ----------
    eigenvalues : (m,) float ndarray
        Real eigenvalues.  Ascending unless a reference frame forced a label
        swap across a genuine crossing.
    basis : (m, m) complex ndarray
        Orthonormal eigenvector columns in the fixed gauge.
    permutation : tuple of int
        ``basis[:, j]`` is column ``permutation[j]`` of the ascending-order
        decomposition; the identity when no relabeling occurred.
    degenerate : bool
        True when some eigenvalue gap fell below the degeneracy threshold.
    """

    eigenvalues: np.ndarray
    basis: np.ndarray
    permutation: tuple = ()
    degenerate: bool = False

    def __post_init__(self):
        if not self.permutation:
            object.__setattr__(self, "permutation", tuple(range(len(self.eigenvalues))))

    @property
    def dim(self) -> int:
        return len(self.eigenvalues)

    def reconstruct(self) -> np.ndarray:
        """basis @ diag(w) @ basis^dag, for residual checks."""
        return (self.basis * self.eigenvalues) @ self.basis.conj().T

    def to_eigenbasis(self, a: np.ndarray) -> np.ndarray:
        """Conjugate an operator into this eigenbasis: U^dag A U."""
        return self.basis.conj().T @ a @ self.basis


def _cluster_labels(w: np.ndarray, gap: float) -> np.ndarray:
    """Degeneracy cluster of each level in a stack of ascending spectra ``w``.

    Neighbours closer than ``gap`` * max(spread, max|W|, 1) share a cluster,
    so clusters chain; labels count clusters up from the lowest level.
    """
    scale = np.maximum(np.maximum(w[..., -1] - w[..., 0], np.abs(w).max(axis=-1)), 1.0)
    labels = np.zeros(w.shape, dtype=int)
    (np.diff(w, axis=-1) >= gap * scale[..., None]).cumsum(axis=-1, out=labels[..., 1:])
    return labels


def _fix_gauge_deterministic(v: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude entry is real and positive.

    Ties in magnitude resolve to the lowest row index, which keeps the result
    reproducible bit for bit across calls.
    """
    lead_rows = np.argmax(np.abs(v), axis=0)
    lead = v[lead_rows, np.arange(v.shape[1])]
    phase = lead / np.abs(lead)
    return v * phase.conj()[None, :]


def _align_to_reference(v, reference, labels):
    """Reorder and re-phase eigenvector columns to follow ``reference``.

    Column order maximizes total |overlap| with the reference columns
    (a linear assignment), each surviving column is phased so its overlap
    with the reference is real positive, and each degeneracy cluster (by
    ``labels``, the cluster of each column of ``v``) is rotated onto the
    reference subspace by a polar decomposition.  Returns the column
    permutation and the aligned basis.
    """
    from scipy.optimize import linear_sum_assignment

    overlap = reference.conj().T @ v
    _, perm = linear_sum_assignment(-np.abs(overlap))
    v = v[:, perm]
    labels = labels[perm]

    diag = np.einsum("ij,ij->j", reference.conj(), v)
    mag = np.abs(diag)
    phase = np.where(mag > 1e-12, diag / np.where(mag > 0, mag, 1.0), 1.0)
    v = v * phase.conj()[None, :]

    for cluster in np.flatnonzero(np.bincount(labels) > 1):
        cols = np.flatnonzero(labels == cluster)
        block = v[:, cols]
        ref_block = reference[:, cols]
        # closest unitary mapping the computed subspace basis onto the reference's
        x, _, yh = np.linalg.svd(block.conj().T @ ref_block)
        v[:, cols] = block @ (x @ yh)
    return perm, v


def hermitian_eig(h, reference: np.ndarray | Spectrum | None = None) -> Spectrum:
    """Eigendecompose a Hermitian matrix in a deterministic gauge.

    Parameters
    ----------
    h : (m, m) array_like
        Hermitian matrix (validated within the profile's hermiticity
        tolerance).
    reference : (m, m) ndarray or Spectrum, optional
        Previous frame along a parameter path.  When given, columns are
        ordered to maximize per-column |overlap| with the reference and
        phased so those overlaps are real positive; otherwise each column's
        largest-magnitude component is made real positive.

    Returns
    -------
    Spectrum
    """
    h = require_hermitian(h)
    try:
        w, v = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"eigensolver failed to converge on a {h.shape[0]}x{h.shape[0]} matrix "
            f"with ||H||_max = {np.abs(h).max():.3e}"
        ) from exc

    m = h.shape[0]
    labels = _cluster_labels(w, active_profile().degeneracy_gap)
    if reference is not None:
        ref = reference.basis if isinstance(reference, Spectrum) else np.asarray(reference, dtype=complex)
        if ref.shape != (m, m):
            raise ValidationError(f"reference frame shape {ref.shape} does not match operator dim {m}")
        perm, v = _align_to_reference(v, ref, labels)
        w = w[perm]
    else:
        v = _fix_gauge_deterministic(v)
        perm = np.arange(m)
    return Spectrum(w, v, tuple(int(p) for p in perm), bool(labels.max() < m - 1))


def commutator(a, b) -> np.ndarray:
    """[A, B] = AB - BA.  Anti-Hermitian for Hermitian inputs."""
    a = require_square(a, "commutator argument A")
    b = require_square(b, "commutator argument B")
    if a.shape != b.shape:
        raise ValidationError(f"commutator needs equal shapes, got {a.shape} and {b.shape}")
    return a @ b - b @ a


def expectation(rho, a, *, imag_tol: float | None = None) -> float:
    """Tr(rho A) for a density matrix and a Hermitian observable.

    The imaginary part is checked against the profile tolerance (it is zero
    in exact arithmetic) and then discarded.
    """
    rho = getattr(rho, "rho", rho)
    rho = require_square(rho, "density matrix")
    a = require_square(a, "observable")
    if rho.shape != a.shape:
        raise ValidationError(f"dimension mismatch: rho {rho.shape}, observable {a.shape}")
    if imag_tol is None:
        imag_tol = active_profile().expectation_imag
    val = complex(np.einsum("ij,ji->", rho, a))
    scale = max(1.0, abs(val), float(np.abs(a).max()) * a.shape[0])
    if abs(val.imag) > imag_tol * scale:
        raise NumericalError(
            f"expectation value has imaginary residual {val.imag:.3e} beyond tolerance; "
            "inputs are probably not Hermitian/positive"
        )
    return val.real


def spectral_function(h, f, *, tol: float | None = None) -> np.ndarray:
    """Apply a real scalar function to a Hermitian matrix through its spectrum.

    Exactly diagonal input short-circuits to applying ``f`` entrywise on the
    diagonal, so staircase functions of already-diagonal operators are exact.
    """
    h = require_hermitian(h, tol=tol)
    m = h.shape[0]
    off = h.copy()
    np.fill_diagonal(off, 0.0)
    if np.all(off == 0.0):
        w = h.diagonal().real
        v = None
    else:
        w, v = np.linalg.eigh(h)

    fw = np.empty(m, dtype=float)
    for i, wi in enumerate(w):
        try:
            fw[i] = float(f(float(wi)))
        except (ValueError, ZeroDivisionError, OverflowError, FloatingPointError) as exc:
            raise DomainError(f"function undefined at eigenvalue {wi!r}: {exc}") from exc
    if not np.all(np.isfinite(fw)):
        bad = w[~np.isfinite(fw)]
        raise DomainError(f"function returned non-finite values at eigenvalues {bad}")

    if v is None:
        return np.diag(fw.astype(complex))
    return (v * fw) @ v.conj().T
