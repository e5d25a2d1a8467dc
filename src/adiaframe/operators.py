"""Dense Hermitian operator algebra with a deterministic eigenframe gauge.

Operators are plain complex ndarrays; the functions here validate the
invariants (self-adjointness, unitarity) against the package tolerances
instead of wrapping arrays in classes.  Every eigensolve of a Hamiltonian
goes through ``_eigh``, which solves each matrix of a stack with no
imaginary part as a real symmetric one (LAPACK dsyevd, not zheevd), row by
row from the input.  Eigenframes of a stack of matrices come from two
routines: ``_eigensolve`` gives the ascending spectra, bases and
cluster labels, and the one gauge routine, ``_gauge``, gives them
continuous labels and phases: each row follows a reference basis, or
without one takes a deterministic gauge, and reports the column
permutation it applied.  Both serve the frame kernel of
:mod:`adiaframe.frames` and :func:`hermitian_eig`, which is the pair on a
stack of one.  One cluster rule (``_cluster_labels``) says which levels
count as degenerate; the gauge rotates each such cluster as one block, and
the kernel uses the same labels for its block force split.
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


def require_hermitian(a, name: str = "operator") -> np.ndarray:
    """Validate self-adjointness within the profile's ``hermiticity`` relative
    to the largest entry."""
    arr = require_square(a, name)
    tol = active_profile().hermiticity
    scale = np.abs(arr).max()
    if scale > 0.0:
        with np.errstate(over="ignore"):        # entries near the float range: dev is inf
            dev = np.abs(arr - arr.conj().T).max()
        if dev > tol * scale:
            raise ValidationError(
                f"{name} is not self-adjoint: max |A - A^dag| = {dev:.3e} "
                f"exceeds {tol:.1e} * max|entry| = {tol * scale:.3e}"
            )
    return arr


def require_unitary(u, name: str = "matrix") -> np.ndarray:
    arr = require_square(u, name)
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


def _cluster_labels(w: np.ndarray, gap: float) -> np.ndarray:
    """Degeneracy cluster of each level in a stack of ascending spectra ``w``.

    Neighbours closer than ``gap`` * max(spread, max|W|, 1) share a cluster,
    so clusters chain; labels count clusters up from the lowest level.
    """
    scale = np.maximum(w[..., -1:] - w[..., :1], np.abs(w).max(axis=-1, keepdims=True, initial=1.0))
    labels = np.zeros(w.shape, dtype=int)
    np.add.accumulate(w[..., 1:] - w[..., :-1] >= gap * scale, axis=-1, dtype=int, out=labels[..., 1:])
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


# Above this |overlap| between consecutive bases no other column can match
# better, so the permutation is the identity and only phases need fixing.
_PHASE_ONLY_OVERLAP = 1.0 / np.sqrt(2.0)


def _real_rows(*stacks, rows=True):
    """Which rows (axis 0) among ``rows`` have no imaginary part in any of ``stacks``:
    True or False when every row agrees, else a (t,) boolean mask."""
    real = rows
    for a in stacks:        # a stack with no imaginary entry at all needs no row test
        if a.dtype.kind == "c" and np.count_nonzero(a.imag):
            real_a = ~a.imag.any(axis=tuple(range(1, a.ndim)))
            real = real_a if real is True else real & real_a
    n = len(stacks[0]) if real is True else int(np.count_nonzero(real))
    return real if 0 < n < len(stacks[0]) else n > 0


def _eigh(hs: np.ndarray, vectors: bool = True):
    """``np.linalg.eigh`` (``eigvalsh`` without ``vectors``) of a stack ``hs``
    (t, m, m) of Hermitian matrices: the one eigensolve of the package's Hamiltonians.

    A row with no imaginary part is solved as a real symmetric matrix (LAPACK
    dsyevd rather than zheevd), and its basis cast exactly to complex128; a
    row's result depends on that row alone.  Returns W (t, m), U (t, m, m)
    or None, and the real rows as :func:`_real_rows` gives them.
    """
    solve = np.linalg.eigh if vectors else lambda a: (np.linalg.eigvalsh(a), None)
    real, m = _real_rows(hs), hs.shape[-1]
    try:
        if real is True or real is False:
            w, u = solve(hs.real if real else hs)
        else:
            (wr, ur), (wc, uc) = solve(hs[real].real), solve(hs[~real])
            w, u = np.empty(hs.shape[:-1]), np.empty(hs.shape, dtype=complex) if vectors else None
            w[real], w[~real] = wr, wc
            if vectors:
                u[real], u[~real] = ur, uc
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver failed to converge on a {m}x{m} matrix") from exc
    if real is True and vectors:
        u = u.astype(complex)
    return w, u, real


def _eigensolve(hs: np.ndarray):
    """Eigendecompose a stack ``hs`` (t, m, m) of Hermitian matrices.

    Returns the ascending W (t, m), the eigh basis U (t, m, m), the cluster
    labels (t, m) of the levels and the rows solved as real (:func:`_eigh`).
    ``hs`` is dropped after the eigensolver, so a caller that holds no other
    reference frees it before the gauge step.
    """
    w, u, real = _eigh(hs)
    del hs                                    # one (t, m, m) stack less at the peak
    return w, u, _cluster_labels(w, active_profile().degeneracy_gap), real


@dataclass
class _Chain:
    """Where a chained gauge cut into blocks stands after a block: ``basis`` is
    the last row's basis as the overlap with the next row reads it (the eigh
    basis, before its phases) and ``phase`` the running phase product of its
    columns, so its aligned basis is ``basis * phase.conj()``.  Both are None
    before the first block."""

    basis: np.ndarray | None = None
    phase: np.ndarray | None = None


def _gauge(w: np.ndarray, u: np.ndarray, labels: np.ndarray, ref=None) -> list:
    """Give the eigenframes of :func:`_eigensolve` continuous labels and phases, in place.

    Chained mode (``ref`` None, an (m, m) basis or a :class:`_Chain`): row 0
    follows ``ref`` (or, without it, takes the deterministic gauge) and every
    later row the one before it.  Per-row reference mode (``ref`` a (t, m, m)
    stack): row i follows ``ref[i]``.  If every row is nondegenerate and every
    column overlaps its reference by more than 1/sqrt(2), all phases are fixed
    at once (chained: the cumulative product of the overlaps); otherwise every
    row in turn is aligned by :func:`_align_to_reference`, a chained row to
    the aligned row before it.  Permutes the levels of ``w``, the columns of
    ``u`` and ``labels`` where a row is relabelled, and returns the label
    permutation of each row (``()`` where it is the identity).

    A :class:`_Chain` continues a chain cut into blocks from where the last
    block left it, and is moved on to this block's last row: the first row's
    overlap is taken with the carried eigh basis and the cumulative product
    goes on from the carried phases, so a block on the all-at-once path gives
    the bytes of the chain uncut.  The path is picked per block: a block that
    falls back aligns its first row to the carried aligned basis.
    """
    t, m = w.shape
    chain, ref, start = (ref, ref.basis, ref.phase) if isinstance(ref, _Chain) else (None, ref, None)
    per_row = ref is not None and ref.ndim == 3
    if ref is not None and ref.shape != ((t, m, m) if per_row else (m, m)):
        raise ValidationError(f"reference frame shape {ref.shape} does not match operator dim {m}")
    perms = [()] * t
    if ref is None:
        u[0] = _fix_gauge_deterministic(u[0])
        prev, nxt = u[:-1], u[1:]
    else:
        prev, nxt = ref if per_row else np.concatenate([ref[None], u[:-1]]), u
    ov = np.einsum("tik,tik->tk", prev.conj(), nxt)
    mag = np.abs(ov)
    if (labels[:, -1] == m - 1).all() and (mag > _PHASE_ONLY_OVERLAP).all():    # no degenerate row
        phase = ov / mag
        if not per_row:
            phase = np.cumprod(phase if start is None else np.concatenate([start[None], phase]), axis=0)
        if chain is not None:
            chain.basis, chain.phase = u[-1].copy(), phase[-1] if len(phase) else np.ones(m, complex)
        nxt *= phase[len(phase) - len(ov):].conj()[:, None, :]
        return perms
    if start is not None:
        ref = ref * start.conj()
    for i in range(t - len(ov), t):
        perm, u[i] = _align_to_reference(u[i], ref[i] if per_row else u[i - 1] if i else ref, labels[i])
        if (perm != np.arange(m)).any():
            w[i], labels[i], perms[i] = w[i, perm], labels[i, perm], tuple(perm.tolist())
    if chain is not None:
        chain.basis, chain.phase = u[-1].copy(), np.ones(m, complex)
    return perms


def hermitian_eig(h, reference: np.ndarray | Spectrum | None = None) -> Spectrum:
    """Eigendecompose a Hermitian matrix in a deterministic gauge.

    Parameters
    ----------
    h : (m, m) array_like
        Hermitian matrix (validated within the profile's hermiticity
        tolerance).
    reference : (m, m) ndarray or Spectrum, optional
        Previous frame along a parameter path.  When given, columns are
        ordered to maximize the total |overlap| with the reference columns
        (a linear assignment) and phased so those overlaps are real
        positive; otherwise each column's largest-magnitude component is
        made real positive.

    Returns
    -------
    Spectrum
    """
    h = require_hermitian(h)
    if isinstance(reference, Spectrum):
        reference = reference.basis
    elif reference is not None:
        reference = np.asarray(reference, dtype=complex)
    w, u, labels, _ = _eigensolve(h[None])
    perms = _gauge(w, u, labels, reference)
    return Spectrum(w[0], u[0], perms[0], bool(labels[0].max() < h.shape[0] - 1))


def commutator(a, b) -> np.ndarray:
    """[A, B] = AB - BA.  Anti-Hermitian for Hermitian inputs."""
    a = require_square(a, "commutator argument A")
    b = require_square(b, "commutator argument B")
    if a.shape != b.shape:
        raise ValidationError(f"commutator needs equal shapes, got {a.shape} and {b.shape}")
    return a @ b - b @ a


def expectation(rho, a) -> float:
    """Tr(rho A) for a density matrix and a Hermitian observable.

    The imaginary part is checked against the profile tolerance (it is zero
    in exact arithmetic) and then discarded.
    """
    rho = getattr(rho, "rho", rho)
    rho = require_square(rho, "density matrix")
    a = require_square(a, "observable")
    if rho.shape != a.shape:
        raise ValidationError(f"dimension mismatch: rho {rho.shape}, observable {a.shape}")
    imag_tol = active_profile().expectation_imag
    val = complex(np.einsum("ij,ji->", rho, a))
    scale = max(1.0, abs(val), float(np.abs(a).max()) * a.shape[0])
    if abs(val.imag) > imag_tol * scale:
        raise NumericalError(
            f"expectation value has imaginary residual {val.imag:.3e} beyond tolerance; "
            "inputs are probably not Hermitian/positive"
        )
    return val.real


def spectral_function(h, f) -> np.ndarray:
    """Apply a real scalar function to a Hermitian matrix through its spectrum.

    Exactly diagonal input short-circuits to applying ``f`` entrywise on the
    diagonal, so staircase functions of already-diagonal operators are exact.
    """
    h = require_hermitian(h)
    m = h.shape[0]
    off = h.copy()
    np.fill_diagonal(off, 0.0)
    if np.all(off == 0.0):
        w = h.diagonal().real
        v = None
    else:
        (w,), (v,), _ = _eigh(h[None])

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
