"""Von Neumann entropy and projective (pinching) operations.

Unitary evolution leaves S(rho) = -k_B Tr(rho ln rho) constant; a complete
family of orthogonal projectors {Pi_i} acts by pinching,

    rho -> sum_i Pi_i rho Pi_i,

which kills the cross-block coherences, preserves the trace exactly, and
can only raise the entropy.  In the basis that diagonalizes the family the
pinch is a Hadamard mask on the density matrix, so the result of a pinch
in the adiabatic frame is block diagonal there and the diabatic forces,
having exactly zero diagonal blocks under the same partition of singleton
blocks, average to zero on the pinched state identically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import QuantumState
from .errors import ValidationError
from .frames import AdiabaticFrame
from .operators import hermitize, require_square, require_unitary
from .tolerances import active_profile
from .units import KB

__all__ = [
    "von_neumann_entropy",
    "entropy_series",
    "max_entropy_drift",
    "ProjectorFamily",
    "project",
    "entropy_delta",
    "projected_diabatic_force",
    "haar_unitary",
    "random_density_matrix",
]


def von_neumann_entropy(rho) -> float:
    """S = -k_B sum lambda_i ln lambda_i of a density matrix.

    Eigenvalues more negative than the positivity tolerance raise; small
    negative roundoff is clipped, and 0 ln 0 counts as zero.
    """
    rho = require_square(getattr(rho, "rho", rho), "density matrix")
    lam = np.linalg.eigvalsh(hermitize(rho))
    if lam.min() < -active_profile().entropy_positivity:
        raise ValidationError(f"density matrix has negative eigenvalue {lam.min():.3e}")
    lam = np.clip(lam, 0.0, 1.0)
    nz = lam[lam > 0.0]
    return float(-KB * np.sum(nz * np.log(nz)) + 0.0)


def entropy_series(rhos) -> np.ndarray:
    """Entropy of each density matrix in a stacked array or sequence."""
    return np.array([von_neumann_entropy(r) for r in rhos])


def max_entropy_drift(rhos) -> float:
    """Largest |S(t) - S(0)| along a sequence of states."""
    s = entropy_series(rhos)
    return float(np.abs(s - s[0]).max())


@dataclass
class ProjectorFamily:
    """Complete orthogonal projector family given by an index partition.

    ``blocks`` partitions 0..dim-1; block i spans the projector Pi_i.  When
    ``basis`` is given the partition applies to its columns, otherwise to
    the computational basis.
    """

    dim: int
    blocks: tuple = ()
    basis: np.ndarray | None = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValidationError("projector family needs dim >= 1")
        if not self.blocks:
            raise ValidationError("projector family needs at least one block")
        blocks = tuple(tuple(int(i) for i in b) for b in self.blocks)
        seen = [i for b in blocks for i in b]
        if any(len(b) == 0 for b in blocks):
            raise ValidationError("projector blocks must be nonempty")
        if sorted(seen) != list(range(self.dim)):
            raise ValidationError(
                f"blocks {blocks} do not partition 0..{self.dim - 1}; the family must "
                "be complete and disjoint")
        object.__setattr__(self, "blocks", blocks)
        if self.basis is not None:
            basis = require_unitary(self.basis, name="projector basis")
            if basis.shape != (self.dim, self.dim):
                raise ValidationError("projector basis shape does not match dim")
            object.__setattr__(self, "basis", basis)

    @classmethod
    def complete_dephasing(cls, dim: int, basis=None) -> "ProjectorFamily":
        """All rank-one blocks: pinching keeps only populations."""
        return cls(dim=dim, blocks=tuple((i,) for i in range(dim)), basis=basis)

    @classmethod
    def two_outcome(cls, dim: int, first_block, basis=None) -> "ProjectorFamily":
        first = tuple(sorted(int(i) for i in first_block))
        rest = tuple(i for i in range(dim) if i not in first)
        return cls(dim=dim, blocks=(first, rest), basis=basis)

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    def labels(self) -> np.ndarray:
        lab = np.empty(self.dim, dtype=int)
        for i, b in enumerate(self.blocks):
            lab[list(b)] = i
        return lab

    def mask(self) -> np.ndarray:
        """Hadamard mask keeping same-block entries."""
        lab = self.labels()
        return (lab[:, None] == lab[None, :]).astype(float)

    def projector(self, i: int) -> np.ndarray:
        diag = np.zeros(self.dim)
        diag[list(self.blocks[i])] = 1.0
        p = np.diag(diag.astype(complex))
        if self.basis is not None:
            p = self.basis @ p @ self.basis.conj().T
        return p

    def outcome_probabilities(self, rho) -> np.ndarray:
        rho = np.asarray(getattr(rho, "rho", rho), dtype=complex)
        d = rho.diagonal().real if self.basis is None else \
            np.einsum("ai,ab,bi->i", self.basis.conj(), rho, self.basis).real
        return np.array([d[list(b)].sum() for b in self.blocks])


def project(state, family: ProjectorFamily):
    """Pinch a state through the projector family: sum_i Pi_i rho Pi_i.

    Implemented as a Hadamard mask in the family's eigenbasis, so the trace
    is preserved exactly and the operation is idempotent.
    """
    rho = np.asarray(getattr(state, "rho", state), dtype=complex)
    rho = require_square(rho, "density matrix")
    if rho.shape[0] != family.dim:
        raise ValidationError("state and projector family dimensions differ")
    mask = family.mask()
    if family.basis is None:
        out = rho * mask
    else:
        u = family.basis
        out = u @ ((u.conj().T @ rho @ u) * mask) @ u.conj().T
    if isinstance(state, QuantumState):
        return QuantumState(rho=out)
    return out


def entropy_delta(state, family: ProjectorFamily | None = None):
    """Entropy before and after pinching, and the gain.

    Returns ``(s_before, s_after, delta)``; the gain is nonnegative up to
    roundoff.  Defaults to complete dephasing in the computational basis.
    """
    rho = np.asarray(getattr(state, "rho", state), dtype=complex)
    if family is None:
        family = ProjectorFamily.complete_dephasing(rho.shape[0])
    before = von_neumann_entropy(state)
    after = von_neumann_entropy(project(state, family))
    return before, after, after - before


def projected_diabatic_force(frame: AdiabaticFrame, state,
                             family: ProjectorFamily | None = None) -> np.ndarray:
    """Mean diabatic force Tr(rho_P f_k) after pinching in the frame basis.

    With the default complete dephasing the pinched state is diagonal while
    every f_k has zero diagonal, so the result vanishes identically; the
    function returns the actual contraction so audits can assert that.
    """
    if family is None:
        family = ProjectorFamily.complete_dephasing(frame.dim)
    elif family.basis is not None:
        raise ValidationError("pinching for the force audit must act in the frame basis")
    pinched = project(state, family)
    rho_p = np.asarray(getattr(pinched, "rho", pinched), dtype=complex)
    return np.einsum("kij,ji->k", frame.diabatic, rho_p).real


def haar_unitary(dim: int, rng) -> np.ndarray:
    """Haar-distributed unitary from the QR factorization of a complex
    Gaussian matrix, with the R-diagonal phases divided out."""
    rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z / np.sqrt(2.0))
    d = r.diagonal()
    return q * (d / np.abs(d))


def random_density_matrix(dim: int, rng, rank: int | None = None) -> np.ndarray:
    """Random mixed state: flat-simplex eigenvalues in a Haar-random basis."""
    rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    rank = dim if rank is None else int(rank)
    if not 1 <= rank <= dim:
        raise ValidationError(f"rank must lie in 1..{dim}")
    lam = np.zeros(dim)
    lam[:rank] = rng.dirichlet(np.ones(rank))
    u = haar_unitary(dim, rng)
    return (u * lam) @ u.conj().T
