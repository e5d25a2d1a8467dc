"""Numerical tolerances.

Every validation and invariant check in the package pulls its threshold from
the one :class:`ToleranceProfile`, which :func:`active_profile` returns.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ToleranceProfile:
    """Bundle of numerical thresholds.

    Relative thresholds are applied against a problem-derived scale (largest
    matrix entry, spectral range, ledger magnitude); absolute ones are used
    where the natural scale is 1 (traces, weights, probabilities).
    """

    name: str = "default"
    # linear algebra
    hermiticity: float = 1e-12
    unitarity: float = 1e-10
    expectation_imag: float = 1e-12
    degeneracy_gap: float = 1e-9
    # quantum / classical state; ``trace`` bounds every sum of probabilities
    # (amplitude norm, Born weights, populations, density-matrix trace)
    trace: float = 1e-10
    positivity: float = 1e-10
    trace_drift_per_step: float = 1e-8
    # energy bookkeeping
    ledger_closure: float = 1e-6
    ledger_floor: float = 1e-12
    branch_energy: float = 1e-7
    # entropy
    entropy_positivity: float = 1e-8
    entropy_drift: float = 1e-7
    pinching_monotonicity: float = 1e-12
    projected_force: float = 1e-13
    # thermodynamics
    counting_identity: float = 0.02
    maxwell_identity: float = 0.05
    friction_symmetry: float = 1e-8
    friction_diagonal_floor: float = 1e-10


_PROFILE = ToleranceProfile()


def active_profile() -> ToleranceProfile:
    """The package's tolerances."""
    return _PROFILE
