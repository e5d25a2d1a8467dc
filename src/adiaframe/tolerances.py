"""Numerical tolerance profiles.

Every validation and invariant check in the package pulls its threshold from
the active :class:`ToleranceProfile` so that a whole run can be tightened or
relaxed coherently.  A named profile can be selected programmatically with
:func:`set_active_profile` or through the ``ADIAFRAME_TOLERANCE_PROFILE``
environment variable (read once, at first use).
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass

from .errors import ValidationError

_ENV_VAR = "ADIAFRAME_TOLERANCE_PROFILE"


@dataclass(frozen=True)
class ToleranceProfile:
    """Named bundle of numerical thresholds.

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
    # adiabatic frame
    gauge_invariance: float = 1e-10
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

    def scaled(self, factor: float, name: str | None = None) -> "ToleranceProfile":
        """Return a copy with every threshold multiplied by ``factor``."""
        fields = {
            f.name: getattr(self, f.name) * factor
            for f in dataclasses.fields(self)
            if f.type == "float"
        }
        return dataclasses.replace(self, name=name or f"{self.name}*{factor:g}", **fields)


PROFILES: dict[str, ToleranceProfile] = {}


def register_profile(profile: ToleranceProfile) -> ToleranceProfile:
    PROFILES[profile.name] = profile
    return profile


register_profile(ToleranceProfile())
register_profile(ToleranceProfile().scaled(0.1, name="strict"))
register_profile(ToleranceProfile().scaled(10.0, name="relaxed"))

_active: ToleranceProfile | None = None


def get_profile(name: str) -> ToleranceProfile:
    try:
        return PROFILES[name]
    except KeyError:
        known = ", ".join(sorted(PROFILES))
        raise ValidationError(f"unknown tolerance profile '{name}' (known: {known})") from None


def set_active_profile(profile: ToleranceProfile | str) -> ToleranceProfile:
    global _active
    if isinstance(profile, str):
        profile = get_profile(profile)
    _active = profile
    return profile


def active_profile() -> ToleranceProfile:
    """The profile in effect: set explicitly, named by the environment, or default."""
    global _active
    if _active is None:
        _active = get_profile(os.environ.get(_ENV_VAR, "default"))
    return _active
