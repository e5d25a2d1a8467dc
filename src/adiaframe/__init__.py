"""adiaframe: measurement dynamics of a quantum object on a classical apparatus.

The package diagonalizes a Hamiltonian family H(x) into adiabatic frames,
splits the force on the apparatus into adiabatic (work-carrying) and
diabatic (heat-carrying) parts, and integrates the coupled dynamics in
branching, mean-force, and driven modes with a first-law energy ledger.
Spectral thermodynamics (counting function, entropy, temperature, friction)
and entropy audits of projective events round out the toolkit.
"""

__version__ = "0.1.0"

from .dynamics import (ApparatusState, DynamicsScenario, EnergyLedger,
                       FrictionSpec, QuantumState, Trajectory, run_branching,
                       run_driven, run_mean_force, sample_branch_counts,
                       time_averaged_diabatic_force, uniform_drive)
from .entropy import (ProjectorFamily, entropy_delta, entropy_series,
                      haar_unitary, max_entropy_drift, project,
                      projected_diabatic_force, random_density_matrix,
                      von_neumann_entropy)
from .errors import (AdiaframeError, ConfigError, DomainError, NumericalError,
                     StepSizeError, ValidationError)
from .families import (MatrixPolynomialFamily, avoided_crossing_family, goe,
                       gue, random_linear_family, rotating_field_family)
from .frames import (AdiabaticFrame, CallableFamily, HamiltonianFamily,
                     build_frame, frame_path, moving_frame_hamiltonian)
from .operators import (Spectrum, commutator, expectation, hermitian_eig,
                        hermitize, require_hermitian, require_square,
                        require_unitary, spectral_function)
from .stern_gerlach import (SternGerlachConfig, SternGerlachResult,
                            sg_family, sg_hamiltonian, sg_run)
from .thermo import (FrictionTensor, MaxwellReport, ThermoCurve,
                     canonical_populations, canonical_state,
                     counting_function, density_of_states,
                     entropy_temperature, kubo_friction, maxwell_check,
                     mean_level_spacing, microcanonical_force)
from .tolerances import ToleranceProfile, active_profile
from .units import HBAR, KB

__all__ = [
    "__version__",
    # dynamics
    "ApparatusState", "DynamicsScenario", "EnergyLedger", "FrictionSpec",
    "QuantumState", "Trajectory", "run_branching", "run_driven",
    "run_mean_force", "sample_branch_counts", "time_averaged_diabatic_force",
    "uniform_drive",
    # entropy
    "ProjectorFamily", "entropy_delta", "entropy_series", "haar_unitary",
    "max_entropy_drift", "project", "projected_diabatic_force",
    "random_density_matrix", "von_neumann_entropy",
    # errors
    "AdiaframeError", "ConfigError", "DomainError", "NumericalError", "StepSizeError",
    "ValidationError",
    # families
    "MatrixPolynomialFamily", "avoided_crossing_family", "goe", "gue",
    "random_linear_family", "rotating_field_family",
    # frames
    "AdiabaticFrame", "CallableFamily", "HamiltonianFamily", "build_frame",
    "frame_path", "moving_frame_hamiltonian",
    # operators
    "Spectrum", "commutator", "expectation", "hermitian_eig", "hermitize",
    "require_hermitian", "require_square", "require_unitary", "spectral_function",
    # measurement geometry
    "SternGerlachConfig", "SternGerlachResult", "sg_family", "sg_hamiltonian",
    "sg_run",
    # thermodynamics
    "FrictionTensor", "MaxwellReport", "ThermoCurve", "canonical_populations",
    "canonical_state", "counting_function", "density_of_states",
    "entropy_temperature", "kubo_friction", "maxwell_check",
    "mean_level_spacing", "microcanonical_force",
    # tolerances and units
    "ToleranceProfile", "active_profile", "HBAR", "KB",
]
