"""Fermionic 1-RDM propagation under open-system master equations.

The package builds three families of Markovian generators (full pairwise,
frequency-clustered, and factorized-rate) for a 1-electron reduced density
matrix coupled to a thermal bath, audits whether they preserve fermionic
occupation bounds, and provides Pauli-blocked variants that do.
"""

from .bath import BathModel, QuadratureError, bose_einstein, drude_lorentz, \
    sample_spectra, spectral_function_ule, ule_lamb_coefficient, ule_rate, \
    xi_integral
from .benchmarks import BENCHMARKS, builtin_benzene, builtin_three_level
from .channels import ChannelSet, FrequencyClusters, cluster, decompose
from .core import AuditReport, CouplingOperator, DimensionError, \
    NumericalError, OneRdm, PhysicalityError, SystemHamiltonian, hermitize, \
    spectral_audit
from .generators import GeneratorSpec, MEKind, build_generator, \
    lamb_shift_hamiltonian, particle_hole_transform
from .propagate import Schedule, StiffnessError, Trajectory, default_t_end, \
    integrate, pack_hermitian, propagate_state, unpack_hermitian
from .representability import ChannelAsymmetry, ConstraintReport, \
    TrajectoryAudit, audit_trajectory, constraint_residual, \
    copropagate_hole, unitality_residual
from .scenario import Scenario, ScenarioError, load_scenario, save_scenario

__version__ = "0.1.0"

__all__ = [
    "AuditReport", "BathModel", "BENCHMARKS", "ChannelAsymmetry",
    "ChannelSet", "ConstraintReport",
    "CouplingOperator", "DimensionError", "FrequencyClusters",
    "GeneratorSpec", "MEKind",
    "NumericalError", "OneRdm", "PhysicalityError", "QuadratureError",
    "Scenario", "ScenarioError", "Schedule",
    "StiffnessError", "SystemHamiltonian", "Trajectory", "TrajectoryAudit",
    "audit_trajectory", "bose_einstein", "build_generator",
    "builtin_benzene", "builtin_three_level", "cluster",
    "constraint_residual", "copropagate_hole", "decompose", "default_t_end",
    "drude_lorentz",
    "hermitize", "integrate", "lamb_shift_hamiltonian",
    "load_scenario", "pack_hermitian",
    "particle_hole_transform", "propagate_state",
    "sample_spectra", "save_scenario", "spectral_audit",
    "spectral_function_ule",
    "ule_lamb_coefficient",
    "ule_rate", "unitality_residual", "unpack_hermitian", "xi_integral",
    "__version__",
]
