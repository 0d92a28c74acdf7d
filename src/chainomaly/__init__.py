"""Anomaly indices, exact group cohomology, and spectral witnesses for
symmetry actions on quantum spin chains."""

from .opwin import SiteSpec, Window
from .qca import (
    BlockLayer,
    GateTemplate,
    PrimeLog,
    QcaExpr,
    ShiftPrimitive,
    balance_shifts,
    compose,
    gnvw_numeric,
    gnvw_symbolic,
    invert,
)
from .grpcoh import (
    ClassCoords,
    CohomologyGroup,
    FiniteGroup,
    PhaseCochain,
    class_of,
    coboundary,
    cohomology,
    is_cocycle,
    slant_z,
)
from .anomaly import (
    ActionSpec,
    AnomalyReport,
    ProjectiveRep,
    anomaly_class,
    levin_gu_action,
    lsm_pipeline,
    omega_cocycle,
    onsite_flip_action,
    pauli_projective_rep,
    projective_cocycle,
    restrict_right,
    stack_neutralize,
    verify_action,
)
from .spectra import (
    HamiltonianSpec,
    SpectrumRow,
    build_hamiltonian,
    gap_scan,
    lowest_eigs,
    symmetry_charge,
)

__version__ = "0.1.0"
