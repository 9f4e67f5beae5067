"""Exact verification engine and simulator for the open Toda chain hierarchy."""

from .ratpoly import Polynomial, Vars
from .fields import VectorField
from .lattice import (
    PhasePoint,
    flaschka,
    flow_residuals,
    hamiltonian,
    symbolic_lax,
)
from .poisson import (
    PoissonTensor,
    ThreeTensor,
    hamiltonian_field,
    lie_derivative,
    poisson_bracket,
    schouten_self,
)
from .hierarchy import chi, chi_ladder, equivalent_mod_chi, master_field, poisson_tensor
from .symmetry import (
    SymmetryCandidate,
    build_Y,
    candidate_scaling,
    candidate_shift,
    candidate_time_translation,
    determining_residuals,
    evolutionary_defect,
    residual_slots,
    total_derivative,
    verify_theorem,
)
from .dynamics import (
    DriftReport,
    Trajectory,
    drift_report,
    integrate,
    order_of_accuracy_ratio,
    spectrum,
    symmetry_map_test,
)
from .verify import VerifyConfig, mutation_smoke, run_verify

__version__ = "0.1.0"

__all__ = [
    "Polynomial",
    "Vars",
    "VectorField",
    "PhasePoint",
    "flaschka",
    "flow_residuals",
    "hamiltonian",
    "symbolic_lax",
    "PoissonTensor",
    "ThreeTensor",
    "hamiltonian_field",
    "lie_derivative",
    "poisson_bracket",
    "schouten_self",
    "chi",
    "chi_ladder",
    "equivalent_mod_chi",
    "master_field",
    "poisson_tensor",
    "SymmetryCandidate",
    "build_Y",
    "candidate_scaling",
    "candidate_shift",
    "candidate_time_translation",
    "determining_residuals",
    "evolutionary_defect",
    "residual_slots",
    "total_derivative",
    "verify_theorem",
    "DriftReport",
    "Trajectory",
    "drift_report",
    "integrate",
    "order_of_accuracy_ratio",
    "spectrum",
    "symmetry_map_test",
    "VerifyConfig",
    "mutation_smoke",
    "run_verify",
]
