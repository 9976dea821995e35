"""Nonlinear eigenvalue analysis of the first and second Painleve
transcendents: adaptive integration through movable poles via complex
detours, separatrix shooting by bisection and asymptotic matching,
Richardson extrapolation of the critical-value tables, and closed-form WKB
cross-checks.
"""

__version__ = "0.1.0"

from .asymptotics import (
    RichardsonResult,
    WkbConstants,
    WkbSpec,
    closed_form_constants,
    extract_constant,
    hermitian_quartic_energy,
    richardson,
    wkb_energy,
)
from .classify import ClassificationError, ClassTag, SolutionClass, classify, count_toy_maxima
from .equations import (
    PAINLEVE_I,
    PAINLEVE_II,
    TOY_MODEL,
    Equation,
    InitialData,
    branch_curve,
    energy,
    equation_from_name,
    fluctuation_integral,
)
from .eigensolver import (
    BisectionError,
    EigenvalueRecord,
    ModeKind,
    PartialTableError,
    SearchMode,
    bisect,
    eigen_table,
    scan_brackets,
    separatrix_check,
    toy_eigen_table,
)
from .integrator import (
    DegenerateDerivativeError,
    Direction,
    IntegrationConfig,
    IntegrationError,
    PoleEvent,
    PurityError,
    State,
    StepUnderflowError,
    Trajectory,
    estimate_pole,
    integrate,
)

__all__ = [
    "BisectionError",
    "ClassTag",
    "ClassificationError",
    "DegenerateDerivativeError",
    "Direction",
    "EigenvalueRecord",
    "Equation",
    "InitialData",
    "IntegrationConfig",
    "IntegrationError",
    "ModeKind",
    "PAINLEVE_I",
    "PAINLEVE_II",
    "PartialTableError",
    "PoleEvent",
    "PurityError",
    "RichardsonResult",
    "SearchMode",
    "SolutionClass",
    "State",
    "StepUnderflowError",
    "TOY_MODEL",
    "Trajectory",
    "WkbConstants",
    "WkbSpec",
    "bisect",
    "branch_curve",
    "classify",
    "closed_form_constants",
    "count_toy_maxima",
    "eigen_table",
    "energy",
    "equation_from_name",
    "estimate_pole",
    "extract_constant",
    "fluctuation_integral",
    "hermitian_quartic_energy",
    "integrate",
    "richardson",
    "scan_brackets",
    "separatrix_check",
    "toy_eigen_table",
    "wkb_energy",
]
