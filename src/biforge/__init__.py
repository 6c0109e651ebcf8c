"""Construction and numerical verification of complex-valued biharmonic
functions and harmonic morphisms on the compact matrix groups U(n),
SO(n) and Sp(n).

The package builds rational functions from matrix-coefficient linear
forms, solves the exact coefficient systems that make polynomial
combinations harmonic or proper biharmonic, and independently verifies
every construction by jet differentiation along one-parameter subgroups.
"""

from .algebra import Jet2, translate
from .construct import (
    CoeffTable,
    biharmonic_family,
    build_expression,
    column_ratio_family,
    combine,
    eigenfamily_constants,
    harmonic_family,
    proper_biharmonic_table,
    rational_morphism,
    tension_power_family,
    tension_table,
)
from .errors import (
    BiforgeError,
    DegenerateJetDivision,
    DegenerateQuotient,
    DimensionMismatch,
    DomainError,
    InconsistentSystem,
    IsotropyViolation,
    ShapeError,
    ZeroVector,
)
from .forms import (
    Classification,
    LinearForm,
    QuadrupleFamily,
    RationalExpr,
    classify,
    dependent_rows,
    isotropic,
    make_quadruple,
    quotient,
)
from .groups import GroupKind, GroupSpec, sample_point
from .operators import OperatorContext, conformality, tension, tension2
from .report import CheckResult, VerificationReport

__version__ = "0.1.0"
