"""Zeros of Askey-Wilson and q-Racah polynomials and their spectral matrices.

The package computes the N zeros of either family, builds the N x N
matrices whose spectra are known in closed form (depending only on the
parameter products abcd resp. alpha*beta, on q, and on N), and verifies
the zero identities, trace/determinant formulas, Diophantine rationality,
isospectrality, and the flow/Jacobian linkage at desk scale.
"""

from .errors import (
    BranchDegenerate,
    DegenerateConfiguration,
    DegenerateDenominator,
    LengthMismatch,
    NoConvergence,
    QZerosError,
    SingularConfiguration,
    SingularTrajectory,
    ZeroArgument,
)
from .numlin import (
    SpectralMatrix,
    SpectrumMatch,
    ZeroSet,
    compute_zero_set,
    eigenvalues,
    find_polynomial_zeros,
    match_spectra,
)
from .polyform import (
    AWParams,
    RacahParams,
    Recurrence,
    recurrence_coefficients,
    x_to_z,
    z_to_x,
)
from .qkernel import ComplexScalar, qpochhammer
from .report import PACKAGE_VERSION as __version__
from .report import DEFAULT_TOLERANCES, VerificationReport, emit_report, resolve_tolerances
from .zeroflow import aw_velocity, fd_jacobian, integrate_flow, racah_velocity

__all__ = [
    "AWParams",
    "BranchDegenerate",
    "ComplexScalar",
    "DEFAULT_TOLERANCES",
    "DegenerateConfiguration",
    "DegenerateDenominator",
    "LengthMismatch",
    "NoConvergence",
    "QZerosError",
    "RacahParams",
    "Recurrence",
    "SingularConfiguration",
    "SingularTrajectory",
    "SpectralMatrix",
    "SpectrumMatch",
    "VerificationReport",
    "ZeroArgument",
    "ZeroSet",
    "__version__",
    "aw_velocity",
    "compute_zero_set",
    "eigenvalues",
    "emit_report",
    "fd_jacobian",
    "find_polynomial_zeros",
    "integrate_flow",
    "match_spectra",
    "qpochhammer",
    "racah_velocity",
    "recurrence_coefficients",
    "resolve_tolerances",
    "x_to_z",
    "z_to_x",
]
