"""Test oracle: the nonlinear flow against its matrix-exponential linearization.

Near an equilibrium the flow moves a small displacement eps * direction to
eps * exp(M t) @ direction up to O(eps^2), where M (or L) is the spectral
matrix. No ``qz`` command runs this comparison; the tests use it to check
the integrator and the velocities together against the matrices.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np
from scipy.linalg import expm

from qzeros.numlin import SpectralMatrix, ZeroSet
from qzeros.polyform import AWParams, RacahParams
from qzeros.report import VerificationReport
from qzeros.zeroflow import FAMILIES, LINEARIZATION_TOL, integrate_flow


def linearization_check(
    params: Union[AWParams, RacahParams],
    zs: ZeroSet,
    mat: SpectralMatrix,
    epsilon: float,
    t_short: float,
    direction: Optional[Sequence[complex]] = None,
) -> VerificationReport:
    """Compare the nonlinear flow against its matrix-exponential linearization.

    Integrates from (zeros + epsilon * direction) to t_short and measures
    the relative gap between the final displacement and
    epsilon * exp(mat * t_short) @ direction. The gap must be O(epsilon);
    the reported check holds it to LINEARIZATION_TOL.
    """
    family = FAMILIES[params.family]
    base = np.asarray(family.position(zs), dtype=complex)
    n = len(base)
    if direction is None:
        direction = np.ones(n, dtype=complex) / np.sqrt(n)
    direction = np.asarray(direction, dtype=complex)
    if not 0 < epsilon < 1e-3 * zs.min_separation:
        raise ValueError(f"epsilon {epsilon:.3e} is not a small displacement")
    mat_norm = float(np.linalg.norm(mat.entries, 2))
    if t_short * mat_norm > 0.5 + 1e-12:
        raise ValueError(
            f"t_short * ||matrix|| = {t_short * mat_norm:.3f} exceeds 0.5; "
            "the comparison window must stay short"
        )

    rhs = lambda y: family.velocity(params, y)
    start = base + epsilon * direction
    trajectory = integrate_flow(rhs, start, t_end=t_short, dt_max=t_short / 8.0)
    actual = trajectory[-1][1] - base
    predicted = epsilon * (expm(mat.entries * t_short) @ direction)
    denom = max(float(np.max(np.abs(predicted))), float(np.finfo(float).tiny))
    deviation = float(np.max(np.abs(actual - predicted))) / denom
    report = VerificationReport(family=family.name, params=params)
    report.add("flow-linearization", deviation, LINEARIZATION_TOL, [family.flow_ref])
    return report
