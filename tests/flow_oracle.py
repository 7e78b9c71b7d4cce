"""Test oracles of the flow layer.

``linearization_check``: near an equilibrium the flow moves a small
displacement eps * direction to eps * exp(M t) @ direction up to
O(eps^2), where M (or L) is the spectral matrix. No ``qz`` command runs
this comparison; the tests use it to check the integrator and the
velocities together against the matrices.

``serial_integrate_flow``: the step-doubling RK4 loop as three serial
single-state steps per trial, 12 rhs calls, that ``integrate_flow`` must
reproduce bit for bit with its 8.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np
from scipy.linalg import expm

from qzeros.errors import (
    BranchDegenerate,
    DegenerateConfiguration,
    SingularConfiguration,
    SingularTrajectory,
)
from qzeros.numlin import SpectralMatrix, ZeroSet
from qzeros.polyform import AWParams, RacahParams
from qzeros.report import VerificationReport
from qzeros.zeroflow import FAMILIES, LINEARIZATION_TOL, LOCAL_ERROR_TARGET, integrate_flow


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


def _serial_rk4_step(rhs, y, h):
    k1 = rhs(y)
    k2 = rhs(y + 0.5 * h * k1)
    k3 = rhs(y + 0.5 * h * k2)
    k4 = rhs(y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def serial_integrate_flow(rhs, y0, t_end, dt_max):
    """integrate_flow's samples, each trial taking the step at h and both h/2 steps in turn."""
    t, y = 0.0, np.asarray(y0, dtype=complex)
    samples = [(t, y)]
    h = min(dt_max, t_end)
    while t < t_end - 1e-15 * max(1.0, t_end):
        h = min(h, t_end - t)
        try:
            while True:
                full = _serial_rk4_step(rhs, y, h)
                half = _serial_rk4_step(rhs, y, 0.5 * h)
                y2 = _serial_rk4_step(rhs, half, 0.5 * h)
                err = float(np.max(np.abs(y2 - full))) / 15.0
                scale = max(1.0, float(np.max(np.abs(y2))))
                if err <= LOCAL_ERROR_TARGET * scale:
                    break
                h *= 0.5
                if h < 1e-14 * max(1.0, t_end):
                    raise SingularTrajectory("step size underflow", samples)
        except (SingularConfiguration, BranchDegenerate, DegenerateConfiguration) as exc:
            raise SingularTrajectory(f"guard tripped mid-flow: {exc}", samples) from exc
        t, y = t + h, y2
        samples.append((t, y))
        if err < 0.03 * LOCAL_ERROR_TARGET * scale:
            h = min(2.0 * h, dt_max)
    return samples
