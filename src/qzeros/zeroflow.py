"""First-order flows whose fixed points are the polynomial zeros.

Askey-Wilson flow on x-coordinates (z_n = x_n + sqrt(x_n^2 - 1)):

    dx_n/dt = (q-1)/(2 q^N) [ G(z_n) prod_{l!=n} K(z_n, z_l)
                              + G(1/z_n) prod_{l!=n} K(1/z_n, 1/z_l) ],

q-Racah flow on z-coordinates:

    dz_n/dt = B(z_n) (z_n^(+) - z_n) prod_{l!=n} (z_n^(+)-z_l)/(z_n-z_l)
            + D(z_n) (z_n^(-) - z_n) prod_{l!=n} (z_n^(-)-z_l)/(z_n-z_l).

A validated zero set is an equilibrium of its flow, and the Jacobian there
reproduces the spectral matrix (M or L) entrywise; fd_jacobian provides the
finite-difference side of that consistency check. The integrator is
classical RK4 with step-doubling error control and stops (raising
SingularTrajectory with the partial trajectory attached) if a structure
guard trips mid-flow.

Both velocities run no Python loop over points or pairs. They evaluate the
structure functions on the whole position array and the pair factors on
N x N arrays, with the kernels that build M and L: awspec._kernel_matrix
on the points stacked as (z_n, 1/z_n), and racahspec.point_structure with
racahspec._pair_differences. A guard names the first failing point, else
the first failing pair, in row-major order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .errors import (
    BranchDegenerate,
    DegenerateConfiguration,
    SingularConfiguration,
    SingularTrajectory,
    guard,
)
from .numlin import SpectralMatrix, ZeroSet
from .polyform import AWParams, RacahParams, x_to_z
from . import awspec, racahspec
from .report import VerificationReport, tolerance_scale

#: Local error target per step, relative to the state magnitude.
LOCAL_ERROR_TARGET = 1e-10
#: Default relative finite-difference step.
FD_STEP = 1e-6
#: Bound on the relative gap between flow and linearization at epsilon = 1e-6.
LINEARIZATION_TOL = 1e-3

VelocityFn = Callable[["FlowState"], np.ndarray]


@dataclass
class FlowState:
    """Positions of the N moving points at one instant."""

    family: str
    positions: np.ndarray
    time: float

    def with_positions(self, positions: np.ndarray, time: Optional[float] = None) -> "FlowState":
        return FlowState(
            family=self.family,
            positions=np.asarray(positions, dtype=complex),
            time=self.time if time is None else time,
        )


@dataclass
class PerturbationState:
    """A small displacement epsilon * direction away from a zero set."""

    base: ZeroSet
    epsilon: float
    direction: np.ndarray

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if self.epsilon >= 1e-3 * self.base.min_separation:
            raise ValueError(
                f"epsilon {self.epsilon:.3e} too large for zero separation "
                f"{self.base.min_separation:.3e}"
            )


def aw_velocity(
    p: AWParams, state: FlowState, branch_flips: Optional[Sequence[int]] = None
) -> np.ndarray:
    """Askey-Wilson flow velocities at the state's x-positions.

    ``branch_flips`` optionally holds a -1 per coordinate whose z-image
    should be replaced by its reciprocal; the result is unchanged, which is
    itself one of the verified properties.
    """
    z = x_to_z(np.asarray(state.positions, dtype=complex))
    if branch_flips is not None:
        z = np.where(np.asarray(branch_flips) == -1, awspec._reciprocal(z), z)
    zw = np.stack([z, awspec._reciprocal(z)], axis=1)  # row n: (z_n, 1/z_n)
    g = awspec.eval_G_pair(p, zw)[0]
    prods = np.prod(awspec._kernel_matrix(p.q, zw), axis=1)
    terms = g * prods
    return (p.q - 1.0) / (2.0 * p.q**p.N) * (terms[:, 0] + terms[:, 1])


def racah_velocity(p: RacahParams, state: FlowState, branch: int = +1) -> np.ndarray:
    """q-Racah flow velocities at the state's z-positions."""
    z = np.asarray(state.positions, dtype=complex)
    pt = racahspec.point_structure(p, z, branch, derivatives=False)
    d, d_plus, d_minus = racahspec._pair_differences(z, pt.z_plus, pt.z_minus)
    guard((abs(d), "z_n-z_m"))
    ratio_plus = np.prod(d_plus / d, axis=1)
    ratio_minus = np.prod(d_minus / d, axis=1)
    return pt.Bval * (pt.z_plus - z) * ratio_plus + pt.Dval * (pt.z_minus - z) * ratio_minus


def velocity_for(params: Union[AWParams, RacahParams]) -> VelocityFn:
    """The family flow bound to a parameter set."""
    if isinstance(params, AWParams):
        return lambda state: aw_velocity(params, state)
    return lambda state: racah_velocity(params, state)


def _rk4_step(rhs: VelocityFn, state: FlowState, h: float) -> np.ndarray:
    y = state.positions
    k1 = rhs(state)
    k2 = rhs(state.with_positions(y + 0.5 * h * k1, state.time + 0.5 * h))
    k3 = rhs(state.with_positions(y + 0.5 * h * k2, state.time + 0.5 * h))
    k4 = rhs(state.with_positions(y + h * k3, state.time + h))
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def integrate_flow(
    rhs: VelocityFn, initial: FlowState, t_end: float, dt_max: float
) -> list[FlowState]:
    """Integrate dy/dt = rhs(y) from initial.time over a span of t_end.

    Classical RK4 with step doubling: each step is taken once at h and
    twice at h/2, the Richardson gap estimates the local error, and the
    step is halved until the estimate meets LOCAL_ERROR_TARGET relative to
    the state magnitude. Returns the accepted samples, starting with the
    initial state. Raises SingularTrajectory (partial trajectory attached)
    if a guard trips or the step size underflows.
    """
    if not t_end > 0:
        raise ValueError(f"t_end must be positive, got {t_end}")
    if not dt_max > 0:
        raise ValueError(f"dt_max must be positive, got {dt_max}")
    t_final = initial.time + t_end
    state = initial.with_positions(initial.positions)
    samples = [state]
    h = min(dt_max, t_end)
    while state.time < t_final - 1e-15 * max(1.0, abs(t_final)):
        h = min(h, t_final - state.time)
        if h < 1e-15 * max(1.0, abs(t_final)):
            break
        try:
            while True:
                full = _rk4_step(rhs, state, h)
                half = _rk4_step(rhs, state, 0.5 * h)
                mid = state.with_positions(half, state.time + 0.5 * h)
                y2 = _rk4_step(rhs, mid, 0.5 * h)
                err = float(np.max(np.abs(y2 - full))) / 15.0
                scale = max(1.0, float(np.max(np.abs(y2))))
                if err <= LOCAL_ERROR_TARGET * scale:
                    break
                h *= 0.5
                if h < 1e-14 * max(1.0, abs(t_final)):
                    raise SingularTrajectory("step size underflow", samples)
        except (SingularConfiguration, BranchDegenerate, DegenerateConfiguration) as exc:
            raise SingularTrajectory(f"guard tripped mid-flow: {exc}", samples) from exc
        state = state.with_positions(y2, state.time + h)
        samples.append(state)
        if err < 0.03 * LOCAL_ERROR_TARGET * scale:
            h = min(2.0 * h, dt_max)
    return samples


def fd_jacobian(rhs: VelocityFn, point: FlowState, h: float = FD_STEP) -> np.ndarray:
    """Central-difference Jacobian of the flow at a state.

    Column m perturbs coordinate m only, with step h * max(1, |coordinate|).
    """
    if not h > 0:
        raise ValueError(f"step must be positive, got {h}")
    y = np.asarray(point.positions, dtype=complex)
    n = len(y)
    jac = np.empty((n, n), dtype=complex)
    for m in range(n):
        hm = h * max(1.0, abs(y[m]))
        y_plus = y.copy()
        y_minus = y.copy()
        y_plus[m] += hm
        y_minus[m] -= hm
        v_plus = rhs(point.with_positions(y_plus))
        v_minus = rhs(point.with_positions(y_minus))
        jac[:, m] = (v_plus - v_minus) / (2.0 * hm)
    return jac


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
    the reported check holds it to LINEARIZATION_TOL, scaled along with the
    named tolerances by QZ_TOL_SCALE.
    """
    base = zs.xbar if zs.family == "aw" else zs.zbar
    base = np.asarray(base, dtype=complex)
    n = len(base)
    if direction is None:
        direction = np.ones(n, dtype=complex) / np.sqrt(n)
    direction = np.asarray(direction, dtype=complex)
    PerturbationState(base=zs, epsilon=epsilon, direction=direction)
    mat_norm = float(np.linalg.norm(mat.entries, 2))
    if t_short * mat_norm > 0.5 + 1e-12:
        raise ValueError(
            f"t_short * ||matrix|| = {t_short * mat_norm:.3f} exceeds 0.5; "
            "the comparison window must stay short"
        )
    from scipy.linalg import expm  # imported here: qz flow never needs it

    rhs = velocity_for(params)
    start = FlowState(family=zs.family, positions=base + epsilon * direction, time=0.0)
    trajectory = integrate_flow(rhs, start, t_end=t_short, dt_max=t_short / 8.0)
    actual = trajectory[-1].positions - base
    predicted = epsilon * (expm(mat.entries * t_short) @ direction)
    denom = max(float(np.max(np.abs(predicted))), _tiny())
    deviation = float(np.max(np.abs(actual - predicted))) / denom
    report = VerificationReport(family=zs.family, params=params)
    anchor = "sec3.1" if zs.family == "aw" else "sec3.2"
    report.add("flow-linearization", deviation, LINEARIZATION_TOL * tolerance_scale(), [anchor])
    return report


def _tiny() -> float:
    return float(np.finfo(float).tiny)
