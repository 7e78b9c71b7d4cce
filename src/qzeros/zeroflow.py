"""First-order flows whose fixed points are the polynomial zeros.

Both flows take numlin's operator form (numlin._operator_velocity) on their family's
operator terms (awspec._operator_terms, racahspec._operator_terms): Askey-Wilson in t = x
(z = x + sqrt(x^2 - 1)) with c = A(z), A(1/z), s = x(qz), x(z/q), q-Racah in t = z with
c = B, D and s = z^(+), z^(-). A validated zero set is an equilibrium, where the Jacobian
is M or L (fd_jacobian checks it). A state is the array of N positions; a velocity maps
states stacked as (..., N) row by row, each row's bits those of a call on that row alone,
with no Python loop over points, pairs or states, and a guard names the first failing
point, else pair, in row-major order. integrate_flow runs RK4 with step doubling and
raises SingularTrajectory, the partial trajectory attached, if a guard trips.

This is the top library layer, so the ``Family`` record, which reaches
into every layer below it, is defined here: ``FAMILIES`` maps each params
type's ``family`` name to the record that the CLI and the verification
suite dispatch through.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Callable

import numpy as np

from .errors import (
    BranchDegenerate,
    DegenerateConfiguration,
    QZerosError,
    SingularConfiguration,
    SingularTrajectory,
)
from .numlin import _operator_velocity
from .polyform import AWParams, RacahParams, x_to_z
from . import awspec, racahspec
from .sweeps import draw_aw_params, draw_racah_params

#: Local error target per step, relative to the state magnitude.
LOCAL_ERROR_TARGET = 1e-10
#: Smallest RK4 step, relative to max(1, t_end): step halving below it is an underflow.
STEP_FLOOR = 1e-14
#: Most RK4 trials, accepted or retried, of one integrate_flow: 200 times the 50 steps of
#: every flow-window run of seeds 0-39.
MAX_FLOW_STEPS = 10_000
#: Relative finite-difference step of fd_jacobian.
FD_STEP = 1e-6
#: Perturbed states per rhs call of fd_jacobian. On verify-grid, 8 ran as fast as 4 but
#: raised the peak RSS by 1.9% instead of 1.1%, and all 2N at once by 8%.
FD_BLOCK = 4
#: Bound on the relative gap between flow and linearization at epsilon = 1e-6.
LINEARIZATION_TOL = 1e-3

VelocityFn = Callable[[np.ndarray], np.ndarray]


def aw_velocity(p: AWParams, x: np.ndarray) -> np.ndarray:
    """Askey-Wilson flow velocities at the x-positions (..., N), row by row: t = x, c = A(w)."""
    x = np.asarray(x, dtype=complex)
    return _operator_velocity(x, *awspec._operator_terms(p, x_to_z(x)))


def racah_velocity(p: RacahParams, z: np.ndarray, branch: int = +1) -> np.ndarray:
    """q-Racah flow velocities at the z-positions (..., N), row by row: t = z, c = B, D."""
    z = np.asarray(z, dtype=complex)
    return _operator_velocity(z, *racahspec._operator_terms(p, z, branch))


@dataclass(frozen=True)
class Family:
    """What the family-generic code needs to know about one polynomial family.

    The params type carries the family name and the spectrum's product P
    and shift s. Each function field calls a module-level function by name
    when it runs, so a rebinding of that name (by a profiler, say) reaches
    every caller.
    """

    params_type: type
    title: str
    draw: Callable  # (SplitMix64, q, N) -> params
    build_matrix: Callable  # (params, ZeroSet) -> SpectralMatrix
    residuals: Callable  # (params, ZeroSet) -> zero-identity residual per zero
    velocity: Callable  # (params, positions) -> velocities
    isospectral: Callable  # (params, t) -> parameters with the same product
    position: Callable  # ZeroSet -> the zeros in flow coordinates

    @property
    def name(self) -> str:
        return self.params_type.family

    @property
    def flags(self) -> dict:
        """CLI flag of each parameter but q and N: -a for one letter, --alpha otherwise."""
        names = [f.name for f in fields(self.params_type) if f.name not in ("q", "N")]
        return {name: ("-" if len(name) == 1 else "--") + name for name in names}


AW = Family(
    params_type=AWParams,
    title="Askey-Wilson",
    draw=lambda stream, q, n: draw_aw_params(stream, q, n),
    build_matrix=lambda p, zs: awspec.build_matrix_M(p, zs),
    residuals=lambda p, zs: awspec.prop21_residuals(p, zs),
    velocity=lambda p, y: aw_velocity(p, y),
    isospectral=lambda p, t: replace(p, a=t * p.a, b=p.b / t),
    position=lambda zs: zs.xbar,
)

RACAH = Family(
    params_type=RacahParams,
    title="q-Racah",
    draw=lambda stream, q, n: draw_racah_params(stream, q, n),
    build_matrix=lambda p, zs: racahspec.build_matrix_L(p, zs),
    residuals=lambda p, zs: racahspec.prop23_residuals(p, zs),
    velocity=lambda p, y: racah_velocity(p, y),
    isospectral=lambda p, t: replace(p, alpha=t * p.alpha, beta=p.beta / t),
    position=lambda zs: zs.zbar,
)

FAMILIES = {family.name: family for family in (AW, RACAH)}


def _rk4_step(rhs: VelocityFn, y: np.ndarray, k1: np.ndarray, h) -> np.ndarray:
    """RK4 from y, with k1 = rhs(y) given; a column of step sizes h gives one row each."""
    k2 = rhs(y + 0.5 * h * k1)
    k3 = rhs(y + 0.5 * h * k2)
    k4 = rhs(y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def integrate_flow(
    rhs: VelocityFn, y0: np.ndarray, t_end: float, dt_max: float
) -> list[tuple[float, np.ndarray]]:
    """Integrate the autonomous flow dy/dt = rhs(y) from y0 over [0, t_end].

    Classical RK4 with step doubling: each step is taken once at h and
    twice at h/2, the Richardson gap estimates the local error, and the
    step is halved until the estimate meets LOCAL_ERROR_TARGET relative to
    the state magnitude. Returns the accepted (t, y) samples, starting with
    (0.0, y0). Raises SingularTrajectory (partial trajectory attached) if a
    guard trips, the step would fall below STEP_FLOOR * max(1, t_end) or the
    trials would exceed MAX_FLOW_STEPS, and ValueError if dt_max already lies
    below the step floor.

    rhs must map stacked states (B, N) row by row, as the family
    velocities do. The full step and the first half step share k1 = rhs(y),
    which every retried trial reuses, and run their stages k2..k4 as one
    (2, N) state; the second half step runs alone. A trial thus costs 8 rhs
    calls, 7 when retried, and every row computes what the serial steps
    computed, in the same order of operations, so the samples are those of
    three serial steps per trial. A guard trips in the same trial as there,
    with the same partial trajectory; where several stages would trip, the
    one named is the first in this order of calls.
    """
    floor = STEP_FLOOR * max(1.0, t_end)
    if not t_end > 0:
        raise ValueError(f"t_end must be positive, got {t_end}")
    if not dt_max >= floor:
        raise ValueError(f"dt_max must be at least {floor:.1e}, got {dt_max}")
    t, y = 0.0, np.asarray(y0, dtype=complex)
    samples = [(t, y)]
    h, trials = min(dt_max, t_end), 0
    while t < t_end - 1e-15 * max(1.0, t_end):
        h = min(h, t_end - t)
        try:
            k1 = rhs(y)
            while True:
                trials += 1
                if trials > MAX_FLOW_STEPS:
                    raise SingularTrajectory(f"more than {MAX_FLOW_STEPS} RK4 trials", samples)
                full, half = _rk4_step(rhs, y, k1, np.array([[h], [0.5 * h]]))
                y2 = _rk4_step(rhs, half, rhs(half), 0.5 * h)
                err = float(np.max(np.abs(y2 - full))) / 15.0
                scale = max(1.0, float(np.max(np.abs(y2))))
                if err <= LOCAL_ERROR_TARGET * scale:
                    break
                h *= 0.5
                if h < floor:
                    raise SingularTrajectory("step size underflow", samples)
        except (SingularConfiguration, BranchDegenerate, DegenerateConfiguration) as exc:
            raise SingularTrajectory(f"guard tripped mid-flow: {exc}", samples) from exc
        t, y = t + h, y2
        samples.append((t, y))
        if err < 0.03 * LOCAL_ERROR_TARGET * scale:
            h = min(2.0 * h, dt_max)
    return samples


def fd_jacobian(rhs: VelocityFn, y: np.ndarray) -> np.ndarray:
    """Central-difference Jacobian of the flow at the positions y.

    Column m perturbs coordinate m only, with step FD_STEP * max(1, |coordinate|).
    The rows (+h_m, -h_m) of each column run through rhs FD_BLOCK at a time, so rhs
    must map stacked states row by row, as the velocities do. A block that trips a
    guard reruns row by row: the guard raised is the one a call per state meets first.
    """
    y = np.asarray(y, dtype=complex)
    n = len(y)
    h = np.array([FD_STEP * max(1.0, abs(v)) for v in y])  # abs per coordinate: np.abs may differ
    states = np.repeat(y[None, :], 2 * n, axis=0)
    states[range(0, 2 * n, 2), range(n)] += h
    states[range(1, 2 * n, 2), range(n)] -= h
    v = []
    for block in np.split(states, range(FD_BLOCK, 2 * n, FD_BLOCK)):
        try:
            v.append(rhs(block))
        except QZerosError:
            for row in block:
                rhs(row)
            raise
    v = np.concatenate(v)
    return ((v[0::2] - v[1::2]) / (2.0 * h)[:, None]).T
