"""First-order flows whose fixed points are the polynomial zeros.

Askey-Wilson flow on x-coordinates (z_n = x_n + sqrt(x_n^2 - 1)):

    dx_n/dt = (q-1)/(2 q^N) [ G(z_n) prod_{l!=n} K(z_n, z_l)
                              + G(1/z_n) prod_{l!=n} K(1/z_n, 1/z_l) ],

q-Racah flow on z-coordinates:

    dz_n/dt = B(z_n) (z_n^(+) - z_n) prod_{l!=n} (z_n^(+)-z_l)/(z_n-z_l)
            + D(z_n) (z_n^(-) - z_n) prod_{l!=n} (z_n^(-)-z_l)/(z_n-z_l).

A validated zero set is an equilibrium of its flow, and the Jacobian there
reproduces the spectral matrix (M or L) entrywise; fd_jacobian provides the
finite-difference side of that consistency check. Both flows are
autonomous, so a state is just the array of N positions, and a velocity
maps states stacked as (..., N) to velocities of the same shape, row by
row: each row's bits are those of a call on that row alone. The
integrator is classical RK4 with step-doubling error control. It runs
the step at h and the first step at h/2 as one (2, N) state, from one
shared k1, so a trial takes 8 velocity calls instead of 12. It stops
(raising SingularTrajectory with the partial trajectory attached) if a
structure guard trips mid-flow.

Both velocities run no Python loop over points, pairs or stacked states.
They evaluate the structure functions on the whole position array and the
pair factors on (..., N, N) arrays, with the kernels that build M and L:
awspec._kernel_matrix on the points stacked as (z_n, 1/z_n), and
racahspec.point_structure with racahspec._pair_differences. A guard names
the first failing point, else the first failing pair, in row-major order
over the stacked states.

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
    SingularConfiguration,
    SingularTrajectory,
    guard,
)
from .polyform import AWParams, RacahParams, x_to_z
from . import awspec, racahspec
from .sweeps import draw_aw_params, draw_racah_params

#: Local error target per step, relative to the state magnitude.
LOCAL_ERROR_TARGET = 1e-10
#: Smallest RK4 step, relative to max(1, t_end): step halving below it is an underflow.
STEP_FLOOR = 1e-14
#: Relative finite-difference step of fd_jacobian.
FD_STEP = 1e-6
#: Bound on the relative gap between flow and linearization at epsilon = 1e-6.
LINEARIZATION_TOL = 1e-3

VelocityFn = Callable[[np.ndarray], np.ndarray]


def aw_velocity(p: AWParams, x: np.ndarray) -> np.ndarray:
    """Askey-Wilson flow velocities at the x-positions (..., N), row by row."""
    z = x_to_z(np.asarray(x, dtype=complex))
    zw = np.stack([z, awspec._reciprocal(z)], axis=-1)  # row n: (z_n, 1/z_n)
    guard((abs(zw), "z"))
    g = awspec.eval_A(p, zw) * (p.q * zw - 1.0 / zw)  # G; eval_A guards z^2-1, q*z^2-1
    prods = np.prod(awspec._kernel_matrix(p.q, zw), axis=-2)
    terms = g * prods
    return (p.q - 1.0) / (2.0 * p.q**p.N) * (terms[..., 0] + terms[..., 1])


def racah_velocity(p: RacahParams, z: np.ndarray, branch: int = +1) -> np.ndarray:
    """q-Racah flow velocities at the z-positions (..., N), row by row."""
    z = np.asarray(z, dtype=complex)
    pt = racahspec.point_structure(p, z, branch, derivatives=False)
    d, d_plus, d_minus = racahspec._pair_differences(z, pt.z_plus, pt.z_minus)
    guard((abs(d), "z_n-z_m"))
    ratio_plus = np.prod(d_plus / d, axis=-1)
    ratio_minus = np.prod(d_minus / d, axis=-1)
    return pt.Bval * (pt.z_plus - z) * ratio_plus + pt.Dval * (pt.z_minus - z) * ratio_minus


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
    identity_ref: str  # the zero identities
    spectrum_ref: str  # the closed-form spectrum and the matrix entries
    corollary_ref: str  # + ".1" rationality, ".2" isospectrality, ".3" trace/det
    flow_ref: str  # the flow and its Jacobian

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
    identity_ref="prop2.1",
    spectrum_ref="prop2.2",
    corollary_ref="cor2.2",
    flow_ref="sec3.1",
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
    identity_ref="prop2.3",
    spectrum_ref="prop2.4",
    corollary_ref="cor2.4",
    flow_ref="sec3.2",
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
    guard trips or the step would fall below STEP_FLOOR * max(1, t_end),
    and ValueError if dt_max already lies below it.

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
    h = min(dt_max, t_end)
    while t < t_end - 1e-15 * max(1.0, t_end):
        h = min(h, t_end - t)
        try:
            k1 = rhs(y)
            while True:
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
    """
    y = np.asarray(y, dtype=complex)
    n = len(y)
    jac = np.empty((n, n), dtype=complex)
    for m in range(n):
        hm = FD_STEP * max(1.0, abs(y[m]))
        y_plus = y.copy()
        y_minus = y.copy()
        y_plus[m] += hm
        y_minus[m] -= hm
        jac[:, m] = (rhs(y_plus) - rhs(y_minus)) / (2.0 * hm)
    return jac
