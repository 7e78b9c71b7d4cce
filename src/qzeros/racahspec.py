"""q-Racah spectral layer: shifted arguments, B/D coefficients, matrix L.

With S = sqrt(z^2 - 4*gamma*delta*q) (either branch, used consistently),

    Z       = (z + S) / (2*gamma*delta*q),
    z^(+/-) = q^(+/-1) z +/- (1-q^2)/(2q) (z - S),
    B(z)    = (1-a q Z)(1-b d q Z)(1-g q Z)(1-g d q Z)
              / [(1-g d q Z^2)(1-g d q^2 Z^2)],
    D(z)    = q (1-Z)(1-d Z)(b-g Z)(a-g d Z)
              / [(1-g d Z^2)(1-g d q Z^2)]

(a,b,g,d standing for alpha, beta, gamma, delta). Flipping the branch of S
swaps (z^(+), B) with (z^(-), D), which is why every derived quantity is
branch independent. The N x N matrix L built from the zeros z_1..z_N has
the closed-form spectrum

    lambda_n = q^(-N) (1 - q^n) (1 - alpha*beta q^(2N-n+1)),   n = 1..N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import mpmath
import numpy as np

from .errors import GUARD_EPS, BranchDegenerate, QZerosError, first_failure, guard as _guard
from .numlin import (
    SpectralMatrix,
    ZeroSet,
    compute_zero_set,
    determinant,
    eigenvalues,
    match_spectra,
)
from .polyform import WORKING_DPS, ComplexScalar, RacahParams, _mpc
from .qkernel import qpochhammer
from .report import (
    VerificationReport,
    as_rational,
    rational_spectrum,
    rel_residual,
    resolve_tolerances,
)

_FLOOR = float(np.finfo(float).tiny)

#: Parameter scalings (t*alpha, beta/t) used by the isospectrality sweep.
ISOSPECTRAL_T_VALUES = (0.5, 2.0, 1.0 + 0.3j)


def shift_targets(
    q: ComplexScalar, gammadelta: ComplexScalar, z: ComplexScalar, branch: int = +1
) -> tuple[ComplexScalar, ComplexScalar]:
    """The q-shifted images (z^(+), z^(-)) of z.

    Well defined even at gamma*delta = 0; at a vanishing discriminant both
    images collapse to (1+q^2)/(2q) z.
    """
    s = branch * np.sqrt(np.asarray(z * z - 4.0 * gammadelta * q, dtype=complex))
    corr = (1.0 - q * q) / (2.0 * q) * (z - s)
    return q * z + corr, z / q - corr


@dataclass
class _PointStructure:
    """B, D and friends at the points z (scalars, or arrays like z), one branch."""

    z_plus: ComplexScalar
    z_minus: ComplexScalar
    Zval: ComplexScalar
    Bval: ComplexScalar
    Dval: ComplexScalar
    Bp: Optional[ComplexScalar]
    Dp: Optional[ComplexScalar]
    Cplus: Optional[ComplexScalar]
    Cminus: Optional[ComplexScalar]


def _product_slope(factors: list, slopes: Sequence[ComplexScalar]):
    """d/dZ of the product of the linear factors, each with its dZ-slope (product rule)."""
    value, slope = factors[0], slopes[0]
    for f, c1 in zip(factors[1:], slopes[1:]):
        value, slope = value * f, slope * f + value * c1
    return slope


def point_structure(
    p: RacahParams, z: ComplexScalar, branch: int, derivatives: bool = True
) -> _PointStructure:
    """The point structure at z, elementwise on arrays.

    A failing guard names the first failing point, and of its guards the
    first in the order discriminant, 1-gamma*delta*q*Z^2,
    1-gamma*delta*q^2*Z^2, 1-gamma*delta*Z^2. Without ``derivatives``
    (the flow needs none) Bp, Dp, Cplus and Cminus are None.
    """
    q = p.q
    gd = p.gammadelta
    gdq = gd * q
    _guard((abs(gdq), "gamma*delta*q"))
    disc = np.asarray(z * z - 4.0 * gdq, dtype=complex)
    s = branch * np.sqrt(disc)
    zval = (z + s) / (2.0 * gdq)
    z2 = zval * zval
    den0 = 1.0 - gd * z2
    den1 = 1.0 - gdq * z2
    den2 = 1.0 - gd * q * q * z2
    checks = (
        (abs(den1), "1-gamma*delta*q*Z^2"),
        (abs(den2), "1-gamma*delta*q^2*Z^2"),
        (abs(den0), "1-gamma*delta*Z^2"),
    )
    degenerate = abs(disc) < GUARD_EPS
    if degenerate.any():
        k, j = first_failure(degenerate, *(~(m > GUARD_EPS) for m, _ in checks))
        if j == 0:  # otherwise point k fails a guard below first
            raise BranchDegenerate(
                f"z^2 - 4*gamma*delta*q = {complex(disc.flat[k]):.3e}: shifted images "
                f"collide at z = {complex(np.asarray(z).flat[k])}"
            )
    _guard(*checks)
    corr = (1.0 - q * q) / (2.0 * q)
    shift = corr * (z - s)
    z_plus = q * z + shift
    z_minus = z / q - shift

    # B and D as rational functions of Z; the numerators of B and D/q are
    # products of linear factors c0 + c1 Z, never divided by one of them.
    al, be, ga, de = p.alpha, p.beta, p.gamma, p.delta
    b_slopes = (-al * q, -be * de * q, -ga * q, -gd * q)
    d_slopes = (-1.0, -de, -ga, -gd)
    b_factors = [1.0 + c1 * zval for c1 in b_slopes]
    d_factors = [c0 + c1 * zval for c0, c1 in zip((1.0, 1.0, be, al), d_slopes)]
    b_den = den1 * den2
    d_den = den0 * den1
    bval = math.prod(b_factors) / b_den
    dval = q * math.prod(d_factors) / d_den
    if not derivatives:
        return _PointStructure(z_plus, z_minus, zval, bval, dval, None, None, None, None)

    ratio = z / s  # dS/dz
    dzdz = (1.0 + ratio) / (2.0 * gdq)  # dZ/dz
    slope = corr * (1.0 - ratio)
    b_dd = -2.0 * gdq * zval * den2 - 2.0 * gd * q * q * zval * den1
    d_dd = -2.0 * gd * zval * den1 - 2.0 * gdq * zval * den0
    bp = (_product_slope(b_factors, b_slopes) - bval * b_dd) / b_den * dzdz
    dp = (q * _product_slope(d_factors, d_slopes) - dval * d_dd) / d_den * dzdz
    return _PointStructure(z_plus, z_minus, zval, bval, dval, bp, dp, q + slope, 1.0 / q - slope)


def _pair_differences(z: np.ndarray, z_plus: np.ndarray, z_minus: np.ndarray):
    """Pair arrays (d, d_plus, d_minus) at the points z, with ones on their diagonals.

    d[n, m] = z_n - z_m and d_plus/minus[n, m] = z_n^(+/-) - z_m. The row
    products of d_plus/d and d_minus/d are the leave-one-out ratio products
    prod_{l!=n} (z_n^(+/-) - z_l)/(z_n - z_l) of both the flow velocity and
    L; the callers guard the differences they divide by.
    """
    d = z[:, None] - z[None, :]
    d_plus = z_plus[:, None] - z[None, :]
    d_minus = z_minus[:, None] - z[None, :]
    for pair in (d, d_plus, d_minus):
        np.fill_diagonal(pair, 1.0)
    return d, d_plus, d_minus


@dataclass
class RacahStructureEval(_PointStructure):
    """Structure functions at the zeros, as arrays indexed by zero.

    The point fields are point_structure on the whole array of zeros.
    Wplus[n, m] and Wminus[n, m] hold the pair couplings
    W^(+/-)(z_n, z_m) = [C^(+/-)(z_n)(z_n - z_m) - z_n^(+/-) + z_m]
                        / [(z_n - z_m)(z_n^(+/-) - z_m)]
    with zero diagonals.
    """

    Wplus: np.ndarray
    Wminus: np.ndarray
    branch: int


def eval_structure(p: RacahParams, zs: ZeroSet, branch: int = +1) -> RacahStructureEval:
    """Evaluate z^(+/-), Z, B, D, B', D', C^(+/-), W^(+/-) at every zero.

    The guards are checked over whole arrays: first the point guards, then
    the pair guards z_n-z_m, z_n^(+)-z_m and z_n^(-)-z_m, each naming the
    first failing point or pair in row-major order.
    """
    z = np.asarray(zs.zbar, dtype=complex)
    pt = point_structure(p, z, branch)
    d, d_plus, d_minus = _pair_differences(z, pt.z_plus, pt.z_minus)
    _guard(
        (abs(d), "z_n-z_m"),
        (abs(d_plus), "z_n^(+)-z_m"),
        (abs(d_minus), "z_n^(-)-z_m"),
    )
    w_plus = (pt.Cplus[:, None] * d - pt.z_plus[:, None] + z[None, :]) / (d * d_plus)
    w_minus = (pt.Cminus[:, None] * d - pt.z_minus[:, None] + z[None, :]) / (d * d_minus)
    np.fill_diagonal(w_plus, 0.0)
    np.fill_diagonal(w_minus, 0.0)
    return RacahStructureEval(**vars(pt), Wplus=w_plus, Wminus=w_minus, branch=branch)


def build_matrix_L(p: RacahParams, zs: ZeroSet, branch: int = +1) -> SpectralMatrix:
    """Assemble L from the zeros; its predicted spectrum is lambda_1..lambda_N.

    The leave-two-out product of entry (n, m) is the leave-one-out product
    of row n divided by its factor (z_n^(+/-) - z_m)/(z_n - z_m), which the
    z_n^(+/-)-z_m guard keeps away from zero.
    """
    se = eval_structure(p, zs, branch=branch)
    z = np.asarray(zs.zbar, dtype=complex)
    d, d_plus, d_minus = _pair_differences(z, se.z_plus, se.z_minus)
    ratio_plus = np.prod(d_plus / d, axis=1)
    ratio_minus = np.prod(d_minus / d, axis=1)
    dz_plus = se.z_plus - z
    dz_minus = se.z_minus - z
    prod_plus = ratio_plus[:, None] * d / d_plus  # the leave-two-out products
    prod_minus = ratio_minus[:, None] * d / d_minus
    entries = (
        se.Bval[:, None] * (dz_plus[:, None] / d) ** 2 * prod_plus
        + se.Dval[:, None] * (dz_minus[:, None] / d) ** 2 * prod_minus
    )
    diag = (
        se.Bp * dz_plus + se.Bval * (se.Cplus - 1.0 + dz_plus * se.Wplus.sum(axis=1))
    ) * ratio_plus + (
        se.Dp * dz_minus + se.Dval * (se.Cminus - 1.0 + dz_minus * se.Wminus.sum(axis=1))
    ) * ratio_minus
    np.fill_diagonal(entries, diag)
    return SpectralMatrix(entries=entries, predicted=predicted_lambda(p), label="L")


def predicted_lambda(p: RacahParams) -> np.ndarray:
    """lambda_n = q^(-N) (1 - q^n) (1 - alpha*beta q^(2N-n+1)), n = 1..N."""
    q = p.q
    qinv_n = q ** -p.N
    return np.array(
        [
            qinv_n * (1.0 - q**n) * (1.0 - p.alphabeta * q ** (2 * p.N - n + 1))
            for n in range(1, p.N + 1)
        ]
    )


def prop23_residuals(p: RacahParams, zs: ZeroSet, branch: int = +1) -> np.ndarray:
    """Normalized residuals of B(z_n) R_N(z_n^(+)) + D(z_n) R_N(z_n^(-)) = 0.

    R_N is evaluated through the zero set's mpmath three-term recurrence,
    which stays accurate where the defining q-sum cancels heavily. Like the
    Askey-Wilson identity, this one can sharpen beyond what a
    double-rounded zero resolves, so where the zero set carries its
    pre-rounding zeros and they still agree with the stored doubles the
    residual is computed at the high-precision zeros; perturbed or
    hand-built zero sets are measured at face value.
    """
    rec = zs.recurrence_for(p)
    point_structure(p, np.asarray(zs.zbar, dtype=complex), branch)  # enforces the guards
    out = np.empty(len(zs.zbar))
    with mpmath.workdps(WORKING_DPS):
        q, al, be, ga, de = (_mpc(v) for v in (p.q, p.alpha, p.beta, p.gamma, p.delta))
        gd = ga * de
        gdq = gd * q
        corr = (1 - q * q) / (2 * q)
        for i, z in enumerate(zs.zbar):
            hp = _zero_hp_matching(zs, i)
            z_hp = _mpc(z) if hp is None else hp
            s = branch * mpmath.sqrt(z_hp * z_hp - 4 * gdq)
            zval = (z_hp + s) / (2 * gdq)
            z_plus = q * z_hp + corr * (z_hp - s)
            z_minus = z_hp / q - corr * (z_hp - s)
            z2 = zval * zval
            bval = (
                (1 - al * q * zval)
                * (1 - be * de * q * zval)
                * (1 - ga * q * zval)
                * (1 - gd * q * zval)
                / ((1 - gdq * z2) * (1 - gd * q * q * z2))
            )
            dval = (
                q
                * (1 - zval)
                * (1 - de * zval)
                * (be - ga * zval)
                * (al - gd * zval)
                / ((1 - gd * z2) * (1 - gdq * z2))
            )
            t1 = bval * rec.value(z_plus)
            t2 = dval * rec.value(z_minus)
            out[i] = float(abs(t1 + t2) / (abs(t1) + abs(t2) + _FLOOR))
    return out


def _zero_hp_matching(zs: ZeroSet, i: int):
    """The high-precision zero for index i, or None if it no longer matches."""
    if zs.zeros_hp is None:
        return None
    hp = zs.zeros_hp[i]
    target = zs.zbar[i]
    if abs(complex(hp) - target) <= 1e-12 * max(1.0, abs(target)):
        return hp
    return None


def apply_racah_difference(
    p: RacahParams,
    f: Callable[[ComplexScalar], ComplexScalar],
    z: ComplexScalar,
    branch: int = +1,
) -> ComplexScalar:
    """B(z) f(z^(+)) - [B(z) + D(z)] f(z) + D(z) f(z^(-)).

    R_N is an eigenfunction with eigenvalue
    (q^(-N) - 1)(1 - alpha*beta q^(N+1)); the result is branch independent.
    """
    pt = point_structure(p, z, branch)
    return (
        pt.Bval * f(pt.z_plus)
        - (pt.Bval + pt.Dval) * f(z)
        + pt.Dval * f(pt.z_minus)
    )


def racah_eigenvalue(p: RacahParams) -> ComplexScalar:
    """(q^(-N) - 1)(1 - alpha*beta q^(N+1)), the difference-operator eigenvalue."""
    return (p.q**-p.N - 1.0) * (1.0 - p.alphabeta * p.q ** (p.N + 1))


def trace_closed_form(p: RacahParams) -> ComplexScalar:
    """Sum of the diagonal of L in closed form:

    N (q^(-N) + alpha*beta q^(N+1)) + q (1 - q^(-N))(1 + alpha*beta q^N)/(1 - q).
    """
    q = p.q
    ab = p.alphabeta
    return p.N * (q**-p.N + ab * q ** (p.N + 1)) + q * (1.0 - q**-p.N) * (
        1.0 + ab * q**p.N
    ) / (1.0 - q)


def det_closed_form(p: RacahParams) -> ComplexScalar:
    """det L = q^(-N^2) (q;q)_N (alpha*beta q^(N+1);q)_N."""
    q = p.q
    return (
        q ** -(p.N * p.N)
        * qpochhammer(q, q, p.N)
        * qpochhammer(p.alphabeta * q ** (p.N + 1), q, p.N)
    )


def verify_corollaries(
    p: RacahParams,
    l: SpectralMatrix,
    tolerances: Optional[dict] = None,
    t_values: Sequence[complex] = ISOSPECTRAL_T_VALUES,
) -> VerificationReport:
    """Trace and determinant identities, rationality, isospectrality."""
    tols = resolve_tolerances(tolerances)
    report = VerificationReport(family="racah", params=p)
    lam = l.predicted
    mat = l.entries

    power = np.eye(len(mat), dtype=complex)
    for k in (1, 2, 3):
        power = power @ mat
        target = complex(np.sum(lam**k))
        report.add(
            f"cor2.4.3-trace-k{k}",
            rel_residual(complex(np.trace(power)) - target, target),
            tols["spectrum_match"],
            ["cor2.4.3"],
        )
    closed = trace_closed_form(p)
    report.add(
        "cor2.4.3-trace-closed-form",
        rel_residual(complex(np.trace(mat)) - closed, closed),
        tols["spectrum_match"],
        ["cor2.4.3"],
    )
    det_target = det_closed_form(p)
    report.add(
        "cor2.4.3-det",
        rel_residual(determinant(mat) - det_target, det_target),
        tols["spectrum_match"],
        ["cor2.4.3"],
    )

    qfrac = as_rational(p.q)
    prodfrac = as_rational(p.alphabeta)
    if qfrac is not None and prodfrac is not None:
        exact = rational_spectrum(qfrac, prodfrac, p.N, shift=+1)
        match = match_spectra(eigenvalues(mat), np.array([float(f) for f in exact], dtype=complex))
        report.add(
            "cor2.4.1-diophantine", match.max_abs_gap, tols["diophantine"], ["cor2.4.1"]
        )

    base_spectrum = eigenvalues(mat)
    worst = None
    for t in t_values:
        try:
            swept = replace(p, alpha=t * p.alpha, beta=p.beta / t)
            l_swept = build_matrix_L(swept, compute_zero_set(swept, polish=False))
        except (QZerosError, ValueError):
            # this scaling lands outside the admissible parameter set;
            # isospectrality is only claimed within it
            continue
        gap = match_spectra(eigenvalues(l_swept.entries), base_spectrum).max_rel_gap
        worst = gap if worst is None else max(worst, gap)
    if worst is not None:
        report.add("cor2.4.2-isospectral", worst, tols["spectrum_match"], ["cor2.4.2"])
    return report
