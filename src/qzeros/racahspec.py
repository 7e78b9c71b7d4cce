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

    lambda_n = q^(-N) (1 - q^n) (1 - alpha*beta q^(2N-n+1)),   n = 1..N

(report.spectrum_closed_form, shared with Askey-Wilson).

Z, z^(+/-), B and D are written once (_structure); prop23_residuals evaluates
them at WORKING_DPS digits in numlin's ZeroSet.identity_residuals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import GUARD_EPS, BranchDegenerate, first_failure, guard as _guard
from .numlin import SpectralMatrix, ZeroSet
from .polyform import ComplexScalar, DecimalComplex, RacahParams, _sqrt
from .report import spectrum_closed_form


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


def _structure(q, al, be, ga, de) -> Callable:
    """at(z, branch, derivatives, guards) -> _PointStructure, the constants formed once:
    elementwise on complex scalars and arrays, or on DecimalComplex (parameters too, in
    the working-precision context). No guards of its own: guards(z, discriminant, Z^2
    denominators) runs before the divisions by them. B and D/q are products of linear
    factors c0 + c1 Z, never divided by one."""
    gd = ga * de
    gdq = gd * q
    corr = (1 - q * q) / (2 * q)
    b_slopes = (-al * q, -be * de * q, -ga * q, -gd * q)
    d_offsets, d_slopes = (1, 1, be, al), (-1, -de, -ga, -gd)

    def at(z, branch: int, derivatives: bool, guards: Callable = lambda *_: None):
        disc = z * z - 4 * gdq
        s = branch * _sqrt(disc)
        shift = corr * (z - s)
        z_plus, z_minus = q * z + shift, z / q - shift
        zval = (z + s) / (2 * gdq)
        z2 = zval * zval
        den0, den1, den2 = 1 - gd * z2, 1 - gdq * z2, 1 - gd * q * q * z2
        guards(z, disc, (den0, den1, den2))
        b_factors = [1 + c1 * zval for c1 in b_slopes]
        d_factors = [c0 + c1 * zval for c0, c1 in zip(d_offsets, d_slopes)]
        bval = math.prod(b_factors) / (den1 * den2)
        dval = q * math.prod(d_factors) / (den0 * den1)
        pt = _PointStructure(z_plus, z_minus, zval, bval, dval, None, None, None, None)
        if derivatives:
            ratio = z / s  # dS/dz
            dzdz = (1.0 + ratio) / (2.0 * gdq)  # dZ/dz
            slope = corr * (1.0 - ratio)
            b_dd = -2.0 * gdq * zval * den2 - 2.0 * gd * q * q * zval * den1
            d_dd = -2.0 * gd * zval * den1 - 2.0 * gdq * zval * den0
            pt.Bp = (_product_slope(b_factors, b_slopes) - bval * b_dd) / (den1 * den2) * dzdz
            pt.Dp = (q * _product_slope(d_factors, d_slopes) - dval * d_dd) / (den0 * den1) * dzdz
            pt.Cplus, pt.Cminus = q + slope, 1.0 / q - slope
        return pt

    return at


def _point_guards(z, disc, dens) -> None:
    """The point guards of point_structure, over whole arrays (see there)."""
    disc = np.asarray(disc)
    den0, den1, den2 = dens
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


def point_structure(
    p: RacahParams, z: ComplexScalar, branch: int, derivatives: bool = True
) -> _PointStructure:
    """The point structure at z, elementwise on arrays.

    A failing guard names the first failing point, and of its guards the
    first in the order discriminant, 1-gamma*delta*q*Z^2,
    1-gamma*delta*q^2*Z^2, 1-gamma*delta*Z^2. Without ``derivatives``
    (the flow needs none) Bp, Dp, Cplus and Cminus are None.
    """
    _guard((abs(p.gammadelta * p.q), "gamma*delta*q"))
    return _structure(p.q, p.alpha, p.beta, p.gamma, p.delta)(z, branch, derivatives, _point_guards)


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


def build_matrix_L(p: RacahParams, zs: ZeroSet, branch: int = +1) -> SpectralMatrix:
    """Assemble L from the zeros; its predicted spectrum is lambda_1..lambda_N.

    The point guards of point_structure run before the pair guards, each over the whole
    array and naming the first failing point or pair in row-major order. The diagonal
    holds the row sums of the pair couplings W^(+/-)(z_n, z_m) =
    [C^(+/-)(z_n)(z_n - z_m) - z_n^(+/-) + z_m] / [(z_n - z_m)(z_n^(+/-) - z_m)].
    The leave-two-out product of entry (n, m) is the leave-one-out product
    of row n divided by its factor (z_n^(+/-) - z_m)/(z_n - z_m), which the
    z_n^(+/-)-z_m guard keeps away from zero.
    """
    z = np.asarray(zs.zbar, dtype=complex)
    pt = point_structure(p, z, branch)
    d, d_plus, d_minus = _pair_differences(z, pt.z_plus, pt.z_minus)
    _guard((abs(d), "z_n-z_m"), (abs(d_plus), "z_n^(+)-z_m"), (abs(d_minus), "z_n^(-)-z_m"))
    w_plus = (pt.Cplus[:, None] * d - pt.z_plus[:, None] + z[None, :]) / (d * d_plus)
    w_minus = (pt.Cminus[:, None] * d - pt.z_minus[:, None] + z[None, :]) / (d * d_minus)
    np.fill_diagonal(w_plus, 0.0)
    np.fill_diagonal(w_minus, 0.0)
    ratio_plus = np.prod(d_plus / d, axis=1)
    ratio_minus = np.prod(d_minus / d, axis=1)
    dz_plus = pt.z_plus - z
    dz_minus = pt.z_minus - z
    prod_plus = ratio_plus[:, None] * d / d_plus  # the leave-two-out products
    prod_minus = ratio_minus[:, None] * d / d_minus
    entries = (
        pt.Bval[:, None] * (dz_plus[:, None] / d) ** 2 * prod_plus
        + pt.Dval[:, None] * (dz_minus[:, None] / d) ** 2 * prod_minus
    )
    diag = (
        pt.Bp * dz_plus + pt.Bval * (pt.Cplus - 1.0 + dz_plus * w_plus.sum(axis=1))
    ) * ratio_plus + (
        pt.Dp * dz_minus + pt.Dval * (pt.Cminus - 1.0 + dz_minus * w_minus.sum(axis=1))
    ) * ratio_minus
    np.fill_diagonal(entries, diag)
    predicted = np.array(spectrum_closed_form(p.q, p.product, p.shift, p.N))
    return SpectralMatrix(entries=entries, predicted=predicted, label="L")


def prop23_residuals(p: RacahParams, zs: ZeroSet, branch: int = +1) -> np.ndarray:
    """Normalized residuals of B(z_n) R_N(z_n^(+)) + D(z_n) R_N(z_n^(-)) = 0.

    R_N is evaluated through the zero set's three-term recurrence, which
    stays accurate where the defining q-sum cancels heavily. Like the
    Askey-Wilson identity, this one can sharpen beyond what a double-rounded
    zero resolves, so R_N, and B, D and z^(+/-) by point_structure's
    formulas, run at WORKING_DPS digits at the high-precision zeros
    (``ZeroSet.identity_residuals``); perturbed or hand-built zero sets are
    measured at face value.
    """
    point_structure(p, np.asarray(zs.zbar, dtype=complex), branch, derivatives=False)  # guards

    def terms(rec):
        at = _structure(*map(DecimalComplex.of, (p.q, p.alpha, p.beta, p.gamma, p.delta)))

        def t(z):
            pt = at(z, branch, False)
            return pt.Bval * rec.value(pt.z_plus), pt.Dval * rec.value(pt.z_minus)

        return t

    return zs.identity_residuals(p, terms)
