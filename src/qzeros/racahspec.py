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
branch independent. The flow and L take numlin's operator form in t = z with
(c, s) = (B, z^(+)), (D, z^(-)); L, its Jacobian at the N zeros, takes the slopes
B', D' and C^(+/-) = dz^(+/-)/dz. Only what the form divides by is guarded: point_structure's
point guards, and the one pair divisor z_n - z_m, as z_n-z_m in numlin.
L has the closed-form spectrum

    lambda_n = q^(-N) (1 - q^n) (1 - alpha*beta q^(2N-n+1)),   n = 1..N

(report.spectrum_closed_form, shared with Askey-Wilson).

Z, z^(+/-), B and D are written once (_structure), and the operator terms once from them
(_PointStructure.terms): the flow and L stack them, prop23_residuals takes them at
WORKING_DPS digits, for numlin's ZeroSet.identity_residuals to form the identity. All three
run point_structure's guards, once per call.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import GUARD_EPS, BranchDegenerate, clear, first_failure, guard as _guard
from .numlin import SpectralMatrix, ZeroSet, operator_matrix
from .polyform import (
    ComplexScalar,
    DecimalComplex,
    RacahParams,
    _linear_products,
    _product_slope,
    _sqrt,
)
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

    def terms(self) -> tuple:
        """The operator terms by shift: (c, s) = ((B, D), (z^(+), z^(-))), and where the
        derivatives were formed (c, c', s, s') with c' = (B', D'), s' = (C^(+), C^(-))."""
        c, s = (self.Bval, self.Dval), (self.z_plus, self.z_minus)
        return (c, s) if self.Bp is None else (c, (self.Bp, self.Dp), s, (self.Cplus, self.Cminus))


def _structure(q, al, be, ga, de) -> Callable:
    """at(z, branch, derivatives, guards) -> _PointStructure, the constants formed once:
    elementwise on complex scalars and arrays, or on DecimalComplex (parameters too, in
    the working-precision context). No guards of its own: guards(z, discriminant, Z^2
    denominators) runs before the divisions by them. B and D/q are products of linear
    factors c0 + c1 Z, never divided by one, multiplied as one stack."""
    gd = ga * de
    gdq = gd * q
    corr = (1 - q * q) / (2 * q)
    offsets = ((1, 1), (1, 1), (1, be), (1, al))  # columns: B's factors, D/q's factors
    slopes = ((-al * q, -1), (-be * de * q, -de), (-ga * q, -ga), (-gd * q, -gd))
    if type(q) is not DecimalComplex:
        offsets, slopes = np.array(offsets, dtype=complex), np.array(slopes, dtype=complex)

    def at(z, branch: int, derivatives: bool, guards: Callable = lambda *_: None):
        disc = z * z - 4 * gdq
        s = branch * _sqrt(disc)
        shift = corr * (z - s)
        z_plus, z_minus = q * z + shift, z / q - shift
        zval = (z + s) / (2 * gdq)
        z2 = zval * zval
        den0, den1, den2 = 1 - gd * z2, 1 - gdq * z2, 1 - gd * q * q * z2
        guards(z, disc, (den0, den1, den2))
        factors, (b_product, d_product) = _linear_products(offsets, slopes, zval)
        bval = b_product / (den1 * den2)
        dval = q * d_product / (den0 * den1)
        pt = _PointStructure(z_plus, z_minus, zval, bval, dval, None, None, None, None)
        if derivatives:
            ratio = z / s  # dS/dz
            dzdz = (1.0 + ratio) / (2.0 * gdq)  # dZ/dz
            slope = corr * (1.0 - ratio)
            b_dd = -2.0 * gdq * zval * den2 - 2.0 * gd * q * q * zval * den1
            d_dd = -2.0 * gd * zval * den1 - 2.0 * gdq * zval * den0
            b_slope, d_slope = (_product_slope(factors[:, g], slopes[:, g]) for g in (0, 1))
            pt.Bp = (b_slope - bval * b_dd) / (den1 * den2) * dzdz
            pt.Dp = (q * d_slope - dval * d_dd) / (den0 * den1) * dzdz
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
    if clear(abs(disc), *(m for m, _ in checks)):
        return
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
    return _structure_of(p)(z, branch, derivatives, _point_guards)


@functools.lru_cache(maxsize=8)
def _structure_of(p: RacahParams) -> Callable:
    """_structure of p, formed once per parameter set that passes the gamma*delta*q guard."""
    _guard((abs(p.gammadelta * p.q), "gamma*delta*q"))
    return _structure(p.q, p.alpha, p.beta, p.gamma, p.delta)


def _operator_terms(p: RacahParams, z: np.ndarray, branch: int, slopes: bool = False) -> tuple:
    """_PointStructure.terms at z (..., N), each stacked by shift as (2, ..., N), after the
    point guards of point_structure, and the name of the pair guard, z_n-z_m."""
    pt = point_structure(p, z, branch, derivatives=slopes)
    return (*map(np.array, pt.terms()), "z_n-z_m")


def build_matrix_L(p: RacahParams, zs: ZeroSet, branch: int = +1) -> SpectralMatrix:
    """Assemble L from the zeros; its predicted spectrum is lambda_1..lambda_N. The guards of
    _operator_terms run in its order, each naming the first failing point or pair."""
    z = np.asarray(zs.zbar, dtype=complex)
    entries = operator_matrix(z, *_operator_terms(p, z, branch, slopes=True))
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

    def shifts():
        at = _structure(*map(DecimalComplex.of, (p.q, p.alpha, p.beta, p.gamma, p.delta)))
        return lambda z: zip(*at(z, branch, False).terms())

    return zs.identity_residuals(shifts)
