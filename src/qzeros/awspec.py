"""Askey-Wilson spectral layer: the structure function A, the matrix M, identity residuals.

The rational coefficient

    A(z) = (1-az)(1-bz)(1-cz)(1-dz) / [(1-z^2)(1-q z^2)]

drives everything. The flow and M take numlin's operator form in t = x = (z + 1/z)/2, its
shifts the halves w = z, 1/z of each zero: c = A(w), s = x(qw). M, its Jacobian at the N
zeros (numlin.operator_matrix), takes the x-slopes A'(w) dw/dx and (q - 1/(q w^2))/2 dw/dx,
dw/dx = 2w^2/(w^2 - 1). This is the paper's (q-1)/(2 q^N) [G(z_n) prod_{l!=n} K(z_n, z_l)
+ (z -> 1/z)], G(z) = A(z)(qz - 1/z), K(z_n, z_m) = q (x(q z_n) - x_m)/(x_n - x_m), never
divided by K's numerator (z_m - q z_n)(q z_n z_m - 1). Only what the form divides by is
guarded: z, z^2-1 and q*z^2-1 on both halves, and the one pair divisor x_n - x_m = (z_n -
z_m)(z_n z_m - 1)/(2 z_n z_m), as x_n-x_m in numlin. M's spectrum is predicted by

    mu_n = q^(-N) (1 - q^n) (1 - abcd q^(2N-1-n)),    n = 1..N,

which depends on a,b,c,d only through the product abcd
(report.spectrum_closed_form, shared with q-Racah).

The terms (c, s) and their x-slopes are written once (_terms): the flow and M stack them,
prop21_residuals takes them at WORKING_DPS digits, for numlin's
ZeroSet.identity_residuals to form the identity. All three run the point guards of
_operator_terms, once per call.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import clear, guard as _guard
from .numlin import SpectralMatrix, ZeroSet, _spectral_matrix, operator_matrix
from .polyform import (
    AWParams,
    DecimalComplex,
    _linear_products,
    _product_slope,
)


@functools.lru_cache(maxsize=8)
def _A_factors(p: AWParams) -> tuple:
    """A's numerator 1 - a z, ..., 1 - d z as the (offsets, slopes) of polyform._linear_products,
    formed once per parameter set; DecimalComplex arithmetic converts them exactly."""
    return np.ones((4, 1), dtype=complex), -np.array([[p.a], [p.b], [p.c], [p.d]], dtype=complex)


def _A(q, factors, z, guards=lambda *_: None, slope: bool = False):
    """A(z) from _A_factors, elementwise on numpy arrays or on DecimalComplex (q and z, in its
    context); guards(1 - z^2, 1 - q z^2) runs before the division by them. With ``slope``,
    (A(z), A'(z)) by the product and quotient rules."""
    z2 = z * z
    den0, den1 = 1 - z2, 1 - q * z2
    guards(den0, den1)
    linear, (numerator,) = _linear_products(*factors, z)
    value = numerator / (den0 * den1)
    if not slope:
        return value
    numerator_slope = _product_slope(linear[:, 0], factors[1][:, 0])
    return value, (numerator_slope + value * 2 * z * (den1 + q * den0)) / (den0 * den1)


def _guard_halves(*checks) -> None:
    """guard on magnitudes stacked by half as (2, ...), named as (z_n, 1/z_n) side by side."""
    if not clear(*(m for m, _ in checks)):
        _guard(*((np.moveaxis(m, 0, -1), name) for m, name in checks))


def _terms(q, factors, w, guards=lambda *_: None, slopes: bool = False) -> tuple:
    """The operator terms (c, s) = (A(w), x(qw)) of the half w, with ``slopes`` (c, dc/dx, s,
    ds/dx), dw/dx = 2w^2/(w^2 - 1); arithmetic and guards as _A."""
    c, qw = _A(q, factors, w, guards, slopes), q * w
    s = 0.5 * (qw + 1.0 / qw)
    if not slopes:
        return c, s
    (c, c_slope), dwdx = c, 2.0 * w * w / (w * w - 1.0)
    return c, c_slope * dwdx, s, 0.5 * (q - 1.0 / (qw * w)) * dwdx


def _operator_terms(p: AWParams, z: np.ndarray, slopes: bool = False) -> tuple:
    """_terms on the halves w = z, 1/z of z (..., N), stacked as (2, ..., N), and the name of
    the pair guard, x_n-x_m. Each half is guarded as A, after z: z^2-1 and q*z^2-1."""
    with np.errstate(divide="ignore", invalid="ignore"):  # the guard on z comes next
        w = np.array((z, 1.0 / z))
    _guard_halves((abs(w), "z"))
    guards = lambda den0, den1: _guard_halves((abs(den0), "z^2-1"), (abs(den1), "q*z^2-1"))
    return (*_terms(p.q, _A_factors(p), w, guards, slopes), "x_n-x_m")


def build_matrix_M(p: AWParams, zs: ZeroSet) -> SpectralMatrix:
    """Assemble M from the zeros; its predicted spectrum is mu_1..mu_N. The guards of
    _operator_terms run in its order, each naming the first failing point or pair."""
    z = np.asarray(zs.zbar, dtype=complex)
    entries = lambda: operator_matrix(0.5 * (z + 1.0 / z), *_operator_terms(p, z, slopes=True))
    return _spectral_matrix(p, "M", entries)


def prop21_residuals(p: AWParams, zs: ZeroSet) -> np.ndarray:
    """Normalized residuals of the zero identities

    A(z_n) p_N((q^2 z_n^2+1)/(2q z_n)) + A(1/z_n) p_N((z_n^2+q^2)/(2q z_n)) = 0.

    Each residual is |sum| / (|term1| + |term2| + floor); a validated zero
    set drives them to rounding level, while an off-zero point does not.
    The identity sharpens dramatically at small q and larger N (its value
    moves by ~1e8 per unit relative zero displacement at q = 0.3, N = 10),
    to the point that a double-rounded zero cannot satisfy it to 1e-8 at
    all. The terms, by the flow's _terms, and p_N, through the zero set's
    recurrence, therefore run at WORKING_DPS digits at the high-precision
    zeros (``ZeroSet.identity_residuals``); a zero set whose ``zbar`` was
    perturbed or hand-built is measured at its doubles and reports
    honestly large residuals.
    """
    _operator_terms(p, np.asarray(zs.zbar, dtype=complex))  # the point guards, on both halves

    def shifts():
        q = DecimalComplex.of(p.q)
        factors = [[list(map(DecimalComplex.of, row)) for row in part] for part in _A_factors(p)]
        return lambda z: [_terms(q, factors, w) for w in (z, 1 / z)]

    return zs.identity_residuals(shifts)
