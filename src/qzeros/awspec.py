"""Askey-Wilson spectral layer: structure functions, the matrix M, identity residuals.

The rational coefficient

    A(z) = (1-az)(1-bz)(1-cz)(1-dz) / [(1-z^2)(1-q z^2)]

drives everything: G(z) = A(z)(qz - 1/z), the pair kernel

    K(z_n, z_m) = (z_m - q z_n)(q z_n z_m - 1) / [(z_m - z_n)(z_n z_m - 1)],

and the N x N matrix M assembled from the N zeros z_1..z_N. Every formula
is evaluated twice, once on {z_s} and once on {1/z_s}, and the two halves
are summed; no algebraic simplification is applied to that symmetrization.
M's eigenvalues are predicted in closed form by

    mu_n = q^(-N) (1 - q^n) (1 - abcd q^(2N-1-n)),    n = 1..N,

which depends on a,b,c,d only through the product abcd
(report.spectrum_closed_form, shared with q-Racah).

A(z) is written once (_A); prop21_residuals evaluates it at WORKING_DPS
digits in numlin's ZeroSet.identity_residuals, the loop shared with q-Racah.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import guard as _guard
from .numlin import SpectralMatrix, ZeroSet
from .polyform import AWParams, ComplexScalar, DecimalComplex, _linear_products, z_to_x
from .report import spectrum_closed_form


@functools.lru_cache(maxsize=8)
def _A_factors(p: AWParams) -> tuple:
    """A's numerator 1 - a z, ..., 1 - d z as the (offsets, slopes) of polyform._linear_products,
    formed once per parameter set; DecimalComplex arithmetic converts them exactly."""
    return np.ones((4, 1), dtype=complex), -np.array([[p.a], [p.b], [p.c], [p.d]], dtype=complex)


def _A(q, factors, z, guards=lambda *_: None):
    """A(z) from _A_factors, elementwise on numpy arrays or on DecimalComplex (q and z, in its
    context); guards(1 - z^2, 1 - q z^2) runs before the division by them."""
    z2 = z * z
    den0, den1 = 1 - z2, 1 - q * z2
    guards(den0, den1)
    (numerator,) = _linear_products(*factors, z)[1]
    return numerator / (den0 * den1)


def eval_A(p: AWParams, z: ComplexScalar) -> ComplexScalar:
    """A(z) with guards on 1 - z^2 and 1 - q z^2; A(0) = 1. Elementwise."""
    guards = lambda den0, den1: _guard((abs(den0), "z^2-1"), (abs(den1), "q*z^2-1"))
    return _A(p.q, _A_factors(p), z, guards)


def eval_G_pair(p: AWParams, z: ComplexScalar) -> tuple[ComplexScalar, ComplexScalar]:
    """(G(z), G'(z)) with G = A(z)(qz - 1/z), differentiated exactly; elementwise.

    The numerator (qz - 1/z) prod (1 - p z) and denominator
    (1-z^2)(1-q z^2) are carried as (value, derivative) pairs so the
    quotient rule never divides by a numerator factor that may vanish.
    """
    z2 = z * z
    _guard((abs(z), "z"), (abs(1.0 - z2), "z^2-1"), (abs(1.0 - p.q * z2), "q*z^2-1"))
    uv, ud = p.q * z - 1.0 / z, p.q + 1.0 / z2
    for c in (p.a, p.b, p.c, p.d):
        f, fp = 1.0 - c * z, -c
        uv, ud = uv * f, ud * f + uv * fp
    dv = (1.0 - z2) * (1.0 - p.q * z2)
    dd = -2.0 * z * (1.0 - p.q * z2) - 2.0 * p.q * z * (1.0 - z2)
    return uv / dv, (ud * dv - uv * dd) / (dv * dv)


def eval_K(q: ComplexScalar, zn: ComplexScalar, zm: ComplexScalar) -> ComplexScalar:
    """Pair kernel K(z_n, z_m); collapses to 1 at q = 1. Elementwise."""
    d1 = zm - zn
    d2 = zn * zm - 1.0
    _guard((abs(d1), "z_n-z_m"), (abs(d2), "z_n*z_m-1"))
    return (zm - q * zn) * (q * zn * zm - 1.0) / (d1 * d2)


def _reciprocal(z: np.ndarray) -> np.ndarray:
    """1/z without a numpy warning; callers guard z itself first."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return 1.0 / z


@functools.lru_cache(maxsize=None)
def _off_diagonal(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the pairs n != m, in row-major order (shared: read only)."""
    return np.nonzero(~np.eye(n, dtype=bool))


def _kernel_matrix(q: ComplexScalar, w: np.ndarray) -> np.ndarray:
    """M's pair kernel K[n, m, j] = K(w[n, j], w[m, j]), n != m, ones on the diagonal, at w =
    (z_n, 1/z_n) side by side, (N, 2); the guards name the first failing pair, row-major."""
    rows, cols = _off_diagonal(len(w))
    k = np.ones((len(w),) + w.shape, dtype=complex)
    k[rows, cols, :] = eval_K(q, w[rows, :], w[cols, :])
    return k


def _matrix_half(
    q: ComplexScalar, w: np.ndarray, G: np.ndarray, Gp: np.ndarray, K: np.ndarray
) -> np.ndarray:
    """One symmetrization half of M, on coordinates w (either z or 1/z)."""
    n = len(w)
    rows, cols = _off_diagonal(n)
    wi, wm = w[rows], w[cols]
    d1 = wm - q * wi
    d2 = q * wi * wm - 1.0
    d3 = wm - wi
    d4 = wi * wm - 1.0
    # d3 and d4 are K's denominators, which eval_K has guarded on these same values
    _guard((abs(d1), "z_m-q*z_n"), (abs(d2), "q*z_n*z_m-1"))
    prod_k = np.prod(K, axis=1)
    pref = 2.0 * w * w / (w * w - 1.0)
    diag_sum = (-q / d1 + q * wm / d2 + 1.0 / d3 - wm / d4).reshape(n, n - 1).sum(axis=1)
    bracket = 1.0 / d1 + q * wi / d2 - 1.0 / d3 - wi / d4
    half = np.diag((pref * G * diag_sum + pref * Gp) * prod_k)
    half[rows, cols] = pref[cols] * G[rows] * bracket * prod_k[rows]
    return half


def build_matrix_M(p: AWParams, zs: ZeroSet) -> SpectralMatrix:
    """Assemble M from the zeros; its predicted spectrum is mu_1..mu_N.

    Each column of (z_n, 1/z_n) gives one half of M. The point guards run before the pair
    guards, each over the whole array and naming the first failing point or pair in row-major order.
    """
    z = np.asarray(zs.zbar, dtype=complex)
    _guard(
        (abs(z), "z"),
        (abs(z * z - 1.0), "z^2-1"),
        (abs(p.q * z * z - 1.0), "q*z^2-1"),
        (abs(z * z - p.q), "z^2-q"),
    )
    rows, cols = _off_diagonal(len(z))
    _guard((abs(z[rows] - z[cols]), "z_n-z_m"), (abs(z[rows] * z[cols] - 1.0), "z_n*z_m-1"))
    zw = np.stack([z, _reciprocal(z)], axis=1)
    G, Gp = eval_G_pair(p, zw)
    K = _kernel_matrix(p.q, zw)
    halves = [_matrix_half(p.q, zw[:, j], G[:, j], Gp[:, j], K[:, :, j]) for j in (0, 1)]
    scale = (p.q - 1.0) / (2.0 * p.q**p.N)
    entries = scale * (halves[0] + halves[1])
    predicted = np.array(spectrum_closed_form(p.q, p.product, p.shift, p.N))
    return SpectralMatrix(entries=entries, predicted=predicted, label="M")


def prop21_residuals(p: AWParams, zs: ZeroSet) -> np.ndarray:
    """Normalized residuals of the zero identities

    A(z_n) p_N((q^2 z_n^2+1)/(2q z_n)) + A(1/z_n) p_N((z_n^2+q^2)/(2q z_n)) = 0.

    Each residual is |sum| / (|term1| + |term2| + floor); a validated zero
    set drives them to rounding level, while an off-zero point does not.
    The identity sharpens dramatically at small q and larger N (its value
    moves by ~1e8 per unit relative zero displacement at q = 0.3, N = 10),
    to the point that a double-rounded zero cannot satisfy it to 1e-8 at
    all. A, by eval_A's formula, and p_N, through the zero set's
    recurrence, therefore run at WORKING_DPS digits at the high-precision
    zeros (``ZeroSet.identity_residuals``); a zero set whose ``zbar`` was
    perturbed or hand-built is measured at its doubles and reports
    honestly large residuals.
    """
    eval_A(p, np.asarray(zs.zbar, dtype=complex))  # enforce the guards on the stored zeros

    def terms(rec):
        q = DecimalComplex.of(p.q)
        factors = [[list(map(DecimalComplex.of, row)) for row in part] for part in _A_factors(p)]
        return lambda z: (
            _A(q, factors, z) * rec.value(z_to_x(q * z)),
            _A(q, factors, 1 / z) * rec.value(z_to_x(z / q)),
        )

    return zs.identity_residuals(p, terms)
