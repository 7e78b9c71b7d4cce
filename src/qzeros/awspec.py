"""Askey-Wilson spectral layer: structure functions, the matrix M, checks.

The rational coefficient

    A(z) = (1-az)(1-bz)(1-cz)(1-dz) / [(1-z^2)(1-q z^2)]

drives everything: G(z) = A(z)(qz - 1/z), the pair kernel

    K(z_n, z_m) = (z_m - q z_n)(q z_n z_m - 1) / [(z_m - z_n)(z_n z_m - 1)],

and the N x N matrix M assembled from the N zeros z_1..z_N. Every formula
is evaluated twice, once on {z_s} and once on {1/z_s}, and the two halves
are summed; no algebraic simplification is applied to that symmetrization.
M's eigenvalues are predicted in closed form by

    mu_n = q^(-N) (1 - q^n) (1 - abcd q^(2N-1-n)),    n = 1..N,

which depends on a,b,c,d only through the product abcd.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import mpmath
import numpy as np

from .errors import GUARD_EPS, QZerosError, guard as _guard
from .numlin import (
    SpectralMatrix,
    ZeroSet,
    compute_zero_set,
    determinant,
    eigenvalues,
    match_spectra,
)
from .polyform import WORKING_DPS, AWParams, ComplexScalar, _mpc
from .qkernel import qpochhammer
from .report import (
    VerificationReport,
    as_rational,
    rational_spectrum,
    rel_residual,
    resolve_tolerances,
)

_FLOOR = float(np.finfo(float).tiny)

#: Parameter scalings (t*a, b/t, c, d) used by the isospectrality sweep.
ISOSPECTRAL_T_VALUES = (0.5, 2.0, 1.0 + 0.3j)


def eval_A(p: AWParams, z: ComplexScalar) -> ComplexScalar:
    """A(z) with guards on 1 - z^2 and 1 - q z^2; A(0) = 1. Elementwise."""
    z2 = z * z
    _guard((abs(1.0 - z2), "z^2-1"), (abs(1.0 - p.q * z2), "q*z^2-1"))
    num = (1.0 - p.a * z) * (1.0 - p.b * z) * (1.0 - p.c * z) * (1.0 - p.d * z)
    return num / ((1.0 - z2) * (1.0 - p.q * z2))


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


def _off_diagonal(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the pairs n != m, in row-major order."""
    return np.nonzero(~np.eye(n, dtype=bool))


def _kernel_matrix(q: ComplexScalar, w: np.ndarray) -> np.ndarray:
    """K[n, m, ...] = K(w[n, ...], w[m, ...]) for n != m, ones on the diagonal.

    The pair kernel of both the flow velocity and M, whose row products are
    prod_{l!=n} K(w_n, w_l). Trailing axes of w (z_n and 1/z_n stacked) are
    kept. The guards name the first failing pair in row-major order.
    """
    n = len(w)
    rows, cols = _off_diagonal(n)
    k = np.ones((n, n) + w.shape[1:], dtype=complex)
    k[rows, cols] = eval_K(q, w[rows], w[cols])
    return k


@dataclass
class AWStructureEval:
    """Structure functions at the zeros and their reciprocals, as arrays.

    The *_plus arrays hold values at z_n, the *_minus arrays at 1/z_n;
    K_plus[n, l] = K(z_n, z_l) and K_minus[n, l] = K(1/z_n, 1/z_l), both
    from _kernel_matrix (the diagonal is unused and holds ones).
    """

    A_plus: np.ndarray
    A_minus: np.ndarray
    G_plus: np.ndarray
    G_minus: np.ndarray
    Gp_plus: np.ndarray
    Gp_minus: np.ndarray
    K_plus: np.ndarray
    K_minus: np.ndarray


def eval_structure(p: AWParams, zs: ZeroSet) -> AWStructureEval:
    """Evaluate A, G, G' and K at every zero and every reciprocal zero.

    The point guards run before the pair guards, each over the whole array
    and naming the first failing point or pair in row-major order.
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
    # each array's last axis unpacks into its (at z_n, at 1/z_n) fields
    return AWStructureEval(*eval_A(p, zw).T, *G.T, *Gp.T, *K.transpose(2, 0, 1))


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
    _guard(
        (abs(d1), "z_m-q*z_n"),
        (abs(d2), "q*z_n*z_m-1"),
        (abs(d3), "z_n-z_m"),
        (abs(d4), "z_n*z_m-1"),
    )
    prod_k = np.prod(K, axis=1)
    pref = 2.0 * w * w / (w * w - 1.0)
    diag_sum = (-q / d1 + q * wm / d2 + 1.0 / d3 - wm / d4).reshape(n, n - 1).sum(axis=1)
    bracket = 1.0 / d1 + q * wi / d2 - 1.0 / d3 - wi / d4
    half = np.diag((pref * G * diag_sum + pref * Gp) * prod_k)
    half[rows, cols] = pref[cols] * G[rows] * bracket * prod_k[rows]
    return half


def build_matrix_M(p: AWParams, zs: ZeroSet) -> SpectralMatrix:
    """Assemble M from the zeros; its predicted spectrum is mu_1..mu_N."""
    se = eval_structure(p, zs)
    z = np.asarray(zs.zbar, dtype=complex)
    w_flip = _reciprocal(z)
    half_plus = _matrix_half(p.q, z, se.G_plus, se.Gp_plus, se.K_plus)
    half_minus = _matrix_half(p.q, w_flip, se.G_minus, se.Gp_minus, se.K_minus)
    scale = (p.q - 1.0) / (2.0 * p.q**p.N)
    entries = scale * (half_plus + half_minus)
    return SpectralMatrix(entries=entries, predicted=predicted_mu(p), label="M")


def predicted_mu(p: AWParams) -> np.ndarray:
    """mu_n = q^(-N) (1 - q^n) (1 - abcd q^(2N-1-n)), n = 1..N."""
    q = p.q
    qinv_n = q ** -p.N
    return np.array(
        [
            qinv_n * (1.0 - q**n) * (1.0 - p.abcd * q ** (2 * p.N - 1 - n))
            for n in range(1, p.N + 1)
        ]
    )


def prop21_residuals(p: AWParams, zs: ZeroSet) -> np.ndarray:
    """Normalized residuals of the zero identities

    A(z_n) p_N((q^2 z_n^2+1)/(2q z_n)) + A(1/z_n) p_N((z_n^2+q^2)/(2q z_n)) = 0.

    Each residual is |sum| / (|term1| + |term2| + floor); a validated zero
    set drives them to rounding level, while an off-zero point does not.
    The identity sharpens dramatically at small q and larger N (its value
    moves by ~1e8 per unit relative zero displacement at q = 0.3, N = 10),
    to the point that a double-rounded zero cannot satisfy it to 1e-8 at
    all; where the zero set carries its pre-rounding zeros and they still
    agree with the stored doubles, the residual is therefore evaluated at
    the high-precision zeros. p_N is evaluated through the zero set's
    mpmath recurrence. A zero set whose ``zbar`` was perturbed or
    hand-built is measured at its doubles and reports honestly large
    residuals.
    """
    rec = zs.recurrence_for(p)
    eval_A(p, np.asarray(zs.zbar, dtype=complex))  # enforce the guards on the stored zeros
    out = np.empty(len(zs.zbar))
    with mpmath.workdps(WORKING_DPS):
        q = _mpc(p.q)
        abcd = [_mpc(v) for v in (p.a, p.b, p.c, p.d)]

        def a_of(z):
            num = mpmath.mpc(1)
            for c in abcd:
                num *= 1 - c * z
            return num / ((1 - z * z) * (1 - q * z * z))

        def p_at(w):
            return rec.value((w * w + 1) / (2 * w))

        for i, z in enumerate(zs.zbar):
            hp = _zero_hp_matching(zs, i)
            z_hp = _mpc(z) if hp is None else hp
            t1 = a_of(z_hp) * p_at(q * z_hp)
            t2 = a_of(1 / z_hp) * p_at(z_hp / q)
            out[i] = float(abs(t1 + t2) / (abs(t1) + abs(t2) + _FLOOR))
    return out


def _zero_hp_matching(zs: ZeroSet, i: int):
    """The high-precision z-plane zero for index i, or None if unusable.

    The x-plane value maps to two z candidates; the one matching the stored
    ``zbar[i]`` (to 1e-12 relative) is returned, so per-coordinate branch
    flips keep their high-precision counterpart while perturbed zero sets
    lose it and are measured at face value.
    """
    if zs.zeros_hp is None:
        return None
    with mpmath.workdps(WORKING_DPS):
        x = zs.zeros_hp[i]
        w = x + mpmath.sqrt(x * x - 1)
        target = zs.zbar[i]
        best = min((w, 1 / w), key=lambda v: abs(complex(v) - target))
        if abs(complex(best) - target) <= 1e-12 * max(1.0, abs(target)):
            return best
    return None


def apply_Q_operator(
    p: AWParams, f: Callable[[ComplexScalar], ComplexScalar], z: ComplexScalar
) -> ComplexScalar:
    """Q f(z) = A(z) f(qz) + A(1/z) f(z/q) - [A(z) + A(1/z)] f(z).

    The rational form P_N is an eigenfunction with eigenvalue
    (q^(-N) - 1)(1 - abcd q^(N-1)).
    """
    _guard((abs(z), "z"))
    a_plus = eval_A(p, z)
    a_minus = eval_A(p, 1.0 / z)
    return a_plus * f(p.q * z) + a_minus * f(z / p.q) - (a_plus + a_minus) * f(z)


def q_eigenvalue(p: AWParams) -> ComplexScalar:
    """The Q-operator eigenvalue (q^(-N) - 1)(1 - abcd q^(N-1)) on P_N."""
    return (p.q**-p.N - 1.0) * (1.0 - p.abcd * p.q ** (p.N - 1))


def trace_closed_form(p: AWParams) -> ComplexScalar:
    """Sum of the diagonal of M in closed form:

    N (q^(-N) + abcd q^(N-1)) + (1 - q^(-N))/(1 - q) (q + abcd q^(N-1)).
    """
    q = p.q
    pw = p.abcd * q ** (p.N - 1)
    return p.N * (q**-p.N + pw) + (1.0 - q**-p.N) / (1.0 - q) * (q + pw)


def det_closed_form(p: AWParams) -> ComplexScalar:
    """det M = q^(-N^2) (q;q)_N (abcd q^(N-1);q)_N."""
    q = p.q
    return (
        q ** -(p.N * p.N)
        * qpochhammer(q, q, p.N)
        * qpochhammer(p.abcd * q ** (p.N - 1), q, p.N)
    )


def verify_corollaries(
    p: AWParams,
    m: SpectralMatrix,
    tolerances: Optional[dict] = None,
    t_values: Sequence[complex] = ISOSPECTRAL_T_VALUES,
) -> VerificationReport:
    """Trace and determinant identities, rationality, isospectrality.

    Check failures are recorded in the report, never raised.
    """
    tols = resolve_tolerances(tolerances)
    report = VerificationReport(family="aw", params=p)
    mu = m.predicted
    mat = m.entries

    power = np.eye(len(mat), dtype=complex)
    for k in (1, 2, 3):
        power = power @ mat
        target = complex(np.sum(mu**k))
        report.add(
            f"cor2.2.3-trace-k{k}",
            rel_residual(complex(np.trace(power)) - target, target),
            tols["spectrum_match"],
            ["cor2.2.3"],
        )
    closed = trace_closed_form(p)
    report.add(
        "cor2.2.3-trace-closed-form",
        rel_residual(complex(np.trace(mat)) - closed, closed),
        tols["spectrum_match"],
        ["cor2.2.3"],
    )
    det_target = det_closed_form(p)
    report.add(
        "cor2.2.3-det",
        rel_residual(determinant(mat) - det_target, det_target),
        tols["spectrum_match"],
        ["cor2.2.3"],
    )

    qfrac = as_rational(p.q)
    prodfrac = as_rational(p.abcd)
    if qfrac is not None and prodfrac is not None:
        exact = rational_spectrum(qfrac, prodfrac, p.N, shift=-1)
        match = match_spectra(eigenvalues(mat), np.array([float(f) for f in exact], dtype=complex))
        report.add(
            "cor2.2.1-diophantine", match.max_abs_gap, tols["diophantine"], ["cor2.2.1"]
        )

    base_spectrum = eigenvalues(mat)
    worst = None
    for t in t_values:
        try:
            swept = replace(p, a=t * p.a, b=p.b / t)
            m_swept = build_matrix_M(swept, compute_zero_set(swept, polish=False))
        except (QZerosError, ValueError):
            # this scaling lands outside the admissible parameter set;
            # isospectrality is only claimed within it
            continue
        gap = match_spectra(eigenvalues(m_swept.entries), base_spectrum).max_rel_gap
        worst = gap if worst is None else max(worst, gap)
    if worst is not None:
        report.add("cor2.2.2-isospectral", worst, tols["spectrum_match"], ["cor2.2.2"])
    return report
