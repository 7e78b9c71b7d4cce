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

import cmath
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import mpmath
import numpy as np

from .errors import BranchDegenerate, QZerosError, SingularConfiguration
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

GUARD_EPS = 1e-10

_FLOOR = float(np.finfo(float).tiny)

#: Parameter scalings (t*alpha, beta/t) used by the isospectrality sweep.
ISOSPECTRAL_T_VALUES = (0.5, 2.0, 1.0 + 0.3j)


def _guard(magnitude: float, name: str) -> None:
    if not magnitude > GUARD_EPS:
        raise SingularConfiguration(name, magnitude)


def shift_targets(
    q: ComplexScalar, gammadelta: ComplexScalar, z: ComplexScalar, branch: int = +1
) -> tuple[ComplexScalar, ComplexScalar]:
    """The q-shifted images (z^(+), z^(-)) of z.

    Well defined even at gamma*delta = 0; at a vanishing discriminant both
    images collapse to (1+q^2)/(2q) z.
    """
    s = branch * cmath.sqrt(z * z - 4.0 * gammadelta * q)
    corr = (1.0 - q * q) / (2.0 * q) * (z - s)
    return q * z + corr, z / q - corr


@dataclass
class _PointStructure:
    """B, D and friends at one point, one branch."""

    z_plus: ComplexScalar
    z_minus: ComplexScalar
    Zval: ComplexScalar
    Bval: ComplexScalar
    Dval: ComplexScalar
    Bp: ComplexScalar
    Dp: ComplexScalar
    Cplus: ComplexScalar
    Cminus: ComplexScalar


def point_structure(p: RacahParams, z: ComplexScalar, branch: int) -> _PointStructure:
    q = p.q
    gd = p.gammadelta
    gdq = gd * q
    _guard(abs(gdq), "gamma*delta*q")
    disc = z * z - 4.0 * gdq
    if abs(disc) < GUARD_EPS:
        raise BranchDegenerate(
            f"z^2 - 4*gamma*delta*q = {disc:.3e}: shifted images collide at z = {z}"
        )
    s = branch * cmath.sqrt(disc)
    zval = (z + s) / (2.0 * gdq)
    dzdz = (1.0 + z / s) / (2.0 * gdq)  # dZ/dz, using dS/dz = z/S
    corr = (1.0 - q * q) / (2.0 * q)
    z_plus = q * z + corr * (z - s)
    z_minus = z / q - corr * (z - s)
    c_plus = q + corr * (1.0 - z / s)
    c_minus = 1.0 / q - corr * (1.0 - z / s)

    # B as a rational function of Z, with d/dZ carried by the product rule.
    al, be, ga, de = p.alpha, p.beta, p.gamma, p.delta
    nv, nd = 1.0 + 0.0j, 0.0 + 0.0j
    for c in (al * q, be * de * q, ga * q, gd * q):
        f, fp = 1.0 - c * zval, -c
        nv, nd = nv * f, nd * f + nv * fp
    z2 = zval * zval
    den1 = 1.0 - gdq * z2
    den2 = 1.0 - gd * q * q * z2
    _guard(abs(den1), "1-gamma*delta*q*Z^2")
    _guard(abs(den2), "1-gamma*delta*q^2*Z^2")
    dv = den1 * den2
    dd = -2.0 * gdq * zval * den2 - 2.0 * gd * q * q * zval * den1
    bval = nv / dv
    bp = ((nd * dv - nv * dd) / (dv * dv)) * dzdz

    nv, nd = q + 0.0j, 0.0 + 0.0j
    for c0, c1 in ((1.0, -1.0), (1.0, -de), (be, -ga), (al, -gd)):
        f, fp = c0 + c1 * zval, c1
        nv, nd = nv * f, nd * f + nv * fp
    den0 = 1.0 - gd * z2
    _guard(abs(den0), "1-gamma*delta*Z^2")
    dv = den0 * den1
    dd = -2.0 * gd * zval * den1 - 2.0 * gdq * zval * den0
    dval = nv / dv
    dp = ((nd * dv - nv * dd) / (dv * dv)) * dzdz

    return _PointStructure(
        z_plus=z_plus,
        z_minus=z_minus,
        Zval=zval,
        Bval=bval,
        Dval=dval,
        Bp=bp,
        Dp=dp,
        Cplus=c_plus,
        Cminus=c_minus,
    )


@dataclass
class RacahStructureEval:
    """Structure functions cached at the zeros (arrays indexed by zero).

    Wplus[n, m] and Wminus[n, m] hold the pair couplings
    W^(+/-)(z_n, z_m) = [C^(+/-)(z_n)(z_n - z_m) - z_n^(+/-) + z_m]
                        / [(z_n - z_m)(z_n^(+/-) - z_m)]
    with unused diagonals.
    """

    z_plus: np.ndarray
    z_minus: np.ndarray
    Zval: np.ndarray
    Bval: np.ndarray
    Dval: np.ndarray
    Bp: np.ndarray
    Dp: np.ndarray
    Cplus: np.ndarray
    Cminus: np.ndarray
    Wplus: np.ndarray
    Wminus: np.ndarray
    branch: int


def eval_structure(p: RacahParams, zs: ZeroSet, branch: int = +1) -> RacahStructureEval:
    """Evaluate z^(+/-), Z, B, D, B', D', C^(+/-), W^(+/-) at every zero."""
    z = np.asarray(zs.zbar, dtype=complex)
    n = len(z)
    pts = [point_structure(p, zi, branch) for zi in z]
    z_plus = np.array([pt.z_plus for pt in pts])
    z_minus = np.array([pt.z_minus for pt in pts])
    w_plus = np.zeros((n, n), dtype=complex)
    w_minus = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            d = z[i] - z[j]
            _guard(abs(d), "z_n-z_m")
            dp = z_plus[i] - z[j]
            dm = z_minus[i] - z[j]
            _guard(abs(dp), "z_n^(+)-z_m")
            _guard(abs(dm), "z_n^(-)-z_m")
            w_plus[i, j] = (pts[i].Cplus * d - z_plus[i] + z[j]) / (d * dp)
            w_minus[i, j] = (pts[i].Cminus * d - z_minus[i] + z[j]) / (d * dm)
    return RacahStructureEval(
        z_plus=z_plus,
        z_minus=z_minus,
        Zval=np.array([pt.Zval for pt in pts]),
        Bval=np.array([pt.Bval for pt in pts]),
        Dval=np.array([pt.Dval for pt in pts]),
        Bp=np.array([pt.Bp for pt in pts]),
        Dp=np.array([pt.Dp for pt in pts]),
        Cplus=np.array([pt.Cplus for pt in pts]),
        Cminus=np.array([pt.Cminus for pt in pts]),
        Wplus=w_plus,
        Wminus=w_minus,
        branch=branch,
    )


def build_matrix_L(p: RacahParams, zs: ZeroSet, branch: int = +1) -> SpectralMatrix:
    """Assemble L from the zeros; its predicted spectrum is lambda_1..lambda_N."""
    se = eval_structure(p, zs, branch=branch)
    z = np.asarray(zs.zbar, dtype=complex)
    n = len(z)
    entries = np.zeros((n, n), dtype=complex)
    for i in range(n):
        ratio_plus = 1.0 + 0.0j
        ratio_minus = 1.0 + 0.0j
        for l in range(n):
            if l == i:
                continue
            d = z[i] - z[l]
            ratio_plus *= (se.z_plus[i] - z[l]) / d
            ratio_minus *= (se.z_minus[i] - z[l]) / d
        dz_plus = se.z_plus[i] - z[i]
        dz_minus = se.z_minus[i] - z[i]
        sum_plus = sum(se.Wplus[i, m] for m in range(n) if m != i)
        sum_minus = sum(se.Wminus[i, m] for m in range(n) if m != i)
        entries[i, i] = (
            se.Bp[i] * dz_plus + se.Bval[i] * (se.Cplus[i] - 1.0 + dz_plus * sum_plus)
        ) * ratio_plus + (
            se.Dp[i] * dz_minus + se.Dval[i] * (se.Cminus[i] - 1.0 + dz_minus * sum_minus)
        ) * ratio_minus
        for m in range(n):
            if m == i:
                continue
            prod_plus = 1.0 + 0.0j
            prod_minus = 1.0 + 0.0j
            for l in range(n):
                if l == i or l == m:
                    continue
                d = z[i] - z[l]
                prod_plus *= (se.z_plus[i] - z[l]) / d
                prod_minus *= (se.z_minus[i] - z[l]) / d
            dim = z[i] - z[m]
            entries[i, m] = (
                se.Bval[i] * (dz_plus / dim) ** 2 * prod_plus
                + se.Dval[i] * (dz_minus / dim) ** 2 * prod_minus
            )
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
    out = np.empty(len(zs.zbar))
    with mpmath.workdps(WORKING_DPS):
        q, al, be, ga, de = (_mpc(v) for v in (p.q, p.alpha, p.beta, p.gamma, p.delta))
        gd = ga * de
        gdq = gd * q
        corr = (1 - q * q) / (2 * q)
        for i, z in enumerate(zs.zbar):
            point_structure(p, z, branch)  # enforces the structure guards
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
