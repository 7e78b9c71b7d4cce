"""Numerical kernels: zero finding, eigenvalues, spectrum matching.

Zero finding follows Golub & Welsch (Math. Comp. 23, 1969): the N zeros of
a family polynomial are the eigenvalues of the N x N tridiagonal (Jacobi)
matrix of its monic three-term recurrence (Koekoek-Lesky-Swarttouw 2010,
eq. 14.1.4 for Askey-Wilson and eq. 14.2.3 for q-Racah; see
``polyform.recurrence_coefficients``). The double-precision eigenvalues
seed one Newton polish per zero on the recurrence and its differentiated
form, at ``polyform.WORKING_DPS`` digits on ``polyform.DecimalComplex``
(the C ``decimal`` module), or in double where only spectra at 1e-6 are
needed. Unlike the q-series sums or a monomial expansion, the recurrence
does not cancel catastrophically at small q and large N. Each zero is
certified by its final Newton step; zeros are returned sorted ascending
by (real, imaginary) so repeated runs produce identical sequences.

Both families' flows take one operator form in two shifts (c, s), _operator_velocity,

    v_n = sum_(+/-) c_+/-(t_n) (s_+/-(t_n) - t_n) prod_{l!=n} (s_+/-(t_n) - t_l)/(t_n - t_l),

whose Jacobian at the zeros, M or L, is operator_matrix, and whose numerators at the zeros,
sum_(+/-) c_+/-(t_n) P_N(s_+/-(t_n)) = 0, are the zero identities: ZeroSet.identity_residuals
forms them at WORKING_DPS digits. awspec and racahspec supply each family's terms (c, s),
written once for all three, with the point guards of their divisors. The form's one pair
divisor, t_n - t_m, is guarded here (_differences), under the name the family gives it:
x_n-x_m for Askey-Wilson, z_n-z_m for q-Racah.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from decimal import Decimal
from typing import Optional, Union

import numpy as np

from .errors import DegenerateConfiguration, LengthMismatch, NoConvergence, guard
from .polyform import (
    AWParams,
    ComplexScalar,
    DecimalComplex,
    RacahParams,
    Recurrence,
    pair_value_and_derivative,
    recurrence_coefficients,
    x_to_z,
)

#: A double-precision polish must end on a relative Newton step at most this large.
RESIDUAL_BOUND = 1e-10
#: A double polish with a final step above this takes one more step at WORKING_DPS digits.
#: On the verify grid's re-solves 1e-13 to 5e-13 gave the same verdicts; 5e-14 failed a cell.
NOISY_DOUBLE_STEP = 3e-13
#: Pairwise zero separations below this fraction of the spread are rejected.
DEGENERACY_THRESHOLD = 1e-8
#: Newton iteration cap per seed.
MAX_NEWTON_STEPS = 50
#: Added to |t1| + |t2| in an identity residual, so that two vanishing terms give 0, not 0/0.
_FLOOR = Decimal(float(np.finfo(float).tiny))
#: A double-precision polish stops once its relative Newton step is this small.
_DOUBLE_STEP_TARGET = 1e-15


@dataclass
class ZeroSet:
    """Computed zeros of one family instance, with residual bookkeeping.

    Where the recurrence runs in x (``params.recurrence_in_x``, Askey-Wilson)
    ``xbar`` holds the zeros of the degree-N polynomial in x and ``zbar``
    their images z = x + sqrt(x^2-1) under the principal branch; otherwise
    (q-Racah) ``zbar`` holds the polynomial zeros directly and ``xbar`` is
    None. ``min_separation`` is the smallest pairwise distance within
    ``zbar`` (infinity when N = 1).

    ``residuals[i]`` is the size of the final Newton step that certified
    zero i, relative to max(1, |zero|), in the variable of the recurrence.

    ``zeros_hp``, when present, holds the same zeros (x-plane for
    Askey-Wilson, z-plane for q-Racah) as DecimalComplex values at
    WORKING_DPS digits, before the rounding to double, and
    ``recurrence_hp`` the DecimalComplex recurrence they were polished on; the
    identity-residual checks (``identity_residuals``) evaluate P_N through it
    at the high-precision zeros, which must still match the stored doubles.
    Both are None for an unpolished (double-precision) zero set.
    """

    params: Union[AWParams, RacahParams]
    zbar: np.ndarray
    xbar: Optional[np.ndarray]
    residuals: np.ndarray
    min_separation: float
    zeros_hp: Optional[list] = None
    recurrence_hp: Optional[Recurrence] = None

    def identity_residuals(self, shifts) -> np.ndarray:
        """|t1 + t2| / (|t1| + |t2| + _FLOOR) per zero of the identity t1 + t2 = 0, t_j =
        c_j P_N(s_j) over the shifts (c_j, s_j) of shifts()(z). P_N runs on the carried
        recurrence, else a fresh one, and everything in its arithmetic (WORKING_DPS digits),
        so shifts() forms its constants there, once. z is the high-precision zero while it
        matches ``zbar[i]`` to 1e-12 relative (of the z images w, 1/w of a zero in x, the
        one that does), else ``zbar[i]``: perturbed sets at face value.
        """
        rec = self.recurrence_hp or recurrence_coefficients(self.params, hp=True)
        out = np.empty(len(self.zbar))
        with rec.arithmetic():
            at = shifts()
            for i, target in enumerate(self.zbar):
                z = None if self.zeros_hp is None else self.zeros_hp[i]
                if z is not None and self.xbar is not None:
                    z = x_to_z(z)
                    z = min((z, 1 / z), key=lambda v: abs(complex(v) - target))
                if z is None or not abs(complex(z) - target) <= 1e-12 * max(1.0, abs(target)):
                    z = DecimalComplex.of(target)
                t1, t2 = (c * rec.value(s) for c, s in at(z))
                out[i] = float(abs(t1 + t2) / (abs(t1) + abs(t2) + _FLOOR))
        return out


@dataclass
class SpectralMatrix:
    """A dense complex matrix together with its predicted closed-form spectrum."""

    entries: np.ndarray
    predicted: np.ndarray
    label: str  # "M" or "L"

    @property
    def size(self) -> int:
        return self.entries.shape[0]


@dataclass
class SpectrumMatch:
    """Optimal assignment between a computed and a predicted spectrum."""

    pairing: np.ndarray  # pairing[i] = predicted index matched to computed[i]
    max_abs_gap: float
    max_rel_gap: float


def _jacobi_eigenvalues(rec: Recurrence) -> np.ndarray:
    """Double-precision zeros of P_N: eigenvalues of the symmetrized Jacobi matrix."""
    diag = np.array([complex(v) for v in rec.b])
    off = np.sqrt(np.array([complex(v) for v in rec.c[1:]]))
    if not (np.all(np.isfinite(diag)) and np.all(np.isfinite(off))):
        raise NoConvergence("three-term recurrence coefficients overflow double precision")
    return np.linalg.eigvals(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))


def _newton(rec: Recurrence, x, target: float):
    """Newton on P_N from x; returns (zero, final step relative to max(1, |zero|)).

    Stops at the target, or once the steps stop shrinking (the evaluation
    noise floor). With DecimalComplex entries the steps run on Decimal pairs
    from x converted once, and compare squared relative steps, so that only
    the final step takes square roots.
    """
    if rec.pairs is None:
        step_rel = math.inf
        with rec.arithmetic():
            for _ in range(MAX_NEWTON_STEPS):
                v, d = rec.value_and_derivative(x)
                if d == 0:
                    break
                step = v / d
                x = x - step
                prev, step_rel = step_rel, float(abs(step)) / max(1.0, float(abs(x)))
                if step_rel <= target or step_rel >= prev:
                    break
        return x, step_rel
    with rec.arithmetic():
        x = DecimalComplex.of(x)
        xr, xi, s2, rel2 = x.real, x.imag, None, None
        for _ in range(MAX_NEWTON_STEPS):
            vr, vi, dr, di = pair_value_and_derivative(rec.pairs, xr, xi)
            den = dr * dr + di * di
            if not den:
                break
            sr, si = (vr * dr + vi * di) / den, (vi * dr - vr * di) / den  # DecimalComplex's v / d
            xr, xi = xr - sr, xi - si
            s2, x2 = sr * sr + si * si, xr * xr + xi * xi
            prev2, rel2 = rel2, s2 / max(Decimal(1), x2)
            if rel2 <= Decimal(target) ** 2 or (prev2 is not None and rel2 >= prev2):
                break
        step_rel = math.inf if s2 is None else float(s2.sqrt()) / max(1.0, float(x2.sqrt()))
    return DecimalComplex(xr, xi), step_rel


def find_polynomial_zeros(rec: Recurrence) -> tuple[list, np.ndarray]:
    """All zeros of the recurrence's P_N, Jacobi-seeded and Newton-polished once.

    Polishing runs in the recurrence's own arithmetic: DecimalComplex at
    ``rec.dps`` digits, where the final relative Newton step must reach
    10^-(dps/2) (quadratic convergence then leaves the zero accurate to the
    working precision), or double, where it must reach RESIDUAL_BOUND.
    Returns the zeros in that arithmetic, sorted by the (real, imaginary)
    parts of their doubles, with their final relative steps. Raises
    NoConvergence when a step bound is missed and DegenerateConfiguration
    when two zeros come closer than 1e-8 times the zero spread.
    """
    degree = rec.degree
    if degree < 1:
        raise ValueError("degree must be at least 1")
    if rec.dps is None:
        target = _DOUBLE_STEP_TARGET
        bound = RESIDUAL_BOUND
    else:
        target = bound = 10.0 ** -(rec.dps // 2)
    zeros, steps = [], []
    for seed in _jacobi_eigenvalues(rec):
        zero, step = _newton(rec, complex(seed), target)
        if not step <= bound:
            raise NoConvergence(
                f"zero polishing stalled at relative Newton step {step:.3e} "
                f"(bound {bound:.0e}) near {complex(zero)}"
            )
        zeros.append(zero)
        steps.append(step)

    values = np.array([complex(z) for z in zeros])
    if degree > 1:
        diffs = np.abs(values[:, None] - values[None, :])
        spread = float(diffs.max())
        off = diffs + np.diag(np.full(degree, np.inf))
        closest = float(off.min())
        if closest < DEGENERACY_THRESHOLD * spread:
            raise DegenerateConfiguration(
                f"two zeros separated by {closest:.3e} (spread {spread:.3e}); "
                "downstream matrices divide by pairwise differences"
            )
    order = np.lexsort((values.imag, values.real))
    return [zeros[i] for i in order], np.array(steps)[order]


def eigenvalues(mat: np.ndarray) -> np.ndarray:
    """Eigenvalue multiset of a dense complex matrix (balanced Hessenberg QR)."""
    m = np.asarray(mat, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.view(float))):
        raise ValueError("matrix entries must be finite")
    try:
        return np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - pathological input
        raise NoConvergence(f"eigenvalue iteration did not converge: {exc}") from exc


def christoffel_darboux_eigenvalues(entries: np.ndarray) -> np.ndarray:
    """Eigenvalues of A = M or L as those of S^-1 A S, complex symmetric for the diagonal S_n^2
    = P_{N-1}(t_n) / P_N'(t_n) (Christoffel-Darboux; Szego, Orthogonal Polynomials, 3.2), so far
    better conditioned. In double that formula loses every digit at zeros in a q-string, so S is
    read off A: S_m^2 = S_n^2 A_mn / A_nm along a maximum spanning tree of |A_nm A_mn| (Prim's),
    from S_0 = 1. A as given where S is 0 or not finite."""
    n = len(entries)
    with np.errstate(all="ignore"):  # a vanishing or overflowing S shows in the check below
        weight = np.abs(entries * entries.T)
        s2, best, parent = np.ones(n, dtype=complex), weight[0].copy(), np.zeros(n, dtype=int)
        inside = np.arange(n) == 0
        for _ in range(n - 1):
            m = int(np.argmax(np.where(inside, -1.0, best)))
            if best[m] > 0:  # else no pair couples m to the tree, and S_m = 1 is as good
                s2[m] = s2[parent[m]] * entries[m, parent[m]] / entries[parent[m], m]
            inside[m] = True
            closer = ~inside & (weight[m] > best)
            best[closer], parent[closer] = weight[m, closer], m
        s = np.sqrt(s2)
        scaled = entries * s / s[:, None]
    return eigenvalues(scaled if np.all(np.isfinite(scaled.view(float))) else entries)


def _differences(t: np.ndarray, pair: str) -> np.ndarray:
    """d = t_n - t_m over the last axis of t (..., N), its diagonals 1: the one pair quantity
    the operator form divides by, guarded as ``pair`` before any division by it."""
    d = t[..., :, None] - t[..., None, :]
    d.reshape(d.shape[:-2] + (-1,))[..., :: t.shape[-1] + 1] = 1.0
    guard((abs(d), pair))
    return d


def _operator_velocity(t: np.ndarray, c: np.ndarray, s: np.ndarray, pair: str) -> np.ndarray:
    """The operator form at t (..., N), c and s stacked as (2, ..., N) by shift, d = t_n - t_m
    guarded as ``pair`` (_differences); row products run as per-row calls."""
    d = _differences(t, pair)
    ratios = s[..., :, None] - t[..., None, :]
    ratios.reshape(ratios.shape[:-2] + (-1,))[..., :: t.shape[-1] + 1] = 1.0
    ratios /= d
    return np.add(*(c * (s - t) * ratios.prod(axis=-1)))  # the two shifts' terms


def operator_matrix(t, c, cp, s, sp, pair: str) -> np.ndarray:
    """The Jacobian dv_n/dt_m of the operator form at t (N,), c, c' = dc/dt, s and s' = ds/dt
    stacked as (2, N) by shift; d = t_n - t_m guarded as ``pair``. With r_nl = (s_n -
    t_l)/(t_n - t_l), r_nn = s_n - t_n, Lam_nm = prod_{l!=m} r_nl (prefix times suffix products)
    and D_nm = 1/(t_n - t_m), D_nn = 0: J_nm = c_n (s_n - t_n) Lam_nm D_nm^2 and J_nn = c'_n
    prod_l r_nl + c_n [s'_n (sum_m Lam_nm D_nm + Lam_nn) - Lam_nn - prod_l r_nl sum_m D_nm].
    Nothing divides by s_n - t_m."""
    n = len(t)
    inv = 1.0 / _differences(t, pair)
    np.fill_diagonal(inv, 0.0)
    r = (s[:, :, None] - t) * inv
    r[:, range(n), range(n)] = s - t
    lam = np.ones_like(r)
    lam[..., 1:] = np.cumprod(r[..., :-1], axis=-1)
    lam[..., :-1] *= np.cumprod(r[..., :0:-1], axis=-1)[..., ::-1]
    full, lam_nn = lam[..., 0] * r[..., 0], lam[:, range(n), range(n)]
    entries = np.sum((c * (s - t))[..., None] * lam * inv * inv, axis=0)
    diag = cp * full + c * (sp * (np.sum(lam * inv, axis=-1) + lam_nn) - lam_nn - full * inv.sum(1))
    entries[range(n), range(n)] = diag.sum(axis=0)
    return entries


def match_spectra(
    computed: Sequence[ComplexScalar], predicted: Sequence[ComplexScalar]
) -> SpectrumMatch:
    """Optimal pairing (Hungarian method) minimizing total |computed - predicted|.

    Relative gaps are normalized by max(1, |predicted|) per matched pair.
    """
    from scipy.optimize import linear_sum_assignment  # imported here: qz flow never needs it

    comp = np.asarray(computed, dtype=complex)
    pred = np.asarray(predicted, dtype=complex)
    if comp.shape != pred.shape or comp.ndim != 1:
        raise LengthMismatch(f"cannot match {comp.shape} against {pred.shape}")
    cost = np.abs(comp[:, None] - pred[None, :])
    rows, cols = linear_sum_assignment(cost)
    pairing = np.empty_like(rows)
    pairing[rows] = cols
    gaps = np.abs(comp - pred[pairing])
    rel = gaps / np.maximum(1.0, np.abs(pred[pairing]))
    return SpectrumMatch(
        pairing=pairing,
        max_abs_gap=float(gaps.max()) if len(gaps) else 0.0,
        max_rel_gap=float(rel.max()) if len(rel) else 0.0,
    )


def compute_zero_set(params: Union[AWParams, RacahParams], polish: bool = True) -> ZeroSet:
    """Find all N zeros of the family instance and package them as a ZeroSet.

    With ``polish`` (the default) the zeros are polished at WORKING_DPS
    digits and the zero set carries them and their recurrence at that
    precision. Without, they are polished in double only, which is enough
    where just the spectrum of the matrix built from them is compared at
    1e-6; if that polish is noisy (a final step above NOISY_DOUBLE_STEP),
    each zero takes one Newton step at WORKING_DPS digits, which is then its
    certificate.
    Degree 0 is rejected: a constant polynomial has no zeros.
    """
    if params.N < 1:
        raise ValueError("zero sets require degree N >= 1")
    rec = recurrence_coefficients(params, hp=polish)
    polished, residuals = find_polynomial_zeros(rec)
    if not polish and residuals.max() > NOISY_DOUBLE_STEP:
        hp = recurrence_coefficients(params, hp=True)
        polished, residuals = zip(*(_newton(hp, zero, math.inf) for zero in polished))
        residuals = np.array(residuals)
    zeros = np.array([complex(x) for x in polished])
    xbar, zbar = (zeros, x_to_z(zeros)) if params.recurrence_in_x else (None, zeros)
    diffs = np.abs(zbar[:, None] - zbar[None, :])
    return ZeroSet(
        params=params,
        zbar=zbar,
        xbar=xbar,
        residuals=residuals,
        min_separation=float((diffs + np.diag(np.full(params.N, np.inf))).min()),
        zeros_hp=polished if polish else None,
        recurrence_hp=rec if polish else None,
    )
