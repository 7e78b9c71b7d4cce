"""Test oracle: the structure layer, the flow velocities and M and L as scalar loops.

These are the per-pair Python loops the library replaced with numpy
broadcasting over pair arrays: one structure function, one guard and one
kernel value per zero or per pair, products accumulated left to right.
They keep the paper's formulas: M as two z-halves of G(z) = A(z)(qz - 1/z)
and the pair kernel K (eval_G_pair, eval_K, here), L with the leave-two-out
products, each guarding the differences it divides by, the removable
z_m-q*z_n, q*z_n*z_m-1 and z_n^(+/-)-z_m among them. They call the library's
elementwise point_structure and x_to_z on one scalar at a time, so they share
those formulas but none of the operator form, the pair arithmetic or the guard
reductions of the vectorized code.
"""

from __future__ import annotations

import numpy as np

from qzeros import racahspec
from qzeros.errors import GUARD_EPS, SingularConfiguration
from qzeros.numlin import ZeroSet
from qzeros.polyform import AWParams, RacahParams, x_to_z


def guard(magnitude: float, name: str) -> None:
    if not magnitude > GUARD_EPS:
        raise SingularConfiguration(name, magnitude)


# --- Askey-Wilson ------------------------------------------------------------


def eval_G_pair(p: AWParams, z: complex) -> tuple[complex, complex]:
    """(G(z), G'(z)) with G = A(z)(qz - 1/z), differentiated exactly.

    The numerator (qz - 1/z) prod (1 - p z) and denominator
    (1-z^2)(1-q z^2) are carried as (value, derivative) pairs so the
    quotient rule never divides by a numerator factor that may vanish.
    """
    z2 = z * z
    guard(abs(z), "z")
    guard(abs(1.0 - z2), "z^2-1")
    guard(abs(1.0 - p.q * z2), "q*z^2-1")
    uv, ud = p.q * z - 1.0 / z, p.q + 1.0 / z2
    for c in (p.a, p.b, p.c, p.d):
        f, fp = 1.0 - c * z, -c
        uv, ud = uv * f, ud * f + uv * fp
    dv = (1.0 - z2) * (1.0 - p.q * z2)
    dd = -2.0 * z * (1.0 - p.q * z2) - 2.0 * p.q * z * (1.0 - z2)
    return uv / dv, (ud * dv - uv * dd) / (dv * dv)


def eval_K(q: complex, zn: complex, zm: complex) -> complex:
    """Pair kernel K(z_n, z_m); collapses to 1 at q = 1."""
    d1 = zm - zn
    d2 = zn * zm - 1.0
    guard(abs(d1), "z_n-z_m")
    guard(abs(d2), "z_n*z_m-1")
    return (zm - q * zn) * (q * zn * zm - 1.0) / (d1 * d2)


def aw_velocity(p: AWParams, positions, branch_flips=None) -> np.ndarray:
    xs = np.asarray(positions, dtype=complex)
    n = len(xs)
    z = np.array([x_to_z(x) for x in xs])
    if branch_flips is not None:
        for i, flip in enumerate(branch_flips):
            if flip == -1:
                z[i] = 1.0 / z[i]
    out = np.empty(n, dtype=complex)
    scale = (p.q - 1.0) / (2.0 * p.q**p.N)
    for i in range(n):
        g_plus = eval_G_pair(p, z[i])[0]
        g_minus = eval_G_pair(p, 1.0 / z[i])[0]
        prod_plus = 1.0 + 0.0j
        prod_minus = 1.0 + 0.0j
        for l in range(n):
            if l == i:
                continue
            prod_plus *= eval_K(p.q, z[i], z[l])
            prod_minus *= eval_K(p.q, 1.0 / z[i], 1.0 / z[l])
        out[i] = scale * (g_plus * prod_plus + g_minus * prod_minus)
    return out


def aw_structure(p: AWParams, z: np.ndarray):
    """(G, G', K) on z and on 1/z, one scalar evaluation at a time."""
    n = len(z)
    for i in range(n):
        guard(abs(z[i]), "z")
        guard(abs(z[i] * z[i] - 1.0), "z^2-1")
        guard(abs(p.q * z[i] * z[i] - 1.0), "q*z^2-1")
        guard(abs(z[i] * z[i] - p.q), "z^2-q")
    halves = []
    for w in (z, np.array([1.0 / zi for zi in z])):
        g = [eval_G_pair(p, wi) for wi in w]
        k = np.ones((n, n), dtype=complex)
        for i in range(n):
            for j in range(n):
                if i != j:
                    k[i, j] = eval_K(p.q, w[i], w[j])
        halves.append((w, np.array([v[0] for v in g]), np.array([v[1] for v in g]), k))
    return halves


def matrix_half(q, w: np.ndarray, G: np.ndarray, Gp: np.ndarray, K: np.ndarray) -> np.ndarray:
    n = len(w)
    half = np.zeros((n, n), dtype=complex)
    prod_k = np.empty(n, dtype=complex)
    for i in range(n):
        prod = 1.0 + 0.0j
        for l in range(n):
            if l != i:
                prod *= K[i, l]
        prod_k[i] = prod
    for i in range(n):
        wi = w[i]
        pref_i = 2.0 * wi * wi / (wi * wi - 1.0)
        diag_sum = 0.0 + 0.0j
        for m in range(n):
            if m == i:
                continue
            wm = w[m]
            d1 = wm - q * wi
            d2 = q * wi * wm - 1.0
            d3 = wm - wi
            d4 = wi * wm - 1.0
            guard(abs(d1), "z_m-q*z_n")
            guard(abs(d2), "q*z_n*z_m-1")
            guard(abs(d3), "z_n-z_m")
            guard(abs(d4), "z_n*z_m-1")
            diag_sum += -q / d1 + q * wm / d2 + 1.0 / d3 - wm / d4
            pref_m = 2.0 * wm * wm / (wm * wm - 1.0)
            bracket = 1.0 / d1 + q * wi / d2 - 1.0 / d3 - wi / d4
            half[i, m] = pref_m * G[i] * bracket * prod_k[i]
        half[i, i] = (pref_i * G[i] * diag_sum + pref_i * Gp[i]) * prod_k[i]
    return half


def build_matrix_M(p: AWParams, zs: ZeroSet) -> np.ndarray:
    z = np.asarray(zs.zbar, dtype=complex)
    halves = aw_structure(p, z)
    scale = (p.q - 1.0) / (2.0 * p.q**p.N)
    return scale * sum(matrix_half(p.q, *half) for half in halves)


# --- q-Racah -----------------------------------------------------------------


def racah_velocity(p: RacahParams, positions, branch: int = +1) -> np.ndarray:
    zs = np.asarray(positions, dtype=complex)
    n = len(zs)
    out = np.empty(n, dtype=complex)
    for i in range(n):
        pt = racahspec.point_structure(p, zs[i], branch)
        prod_plus = 1.0 + 0.0j
        prod_minus = 1.0 + 0.0j
        for l in range(n):
            if l == i:
                continue
            d = zs[i] - zs[l]
            if abs(d) <= GUARD_EPS:
                raise SingularConfiguration("z_n-z_m", abs(d))
            prod_plus *= (pt.z_plus - zs[l]) / d
            prod_minus *= (pt.z_minus - zs[l]) / d
        out[i] = pt.Bval * (pt.z_plus - zs[i]) * prod_plus + pt.Dval * (
            pt.z_minus - zs[i]
        ) * prod_minus
    return out


def build_matrix_L(p: RacahParams, zs: ZeroSet, branch: int = +1) -> np.ndarray:
    """L with the O(N^3) leave-two-out products, as the library once built it."""
    z = np.asarray(zs.zbar, dtype=complex)
    n = len(z)
    pts = [racahspec.point_structure(p, zi, branch) for zi in z]
    w_plus = np.zeros((n, n), dtype=complex)
    w_minus = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            d = z[i] - z[j]
            guard(abs(d), "z_n-z_m")
            dp = pts[i].z_plus - z[j]
            dm = pts[i].z_minus - z[j]
            guard(abs(dp), "z_n^(+)-z_m")
            guard(abs(dm), "z_n^(-)-z_m")
            w_plus[i, j] = (pts[i].Cplus * d - pts[i].z_plus + z[j]) / (d * dp)
            w_minus[i, j] = (pts[i].Cminus * d - pts[i].z_minus + z[j]) / (d * dm)
    entries = np.zeros((n, n), dtype=complex)
    for i in range(n):
        pt = pts[i]
        ratio_plus = 1.0 + 0.0j
        ratio_minus = 1.0 + 0.0j
        for l in range(n):
            if l == i:
                continue
            d = z[i] - z[l]
            ratio_plus *= (pt.z_plus - z[l]) / d
            ratio_minus *= (pt.z_minus - z[l]) / d
        dz_plus = pt.z_plus - z[i]
        dz_minus = pt.z_minus - z[i]
        sum_plus = sum(w_plus[i, m] for m in range(n) if m != i)
        sum_minus = sum(w_minus[i, m] for m in range(n) if m != i)
        entries[i, i] = (
            pt.Bp * dz_plus + pt.Bval * (pt.Cplus - 1.0 + dz_plus * sum_plus)
        ) * ratio_plus + (
            pt.Dp * dz_minus + pt.Dval * (pt.Cminus - 1.0 + dz_minus * sum_minus)
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
                prod_plus *= (pt.z_plus - z[l]) / d
                prod_minus *= (pt.z_minus - z[l]) / d
            dim = z[i] - z[m]
            entries[i, m] = (
                pt.Bval * (dz_plus / dim) ** 2 * prod_plus
                + pt.Dval * (dz_minus / dim) ** 2 * prod_minus
            )
    return entries
