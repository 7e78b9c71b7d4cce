"""Test oracle: the family polynomials expanded into the monomial basis.

The degree-m basis product of the defining q-series is grown one linear
factor at a time and the terms are accumulated in mpmath. The expansion
cancels catastrophically at small q and large N, which is why the library
finds zeros from the three-term recurrence instead; at moderate N and
elevated precision it is an independent route to the same polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath
import numpy as np

from qzeros.errors import DegenerateDenominator
from qzeros.polyform import AWParams, RacahParams


@dataclass
class MonomialPoly:
    """coeffs[k] multiplies x^k; coeffs_hp holds them before the rounding to double."""

    coeffs: np.ndarray
    coeffs_hp: list


def _mpc(value) -> "mpmath.mpc":
    value = complex(value)
    return mpmath.mpc(value.real, value.imag)


def monomial_coefficients(p: AWParams | RacahParams, dps: int = 50) -> MonomialPoly:
    """Expand the family polynomial into the monomial basis at ``dps`` digits."""
    n = p.N
    with mpmath.workdps(dps):
        q = _mpc(p.q)
        one = mpmath.mpf(1)
        if isinstance(p, AWParams):
            a, b, c, d = (_mpc(v) for v in (p.a, p.b, p.c, p.d))
            f_top = (q**-n, a * b * c * d * q ** (n - 1))
            f_bot = (a * b, a * c, a * d)
            prefactor = a**-n
            for v in f_bot:
                w = v
                for _ in range(n):
                    prefactor *= one - w
                    w *= q

            def linear_factors():
                w = a  # a q^s
                while True:
                    yield one + w * w, -2 * w
                    w *= q

        else:
            al, be, ga, de = (_mpc(v) for v in (p.alpha, p.beta, p.gamma, p.delta))
            f_top = (q**-n, al * be * q ** (n + 1))
            f_bot = (al * q, be * de * q, ga * q)
            prefactor = mpmath.mpc(1)

            def linear_factors():
                qs = mpmath.mpc(1)  # q^s
                w = ga * de * q  # gamma*delta*q^(2s+1)
                while True:
                    yield one + w, -qs
                    qs *= q
                    w *= q * q

        acc = [mpmath.mpc(0)] * (n + 1)
        acc[0] = mpmath.mpc(1)  # m = 0 term
        basis = [mpmath.mpc(0)] * (n + 1)
        basis[0] = mpmath.mpc(1)
        coeff = mpmath.mpc(1)
        qm = mpmath.mpc(1)  # q^m
        factors = linear_factors()
        for m in range(1, n + 1):
            top = q * (one - f_top[0] * qm) * (one - f_top[1] * qm)
            bot = one - q * qm
            for v in f_bot:
                bot *= one - v * qm
            if bot == 0:
                raise DegenerateDenominator(f"coefficient denominator vanished at m={m}")
            coeff *= top / bot
            qm *= q
            const, slope = next(factors)
            new_basis = [const * basis[k] for k in range(n + 1)]
            for k in range(1, m + 1):
                new_basis[k] += slope * basis[k - 1]
            basis = new_basis
            for k in range(m + 1):
                acc[k] += coeff * basis[k]
        coeffs_hp = [prefactor * v for v in acc]
        coeffs = np.array([complex(v) for v in coeffs_hp])
    return MonomialPoly(coeffs=coeffs, coeffs_hp=coeffs_hp)
