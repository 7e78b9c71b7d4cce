"""Askey-Wilson and q-Racah polynomials: parameters, evaluation, recurrences.

The Askey-Wilson polynomial of degree N in x is evaluated from its explicit
sum over modified q-Pochhammer symbols,

    p_N(x) = (ab,ac,ad;q)_N a^(-N) *
             sum_m q^m (q^(-N);q)_m (abcd q^(N-1);q)_m
                   / [(q;q)_m (ab;q)_m (ac;q)_m (ad;q)_m] * {a;q;x}_m,

and the q-Racah polynomial of degree N in z from

    R_N(z) = sum_m q^m (q^(-N);q)_m (alpha*beta*q^(N+1);q)_m
                   / [(q;q)_m (alpha*q;q)_m (beta*delta*q;q)_m (gamma*q;q)_m]
             * prod_{s<m} (1 - z q^s + gamma*delta*q^(2s+1)).

Both evaluators return the exact derivative alongside the value. At small
q and larger N the sum terms exceed the polynomial values by many orders of
magnitude, so zero finding uses the monic three-term recurrences instead
(Koekoek-Lesky-Swarttouw 2010, eq. 14.1.4 for Askey-Wilson in x and
eq. 14.2.3 for q-Racah in z, monic forms 14.1.5 and 14.2.4):

    t P_n(t) = P_{n+1}(t) + b_n P_n(t) + c_n P_{n-1}(t),   n = 0..N-1.

P_N's zeros are the eigenvalues of the N x N tridiagonal (Jacobi) matrix
with diagonal b_n and off-diagonal products c_n (Golub & Welsch 1969), and
the recurrence evaluates P_N and its derivative stably, in double or in
mpmath at WORKING_DPS digits. The related rational form
P_N(z) = p_N((z^2+1)/(2z)) and the change of variables z = x + sqrt(x^2-1)
(principal branch) live here too.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

import mpmath
import numpy as np

from .errors import DegenerateDenominator, ZeroArgument
from .qkernel import ComplexScalar, qpochhammer, qpochhammer_multi


def _check_q(q: complex) -> None:
    if q == 0 or q == 1:
        raise ValueError(f"q must differ from 0 and 1, got {q}")


def _check_poch_column(label: str, c: complex, q: complex, upto: int) -> None:
    # (c;q)_m must be nonzero for every m <= upto; equivalently no single
    # factor 1 - c q^k vanishes for k < upto.
    cqk = complex(c)
    for k in range(upto):
        if 1.0 - cqk == 0:
            raise DegenerateDenominator(f"({label};q)_m vanishes at factor k={k}")
        cqk *= q


@dataclass(frozen=True)
class AWParams:
    """The four Askey-Wilson parameters, the base q, and the degree N."""

    a: ComplexScalar
    b: ComplexScalar
    c: ComplexScalar
    d: ComplexScalar
    q: ComplexScalar
    N: int

    def __post_init__(self):
        _check_q(self.q)
        if self.N < 0:
            raise ValueError(f"degree must be nonnegative, got {self.N}")
        if self.a == 0:
            raise ValueError("parameter a must be nonzero (the sum divides by a^N)")
        a, b, c, d, q = self.a, self.b, self.c, self.d, self.q
        _check_poch_column("ab", a * b, q, self.N)
        _check_poch_column("ac", a * c, q, self.N)
        _check_poch_column("ad", a * d, q, self.N)
        # Degree is exactly N only if the m = N coefficient survives.
        if qpochhammer(q ** -self.N, q, self.N) == 0:
            raise DegenerateDenominator("(q^-N;q)_N = 0: q is a low-order root of unity")
        if qpochhammer(self.abcd * q ** (self.N - 1), q, self.N) == 0:
            raise DegenerateDenominator("(abcd q^(N-1);q)_N = 0: leading coefficient vanishes")

    @property
    def abcd(self) -> ComplexScalar:
        return self.a * self.b * self.c * self.d


@dataclass(frozen=True)
class RacahParams:
    """The four q-Racah parameters, the base q, and the degree N.

    No Diophantine restriction is placed on alpha*q, beta*delta*q or
    gamma*q; only the non-vanishing of their q-Pochhammer columns up to
    order N is required.
    """

    alpha: ComplexScalar
    beta: ComplexScalar
    gamma: ComplexScalar
    delta: ComplexScalar
    q: ComplexScalar
    N: int

    def __post_init__(self):
        _check_q(self.q)
        if self.N < 0:
            raise ValueError(f"degree must be nonnegative, got {self.N}")
        al, be, ga, de, q = self.alpha, self.beta, self.gamma, self.delta, self.q
        _check_poch_column("alpha*q", al * q, q, self.N)
        _check_poch_column("beta*delta*q", be * de * q, q, self.N)
        _check_poch_column("gamma*q", ga * q, q, self.N)
        if qpochhammer(q ** -self.N, q, self.N) == 0:
            raise DegenerateDenominator("(q^-N;q)_N = 0: q is a low-order root of unity")
        if qpochhammer(self.alphabeta * q ** (self.N + 1), q, self.N) == 0:
            raise DegenerateDenominator(
                "(alpha*beta q^(N+1);q)_N = 0: leading coefficient vanishes"
            )

    @property
    def alphabeta(self) -> ComplexScalar:
        return self.alpha * self.beta

    @property
    def gammadelta(self) -> ComplexScalar:
        return self.gamma * self.delta


def x_to_z(x: ComplexScalar) -> ComplexScalar:
    """z = x + sqrt(x^2 - 1), principal square root; elementwise on arrays."""
    return x + np.sqrt(np.asarray(x * x - 1.0, dtype=complex))


def z_to_x(z: ComplexScalar) -> ComplexScalar:
    """x = (z^2 + 1) / (2z); inverse of x_to_z on either branch."""
    if z == 0:
        raise ZeroArgument("z = 0 has no preimage under z = x + sqrt(x^2-1)")
    return (z * z + 1.0) / (2.0 * z)


def _aw_coefficient_ratios(p: AWParams):
    """Yield the m -> m+1 ratio of the Askey-Wilson sum coefficients."""
    a, b, c, d, q = p.a, p.b, p.c, p.d, p.q
    qm = 1.0 + 0.0j  # q^m
    f_top1 = q ** -p.N  # q^(-N) q^m
    f_top2 = p.abcd * q ** (p.N - 1)
    for m in range(p.N):
        top = q * (1.0 - f_top1 * qm) * (1.0 - f_top2 * qm)
        bot = (1.0 - q * qm) * (1.0 - a * b * qm) * (1.0 - a * c * qm) * (1.0 - a * d * qm)
        if bot == 0:
            raise DegenerateDenominator(f"Askey-Wilson coefficient denominator vanished at m={m + 1}")
        yield top / bot
        qm *= q


def aw_eval(p: AWParams, x: ComplexScalar) -> tuple[ComplexScalar, ComplexScalar]:
    """Askey-Wilson polynomial value and x-derivative at x."""
    prefactor = qpochhammer_multi((p.a * p.b, p.a * p.c, p.a * p.d), p.q, p.N) / p.a**p.N
    coeff = 1.0 + 0.0j
    total_v = 1.0 + 0.0j  # m = 0 term: coefficient 1, {a;q;x}_0 = 1
    total_d = 0.0 + 0.0j
    # Running modified q-Pochhammer pair, one linear factor added per term.
    pv = 1.0 + 0.0j
    pd = 0.0 + 0.0j
    w = complex(p.a)  # a q^s
    for ratio in _aw_coefficient_ratios(p):
        coeff *= ratio
        f = 1.0 + w * w - 2.0 * w * x
        fp = -2.0 * w
        pv, pd = pv * f, pd * f + pv * fp
        total_v += coeff * pv
        total_d += coeff * pd
        w *= p.q
    return prefactor * total_v, prefactor * total_d


def aw_rational_eval(p: AWParams, z: ComplexScalar) -> ComplexScalar:
    """The rational form P_N(z) = p_N((z^2+1)/(2z)); symmetric under z -> 1/z."""
    return aw_eval(p, z_to_x(z))[0]


def _racah_coefficient_ratios(p: RacahParams):
    """Yield the m -> m+1 ratio of the q-Racah sum coefficients."""
    q = p.q
    qm = 1.0 + 0.0j
    f_top1 = q ** -p.N
    f_top2 = p.alphabeta * q ** (p.N + 1)
    aq, bdq, gq = p.alpha * q, p.beta * p.delta * q, p.gamma * q
    for m in range(p.N):
        top = q * (1.0 - f_top1 * qm) * (1.0 - f_top2 * qm)
        bot = (1.0 - q * qm) * (1.0 - aq * qm) * (1.0 - bdq * qm) * (1.0 - gq * qm)
        if bot == 0:
            raise DegenerateDenominator(f"q-Racah coefficient denominator vanished at m={m + 1}")
        yield top / bot
        qm *= q


def racah_eval(p: RacahParams, z: ComplexScalar) -> tuple[ComplexScalar, ComplexScalar]:
    """q-Racah polynomial value and z-derivative at z."""
    q = p.q
    gdq = p.gammadelta * q
    coeff = 1.0 + 0.0j
    total_v = 1.0 + 0.0j
    total_d = 0.0 + 0.0j
    # Running product prod_{s<m} (1 - z q^s + gamma*delta*q^(2s+1)) and its
    # z-derivative, extended by one factor per term.
    pv = 1.0 + 0.0j
    pd = 0.0 + 0.0j
    qs = 1.0 + 0.0j  # q^s
    w = gdq  # gamma*delta*q^(2s+1)
    for ratio in _racah_coefficient_ratios(p):
        coeff *= ratio
        f = 1.0 - z * qs + w
        fp = -qs
        pv, pd = pv * f, pd * f + pv * fp
        total_v += coeff * pv
        total_d += coeff * pd
        qs *= q
        w *= q * q
    return total_v, total_d


#: Working precision (decimal digits) of the zero polish and of the identity
#: residuals. The tier-1 gate measures that doubling it moves no polished zero
#: by more than 1e-30 up to N = 24.
WORKING_DPS = 50


def _mpc(value: ComplexScalar) -> "mpmath.mpc":
    value = complex(value)
    return mpmath.mpc(value.real, value.imag)


@dataclass(frozen=True)
class Recurrence:
    """Monic three-term recurrence t P_n(t) = P_{n+1}(t) + b[n] P_n(t) + c[n] P_{n-1}(t).

    With P_{-1} = 0 and P_0 = 1 (c[0] is held as 0), P_N for N = len(b) is
    the family polynomial divided by its leading coefficient: in x for
    Askey-Wilson, in z for q-Racah. Its zeros are the eigenvalues of the
    tridiagonal (Jacobi) matrix with diagonal b and off-diagonal products c.
    ``dps`` is None for Python complex entries, or the mpmath working
    precision of mpc entries, at which the evaluations below then run.
    """

    b: tuple
    c: tuple
    dps: int | None = None

    @property
    def degree(self) -> int:
        return len(self.b)

    def arithmetic(self):
        """Context in which arithmetic on the entries runs at their precision."""
        return contextlib.nullcontext() if self.dps is None else mpmath.workdps(self.dps)

    def value(self, t):
        """P_N(t)."""
        with self.arithmetic():
            prev, cur = 0, 1
            for b, c in zip(self.b, self.c):
                prev, cur = cur, (t - b) * cur - c * prev
            return cur

    def value_and_derivative(self, t):
        """(P_N(t), P_N'(t)); the derivative follows the differentiated recurrence."""
        with self.arithmetic():
            prev, cur = 0, 1
            dprev, dcur = 0, 0
            for b, c in zip(self.b, self.c):
                u = t - b
                dprev, dcur = dcur, cur + u * dcur - c * dprev
                prev, cur = cur, u * cur - c * prev
            return cur, dcur


def _aw_recurrence(p: AWParams, num) -> tuple[list, list]:
    """KLS eq. 14.1.5: b_n = (a + 1/a - A_n - C_n)/2, c_n = A_{n-1} C_n / 4."""
    a, b, c, d, q = (num(v) for v in (p.a, p.b, p.c, p.d, p.q))
    one = num(1)
    ab, ac, ad, bc, bd, cd = a * b, a * c, a * d, b * c, b * d, c * d
    abcd = ab * cd
    diag, off = [], []
    a_prev = one  # A_{n-1}; any finite value, as C_0 = 0
    qn, qn1 = one, one / q  # q^n, q^(n-1)
    for n in range(p.N):
        top = (one - ab * qn) * (one - ac * qn) * (one - ad * qn)
        if n == 0:
            # the factor 1 - abcd q^(n-1) cancels against the denominator
            a_n, c_n = top / (a * (one - abcd)), 0 * one
        else:
            e = abcd * qn1  # abcd q^(n-1)
            a_n = top * (one - e) / (a * (one - e * qn) * (one - abcd * qn * qn))
            c_n = (
                a * (one - qn) * (one - bc * qn1) * (one - bd * qn1) * (one - cd * qn1)
                / ((one - e * qn1) * (one - e * qn))
            )
        diag.append((a + one / a - a_n - c_n) / 2)
        off.append(a_prev * c_n / 4)
        a_prev = a_n
        qn, qn1 = qn * q, qn
    return diag, off


def _racah_recurrence(p: RacahParams, num) -> tuple[list, list]:
    """KLS eq. 14.2.4: b_n = 1 + gamma*delta*q - A_n - C_n, c_n = A_{n-1} C_n."""
    al, be, ga, de, q = (num(v) for v in (p.alpha, p.beta, p.gamma, p.delta, p.q))
    one = num(1)
    ab, bd = al * be, be * de
    shift = one + ga * de * q
    diag, off = [], []
    a_prev = one  # A_{n-1}; any finite value, as C_0 = 0
    qn = one  # q^n
    for n in range(p.N):
        qn1 = qn * q
        a_n = (
            (one - al * qn1) * (one - ab * qn1) * (one - bd * qn1) * (one - ga * qn1)
            / ((one - ab * qn * qn1) * (one - ab * qn1 * qn1))
        )
        if n == 0:
            c_n = 0 * one
        else:
            c_n = (
                q * (one - qn) * (one - be * qn) * (ga - ab * qn) * (de - al * qn)
                / ((one - ab * qn * qn) * (one - ab * qn * qn1))
            )
        diag.append(shift - a_n - c_n)
        off.append(a_prev * c_n)
        a_prev = a_n
        qn = qn1
    return diag, off


def recurrence_coefficients(p: AWParams | RacahParams, hp: bool = False) -> Recurrence:
    """The monic three-term recurrence of the family polynomial, up to degree N.

    Koekoek-Lesky-Swarttouw (2010), eq. 14.1.4 (Askey-Wilson, variable x)
    and eq. 14.2.3 (q-Racah, variable z = q^-x + gamma*delta*q^(x+1)), in
    their monic forms 14.1.5 and 14.2.4. Powers of q are carried as running
    products. With ``hp`` the coefficients are mpmath values at WORKING_DPS.
    Raises DegenerateDenominator when a coefficient denominator vanishes,
    i.e. when some lower-degree polynomial of the family drops degree.
    """
    if not isinstance(p, (AWParams, RacahParams)):
        raise TypeError(f"unsupported parameter type {type(p).__name__}")
    build = _aw_recurrence if isinstance(p, AWParams) else _racah_recurrence
    try:
        if not hp:
            return Recurrence(*map(tuple, build(p, complex)))
        with mpmath.workdps(WORKING_DPS):
            return Recurrence(*map(tuple, build(p, _mpc)), dps=WORKING_DPS)
    except ZeroDivisionError as exc:
        raise DegenerateDenominator(f"three-term recurrence denominator vanished: {exc}") from exc
