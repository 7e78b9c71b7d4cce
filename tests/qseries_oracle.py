"""Test oracle: the q-series that define both families, and their q-difference operators.

The Askey-Wilson polynomial of degree N in x is evaluated from its explicit
sum over modified q-Pochhammer symbols,

    p_N(x) = (ab,ac,ad;q)_N a^(-N) *
             sum_m q^m (q^(-N);q)_m (abcd q^(N-1);q)_m
                   / [(q;q)_m (ab;q)_m (ac;q)_m (ad;q)_m] * {a;q;x}_m,

where {a;q;x}_m = prod_{s<m} (1 + a^2 q^(2s) - 2 a q^s x), and the q-Racah
polynomial of degree N in z from

    R_N(z) = sum_m q^m (q^(-N);q)_m (alpha*beta*q^(N+1);q)_m
                   / [(q;q)_m (alpha*q;q)_m (beta*delta*q;q)_m (gamma*q;q)_m]
             * prod_{s<m} (1 - z q^s + gamma*delta*q^(2s+1)).

Both evaluators return the exact derivative alongside the value. At small
q and larger N the sum terms exceed the polynomial values by many orders
of magnitude, which is why the library finds zeros from the three-term
recurrence instead; at moderate N in double precision the sums, the
terminating 4phi3 and the q-difference operators of which the polynomials
are eigenfunctions (the paper's Q operator and the q-Racah difference
operator) are an independent route to the same polynomials. Products are
accumulated iteratively, never through logarithms, so an exactly vanishing
factor yields an exact zero.
"""

from __future__ import annotations

import cmath
from collections.abc import Sequence
from typing import Callable

from qzeros.awspec import eval_A
from qzeros.errors import DegenerateDenominator, guard
from qzeros.polyform import AWParams, RacahParams, z_to_x
from qzeros.qkernel import ComplexScalar, qpochhammer
from qzeros.racahspec import point_structure


def det_closed_form(q, product, shift: int, N: int):
    """det M resp. det L = q^(-N^2) (q;q)_N (product q^(N+shift);q)_N (Corollaries 2.2.3, 2.4.3).

    shift = -1 with product abcd is M's, shift = +1 with product alpha*beta
    L's. The q-Pochhammer symbols are multiplied out factor by factor, so the
    result is exact on Fractions.
    """
    out = q ** -(N * N)
    for k in range(N):
        out *= (1 - q ** (k + 1)) * (1 - product * q ** (N + shift + k))
    return out


def racah_as_aw(p: RacahParams) -> AWParams:
    """The Askey-Wilson parameters whose polynomial is the q-Racah one, z = 2a x.

    a = sqrt(gamma delta q), b = alpha q / a, c = beta delta q / a, d = gamma q / a:
    the classical reduction of q-Racah to Askey-Wilson polynomials (Askey and
    Wilson, Mem. AMS 54 no. 319, 1985), in a parameter form that
    test_racahspec.TestRacahAsAskeyWilson checks numerically.
    Then abcd = alpha beta q^2, so M and L share their closed-form spectrum,
    and ab, ac, ad are alpha q, beta delta q, gamma q, so admissibility maps
    exactly. Either branch of the square root serves; this is the principal one.
    """
    a = cmath.sqrt(p.gamma * p.delta * p.q)
    return AWParams(
        a=a, b=p.alpha * p.q / a, c=p.beta * p.delta * p.q / a, d=p.gamma * p.q / a, q=p.q, N=p.N
    )


def qpochhammer_multi(cs: Sequence[ComplexScalar], q: ComplexScalar, n: int) -> ComplexScalar:
    """Product (c1,...,cr;q)_n of several q-Pochhammer symbols of equal order."""
    out = 1.0 + 0.0j
    for c in cs:
        out *= qpochhammer(c, q, n)
    return out


def _modified_factors(a: ComplexScalar, q: ComplexScalar, x: ComplexScalar, m: int):
    """Yield (factor, d/dx factor) for {a;q;x}_m, s = 0..m-1."""
    w = complex(a)  # a q^s
    for _ in range(m):
        yield 1.0 + w * w - 2.0 * w * x, -2.0 * w
        w *= q


def modified_qpochhammer(a: ComplexScalar, q: ComplexScalar, x: ComplexScalar, m: int) -> ComplexScalar:
    """{a;q;x}_m = prod_{s=0}^{m-1} (1 + a^2 q^(2s) - 2 a q^s x); 1 for m = 0."""
    if m < 0:
        raise ValueError(f"order must be nonnegative, got {m}")
    out = 1.0 + 0.0j
    for f, _ in _modified_factors(a, q, x, m):
        out *= f
    return out


def modified_qpochhammer_derivative(
    a: ComplexScalar, q: ComplexScalar, x: ComplexScalar, m: int
) -> ComplexScalar:
    """d/dx of {a;q;x}_m, assembled by the product rule; 0 for m = 0."""
    _, d = modified_qpochhammer_pair(a, q, x, m)
    return d


def modified_qpochhammer_pair(
    a: ComplexScalar, q: ComplexScalar, x: ComplexScalar, m: int
) -> tuple[ComplexScalar, ComplexScalar]:
    """({a;q;x}_m, its x-derivative) in one pass.

    The pair (value, derivative) is propagated through the product factor by
    factor, which keeps the derivative exact without dividing by factors
    that may vanish.
    """
    if m < 0:
        raise ValueError(f"order must be nonnegative, got {m}")
    v = 1.0 + 0.0j
    d = 0.0 + 0.0j
    for f, fp in _modified_factors(a, q, x, m):
        v, d = v * f, d * f + v * fp
    return v, d


def phi43_terminating(
    num: Sequence[ComplexScalar],
    den: Sequence[ComplexScalar],
    q: ComplexScalar,
    arg: ComplexScalar,
    N: int,
) -> ComplexScalar:
    """Terminating basic hypergeometric sum 4phi3(num; den; q, arg).

    Sums sum_{k=0}^{N} (num;q)_k / [(den;q)_k (q;q)_k] arg^k. The caller
    supplies num[0] = q^(-N), which makes every term beyond k = N vanish,
    so the summation range is capped at N. With four upper and three lower
    parameters the (-1)^k q^(k(k-1)/2) factor of the general series is
    absent.

    Raises DegenerateDenominator if any (den_j;q)_k or (q;q)_k factor
    vanishes within the summation range, or is so small that a term
    overflows.
    """
    if len(num) != 4 or len(den) != 3:
        raise ValueError("expected 4 numerator and 3 denominator parameters")
    if N < 0:
        raise ValueError(f"termination degree must be nonnegative, got {N}")
    total = 1.0 + 0.0j  # k = 0 term
    term = 1.0 + 0.0j
    qk = 1.0 + 0.0j  # q^k
    for k in range(N):
        ratio = complex(arg)
        for c in num:
            ratio *= 1.0 - c * qk
        for b in den:
            fb = 1.0 - b * qk
            if fb == 0:
                raise DegenerateDenominator(
                    f"(den;q)_k factor vanished at k={k + 1}: parameter {b}"
                )
            ratio /= fb
        qk *= q
        fq = 1.0 - qk  # the (q;q)_{k+1} increment, 1 - q^(k+1)
        if fq == 0:
            raise DegenerateDenominator(f"(q;q)_k factor vanished at k={k + 1}")
        ratio /= fq
        term *= ratio
        if not cmath.isfinite(term):
            raise DegenerateDenominator(
                f"(den;q)_k factors underflow at k={k + 1}: the term overflows to {term}"
            )
        total += term
    return total


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


def apply_Q_operator(
    p: AWParams, f: Callable[[ComplexScalar], ComplexScalar], z: ComplexScalar
) -> ComplexScalar:
    """Q f(z) = A(z) f(qz) + A(1/z) f(z/q) - [A(z) + A(1/z)] f(z).

    The rational form P_N is an eigenfunction with eigenvalue
    (q^(-N) - 1)(1 - abcd q^(N-1)).
    """
    guard((abs(z), "z"))
    a_plus = eval_A(p, z)
    a_minus = eval_A(p, 1.0 / z)
    return a_plus * f(p.q * z) + a_minus * f(z / p.q) - (a_plus + a_minus) * f(z)


def q_eigenvalue(p: AWParams) -> ComplexScalar:
    """The Q-operator eigenvalue (q^(-N) - 1)(1 - abcd q^(N-1)) on P_N."""
    return (p.q**-p.N - 1.0) * (1.0 - p.abcd * p.q ** (p.N - 1))


def shift_targets(
    q: ComplexScalar, gammadelta: ComplexScalar, z: ComplexScalar, branch: int = +1
) -> tuple[ComplexScalar, ComplexScalar]:
    """The q-shifted images (z^(+), z^(-)) of z, z^(+/-) = q^(+/-1) z +/- (1-q^2)/(2q) (z - S).

    S = branch * sqrt(z^2 - 4 gamma*delta*q), principal root. Well defined
    even at gamma*delta = 0; at a vanishing discriminant both images
    collapse to (1+q^2)/(2q) z.
    """
    s = branch * cmath.sqrt(z * z - 4.0 * gammadelta * q)
    shift = (1.0 - q * q) / (2.0 * q) * (z - s)
    return q * z + shift, z / q - shift


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
