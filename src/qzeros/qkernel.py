"""Double-precision numerical primitives for q-series.

Everything here is a plain function of complex scalars: q-Pochhammer
products, the modified q-Pochhammer symbol {a;q;x}_m (a degree-m polynomial
in x built from the factors 1 + a^2 q^(2s) - 2 a q^s x), and terminating
4phi3 sums. Products are accumulated iteratively, never through logarithms,
so an exactly vanishing factor yields an exact zero; powers of q are grown
by repeated multiplication instead of exponentials to keep complex-branch
behavior trivial.
"""

from __future__ import annotations

import cmath
from collections.abc import Sequence

from .errors import DegenerateDenominator

#: Alias used throughout the package for dimensionless complex scalars.
ComplexScalar = complex


def qpochhammer(c: ComplexScalar, q: ComplexScalar, n: int) -> ComplexScalar:
    """(c;q)_n = prod_{k=0}^{n-1} (1 - c q^k); the empty product (n = 0) is 1."""
    if n < 0:
        raise ValueError(f"q-Pochhammer order must be nonnegative, got {n}")
    out = 1.0 + 0.0j
    cqk = complex(c)
    for _ in range(n):
        out *= 1.0 - cqk
        cqk *= q
    return out


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
