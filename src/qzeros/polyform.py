"""Askey-Wilson and q-Racah polynomials: parameters, three-term recurrences, x <-> z.

Both polynomials are represented by their monic three-term recurrences
(Koekoek-Lesky-Swarttouw 2010, eq. 14.1.4 for Askey-Wilson in x and
eq. 14.2.3 for q-Racah in z, monic forms 14.1.5 and 14.2.4):

    t P_n(t) = P_{n+1}(t) + b_n P_n(t) + c_n P_{n-1}(t),   n = 0..N-1.

P_N's zeros are the eigenvalues of the N x N tridiagonal (Jacobi) matrix
with diagonal b_n and off-diagonal products c_n (Golub & Welsch 1969), and
the recurrence evaluates P_N and its derivative stably, in double or at
WORKING_DPS digits on DecimalComplex, a complex type over the C
``decimal`` module. The defining q-series sums cancel by many orders of
magnitude at small q and larger N; they serve as a test oracle
(``tests/qseries_oracle.py``). The change of variables
z = x + sqrt(x^2-1) (principal branch) and its inverse live here too.
"""

from __future__ import annotations

import contextlib
import decimal
import functools
import math
from dataclasses import dataclass
from decimal import Decimal
from typing import ClassVar

import numpy as np

from .errors import DegenerateDenominator, NoConvergence, ZeroArgument
from .qkernel import ComplexScalar


#: Largest admitted degree: at N = 500 one qz verify takes 25 s and 197 MB (README).
MAX_DEGREE = 500


def check_base(q: complex, n: int) -> None:
    """Reject a base q and degree N that no parameter set admits.

    q must differ from 0 and 1 and must not be a root of unity of order at
    most N, where (q^-N;q)_N = 0; q^(+-N) must lie in the double range; N <= MAX_DEGREE.
    """
    if q == 0 or q == 1:
        raise ValueError(f"q must differ from 0 and 1, got {q}")
    if n < 0:
        raise ValueError(f"degree must be nonnegative, got {n}")
    with _double_range(q, n):
        _check_factors("q^-N", q**-n, q, n, "q is a low-order root of unity")
    if n > MAX_DEGREE:
        raise ValueError(f"degree N = {n} exceeds the maximum degree {MAX_DEGREE}")


@contextlib.contextmanager
def _double_range(q: complex, n: int):
    try:
        yield
    except (OverflowError, ZeroDivisionError):  # complex ** raises both out of range
        raise ValueError(f"q^(+-N) is beyond the double range at q = {q}, N = {n}") from None


def _check_factors(label: str, c, q, upto: int, reason: str = "a series denominator vanishes"):
    """Raise DegenerateDenominator if a factor 1 - c q^k of (c;q)_upto is exactly 0. Each
    factor is tested, not their product, which underflows to 0 near q = 1 with no factor 0."""
    cqk = complex(c)
    for k in range(upto):
        if 1.0 - cqk == 0:
            raise DegenerateDenominator(f"({label};q)_N vanishes at factor k={k}: {reason}")
        cqk *= q


def _check_degree(p: "AWParams | RacahParams", product: str) -> None:
    # Degree is exactly N only if the m = N coefficient survives, and the powers
    # of q that it needs must be representable.
    with _double_range(p.q, p.N):
        c = p.product * p.q ** (p.N + p.shift)
    _check_factors(f"{product} q^(N{p.shift:+d})", c, p.q, p.N, "leading coefficient vanishes")


@dataclass(frozen=True)
class AWParams:
    """The four Askey-Wilson parameters, the base q, and the degree N.

    ``product`` (abcd) and ``shift`` (-1) place M's spectrum in the common
    closed form q^(-N) (1 - q^n) (1 - product q^(2N+shift-n)). The
    recurrence runs in x (``recurrence_in_x``), and z = x_to_z(x).
    """

    family: ClassVar[str] = "aw"
    shift: ClassVar[int] = -1
    recurrence_in_x: ClassVar[bool] = True

    a: ComplexScalar
    b: ComplexScalar
    c: ComplexScalar
    d: ComplexScalar
    q: ComplexScalar
    N: int

    def __post_init__(self):
        check_base(self.q, self.N)
        if self.a == 0:
            raise ValueError("parameter a must be nonzero (the sum divides by a^N)")
        a, b, c, d, q = self.a, self.b, self.c, self.d, self.q
        _check_factors("ab", a * b, q, self.N)
        _check_factors("ac", a * c, q, self.N)
        _check_factors("ad", a * d, q, self.N)
        _check_degree(self, "abcd")

    @property
    def abcd(self) -> ComplexScalar:
        return self.a * self.b * self.c * self.d

    product = abcd


@dataclass(frozen=True)
class RacahParams:
    """The four q-Racah parameters, the base q, and the degree N.

    No Diophantine restriction is placed on alpha*q, beta*delta*q or
    gamma*q; only the non-vanishing of their q-Pochhammer columns up to
    order N is required. ``product`` (alpha*beta) and ``shift`` (+1) place
    L's spectrum in the closed form shared with AWParams. The recurrence
    runs in z itself.
    """

    family: ClassVar[str] = "racah"
    shift: ClassVar[int] = 1
    recurrence_in_x: ClassVar[bool] = False

    alpha: ComplexScalar
    beta: ComplexScalar
    gamma: ComplexScalar
    delta: ComplexScalar
    q: ComplexScalar
    N: int

    def __post_init__(self):
        check_base(self.q, self.N)
        al, be, ga, de, q = self.alpha, self.beta, self.gamma, self.delta, self.q
        _check_factors("alpha*q", al * q, q, self.N)
        _check_factors("beta*delta*q", be * de * q, q, self.N)
        _check_factors("gamma*q", ga * q, q, self.N)
        _check_degree(self, "alpha*beta")

    @property
    def alphabeta(self) -> ComplexScalar:
        return self.alpha * self.beta

    product = alphabeta

    @property
    def gammadelta(self) -> ComplexScalar:
        return self.gamma * self.delta


def x_to_z(x: ComplexScalar) -> ComplexScalar:
    """z = x + sqrt(x^2 - 1), principal square root; elementwise, also on DecimalComplex."""
    return x + _sqrt(x * x - 1)


def z_to_x(z: ComplexScalar) -> ComplexScalar:
    """x = (z^2 + 1) / (2z); inverse of x_to_z on either branch, also on DecimalComplex."""
    if z == 0:
        raise ZeroArgument("z = 0 has no preimage under z = x + sqrt(x^2-1)")
    return (z * z + 1) / (2 * z)


#: Working precision (decimal digits) of the zero polish and of the identity
#: residuals. The tier-1 gate measures that doubling it moves no polished zero
#: by more than 1e-30 up to N = 24.
WORKING_DPS = 50


def working_precision(dps: int | None):
    """Decimal arithmetic at dps + 2 digits (unit roundoff 5e-(dps+2)) in a context of its
    own, trapping division by zero, invalid operations and overflow; None is a no-op."""
    if dps is None:
        return contextlib.nullcontext()
    traps = [decimal.InvalidOperation, decimal.DivisionByZero, decimal.Overflow]
    return decimal.localcontext(decimal.Context(dps + 2, decimal.ROUND_HALF_EVEN, traps=traps))


class DecimalComplex:
    """A complex number with ``decimal.Decimal`` parts, for the WORKING_DPS work.

    Arithmetic rounds in the current decimal context (working precision in
    ``Recurrence.arithmetic()``). Int, float and complex operands, numpy's
    included, convert exactly; other types raise TypeError, never pass
    through a double. Division by zero raises ZeroDivisionError.
    """

    __slots__ = ("real", "imag")
    __array_ufunc__ = None  # numpy scalars defer to the reflected operators

    def __init__(self, real: Decimal, imag: Decimal = Decimal(0)):
        self.real, self.imag = real, imag

    @staticmethod
    def of(value) -> "DecimalComplex":
        """The exact DecimalComplex of a DecimalComplex, int, float, complex or Decimal."""
        if type(value) is DecimalComplex:
            return value
        if isinstance(value, (int, float, Decimal, complex)):
            return DecimalComplex(Decimal(value.real), Decimal(value.imag))
        raise TypeError(f"cannot convert {type(value).__name__} to DecimalComplex")

    def __add__(self, other):
        o = other if type(other) is DecimalComplex else DecimalComplex.of(other)
        return DecimalComplex(self.real + o.real, self.imag + o.imag)

    def __sub__(self, other):
        o = other if type(other) is DecimalComplex else DecimalComplex.of(other)
        return DecimalComplex(self.real - o.real, self.imag - o.imag)

    def __mul__(self, other):
        o = other if type(other) is DecimalComplex else DecimalComplex.of(other)
        a, b, c, d = self.real, self.imag, o.real, o.imag
        return DecimalComplex(a * c - b * d, a * d + b * c)

    def __truediv__(self, other):
        o = other if type(other) is DecimalComplex else DecimalComplex.of(other)
        a, b, c, d = self.real, self.imag, o.real, o.imag
        den = c * c + d * d
        if not den:  # decimal would signal 0/0 as InvalidOperation
            raise ZeroDivisionError("DecimalComplex division by zero")
        return DecimalComplex((a * c + b * d) / den, (b * c - a * d) / den)

    __radd__, __rmul__ = __add__, __mul__

    def __rsub__(self, other):
        return DecimalComplex.of(other) - self

    def __rtruediv__(self, other):
        return DecimalComplex.of(other) / self

    def __neg__(self):
        return DecimalComplex(-self.real, -self.imag)

    def __abs__(self) -> Decimal:
        return (self.real * self.real + self.imag * self.imag).sqrt()

    def __eq__(self, other):
        try:
            o = other if type(other) is DecimalComplex else DecimalComplex.of(other)
        except TypeError:
            return NotImplemented
        return self.real == o.real and self.imag == o.imag

    def __complex__(self) -> complex:
        return complex(float(self.real), float(self.imag))

    def sqrt(self) -> "DecimalComplex":
        """Principal square root; the negative real axis maps to the upper imaginary axis."""
        a, b = self.real, self.imag
        if not b:
            return DecimalComplex(a.sqrt()) if a >= 0 else DecimalComplex(Decimal(0), (-a).sqrt())
        t = ((abs(self) + abs(a)) / 2).sqrt()
        if a >= 0:
            return DecimalComplex(t, b / (2 * t))
        return DecimalComplex(abs(b) / (2 * t), t if b > 0 else -t)


def _sqrt(w):
    """Principal square root of a DecimalComplex, or elementwise as a complex numpy array."""
    return w.sqrt() if type(w) is DecimalComplex else np.sqrt(np.asarray(w, dtype=complex))


def _linear_products(offsets, slopes, z):
    """(factors, products) of offsets[k][g] + slopes[k][g] z, each column g's K factors multiplied
    in order: (K, G, *z.shape) and (G, *z.shape) from (K, G) arrays, or nested lists."""
    if type(z) is DecimalComplex:
        factors = [[o + s * z for o, s in zip(*row)] for row in zip(offsets, slopes)]
        return factors, [math.prod(column) for column in zip(*factors)]
    factors = np.multiply.outer(slopes, z)
    factors += offsets.reshape(offsets.shape + (1,) * np.ndim(z))
    return factors, math.prod(factors)


def _product_slope(factors, slopes):
    """d/dz of the product of linear factors, each with its dz-slope (product rule): a column
    of _linear_products' factors and slopes."""
    value, slope = factors[0], slopes[0]
    for f, c1 in zip(factors[1:], slopes[1:]):
        value, slope = value * f, slope * f + value * c1
    return slope


@dataclass(frozen=True)
class Recurrence:
    """Monic three-term recurrence t P_n(t) = P_{n+1}(t) + b[n] P_n(t) + c[n] P_{n-1}(t).

    With P_{-1} = 0 and P_0 = 1 (c[0] is held as 0), P_N for N = len(b) is
    the family polynomial divided by its leading coefficient: in x for
    Askey-Wilson, in z for q-Racah. Its zeros are the eigenvalues of the
    tridiagonal (Jacobi) matrix with diagonal b and off-diagonal products c.
    ``dps`` is None for complex entries, or the precision in digits of
    DecimalComplex entries, at which the evaluations below then run. ``value``
    runs on their Decimal parts (``pairs``) at a DecimalComplex argument, as
    does numlin's Newton polish with ``pair_value_and_derivative``.
    """

    b: tuple
    c: tuple
    dps: int | None = None

    @property
    def degree(self) -> int:
        return len(self.b)

    @functools.cached_property
    def pairs(self) -> tuple | None:
        """(b.real, b.imag, c.real, c.imag) per step if every entry is a DecimalComplex."""
        if all(type(v) is DecimalComplex for v in self.b + self.c):
            return tuple((b.real, b.imag, c.real, c.imag) for b, c in zip(self.b, self.c))
        return None

    def arithmetic(self):
        """Context in which arithmetic on the entries runs at their precision."""
        return working_precision(self.dps)

    def value(self, t):
        """P_N(t)."""
        with self.arithmetic():
            if type(t) is DecimalComplex and self.pairs is not None:
                return DecimalComplex(*pair_value_and_derivative(self.pairs, t.real, t.imag, False))
            return self.value_and_derivative(t)[0]

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


def pair_value_and_derivative(pairs: tuple, tr: Decimal, ti: Decimal, derivative: bool = True):
    """Re and Im of P_N(t), then of P_N'(t) with ``derivative``, at t = tr + i ti: the
    Recurrence loops on DecimalComplex unrolled, in its order of operations, so bit for bit."""
    pr = pi = dpr = dpi = dkr = dki = Decimal(0)  # P_{-1}, P_{-1}', P_0' as converted ints
    kr, ki = Decimal(1), Decimal(0)  # P_0
    for br, bi, cr, ci in pairs:
        ur, ui = tr - br, ti - bi
        if derivative:
            dvr = (kr + (ur * dkr - ui * dki)) - (cr * dpr - ci * dpi)
            dvi = (ki + (ur * dki + ui * dkr)) - (cr * dpi + ci * dpr)
            dpr, dpi, dkr, dki = dkr, dki, dvr, dvi
        vr = (ur * kr - ui * ki) - (cr * pr - ci * pi)
        vi = (ur * ki + ui * kr) - (cr * pi + ci * pr)
        pr, pi, kr, ki = kr, ki, vr, vi
    return (kr, ki, dkr, dki) if derivative else (kr, ki)


def _aw_recurrence(p: AWParams, num) -> tuple[list, list, list]:
    """KLS eq. 14.1.5: b_n = (a + 1/a - A_n - C_n)/2, c_n = A_{n-1} C_n / 4; and the terms
    a, 1/a, A_n, C_n that the b_n sum."""
    a, b, c, d, q = (num(v) for v in (p.a, p.b, p.c, p.d, p.q))
    one = num(1)
    ab, ac, ad, bc, bd, cd = a * b, a * c, a * d, b * c, b * d, c * d
    abcd = ab * cd
    diag, off, terms = [], [], [a, one / a]
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
        terms += (a_n, c_n)
        a_prev = a_n
        qn, qn1 = qn * q, qn
    return diag, off, terms


def _racah_recurrence(p: RacahParams, num) -> tuple[list, list, list]:
    """KLS eq. 14.2.4: b_n = 1 + gamma*delta*q - A_n - C_n, c_n = A_{n-1} C_n; and the
    terms 1 + gamma*delta*q, A_n, C_n that the b_n sum."""
    al, be, ga, de, q = (num(v) for v in (p.alpha, p.beta, p.gamma, p.delta, p.q))
    one = num(1)
    ab, bd = al * be, be * de
    shift = one + ga * de * q
    diag, off, terms = [], [], [shift]
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
        terms += (a_n, c_n)
        a_prev = a_n
        qn = qn1
    return diag, off, terms


def recurrence_coefficients(p: AWParams | RacahParams, hp: bool = False) -> Recurrence:
    """The monic three-term recurrence of the family polynomial, up to degree N.

    Koekoek-Lesky-Swarttouw (2010), eq. 14.1.4 (Askey-Wilson, variable x)
    and eq. 14.2.3 (q-Racah, variable z = q^-x + gamma*delta*q^(x+1)), in
    their monic forms 14.1.5 and 14.2.4. Powers of q are carried as running
    products. With ``hp`` the coefficients are DecimalComplex values at
    WORKING_DPS digits (in a decimal context of their own).
    Raises DegenerateDenominator when a coefficient denominator vanishes,
    i.e. when some lower-degree polynomial of the family drops degree, and
    NoConvergence when, at WORKING_DPS digits, the sum that forms b_n
    cancels catastrophically (see _check_cancellation).
    """
    if not isinstance(p, (AWParams, RacahParams)):
        raise TypeError(f"unsupported parameter type {type(p).__name__}")
    build = _aw_recurrence if isinstance(p, AWParams) else _racah_recurrence
    dps = WORKING_DPS if hp else None
    try:
        with working_precision(dps):
            diag, off, terms = build(p, DecimalComplex.of if hp else complex)
            if hp:
                _check_cancellation(diag, off, terms, dps)
            return Recurrence(tuple(diag), tuple(off), dps)
    except ZeroDivisionError as exc:
        raise DegenerateDenominator(f"three-term recurrence denominator vanished: {exc}") from exc


def _check_cancellation(diag: list, off: list, terms: list, dps: int) -> None:
    """Raise NoConvergence when the terms that the b_n sum exceed the Jacobi scale
    max(1, |b_n|, |c_n|^(1/2)) by more than 10^(dps-17): rounding at dps digits then
    leaves b_n, and the zeros, less accurate than a double. An extreme |a| does that.
    Compared in squares, which spares a square root per term."""
    largest = max(t.real * t.real + t.imag * t.imag for t in terms)
    scale = max(Decimal(1), *(b.real * b.real + b.imag * b.imag for b in diag), *map(abs, off))
    if largest > scale * Decimal(10) ** (2 * (dps - 17)):
        raise NoConvergence(
            f"the recurrence diagonal b_n cancels catastrophically: its terms reach "
            f"{float(largest.sqrt()):.3e} against the Jacobi scale {float(scale.sqrt()):.3e}, "
            f"beyond what {dps} digits resolve"
        )
