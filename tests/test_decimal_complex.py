"""DecimalComplex, the WORKING_DPS arithmetic of the zero polish and identity residuals.

Arithmetic is checked against mpmath at 120 digits; the zeros are checked
against a polish of the same generic recurrence code on mpmath values at
100 digits; and the thread's decimal context must come out of every
high-precision stage as it went in.
"""

import cmath
import dataclasses
import decimal
import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction

import mpmath
import numpy as np
import pytest

import qzeros
from qzeros import awspec, polyform, racahspec
from qzeros.errors import DegenerateDenominator, QZerosError
from qzeros.numlin import compute_zero_set, find_polynomial_zeros
from qzeros.polyform import (
    WORKING_DPS,
    AWParams,
    DecimalComplex,
    Recurrence,
    recurrence_coefficients,
    working_precision,
)
from qzeros.sweeps import SplitMix64, draw_aw_params, draw_racah_params

#: Normwise relative error allowed for one operation: a few units of 5e-52.
OP_TOL = 1e-50


def to_mp(value) -> mpmath.mpc:
    """A DecimalComplex carried into mpmath; call under workdps(120)."""
    return mpmath.mpc(mpmath.mpf(str(value.real)), mpmath.mpf(str(value.imag)))


def operands(seed, count=40):
    """Seeded complex doubles with decimal exponents spread over [-300, 300]."""
    stream = SplitMix64(seed)
    out = []
    for i in range(count):
        # every fourth operand sits at the edge, 1e+-300 in one or both parts
        exps = [300, -300] if i % 4 == 0 else [int(600 * stream.next_float()) - 300 for _ in "ri"]
        re, im = ((2 * stream.next_float() - 1) * 10.0**e for e in exps)
        out.append(complex(re, im))
    return out


def rel_gap(got, exact) -> float:
    return float(abs(to_mp(got) - exact) / abs(exact))


class TestArithmetic:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_binary_operations_match_mpmath(self, seed):
        xs, ys = operands(seed), operands(seed + 100)
        with working_precision(WORKING_DPS), mpmath.workdps(120):
            for x, y in zip(xs, ys):
                dx, dy = DecimalComplex.of(x), DecimalComplex.of(y)
                mx, my = mpmath.mpc(x), mpmath.mpc(y)
                assert rel_gap(dx + dy, mx + my) <= OP_TOL
                assert rel_gap(dx - dy, mx - my) <= OP_TOL
                assert rel_gap(dx * dy, mx * my) <= OP_TOL
                assert rel_gap(dx / dy, mx / my) <= OP_TOL
                assert rel_gap(-dx, -mx) <= OP_TOL

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_abs_and_sqrt_match_mpmath(self, seed):
        with working_precision(WORKING_DPS), mpmath.workdps(120):
            for x in operands(seed):
                dx, mx = DecimalComplex.of(x), mpmath.mpc(x)
                assert abs(mpmath.mpf(str(abs(dx))) - abs(mx)) <= OP_TOL * abs(mx)
                assert rel_gap(dx.sqrt(), mpmath.sqrt(mx)) <= OP_TOL

    def test_mixed_operands(self):
        with working_precision(WORKING_DPS), mpmath.workdps(120):
            x = DecimalComplex.of(0.3 - 0.7j)
            for other in (3, 0.1, 2.5 - 1e-300j, np.float64(0.2), np.complex128(1 + 2j)):
                mo = mpmath.mpc(complex(other))
                for got, exact in (
                    (x + other, to_mp(x) + mo),
                    (other + x, to_mp(x) + mo),
                    (other - x, mo - to_mp(x)),
                    (other * x, to_mp(x) * mo),
                    (other / x, mo / to_mp(x)),
                    (x / other, to_mp(x) / mo),
                ):
                    assert type(got) is DecimalComplex
                    assert rel_gap(got, exact) <= OP_TOL

    def test_unsupported_operand_is_refused(self):
        # no silent round trip through double
        with pytest.raises(TypeError):
            DecimalComplex.of(1) + mpmath.mpc(1)
        with pytest.raises(TypeError):
            DecimalComplex.of("1")

    def test_division_by_zero_raises(self):
        with working_precision(WORKING_DPS):
            with pytest.raises(ZeroDivisionError):
                DecimalComplex.of(1 + 1j) / 0
            with pytest.raises(ZeroDivisionError):
                DecimalComplex.of(0) / DecimalComplex.of(0j)

    def test_equality_and_complex(self):
        assert DecimalComplex.of(2 - 3j) == 2 - 3j
        assert DecimalComplex.of(2) == 2
        assert DecimalComplex.of(2) != 2 + 1e-300j
        assert complex(DecimalComplex.of(-1.5e-300 + 7e300j)) == -1.5e-300 + 7e300j


class TestPrincipalSqrt:
    @pytest.mark.parametrize("z", [3 + 4j, -3 + 4j, -3 - 4j, 3 - 4j, 0.5j, -0.5j, 9])
    def test_quadrants_match_cmath(self, z):
        with working_precision(WORKING_DPS):
            root = DecimalComplex.of(z).sqrt()
            assert root.real >= 0
            assert complex(root) == pytest.approx(cmath.sqrt(z), rel=1e-15)
            assert abs(root * root - z) <= Decimal("1e-50") * abs(DecimalComplex.of(z))

    @pytest.mark.parametrize("imag", [0.0, -0.0])
    def test_negative_real_axis_maps_to_upper_half(self, imag):
        with working_precision(WORKING_DPS):
            root = DecimalComplex.of(complex(-4.0, imag)).sqrt()
        assert root == 2j

    def test_zero(self):
        with working_precision(WORKING_DPS):
            assert DecimalComplex.of(0).sqrt() == 0


class TestConversion:
    @pytest.mark.parametrize(
        "value", [0.1, -1e-300, 1.7976931348623157e308, 5e-324, 2**80 + 1, True, np.float64(0.3)]
    )
    def test_real_is_exact(self, value):
        dc = DecimalComplex.of(value)
        assert Fraction(dc.real) == Fraction(value)
        assert dc.imag == 0

    @pytest.mark.parametrize(
        "value", [0.1 - 0.2j, complex(1e300, -3e-300), np.complex128(0.7 + 1e-17j)]
    )
    def test_complex_is_exact(self, value):
        dc = DecimalComplex.of(value)
        assert Fraction(dc.real) == Fraction(value.real)
        assert Fraction(dc.imag) == Fraction(value.imag)
        assert complex(dc) == value


def test_hp_recurrence_degree_drop_rejected():
    # abcd = 1 makes the degree-1 polynomial constant: a decimal division by zero
    p = AWParams(a=2, b=1, c=0.25, d=2, q=0.3, N=3)
    with pytest.raises(DegenerateDenominator):
        recurrence_coefficients(p, hp=True)


class TestThreadContextUntouched:
    """The thread's decimal context is never used for, nor changed by, the work."""

    @staticmethod
    def run_stages():
        aw = draw_aw_params(SplitMix64(0), 0.6, 6)
        racah = draw_racah_params(SplitMix64(0), 0.6, 6)
        zs_aw, zs_racah = compute_zero_set(aw), compute_zero_set(racah)
        residuals = (
            awspec.prop21_residuals(aw, zs_aw),
            racahspec.prop23_residuals(racah, zs_racah),
        )
        return [complex(z) for z in zs_aw.zeros_hp + zs_racah.zeros_hp], residuals

    @staticmethod
    def corrupted(zs):
        # a signalling NaN in the carried recurrence raises inside the decimal loop
        n = zs.recurrence_hp.degree
        snan = DecimalComplex(Decimal("sNaN"))
        rec = Recurrence((snan,) * n, zs.recurrence_hp.c, dps=zs.recurrence_hp.dps)
        return dataclasses.replace(zs, recurrence_hp=rec)

    def test_context_unchanged_on_success_and_failure(self):
        expected_zeros, expected_res = self.run_stages()
        hostile = decimal.Context(prec=5, rounding=decimal.ROUND_DOWN, traps=[])
        with decimal.localcontext(hostile) as ctx:
            zeros, res = self.run_stages()
            assert zeros == expected_zeros
            assert all(np.array_equal(a, b) for a, b in zip(res, expected_res))

            aw = draw_aw_params(SplitMix64(0), 0.6, 6)
            racah = draw_racah_params(SplitMix64(0), 0.6, 6)
            with pytest.raises(DegenerateDenominator):
                compute_zero_set(AWParams(a=2, b=1, c=0.25, d=2, q=0.3, N=3))
            with pytest.raises(decimal.InvalidOperation):
                awspec.prop21_residuals(aw, self.corrupted(compute_zero_set(aw)))
            with pytest.raises(decimal.InvalidOperation):
                racahspec.prop23_residuals(racah, self.corrupted(compute_zero_set(racah)))

            assert decimal.getcontext() is ctx
            assert (ctx.prec, ctx.rounding, ctx.Emin, ctx.Emax) == (
                5, decimal.ROUND_DOWN, hostile.Emin, hostile.Emax
            )
            assert not any(ctx.traps.values())
            assert not any(ctx.flags.values())


#: Oracle grid: seeds 0-3, both families, four q (complex and negative included), five N.
ORACLE_CELLS = [
    (seed, family, q, n)
    for seed in range(4)
    for family in ("aw", "racah")
    for q in (0.3, 0.6, 0.5 + 0.2j, -0.4)
    for n in (1, 2, 6, 12, 24)
]


@pytest.mark.parametrize("seed,family,q,n", ORACLE_CELLS)
def test_zeros_match_mpmath_polish_at_100_digits(seed, family, q, n):
    # the same generic recurrence and Newton code, run on mpmath values
    draw = draw_aw_params if family == "aw" else draw_racah_params
    build = polyform._aw_recurrence if family == "aw" else polyform._racah_recurrence
    try:
        p = draw(SplitMix64(seed), q, n)
        decimal_zeros, _ = find_polynomial_zeros(recurrence_coefficients(p, hp=True))
        with mpmath.workdps(100):
            diag, off, _ = build(p, mpmath.mpc)  # and the terms the diagonal sums
            rec = Recurrence(tuple(diag), tuple(off), dps=100)
            oracle_zeros, _ = find_polynomial_zeros(rec)
    except QZerosError as exc:
        pytest.skip(f"draw raises {type(exc).__name__}")
    with mpmath.workdps(120):
        oracle = [mpmath.mpc(z) for z in oracle_zeros]
        for z in decimal_zeros:
            got = to_mp(z)
            gap = min(abs(got - o) for o in oracle) / max(1, abs(got))
            assert gap <= 1e-45


def test_cli_commands_never_import_mpmath():
    aw = ["--family", "aw", "-a", "2", "-b", "3", "-c", "4", "-d", "5", "-q", "0.5", "-N", "3"]
    sweep = ["sweep", "--family", "racah", "-q", "0.6", "-N", "5", "--count", "3"]
    script = (
        "import contextlib, io, sys\n"
        "from qzeros.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [main([cmd, *{aw!r}]) for cmd in ('verify', 'zeros', 'flow')]\n"
        f"    codes.append(main({sweep!r}))\n"
        "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'mpmath'))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(qzeros.__file__)))
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip().splitlines()[-1] == "[0, 0, 0, 0] []"
