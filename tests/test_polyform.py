import itertools
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from monomial_oracle import monomial_coefficients
from qseries_oracle import (
    aw_eval,
    aw_rational_eval,
    phi43_terminating,
    qpochhammer_multi,
    racah_eval,
)
from qzeros import polyform
from qzeros.errors import DegenerateDenominator, ZeroArgument
from qzeros.numlin import find_polynomial_zeros
from qzeros.polyform import AWParams, RacahParams, recurrence_coefficients, x_to_z, z_to_x
from qzeros.sweeps import SplitMix64

AW_ANCHOR = AWParams(a=2, b=3, c=4, d=5, q=0.5, N=1)
RACAH_ANCHOR = RacahParams(alpha=3, beta=2, gamma=4, delta=5, q=0.5, N=1)


class TestParams:
    def test_q_zero_or_one_rejected(self):
        with pytest.raises(ValueError):
            AWParams(a=2, b=3, c=4, d=5, q=1.0, N=2)
        with pytest.raises(ValueError):
            RacahParams(alpha=1, beta=1, gamma=1, delta=1, q=0.0, N=2)

    def test_vanishing_pochhammer_column_rejected(self):
        # a*b = 1/q makes (ab;q)_2 contain the factor 1 - (1/q) q = 0
        with pytest.raises(DegenerateDenominator):
            AWParams(a=2.0, b=1.0, c=4, d=5, q=0.5, N=2)

    def test_base_near_one_admitted(self):
        # (q^-N;q)_N underflows to 0 at q = 1 - 1e-8, N = 60, but none of its factors is 0
        polyform.check_base(1 - 1e-8, 60)
        # nor of (P q^(N+1);q)_N at P = 1: each factor is about 1e-6
        polyform._check_degree(SimpleNamespace(q=1 - 1e-8, N=60, product=1.0, shift=1), "P")

    def test_maximum_degree_checked_before_the_factor_loop(self, monkeypatch):
        # at N = 10^8 the loop over the factors of (q^-N;q)_N alone would take seconds
        def loop(*_):
            raise AssertionError("_check_factors ran")

        monkeypatch.setattr(polyform, "_check_factors", loop)
        with pytest.raises(ValueError, match=f"maximum degree {polyform.MAX_DEGREE}"):
            polyform.check_base(1 - 1e-7, 10**8)

    def test_root_of_unity_rejected(self):
        # q = -1, N = 2: (q^-2;q)_2 = (1 - 1)(1 + 1) has an exactly vanishing factor
        with pytest.raises(DegenerateDenominator):
            polyform.check_base(-1.0, 2)

    def test_racah_gamma_q_column_rejected(self):
        # gamma*q = 2 at q = 1/2: (gamma*q;q)_2 hits 1 - 2*(1/2) = 0
        with pytest.raises(DegenerateDenominator):
            RacahParams(alpha=3, beta=2, gamma=4, delta=5, q=0.5, N=2)


class TestChangeOfVariables:
    def test_fixed_point(self):
        assert x_to_z(1.0) == 1.0

    def test_imaginary_unit(self):
        assert z_to_x(1j) == pytest.approx(0.0)

    def test_zero_rejected(self):
        with pytest.raises(ZeroArgument):
            z_to_x(0.0)

    @given(
        x=st.builds(
            complex,
            st.floats(min_value=-3, max_value=3),
            st.floats(min_value=-3, max_value=3),
        )
    )
    def test_reciprocal_product(self, x):
        z = x_to_z(x)
        other = x - (z - x)  # x - sqrt(x^2-1)
        assert abs(z * other - 1) <= 1e-10 * (1 + abs(z))

    @given(
        x=st.builds(
            complex,
            st.floats(min_value=-3, max_value=3),
            st.floats(min_value=-3, max_value=3),
        )
    )
    def test_roundtrip(self, x):
        assert abs(z_to_x(x_to_z(x)) - x) <= 1e-10 * (1 + abs(x))


class TestAskeyWilsonEval:
    def test_degree_zero_is_one(self):
        p0 = AWParams(a=2, b=3, c=4, d=5, q=0.5, N=0)
        value, derivative = aw_eval(p0, 0.7)
        assert value == pytest.approx(1.0)
        assert derivative == 0.0

    def test_closed_form_linear(self):
        # p_1(x) = (1/a)[(1-ab)(1-ac)(1-ad) - (1-abcd)(1+a^2-2ax)] = 140 - 238x
        value, derivative = aw_eval(AW_ANCHOR, 0.0)
        assert value == pytest.approx(140.0)
        assert derivative == pytest.approx(-238.0)

    def test_closed_form_zero(self):
        value, _ = aw_eval(AW_ANCHOR, 10 / 17)
        assert abs(value) <= 1e-10

    def test_derivative_matches_central_differences(self):
        p = AWParams(a=1.2, b=0.7 + 0.3j, c=-0.4, d=0.9, q=0.6, N=4)
        h = 1e-6
        for x in (0.3, -1.2 + 0.4j, 2.0):
            fd = (aw_eval(p, x + h)[0] - aw_eval(p, x - h)[0]) / (2 * h)
            exact = aw_eval(p, x)[1]
            assert abs(exact - fd) <= 1e-5 * (1 + abs(exact))

    def test_parameter_permutation_symmetry(self):
        base = AWParams(a=1.3, b=0.6, c=-0.8, d=0.5 + 0.5j, q=0.55, N=4)
        x = 0.37 - 0.21j
        reference, _ = aw_eval(base, x)
        for perm in itertools.permutations((base.a, base.b, base.c, base.d)):
            swapped = AWParams(a=perm[0], b=perm[1], c=perm[2], d=perm[3], q=base.q, N=4)
            value, _ = aw_eval(swapped, x)
            assert abs(value - reference) <= 1e-8 * (1 + abs(reference))


class TestRationalForm:
    def test_symmetry_under_inversion(self):
        p = AWParams(a=1.2, b=0.7, c=-0.4, d=0.9 + 0.2j, q=0.6, N=3)
        stream = SplitMix64(42)
        for _ in range(20):
            radius = 0.5 + 1.5 * stream.next_float()
            z = radius * np.exp(2j * np.pi * stream.next_float())
            lhs = aw_rational_eval(p, z)
            rhs = aw_rational_eval(p, 1 / z)
            assert abs(lhs - rhs) <= 1e-10 * (1 + abs(lhs))

    def test_zero_of_rational_form(self):
        zbar = (10 + 1j * np.sqrt(189)) / 17
        assert abs(aw_rational_eval(AW_ANCHOR, zbar)) <= 1e-9

    def test_z_equal_one_is_x_equal_one(self):
        p = AWParams(a=1.2, b=0.7, c=-0.4, d=0.9, q=0.6, N=3)
        assert aw_rational_eval(p, 1.0) == pytest.approx(aw_eval(p, 1.0)[0])

    def test_matches_phi43_route(self):
        # P_N(z) = (ab,ac,ad;q)_N a^-N 4phi3(q^-N, abcd q^(N-1), az, a/z; ab, ac, ad)
        p = AWParams(a=1.1, b=0.5, c=-0.7, d=1.3, q=0.45, N=4)
        prefactor = qpochhammer_multi((p.a * p.b, p.a * p.c, p.a * p.d), p.q, p.N) / p.a**p.N
        for z in (0.8 + 0.3j, -1.4 + 0.2j, 2.2):
            direct = aw_rational_eval(p, z)
            series = prefactor * phi43_terminating(
                (p.q**-p.N, p.abcd * p.q ** (p.N - 1), p.a * z, p.a / z),
                (p.a * p.b, p.a * p.c, p.a * p.d),
                p.q,
                p.q,
                p.N,
            )
            assert abs(direct - series) <= 1e-9 * (1 + abs(series))


class TestRacahEval:
    def test_degree_zero_is_one(self):
        p0 = RacahParams(alpha=3, beta=2, gamma=4, delta=5, q=0.5, N=0)
        assert racah_eval(p0, 1.3)[0] == pytest.approx(1.0)

    def test_first_factor_zero_point(self):
        # z = 1 + gamma*delta*q kills the s = 0 factor of every m >= 1 term
        p = RacahParams(alpha=1.2, beta=0.4, gamma=0.9, delta=1.1, q=0.6, N=5)
        z = 1 + p.gammadelta * p.q
        assert racah_eval(p, z)[0] == pytest.approx(1.0)

    def test_closed_form_linear(self):
        # R_1(z) = (z - 7)/4 for the anchor parameters
        value, derivative = racah_eval(RACAH_ANCHOR, 7.0)
        assert abs(value) <= 1e-12
        assert derivative == pytest.approx(0.25)
        assert racah_eval(RACAH_ANCHOR, 0.0)[0] == pytest.approx(-7 / 4)

    def test_derivative_matches_central_differences(self):
        p = RacahParams(alpha=1.2, beta=0.4, gamma=0.9 + 0.1j, delta=1.1, q=0.6, N=4)
        h = 1e-6
        for z in (0.5, 2.0 - 0.7j, -1.1):
            fd = (racah_eval(p, z + h)[0] - racah_eval(p, z - h)[0]) / (2 * h)
            exact = racah_eval(p, z)[1]
            assert abs(exact - fd) <= 1e-5 * (1 + abs(exact))

    def test_lattice_argument_matches_phi43(self):
        # with z = q^-x + gamma*delta*q^(x+1) the polynomial agrees with the
        # 4phi3 series in the lattice variables, for non-integer complex x
        p = RacahParams(alpha=1.3, beta=0.5, gamma=0.8, delta=1.2, q=0.55, N=4)
        stream = SplitMix64(9)
        for _ in range(6):
            x = complex(2 * stream.next_float() - 0.5, stream.next_float() - 0.5)
            qminusx = np.exp(-x * np.log(p.q))  # q^-x, principal branch
            z = qminusx + p.gammadelta * p.q / qminusx
            direct = racah_eval(p, z)[0]
            series = phi43_terminating(
                (
                    p.q**-p.N,
                    p.alphabeta * p.q ** (p.N + 1),
                    qminusx,
                    p.gammadelta * p.q / qminusx,
                ),
                (p.alpha * p.q, p.beta * p.delta * p.q, p.gamma * p.q),
                p.q,
                p.q,
                p.N,
            )
            assert abs(direct - series) <= 1e-9 * (1 + abs(series))


class TestMonomialCoefficients:
    def test_aw_anchor(self):
        coeffs = monomial_coefficients(AW_ANCHOR).coeffs
        assert coeffs == pytest.approx([140.0, -238.0])

    def test_racah_anchor(self):
        coeffs = monomial_coefficients(RACAH_ANCHOR).coeffs
        assert coeffs == pytest.approx([-7 / 4, 1 / 4])

    def test_length_and_leading(self):
        p = AWParams(a=1.2, b=0.7, c=-0.4, d=0.9, q=0.6, N=6)
        poly = monomial_coefficients(p)
        assert len(poly.coeffs) == 7
        assert poly.coeffs[-1] != 0

    @pytest.mark.parametrize(
        "params",
        [
            AWParams(a=1.2, b=0.7 + 0.3j, c=-0.4, d=0.9, q=0.6, N=5),
            RacahParams(alpha=1.2, beta=0.4, gamma=0.9, delta=1.1 - 0.2j, q=0.6, N=5),
        ],
        ids=["aw", "racah"],
    )
    def test_consistency_with_structured_eval(self, params):
        # coefficients reproduce the structured evaluation at N+2 points
        poly = monomial_coefficients(params)
        evaluate = aw_eval if isinstance(params, AWParams) else racah_eval
        stream = SplitMix64(5)
        for _ in range(params.N + 2):
            x = complex(3 * stream.next_float() - 1.5, stream.next_float() - 0.5)
            direct = evaluate(params, x)[0]
            via_coeffs = sum(c * x**k for k, c in enumerate(poly.coeffs))
            assert abs(direct - via_coeffs) <= 1e-9 * (1 + abs(direct))


class TestRecurrence:
    def test_aw_anchor(self):
        rec = recurrence_coefficients(AW_ANCHOR)
        assert rec.b == pytest.approx([10 / 17])
        assert rec.value(10 / 17) == pytest.approx(0.0, abs=1e-15)

    def test_racah_anchor(self):
        rec = recurrence_coefficients(RACAH_ANCHOR)
        assert rec.b == pytest.approx([7.0])

    @pytest.mark.parametrize(
        "params",
        [
            AWParams(a=1.2, b=0.7 + 0.3j, c=-0.4, d=0.9, q=0.6, N=5),
            AWParams(a=1.2, b=0.7 + 0.3j, c=-0.4, d=0.9, q=0.5 + 0.2j, N=12),
            RacahParams(alpha=1.2, beta=0.4, gamma=0.9, delta=1.1 - 0.2j, q=0.6, N=5),
            RacahParams(alpha=1.2, beta=0.4, gamma=0.9, delta=1.1 - 0.2j, q=0.3, N=12),
        ],
        ids=["aw-5", "aw-12", "racah-5", "racah-12"],
    )
    def test_matches_monomial_oracle(self, params):
        # P_N is the oracle polynomial over its leading coefficient, in double
        # and in mpmath; the oracle runs at 120 digits to survive its cancellation
        poly = monomial_coefficients(params, dps=120)
        stream = SplitMix64(5)
        for hp, tol in ((False, 1e-9), (True, 1e-30)):
            rec = recurrence_coefficients(params, hp=hp)
            assert rec.degree == params.N
            for _ in range(params.N + 2):
                x = complex(3 * stream.next_float() - 1.5, stream.next_float() - 0.5)
                got = rec.value(x)
                with mpmath.workdps(120):
                    oracle = mpmath.polyval(poly.coeffs_hp[::-1], x) / poly.coeffs_hp[-1]
                    if hp:  # the decimal value, carried into mpmath at 120 digits
                        got = mpmath.mpc(mpmath.mpf(str(got.real)), mpmath.mpf(str(got.imag)))
                    assert abs(got - oracle) <= tol * (1 + abs(oracle))

    def test_derivative_matches_central_differences(self):
        rec = recurrence_coefficients(AWParams(a=1.2, b=0.7, c=-0.4, d=0.9, q=0.6, N=6))
        for x in (0.3 + 0.1j, -0.8, 1.4 - 0.5j):
            h = 1e-6
            fd = (rec.value(x + h) - rec.value(x - h)) / (2 * h)
            value, derivative = rec.value_and_derivative(x)
            assert value == rec.value(x)
            assert abs(derivative - fd) <= 1e-6 * (1 + abs(derivative))

    def test_zero_diagonal_is_not_a_cancellation(self):
        # a + 1/a = 2 = A_0 exactly: b_0 = 0, the zero sits at x = 0, and a Jacobi scale of 0
        # must not read as a total cancellation of b_0's terms
        p = AWParams(a=1, b=2, c=3, d=0, q=0.5, N=1)
        rec = recurrence_coefficients(p, hp=True)
        assert rec.b[0] == 0
        assert find_polynomial_zeros(rec)[0] == [0]

    def test_lower_degree_drop_rejected(self):
        # abcd = 1 makes the degree-1 polynomial constant, so the recurrence breaks
        p = AWParams(a=2, b=1, c=0.25, d=2, q=0.3, N=3)
        with pytest.raises(DegenerateDenominator):
            recurrence_coefficients(p)
