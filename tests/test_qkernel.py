import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qseries_oracle import modified_qpochhammer, modified_qpochhammer_derivative, phi43_terminating
from qzeros.errors import DegenerateDenominator
from qzeros.qkernel import qpochhammer

finite_complex = st.builds(
    complex,
    st.floats(min_value=-4, max_value=4, allow_nan=False),
    st.floats(min_value=-4, max_value=4, allow_nan=False),
)


class TestQPochhammer:
    def test_empty_product(self):
        assert qpochhammer(17.0 + 3.0j, -2.5, 0) == 1.0

    def test_direct_expansion(self):
        assert qpochhammer(0.5, 0.5, 2) == pytest.approx(0.375)

    def test_exact_zero_factor(self):
        # third factor is 1 - 4*(1/4) = 0 exactly
        assert qpochhammer(4.0, 0.5, 3) == 0.0

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            qpochhammer(1.0, 0.5, -1)

    @given(c=finite_complex, q=finite_complex, n=st.integers(min_value=0, max_value=12))
    def test_recurrence(self, c, q, n):
        lhs = qpochhammer(c, q, n + 1)
        rhs = qpochhammer(c, q, n) * (1 - c * q**n)
        assert abs(lhs - rhs) <= 1e-9 * (1 + abs(rhs))


class TestModifiedQPochhammer:
    def test_empty(self):
        assert modified_qpochhammer(2.0, 0.5, 123.0, 0) == 1.0

    def test_single_factor(self):
        # 1 + a^2 - 2 a x with a = 2
        for x in (0.0, 0.3, 1.5 - 0.2j):
            assert modified_qpochhammer(2.0, 0.5, x, 1) == pytest.approx(5 - 4 * x)

    def test_exact_zero_at_unit(self):
        # s = 0 factor is (1-1)^2 = 0 for a = 1, x = 1
        assert modified_qpochhammer(1.0, 0.77, 1.0, 3) == 0.0

    @given(
        a=finite_complex,
        q=finite_complex,
        m=st.integers(min_value=0, max_value=6),
    )
    @settings(max_examples=50)
    def test_degree_in_x(self, a, q, m):
        # finite differences of order m+1 over m+2 equispaced samples vanish
        samples = np.array(
            [modified_qpochhammer(a, q, 0.37 + 0.25 * k, m) for k in range(m + 2)]
        )
        magnitude = np.max(np.abs(samples)) + 1.0
        assert abs(np.diff(samples, n=m + 1)[0]) <= 1e-7 * magnitude


class TestModifiedQPochhammerDerivative:
    def test_constant(self):
        assert modified_qpochhammer_derivative(2.0, 0.5, 0.3, 0) == 0.0

    def test_linear_factor(self):
        assert modified_qpochhammer_derivative(2.0 + 1.0j, 0.9, 0.3, 1) == pytest.approx(
            -2 * (2.0 + 1.0j)
        )

    def test_hand_value(self):
        # (5-4x)(2-2x) has derivative -18 at x = 0
        assert modified_qpochhammer_derivative(2.0, 0.5, 0.0, 2) == pytest.approx(-18.0)

    @given(
        a=finite_complex,
        x=finite_complex,
        m=st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=50)
    def test_matches_central_differences(self, a, x, m):
        q = 0.6
        h = 1e-6
        fd = (modified_qpochhammer(a, q, x + h, m) - modified_qpochhammer(a, q, x - h, m)) / (
            2 * h
        )
        exact = modified_qpochhammer_derivative(a, q, x, m)
        assert abs(exact - fd) <= 1e-6 * (1 + abs(exact))


class TestPhi43:
    def test_unit_numerator_parameter(self):
        # (1;q)_k = 0 for k >= 1, so only the k = 0 term survives
        q = 0.37
        out = phi43_terminating((q**-4, 1.0, 0.3, 0.8), (0.5, 0.25, 2.0), q, q, 4)
        assert out == pytest.approx(1.0)

    def test_degree_zero(self):
        assert phi43_terminating((1.0, 2.0, 3.0, 4.0), (5.0, 6.0, 7.0), 0.5, 0.5, 0) == 1.0

    def test_hand_expansion_degree_one(self):
        # 1 - (1-2)^3/(1-3)^3 = 7/8 independently of q
        for q in (0.5, 0.3, 0.8 + 0.1j):
            out = phi43_terminating((1 / q, 2.0, 2.0, 2.0), (3.0, 3.0, 3.0), q, q, 1)
            assert out == pytest.approx(7 / 8)

    def test_degenerate_denominator(self):
        q = 0.5
        # den contains q^-1: (q^-1; q)_k hits 1 - q^-1 q = 0 at k = 1
        with pytest.raises(DegenerateDenominator):
            phi43_terminating((q**-2, 2.0, 2.0, 2.0), (1 / q, 3.0, 3.0), q, q, 2)

    def test_underflowing_denominator(self):
        # 1 - b q^0 = -1e-307j is not 0, but the term it divides overflows
        den = (0j, 0j, 1 + 1.0518684202520213e-307j)
        with pytest.raises(DegenerateDenominator):
            phi43_terminating((0.45**-3, 0j, 0j, 0j), den, 0.45, 0.45, 3)

    @given(data=st.data())
    @settings(max_examples=40)
    def test_parameter_permutation_invariance(self, data):
        q = 0.45
        n = data.draw(st.integers(min_value=1, max_value=5))
        num_rest = data.draw(st.lists(finite_complex, min_size=3, max_size=3))
        den = data.draw(st.lists(finite_complex, min_size=3, max_size=3))
        perm_num = data.draw(st.permutations(num_rest))
        perm_den = data.draw(st.permutations(den))
        try:
            base = phi43_terminating((q**-n, *num_rest), tuple(den), q, q, n)
            swapped = phi43_terminating((q**-n, *perm_num), tuple(perm_den), q, q, n)
        except DegenerateDenominator:
            return
        assert abs(base - swapped) <= 1e-9 * (1 + abs(base))
