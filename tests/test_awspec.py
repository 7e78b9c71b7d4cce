import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from qseries_oracle import (
    apply_Q_operator,
    aw_rational_eval,
    det_closed_form,
    eval_A,
    q_eigenvalue,
)
from qzeros import awspec
from qzeros.errors import SingularConfiguration
from qzeros.cli import run_verify
from qzeros.numlin import compute_zero_set, eigenvalues, match_spectra
from qzeros.polyform import AWParams
from qzeros.report import spectrum_closed_form, trace_closed_form
from qzeros.sweeps import SplitMix64, draw_aw_params

ANCHOR = AWParams(a=2, b=3, c=4, d=5, q=0.5, N=1)


def random_instance(seed, q, n):
    p = draw_aw_params(SplitMix64(seed), q, n)
    return p, compute_zero_set(p)


class TestStructureFunctions:
    def test_A_at_origin(self):
        assert eval_A(ANCHOR, 0.0) == pytest.approx(1.0)

    def test_A_zero_at_reciprocal_parameter(self):
        assert eval_A(ANCHOR, 0.25) == pytest.approx(0.0)  # 1 - c z with c = 4

    def test_A_guard_at_unit_square(self):
        with pytest.raises(SingularConfiguration) as info:
            awspec._operator_terms(ANCHOR, np.array([1.0 + 0j]))
        assert info.value.guard == "z^2-1"

    def test_A_slope_matches_central_differences(self):
        p = AWParams(a=1.2, b=0.7, c=-0.4, d=0.9 + 0.3j, q=0.6, N=3)
        h = 1e-7
        a = lambda z, slope=False: awspec._A(p.q, awspec._A_factors(p), z, slope=slope)
        for z in (0.4 + 0.6j, 1.8, -0.9 + 0.1j):
            value, slope = a(z, True)
            assert value == a(z)
            fd = (a(z + h) - a(z - h)) / (2 * h)
            assert abs(slope - fd) <= 1e-6 * (1 + abs(slope))

    def test_structure_eval_shapes(self):
        p, zs = random_instance(3, 0.5, 4)
        A = eval_A(p, np.stack([zs.zbar, 1 / zs.zbar], axis=1))
        for i in range(4):
            assert A[i, 0] == pytest.approx(eval_A(p, zs.zbar[i]))
            assert A[i, 1] == pytest.approx(eval_A(p, 1 / zs.zbar[i]))


class TestMatrixM:
    def test_linear_anchor_entry(self):
        zs = compute_zero_set(ANCHOR)
        m = awspec.build_matrix_M(ANCHOR, zs)
        assert m.entries[0, 0] == pytest.approx(-119.0, abs=1e-10)
        assert m.label == "M"

    def test_spectrum_matches_prediction_small(self):
        p, zs = random_instance(8, 0.5 + 0.2j, 2)
        m = awspec.build_matrix_M(p, zs)
        assert match_spectra(eigenvalues(m.entries), m.predicted).max_rel_gap <= 1e-6

    def test_spectrum_matches_prediction_larger(self):
        p, zs = random_instance(9, 0.3, 7)
        m = awspec.build_matrix_M(p, zs)
        assert match_spectra(eigenvalues(m.entries), m.predicted).max_rel_gap <= 1e-6

    def test_per_coordinate_branch_flip_invariance(self):
        p, zs = random_instance(5, 0.6, 5)
        m = awspec.build_matrix_M(p, zs).entries
        scale = np.max(np.abs(m))
        for j in range(5):
            zb = zs.zbar.copy()
            zb[j] = 1 / zb[j]
            flipped = awspec.build_matrix_M(p, dataclasses.replace(zs, zbar=zb)).entries
            assert np.max(np.abs(flipped - m) / np.maximum(np.abs(m), 1e-3 * scale)) <= 1e-8

    def test_spectrum_invariant_under_parameter_permutation(self):
        p, zs = random_instance(12, 0.6, 3)
        base = np.sort_complex(eigenvalues(awspec.build_matrix_M(p, zs).entries))
        swapped = AWParams(a=p.b, b=p.d, c=p.a, d=p.c, q=p.q, N=p.N)
        zs2 = compute_zero_set(swapped)
        other = np.sort_complex(eigenvalues(awspec.build_matrix_M(swapped, zs2).entries))
        assert match_spectra(base, other).max_rel_gap <= 1e-8


class TestPredictedMu:
    def test_anchor(self):
        assert spectrum_closed_form(ANCHOR.q, ANCHOR.product, ANCHOR.shift, ANCHOR.N) == pytest.approx([-119.0])

    def test_hand_values_degree_two(self):
        p = AWParams(a=2, b=3, c=0.25, d=0.2, q=0.5, N=2)  # abcd = 3/10
        assert spectrum_closed_form(p.q, p.product, p.shift, p.N) == pytest.approx([37 / 20, 51 / 20])

    def test_vanishes_as_q_power_approaches_one(self):
        # the factor (1 - q^n) kills mu_n as q^n -> 1
        p = AWParams(a=0.3, b=0.4, c=0.5, d=0.6, q=-1.0 + 1e-9, N=2)
        mu = spectrum_closed_form(p.q, p.product, p.shift, p.N)
        assert abs(mu[1]) <= 1e-6


class TestProp21Residuals:
    def test_anchor_exact(self):
        zs = compute_zero_set(ANCHOR)
        assert awspec.prop21_residuals(ANCHOR, zs).max() <= 1e-12

    def test_random_degree_five(self):
        p, zs = random_instance(14, 0.45, 5)
        assert awspec.prop21_residuals(p, zs).max() <= 1e-8

    def test_perturbed_zero_detected(self):
        p, zs = random_instance(14, 0.45, 5)
        zb = zs.zbar.copy()
        zb[2] *= 1 + 1e-2
        perturbed = dataclasses.replace(zs, zbar=zb)
        assert awspec.prop21_residuals(p, perturbed)[2] > 1e-4


class TestQOperator:
    def test_constant_annihilated(self):
        for z in (0.7 + 0.4j, 1.9, -0.6):
            assert abs(apply_Q_operator(ANCHOR, lambda _: 1.0, z)) <= 1e-12

    def test_eigenrelation_on_rational_form(self):
        p = AWParams(a=1.2, b=0.7 + 0.3j, c=-0.4, d=0.9, q=0.5, N=4)
        expected = q_eigenvalue(p)
        stream = SplitMix64(2)
        for _ in range(10):
            z = stream.next_param()
            f = lambda w: aw_rational_eval(p, w)
            ratio = apply_Q_operator(p, f, z) / f(z)
            assert abs(ratio - expected) <= 1e-9 * abs(expected)

    def test_anchor_ratio(self):
        f = lambda w: aw_rational_eval(ANCHOR, w)
        ratio = apply_Q_operator(ANCHOR, f, 0.8 + 0.3j) / f(0.8 + 0.3j)
        assert ratio == pytest.approx(-119.0)


class TestCorollaries:
    def test_anchor_trace(self):
        zs = compute_zero_set(ANCHOR)
        m = awspec.build_matrix_M(ANCHOR, zs)
        assert np.trace(m.entries) == pytest.approx(-119.0, abs=1e-9)
        assert trace_closed_form(ANCHOR) == pytest.approx(-119.0)

    def test_hand_determinant_degree_two(self):
        p = AWParams(a=2, b=3, c=0.25, d=0.2, q=0.5, N=2)
        zs = compute_zero_set(p)
        m = awspec.build_matrix_M(p, zs)
        assert np.linalg.det(m.entries) == pytest.approx(1887 / 400, rel=1e-8)
        assert det_closed_form(p.q, p.product, p.shift, p.N) == pytest.approx(1887 / 400)

    def test_report_all_pass(self):
        p, zs = random_instance(4, 0.5, 3)
        report = run_verify(p)
        assert report.passed
        names = {c.name for c in report.checks}
        assert {"cor2.2.3-trace-k1", "cor2.2.3-det", "cor2.2.2-isospectral"} <= names

    def test_isospectral_sweep(self):
        p, zs = random_instance(6, 0.6, 4)
        m = awspec.build_matrix_M(p, zs)
        base = eigenvalues(m.entries)
        for t in (0.5, 2.0, 1 + 0.3j):
            swept = dataclasses.replace(p, a=t * p.a, b=p.b / t)
            m2 = awspec.build_matrix_M(swept, compute_zero_set(swept))
            assert match_spectra(eigenvalues(m2.entries), base).max_rel_gap <= 1e-6

    def test_diophantine_rational_spectrum(self):
        p = AWParams(a=2, b=3, c=0.25, d=0.2, q=0.5, N=5)  # abcd = 3/10
        zs = compute_zero_set(p)
        m = awspec.build_matrix_M(p, zs)
        q, prod = Fraction(1, 2), Fraction(3, 10)
        exact = [
            Fraction(1) / q**5 * (1 - q**n) * (1 - prod * q ** (9 - n)) for n in range(1, 6)
        ]
        match = match_spectra(eigenvalues(m.entries), np.array([float(f) for f in exact]))
        assert match.max_abs_gap <= 1e-8

    def test_diophantine_check_in_report(self):
        p = AWParams(a=2, b=3, c=0.25, d=0.2, q=0.5, N=3)
        report = run_verify(p)
        assert any(c.name == "cor2.2.1-diophantine" and c.passed for c in report.checks)

    def test_diophantine_skipped_for_irrational(self):
        p, zs = random_instance(4, 0.5, 3)  # random complex parameters
        report = run_verify(p)
        assert not any(c.name == "cor2.2.1-diophantine" for c in report.checks)


class TestGuardDiagnostics:
    @pytest.mark.filterwarnings("error")
    def test_zero_at_unit_x_names_the_guard(self):
        # a zero at x = +-1 maps to z^2 = 1, the guarded denominator of A
        p, zs = random_instance(3, 0.5, 3)
        bad = dataclasses.replace(zs, zbar=np.array([1.0 + 0j, *zs.zbar[1:]]))
        with pytest.raises(SingularConfiguration) as info:
            awspec.build_matrix_M(p, bad)
        assert info.value.guard == "z^2-1"
