import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from qseries_oracle import (
    apply_racah_difference,
    det_closed_form,
    racah_as_aw,
    racah_eigenvalue,
    racah_eval,
    shift_targets,
)
from qzeros import awspec, racahspec, zeroflow
from qzeros.errors import BranchDegenerate
from qzeros.cli import run_verify
from qzeros.numlin import compute_zero_set, eigenvalues, match_spectra
from qzeros.polyform import RacahParams
from qzeros.report import spectrum_closed_form, trace_closed_form
from qzeros.sweeps import SplitMix64, draw_racah_params, unit_direction

ANCHOR = RacahParams(alpha=3, beta=2, gamma=4, delta=5, q=0.5, N=1)


def random_instance(seed, q, n):
    p = draw_racah_params(SplitMix64(seed), q, n)
    return p, compute_zero_set(p)


class TestShiftTargets:
    def test_gamma_delta_zero_limit(self):
        z_plus, z_minus = shift_targets(0.5, 0.0, 1.0)
        assert z_plus == pytest.approx(0.5)
        assert z_minus == pytest.approx(2.0)

    def test_vanishing_discriminant_collapse(self):
        # z^2 = 4*gamma*delta*q makes both images (1+q^2)/(2q) z
        q, gd = 0.5, 0.3
        z = 2 * np.sqrt(gd * q)
        z_plus, z_minus = shift_targets(q, gd, z)
        assert z_plus == pytest.approx((1 + q * q) / (2 * q) * z)
        assert z_minus == pytest.approx(z_plus)

    def test_structure_eval_reports_branch_degeneracy(self):
        p = RacahParams(alpha=1.2, beta=0.4, gamma=0.9, delta=1.1, q=0.5, N=2)
        zs = compute_zero_set(p)
        degenerate = dataclasses.replace(
            zs, zbar=np.array([2 * np.sqrt(p.gammadelta * p.q), zs.zbar[1]])
        )
        with pytest.raises(BranchDegenerate):
            racahspec.build_matrix_L(p, degenerate)

    def test_Z_branch_product(self):
        p = RacahParams(alpha=1.2, beta=0.4, gamma=0.9, delta=1.1, q=0.6, N=2)
        for z in (1.7, 0.4 + 0.9j, -2.2):
            z_plus = racahspec.point_structure(p, z, +1).Zval
            z_minus = racahspec.point_structure(p, z, -1).Zval
            assert z_plus * z_minus == pytest.approx(1 / (p.gammadelta * p.q))

    def test_shift_derivative_matches_central_differences(self):
        p = RacahParams(alpha=1.2, beta=0.4, gamma=0.9, delta=1.1, q=0.6, N=2)
        h = 1e-7
        for z in (1.7, 0.5 + 1.1j):
            pt = racahspec.point_structure(p, z, +1)
            up = shift_targets(p.q, p.gammadelta, z + h)
            dn = shift_targets(p.q, p.gammadelta, z - h)
            assert abs(pt.Cplus - (up[0] - dn[0]) / (2 * h)) <= 1e-6 * (1 + abs(pt.Cplus))
            assert abs(pt.Cminus - (up[1] - dn[1]) / (2 * h)) <= 1e-6 * (1 + abs(pt.Cminus))

    def test_BD_derivatives_match_central_differences(self):
        p = RacahParams(alpha=1.2, beta=0.4, gamma=0.9 + 0.2j, delta=1.1, q=0.6, N=2)
        h = 1e-7
        for z in (1.9, 0.8 - 1.2j):
            pt = racahspec.point_structure(p, z, +1)
            up = racahspec.point_structure(p, z + h, +1)
            dn = racahspec.point_structure(p, z - h, +1)
            assert abs(pt.Bp - (up.Bval - dn.Bval) / (2 * h)) <= 1e-6 * (1 + abs(pt.Bp))
            assert abs(pt.Dp - (up.Dval - dn.Dval) / (2 * h)) <= 1e-6 * (1 + abs(pt.Dp))


class TestMatrixL:
    def test_linear_anchor_entry(self):
        zs = compute_zero_set(ANCHOR)
        l = racahspec.build_matrix_L(ANCHOR, zs)
        assert l.entries[0, 0] == pytest.approx(-0.5, abs=1e-12)
        assert l.label == "L"

    def test_spectrum_matches_prediction(self):
        p, zs = random_instance(8, 0.6, 2)
        l = racahspec.build_matrix_L(p, zs)
        assert match_spectra(eigenvalues(l.entries), l.predicted).max_rel_gap <= 1e-6

    def test_spectrum_matches_prediction_larger(self):
        p, zs = random_instance(9, 0.3, 7)
        l = racahspec.build_matrix_L(p, zs)
        assert match_spectra(eigenvalues(l.entries), l.predicted).max_rel_gap <= 1e-6

    def test_global_branch_flip_invariance(self):
        p, zs = random_instance(5, 0.6, 5)
        base = racahspec.build_matrix_L(p, zs, branch=+1).entries
        flipped = racahspec.build_matrix_L(p, zs, branch=-1).entries
        scale = np.max(np.abs(base))
        assert np.max(np.abs(flipped - base) / np.maximum(np.abs(base), 1e-3 * scale)) <= 1e-8

    def test_spectrum_depends_only_on_alphabeta(self):
        p, zs = random_instance(12, 0.6, 3)
        base = eigenvalues(racahspec.build_matrix_L(p, zs).entries)
        swapped = RacahParams(
            alpha=p.beta, beta=p.alpha, gamma=p.gamma, delta=p.delta, q=p.q, N=p.N
        )
        other = eigenvalues(racahspec.build_matrix_L(swapped, compute_zero_set(swapped)).entries)
        assert match_spectra(other, base).max_rel_gap <= 1e-8


class TestPredictedLambda:
    def test_anchor(self):
        assert spectrum_closed_form(ANCHOR.q, ANCHOR.product, ANCHOR.shift, ANCHOR.N) == pytest.approx([-0.5])

    def test_hand_values_degree_two(self):
        p = RacahParams(alpha=3, beta=2, gamma=0.25, delta=5, q=0.5, N=2)  # alpha*beta = 6
        assert spectrum_closed_form(p.q, p.product, p.shift, p.N) == pytest.approx([5 / 4, 3 / 4])

    def test_vanishes_as_q_power_approaches_one(self):
        p = RacahParams(alpha=0.3, beta=0.4, gamma=0.5, delta=0.6, q=-1.0 + 1e-9, N=2)
        lam = spectrum_closed_form(p.q, p.product, p.shift, p.N)
        assert abs(lam[1]) <= 1e-6


class TestProp23Residuals:
    def test_anchor_exact(self):
        zs = compute_zero_set(ANCHOR)
        assert racahspec.prop23_residuals(ANCHOR, zs).max() <= 1e-12

    def test_random_degree_four(self):
        p, zs = random_instance(14, 0.45, 4)
        assert racahspec.prop23_residuals(p, zs).max() <= 1e-8

    def test_perturbed_zero_detected(self):
        p, zs = random_instance(14, 0.45, 4)
        zb = zs.zbar.copy()
        zb[1] *= 1 + 1e-2
        assert racahspec.prop23_residuals(p, dataclasses.replace(zs, zbar=zb))[1] > 1e-4


class TestDifferenceOperator:
    def test_constant_annihilated(self):
        for z in (1.7, 0.4 + 0.9j):
            assert abs(apply_racah_difference(ANCHOR, lambda _: 1.0, z)) <= 1e-12

    def test_eigenrelation_on_polynomial(self):
        p = RacahParams(alpha=1.1, beta=0.6, gamma=0.8 + 0.2j, delta=1.3, q=0.5, N=5)
        expected = racah_eigenvalue(p)
        f = lambda z: racah_eval(p, z)[0]
        stream = SplitMix64(2)
        for _ in range(10):
            z = 3 * stream.next_param()
            ratio = apply_racah_difference(p, f, z) / f(z)
            assert abs(ratio - expected) <= 1e-9 * abs(expected)

    def test_branch_independence(self):
        p = RacahParams(alpha=1.1, beta=0.6, gamma=0.8, delta=1.3, q=0.5, N=4)
        f = lambda z: racah_eval(p, z)[0]
        for z in (1.9, 0.8 - 1.2j):
            plus = apply_racah_difference(p, f, z, branch=+1)
            minus = apply_racah_difference(p, f, z, branch=-1)
            assert abs(plus - minus) <= 1e-9 * (1 + abs(plus))


class TestCorollaries:
    def test_anchor_trace_and_det(self):
        zs = compute_zero_set(ANCHOR)
        l = racahspec.build_matrix_L(ANCHOR, zs)
        assert np.trace(l.entries) == pytest.approx(-0.5, abs=1e-12)
        assert np.linalg.det(l.entries) == pytest.approx(-0.5, abs=1e-12)
        assert trace_closed_form(ANCHOR) == pytest.approx(-0.5)
        assert det_closed_form(ANCHOR.q, ANCHOR.product, ANCHOR.shift, ANCHOR.N) == pytest.approx(-0.5)

    def test_hand_determinant_degree_two(self):
        p = RacahParams(alpha=3, beta=2, gamma=0.25, delta=5, q=0.5, N=2)
        zs = compute_zero_set(p)
        l = racahspec.build_matrix_L(p, zs)
        assert np.linalg.det(l.entries) == pytest.approx(15 / 16, rel=1e-8)
        assert det_closed_form(p.q, p.product, p.shift, p.N) == pytest.approx(15 / 16)

    def test_report_all_pass(self):
        p, zs = random_instance(4, 0.5, 3)
        report = run_verify(p)
        assert report.passed
        names = {c.name for c in report.checks}
        assert {"cor2.4.3-trace-k1", "cor2.4.3-det", "cor2.4.2-isospectral"} <= names

    def test_diophantine_rational_spectrum(self):
        p = RacahParams(alpha=3, beta=1 / 9, gamma=2 / 3, delta=5 / 4, q=0.5, N=5)
        zs = compute_zero_set(p)
        l = racahspec.build_matrix_L(p, zs)
        q, prod = Fraction(1, 2), Fraction(1, 3)
        exact = [
            Fraction(1) / q**5 * (1 - q**n) * (1 - prod * q ** (11 - n)) for n in range(1, 6)
        ]
        match = match_spectra(eigenvalues(l.entries), np.array([float(f) for f in exact]))
        assert match.max_abs_gap <= 1e-8


class TestRacahAsAskeyWilson:
    """q-Racah at (alpha, beta, gamma, delta) is Askey-Wilson at racah_as_aw's parameters.

    The q-Racah zeros are z_n = 2a x_n for the Askey-Wilson zeros x_n, and the
    two builders, which share no code beyond the closed-form spectrum, give
    L = P M P^T for the permutation P that pairs the zeros.
    """

    @pytest.mark.parametrize("seed", [3, 11])
    @pytest.mark.parametrize("q", [0.3, 0.6, 0.5 + 0.2j, -0.4])
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 16, 24])
    def test_zeros_matrices_and_velocities_map(self, seed, q, n):
        p = draw_racah_params(SplitMix64(seed), q, n)
        aw = racah_as_aw(p)
        zs, zs_aw = compute_zero_set(p), compute_zero_set(aw)
        z = zs.zbar
        mapped = 2 * aw.a * zs_aw.xbar
        perm = np.array([int(np.argmin(np.abs(z - v))) for v in mapped])
        assert sorted(perm) == list(range(n))
        assert np.max(np.abs(z[perm] - mapped)) <= 1e-15 * np.max(np.abs(z))

        L = racahspec.build_matrix_L(p, zs)
        M = awspec.build_matrix_M(aw, zs_aw)
        assert np.allclose(L.predicted, M.predicted, rtol=1e-13, atol=0)
        scale = np.max(np.abs(L.entries))
        assert np.max(np.abs(L.entries[np.ix_(perm, perm)] - M.entries)) <= 1e-13 * scale

        x = zs_aw.xbar + 1e-3 * np.max(np.abs(zs_aw.xbar)) * np.array(
            unit_direction(SplitMix64(seed), n)
        )
        v_racah = zeroflow.racah_velocity(p, 2 * aw.a * x)
        v_aw = zeroflow.aw_velocity(aw, x)
        assert np.max(np.abs(v_racah - 2 * aw.a * v_aw)) <= 1e-11 * np.max(np.abs(v_racah))

    def test_shift_collision_builds_on_both_sides(self):
        # the seed-0 q = 0.6 N = 24 cell, where q-Racah's z_n^(-) meets another zero, as
        # Askey-Wilson's q z_n does: a removable singularity, so both build and L = P M P^T
        p = draw_racah_params(SplitMix64(0), 0.6, 24)
        aw = racah_as_aw(p)
        zs, zs_aw = compute_zero_set(p), compute_zero_set(aw)
        mapped = 2 * aw.a * zs_aw.xbar
        perm = np.array([int(np.argmin(np.abs(zs.zbar - v))) for v in mapped])
        assert sorted(perm) == list(range(24))
        L = racahspec.build_matrix_L(p, zs).entries
        M = awspec.build_matrix_M(aw, zs_aw).entries
        assert np.max(np.abs(L[np.ix_(perm, perm)] - M)) <= 1e-13 * np.max(np.abs(L))
