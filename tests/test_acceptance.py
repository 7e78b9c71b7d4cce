"""Acceptance suite: every exit criterion at its stated tolerance.

Each criterion prints one PASS/FAIL line (run with -s to see them on
success). The random parameter sets are drawn from the documented
splitmix64 stream at seed 0, two sets per degree N = 1..10 per family,
with q cycling through (0.3, 0.6, 0.5+0.2i) for Askey-Wilson and
(0.3, 0.6) for q-Racah.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from flow_oracle import linearization_check
from qseries_oracle import (
    apply_Q_operator,
    apply_racah_difference,
    aw_rational_eval,
    det_closed_form,
    q_eigenvalue,
    racah_eigenvalue,
    racah_eval,
)
from qzeros import awspec, racahspec, zeroflow
from qzeros.numlin import compute_zero_set, eigenvalues, match_spectra
from qzeros.polyform import AWParams, RacahParams
from qzeros.report import rel_residual, trace_closed_form
from qzeros.sweeps import SplitMix64, draw_aw_params, draw_racah_params, unit_direction
from qzeros.zeroflow import FAMILIES

AW_Q_GRID = (0.3, 0.6, 0.5 + 0.2j)
RACAH_Q_GRID = (0.3, 0.6)

IDENTITY_TOL = 1e-8
SPECTRUM_TOL = 1e-6
TRACE_DET_TOL = 1e-6
DIOPHANTINE_TOL = 1e-8
ISOSPECTRAL_TOL = 1e-6
EIGENRELATION_TOL = 1e-9
BRANCH_TOL = 1e-8
JACOBIAN_REL_TOL = 1e-4
JACOBIAN_ABS_FLOOR = 1e-7
LINEARIZATION_TOL = 1e-3


@contextmanager
def criterion(number, label):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"criterion {number:02d} ({label}): FAIL")
        raise
    elapsed = time.monotonic() - started
    print(f"criterion {number:02d} ({label}): PASS [{elapsed:.2f}s]")


def grid_sets(family):
    """The 20 seeded parameter sets per family used by criteria 2-4."""
    stream = SplitMix64(0)
    sets = []
    grid = AW_Q_GRID if family == "aw" else RACAH_Q_GRID
    for i in range(20):
        n = 1 + (i % 10)
        q = grid[i % len(grid)]
        if family == "aw":
            sets.append(draw_aw_params(stream, q, n))
        else:
            sets.append(draw_racah_params(stream, q, n))
    return sets


@pytest.fixture(scope="module")
def aw_instances():
    out = []
    for p in grid_sets("aw"):
        zs = compute_zero_set(p)
        out.append((p, zs, awspec.build_matrix_M(p, zs)))
    return out


@pytest.fixture(scope="module")
def racah_instances():
    out = []
    for p in grid_sets("racah"):
        zs = compute_zero_set(p)
        out.append((p, zs, racahspec.build_matrix_L(p, zs)))
    return out


def entrywise_gap(candidate, reference):
    norm = np.max(np.abs(reference))
    return np.max(np.abs(candidate - reference) / np.maximum(np.abs(reference), 1e-3 * norm))


def test_criterion_01_closed_form_anchors():
    with criterion(1, "closed-form anchors"):
        started = time.monotonic()
        aw = AWParams(a=2, b=3, c=4, d=5, q=0.5, N=1)
        zs = compute_zero_set(aw)
        assert abs(zs.xbar[0] - 10 / 17) <= 1e-10
        m = awspec.build_matrix_M(aw, zs)
        assert abs(m.entries[0, 0] - (-119.0)) <= 1e-10

        racah = RacahParams(alpha=3, beta=2, gamma=4, delta=5, q=0.5, N=1)
        zsr = compute_zero_set(racah)
        assert abs(zsr.zbar[0] - 7.0) <= 1e-10
        l = racahspec.build_matrix_L(racah, zsr)
        assert abs(l.entries[0, 0] - (-0.5)) <= 1e-10
        assert time.monotonic() - started < 1.0


def test_criterion_02_zero_identity_residuals(aw_instances, racah_instances):
    with criterion(2, "zero identity residual suites"):
        started = time.monotonic()
        for p, zs, _ in aw_instances:
            assert awspec.prop21_residuals(p, zs).max() <= IDENTITY_TOL
        for p, zs, _ in racah_instances:
            assert racahspec.prop23_residuals(p, zs).max() <= IDENTITY_TOL
        assert time.monotonic() - started < 10.0


def test_criterion_03_spectrum_law(aw_instances, racah_instances):
    with criterion(3, "closed-form spectrum law"):
        started = time.monotonic()
        for _, _, mat in aw_instances + racah_instances:
            match = match_spectra(eigenvalues(mat.entries), mat.predicted)
            assert match.max_rel_gap <= SPECTRUM_TOL
        assert time.monotonic() - started < 30.0


def test_criterion_04_trace_and_determinant(aw_instances, racah_instances):
    with criterion(4, "trace and determinant identities"):
        for p, _, mat in aw_instances + racah_instances:
            power = np.eye(p.N, dtype=complex)
            for k in (1, 2, 3):
                power = power @ mat.entries
                target = complex(np.sum(mat.predicted**k))
                assert rel_residual(complex(np.trace(power)) - target, target) <= TRACE_DET_TOL
            target = trace_closed_form(p)
            assert rel_residual(complex(np.trace(mat.entries)) - target, target) <= TRACE_DET_TOL
            target = det_closed_form(p.q, p.product, p.shift, p.N)
            assert rel_residual(np.linalg.det(mat.entries) - target, target) <= TRACE_DET_TOL

        # hand-derived N = 2 determinants
        aw2 = AWParams(a=2, b=3, c=0.25, d=0.2, q=0.5, N=2)  # abcd = 3/10
        m2 = awspec.build_matrix_M(aw2, compute_zero_set(aw2))
        assert np.linalg.det(m2.entries) == pytest.approx(1887 / 400, rel=TRACE_DET_TOL)
        racah2 = RacahParams(alpha=3, beta=2, gamma=0.25, delta=5, q=0.5, N=2)  # alpha*beta = 6
        l2 = racahspec.build_matrix_L(racah2, compute_zero_set(racah2))
        assert np.linalg.det(l2.entries) == pytest.approx(15 / 16, rel=TRACE_DET_TOL)


def test_criterion_05_diophantine_spectra():
    with criterion(5, "Diophantine rational spectra"):
        qf = Fraction(1, 2)
        aw = AWParams(a=2, b=3, c=0.25, d=0.2, q=0.5, N=5)  # abcd = 3/10
        m = awspec.build_matrix_M(aw, compute_zero_set(aw))
        exact = [
            Fraction(1) / qf**5 * (1 - qf**n) * (1 - Fraction(3, 10) * qf ** (9 - n))
            for n in range(1, 6)
        ]
        match = match_spectra(eigenvalues(m.entries), np.array([float(f) for f in exact]))
        assert match.max_abs_gap <= DIOPHANTINE_TOL

        racah = RacahParams(alpha=3, beta=1 / 9, gamma=2 / 3, delta=5 / 4, q=0.5, N=5)
        l = racahspec.build_matrix_L(racah, compute_zero_set(racah))
        exact = [
            Fraction(1) / qf**5 * (1 - qf**n) * (1 - Fraction(1, 3) * qf ** (11 - n))
            for n in range(1, 6)
        ]
        match = match_spectra(eigenvalues(l.entries), np.array([float(f) for f in exact]))
        assert match.max_abs_gap <= DIOPHANTINE_TOL


def test_criterion_06_isospectral_sweeps():
    with criterion(6, "isospectrality under product-preserving sweeps"):
        t_values = (0.5, 2.0, 1.0 + 0.3j)
        stream = SplitMix64(0)
        for n in (2, 5, 8):
            p = draw_aw_params(stream, 0.6, n)
            base = eigenvalues(awspec.build_matrix_M(p, compute_zero_set(p)).entries)
            for t in t_values:
                swept = AWParams(a=t * p.a, b=p.b / t, c=p.c, d=p.d, q=p.q, N=p.N)
                other = eigenvalues(awspec.build_matrix_M(swept, compute_zero_set(swept)).entries)
                assert match_spectra(other, base).max_rel_gap <= ISOSPECTRAL_TOL
        for n in (2, 5, 8):
            p = draw_racah_params(stream, 0.6, n)
            base = eigenvalues(racahspec.build_matrix_L(p, compute_zero_set(p)).entries)
            for t in t_values:
                swept = RacahParams(
                    alpha=t * p.alpha, beta=p.beta / t, gamma=p.gamma, delta=p.delta, q=p.q, N=p.N
                )
                other = eigenvalues(
                    racahspec.build_matrix_L(swept, compute_zero_set(swept)).entries
                )
                assert match_spectra(other, base).max_rel_gap <= ISOSPECTRAL_TOL


def test_criterion_07_flow_jacobian_consistency():
    with criterion(7, "flow Jacobian equals spectral matrix"):
        stream = SplitMix64(0)
        for n in range(1, 7):
            p = draw_aw_params(stream, (0.3, 0.6)[n % 2], n)
            zs = compute_zero_set(p)
            m = awspec.build_matrix_M(p, zs)
            jac = zeroflow.fd_jacobian(lambda y: FAMILIES["aw"].velocity(p, y), zs.xbar)
            norm = np.max(np.abs(m.entries))
            assert np.all(
                np.abs(jac - m.entries)
                <= np.maximum(JACOBIAN_REL_TOL * np.abs(m.entries), JACOBIAN_ABS_FLOOR * norm)
            )
        for n in range(1, 7):
            p = draw_racah_params(stream, (0.3, 0.6)[n % 2], n)
            zs = compute_zero_set(p)
            l = racahspec.build_matrix_L(p, zs)
            jac = zeroflow.fd_jacobian(lambda y: FAMILIES["racah"].velocity(p, y), zs.zbar)
            norm = np.max(np.abs(l.entries))
            assert np.all(
                np.abs(jac - l.entries)
                <= np.maximum(JACOBIAN_REL_TOL * np.abs(l.entries), JACOBIAN_ABS_FLOOR * norm)
            )


def test_criterion_08_difference_operator_eigenrelations():
    with criterion(8, "q-difference eigen-relations"):
        p = AWParams(a=1.2, b=0.7 + 0.3j, c=-0.4, d=0.9, q=0.5, N=5)
        expected = q_eigenvalue(p)
        f = lambda z: aw_rational_eval(p, z)
        stream = SplitMix64(17)
        for _ in range(10):
            z = stream.next_param()
            ratio = apply_Q_operator(p, f, z) / f(z)
            assert abs(ratio - expected) <= EIGENRELATION_TOL * abs(expected)

        r = RacahParams(alpha=1.1, beta=0.6, gamma=0.8 + 0.2j, delta=1.3, q=0.5, N=5)
        expected_r = racah_eigenvalue(r)
        g = lambda z: racah_eval(r, z)[0]
        for _ in range(10):
            z = 3 * stream.next_param()
            ratio = apply_racah_difference(r, g, z) / g(z)
            assert abs(ratio - expected_r) <= EIGENRELATION_TOL * abs(expected_r)


def test_criterion_09_branch_robustness():
    with criterion(9, "square-root branch robustness"):
        import dataclasses

        stream = SplitMix64(0)
        for n in (2, 4, 6):
            p = draw_aw_params(stream, 0.6, n)
            zs = compute_zero_set(p)
            m = awspec.build_matrix_M(p, zs).entries
            for j in range(n):
                zb = zs.zbar.copy()
                zb[j] = 1 / zb[j]
                flipped = awspec.build_matrix_M(p, dataclasses.replace(zs, zbar=zb)).entries
                assert entrywise_gap(flipped, m) <= BRANCH_TOL
        for n in (2, 4, 6):
            p = draw_racah_params(stream, 0.6, n)
            zs = compute_zero_set(p)
            base = racahspec.build_matrix_L(p, zs, branch=+1).entries
            flipped = racahspec.build_matrix_L(p, zs, branch=-1).entries
            assert entrywise_gap(flipped, base) <= BRANCH_TOL


def test_criterion_10_linearized_flow():
    with criterion(10, "linearized flow matches matrix exponential"):
        stream = SplitMix64(0)
        for family in ("aw", "racah"):
            if family == "aw":
                p = draw_aw_params(stream, 0.5, 3)
                zs = compute_zero_set(p)
                mat = awspec.build_matrix_M(p, zs)
            else:
                p = draw_racah_params(stream, 0.5, 3)
                zs = compute_zero_set(p)
                mat = racahspec.build_matrix_L(p, zs)
            t_short = 0.4 / np.linalg.norm(mat.entries, 2)
            direction = np.asarray(unit_direction(SplitMix64(1), 3))
            dev_full = linearization_check(
                p, zs, mat, 1e-6, t_short, direction
            ).checks[0].residual
            dev_half = linearization_check(
                p, zs, mat, 5e-7, t_short, direction
            ).checks[0].residual
            assert dev_full <= LINEARIZATION_TOL
            ratio = dev_full / dev_half
            assert 2.0 / 2.5 <= ratio <= 2.0 * 2.5
