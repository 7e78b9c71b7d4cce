import numpy as np
import pytest

import scalar_oracle
from flow_oracle import linearization_check
from qzeros import awspec, racahspec, zeroflow
from qzeros.errors import SingularTrajectory
from qzeros.numlin import compute_zero_set
from qzeros.polyform import AWParams, RacahParams
from qzeros.sweeps import SplitMix64, draw_aw_params, draw_racah_params, unit_direction
from qzeros.zeroflow import FAMILIES, fd_jacobian, integrate_flow

AW_ANCHOR = AWParams(a=2, b=3, c=4, d=5, q=0.5, N=1)
RACAH_ANCHOR = RacahParams(alpha=3, beta=2, gamma=4, delta=5, q=0.5, N=1)


def aw_instance(seed, q, n):
    p = draw_aw_params(SplitMix64(seed), q, n)
    return p, compute_zero_set(p)


def racah_instance(seed, q, n):
    p = draw_racah_params(SplitMix64(seed), q, n)
    return p, compute_zero_set(p)


def velocity(p):
    """The family flow of p as a function of the positions alone."""
    return lambda y: FAMILIES[p.family].velocity(p, y)


class TestVelocities:
    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_aw_equilibrium(self, n):
        p, zs = aw_instance(3, 0.5, n)
        v = zeroflow.aw_velocity(p, zs.xbar)
        scale = max(1.0, float(np.max(np.abs(zs.xbar))))
        assert np.max(np.abs(v)) <= 1e-9 * scale

    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_racah_equilibrium(self, n):
        p, zs = racah_instance(3, 0.5, n)
        v = zeroflow.racah_velocity(p, zs.zbar)
        scale = max(1.0, float(np.max(np.abs(zs.zbar))))
        assert np.max(np.abs(v)) <= 1e-9 * scale

    def test_aw_linearized_velocity_near_anchor_zero(self):
        # dx/dt ~ M_11 * displacement with M_11 = -119
        v = zeroflow.aw_velocity(AW_ANCHOR, np.array([10 / 17 + 0.01]))[0]
        assert abs(v - (-1.19)) <= 0.05 * 1.19

    def test_racah_linearized_velocity_near_anchor_zero(self):
        # dz/dt ~ L_11 * displacement with L_11 = -1/2
        v = zeroflow.racah_velocity(RACAH_ANCHOR, np.array([7.01]))[0]
        assert abs(v - (-0.005)) <= 0.05 * 0.005

    def test_aw_velocity_branch_flip_invariance(self):
        p, zs = aw_instance(6, 0.6, 4)
        x = zs.xbar + 0.05
        base = zeroflow.aw_velocity(p, x)
        for j in range(4):
            flips = [1] * 4
            flips[j] = -1
            flipped = scalar_oracle.aw_velocity(p, x, branch_flips=flips)
            assert np.max(np.abs(flipped - base)) <= 1e-9 * (1 + np.max(np.abs(base)))

    def test_racah_velocity_branch_flip_invariance(self):
        p, zs = racah_instance(6, 0.6, 4)
        z = zs.zbar * 1.01
        base = zeroflow.racah_velocity(p, z, branch=+1)
        flipped = zeroflow.racah_velocity(p, z, branch=-1)
        assert np.max(np.abs(flipped - base)) <= 1e-9 * (1 + np.max(np.abs(base)))


class TestIntegrateFlow:
    def test_zero_rhs_constant_trajectory(self):
        rhs = lambda y: np.zeros_like(y)
        start = np.array([1.0 + 1j, -2.0])
        samples = integrate_flow(rhs, start, t_end=1.0, dt_max=0.25)
        assert np.array_equal(samples[-1][1], start)
        assert samples[-1][0] == pytest.approx(1.0)

    def test_scalar_linear_decay(self):
        rhs = lambda y: -y
        samples = integrate_flow(rhs, np.array([1.0 + 0j]), t_end=1.0, dt_max=0.1)
        assert abs(samples[-1][1][0] - np.exp(-1.0)) <= 1e-8

    def test_aw_flow_from_equilibrium_stays_put(self):
        p, zs = aw_instance(4, 0.5, 3)
        samples = integrate_flow(velocity(p), zs.xbar.copy(), t_end=0.05, dt_max=0.01)
        assert np.max(np.abs(samples[-1][1] - zs.xbar)) <= 1e-8

    def test_guard_trip_raises_with_partial_trajectory(self):
        calls = {"n": 0}

        def rhs(y):
            # y = t along this flow: the guard trips once the flow passes t = 0.018
            calls["n"] += 1
            if y[0].real > 0.018:
                from qzeros.errors import SingularConfiguration

                raise SingularConfiguration("z_n-z_m", 0.0)
            return np.ones_like(y)

        with pytest.raises(SingularTrajectory) as info:
            integrate_flow(rhs, np.array([0.0 + 0j]), t_end=1.0, dt_max=0.01)
        assert len(info.value.trajectory) >= 1
        assert info.value.trajectory[-1][0] < 1.0

    def test_rejects_nonpositive_span(self):
        rhs = lambda y: y
        with pytest.raises(ValueError):
            integrate_flow(rhs, np.array([1.0 + 0j]), 0.0, 0.1)


class TestFdJacobian:
    def test_linear_map_recovered(self):
        a0 = np.array([[1.0, 2.0 - 1j], [0.5j, -3.0]], dtype=complex)
        rhs = lambda y: a0 @ y
        jac = fd_jacobian(rhs, np.array([0.3 + 0j, -0.4 + 0.2j]))
        assert np.max(np.abs(jac - a0)) <= 1e-9

    def test_quadratic_terms_cancel_at_origin(self):
        rhs = lambda y: y**2
        jac = fd_jacobian(rhs, np.zeros(3, dtype=complex))
        assert np.max(np.abs(jac)) <= 1e-10

    @pytest.mark.parametrize("family", ["aw", "racah"])
    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_matches_spectral_matrix(self, family, n):
        if family == "aw":
            p, zs = aw_instance(7, 0.5, n)
            mat = awspec.build_matrix_M(p, zs)
            point = zs.xbar
        else:
            p, zs = racah_instance(7, 0.5, n)
            mat = racahspec.build_matrix_L(p, zs)
            point = zs.zbar
        jac = fd_jacobian(velocity(p), point)
        norm = np.max(np.abs(mat.entries))
        gap = np.abs(jac - mat.entries)
        assert np.all(gap <= np.maximum(1e-4 * np.abs(mat.entries), 1e-7 * norm))


class TestLinearizationCheck:
    def test_aw_anchor_scalar_exponential(self):
        zs = compute_zero_set(AW_ANCHOR)
        mat = awspec.build_matrix_M(AW_ANCHOR, zs)
        report = linearization_check(
            AW_ANCHOR, zs, mat, epsilon=1e-6, t_short=0.001, direction=np.array([1.0 + 0j])
        )
        assert report.checks[0].residual <= 1e-4

    def test_random_instance_deviation_small(self):
        p, zs = aw_instance(3, 0.5, 3)
        mat = awspec.build_matrix_M(p, zs)
        t_short = 0.4 / np.linalg.norm(mat.entries, 2)
        direction = np.asarray(unit_direction(SplitMix64(1), 3))
        report = linearization_check(p, zs, mat, 1e-6, t_short, direction)
        assert report.passed
        assert report.checks[0].residual <= 1e-3

    def test_deviation_scales_linearly_with_epsilon(self):
        p, zs = racah_instance(3, 0.5, 3)
        mat = racahspec.build_matrix_L(p, zs)
        t_short = 0.4 / np.linalg.norm(mat.entries, 2)
        direction = np.asarray(unit_direction(SplitMix64(1), 3))
        dev1 = linearization_check(p, zs, mat, 1e-6, t_short, direction).checks[0].residual
        dev2 = linearization_check(p, zs, mat, 5e-7, t_short, direction).checks[0].residual
        assert dev1 / dev2 == pytest.approx(2.0, rel=1.5)

    def test_long_window_rejected(self):
        p, zs = aw_instance(3, 0.5, 3)
        mat = awspec.build_matrix_M(p, zs)
        with pytest.raises(ValueError):
            linearization_check(p, zs, mat, 1e-6, 10.0 / np.linalg.norm(mat.entries, 2))
