"""The array form of the structure layer and the flow velocities.

Checks the broadcasting code against the scalar loops in scalar_oracle.py,
and that every guard still trips, names itself and its magnitude, and lets
no numpy warning escape first.
"""

import dataclasses

import numpy as np
import pytest

import scalar_oracle as oracle
from qzeros import awspec, racahspec, zeroflow
from qzeros.errors import (
    BranchDegenerate,
    QZerosError,
    SingularConfiguration,
    SingularTrajectory,
    guard,
)
from qzeros.numlin import compute_zero_set
from qzeros.sweeps import SplitMix64, draw_aw_params, draw_racah_params, unit_direction
from qzeros.zeroflow import FAMILIES

SEEDS = range(4)
Q_GRID = (0.3, 0.6, 0.5 + 0.2j, -0.4)
N_GRID = (1, 2, 6, 12, 24)
VELOCITY_TOL = 1e-11
MATRIX_TOL = 1e-12
DISPLACEMENT = 1e-2
#: Scalar and array arithmetic may round the same formula differently in the last bits.
SCALAR_TOL = 1e-13

DRAW = {"aw": draw_aw_params, "racah": draw_racah_params}


def draws(family, q, n):
    """(seed, params, zero set) for the seeds whose draw solves."""
    for seed in SEEDS:
        try:
            p = DRAW[family](SplitMix64(seed), q, n)
            yield seed, p, compute_zero_set(p, polish=False)
        except QZerosError:
            continue


def displaced(base, seed):
    """base with every coordinate moved by DISPLACEMENT relative, in a seeded direction."""
    direction = np.asarray(unit_direction(SplitMix64(100 + seed), len(base)))
    return base * (1.0 + DISPLACEMENT * direction / np.abs(direction))


@pytest.mark.parametrize("n", N_GRID)
@pytest.mark.parametrize("q", Q_GRID)
@pytest.mark.parametrize("family", ["aw", "racah"])
class TestScalarOracle:
    def test_velocity(self, family, q, n):
        compared = 0
        for seed, p, zs in draws(family, q, n):
            if family == "aw":
                positions = displaced(zs.xbar, seed)
                run = lambda: zeroflow.aw_velocity(p, positions)
                scalar = lambda: oracle.aw_velocity(p, positions)
            else:
                positions = displaced(zs.zbar, seed)
                run = lambda: zeroflow.racah_velocity(p, positions)
                scalar = lambda: oracle.racah_velocity(p, positions)
            try:
                expected = scalar()
            except QZerosError as exc:
                with pytest.raises(type(exc)):
                    run()
                continue
            v = run()
            assert np.max(np.abs(v - expected)) <= VELOCITY_TOL * np.max(np.abs(expected))
            compared += 1
        assert compared > 0

    def test_matrix(self, family, q, n):
        compared = 0
        for seed, p, zs in draws(family, q, n):
            if family == "aw":
                run = lambda: awspec.build_matrix_M(p, zs).entries
                scalar = lambda: oracle.build_matrix_M(p, zs)
            else:
                run = lambda: racahspec.build_matrix_L(p, zs).entries
                scalar = lambda: oracle.build_matrix_L(p, zs)
            try:
                expected = scalar()
            except SingularConfiguration as exc:
                # the same guard, with the same magnitude, trips first
                with pytest.raises(SingularConfiguration) as info:
                    run()
                assert info.value.guard == exc.guard
                assert info.value.magnitude == pytest.approx(exc.magnitude, rel=SCALAR_TOL)
                continue
            entries = run()
            assert np.max(np.abs(entries - expected)) <= MATRIX_TOL * np.max(np.abs(expected))
            compared += 1
        assert compared > 0


@pytest.mark.filterwarnings("error")
class TestGuards:
    def test_coincident_aw_positions(self):
        p = draw_aw_params(SplitMix64(0), 0.6, 4)
        zs = compute_zero_set(p, polish=False)
        xs = zs.xbar.copy()
        xs[2] = xs[1]
        with pytest.raises(SingularConfiguration) as info:
            zeroflow.aw_velocity(p, xs)
        assert info.value.guard == "z_n-z_m"
        assert info.value.magnitude == 0.0
        zb = zs.zbar.copy()
        zb[2] = zb[1]
        with pytest.raises(SingularConfiguration) as info:
            awspec.build_matrix_M(p, dataclasses.replace(zs, zbar=zb))
        assert info.value.guard == "z_n-z_m"

    def test_coincident_racah_positions(self):
        p = draw_racah_params(SplitMix64(0), 0.6, 4)
        zs = compute_zero_set(p, polish=False)
        z = zs.zbar.copy()
        z[3] = z[0]
        with pytest.raises(SingularConfiguration) as info:
            zeroflow.racah_velocity(p, z)
        assert info.value.guard == "z_n-z_m"
        assert info.value.magnitude == 0.0

    def test_racah_seed0_q06_n24_shift_collision(self):
        p = draw_racah_params(SplitMix64(0), 0.6, 24)
        with pytest.raises(SingularConfiguration) as info:
            racahspec.build_matrix_L(p, compute_zero_set(p))
        assert info.value.guard == "z_n^(-)-z_m"
        assert info.value.magnitude == pytest.approx(2.163e-13, rel=1e-3)

    def test_zero_point_names_z(self):
        p = draw_aw_params(SplitMix64(0), 0.6, 3)
        zs = compute_zero_set(p, polish=False)
        bad = dataclasses.replace(zs, zbar=np.array([zs.zbar[0], 0.0, zs.zbar[2]]))
        with pytest.raises(SingularConfiguration) as info:
            awspec.build_matrix_M(p, bad)
        assert info.value.guard == "z"

    def test_vanishing_z_image_names_z(self):
        # x + sqrt(x^2 - 1) rounds to 0 at large negative x; 1/z is formed before the guard
        p = draw_aw_params(SplitMix64(0), 0.6, 2)
        with pytest.raises(SingularConfiguration) as info:
            zeroflow.aw_velocity(p, np.array([-1e10 + 0j, 0.3]))
        assert (info.value.guard, info.value.magnitude) == ("z", 0.0)

    def test_first_failing_point_wins_over_guard_order(self):
        # point 1 fails z^2-1 before point 2 fails z: points run in row-major order
        p = draw_aw_params(SplitMix64(0), 0.6, 3)
        zs = compute_zero_set(p, polish=False)
        bad = dataclasses.replace(zs, zbar=np.array([zs.zbar[0], 1.0, 0.0]))
        with pytest.raises(SingularConfiguration) as info:
            awspec.build_matrix_M(p, bad)
        assert info.value.guard == "z^2-1"

    def test_racah_branch_degenerate_point(self):
        p = draw_racah_params(SplitMix64(0), 0.6, 3)
        zs = compute_zero_set(p, polish=False)
        z = zs.zbar.copy()
        z[1] = 2 * np.sqrt(p.gammadelta * p.q)
        with pytest.raises(BranchDegenerate):
            zeroflow.racah_velocity(p, z)

    def test_guard_trip_mid_flow_is_singular_trajectory(self):
        p = draw_aw_params(SplitMix64(0), 0.6, 4)
        zs = compute_zero_set(p, polish=False)
        xs = zs.xbar.copy()
        xs[3] = xs[0]
        rhs = lambda y: FAMILIES["aw"].velocity(p, y)
        with pytest.raises(SingularTrajectory) as info:
            zeroflow.integrate_flow(rhs, xs, t_end=0.01, dt_max=0.001)
        assert "z_n-z_m" in str(info.value)
        assert isinstance(info.value.__cause__, SingularConfiguration)


class TestGuardHelper:
    def test_first_element_then_first_check(self):
        with pytest.raises(SingularConfiguration) as info:
            guard((np.array([1.0, 1e-12]), "a"), (np.array([1e-11, 1.0]), "b"))
        assert (info.value.guard, info.value.magnitude) == ("b", 1e-11)

    def test_nan_fails_and_scalars_pass(self):
        guard((1.0, "a"), (np.float64(2.0), "b"))
        with pytest.raises(SingularConfiguration) as info:
            guard((np.array([[1.0, 1.0], [np.nan, 1.0]]), "a"))
        assert info.value.guard == "a"
        assert np.isnan(info.value.magnitude)


class TestScalarBehaviour:
    def test_elementwise_matches_pointwise(self):
        p = draw_aw_params(SplitMix64(2), 0.6, 5)
        z = compute_zero_set(p, polish=False).zbar
        g, gp = awspec.eval_G_pair(p, z)
        a = awspec.eval_A(p, z)
        for i, zi in enumerate(z):
            g_i, gp_i = awspec.eval_G_pair(p, zi)
            assert g_i == pytest.approx(g[i], rel=SCALAR_TOL)
            assert gp_i == pytest.approx(gp[i], rel=SCALAR_TOL)
            assert awspec.eval_A(p, zi) == pytest.approx(a[i], rel=SCALAR_TOL)
        r = draw_racah_params(SplitMix64(2), 0.6, 5)
        zr = compute_zero_set(r, polish=False).zbar
        pts = racahspec.point_structure(r, zr, +1)
        for i, zi in enumerate(zr):
            pt = racahspec.point_structure(r, zi, +1)
            for field in dataclasses.fields(pt):
                value = getattr(pt, field.name)
                assert np.ndim(value) == 0
                assert value == pytest.approx(getattr(pts, field.name)[i], rel=SCALAR_TOL)

    def test_point_values_without_derivatives(self):
        r = draw_racah_params(SplitMix64(2), 0.6, 5)
        z = compute_zero_set(r, polish=False).zbar
        full = racahspec.point_structure(r, z, -1)
        values = racahspec.point_structure(r, z, -1, derivatives=False)
        for name in ("z_plus", "z_minus", "Zval", "Bval", "Dval"):
            assert np.array_equal(getattr(values, name), getattr(full, name))
        assert (values.Bp, values.Dp, values.Cplus, values.Cminus) == (None,) * 4
