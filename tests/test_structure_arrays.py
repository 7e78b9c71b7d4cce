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
from qzeros.cli import run_verify
from qzeros.numlin import compute_zero_set
from qzeros.report import DEFAULT_TOLERANCES
from qzeros.polyform import AWParams
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
#: The oracle's guards on differences s_n - t_m of the operator form, which the library's
#: builder never divides by.
REMOVABLE_GUARDS = {"z_m-q*z_n", "q*z_n*z_m-1", "z_n^(+)-z_m", "z_n^(-)-z_m"}


def fd_residual(family, p, zs, entries) -> float:
    """The flow-jacobian check's residual: |fd_jacobian of the velocity - entries| entrywise,
    relative to max(|entry|, 1e-3 max |entries|)."""
    fam = FAMILIES[family]
    jac = zeroflow.fd_jacobian(lambda y: fam.velocity(p, y), fam.position(zs))
    denom = np.maximum(np.abs(entries), 1e-3 * np.max(np.abs(entries)))
    return float(np.max(np.abs(jac - entries) / denom))


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
                if exc.guard in REMOVABLE_GUARDS:
                    # the library divides by no such difference: it builds the flow's Jacobian
                    assert fd_residual(family, p, zs, run()) <= DEFAULT_TOLERANCES["fd_jacobian"]
                    continue
                # a genuine guard: the same guard, with the same magnitude, trips first
                with pytest.raises(SingularConfiguration) as info:
                    run()
                assert info.value.guard == exc.guard
                assert info.value.magnitude == pytest.approx(exc.magnitude, rel=SCALAR_TOL)
                continue
            entries = run()
            assert np.max(np.abs(entries - expected)) <= MATRIX_TOL * np.max(np.abs(expected))
            compared += 1
        assert compared > 0


@pytest.mark.parametrize("family", ["aw", "racah"])
def test_alternating_parameter_sets(family):
    # the constants formed once per parameter set serve each set in turn
    fam = FAMILIES[family]
    cases = []
    for seed in (1, 2):
        p = fam.draw(SplitMix64(seed), 0.5 + 0.2j, 6)
        positions = displaced(fam.position(compute_zero_set(p, polish=False)), seed)
        scalar = oracle.aw_velocity if family == "aw" else oracle.racah_velocity
        cases.append((p, positions, scalar(p, positions)))
    first = [fam.velocity(p, positions) for p, positions, _ in cases]
    for earlier, (p, positions, expected) in zip(first, cases):  # the sets again, in turn
        v = fam.velocity(p, positions)
        assert np.array_equal(v, earlier)
        assert np.max(np.abs(v - expected)) <= VELOCITY_TOL * np.max(np.abs(expected))


class TestRemovableSingularities:
    # the verify-grid cells, all at q = 0.6, that a builder dividing by s_n - t_m (the
    # oracle's z_m-q*z_n or z_n^(+/-)-z_m) rejects: the operator form's Jacobian is smooth there
    CELLS = [("aw", 24, seed) for seed in (1, 5, 8, 18, 36)]
    CELLS += [("racah", 16, seed) for seed in (8, 17)]
    CELLS += [("racah", 24, seed) for seed in (0, 1, 8, 17, 21, 29, 37)]

    @pytest.mark.parametrize("family, n, seed", CELLS)
    def test_cell_builds_and_verifies(self, family, n, seed):
        fam = FAMILIES[family]
        p = fam.draw(SplitMix64(seed), 0.6 + 0j, n)
        zs = compute_zero_set(p)
        with pytest.raises(SingularConfiguration) as info:
            (oracle.build_matrix_M if family == "aw" else oracle.build_matrix_L)(p, zs)
        assert info.value.guard in REMOVABLE_GUARDS
        assert fd_residual(family, p, zs, fam.build_matrix(p, zs).entries) <= 1e-4
        assert run_verify(p, seed=seed).passed


@pytest.mark.filterwarnings("error")
class TestGuards:
    def test_coincident_aw_positions(self):
        p = draw_aw_params(SplitMix64(0), 0.6, 4)
        zs = compute_zero_set(p, polish=False)
        xs = zs.xbar.copy()
        xs[2] = xs[1]
        with pytest.raises(SingularConfiguration) as info:
            zeroflow.aw_velocity(p, xs)
        assert info.value.guard == "x_n-x_m"
        assert info.value.magnitude == 0.0
        zb = zs.zbar.copy()
        zb[2] = zb[1]
        with pytest.raises(SingularConfiguration) as info:
            awspec.build_matrix_M(p, dataclasses.replace(zs, zbar=zb))
        assert info.value.guard == "x_n-x_m"

    def test_coincident_racah_positions(self):
        p = draw_racah_params(SplitMix64(0), 0.6, 4)
        zs = compute_zero_set(p, polish=False)
        z = zs.zbar.copy()
        z[3] = z[0]
        with pytest.raises(SingularConfiguration) as info:
            zeroflow.racah_velocity(p, z)
        assert info.value.guard == "z_n-z_m"
        assert info.value.magnitude == 0.0

    def test_pair_guard_is_x_n_minus_x_m_alone(self):
        # at |z| ~ 1e6, 1/z_2 - 1/z_1 = 2e-16 while x_2 - x_1 = 1e-4: the form divides by
        # x_n - x_m only, so the state passes; coincident x trip the one pair guard
        p = draw_aw_params(SplitMix64(0), 0.6, 4)
        xs = compute_zero_set(p, polish=False).xbar.copy()
        near = xs.copy()
        near[1], near[2] = 5e5, 5e5 + 1e-4
        v = zeroflow.aw_velocity(p, near)
        assert np.all(np.isfinite(v.view(float)))
        assert np.array_equal(zeroflow.aw_velocity(p, np.stack([near, xs]))[0], v)
        near[2] = near[1]
        with pytest.raises(SingularConfiguration) as info:
            zeroflow.aw_velocity(p, near)
        assert (info.value.guard, info.value.magnitude) == ("x_n-x_m", 0.0)

    def test_vanishing_reciprocal_denominator_names_q_z2_minus_1(self):
        # at q = 1/4 the 1/z half of z = 1/2 has 1 - q/z^2 = 0 exactly: the identities and M
        # run the same point guards on both halves, and name it
        p = draw_aw_params(SplitMix64(0), 0.25, 4)
        zs = compute_zero_set(p)
        bad = dataclasses.replace(zs, zbar=np.array([0.5, *zs.zbar[1:]]))
        for run in (awspec.prop21_residuals, awspec.build_matrix_M):
            with pytest.raises(SingularConfiguration) as info:
                run(p, bad)
            assert (info.value.guard, info.value.magnitude) == ("q*z^2-1", 0.0)

    def test_racah_seed0_q06_n24_shift_collision(self):
        # z_n^(-) meets another zero to 2.2e-13 here, a removable singularity: L builds, with
        # the closed-form spectrum, and is the flow's Jacobian
        p = draw_racah_params(SplitMix64(0), 0.6, 24)
        racahspec.build_matrix_L(p, compute_zero_set(p))
        checks = {c.name: c.passed for c in run_verify(p).checks}
        assert checks["prop2.4-spectrum"] and checks["flow-jacobian"]

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
        # M guards as the velocity does: z on every point, then A's two denominators, so
        # point 2's z is named before point 1's z^2-1; within one guard call points run in
        # row-major order, so point 1's q*z^2-1 is named before point 2's z^2-1
        p = draw_aw_params(SplitMix64(0), 0.6, 3)
        zs = compute_zero_set(p, polish=False)
        bad = dataclasses.replace(zs, zbar=np.array([zs.zbar[0], 1.0, 0.0]))
        with pytest.raises(SingularConfiguration) as info:
            awspec.build_matrix_M(p, bad)
        assert info.value.guard == "z"
        bad = dataclasses.replace(zs, zbar=np.array([zs.zbar[0], 0.6**-0.5, 1.0]))
        with pytest.raises(SingularConfiguration) as info:
            awspec.build_matrix_M(p, bad)
        assert info.value.guard == "q*z^2-1"

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
        assert "x_n-x_m" in str(info.value)
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


class TestOracleKernels:
    """The paper's G and K, which only the oracle evaluates."""

    def test_K_collapses_at_q_one(self):
        assert oracle.eval_K(1.0, 0.3 + 0.2j, 1.7) == pytest.approx(1.0)

    def test_G_derivative_matches_central_differences(self):
        p = AWParams(a=1.2, b=0.7, c=-0.4, d=0.9 + 0.3j, q=0.6, N=3)
        h = 1e-7
        for z in (0.4 + 0.6j, 1.8, -0.9 + 0.1j):
            g, gp = oracle.eval_G_pair(p, z)
            fd = (oracle.eval_G_pair(p, z + h)[0] - oracle.eval_G_pair(p, z - h)[0]) / (2 * h)
            assert abs(gp - fd) <= 1e-6 * (1 + abs(gp))


class TestScalarBehaviour:
    def test_elementwise_matches_pointwise(self):
        p = draw_aw_params(SplitMix64(2), 0.6, 5)
        z = compute_zero_set(p, polish=False).zbar
        a, slope = awspec._A(p.q, awspec._A_factors(p), z, slope=True)
        for i, zi in enumerate(z):
            a_i, slope_i = awspec._A(p.q, awspec._A_factors(p), zi, slope=True)
            assert a_i == pytest.approx(a[i], rel=SCALAR_TOL)
            assert slope_i == pytest.approx(slope[i], rel=SCALAR_TOL)
            assert awspec._A(p.q, awspec._A_factors(p), zi) == pytest.approx(a[i], rel=SCALAR_TOL)
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
