import numpy as np
import pytest

import scalar_oracle
from flow_oracle import linearization_check, serial_fd_jacobian, serial_integrate_flow
from qzeros import awspec, racahspec, zeroflow
from qzeros.errors import SingularConfiguration, SingularTrajectory, guard
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
            if np.any(y[..., 0].real > 0.018):
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

    @pytest.mark.parametrize("dt_max", [1e-16, 0.99e-14, 0.0, -0.1, float("nan")])
    def test_rejects_dt_max_below_step_floor(self, dt_max):
        # below the floor the first step would already be an underflow, or never end
        rhs = lambda y: -y
        with pytest.raises(ValueError, match="dt_max"):
            integrate_flow(rhs, np.array([1.0 + 0j]), 0.05, dt_max)


def _flow_case(family, seed, q, n):
    """(rhs, start, t_end) of a flow-window style run: 4/||matrix|| from a 1e-6 displacement."""
    fam = FAMILIES[family]
    p = fam.draw(SplitMix64(seed), q, n)
    zs = compute_zero_set(p)
    t_end = 4.0 / float(np.linalg.norm(fam.build_matrix(p, zs).entries, 2))
    start = fam.position(zs) + 1e-6 * np.asarray(unit_direction(SplitMix64(seed), n))
    return velocity(p), start, t_end


def _assert_same_samples(got, expected):
    assert len(got) == len(expected)
    for (t, y), (t_ref, y_ref) in zip(got, expected):
        assert t == t_ref
        assert np.array_equal(y, y_ref)


def _counting(rhs):
    calls = []

    def counted(y):
        calls.append(y.shape)
        return rhs(y)

    return counted, calls


class TestLockStepIntegrator:
    """integrate_flow against the serial step-doubling loop of flow_oracle, bit for bit."""

    @pytest.mark.parametrize("family", ["aw", "racah"])
    @pytest.mark.parametrize("q", [0.3, 0.6, 0.5 + 0.2j])
    @pytest.mark.parametrize("n", [1, 2, 8, 16])
    def test_same_samples_as_serial_steps(self, family, q, n):
        rhs, start, t_end = _flow_case(family, 0, q, n)
        expected = serial_integrate_flow(rhs, start, t_end, t_end / 50.0)
        _assert_same_samples(integrate_flow(rhs, start, t_end, t_end / 50.0), expected)

    @pytest.mark.parametrize("family", ["aw", "racah"])
    def test_same_samples_with_rejected_trials(self, family):
        rhs, start, t_end = _flow_case(family, 1, 0.6, 8)
        serial, serial_calls = _counting(rhs)
        expected = serial_integrate_flow(serial, start, t_end, t_end)
        assert len(serial_calls) // 12 > len(expected) - 1  # some trial was rejected
        _assert_same_samples(integrate_flow(rhs, start, t_end, t_end), expected)

    def test_same_samples_on_a_nonlinear_flow_with_large_steps(self):
        # near the zeros a step moves the state by far less than its last bits, so a
        # reordered stage sum shows only where the increments are of the state's size
        rng = np.random.default_rng(0)
        start = rng.normal(size=5) + 1j * rng.normal(size=5)
        rhs = lambda y: -(1.0 + 0.3j) * y + 0.1 * y**2
        expected = serial_integrate_flow(rhs, start, 1.0, 0.1)
        _assert_same_samples(integrate_flow(rhs, start, 1.0, 0.1), expected)

    def test_guard_trip_mid_flow_same_partial_trajectory(self):
        rhs, start, t_end = _flow_case("aw", 2, 0.6, 8)
        final = integrate_flow(rhs, start, t_end, t_end / 50.0)[-1][1]
        limit = 0.5 * abs(final[0] - start[0])

        def tripping(y):
            moved = np.abs(y[..., 0] - start[0])
            guard((limit - moved, "z_n-z_m"))  # trips once any row has moved past the limit
            return rhs(y)

        outcomes = []
        for integrate in (serial_integrate_flow, integrate_flow):
            with pytest.raises(SingularTrajectory) as info:
                integrate(tripping, start, t_end, t_end / 50.0)
            outcomes.append(info.value)
        serial, lock_step = outcomes
        assert 1 < len(lock_step.trajectory) < 50
        assert type(lock_step.__cause__) is type(serial.__cause__) is SingularConfiguration
        _assert_same_samples(lock_step.trajectory, serial.trajectory)

    @pytest.mark.parametrize("family", ["aw", "racah"])
    @pytest.mark.parametrize("b", [1, 2, 3])
    def test_stacked_velocities_equal_row_calls(self, family, b):
        fam = FAMILIES[family]
        p = fam.draw(SplitMix64(4), 0.5 + 0.2j, 6)
        base = fam.position(compute_zero_set(p))
        shifts = unit_direction(SplitMix64(5), 6 * b)
        stacked = base + 1e-3 * np.asarray(shifts).reshape(b, 6)
        rows = np.array([fam.velocity(p, y) for y in stacked])
        assert np.array_equal(fam.velocity(p, stacked), rows)

    @pytest.mark.parametrize("family", ["aw", "racah"])
    def test_stacked_guard_names_first_failing_row(self, family):
        fam = FAMILIES[family]
        p = fam.draw(SplitMix64(0), 0.6, 4)
        rows = np.tile(fam.position(compute_zero_set(p)), (2, 1))
        rows[0, 3] = rows[0, 2] + 1e-12  # a near collision in row 0
        rows[1, 1] = rows[1, 0]  # an exact one in row 1, at an earlier pair
        with pytest.raises(SingularConfiguration) as first_row:
            fam.velocity(p, rows[0])
        with pytest.raises(SingularConfiguration) as stacked:
            fam.velocity(p, rows)
        assert first_row.value.magnitude > 0
        assert (stacked.value.guard, stacked.value.magnitude) == (
            first_row.value.guard,
            first_row.value.magnitude,
        )

    def test_step_budget_stops_with_the_partial_trajectory(self, monkeypatch):
        # a flow at rest takes 10 steps of dt_max, each in one trial; the budget allows 3
        monkeypatch.setattr(zeroflow, "MAX_FLOW_STEPS", 3)
        rhs, calls = _counting(lambda y: np.zeros_like(y))
        with pytest.raises(SingularTrajectory, match="more than 3 RK4 trials") as info:
            integrate_flow(rhs, np.array([1.0 + 0j]), t_end=1.0, dt_max=0.1)
        assert [t for t, _ in info.value.trajectory] == pytest.approx([0.0, 0.1, 0.2, 0.3])
        assert len(calls) == 3 * 8 + 1

    def test_eight_rhs_calls_per_trial(self):
        rhs, calls = _counting(lambda y: np.zeros_like(y))
        samples = integrate_flow(rhs, np.array([1.0 + 0j, 2.0]), t_end=1.0, dt_max=0.25)
        assert len(samples) - 1 == 4
        # per step: k1 once, three stacked (2, N) rounds, four rounds of the second half step
        assert calls == 4 * [(2,), (2, 2), (2, 2), (2, 2), (2,), (2,), (2,), (2,)]

    def test_retried_trials_reuse_k1(self):
        decay = lambda y: -y
        serial, serial_calls = _counting(decay)
        lock_step, calls = _counting(decay)
        expected = serial_integrate_flow(serial, np.array([1.0 + 0j]), 1.0, 1.0)
        samples = integrate_flow(lock_step, np.array([1.0 + 0j]), 1.0, 1.0)
        _assert_same_samples(samples, expected)
        trials, steps = len(serial_calls) // 12, len(samples) - 1
        assert trials > steps  # the first steps are retried at smaller h
        assert len(calls) == steps + 7 * trials


class TestFdJacobian:
    def test_linear_map_recovered(self):
        a0 = np.array([[1.0, 2.0 - 1j], [0.5j, -3.0]], dtype=complex)
        rhs = lambda y: y @ a0.T  # row by row, as fd_jacobian's stacked states need
        jac = fd_jacobian(rhs, np.array([0.3 + 0j, -0.4 + 0.2j]))
        assert np.max(np.abs(jac - a0)) <= 1e-9

    def test_quadratic_terms_cancel_at_origin(self):
        rhs = lambda y: y**2
        jac = fd_jacobian(rhs, np.zeros(3, dtype=complex))
        assert np.max(np.abs(jac)) <= 1e-10

    @pytest.mark.parametrize("family", ["aw", "racah"])
    @pytest.mark.parametrize("q", [0.3, 0.6])
    @pytest.mark.parametrize("n", [4, 10, 16, 24])
    def test_same_columns_as_the_column_loop(self, family, q, n):
        # the seed-0 verify-grid cells of the benchmark, at their zeros
        fam = FAMILIES[family]
        p = fam.draw(SplitMix64(0), complex(q), n)
        rhs, y = velocity(p), fam.position(compute_zero_set(p))
        assert np.array_equal(fd_jacobian(rhs, y), serial_fd_jacobian(rhs, y))

    def test_same_guard_as_the_column_loop(self):
        # column 0's plus state collides x_0 with x_1, a pair guard; column 1's plus state,
        # two rows later in the same block, puts x_1 at 1, where z^2-1 = 0: a point guard,
        # which a stacked velocity call names before any pair guard
        p, _ = aw_instance(0, 0.3, 4)
        h = zeroflow.FD_STEP
        y = np.array([1.0 - 2 * h, 1.0 - h, 0.1, 0.5], dtype=complex)
        point = y.copy()
        point[1] += h
        with pytest.raises(SingularConfiguration, match="z\\^2-1"):
            velocity(p)(point)
        outcomes = []
        for jacobian in (serial_fd_jacobian, fd_jacobian):
            with pytest.raises(SingularConfiguration) as info:
                jacobian(velocity(p), y)
            outcomes.append((info.value.guard, info.value.magnitude))
        assert outcomes[0][0] == "z_n-z_m"
        assert outcomes[1] == outcomes[0]

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
