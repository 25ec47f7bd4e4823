import numpy as np
import pytest

from tickslab.actuator import (
    ActuatorParams,
    compliance_filter,
    interpolate_trajectory,
    plan_torque,
    torque_to_pwm,
    TrajectorySample,
)
from tickslab.errors import DimensionMismatch


def make_params(joints=3, pairs=6, limit=5.0, seed=0):
    rng = np.random.default_rng(seed)
    return ActuatorParams(
        mapping=rng.normal(size=(joints, pairs)).astype(np.float32),
        tau_min=np.full(joints, -limit),
        tau_max=np.full(joints, limit),
        gain=np.ones(joints),
    )


def pgd_oracle(target, lo, hi, step=1e-2, iters=10_000):
    """Projected gradient descent on ||tau - target||^2 over the box."""
    tau = np.zeros_like(target)
    for _ in range(iters):
        tau = tau - step * 2.0 * (tau - target)
        tau = np.minimum(np.maximum(tau, lo), hi)
    return tau


class TestPlanTorque:
    def test_unconstrained_optimum_feasible(self):
        params = make_params(limit=1e6)
        sync = np.random.default_rng(1).normal(size=6).astype(np.float32)
        tau = plan_torque(sync, params)
        want = params.mapping.astype(np.float64) @ sync.astype(np.float64)
        np.testing.assert_allclose(tau, want, rtol=1e-12)

    def test_clamp_forced_by_bound(self):
        params = ActuatorParams(
            mapping=np.eye(4, dtype=np.float32) * 9.0,
            tau_min=np.full(4, -5.0),
            tau_max=np.array([5.0, 5.0, 5.0, 5.0]),
            gain=np.ones(4),
        )
        sync = np.array([0.1, 0.1, 1.0, 0.1], dtype=np.float32)
        tau = plan_torque(sync, params)
        assert tau[2] == 5.0

    def test_matches_pgd_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            joints = int(rng.integers(1, 6))
            pairs = int(rng.integers(2, 10))
            mapping = rng.normal(size=(joints, pairs)).astype(np.float32) * 3
            lo = rng.uniform(-8, -0.5, size=joints)
            hi = rng.uniform(0.5, 8, size=joints)
            params = ActuatorParams(
                mapping=mapping, tau_min=lo, tau_max=hi, gain=np.ones(joints)
            )
            sync = rng.normal(size=pairs).astype(np.float32)
            tau = plan_torque(sync, params)
            target = mapping.astype(np.float64) @ sync.astype(np.float64)
            want = pgd_oracle(target, lo, hi)
            np.testing.assert_allclose(tau, want, atol=1e-6)
            assert np.all(tau >= lo) and np.all(tau <= hi)

    def test_optimality_certificate(self):
        # exact per-joint certificate, so the target must use the op's own
        # fixed-order product (BLAS @ differs in the last ulp)
        from tickslab.numerics import matvec

        rng = np.random.default_rng(8)
        for _ in range(100):
            params = make_params(joints=5, limit=2.0, seed=int(rng.integers(1e9)))
            sync = (rng.normal(size=6) * 3).astype(np.float32)
            tau = plan_torque(sync, params)
            target = matvec(params.mapping, sync)
            for j in range(5):
                at_target = tau[j] == target[j]
                on_low = tau[j] == params.tau_min[j] and target[j] < params.tau_min[j]
                on_high = tau[j] == params.tau_max[j] and target[j] > params.tau_max[j]
                assert at_target or on_low or on_high

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            plan_torque(np.zeros(5, dtype=np.float32), make_params(pairs=6))


class TestInterpolateTrajectory:
    def test_degenerate_move(self):
        q = np.array([0.3, -0.7])
        samples = interpolate_trajectory(q, q.copy(), 10)
        for s in samples:
            np.testing.assert_array_equal(s.q, q)
            np.testing.assert_array_equal(s.qdot, np.zeros(2))

    def test_exact_endpoints_and_zero_velocity(self):
        q0 = np.array([0.1, 2.0, -1.0])
        q1 = np.array([0.3, -0.5, 4.0])
        samples = interpolate_trajectory(q0, q1, 10)
        assert np.array_equal(samples[0].q, q0)
        assert np.array_equal(samples[-1].q, q1)
        assert np.array_equal(samples[0].qdot, np.zeros(3))
        assert np.array_equal(samples[-1].qdot, np.zeros(3))

    def test_finite_difference_matches_analytic(self):
        rng = np.random.default_rng(3)
        q0 = rng.uniform(-1, 1, size=4)
        q1 = rng.uniform(-1, 1, size=4)
        samples = interpolate_trajectory(q0, q1, 100)
        dt = 1.0 / 99.0
        for i in range(1, 99):
            central = (samples[i + 1].q - samples[i - 1].q) / (2 * dt)
            np.testing.assert_allclose(central, samples[i].qdot, atol=1e-3)

    def test_sample_count_and_times(self):
        samples = interpolate_trajectory(np.zeros(1), np.ones(1), 5)
        assert len(samples) == 5
        assert [s.t for s in samples] == pytest.approx([0, 0.25, 0.5, 0.75, 1.0])


class TestComplianceFilter:
    def test_constant_trajectory_unchanged(self):
        q = np.array([1.0, -2.0])
        samples = interpolate_trajectory(q, q.copy(), 8)
        out = compliance_filter(samples, window=5)
        for s_in, s_out in zip(samples, out):
            np.testing.assert_array_equal(s_in.q, s_out.q)
            np.testing.assert_array_equal(s_out.qdot, np.zeros(2))

    def test_unit_step_ramps_over_window(self):
        # step from 0 to 1 at sample 5; window 5 -> ramp 1/5, 2/5, ... 1.0
        n = 12
        samples = [
            TrajectorySample(
                t=i / (n - 1),
                q=np.array([0.0 if i < 5 else 1.0]),
                qdot=np.zeros(1),
            )
            for i in range(n)
        ]
        out = compliance_filter(samples, window=5)
        values = [float(s.q[0]) for s in out]
        assert values[:5] == pytest.approx([0, 0, 0, 0, 0])
        assert values[5:10] == pytest.approx([1 / 5, 2 / 5, 3 / 5, 4 / 5, 1.0])
        assert values[10:] == pytest.approx([1.0, 1.0])

    def test_smoothing_never_amplifies_velocity(self):
        # discrete statement: the filter's forward differences never exceed
        # the steepest chord of the raw trajectory (the analytic max can
        # fall between samples, so chords are the honest bound)
        rng = np.random.default_rng(4)
        for _ in range(50):
            q0 = rng.uniform(-2, 2, size=3)
            q1 = rng.uniform(-2, 2, size=3)
            n = int(rng.integers(4, 40))
            samples = interpolate_trajectory(q0, q1, n)
            out = compliance_filter(samples, window=int(rng.integers(1, 8)))
            dt = 1.0 / (n - 1)
            chord_max = max(
                np.max(np.abs(b.q - a.q)) / dt for a, b in zip(samples, samples[1:])
            )
            out_max = max(np.max(np.abs(s.qdot)) for s in out)
            assert out_max <= chord_max + 1e-9

    def test_single_sample_passthrough(self):
        samples = [TrajectorySample(0.0, np.zeros(2), np.zeros(2))]
        assert compliance_filter(samples, 5) == samples


class TestTorqueToPwm:
    def test_zero_torque_is_midpoint(self):
        params = make_params()
        duty = torque_to_pwm(np.zeros(3), params)
        np.testing.assert_array_equal(duty, np.full(3, 0.5))

    def test_max_torque_full_duty(self):
        params = make_params(limit=5.0)
        duty = torque_to_pwm(np.full(3, 5.0), params)
        np.testing.assert_array_equal(duty, np.ones(3))
        duty = torque_to_pwm(np.full(3, -5.0), params)
        np.testing.assert_array_equal(duty, np.zeros(3))

    def test_duty_range_random(self):
        rng = np.random.default_rng(5)
        params = make_params(joints=4, limit=2.0)
        for _ in range(100):
            tau = rng.uniform(-2, 2, size=4)
            duty = torque_to_pwm(tau, params)
            assert np.all(duty >= 0.0) and np.all(duty <= 1.0)
