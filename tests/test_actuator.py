import dataclasses
import sys

import numpy as np

from tickslab.actuator import ActuatorParams, plan_torque, torque_to_pwm


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

    def test_largest_gain_does_not_overflow(self):
        # gain x tau would pass the float64 maximum; gain x (tau / tau_max) cannot
        params = dataclasses.replace(make_params(limit=5.0), gain=np.full(3, sys.float_info.max))
        duty = torque_to_pwm(np.array([5.0, -5.0, 0.0]), params)
        assert duty.tolist() == [1.0, 0.0, 0.5]

    def test_duty_range_random(self):
        rng = np.random.default_rng(5)
        params = make_params(joints=4, limit=2.0)
        for _ in range(100):
            tau = rng.uniform(-2, 2, size=4)
            duty = torque_to_pwm(tau, params)
            assert np.all(duty >= 0.0) and np.all(duty <= 1.0)


class TestClampForm:
    """``np.minimum(np.maximum(...))`` gives the bits ``np.clip`` gives."""

    EDGES = [np.nan, np.inf, -np.inf, 0.0, -0.0, 5.0, -5.0, 7.5, -7.5, 1e300]

    def test_plan_torque_equals_clip(self):
        from tickslab.numerics import matvec

        rng = np.random.default_rng(9)
        params = make_params(joints=4, pairs=6, limit=2.0)
        for _ in range(200):
            sync = rng.normal(size=6) * 3
            sync[rng.integers(6)] = rng.choice(self.EDGES)
            want = np.clip(matvec(params.mapping, sync), params.tau_min, params.tau_max)
            assert plan_torque(sync, params).tobytes() == want.tobytes()

    def test_duties_equal_clip(self):
        params = make_params(joints=len(self.EDGES), limit=5.0)
        tau = np.array(self.EDGES)
        want = 0.5 + 0.5 * np.clip(params.gain * (tau / params.tau_max), -1.0, 1.0)
        duty = torque_to_pwm(tau, params)
        assert duty.tobytes() == want.tobytes()
        assert np.isnan(duty[0]) and duty[1] == 1.0 and duty[2] == 0.0
