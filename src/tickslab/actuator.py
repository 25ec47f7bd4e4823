"""Torque planning, trajectory interpolation, smoothing, and PWM mapping.

The torque plan solves min ||tau - K s||^2 subject to per-joint box bounds;
the objective is separable, so the optimum is the per-coordinate clamp of
K s onto [tau_min, tau_max] (a projected-gradient oracle exists only in the
tests).  Reference trajectories are cubic blends with zero endpoint
velocities, smoothed by a causal moving average with forward-difference
velocities, then mapped to [0, 1] duty cycles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .numerics import matvec

DEFAULT_FILTER_WINDOW = 5
DEFAULT_SAMPLES = 10


@dataclass(frozen=True)
class ActuatorParams:
    mapping: np.ndarray                 # (joints, pair_count) sync -> torque
    tau_min: np.ndarray                 # (joints,) N*m
    tau_max: np.ndarray
    gain: np.ndarray                    # (joints,)
    filter_window: int = DEFAULT_FILTER_WINDOW
    samples_per_move: int = DEFAULT_SAMPLES

    def __post_init__(self):
        if not np.all(self.tau_min < self.tau_max):
            raise ValueError("tau_min must be strictly below tau_max per joint")


@dataclass(frozen=True)
class TrajectorySample:
    t: float              # normalized time in [0, 1]
    q: np.ndarray         # joint displacement (rad)
    qdot: np.ndarray      # rad per unit time


def plan_torque(sync_merged: np.ndarray, params: ActuatorParams) -> np.ndarray:
    """Box-constrained least-squares optimum: clamp(K s, tau_min, tau_max)."""
    if params.mapping.shape[1] != sync_merged.shape[0]:
        raise DimensionMismatch(
            f"mapping expects {params.mapping.shape[1]} sync entries, "
            f"got {sync_merged.shape[0]}"
        )
    target = matvec(params.mapping, sync_merged)
    return np.clip(
        target, params.tau_min.astype(np.float64), params.tau_max.astype(np.float64)
    )


def interpolate_trajectory(
    q0: np.ndarray, q_target: np.ndarray, n_samples: int
) -> list[TrajectorySample]:
    """Cubic blend q(t) = q0 (1-s) + q_target s with s = 3t^2 - 2t^3.

    Endpoint displacements are exact and endpoint velocities are zero; the
    curve is continuously differentiable in between.
    """
    if q0.shape != q_target.shape:
        raise DimensionMismatch(f"endpoint shapes differ: {q0.shape} vs {q_target.shape}")
    if n_samples < 2:
        raise ValueError("need at least 2 samples")
    a = q0.astype(np.float64)
    b = q_target.astype(np.float64)
    if np.array_equal(a, b):
        # degenerate move: hold exactly, zero velocity throughout
        return [
            TrajectorySample(t=i / (n_samples - 1), q=a.copy(), qdot=np.zeros_like(a))
            for i in range(n_samples)
        ]
    samples = []
    for i in range(n_samples):
        t = i / (n_samples - 1)
        s = t * t * (3.0 - 2.0 * t)
        ds = 6.0 * t - 6.0 * t * t
        samples.append(TrajectorySample(t=t, q=a * (1.0 - s) + b * s, qdot=(b - a) * ds))
    return samples


def compliance_filter(
    samples: list[TrajectorySample], window: int
) -> list[TrajectorySample]:
    """Causal moving average on q, velocities recomputed by forward difference.

    Sample i averages the last min(window, i+1) displacements, so the first
    sample is untouched.  The final sample repeats the last forward
    difference (there is nothing ahead to difference against).
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    if len(samples) <= 1:
        return list(samples)
    q = np.stack([s.q for s in samples])
    t = np.array([s.t for s in samples])
    smoothed = np.empty_like(q)
    for i in range(len(samples)):
        lo = max(0, i + 1 - window)
        smoothed[i] = np.mean(q[lo : i + 1], axis=0)
    qdot = np.empty_like(smoothed)
    for i in range(len(samples) - 1):
        qdot[i] = (smoothed[i + 1] - smoothed[i]) / (t[i + 1] - t[i])
    qdot[-1] = qdot[-2]
    out = [samples[0]]
    for i in range(1, len(samples)):
        out.append(TrajectorySample(t=float(t[i]), q=smoothed[i], qdot=qdot[i]))
    return out


def torque_to_pwm(tau: np.ndarray, params: ActuatorParams) -> np.ndarray:
    """Per-joint duty cycles in [0, 1], bipolar around 0.5:
    duty = 0.5 + 0.5 * clamp(gain * tau / tau_max, -1, 1)."""
    if tau.shape[0] != params.tau_max.shape[0]:
        raise DimensionMismatch(
            f"{tau.shape[0]} torques for {params.tau_max.shape[0]} joints"
        )
    scaled = params.gain.astype(np.float64) * tau / params.tau_max.astype(np.float64)
    return 0.5 + 0.5 * np.clip(scaled, -1.0, 1.0)
