"""Torque planning and PWM mapping for the actuate tool.

The torque plan solves min ||tau - K s||^2 subject to per-joint box bounds;
the objective is separable, so the optimum is the per-coordinate clamp of
K s onto [tau_min, tau_max] (a projected-gradient oracle exists only in the
tests).  The planned torques are then mapped to [0, 1] duty cycles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import hold_float64, matvec


@dataclass(frozen=True)
class ActuatorParams:
    mapping: np.ndarray                 # (joints, pair_count) sync -> torque
    tau_min: np.ndarray                 # (joints,) N*m
    tau_max: np.ndarray
    gain: np.ndarray                    # (joints,)

    def __post_init__(self):
        hold_float64(self, "mapping", "tau_min", "tau_max", "gain")


def plan_torque(sync_merged: np.ndarray, params: ActuatorParams) -> np.ndarray:
    """Box-constrained least-squares optimum: clamp(K s, tau_min, tau_max)."""
    return np.minimum(np.maximum(matvec(params.mapping, sync_merged), params.tau_min), params.tau_max)


def torque_to_pwm(tau: np.ndarray, params: ActuatorParams) -> np.ndarray:
    """Per-joint duty cycles in [0, 1], bipolar around 0.5:
    duty = 0.5 + 0.5 * clamp(gain * (tau / tau_max), -1, 1); a planned tau lies
    in [-tau_max, tau_max], so no finite gain makes the product overflow."""
    scaled = params.gain * (tau / params.tau_max)
    return 0.5 + 0.5 * np.minimum(np.maximum(scaled, -1.0), 1.0)
