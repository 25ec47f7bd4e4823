"""Affect readout and halting-threshold modulation.

The merged sync vector is decoded through a two-layer tanh stack into an
8-wide affect vector; its L2 norm raises the halting threshold for the next
thought cycle (more tension, more thinking).  The threshold the engine
actually applies is capped there, so large affect norms lengthen thinking
without making halting unreachable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import AffectConfig
from .errors import DimensionMismatch
from .numerics import bounded_tanh, matvec


@dataclass(frozen=True)
class AffectParams:
    w1: np.ndarray              # (hidden, sync_pairs)
    w2: np.ndarray              # (affect_dim, hidden), affect_dim = 8
    config: AffectConfig = field(default_factory=AffectConfig)

    def __post_init__(self):
        if self.w2.shape[1] != self.w1.shape[0]:
            raise ValueError(f"layer widths differ: {self.w1.shape} vs {self.w2.shape}")


def affect_decode(sync: np.ndarray, params: AffectParams) -> np.ndarray:
    """e = tanh(W2 tanh(W1 S)); float32, entries in (-1, 1)."""
    if sync.shape[0] != params.w1.shape[1]:
        raise DimensionMismatch(
            f"sync width {sync.shape[0]} != affect input {params.w1.shape[1]}"
        )
    hidden = bounded_tanh(matvec(params.w1, sync))
    return bounded_tanh(matvec(params.w2, hidden))


def modulate_epsilon(affect: np.ndarray, params: AffectParams) -> float:
    """Halting threshold epsilon0 * (1 + alpha * ||e||_2).

    Always >= epsilon0 and monotone in the affect norm; the engine caps the
    value it actually compares against certainty.
    """
    norm = float(np.linalg.norm(affect.astype(np.float64)))
    return params.config.epsilon0 * (1.0 + params.config.alpha * norm)
