from __future__ import annotations

import dataclasses
import os
import time
from pathlib import Path

import numpy as np
import pytest

from tickslab.config import EngineConfig
from tickslab.engine import CtmParams
from tickslab.rng import derive_seed, fan_in_matrix, sample_pairs

ENGINE_KEYS = {f.name for f in dataclasses.fields(EngineConfig)}
SRC = Path(__file__).resolve().parents[1] / "src"


def cli_env() -> dict:
    """The environment for a ``tickslab`` subprocess: this one's, with ``src``
    on the path and a RuntimeWarning an error, as pyproject.toml's
    ``filterwarnings`` makes it in the test process."""
    return {**os.environ, "PYTHONPATH": str(SRC), "PYTHONWARNINGS": "error::RuntimeWarning"}


def make_ctm(
    seed: int = 1,
    neurons: int = 8,
    history: int = 4,
    rank: int = 2,
    sync_pairs: int = 12,
    ticks_per_slab: int = 4,
    max_slabs: int = 6,
    fusion_dim: int = 16,
    **overrides,
) -> CtmParams:
    """Small seeded engine params for fast tests.

    Overrides named after an ``EngineConfig`` field go to the config, the
    rest replace arrays of the bundle.
    """
    config = EngineConfig(
        neurons=neurons,
        history=history,
        rank=rank,
        sync_pairs=sync_pairs,
        ticks_per_slab=ticks_per_slab,
        max_slabs=max_slabs,
        **{k: v for k, v in overrides.items() if k in ENGINE_KEYS},
    )
    pair_p, pair_q = sample_pairs(derive_seed(seed, "ctm/pairs"), neurons, sync_pairs)
    fields = dict(
        config=config,
        synapse_w=fan_in_matrix(derive_seed(seed, "ctm/synapse"), neurons, neurons + fusion_dim),
        factor_a=fan_in_matrix(derive_seed(seed, "ctm/readout_a"), history, rank),
        factor_b=fan_in_matrix(derive_seed(seed, "ctm/readout_b"), neurons, rank),
        bias=fan_in_matrix(derive_seed(seed, "ctm/bias"), 1, neurons).reshape(-1),
        certainty_w=fan_in_matrix(derive_seed(seed, "ctm/certainty"), 4, sync_pairs),
        pair_p=pair_p,
        pair_q=pair_q,
    )
    fields.update({k: v for k, v in overrides.items() if k not in ENGINE_KEYS})
    return CtmParams(**fields)


def model_tensors(model) -> dict:
    """Every overridable tensor of a model, by its container name."""
    return {
        "enc/vision": model.encoder.vision,
        "enc/audio": model.encoder.audio,
        "enc/proprio": model.encoder.proprio,
        "enc/fusion": model.encoder.fusion,
        "ctm/synapse": model.ctm.synapse_w,
        "ctm/readout_a": model.ctm.factor_a,
        "ctm/readout_b": model.ctm.factor_b,
        "ctm/bias": model.ctm.bias,
        "ctm/certainty": model.ctm.certainty_w,
        "affect/w1": model.affect.w1,
        "affect/w2": model.affect.w2,
        "router/action": model.router.action_head,
        "router/slots": model.router.slot_head,
        "actuator/mapping": model.actuator.mapping,
    }


def fusion_vector(seed: int, dim: int = 16) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.tanh(rng.normal(size=dim)).astype(np.float32)


class LateStart:
    """A ``time.monotonic`` whose next read sleeps ``delay`` seconds after reading.

    Patched in before a live decision step, its first read sets the step's
    expiry, so the trajectory starts ``delay`` late, as if the step had been
    held up.
    """

    def __init__(self) -> None:
        self.real, self.delay = time.monotonic, 0.0

    def __call__(self) -> float:
        now = self.real()
        delay, self.delay = self.delay, 0.0
        time.sleep(delay)
        return now


@pytest.fixture
def small_params() -> CtmParams:
    return make_ctm(seed=1)


@pytest.fixture
def fvec() -> np.ndarray:
    return fusion_vector(3)
