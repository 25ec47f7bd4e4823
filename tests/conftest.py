from __future__ import annotations

import numpy as np
import pytest

from tickslab.engine import CtmParams
from tickslab.rng import derive_seed, fan_in_matrix, sample_pairs


def make_ctm(
    seed: int = 1,
    neurons: int = 8,
    history: int = 4,
    rank: int = 2,
    pair_count: int = 12,
    ticks_per_slab: int = 4,
    max_slabs: int = 6,
    fusion_dim: int = 16,
    **overrides,
) -> CtmParams:
    """Small seeded engine params for fast tests."""
    pair_p, pair_q = sample_pairs(derive_seed(seed, "ctm/pairs"), neurons, pair_count)
    fields = dict(
        neurons=neurons,
        history=history,
        rank=rank,
        pair_count=pair_count,
        ticks_per_slab=ticks_per_slab,
        max_slabs=max_slabs,
        synapse_w=fan_in_matrix(derive_seed(seed, "ctm/synapse"), neurons, neurons + fusion_dim),
        factor_a=fan_in_matrix(derive_seed(seed, "ctm/readout_a"), history, rank),
        factor_b=fan_in_matrix(derive_seed(seed, "ctm/readout_b"), neurons, rank),
        bias=fan_in_matrix(derive_seed(seed, "ctm/bias"), 1, neurons).reshape(-1),
        certainty_w=fan_in_matrix(derive_seed(seed, "ctm/certainty"), 4, pair_count),
        pair_p=pair_p,
        pair_q=pair_q,
    )
    fields.update(overrides)
    return CtmParams(**fields)


def fusion_vector(seed: int, dim: int = 16) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.tanh(rng.normal(size=dim)).astype(np.float32)


@pytest.fixture
def small_params() -> CtmParams:
    return make_ctm(seed=1)


@pytest.fixture
def fvec() -> np.ndarray:
    return fusion_vector(3)
