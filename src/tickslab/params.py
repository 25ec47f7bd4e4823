"""Seeded construction of every parameter bundle.

All tensors are drawn uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) from a
splitmix64 stream seeded by mix64(model_seed XOR fnv1a64(tensor_name)), so
the same (config, seed) always yields the same bytes.  A weight container
can override any tensor by name with a finite tensor of the same shape.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .actuator import ActuatorParams
from .affect import AffectParams
from .config import Config
from .engine import CtmParams
from .envelope import AFFECT_DIMS
from .errors import ConfigError
from .perception import EncoderWeights
from .rng import derive_seed, fan_in_matrix, sample_pairs
from .router import RouterParams, ToolRegistry
from .weights import load_weights

TENSOR_NAMES = (
    "enc/vision",
    "enc/audio",
    "enc/proprio",
    "enc/fusion",
    "ctm/synapse",
    "ctm/readout_a",
    "ctm/readout_b",
    "ctm/bias",
    "ctm/certainty",
    "affect/w1",
    "affect/w2",
    "router/action",
    "router/slots",
    "actuator/mapping",
)


@dataclass(frozen=True)
class ModelParams:
    """Everything derived from (config, seed): ready-to-run bundles."""

    encoder: EncoderWeights
    ctm: CtmParams
    affect: AffectParams
    action_head: np.ndarray
    slot_head: np.ndarray
    actuator: ActuatorParams


def _tensor(seed: int, name: str, rows: int, cols: int, overrides: dict) -> np.ndarray:
    if name in overrides:
        arr = overrides[name]
        if arr.shape != (rows, cols):
            raise ConfigError(
                f"weight override {name!r} has shape {arr.shape}, expected {(rows, cols)}"
            )
        arr = arr.astype(np.float32)
        if not np.all(np.isfinite(arr)):
            raise ConfigError(f"weight override {name!r} has non-finite values")
        return arr
    return fan_in_matrix(derive_seed(seed, name), rows, cols)


def build_model(
    config: Config, registry_size: int, max_slots: int, overrides: dict | None = None
) -> ModelParams:
    """Build all parameter bundles for one model seed."""
    seed = config.seed
    over = dict(overrides or {})
    if config.weights_path:
        over = {**load_weights(config.weights_path), **over}
    unknown = set(over) - set(TENSOR_NAMES)
    if unknown:
        raise ConfigError(f"unknown weight tensors: {sorted(unknown)}")

    p = config.perception
    encoder = EncoderWeights(
        vision=_tensor(seed, "enc/vision", p.vision_latent, p.vision_in, over),
        audio=_tensor(seed, "enc/audio", p.audio_latent, p.audio_in, over),
        proprio=_tensor(seed, "enc/proprio", p.proprio_latent, p.proprio_in, over),
        fusion=_tensor(seed, "enc/fusion", p.fusion_dim, p.concat_dim, over),
    )

    e = config.engine
    pair_p, pair_q = sample_pairs(derive_seed(seed, "ctm/pairs"), e.neurons, e.sync_pairs)
    ctm = CtmParams(
        config=e,
        synapse_w=_tensor(seed, "ctm/synapse", e.neurons, e.neurons + p.fusion_dim, over),
        factor_a=_tensor(seed, "ctm/readout_a", e.history, e.rank, over),
        factor_b=_tensor(seed, "ctm/readout_b", e.neurons, e.rank, over),
        bias=_tensor(seed, "ctm/bias", 1, e.neurons, over).reshape(-1),
        certainty_w=_tensor(seed, "ctm/certainty", e.logit_count, e.sync_pairs, over),
        pair_p=pair_p,
        pair_q=pair_q,
    )

    a = config.affect
    affect = AffectParams(
        w1=_tensor(seed, "affect/w1", a.hidden, e.sync_pairs, over),
        w2=_tensor(seed, "affect/w2", AFFECT_DIMS, a.hidden, over),
        config=a,
    )

    r = config.router
    action_head = _tensor(seed, "router/action", registry_size, e.sync_pairs, over)
    slot_head = _tensor(
        seed, "router/slots", max(max_slots, 1) * r.slot_embed_width, e.sync_pairs, over
    )

    act = config.actuator
    actuator = ActuatorParams(
        mapping=_tensor(seed, "actuator/mapping", act.joints, e.sync_pairs, over),
        tau_min=np.full(act.joints, -act.torque_limit),
        tau_max=np.full(act.joints, act.torque_limit),
        gain=np.full(act.joints, act.gain),
        config=act,
    )

    return ModelParams(
        encoder=encoder,
        ctm=ctm,
        affect=affect,
        action_head=action_head,
        slot_head=slot_head,
        actuator=actuator,
    )


def candidate_embedding(episode_seed: int, name: str, width: int) -> np.ndarray:
    """Per-episode candidate embedding (16-wide by default), seeded by name."""
    return fan_in_matrix(derive_seed(episode_seed, f"embed/{name}"), 1, width).reshape(-1)


def build_router_params(
    model: ModelParams,
    config: Config,
    registry: ToolRegistry,
    candidates: list[str],
    episode_seed: int,
) -> RouterParams:
    """Assemble the per-episode router bundle (heads plus candidate embeddings)."""
    width = config.router.slot_embed_width
    embedded = tuple(
        (name, candidate_embedding(episode_seed, name, width)) for name in candidates
    )
    if model.action_head.shape[0] != len(registry):
        raise ConfigError(
            f"action head covers {model.action_head.shape[0]} tools, "
            f"registry has {len(registry)}"
        )
    return RouterParams(
        action_head=model.action_head,
        slot_head=model.slot_head,
        candidates=embedded,
        config=config.router,
    )
