"""Seeded construction of every parameter bundle.

All tensors are drawn uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) from a
splitmix64 stream seeded by mix64(model_seed XOR fnv1a64(tensor_name)), so
the same (config, seed) always yields the same bytes.  A weight container
can override any tensor of ``Config.tensor_shapes`` by name with a finite
tensor of its shape.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .actuator import ActuatorParams
from .affect import AffectParams
from .config import Config
from .engine import CtmParams
from .errors import ConfigError
from .perception import EncoderWeights
from .rng import derive_seed, fan_in_matrix, sample_pairs
from .registry import ToolRegistry
from .router import RouterParams
from .weights import load_weights


@dataclass(frozen=True)
class ModelParams:
    """Everything derived from (config, seed): ready-to-run bundles."""

    encoder: EncoderWeights
    ctm: CtmParams
    affect: AffectParams
    action_head: np.ndarray
    slot_head: np.ndarray
    actuator: ActuatorParams


def build_model(
    config: Config, registry_size: int, max_slots: int, overrides: dict | None = None
) -> ModelParams:
    """Build all parameter bundles for one model seed."""
    over = dict(overrides or {})
    if config.weights_path:
        over = {**load_weights(config.weights_path), **over}
    table = config.tensor_shapes(registry_size, max(max_slots, 1))
    shapes = {name: (rows, cols) for name, rows, cols, _ in table}
    unknown = set(over) - set(shapes)
    if unknown:
        raise ConfigError(f"unknown weight tensors: {sorted(unknown)}")
    t = {}  # every tensor, by name
    for name, shape in shapes.items():
        if name not in over:
            t[name] = fan_in_matrix(derive_seed(config.seed, name), *shape)
            continue
        if over[name].shape != shape:
            raise ConfigError(
                f"weight override {name!r} has shape {over[name].shape}, expected {shape}"
            )
        t[name] = over[name].astype(np.float32)
        if not np.all(np.isfinite(t[name])):
            raise ConfigError(f"weight override {name!r} has non-finite values")

    e, act = config.engine, config.actuator
    pair_p, pair_q = sample_pairs(derive_seed(config.seed, "ctm/pairs"), e.neurons, e.sync_pairs)
    return ModelParams(
        encoder=EncoderWeights(
            vision=t["enc/vision"], audio=t["enc/audio"],
            proprio=t["enc/proprio"], fusion=t["enc/fusion"],
        ),
        ctm=CtmParams(
            config=e, synapse_w=t["ctm/synapse"], factor_a=t["ctm/readout_a"],
            factor_b=t["ctm/readout_b"], bias=t["ctm/bias"].reshape(-1),
            certainty_w=t["ctm/certainty"], pair_p=pair_p, pair_q=pair_q,
        ),
        affect=AffectParams(w1=t["affect/w1"], w2=t["affect/w2"], config=config.affect),
        action_head=t["router/action"],
        slot_head=t["router/slots"],
        actuator=ActuatorParams(
            mapping=t["actuator/mapping"],
            tau_min=np.full(act.joints, -act.torque_limit),
            tau_max=np.full(act.joints, act.torque_limit),
            gain=np.full(act.joints, act.gain),
            config=act,
        ),
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
