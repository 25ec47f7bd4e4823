"""Seeded construction of every parameter bundle.

All tensors are drawn uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) from a
splitmix64 stream seeded by mix64(model_seed XOR fnv1a64(tensor_name)), so
the same (config, seed) always yields the same bytes.  A weight container
can override any tensor of ``Config.tensor_shapes`` by name with a finite
tensor of its shape.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .actuator import ActuatorParams
from .affect import AffectParams
from .config import Config, EngineConfig
from .engine import CtmParams
from .errors import ConfigError
from .perception import EncoderWeights
from .rng import derive_seed, fan_in_matrix, sample_pairs
from .router import RouterParams
from .weights import load_weights

F32_MAX = float(np.finfo(np.float32).max)


@dataclass(frozen=True)
class ModelParams:
    """Everything derived from (config, seed): ready-to-run bundles."""

    encoder: EncoderWeights
    ctm: CtmParams
    affect: AffectParams
    router: RouterParams            # the heads; each episode adds its candidates
    actuator: ActuatorParams


def build_model(config: Config, registry_size: int, max_slots: int) -> ModelParams:
    """Build all parameter bundles for one model seed."""
    over = load_weights(config.weights_path) if config.weights_path else {}
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
    check_logit_bound(e, t["ctm/certainty"])
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
        router=RouterParams(
            action_head=t["router/action"], slot_head=t["router/slots"], config=config.router
        ),
        actuator=ActuatorParams(
            mapping=t["actuator/mapping"],
            tau_min=np.full(act.joints, -act.torque_limit),
            tau_max=np.full(act.joints, act.torque_limit),
            gain=np.full(act.joints, act.gain),
        ),
    )


def check_logit_bound(engine: EngineConfig, certainty_w: np.ndarray) -> None:
    """Refuse a certainty head whose logits could overflow float32.

    With decay < 1 every accumulator stays below 1 / (1 - decay) in
    magnitude, so no logit exceeds logit_scale x the largest row sum of
    |W_c| / (1 - decay).  With decay = 1 there is no such bound.
    """
    if engine.decay == 1:
        return
    reach = float(np.max(np.sum(np.abs(certainty_w.astype(np.float64)), axis=1)))
    bound = abs(engine.logit_scale) * reach / (1.0 - engine.decay)
    if not bound < F32_MAX:
        raise ConfigError(
            f"ctm/certainty's largest row sum {reach:.6g} x engine.logit_scale "
            f"{engine.logit_scale!r} / (1 - engine.decay {engine.decay!r}) reaches the "
            f"float32 maximum, so the logits could overflow"
        )


def build_router_params(model: ModelParams, candidates: list[str], episode_seed: int) -> RouterParams:
    """The model's router bundle with this episode's candidate embeddings.

    Each embedding (16-wide by default) is seeded by its name and drawn in
    float32, then held in float64 so that no scoring casts it.
    """
    router = model.router
    seeds = [derive_seed(episode_seed, f"embed/{name}") for name in candidates]
    embedded = fan_in_matrix(seeds, 1, router.config.slot_embed_width).astype(np.float64)
    return replace(router, candidates=tuple(zip(candidates, embedded[:, 0])))
