"""Run configuration: one JSON document holding every tunable constant.

The dataclass defaults are the reference operating points (synchrony decay
0.999, logit scale 8.0, 4 logits, baseline threshold 0.75 with sensitivity
0.5, carry blend 0.9, 224-to-256 fusion, 32/8 affect stack); the audit test
pins them.  Everything else is a desk-scale default and fair game to tune.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError


def _check_type(name: str, value, default):
    """``value`` if it has the JSON type of ``default``, else a ConfigError.

    Python counts a bool as an int, so bools are told apart here: a bool
    field takes only a bool, an int field an int, a float field an int or
    a float, and a str field a str.
    """
    kind = type(default)
    if kind is bool:
        ok = isinstance(value, bool)
    elif kind is float:
        ok = isinstance(value, (int, float)) and not isinstance(value, bool)
    else:
        ok = isinstance(value, kind) and not isinstance(value, bool)
    if not ok:
        raise ConfigError(f"{name} must be {kind.__name__}, got {type(value).__name__}")
    return value


@dataclass(frozen=True)
class PerceptionConfig:
    vision_in: int = 768
    audio_in: int = 80
    proprio_in: int = 64
    vision_latent: int = 128
    audio_latent: int = 64
    proprio_latent: int = 32
    fusion_dim: int = 256
    spectrum_bins: int = 80

    @property
    def concat_dim(self) -> int:
        return self.vision_latent + self.audio_latent + self.proprio_latent


@dataclass(frozen=True)
class EngineConfig:
    neurons: int = 64
    history: int = 8
    rank: int = 4
    sync_pairs: int = 256
    ticks_per_slab: int = 8
    max_slabs: int = 16
    decay: float = 0.999
    logit_scale: float = 8.0
    logit_count: int = 4
    carry_beta: float = 0.9
    halt_cap: float = 0.995
    plateau_window: int = 3
    plateau_epsilon: float = 1e-3


@dataclass(frozen=True)
class ConsensusConfig:
    branches: int = 4
    wait_policy: str = "off"          # "off" | "one"
    deadline_ticks: int = 32          # 4 slabs at the default tick count
    deadline_ms: float = 250.0
    live: bool = False


@dataclass(frozen=True)
class AffectConfig:
    hidden: int = 32
    dims: int = 8
    epsilon0: float = 0.75
    alpha: float = 0.5


@dataclass(frozen=True)
class RouterConfig:
    # Between typical mid-range confidences and the baseline halting
    # threshold, so both gate branches occur in practice.
    gamma: float = 0.70
    slot_embed_width: int = 16


@dataclass(frozen=True)
class ActuatorConfig:
    joints: int = 12
    torque_limit: float = 5.0
    gain: float = 1.0
    filter_window: int = 5
    samples_per_move: int = 10


@dataclass(frozen=True)
class Config:
    seed: int = 0
    weights_path: str = ""            # optional weight-container override
    perception: PerceptionConfig = field(default_factory=PerceptionConfig)
    engine: EngineConfig = field(default_factory=EngineConfig)
    consensus: ConsensusConfig = field(default_factory=ConsensusConfig)
    affect: AffectConfig = field(default_factory=AffectConfig)
    router: RouterConfig = field(default_factory=RouterConfig)
    actuator: ActuatorConfig = field(default_factory=ActuatorConfig)

    def validate(self) -> None:
        if self.perception.concat_dim <= 0:
            raise ConfigError("latent dims must be positive")
        if self.engine.sync_pairs > self.engine.neurons**2:
            raise ConfigError("more sync pairs than ordered neuron pairs")
        if not 0.0 < self.engine.decay <= 1.0:
            raise ConfigError("decay must be in (0, 1]")
        if self.engine.logit_count < 2:
            raise ConfigError("need at least 2 logits")
        if self.consensus.branches < 1:
            raise ConfigError("need at least one branch")
        if self.consensus.wait_policy not in ("off", "one"):
            raise ConfigError(f"unknown wait policy {self.consensus.wait_policy!r}")
        if self.affect.epsilon0 <= 0 or self.affect.alpha < 0:
            raise ConfigError("epsilon0 must be positive and alpha non-negative")
        if self.affect.dims != 8:
            raise ConfigError("the envelope wire format carries exactly 8 affect reals")
        if self.perception.audio_in != self.perception.spectrum_bins:
            raise ConfigError("audio frame width must equal the spectrum bin count")
        if not 0.0 <= self.router.gamma <= 1.0:
            raise ConfigError("gamma must be in [0, 1]")
        if self.actuator.torque_limit <= 0:
            raise ConfigError("torque limit must be positive")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "Config":
        if not isinstance(doc, dict):
            raise ConfigError("config must be a JSON object")
        sections = {
            "perception": PerceptionConfig,
            "engine": EngineConfig,
            "consensus": ConsensusConfig,
            "affect": AffectConfig,
            "router": RouterConfig,
            "actuator": ActuatorConfig,
        }
        kwargs = {}
        for key, value in doc.items():
            if key in sections:
                if not isinstance(value, dict):
                    raise ConfigError(f"section {key!r} must be an object")
                known = {f.name for f in dataclasses.fields(sections[key])}
                unknown = set(value) - known
                if unknown:
                    raise ConfigError(f"unknown keys in {key!r}: {sorted(unknown)}")
                for name, item in value.items():
                    _check_type(f"{key}.{name}", item, getattr(sections[key], name))
                kwargs[key] = sections[key](**value)
            elif key in ("seed", "weights_path"):
                kwargs[key] = _check_type(key, value, getattr(cls, key))
            else:
                raise ConfigError(f"unknown config key {key!r}")
        config = cls(**kwargs)
        config.validate()
        return config

    @classmethod
    def load(cls, path: str | Path) -> "Config":
        try:
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
        except OSError as exc:
            raise ConfigError(f"cannot read {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
        return cls.from_dict(doc)

    def save(self, path: str | Path) -> None:
        Path(path).write_text(
            json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
