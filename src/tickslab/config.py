"""Run configuration: one JSON document holding every tunable constant.

The dataclass defaults are the reference operating points (synchrony decay
0.999, logit scale 8.0, 4 logits, baseline threshold 0.75 with sensitivity
0.5, carry blend 0.9, 224-to-256 fusion, 32/8 affect stack); the audit test
pins them.  Everything else is a desk-scale default and fair game to tune.
Each section checks its values when built, so no invalid section can exist.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError
from .perception import WAVE_SAMPLES


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


def _at_least(low):
    return (lambda v: v >= low), f">= {low}"


def _between(low, high):
    return (lambda v: low <= v <= high), f"in [{low}, {high}]"


_POSITIVE = (lambda v: v > 0), "> 0"
_UNIT = _between(0, 1)


def _check_fields(section, prefix: str, **rules) -> None:
    """Check every field of a config section when it is built.

    Each value must have the JSON type of its default, and a float must be
    finite.  ``rules[name]`` is a ``(test, text)`` pair the value must also
    pass; an int without one must be at least 1 (the ints are sizes and
    counts).
    """
    for f in dataclasses.fields(section):
        name, value = f"{prefix}.{f.name}", getattr(section, f.name)
        _check_type(name, value, f.default)
        # false for NaN, the infinities and ints too large for a float
        if type(f.default) is float and not abs(value) <= sys.float_info.max:
            raise ConfigError(f"{name} must be finite, got {value!r}")
        rule = rules.get(f.name, _at_least(1) if type(f.default) is int else None)
        if rule is not None and not rule[0](value):
            raise ConfigError(f"{name} must be {rule[1]}, got {value!r}")


@dataclass(frozen=True)
class PerceptionConfig:
    vision_in: int = 768
    audio_in: int = 80                # spectrum bins of the audio frame
    proprio_in: int = 64
    vision_latent: int = 128
    audio_latent: int = 64
    proprio_latent: int = 32
    fusion_dim: int = 256

    def __post_init__(self):
        # the featurizer's audio window gives at most WAVE_SAMPLES // 2 bins
        _check_fields(self, "perception", audio_in=_between(1, WAVE_SAMPLES // 2))

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

    def __post_init__(self):
        pairs = ((lambda v: 1 <= v <= self.neurons**2), "in [1, neurons**2]")
        _check_fields(
            self, "engine", sync_pairs=pairs, logit_count=_at_least(2),
            decay=((lambda v: 0 < v <= 1), "in (0, 1]"), carry_beta=_UNIT, halt_cap=_UNIT,
        )

    @property
    def tick_budget(self) -> int:
        return self.ticks_per_slab * self.max_slabs


@dataclass(frozen=True)
class ConsensusConfig:
    branches: int = 4
    wait_policy: str = "off"          # "off" | "one"
    deadline_ticks: int = 32          # 4 slabs at the default tick count
    deadline_ms: float = 250.0
    live: bool = False

    def __post_init__(self):
        _check_fields(
            self, "consensus", deadline_ticks=_at_least(0), deadline_ms=_POSITIVE,
            wait_policy=((lambda v: v in ("off", "one")), '"off" or "one"'),
        )


@dataclass(frozen=True)
class AffectConfig:
    hidden: int = 32
    epsilon0: float = 0.75
    alpha: float = 0.5

    def __post_init__(self):
        _check_fields(self, "affect", epsilon0=_POSITIVE, alpha=_at_least(0))


@dataclass(frozen=True)
class RouterConfig:
    # Between typical mid-range confidences and the baseline halting
    # threshold, so both gate branches occur in practice.
    gamma: float = 0.70
    slot_embed_width: int = 16

    def __post_init__(self):
        _check_fields(self, "router", gamma=_UNIT)


@dataclass(frozen=True)
class ActuatorConfig:
    joints: int = 12
    torque_limit: float = 5.0
    gain: float = 1.0
    filter_window: int = 5
    samples_per_move: int = 10

    def __post_init__(self):
        _check_fields(self, "actuator", torque_limit=_POSITIVE, samples_per_move=_at_least(2))


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

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "Config":
        if not isinstance(doc, dict):
            raise ConfigError("config must be a JSON object")
        fields = {f.name: f for f in dataclasses.fields(cls)}
        kwargs = {}
        for key, value in doc.items():
            if key not in fields:
                raise ConfigError(f"unknown config key {key!r}")
            section = fields[key].default_factory
            if section is dataclasses.MISSING:  # seed, weights_path
                value = _check_type(key, value, fields[key].default)
            else:
                if not isinstance(value, dict):
                    raise ConfigError(f"section {key!r} must be an object")
                unknown = set(value) - {f.name for f in dataclasses.fields(section)}
                if unknown:
                    raise ConfigError(f"unknown keys in {key!r}: {sorted(unknown)}")
                value = section(**value)
            kwargs[key] = value
        return cls(**kwargs)

    @classmethod
    def load(cls, path: str | Path) -> "Config":
        try:
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
        except OSError as exc:
            raise ConfigError(f"cannot read {path}: {exc}") from exc
        except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, too deep
            raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
        return cls.from_dict(doc)

    def save(self, path: str | Path) -> None:
        Path(path).write_text(
            json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
