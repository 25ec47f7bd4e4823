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
import math
from dataclasses import dataclass, field
from pathlib import Path

from .envelope import AFFECT_DIMS
from .errors import ConfigError, SchemaViolation
from .perception import WAVE_SAMPLES
from .registry import MAX_JOINTS
from .schema import at_least, between, check_record, every_int, one_of, value_repr

_POSITIVE = (lambda v: v > 0), "> 0"
_UNIT = between(0, 1)

# The most weights a model may hold, 2**24 (128 MiB as float64, about 84
# times the defaults), and the most values a decision step's work arrays
# may hold; a config asking for more is refused before any array exists.
MAX_PARAMETERS = 2**24


def _check(cls, doc, path: str = "", **rules) -> None:
    """``check_record`` with its refusal re-raised as a ConfigError; a
    document that is not an object is named ``config``."""
    try:
        check_record(cls, doc, path, **rules)
    except SchemaViolation as exc:
        raise ConfigError(f"{exc.path or 'config'}: {exc.detail}") from exc


def _check_fields(section, prefix: str, **rules) -> None:
    """Check a config section's fields when it is built, as its JSON record
    under ``rules``; an int without a rule is a size or count, at least 1."""
    sizes = every_int(section, at_least(1))
    _check(type(section), vars(section), prefix + ".", **{**sizes, **rules})


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
        _check_fields(self, "perception", audio_in=between(1, WAVE_SAMPLES // 2))

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
            self, "engine", sync_pairs=pairs, logit_count=at_least(2),
            decay=((lambda v: 0 < v <= 1), "in (0, 1]"), carry_beta=_UNIT, halt_cap=_UNIT,
            plateau_epsilon=at_least(0),
        )


@dataclass(frozen=True)
class ConsensusConfig:
    branches: int = 4
    wait_policy: str = "off"          # "off" | "one"
    deadline_ticks: int = 32          # 4 slabs at the default tick count
    deadline_ms: float = 250.0
    live: bool = False

    def __post_init__(self):
        _check_fields(
            self, "consensus", deadline_ticks=at_least(0), deadline_ms=_POSITIVE,
            wait_policy=one_of("off", "one"),
        )


@dataclass(frozen=True)
class AffectConfig:
    hidden: int = 32
    epsilon0: float = 0.75
    alpha: float = 0.5

    def __post_init__(self):
        _check_fields(self, "affect", epsilon0=_POSITIVE, alpha=at_least(0))
        # every affect entry lies in (-1, 1), so the affect norm is below
        # sqrt(AFFECT_DIMS) and the threshold below this finite ceiling
        if not math.isfinite(self.epsilon0 * (1.0 + self.alpha * math.sqrt(AFFECT_DIMS))):
            raise ConfigError(
                f"affect.epsilon0 * (1 + affect.alpha * sqrt({AFFECT_DIMS})) must be finite, got "
                f"epsilon0={self.epsilon0!r}, alpha={self.alpha!r}"
            )


@dataclass(frozen=True)
class RouterConfig:
    # Between typical mid-range confidences and the baseline halting
    # threshold, so both rethinks and dispatches occur in practice.
    gamma: float = 0.70
    slot_embed_width: int = 16

    def __post_init__(self):
        _check_fields(self, "router", gamma=_UNIT)


@dataclass(frozen=True)
class ActuatorConfig:
    joints: int = 12
    torque_limit: float = 5.0
    gain: float = 1.0

    def __post_init__(self):
        _check_fields(self, "actuator", joints=between(1, MAX_JOINTS), torque_limit=_POSITIVE)


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

    def __post_init__(self):
        # Counted from the sizes alone: the weights at one tool and one slot
        # (the least the router heads hold), and the work arrays no weight sizes.
        e = self.engine
        weights = [(name, rows * cols, sizes) for name, rows, cols, sizes in self.tensor_shapes()]
        work = [
            ("the slab window", e.neurons * (e.history + e.ticks_per_slab),
             "engine.neurons x (engine.history + engine.ticks_per_slab)"),
            ("the branch readout stack", self.consensus.branches * e.sync_pairs,
             "consensus.branches x engine.sync_pairs"),
        ]
        for holder, unit, counts in (
            ("the model", "weights", weights), ("a decision step", "work values", work)
        ):
            total = sum(count for _, count, _ in counts)
            if total > MAX_PARAMETERS:
                name, count, sizes = max(counts, key=lambda t: t[1])
                raise ConfigError(
                    f"{holder} would hold {value_repr(total)} {unit}, more than {MAX_PARAMETERS}; "
                    f"{name} alone holds {value_repr(count)}, sized by {sizes}"
                )

    def tensor_shapes(self, tools: int = 1, slots: int = 1) -> list[tuple[str, int, int, str]]:
        """(name, rows, cols, sizing keys) of every weight tensor, in build order.

        The one list of the model's tensors: ``build_model`` draws each at
        this shape for ``tools`` registry tools and ``slots`` argument slots,
        and a weight override must use one of these names and shapes.
        """
        p, e, a, r, act = self.perception, self.engine, self.affect, self.router, self.actuator
        return [
            ("enc/vision", p.vision_latent, p.vision_in,
             "perception.vision_latent x perception.vision_in"),
            ("enc/audio", p.audio_latent, p.audio_in,
             "perception.audio_latent x perception.audio_in"),
            ("enc/proprio", p.proprio_latent, p.proprio_in,
             "perception.proprio_latent x perception.proprio_in"),
            ("enc/fusion", p.fusion_dim, p.concat_dim,
             "perception.fusion_dim x (perception.vision_latent + perception.audio_latent"
             " + perception.proprio_latent)"),
            ("ctm/synapse", e.neurons, e.neurons + p.fusion_dim,
             "engine.neurons x (engine.neurons + perception.fusion_dim)"),
            ("ctm/readout_a", e.history, e.rank, "engine.history x engine.rank"),
            ("ctm/readout_b", e.neurons, e.rank, "engine.neurons x engine.rank"),
            ("ctm/bias", 1, e.neurons, "engine.neurons"),
            ("ctm/certainty", e.logit_count, e.sync_pairs,
             "engine.logit_count x engine.sync_pairs"),
            ("affect/w1", a.hidden, e.sync_pairs, "affect.hidden x engine.sync_pairs"),
            ("affect/w2", AFFECT_DIMS, a.hidden, "affect.hidden"),
            ("router/action", tools, e.sync_pairs, "engine.sync_pairs"),
            ("router/slots", slots * r.slot_embed_width, e.sync_pairs,
             "router.slot_embed_width x engine.sync_pairs"),
            ("actuator/mapping", act.joints, e.sync_pairs, "actuator.joints x engine.sync_pairs"),
        ]

    @classmethod
    def from_dict(cls, doc: dict) -> "Config":
        _check(cls, doc)  # after which only a section holds an object
        built = {f.name: f.default_factory for f in dataclasses.fields(cls)}
        return cls(**{k: built[k](**v) if isinstance(v, dict) else v for k, v in doc.items()})

    @classmethod
    def load(cls, path: str | Path) -> "Config":
        try:
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
        except OSError as exc:
            raise ConfigError(f"cannot read {path}: {exc}") from exc
        except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, too deep
            raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
        return cls.from_dict(doc)
