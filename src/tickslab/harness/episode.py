"""Episode control loop: perceive, think, gate, act, log.

Each decision step featurizes the goal and world into modality frames,
fuses them, reasons with k branches (readouts of one shared tick trajectory,
stopped by the wall clock as well in live mode), and merges their outcomes
(or takes the cached fallback when nothing converges in time).  The policy
gate sends low-confidence results back for more slabs until the slab budget
forces a dispatch.  The chosen tool call is serialized into an envelope, dispatched
over the transport, and applied to the world; the affect readout of the
final merged vector sets the halting threshold for the next step.

Hidden state, depth history, and synchrony accumulators persist across
decision steps (the thought is continuous); tick/slab counters and the
certainty trace reset per step so budgets are per-decision.
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass, field, fields, replace
from typing import Optional

from ..affect import affect_decode, modulate_epsilon
from ..config import Config
from ..consensus import (
    ConsensusResult,
    DecisionDeadline,
    WaitPolicy,
    decide_step,
    decide_step_live,
)
from ..engine import initial_state
from ..errors import ConfigError
from ..params import ModelParams, build_model, build_router_params
from ..perception import Modality, encode_modality, fuse
from ..router import EnvelopeSession, GateOutcome, policy_gate, select_action
from ..rng import derive_seed
from ..transport import LoopbackTransport, ToolServer, dispatch
from .featurize import featurize
from .tasks import TaskRecord
from .world import WorldSession, build_registry, world_from_task

logger = logging.getLogger("tickslab.episode")


class Policy(enum.Enum):
    CTM = "ctm"
    SCRIPTED_ORACLE = "oracle"


OUTCOME_SUCCESS = "success"
OUTCOME_BUDGET = "budget_exhausted"
OUTCOME_ERROR = "error"


# The JSON types a log field of each annotation may take.
_LOG_TYPES = {
    "int": (int,), "float": (int, float), "str": (str,), "bool": (bool,),
    "dict": (dict,), "list": (list,),
}


def _check_log_types(cls, doc) -> dict:
    """``doc`` if it is an object whose ``cls`` fields have their JSON types.

    Raises TypeError naming the first field that does not, and ValueError
    for an int outside [0, 2**63): ints are counts, and bounding them keeps
    every metric over them a finite float.  Missing and unknown fields are
    left to the constructor.
    """
    if not isinstance(doc, dict):
        raise TypeError(f"{cls.__name__} must be an object, got {type(doc).__name__}")
    for f in fields(cls):
        if f.name not in doc:
            continue
        value, kinds = doc[f.name], _LOG_TYPES[f.type]
        if not isinstance(value, kinds) or (isinstance(value, bool) and bool not in kinds):
            raise TypeError(f"{f.name} must be {f.type}, got {type(value).__name__}")
        if f.type == "int" and not 0 <= value < 2**63:
            raise ValueError(f"{f.name} must be in [0, 2**63), got {value}")
    return doc


@dataclass(frozen=True)
class StepRecord:
    step: int
    slab_count: int
    ticks: int
    c_merged: float
    epsilon: float
    action: str
    args: dict
    tool_status: str
    fallback: bool

    def to_dict(self) -> dict:
        return {
            "step": self.step,
            "slab_count": self.slab_count,
            "ticks": self.ticks,
            "c_merged": self.c_merged,
            "epsilon": self.epsilon,
            "action": self.action,
            "args": dict(self.args),
            "tool_status": self.tool_status,
            "fallback": self.fallback,
        }


@dataclass
class EpisodeLog:
    task_id: str
    records: list = field(default_factory=list)
    outcome: str = OUTCOME_ERROR
    steps_used: int = 0
    rethinks: int = 0
    forced_dispatches: int = 0

    def to_dict(self) -> dict:
        return {
            "task_id": self.task_id,
            "outcome": self.outcome,
            "steps_used": self.steps_used,
            "rethinks": self.rethinks,
            "forced_dispatches": self.forced_dispatches,
            "records": [r.to_dict() for r in self.records],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "EpisodeLog":
        _check_log_types(cls, doc)
        log = cls(
            task_id=doc["task_id"],
            outcome=doc["outcome"],
            steps_used=doc["steps_used"],
            rethinks=doc.get("rethinks", 0),
            forced_dispatches=doc.get("forced_dispatches", 0),
        )
        log.records = [StepRecord(**_check_log_types(StepRecord, r)) for r in doc["records"]]
        return log


def run_episode(
    task: TaskRecord,
    config: Config,
    policy: Policy,
    model: Optional[ModelParams] = None,
) -> EpisodeLog:
    """Run one task to success, budget exhaustion, or a logged error."""
    registry = build_registry()
    if model is None:
        model = build_model(config, len(registry), registry.max_slots)

    episode_seed = derive_seed(config.seed, f"episode/{task.id}")
    router_params = build_router_params(
        model, config, registry, list(task.context), episode_seed
    )
    session = WorldSession(world_from_task(task), model.actuator)
    transport = LoopbackTransport(ToolServer(registry, session.handler))
    envelopes = EnvelopeSession(task.id)

    ctm = model.ctm
    deadline = DecisionDeadline(
        logical_tick_limit=config.consensus.deadline_ticks,
        wall_clock_ms=config.consensus.deadline_ms,
    )
    wait_policy = WaitPolicy(config.consensus.wait_policy)
    decide = decide_step_live if config.consensus.live else decide_step

    log = EpisodeLog(task_id=task.id)
    seed_state = initial_state(ctm)
    epsilon = model.affect.config.epsilon0
    cache: Optional[ConsensusResult] = None
    script_index = 0

    try:
        for step in range(task.budget_steps):
            frames = featurize(task.goal, session.state, config.perception)
            latents = {
                m: encode_modality(frames[m], model.encoder)
                for m in (Modality.VISION, Modality.AUDIO, Modality.PROPRIO)
            }
            f = fuse(
                latents[Modality.VISION],
                latents[Modality.AUDIO],
                latents[Modality.PROPRIO],
                model.encoder,
            )

            # Per-step budget: counters and certainty trace restart; the
            # thought state itself carries over.
            seed_state = replace(seed_state, tick=0, slab=0, certainty_trace=())

            decision = None
            while True:
                decision = decide(
                    seed_state,
                    f,
                    ctm,
                    epsilon,
                    config.consensus.branches,
                    episode_seed,
                    cache,
                    wait_policy=wait_policy,
                    deadline=deadline,
                )
                if not decision.result.fallback:
                    cache = decision.result
                if decision.next_seed is not None:
                    seed_state = decision.next_seed
                gate = policy_gate(
                    decision.result.confidence_merged,
                    router_params.config.gamma,
                    decision.slab_count,
                    ctm.config.max_slabs,
                )
                if gate is GateOutcome.DISPATCH or decision.next_seed is None:
                    if decision.result.confidence_merged < router_params.config.gamma:
                        log.forced_dispatches += 1
                    break
                log.rethinks += 1

            result = decision.result
            if policy is Policy.SCRIPTED_ORACLE:
                if script_index < len(task.steps):
                    scripted = task.steps[script_index]
                    script_index += 1
                    tool, args = registry.get(scripted.tool), dict(scripted.args)
                else:
                    tool, args = registry.get("noop"), {}
            else:
                tool, args = select_action(result, router_params, registry)

            affect_vec = affect_decode(result.sync_merged, model.affect)
            next_epsilon = modulate_epsilon(affect_vec, model.affect)

            session.current_sync = result.sync_merged
            envelope = envelopes.build(
                tool,
                args,
                result,
                affect_vec,
                step=step,
                slab_count=decision.slab_count,
                ticks=decision.ticks,
            )
            tool_result = dispatch(envelope, transport)

            log.records.append(
                StepRecord(
                    step=step,
                    slab_count=decision.slab_count,
                    ticks=decision.ticks,
                    c_merged=float(result.confidence_merged),
                    epsilon=float(epsilon),
                    action=tool.name,
                    args=args,
                    tool_status=tool_result.status,
                    fallback=bool(result.fallback),
                )
            )
            log.steps_used = step + 1
            epsilon = next_epsilon

            if session.goal_reached():
                log.outcome = OUTCOME_SUCCESS
                return log
        log.outcome = OUTCOME_BUDGET
        return log
    except ConfigError:
        raise
    except Exception as exc:  # any step failure becomes a logged outcome
        logger.warning("episode %s aborted: %r", task.id, exc)
        log.outcome = OUTCOME_ERROR
        return log
