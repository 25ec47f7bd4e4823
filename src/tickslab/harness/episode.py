"""Episode control loop: perceive, think, decide, act, log.

An episode runs on the model its caller built from the config.  The
router's candidates, the branch permutations and the goal's frames and
latents depend on the episode alone, so they are built before the first
step.  Each decision step featurizes the world into the proprio frame,
fuses its latent with the goal's into a fusion vector and a ``SlabMemo``
of it (an unchanged frame reuses both), reasons with k branches (readouts
of one shared tick trajectory, stopped by the wall clock as well in live
mode), and merges their outcomes (or takes the cached fallback when
nothing converges in time).  A result below the router's gamma goes back
for more slabs (a rethink) until a round in which no branch halts or the
slab budget forces a dispatch.  The chosen tool call is serialized into an
envelope frame, answered by the episode's in-process tool server, and
applied to the world; the affect readout of the final merged vector sets
the halting threshold for the next step.  An actuate call carries the duty
cycles planned here from the merged vector, so the tool server holds no
model state.

Hidden state, depth history, and synchrony accumulators persist across
decision steps (the thought is continuous); the slab counter and the
certainty trace reset per step so budgets are per-decision, and a step's
ticks are its slabs x ``ticks_per_slab``.  A ``NonFiniteState`` is not an
episode outcome: it ends the run.
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass, fields
from typing import Optional

from ..actuator import ActuatorParams, plan_torque, torque_to_pwm
from ..affect import affect_decode, modulate_epsilon
from ..config import Config
from ..consensus import ConsensusResult, SlabMemo, branch_permutations, decide_step
from ..engine import BranchState, initial_state
from ..errors import NonFiniteState, SchemaViolation
from ..params import ModelParams, build_router_params
from ..perception import encode_modality, fuse
from ..registry import NOOP_TOOL, SlotKind, ToolSpec
from ..router import EnvelopeSession, select_action
from ..rng import derive_seed
from ..schema import check_record
from ..transport import STATUS_ERROR, STATUS_OK, ToolServer, dispatch
from .featurize import featurize, goal_frames
from .tasks import TaskRecord
from .world import WorldSession, build_registry, goal_holds, world_from_task

logger = logging.getLogger("tickslab.episode")

# No program code calls this alias: perfbench/worker.py wraps it by name.
# Delete it once perfbench stops wrapping names (ROADMAP items 1 and 2c).
decide_step_live = decide_step


class Policy(enum.Enum):
    CTM = "ctm"
    SCRIPTED_ORACLE = "oracle"


OUTCOME_SUCCESS = "success"
OUTCOME_BUDGET = "budget_exhausted"
OUTCOME_ERROR = "error"


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


@dataclass
class EpisodeLog:
    task_id: str
    records: list
    outcome: str
    steps_used: int
    rethinks: int = 0
    forced_dispatches: int = 0

    def to_dict(self) -> dict:
        return {**vars(self), "records": [dict(vars(r)) for r in self.records]}

    @classmethod
    def from_dict(cls, doc: dict) -> "EpisodeLog":
        """The log in ``doc``; a field that does not fit, or one that
        ``run_episode`` cannot write, raises SchemaViolation."""
        records = [
            StepRecord(**_checked(StepRecord, r, f"records[{i}]."))
            for i, r in enumerate(_checked(cls, doc)["records"])
        ]
        _one_of("outcome", doc["outcome"], (OUTCOME_SUCCESS, OUTCOME_BUDGET, OUTCOME_ERROR))
        for i, record in enumerate(records):
            _one_of(f"records[{i}].tool_status", record.tool_status, (STATUS_OK, STATUS_ERROR))
        # run_episode counts a step once its record is appended, abort or not
        if doc["steps_used"] != len(records):
            raise SchemaViolation(
                "steps_used", f"must equal the {len(records)} records, got {doc['steps_used']}"
            )
        return cls(**{**doc, "records": records})


def _checked(cls, doc, path: str = "") -> dict:
    """``doc`` if it fits record ``cls`` and its ints are in [0, 2**63); an
    error names the field after ``path``.

    The type rule already keeps every float finite.  Ints are counts, and
    bounding them keeps every metric over them a finite float.
    """
    check_record(cls, doc, path)
    for f in fields(cls):
        if f.type == "int" and f.name in doc and not 0 <= doc[f.name] < 2**63:
            raise SchemaViolation(f"{path}{f.name}", f"must be in [0, 2**63), got {doc[f.name]}")
    return doc


def _one_of(name: str, value: str, allowed: tuple) -> None:
    if value not in allowed:
        raise SchemaViolation(name, f"must be one of {', '.join(allowed)}, got {value!r}")


def call_args(tool: ToolSpec, args: dict, sync, actuator: ActuatorParams) -> dict:
    """``args`` plus ``tool``'s duty slot, planned from ``sync`` and rounded to 6
    digits; ``torque_to_pwm`` clamps every duty cycle into [0, 1]."""
    for slot, kind in tool.arg_slots:
        if kind is SlotKind.DUTY:
            duty = torque_to_pwm(plan_torque(sync, actuator), actuator).tolist()
            args = {**args, slot: [round(d, 6) for d in duty]}
    return args


def run_episode(
    task: TaskRecord,
    config: Config,
    policy: Policy,
    model: ModelParams,
) -> EpisodeLog:
    """Run one task on ``model``, built from ``config``, to success, budget
    exhaustion, or a logged error."""
    registry = build_registry()
    episode_seed = derive_seed(config.seed, f"episode/{task.id}")
    router_params = build_router_params(model, list(task.context), episode_seed)
    session = WorldSession(world_from_task(task))
    server = ToolServer(registry, session.handler)
    envelopes = EnvelopeSession(task.id)

    ctm = model.ctm
    gamma, max_slabs = router_params.config.gamma, ctm.config.max_slabs
    perms = branch_permutations(episode_seed, ctm.config.sync_pairs, config.consensus.branches)

    log = EpisodeLog(task_id=task.id, records=[], outcome=OUTCOME_ERROR, steps_used=0)
    seed_state = initial_state(ctm)
    epsilon = model.affect.config.epsilon0
    cache: Optional[ConsensusResult] = None
    frame = None

    try:
        enc = model.encoder
        vision, audio = goal_frames(task.goal, config.perception)
        goal_latents = (encode_modality(vision, enc.vision), encode_modality(audio, enc.audio))
        for step in range(task.budget_steps):
            proprio = featurize(session.state, config.perception)
            if proprio.tobytes() != frame:
                frame = proprio.tobytes()
                f = fuse(*goal_latents, encode_modality(proprio, enc.proprio), enc)
                slabs = SlabMemo(f, ctm)

            # Per-step budget: counters and certainty trace restart; the
            # thought state itself carries over.
            seed_state = BranchState(seed_state.z, seed_state.history, seed_state.sync)

            # Dispatch when confident, when no branch halted, or at the slab budget;
            # a dispatch below gamma is forced (the merged confidence is always finite).
            while True:
                result, next_seed = decide_step(
                    seed_state, slabs, epsilon, perms, cache, config.consensus
                )
                if not result.fallback:
                    cache = result
                if next_seed is not None:
                    seed_state = next_seed
                confidence = result.confidence_merged
                if confidence >= gamma or next_seed is None or seed_state.slab >= max_slabs:
                    if confidence < gamma:
                        log.forced_dispatches += 1
                    break
                log.rethinks += 1

            ticks = seed_state.slab * ctm.config.ticks_per_slab
            if policy is Policy.SCRIPTED_ORACLE:
                if step < len(task.steps):
                    scripted = task.steps[step]
                    tool, args = registry.get(scripted.tool), dict(scripted.args)
                else:
                    tool, args = registry.get(NOOP_TOOL), {}
            else:
                tool, args = select_action(result, router_params, registry)

            affect_vec = affect_decode(result.sync_merged, model.affect)
            next_epsilon = modulate_epsilon(affect_vec, model.affect)

            envelope = envelopes.build(
                tool,
                call_args(tool, args, result.sync_merged, model.actuator),
                result,
                affect_vec,
                step=step,
                slab_count=seed_state.slab,
                ticks=ticks,
            )
            tool_result = dispatch(envelope, server.handle_frame)

            log.records.append(
                StepRecord(
                    step=step,
                    slab_count=seed_state.slab,
                    ticks=ticks,
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

            if goal_holds(session.state, task.steps[-1].expected):
                log.outcome = OUTCOME_SUCCESS
                return log
        log.outcome = OUTCOME_BUDGET
        return log
    except NonFiniteState as exc:
        raise NonFiniteState(f"episode {task.id}: {exc}") from exc
    except Exception as exc:  # any other step failure becomes a logged outcome
        logger.warning("episode %s aborted: %r", task.id, exc)
        log.outcome = OUTCOME_ERROR
        return log
