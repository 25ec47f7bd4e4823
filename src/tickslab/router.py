"""Tool decision layer: action/argument heads and envelopes.

The episode loop decides when a consensus result is committed to a tool
call (see ``harness.episode``); this module picks the call.  Tool choice
is the argmax of a linear head over the merged sync vector; each
object-reference slot is filled by the candidate whose embedding best
matches that slot's projection of the sync vector.  Ties break toward the
lowest index, fallback results always route to the noop tool, and scaling
the sync vector by any positive factor changes nothing (argmax of a linear
score).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import RouterConfig
from .consensus import ConsensusResult
from .envelope import METHOD_PREFIX, Envelope, EnvelopeMeta, sync_digest
from .errors import NoCandidates
from .numerics import hold_float64, matvec
from .registry import NOOP_TOOL, SlotKind, ToolRegistry, ToolSpec


@dataclass(frozen=True)
class RouterParams:
    action_head: np.ndarray            # (len(registry), sync_pairs)
    slot_head: np.ndarray              # (max_slots * slot_embed_width, sync_pairs)
    candidates: tuple = ()             # ordered (name, float64 embedding) pairs
    config: RouterConfig = field(default_factory=RouterConfig)

    def __post_init__(self):
        hold_float64(self, "action_head", "slot_head")


def _fill_slot(slot_index: int, sync: np.ndarray, params: RouterParams) -> str:
    """The candidate that best matches object-ref slot ``slot_index``'s
    projection of ``sync``; one ``matvec`` scores them all, not BLAS's ``np.dot``."""
    width = params.config.slot_embed_width
    rows = params.slot_head[slot_index * width : (slot_index + 1) * width]
    projection = matvec(rows, sync)
    if not params.candidates:
        raise NoCandidates(f"object_ref slot {slot_index} has no candidates")
    scores = matvec(np.array([emb for _, emb in params.candidates]), projection)
    return params.candidates[int(np.argmax(scores))][0]


def select_action(
    result: ConsensusResult, params: RouterParams, registry: ToolRegistry
) -> tuple[ToolSpec, dict]:
    """Pick a tool and fill its object-ref slots from the merged sync vector;
    a duty slot is left to the controller.

    Fallback results always select noop with no arguments.  Ties break
    toward the lowest tool/candidate index.
    """
    if result.fallback:
        return registry.get(NOOP_TOOL), {}
    scores = matvec(params.action_head, result.sync_merged)
    spec = registry.specs[int(np.argmax(scores))]
    args = {
        slot_name: _fill_slot(i, result.sync_merged, params)
        for i, (slot_name, kind) in enumerate(spec.arg_slots)
        if kind is SlotKind.OBJECT_REF
    }
    return spec, args


@dataclass(frozen=True)
class EnvelopeSession:
    """Builds one episode's envelopes; step ``s``'s call has id ``s + 1``."""

    episode: str

    def build(
        self,
        tool: ToolSpec,
        args: dict,
        result: ConsensusResult,
        affect: np.ndarray,
        step: int,
        slab_count: int,
        ticks: int,
    ) -> Envelope:
        return Envelope(
            id=step + 1,
            method=METHOD_PREFIX + tool.name,
            args=dict(args),
            meta=EnvelopeMeta(
                episode=self.episode,
                step=step,
                slab_count=slab_count,
                ticks=ticks,
                confidence=float(result.confidence_merged),
                affect=tuple(affect.tolist()),
                sync_digest=sync_digest(result.sync_merged),
                fallback=bool(result.fallback),
            ),
        )
