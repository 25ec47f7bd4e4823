"""Tool decision layer: confidence gate, action/argument heads, envelopes.

A consensus result either goes back for another thought round (Rethink) or
is committed to a tool call (Dispatch).  Tool choice is the argmax of a
linear head over the merged sync vector; each object-reference slot is
filled by the candidate whose embedding best matches that slot's projection
of the sync vector.  Ties break toward the lowest index, fallback results
always route to the noop tool, and scaling the sync vector by any positive
factor changes nothing (argmax of a linear score).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .config import RouterConfig
from .consensus import ConsensusResult
from .envelope import METHOD_PREFIX, Envelope, EnvelopeMeta, sync_digest
from .errors import NoCandidates
from .numerics import matvec
from .registry import NOOP_TOOL, SlotKind, ToolRegistry, ToolSpec


@dataclass(frozen=True)
class RouterParams:
    action_head: np.ndarray            # (len(registry), sync_pairs)
    slot_head: np.ndarray              # (max_slots * slot_embed_width, sync_pairs)
    candidates: tuple                  # ordered (name, embedding) pairs
    config: RouterConfig = field(default_factory=RouterConfig)


class GateOutcome(enum.Enum):
    RETHINK = "rethink"
    DISPATCH = "dispatch"


def policy_gate(
    c_merged: float, gamma: float, slabs_used: int, max_slabs: int
) -> GateOutcome:
    """Dispatch when confident enough or out of slab budget (no livelock)."""
    if c_merged >= gamma or slabs_used >= max_slabs:
        return GateOutcome.DISPATCH
    return GateOutcome.RETHINK


def _fill_slot(
    slot_index: int, kind: SlotKind, sync: np.ndarray, params: RouterParams
):
    width = params.config.slot_embed_width
    rows = params.slot_head[slot_index * width : (slot_index + 1) * width]
    projection = matvec(rows, sync)
    if kind is SlotKind.OBJECT_REF:
        if not params.candidates:
            raise NoCandidates(f"object_ref slot {slot_index} has no candidates")
        scores = [
            float(np.dot(emb.astype(np.float64), projection))
            for _, emb in params.candidates
        ]
        return params.candidates[int(np.argmax(scores))][0]
    # Scalar slots get the cosine of the projection against the all-ones
    # direction: deterministic and invariant to positive scaling of sync.
    norm = float(np.linalg.norm(projection))
    if norm == 0.0:
        return 0.0
    return float(np.sum(projection) / (norm * np.sqrt(width)))


def select_action(
    result: ConsensusResult, params: RouterParams, registry: ToolRegistry
) -> tuple[ToolSpec, dict]:
    """Pick a tool and fill its slots from the merged sync vector.

    Fallback results always select noop with no arguments.  Ties break
    toward the lowest tool/candidate index.
    """
    if len(registry) == 0:
        raise ValueError("registry is empty")
    if result.fallback:
        return registry.get(NOOP_TOOL), {}
    scores = matvec(params.action_head, result.sync_merged)
    spec = registry.specs[int(np.argmax(scores))]
    args = {
        slot_name: _fill_slot(i, kind, result.sync_merged, params)
        for i, (slot_name, kind) in enumerate(spec.arg_slots)
    }
    return spec, args


@dataclass
class EnvelopeSession:
    """Hands out envelopes with strictly increasing ids within a session."""

    episode: str
    _next_id: int = field(default=1, init=False)

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
        envelope = Envelope(
            id=self._next_id,
            method=METHOD_PREFIX + tool.name,
            args=dict(args),
            meta=EnvelopeMeta(
                episode=self.episode,
                step=step,
                slab_count=slab_count,
                ticks=ticks,
                confidence=float(result.confidence_merged),
                affect=tuple(float(a) for a in affect),
                sync_digest=sync_digest(result.sync_merged),
                fallback=bool(result.fallback),
            ),
        )
        self._next_id += 1
        return envelope
