import numpy as np
import pytest

from tickslab.config import RouterConfig
from tickslab.consensus import ConsensusResult
from tickslab.errors import NoCandidates
from tickslab.registry import SlotKind, ToolRegistry, ToolSpec
from tickslab.router import EnvelopeSession, RouterParams, select_action
from tickslab.rng import fan_in_matrix

PAIRS = 12
WIDTH = 4


def make_registry():
    return ToolRegistry(
        [
            ToolSpec("noop", (), "nothing"),
            ToolSpec("grab", (("object", SlotKind.OBJECT_REF),), "grab"),
            ToolSpec("tune", (("level", SlotKind.DUTY),), "tune"),
        ]
    )


def make_router(seed=0, candidates=("cup", "plate", "book"), registry=None):
    registry = registry or make_registry()
    rng = np.random.default_rng(seed)
    embeds = tuple(
        (name, rng.normal(size=WIDTH).astype(np.float32)) for name in candidates
    )
    return RouterParams(
        action_head=fan_in_matrix(seed + 1, len(registry), PAIRS),
        slot_head=fan_in_matrix(seed + 2, registry.max_slots * WIDTH, PAIRS),
        candidates=embeds,
        config=RouterConfig(gamma=0.70, slot_embed_width=WIDTH),
    ), registry


def consensus(sync, confidence=0.9, fallback=False):
    return ConsensusResult(
        sync_merged=np.asarray(sync, dtype=np.float32),
        confidence_merged=confidence,
        contributors=(0,),
        fallback=fallback,
    )


class TestSelectAction:
    def test_fallback_selects_noop(self):
        params, registry = make_router()
        spec, args = select_action(
            consensus(np.ones(PAIRS), confidence=0.99, fallback=True), params, registry
        )
        assert spec.name == "noop"
        assert args == {}

    def test_argmax_picks_best_scoring_tool(self):
        _, registry = make_router()
        head = np.zeros((3, PAIRS), dtype=np.float32)
        head[1, 0] = 0.9
        head[0, 0] = 0.4
        params = RouterParams(
            action_head=head,
            slot_head=np.zeros((WIDTH, PAIRS), dtype=np.float32),
            candidates=(("cup", np.ones(WIDTH, dtype=np.float32)),),
            config=RouterConfig(gamma=0.70, slot_embed_width=WIDTH),
        )
        sync = np.zeros(PAIRS, dtype=np.float32)
        sync[0] = 1.0
        spec, _ = select_action(consensus(sync), params, registry)
        assert spec.name == "grab"

    def test_tied_scores_take_lowest_index(self):
        _, registry = make_router()
        head = np.zeros((3, PAIRS), dtype=np.float32)
        head[0, 0] = 0.5
        head[1, 0] = 0.5
        params = RouterParams(
            action_head=head,
            slot_head=np.zeros((WIDTH, PAIRS), dtype=np.float32),
            candidates=(("cup", np.ones(WIDTH, dtype=np.float32)),),
            config=RouterConfig(gamma=0.70, slot_embed_width=WIDTH),
        )
        sync = np.zeros(PAIRS, dtype=np.float32)
        sync[0] = 1.0
        spec, _ = select_action(consensus(sync), params, registry)
        assert spec.name == "noop"

    def test_matches_exhaustive_scoring_oracle(self):
        # Brute-force oracle over all tools and candidates, ties by index.
        for seed in range(30):
            params, registry = make_router(seed=seed)
            rng = np.random.default_rng(seed + 1000)
            sync = rng.normal(size=PAIRS).astype(np.float32)
            spec, args = select_action(consensus(sync), params, registry)

            scores = params.action_head.astype(np.float64) @ sync.astype(np.float64)
            best = max(range(len(registry)), key=lambda i: (scores[i], -i))
            want_spec = registry.specs[best]
            assert spec.name == want_spec.name
            refs = [name for name, kind in want_spec.arg_slots if kind is SlotKind.OBJECT_REF]
            assert list(args) == refs

            for idx, (slot_name, kind) in enumerate(want_spec.arg_slots):
                if kind is not SlotKind.OBJECT_REF:
                    continue
                rows = params.slot_head[idx * WIDTH : (idx + 1) * WIDTH]
                proj = rows.astype(np.float64) @ sync.astype(np.float64)
                cand_scores = [
                    float(emb.astype(np.float64) @ proj) for _, emb in params.candidates
                ]
                pick = max(
                    range(len(cand_scores)), key=lambda i: (cand_scores[i], -i)
                )
                assert args[slot_name] == params.candidates[pick][0]

    def test_scale_invariance(self):
        for seed in range(20):
            params, registry = make_router(seed=seed)
            rng = np.random.default_rng(seed)
            sync = rng.normal(size=PAIRS).astype(np.float32)
            base_spec, base_args = select_action(consensus(sync), params, registry)
            # power-of-two scales are exact in float32, so the linear-score
            # argmax must be bitwise unchanged
            for lam in (0.25, 4.0, 1024.0):
                spec, args = select_action(consensus(sync * lam), params, registry)
                assert spec.name == base_spec.name
                assert args == base_args

    def test_no_candidates(self):
        params, registry = make_router(candidates=())
        head = np.zeros((3, PAIRS), dtype=np.float32)
        head[1, 0] = 1.0
        params = RouterParams(
            action_head=head,
            slot_head=params.slot_head,
            candidates=(),
            config=params.config,
        )
        sync = np.zeros(PAIRS, dtype=np.float32)
        sync[0] = 1.0
        with pytest.raises(NoCandidates):
            select_action(consensus(sync), params, registry)

    def test_duty_slot_left_to_the_controller(self):
        params, registry = make_router()
        # force the duty-slot tool
        head = np.zeros((3, PAIRS), dtype=np.float32)
        head[2, 0] = 1.0
        params = RouterParams(
            action_head=head,
            slot_head=params.slot_head,
            candidates=params.candidates,
            config=params.config,
        )
        sync = np.arange(1, PAIRS + 1, dtype=np.float32)
        spec, args = select_action(consensus(sync), params, registry)
        assert spec.name == "tune"
        assert args == {}


class TestRegistry:
    def test_noop_always_present(self):
        registry = ToolRegistry([ToolSpec("grab", (("object", SlotKind.OBJECT_REF),))])
        assert "noop" in registry
        assert registry.specs[0].name == "noop"


class TestEnvelopeSession:
    def test_ids_strictly_increase(self):
        params, registry = make_router()
        session = EnvelopeSession("ep-1")
        result = consensus(np.ones(PAIRS))
        affect = np.zeros(8, dtype=np.float32)
        ids = [
            session.build(registry.get("noop"), {}, result, affect, step, 1, 8).id
            for step in range(10)
        ]
        assert ids == list(range(1, 11))
