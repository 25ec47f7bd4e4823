"""The decision step reads every weight through a float64 mirror built with
its bundle, so no step casts a weight."""

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from tickslab import numerics
from tickslab.config import Config
from tickslab.harness import episode
from tickslab.harness.tasks import load_tasks
from tickslab.harness.world import build_registry
from tickslab.params import build_model, build_router_params

TASKS50 = Path(__file__).parent / "fixtures" / "tasks50.jsonl"
REGISTRY = build_registry()
MODEL = build_model(Config(), len(REGISTRY), REGISTRY.max_slots)
ROUTER = build_router_params(MODEL, Config(), REGISTRY, ["cup", "sink"], episode_seed=7)
# (bundle, its mirrored arrays)
MIRRORED = [
    (MODEL.ctm, ("synapse_w", "factor_a", "factor_b", "bias", "certainty_w")),
    (MODEL.affect, ("w1", "w2")),
    (ROUTER, ("action_head", "slot_head")),
    (MODEL.actuator, ("mapping", "tau_min", "tau_max", "gain")),
    (MODEL.encoder, ("proprio", "fusion")),
]
IDS = [type(bundle).__name__ for bundle, _ in MIRRORED]


def assert_mirrors(bundle, names):
    for name in names:
        source, mirror = getattr(bundle, name), getattr(bundle, f"{name}64")
        assert mirror.dtype == np.float64
        assert mirror.tobytes() == source.astype(np.float64).tobytes()
        assert not source.flags.writeable and not mirror.flags.writeable


@pytest.mark.parametrize("bundle, names", MIRRORED, ids=IDS)
class TestMirrors:
    def test_bit_equal_and_read_only(self, bundle, names):
        assert_mirrors(bundle, names)
        for name in names:
            with pytest.raises(ValueError):
                getattr(bundle, name)[0] = 0.0
            with pytest.raises(ValueError):
                getattr(bundle, f"{name}64")[0] = 0.0

    def test_replace_rebuilds_them(self, bundle, names):
        for name in names:
            changed = replace(bundle, **{name: getattr(bundle, name) * 0.5})
            assert_mirrors(changed, names)
            assert not np.array_equal(getattr(changed, f"{name}64"), getattr(bundle, f"{name}64"))


def test_candidate_embeddings_are_float64():
    assert [emb.dtype for _, emb in ROUTER.candidates] == [np.float64, np.float64]


@pytest.mark.parametrize("policy, task_index", [
    (episode.Policy.CTM, 16),            # dispatches navigate and actuate
    (episode.Policy.SCRIPTED_ORACLE, 0),
])
def test_step_path_casts_no_weight(monkeypatch, policy, task_index):
    """Every ``matvec`` weight is float64, except the goal encoders' (run
    once per episode), and the log equals an unguarded run's."""
    task = load_tasks(TASKS50)[task_index]
    expected = episode.run_episode(task, Config(), policy, MODEL).to_dict()
    goal_encoders = (MODEL.encoder.vision, MODEL.encoder.audio)
    cast, read = [], set()

    def guarded(weights, vec):
        if weights.dtype != np.float64 and not any(weights is w for w in goal_encoders):
            cast.append(weights.shape)
        read.add(weights.shape)
        return numerics.matvec(weights, vec)

    for module in list(sys.modules.values()):
        if getattr(module, "matvec", None) is numerics.matvec and module is not numerics:
            monkeypatch.setattr(module, "matvec", guarded)
    # a raise inside the episode would become a logged error, so collect instead
    log = episode.run_episode(task, Config(), policy, MODEL).to_dict()
    assert cast == []
    assert log == expected and log["outcome"] != episode.OUTCOME_ERROR
    heads = {MODEL.ctm.certainty_w.shape, MODEL.affect.w1.shape, MODEL.affect.w2.shape,
             MODEL.encoder.proprio.shape, MODEL.encoder.fusion.shape}
    if policy is episode.Policy.CTM:
        heads |= {ROUTER.action_head.shape, ROUTER.slot_head.shape, MODEL.actuator.mapping.shape}
    assert heads <= read
