"""Every weight is held once, by its bundle, as a read-only float64 array of
float32 values, so no decision step casts a weight."""

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import model_tensors
from tickslab import numerics
from tickslab.config import Config
from tickslab.harness import episode
from tickslab.harness.tasks import load_tasks
from tickslab.harness.world import build_registry
from tickslab.params import build_model, build_router_params

TASKS50 = Path(__file__).parent / "fixtures" / "tasks50.jsonl"
REGISTRY = build_registry()
MODEL = build_model(Config(), len(REGISTRY), REGISTRY.max_slots)
ROUTER = build_router_params(MODEL, ["cup", "sink"], episode_seed=7)
# (bundle, its weight arrays)
HELD = [
    (MODEL.ctm, ("synapse_w", "factor_a", "factor_b", "bias", "certainty_w")),
    (MODEL.affect, ("w1", "w2")),
    (ROUTER, ("action_head", "slot_head")),
    (MODEL.actuator, ("mapping", "tau_min", "tau_max", "gain")),
    (MODEL.encoder, ("vision", "audio", "proprio", "fusion")),
    (MODEL.router, ("action_head", "slot_head")),
]
# the model's own router bundle keeps the id its heads had on ModelParams
IDS = [type(bundle).__name__ for bundle, _ in HELD[:-1]] + ["ModelParams"]


def assert_held_once(bundle, names):
    for name in names:
        weights = getattr(bundle, name)
        assert weights.dtype == np.float64
        assert not weights.flags.writeable
        assert f"{name}64" not in vars(bundle)


@pytest.mark.parametrize("bundle, names", HELD, ids=IDS)
class TestHeldOnce:
    def test_float64_and_read_only(self, bundle, names):
        assert_held_once(bundle, names)
        for name in names:
            with pytest.raises(ValueError):
                getattr(bundle, name)[0] = 0.0

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_replace_redoes_both(self, bundle, names, dtype):
        for name in names:
            halved = (getattr(bundle, name) * 0.5).astype(dtype)
            changed = replace(bundle, **{name: halved})
            assert_held_once(changed, names)
            assert getattr(changed, name).tobytes() == halved.astype(np.float64).tobytes()


def test_every_tensor_is_its_float32_rounding():
    # the actuator's bounds and gain come from config floats, not the table
    tensors = model_tensors(MODEL)
    assert set(tensors) == {name for name, *_ in Config().tensor_shapes()}
    for weights in tensors.values():
        assert weights.astype(np.float32).astype(np.float64).tobytes() == weights.tobytes()


def test_candidate_embeddings_are_float64():
    assert [emb.dtype for _, emb in ROUTER.candidates] == [np.float64, np.float64]


@pytest.mark.parametrize("policy, task_index", [
    (episode.Policy.CTM, 16),            # dispatches navigate and actuate
    (episode.Policy.SCRIPTED_ORACLE, 0),
])
def test_step_path_casts_no_weight(monkeypatch, policy, task_index):
    """Every ``matvec`` weight is float64, and the log equals an unguarded run's."""
    task = load_tasks(TASKS50)[task_index]
    expected = episode.run_episode(task, Config(), policy, MODEL).to_dict()
    cast, read = [], set()

    def guarded(weights, vec):
        if weights.dtype != np.float64:
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
             MODEL.encoder.vision.shape, MODEL.encoder.audio.shape,
             MODEL.encoder.proprio.shape, MODEL.encoder.fusion.shape}
    if policy is episode.Policy.CTM:
        heads |= {ROUTER.action_head.shape, ROUTER.slot_head.shape, MODEL.actuator.mapping.shape}
    assert heads <= read


@pytest.mark.parametrize("policy, task_index", [
    (episode.Policy.CTM, 16),
    (episode.Policy.SCRIPTED_ORACLE, 0),
])
def test_every_activation_input_is_writable_float64(monkeypatch, policy, task_index):
    """``bounded_tanh`` works in place, so every ``pre`` it gets is a writable
    float64 array, and the log equals an unguarded run's."""
    task = load_tasks(TASKS50)[task_index]
    expected = episode.run_episode(task, Config(), policy, MODEL).to_dict()
    seen = set()   # (module, dtype of pre, pre writable)

    def guard(name):
        def guarded(pre, out=None):
            seen.add((name, pre.dtype, pre.flags.writeable))
            return numerics.bounded_tanh(pre, out)
        return guarded

    for name, module in list(sys.modules.items()):
        if getattr(module, "bounded_tanh", None) is numerics.bounded_tanh and module is not numerics:
            monkeypatch.setattr(module, "bounded_tanh", guard(name))
    log = episode.run_episode(task, Config(), policy, MODEL).to_dict()
    assert log == expected and log["outcome"] != episode.OUTCOME_ERROR
    assert {(dtype, writable) for _, dtype, writable in seen} == {(np.dtype(np.float64), True)}
    assert {name for name, *_ in seen} == {
        "tickslab.engine", "tickslab.perception", "tickslab.affect"
    }
