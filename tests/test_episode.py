import dataclasses
import hashlib
import json
import math
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tickslab import consensus
from tickslab.config import Config
from tickslab.consensus import ConsensusResult, SlabMemo
from tickslab.engine import accumulate, slab_ticks
from tickslab.envelope import AFFECT_DIMS, canonical_json_bytes
from tickslab.errors import ConfigError, NonFiniteState
from tickslab.harness import episode
from tickslab.harness.episode import (
    OUTCOME_BUDGET,
    OUTCOME_ERROR,
    OUTCOME_SUCCESS,
    Policy,
    run_episode,
)
from tickslab.harness.tasks import gen_tasks, load_tasks
from tickslab.harness.world import build_registry
from tickslab.params import build_model
from tickslab.weights import save_weights

TASKS = Path(__file__).parent / "fixtures" / "tasks50.jsonl"
F32_MAX = float(np.finfo(np.float32).max)

# SHA-256 over the reply frames, each followed by "\n", of the 61 actuate
# calls of a tasks50 ctm run with the default config, in process.  Pinned
# when the tool side still planned the duties from a published sync vector,
# so planning them into the call moved no reply byte (numpy 2.4.6).
ACTUATE_REPLIES_SHA256 = "270200c7efb71ead12bde49f69b42dc5ca24ac4247bafec8ca8475a0b5362d26"


def recording(function, outputs):
    """``function``, appending each of its results to ``outputs``."""

    def recorded(*args):
        outputs.append(function(*args))
        return outputs[-1]

    return recorded


def small_doc(seed=7, **engine_overrides):
    engine = {
        "neurons": 16,
        "history": 4,
        "rank": 2,
        "sync_pairs": 32,
        "ticks_per_slab": 4,
        "max_slabs": 8,
        **engine_overrides,
    }
    return {
        "seed": seed,
        "engine": engine,
        "consensus": {"branches": 2, "deadline_ticks": 16},
        "affect": {"hidden": 8},
    }


def small_config(seed=7, **engine_overrides):
    return Config.from_dict(small_doc(seed, **engine_overrides))


def build_for(config):
    registry = build_registry()
    return build_model(config, len(registry), registry.max_slots)


class TestOracle:
    def test_oracle_succeeds_with_exact_step_count(self):
        config = small_config()
        model = build_for(config)
        for task in gen_tasks(21, 4):
            log = run_episode(task, config, Policy.SCRIPTED_ORACLE, model=model)
            assert log.outcome == OUTCOME_SUCCESS
            assert log.steps_used == len(task.steps)
            assert all(r.tool_status == "ok" for r in log.records)

    def test_oracle_records_schema(self):
        config = small_config()
        task = gen_tasks(21, 1)[0]
        log = run_episode(task, config, Policy.SCRIPTED_ORACLE, model=build_for(config))
        for i, record in enumerate(log.records):
            assert record.step == i
            assert 0.0 <= record.c_merged <= 1.0
            assert record.epsilon >= 0.75
            assert record.slab_count <= config.engine.max_slabs
            assert record.ticks <= config.engine.max_slabs * config.engine.ticks_per_slab


class TestCtmPolicy:
    def test_zero_weights_selects_tool_zero(self, tmp_path):
        config = small_config(seed=1)
        registry = build_registry()
        table = config.tensor_shapes(len(registry), registry.max_slots)
        weights = tmp_path / "zeros.bin"
        save_weights(weights, {name: np.zeros((rows, cols)) for name, rows, cols, _ in table})
        config = dataclasses.replace(config, weights_path=str(weights))
        model = build_model(config, len(registry), registry.max_slots)
        task = gen_tasks(21, 1)[0]
        log = run_episode(task, config, Policy.CTM, model=model)
        # zero cascade: certainty 0 everywhere, plateau halts, cached-zero
        # fallbacks, forced dispatches of noop (tool index 0)
        assert log.outcome == OUTCOME_BUDGET
        assert log.steps_used == task.budget_steps
        assert all(r.action == "noop" for r in log.records)
        assert all(r.fallback for r in log.records)
        assert all(r.c_merged == 0.0 for r in log.records)
        assert log.forced_dispatches == len(log.records)

    def test_ctm_policy_respects_budgets(self):
        config = small_config(seed=3)
        model = build_for(config)
        task = gen_tasks(22, 1)[0]
        log = run_episode(task, config, Policy.CTM, model=model)
        assert log.outcome in (OUTCOME_SUCCESS, OUTCOME_BUDGET)
        assert log.steps_used <= task.budget_steps
        budget = config.engine.max_slabs * config.engine.ticks_per_slab
        for record in log.records:
            assert record.ticks <= budget
            assert record.slab_count <= config.engine.max_slabs


class TestDispatchRule:
    """The loop dispatches when confident, when no branch halted, or at the
    slab budget, and counts a dispatch below gamma as forced."""

    def run_step(self, monkeypatch, script):
        """The log of a one-step episode on scripted decisions, and the seed
        state of each decision call.

        Each (confidence, slab) gives a result and a next seed at that slab
        (None: no seed); a call past the script ends the episode in error."""
        config = small_config()
        seeds = []

        def decide(seed_state, *args, **kwargs):
            seeds.append(seed_state)
            confidence, slab = script[len(seeds) - 1]
            sync = np.zeros(config.engine.sync_pairs, dtype=np.float32)
            result = ConsensusResult(sync, confidence, (0,), False)
            return result, None if slab is None else dataclasses.replace(seed_state, slab=slab)

        monkeypatch.setattr(episode, "decide_step", decide)
        task = dataclasses.replace(gen_tasks(21, 1)[0], budget_steps=1)
        return run_episode(task, config, Policy.CTM, model=build_for(config)), seeds

    def test_confident_dispatch(self, monkeypatch):
        log, seeds = self.run_step(monkeypatch, [(0.9, 1)])
        assert (len(seeds), log.rethinks, log.forced_dispatches) == (1, 0, 0)
        assert log.records[0].slab_count == 1

    def test_low_confidence_rethinks(self, monkeypatch):
        log, seeds = self.run_step(monkeypatch, [(0.3, 1), (0.9, 2)])
        assert (len(seeds), log.rethinks, log.forced_dispatches) == (2, 1, 0)
        # the rethink starts from the first decision's next seed
        assert [seed.slab for seed in seeds] == [0, 1]
        assert log.records[0].slab_count == 2

    @pytest.mark.parametrize("slab", [8, None], ids=["budget_spent", "no_seed"])
    def test_forced_dispatch_at_budget(self, monkeypatch, slab):
        log, seeds = self.run_step(monkeypatch, [(0.3, slab), (0.9, 1)])
        assert (len(seeds), log.rethinks, log.forced_dispatches) == (1, 0, 1)
        assert log.records[0].slab_count == (slab or 0)

    def test_nan_confidence_at_budget_is_not_forced(self, monkeypatch):
        log, seeds = self.run_step(monkeypatch, [(float("nan"), 8)])
        assert (len(seeds), log.rethinks, log.forced_dispatches) == (1, 0, 0)
        # the canonical encoder then refuses the non-finite confidence with a
        # ValueError, which the episode logs as an error outcome
        assert log.outcome == OUTCOME_ERROR

    def test_terminates_within_budget(self, monkeypatch):
        max_slabs = small_config().engine.max_slabs
        log, seeds = self.run_step(monkeypatch, [(0.0, s) for s in range(1, 2 * max_slabs)])
        assert len(seeds) == max_slabs
        assert (log.rethinks, log.forced_dispatches) == (max_slabs - 1, 1)


class TestTicksCountSlabs:
    # The golden digests cover only the default slab sizes.
    @pytest.mark.parametrize("policy", [Policy.CTM, Policy.SCRIPTED_ORACLE])
    def test_ticks_are_slabs_times_ticks_per_slab(self, policy):
        config = Config.from_dict({"engine": {"ticks_per_slab": 3, "max_slabs": 5}})
        model = build_for(config)
        records = []
        for task in load_tasks(TASKS)[:6]:
            records += run_episode(task, config, policy, model=model).records
        assert any(record.slab_count > 1 for record in records)
        assert all(record.ticks == record.slab_count * 3 for record in records)


class TestDeterminism:
    def test_bitwise_identical_logs(self):
        config = small_config(seed=11)
        model = build_for(config)
        task = gen_tasks(23, 1)[0]
        for policy in (Policy.SCRIPTED_ORACLE, Policy.CTM):
            a = run_episode(task, config, policy, model=model)
            b = run_episode(task, config, policy, model=model)
            assert canonical_json_bytes(a.to_dict()) == canonical_json_bytes(b.to_dict())

    def test_seed_changes_ctm_behavior(self):
        task = gen_tasks(23, 1)[0]
        docs = []
        for seed in (1, 2):
            config = small_config(seed=seed)
            log = run_episode(task, config, Policy.CTM, model=build_for(config))
            docs.append(canonical_json_bytes(log.to_dict()))
        assert docs[0] != docs[1]


class TestCrashFreedom:
    # a failing sensor, and a failing slab, which the decision step does not
    # turn into fallback steps; failing_call is the third step's first call
    @pytest.mark.parametrize(
        "module, name, failing_call",
        [(episode, "featurize", 3), (consensus, "slab_ticks", 7)],
        ids=["featurize", "slab_ticks"],
    )
    def test_mid_episode_failure_becomes_error_outcome(
        self, monkeypatch, module, name, failing_call
    ):
        calls = {"n": 0}
        original = getattr(module, name)

        def flaky(*args):
            calls["n"] += 1
            if calls["n"] >= failing_call:
                raise ValueError(f"{name} failed")
            return original(*args)

        monkeypatch.setattr(module, name, flaky)
        config = small_config()
        task = gen_tasks(21, 1)[0]
        log = run_episode(task, config, Policy.SCRIPTED_ORACLE, model=build_for(config))
        assert log.outcome == "error"
        assert log.steps_used == 2  # two steps completed before the failure
        assert calls["n"] == failing_call


class TestGoalFrames:
    def test_goal_frames_once_per_episode_featurize_once_per_step(self, monkeypatch):
        import tickslab.harness.episode as episode_mod

        calls = {"goal_frames": 0, "featurize": 0}

        def counted(name):
            original = getattr(episode_mod, name)

            def wrapper(*args):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(episode_mod, name, wrapper)

        config = small_config()
        task = gen_tasks(21, 1)[0]
        plain = run_episode(task, config, Policy.CTM, model=build_for(config))
        counted("goal_frames")
        counted("featurize")
        log = run_episode(task, config, Policy.CTM, model=build_for(config))
        assert log.to_dict() == plain.to_dict()
        assert log.steps_used == len(log.records) > 1
        assert calls == {"goal_frames": 1, "featurize": log.steps_used}

    def test_an_unchanged_frame_reuses_the_fusion_vector(self, monkeypatch):
        outputs = {"featurize": [], "fuse": []}
        for name, seen in outputs.items():
            monkeypatch.setattr(episode, name, recording(getattr(episode, name), seen))
        frames, fused = outputs["featurize"], outputs["fuse"]
        task = load_tasks(TASKS)[0]
        log = run_episode(task, Config(), Policy.CTM, model=build_for(Config()))
        changed = [a.tobytes() != b.tobytes() for a, b in zip(frames, frames[1:])]
        # the repeated 'place' fails and leaves the world as it was
        assert len(frames) == log.steps_used and not all(changed)
        assert len(fused) == 1 + sum(changed)


class TestBranchPermutations:
    def test_derived_once_per_episode_and_in_no_step(self, monkeypatch):
        config = Config()
        model = build_for(config)
        task = load_tasks(TASKS)[0]
        plain = run_episode(task, config, Policy.CTM, model=model).to_dict()

        derived, passed = [], []
        decide_step = episode.decide_step

        def decide(*args, **kwargs):
            passed.append(args[3])
            return decide_step(*args, **kwargs)

        def in_a_step(*args):
            raise AssertionError("a decision step derived branch permutations")

        monkeypatch.setattr(
            episode, "branch_permutations", recording(episode.branch_permutations, derived)
        )
        monkeypatch.setattr(consensus, "branch_permutations", in_a_step)
        monkeypatch.setattr(episode, "decide_step", decide)
        log = run_episode(task, config, Policy.CTM, model=model)
        assert log.to_dict() == plain
        [perms] = derived
        assert perms.shape == (config.consensus.branches, config.engine.sync_pairs)
        assert not perms.flags.writeable
        # every call of the episode, rethinks too, reads the same array
        assert len(passed) == log.steps_used + log.rethinks > 1
        assert all(p is perms for p in passed)


class TestSlabMemo:
    # Task 0 keeps one f all episode and its trajectory falls into a period-2
    # limit cycle, so most of its slabs repeat a start state it has run;
    # task 16 changes f once.
    @pytest.mark.parametrize("index, vectors", [(0, 1), (16, 2)])
    def test_each_start_state_runs_once_per_fusion_vector(self, monkeypatch, index, vectors):
        memos, fused, computed, stepped = [], [], [], []
        names = {}

        def name(*arrays):
            """A small int per distinct byte string, so failures print short."""
            return names.setdefault(b"|".join(a.tobytes() for a in arrays), len(names))

        class Recorder(SlabMemo):
            def __init__(self, f, params):
                super().__init__(f, params)
                self.f = name(f)
                self.lookups = []      # (start state, entries held after the lookup)
                memos.append(self)

            def lookup(self, z, history):
                result = super().lookup(z, history)
                self.lookups.append((name(z, history), len(self)))
                return result

        def counted_ticks(z, history, f, params):
            computed.append((name(f), name(z, history)))
            return slab_ticks(z, history, f, params)

        def counted_accumulate(*args):
            stepped.append(None)
            return accumulate(*args)

        monkeypatch.setattr(episode, "SlabMemo", Recorder)
        monkeypatch.setattr(episode, "fuse", recording(episode.fuse, fused))
        monkeypatch.setattr(consensus, "slab_ticks", counted_ticks)
        monkeypatch.setattr(consensus, "accumulate", counted_accumulate)
        task = load_tasks(TASKS)[index]
        assert task.id == f"synth-20260810-{index}"
        run_episode(task, Config(), Policy.CTM, model=build_for(Config()))

        # one memo per fusion vector, built as it is fused
        assert [memo.f for memo in memos] == [name(f) for f in fused]
        assert len(memos) == vectors
        # one lookup per slab the trajectories stepped
        assert sum(len(memo.lookups) for memo in memos) == len(stepped)
        # a lookup computes, under its memo's f, exactly the start states
        # that memo has not seen, and the memo holds those entries only
        want = []
        for memo in memos:
            seen = set()
            for key, held in memo.lookups:
                if key not in seen:
                    seen.add(key)
                    want.append((memo.f, key))
                assert held == len(seen)
        assert computed == want
        assert len(computed) < len(stepped)

    # The slabs a tasks50 run with the default config computes (slab_ticks
    # calls) and steps (accumulate calls).  A memo that loses hits raises
    # the first; a trajectory that runs past its stop raises the second.
    @pytest.mark.parametrize(
        "policy, computed, stepped",
        [(Policy.CTM, 921, 1981), (Policy.SCRIPTED_ORACLE, 1386, 1445)],
    )
    def test_tasks50_work_counts(self, policy, computed, stepped):
        config = Config()
        model = build_for(config)
        with (
            mock.patch.object(consensus, "slab_ticks", wraps=slab_ticks) as ticks,
            mock.patch.object(consensus, "accumulate", wraps=accumulate) as steps,
        ):
            for task in load_tasks(TASKS):
                run_episode(task, config, policy, model=model)
        assert (ticks.call_count, steps.call_count) == (computed, stepped)


class TestLiveMode:
    def test_live_episode_completes(self):
        config = Config.from_dict(
            {
                "seed": 7,
                "engine": {
                    "neurons": 8, "history": 2, "rank": 1, "sync_pairs": 8,
                    "ticks_per_slab": 2, "max_slabs": 4,
                },
                "consensus": {"branches": 2, "live": True, "deadline_ms": 50.0},
                "affect": {"hidden": 4},
            }
        )
        task = gen_tasks(25, 1)[0]
        log = run_episode(task, config, Policy.SCRIPTED_ORACLE, model=build_for(config))
        assert log.outcome == OUTCOME_SUCCESS
        assert log.steps_used == len(task.steps)


class TestEnvelopePath:
    def test_dispatch_goes_through_wire_format(self, monkeypatch):
        # intercept frames on the in-process server to check they decode
        from test_envelope import decode
        from tickslab import transport as transport_mod

        seen = []
        original = transport_mod.ToolServer.handle_frame

        def spy(self, frame):
            seen.append(frame)
            return original(self, frame)

        monkeypatch.setattr(transport_mod.ToolServer, "handle_frame", spy)
        config = small_config()
        task = gen_tasks(21, 1)[0]
        log = run_episode(task, config, Policy.SCRIPTED_ORACLE, model=build_for(config))
        assert log.outcome == OUTCOME_SUCCESS
        assert len(seen) == log.steps_used
        ids = []
        for frame in seen:
            doc = decode(frame)
            ids.append(doc["id"])
            assert doc["params"]["meta"]["episode"] == task.id
            assert len(doc["params"]["meta"]["sync_digest"]) == 64
        assert ids == sorted(set(ids))


class TestActuate:
    def test_tasks50_actuate_replies_are_pinned(self, monkeypatch):
        from tickslab.transport import ToolServer

        replies = []
        handle_frame = ToolServer.handle_frame

        def record(self, frame):
            reply = handle_frame(self, frame)
            if json.loads(frame)["method"] == "tool/actuate":
                replies.append(reply)
            return reply

        monkeypatch.setattr(ToolServer, "handle_frame", record)
        config = Config()
        model = build_for(config)
        for task in load_tasks(TASKS):
            run_episode(task, config, Policy.CTM, model=model)
        assert len(replies) == 61
        assert all(json.loads(reply)["result"]["status"] == "ok" for reply in replies)
        digest = hashlib.sha256(b"".join(reply + b"\n" for reply in replies)).hexdigest()
        assert digest == ACTUATE_REPLIES_SHA256


FINITE = st.floats(allow_nan=False, allow_infinity=False)
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
# the config's value knobs, by "section.key", over their accepted ranges and
# past them (a config that is refused is skipped)
VALUE_KNOBS = st.fixed_dictionaries({}, optional={
    "engine.decay": st.floats(0.0, 1.0, exclude_min=True) | st.just(1.0),
    "engine.logit_scale": FINITE,
    "engine.carry_beta": st.floats(0.0, 1.0),
    "engine.halt_cap": st.floats(0.0, 1.0),
    "engine.plateau_epsilon": st.floats(0.0, 1.0) | POSITIVE,
    "affect.epsilon0": POSITIVE,
    "affect.alpha": st.floats(0.0, 10.0) | POSITIVE,
    "router.gamma": st.floats(0.0, 1.0),
    "actuator.gain": FINITE,
    "actuator.torque_limit": POSITIVE,
})
NEAR_MAX = ["affect/w1", "actuator/mapping"]  # weights that may be overridden near float32 max


class TestCallValues:
    """Every value of a dispatched tool call is finite and typed where it is
    made: the confidence by ``certainty``, the affect by its tanh, the duty
    cycles by ``torque_to_pwm``'s clamp; ``serialize_envelope`` checks none."""

    # with small_doc(0) the ctm policy dispatches actuate on the third task
    TASKS = [dataclasses.replace(load_tasks(TASKS)[i], budget_steps=6) for i in (0, 4, 16)]

    @staticmethod
    def config(seed, knobs, near_max, path):
        """The small config with ``knobs`` set and each ``near_max`` weight
        overridden by near-float32-max entries of drawn signs."""
        doc = small_doc(seed)
        for name, value in knobs.items():
            section, key = name.split(".")
            doc.setdefault(section, {})[key] = value
        config = Config.from_dict(doc)
        if near_max:
            rng = np.random.default_rng(seed)
            registry = build_registry()
            save_weights(path, {
                name: (rng.choice([-1.0, 1.0], size=(rows, cols)) * F32_MAX).astype(np.float32)
                for name, rows, cols, _ in config.tensor_shapes(len(registry), registry.max_slots)
                if name in near_max
            })
            config = dataclasses.replace(config, weights_path=str(path))
        return config

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        knobs=VALUE_KNOBS,
        near_max=st.lists(st.sampled_from(NEAR_MAX), unique=True),
    )
    @example(seed=0, knobs={"actuator.gain": 1e308}, near_max=[])
    @example(seed=0, knobs={"engine.decay": 1.0, "engine.logit_scale": 1e300}, near_max=[])
    @example(seed=0, knobs={}, near_max=NEAR_MAX)
    def test_dispatched_values_are_finite_and_typed(self, tmp_path_factory, seed, knobs, near_max):
        try:
            config = self.config(seed, knobs, near_max, tmp_path_factory.mktemp("w") / "w.bin")
            model = build_for(config)
        except ConfigError:
            return
        sent, dispatch = [], episode.dispatch

        def record(envelope, exchange):
            sent.append(envelope)
            return dispatch(envelope, exchange)

        # a RuntimeWarning is recorded, not raised, so the episode goes on to
        # dispatch what it computed and both are reported below
        with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            patch.setattr(episode, "dispatch", record)
            for task in self.TASKS:
                for policy in Policy:
                    try:
                        log = run_episode(task, config, policy, model=model)
                    except NonFiniteState:  # the source refusing a diverged readout
                        continue
                    assert log.outcome != OUTCOME_ERROR, (task.id, policy)
        assert [str(w.message) for w in caught] == []
        for envelope in sent:
            meta = envelope.meta
            assert type(meta.confidence) is float and math.isfinite(meta.confidence)
            assert len(meta.affect) == AFFECT_DIMS
            assert all(type(a) is float and math.isfinite(a) for a in meta.affect)
            for value in envelope.args.values():
                if isinstance(value, list):
                    assert all(type(d) is float and 0.0 <= d <= 1.0 for d in value), value
                else:
                    assert type(value) is str or (
                        type(value) in (int, float) and math.isfinite(value)
                    ), value
