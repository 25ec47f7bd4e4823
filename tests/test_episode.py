import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from tickslab import consensus
from tickslab.config import Config
from tickslab.consensus import ConsensusResult, SlabMemo
from tickslab.engine import accumulate, slab_ticks
from tickslab.envelope import canonical_json_bytes
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


def small_config(seed=7, **engine_overrides):
    engine = {
        "neurons": 16,
        "history": 4,
        "rank": 2,
        "sync_pairs": 32,
        "ticks_per_slab": 4,
        "max_slabs": 8,
        **engine_overrides,
    }
    return Config.from_dict(
        {
            "seed": seed,
            "engine": engine,
            "consensus": {"branches": 2, "deadline_ticks": 16},
            "affect": {"hidden": 8},
        }
    )


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
        # the envelope then refuses the non-finite confidence
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
    def test_mid_episode_failure_becomes_error_outcome(self, monkeypatch):
        import tickslab.harness.episode as episode_mod

        calls = {"n": 0}
        original = episode_mod.featurize

        def flaky(world, dims):
            calls["n"] += 1
            if calls["n"] >= 3:
                raise ValueError("sensor exploded")
            return original(world, dims)

        monkeypatch.setattr(episode_mod, "featurize", flaky)
        config = small_config()
        task = gen_tasks(21, 1)[0]
        log = run_episode(task, config, Policy.SCRIPTED_ORACLE, model=build_for(config))
        assert log.outcome == "error"
        assert log.steps_used == 2  # two steps completed before the failure


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
        log = run_episode(task, Config(), Policy.CTM)
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
            passed.append(args[4])
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
    @pytest.mark.parametrize("index, scopes", [(0, 1), (16, 2)])
    def test_each_start_state_runs_once_per_fusion_vector(self, monkeypatch, index, scopes):
        memos, computed, stepped = [], [], []
        names = {}

        def name(*arrays):
            """A small int per distinct byte string, so failures print short."""
            return names.setdefault(b"|".join(a.tobytes() for a in arrays), len(names))

        class Recorder(SlabMemo):
            def __init__(self):
                super().__init__()
                self.lookups = []      # (f, start state, entries held after the lookup)
                memos.append(self)

            def lookup(self, z, history, f, params):
                result = super().lookup(z, history, f, params)
                self.lookups.append((name(f), name(z, history), len(self)))
                return result

        def counted_ticks(z, history, f, params):
            computed.append((name(f), name(z, history)))
            return slab_ticks(z, history, f, params)

        def counted_accumulate(*args):
            stepped.append(None)
            return accumulate(*args)

        monkeypatch.setattr(episode, "SlabMemo", Recorder)
        monkeypatch.setattr(consensus, "slab_ticks", counted_ticks)
        monkeypatch.setattr(consensus, "accumulate", counted_accumulate)
        task = load_tasks(TASKS)[index]
        assert task.id == f"synth-20260810-{index}"
        run_episode(task, Config(), Policy.CTM)

        [memo] = memos
        # one lookup per slab the trajectories stepped
        assert len(memo.lookups) == len(stepped)
        # a lookup computes exactly the start states not yet seen under its
        # f since f last changed, and the memo holds those entries only
        want, scope, seen, changes = [], None, set(), 0
        for f, key, held in memo.lookups:
            if f != scope:
                scope, seen, changes = f, set(), changes + 1
            if key not in seen:
                seen.add(key)
                want.append((f, key))
            assert held == len(seen)
        assert computed == want
        assert changes == scopes
        assert len(computed) < len(memo.lookups)


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

    def test_a_nan_sync_entry_plans_no_duty(self):
        model = build_for(Config())
        actuate = build_registry().get("actuate")
        sync = np.zeros(model.actuator.mapping.shape[1])
        assert episode.call_args(actuate, {}, sync, model.actuator) == {"duty": [0.5] * 12}
        sync[3] = np.nan
        assert episode.call_args(actuate, {}, sync, model.actuator) == {}

    def test_actuate_without_duty_is_an_error_step(self, monkeypatch, caplog):
        config = Config()
        model = build_for(config)
        task = load_tasks(TASKS)[16]  # actuates
        plain = run_episode(task, config, Policy.CTM, model=model).to_dict()
        actuations = [r for r in plain["records"] if r["action"] == "actuate"]
        assert actuations and all(r["tool_status"] == "ok" for r in actuations)

        monkeypatch.setattr(episode, "torque_to_pwm", lambda tau, params: np.full_like(tau, np.nan))
        with caplog.at_level("WARNING"):
            log = run_episode(task, config, Policy.CTM, model=model).to_dict()
        assert caplog.records == [] and log["outcome"] != OUTCOME_ERROR
        for record in actuations:
            record["tool_status"] = "error"
        assert log == plain
