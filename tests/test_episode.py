import numpy as np

from tickslab.config import Config
from tickslab.envelope import canonical_json_bytes
from tickslab.harness.episode import (
    OUTCOME_BUDGET,
    OUTCOME_SUCCESS,
    Policy,
    run_episode,
)
from tickslab.harness.tasks import gen_tasks
from tickslab.harness.world import build_registry
from tickslab.params import build_model


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
        base = build_model(config, len(registry), registry.max_slots)
        zeros = {
            "enc/vision": np.zeros_like(base.encoder.vision),
            "enc/audio": np.zeros_like(base.encoder.audio),
            "enc/proprio": np.zeros_like(base.encoder.proprio),
            "enc/fusion": np.zeros_like(base.encoder.fusion),
            "ctm/synapse": np.zeros_like(base.ctm.synapse_w),
            "ctm/readout_a": np.zeros_like(base.ctm.factor_a),
            "ctm/readout_b": np.zeros_like(base.ctm.factor_b),
            "ctm/bias": np.zeros((1, base.ctm.config.neurons), dtype=np.float32),
            "ctm/certainty": np.zeros_like(base.ctm.certainty_w),
            "affect/w1": np.zeros_like(base.affect.w1),
            "affect/w2": np.zeros_like(base.affect.w2),
            "router/action": np.zeros_like(base.action_head),
            "router/slots": np.zeros_like(base.slot_head),
            "actuator/mapping": np.zeros_like(base.actuator.mapping),
        }
        model = build_model(config, len(registry), registry.max_slots, overrides=zeros)
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

        def flaky(goal, world, dims):
            calls["n"] += 1
            if calls["n"] >= 3:
                raise ValueError("sensor exploded")
            return original(goal, world, dims)

        monkeypatch.setattr(episode_mod, "featurize", flaky)
        config = small_config()
        task = gen_tasks(21, 1)[0]
        log = run_episode(task, config, Policy.SCRIPTED_ORACLE, model=build_for(config))
        assert log.outcome == "error"
        assert log.steps_used == 2  # two steps completed before the failure


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
        # intercept frames on the loopback transport to check they parse
        from tickslab import transport as transport_mod
        from tickslab.envelope import parse_envelope

        seen = []
        original = transport_mod.LoopbackTransport.send_frame

        def spy(self, frame):
            seen.append(frame)
            return original(self, frame)

        monkeypatch.setattr(transport_mod.LoopbackTransport, "send_frame", spy)
        config = small_config()
        task = gen_tasks(21, 1)[0]
        log = run_episode(task, config, Policy.SCRIPTED_ORACLE, model=build_for(config))
        assert log.outcome == OUTCOME_SUCCESS
        assert len(seen) == log.steps_used
        ids = []
        for frame in seen:
            envelope = parse_envelope(frame)
            ids.append(envelope.id)
            assert envelope.meta.episode == task.id
            assert len(envelope.meta.sync_digest) == 64
        assert ids == sorted(set(ids))
