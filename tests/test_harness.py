import dataclasses
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tickslab.config import Config, ConsensusConfig, EngineConfig
from tickslab.engine import halt_readout
from tickslab.errors import (
    ConfigError,
    EmptyLogs,
    ParseError,
    SchemaViolation,
    TickslabError,
    UnknownTool,
)
from tickslab.harness.cli import main as cli_main
from tickslab.harness.episode import EpisodeLog, StepRecord
from tickslab.harness.featurize import featurize, scatter_tokens, tokenize
from tickslab.harness.metrics import (
    compute_metrics,
    read_logs,
    write_logs,
    write_report,
)
from tickslab.harness.tasks import gen_tasks, load_tasks, save_tasks
from tickslab.harness.world import (
    WorldState,
    build_registry,
    demo_world,
    goal_holds,
    step_env,
    world_from_task,
)
from tickslab.params import TENSOR_NAMES, build_model, build_router_params
from tickslab.perception import Modality
from tickslab.weights import MAGIC, load_weights


class TestLoadTasks:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "tasks.jsonl"
        path.write_text("")
        assert load_tasks(path) == []

    def test_single_record(self, tmp_path):
        doc = {
            "id": "t1",
            "goal": "move the cup",
            "context": ["cup", "table"],
            "steps": [
                {"tool": "pick", "args": {"object": "cup"}, "expected": "holding:cup"}
            ],
        }
        path = tmp_path / "tasks.jsonl"
        path.write_text(json.dumps(doc) + "\n")
        (task,) = load_tasks(path)
        assert task.id == "t1"
        assert task.goal == "move the cup"
        assert task.budget_steps == 20  # schema default
        assert task.steps[0].tool == "pick"

    def test_missing_goal_names_line_and_field(self, tmp_path):
        good = {
            "id": "t", "goal": "g", "context": [],
            "steps": [{"tool": "noop", "args": {}, "expected": "x"}],
        }
        bad = {k: v for k, v in good.items() if k != "goal"}
        path = tmp_path / "tasks.jsonl"
        path.write_text("\n".join(json.dumps(d) for d in (good, good, bad)) + "\n")
        with pytest.raises(SchemaViolation) as err:
            load_tasks(path)
        assert "line 3" in err.value.path and "goal" in err.value.path

    def test_bad_json_names_line(self, tmp_path):
        good = json.dumps(
            {
                "id": "t", "goal": "g", "context": [],
                "steps": [{"tool": "noop", "args": {}, "expected": "x"}],
            }
        )
        path = tmp_path / "tasks.jsonl"
        path.write_text(good + "\n{nope\n")
        with pytest.raises(ParseError) as err:
            load_tasks(path)
        assert err.value.line == 2

    def test_args_must_be_in_context(self, tmp_path):
        doc = {
            "id": "t", "goal": "g", "context": ["cup"],
            "steps": [{"tool": "pick", "args": {"object": "plate"}, "expected": "x"}],
        }
        path = tmp_path / "tasks.jsonl"
        path.write_text(json.dumps(doc) + "\n")
        with pytest.raises(SchemaViolation):
            load_tasks(path)


class TestGenTasks:
    def test_byte_identical_outputs(self, tmp_path):
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_tasks(p1, gen_tasks(99, 50))
        save_tasks(p2, gen_tasks(99, 50))
        assert p1.read_bytes() == p2.read_bytes()

    def test_different_seeds_differ(self):
        a = [t.to_dict() for t in gen_tasks(1, 10)]
        b = [t.to_dict() for t in gen_tasks(2, 10)]
        assert a != b

    def test_thousand_tasks_schema_valid(self, tmp_path):
        tasks = gen_tasks(5, 1000)
        assert len(tasks) == 1000
        path = tmp_path / "tasks.jsonl"
        save_tasks(path, tasks)
        loaded = load_tasks(path)  # the loader is the validator
        assert len(loaded) == 1000
        assert [t.id for t in loaded] == [f"synth-5-{i}" for i in range(1000)]

    def test_args_always_in_context(self):
        for task in gen_tasks(7, 200):
            names = set(task.context)
            for step in task.steps:
                for value in step.args.values():
                    assert value in names


class TestWorld:
    def _task(self):
        return gen_tasks(3, 1)[0]

    def test_world_from_task_places_picked_objects(self):
        task = self._task()
        world = world_from_task(task)
        first_nav = next(s for s in task.steps if s.tool == "navigate")
        first_pick = next(s for s in task.steps if s.tool == "pick")
        assert world.objects[first_pick.args["object"]].location == first_nav.args["to"]
        assert world.robot_at == "dock"

    def test_pick_success_and_held_flag(self):
        from tickslab.harness.world import ObjectState

        world = WorldState(objects={"cup": ObjectState("table")}, robot_at="table")
        new, result = step_env(world, "pick", {"object": "cup"})
        assert result.ok
        assert new.objects["cup"].held
        assert not world.objects["cup"].held  # old state untouched

    def test_pick_while_holding_fails_without_mutation(self):
        from tickslab.harness.world import ObjectState

        world = WorldState(
            objects={"cup": ObjectState("table", held=True), "jar": ObjectState("table")},
            robot_at="table",
        )
        new, result = step_env(world, "pick", {"object": "jar"})
        assert not result.ok
        assert new is world

    def test_pick_wrong_location_fails(self):
        from tickslab.harness.world import ObjectState

        world = WorldState(objects={"cup": ObjectState("shelf")}, robot_at="table")
        new, result = step_env(world, "pick", {"object": "cup"})
        assert not result.ok
        assert new is world

    def test_place_requires_holding(self):
        from tickslab.harness.world import ObjectState

        world = WorldState(objects={"cup": ObjectState("shelf")}, robot_at="table")
        _, result = step_env(world, "place", {"object": "cup"})
        assert not result.ok

    def test_place_moves_object_to_robot(self):
        from tickslab.harness.world import ObjectState

        world = WorldState(objects={"cup": ObjectState("shelf", held=True)}, robot_at="sink")
        new, result = step_env(world, "place", {"object": "cup"})
        assert result.ok
        assert new.objects["cup"].location == "sink"
        assert not new.objects["cup"].held

    def test_navigate_always_succeeds(self):
        world = demo_world()
        new, result = step_env(world, "navigate", {"to": "far-away"})
        assert result.ok
        assert new.robot_at == "far-away"

    def test_noop_no_mutation(self):
        world = demo_world()
        new, result = step_env(world, "noop", {})
        assert result.ok
        assert new is world

    def test_unknown_tool_raises(self):
        with pytest.raises(UnknownTool):
            step_env(demo_world(), "warp", {})

    def test_actuate_runs_the_chain(self):
        config = Config()
        registry = build_registry()
        model = build_model(config, len(registry), registry.max_slots)
        sync = np.random.default_rng(0).normal(size=256).astype(np.float32)
        _, result = step_env(
            demo_world(), "actuate", {}, sync=sync, actuator_params=model.actuator
        )
        assert result.ok
        duties = result.payload["duty"]
        assert len(duties) == 12
        assert all(0.0 <= d <= 1.0 for d in duties)

    def test_goal_predicates(self):
        from tickslab.harness.world import ObjectState

        world = WorldState(
            objects={"cup": ObjectState("table"), "jar": ObjectState("x", held=True)},
            robot_at="sink",
        )
        assert goal_holds(world, "robot_at:sink")
        assert not goal_holds(world, "robot_at:table")
        assert goal_holds(world, "at:cup:table")
        assert not goal_holds(world, "at:jar:x")  # held objects are not "at"
        assert goal_holds(world, "holding:jar")
        assert not goal_holds(world, "nonsense")


class TestFeaturize:
    def test_deterministic(self):
        config = Config()
        world = demo_world()
        f1 = featurize("move the cup", world, config.perception)
        f2 = featurize("move the cup", world, config.perception)
        for m in Modality:
            assert np.array_equal(f1[m].values, f2[m].values)

    def test_shapes(self):
        config = Config()
        frames = featurize("move the cup", demo_world(), config.perception)
        assert frames[Modality.VISION].values.shape == (768,)
        assert frames[Modality.AUDIO].values.shape == (80,)
        assert frames[Modality.PROPRIO].values.shape == (64,)

    def test_goal_changes_vision_frame(self):
        config = Config()
        world = demo_world()
        a = featurize("move the cup", world, config.perception)
        b = featurize("stack the plates", world, config.perception)
        assert not np.array_equal(
            a[Modality.VISION].values, b[Modality.VISION].values
        )
        assert not np.array_equal(a[Modality.AUDIO].values, b[Modality.AUDIO].values)

    def test_world_changes_proprio_frame(self):
        config = Config()
        a = featurize("g", demo_world(), config.perception)
        moved, _ = step_env(demo_world(), "navigate", {"to": "shelf"})
        b = featurize("g", moved, config.perception)
        assert not np.array_equal(
            a[Modality.PROPRIO].values, b[Modality.PROPRIO].values
        )

    def test_scatter_is_sparse_and_finite(self):
        vec = scatter_tokens(tokenize("Move the cup, now!"), 128)
        assert np.all(np.isfinite(vec))
        assert np.count_nonzero(vec) <= 4 * 4  # tokens * probes


class TestMetrics:
    def _log(self, task_id, outcome, statuses, steps_used=None):
        records = [
            StepRecord(i, 1, 4, 0.5, 0.75, "noop", {}, s, False)
            for i, s in enumerate(statuses)
        ]
        return EpisodeLog(
            task_id=task_id,
            records=records,
            outcome=outcome,
            steps_used=steps_used if steps_used is not None else len(statuses),
        )

    def test_examples(self):
        logs = [
            self._log("a", "success", ["ok"] * 8),
            self._log("b", "success", ["ok"] * 12),
            self._log("c", "budget_exhausted", ["ok"] * 10),
        ]
        report = compute_metrics(logs)
        assert report.tsr == pytest.approx(2 / 3, abs=5e-7)
        assert f"{report.tsr:.6f}" == "0.666667"
        assert report.esr == 1.0
        assert report.ael == 10.0

    def test_esr_counts_all_calls(self):
        logs = [self._log("a", "success", ["ok", "error", "ok", "ok"])]
        assert compute_metrics(logs).esr == 0.75

    def test_ael_is_mean_steps(self):
        logs = [
            self._log("a", "success", ["ok"] * 8),
            self._log("b", "success", ["ok"] * 12),
        ]
        assert compute_metrics(logs).ael == 10.0

    def test_empty_rejected(self):
        with pytest.raises(EmptyLogs):
            compute_metrics([])

    def test_log_replay_round_trip(self, tmp_path):
        logs = [
            self._log("a", "success", ["ok"] * 3),
            self._log("b", "error", ["ok", "error"]),
        ]
        path = tmp_path / "episodes.jsonl"
        write_logs(path, logs)
        replayed = read_logs(path)
        assert compute_metrics(replayed) == compute_metrics(logs)
        assert [r.to_dict() for r in replayed[0].records] == [
            r.to_dict() for r in logs[0].records
        ]

    def test_report_file(self, tmp_path):
        report = compute_metrics([self._log("a", "success", ["ok"])])
        path = tmp_path / "metrics.json"
        write_report(path, report)
        doc = json.loads(path.read_text())
        assert doc["tsr"] == 1.0
        assert doc["episode_count"] == 1

    def test_read_log_dir_merges_files(self, tmp_path):
        from tickslab.harness.metrics import read_log_dir

        write_logs(tmp_path / "b.jsonl", [self._log("b", "success", ["ok"])])
        write_logs(tmp_path / "a.jsonl", [self._log("a", "error", ["error"])])
        logs = read_log_dir(tmp_path)
        assert [log.task_id for log in logs] == ["a", "b"]  # sorted by file

    @pytest.mark.parametrize(
        "field, value",
        [
            ("steps_used", "x"), ("rethinks", True), ("steps_used", -1),
            ("steps_used", 2**63), ("outcome", 1), ("records", {}),
        ],
    )
    def test_mistyped_field_names_line_and_field(self, tmp_path, capsys, field, value):
        doc = self._log("a", "success", ["ok"]).to_dict()
        path = tmp_path / "episodes.jsonl"
        write_logs(path, [self._log("b", "success", ["ok"])])
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({**doc, field: value}) + "\n")
        with pytest.raises(ParseError, match=f"line 2: {field}") as info:
            read_logs(path)
        assert info.value.line == 2
        assert cli_main(["metrics", "--logs", str(tmp_path)]) == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value", [("c_merged", "0.5"), ("fallback", 0), ("args", []), ("ticks", 1.5)]
    )
    def test_mistyped_record_field_rejected(self, tmp_path, field, value):
        doc = self._log("a", "success", ["ok"]).to_dict()
        doc["records"][0][field] = value
        path = tmp_path / "episodes.jsonl"
        path.write_text(json.dumps(doc) + "\n")
        with pytest.raises(ParseError, match=f"line 1: {field}"):
            read_logs(path)

    JSON_VALUES = st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
        max_leaves=6,
    )

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_any_json_on_a_log_line_gives_logs_or_parse_error(self, tmp_path_factory, data):
        doc = self._log("a", "success", ["ok", "error"]).to_dict()
        where = data.draw(st.sampled_from(["line", "log", "record"]))
        if where == "line":
            doc = data.draw(self.JSON_VALUES)
        elif where == "log":
            doc[data.draw(st.sampled_from(sorted(doc)))] = data.draw(self.JSON_VALUES)
        else:
            record = doc["records"][data.draw(st.integers(0, 1))]
            record[data.draw(st.sampled_from(sorted(record)))] = data.draw(self.JSON_VALUES)
        path = tmp_path_factory.getbasetemp() / "any_log.jsonl"
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
        try:
            logs = read_logs(path)
        except ParseError:
            return
        compute_metrics(logs)


class TestConfig:
    def test_defaults_round_trip(self, tmp_path):
        config = Config()
        path = tmp_path / "config.json"
        config.save(path)
        assert Config.load(path) == config

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            Config.from_dict({"engine": {"neurons": 8, "warp": 1}})
        with pytest.raises(ConfigError, match="unknown config key 'harness'"):
            Config.from_dict({"harness": {"budget_steps_default": 20}})

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigError):
            Config.from_dict({"engine": {"decay": 0.0}})
        with pytest.raises(ConfigError):
            Config.from_dict({"consensus": {"branches": 0}})
        # keys that had a single legal value are gone: setting one is unknown
        with pytest.raises(ConfigError, match="unknown keys"):
            Config.from_dict({"affect": {"dims": 8}})
        with pytest.raises(ConfigError, match="unknown keys"):
            Config.from_dict({"perception": {"spectrum_bins": 80}})

    SIZES = {
        "engine": (
            "neurons", "history", "rank", "sync_pairs", "ticks_per_slab",
            "max_slabs", "plateau_window",
        ),
        "perception": (
            "vision_in", "audio_in", "proprio_in", "vision_latent",
            "audio_latent", "proprio_latent", "fusion_dim",
        ),
        "affect": ("hidden",),
        "router": ("slot_embed_width",),
        "actuator": ("joints", "filter_window"),
    }
    FLOATS = [
        (section, key)
        for section, fields in Config().to_dict().items()
        if isinstance(fields, dict)
        for key, value in fields.items()
        if type(value) is float
    ]

    @pytest.mark.parametrize(
        "doc, name",
        [
            ({"engine": {"neurons": -3, "sync_pairs": 4}}, "engine.neurons"),
            *(
                ({section: {key: 0}}, f"{section}.{key}")
                for section, keys in SIZES.items()
                for key in keys
            ),
            ({"engine": {"logit_count": 1}}, "engine.logit_count"),
            ({"consensus": {"deadline_ticks": -5}}, "consensus.deadline_ticks"),
            ({"consensus": {"deadline_ms": float("nan")}}, "consensus.deadline_ms"),
            ({"consensus": {"deadline_ms": 0.0}}, "consensus.deadline_ms"),
            ({"perception": {"audio_in": 200}}, "perception.audio_in"),
            ({"perception": {"audio_in": 129}}, "perception.audio_in"),
            ({"actuator": {"samples_per_move": 1}}, "actuator.samples_per_move"),
            *(
                ({section: {key: bad}}, f"{section}.{key}")
                for section, key in FLOATS
                for bad in (float("inf"), float("-inf"), float("nan"))
            ),
            ({"affect": {"epsilon0": 10**400}}, "affect.epsilon0"),
            ({"engine": {"halt_cap": 1.5}}, "engine.halt_cap"),
            ({"engine": {"carry_beta": -0.1}}, "engine.carry_beta"),
        ],
    )
    def test_out_of_range_value_rejected(self, doc, name):
        with pytest.raises(ConfigError, match=name):
            Config.from_dict(doc)

    def test_range_edges_accepted(self):
        config = Config.from_dict({
            "perception": {"audio_in": 128},
            "consensus": {"deadline_ticks": 0},
            "actuator": {"samples_per_move": 2},
            "engine": {"halt_cap": 1.0, "carry_beta": 0.0},
        })
        assert config.perception.audio_in == 128

    def test_sections_are_checked_when_built(self):
        with pytest.raises(ConfigError, match="consensus.branches"):
            ConsensusConfig(branches=0)
        config = Config()
        with pytest.raises(ConfigError, match="consensus.deadline_ms"):
            dataclasses.replace(
                config,
                consensus=dataclasses.replace(config.consensus, deadline_ms=float("nan")),
            )

    @pytest.mark.parametrize(
        "doc, name",
        [
            ({"consensus": {"branches": "4"}}, "consensus.branches"),
            ({"seed": "abc"}, "seed"),
            ({"consensus": {"deadline_ticks": "x"}}, "consensus.deadline_ticks"),
            ({"consensus": {"live": "no"}}, "consensus.live"),
            ({"consensus": {"branches": True}}, "consensus.branches"),
            ({"consensus": {"deadline_ticks": 32.0}}, "consensus.deadline_ticks"),
            ({"engine": {"decay": False}}, "engine.decay"),
        ],
    )
    def test_wrong_json_type_rejected(self, doc, name):
        with pytest.raises(ConfigError, match=name):
            Config.from_dict(doc)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_any_json_values_give_config_or_config_error(self, data):
        json_values = st.recursive(
            st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
            lambda inner: st.lists(inner) | st.dictionaries(st.text(), inner),
            max_leaves=5,
        )
        defaults = Config().to_dict()
        doc = {}
        for name in data.draw(st.sets(st.sampled_from(sorted(defaults)))):
            if isinstance(defaults[name], dict):
                keys = data.draw(st.sets(st.sampled_from(sorted(defaults[name]))))
                doc[name] = {key: data.draw(json_values) for key in keys}
            else:
                doc[name] = data.draw(json_values)
        try:
            Config.from_dict(doc)
        except ConfigError:
            pass

    def test_section_override(self):
        config = Config.from_dict({"engine": {"neurons": 16}, "seed": 9})
        assert config.engine.neurons == 16
        assert config.engine.decay == 0.999
        assert config.seed == 9


# Pieces that make byte strings look like JSON lines or weight files, so
# the loaders get past their first check more often than random bytes do.
FRAGMENTS = (
    b"[", b"]", b"{", b"}", b'"', b":", b",", b"\n", b"\r", b" ", b"1", b"-",
    b"1e999", b"null", b"true", b"NaN", b'"id"', b'"records"', b'"engine"',
    b"\xff", b"\xc3", b"\x00", MAGIC,
)


class TestMalformedBytes:
    @pytest.mark.parametrize(
        "load", [Config.load, load_tasks, read_logs, load_weights],
        ids=["config", "tasks", "logs", "weights"],
    )
    @settings(max_examples=150, deadline=None)
    @given(
        data=st.binary(max_size=200)
        | st.lists(st.sampled_from(FRAGMENTS), max_size=40).map(b"".join)
    )
    @example(data=b"[" * 100_000)
    @example(data=b"\xff\xfe\n")
    @example(data=b'{"seed": 1' + b"0" * 5000 + b"}")
    def test_any_bytes_give_a_named_error(self, tmp_path_factory, load, data):
        path = tmp_path_factory.getbasetemp() / "malformed_input"
        path.write_bytes(data)
        try:
            load(path)
        except TickslabError:
            pass


def model_tensors(model) -> dict:
    """Every overridable tensor of a model, by its container name."""
    return {
        "enc/vision": model.encoder.vision,
        "enc/audio": model.encoder.audio,
        "enc/proprio": model.encoder.proprio,
        "enc/fusion": model.encoder.fusion,
        "ctm/synapse": model.ctm.synapse_w,
        "ctm/readout_a": model.ctm.factor_a,
        "ctm/readout_b": model.ctm.factor_b,
        "ctm/bias": model.ctm.bias,
        "ctm/certainty": model.ctm.certainty_w,
        "affect/w1": model.affect.w1,
        "affect/w2": model.affect.w2,
        "router/action": model.action_head,
        "router/slots": model.slot_head,
        "actuator/mapping": model.actuator.mapping,
    }


class TestModelBuild:
    def test_deterministic_in_seed(self):
        config = Config(seed=5)
        registry = build_registry()
        m1 = build_model(config, len(registry), registry.max_slots)
        m2 = build_model(config, len(registry), registry.max_slots)
        assert np.array_equal(m1.encoder.fusion, m2.encoder.fusion)
        assert np.array_equal(m1.ctm.synapse_w, m2.ctm.synapse_w)
        assert np.array_equal(m1.ctm.pair_p, m2.ctm.pair_p)

    def test_weight_override(self, tmp_path):
        from tickslab.weights import save_weights

        config = Config(seed=5)
        registry = build_registry()
        base = build_model(config, len(registry), registry.max_slots)
        custom = np.zeros_like(base.ctm.factor_a)
        path = tmp_path / "w.bin"
        save_weights(path, {"ctm/readout_a": custom})
        import dataclasses

        config2 = dataclasses.replace(config, weights_path=str(path))
        model = build_model(config2, len(registry), registry.max_slots)
        assert np.array_equal(model.ctm.factor_a, custom)
        assert np.array_equal(model.ctm.factor_b, base.ctm.factor_b)

    def test_full_container_round_trip_rebuilds_identical_model(self, tmp_path):
        import dataclasses

        from tickslab.weights import save_weights

        config = Config(seed=8)
        registry = build_registry()
        base = build_model(config, len(registry), registry.max_slots)
        path = tmp_path / "model.bin"
        save_weights(path, model_tensors(base))
        # different seed, but every tensor overridden from the container
        other = dataclasses.replace(Config(seed=999), weights_path=str(path))
        rebuilt = build_model(other, len(registry), registry.max_slots)
        assert np.array_equal(rebuilt.encoder.fusion, base.encoder.fusion)
        assert np.array_equal(rebuilt.ctm.synapse_w, base.ctm.synapse_w)
        assert np.array_equal(rebuilt.ctm.bias, base.ctm.bias)
        assert np.array_equal(rebuilt.affect.w2, base.affect.w2)
        assert np.array_equal(rebuilt.actuator.mapping, base.actuator.mapping)

    def test_bad_override_shape(self, tmp_path):
        from tickslab.weights import save_weights

        path = tmp_path / "w.bin"
        save_weights(path, {"ctm/readout_a": np.zeros((2, 2), dtype=np.float32)})
        import dataclasses

        config = dataclasses.replace(Config(), weights_path=str(path))
        registry = build_registry()
        with pytest.raises(ConfigError):
            build_model(config, len(registry), registry.max_slots)

    @pytest.mark.parametrize("name", TENSOR_NAMES)
    def test_non_finite_override_is_a_config_error(self, tmp_path, capsys, name):
        from tickslab.weights import save_weights

        registry = build_registry()
        tensor = model_tensors(build_model(Config(), len(registry), registry.max_slots))[name]
        tensor = np.atleast_2d(tensor).copy()
        tensor.flat[tensor.size // 2] = np.nan
        weights = tmp_path / "w.bin"
        save_weights(weights, {name: tensor})
        config = dataclasses.replace(Config(), weights_path=str(weights))
        with pytest.raises(ConfigError, match=name):
            build_model(config, len(registry), registry.max_slots)

        config_path, tasks_path = tmp_path / "config.json", tmp_path / "tasks.jsonl"
        config.save(config_path)
        save_tasks(tasks_path, gen_tasks(1, 1))
        code = cli_main([
            "run", "--tasks", str(tasks_path), "--config", str(config_path),
            "--out", str(tmp_path / "out"),
        ])
        assert code == 2
        assert name in capsys.readouterr().err

    def test_bundles_carry_their_config_sections(self):
        config = Config(seed=2)
        registry = build_registry()
        model = build_model(config, len(registry), registry.max_slots)
        assert model.ctm.config is config.engine
        assert model.affect.config is config.affect
        assert model.actuator.config is config.actuator
        router = build_router_params(model, config, registry, ["cup"], episode_seed=7)
        assert router.config is config.router

    def test_plateau_window_reaches_halt_readout(self):
        config = Config(engine=EngineConfig(plateau_window=5))
        registry = build_registry()
        flat = {"ctm/certainty": np.zeros((4, config.engine.sync_pairs), dtype=np.float32)}
        model = build_model(config, len(registry), registry.max_slots, flat)
        sync = np.ones(config.engine.sync_pairs, dtype=np.float32)
        trace, halts = (), []
        for slab in range(1, 7):
            _, c, trace, halted = halt_readout(sync, trace, slab, 0.75, model.ctm)
            halts.append(halted)
        # certainty is 0 at every slab, so only the plateau can halt
        assert c == 0.0
        assert halts == [False] * 4 + [True] * 2
        assert len(trace) == 5
