import copy
import dataclasses
import hashlib
import inspect
import json
import math
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import model_tensors
from reference import composed_certainty
from tickslab.config import MAX_PARAMETERS, Config, ConsensusConfig, EngineConfig
from tickslab.engine import certainty, initial_state, run_slab
from tickslab.envelope import canonical_json_bytes
from tickslab.errors import (
    ConfigError,
    EmptyLogs,
    SchemaViolation,
    TickslabError,
)
from tickslab.harness import episode
from tickslab.harness.cli import main as cli_main
from tickslab.harness.episode import EpisodeLog, Policy, StepRecord, run_episode
from tickslab.harness import featurize as featurize_mod
from tickslab.harness.featurize import (
    TOKEN_CACHE_SIZE,
    featurize,
    goal_frames,
    scatter_tokens,
    token_probes,
    tokenize,
    world_tokens,
)
from tickslab.harness.metrics import (
    compute_metrics,
    read_logs,
    write_logs,
    write_report,
)
from tickslab.harness.tasks import gen_tasks, load_tasks, save_tasks
from tickslab.harness.world import (
    WAYPOINTS_PER_MOVE,
    WorldState,
    build_registry,
    demo_world,
    goal_holds,
    step_env,
    world_from_task,
)
from tickslab.params import build_model, build_router_params
from tickslab.registry import MAX_JOINTS
from tickslab.perception import WAVE_SAMPLES, encode_modality, fuse
from tickslab.rng import SplitMix64, fnv1a64
from tickslab.weights import MAGIC, load_weights, save_weights

# Canonical actuate reply to the duties planned from the fixed sync vector
# below (numpy 2.4.6).
ACTUATE_REPLY_SHA256 = "f93897936ae6aaa3f58af274cd58f976cc091d1b32d1272c8cdf96d24279f104"
# SHA-256 of the float32 bytes of the vision, audio and proprio frames and
# of the fused context vector for "move the cup" on demo_world(), default
# config (numpy 2.4.6).
FRAME_SHA256 = (
    "c71fd11cd6a15d2953e74b94b5684923f772b343fae2b705c1a1e107a4774284",
    "e877432e42a6310793457382bb136f0b74c47d64b204b7725be06468146cc200",
    "1bbdddfd55f9b7001fb493f90b5faf1937cc97e3fe851a80bdf1d9db5b2ba207",
)
FUSED_SHA256 = "988e6fe54a575541a245f5a3c2c4c42aefd726862ada6a82557a0de311a2b4cf"
TASKS50 = Path(__file__).parent / "fixtures" / "tasks50.jsonl"


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=6,
)


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
        assert str(err.value) == "line 3: goal: missing field"

    def test_bad_json_names_line(self, tmp_path):
        good = json.dumps(
            {
                "id": "t", "goal": "g", "context": [],
                "steps": [{"tool": "noop", "args": {}, "expected": "x"}],
            }
        )
        path = tmp_path / "tasks.jsonl"
        path.write_text(good + "\n{nope\n")
        with pytest.raises(SchemaViolation) as err:
            load_tasks(path)
        assert err.value.path == "line 2"

    def test_args_must_be_in_context(self, tmp_path):
        doc = {
            "id": "t", "goal": "g", "context": ["cup"],
            "steps": [{"tool": "pick", "args": {"object": "plate"}, "expected": "x"}],
        }
        path = tmp_path / "tasks.jsonl"
        path.write_text(json.dumps(doc) + "\n")
        with pytest.raises(SchemaViolation):
            load_tasks(path)

    def test_unknown_step_key_rejected(self, tmp_path):
        doc = {
            "id": "t", "goal": "g", "context": [],
            "steps": [{"tool": "noop", "args": {}, "expected": "x", "why": "y"}],
        }
        path = tmp_path / "tasks.jsonl"
        path.write_text(json.dumps(doc) + "\n")
        with pytest.raises(SchemaViolation) as err:
            load_tasks(path)
        assert str(err.value) == "line 1: steps[0].why: unknown field"

    @pytest.mark.parametrize(
        "line, named",
        [
            ({"": 1}, "''"),
            ({"id": "t", "goal": "g", "context": [],
              "steps": [{"tool": "noop", "args": {}, "expected": "x", "": 1}]}, "steps[0].''"),
        ],
        ids=["task", "step"],
    )
    def test_an_empty_key_is_named(self, tmp_path, line, named):
        path = tmp_path / "tasks.jsonl"
        path.write_text(json.dumps(line) + "\n")
        with pytest.raises(SchemaViolation) as err:
            load_tasks(path)
        assert str(err.value) == f"line 1: {named}: unknown field"

    def test_tool_the_world_does_not_run_rejected(self, tmp_path):
        # such a step used to load, and the oracle's episode then ended in error
        steps = [{"tool": "noop", "args": {}, "expected": "x"},
                 {"tool": "fly", "args": {}, "expected": "x"}]
        path = tmp_path / "tasks.jsonl"
        path.write_text(json.dumps({"id": "t1", "goal": "g", "context": [], "steps": steps}) + "\n")
        with pytest.raises(SchemaViolation) as err:
            load_tasks(path)
        assert str(err.value) == "line 1: steps[1].tool: 'fly' is not a tool the world runs"

    def test_a_record_holding_a_bare_cr_loads(self, tmp_path):
        # lines end at LF alone, as transport frames do, and CR is JSON whitespace
        line = TASKS50.read_bytes().split(b"\n")[0]
        path = tmp_path / "tasks.jsonl"
        path.write_bytes(line.replace(b'"goal"', b'\r"goal"', 1) + b"\n")
        assert load_tasks(path) == load_tasks(TASKS50)[:1]

    def test_crlf_line_ends_read_as_lf_ends(self, tmp_path):
        path = tmp_path / "tasks.jsonl"
        path.write_bytes(TASKS50.read_bytes().replace(b"\n", b"\r\n"))
        assert load_tasks(path) == load_tasks(TASKS50)

    def test_a_bad_line_in_a_crlf_file_is_named_by_its_lf_count(self, tmp_path):
        lines = TASKS50.read_bytes().split(b"\n")[:4]
        lines[2] = b"{nope"
        path = tmp_path / "tasks.jsonl"
        path.write_bytes(b"\r\n".join(lines) + b"\r\n")
        with pytest.raises(SchemaViolation) as err:
            load_tasks(path)
        assert err.value.path == "line 3"

    def test_records_parted_by_bare_crs_are_one_line(self, tmp_path):
        # not JSON Lines: the transport refuses such a frame as well
        path = tmp_path / "tasks.jsonl"
        path.write_bytes(b"\r".join(TASKS50.read_bytes().split(b"\n")[:2]) + b"\n")
        with pytest.raises(SchemaViolation) as err:
            load_tasks(path)
        assert err.value.path == "line 1"


class TestGenTasks:
    def test_byte_identical_outputs(self, tmp_path):
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_tasks(p1, gen_tasks(99, 50))
        save_tasks(p2, gen_tasks(99, 50))
        assert p1.read_bytes() == p2.read_bytes()

    def test_different_seeds_differ(self):
        a = [dataclasses.asdict(t) for t in gen_tasks(1, 10)]
        b = [dataclasses.asdict(t) for t in gen_tasks(2, 10)]
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
        assert world.objects[first_pick.args["object"]] == first_nav.args["to"]
        assert world.robot_at == "dock"

    def test_pick_success_and_held_flag(self):
        world = WorldState(objects={"cup": "table"}, robot_at="table")
        new, result = step_env(world, "pick", {"object": "cup"})
        assert result.status == "ok"
        assert new.held == "cup" and new.objects["cup"] == "table"
        assert world.held is None  # old state untouched

    def test_pick_while_holding_fails_without_mutation(self):
        world = WorldState(objects={"cup": "table", "jar": "table"}, robot_at="table", held="cup")
        new, result = step_env(world, "pick", {"object": "jar"})
        assert result.payload == {"reason": "already holding cup"}
        assert new is world

    def test_pick_wrong_location_fails(self):
        world = WorldState(objects={"cup": "shelf"}, robot_at="table")
        new, result = step_env(world, "pick", {"object": "cup"})
        assert result.payload == {"reason": "cup is at shelf, robot is at table"}
        assert new is world

    def test_place_requires_holding(self):
        world = WorldState(objects={"cup": "shelf", "jar": "table"}, robot_at="table", held="jar")
        new, result = step_env(world, "place", {"object": "cup"})
        assert result.payload == {"reason": "not holding cup"}
        assert new is world

    def test_place_moves_object_to_robot(self):
        world = WorldState(objects={"cup": "shelf"}, robot_at="sink", held="cup")
        new, result = step_env(world, "place", {"object": "cup"})
        assert result.payload == {"placed": "cup", "at": "sink"}
        assert new.objects == {"cup": "sink"} and new.held is None
        assert world.objects == {"cup": "shelf"} and world.held == "cup"

    def test_navigate_always_succeeds(self):
        world = demo_world()
        new, result = step_env(world, "navigate", {"to": "far-away"})
        assert result.status == "ok"
        assert new.robot_at == "far-away"

    def test_noop_no_mutation(self):
        world = demo_world()
        new, result = step_env(world, "noop", {})
        assert result.status == "ok"
        assert new is world

    def test_unknown_tool_is_an_error_result(self):
        world = demo_world()
        new, result = step_env(world, "warp", {})
        assert new is world
        assert result.status == "error"

    def test_actuate_runs_the_chain(self):
        # the controller plans the duties into the call; the tool echoes them
        config = Config()
        registry = build_registry()
        model = build_model(config, len(registry), registry.max_slots)
        sync = np.random.default_rng(0).normal(size=256).astype(np.float32)
        args = episode.call_args(registry.get("actuate"), {}, sync, model.actuator)
        assert list(args) == ["duty"]
        world = demo_world()
        new, result = step_env(world, "actuate", args)
        assert result.status == "ok" and new is world
        duties = result.payload["duty"]
        assert duties == args["duty"] and len(duties) == 12
        assert all(0.0 <= d <= 1.0 for d in duties)
        assert result.payload["waypoints"] == WAYPOINTS_PER_MOVE
        reply = canonical_json_bytes({"status": result.status, "payload": result.payload})
        assert hashlib.sha256(reply).hexdigest() == ACTUATE_REPLY_SHA256

    @pytest.mark.parametrize(
        "args",
        [
            {},
            {"duty": 0.5},
            {"duty": [0.5, "0.5"]},
            {"duty": [True]},
            {"duty": [None]},
            {"duty": [[0.5]]},
            {"duty": [1.5]},
            {"duty": [-0.25]},
            {"duty": [float("nan")]},
            {"duty": [float("inf")]},
            {"duty": [0.5] * (MAX_JOINTS + 1)},
        ],
        ids=["absent", "scalar", "string", "bool", "null", "nested", "above", "below",
             "nan", "inf", "too-many"],
    )
    def test_actuate_refuses_a_bad_duty_list(self, args):
        world = demo_world()
        new, result = step_env(world, "actuate", args)
        assert result.status == "error" and new is world
        assert "duty list" in result.payload["reason"]

    @pytest.mark.parametrize("duty", [[], [0, 1], [0.0, 0.5, 1.0], [0.25] * MAX_JOINTS])
    def test_actuate_echoes_a_valid_duty_list(self, duty):
        _, result = step_env(demo_world(), "actuate", {"duty": duty})
        assert result.payload == {"duty": duty, "waypoints": WAYPOINTS_PER_MOVE}

    def test_goal_predicates(self):
        world = WorldState(objects={"cup": "table", "jar": "x"}, robot_at="sink", held="jar")
        assert goal_holds(world, "robot_at:sink")
        assert not goal_holds(world, "robot_at:table")
        assert goal_holds(world, "at:cup:table")
        assert not goal_holds(world, "at:jar:x")  # held objects are not "at"
        assert goal_holds(world, "holding:jar")
        assert not goal_holds(world, "nonsense")
        # a location is any name navigate takes, colons included
        world = WorldState(objects={"cup": "a:b"}, robot_at=":", held=None)
        assert goal_holds(world, "at:cup:a:b") and goal_holds(world, "robot_at::")

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 2**16), demo=st.booleans())
    def test_any_call_sequence_keeps_the_world_consistent(self, data, seed, demo):
        state = demo_world() if demo else world_from_task(gen_tasks(seed, 1)[0])
        names = set(state.objects)
        places = sorted({*state.objects.values(), state.robot_at})
        # known names, unknown ones and values that are not strings
        other = st.text(max_size=6) | JSON_VALUES
        slots = {
            "navigate": ("to", st.sampled_from(places) | other),
            "pick": ("object", st.sampled_from(sorted(names)) | other),
            "place": ("object", st.sampled_from(sorted(names)) | other),
            "actuate": ("duty", st.lists(st.floats(0, 1), max_size=MAX_JOINTS) | other),
        }
        for _ in range(data.draw(st.integers(1, 40))):
            tool = data.draw(st.sampled_from(["navigate", "pick", "place", "noop", "actuate"]))
            args = {}
            if tool in slots:
                key, values = slots[tool]
                args[key] = data.draw(values)
            new, result = step_env(state, tool, args)
            assert new.held is None or new.held in new.objects
            assert set(new.objects) == names
            if result.status == "error":
                assert new is state
            elif tool == "pick":
                assert state.held is None and new.held == args["object"]
            elif tool == "place":
                assert goal_holds(new, f"at:{args['object']}:{new.robot_at}")
            for name in names:
                assert goal_holds(new, f"holding:{name}") == (new.held == name)
            state = new


class TestFeaturize:
    def test_deterministic(self):
        config = Config()
        world = demo_world()
        f1 = (*goal_frames("move the cup", config.perception), featurize(world, config.perception))
        f2 = (*goal_frames("move the cup", config.perception), featurize(world, config.perception))
        for a, b in zip(f1, f2, strict=True):
            assert np.array_equal(a, b)

    def test_shapes(self):
        config = Config()
        vision, audio = goal_frames("move the cup", config.perception)
        proprio = featurize(demo_world(), config.perception)
        assert vision.shape == (768,)
        assert audio.shape == (80,)
        assert proprio.shape == (64,)
        assert vision.dtype == audio.dtype == proprio.dtype == np.float32

    def test_goal_changes_vision_frame(self):
        config = Config()
        a = goal_frames("move the cup", config.perception)
        b = goal_frames("stack the plates", config.perception)
        assert not np.array_equal(a[0], b[0])
        assert not np.array_equal(a[1], b[1])

    def test_world_changes_proprio_frame(self):
        config = Config()
        a = featurize(demo_world(), config.perception)
        moved, _ = step_env(demo_world(), "navigate", {"to": "shelf"})
        b = featurize(moved, config.perception)
        assert not np.array_equal(a, b)

    def test_frames_and_fused_context_are_pinned(self):
        config = Config()
        registry = build_registry()
        enc = build_model(config, len(registry), registry.max_slots).encoder
        frames = (
            *goal_frames("move the cup", config.perception),
            featurize(demo_world(), config.perception),
        )
        assert tuple(hashlib.sha256(x.tobytes()).hexdigest() for x in frames) == FRAME_SHA256
        latents = [encode_modality(x, w) for x, w in zip(frames, (enc.vision, enc.audio, enc.proprio))]
        fused = fuse(*latents, enc)
        assert fused.dtype == np.float32
        assert hashlib.sha256(fused.tobytes()).hexdigest() == FUSED_SHA256

    def test_scatter_is_sparse_and_finite(self):
        vec = scatter_tokens(tokenize("Move the cup, now!"), 128)
        assert np.all(np.isfinite(vec))
        assert np.count_nonzero(vec) <= 4 * 4  # tokens * probes



def uncached_scatter(tokens, dim):
    """The feature-hashing loop as it was before the per-token cache."""
    frame = np.zeros(dim, dtype=np.float64)
    for token in tokens:
        stream = SplitMix64(fnv1a64(token))
        for _ in range(4):
            raw = stream.next_u64()
            sign = 1.0 if (raw >> 63) == 0 else -1.0
            frame[raw % dim] += sign * 0.5
    return frame.astype(np.float32)


# few distinct tokens so that lists repeat them; any text, so non-ASCII too
cache_tokens = st.lists(
    st.one_of(st.sampled_from(["cup@table", "robot@sink", "cup:held", "é@ü"]), st.text(max_size=12)),
    max_size=24,
)
widths = st.integers(min_value=1, max_value=1024)
worlds = st.dictionaries(st.text(max_size=8), st.text(max_size=8), max_size=6).flatmap(
    lambda objects: st.builds(
        WorldState,
        objects=st.just(objects),
        robot_at=st.text(max_size=8),
        held=(st.none() | st.sampled_from(sorted(objects))) if objects else st.none(),
    )
)


class TestTokenCache:
    @settings(max_examples=200, deadline=None)
    @given(tokens=cache_tokens, dim=widths)
    @example(tokens=[], dim=1)
    @example(tokens=["cup@table"] * 9, dim=1024)
    def test_scatter_equals_the_uncached_loop(self, tokens, dim):
        assert scatter_tokens(tokens, dim).tobytes() == uncached_scatter(tokens, dim).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(world=worlds, goal=st.text(max_size=40), dim=widths)
    def test_frames_equal_the_uncached_loop(self, world, goal, dim):
        dims = dataclasses.replace(Config().perception, vision_in=dim, proprio_in=dim)
        proprio = featurize(world, dims)
        assert proprio.tobytes() == uncached_scatter(world_tokens(world), dim).tobytes()
        assert featurize(world, dims).tobytes() == proprio.tobytes()
        vision, audio = goal_frames(goal, dims)
        assert vision.tobytes() == uncached_scatter(tokenize(goal), dim).tobytes()
        assert audio.tobytes() == goal_frames(goal, Config().perception)[1].tobytes()

    def test_each_width_gets_its_own_indices(self):
        wide = token_probes("cup@table", 768)
        narrow = token_probes("cup@table", 64)
        stream = SplitMix64(fnv1a64("cup@table"))
        raws = [stream.next_u64() for _ in range(4)]
        assert [i for i, _ in wide] == [raw % 768 for raw in raws]
        assert [i for i, _ in narrow] == [raw % 64 for raw in raws]
        assert wide != narrow
        assert scatter_tokens(["cup@table"], 64).tobytes() == uncached_scatter(["cup@table"], 64).tobytes()

    def test_second_featurize_hashes_nothing(self, monkeypatch):
        calls = {"fnv1a64": 0, "SplitMix64": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            monkeypatch.setattr(featurize_mod, name, wrapper)

        counted("fnv1a64", fnv1a64)
        counted("SplitMix64", SplitMix64)
        token_probes.cache_clear()
        dims = Config().perception
        first = featurize(demo_world(), dims)
        tokens = len(world_tokens(demo_world()))
        assert calls == {"fnv1a64": tokens, "SplitMix64": tokens}
        calls.update(fnv1a64=0, SplitMix64=0)
        assert featurize(demo_world(), dims).tobytes() == first.tobytes()
        assert calls == {"fnv1a64": 0, "SplitMix64": 0}

    def test_cache_is_bounded(self):
        assert token_probes.cache_info().maxsize == TOKEN_CACHE_SIZE
        assert 0 < TOKEN_CACHE_SIZE < 1 << 20


class TestFrameGuarantees:
    """What ``encode_modality`` and ``spectrum`` take unchecked from the featurizer."""

    @settings(max_examples=100, deadline=None)
    @given(world=worlds, goal=st.text())
    def test_frames_are_finite_for_any_goal_and_world(self, world, goal):
        dims = Config().perception
        for frame in (*goal_frames(goal, dims), featurize(world, dims)):
            assert np.all(np.isfinite(frame))

    @settings(max_examples=20, deadline=None)
    @given(goal=st.text(max_size=40))
    def test_audio_frame_has_audio_in_bins(self, goal):
        for audio_in in range(1, WAVE_SAMPLES // 2 + 1):
            dims = dataclasses.replace(Config().perception, audio_in=audio_in)
            assert goal_frames(goal, dims)[1].shape == (audio_in,)

class TestMetrics:
    def _log(self, task_id, outcome, statuses):
        records = [
            StepRecord(i, 1, 4, 0.5, 0.75, "noop", {}, s, False)
            for i, s in enumerate(statuses)
        ]
        return EpisodeLog(
            task_id=task_id, records=records, outcome=outcome, steps_used=len(statuses)
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
        assert replayed[0].records == logs[0].records

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
        with pytest.raises(SchemaViolation, match=f"line 2: {field}") as info:
            read_logs(path)
        assert info.value.path == "line 2"
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
        with pytest.raises(SchemaViolation, match=re.escape(f"line 1: records[0].{field}: expected")):
            read_logs(path)

    @pytest.mark.parametrize(
        "where, field, value",
        [
            ("log", "outcome", "banana"), ("record", "tool_status", "weird"),
            ("log", "steps_used", 999), ("log", "steps_used", 1),
        ],
    )
    def test_log_the_program_cannot_write_names_line_and_field(
        self, tmp_path, capsys, where, field, value
    ):
        # each field is well typed; run_episode writes only the two statuses,
        # the three outcomes and one step per record
        doc = self._log("a", "success", ["ok", "error"]).to_dict()
        (doc if where == "log" else doc["records"][1])[field] = value
        path = tmp_path / "episodes.jsonl"
        path.write_text(json.dumps(doc) + "\n")
        named = field if where == "log" else f"records[1].{field}"
        with pytest.raises(SchemaViolation, match=re.escape(f"line 1: {named}: must")):
            read_logs(path)
        assert cli_main(["metrics", "--logs", str(tmp_path)]) == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["c_merged", "epsilon"])
    @pytest.mark.parametrize(
        "text, shown", [("NaN", "nan"), ("Infinity", "inf"), ("-Infinity", "-inf"), ("1e400", "inf")]
    )
    def test_non_finite_float_names_line_and_field(self, tmp_path, capsys, field, text, shown):
        # run_episode writes only finite floats: certainty is finite, and the
        # canonical encoder refuses any other
        doc = self._log("a", "success", ["ok", "ok"]).to_dict()
        doc["records"][1][field] = "@"
        path = tmp_path / "episodes.jsonl"
        path.write_text(json.dumps(doc).replace('"@"', text) + "\n")
        refusal = f"line 1: records[1].{field}: expected float, got {shown}"
        with pytest.raises(SchemaViolation, match=re.escape(refusal)):
            read_logs(path)
        assert cli_main(["metrics", "--logs", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: {refusal}\n"

    @pytest.mark.parametrize("where", ["log", "record"])
    def test_unknown_key_names_line_and_key(self, tmp_path, where):
        doc = self._log("a", "success", ["ok", "ok"]).to_dict()
        (doc if where == "log" else doc["records"][1])["extra"] = 1
        path = tmp_path / "episodes.jsonl"
        path.write_text(json.dumps(doc) + "\n")
        key = "extra" if where == "log" else "records[1].extra"
        with pytest.raises(SchemaViolation, match=re.escape(f"line 1: {key}: unknown field")):
            read_logs(path)

    @pytest.mark.parametrize("where", ["log", "record"])
    def test_an_empty_key_is_named(self, tmp_path, where):
        doc = self._log("a", "success", ["ok", "ok"]).to_dict()
        (doc if where == "log" else doc["records"][1])[""] = 1
        path = tmp_path / "episodes.jsonl"
        path.write_text(json.dumps(doc) + "\n")
        named = "''" if where == "log" else "records[1].''"
        with pytest.raises(SchemaViolation) as err:
            read_logs(path)
        assert str(err.value) == f"line 1: {named}: unknown field"

    def test_missing_outcome_names_line_and_field(self, tmp_path):
        doc = self._log("a", "success", ["ok"]).to_dict()
        del doc["outcome"]
        path = tmp_path / "episodes.jsonl"
        path.write_text(json.dumps(doc) + "\n")
        with pytest.raises(SchemaViolation, match="line 1: .*outcome"):
            read_logs(path)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_any_json_on_a_log_line_gives_logs_or_parse_error(self, tmp_path_factory, data):
        doc = self._log("a", "success", ["ok", "error"]).to_dict()
        where = data.draw(st.sampled_from(["line", "log", "record"]))
        if where == "line":
            doc = data.draw(JSON_VALUES)
        elif where == "log":
            doc[data.draw(st.sampled_from(sorted(doc)))] = data.draw(JSON_VALUES)
        else:
            record = doc["records"][data.draw(st.integers(0, 1))]
            record[data.draw(st.sampled_from(sorted(record)))] = data.draw(JSON_VALUES)
        path = tmp_path_factory.getbasetemp() / "any_log.jsonl"
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
        try:
            logs = read_logs(path)
        except SchemaViolation:
            return
        compute_metrics(logs)


class TestConfig:
    def test_defaults_round_trip(self, tmp_path):
        config = Config()
        path = tmp_path / "config.json"
        path.write_text(json.dumps(dataclasses.asdict(config)), encoding="utf-8")
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
        "actuator": ("joints",),
    }
    FLOATS = [
        (section, key)
        for section, fields in dataclasses.asdict(Config()).items()
        if isinstance(fields, dict)
        for key, value in fields.items()
        if type(value) is float
    ]

    # 64 neurons x (8 history + ticks) + 4 branches x 256 pairs == the cap
    TICKS_AT_CAP = MAX_PARAMETERS // 64 - 8 - 16

    @pytest.mark.parametrize(
        "doc, name",
        [
            ({"engine": {"neurons": -3, "sync_pairs": 4}}, "engine.neurons"),
            *(
                ({section: {key: 0}}, f"{section}.{key}")
                for section, keys in SIZES.items()
                for key in keys
            ),
            ({"actuator": {"joints": -1}}, "actuator.joints"),
            ({"engine": {"logit_count": 1}}, "engine.logit_count"),
            ({"consensus": {"deadline_ticks": -5}}, "consensus.deadline_ticks"),
            ({"consensus": {"deadline_ms": float("nan")}}, "consensus.deadline_ms"),
            ({"consensus": {"deadline_ms": 0.0}}, "consensus.deadline_ms"),
            ({"perception": {"audio_in": 200}}, "perception.audio_in"),
            ({"perception": {"audio_in": 129}}, "perception.audio_in"),
            # the removed actuator.samples_per_move knob is an unknown key now
            ({"actuator": {"samples_per_move": 10}}, "samples_per_move"),
            *(
                ({section: {key: bad}}, f"{section}.{key}")
                for section, key in FLOATS
                for bad in (float("inf"), float("-inf"), float("nan"))
            ),
            ({"affect": {"epsilon0": 10**400}}, "affect.epsilon0"),
            ({"engine": {"halt_cap": 1.5}}, "engine.halt_cap"),
            ({"engine": {"carry_beta": -0.1}}, "engine.carry_beta"),
            # past the weight cap: the error names the largest tensor's keys
            ({"perception": {"vision_in": 2**70}}, "perception.vision_in"),
            ({"engine": {"rank": 2**70}}, "engine.rank"),
            ({"router": {"slot_embed_width": 2**70}}, "router.slot_embed_width"),
            ({"affect": {"hidden": 2**70}}, "affect.hidden"),
            ({"engine": {"neurons": 100_000}}, "engine.neurons"),
            ({"actuator": {"joints": MAX_PARAMETERS}}, "actuator.joints"),
            # past the same cap through a decision step's work arrays
            ({"engine": {"ticks_per_slab": 2**70}}, "engine.ticks_per_slab"),
            ({"consensus": {"branches": 2**40}}, "consensus.branches"),
            ({"engine": {"ticks_per_slab": TICKS_AT_CAP + 1}}, "engine.ticks_per_slab"),
            # an actuate call carries at most MAX_JOINTS duty cycles
            ({"actuator": {"joints": MAX_JOINTS + 1}}, "actuator.joints"),
            # a halting threshold that the affect norm could push past the floats
            ({"affect": {"epsilon0": 1.7e308, "alpha": 2.0}}, "affect.epsilon0"),
            # a plateau's spread is never negative, so a negative bound acts as 0
            ({"engine": {"plateau_epsilon": -1.0}}, "engine.plateau_epsilon"),
        ],
    )
    def test_out_of_range_value_rejected(self, doc, name):
        with pytest.raises(ConfigError, match=name):
            Config.from_dict(doc)

    def test_range_edges_accepted(self):
        config = Config.from_dict({
            "perception": {"audio_in": 128},
            "consensus": {"deadline_ticks": 0},
            "engine": {"halt_cap": 1.0, "carry_beta": 0.0, "ticks_per_slab": self.TICKS_AT_CAP},
            "actuator": {"joints": MAX_JOINTS},
        })
        assert config.perception.audio_in == 128

    def test_weight_counts_equal_the_built_model(self):
        small = Config.from_dict({
            "engine": {"neurons": 16, "history": 4, "rank": 2, "sync_pairs": 32},
            "affect": {"hidden": 8}, "router": {"slot_embed_width": 3},
        })
        cases = [(Config(), 1, 1), (small, 1, 1), (Config(), 6, 3), (small, 2, 5)]
        for config, tools, slots in cases:
            built = model_tensors(build_model(config, registry_size=tools, max_slots=slots))
            table = config.tensor_shapes(tools, slots)
            assert [name for name, *_ in table] == list(built)
            for name, rows, cols, _ in table:
                assert np.atleast_2d(built[name]).shape == (rows, cols), name
        assert sum(rows * cols for _, rows, cols, _ in Config().tensor_shapes()) <= MAX_PARAMETERS

    def test_every_sizing_key_is_a_config_field(self):
        fields = {
            f"{section}.{key}"
            for section, keys in dataclasses.asdict(Config()).items()
            if isinstance(keys, dict)
            for key in keys
        }
        for name, _, _, sizes in Config().tensor_shapes():
            named = re.findall(r"\w+\.\w+", sizes)
            assert named and set(named) <= fields, (name, sizes)

    # consensus.branches sizes no weight, only the branch readouts
    SIZE_KEYS = [(section, key) for section, keys in SIZES.items() for key in keys]
    SIZE_KEYS.append(("consensus", "branches"))

    @given(st.dictionaries(
        st.sampled_from(SIZE_KEYS),
        st.one_of(st.integers(1, 2**12), st.integers(1, 2**80)),
        max_size=4,
    ))
    @settings(max_examples=200, deadline=None)
    def test_any_size_gives_a_bounded_model_or_a_config_error(self, sizes):
        doc = {}
        for (section, key), value in sizes.items():
            doc.setdefault(section, {})[key] = value
        try:
            config = Config.from_dict(doc)
        except ConfigError:
            return
        e = config.engine
        assert sum(rows * cols for _, rows, cols, _ in config.tensor_shapes()) <= MAX_PARAMETERS
        window = e.neurons * (e.history + e.ticks_per_slab)
        assert window + config.consensus.branches * e.sync_pairs <= MAX_PARAMETERS

    # the first tasks50 task, cut to 3 steps
    SHORT_TASK = dataclasses.replace(
        load_tasks(TASKS50)[0], budget_steps=3
    )

    @given(
        st.dictionaries(st.sampled_from(SIZE_KEYS), st.integers(1, 12)),
        st.one_of(st.none(), st.integers(2, 6)),
    )
    @settings(max_examples=60, deadline=None)
    def test_any_accepted_size_runs_without_error(self, sizes, logit_count):
        # the layers check no shapes: the config and build_model do, once
        doc = {"engine": {"logit_count": logit_count}} if logit_count else {}
        for (section, key), value in sizes.items():
            doc.setdefault(section, {})[key] = value
        registry = build_registry()
        try:
            config = Config.from_dict(doc)
            model = build_model(config, len(registry), registry.max_slots)
        except ConfigError:
            return
        for policy in Policy:
            log = run_episode(self.SHORT_TASK, config, policy, model)
            assert log.outcome != "error", (doc, policy)

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
        defaults = dataclasses.asdict(Config())
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


class TestNumbers:
    """The config, task and log readers take a number exactly when a float64
    holds it: one finite-float rule for every outside JSON number."""

    REFUSED = ["NaN", "Infinity", "-Infinity", "1e400", str(10**400)]
    ACCEPTED = ["1.7976931348623157e308", str(2**1000)]

    def test_every_reader_takes_the_same_numbers(self, tmp_path):
        task = json.loads(TASKS50.read_text().splitlines()[0])
        task["steps"][0]["args"]["to"] = "@"
        record = StepRecord(0, 1, 4, "@", 0.75, "noop", {}, "ok", False)
        readers = [  # (load, its error, a doc with "@" for the number, field, read back)
            (Config.load, ConfigError, {"consensus": {"deadline_ms": "@"}},
             "consensus.deadline_ms", lambda config: config.consensus.deadline_ms),
            (load_tasks, SchemaViolation, task,
             "steps[0].args.to", lambda tasks: tasks[0].steps[0].args["to"]),
            (read_logs, SchemaViolation, EpisodeLog("a", [record], "success", 1).to_dict(),
             "records[0].c_merged", lambda logs: logs[0].records[0].c_merged),
        ]
        path = tmp_path / "input.jsonl"
        for load, error, doc, field, read_back in readers:
            for text in self.REFUSED + self.ACCEPTED:
                path.write_text(json.dumps(doc).replace('"@"', text) + "\n")
                if text in self.ACCEPTED:
                    assert read_back(load(path)) == json.loads(text)
                    continue
                with pytest.raises(error) as err:
                    load(path)
                assert field in str(err.value), (field, text[:12])

    @pytest.mark.parametrize(
        "doc, field",
        [
            ({"engine": {"neurons": 10**5000}}, "engine.neurons"),        # the size refusal
            ({"engine": {"sync_pairs": 10**5000}}, "engine.sync_pairs"),  # a range rule
            ({"affect": {"epsilon0": 10**5000}}, "affect.epsilon0"),      # the type rule
            ({"router": {"gamma": 10**5000}}, "router.gamma"),
        ],
        ids=["size", "rule", "type-epsilon0", "type-gamma"],
    )
    def test_an_int_past_the_digit_limit_is_named_by_its_bit_length(self, doc, field):
        # only a config built in code can hold one: json.loads refuses the literal
        with pytest.raises(ConfigError) as err:
            Config.from_dict(doc)
        assert field in str(err.value) and re.search(r"<int of \d+ bits>", str(err.value))


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


def json_paths(doc, path=()):
    """The path of every node of a JSON document, the root first."""
    yield path
    if isinstance(doc, (dict, list)):
        for key, child in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield from json_paths(child, (*path, key))


def edit_bytes(data, blob: bytes) -> bytes:
    """``blob`` with one to eight runs of up to 4 bytes replaced by up to 4 others."""
    out = bytearray(blob)
    for _ in range(data.draw(st.integers(1, 8))):
        at, cut = data.draw(st.integers(0, len(out))), data.draw(st.integers(0, 4))
        out[at : at + cut] = data.draw(st.binary(max_size=4) | st.sampled_from(FRAGMENTS))
    return bytes(out)


def json_lines(docs: list) -> bytes:
    return b"".join(json.dumps(doc).encode() + b"\n" for doc in docs)


def edit_json(data, docs: list) -> bytes:
    """JSON lines of ``docs`` with one node replaced by any JSON value or deleted."""
    docs = copy.deepcopy(docs)
    *where, key = data.draw(st.sampled_from(list(json_paths(docs))[1:]))
    parent = docs
    for step in where:
        parent = parent[step]
    if data.draw(st.booleans()):
        parent[key] = data.draw(JSON_VALUES)
    else:
        del parent[key]
    return json_lines(docs)


# A small model, so that edits to its weight file often reach a header.
SMALL = Config.from_dict({
    "perception": {
        "vision_in": 3, "audio_in": 3, "proprio_in": 3, "vision_latent": 2,
        "audio_latent": 2, "proprio_latent": 2, "fusion_dim": 3,
    },
    "engine": {"neurons": 3, "history": 2, "rank": 1, "sync_pairs": 4},
    "affect": {"hidden": 2}, "router": {"slot_embed_width": 1}, "actuator": {"joints": 1},
})


class TestInputFuzz:
    """Random edits of a valid file of each kind read by the runtime give a
    result or a named ``TickslabError``, never another exception."""

    REGISTRY = build_registry()
    STEP = StepRecord(0, 1, 4, 0.5, 0.75, "noop", {}, "ok", False)
    DOCS = {
        "config": [dataclasses.asdict(SMALL)],
        "tasks": [dataclasses.asdict(task) for task in gen_tasks(3, 2)],
        "logs": [
            EpisodeLog("a", [STEP], "success", 1).to_dict(),
            EpisodeLog("b", [], "budget_exhausted", 0).to_dict(),
        ],
    }

    def use(self, kind, path):
        if kind == "config":
            return Config.load(path)
        if kind == "tasks":
            return [world_from_task(task) for task in load_tasks(path)]
        if kind == "logs":
            return compute_metrics(read_logs(path))
        with_weights = dataclasses.replace(SMALL, weights_path=str(path))
        return build_model(with_weights, len(self.REGISTRY), self.REGISTRY.max_slots)

    def valid_bytes(self, kind, path):
        if kind != "weights":
            return json_lines(self.DOCS[kind])
        model = build_model(SMALL, len(self.REGISTRY), self.REGISTRY.max_slots)
        save_weights(path, model_tensors(model))
        return path.read_bytes()

    @pytest.mark.parametrize("kind", ["config", "tasks", "logs", "weights"])
    def test_unedited_input_gives_a_result(self, tmp_path, kind):
        path = tmp_path / kind
        path.write_bytes(self.valid_bytes(kind, path))
        assert self.use(kind, path) is not None

    @pytest.mark.parametrize("kind", ["config", "tasks", "logs", "weights"])
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_edited_input_gives_a_result_or_a_named_error(self, tmp_path_factory, kind, data):
        path = tmp_path_factory.getbasetemp() / f"edited_{kind}"
        if kind != "weights" and data.draw(st.booleans()):
            blob = edit_json(data, self.DOCS[kind])
        else:
            blob = edit_bytes(data, self.valid_bytes(kind, path))
        path.write_bytes(blob)
        try:
            self.use(kind, path)
        except TickslabError:
            pass

    @pytest.mark.parametrize("kind", ["tasks", "logs"])
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_a_refused_line_is_named_once(self, tmp_path_factory, kind, data):
        # the reader prefixes "line N" to the line's own refusal, which is
        # then never empty: "line 1: : expected an object" has an empty field
        path = tmp_path_factory.getbasetemp() / f"refused_{kind}"
        edit = data.draw(st.sampled_from(["line", "node", "bytes"]))
        if edit == "line":
            blob = json_lines([self.DOCS[kind][0], data.draw(JSON_VALUES)])
        elif edit == "node":
            blob = edit_json(data, self.DOCS[kind])
        else:
            blob = edit_bytes(data, self.valid_bytes(kind, path))
        path.write_bytes(blob)
        try:
            (load_tasks if kind == "tasks" else read_logs)(path)
        except SchemaViolation as exc:
            assert re.match(r"line \d+: ", str(exc))
            # a fuzzed key may itself hold ": :", so the empty field is read
            # off the parts, not searched for in the message
            assert re.fullmatch(r"line \d+", exc.path) and exc.detail
            assert str(exc) == f"{exc.path}: {exc.detail}"


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

    @pytest.mark.parametrize("name", [name for name, *_ in Config().tensor_shapes()])
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
        config_path.write_text(json.dumps(dataclasses.asdict(config)), encoding="utf-8")
        save_tasks(tasks_path, gen_tasks(1, 1))
        code = cli_main([
            "run", "--tasks", str(tasks_path), "--config", str(config_path),
            "--out", str(tmp_path / "out"),
        ])
        assert code == 2
        assert name in capsys.readouterr().err

    @settings(max_examples=150, deadline=None)
    @given(
        weight_exp=st.floats(-3, 38),
        shift=st.floats(-40, 2),
        sign=st.sampled_from([1.0, -1.0]),
        decay=st.sampled_from([0.5, 0.9, 0.999, 1 - 2**-20]),
        seed=st.integers(0, 2**16),
    )
    @example(weight_exp=38, shift=-1e-12, sign=1.0, decay=0.999, seed=0)
    @example(weight_exp=0, shift=1e-12, sign=-1.0, decay=0.5, seed=1)
    def test_accepted_certainty_heads_read_finite_logits(
        self, weight_exp, shift, sign, decay, seed
    ):
        # logit_scale is set within 2**shift of the bound, so both sides of
        # it are drawn; every sync vector below is inside |S| < 1 / (1 - decay)
        rng = np.random.default_rng(seed)
        shape = (SMALL.engine.logit_count, SMALL.engine.sync_pairs)
        heads = (rng.uniform(-1, 1, shape) * 10.0**weight_exp).astype(np.float32)
        reach = float(np.max(np.sum(np.abs(heads.astype(np.float64)), axis=1)))
        f32_max = float(np.finfo(np.float32).max)
        logit_scale = sign * f32_max * (1 - decay) / reach * 2.0**shift
        registry = build_registry()
        with tempfile.TemporaryDirectory() as scratch:
            path = f"{scratch}/w.bin"
            save_weights(path, {"ctm/certainty": heads})
            engine = dataclasses.replace(SMALL.engine, logit_scale=logit_scale, decay=decay)
            config = dataclasses.replace(SMALL, engine=engine, weights_path=path)
            try:
                model = build_model(config, len(registry), registry.max_slots)
            except ConfigError as exc:
                for name in ("ctm/certainty", "engine.logit_scale", "engine.decay"):
                    assert name in str(exc)
                assert shift > -1e-9
                return
        limit = np.float32(1 / (1 - decay))
        if limit > 1 / (1 - decay):
            limit = np.nextafter(limit, np.float32(0))
        worst = np.sign(model.ctm.certainty_w).astype(np.float32) * limit
        drawn = rng.uniform(-1, 1, (8, shape[1])).astype(np.float32) * limit
        syncs = np.concatenate([worst, -worst, drawn])
        logits, _ = composed_certainty(syncs, model.ctm.certainty_w, model.ctm)
        cs = certainty(syncs, model.ctm)
        assert np.all(np.isfinite(logits)) and all(map(math.isfinite, cs))

    def test_bundles_carry_their_config_sections(self):
        config = Config(seed=2)
        registry = build_registry()
        model = build_model(config, len(registry), registry.max_slots)
        assert model.ctm.config is config.engine
        assert model.affect.config is config.affect
        assert model.router.config is config.router
        router = build_router_params(model, ["cup"], episode_seed=7)
        assert router.config is config.router
        assert router.action_head is model.router.action_head
        assert router.slot_head is model.router.slot_head

    @pytest.mark.parametrize("live", [False, True])
    def test_decision_step_gets_the_consensus_section(self, live):
        config = dataclasses.replace(Config(seed=2), consensus=ConsensusConfig(live=live))
        decide = episode.decide_step
        registry = build_registry()
        model = build_model(config, len(registry), registry.max_slots)
        with mock.patch.object(episode, "decide_step", wraps=decide) as wrapped:
            run_episode(gen_tasks(1, 1)[0], config, Policy.CTM, model=model)
        assert wrapped.call_count >= 1
        for call in wrapped.call_args_list:
            bound = inspect.signature(decide).bind(*call.args, **call.kwargs)
            assert bound.arguments["consensus"] is config.consensus

    def test_plateau_window_reaches_run_slab(self, tmp_path):
        weights = tmp_path / "flat.bin"
        config = Config(engine=EngineConfig(plateau_window=5), weights_path=str(weights))
        save_weights(weights, {"ctm/certainty": np.zeros((4, config.engine.sync_pairs))})
        registry = build_registry()
        model = build_model(config, len(registry), registry.max_slots)
        f = np.ones(config.perception.fusion_dim, dtype=np.float32)
        state, halts = initial_state(model.ctm), []
        for _ in range(6):
            state, reason = run_slab(state, f, model.ctm, 0.75)
            halts.append(reason)
        # certainty is 0 at every slab, so only the plateau can halt
        assert state.certainty_trace == (0.0,) * 5
        assert halts == [None] * 4 + ["plateau"] * 2
