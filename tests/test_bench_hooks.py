"""The program names that the benchmark in ``perfbench/`` patches exist.

``perfbench/worker.py`` and ``perfbench/serve.py`` wrap functions of the
program by attribute name at run time, so renaming or deleting one of them
breaks the benchmark only when it runs.  These tests install the
benchmark's own hooks on the real modules and take them off again, and run
an episode through them, so a changed signature of a wrapped function
fails here too.
"""

import json
from pathlib import Path

import pytest

from tickslab import consensus, engine, router, transport
from tickslab.config import Config, ConsensusConfig
from tickslab.harness import cli, episode, world
from tickslab.harness.tasks import load_tasks
from tickslab.params import build_model

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TASKS = Path(__file__).parent / "fixtures" / "tasks50.jsonl"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    import worker

    return tracing, worker


def test_worker_hooks_install_and_uninstall(perfbench):
    tracing, worker = perfbench
    owners = (
        episode, engine, consensus, transport, world, router,
        transport.ToolServer, router.EnvelopeSession,
    )
    before = [dict(vars(owner)) for owner in owners]
    tracer = tracing.Tracer()
    counts = worker.CallCounts()
    try:
        worker.install_layers(tracer, (episode, engine, consensus, transport, world, router))
        counts.install(engine, consensus)
        assert [dict(vars(owner)) for owner in owners] != before
    finally:
        counts.uninstall()
        tracer.uninstall()
    assert [dict(vars(owner)) for owner in owners] == before


@pytest.mark.parametrize(
    "owner, attr",
    [
        (cli, "build_model"),
        (transport.ToolServer, "serve_stream"),
        (transport.ToolServer, "handle_frame"),
        (world, "step_env"),
        (world, "_actuate"),
    ],
)
def test_serve_patch_targets_exist(owner, attr):
    assert callable(getattr(owner, attr))


@pytest.mark.parametrize("live", [False, True])
def test_an_episode_runs_through_the_worker_hooks(perfbench, caplog, live):
    tracing, worker = perfbench
    config = Config(consensus=ConsensusConfig(live=live))
    registry = world.build_registry()
    model = build_model(config, len(registry), registry.max_slots)
    task = load_tasks(TASKS)[0]
    plain = episode.run_episode(task, config, episode.Policy.CTM, model=model)

    # installed and removed in the order of the worker's traced phase
    tracer = tracing.Tracer()
    counts = worker.CallCounts()
    clock = worker.OpClock(tracer)
    try:
        worker.install_layers(tracer, (episode, engine, consensus, transport, world, router))
        counts.install(engine, consensus)
        clock.install(episode)
        with caplog.at_level("WARNING"):
            hooked = episode.run_episode(task, config, episode.Policy.CTM, model=model)
    finally:
        clock.uninstall()
        counts.uninstall()
        tracer.uninstall()

    # a hook that raises ends the episode early with a logged warning
    assert caplog.records == []
    assert hooked.to_dict() == plain.to_dict()
    # one featurize call per step: OpClock times the kernel on each of them
    assert len(clock.kernel_ns) == len(clock.latencies) == len(plain.records)
    layers = tracing.layer_totals(tracer.spans)
    assert layers["consensus.decide"]["calls"] >= len(plain.records)
    worker.consensus_stats(tracer.spans)


def test_capture_records_one_frame_per_step(perfbench, tmp_path):
    _, worker = perfbench
    config = Config()
    registry = world.build_registry()
    model = build_model(config, len(registry), registry.max_slots)
    assert worker.capture(load_tasks(TASKS)[:2], config, model, tmp_path) == 0

    traffic = json.loads((tmp_path / "traffic.json").read_text(encoding="utf-8"))
    assert len(traffic["sessions"]) == len(traffic["episodes"]) == 2
    for frames, record in zip(traffic["sessions"], traffic["episodes"]):
        assert len(frames) == record["records"] > 0
        ids = [json.loads(frame)["id"] for frame, _, _ in frames]
        assert ids == [req_id for _, req_id, _ in frames] == list(range(1, len(frames) + 1))
    server = transport.ToolServer(registry, world.WorldSession(world.demo_world()).handler)
    listing_frame = traffic["listing_frame"].encode()
    assert traffic["listing_reply"].encode() == server.handle_frame(listing_frame)
