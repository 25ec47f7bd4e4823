"""Episode worker: one process that runs the episode workloads.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``.  It imports the program, builds the model and the task set, prints
one ``ready`` line and waits on stdin: ``go`` starts the timed phases, any
other line ends the process (that is how set-up is timed several times).

An op is one decision step, from the ``featurize`` call to the return of
``dispatch``; two hooks on those calls in the episode module time it.
Just before each op the featurize hook also times ``speed.Kernel`` (see
``speed.py``); the op's span starts after it.
Three more hooks count ``run_slab``, ``perturb_for_branch`` and
``run_branch`` calls so that exact counts can be checked on untraced runs.
With ``--trace 1`` a second phase runs the same passes with every layer
wrapped by the tracer.

A phase runs whole passes over the task set, in the seeded order: one, and
another while it would still end within ``--seconds``.  Every run therefore
measures the same steps.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import random
import resource
import sys
import threading
from pathlib import Path
from time import perf_counter, perf_counter_ns

import speed
import tracing as tr


class OpClock:
    """Times ops between the featurize call and the dispatch return.

    Per op it also keeps the kernel time measured just before it, and the
    op's cycle: from the kernel's end to the next op's kernel (or the end of
    the phase), which adds the harness's own time between steps.
    """

    def __init__(self, tracer: tr.Tracer | None = None) -> None:
        self.latencies: list[int] = []
        self.kernel_ns: list[int] = []
        self.cycles: list[int] = []
        self.tracer = tracer
        self.kernel = speed.Kernel()
        self._start = 0
        self._cycle_start = None
        self._patches: list[tuple] = []

    def close_cycle(self, now: int) -> None:
        if self._cycle_start is not None:
            self.cycles.append(now - self._cycle_start)
        self._cycle_start = None

    def install(self, episode) -> None:
        featurize, dispatch = episode.featurize, episode.dispatch
        clock = self

        def timed_featurize(*args, **kwargs):
            clock.close_cycle(perf_counter_ns())
            clock.kernel_ns.append(clock.kernel.run())
            if clock.tracer is not None:
                clock.tracer.begin_op()
            clock._start = clock._cycle_start = perf_counter_ns()
            return featurize(*args, **kwargs)

        def timed_dispatch(*args, **kwargs):
            result = dispatch(*args, **kwargs)
            clock.latencies.append(perf_counter_ns() - clock._start)
            if clock.tracer is not None:
                clock.tracer.end_op()
            return result

        episode.featurize, episode.dispatch = timed_featurize, timed_dispatch
        self._patches = [(episode, "featurize", featurize), (episode, "dispatch", dispatch)]

    def uninstall(self) -> None:
        for owner, attr, original in self._patches:
            setattr(owner, attr, original)


class CallCounts:
    """Counts calls of a few functions; safe under the live-mode workers."""

    def __init__(self) -> None:
        self.counts = {"slabs": 0, "perturbs": 0, "branches": 0}
        self._lock = threading.Lock()
        self._patches: list[tuple] = []

    def _count(self, owner, attr: str, key: str) -> None:
        original = getattr(owner, attr)

        def counted(*args, **kwargs):
            with self._lock:
                self.counts[key] += 1
            return original(*args, **kwargs)

        setattr(owner, attr, counted)
        self._patches.append((owner, attr, original))

    def install(self, engine, consensus) -> None:
        self._count(engine, "run_slab", "slabs")
        self._count(consensus, "perturb_for_branch", "perturbs")
        self._count(consensus, "run_branch", "branches")

    def snapshot(self) -> dict:
        with self._lock:
            return dict(self.counts)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)


def install_layers(tracer: tr.Tracer, mods) -> None:
    """Wrap each layer's public functions where the episode loop calls them."""
    ep, engine, consensus, transport, world, router = mods
    tracer.wrap(ep, "featurize", "harness.featurize")
    tracer.wrap(ep, "encode_modality", "perception.encode")
    tracer.wrap(ep, "fuse", "perception.fuse")
    tracer.wrap(ep, "decide_step", "consensus.decide")
    tracer.wrap(ep, "decide_step_live", "consensus.decide", note=lambda a, r: "live")
    # note: (slabs this branch ran, reached its threshold)
    tracer.wrap(
        consensus, "run_branch", "consensus.branch",
        note=lambda a, r: (r[1].slab - a[0].slab, bool(r[0].reached_threshold)),
    )
    tracer.wrap(consensus, "perturb_for_branch", "consensus.perturb")
    tracer.wrap(engine, "run_slab", "engine.slab")
    tracer.wrap(engine, "sync_update", "engine.sync_update")
    tracer.wrap(engine, "certainty", "engine.certainty")
    tracer.wrap(consensus, "certainty", "engine.certainty")
    tracer.wrap(consensus, "merge", "consensus.merge")
    tracer.wrap(ep, "select_action", "router.select")
    tracer.wrap(ep, "affect_decode", "affect.decode")
    tracer.wrap(router.EnvelopeSession, "build", "router.envelope_build")
    tracer.wrap(transport, "serialize_envelope", "envelope.serialize")
    tracer.wrap(ep, "dispatch", "transport.dispatch")
    tracer.wrap(transport.ToolServer, "handle_frame", "transport.handle_frame")
    tracer.wrap(world, "step_env", "world.step_env")
    tracer.wrap(world, "_actuate", "actuator.actuate")


def consensus_stats(spans: list[tuple]) -> dict:
    """Useful-work ratio and live-mode loser drain from decide/branch spans."""
    branches: dict[int, list[tuple]] = {}
    for span in spans:
        if span[tr.NAME] == "consensus.branch" and span[tr.NOTE] is not None:
            branches.setdefault(span[tr.PARENT], []).append(span)
    critical = total = 0
    drains = []
    for span in spans:
        if span[tr.NAME] != "consensus.decide":
            continue
        kids = branches.get(span[tr.SPAN], [])
        if kids:
            slabs = [k[tr.NOTE][0] for k in kids]
            critical += max(slabs)
            total += sum(slabs)
        winners = [k[tr.END] for k in kids if k[tr.NOTE][1]]
        if span[tr.NOTE] == "live" and winners:
            drains.append(span[tr.END] - min(winners))
    return {
        "critical_slabs": critical,
        "branch_slabs": total,
        "post_winner_ns": drains,
    }


def episode_record(task_index: int, log, canonical_json_bytes, counts: dict) -> dict:
    line = canonical_json_bytes(log.to_dict())
    return {
        "task": task_index,
        "line_sha256": hashlib.sha256(line).hexdigest(),
        "outcome": log.outcome,
        "steps": log.steps_used,
        "records": len(log.records),
        "fallbacks": sum(1 for r in log.records if r.fallback),
        "actuations": sum(1 for r in log.records if r.action == "actuate"),
        "rethinks": log.rethinks,
        "forced_dispatches": log.forced_dispatches,
        **counts,
    }


def capture(tasks, config, model, out: Path) -> int:
    """Write the frames the ctm policy sends for ``tasks`` to traffic.json.

    The serve workload replays them, one session per task.  The expected
    ``registry/list`` reply comes from the program's own in-process server.
    """
    from tickslab.envelope import canonical_json_bytes
    from tickslab.harness import episode as ep
    from tickslab.harness.episode import Policy, run_episode
    from tickslab.harness.world import WorldSession, build_registry, demo_world
    from tickslab.transport import ToolServer, serialize_envelope

    registry = build_registry()
    listing = {"jsonrpc": "2.0", "id": 0, "method": "registry/list"}
    listing_frame = canonical_json_bytes(listing)
    server = ToolServer(registry, WorldSession(demo_world()).handler)
    sessions, episodes = [], []
    dispatch = ep.dispatch

    def recording_dispatch(envelope, transport):
        frames.append(
            (serialize_envelope(envelope).decode("utf-8"), envelope.id, envelope.meta.fallback)
        )
        return dispatch(envelope, transport)

    ep.dispatch = recording_dispatch
    try:
        for index, task in enumerate(tasks):
            frames = []
            log = run_episode(task, config, Policy.CTM, model=model)
            episodes.append(episode_record(index, log, canonical_json_bytes, {}))
            sessions.append(frames)
    finally:
        ep.dispatch = dispatch
    doc = {
        "listing_frame": listing_frame.decode("utf-8"),
        "listing_reply": server.handle_frame(listing_frame).decode("utf-8"),
        "sessions": sessions,
        "episodes": episodes,
    }
    (out / "traffic.json").write_text(json.dumps(doc), encoding="utf-8")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=["episodes_ctm", "episodes_live"], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tasks", required=True, help="TASK_SEED:COUNT of the task set")
    parser.add_argument("--out", required=True)
    parser.add_argument(
        "--capture", type=int, default=0,
        help="instead of timing, record the tool-call frames of this many tasks",
    )
    args = parser.parse_args(argv)

    t0 = perf_counter()
    from tickslab import consensus, engine, router, transport
    from tickslab.config import Config
    from tickslab.envelope import canonical_json_bytes
    from tickslab.harness import episode as ep
    from tickslab.harness import world
    from tickslab.harness.episode import Policy, run_episode
    from tickslab.harness.metrics import compute_metrics, write_logs, write_report
    from tickslab.harness.tasks import gen_tasks
    from tickslab.params import build_model

    t1 = perf_counter()
    config = Config()
    if args.workload == "episodes_live":
        config = dataclasses.replace(
            config, consensus=dataclasses.replace(config.consensus, live=True)
        )
    registry = world.build_registry()
    model = build_model(config, len(registry), registry.max_slots)
    t2 = perf_counter()
    task_seed, task_count = (int(x) for x in args.tasks.split(":"))
    tasks = gen_tasks(task_seed, task_count)
    order = list(range(len(tasks)))
    random.Random(args.seed).shuffle(order)
    out = Path(args.out)
    if args.capture:
        return capture(tasks[: args.capture], config, model, out)
    print(json.dumps({"ready": True, "import_s": t1 - t0, "build_model_s": t2 - t1}), flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0

    mods = (ep, engine, consensus, transport, world, router)

    def run_phase(tracer: tr.Tracer | None) -> dict:
        counts = CallCounts()
        clock = OpClock(tracer)
        if tracer is not None:
            install_layers(tracer, mods)
        counts.install(engine, consensus)
        clock.install(ep)
        episodes, first_pass = [], []
        passes = longest = 0
        start = perf_counter_ns()
        try:
            while True:
                pass_start = perf_counter_ns()
                for index in order:
                    before = counts.snapshot()
                    log = run_episode(tasks[index], config, Policy.CTM, model=model)
                    after = counts.snapshot()
                    delta = {k: after[k] - before[k] for k in after}
                    episodes.append(
                        {"pass": passes, **episode_record(index, log, canonical_json_bytes, delta)}
                    )
                    if passes == 0:
                        first_pass.append((index, log))
                passes += 1
                now = perf_counter_ns()
                longest = max(longest, now - pass_start)
                if now - start + longest > args.seconds * 1e9:
                    break
            end = perf_counter_ns()
            clock.close_cycle(end)
            wall = end - start
        finally:
            clock.uninstall()
            counts.uninstall()
            if tracer is not None:
                tracer.uninstall()
        return {
            "wall_ns": wall,
            "passes": passes,
            "latencies_ns": clock.latencies,
            "kernel_ns": clock.kernel_ns,
            "cycles_ns": clock.cycles,
            "episodes": episodes,
            "first_pass": first_pass,
        }

    result = {"workload": args.workload, "seed": args.seed}
    plain = run_phase(None)
    result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    logs = [log for _, log in sorted(plain.pop("first_pass"), key=lambda p: p[0])]
    write_logs(out / "episodes.jsonl", logs)
    write_report(out / "metrics.json", compute_metrics(logs))
    result["plain"] = plain

    if args.trace:
        tracer = tr.Tracer()
        traced = run_phase(tracer)
        traced.pop("first_pass")
        traced["layers"] = tr.layer_totals(tracer.spans)
        traced["consensus"] = consensus_stats(tracer.spans)
        tracer.dump(out / "spans.jsonl")
        result["traced"] = traced

    (out / "result.json").write_text(json.dumps(result), encoding="utf-8")
    print(json.dumps({"done": True}), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
