"""Command-line entry points: run, gen-tasks, metrics, serve; each imports what it runs."""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from ..errors import NonFiniteState, TickslabError
from ..transport import StreamTransport, ToolServer
from .world import WorldSession, build_registry, demo_world

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NON_FINITE = 3     # the model's readout diverged; nothing is written


def build_model(config, registry_size: int, max_slots: int):
    """``tickslab.params.build_model``, imported when called.

    Kept as a plain function of this module because perfbench/serve.py times
    it by patching ``cli.build_model`` (ROADMAP item 1 drops that timer).
    """
    from ..params import build_model as build

    return build(config, registry_size, max_slots)


def cmd_run(args) -> int:
    from ..config import Config
    from .episode import Policy, run_episode
    from .metrics import compute_metrics, write_logs, write_report
    from .tasks import load_tasks

    out = Path(args.out)
    # refused now, not by mkdir after every episode has run
    existing = next(path for path in (out, *out.parents) if path.exists())
    if not existing.is_dir():
        raise TickslabError(f"bad --out {args.out!r}: {str(existing)!r} is not a directory")
    config = Config.load(args.config) if args.config else Config()
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    tasks = load_tasks(args.tasks)
    registry = build_registry()
    model = build_model(config, len(registry), registry.max_slots)
    policy = Policy(args.policy)

    logs = [run_episode(task, config, policy, model=model) for task in tasks]
    report = compute_metrics(logs)   # before any write, so a refused run leaves no file

    out.mkdir(parents=True, exist_ok=True)
    write_logs(out / "episodes.jsonl", logs)
    write_report(out / "metrics.json", report)
    print(report.summary())
    return EXIT_OK


def cmd_gen_tasks(args) -> int:
    from .tasks import gen_tasks, save_tasks

    if args.count < 1:
        raise TickslabError(f"bad --count {args.count}, expected at least 1")
    tasks = gen_tasks(args.seed, args.count)
    save_tasks(args.out, tasks)
    print(f"wrote {len(tasks)} tasks to {args.out}")
    return EXIT_OK


def cmd_metrics(args) -> int:
    from .metrics import compute_metrics, read_log_dir

    if not Path(args.logs).is_dir():
        raise TickslabError(f"bad --logs {args.logs!r}, expected a directory")
    logs = read_log_dir(args.logs)
    report = compute_metrics(logs)
    print(report.summary())
    return EXIT_OK


def cmd_serve(args) -> int:
    server = ToolServer(build_registry(), WorldSession(demo_world()).handler)
    if args.transport == "stdio":
        server.serve_stream(StreamTransport(sys.stdin.buffer, sys.stdout.buffer))
        return EXIT_OK
    host, _, port = args.addr.rpartition(":")
    if not host or not (port.isascii() and port.isdigit()) or int(port) > 65535:
        raise TickslabError(f"bad --addr {args.addr!r}, expected HOST:PORT with PORT 0-65535")
    # port 0 binds a free port, which only this line tells
    server.serve_tcp(
        host, int(port),
        ready=lambda bound: print(f"listening on {host}:{bound}", file=sys.stderr, flush=True),
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tickslab",
        description="Deterministic tick-slab reasoning runtime and task harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run episodes over a task file")
    run.add_argument("--tasks", required=True, help="tasks JSONL file")
    run.add_argument("--config", default=None, help="config JSON (defaults apply)")
    run.add_argument("--policy", choices=["ctm", "oracle"], default="ctm")
    run.add_argument("--seed", type=int, default=None, help="override config seed")
    run.add_argument("--out", required=True, help="output directory")
    run.set_defaults(func=cmd_run)

    gen = sub.add_parser("gen-tasks", help="synthesize a task file")
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--count", type=int, required=True)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_gen_tasks)

    met = sub.add_parser("metrics", help="recompute metrics from logs")
    met.add_argument("--logs", required=True, help="directory of episode JSONL logs")
    met.set_defaults(func=cmd_metrics)

    serve = sub.add_parser("serve", help="expose the tool registry")
    serve.add_argument("--transport", choices=["stdio", "tcp"], default="stdio")
    serve.add_argument("--addr", default="127.0.0.1:7351", help="HOST:PORT for tcp")
    serve.set_defaults(func=cmd_serve)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (TickslabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NON_FINITE if isinstance(exc, NonFiniteState) else EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
