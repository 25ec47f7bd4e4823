"""Runs ``tickslab serve --transport tcp`` in this process, observed.

The program's own CLI entry point serves; this file only times its import
and ``build_model``, optionally wraps the server-side layers with the
tracer, and on SIGTERM writes a dump (peak RSS, set-up times and, when
traced, per-layer totals plus per-connection handling spans) to ``--dump``.

Usage: python3 perfbench/serve.py --addr 127.0.0.1:PORT --dump FILE [--trace 1]
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import sys
from time import perf_counter, perf_counter_ns

import tracing as tr


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--addr", required=True)
    parser.add_argument("--dump", required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    def stop(signum, frame):
        raise SystemExit(0)

    signal.signal(signal.SIGTERM, stop)
    t0 = perf_counter()
    from tickslab import transport
    from tickslab.harness import cli, world

    info = {"import_s": perf_counter() - t0}
    build_model = cli.build_model

    def timed_build_model(*a, **k):
        start = perf_counter()
        model = build_model(*a, **k)
        info["build_model_s"] = perf_counter() - start
        return model

    cli.build_model = timed_build_model

    tracer = None
    # (client port, [handling ns per frame]) per connection, in accept order
    conns: list[tuple[int, list[int]]] = []
    if args.trace:
        tracer = tr.Tracer()
        tracer.wrap(transport.ToolServer, "handle_frame", "transport.handle_frame")
        tracer.wrap(world, "step_env", "world.step_env")
        tracer.wrap(world, "_actuate", "actuator.actuate")
        handle_frame = transport.ToolServer.handle_frame
        serve_stream = transport.ToolServer.serve_stream

        def framed(self, frame):
            tracer.begin_op()
            start = perf_counter_ns()
            try:
                return handle_frame(self, frame)
            finally:
                conns[-1][1].append(perf_counter_ns() - start)
                tracer.end_op()

        def recorded(self, stream):
            conns.append((stream._sock.getpeername()[1], []))
            return serve_stream(self, stream)

        transport.ToolServer.handle_frame = framed
        transport.ToolServer.serve_stream = recorded

    try:
        return cli.main(["serve", "--transport", "tcp", "--addr", args.addr])
    finally:
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        info["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            info["layers"] = tr.layer_totals(tracer.spans)
            info["conns"] = conns
        with open(args.dump, "w", encoding="utf-8") as handle:
            json.dump(info, handle)


if __name__ == "__main__":
    sys.exit(main())
