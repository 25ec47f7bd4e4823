"""Reference server for ``serve_tcp``: echoes each JSON line it receives.

It does what ``tickslab serve`` does around a request, a blocking read,
``json.loads``, ``json.dumps`` and a write on a loopback TCP socket, and
nothing else.  ``run.py`` times a few round trips to it before every round
of the serve workload (``speed.EchoKernel``) to measure the machine's speed
at that moment for work of that kind.  It serves one connection, then exits.

Usage: python3 perfbench/echo.py --port PORT
"""

from __future__ import annotations

import argparse
import json
import socket
import sys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--port", type=int, required=True)
    args = parser.parse_args(argv)
    with socket.create_server(("127.0.0.1", args.port)) as listener:
        conn, _ = listener.accept()
    with conn, conn.makefile("rb") as lines:
        for line in lines:
            conn.sendall(json.dumps(json.loads(line), separators=(",", ":")).encode() + b"\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
