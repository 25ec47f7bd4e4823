"""Machine-speed reference for the benchmark's op and set-up times.

On a shared host the same decision steps take up to 1.7x longer from one
second to the next, with the benchmark's own process alone on its core and
the steal counter near zero: neighbours on the same physical cores slow it.
Runs minutes apart then differ by 20-30 % (IQR/median of ``ops_per_s``),
which hides any program change smaller than that.

So the episode worker times a fixed ``Kernel`` just before every op, outside
the op's span, and ``scales`` turns those times into one factor per op:
``ref_ns`` over the median kernel time of the ops nearby.  Op times
multiplied by their factor read as if the machine always ran the kernel in
``ref_ns`` (``reference.json`` holds the value ``--record`` measured).  The
kernel is the engine's inner loop in miniature, einsum matrix-vector
products and tanh on 64-neuron float64 arrays, so it slows when the steps
do.  It is the benchmark's own code: a change to the program never makes it
faster or slower, so the factors move only with the machine.  Set-up is
scaled the same way, by kernel times taken just before each launch
(``factor_now``).

Measured on a 2-core Xeon over 18 passes of 1072 steps: IQR/median across
passes of ops/s, p50 and p99 went from 0.30, 0.19 and 0.48 raw to 0.02,
0.03 and 0.05 with a window of two ops either side.

The serve workload's op is a loopback round trip, not numpy work, and the
numpy kernel tracked it poorly.  ``EchoKernel`` instead times round trips
of a fixed frame to ``echo.py``, which parses and re-serializes it like the
server does.  With the load, the server and the echo server on one core,
IQR/median across 3 s stretches of ops/s, p50 and p99 went from 0.14, 0.12
and 0.19 raw to 0.02, 0.02 and 0.01.
"""

from __future__ import annotations

import statistics
from time import perf_counter_ns

import numpy as np

KERNEL_REPS = 10    # about 0.3 ms on a 2-core Xeon, ~2 % of a ctm step
ECHO_REPS = 5       # about 0.3 ms on a 2-core Xeon
# a tool call as the ctm policy sends it; fixed here so the kernel stays the same
ECHO_FRAME = (
    b'{"id":1,"jsonrpc":"2.0","method":"tool/pick","params":{"args":{"object":"sink"},'
    b'"meta":{"affect":[-0.1177031397819519,0.038823049515485764,0.043899815529584885,'
    b'0.045891761779785156,0.03287734091281891,-0.02858501672744751,-0.05888376757502556,'
    b'-0.018466660752892494],"confidence":0.7972940381566669,"episode":"synth-0-0",'
    b'"fallback":false,"slab_count":4,"step":0,"sync_digest":'
    b'"682763b174ef1cb8b38c82f25f4e44e973f17a2635b46ed5255c0c4cdbb1cadc","ticks":32}}}\n'
)
WINDOW = 2          # ops either side whose kernel times set an op's factor


class Kernel:
    """A fixed slice of tick-like work; ``run`` returns its time in ns."""

    def __init__(self, reps: int = KERNEL_REPS) -> None:
        rng = np.random.default_rng(0)
        self.reps = reps
        self.w = rng.standard_normal((64, 192)) * 0.1
        self.a = rng.standard_normal((16, 4))
        self.b = rng.standard_normal((64, 4))

    def run(self) -> int:
        x = np.zeros(192)
        hist = np.zeros((64, 16))
        start = perf_counter_ns()
        for _ in range(self.reps):
            candidate = np.tanh(np.einsum("ij,j->i", self.w, x))
            hist[:, :-1] = hist[:, 1:]
            hist[:, -1] = candidate
            proj = np.einsum("dm,mr->dr", hist, self.a)
            x[:64] = np.tanh(np.einsum("dr,dr->d", proj, self.b))
        return perf_counter_ns() - start


class EchoKernel:
    """Round trips of ``ECHO_FRAME`` to ``echo.py``; ``run`` returns ns."""

    def __init__(self, sock, reps: int = ECHO_REPS) -> None:
        self.sock = sock
        self.lines = sock.makefile("rb")
        self.reps = reps

    def run(self) -> int:
        start = perf_counter_ns()
        for _ in range(self.reps):
            self.sock.sendall(ECHO_FRAME)
            if not self.lines.readline():
                raise ConnectionError("the echo server closed the connection")
        return perf_counter_ns() - start

    def close(self) -> None:
        self.lines.close()
        self.sock.close()


def scales(kernel_ns: list, ref_ns: float, window: int = WINDOW) -> list[float]:
    """Per op: ``ref_ns`` over the median kernel time within ``window`` ops."""
    return [
        ref_ns / statistics.median(kernel_ns[max(0, i - window): i + window + 1])
        for i in range(len(kernel_ns))
    ]


def factor_now(kernel: Kernel, ref_ns: float, runs: int = 15) -> float:
    """``ref_ns`` over the median of ``runs`` kernel times taken now."""
    return ref_ns / statistics.median(kernel.run() for _ in range(runs))
