"""tickslab benchmark: decision-step latency, serve latency, per-layer time.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record      # rewrite perfbench/reference.json

    # every workload, end-to-end metrics then per-layer metrics
    for w in episodes_ctm episodes_live serve_tcp; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 20 --trace 1
    done

Workloads (see BENCHMARK.json for why each exists):

- ``episodes_ctm``: the ctm policy, deterministic consensus, default config.
  An op is one decision step, featurize -> fuse -> decide_step -> gate ->
  route -> envelope -> dispatch return.
- ``episodes_live``: the same task set with ``consensus.live: true``, so
  branches race on threads against a wall-clock deadline.
- ``serve_tcp``: ``tickslab serve --transport tcp`` in a subprocess, driven
  by 2 closed-loop clients from one thread of this process.  An op is one
  request/response round trip.  A client opens a connection per session,
  sends ``registry/list`` and then the tool-call frames the ctm policy
  produced for one task, then closes.  Load comes in rounds: both clients
  start a session together, so the server's serial accept loop makes one
  of them wait for the other's whole session, and a pass runs every
  ordered pair of the captured sessions once.

The task set is fixed (``reference.json``: ``gen_tasks(seed, count)``) and
``--seed`` permutes the order of tasks and sessions.  Task content changes
per-step cost several-fold, so a task set drawn per seed would make runs
incomparable; a fixed set also keeps the recorded digests valid.  Episode
workloads run whole passes over the set: one, and another while it would
still end within ``--seconds``, so every run times the same steps.

Every invocation first reproduces the recorded tasks50 digests through the
CLI (ctm and oracle at seed 0).  ``episodes_ctm`` checks every episode log
line, its step count and the episodes.jsonl/metrics.json digests of the
first pass against ``reference.json``.  Its slab, perturbation and branch
counts are not pinned, so that work-saving changes stay correct; instead
they must agree within one invocation: for each task across passes and
phases, and the traced spans' totals against the untraced phase's counts.
The other workloads get structural checks.  A failed check counts the op
as failed.

Timed phases run on one core (``one_core``): the episode worker with all
its threads, or the serve load, the server and ``echo.py``.  On two cores
a thread hand-over or a loopback round trip often waits for the other core
to wake, which varied run to run with the host's load.  The price: a change
that helps only by using the second core does not show here, and live mode
runs faster pinned (~55 against ~39 steps/s on a 2-core Xeon), because its
branch threads then never hand the interpreter lock across cores.

Op times are reported at a reference machine speed (``speed.py``): the
load times a fixed kernel before each op (episode workloads: numpy work
like a tick) or round (``serve_tcp``: round trips to ``echo.py``), and each
op's time is scaled by the kernel's reference time (``reference.json``)
over its times around that op.  ``ops_per_s`` is ops over the scaled busy
time, which leaves out the kernel.  The raw figures and the median factor
are printed beside the result.  ``setup_s`` is scaled by kernel times
taken just before each launch; ``peak_rss_mb`` and the per-layer times are
not scaled.

With ``--trace 0`` the result holds the end-to-end metrics of an untraced
phase.  With ``--trace 1`` an untraced phase and then a traced phase run,
and the result holds the per-layer metrics of the traced phase.  The last
line of stdout is the JSON result; the lines before it are a readable
report and the environment.  Outputs go to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import itertools
import json
import os
import platform
import random
import select
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter, perf_counter_ns, sleep

import speed
import tracing as tr

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
TASKS50 = ROOT / "tests" / "fixtures" / "tasks50.jsonl"
OUT = ROOT / ".perfbench"

SETUP_REPEATS = 7          # set-up is timed this many times; the median counts
CLIENTS = 2                # closed-loop clients on serve_tcp (= nproc here)
SERVE_SESSIONS = 10        # tasks whose tool calls serve_tcp replays
REQUEST_TIMEOUT_S = 5.0    # per request; a hung server becomes failed ops
CHILD_LIMIT_S = 150.0      # set-up and fixed-size children running longer are killed
TAIL_Q = 0.99              # op_ms_p99: needs >= 1000 ops for 10 samples beyond it

# metric names and units come from the benchmark's definition
_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}
# per-layer "<span>.us" metrics: mean self time per call of that span
SELF_TIME_SPANS = [name[: -len(".us")] for name in PER_LAYER if name.endswith(".us")]
# counts deterministic consensus must repeat exactly, and their span metrics
EXACT_COUNTS = {"steps": None, "slabs": "engine.slabs",
                "perturbs": "consensus.perturb.calls", "branches": "consensus.branches"}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def reap(proc: subprocess.Popen, grace_s: float = 10.0) -> None:
    """Make sure ``proc`` has ended and been waited for."""
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=grace_s)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    for stream in (proc.stdin, proc.stdout):
        if stream is not None:
            stream.close()


def measure_limit_s(seconds: float, trace: int) -> float:
    """How long the timed phases may take before the worker is killed.

    A phase runs passes for about ``seconds`` but at least one whole pass,
    and one ``episodes_live`` pass takes 25-50 s on a 2-core Xeon, so each
    phase gets twice ``seconds`` plus 90 s.
    """
    return (1 + trace) * (90.0 + 2 * seconds)


def watchdog(proc: subprocess.Popen, limit_s: float = CHILD_LIMIT_S) -> threading.Timer:
    timer = threading.Timer(limit_s, proc.kill)
    timer.daemon = True
    timer.start()
    return timer


def run_checked(cmd: list, what: str) -> subprocess.CompletedProcess:
    try:
        done = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=CHILD_LIMIT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{what} timed out") from exc
    if done.returncode != 0:
        raise BenchError(f"{what} failed ({done.returncode}): {done.stderr.strip()[-400:]}")
    return done


# ----------------------------------------------------------------------
# environment, reference and pre-flight


def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    numpy_version = run_checked(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"], "numpy probe"
    ).stdout.strip()
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown (not a git checkout)"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown (git unavailable)"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": commit,
        "seed": seed,
    }


def cpu_ticks() -> list | None:
    """The machine's CPU time counters (user ... steal), or None off Linux."""
    try:
        with open("/proc/stat", encoding="ascii") as stat:
            return [int(x) for x in stat.readline().split()[1:9]]
    except (OSError, ValueError):
        return None


def steal_share(before: list | None, after: list | None) -> float | None:
    """Share of CPU time the hypervisor gave to other guests in between.

    On a shared virtual machine the benchmark's figures drop as this rises,
    so a slow run can be told apart from a slower program.
    """
    if not before or not after or len(before) < 8 or len(after) < 8:
        return None
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / sum(delta) if sum(delta) > 0 else None


def cli_run(policy: str, out: Path) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-m", "tickslab.harness.cli", "run", "--tasks", str(TASKS50),
         "--policy", policy, "--seed", "0", "--out", str(out)],
        cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )


def tasks50_digests(out: Path) -> dict:
    """Run tasks50 through the CLI with both policies, two processes at once."""
    procs = {policy: cli_run(policy, out / policy) for policy in ("ctm", "oracle")}
    digests = {}
    try:
        for policy, proc in procs.items():
            try:
                _, err = proc.communicate(timeout=CHILD_LIMIT_S)
            except subprocess.TimeoutExpired as exc:
                raise BenchError(f"tasks50 {policy} run timed out") from exc
            if proc.returncode != 0:
                raise BenchError(f"tasks50 {policy} run failed: {err.strip()[-400:]}")
            digests[policy] = {
                "episodes_sha256": sha256_file(out / policy / "episodes.jsonl"),
                "metrics_sha256": sha256_file(out / policy / "metrics.json"),
            }
    finally:
        for proc in procs.values():
            reap(proc)
    return digests


def preflight(reference: dict, out: Path, report: list) -> bool:
    got = tasks50_digests(out)
    ok = True
    for policy, want in reference["tasks50"].items():
        for key, digest in want.items():
            match = got[policy][key] == digest
            ok &= match
            report.append(
                f"preflight tasks50 {policy} {key} {got[policy][key][:8]}… "
                f"{'ok' if match else 'MISMATCH, recorded ' + digest[:8] + '…'}"
            )
    return ok


# ----------------------------------------------------------------------
# episode workloads


def launch_worker(args, out: Path, task_spec: str) -> tuple[subprocess.Popen, float, dict]:
    start = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--tasks", task_spec, "--out", str(out)],
        cwd=ROOT, env=child_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )
    timer = watchdog(proc)
    line = proc.stdout.readline()
    setup = perf_counter() - start
    timer.cancel()
    try:
        ready = json.loads(line)
    except json.JSONDecodeError:
        reap(proc)
        raise BenchError(f"worker did not start: {line!r}") from None
    return proc, setup, ready


def check_episodes(episodes: list, reference: dict, exact: bool) -> tuple[int, int, list]:
    """(attempted steps, failed steps, reasons) for one phase's episodes."""
    per_task = reference["episodes_ctm"]["per_task"]
    attempted = failed = 0
    reasons = []
    keys = ("line_sha256", "steps") if exact else ("steps",)
    for ep in episodes:
        want = per_task[ep["task"]]
        attempted += ep["steps"]
        bad = [k for k in keys if ep[k] != want[k]]
        if ep["outcome"] == "error":
            bad.append("outcome=error")
        if ep["records"] != ep["steps"]:
            bad.append("records!=steps")
        if bad:
            failed += max(ep["steps"], 1)
            reasons.append(f"task {ep['task']} pass {ep['pass']}: {', '.join(bad)}")
    return attempted, failed, reasons


def count_drift(phases: dict) -> list:
    """Where a task's exact counts differ between passes or phases of a run.

    ``phases`` maps a phase name to its episode records.  Deterministic
    consensus must repeat its slabs, perturbations, branches and steps for
    a task every time; a drift means the wrappers or the program became
    nondeterministic.
    """
    first: dict = {}
    reasons = []
    for phase, episodes in phases.items():
        for ep in episodes:
            counts = {k: ep[k] for k in EXACT_COUNTS}
            where = f"{phase} pass {ep['pass']}"
            seen_where, seen = first.setdefault(ep["task"], (where, counts))
            drift = [f"{k} {seen[k]}->{counts[k]}" for k in counts if counts[k] != seen[k]]
            if drift:
                reasons.append(f"task {ep['task']} {seen_where} vs {where}: {', '.join(drift)}")
    return reasons


def traced_count_drift(layers: dict, episodes: list, passes: int) -> list:
    """Where the traced spans' per-pass counts differ from the counted calls."""
    reasons = []
    for key, metric in EXACT_COUNTS.items():
        if metric is None:
            continue
        want = sum(ep[key] for ep in episodes) / passes
        if layers[metric] != want:
            reasons.append(f"traced {metric} {layers[metric]} != untraced {want}")
    return reasons


def op_metrics(latencies_ns: list, busy_ns: float) -> dict:
    """p50, p99 and throughput of ops that took ``busy_ns`` in all."""
    lat = sorted(latencies_ns)
    if tr.samples_beyond(len(lat), TAIL_Q) < 10:
        raise BenchError(f"only {len(lat)} ops: fewer than 10 samples beyond p99")
    return {
        "op_ms_p50": tr.percentile(lat, 0.5) / 1e6,
        "op_ms_p99": tr.percentile(lat, TAIL_Q) / 1e6,
        "ops_per_s": len(lat) / (busy_ns / 1e9),
        "ops": len(lat),
    }


def at_reference_speed(samples: list, busy_ns: list, kernel_ns: list, ref_ns: float) -> dict:
    """``op_metrics`` at the reference machine speed.

    Entry i of each list covers one stretch of load (an op, or a serve
    round): its op latencies, its busy time and the kernel time taken just
    before it.  Both times of stretch i are scaled by ``speed.scales``'s
    factor i.
    """
    factors = speed.scales(kernel_ns, ref_ns)
    metrics = op_metrics(
        [lat * f for lats, f in zip(samples, factors) for lat in lats],
        sum(busy * f for busy, f in zip(busy_ns, factors)),
    )
    metrics["raw_ops_per_s"] = metrics["ops"] / (sum(busy_ns) / 1e9)
    metrics["factor_p50"] = statistics.median(factors)
    return metrics


def setup_metrics(setups: list) -> dict:
    """Median set-up time of (seconds, speed factor) pairs, scaled and raw."""
    return {
        "setup_s": statistics.median(t * f for t, f in setups),
        "raw_setup_s": statistics.median(t for t, _ in setups),
    }


def phase_metrics(phase: dict, ref_ns: float) -> dict:
    """End-to-end op metrics of one worker phase, at the reference speed."""
    lat, cycles, kernel = phase["latencies_ns"], phase["cycles_ns"], phase["kernel_ns"]
    if not len(lat) == len(cycles) == len(kernel):
        raise BenchError(f"{len(lat)} ops but {len(cycles)} cycles and {len(kernel)} kernel times")
    return at_reference_speed([[x] for x in lat], cycles, kernel, ref_ns)


def layer_metrics(layers: dict, passes: int) -> dict:
    """Per-layer metrics from span totals; count metrics are per pass."""
    def mean_self_us(name):
        row = layers.get(name)
        return row["self_ns"] / row["calls"] / 1e3 if row and row["calls"] else 0.0

    def calls(name):
        row = layers.get(name)
        return (row["calls"] if row else 0) / passes

    metrics = {f"{name}.us": mean_self_us(name) for name in SELF_TIME_SPANS}
    decide = layers.get("consensus.decide")
    metrics["consensus.decide.us"] = (
        decide["incl_ns"] / decide["calls"] / 1e3 if decide else 0.0
    )
    metrics["engine.slabs"] = calls("engine.slab")
    metrics["consensus.perturb.calls"] = calls("consensus.perturb")
    metrics["consensus.branches"] = calls("consensus.branch")
    metrics["actuator.calls"] = calls("actuator.actuate")
    op = layers.get("op")
    metrics["trace.unaccounted_share"] = op["self_ns"] / op["incl_ns"] if op else 0.0
    return metrics


def run_episodes(args, reference: dict, out: Path, report: list) -> dict:
    spec = reference["task_set"]
    task_spec = f"{spec['seed']}:{spec['count']}"
    setups, imports, builds = [], [], []
    proc = None
    kernel = speed.Kernel()
    for i in range(SETUP_REPEATS):
        factor = speed.factor_now(kernel, reference["kernel_ns"])
        proc, setup, ready = launch_worker(args, out, task_spec)
        setups.append((setup, factor))
        imports.append(ready["import_s"])
        builds.append(ready["build_model_s"])
        if i < SETUP_REPEATS - 1:
            proc.stdin.write("exit\n")
            proc.stdin.flush()
            proc.wait(timeout=CHILD_LIMIT_S)
            reap(proc)
    try:
        with one_core([proc.pid]):
            proc.stdin.write("go\n")
            proc.stdin.flush()
            limit = measure_limit_s(args.seconds, args.trace)
            timer = watchdog(proc, limit)
            line = proc.stdout.readline()
            proc.wait(timeout=limit)
            timer.cancel()
    finally:
        reap(proc)
    if proc.returncode != 0 or not line.strip():
        raise BenchError(f"worker exited with {proc.returncode} before finishing")
    result = json.loads((out / "result.json").read_text(encoding="utf-8"))

    exact = args.workload == "episodes_ctm"
    phases = [result["plain"]] + ([result["traced"]] if "traced" in result else [])
    attempted = failed = 0
    for phase in phases:
        a, f, reasons = check_episodes(phase["episodes"], reference, exact)
        ops = len(phase["latencies_ns"])
        if ops != a:
            f += a
            reasons.append(f"{ops} timed ops but {a} logged steps")
        if len(phase["episodes"]) != phase["passes"] * spec["count"]:
            f += a
            reasons.append("a pass did not cover every task")
        attempted, failed = attempted + a, failed + f
        report.extend(f"CHECK FAILED {r}" for r in reasons[:20])
    if exact:
        want = reference["episodes_ctm"]
        for name, key in (("episodes.jsonl", "episodes_sha256"), ("metrics.json", "metrics_sha256")):
            got = sha256_file(out / name)
            match = got == want[key]
            report.append(f"digest {name} {got[:8]}… {'ok' if match else 'MISMATCH'}")
            if not match:
                failed = attempted
        drift = count_drift({name: result[name]["episodes"] for name in ("plain", "traced")
                             if name in result})
        report.extend(f"CHECK FAILED count drift: {r}" for r in drift[:20])
        if drift:
            failed = attempted

    plain = result["plain"]
    steps = sum(ep["steps"] for ep in plain["episodes"])
    e2e = phase_metrics(plain, reference["kernel_ns"])
    e2e.update(setup_metrics(setups))
    e2e["fallback_share"] = sum(ep["fallbacks"] for ep in plain["episodes"]) / steps
    e2e["peak_rss_mb"] = result["rss_kb"] / 1024
    report.append(
        f"{args.workload}: {plain['passes']} pass(es) of {spec['count']} tasks, "
        f"{e2e['ops']} ops in {plain['wall_ns'] / 1e9:.2f} s"
    )
    out_metrics = {"e2e": e2e, "attempted": attempted, "failed": failed}
    if "traced" in result:
        traced = result["traced"]
        layers = layer_metrics(traced["layers"], traced["passes"])
        if exact:
            # the spans must count exactly what the untraced phase counted
            drift = traced_count_drift(layers, plain["episodes"], plain["passes"])
            report.extend(f"CHECK FAILED {r}" for r in drift)
            if drift:
                out_metrics["failed"] = attempted
        cons = traced["consensus"]
        layers["consensus.critical_slab_share"] = (
            cons["critical_slabs"] / cons["branch_slabs"] if cons["branch_slabs"] else 0.0
        )
        drains = cons["post_winner_ns"]
        layers["consensus.post_winner_ms"] = statistics.fmean(drains) / 1e6 if drains else 0.0
        for key, name in (("rethinks", "consensus.rethinks"),
                          ("forced_dispatches", "consensus.forced_dispatches")):
            layers[name] = sum(ep[key] for ep in traced["episodes"]) / traced["passes"]
        layers["transport.wait_ms_p99"] = 0.0
        layers["setup.import_s"] = statistics.median(imports)
        layers["params.build_model_s"] = statistics.median(builds)
        traced_rate = phase_metrics(traced, reference["kernel_ns"])["ops_per_s"]
        layers["trace.overhead_share"] = 1.0 - traced_rate / e2e["ops_per_s"]
        out_metrics["layers"] = layers
        out_metrics["layer_table"] = layer_table(traced["layers"], traced["wall_ns"])
    return out_metrics


def layer_table(layers: dict, wall_ns: int) -> list:
    """Readable rows: span, calls, mean self µs, share of op time."""
    op_ns = layers.get("op", {}).get("incl_ns") or wall_ns
    rows = []
    for name, row in sorted(layers.items(), key=lambda kv: -kv[1]["self_ns"]):
        label = "op (unaccounted)" if name == "op" else name
        rows.append(
            f"  {label:28s} calls={row['calls']:8d} self={row['self_ns'] / row['calls'] / 1e3:10.2f} us"
            f" share={row['self_ns'] / op_ns:7.2%}"
        )
    total = sum(row["self_ns"] for row in layers.values())
    rows.append(f"  {'sum of self times':28s} share={total / op_ns:7.2%} of op time")
    if total > op_ns:
        rows.append("  (over 100%: spans on concurrent branch threads overlap in wall time)")
    return rows


# ----------------------------------------------------------------------
# serve workload


def free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class Server:
    """One ``tickslab serve --transport tcp`` subprocess, always reaped."""

    def __init__(self, out: Path, tag: str, trace: int) -> None:
        self.port = free_port()
        self.dump = out / f"server-{tag}.json"
        self.log = out / f"server-{tag}.log"
        self.start = perf_counter()
        with open(self.log, "wb") as log:
            self.proc = subprocess.Popen(
                [sys.executable, str(HERE / "serve.py"), "--addr", f"127.0.0.1:{self.port}",
                 "--dump", str(self.dump), "--trace", str(trace)],
                cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL, stderr=log,
            )

    def wait_ready(self, listing_frame: bytes, listing_reply: bytes, limit_s: float = 60.0) -> float:
        """Seconds from launch until the first registry/list reply arrives."""
        while perf_counter() - self.start < limit_s:
            if self.proc.poll() is not None:
                tail = self.log.read_text(encoding="utf-8", errors="replace")[-400:]
                raise BenchError(f"server exited early: {tail}")
            try:
                with socket.create_connection(("127.0.0.1", self.port), timeout=REQUEST_TIMEOUT_S) as s:
                    s.sendall(listing_frame + b"\n")
                    reply = s.makefile("rb").readline().rstrip(b"\n")
            except OSError:
                sleep(0.005)
                continue
            ready = perf_counter() - self.start
            if reply != listing_reply:
                raise BenchError(f"registry/list reply differs: {reply[:200]!r}")
            return ready
        raise BenchError("server did not answer within the set-up limit")

    def stop(self) -> dict:
        """SIGTERM the server until it exits, then reap it and read its dump."""
        try:
            limit = perf_counter() + 30
            while self.proc.poll() is None and perf_counter() < limit:
                # A SIGTERM that lands in a socket finalizer is swallowed, and
                # one that lands just before accept() waits for a connection:
                # so signal again and connect until the server is gone.
                self.proc.send_signal(signal.SIGTERM)
                try:
                    socket.create_connection(("127.0.0.1", self.port), timeout=0.2).close()
                except OSError:
                    pass
                try:
                    self.proc.wait(timeout=0.5)
                except subprocess.TimeoutExpired:
                    pass
        finally:
            reap(self.proc)
        try:
            return json.loads(self.dump.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return {}


def check_reply(line: bytes, req_id: int) -> bool:
    try:
        doc = json.loads(line)
    except (UnicodeDecodeError, json.JSONDecodeError):
        return False
    return (
        isinstance(doc, dict)
        and doc.get("jsonrpc") == "2.0"
        and doc.get("id") == req_id
        and "error" not in doc
        and isinstance(doc.get("result"), dict)
    )


class Client:
    """One closed-loop client session on a non-blocking connection.

    ``lat`` gets one entry per frame: the round trip in ns, or None when the
    reply was missing, malformed, for another id, an error object or later
    than ``REQUEST_TIMEOUT_S``.  The connection closes as soon as the
    session is over, because the server accepts the next one only then.
    """

    def __init__(self, port: int, frames: list) -> None:
        self.frames = frames
        self.lat: list = []
        self.buf = b""
        self.sent_at = 0
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=REQUEST_TIMEOUT_S)
        self.started = perf_counter_ns()
        self.local_port = self.sock.getsockname()[1]
        self.sock.setblocking(False)

    def send(self) -> bool:
        """Send the next frame; True if the session is over (send failed)."""
        self.sent_at = perf_counter_ns()
        try:
            self.sock.sendall(self.frames[len(self.lat)][0])
        except OSError:
            return self.abort()
        return False

    def poll(self, now: int) -> bool:
        """Take what has arrived; True once the session is over."""
        try:
            data = self.sock.recv(65536)
        except BlockingIOError:
            return now - self.sent_at > REQUEST_TIMEOUT_S * 1e9 and self.abort()
        except OSError:
            return self.abort()
        if not data:
            return self.abort()
        self.buf += data
        if not self.buf.endswith(b"\n"):
            return False
        took = perf_counter_ns() - self.sent_at
        ok = check_reply(self.buf, self.frames[len(self.lat)][1])
        self.lat.append(took if ok else None)
        self.buf = b""
        if len(self.lat) == len(self.frames):
            self.sock.close()
            return True
        return self.send()

    def abort(self) -> bool:
        self.lat.extend([None] * (len(self.frames) - len(self.lat)))
        self.sock.close()
        return True


def replay_round(port: int, group: list, log: dict) -> None:
    """Run sessions at once, one client each, from this thread."""
    clients = []
    try:
        for frames in group:
            try:
                clients.append(Client(port, frames))
            except OSError:
                log["attempted"] += len(frames)
                log["failed"] += len(frames)
        live = [c for c in clients if not c.send()]
        while live:
            select.select([c.sock for c in live], [], [], 0.1)
            now = perf_counter_ns()
            live = [c for c in live if not c.poll(now)]
    finally:
        for c in clients:
            c.sock.close()
    samples = []
    for c in clients:
        log["attempted"] += len(c.frames)
        log["failed"] += sum(1 for x in c.lat if x is None)
        samples.extend(x for x in c.lat if x is not None)
        log["sessions"].append((c.started, c.local_port, c.lat))
        log["fallbacks"] += sum(1 for _, _, fb in c.frames if fb)
        log["tool_calls"] += len(c.frames) - 1
    log["samples"].append(samples)


def drive(sessions: list, seed: int, port: int, seconds: float, kernel: speed.EchoKernel) -> dict:
    """Whole passes of rounds, one round per ordered pair of sessions.

    A pass runs every ordered pair (for ``CLIENTS`` = 2) once, in the
    seeded order, so every run replays the same traffic; another pass runs
    while it would still end within ``seconds``.  The kernel is timed
    before each round.
    """
    pairs = list(itertools.permutations(range(len(sessions)), CLIENTS))
    random.Random(seed).shuffle(pairs)
    log = {"attempted": 0, "failed": 0, "sessions": [], "samples": [], "fallbacks": 0,
           "tool_calls": 0, "kernel_ns": [], "rounds_ns": [], "passes": 0}
    start = perf_counter_ns()
    longest = 0
    while True:
        pass_start = perf_counter_ns()
        for pair in pairs:
            log["kernel_ns"].append(kernel.run())
            t0 = perf_counter_ns()
            replay_round(port, [sessions[i] for i in pair], log)
            log["rounds_ns"].append(perf_counter_ns() - t0)
        log["passes"] += 1
        now = perf_counter_ns()
        longest = max(longest, now - pass_start)
        if now - start + longest > seconds * 1e9:
            return log


@contextlib.contextmanager
def one_core(pids: list):
    """Run this process and every thread of ``pids`` on one core.

    Timed phases run this way.  A serve round trip or a live-mode hand-over
    between branch threads then never waits for an idle core to wake, and
    the speed kernel runs on the core that does the work.  This process's
    affinity is restored afterwards.
    """
    allowed = os.sched_getaffinity(0)
    core = {min(allowed)}
    os.sched_setaffinity(0, core)
    try:
        for pid in pids:
            for tid in os.listdir(f"/proc/{pid}/task"):
                os.sched_setaffinity(int(tid), core)
        yield
    finally:
        os.sched_setaffinity(0, allowed)


class Echo:
    """``echo.py`` in a subprocess, with an ``EchoKernel`` connected to it."""

    def __init__(self) -> None:
        self.port = free_port()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "echo.py"), "--port", str(self.port)],
            cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        start = perf_counter()
        while True:
            try:
                sock = socket.create_connection(("127.0.0.1", self.port), timeout=REQUEST_TIMEOUT_S)
                break
            except OSError:
                if self.proc.poll() is not None or perf_counter() - start > 60:
                    reap(self.proc)
                    raise BenchError("the echo server did not start") from None
                sleep(0.005)
        self.kernel = speed.EchoKernel(sock)

    def close(self) -> None:
        self.kernel.close()   # the echo server exits once its connection closes
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            pass
        reap(self.proc)


def wait_p99_ms(client_sessions: list, conns: list) -> float:
    """p99 of client latency minus the server's handling span, per request.

    Connections are matched by client port: the k-th server connection from
    a port is the k-th client session (by start time) that used it.
    """
    by_port: dict[int, list] = {}
    for port, spans in conns:
        by_port.setdefault(port, []).append(spans)
    seen: dict[int, int] = {}
    waits = []
    for _, port, lat in client_sessions:
        k = seen.get(port, 0)
        seen[port] = k + 1
        server = by_port.get(port, [])
        if k >= len(server) or len(server[k]) != len(lat):
            continue
        waits.extend(c - s for c, s in zip(lat, server[k]) if c is not None)
    if not waits:
        return 0.0
    waits.sort()
    return tr.percentile(waits, TAIL_Q) / 1e6


def run_serve(args, reference: dict, out: Path, report: list) -> dict:
    spec = reference["task_set"]
    run_checked(
        [sys.executable, str(HERE / "worker.py"), "--workload", "episodes_ctm",
         "--seed", str(args.seed), "--seconds", "0", "--tasks", f"{spec['seed']}:{spec['count']}",
         "--out", str(out), "--capture", str(SERVE_SESSIONS)],
        "traffic capture",
    )
    traffic = json.loads((out / "traffic.json").read_text(encoding="utf-8"))
    per_task = reference["episodes_ctm"]["per_task"]
    bad = [ep["task"] for ep in traffic["episodes"]
           if ep["line_sha256"] != per_task[ep["task"]]["line_sha256"]]
    if bad:
        report.append(f"CHECK FAILED captured episodes differ from the reference: {bad}")
    listing = traffic["listing_frame"].encode()
    sessions = [
        [(listing + b"\n", 0, False)]
        + [(f.encode() + b"\n", req_id, fb) for f, req_id, fb in frames]
        for frames in traffic["sessions"]
    ]
    listing_reply = traffic["listing_reply"].encode()

    setups, imports, builds = [], [], []
    kernel = speed.Kernel()
    for i in range(SETUP_REPEATS):
        factor = speed.factor_now(kernel, reference["kernel_ns"])
        server = Server(out, f"setup{i}", 0)
        try:
            setups.append((server.wait_ready(listing, listing_reply), factor))
        except BaseException:
            server.stop()
            raise
        if i < SETUP_REPEATS - 1:
            dump = server.stop()
            imports.append(dump.get("import_s", 0.0))
            builds.append(dump.get("build_model_s", 0.0))
    echo = None
    try:
        echo = Echo()
        with one_core([server.proc.pid, echo.proc.pid]):
            plain = drive(sessions, args.seed, server.port, args.seconds, echo.kernel)
        if args.trace:
            traced_server = Server(out, "traced", 1)
            try:
                traced_server.wait_ready(listing, listing_reply)
                with one_core([traced_server.proc.pid, echo.proc.pid]):
                    traced = drive(sessions, args.seed, traced_server.port, args.seconds, echo.kernel)
            finally:
                tdump = traced_server.stop()
    except OSError as exc:
        raise BenchError(f"serve load failed: {exc}") from exc
    finally:
        dump = server.stop()
        if echo is not None:
            echo.close()
    imports.append(dump.get("import_s", 0.0))
    builds.append(dump.get("build_model_s", 0.0))
    if "rss_kb" not in dump:
        raise BenchError("server left no dump; it did not shut down cleanly")

    attempted, failed = plain["attempted"] + len(bad), plain["failed"] + len(bad)
    e2e = at_reference_speed(plain["samples"], plain["rounds_ns"], plain["kernel_ns"],
                             reference["echo_kernel_ns"])
    e2e.update(setup_metrics(setups))
    e2e["fallback_share"] = plain["fallbacks"] / plain["tool_calls"]
    e2e["peak_rss_mb"] = dump["rss_kb"] / 1024
    report.append(
        f"serve_tcp: {plain['passes']} pass(es) of {len(plain['rounds_ns']) // plain['passes']} rounds, "
        f"{e2e['ops']} ops in {sum(plain['rounds_ns']) / 1e9:.2f} s busy, {CLIENTS} closed-loop clients"
    )
    result = {"e2e": e2e, "attempted": attempted, "failed": failed}
    if args.trace:
        if "layers" not in tdump:
            raise BenchError("traced server left no dump")
        result["attempted"] += traced["attempted"]
        result["failed"] += traced["failed"]
        layers = layer_metrics(tdump["layers"], 1)
        for name in ("engine.slabs", "consensus.perturb.calls", "consensus.branches",
                     "consensus.critical_slab_share", "consensus.post_winner_ms",
                     "consensus.rethinks", "consensus.forced_dispatches"):
            layers.setdefault(name, 0.0)
        # the served world has no sync vector, so actuate never runs the chain
        layers["transport.wait_ms_p99"] = wait_p99_ms(traced["sessions"], tdump["conns"])
        layers["setup.import_s"] = statistics.median(imports)
        layers["params.build_model_s"] = statistics.median(builds)
        traced_rate = at_reference_speed(traced["samples"], traced["rounds_ns"], traced["kernel_ns"],
                                         reference["echo_kernel_ns"])["ops_per_s"]
        layers["trace.overhead_share"] = 1.0 - traced_rate / e2e["ops_per_s"]
        result["layers"] = layers
        result["layer_table"] = layer_table(tdump["layers"], sum(traced["rounds_ns"]))
    return result


# ----------------------------------------------------------------------


WORKLOADS = {"episodes_ctm": run_episodes, "episodes_live": run_episodes, "serve_tcp": run_serve}


def record() -> int:
    """Rewrite reference.json from this checkout's program and numpy."""
    OUT.mkdir(exist_ok=True)
    out = OUT / "record"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir()
    env = environment(0)
    task_set = {"seed": 0, "count": 100}
    args = argparse.Namespace(workload="episodes_ctm", seed=0, seconds=0, trace=0)
    proc, _, _ = launch_worker(args, out, f"{task_set['seed']}:{task_set['count']}")
    try:
        with one_core([proc.pid]):
            proc.stdin.write("go\n")
            proc.stdin.flush()
            proc.wait(timeout=CHILD_LIMIT_S)
    finally:
        reap(proc)
    result = json.loads((out / "result.json").read_text(encoding="utf-8"))
    kernel_ns = statistics.median(result["plain"]["kernel_ns"])
    echo = Echo()
    try:
        with one_core([echo.proc.pid]):
            echo_kernel_ns = statistics.median(echo.kernel.run() for _ in range(2000))
    finally:
        echo.close()
    per_task = {ep["task"]: {k: ep[k] for k in ("line_sha256", "steps")}
                for ep in result["plain"]["episodes"]}
    doc = {
        "numpy": env["numpy"],
        "python": env["python"],
        "tasks50": tasks50_digests(out),
        "task_set": task_set,
        "kernel_ns": kernel_ns,
        "echo_kernel_ns": echo_kernel_ns,
        "episodes_ctm": {
            "episodes_sha256": sha256_file(out / "episodes.jsonl"),
            "metrics_sha256": sha256_file(out / "metrics.json"),
            "per_task": [per_task[i] for i in range(task_set["count"])],
        },
    }
    REFERENCE.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE.relative_to(ROOT)} (numpy {env['numpy']}, kernels {kernel_ns:.0f} and {echo_kernel_ns:.0f} ns)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record", action="store_true", help="rewrite reference.json")
    args = parser.parse_args(argv)
    # a terminated run still unwinds, so every child process is reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    missing = [p for p in (ROOT / "src" / "tickslab", TASKS50) if not p.exists()]
    if missing:
        print(f"error: not a tickslab checkout, missing {missing[0]}", file=sys.stderr)
        return 2
    try:
        if args.record:
            return record()
        if args.workload is None:
            parser.error("--workload is required")
        reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
        out = OUT / args.workload
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        env = environment(args.seed)
        ticks = cpu_ticks()
        report = []
        if env["numpy"] != reference["numpy"]:
            report.append(
                f"numpy {env['numpy']} differs from the recorded {reference['numpy']}: "
                "digests may not reproduce"
            )
        preflight_ok = preflight(reference, out / "preflight", report)
        measured = WORKLOADS[args.workload](args, reference, out, report)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    env["cpu_steal_share"] = steal_share(ticks, cpu_ticks())
    attempted, failed = measured["attempted"], measured["failed"]
    correct = preflight_ok and failed == 0
    names = PER_LAYER if args.trace else END_TO_END
    values = measured["layers"] if args.trace else measured["e2e"]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in names.items()}

    print("env " + json.dumps(env, sort_keys=True))
    for line in report:
        print(line)
    print(f"{args.workload}: attempted={attempted} failed={failed} "
          f"ops_failed_share={failed / max(attempted, 1):.6f} correct={correct}")
    for name, unit in END_TO_END.items():
        print(f"  {name:30s} {measured['e2e'][name]:14.6f} {unit}")
    print(f"  {'setup_s at raw speed':30s} {measured['e2e']['raw_setup_s']:14.6f} s")
    print(f"  {'ops_per_s at raw speed':30s} {measured['e2e']['raw_ops_per_s']:14.6f} 1/s")
    print(f"  {'speed factor (median)':30s} {measured['e2e']['factor_p50']:14.6f}")
    if args.trace:
        for line in measured["layer_table"]:
            print(line)
        for name, unit in PER_LAYER.items():
            print(f"  {name:30s} {values[name]:14.6f} {unit}")
    (out / "env.json").write_text(json.dumps(env), encoding="utf-8")
    print(json.dumps({
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
