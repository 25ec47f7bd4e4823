"""Unit tests for the benchmark's own arithmetic and tracing.

Run: python3 -m pytest perfbench/test_bench.py
"""

import socket
import threading
import time

import pytest

import run
import speed
import tracing as tr


def span(name, span_id, parent, start, end, note=None):
    return (name, 1, span_id, parent, start, end, note)


def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))
    assert tr.percentile(samples, 0.5) == 50
    assert tr.percentile(samples, 0.99) == 99
    assert tr.percentile([7], 0.99) == 7
    with pytest.raises(ValueError):
        tr.percentile([], 0.5)
    with pytest.raises(ValueError):
        tr.percentile(samples, 1.0)


def test_p99_needs_ten_samples_beyond_it():
    assert tr.samples_beyond(1000, 0.99) == 10
    assert tr.samples_beyond(999, 0.99) == 9
    with pytest.raises(run.BenchError):
        run.op_metrics(list(range(1, 1000)), 10**9)
    metrics = run.op_metrics(list(range(1, 1001)), 2 * 10**9)
    assert metrics["op_ms_p50"] == 500 / 1e6 and metrics["op_ms_p99"] == 990 / 1e6
    assert metrics["ops"] == 1000 and metrics["ops_per_s"] == 500.0


def test_speed_factor_is_reference_over_the_nearby_median():
    kernel = [100, 100, 400, 100, 100, 200, 200, 200]
    # one slow kernel run among fast ones does not move any factor
    assert speed.scales(kernel, 100.0, window=2)[:4] == [1.0, 1.0, 1.0, 1.0]
    assert speed.scales(kernel, 100.0, window=2)[-1] == 0.5
    assert speed.scales(kernel, 100.0, window=0) == [100 / k for k in kernel]
    assert speed.Kernel(reps=2).run() > 0


def test_reference_speed_scales_each_stretch_by_its_factor():
    # six stretches of 200 ops; the machine ran the kernel twice as slow
    # in the last three, so their ops count half as long
    samples = [[1000] * 200] * 3 + [[2000] * 200] * 3
    busy = [10**9] * 3 + [2 * 10**9] * 3
    metrics = run.at_reference_speed(samples, busy, [100] * 3 + [200] * 3, 100.0)
    assert metrics["op_ms_p50"] == metrics["op_ms_p99"] == 1000 / 1e6
    assert metrics["ops_per_s"] == 1200 / 6.0
    assert metrics["raw_ops_per_s"] == 1200 / 9.0
    assert metrics["factor_p50"] == 0.75


def test_setup_is_the_median_of_scaled_launches():
    # (seconds, speed factor): scaled 0.15, 0.2, 0.2, 0.25, 0.25
    setups = [(0.30, 0.5), (0.40, 0.5), (0.20, 1.0), (0.50, 0.5), (0.25, 1.0)]
    metrics = run.setup_metrics(setups)
    assert metrics["setup_s"] == pytest.approx(0.2)
    assert metrics["raw_setup_s"] == 0.30


def test_union_clips_and_merges_overlaps():
    assert tr.union_ns([], 0, 100) == 0
    assert tr.union_ns([(10, 30), (20, 50)], 0, 100) == 40
    assert tr.union_ns([(10, 30), (40, 50)], 0, 100) == 30
    assert tr.union_ns([(-20, 10), (90, 130)], 0, 100) == 20
    assert tr.union_ns([(10, 60), (20, 30)], 0, 100) == 50


def test_self_time_subtracts_the_time_children_cover():
    spans = [
        span("op", 1, 0, 0, 100),
        span("decide", 2, 1, 10, 90),
        # two branches overlap on worker threads: their union counts once
        span("branch", 3, 2, 20, 60),
        span("branch", 4, 2, 30, 70),
        span("slab", 5, 3, 25, 45),
    ]
    own = tr.self_times(spans)
    assert own == {1: 20, 2: 30, 3: 20, 4: 40, 5: 20}
    totals = tr.layer_totals(spans)
    assert totals["branch"] == {"calls": 2, "self_ns": 60, "incl_ns": 80}
    # the self times of a single-threaded tree add up to the root's span
    serial = [span("op", 1, 0, 0, 100), span("a", 2, 1, 0, 40), span("b", 3, 2, 10, 20)]
    assert sum(tr.self_times(serial).values()) == 100


def test_worker_spans_take_the_open_main_span_as_parent():
    tracer = tr.Tracer()
    module = type("m", (), {})()
    module.outer = lambda fn: fn()
    module.inner = lambda: 2
    tracer.wrap(module, "outer", "outer")
    tracer.wrap(module, "inner", "inner")

    def spawn():
        worker = threading.Thread(target=module.inner)
        worker.start()
        worker.join(5)
        assert not worker.is_alive()
        return module.inner()

    tracer.begin_op()
    module.outer(spawn)
    tracer.end_op()
    tracer.uninstall()
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s[tr.NAME], []).append(s)
    (outer,) = by_name["outer"]
    (op,) = by_name["op"]
    assert outer[tr.PARENT] == op[tr.SPAN]
    assert [s[tr.PARENT] for s in by_name["inner"]] == [outer[tr.SPAN]] * 2
    assert all(s[tr.OP] == op[tr.SPAN] for s in tracer.spans)
    assert module.inner() == 2 and not hasattr(module.inner, "__wrapped__")


def test_wait_is_matched_by_client_port_occurrence():
    # port 5000 was used twice; the k-th server connection is the k-th session
    sessions = [(1, 5000, [100, 200]), (2, 5001, [300]), (3, 5000, [1000, 50])]
    conns = [(5000, [90, 150]), (5001, [100]), (5000, [10, 40])]
    waits = sorted([10, 50, 200, 990, 10])
    assert run.wait_p99_ms(sessions, conns) == tr.percentile(waits, 0.99) / 1e6
    # a session the server did not see in full is skipped, not misattributed
    assert run.wait_p99_ms([(1, 7000, [5])], conns) == 0.0


def episode(task, pass_, steps=3, slabs=40, perturbs=8, branches=8):
    return {"task": task, "pass": pass_, "steps": steps, "slabs": slabs,
            "perturbs": perturbs, "branches": branches}


def test_counts_must_repeat_across_passes_and_phases():
    plain = [episode(0, 0), episode(1, 0, slabs=50), episode(0, 1), episode(1, 1, slabs=50)]
    assert run.count_drift({"plain": plain, "traced": [episode(1, 0, slabs=50)]}) == []
    (reason,) = run.count_drift({"plain": plain, "traced": [episode(1, 0, slabs=51)]})
    assert reason == "task 1 plain pass 0 vs traced pass 0: slabs 50->51"
    # fewer slabs than a recorded run is not a failure if it repeats
    assert run.count_drift({"plain": [episode(0, 0, slabs=10), episode(0, 1, slabs=10)]}) == []


def test_traced_totals_must_match_the_untraced_counts():
    plain = [episode(0, 0), episode(1, 0), episode(0, 1), episode(1, 1)]
    layers = {"engine.slabs": 80.0, "consensus.perturb.calls": 16.0, "consensus.branches": 16.0}
    assert run.traced_count_drift(layers, plain, 2) == []
    layers["consensus.branches"] = 17.0
    assert run.traced_count_drift(layers, plain, 2) == [
        "traced consensus.branches 17.0 != untraced 16.0"
    ]


def test_measure_limit_grows_with_seconds_and_trace():
    assert run.measure_limit_s(0, 0) == 90.0
    assert run.measure_limit_s(20, 0) == 130.0
    assert run.measure_limit_s(60, 1) == 420.0


def test_steal_share_is_the_steal_tick_delta_over_all_ticks():
    before = [100, 0, 10, 500, 0, 0, 0, 20]
    after = [160, 0, 20, 520, 0, 0, 0, 30]
    assert run.steal_share(before, after) == 10 / 100
    assert run.steal_share(None, after) is None
    assert run.steal_share(before, before) is None


def answering_server(*connections):
    """A TCP server that, like ``tickslab serve``, takes one connection at a
    time; it answers the k-th line of the i-th connection with
    ``connections[i][k]`` (None: no answer) and waits for the peer to close.
    """
    listener = socket.create_server(("127.0.0.1", 0))

    def serve():
        for replies in connections:
            conn, _ = listener.accept()
            with conn, conn.makefile("rb") as lines:
                for reply in replies:
                    if not lines.readline():
                        break
                    if reply is not None:
                        conn.sendall(reply)
                lines.readline()

    thread = threading.Thread(target=serve)
    thread.start()
    return listener, thread


def new_log():
    return {"attempted": 0, "failed": 0, "sessions": [], "samples": [],
            "fallbacks": 0, "tool_calls": 0}


def test_round_counts_bad_and_missing_replies_as_failed(monkeypatch):
    monkeypatch.setattr(run, "REQUEST_TIMEOUT_S", 0.2)
    ok = b'{"jsonrpc":"2.0","id":1,"result":{}}\n'
    wrong_id = b'{"jsonrpc":"2.0","id":9,"result":{}}\n'
    error = b'{"jsonrpc":"2.0","id":3,"error":{"code":-1}}\n'
    frames = [(b"a\n", 1, False), (b"b\n", 2, True), (b"c\n", 3, False), (b"d\n", 4, False)]
    # the fourth request gets no reply: the client times out on it
    listener, thread = answering_server([ok, wrong_id, error, None])
    try:
        log = new_log()
        run.replay_round(listener.getsockname()[1], [frames], log)
    finally:
        thread.join(5)
        listener.close()
    assert not thread.is_alive()
    assert log["attempted"] == 4 and log["failed"] == 3
    assert len(log["samples"]) == 1 and len(log["samples"][0]) == 1
    (_, _, lat), = log["sessions"]
    assert lat[0] is not None and lat[1:] == [None, None, None]
    assert log["fallbacks"] == 1 and log["tool_calls"] == 3


def test_round_with_no_server_fails_every_frame():
    with socket.create_server(("127.0.0.1", 0)) as probe:
        port = probe.getsockname()[1]
    log = new_log()
    run.replay_round(port, [[(b"a\n", 1, False), (b"b\n", 2, False)]], log)
    assert log["attempted"] == 2 and log["failed"] == 2 and log["sessions"] == []


def test_a_finished_session_lets_the_serial_server_take_the_next(monkeypatch):
    monkeypatch.setattr(run, "REQUEST_TIMEOUT_S", 2.0)
    reply = b'{"jsonrpc":"2.0","id":1,"result":{}}\n'
    frames = [(b"a\n", 1, False)] * 3
    listener, thread = answering_server([reply] * 3, [reply] * 3)
    try:
        log = new_log()
        start = time.perf_counter()
        run.replay_round(listener.getsockname()[1], [frames, frames], log)
        took = time.perf_counter() - start
    finally:
        thread.join(5)
        listener.close()
    assert not thread.is_alive()
    assert log["attempted"] == 6 and log["failed"] == 0 and took < 1.0
