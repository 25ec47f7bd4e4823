import json
import socket
import struct
import threading
import time
from contextlib import contextmanager
from io import BytesIO
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tickslab import transport as transport_mod
from tickslab.config import Config
from tickslab.envelope import Envelope, EnvelopeMeta, sync_digest
from tickslab.errors import FrameTooLong, IdMismatch, TransportClosed, TransportTimeout
from tickslab.harness.episode import Policy, run_episode
from tickslab.harness.tasks import load_tasks
from tickslab.harness.world import WorldSession, build_registry, demo_world, world_from_task
from tickslab.params import build_model
from tickslab.registry import SlotKind, ToolRegistry, ToolSpec
from tickslab.transport import (
    MAX_FRAME_BYTES,
    StreamTransport,
    TcpTransport,
    ToolServer,
    dispatch,
    error_result,
    ok_result,
)

TASKS = Path(__file__).parent / "fixtures" / "tasks50.jsonl"


def make_server(handler=None):
    registry = ToolRegistry(
        [ToolSpec("noop"), ToolSpec("echo", (("object", SlotKind.OBJECT_REF),))]
    )

    def default_handler(name, args):
        if name == "noop":
            return ok_result()
        return ok_result(echo=args)

    return ToolServer(registry, handler or default_handler)


# An int literal with more digits than Python converts from a string.
HUGE = "9" * 5000
HUGE_FRAMES = [
    '{"jsonrpc":"2.0","id":%s,"method":"registry/list"}' % HUGE,
    '{"jsonrpc":"2.0","id":1,"method":"tool/echo","params":{"args":{"object":%s}}}' % HUGE,
]


def envelope(method="tool/noop", env_id=1, args=None):
    sync = np.zeros(4, dtype=np.float32)
    return Envelope(
        id=env_id,
        method=method,
        args=args or {},
        meta=EnvelopeMeta(
            episode="ep",
            step=0,
            slab_count=1,
            ticks=4,
            confidence=0.5,
            affect=(0.0,) * 8,
            sync_digest=sync_digest(sync),
            fallback=False,
        ),
    )


def reply_with(raw):
    """An exchange that ignores the request and returns ``raw``."""
    return lambda frame: raw


class TestLoopback:
    """``dispatch`` straight to a server's ``handle_frame``, in process."""

    def test_noop_ok(self):
        result = dispatch(envelope(), make_server().handle_frame)
        assert result.status == "ok"
        assert result.payload == {}

    def test_unknown_tool_is_error_result(self):
        result = dispatch(envelope(method="tool/warp"), make_server().handle_frame)
        assert result.status != "ok"
        assert "UnknownTool" in result.payload["reason"]

    def test_id_mismatch_raises(self):
        server = make_server()

        def rewriter(frame):
            doc = json.loads(server.handle_frame(frame))
            doc["id"] = doc["id"] + 999
            return json.dumps(doc).encode()

        with pytest.raises(IdMismatch):
            dispatch(envelope(), rewriter)

    @pytest.mark.parametrize("response_id", [True, 1.0])
    def test_id_of_another_type_raises(self, response_id):
        # Python's True == 1 == 1.0; the JSON values are still not the id 1
        reply = json.dumps({"jsonrpc": "2.0", "id": response_id, "result": {}}).encode()
        with pytest.raises(IdMismatch):
            dispatch(envelope(), reply_with(reply))

    def test_response_nested_too_deep_is_closed(self):
        with pytest.raises(TransportClosed):
            dispatch(envelope(), reply_with(b"[" * 100_000))

    @pytest.mark.parametrize(
        "reply",
        [
            '{"jsonrpc":"2.0","id":%s,"result":{}}' % HUGE,
            '{"jsonrpc":"2.0","id":1,"result":{"payload":{"n":%s}}}' % HUGE,
        ],
        ids=["id", "payload"],
    )
    def test_response_number_past_the_digit_limit_is_closed(self, reply):
        with pytest.raises(TransportClosed, match="unreadable response frame"):
            dispatch(envelope(), reply_with(reply.encode()))

    @pytest.mark.parametrize(
        "reply",
        [
            {"error": "boom"},
            {"error": [1]},
            {"result": "ok"},
            {"result": [1]},
            {"result": {"status": "ok", "payload": "x"}},
            {"result": {"status": "error", "payload": [1]}},
        ],
    )
    def test_response_member_that_is_not_an_object_is_closed(self, reply):
        raw = json.dumps({"jsonrpc": "2.0", "id": 1, **reply}).encode()
        with pytest.raises(TransportClosed, match="not an object"):
            dispatch(envelope(), reply_with(raw))

    @pytest.mark.parametrize(
        "reply",
        [
            {},
            {"result": {}},
            {"result": {"payload": {}}},
            {"result": {"status": "ok"}},
            {"result": {"status": "ok", "payload": {}}, "error": {"code": -1}},
        ],
        ids=["neither", "empty_result", "no_status", "no_payload", "both"],
    )
    def test_response_that_is_not_one_result_or_error_is_closed(self, reply):
        # JSON-RPC 2.0 §5: a response holds exactly one of result and error
        raw = json.dumps({"jsonrpc": "2.0", "id": 1, **reply}).encode()
        with pytest.raises(TransportClosed):
            dispatch(envelope(), reply_with(raw))

    def test_handler_exception_becomes_error_result(self):
        def handler(name, args):
            raise RuntimeError("tool exploded")

        result = dispatch(envelope(), make_server(handler).handle_frame)
        assert result.status != "ok"
        assert "exploded" in result.payload["reason"]

    def test_args_round_trip_through_frames(self):
        result = dispatch(
            envelope(method="tool/echo", args={"object": "cup"}), make_server().handle_frame
        )
        assert result.status == "ok"
        assert result.payload == {"echo": {"object": "cup"}}


class TestRegistryList:
    def test_registry_list_method(self):
        server = make_server()
        frame = json.dumps(
            {"jsonrpc": "2.0", "id": 3, "method": "registry/list"}
        ).encode()
        response = json.loads(server.handle_frame(frame))
        assert response["id"] == 3
        tools = response["result"]["tools"]
        assert [t["name"] for t in tools] == ["noop", "echo"]
        assert tools[1]["arg_slots"] == [["object", "object_ref"]]

    def test_malformed_frame_gets_parse_error(self):
        server = make_server()
        response = json.loads(server.handle_frame(b"{nope"))
        assert response["error"]["code"] == -32700

    @pytest.mark.parametrize("frame", HUGE_FRAMES, ids=["id", "arg"])
    def test_number_past_the_digit_limit_gets_parse_error(self, frame):
        response = json.loads(make_server().handle_frame(frame.encode()))
        assert response["id"] is None
        assert response["error"]["code"] == -32700

    def test_nested_frame_gets_parse_error(self):
        server = make_server()
        response = json.loads(server.handle_frame(b"[" * 100_000))
        assert response["id"] is None
        assert response["error"]["code"] == -32700

    def test_unencodable_result_gets_internal_error(self):
        server = make_server()
        response = deepest_echo(server.handle_frame)
        assert response["id"] == 7
        assert response["error"]["code"] == -32603

    def test_unknown_method(self):
        server = make_server()
        frame = json.dumps({"jsonrpc": "2.0", "id": 4, "method": "shutdown"}).encode()
        response = json.loads(server.handle_frame(frame))
        assert response["error"]["code"] == -32601


    @pytest.mark.parametrize("method", ["tool/noop", "registry/list"])
    @pytest.mark.parametrize("params", [[1], [], "x", 3, True])
    def test_non_object_params_get_invalid_params(self, method, params):
        server = make_server()
        frame = json.dumps(
            {"jsonrpc": "2.0", "id": 5, "method": method, "params": params}
        ).encode()
        response = json.loads(server.handle_frame(frame))
        assert response["id"] == 5
        assert response["error"]["code"] == -32602
        assert "result" not in response

    def test_null_params_are_no_params(self):
        server = make_server()
        frame = json.dumps(
            {"jsonrpc": "2.0", "id": 6, "method": "tool/noop", "params": None}
        ).encode()
        response = json.loads(server.handle_frame(frame))
        assert response["result"]["status"] == "ok"


def world_server():
    return ToolServer(build_registry(), WorldSession(demo_world()).handler)


def navigate_frame(req_id, params):
    return json.dumps(
        {"jsonrpc": "2.0", "id": req_id, "method": "tool/navigate", "params": params}
    ).encode()


class TestToolArgs:
    @pytest.mark.parametrize("args", [[1], "x", 0, False, None])
    def test_args_that_are_not_an_object_get_invalid_params(self, args, caplog):
        response = json.loads(world_server().handle_frame(navigate_frame(8, {"args": args})))
        assert response["id"] == 8
        assert response["error"]["code"] == -32602
        assert "args must be an object" in response["error"]["message"]
        assert not caplog.records  # refused before the handler, nothing raised

    @pytest.mark.parametrize("params", [{}, None], ids=["no-args", "null-params"])
    def test_absent_args_are_empty(self, params):
        response = json.loads(world_server().handle_frame(navigate_frame(9, params)))
        assert response["result"] == {
            "status": "error", "payload": {"reason": "navigate needs a location name"},
        }


# Requests whose method holds a lone surrogate, which JSON's \ud800 escape
# decodes to and which no UTF-8 frame can carry back.
SURROGATE_FRAMES = [
    b'{"jsonrpc":"2.0","id":1,"method":"\\ud800"}',
    b'{"jsonrpc":"2.0","id":2,"method":"tool/\\ud800"}',
]


class TestLoneSurrogates:
    @pytest.mark.parametrize("frame", SURROGATE_FRAMES)
    def test_method_gets_invalid_request(self, frame):
        response = json.loads(make_server().handle_frame(frame))
        assert response["id"] is None
        assert response["error"]["code"] == -32600

    def test_escaped_pair_is_a_method_name(self):
        frame = b'{"jsonrpc":"2.0","id":3,"method":"tool/\\ud83d\\ude00"}'
        response = json.loads(make_server().handle_frame(frame))
        assert response["error"] == {"code": -32601, "message": "UnknownTool: \U0001f600"}

    def test_navigate_to_a_lone_surrogate_leaves_the_world_as_it_was(self):
        server = world_server()
        response = json.loads(server.handle_frame(navigate_frame(4, {"args": {"to": "\ud800"}})))
        assert response["result"]["payload"] == {"reason": "navigate needs a location name"}
        response = json.loads(server.handle_frame(navigate_frame(5, {"args": {"to": "sink"}})))
        assert response["result"]["payload"] == {"robot_at": "sink"}


# Strings over every code point, lone surrogates included; json.dumps
# escapes them, so every drawn object becomes an ASCII frame.
ANY_TEXT = st.text(st.characters(exclude_categories=()), max_size=12)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | ANY_TEXT,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(ANY_TEXT, kids, max_size=4),
    max_leaves=12,
)
# Tool args with list values, nested lists and too-long lists among them,
# under the slot names the tools read.
LISTS = st.recursive(
    st.lists(st.integers() | st.floats() | st.booleans() | ANY_TEXT, max_size=70),
    lambda kids: st.lists(kids, max_size=3),
    max_leaves=80,
)
TOOL_ARGS = st.dictionaries(
    st.sampled_from(["duty", "to", "object"]) | ANY_TEXT, LISTS | JSON_VALUES, max_size=3
)
TOOL_NAMES = ["noop", "echo", "navigate", "pick", "place", "actuate"]
REQUESTS = st.tuples(
    st.fixed_dictionaries(
        {},
        optional={
            "jsonrpc": st.just("2.0") | JSON_VALUES,
            "id": st.integers() | JSON_VALUES,
            "method": st.sampled_from(["registry/list"] + [f"tool/{t}" for t in TOOL_NAMES])
            | ANY_TEXT.map("tool/".__add__)
            | JSON_VALUES,
            "params": st.fixed_dictionaries({}, optional={"args": TOOL_ARGS | JSON_VALUES})
            | JSON_VALUES,
        },
    ),
    st.dictionaries(ANY_TEXT, JSON_VALUES, max_size=3),
).map(lambda parts: {**parts[1], **parts[0]})


def valid_request(frame):
    """The object ``frame`` holds if it is a valid JSON-RPC 2.0 request or
    notification: UTF-8 JSON, ``jsonrpc`` "2.0", a method string, and an id
    that is absent, an int or a string (strings in valid Unicode); else None."""

    def text(value):
        return isinstance(value, str) and not any("\ud800" <= ch <= "\udfff" for ch in value)

    try:
        doc = json.loads(frame.decode("utf-8"))
    except (ValueError, RecursionError):
        return None
    if not (isinstance(doc, dict) and doc.get("jsonrpc") == "2.0" and text(doc.get("method"))):
        return None
    if "id" in doc and not (type(doc["id"]) is int or text(doc["id"])):
        return None
    return doc


class TestFrameFuzz:
    @pytest.mark.parametrize("server", [make_server, world_server], ids=["echo", "world"])
    @settings(max_examples=300, deadline=None)
    @given(
        frame=st.binary(max_size=200)
        | REQUESTS.map(lambda doc: json.dumps(doc, ensure_ascii=True).encode())
    )
    @example(frame=SURROGATE_FRAMES[0])
    @example(frame=b'{"jsonrpc":"2.0","id":1,"method":"tool/actuate","params":{"args":{"duty":[0.5,1]}}}')
    @example(frame=b'{"jsonrpc":"2.0","id":2,"method":"tool/actuate","params":{"args":{"duty":[[0.5]]}}}')
    @example(frame=b'{"jsonrpc":"2.0","method":"tool/noop"}')
    @example(frame=b'{"jsonrpc":"2.0","id":"a1","method":"registry/list"}')
    @example(frame=b'{"jsonrpc":"2.0","id":null,"method":"registry/list"}')
    def test_any_frame_gets_at_most_one_reply_frame(self, server, frame):
        # none exactly for a valid notification; any other frame gets one,
        # with the request's id, or null where the frame is no valid request
        request = valid_request(frame)
        reply = server().handle_frame(frame)
        if request is not None and "id" not in request:
            assert reply is None
            return
        assert b"\n" not in reply
        response = json.loads(reply)
        assert response["jsonrpc"] == "2.0"
        assert ("result" in response) != ("error" in response)
        want = None if request is None else request["id"]
        assert type(response["id"]) is type(want) and response["id"] == want


class TestServeStream:
    def test_notifications_get_no_frame_and_string_ids_are_echoed(self):
        calls = []

        def handler(name, args):
            calls.append(name)
            return ok_result()

        frames = [
            b'{"jsonrpc":"2.0","id":1,"method":"registry/list"}',
            b'{"jsonrpc":"2.0","method":"tool/noop"}',
            b'{"jsonrpc":"2.0","method":"notifications/initialized"}',
            b'{"jsonrpc":"2.0","id":"a1","method":"tool/noop"}',
        ]
        written = BytesIO()
        stream = StreamTransport(BytesIO(b"".join(frame + b"\n" for frame in frames)), written)
        make_server(handler).serve_stream(stream)
        replies = [json.loads(line) for line in written.getvalue().splitlines()]
        assert [reply["id"] for reply in replies] == [1, "a1"]
        assert all("result" in reply for reply in replies)
        # the tool notification was carried out, only its reply dropped
        assert calls == ["noop", "noop"]


CLIENT_TIMEOUT_S = 5.0


@contextmanager
def serving_tcp(server, max_clients):
    """Run ``server.serve_tcp`` on a thread; yield (port, thread).

    On exit the server must have ended by itself after ``max_clients``.
    """
    ready = threading.Event()
    port_holder = {}

    def set_port(port):
        port_holder["port"] = port
        ready.set()

    thread = threading.Thread(
        target=server.serve_tcp, args=("127.0.0.1", 0, max_clients, set_port), daemon=True
    )
    thread.start()
    assert ready.wait(5.0)
    yield port_holder["port"], thread
    thread.join(5.0)
    assert not thread.is_alive()


REGISTRY_LIST = b'{"jsonrpc":"2.0","id":1,"method":"registry/list"}'


def client_socket(port):
    # a timeout turns a dead server into a failure instead of a hang
    return socket.create_connection(("127.0.0.1", port), timeout=CLIENT_TIMEOUT_S)


def connect(port):
    return TcpTransport(client_socket(port))


def exchange_on(transport):
    """An exchange for ``dispatch``: one frame out on ``transport``, one frame back."""

    def exchange(frame):
        transport.send_frame(frame)
        return transport.recv_frame()

    return exchange


def echo_frame(depth, req_id=7):
    args = '{"object":' + "[" * depth + "]" * depth + "}"
    frame = '{"jsonrpc":"2.0","id":%d,"method":"tool/echo","params":{"args":%s}}'
    return (frame % (req_id, args)).encode()


def deepest_echo(send):
    """Response to the echo frame nested as deep as the server still decodes.

    How deep the JSON decoder gets depends on the stack it starts from (about
    990 levels from a plain script, less under pytest), so the depth is
    searched for.  Echoed back, those args sit two levels deeper in the
    result frame, which the encoder cannot reach.  ``send`` returns the raw
    response; only error frames are decoded, since an echo result may nest
    deeper than the test's own stack can decode.
    """

    def parse_error(depth):
        raw = send(echo_frame(depth))
        return raw.startswith(b'{"error"') and json.loads(raw)["error"]["code"] == -32700

    decodes, fails = 1, 2000
    assert parse_error(fails)
    while fails - decodes > 1:
        depth = (decodes + fails) // 2
        if parse_error(depth):
            fails = depth
        else:
            decodes = depth
    return json.loads(send(echo_frame(decodes)))


def replies_to(raw, over):
    """The reply frames to the bytes ``raw``, sent whole and then ended: on a
    stream over ``BytesIO``, or over TCP with the client shutting its writing
    side."""
    if over == "stream":
        written = BytesIO()
        make_server().serve_stream(StreamTransport(BytesIO(raw), written))
        return written.getvalue().splitlines()
    with serving_tcp(make_server(), 1) as (port, _):
        with client_socket(port) as sock:
            sock.sendall(raw)
            sock.shutdown(socket.SHUT_WR)
            with sock.makefile("rb") as replies:
                return replies.read().splitlines()


NOOP_FRAMES = [b'{"jsonrpc":"2.0","id":%d,"method":"tool/noop"}' % i for i in (1, 2)]


@pytest.mark.parametrize("over", ["stream", "tcp"])
class TestLineEnds:
    def test_last_frame_without_a_newline_gets_its_reply(self, over):
        replies = replies_to(NOOP_FRAMES[0] + b"\n" + NOOP_FRAMES[1], over)
        assert replies == [make_server().handle_frame(frame) for frame in NOOP_FRAMES]

    def test_frame_ending_in_crlf_gets_its_reply(self, over):
        # CR is JSON whitespace, so the frame decodes with it left on
        replies = replies_to(b"".join(frame + b"\r\n" for frame in NOOP_FRAMES), over)
        assert replies == [make_server().handle_frame(frame) for frame in NOOP_FRAMES]


class TestTcp:
    def test_unencodable_result_does_not_stop_server(self):
        with serving_tcp(make_server(), 1) as (port, _):
            transport = connect(port)
            try:
                response = deepest_echo(exchange_on(transport))
                assert response["id"] == 7
                assert response["error"]["code"] == -32603
                assert dispatch(envelope(env_id=2), exchange_on(transport)).status == "ok"
            finally:
                transport.close()

    def test_non_object_params_do_not_stop_server(self):
        with serving_tcp(make_server(), 1) as (port, _):
            transport = connect(port)
            try:
                bad = {"jsonrpc": "2.0", "id": 1, "method": "tool/noop", "params": [1]}
                transport.send_frame(json.dumps(bad).encode())
                response = json.loads(transport.recv_frame())
                assert response["id"] == 1
                assert response["error"]["code"] == -32602
                assert dispatch(envelope(env_id=2), exchange_on(transport)).status == "ok"
            finally:
                transport.close()

    def test_non_object_args_do_not_stop_server(self):
        with serving_tcp(world_server(), 1) as (port, _):
            transport = connect(port)
            try:
                transport.send_frame(navigate_frame(1, {"args": [1]}))
                response = json.loads(transport.recv_frame())
                assert response["id"] == 1
                assert response["error"]["code"] == -32602
                result = dispatch(
                    envelope("tool/navigate", 2, {"to": "sink"}), exchange_on(transport)
                )
                assert result.payload == {"robot_at": "sink"}
            finally:
                transport.close()

    def test_lone_surrogate_method_does_not_stop_server(self):
        with serving_tcp(make_server(), 1) as (port, _):
            transport = connect(port)
            try:
                for frame in SURROGATE_FRAMES:
                    transport.send_frame(frame)
                    response = json.loads(transport.recv_frame())
                    assert response["error"]["code"] == -32600
                assert dispatch(envelope(env_id=3), exchange_on(transport)).status == "ok"
            finally:
                transport.close()

    def test_frame_too_long_ends_the_connection_and_serves_next(self):
        with serving_tcp(make_server(), 2) as (port, _):
            with client_socket(port) as sock, sock.makefile("rb") as reader:
                try:
                    sock.sendall(b"[" * (MAX_FRAME_BYTES + 1) + b"\n")
                    reply = reader.readline()
                except (BrokenPipeError, ConnectionResetError):
                    # the server closes with the rest of the line unread,
                    # which may reset the connection before the reply is read
                    reply = None
            if reply is not None:
                response = json.loads(reply)
                assert response["id"] is None
                assert response["error"] == {"code": -32600, "message": "frame too long"}
            transport = connect(port)
            try:
                assert dispatch(envelope(), exchange_on(transport)).status == "ok"
            finally:
                transport.close()

    def test_number_past_the_digit_limit_does_not_stop_server(self):
        with serving_tcp(make_server(), 1) as (port, _):
            transport = connect(port)
            try:
                for frame in HUGE_FRAMES:
                    transport.send_frame(frame.encode())
                    response = json.loads(transport.recv_frame())
                    assert response["error"]["code"] == -32700
                assert dispatch(envelope(env_id=2), exchange_on(transport)).status == "ok"
            finally:
                transport.close()

    def test_round_trip_over_tcp(self):
        with serving_tcp(make_server(), 1) as (port, _):
            transport = connect(port)
            try:
                result = dispatch(envelope(), exchange_on(transport))
                assert result.status == "ok"
                result = dispatch(
                    envelope(method="tool/echo", env_id=2, args={"object": "x"}),
                    exchange_on(transport),
                )
                assert result.payload == {"echo": {"object": "x"}}
            finally:
                transport.close()

    def test_peer_close_raises(self):
        listener = socket.create_server(("127.0.0.1", 0))
        port = listener.getsockname()[1]

        def close_on_accept():
            conn, _ = listener.accept()
            conn.close()

        thread = threading.Thread(target=close_on_accept, daemon=True)
        thread.start()
        transport = connect(port)
        with pytest.raises(TransportClosed):
            transport.send_frame(b"{}")
            transport.recv_frame()
        listener.close()

    def test_client_reset_does_not_stop_server(self):
        with serving_tcp(make_server(), 2) as (port, thread):
            # first client sends requests without reading the replies, then
            # resets the connection (linger 0 makes close send a RST)
            resetter = client_socket(port)
            frame = json.dumps({"jsonrpc": "2.0", "id": 1, "method": "tool/noop"}).encode()
            resetter.sendall((frame + b"\n") * 50)
            resetter.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            resetter.close()

            transport = connect(port)
            try:
                assert thread.is_alive()
                assert dispatch(envelope(), exchange_on(transport)).status == "ok"
            finally:
                transport.close()

    def test_nested_frame_does_not_stop_server(self):
        with serving_tcp(make_server(), 2) as (port, _):
            transport = connect(port)
            try:
                transport.send_frame(b"[" * 100_000)
                response = json.loads(transport.recv_frame())
                assert response["error"]["code"] == -32700
            finally:
                transport.close()
            transport = connect(port)
            try:
                assert dispatch(envelope(), exchange_on(transport)).status == "ok"
            finally:
                transport.close()

    def test_server_error_disconnects_client_and_serves_next(self, monkeypatch):
        server = make_server()
        handle_frame = server.handle_frame
        calls = []

        def fail_first(frame):
            calls.append(frame)
            if len(calls) == 1:
                raise RuntimeError("server bug")
            return handle_frame(frame)

        monkeypatch.setattr(server, "handle_frame", fail_first)
        with serving_tcp(server, 2) as (port, _):
            transport = connect(port)
            try:
                # closed by the server; the client's own timeout would raise
                # TransportTimeout instead
                with pytest.raises(TransportClosed):
                    dispatch(envelope(), exchange_on(transport))
            finally:
                transport.close()
            transport = connect(port)
            try:
                assert dispatch(envelope(), exchange_on(transport)).status == "ok"
            finally:
                transport.close()

    def assert_served(self, port):
        transport = connect(port)
        try:
            transport.send_frame(REGISTRY_LIST)
            assert json.loads(transport.recv_frame())["result"]["tools"]
        finally:
            transport.close()

    def test_idle_client_does_not_stall_the_next(self, caplog, monkeypatch):
        monkeypatch.setattr(transport_mod, "IDLE_TIMEOUT_S", 0.2)
        with serving_tcp(make_server(), 2) as (port, _):
            idle = client_socket(port)
            try:
                self.assert_served(port)
                assert idle.recv(1) == b""  # the server ended the idle client
            finally:
                idle.close()
        assert [r.levelname for r in caplog.records] == ["WARNING"]
        assert "idle client" in caplog.records[0].getMessage()

    def test_client_that_reads_no_reply_does_not_stall_the_next(self, caplog, monkeypatch):
        # 0.5 s, so a stalled test thread does not time the server's read out first
        monkeypatch.setattr(transport_mod, "IDLE_TIMEOUT_S", 0.5)
        with serving_tcp(make_server(), 2) as (port, _):
            flood = client_socket(port)
            try:
                # replies pile up unread until the server's write times out
                with pytest.raises(OSError) as info:
                    while True:
                        flood.sendall((REGISTRY_LIST + b"\n") * 64)
                assert not isinstance(info.value, TimeoutError)
            finally:
                flood.close()
            self.assert_served(port)
        assert [r.levelname for r in caplog.records] == ["WARNING"]
        assert "timed out writing" in caplog.records[0].getMessage()

    def test_close_after_a_write_timeout_does_not_wait_it_out_again(self):
        timeout_s = 0.5
        with socket.create_server(("127.0.0.1", 0)) as listener:
            peer = client_socket(listener.getsockname()[1])
            conn, _ = listener.accept()
        conn.settimeout(timeout_s)
        transport = TcpTransport(conn)
        try:
            # the peer reads nothing, so a frame sticks in the writer
            with pytest.raises(TransportTimeout):
                while True:
                    transport.send_frame(b"x" * 4096)
            start = time.perf_counter()
            transport.close()
            assert time.perf_counter() - start < timeout_s / 2
        finally:
            peer.close()


class TestPathsAgree:
    def test_tcp_and_in_process_replies_are_byte_equal(self, monkeypatch):
        # the request frames of one ctm episode, as its in-process server saw them
        frames = []
        handle_frame = ToolServer.handle_frame

        def record(self, frame):
            frames.append(frame)
            return handle_frame(self, frame)

        config = Config()
        registry = build_registry()
        task = load_tasks(TASKS)[16]  # calls navigate, noop and actuate
        with monkeypatch.context() as patch:
            patch.setattr(ToolServer, "handle_frame", record)
            log = run_episode(
                task, config, Policy.CTM,
                model=build_model(config, len(registry), registry.max_slots),
            )
        assert len(frames) == len(log.records) > 0

        def fresh_server():
            return ToolServer(build_registry(), WorldSession(world_from_task(task)).handler)

        in_process = fresh_server()
        expected = [in_process.handle_frame(frame) for frame in frames]
        actuated = [
            reply for frame, reply in zip(frames, expected)
            if json.loads(frame)["method"] == "tool/actuate"
            and json.loads(reply)["result"]["status"] == "ok"
        ]
        assert actuated  # so the TCP path answers real duties, not only refusals
        with serving_tcp(fresh_server(), 1) as (port, _):
            transport = connect(port)
            try:
                exchange = exchange_on(transport)
                assert [exchange(frame) for frame in frames] == expected
            finally:
                transport.close()


class TestFraming:
    def test_stream_framing_round_trip(self):
        from tickslab.transport import StreamTransport

        buffer = BytesIO()
        writer_side = StreamTransport(BytesIO(b'{"pong":1}\n'), buffer)
        writer_side.send_frame(b'{"ping":1}')
        assert buffer.getvalue() == b'{"ping":1}\n'
        assert writer_side.recv_frame() == b'{"pong":1}'

    def test_frame_length_is_bounded(self):
        longest = b"x" * MAX_FRAME_BYTES
        for tail in (b"\n", b""):
            assert StreamTransport(BytesIO(longest + tail), BytesIO()).recv_frame() == longest
        with pytest.raises(FrameTooLong):
            StreamTransport(BytesIO(longest + b"x\n"), BytesIO()).recv_frame()
        assert issubclass(FrameTooLong, TransportClosed)

    def test_stream_oserrors_become_transport_closed(self):
        from tickslab.transport import StreamTransport

        class ResetReader:
            def readline(self, size=-1):
                raise ConnectionResetError(104, "Connection reset by peer")

        class BrokenWriter:
            def write(self, data):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                raise BrokenPipeError(32, "Broken pipe")

        class BrokenFlushWriter(BrokenWriter):
            def write(self, data):
                return len(data)

        with pytest.raises(TransportClosed) as info:
            StreamTransport(ResetReader(), BrokenWriter()).recv_frame()
        assert isinstance(info.value.__cause__, ConnectionResetError)
        for writer in (BrokenWriter(), BrokenFlushWriter()):
            with pytest.raises(TransportClosed) as info:
                StreamTransport(ResetReader(), writer).send_frame(b"{}")
            assert isinstance(info.value.__cause__, BrokenPipeError)

    def test_stream_timeout_is_not_a_hang_up(self):
        from tickslab.transport import StreamTransport

        class SlowReader:
            def readline(self, size=-1):
                raise TimeoutError("timed out")

        class SlowWriter:
            def write(self, data):
                raise TimeoutError("timed out")

        with pytest.raises(TransportTimeout) as info:
            StreamTransport(SlowReader(), SlowWriter()).recv_frame()
        assert isinstance(info.value.__cause__, TimeoutError)
        with pytest.raises(TransportTimeout) as info:
            StreamTransport(SlowReader(), SlowWriter()).send_frame(b"{}")
        assert isinstance(info.value.__cause__, TimeoutError)
