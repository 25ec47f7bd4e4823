import json
import socket
import struct
import threading
import time
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tickslab import transport as transport_mod
from tickslab.envelope import Envelope, EnvelopeMeta, sync_digest
from tickslab.errors import FrameTooLong, IdMismatch, TransportClosed, TransportTimeout
from tickslab.harness.world import WorldSession, build_registry, demo_world
from tickslab.registry import SlotKind, ToolRegistry, ToolSpec
from tickslab.transport import (
    MAX_FRAME_BYTES,
    LoopbackTransport,
    StreamTransport,
    TcpTransport,
    ToolServer,
    Transport,
    dispatch,
    error_result,
    ok_result,
)


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


class TestLoopback:
    def test_noop_ok(self):
        transport = LoopbackTransport(make_server())
        result = dispatch(envelope(), transport)
        assert result.ok
        assert result.payload == {}

    def test_unknown_tool_is_error_result(self):
        transport = LoopbackTransport(make_server())
        result = dispatch(envelope(method="tool/warp"), transport)
        assert not result.ok
        assert "UnknownTool" in result.payload["reason"]

    def test_id_mismatch_raises(self):
        server = make_server()

        class Rewriter(LoopbackTransport):
            def recv_frame(self):
                frame = super().recv_frame()
                doc = json.loads(frame)
                doc["id"] = doc["id"] + 999
                return json.dumps(doc).encode()

        with pytest.raises(IdMismatch):
            dispatch(envelope(), Rewriter(server))

    @pytest.mark.parametrize("response_id", [True, 1.0])
    def test_id_of_another_type_raises(self, response_id):
        # Python's True == 1 == 1.0; the JSON values are still not the id 1
        class Stub(Transport):
            def send_frame(self, frame):
                pass

            def recv_frame(self):
                return json.dumps({"jsonrpc": "2.0", "id": response_id, "result": {}}).encode()

        with pytest.raises(IdMismatch):
            dispatch(envelope(), Stub())

    def test_closed_transport(self):
        transport = LoopbackTransport(make_server())
        transport.close()
        with pytest.raises(TransportClosed):
            dispatch(envelope(), transport)

    def test_response_nested_too_deep_is_closed(self):
        class Deep(Transport):
            def send_frame(self, frame):
                pass

            def recv_frame(self):
                return b"[" * 100_000

        with pytest.raises(TransportClosed):
            dispatch(envelope(), Deep())

    @pytest.mark.parametrize(
        "reply",
        [
            '{"jsonrpc":"2.0","id":%s,"result":{}}' % HUGE,
            '{"jsonrpc":"2.0","id":1,"result":{"payload":{"n":%s}}}' % HUGE,
        ],
        ids=["id", "payload"],
    )
    def test_response_number_past_the_digit_limit_is_closed(self, reply):
        class Stub(Transport):
            def send_frame(self, frame):
                pass

            def recv_frame(self):
                return reply.encode()

        with pytest.raises(TransportClosed, match="unreadable response frame"):
            dispatch(envelope(), Stub())

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
        class Stub(Transport):
            def send_frame(self, frame):
                pass

            def recv_frame(self):
                return json.dumps({"jsonrpc": "2.0", "id": 1, **reply}).encode()

        with pytest.raises(TransportClosed, match="not an object"):
            dispatch(envelope(), Stub())

    def test_handler_exception_becomes_error_result(self):
        def handler(name, args):
            raise RuntimeError("tool exploded")

        transport = LoopbackTransport(make_server(handler))
        result = dispatch(envelope(), transport)
        assert not result.ok
        assert "exploded" in result.payload["reason"]

    def test_args_round_trip_through_frames(self):
        transport = LoopbackTransport(make_server())
        result = dispatch(envelope(method="tool/echo", args={"object": "cup"}), transport)
        assert result.ok
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
            "params": st.fixed_dictionaries({}, optional={"args": JSON_VALUES}) | JSON_VALUES,
        },
    ),
    st.dictionaries(ANY_TEXT, JSON_VALUES, max_size=3),
).map(lambda parts: {**parts[1], **parts[0]})


class TestFrameFuzz:
    @pytest.mark.parametrize("server", [make_server, world_server], ids=["echo", "world"])
    @settings(max_examples=300, deadline=None)
    @given(
        frame=st.binary(max_size=200)
        | REQUESTS.map(lambda doc: json.dumps(doc, ensure_ascii=True).encode())
    )
    @example(frame=SURROGATE_FRAMES[0])
    def test_any_frame_gets_one_reply_frame(self, server, frame):
        reply = server().handle_frame(frame)
        assert b"\n" not in reply
        response = json.loads(reply)
        assert response["jsonrpc"] == "2.0"
        assert ("result" in response) != ("error" in response)


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


class TestTcp:
    def test_unencodable_result_does_not_stop_server(self):
        with serving_tcp(make_server(), 1) as (port, _):
            transport = connect(port)
            try:

                def send(frame):
                    transport.send_frame(frame)
                    return transport.recv_frame()

                response = deepest_echo(send)
                assert response["id"] == 7
                assert response["error"]["code"] == -32603
                assert dispatch(envelope(env_id=2), transport).ok
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
                assert dispatch(envelope(env_id=2), transport).ok
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
                result = dispatch(envelope("tool/navigate", 2, {"to": "sink"}), transport)
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
                assert dispatch(envelope(env_id=3), transport).ok
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
                assert dispatch(envelope(), transport).ok
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
                assert dispatch(envelope(env_id=2), transport).ok
            finally:
                transport.close()

    def test_round_trip_over_tcp(self):
        with serving_tcp(make_server(), 1) as (port, _):
            transport = connect(port)
            try:
                result = dispatch(envelope(), transport)
                assert result.ok
                result = dispatch(
                    envelope(method="tool/echo", env_id=2, args={"object": "x"}), transport
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
                assert dispatch(envelope(), transport).ok
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
                assert dispatch(envelope(), transport).ok
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
                    dispatch(envelope(), transport)
            finally:
                transport.close()
            transport = connect(port)
            try:
                assert dispatch(envelope(), transport).ok
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


class TestFraming:
    def test_newline_in_frame_rejected(self):
        transport = LoopbackTransport(make_server())
        # loopback doesn't check, but stream transports must
        from io import BytesIO

        from tickslab.transport import StreamTransport

        stream = StreamTransport(BytesIO(), BytesIO())
        with pytest.raises(ValueError):
            stream.send_frame(b'{"a":\n1}')

    def test_stream_framing_round_trip(self):
        from io import BytesIO

        from tickslab.transport import StreamTransport

        buffer = BytesIO()
        writer_side = StreamTransport(BytesIO(b'{"pong":1}\n'), buffer)
        writer_side.send_frame(b'{"ping":1}')
        assert buffer.getvalue() == b'{"ping":1}\n'
        assert writer_side.recv_frame() == b'{"pong":1}'

    def test_frame_length_is_bounded(self):
        from io import BytesIO

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
