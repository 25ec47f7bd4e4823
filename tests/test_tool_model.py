"""A stateful model test of the tool side, over frames.

A hypothesis state machine sends frames to ``ToolServer.handle_frame`` in
front of a ``WorldSession`` and compares every reply, and the world after
it, with a model of the tool side written here from the README's rules,
not from ``world.py``.  The frames are tool calls with known, unknown and
non-string names, valid and invalid duty lists, noop, unknown tools and
methods, each sent as a request with an int or string id or as a
notification, and malformed frames.  At the end the same frames go through
``serve_stream`` over a socket pair, whose replies must equal the
in-process ones byte for byte.

References: JSON-RPC 2.0 §4-§5 (one response per request, ids echoed, none
for a notification); the MCP tools page (a tool failure is a result, not a
protocol error).
"""

import json
import socket
import threading

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from tickslab.envelope import canonical_json_bytes
from tickslab.harness.tasks import gen_tasks
from tickslab.harness.world import WorldSession, build_registry, demo_world, world_from_task
from tickslab.registry import MAX_JOINTS
from tickslab.transport import StreamTransport, ToolServer

TOOLS = ("noop", "navigate", "pick", "place", "actuate")
PARSE_ERROR, INVALID_REQUEST, NOT_FOUND, INVALID_PARAMS = -32700, -32600, -32601, -32602

NOT_STRINGS = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.lists(st.integers(), max_size=2)
)
# strings over every code point, lone surrogates included
ANY_TEXT = st.text(st.characters(exclude_categories=()), max_size=8)
# request ids; None makes a notification
IDS = st.none() | st.integers(-(2**63), 2**63) | st.text(max_size=6)
NUMBERS_IN_RANGE = st.integers(0, 1) | st.floats(0.0, 1.0)
BAD_ENTRIES = (
    st.floats(allow_nan=True).filter(lambda x: not 0.0 <= x <= 1.0)
    | st.integers().filter(lambda x: x not in (0, 1))
    | st.booleans() | st.none() | ANY_TEXT | st.lists(NUMBERS_IN_RANGE, max_size=2)
)


def text(value) -> bool:
    """A JSON string that is valid Unicode: no lone surrogate."""
    return isinstance(value, str) and not any("\ud800" <= ch <= "\udfff" for ch in value)


def number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


class WorldModel:
    """What the world should hold: the robot's location, each object's
    location, and the one held name (None when the hand is empty)."""

    def __init__(self, robot, objects, held):
        self.robot, self.objects, self.held = robot, dict(objects), held

    def call(self, tool: str, args: dict) -> tuple[bool, dict]:
        """Carry out one tool call; (ok, the payload an ok result carries).
        A failed call changes nothing."""
        if tool == "noop":
            return True, {}
        if tool == "navigate":
            to = args.get("to")
            if not (text(to) and to):
                return False, {}
            self.robot = to
            return True, {"robot_at": to}
        name = args.get("object")
        known = isinstance(name, str) and name in self.objects
        if tool == "pick":
            if not known or self.held is not None or self.objects[name] != self.robot:
                return False, {}
            self.held = name
            return True, {"holding": name}
        if tool == "place":
            if not known or self.held != name:
                return False, {}
            self.objects[name], self.held = self.robot, None
            return True, {"placed": name, "at": self.robot}
        duty = args.get("duty")  # actuate
        if not (
            isinstance(duty, list)
            and len(duty) <= MAX_JOINTS
            and all(number(d) and 0 <= d <= 1 for d in duty)
        ):
            return False, {}
        return True, {"duty": duty, "waypoints": 10}


def world_state(session: WorldSession) -> tuple:
    state = session.state
    return state.robot_at, dict(state.objects), state.held


def request(method, req_id, params):
    """The frame of a request; ``req_id`` None makes it a notification."""
    doc = {"jsonrpc": "2.0", "method": method}
    if req_id is not None:
        doc["id"] = req_id
    if params is not None:
        doc["params"] = params
    return json.dumps(doc).encode()


def stream_replies(world, frames: list) -> list:
    """The reply lines that ``serve_stream`` writes for ``frames``, sent over
    a socket pair from a second thread."""
    server_end, client_end = socket.socketpair()
    for end in (server_end, client_end):
        end.settimeout(10.0)
    server = ToolServer(build_registry(), WorldSession(world).handler)

    def serve():
        server.serve_stream(StreamTransport(server_end.makefile("rb"), server_end.makefile("wb")))
        server_end.shutdown(socket.SHUT_WR)  # the client reads to EOF

    def send():
        client_end.sendall(b"".join(frame + b"\n" for frame in frames))
        client_end.shutdown(socket.SHUT_WR)

    serving, sending = threading.Thread(target=serve), threading.Thread(target=send)
    serving.start()
    sending.start()
    with client_end.makefile("rb") as reader:
        lines = [line.rstrip(b"\n") for line in reader]
    sending.join()
    serving.join()
    server_end.close()
    client_end.close()
    return lines


class ToolSide(RuleBasedStateMachine):
    @initialize(task_seed=st.none() | st.integers(0, 2**16))
    def start(self, task_seed):
        self.world = demo_world() if task_seed is None else world_from_task(gen_tasks(task_seed, 1)[0])
        self.session = WorldSession(self.world)
        self.server = ToolServer(build_registry(), self.session.handler)
        self.model = WorldModel(*world_state(self.session))
        self.frames, self.replies = [], []

    def names(self):
        """Objects, locations and the robot's place, then unknown names and
        non-strings."""
        known = sorted({*self.model.objects, *self.model.objects.values(), self.model.robot})
        return st.sampled_from(known) | ANY_TEXT | NOT_STRINGS

    def send(self, frame: bytes):
        """Send ``frame`` and return its reply as a document (None for no
        reply), after the checks every frame gets."""
        before = world_state(self.session)
        reply = self.server.handle_frame(frame)
        self.frames.append(frame)
        if reply is None:
            return None
        self.replies.append(reply)
        doc = json.loads(reply)
        assert canonical_json_bytes(doc) == reply
        assert doc["jsonrpc"] == "2.0" and ("result" in doc) != ("error" in doc)
        if "error" in doc or doc["result"].get("status") == "error":
            assert world_state(self.session) == before
        return doc

    def expect_error(self, frame: bytes, req_id, code: int):
        doc = self.send(frame)
        assert doc is not None
        assert type(doc["id"]) is type(req_id) and doc["id"] == req_id
        assert "error" in doc and doc["error"]["code"] == code, doc

    def call(self, tool: str, args: dict, req_id):
        ok, payload = self.model.call(tool, args)
        doc = self.send(request(f"tool/{tool}", req_id, {"args": args}))
        if req_id is None:
            assert doc is None
            return
        assert type(doc["id"]) is type(req_id) and doc["id"] == req_id
        if ok:
            assert doc["result"] == {"status": "ok", "payload": payload}
        else:
            assert doc["result"]["status"] == "error" and "reason" in doc["result"]["payload"]

    @rule(data=st.data(), tool=st.sampled_from(["navigate", "pick", "place"]))
    def move(self, data, tool):
        slot = "to" if tool == "navigate" else "object"
        self.call(tool, {slot: data.draw(self.names())}, data.draw(IDS))

    # the calls a drawn name rarely makes: go where an object is, pick an
    # object that is here (whether or not the hand is full), place the held one
    @rule(data=st.data())
    def go_to_an_object(self, data):
        name = data.draw(st.sampled_from(sorted(self.model.objects)))
        self.call("navigate", {"to": self.model.objects[name]}, data.draw(IDS))

    @rule(data=st.data())
    def pick_here(self, data):
        here = sorted(name for name, at in self.model.objects.items() if at == self.model.robot)
        if here:
            self.call("pick", {"object": data.draw(st.sampled_from(here))}, data.draw(IDS))

    @rule(data=st.data())
    def place_held(self, data):
        if self.model.held is not None:
            self.call("place", {"object": self.model.held}, data.draw(IDS))

    @rule(
        data=st.data(),
        duty=st.lists(NUMBERS_IN_RANGE, max_size=MAX_JOINTS)
        | st.lists(NUMBERS_IN_RANGE, min_size=MAX_JOINTS + 1, max_size=MAX_JOINTS + 2)
        | st.tuples(st.lists(NUMBERS_IN_RANGE, max_size=3), BAD_ENTRIES).map(
            lambda parts: parts[0] + [parts[1]]
        )
        | NOT_STRINGS | ANY_TEXT,
    )
    def actuate(self, data, duty):
        self.call("actuate", {"duty": duty}, data.draw(IDS))

    @rule(data=st.data())
    def noop(self, data):
        self.call("noop", {}, data.draw(IDS))

    @rule(data=st.data(), name=ANY_TEXT.filter(lambda name: name not in TOOLS))
    def unknown_tool(self, data, name):
        req_id = data.draw(IDS)
        frame = request(f"tool/{name}", req_id, {"args": {}})
        if not text(name):  # no valid request, so answered even without an id
            self.expect_error(frame, None, INVALID_REQUEST)
        elif req_id is None:
            assert self.send(frame) is None
        else:
            self.expect_error(frame, req_id, NOT_FOUND)

    @rule(data=st.data(), method=st.sampled_from(["tools/list", "initialize", "registry/get", ""]))
    def unknown_method(self, data, method):
        req_id = data.draw(IDS)
        frame = request(method, req_id, None)
        if req_id is None:
            assert self.send(frame) is None
        else:
            self.expect_error(frame, req_id, NOT_FOUND)

    @rule(data=st.data())
    def registry_list(self, data):
        req_id = data.draw(IDS)
        doc = self.send(request("registry/list", req_id, None))
        if req_id is None:
            assert doc is None
        else:
            assert doc["id"] == req_id
            assert [tool["name"] for tool in doc["result"]["tools"]] == list(TOOLS)

    @rule(data=st.data(), not_an_object=NOT_STRINGS.filter(lambda v: v is not None) | ANY_TEXT)
    def params_or_args_not_an_object(self, data, not_an_object):
        req_id = data.draw(IDS)
        tool = data.draw(st.sampled_from(TOOLS))
        params = data.draw(st.sampled_from([not_an_object, {"args": not_an_object}]))
        frame = request(f"tool/{tool}", req_id, params)
        if req_id is None:
            assert self.send(frame) is None
        else:
            self.expect_error(frame, req_id, INVALID_PARAMS)

    @rule(
        frame=st.sampled_from([b"\xff\xfe", b"{", b'{"jsonrpc":"2.0",', b"", b"nul"])
        | st.binary(max_size=12).filter(lambda b: b"\n" not in b)
    )
    def unparsable(self, frame):
        try:
            json.loads(frame.decode("utf-8"))
        except ValueError:
            self.expect_error(frame, None, PARSE_ERROR)
        else:  # a byte string that happens to be JSON is no request object
            self.expect_error(frame, None, INVALID_REQUEST)

    @rule(data=st.data(), broken=st.sampled_from(["not an object", "jsonrpc", "id", "method"]))
    def invalid_request(self, data, broken):
        # a call that would change the world, broken in one place
        doc = {"jsonrpc": "2.0", "method": "tool/navigate", "id": 1, "params": {"args": {"to": "x"}}}
        bad = {
            "jsonrpc": st.sampled_from(["1.0", "2", 2.0, None]),
            "id": st.booleans() | st.floats() | st.none() | st.just("\ud800")
            | st.lists(st.integers(), max_size=2),
            "method": st.booleans() | st.integers() | st.none() | st.just("\ud800")
            | st.just(["tool/noop"]),
        }
        if broken == "not an object":
            doc = data.draw(st.sampled_from([[doc], "x", 3, None]))
        else:
            doc[broken] = data.draw(bad[broken])
        self.expect_error(json.dumps(doc).encode(), None, INVALID_REQUEST)

    @invariant()
    def world_matches_the_model(self):
        model = self.model
        assert world_state(self.session) == (model.robot, model.objects, model.held)

    def teardown(self):
        if hasattr(self, "model"):
            assert stream_replies(self.world, self.frames) == self.replies


ToolSide.TestCase.settings = settings(max_examples=100, stateful_step_count=30, deadline=None)
TestToolSide = ToolSide.TestCase
