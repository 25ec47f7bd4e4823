"""Newline-delimited JSON-RPC framing over stdio or TCP, and in-process calls.

One canonical-JSON frame per line; the last line may end at EOF with no
newline, and a line may end in CR LF, since CR is JSON whitespace.  The
server side answers ``tool/<name>`` calls and a ``registry/list``
introspection method, echoing an int or string request id; it carries out
a notification (a request without an id) and sends no reply to it
(JSON-RPC 2.0 §4.1).  The client side, ``dispatch``, sends one envelope
frame through an ``exchange`` function and checks the one response frame it
returns for a matching id.  In process, that function is the server's own
``handle_frame``: ``dispatch(envelope, server.handle_frame)``.  On a stream,
a peer that goes away, whether the stream ends (EOF) or the stream raises
an ``OSError`` such as a connection reset or a broken pipe, surfaces as
``TransportClosed``; a socket timeout surfaces as ``TransportTimeout``.
A line longer than ``MAX_FRAME_BYTES`` raises ``FrameTooLong``, which the
server answers with one invalid-request frame before it ends the connection.
Unknown tools come back as error results, not crashes, and a result that
cannot be encoded comes back as an internal-error frame.
"""

from __future__ import annotations

import json
import logging
import socket
from dataclasses import dataclass
from typing import BinaryIO, Callable, Optional

from .envelope import JSONRPC_VERSION, METHOD_PREFIX, frame, serialize_envelope
from .errors import FrameTooLong, IdMismatch, TransportClosed, TransportTimeout
from .registry import ToolRegistry
from .schema import json_type_ok, value_repr

logger = logging.getLogger("tickslab.transport")

STATUS_OK = "ok"
STATUS_ERROR = "error"

_CODE_METHOD_NOT_FOUND = -32601
_CODE_INVALID_PARAMS = -32602
_CODE_INVALID_REQUEST = -32600
_CODE_PARSE_ERROR = -32700
_CODE_INTERNAL_ERROR = -32603

MAX_FRAME_BYTES = 1 << 20      # longest frame a stream reads, newline excluded
IDLE_TIMEOUT_S = 30.0          # serve_tcp ends a client whose read or write waits this long


@dataclass(frozen=True)
class ToolResult:
    status: str                  # "ok" | "error"
    payload: dict


def ok_result(**payload) -> ToolResult:
    return ToolResult(STATUS_OK, payload)


def error_result(reason: str, **payload) -> ToolResult:
    return ToolResult(STATUS_ERROR, {"reason": reason, **payload})


class StreamTransport:
    """One frame = one canonical-JSON line, over a binary reader/writer pair.

    EOF on the reader and any ``OSError`` from the reader or writer (a reset
    or a broken pipe) raise ``TransportClosed``, chained from the ``OSError``
    so its errno stays visible.  A timeout (``TimeoutError``, also an
    ``OSError``) is not a hang-up: it raises ``TransportTimeout``, chained
    the same way.
    """

    def __init__(self, reader: BinaryIO, writer: BinaryIO):
        self._reader = reader
        self._writer = writer

    def send_frame(self, raw: bytes) -> None:
        try:
            self._writer.write(raw + b"\n")
            self._writer.flush()
        except TimeoutError as exc:
            raise TransportTimeout(f"timed out writing the stream: {exc}") from exc
        except OSError as exc:
            raise TransportClosed(f"peer closed the stream: {exc}") from exc

    def recv_frame(self) -> bytes:
        try:
            line = self._reader.readline(MAX_FRAME_BYTES + 1)
        except TimeoutError as exc:
            raise TransportTimeout(f"timed out reading the stream: {exc}") from exc
        except OSError as exc:
            raise TransportClosed(f"peer closed the stream: {exc}") from exc
        if not line:
            raise TransportClosed("peer closed the stream")
        if len(line) > MAX_FRAME_BYTES and not line.endswith(b"\n"):
            raise FrameTooLong(f"frame longer than {MAX_FRAME_BYTES} bytes")
        return line.rstrip(b"\n")


class TcpTransport(StreamTransport):
    def __init__(self, sock: socket.socket):
        self._sock = sock
        super().__init__(sock.makefile("rb"), sock.makefile("wb"))

    def close(self) -> None:
        # shut down first: the peer sees EOF at once, and a reply left in the
        # writer by a timed-out write fails here instead of waiting out the
        # timeout again (every other frame was flushed when it was sent)
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        # makefile objects keep the fd alive; close them before the socket
        for stream in (self._writer, self._reader):
            try:
                stream.close()
            except OSError:
                pass
        self._sock.close()


class ToolServer:
    """Executes tool calls against a handler and serves registry introspection.

    ``handler(name, args)`` returns a ToolResult; no handler reads the
    envelope metadata, so it is not passed on.  A reply's ``result`` is the
    ToolResult's fields and each ``registry/list`` entry a ToolSpec's; the
    registry is not changed after construction, so that table is built once.
    """

    def __init__(self, registry: ToolRegistry, handler: Callable[[str, dict], ToolResult]):
        self.registry = registry
        self.handler = handler
        self._tools = [
            {**vars(s), "arg_slots": [[slot, kind.value] for slot, kind in s.arg_slots]}
            for s in registry.specs
        ]

    def handle_frame(self, raw: bytes) -> Optional[bytes]:
        """The reply frame to ``raw``; None for a notification, which is
        carried out as a request would be.  A bool, float or null id is invalid."""
        try:
            doc = json.loads(raw.decode("utf-8"))
        except (ValueError, RecursionError) as exc:
            # bad UTF-8 or JSON, an int past Python's digit limit, too deep
            return self._error_frame(None, _CODE_PARSE_ERROR, f"parse error: {exc}")
        if (
            not isinstance(doc, dict)
            or doc.get("jsonrpc") != JSONRPC_VERSION
            or not json_type_ok(doc.get("method"), "str")
            or (
                "id" in doc
                and not (json_type_ok(doc["id"], "int") or json_type_ok(doc["id"], "str"))
            )
        ):
            return self._error_frame(None, _CODE_INVALID_REQUEST, "invalid request")
        reply = self._answer(doc.get("id"), doc["method"], doc.get("params"))
        return reply if "id" in doc else None

    def _answer(self, req_id, method: str, params) -> bytes:
        """The reply frame to a well-formed request."""
        if params is None:
            params = {}
        elif not isinstance(params, dict):
            return self._error_frame(
                req_id, _CODE_INVALID_PARAMS, "invalid params: params must be an object"
            )

        if method == "registry/list":
            return frame(req_id, result={"tools": self._tools})

        if method.startswith(METHOD_PREFIX):
            name = method[len(METHOD_PREFIX) :]
            if name not in self.registry:
                return self._error_frame(
                    req_id, _CODE_METHOD_NOT_FOUND, f"UnknownTool: {name}"
                )
            args = params.get("args", {})
            if not isinstance(args, dict):
                return self._error_frame(
                    req_id, _CODE_INVALID_PARAMS, "invalid params: args must be an object"
                )
            try:
                result = self.handler(name, args)
            except Exception as exc:  # tool failures are results, not crashes
                logger.warning("tool %s raised: %r", name, exc)
                result = error_result(f"tool raised: {exc!r}")
            try:
                return frame(req_id, result=vars(result))
            except (RecursionError, TypeError, ValueError) as exc:
                # too deep, not JSON data, or not finite
                logger.warning("tool %s result not encodable: %r", name, exc)
                return self._error_frame(
                    req_id, _CODE_INTERNAL_ERROR, f"internal error: unencodable result: {exc!r}"
                )

        return self._error_frame(req_id, _CODE_METHOD_NOT_FOUND, f"no such method: {method}")

    @staticmethod
    def _error_frame(req_id, code: int, message: str) -> bytes:
        return frame(req_id, error={"code": code, "message": message})

    def serve_stream(self, transport: StreamTransport) -> None:
        """Answer frames until the peer hangs up or times out, while reading or replying.

        A notification gets no frame.  A frame past ``MAX_FRAME_BYTES`` gets
        one ``-32600`` frame, then the connection ends: the rest of that line
        cannot be skipped unread.  A timeout ends the connection with one
        warning.
        """
        try:
            while True:
                try:
                    reply = self.handle_frame(transport.recv_frame())
                except FrameTooLong:
                    transport.send_frame(
                        self._error_frame(None, _CODE_INVALID_REQUEST, "frame too long")
                    )
                    return
                if reply is not None:
                    transport.send_frame(reply)
        except TransportClosed:
            return
        except TransportTimeout as exc:
            logger.warning("ended an idle client: %s", exc)

    def serve_tcp(self, host: str, port: int, max_clients: Optional[int] = None, ready=None) -> None:
        """Accept clients serially; ``ready`` (if given) receives the bound port.

        A client that sends or reads nothing for ``IDLE_TIMEOUT_S`` is ended,
        so it cannot hold up the clients waiting behind it; one that keeps
        trickling bytes still holds them.  A client whose connection fails for
        any other reason than hanging up is logged and disconnected; the
        server goes on to the next one.
        """
        with socket.create_server((host, port)) as listener:
            if ready is not None:
                ready(listener.getsockname()[1])
            served = 0
            while max_clients is None or served < max_clients:
                conn, _ = listener.accept()
                conn.settimeout(IDLE_TIMEOUT_S)
                # closing the transport closes its makefile streams too, so
                # the client sees EOF instead of waiting on an open descriptor
                transport = TcpTransport(conn)
                try:
                    self.serve_stream(transport)
                except Exception:
                    logger.exception("dropped a client after an unexpected error")
                finally:
                    transport.close()
                served += 1


def dispatch(envelope, exchange: Callable[[bytes], bytes]) -> ToolResult:
    """Send one envelope frame through ``exchange`` and check the frame it returns.

    JSON-RPC error objects surface as error ToolResults; a response id that
    is not the request id, an int equal to it (``true`` and ``1.0`` are
    not ``1``), raises IdMismatch.  A malformed response raises
    TransportClosed: one that does not decode, holds not exactly one of
    result and error (JSON-RPC 2.0 §5), has an error, result or payload
    that is not an object, or a status that is not "ok" or "error".
    """
    raw = exchange(serialize_envelope(envelope))
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # as in ToolServer.handle_frame
        raise TransportClosed(f"unreadable response frame: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("jsonrpc") != JSONRPC_VERSION:
        raise TransportClosed("response is not a JSON-RPC 2.0 object")
    if not json_type_ok(doc.get("id"), "int") or doc["id"] != envelope.id:
        raise IdMismatch(f"request id {envelope.id}, response id {value_repr(doc.get('id'))}")
    if ("error" in doc) == ("result" in doc):
        raise TransportClosed("response holds not exactly one of result and error")
    if "error" in doc:
        err = doc["error"]
        if not isinstance(err, dict):
            raise TransportClosed("response error is not an object")
        return error_result(str(err.get("message", "error")), code=err.get("code"))
    result = doc["result"]
    if not isinstance(result, dict):
        raise TransportClosed("response result is not an object")
    status = result.get("status")
    payload = result.get("payload")
    if status not in (STATUS_OK, STATUS_ERROR):
        raise TransportClosed(f"unknown result status {value_repr(status)}")
    if not isinstance(payload, dict):
        raise TransportClosed("response payload is not an object")
    return ToolResult(status, payload)
