"""Newline-delimited JSON-RPC framing over stdio, TCP, or in-process loopback.

One canonical-JSON frame per line.  The server side answers ``tool/<name>``
calls and a ``registry/list`` introspection method; the client side writes
one envelope frame and consumes exactly one response frame with a matching
id.  A peer that goes away, whether the stream ends (EOF) or the stream
raises an ``OSError`` such as a connection reset or a broken pipe, surfaces
as ``TransportClosed``; a socket timeout surfaces as ``TransportTimeout``.
A line longer than ``MAX_FRAME_BYTES`` raises ``FrameTooLong``, which the
server answers with one invalid-request frame before it ends the connection.
Unknown tools come back as error results, not crashes, and a result that
cannot be encoded comes back as an internal-error frame.
"""

from __future__ import annotations

import json
import logging
import socket
import sys
from dataclasses import dataclass
from typing import BinaryIO, Callable, Optional

from .envelope import JSONRPC_VERSION, METHOD_PREFIX, canonical_json_bytes, serialize_envelope
from .errors import FrameTooLong, IdMismatch, TransportClosed, TransportTimeout
from .registry import ToolRegistry
from .schema import json_type_ok

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

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK


def ok_result(**payload) -> ToolResult:
    return ToolResult(STATUS_OK, payload)


def error_result(reason: str, **payload) -> ToolResult:
    return ToolResult(STATUS_ERROR, {"reason": reason, **payload})


class Transport:
    """One frame = one canonical-JSON line."""

    def send_frame(self, frame: bytes) -> None:
        raise NotImplementedError

    def recv_frame(self) -> bytes:
        raise NotImplementedError

    def close(self) -> None:
        pass


class StreamTransport(Transport):
    """Transport over a binary reader/writer pair.

    EOF on the reader and any ``OSError`` from the reader or writer (a reset
    or a broken pipe) raise ``TransportClosed``, chained from the ``OSError``
    so its errno stays visible.  A timeout (``TimeoutError``, also an
    ``OSError``) is not a hang-up: it raises ``TransportTimeout``, chained
    the same way.
    """

    def __init__(self, reader: BinaryIO, writer: BinaryIO):
        self._reader = reader
        self._writer = writer
        self._closed = False

    def send_frame(self, frame: bytes) -> None:
        if self._closed:
            raise TransportClosed("transport is closed")
        if b"\n" in frame:
            raise ValueError("frames must not contain newlines")
        try:
            self._writer.write(frame + b"\n")
            self._writer.flush()
        except TimeoutError as exc:
            raise TransportTimeout(f"timed out writing the stream: {exc}") from exc
        except OSError as exc:
            raise TransportClosed(f"peer closed the stream: {exc}") from exc

    def recv_frame(self) -> bytes:
        if self._closed:
            raise TransportClosed("transport is closed")
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

    def close(self) -> None:
        self._closed = True


class StdioTransport(StreamTransport):
    def __init__(self, reader: Optional[BinaryIO] = None, writer: Optional[BinaryIO] = None):
        super().__init__(reader or sys.stdin.buffer, writer or sys.stdout.buffer)


class TcpTransport(StreamTransport):
    def __init__(self, sock: socket.socket):
        self._sock = sock
        super().__init__(sock.makefile("rb"), sock.makefile("wb"))

    def close(self) -> None:
        super().close()
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
    envelope metadata, so it is not passed on.
    """

    def __init__(self, registry: ToolRegistry, handler: Callable[[str, dict], ToolResult]):
        self.registry = registry
        self.handler = handler

    def handle_frame(self, frame: bytes) -> bytes:
        try:
            doc = json.loads(frame.decode("utf-8"))
        except (ValueError, RecursionError) as exc:
            # bad UTF-8 or JSON, an int past Python's digit limit, too deep
            return self._error_frame(None, _CODE_PARSE_ERROR, f"parse error: {exc}")
        if (
            not isinstance(doc, dict)
            or doc.get("jsonrpc") != JSONRPC_VERSION
            or not json_type_ok(doc.get("method"), "str")
            or not json_type_ok(doc.get("id"), "int")
        ):
            return self._error_frame(None, _CODE_INVALID_REQUEST, "invalid request")
        req_id = doc["id"]
        method = doc["method"]
        params = doc.get("params")
        if params is None:
            params = {}
        elif not isinstance(params, dict):
            return self._error_frame(
                req_id, _CODE_INVALID_PARAMS, "invalid params: params must be an object"
            )

        if method == "registry/list":
            tools = [
                {
                    "name": s.name,
                    "arg_slots": [[slot, kind.value] for slot, kind in s.arg_slots],
                    "description": s.description,
                }
                for s in self.registry.specs
            ]
            return self._result_frame(req_id, {"tools": tools})

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
                return self._result_frame(
                    req_id, {"status": result.status, "payload": result.payload}
                )
            except (RecursionError, TypeError, ValueError) as exc:
                # too deep, not JSON data, or not finite
                logger.warning("tool %s result not encodable: %r", name, exc)
                return self._error_frame(
                    req_id, _CODE_INTERNAL_ERROR, f"internal error: unencodable result: {exc!r}"
                )

        return self._error_frame(req_id, _CODE_METHOD_NOT_FOUND, f"no such method: {method}")

    @staticmethod
    def _result_frame(req_id: int, result: dict) -> bytes:
        return canonical_json_bytes(
            {"jsonrpc": JSONRPC_VERSION, "id": req_id, "result": result}
        )

    @staticmethod
    def _error_frame(req_id, code: int, message: str) -> bytes:
        return canonical_json_bytes(
            {
                "jsonrpc": JSONRPC_VERSION,
                "id": req_id,
                "error": {"code": code, "message": message},
            }
        )

    def serve_stream(self, transport: Transport) -> None:
        """Answer frames until the peer hangs up or times out, while reading or replying.

        A frame past ``MAX_FRAME_BYTES`` gets one ``-32600`` frame, then the
        connection ends: the rest of that line cannot be skipped unread.  A
        timeout ends the connection with one warning.
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


class LoopbackTransport(Transport):
    """In-process transport that hands frames straight to a ToolServer."""

    def __init__(self, server: ToolServer):
        self._server = server
        self._pending: list[bytes] = []
        self._closed = False

    def send_frame(self, frame: bytes) -> None:
        if self._closed:
            raise TransportClosed("transport is closed")
        self._pending.append(self._server.handle_frame(frame))

    def recv_frame(self) -> bytes:
        if self._closed:
            raise TransportClosed("transport is closed")
        if not self._pending:
            raise TransportClosed("no response pending")
        return self._pending.pop(0)

    def close(self) -> None:
        self._closed = True


def dispatch(envelope, transport: Transport) -> ToolResult:
    """Send one envelope frame and consume its matching response frame.

    JSON-RPC error objects surface as error ToolResults; a response id that
    is not the request id, an int equal to it (``true`` and ``1.0`` are
    not ``1``), raises IdMismatch.  A malformed response, such as one that
    does not decode or an error, result or payload that is not an object,
    raises TransportClosed.
    """
    transport.send_frame(serialize_envelope(envelope))
    raw = transport.recv_frame()
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # as in ToolServer.handle_frame
        raise TransportClosed(f"unreadable response frame: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("jsonrpc") != JSONRPC_VERSION:
        raise TransportClosed("response is not a JSON-RPC 2.0 object")
    if not json_type_ok(doc.get("id"), "int") or doc["id"] != envelope.id:
        raise IdMismatch(f"request id {envelope.id}, response id {doc.get('id')}")
    if "error" in doc:
        err = doc["error"]
        if not isinstance(err, dict):
            raise TransportClosed("response error is not an object")
        return error_result(str(err.get("message", "error")), code=err.get("code"))
    result = doc.get("result", {})
    if not isinstance(result, dict):
        raise TransportClosed("response result is not an object")
    status = result.get("status", STATUS_OK)
    payload = result.get("payload", {})
    if status not in (STATUS_OK, STATUS_ERROR):
        raise TransportClosed(f"unknown result status {status!r}")
    if not isinstance(payload, dict):
        raise TransportClosed("response payload is not an object")
    return ToolResult(status, payload)
