"""Canonical JSON-RPC 2.0 tool-call envelopes.

Canonical form: UTF-8, no insignificant whitespace, object keys sorted
lexicographically by code point, reals as shortest round-trip decimals,
integers without exponent.  Distinct envelopes serialize to distinct bytes,
so golden byte fixtures are stable across implementations, and plain
``json.loads`` of the bytes gives back every field.  Nothing in the runtime
parses an envelope: the tool server checks each frame itself.

An envelope carries the tool decision plus reasoning metadata: confidence,
the 8-wide affect vector, a SHA-256 digest of the merged sync vector
(little-endian float32 serialization, lowercase hex), slab/tick counts, and
the fallback flag.  The tool's arguments are strings, finite numbers, or
lists of finite numbers, such as actuate's duty cycles.  Each value is made
finite and typed where it is built, so the serializer encodes the fields as
they are; the encoder still refuses a NaN or an infinity (``ValueError``),
and the tool server checks each value it reads.  The meta object is
``EnvelopeMeta``'s fields, and a reply's ``result`` is ``ToolResult``'s
(``transport``), so each wire key is stated once, as a field name; and
``frame`` writes every frame, request or reply, so its shape is stated once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

JSONRPC_VERSION = "2.0"
METHOD_PREFIX = "tool/"
AFFECT_DIMS = 8                # affect reals per envelope

# the canonical encoder, built once: json.dumps with options builds one per call
_CANONICAL = json.JSONEncoder(
    ensure_ascii=False, sort_keys=True, separators=(",", ":"), allow_nan=False
)


@dataclass(frozen=True)
class EnvelopeMeta:
    episode: str
    step: int
    slab_count: int
    ticks: int
    confidence: float
    affect: tuple          # AFFECT_DIMS floats
    sync_digest: str       # 64 lowercase hex chars
    fallback: bool


@dataclass(frozen=True)
class Envelope:
    id: int
    method: str            # "tool/<name>"
    args: dict             # slot name -> str | int | float | list of numbers
    meta: EnvelopeMeta


def sync_digest(sync) -> str:
    """SHA-256 (lowercase hex) of the little-endian float32 bytes of a numpy vector."""
    import hashlib  # here, so the tool server, which computes no digest, never loads it

    return hashlib.sha256(sync.astype("<f4").tobytes()).hexdigest()


def canonical_json_bytes(obj) -> bytes:
    """Canonical serialization of plain JSON data (dict/list/str/num/bool/None)."""
    return _CANONICAL.encode(obj).encode("utf-8")


def frame(req_id, **member) -> bytes:
    """The JSON-RPC 2.0 frame with id ``req_id``: method and params, a result, or an error."""
    return canonical_json_bytes({"jsonrpc": JSONRPC_VERSION, "id": req_id, **member})


def serialize_envelope(envelope: Envelope) -> bytes:
    """The envelope's request frame; its meta object is ``EnvelopeMeta``'s fields."""
    params = {"args": envelope.args, "meta": vars(envelope.meta)}
    return frame(envelope.id, method=envelope.method, params=params)
