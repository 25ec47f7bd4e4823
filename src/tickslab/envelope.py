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
lists of finite numbers, such as actuate's duty cycles.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .errors import NonFiniteMetadata
from .schema import json_type_ok

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


def _check_finite(value: float, what: str) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise NonFiniteMetadata(f"{what} is not finite")
    return value


def _check_number(value, what: str):
    if not json_type_ok(value, "float"):
        raise NonFiniteMetadata(f"{what} is not a number")
    return _check_finite(value, what) if isinstance(value, float) else value


def serialize_envelope(envelope: Envelope) -> bytes:
    """Canonical bytes of the envelope; rejects non-finite metadata."""
    confidence = _check_finite(envelope.meta.confidence, "confidence")
    affect = [_check_finite(a, "affect entry") for a in envelope.meta.affect]
    args = {}
    for slot, value in envelope.args.items():
        if isinstance(value, list):
            value = [_check_number(v, f"arg {slot!r} entry") for v in value]
        elif not json_type_ok(value, "str"):
            value = _check_number(value, f"arg {slot!r}")
        args[slot] = value
    doc = {
        "jsonrpc": JSONRPC_VERSION,
        "id": int(envelope.id),
        "method": envelope.method,
        "params": {
            "args": args,
            "meta": {
                "episode": envelope.meta.episode,
                "step": int(envelope.meta.step),
                "slab_count": int(envelope.meta.slab_count),
                "ticks": int(envelope.meta.ticks),
                "confidence": confidence,
                "affect": affect,
                "sync_digest": envelope.meta.sync_digest,
                "fallback": bool(envelope.meta.fallback),
            },
        },
    }
    return canonical_json_bytes(doc)
