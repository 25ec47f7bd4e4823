"""Canonical JSON-RPC 2.0 tool-call envelopes.

Canonical form: UTF-8, no insignificant whitespace, object keys sorted
lexicographically by code point, reals as shortest round-trip decimals,
integers without exponent.  Distinct envelopes serialize to distinct bytes
and parse(serialize(x)) == x, so golden byte fixtures are stable across
implementations.

An envelope carries the tool decision plus reasoning metadata: confidence,
the 8-wide affect vector, a SHA-256 digest of the merged sync vector
(little-endian float32 serialization, lowercase hex), slab/tick counts, and
the fallback flag.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import MalformedJson, NonFiniteMetadata, SchemaViolation
from .schema import check_record, json_type_ok

JSONRPC_VERSION = "2.0"
METHOD_PREFIX = "tool/"
DIGEST_LENGTH = 64
AFFECT_DIMS = 8                # affect reals per envelope
_HEX_DIGITS = set("0123456789abcdef")

_TOP_KEYS = {"jsonrpc", "id", "method", "params"}
_PARAMS_KEYS = {"args", "meta"}


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
    args: dict             # slot name -> str | int | float
    meta: EnvelopeMeta


def sync_digest(sync: np.ndarray) -> str:
    """SHA-256 (lowercase hex) of the little-endian float32 bytes of the vector."""
    data = np.ascontiguousarray(sync, dtype="<f4").tobytes()
    return hashlib.sha256(data).hexdigest()


def canonical_json_bytes(obj) -> bytes:
    """Canonical serialization of plain JSON data (dict/list/str/num/bool/None)."""
    return json.dumps(
        obj, ensure_ascii=False, sort_keys=True, separators=(",", ":"), allow_nan=False
    ).encode("utf-8")


def _check_finite(value: float, what: str) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise NonFiniteMetadata(f"{what} is not finite")
    return value


def serialize_envelope(envelope: Envelope) -> bytes:
    """Canonical bytes of the envelope; rejects non-finite metadata."""
    confidence = _check_finite(envelope.meta.confidence, "confidence")
    affect = [_check_finite(a, "affect entry") for a in envelope.meta.affect]
    args = {}
    for slot, value in envelope.args.items():
        if not (json_type_ok(value, "str") or json_type_ok(value, "float")):
            raise NonFiniteMetadata(f"arg {slot!r} must be a string or number")
        if isinstance(value, float):
            value = _check_finite(value, f"arg {slot!r}")
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


def _reject_duplicates(pairs):
    seen = {}
    for key, value in pairs:
        if key in seen:
            raise SchemaViolation(key, "duplicate key")
        seen[key] = value
    return seen


def _loads_strict(data: bytes):
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedJson(f"not valid UTF-8: {exc}") from exc

    def reject_constant(name):
        raise MalformedJson(f"non-finite constant {name!r}")

    try:
        return json.loads(
            text, object_pairs_hook=_reject_duplicates, parse_constant=reject_constant
        )
    except (ValueError, RecursionError) as exc:  # bad JSON or too deep a nesting
        raise MalformedJson(str(exc)) from exc


def _require_keys(obj: dict, allowed: set, path: str) -> None:
    for key in obj:
        if key not in allowed:
            raise SchemaViolation(f"{path}{key}" if path else key, "unknown field")
    for key in allowed:
        if key not in obj:
            raise SchemaViolation(f"{path}{key}" if path else key, "missing field")


def _expect_int(value, path: str) -> int:
    if not json_type_ok(value, "int"):
        raise SchemaViolation(path, "expected an integer")
    if value < 0:
        raise SchemaViolation(path, "must be >= 0")
    return value


def _expect_number(value, path: str) -> float:
    if not json_type_ok(value, "float"):
        raise SchemaViolation(path, "expected a number")
    value = float(value)
    if not math.isfinite(value):
        raise SchemaViolation(path, "must be finite")
    return value


def parse_envelope(data: bytes) -> Envelope:
    """Strict inverse of :func:`serialize_envelope`.

    Rejects unknown fields, a wrong jsonrpc literal, and malformed digests;
    every rejection names the offending path.
    """
    doc = _loads_strict(data)
    if not isinstance(doc, dict):
        raise SchemaViolation("", "top level must be an object")
    _require_keys(doc, _TOP_KEYS, "")
    if doc["jsonrpc"] != JSONRPC_VERSION:
        raise SchemaViolation("jsonrpc", f"expected {JSONRPC_VERSION!r}")
    env_id = _expect_int(doc["id"], "id")
    method = doc["method"]
    named = json_type_ok(method, "str") and method.startswith(METHOD_PREFIX)
    if not named or method == METHOD_PREFIX:
        raise SchemaViolation("method", f"expected {METHOD_PREFIX}<name>")

    params = doc["params"]
    if not isinstance(params, dict):
        raise SchemaViolation("params", "expected an object")
    _require_keys(params, _PARAMS_KEYS, "params.")

    raw_args = params["args"]
    if not isinstance(raw_args, dict):
        raise SchemaViolation("params.args", "expected an object")
    args = {}
    for slot, value in raw_args.items():
        if isinstance(value, float):
            value = _expect_number(value, f"params.args.{slot}")
        elif not (json_type_ok(value, "str") or json_type_ok(value, "int")):
            raise SchemaViolation(f"params.args.{slot}", "expected a string or number")
        args[slot] = value

    raw_meta = check_record(EnvelopeMeta, params["meta"], "params.meta.", SchemaViolation)
    digest = raw_meta["sync_digest"]
    if len(digest) != DIGEST_LENGTH or not set(digest) <= _HEX_DIGITS:
        raise SchemaViolation(
            "params.meta.sync_digest", f"expected {DIGEST_LENGTH} lowercase hex chars"
        )
    confidence = _expect_number(raw_meta["confidence"], "params.meta.confidence")
    if not 0.0 <= confidence <= 1.0:
        raise SchemaViolation("params.meta.confidence", "must be in [0, 1]")
    if len(raw_meta["affect"]) != AFFECT_DIMS:
        raise SchemaViolation("params.meta.affect", f"expected a list of {AFFECT_DIMS} numbers")
    affect = tuple(
        _expect_number(a, f"params.meta.affect[{i}]") for i, a in enumerate(raw_meta["affect"])
    )
    for name in ("step", "slab_count", "ticks"):
        _expect_int(raw_meta[name], f"params.meta.{name}")
    meta = EnvelopeMeta(**{**raw_meta, "confidence": confidence, "affect": affect})
    return Envelope(id=env_id, method=method, args=args, meta=meta)
