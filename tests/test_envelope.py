import hashlib
import math

import numpy as np
import pytest

from tickslab.envelope import (
    Envelope,
    EnvelopeMeta,
    canonical_json_bytes,
    parse_envelope,
    serialize_envelope,
    sync_digest,
)
from tickslab.errors import MalformedJson, NonFiniteMetadata, SchemaViolation

# Digest of float32 LE [0.5, -1.0, 0.25, 2.0], frozen after a one-time
# hashlib computation.
GOLDEN_DIGEST = "fd6380f01587f055e2236e16471b1bd66ba24729bb7f7ed9ac13d221883f90ef"

# Golden bytes built by hand (independent writer): keys sorted by code
# point, no whitespace, shortest round-trip decimals.
GOLDEN_BYTES = (
    '{"id":7,"jsonrpc":"2.0","method":"tool/pick","params":{"args":{"object":"cup"},'
    '"meta":{"affect":[0.5,-0.25,0.0,0.125,1.0,-1.0,0.0625,-0.03125],'
    '"confidence":0.8125,"episode":"synth-11-0","fallback":false,"slab_count":5,'
    '"step":2,"sync_digest":"' + GOLDEN_DIGEST + '","ticks":40}}}'
).encode("utf-8")


def golden_envelope() -> Envelope:
    return Envelope(
        id=7,
        method="tool/pick",
        args={"object": "cup"},
        meta=EnvelopeMeta(
            episode="synth-11-0",
            step=2,
            slab_count=5,
            ticks=40,
            confidence=0.8125,
            affect=(0.5, -0.25, 0.0, 0.125, 1.0, -1.0, 0.0625, -0.03125),
            sync_digest=GOLDEN_DIGEST,
            fallback=False,
        ),
    )


def random_envelope(rng) -> Envelope:
    tools = ["noop", "navigate", "pick", "place", "actuate"]
    args = {}
    if rng.random() < 0.7:
        args["object"] = rng.choice(["cup", "plate", "towel", "bokéh"])
    if rng.random() < 0.3:
        args["amount"] = float(rng.normal() * 10.0 ** float(rng.integers(-8, 8)))
    if rng.random() < 0.3:
        args["count"] = int(rng.integers(0, 1000))
    sync = rng.normal(size=16).astype(np.float32)
    return Envelope(
        id=int(rng.integers(1, 10**9)),
        method=f"tool/{rng.choice(tools)}",
        args=args,
        meta=EnvelopeMeta(
            episode=f"task-{rng.integers(0, 999)}",
            step=int(rng.integers(0, 50)),
            slab_count=int(rng.integers(0, 16)),
            ticks=int(rng.integers(0, 128)),
            confidence=float(rng.random()),
            affect=tuple(float(x) for x in rng.uniform(-1, 1, size=8)),
            sync_digest=sync_digest(sync),
            fallback=bool(rng.random() < 0.2),
        ),
    )


class TestDigest:
    def test_frozen_value(self):
        sync = np.array([0.5, -1.0, 0.25, 2.0], dtype=np.float32)
        assert sync_digest(sync) == GOLDEN_DIGEST

    def test_is_sha256_of_le_float32(self):
        rng = np.random.default_rng(0)
        sync = rng.normal(size=12).astype(np.float32)
        want = hashlib.sha256(sync.astype("<f4").tobytes()).hexdigest()
        assert sync_digest(sync) == want
        assert len(want) == 64


class TestSerialize:
    def test_golden_fixture(self):
        assert serialize_envelope(golden_envelope()) == GOLDEN_BYTES

    def test_arg_insertion_order_irrelevant(self):
        env = golden_envelope()
        a = Envelope(env.id, env.method, {"x": 1, "object": "cup"}, env.meta)
        b = Envelope(env.id, env.method, {"object": "cup", "x": 1}, env.meta)
        assert serialize_envelope(a) == serialize_envelope(b)

    def test_non_finite_confidence_rejected(self):
        env = golden_envelope()
        meta = EnvelopeMeta(
            env.meta.episode, env.meta.step, env.meta.slab_count, env.meta.ticks,
            math.inf, env.meta.affect, env.meta.sync_digest, env.meta.fallback,
        )
        with pytest.raises(NonFiniteMetadata):
            serialize_envelope(Envelope(env.id, env.method, env.args, meta))

    def test_non_finite_affect_rejected(self):
        env = golden_envelope()
        meta = EnvelopeMeta(
            env.meta.episode, env.meta.step, env.meta.slab_count, env.meta.ticks,
            env.meta.confidence, (math.nan,) * 8, env.meta.sync_digest,
            env.meta.fallback,
        )
        with pytest.raises(NonFiniteMetadata):
            serialize_envelope(Envelope(env.id, env.method, env.args, meta))

    def test_distinct_envelopes_distinct_bytes(self):
        rng = np.random.default_rng(1)
        seen = set()
        for _ in range(200):
            env = random_envelope(rng)
            data = serialize_envelope(env)
            assert data not in seen
            seen.add(data)


class TestRoundTrip:
    def test_parse_inverts_serialize(self):
        env = golden_envelope()
        assert parse_envelope(serialize_envelope(env)) == env

    def test_thousand_random_round_trips_byte_identical(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            env = random_envelope(rng)
            first = serialize_envelope(env)
            again = serialize_envelope(parse_envelope(first))
            assert first == again


class TestParseRejections:
    def test_wrong_jsonrpc_literal(self):
        doc = GOLDEN_BYTES.replace(b'"jsonrpc":"2.0"', b'"jsonrpc":"1.0"')
        with pytest.raises(SchemaViolation) as err:
            parse_envelope(doc)
        assert err.value.path == "jsonrpc"

    def test_unknown_top_level_field(self):
        doc = GOLDEN_BYTES[:-1] + b',"extra":1}'
        with pytest.raises(SchemaViolation) as err:
            parse_envelope(doc)
        assert err.value.path == "extra"

    def test_malformed_digest(self):
        doc = GOLDEN_BYTES.replace(GOLDEN_DIGEST.encode(), b"ZZ" * 32)
        with pytest.raises(SchemaViolation) as err:
            parse_envelope(doc)
        assert err.value.path == "params.meta.sync_digest"

    def test_truncated_bytes(self):
        with pytest.raises(MalformedJson):
            parse_envelope(GOLDEN_BYTES[:-10])

    def test_non_utf8(self):
        with pytest.raises(MalformedJson):
            parse_envelope(b"\xff\xfe{}")

    def test_missing_meta_field(self):
        doc = GOLDEN_BYTES.replace(b'"ticks":40', b'"ticktock":40')
        with pytest.raises(SchemaViolation):
            parse_envelope(doc)

    def test_bad_method_prefix(self):
        doc = GOLDEN_BYTES.replace(b'"tool/pick"', b'"rpc/pick"')
        with pytest.raises(SchemaViolation) as err:
            parse_envelope(doc)
        assert err.value.path == "method"

    def test_out_of_range_confidence(self):
        doc = GOLDEN_BYTES.replace(b'"confidence":0.8125', b'"confidence":1.5')
        with pytest.raises(SchemaViolation) as err:
            parse_envelope(doc)
        assert err.value.path == "params.meta.confidence"

    def test_non_finite_constant(self):
        doc = GOLDEN_BYTES.replace(b'"confidence":0.8125', b'"confidence":NaN')
        with pytest.raises(MalformedJson):
            parse_envelope(doc)

    @pytest.mark.parametrize(
        "data", [b"[" * 100_000, b'{"id": 1' + b"0" * 5000 + b"}"], ids=["deep", "long-int"]
    )
    def test_undecodable_json_is_malformed(self, data):
        with pytest.raises(MalformedJson):
            parse_envelope(data)

    def test_duplicate_key_rejected(self):
        doc = GOLDEN_BYTES.replace(b'"id":7', b'"id":7,"id":8')
        with pytest.raises(SchemaViolation) as err:
            parse_envelope(doc)
        assert err.value.path == "id"


class TestCanonicalWriter:
    def test_sorted_keys_no_whitespace(self):
        data = canonical_json_bytes({"b": 1, "a": [1.5, 2], "é": "x"})
        assert data == '{"a":[1.5,2],"b":1,"é":"x"}'.encode("utf-8")

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            canonical_json_bytes({"x": math.nan})
