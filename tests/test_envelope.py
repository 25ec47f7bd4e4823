import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from tickslab.envelope import (
    Envelope,
    EnvelopeMeta,
    canonical_json_bytes,
    serialize_envelope,
    sync_digest,
)
from tickslab.schema import check_record

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
    if rng.random() < 0.3:
        args["duty"] = rng.random(int(rng.integers(0, 13))).tolist() + [int(rng.integers(0, 2))]
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


def as_doc(env: Envelope) -> dict:
    """The JSON document ``env`` stands for, written out field by field."""
    meta = {**dataclasses.asdict(env.meta), "affect": list(env.meta.affect)}
    return {
        "jsonrpc": "2.0",
        "id": env.id,
        "method": env.method,
        "params": {"args": dict(env.args), "meta": meta},
    }


def decode(data: bytes) -> dict:
    """The oracle for what ``serialize_envelope`` writes: plain ``json.loads``,
    after checking the bytes are canonical and the meta fields have their
    JSON types."""
    doc = json.loads(data)
    assert canonical_json_bytes(doc) == data
    check_record(EnvelopeMeta, doc["params"]["meta"], "params.meta.")
    return doc


def arg_types(args: dict) -> dict:
    # a dict compare takes 1 == 1.0, so the JSON kind of each arg is compared too
    def kind(value):
        if isinstance(value, list):
            return [kind(v) for v in value]
        return next(k for k in (bool, int, float, str) if isinstance(value, k))

    return {slot: kind(value) for slot, value in args.items()}


def assert_lossless(env: Envelope) -> None:
    """``serialize_envelope(env)`` decodes to every field of ``env``."""
    doc = decode(serialize_envelope(env))
    assert doc == as_doc(env)
    assert arg_types(doc["params"]["args"]) == arg_types(env.args)


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

    @pytest.mark.parametrize(
        "make",
        [
            lambda v: v.astype(np.float64),
            lambda v: np.repeat(v, 3)[::3],
            lambda v: v.astype(">f4"),
        ],
        ids=["float64", "strided-float32", "big-endian"],
    )
    def test_matches_the_contiguous_le_float32_recipe(self, make):
        # the recipe sync_digest used when envelope imported numpy
        rng = np.random.default_rng(1)
        sync = make(rng.normal(size=12).astype(np.float32))
        want = hashlib.sha256(np.ascontiguousarray(sync, dtype="<f4").tobytes()).hexdigest()
        assert sync_digest(sync) == want
        golden = make(np.array([0.5, -1.0, 0.25, 2.0], dtype=np.float32))
        assert sync_digest(golden) == GOLDEN_DIGEST


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
        with pytest.raises(ValueError):  # the canonical encoder's allow_nan=False
            serialize_envelope(Envelope(env.id, env.method, env.args, meta))

    def test_non_finite_affect_rejected(self):
        env = golden_envelope()
        meta = EnvelopeMeta(
            env.meta.episode, env.meta.step, env.meta.slab_count, env.meta.ticks,
            env.meta.confidence, (math.nan,) * 8, env.meta.sync_digest,
            env.meta.fallback,
        )
        with pytest.raises(ValueError):  # the canonical encoder's allow_nan=False
            serialize_envelope(Envelope(env.id, env.method, env.args, meta))

    def test_list_of_numbers_is_an_arg(self):
        env = golden_envelope()
        data = serialize_envelope(Envelope(env.id, env.method, {"duty": [0.25, 1, 0.0]}, env.meta))
        assert b'"args":{"duty":[0.25,1,0.0]}' in data

    @pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf])
    def test_list_with_a_non_finite_entry_rejected(self, entry):
        env = golden_envelope()
        with pytest.raises(ValueError):
            serialize_envelope(Envelope(env.id, env.method, {"duty": [0.5, entry]}, env.meta))

    def test_distinct_envelopes_distinct_bytes(self):
        rng = np.random.default_rng(1)
        seen = set()
        for _ in range(200):
            env = random_envelope(rng)
            data = serialize_envelope(env)
            assert data not in seen
            seen.add(data)


class TestRoundTrip:
    def test_golden_decodes_to_its_fields(self):
        assert_lossless(golden_envelope())

    def test_thousand_random_round_trips_byte_identical(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            assert_lossless(random_envelope(rng))


class TestCanonicalWriter:
    def test_sorted_keys_no_whitespace(self):
        data = canonical_json_bytes({"b": 1, "a": [1.5, 2], "é": "x"})
        assert data == '{"a":[1.5,2],"b":1,"é":"x"}'.encode("utf-8")

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            canonical_json_bytes({"x": math.nan})
