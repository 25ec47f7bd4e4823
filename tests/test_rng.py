import hashlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tickslab.config import Config
from tickslab.harness.world import build_registry
from tickslab.params import build_model
from tickslab.rng import (
    SplitMix64,
    bulk_u64,
    derive_seed,
    fan_in_matrix,
    fnv1a64,
    sample_pairs,
    uniform_matrix,
)


def test_fnv1a64_reference_values():
    # Published FNV-1a test vectors.
    assert fnv1a64("") == 0xCBF29CE484222325
    assert fnv1a64("a") == 0xAF63DC4C8601EC8C
    assert fnv1a64("foobar") == 0x85944171F73967E8


def test_splitmix64_reference_sequence():
    # First outputs for seed 0 from the canonical splitmix64 algorithm.
    stream = SplitMix64(0)
    got = [stream.next_u64() for _ in range(3)]
    assert got == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_bulk_matches_sequential():
    seed = 0xDEADBEEFCAFE
    stream = SplitMix64(seed)
    sequential = [stream.next_u64() for _ in range(1000)]
    assert bulk_u64(seed, 1000).tolist() == sequential


@settings(max_examples=100, deadline=None)
@given(seeds=st.lists(st.integers(-(2**64), 2**65), max_size=6), n=st.integers(0, 40))
def test_a_list_of_seeds_draws_one_row_per_seed(seeds, n):
    rows = bulk_u64(seeds, n)
    assert rows.shape == (len(seeds), n)
    assert [row.tolist() for row in rows] == [bulk_u64(seed, n).tolist() for seed in seeds]
    matrices = uniform_matrix(seeds, 2, 3, 0.5)
    assert matrices.shape == (len(seeds), 2, 3)
    for seed, matrix in zip(seeds, matrices):
        assert matrix.tobytes() == uniform_matrix(seed, 2, 3, 0.5).tobytes()


def test_uniform_matrix_bounds_and_determinism():
    m1 = uniform_matrix(42, 13, 7, 0.25)
    m2 = uniform_matrix(42, 13, 7, 0.25)
    assert m1.dtype == np.float32
    assert np.array_equal(m1, m2)
    assert np.all(np.abs(m1) <= 0.25)
    assert uniform_matrix(43, 13, 7, 0.25)[0, 0] != m1[0, 0]


def test_fan_in_bound():
    m = fan_in_matrix(5, 4, 16)
    assert np.all(np.abs(m) <= 1.0 / 4.0)


def test_derive_seed_namespacing():
    assert derive_seed(1, "a") != derive_seed(1, "b")
    assert derive_seed(1, "a") != derive_seed(2, "a")
    assert derive_seed(1, "a") == derive_seed(1, "a")


def test_sample_pairs_distinct_and_deterministic():
    p1, q1 = sample_pairs(9, neurons=8, count=30)
    p2, q2 = sample_pairs(9, neurons=8, count=30)
    assert np.array_equal(p1, p2) and np.array_equal(q1, q2)
    pairs = set(zip(p1.tolist(), q1.tolist()))
    assert len(pairs) == 30
    assert p1.min() >= 0 and p1.max() < 8
    assert q1.min() >= 0 and q1.max() < 8


def test_shuffle_deterministic_for_lists():
    items1 = list(range(10))
    items2 = list(range(10))
    SplitMix64(77).shuffle(items1)
    SplitMix64(77).shuffle(items2)
    assert items1 == items2
    assert sorted(items1) == list(range(10))


# SHA-256 of the int64 bytes of the default model's synchrony pairs, drawn by
# a 4096-item shuffle (numpy 2.4.6).
PAIR_P_SHA256 = "28ddfa578a78db43d3a9396546ef46be84dac1ed61773f4cebf2aef384401d6f"
PAIR_Q_SHA256 = "3ee64185b300e74a8d224ee75c59873a662551feacdc419ba4fcf101d753f008"


def one_draw_shuffle(stream, items):
    """Fisher-Yates with one ``below`` draw per swap, the recipe's plain form."""
    for i in range(len(items) - 1, 0, -1):
        j = stream.below(i + 1)
        items[i], items[j] = items[j], items[i]


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), n=st.integers(0, 600), as_array=st.booleans())
def test_shuffle_equals_one_draw_per_swap(seed, n, as_array):
    make = (lambda: np.arange(n, dtype=np.int64)) if as_array else (lambda: list(range(n)))
    got, want = make(), make()
    stream, reference = SplitMix64(seed), SplitMix64(seed)
    stream.shuffle(got)
    one_draw_shuffle(reference, want)
    if as_array:
        assert got.dtype == np.int64
    assert list(got) == list(want)
    # the stream is left where the n - 1 single draws leave it
    assert stream.next_u64() == reference.next_u64()


def test_default_model_pairs_are_pinned():
    registry = build_registry()
    ctm = build_model(Config(), len(registry), registry.max_slots).ctm
    assert hashlib.sha256(ctm.pair_p.tobytes()).hexdigest() == PAIR_P_SHA256
    assert hashlib.sha256(ctm.pair_q.tobytes()).hexdigest() == PAIR_Q_SHA256
