"""Seeded random streams with a fixed, documented bit-level recipe.

Every random draw in the runtime comes from a splitmix64 stream so that an
independent implementation can reproduce the exact bytes:

* state update: ``s_{i+1} = (s_i + 0x9E3779B97F4A7C15) mod 2^64``
* output mix:   ``z ^= z >> 30; z *= 0xBF58476D1CE4E5B9; z ^= z >> 27;
  z *= 0x94D049BB133111EB; z ^= z >> 31`` (all mod 2^64)
* unit double:  ``(z >> 11) * 2^-53``  (53 mantissa bits, range [0, 1))
* signed draw:  ``(2u - 1) * bound`` evaluated in float64, stored as float32

Stream seeds are namespaced with FNV-1a 64 over UTF-8 names
(offset 0xCBF29CE484222325, prime 0x100000001B3), xor-combined with the
parent seed.  Shuffles are Fisher-Yates with ``j = next_u64() % (i + 1)``
for i from n - 1 down to 1 (modulo bias is irrelevant at the sizes used
here and keeps the recipe one line); the n - 1 indices are drawn in one
bulk call, which leaves the stream where n - 1 ``next_u64`` calls would.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def fnv1a64(text: str) -> int:
    """FNV-1a 64-bit hash of the UTF-8 encoding of ``text``."""
    h = _FNV_OFFSET
    for byte in text.encode("utf-8"):
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK64
    return h


def mix64(value: int) -> int:
    """One splitmix64 output-mix round, usable as a standalone hash."""
    z = (value + _GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def derive_seed(parent: int, name: str) -> int:
    """Seed for a named child stream: ``mix64(parent XOR fnv1a64(name))``."""
    return mix64((parent & _MASK64) ^ fnv1a64(name))


class SplitMix64:
    """Sequential splitmix64 stream."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        z = mix64(self._state)
        self._state = (self._state + _GAMMA) & _MASK64
        return z

    def uniform(self) -> float:
        """Next double in [0, 1)."""
        return (self.next_u64() >> 11) * 2.0**-53

    def below(self, n: int) -> int:
        """Next integer in [0, n)."""
        return self.next_u64() % n

    def shuffle(self, items) -> None:
        """In-place Fisher-Yates shuffle of any mutable sequence."""
        n = len(items)
        if n < 2:
            return
        draws = bulk_u64(self._state, n - 1) % np.arange(n, 1, -1, dtype=np.uint64)
        self._state = (self._state + (n - 1) * _GAMMA) & _MASK64
        seq = list(items)
        for i, j in zip(range(n - 1, 0, -1), draws.tolist()):
            seq[i], seq[j] = seq[j], seq[i]
        items[:] = seq

    def permutation(self, n: int) -> np.ndarray:
        out = list(range(n))
        self.shuffle(out)
        return np.array(out, dtype=np.int64)


def bulk_u64(seeds, n: int) -> np.ndarray:
    """First ``n`` outputs of ``SplitMix64(seed)`` as a uint64 array, or for a
    list of seeds one row of them per seed.

    Uses the closed form state_i = seed + i * gamma so large tensors do not
    pay for a Python-level loop; bit-identical to sequential draws.
    """
    base = np.array(np.asarray(seeds, dtype=object) & _MASK64, dtype=np.uint64)
    idx = np.arange(1, n + 1, dtype=np.uint64)
    z = base[..., None] + idx * np.uint64(_GAMMA)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


def uniform_matrix(seeds, rows: int, cols: int, bound: float) -> np.ndarray:
    """Row-major (rows, cols) float32 matrix of uniform(-bound, +bound) draws,
    or for a list of seeds one such matrix per seed."""
    u = (bulk_u64(seeds, rows * cols) >> np.uint64(11)).astype(np.float64) * 2.0**-53
    vals = (2.0 * u - 1.0) * float(bound)
    return vals.astype(np.float32).reshape(np.shape(seeds) + (rows, cols))


def fan_in_matrix(seeds, rows: int, cols: int) -> np.ndarray:
    """Weight matrix (one per seed, for a list) with the default init bound 1/sqrt(cols)."""
    return uniform_matrix(seeds, rows, cols, 1.0 / np.sqrt(cols))


def sample_pairs(seed: int, neurons: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """``count`` distinct ordered index pairs (p, q), p = q allowed.

    Sampled without replacement by Fisher-Yates over all neurons^2 ordered
    pairs, the most that ``EngineConfig`` lets ``count`` be, then split into
    the two index vectors.
    """
    chosen = SplitMix64(seed).permutation(neurons * neurons)[:count]
    return (chosen // neurons).astype(np.int64), (chosen % neurons).astype(np.int64)
