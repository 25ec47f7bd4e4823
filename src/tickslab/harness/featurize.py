"""Hash featurizer: goal and world -> deterministic modality frames.

No text model: tokens are scattered into the frames by stable 64-bit
hashing.  Each token seeds a splitmix64 stream (FNV-1a of the token string)
and contributes ``PROBES`` index/sign pairs of magnitude 0.5; goal tokens
land in the vision frame, world-state tokens in the proprio frame.  A
token's probes for a given width are computed once and kept in a bounded
cache (``token_probes``), since the same few tokens recur on every decision
step; the frames are the same bytes, because every probe adds an exact
multiple of 0.5 in float64 in the same order.  The
audio frame is the magnitude spectrum of a small bank of sinusoids whose
frequencies and amplitudes are drawn from a goal-seeded stream.  Only the
proprio frame follows the world, so ``goal_frames`` builds the other two
once per episode and ``featurize`` builds it once per decision step.
"""

from __future__ import annotations

import re
from functools import lru_cache

import numpy as np

from ..perception import WAVE_SAMPLES, spectrum
from ..rng import SplitMix64, fnv1a64
from .world import WorldState

PROBES = 4
TOKEN_MAGNITUDE = 0.5
WAVE_COMPONENTS = 3
TOKEN_CACHE_SIZE = 4096      # (token, width) keys kept by ``token_probes``

_TOKEN_RE = re.compile(r"[a-z0-9]+")


def tokenize(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


@lru_cache(maxsize=TOKEN_CACHE_SIZE)
def token_probes(token: str, dim: int) -> tuple[tuple[int, float], ...]:
    """The token's ``PROBES`` (index, +-TOKEN_MAGNITUDE) pairs in a dim-wide frame."""
    stream = SplitMix64(fnv1a64(token))
    probes = []
    for _ in range(PROBES):
        raw = stream.next_u64()
        sign = 1.0 if (raw >> 63) == 0 else -1.0
        probes.append((raw % dim, sign * TOKEN_MAGNITUDE))
    return tuple(probes)


def scatter_tokens(tokens: list[str], dim: int) -> np.ndarray:
    """Feature-hash tokens into a dim-wide float32 vector."""
    frame = np.zeros(dim, dtype=np.float64)
    for token in tokens:
        for index, value in token_probes(token, dim):
            frame[index] += value
    return frame.astype(np.float32)


def world_tokens(world: WorldState) -> list[str]:
    tokens = [f"robot@{world.robot_at}"]
    for name in sorted(world.objects):
        tokens.append(f"{name}@{world.objects[name]}")
        if name == world.held:
            tokens.append(f"{name}:held")
    return tokens


def goal_waveform(goal: str) -> np.ndarray:
    """Token-seeded bank of sinusoids (unit-ish amplitudes, integer bins)."""
    stream = SplitMix64(fnv1a64(goal))
    n = np.arange(WAVE_SAMPLES, dtype=np.float64)
    wave = np.zeros(WAVE_SAMPLES, dtype=np.float64)
    for _ in range(WAVE_COMPONENTS):
        freq = 1 + stream.below(WAVE_SAMPLES // 8)
        amplitude = 0.5 + stream.uniform()
        wave += amplitude * np.sin(2.0 * np.pi * freq * n / WAVE_SAMPLES)
    return wave


def goal_frames(goal: str, dims) -> tuple[np.ndarray, np.ndarray]:
    """The (vision, audio) float32 frames; they depend on the goal alone.

    ``dims`` is the perception config; its ``vision_in`` and ``audio_in``
    widths size the frames (the audio frame holds ``audio_in`` spectrum
    bins).
    """
    vision = scatter_tokens(tokenize(goal), dims.vision_in)
    audio = spectrum(goal_waveform(goal), dims.audio_in)
    return vision, audio


def featurize(world: WorldState, dims) -> np.ndarray:
    """The proprio float32 frame for one decision step, ``proprio_in`` wide."""
    return scatter_tokens(world_tokens(world), dims.proprio_in)
