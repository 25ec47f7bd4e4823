"""Per-modality encoders and the fusion stage.

Each modality frame is a float32 array encoded as ``tanh(W x)``, and the
three latents are concatenated (vision, audio, proprio — fixed order) into
the fusion input, which a second affine+tanh maps to the 256-wide context
vector that seeds every thought cycle.  The audio path keeps one explicit
magnitude-spectrum stage (single rectangular window) in front of its
encoder.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import bounded_tanh, hold_float64, matvec

# Length of the audio window the harness featurizer synthesizes; its
# spectrum has at most WAVE_SAMPLES // 2 bins.
WAVE_SAMPLES = 256


@dataclass(frozen=True)
class EncoderWeights:
    """Per-modality encoder matrices plus the fusion matrix.

    Shapes: each encoder is (d_latent, d_in); fusion is (fusion_dim, sum of
    latent dims).  Each is held as a read-only float64 array of float32
    values.
    """

    vision: np.ndarray
    audio: np.ndarray
    proprio: np.ndarray
    fusion: np.ndarray

    def __post_init__(self):
        hold_float64(self, "vision", "audio", "proprio", "fusion")


def encode_modality(values, w: np.ndarray) -> np.ndarray:
    """Encode one frame with its encoder matrix ``w``: latent = tanh(W x)."""
    x = np.asarray(values, dtype=np.float32).reshape(-1)
    return bounded_tanh(matvec(w, x))


def spectrum(samples: np.ndarray, n_bins: int) -> np.ndarray:
    """First ``n_bins`` magnitude values of the discrete Fourier transform of a
    window of at least ``2 * n_bins`` samples (rectangular, single frame)."""
    x = np.asarray(samples, dtype=np.float64).reshape(-1)
    mags = np.abs(np.fft.fft(x)[:n_bins])
    return mags.astype(np.float32)


def fuse(
    vision: np.ndarray, audio: np.ndarray, proprio: np.ndarray, weights: EncoderWeights
) -> np.ndarray:
    """Fusion vector f = tanh(W_f [vision || audio || proprio]); float32, entries in (-1, 1)."""
    concat = np.concatenate([vision, audio, proprio])
    return bounded_tanh(matvec(weights.fusion, concat))
