"""Per-modality encoders and the fusion stage.

Each modality frame is encoded as ``tanh(W x)`` and the three latents are
concatenated (vision, audio, proprio — fixed order) into the fusion input,
which a second affine+tanh maps to the 256-wide context vector that seeds
every thought cycle.  The audio path keeps one explicit magnitude-spectrum
stage (single rectangular window) in front of its encoder.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonFiniteInput, WindowTooShort
from .numerics import bounded_tanh, matvec, require_finite

# Length of the audio window the harness featurizer synthesizes; its
# spectrum has at most WAVE_SAMPLES // 2 bins.
WAVE_SAMPLES = 256


class Modality(enum.Enum):
    VISION = "vision"
    AUDIO = "audio"
    PROPRIO = "proprio"


# Fixed concatenation order for fusion.
MODALITY_ORDER = (Modality.VISION, Modality.AUDIO, Modality.PROPRIO)


@dataclass(frozen=True)
class ModalityFrame:
    """Raw per-modality input vector (float32, finite)."""

    modality: Modality
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "values", np.asarray(self.values, dtype=np.float32).reshape(-1)
        )


@dataclass(frozen=True)
class ModalityLatent:
    modality: Modality
    latent: np.ndarray


@dataclass(frozen=True)
class EncoderWeights:
    """Per-modality encoder matrices plus the fusion matrix.

    Shapes: each encoder is (d_latent, d_in); fusion is (fusion_dim, sum of
    latent dims).  All float32.
    """

    vision: np.ndarray
    audio: np.ndarray
    proprio: np.ndarray
    fusion: np.ndarray

    def encoder_for(self, modality: Modality) -> np.ndarray:
        return {
            Modality.VISION: self.vision,
            Modality.AUDIO: self.audio,
            Modality.PROPRIO: self.proprio,
        }[modality]


def encode_modality(frame: ModalityFrame, weights: EncoderWeights) -> ModalityLatent:
    """Encode one frame: latent = tanh(W x)."""
    w = weights.encoder_for(frame.modality)
    if frame.values.shape[0] != w.shape[1]:
        raise DimensionMismatch(
            f"{frame.modality.value} frame has {frame.values.shape[0]} values, "
            f"encoder expects {w.shape[1]}"
        )
    require_finite(frame.values, f"{frame.modality.value} frame", NonFiniteInput)
    return ModalityLatent(frame.modality, bounded_tanh(matvec(w, frame.values)))


def spectrum(samples: np.ndarray, n_bins: int) -> np.ndarray:
    """First ``n_bins`` magnitude values of the window's discrete Fourier
    transform (rectangular window, single frame)."""
    x = np.asarray(samples, dtype=np.float64).reshape(-1)
    if x.shape[0] < 2 * n_bins:
        raise WindowTooShort(f"{x.shape[0]} samples < 2 * {n_bins} bins")
    mags = np.abs(np.fft.fft(x)[:n_bins])
    return mags.astype(np.float32)


def fuse(
    vis: ModalityLatent,
    aud: ModalityLatent,
    pro: ModalityLatent,
    weights: EncoderWeights,
) -> np.ndarray:
    """Fusion vector f = tanh(W_f [vis || aud || pro]); float32, entries in (-1, 1)."""
    for latent, want in zip((vis, aud, pro), MODALITY_ORDER):
        if latent.modality is not want:
            raise DimensionMismatch(
                f"fuse expects order vision, audio, proprio; got {latent.modality.value}"
            )
    concat = np.concatenate([vis.latent, aud.latent, pro.latent])
    if concat.shape[0] != weights.fusion.shape[1]:
        raise DimensionMismatch(
            f"concatenated latents have {concat.shape[0]} entries, "
            f"fusion expects {weights.fusion.shape[1]}"
        )
    return bounded_tanh(matvec(weights.fusion, concat))
