import numpy as np
import pytest

from tickslab.perception import EncoderWeights, encode_modality, fuse, spectrum
from tickslab.rng import fan_in_matrix


def make_encoder(seed=0, vis=(6, 10), aud=(4, 8), pro=(3, 5), fusion_dim=9):
    concat = vis[0] + aud[0] + pro[0]
    return EncoderWeights(
        vision=fan_in_matrix(seed + 1, *vis),
        audio=fan_in_matrix(seed + 2, *aud),
        proprio=fan_in_matrix(seed + 3, *pro),
        fusion=fan_in_matrix(seed + 4, fusion_dim, concat),
    )


def naive_dft_magnitudes(x):
    """O(N^2) DFT oracle, independent of numpy's FFT."""
    n = len(x)
    mags = []
    for k in range(n):
        re = sum(x[j] * np.cos(-2.0 * np.pi * k * j / n) for j in range(n))
        im = sum(x[j] * np.sin(-2.0 * np.pi * k * j / n) for j in range(n))
        mags.append(np.hypot(re, im))
    return np.array(mags)


class TestEncodeModality:
    def test_zero_weights_give_zero_latent(self):
        enc = make_encoder()
        enc = EncoderWeights(
            vision=np.zeros_like(enc.vision),
            audio=enc.audio,
            proprio=enc.proprio,
            fusion=enc.fusion,
        )
        latent = encode_modality(np.ones(10, dtype=np.float32), enc.vision)
        assert np.array_equal(latent, np.zeros(6, dtype=np.float32))

    def test_one_by_one_analytic(self):
        enc = EncoderWeights(
            vision=np.array([[1.0]], dtype=np.float32),
            audio=np.zeros((1, 1), dtype=np.float32),
            proprio=np.zeros((1, 1), dtype=np.float32),
            fusion=np.zeros((1, 3), dtype=np.float32),
        )
        latent = encode_modality([0.5], enc.vision)
        assert latent[0] == pytest.approx(np.tanh(0.5), abs=1e-7)
        assert abs(float(latent[0]) - 0.462117) < 1e-6

    def test_saturation_stays_inside_open_interval(self):
        rng = np.random.default_rng(5)
        w = rng.normal(size=(6, 10)).astype(np.float32)
        x = rng.normal(size=10).astype(np.float32)
        # scale so that every |Wx| coordinate exceeds 20
        pre = w.astype(np.float64) @ x.astype(np.float64)
        scale = 25.0 / np.min(np.abs(pre))
        enc = make_encoder()
        enc = EncoderWeights(
            vision=(w * scale).astype(np.float32),
            audio=enc.audio,
            proprio=enc.proprio,
            fusion=enc.fusion,
        )
        latent = encode_modality(x, enc.vision)
        # float32 storage: the tightest representable saturation below 1.0
        # is 1 - 2^-24, so assert at float32 resolution.
        assert np.all(np.abs(latent) > 1.0 - 1e-7)
        assert np.all(np.abs(latent) < 1.0)


class TestSpectrum:
    def test_constant_signal_is_dc_only(self):
        mags = spectrum(np.full(64, 2.5), n_bins=16)
        assert mags[0] > 0
        assert np.all(mags[1:] < 1e-9 * mags[0])

    def test_sinusoid_peaks_at_its_bin(self):
        n = 128
        k = 9
        t = np.arange(n)
        mags = spectrum(np.sin(2 * np.pi * k * t / n), n_bins=32)
        assert int(np.argmax(mags)) == k

    def test_parseval_against_naive_dft(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=256)
        oracle = naive_dft_magnitudes(x)
        assert np.sum(oracle**2) == pytest.approx(256 * np.sum(x**2), rel=1e-6)
        mags = spectrum(x, n_bins=80)
        np.testing.assert_allclose(mags, oracle[:80], rtol=1e-5, atol=1e-8)


class TestFuse:
    def _latents(self, enc, seed=0):
        rng = np.random.default_rng(seed)
        frames = (rng.normal(size=10), rng.normal(size=8), rng.normal(size=5))
        encoders = (enc.vision, enc.audio, enc.proprio)
        return tuple(encode_modality(x, w) for x, w in zip(frames, encoders))

    def test_zero_latents_fuse_to_zero(self):
        enc = make_encoder()
        zero = lambda d: np.zeros(d, dtype=np.float32)
        f = fuse(zero(6), zero(4), zero(3), enc)
        assert np.array_equal(f, np.zeros(9, dtype=np.float32))

    def test_shapes_default_scale(self):
        # Full-size check: 128 + 64 + 32 latents -> 224 concat -> 256 fusion.
        enc = EncoderWeights(
            vision=fan_in_matrix(1, 128, 768),
            audio=fan_in_matrix(2, 64, 80),
            proprio=fan_in_matrix(3, 32, 64),
            fusion=fan_in_matrix(4, 256, 224),
        )
        rng = np.random.default_rng(0)
        vis = encode_modality(rng.normal(size=768), enc.vision)
        aud = encode_modality(rng.normal(size=80), enc.audio)
        pro = encode_modality(rng.normal(size=64), enc.proprio)
        assert vis.shape == (128,)
        assert aud.shape == (64,)
        assert pro.shape == (32,)
        f = fuse(vis, aud, pro, enc)
        assert f.shape == (256,)
        assert np.all(np.abs(f) < 1.0)

    def test_repeatable_across_calls(self):
        enc = make_encoder(seed=9)
        latents = self._latents(enc, seed=1)
        first = fuse(*latents, enc)
        for _ in range(100):
            again = fuse(*latents, enc)
            assert np.array_equal(first, again)

    def test_processing_order_does_not_matter(self):
        # Encode modalities in a different order; fusion must not change.
        enc = make_encoder(seed=9)
        rng = np.random.default_rng(2)
        frames = {"vision": rng.normal(size=10), "audio": rng.normal(size=8), "proprio": rng.normal(size=5)}
        forward = {m: encode_modality(frames[m], getattr(enc, m)) for m in ("vision", "audio", "proprio")}
        backward = {m: encode_modality(frames[m], getattr(enc, m)) for m in ("proprio", "audio", "vision")}
        fa = fuse(forward["vision"], forward["audio"], forward["proprio"], enc)
        fb = fuse(backward["vision"], backward["audio"], backward["proprio"], enc)
        assert np.array_equal(fa, fb)
