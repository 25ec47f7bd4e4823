import numpy as np
import pytest

from conftest import make_ctm, fusion_vector
from tickslab.affect import AffectParams, affect_decode, modulate_epsilon
from tickslab.consensus import run_branch
from tickslab.engine import initial_state
from tickslab.rng import fan_in_matrix


def make_affect(seed=0, pair_count=12, hidden=5, dims=8, **kw):
    return AffectParams(
        w1=fan_in_matrix(seed + 1, hidden, pair_count),
        w2=fan_in_matrix(seed + 2, dims, hidden),
        **kw,
    )


class TestAffectDecode:
    def test_zero_first_layer(self):
        params = make_affect()
        params = AffectParams(w1=np.zeros_like(params.w1), w2=params.w2)
        e = affect_decode(np.ones(12, dtype=np.float32), params)
        assert np.array_equal(e, np.zeros(8, dtype=np.float32))

    def test_zero_second_layer(self):
        params = make_affect()
        params = AffectParams(w1=params.w1, w2=np.zeros_like(params.w2))
        e = affect_decode(np.ones(12, dtype=np.float32), params)
        assert np.array_equal(e, np.zeros(8, dtype=np.float32))

    def test_reference_widths(self):
        # 32-wide hidden layer, 8-wide output at the default scale.
        params = AffectParams(w1=fan_in_matrix(1, 32, 256), w2=fan_in_matrix(2, 8, 32))
        e = affect_decode(np.ones(256, dtype=np.float32), params)
        assert params.w1.shape == (32, 256)
        assert params.w2.shape == (8, 32)
        assert e.shape == (8,)

    def test_norm_bound(self):
        params = make_affect()
        rng = np.random.default_rng(4)
        for _ in range(100):
            sync = (rng.normal(size=12) * 10).astype(np.float32)
            e = affect_decode(sync, params)
            assert np.linalg.norm(e) <= np.sqrt(8.0)
            assert np.all(np.abs(e) < 1.0)


class TestModulateEpsilon:
    def test_zero_affect_gives_baseline(self):
        params = make_affect()
        assert modulate_epsilon(np.zeros(8, dtype=np.float32), params) == 0.75

    def test_unit_norm(self):
        params = make_affect()
        e = np.zeros(8, dtype=np.float32)
        e[0] = 1.0
        assert modulate_epsilon(e, params) == pytest.approx(1.125)

    def test_maximal_norm(self):
        params = make_affect()
        e = np.ones(8, dtype=np.float32)
        assert modulate_epsilon(e, params) == pytest.approx(
            0.75 * (1.0 + 0.5 * np.sqrt(8.0))
        )
        assert modulate_epsilon(e, params) == pytest.approx(1.810660, abs=1e-6)

    def test_floor_and_monotonicity(self):
        params = make_affect()
        rng = np.random.default_rng(5)
        draws = sorted(
            (np.linalg.norm(v), v)
            for v in (rng.uniform(-1, 1, size=8).astype(np.float32) for _ in range(50))
        )
        values = [modulate_epsilon(v, params) for _, v in draws]
        assert all(v >= 0.75 for v in values)
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))

    def test_stateless(self):
        params = make_affect()
        e = np.full(8, 0.3, dtype=np.float32)
        assert modulate_epsilon(e, params) == modulate_epsilon(e, params)


class TestThresholdLengthensThinking:
    def test_higher_epsilon_never_fewer_ticks(self):
        # Weak monotonicity on the capped threshold the engine actually uses:
        # raise epsilon, the same branch never halts earlier.  Every slab is
        # ticks_per_slab ticks, so slabs order the runs as ticks do.
        fvec = fusion_vector(3)
        for seed in range(6):
            params = make_ctm(seed=seed)
            slabs = []
            for epsilon in (0.2, 0.5, 0.75, 1.125, 1.8):
                _, state = run_branch(initial_state(params), fvec, params, epsilon, seed, 0)
                slabs.append(state.slab)
            assert all(a <= b for a, b in zip(slabs, slabs[1:]))
