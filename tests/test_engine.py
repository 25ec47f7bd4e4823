from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_ctm
from tickslab.config import EngineConfig
from tickslab.engine import (
    BranchState,
    accumulate,
    certainty,
    gated_carry,
    halt_decision,
    initial_state,
    mu_mlp,
    push_history,
    run_slab,
    run_until_halt,
    slab_contribution,
    sync_scan_tick,
    sync_update,
    synapse,
)
from tickslab.errors import DimensionMismatch, EmptySlab


def dense_readout_oracle(history, factor_a, factor_b, bias):
    """Materialize W = B A^T and apply the readout densely (float64)."""
    w = factor_b.astype(np.float64) @ factor_a.astype(np.float64).T
    pre = bias.astype(np.float64) + np.sum(w * history.astype(np.float64), axis=1)
    return np.tanh(pre)


class TestSynapse:
    def test_zero_inputs(self, small_params):
        z = np.zeros(8, dtype=np.float32)
        f = np.zeros(16, dtype=np.float32)
        out = synapse(z, f, small_params.synapse_w)
        assert np.array_equal(out, np.zeros(8, dtype=np.float32))

    def test_shape_contract(self, small_params, fvec):
        out = synapse(np.zeros(8, dtype=np.float32), fvec, small_params.synapse_w)
        assert out.shape == (8,)
        assert small_params.synapse_w.shape == (8, 8 + 16)

    def test_hand_set_row(self):
        # D=2 toy: first row selects z_prev[0], second row selects nothing.
        w = np.zeros((2, 2 + 3), dtype=np.float32)
        w[0, 0] = 1.0
        z_prev = np.array([0.7, -0.2], dtype=np.float32)
        f = np.array([0.1, 0.2, 0.3], dtype=np.float32)
        out = synapse(z_prev, f, w)
        assert out[0] == pytest.approx(np.tanh(0.7), abs=1e-7)
        assert out[1] == 0.0

    def test_dimension_mismatch(self, small_params):
        with pytest.raises(DimensionMismatch):
            synapse(np.zeros(7, dtype=np.float32), np.zeros(16, dtype=np.float32),
                    small_params.synapse_w)


class TestPushHistory:
    def test_single_push(self):
        h = np.zeros((3, 4), dtype=np.float32)
        v = np.array([1, 2, 3], dtype=np.float32)
        out = push_history(h, v)
        assert np.array_equal(out[:, -1], v)
        assert np.array_equal(out[:, :-1], np.zeros((3, 3)))

    def test_m_pushes_in_order(self):
        h = np.zeros((2, 3), dtype=np.float32)
        vs = [np.full(2, k, dtype=np.float32) for k in (1.0, 2.0, 3.0)]
        for v in vs:
            h = push_history(h, v)
        for col, v in enumerate(vs):
            assert np.array_equal(h[:, col], v)

    def test_fifo_drops_oldest(self):
        h = np.zeros((2, 3), dtype=np.float32)
        vs = [np.full(2, k, dtype=np.float32) for k in (1.0, 2.0, 3.0, 4.0)]
        for v in vs:
            h = push_history(h, v)
        assert 1.0 not in h
        for col, v in enumerate(vs[1:]):
            assert np.array_equal(h[:, col], v)


class TestMuMlp:
    def test_zero_history_gives_tanh_bias(self, small_params):
        h = np.zeros((8, 4), dtype=np.float32)
        out = mu_mlp(h, small_params.factor_a, small_params.factor_b, small_params.bias)
        np.testing.assert_allclose(
            out, np.tanh(small_params.bias.astype(np.float64)), rtol=0, atol=1e-7
        )

    def test_single_term(self):
        # M=1, r=1: z_d = tanh(a * b_d * H[d][0])
        a = np.array([[0.5]], dtype=np.float32)
        b = np.array([[2.0], [-1.0]], dtype=np.float32)
        bias = np.zeros(2, dtype=np.float32)
        h = np.array([[0.3], [0.4]], dtype=np.float32)
        out = mu_mlp(h, a, b, bias)
        assert out[0] == pytest.approx(np.tanh(0.5 * 2.0 * 0.3), abs=1e-7)
        assert out[1] == pytest.approx(np.tanh(0.5 * -1.0 * 0.4), abs=1e-7)

    def test_matches_dense_oracle_at_full_size(self):
        rng = np.random.default_rng(123)
        for _ in range(50):
            a = rng.normal(size=(8, 4)).astype(np.float32)
            b = rng.normal(size=(64, 4)).astype(np.float32)
            bias = rng.normal(size=64).astype(np.float32)
            h = rng.uniform(-1, 1, size=(64, 8)).astype(np.float32)
            got = mu_mlp(h, a, b, bias)
            want = dense_readout_oracle(h, a, b, bias)
            np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-8)


class TestSyncUpdate:
    def test_single_tick_form(self, small_params):
        rng = np.random.default_rng(3)
        sync = rng.normal(size=12).astype(np.float32)
        z = rng.uniform(-1, 1, size=8).astype(np.float32)
        out = sync_update(sync, [z], small_params)
        want = 0.999 * sync.astype(np.float64) + (
            z.astype(np.float64)[small_params.pair_p]
            * z.astype(np.float64)[small_params.pair_q]
        )
        np.testing.assert_allclose(out, want, rtol=1e-6, atol=1e-8)

    def test_zero_states_decay_only(self, small_params):
        sync = np.ones(12, dtype=np.float32)
        states = [np.zeros(8, dtype=np.float32)] * 5
        out = sync_update(sync, states, small_params)
        np.testing.assert_allclose(out, 0.999**5 * np.ones(12), rtol=1e-6)

    def test_incremental_scan_matches_closed_form(self):
        rng = np.random.default_rng(17)
        for trial in range(100):
            n_ticks = int(rng.integers(1, 33))
            params = make_ctm(seed=trial)
            sync = rng.normal(size=12).astype(np.float32)
            states = [
                rng.uniform(-1, 1, size=8).astype(np.float32) for _ in range(n_ticks)
            ]
            closed = sync_update(sync, states, params)
            scanned = sync.astype(np.float64)
            for z in states:
                scanned = sync_scan_tick(scanned, z, params)
            np.testing.assert_allclose(
                scanned.astype(np.float32), closed, rtol=1e-5, atol=1e-8
            )

    @given(st.integers(0, 10_000), st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_permuted_pairs_gather_the_contribution(self, seed, n):
        # The shared-trajectory identity: under pair_p[perm]/pair_q[perm]
        # the slab update is decay^n * S + C[perm], bit for bit.
        params = make_ctm(seed=seed % 50)
        rng = np.random.default_rng(seed)
        states = [rng.uniform(-1, 1, size=8).astype(np.float32) for _ in range(n)]
        sync = rng.normal(size=12).astype(np.float32)
        perm = rng.permutation(12)
        permuted = replace(params, pair_p=params.pair_p[perm], pair_q=params.pair_q[perm])
        contribution = slab_contribution(states, params)[perm]
        gathered = accumulate(sync, contribution, n, params.config.decay)
        assert gathered.tobytes() == sync_update(sync, states, permuted).tobytes()

    def test_empty_slab(self, small_params):
        with pytest.raises(EmptySlab):
            sync_update(np.zeros(12, dtype=np.float32), [], small_params)


class TestCertainty:
    def test_uniform_logits_zero_certainty(self, small_params):
        # W_c rows identical -> identical logits -> uniform softmax.
        w = np.ones((4, 12), dtype=np.float32)
        logits, c = certainty(np.ones(12, dtype=np.float32), w, small_params)
        assert len(set(logits.tolist())) == 1
        assert abs(c) < 1e-7

    def test_near_one_hot(self, small_params):
        # W_c S = [10, 0, 0, 0] with scale 8 -> h = [80, 0, 0, 0].
        w = np.zeros((4, 12), dtype=np.float32)
        w[0, 0] = 10.0
        sync = np.zeros(12, dtype=np.float32)
        sync[0] = 1.0
        logits, c = certainty(sync, w, small_params)
        assert logits[0] == pytest.approx(80.0)
        assert c > 1.0 - 1e-8

    def test_scale_monotonicity(self):
        rng = np.random.default_rng(29)
        lo = make_ctm(seed=1, logit_scale=1.0)
        hi = make_ctm(seed=1, logit_scale=8.0)
        for _ in range(1000):
            sync = rng.normal(size=12).astype(np.float32)
            _, c_lo = certainty(sync, lo.certainty_w, lo)
            _, c_hi = certainty(sync, hi.certainty_w, hi)
            assert c_hi >= c_lo - 1e-12

    def test_range_clamped(self, small_params):
        rng = np.random.default_rng(31)
        for _ in range(200):
            sync = (rng.normal(size=12) * 100).astype(np.float32)
            _, c = certainty(sync, small_params.certainty_w, small_params)
            assert 0.0 <= c <= 1.0


class TestHaltDecision:
    def test_threshold_halt(self):
        assert halt_decision(0.9, 0.75, (0.1, 0.5, 0.9), 5, EngineConfig())

    def test_continue_mid_run(self):
        assert not halt_decision(0.5, 0.75, (0.3, 0.4, 0.5), 5, EngineConfig())

    def test_capped_epsilon(self):
        # epsilon above the cap: 0.99 < 0.995 so the branch keeps thinking.
        assert not halt_decision(0.99, 1.125, (0.2, 0.3, 0.4), 5, EngineConfig())
        # but certainty at the cap halts even though epsilon is higher
        assert halt_decision(0.996, 1.125, (0.2, 0.3, 0.4), 5, EngineConfig())

    def test_budget_halt(self):
        assert halt_decision(0.0, 0.75, (0.0, 0.1, 0.2), 0, EngineConfig())

    def test_plateau_halt(self):
        assert halt_decision(0.5, 0.75, (0.5001, 0.5005, 0.5002), 5, EngineConfig())

    def test_short_trace_no_plateau(self):
        assert not halt_decision(0.5, 0.75, (0.5, 0.5), 5, EngineConfig())


class TestGatedCarry:
    def test_zero_base(self):
        z_b = np.array([0.5, -0.4], dtype=np.float32)
        out = gated_carry(np.zeros(2, dtype=np.float32), z_b, 0.9)
        np.testing.assert_allclose(out, 0.1 * z_b, rtol=1e-6)

    def test_fixed_point(self):
        z = np.array([0.3, -0.7, 0.1], dtype=np.float32)
        assert np.array_equal(gated_carry(z, z, 0.9), z)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_convexity_bound(self, seed):
        rng = np.random.default_rng(seed)
        z_a = rng.uniform(-1, 1, size=6).astype(np.float32)
        z_b = rng.uniform(-1, 1, size=6).astype(np.float32)
        beta = float(rng.uniform(0, 1))
        out = gated_carry(z_a, z_b, beta)
        bound = max(np.max(np.abs(z_a)), np.max(np.abs(z_b)))
        assert np.max(np.abs(out)) <= bound


class TestRunSlab:
    def test_zero_weights_cascade(self):
        params = make_ctm(
            seed=2,
            synapse_w=np.zeros((8, 24), dtype=np.float32),
            factor_a=np.zeros((4, 2), dtype=np.float32),
            factor_b=np.zeros((8, 2), dtype=np.float32),
            bias=np.zeros(8, dtype=np.float32),
            certainty_w=np.zeros((4, 12), dtype=np.float32),
        )
        state = initial_state(params)
        f = np.zeros(16, dtype=np.float32)
        _, result = run_slab(state, f, params, epsilon=0.75)
        assert np.array_equal(result.sync, np.zeros(12, dtype=np.float32))
        assert np.array_equal(result.logits, np.zeros(4, dtype=np.float32))
        assert result.certainty == 0.0

    def test_full_slab_tick_count(self, small_params, fvec):
        _, result = run_slab(initial_state(small_params), fvec, small_params, 0.75)
        assert result.ticks_used == small_params.config.ticks_per_slab

    def test_short_final_slab(self, small_params, fvec):
        state = initial_state(small_params)
        # exhaust all but 2 ticks of the budget
        budget = small_params.config.tick_budget
        state = BranchState(
            z=state.z, history=state.history, sync=state.sync,
            tick=budget - 2, slab=small_params.config.max_slabs - 1,
        )
        _, result = run_slab(state, fvec, small_params, 0.75)
        assert result.ticks_used == 2
        assert result.halted  # slab budget is gone

    def test_deterministic_bitwise(self, small_params, fvec):
        s1, r1 = run_slab(initial_state(small_params), fvec, small_params, 0.75)
        s2, r2 = run_slab(initial_state(small_params), fvec, small_params, 0.75)
        assert np.array_equal(r1.sync, r2.sync)
        assert np.array_equal(r1.logits, r2.logits)
        assert r1.certainty == r2.certainty
        assert np.array_equal(s1.z, s2.z)
        assert np.array_equal(s1.history, s2.history)

    def test_hidden_state_bounded(self, fvec):
        params = make_ctm(seed=8)
        state = initial_state(params)
        for _ in range(3):
            state, _ = run_slab(state, fvec, params, epsilon=2.0)
            assert np.all(np.abs(state.z) < 1.0)
            assert np.all(np.abs(state.history) < 1.0)

    def test_budget_exhaustion_raises(self, small_params, fvec):
        state = initial_state(small_params)
        state = BranchState(
            z=state.z, history=state.history, sync=state.sync,
            tick=small_params.config.tick_budget, slab=small_params.config.max_slabs,
        )
        with pytest.raises(EmptySlab):
            run_slab(state, fvec, small_params, 0.75)

    def test_run_until_halt_respects_budget(self, fvec):
        params = make_ctm(seed=4)
        state, result = run_until_halt(initial_state(params), fvec, params, epsilon=2.0)
        assert result.halted
        assert state.tick <= params.config.tick_budget
        assert state.slab <= params.config.max_slabs

    def test_slab_equals_op_composition_bitwise(self, small_params, fvec):
        # the slab's internal loop must match composing the public ops
        params = small_params
        state = initial_state(params)
        new_state, result = run_slab(state, fvec, params, epsilon=2.0)

        z = state.z
        hist = state.history
        states = []
        for _ in range(params.config.ticks_per_slab):
            cand = synapse(z, fvec, params.synapse_w)
            hist = push_history(hist, cand)
            z = mu_mlp(hist, params.factor_a, params.factor_b, params.bias)
            states.append(z)
        sync = sync_update(state.sync, states, params)
        logits, c = certainty(sync, params.certainty_w, params)
        carried = gated_carry(z, synapse(z, fvec, params.synapse_w), params.config.carry_beta)

        assert np.array_equal(result.sync, sync)
        assert np.array_equal(result.logits, logits)
        assert result.certainty == c
        assert np.array_equal(new_state.z, carried)
        assert np.array_equal(new_state.history, hist)
