from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import make_ctm
from reference import composed_certainty, mu_mlp, push_history, softmax, synapse, sync_scan_tick
from tickslab.config import Config, EngineConfig
from tickslab.consensus import run_branch
from tickslab.engine import (
    BranchState,
    accumulate,
    certainty,
    gated_carry,
    halt_decision,
    initial_state,
    run_slab,
    slab_contribution,
    slab_ticks,
    sync_update,
)
from tickslab.errors import EmptySlab, NonFiniteState
from tickslab.params import build_model

TICK_WEIGHTS = ("synapse_w", "factor_a", "factor_b", "bias")
# the small_params bundle, the default-size one, and slabs past numpy's
# 8-wide pairwise summation blocks
SLAB_BUNDLES = (
    make_ctm(seed=1),
    build_model(Config(), registry_size=1, max_slots=1).ctm,
    make_ctm(seed=2, ticks_per_slab=20),
)


def dense_readout_oracle(history, factor_a, factor_b, bias):
    """Materialize W = B A^T and apply the readout densely (float64)."""
    w = factor_b.astype(np.float64) @ factor_a.astype(np.float64).T
    pre = bias.astype(np.float64) + np.sum(w * history.astype(np.float64), axis=1)
    return np.tanh(pre)


def composed_slab(z, history, f, params):
    """One slab by composing the public ops: the reference for slab_ticks."""
    states = []
    for _ in range(params.config.ticks_per_slab):
        history = push_history(history, synapse(z, f, params.synapse_w))
        z = mu_mlp(history, params.factor_a, params.factor_b, params.bias)
        states.append(z)
    carried = gated_carry(z, synapse(z, f, params.synapse_w), params.config.carry_beta)
    return states, history, carried


def stacked_contribution(states, params):
    """slab_contribution as first written: stack, gather pairs, weight, np.sum."""
    stack = np.stack(states).astype(np.float64)
    prods = stack[:, params.pair_p] * stack[:, params.pair_q]
    w = params.config.decay ** np.arange(len(states) - 1, -1, -1, dtype=np.float64)
    return np.sum(prods * w[:, None], axis=0)


def unit_arrays(shape):
    """float32 arrays inside (-1, 1): hypothesis-built (signed zeros
    included) or dense seeded draws."""
    inside = st.floats(-1.0, 1.0, width=32, exclude_min=True, exclude_max=True)
    dense = st.tuples(st.integers(0, 2**32 - 1), st.sampled_from([0.1, 1.0, 5.0])).map(
        lambda seed_scale: np.tanh(
            seed_scale[1] * np.random.default_rng(seed_scale[0]).normal(size=shape)
        ).astype(np.float32)
    )
    return st.one_of(hnp.arrays(np.float32, shape, elements=inside), dense)


@st.composite
def slab_inputs(draw):
    """(params, z, history, f) for one slab; every slab length from 1 to 8
    ticks, and a bundle's own longer slab."""
    params = draw(st.sampled_from(SLAB_BUNDLES))
    c = params.config
    ticks = draw(st.integers(1, max(8, c.ticks_per_slab)))
    params = replace(params, config=replace(c, ticks_per_slab=ticks))
    z = draw(unit_arrays(c.neurons))
    history = draw(unit_arrays((c.neurons, c.history)))
    f = draw(unit_arrays(params.synapse_w.shape[1] - c.neurons))
    return params, z, history, f


class TestCtmParams:
    def test_weights_are_read_only(self, small_params):
        for name in TICK_WEIGHTS:
            with pytest.raises(ValueError):
                getattr(small_params, name)[0] = 0.0

    def test_replace_rebuilds_the_mirrors(self, small_params):
        perm = np.random.default_rng(0).permutation(12)
        branch = replace(small_params, pair_p=small_params.pair_p[perm],
                         pair_q=small_params.pair_q[perm])
        halved = replace(small_params, synapse_w=small_params.synapse_w * 0.5)
        for params in (small_params, branch, halved):
            for name in TICK_WEIGHTS:
                weights = getattr(params, name)
                assert weights.dtype == np.float64 and not weights.flags.writeable
        assert halved.synapse_w.tobytes() == (small_params.synapse_w * 0.5).tobytes()
        # a branch's params share the weights instead of copying them
        assert all(getattr(branch, name) is getattr(small_params, name) for name in TICK_WEIGHTS)


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
        with pytest.raises(ValueError):
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

    @pytest.mark.parametrize(
        "entry, logit_scale",
        [(np.inf, 8.0), (np.nan, 8.0), (1.0, 1e300), (1e6, 1e308)],
        ids=["inf", "nan", "past_float32", "past_float64"],
    )
    def test_a_logit_past_float32_is_named(self, entry, logit_scale):
        # before any cast, so numpy warns of nothing; a row of a stack too
        params = make_ctm(seed=1, logit_scale=logit_scale)
        sync = np.full(12, 0.5, dtype=np.float32)
        sync[3] = entry
        for readout in (sync, np.stack([np.zeros(12, dtype=np.float32), sync])):
            with pytest.raises(NonFiniteState, match="non-finite certainty"):
                certainty(readout, params.certainty_w, params)

    def test_a_logit_is_refused_exactly_where_the_cast_overflows(self):
        # the cast rounds a logit below the largest float32 plus half its ulp
        # (2**103) down to the largest float32, and one from there up to inf
        f32_max = np.finfo(np.float32).max
        w = np.zeros((4, 12), dtype=np.float32)
        w[0, 0] = 1.0
        sync = np.zeros(12, dtype=np.float32)
        sync[0] = f32_max
        for scale in (1.0, 1.0 + 2.0**-26):
            logits, c = certainty(sync, w, make_ctm(seed=1, logit_scale=scale))
            assert logits[0] == f32_max and c == 1.0
        with pytest.raises(NonFiniteState):
            certainty(sync, w, make_ctm(seed=1, logit_scale=1.0 + 2.0**-24))


def one_vector_certainty(sync, w, params):
    """The certainty readout as one vector at a time computes it: the
    matvec, then the entropy of the softmax over its nonzero entries only."""
    logits = (
        params.config.logit_scale * np.einsum("ij,j->i", w.astype(np.float64), sync.astype(np.float64))
    ).astype(np.float32)
    h = logits.astype(np.float64)
    e = np.exp(h - np.max(h))
    p = e / np.sum(e)
    p = p[p > 0.0]
    c = 1.0 - float(-np.sum(p * np.log(p))) / np.log(params.config.logit_count)
    return logits, float(min(max(c, 0.0), 1.0))


class TestBatchedCertainty:
    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(1, 6),
        logit_count=st.integers(2, 12),
        spread=st.sampled_from([0.1, 1.0, 30.0, 1000.0]),
    )
    def test_rows_equal_one_vector_calls(self, seed, rows, logit_count, spread):
        # a large spread makes softmax entries underflow to exact zeros
        rng = np.random.default_rng(seed)
        params = make_ctm(seed=1, logit_count=logit_count)
        w = rng.normal(size=(logit_count, 12)).astype(np.float32)
        stack = (rng.normal(size=(rows, 12)) * spread).astype(np.float32)
        logits, cs = certainty(stack, w, params)
        assert logits.shape == (rows, logit_count) and logits.dtype == np.float32
        assert len(cs) == rows
        for row in range(rows):
            one_logits, one_c = certainty(stack[row], w, params)
            assert np.array_equal(logits[row], one_logits)
            assert cs[row] == one_c and type(one_c) is float
            ref_logits, ref_c = one_vector_certainty(stack[row], w, params)
            assert np.array_equal(one_logits, ref_logits)
            # numpy sums fewer than 8 entries in order, so the zero terms
            # keep the nonzero-only sum there (the default has 4 logits)
            if logit_count < 8:
                assert one_c == ref_c

    def test_underflowing_row_beside_ordinary_rows(self, small_params):
        w = np.zeros((4, 12), dtype=np.float32)
        w[0, 0], w[1, 1] = 100.0, 1.0
        stack = np.zeros((3, 12), dtype=np.float32)
        stack[0, 0] = 2.0        # h = [1600, 0, 0, 0]: three probabilities are 0
        stack[1, 1] = 0.5
        stack[2, :2] = 1.0       # h = [800, 8, 0, 0]
        logits, cs = certainty(stack, w, small_params)
        assert np.count_nonzero(softmax(logits[0])) == np.count_nonzero(softmax(logits[2])) == 1
        assert cs[0] == 1.0
        for row in range(3):
            one_logits, one_c = certainty(stack[row], w, small_params)
            assert np.array_equal(logits[row], one_logits)
            assert cs[row] == one_c == one_vector_certainty(stack[row], w, small_params)[1]


class TestCertaintyEqualsComposedForm:
    @settings(max_examples=400, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(0, 5),
        logit_count=st.integers(2, 16),
        logit_scale=st.sampled_from([0.5, 1.0, 8.0, 100.0]),
        spread=st.sampled_from([0.01, 1.0, 30.0, 1000.0]),
    )
    def test_bit_equal(self, seed, rows, logit_count, logit_scale, spread):
        # rows=0 reads one vector; a large spread makes softmax entries
        # underflow, which past 8 logits is where a reordered sum would show
        rng = np.random.default_rng(seed)
        w = rng.normal(size=(logit_count, 12)).astype(np.float32)
        params = make_ctm(
            seed=1, logit_count=logit_count, logit_scale=logit_scale, certainty_w=w
        )
        size = (rows, 12) if rows else 12
        sync = (rng.normal(size=size) * spread).astype(np.float32)
        want_logits, want_c = composed_certainty(sync, w, params)
        for head in (w, params.certainty_w):
            logits, c = certainty(sync, head, params)
            assert logits.dtype == np.float32
            assert logits.tobytes() == want_logits.tobytes()
            assert np.array(c).tobytes() == np.array(want_c).tobytes()


class TestHaltDecision:
    def test_threshold_halt(self):
        assert halt_decision(0.9, 0.75, (0.1, 0.5, 0.9), 5, EngineConfig()) == "threshold"

    def test_continue_mid_run(self):
        assert halt_decision(0.5, 0.75, (0.3, 0.4, 0.5), 5, EngineConfig()) is None

    def test_capped_epsilon(self):
        # epsilon above the cap: 0.99 < 0.995 so the branch keeps thinking.
        assert halt_decision(0.99, 1.125, (0.2, 0.3, 0.4), 5, EngineConfig()) is None
        # but certainty at the cap halts even though epsilon is higher
        assert halt_decision(0.996, 1.125, (0.2, 0.3, 0.4), 5, EngineConfig()) == "threshold"

    def test_budget_halt(self):
        assert halt_decision(0.0, 0.75, (0.0, 0.1, 0.2), 0, EngineConfig()) == "budget"

    def test_plateau_halt(self):
        assert halt_decision(0.5, 0.75, (0.5001, 0.5005, 0.5002), 5, EngineConfig()) == "plateau"

    def test_short_trace_no_plateau(self):
        assert halt_decision(0.5, 0.75, (0.5, 0.5), 5, EngineConfig()) is None


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
        new_state, _ = run_slab(state, f, params, epsilon=0.75)
        assert np.array_equal(new_state.sync, np.zeros(12, dtype=np.float32))
        assert new_state.certainty_trace == (0.0,)

    def test_full_slab_tick_count(self, small_params, fvec):
        state = initial_state(small_params)
        new_state, _ = run_slab(state, fvec, small_params, 0.75)
        states, _, _ = slab_ticks(state.z, state.history, fvec, small_params)
        assert new_state.slab == 1
        assert states.shape == (small_params.config.ticks_per_slab, small_params.config.neurons)

    def test_last_slab_halts(self, small_params, fvec):
        state = replace(initial_state(small_params), slab=small_params.config.max_slabs - 1)
        new_state, reason = run_slab(state, fvec, small_params, 2.0)
        assert reason == "budget"
        assert new_state.slab == small_params.config.max_slabs

    def test_deterministic_bitwise(self, small_params, fvec):
        s1, h1 = run_slab(initial_state(small_params), fvec, small_params, 0.75)
        s2, h2 = run_slab(initial_state(small_params), fvec, small_params, 0.75)
        assert np.array_equal(s1.sync, s2.sync)
        assert s1.certainty_trace == s2.certainty_trace and h1 == h2
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
            z=state.z, history=state.history, sync=state.sync, slab=small_params.config.max_slabs
        )
        with pytest.raises(EmptySlab):
            run_slab(state, fvec, small_params, 0.75)

    def test_run_branch_respects_budget(self, fvec):
        params = make_ctm(seed=4)
        _, state = run_branch(initial_state(params), fvec, params, 2.0, 7, 0)
        assert state.slab <= params.config.max_slabs

    @given(slab_inputs())
    @settings(max_examples=80, deadline=None)
    def test_slab_ticks_equal_op_composition_bytes(self, inputs):
        # tobytes: a -0.0 where the composition gives +0.0 counts as a difference
        params, z, history, f = inputs
        before = history.copy()
        states, new_history, carried = slab_ticks(z, history, f, params)
        want_states, want_history, want_carried = composed_slab(z, history, f, params)
        assert states.dtype == new_history.dtype == carried.dtype == np.float32
        assert states.tobytes() == np.stack(want_states).tobytes()
        assert new_history.tobytes() == want_history.tobytes()
        assert carried.tobytes() == want_carried.tobytes()
        assert history.tobytes() == before.tobytes()
        want = stacked_contribution(want_states, params).tobytes()
        assert slab_contribution(states, params).tobytes() == want
        assert slab_contribution(want_states, params).tobytes() == want

    @given(first=slab_inputs(), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_slab_ticks_outputs_are_not_aliased(self, first, data):
        # a later call, here on other inputs to the same params, must leave
        # the arrays an earlier call returned as they were
        params, z, history, f = first
        c = params.config
        outputs = slab_ticks(z, history, f, params)
        kept = [array.copy() for array in outputs]
        inputs = (z, history, f)
        for a, array in enumerate(outputs):
            assert not any(np.shares_memory(array, other) for other in outputs[a + 1 :] + inputs)
        slab_ticks(
            data.draw(unit_arrays(c.neurons)), data.draw(unit_arrays((c.neurons, c.history))),
            data.draw(unit_arrays(f.shape[0])), params,
        )
        for array, copy in zip(outputs, kept):
            assert array.tobytes() == copy.tobytes()

    def test_slab_equals_op_composition_bitwise(self, small_params, fvec):
        # the slab's internal loop must match composing the public ops
        params = small_params
        state = initial_state(params)
        new_state, _ = run_slab(state, fvec, params, epsilon=2.0)

        z = state.z
        hist = state.history
        states = []
        for _ in range(params.config.ticks_per_slab):
            cand = synapse(z, fvec, params.synapse_w)
            hist = push_history(hist, cand)
            z = mu_mlp(hist, params.factor_a, params.factor_b, params.bias)
            states.append(z)
        sync = sync_update(state.sync, states, params)
        _, c = certainty(sync, params.certainty_w, params)
        carried = gated_carry(z, synapse(z, fvec, params.synapse_w), params.config.carry_beta)

        assert np.array_equal(new_state.sync, sync)
        assert new_state.certainty_trace == (c,)
        assert np.array_equal(new_state.z, carried)
        assert np.array_equal(new_state.history, hist)
