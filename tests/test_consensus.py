import time
from contextlib import contextmanager
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fusion_vector, make_ctm
from tickslab import consensus
from tickslab.consensus import (
    BranchOutcome,
    DecisionDeadline,
    PermutationCache,
    WaitPolicy,
    decide_step,
    decide_step_live,
    merge,
    perturb_for_branch,
    run_branch,
    select_step,
    shared_branches,
    timeout_safe_pass,
)
from tickslab.engine import BranchState, certainty, initial_state, run_slab, slab_ticks
from tickslab.errors import EmptyOutcomeList
from tickslab.rng import SplitMix64, derive_seed


def four_slab_window(params):
    """The logical window the episode loop uses: 4 slabs after the first halt."""
    return DecisionDeadline(logical_tick_limit=4 * params.config.ticks_per_slab)


def make_outcome(branch_id, sync, logits, params, ticks=8, reached=True):
    sync = np.asarray(sync, dtype=np.float32)
    logits = np.asarray(logits, dtype=np.float32)
    _, conf = certainty(sync, params.certainty_w, params)
    # confidence must be the entropy confidence of the stored logits
    from tickslab.numerics import entropy, softmax

    conf = 1.0 - entropy(softmax(logits)) / np.log(params.config.logit_count)
    return BranchOutcome(branch_id, sync, logits, float(max(conf, 0.0)), ticks, reached)


def random_outcomes(rng, params, n):
    outs = []
    for i in range(n):
        sync = rng.normal(size=params.config.sync_pairs).astype(np.float32)
        logits = rng.normal(size=params.config.logit_count).astype(np.float32) * 3
        outs.append(make_outcome(i, sync, logits, params, ticks=int(rng.integers(4, 40))))
    return outs


class TestMerge:
    def test_empty_rejected(self, small_params):
        with pytest.raises(EmptyOutcomeList):
            merge([], small_params)

    def test_single_outcome_identity(self, small_params):
        rng = np.random.default_rng(0)
        (o,) = random_outcomes(rng, small_params, 1)
        result = merge([o], small_params)
        assert np.array_equal(result.sync_merged, o.sync)
        assert result.contributors == (0,)
        assert not result.fallback

    def test_equal_confidence_is_mean(self, small_params):
        rng = np.random.default_rng(1)
        logits = np.array([1.0, 2.0, 0.5, -1.0], dtype=np.float32)
        outs = [
            make_outcome(i, rng.normal(size=12), logits, small_params) for i in range(3)
        ]
        result = merge(outs, small_params)
        mean = np.mean([o.sync for o in outs], axis=0)
        np.testing.assert_allclose(result.sync_merged, mean, rtol=1e-6, atol=1e-7)

    def test_zero_weight_branch_contributes_nothing(self, small_params):
        rng = np.random.default_rng(2)
        strong = make_outcome(0, rng.normal(size=12), [50.0, 0.0, 0.0, 0.0], small_params)
        # uniform logits -> confidence 0
        weak = make_outcome(1, rng.normal(size=12), [1.0, 1.0, 1.0, 1.0], small_params)
        assert weak.confidence == pytest.approx(0.0, abs=1e-12)
        result = merge([strong, weak], small_params)
        assert np.array_equal(result.sync_merged, strong.sync)

    def test_all_zero_confidence_falls_back_to_mean(self, small_params):
        rng = np.random.default_rng(3)
        uniform = [0.0, 0.0, 0.0, 0.0]
        outs = [
            make_outcome(i, rng.normal(size=12), uniform, small_params) for i in range(4)
        ]
        result = merge(outs, small_params)
        mean = np.mean([o.sync for o in outs], axis=0)
        np.testing.assert_allclose(result.sync_merged, mean, rtol=1e-6, atol=1e-7)

    @given(st.integers(0, 10_000), st.integers(2, 8))
    @settings(max_examples=60, deadline=None)
    def test_permutation_invariance_and_hull(self, seed, n):
        params = make_ctm(seed=5)
        rng = np.random.default_rng(seed)
        outs = random_outcomes(rng, params, n)
        base = merge(outs, params)
        perm = list(outs)
        SplitMix64(seed).shuffle(perm)
        shuffled = merge(perm, params)
        assert np.array_equal(base.sync_merged, shuffled.sync_merged)
        assert base.confidence_merged == shuffled.confidence_merged
        assert base.contributors == shuffled.contributors
        stack = np.stack([o.sync for o in outs])
        lo, hi = stack.min(axis=0), stack.max(axis=0)
        assert np.all(base.sync_merged >= lo - 1e-6)
        assert np.all(base.sync_merged <= hi + 1e-6)

    def test_confidence_recomputable_from_logits(self, small_params):
        rng = np.random.default_rng(9)
        for o in random_outcomes(rng, small_params, 6):
            from tickslab.numerics import entropy, softmax

            again = 1.0 - entropy(softmax(o.logits)) / np.log(small_params.config.logit_count)
            assert o.confidence == pytest.approx(again, abs=1e-7)


def assert_same_outcome(a, b):
    assert a.branch_id == b.branch_id
    assert a.sync.dtype == b.sync.dtype and a.sync.tobytes() == b.sync.tobytes()
    assert a.logits.dtype == b.logits.dtype and a.logits.tobytes() == b.logits.tobytes()
    assert a.confidence == b.confidence
    assert a.ticks_used == b.ticks_used
    assert a.reached_threshold == b.reached_threshold


def assert_same_state(a, b):
    for name in ("z", "history", "sync"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
    assert (a.tick, a.slab, a.certainty_trace) == (b.tick, b.slab, b.certainty_trace)


class TestSpawnBranches:
    """k branches spawned from one seed state, read out of one trajectory."""

    def test_k1_matches_inline_run(self, small_params, fvec):
        seed_state = initial_state(small_params)
        pairs = shared_branches(
            seed_state, fvec, small_params, 0.75, 1, 42, WaitPolicy.OFF
        )
        inline, inline_state = run_branch(seed_state, fvec, small_params, 0.75, 42, 0)
        assert len(pairs) == 1
        assert_same_outcome(pairs[0][0], inline)
        assert_same_state(pairs[0][1], inline_state)

    def test_branches_differ_from_each_other(self, small_params, fvec):
        pairs = shared_branches(
            initial_state(small_params), fvec, small_params, 0.75, 4, 7, WaitPolicy.OFF
        )
        syncs = {o.sync.tobytes() for o, _ in pairs}
        assert len(syncs) > 1

    def test_failed_branch_excluded_and_logged(self, small_params, fvec, caplog):
        def hook(branch_id):
            if branch_id == 2:
                raise RuntimeError("injected fault")

        with caplog.at_level("WARNING", logger="tickslab.consensus"):
            pairs = shared_branches(
                initial_state(small_params), fvec, small_params, 0.75, 4, 7,
                WaitPolicy.ONE, branch_hook=hook,
            )
        assert sorted(o.branch_id for o, _ in pairs) == [0, 1, 3]
        assert any("branch 2" in r.message for r in caplog.records)

    def test_perturbation_is_pair_permutation(self, small_params):
        perturbed = perturb_for_branch(small_params, episode_seed=1, branch_id=3)
        base = set(zip(small_params.pair_p.tolist(), small_params.pair_q.tolist()))
        got = set(zip(perturbed.pair_p.tolist(), perturbed.pair_q.tolist()))
        assert base == got
        assert not np.array_equal(perturbed.pair_p, small_params.pair_p)


class TestMergeSet:
    def _contributors(self, params, halts, policy):
        """select_step's contributors for (branch_id, ticks_used, reached) halts
        under a 40-tick window."""
        rng = np.random.default_rng(0)
        state = initial_state(params)
        pairs = []
        for branch_id, ticks, reached in halts:
            sync = rng.normal(size=params.config.sync_pairs).astype(np.float32)
            logits = np.zeros(params.config.logit_count, dtype=np.float32)
            outcome = BranchOutcome(branch_id, sync, logits, 0.5, ticks, reached)
            pairs.append((outcome, replace(state, tick=ticks)))
        decision = select_step(pairs, state, params, None, policy, 40)
        assert not decision.result.fallback
        return decision.result.contributors

    def test_policy_off(self, small_params):
        halts = [(0, 8, True), (1, 9, True), (2, 10, True)]
        assert self._contributors(small_params, halts, WaitPolicy.OFF) == (0,)

    def test_policy_one_takes_next(self, small_params):
        halts = [(0, 8, True), (1, 9, True), (2, 10, True)]
        assert self._contributors(small_params, halts, WaitPolicy.ONE) == (0, 1)

    def test_policy_one_expiry(self, small_params):
        halts = [(0, 8, True), (1, 50, True)]
        assert self._contributors(small_params, halts, WaitPolicy.ONE) == (0,)

    def test_policy_one_nothing_pending(self, small_params):
        assert self._contributors(small_params, [(0, 8, True)], WaitPolicy.ONE) == (0,)

    def test_policy_one_merges_the_follower_not_the_leader(self, small_params):
        # Branch 0 halts first below the threshold, branch 1 wins and branch
        # 2 follows below the threshold: ONE merges 1 and 2, never 0.
        halts = [(0, 8, False), (1, 9, True), (2, 10, False), (3, 11, True)]
        assert self._contributors(small_params, halts, WaitPolicy.ONE) == (1, 2)


class TestTimeoutSafePass:
    def test_cache_present(self, small_params):
        rng = np.random.default_rng(0)
        cached = merge(random_outcomes(rng, small_params, 2), small_params)
        result = timeout_safe_pass(cached, small_params.config.sync_pairs)
        assert result.fallback
        assert np.array_equal(result.sync_merged, cached.sync_merged)
        assert result.confidence_merged == cached.confidence_merged

    def test_no_cache_zero_result(self, small_params):
        result = timeout_safe_pass(None, small_params.config.sync_pairs)
        assert result.fallback
        assert result.confidence_merged == 0.0
        assert result.contributors == ()
        assert np.array_equal(
            result.sync_merged, np.zeros(small_params.config.sync_pairs, dtype=np.float32)
        )


class TestDecideStep:
    def test_deterministic_repeat(self, small_params, fvec):
        seed_state = initial_state(small_params)
        deadline = four_slab_window(small_params)
        d1 = decide_step(seed_state, fvec, small_params, 0.75, 4, 11, None, deadline)
        d2 = decide_step(seed_state, fvec, small_params, 0.75, 4, 11, None, deadline)
        assert np.array_equal(d1.result.sync_merged, d2.result.sync_merged)
        assert d1.result.confidence_merged == d2.result.confidence_merged
        assert d1.result.contributors == d2.result.contributors
        assert d1.slab_count == d2.slab_count
        assert np.array_equal(d1.next_seed.z, d2.next_seed.z)

    def test_unreachable_threshold_uses_fallback(self, fvec):
        # zero certainty head: c = 0 always, so no branch can reach threshold
        params = make_ctm(seed=1, certainty_w=np.zeros((4, 12), dtype=np.float32))
        decision = decide_step(
            initial_state(params), fvec, params, 0.75, 3, 11, None, four_slab_window(params)
        )
        assert decision.result.fallback
        assert decision.result.contributors == ()
        assert decision.result.confidence_merged == 0.0
        assert decision.next_seed is not None
        # plateau interrupt fires after the trace fills up
        assert decision.next_seed.slab == params.config.plateau_window

    def test_all_branches_failing_dispatches_fallback(self, small_params, fvec):
        def hook(branch_id):
            raise RuntimeError("boom")

        decision = decide_step(
            initial_state(small_params), fvec, small_params, 0.75, 3, 11, None,
            four_slab_window(small_params), branch_hook=hook,
        )
        assert decision.result.fallback
        assert decision.next_seed is None

    def test_wait_one_can_widen_merge_set(self, small_params, fvec):
        base = decide_step(
            initial_state(small_params), fvec, small_params, 0.2, 4, 11, None,
            four_slab_window(small_params), wait_policy=WaitPolicy.OFF,
        )
        wide = decide_step(
            initial_state(small_params), fvec, small_params, 0.2, 4, 11, None,
            four_slab_window(small_params), wait_policy=WaitPolicy.ONE,
        )
        assert len(base.result.contributors) == 1
        assert len(wide.result.contributors) in (1, 2)


class TestLiveRace:
    def test_live_wait_one_merges_up_to_two(self, fvec):
        params = make_ctm(seed=3, max_slabs=2, ticks_per_slab=2)
        deadline = DecisionDeadline(wall_clock_ms=200.0)
        decision = decide_step_live(
            initial_state(params), fvec, params, 0.05, 3, 7, None,
            deadline, wait_policy=WaitPolicy.ONE,
        )
        assert not decision.result.fallback
        assert 1 <= len(decision.result.contributors) <= 2

    def test_exactly_one_result_smoke(self, fvec):
        params = make_ctm(seed=3, max_slabs=2, ticks_per_slab=2)
        seed_state = initial_state(params)
        deadline = DecisionDeadline(wall_clock_ms=3.0)
        rng = np.random.default_rng(0)
        with (
            mock.patch.object(consensus, "merge", wraps=consensus.merge) as merged,
            mock.patch.object(
                consensus, "timeout_safe_pass", wraps=consensus.timeout_safe_pass
            ) as fell_back,
        ):
            for trial in range(50):
                merged.reset_mock()
                fell_back.reset_mock()

                def hook(branch_id):
                    time.sleep(float(rng.uniform(0, 0.004)))

                decision = decide_step_live(
                    seed_state, fvec, params, 0.10, 2, trial, None,
                    deadline, branch_hook=hook,
                )
                fallback = decision.result.fallback
                paths = (merged.call_count, fell_back.call_count)
                assert paths == ((0, 1) if fallback else (1, 0))
                if fallback:
                    assert decision.result.contributors == ()
                else:
                    assert len(decision.result.contributors) >= 1

    def test_deadline_bounds_return_time(self, fvec):
        # No certainty weights (threshold out of reach), no plateau stop and
        # a slab budget of seconds: only the wall clock can end the step.
        params = make_ctm(
            seed=4, neurons=64, sync_pairs=256, ticks_per_slab=8, max_slabs=3000,
            certainty_w=np.zeros((4, 256), dtype=np.float32), plateau_epsilon=0.0,
        )
        state, _ = run_slab(initial_state(params), fvec, params, epsilon=0.5)
        start = time.monotonic()
        run_slab(state, fvec, params, epsilon=0.5)
        slab_s = time.monotonic() - start

        deadline = DecisionDeadline(wall_clock_ms=50.0)
        start = time.monotonic()
        decision = decide_step_live(
            initial_state(params), fvec, params, 0.5, 4, 7, None, deadline
        )
        elapsed = time.monotonic() - start
        assert decision.result.fallback
        assert decision.result.contributors == ()
        assert decision.next_seed is None
        assert elapsed <= 0.050 + 4 * slab_s + 0.25, (
            f"returned after {elapsed * 1000:.0f} ms (one slab {slab_s * 1000:.2f} ms)"
        )


def warm_state(params, f, slabs, reset):
    """A seed state after ``slabs`` slabs; ``reset`` zeroes the step counters.

    Without the reset this is the rethink path (tick/slab carry on); with
    it, the start of a later decision step (the thought state carries on).
    """
    state = initial_state(params)
    for _ in range(slabs):
        state, _ = run_slab(state, f, params, epsilon=2.0)
    if reset:
        state = BranchState(state.z, state.history, state.sync)
    return state


def reference_stop(reference, seed_state, params, limit, wait):
    """Branches the shared trajectory reports and slabs it runs, from the reference.

    Worked out from the ``run_branch`` outcomes alone: the trajectory ends
    after the slab that settles the decision (the first threshold halt in
    the window under OFF, the halt after it under ONE), after the last
    halt, or before a slab that would end past the cutoff.
    """
    pairs = sorted(reference.values(), key=lambda ps: (ps[0].ticks_used, ps[0].branch_id))
    if not pairs:
        return [], 0
    cutoff = None if limit is None else pairs[0][0].ticks_used + limit
    in_time = [ps for ps in pairs if cutoff is None or ps[0].ticks_used <= cutoff]
    winner = next((i for i, (o, _) in enumerate(in_time) if o.reached_threshold), None)
    if winner is not None:
        settling = winner if wait is WaitPolicy.OFF else winner + 1
        if settling < len(in_time):
            outcome, state = in_time[settling]
            kept = [o.branch_id for o, _ in in_time if o.ticks_used <= outcome.ticks_used]
            return kept, state.slab - seed_state.slab
    kept = [o.branch_id for o, _ in in_time]
    if len(in_time) == len(pairs):
        return kept, pairs[-1][1].slab - seed_state.slab
    # A branch halts past the cutoff: every slab that ends by it runs.
    slabs, used = 0, 0
    while True:
        n = min(params.config.ticks_per_slab, params.config.tick_budget - seed_state.tick - used)
        if used + n > cutoff:
            return kept, slabs
        slabs, used = slabs + 1, used + n


@contextmanager
def counting_slab_ticks():
    """Count the slabs the decision step runs (calls of ``slab_ticks``)."""
    with mock.patch.object(consensus, "slab_ticks", wraps=slab_ticks) as counter:
        yield counter


def reference_pairs(seed_state, f, params, epsilon, k, episode_seed, failing):
    """run_branch for every branch that neither fails its hook nor raises."""
    pairs = {}
    for branch_id in range(k):
        if branch_id in failing:
            continue
        try:
            pairs[branch_id] = run_branch(seed_state, f, params, epsilon, episode_seed, branch_id)
        except Exception:
            continue
    return pairs


class TestSharedTrajectory:
    @given(
        params_seed=st.integers(0, 40),
        f_seed=st.integers(0, 1000),
        episode_seed=st.integers(0, 2**40),
        k=st.integers(1, 8),
        epsilon=st.floats(0.02, 1.2),
        wait=st.sampled_from(list(WaitPolicy)),
        limit_slabs=st.one_of(st.none(), st.integers(0, 3)),
        limit_offset=st.integers(-1, 1),
        ticks_per_slab=st.integers(1, 4),
        max_slabs=st.integers(2, 6),
        warm_slabs=st.integers(0, 6),
        reset=st.booleans(),
        failing=st.sets(st.integers(0, 7), max_size=3),
        with_cache=st.booleans(),
    )
    @settings(max_examples=120, deadline=None)
    def test_equals_run_branch(
        self, params_seed, f_seed, episode_seed, k, epsilon, wait, limit_slabs,
        limit_offset, ticks_per_slab, max_slabs, warm_slabs, reset, failing, with_cache,
    ):
        params = make_ctm(seed=params_seed, ticks_per_slab=ticks_per_slab, max_slabs=max_slabs)
        # Tick limits on, just before and just after slab boundaries.
        limit = None
        if limit_slabs is not None:
            limit = max(0, limit_slabs * ticks_per_slab + limit_offset)
        f = fusion_vector(f_seed)
        seed_state = warm_state(params, f, min(warm_slabs, max_slabs), reset)
        cache = None
        if with_cache:
            cache = merge(random_outcomes(np.random.default_rng(f_seed), params, 2), params)

        def hook(branch_id):
            if branch_id in failing:
                raise RuntimeError("injected fault")

        shared = shared_branches(
            seed_state, f, params, epsilon, k, episode_seed, wait, limit, hook
        )
        reference = reference_pairs(seed_state, f, params, epsilon, k, episode_seed, failing)

        # Every reported branch equals its own run, bit for bit.
        for outcome, state in shared:
            ref_outcome, ref_state = reference[outcome.branch_id]
            assert_same_outcome(outcome, ref_outcome)
            assert_same_state(state, ref_state)

        # Omitted: exactly the branches that halt after the cutoff or after
        # the slab that settles the decision.
        kept, slabs = reference_stop(reference, seed_state, params, limit, wait)
        assert [o.branch_id for o, _ in shared] == kept

        # The decision is the one the same selection makes on all k runs, in
        # deterministic mode and in live mode with a deadline that never
        # expires; both run exactly the slabs up to the stop.
        deadline = DecisionDeadline(logical_tick_limit=limit, wall_clock_ms=250.0)
        with counting_slab_ticks() as counter:
            decided = decide_step(
                seed_state, f, params, epsilon, k, episode_seed, cache,
                wait_policy=wait, deadline=deadline, branch_hook=hook,
            )
        assert counter.call_count == slabs
        with counting_slab_ticks() as counter:
            live = decide_step_live(
                seed_state, f, params, epsilon, k, episode_seed, cache,
                DecisionDeadline(logical_tick_limit=limit, wall_clock_ms=60_000),
                wait_policy=wait, branch_hook=hook,
            )
        assert counter.call_count == slabs
        want = select_step(list(reference.values()), seed_state, params, cache, wait, limit)
        for got in (decided, live):
            assert got.result.sync_merged.tobytes() == want.result.sync_merged.tobytes()
            assert got.result.confidence_merged == want.result.confidence_merged
            assert got.result.contributors == want.result.contributors
            assert got.result.fallback == want.result.fallback
            assert (got.slab_count, got.ticks) == (want.slab_count, want.ticks)
            if want.next_seed is None:
                assert got.next_seed is None
            else:
                assert_same_state(got.next_seed, want.next_seed)

    def test_wait_one_runs_on_to_a_later_follower(self, small_params, fvec):
        # Branch 2 halts at the threshold after 2 slabs; the next halt is
        # branch 1's, 3 slabs later.  OFF stops at the winner's slab, ONE at
        # the follower's, and neither runs on to the cutoff.
        seed_state = initial_state(small_params)
        halts = sorted(
            (run_branch(seed_state, fvec, small_params, 0.75, 17, b)[1].slab, b)
            for b in range(3)
        )
        assert halts[:2] == [(2, 2), (5, 1)]
        for wait, contributors, slabs in ((WaitPolicy.OFF, (2,), 2), (WaitPolicy.ONE, (1, 2), 5)):
            with counting_slab_ticks() as counter:
                decision = decide_step(
                    seed_state, fvec, small_params, 0.75, 3, 17, None,
                    four_slab_window(small_params), wait_policy=wait,
                )
            assert decision.result.contributors == contributors
            assert counter.call_count == slabs
            assert decision.slab_count == 2

    def test_trajectory_failure_fails_every_running_branch(self, small_params, fvec, caplog):
        # Tick budget already spent: the first slab raises, as in run_branch.
        spent = replace(
            initial_state(small_params), tick=small_params.config.tick_budget, slab=0
        )
        with caplog.at_level("WARNING", logger="tickslab.consensus"):
            decision = decide_step(
                spent, fvec, small_params, 0.75, 3, 11, None, four_slab_window(small_params)
            )
        assert sum("failed" in r.message for r in caplog.records) == 3
        assert decision.result.fallback
        assert decision.next_seed is None

    def test_permutation_cache_holds_one_episode(self):
        cache = PermutationCache()
        first = cache.get(5, 12, 3)
        assert len(first) == 3
        assert all(a is b for a, b in zip(first, cache.get(5, 12, 3)))
        for branch_id, perm in enumerate(first):
            fresh = SplitMix64(derive_seed(5, f"branch/{branch_id}")).permutation(12)
            assert np.array_equal(perm, fresh)
            assert not perm.flags.writeable
        cache.get(6, 12, 3)
        again = cache.get(5, 12, 3)
        assert all(a is not b for a, b in zip(first, again))
        assert all(np.array_equal(a, b) for a, b in zip(first, again))
