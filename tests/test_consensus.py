import time
from contextlib import contextmanager
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import LateStart, fusion_vector, make_ctm
from tickslab import consensus
from tickslab.config import ConsensusConfig
from tickslab.consensus import (
    BranchOutcome,
    SlabMemo,
    branch_permutations,
    decide_step,
    merge,
    perturb_for_branch,
    run_branch,
    select_step,
    shared_branches,
    timeout_safe_pass,
)
from tickslab.engine import (
    BranchState,
    certainty,
    initial_state,
    run_slab,
    slab_ticks,
)
from tickslab.errors import NonFiniteState
from tickslab.rng import SplitMix64, derive_seed


def four_slab_window(params, branches, wait_policy="off"):
    """The logical window the episode loop uses: 4 slabs after the first halt."""
    return ConsensusConfig(
        branches=branches, wait_policy=wait_policy,
        deadline_ticks=4 * params.config.ticks_per_slab,
    )


def no_cutoff(params, branches, wait_policy="off", **live):
    """A window that never binds: no halt comes later than the tick budget."""
    return ConsensusConfig(
        branches=branches, wait_policy=wait_policy,
        deadline_ticks=params.config.ticks_per_slab * params.config.max_slabs, **live,
    )


def episode_perms(params, k, episode_seed):
    """The k branch permutations that episode ``episode_seed`` passes to each step."""
    return branch_permutations(episode_seed, params.config.sync_pairs, k)


def halt_at(branch_id, sync, confidence, reached=True):
    """An outcome whose state holds ``sync`` and ends its certainty trace on
    ``confidence``; the other state fields are empty."""
    blank = np.zeros(0, dtype=np.float32)
    state = BranchState(blank, blank[:, None], sync, 0, (confidence,))
    return BranchOutcome(branch_id, state, reached)


def make_outcome(branch_id, sync, logits, params, reached=True):
    """An outcome whose confidence is the entropy confidence of ``logits``."""
    sync = np.asarray(sync, dtype=np.float32)
    logits = np.asarray(logits, dtype=np.float32)
    from reference import entropy, softmax

    conf = 1.0 - entropy(softmax(logits)) / np.log(params.config.logit_count)
    return halt_at(branch_id, sync, float(max(conf, 0.0)), reached)


def weighted_merge(outcomes, params):
    """merge's general formula, certainty re-read included: (sync, confidence)."""
    ordered = sorted(outcomes, key=lambda o: o.branch_id)
    conf = np.array([o.state.certainty_trace[-1] for o in ordered], dtype=np.float64)
    if np.all(conf < 1e-9):
        weights = np.full(len(ordered), 1.0 / len(ordered))
    else:
        weights = conf / np.sum(conf)
    stack = np.stack([o.state.sync for o in ordered]).astype(np.float64)
    merged = np.sum(weights[:, None] * stack, axis=0).astype(np.float32)
    return merged, certainty(merged, params)


def random_outcomes(rng, params, n):
    outs = []
    for i in range(n):
        sync = rng.normal(size=params.config.sync_pairs).astype(np.float32)
        logits = rng.normal(size=params.config.logit_count).astype(np.float32) * 3
        outs.append(make_outcome(i, sync, logits, params))
    return outs


class TestMerge:
    def test_single_outcome_identity(self, small_params):
        rng = np.random.default_rng(0)
        (o,) = random_outcomes(rng, small_params, 1)
        result = merge([o], small_params)
        assert np.array_equal(result.sync_merged, o.state.sync)
        assert result.contributors == (0,)
        assert not result.fallback

    def test_equal_confidence_is_mean(self, small_params):
        rng = np.random.default_rng(1)
        logits = np.array([1.0, 2.0, 0.5, -1.0], dtype=np.float32)
        outs = [
            make_outcome(i, rng.normal(size=12), logits, small_params) for i in range(3)
        ]
        result = merge(outs, small_params)
        mean = np.mean([o.state.sync for o in outs], axis=0)
        np.testing.assert_allclose(result.sync_merged, mean, rtol=1e-6, atol=1e-7)

    def test_zero_weight_branch_contributes_nothing(self, small_params):
        rng = np.random.default_rng(2)
        strong = make_outcome(0, rng.normal(size=12), [50.0, 0.0, 0.0, 0.0], small_params)
        # uniform logits -> confidence 0
        weak = make_outcome(1, rng.normal(size=12), [1.0, 1.0, 1.0, 1.0], small_params)
        assert weak.state.certainty_trace[-1] == pytest.approx(0.0, abs=1e-12)
        result = merge([strong, weak], small_params)
        assert np.array_equal(result.sync_merged, strong.state.sync)

    def test_all_zero_confidence_falls_back_to_mean(self, small_params):
        rng = np.random.default_rng(3)
        uniform = [0.0, 0.0, 0.0, 0.0]
        outs = [
            make_outcome(i, rng.normal(size=12), uniform, small_params) for i in range(4)
        ]
        result = merge(outs, small_params)
        mean = np.mean([o.state.sync for o in outs], axis=0)
        np.testing.assert_allclose(result.sync_merged, mean, rtol=1e-6, atol=1e-7)

    def test_unequal_sync_widths_rejected(self, small_params):
        rng = np.random.default_rng(4)
        outs = [
            halt_at(b, rng.normal(size=width).astype(np.float32), 0.5)
            for b, width in enumerate((12, 11))
        ]
        with pytest.raises(ValueError, match="same shape"):
            merge(outs, small_params)

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
        stack = np.stack([o.state.sync for o in outs])
        lo, hi = stack.min(axis=0), stack.max(axis=0)
        assert np.all(base.sync_merged >= lo - 1e-6)
        assert np.all(base.sync_merged <= hi + 1e-6)

    @given(
        syncs=st.lists(
            hnp.arrays(np.float32, 12, elements=st.floats(width=32, allow_nan=False)),
            min_size=1, max_size=3,
        ),
        scale=st.sampled_from([1.0, 1e-30, 0.0]),
        branch_id=st.integers(0, 7),
    )
    # a -0.0 entry: the formula's sum starts from +0.0 and returns +0.0
    @example(syncs=[np.full(12, -0.0, dtype=np.float32)], scale=1.0, branch_id=0)
    @settings(max_examples=200, deadline=None)
    def test_lone_merge_equals_the_weighted_formula(self, syncs, scale, branch_id):
        # confidences read by certainty, as every branch outcome's is; a
        # scaled-down or zeroed vector reads a confidence below 1e-9, and
        # one whose logits leave float32 (an infinity, say) reads none
        params = make_ctm(seed=1)
        for sync in syncs:
            with np.errstate(invalid="ignore"):     # inf * 0
                sync = (sync * np.float32(scale)).astype(np.float32)
            try:
                c = certainty(sync, params)
            except NonFiniteState:
                continue
            o = halt_at(branch_id, sync, c)
            got = merge([o], params)
            want_sync, want_c = weighted_merge([o], params)
            assert got.sync_merged.dtype == np.float32
            assert got.sync_merged.tobytes() == want_sync.tobytes()
            assert np.float64(got.confidence_merged).tobytes() == np.float64(want_c).tobytes()
            assert got.contributors == (branch_id,) and not got.fallback
            assert not np.shares_memory(got.sync_merged, sync)

    def test_confidence_recomputable_from_logits(self, small_params, fvec):
        # a branch's confidence is the certainty of the logits its sync
        # vector reads, which merge's lone pass-through relies on
        from reference import composed_certainty, entropy, softmax

        outcomes = shared_branches(
            initial_state(small_params), SlabMemo(fvec, small_params), 0.75,
            episode_perms(small_params, 6, 9), no_cutoff(small_params, 6),
        )
        assert outcomes
        for o in outcomes:
            assert o.state.certainty_trace[-1] == certainty(o.state.sync, small_params)
            logits, _ = composed_certainty(o.state.sync, small_params.certainty_w, small_params)
            again = 1.0 - entropy(softmax(logits)) / np.log(small_params.config.logit_count)
            assert o.state.certainty_trace[-1] == pytest.approx(again, abs=1e-7)


def assert_same_state(a, b):
    for name in ("z", "history", "sync"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
    assert (a.slab, a.certainty_trace) == (b.slab, b.certainty_trace)


def assert_same_outcome(a, b):
    """Same branch, threshold call and halted state: the state's sync vector
    and last certainty are the outcome's synchrony and confidence."""
    assert (a.branch_id, a.reached_threshold) == (b.branch_id, b.reached_threshold)
    assert_same_state(a.state, b.state)


class TestSpawnBranches:
    """k branches spawned from one seed state, read out of one trajectory."""

    def test_k1_matches_inline_run(self, small_params, fvec):
        seed_state = initial_state(small_params)
        outcomes = shared_branches(
            seed_state, SlabMemo(fvec, small_params), 0.75,
            episode_perms(small_params, 1, 42), no_cutoff(small_params, 1),
        )
        inline, inline_state = run_branch(seed_state, fvec, small_params, 0.75, 42, 0)
        assert inline.state is inline_state
        assert len(outcomes) == 1
        assert_same_outcome(outcomes[0], inline)

    def test_branches_differ_from_each_other(self, small_params, fvec):
        outcomes = shared_branches(
            initial_state(small_params), SlabMemo(fvec, small_params), 0.75,
            episode_perms(small_params, 4, 7), no_cutoff(small_params, 4),
        )
        syncs = {o.state.sync.tobytes() for o in outcomes}
        assert len(syncs) > 1

    def test_perturbation_is_pair_permutation(self, small_params):
        perturbed = perturb_for_branch(small_params, episode_seed=1, branch_id=3)
        base = set(zip(small_params.pair_p.tolist(), small_params.pair_q.tolist()))
        got = set(zip(perturbed.pair_p.tolist(), perturbed.pair_q.tolist()))
        assert base == got
        assert not np.array_equal(perturbed.pair_p, small_params.pair_p)


class TestMergeSet:
    def _contributors(self, params, halts, policy):
        """select_step's contributors for (branch_id, slab, reached) halts, run
        through the reference order and window of 10 ticks."""
        rng = np.random.default_rng(0)
        state = initial_state(params)
        outcomes = []
        for branch_id, slab, reached in halts:
            sync = rng.normal(size=params.config.sync_pairs).astype(np.float32)
            halted = replace(state, sync=sync, slab=slab, certainty_trace=(0.5,))
            outcomes.append(BranchOutcome(branch_id, halted, reached))
        window = ConsensusConfig(wait_policy=policy, deadline_ticks=10)
        in_window = tick_window(outcomes, params.config.ticks_per_slab, window.deadline_ticks)
        result, _ = select_step(in_window, params, None, window)
        assert not result.fallback
        return result.contributors

    def test_policy_off(self, small_params):
        halts = [(0, 2, True), (1, 3, True), (2, 4, True)]
        assert self._contributors(small_params, halts, "off") == (0,)

    def test_policy_one_takes_next(self, small_params):
        halts = [(0, 2, True), (1, 3, True), (2, 4, True)]
        assert self._contributors(small_params, halts, "one") == (0, 1)

    def test_policy_one_expiry(self, small_params):
        # branch 1 halts 12 ticks after branch 0, past the 10-tick window
        halts = [(1, 5, True), (0, 2, True)]
        assert self._contributors(small_params, halts, "one") == (0,)

    def test_policy_one_nothing_pending(self, small_params):
        assert self._contributors(small_params, [(0, 2, True)], "one") == (0,)

    def test_policy_one_merges_the_follower_not_the_leader(self, small_params):
        # Branch 0 halts first below the threshold, branch 1 wins and branch
        # 2 follows below the threshold: "one" merges 1 and 2, never 0.
        halts = [(0, 2, False), (1, 3, True), (2, 3, False), (3, 4, True)]
        assert self._contributors(small_params, halts, "one") == (1, 2)


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
        window, perms = four_slab_window(small_params, 4), episode_perms(small_params, 4, 11)
        r1, s1 = decide_step(
            seed_state, SlabMemo(fvec, small_params), 0.75, perms, None, window
        )
        r2, s2 = decide_step(
            seed_state, SlabMemo(fvec, small_params), 0.75, perms, None, window
        )
        assert np.array_equal(r1.sync_merged, r2.sync_merged)
        assert r1.confidence_merged == r2.confidence_merged
        assert r1.contributors == r2.contributors
        assert s1.slab == s2.slab
        assert np.array_equal(s1.z, s2.z)

    def test_unreachable_threshold_uses_fallback(self, fvec):
        # zero certainty head: c = 0 always, so no branch can reach threshold
        params = make_ctm(seed=1, certainty_w=np.zeros((4, 12), dtype=np.float32))
        result, next_seed = decide_step(
            initial_state(params), SlabMemo(fvec, params), 0.75,
            episode_perms(params, 3, 11), None, four_slab_window(params, 3),
        )
        assert result.fallback
        assert result.contributors == ()
        assert result.confidence_merged == 0.0
        assert next_seed is not None
        # plateau interrupt fires after the trace fills up
        assert next_seed.slab == params.config.plateau_window

    def test_deterministic_step_never_reads_the_clock(self, small_params, fvec, monkeypatch):
        def no_clock():
            raise RuntimeError("the clock was read")

        monkeypatch.setattr(consensus.time, "monotonic", no_clock)
        perms = episode_perms(small_params, 3, 11)
        result, _ = decide_step(
            initial_state(small_params), SlabMemo(fvec, small_params), 0.75,
            perms, None, four_slab_window(small_params, 3),
        )
        assert not result.fallback
        with pytest.raises(RuntimeError, match="clock"):
            decide_step(
                initial_state(small_params), SlabMemo(fvec, small_params), 0.75,
                perms, None, replace(four_slab_window(small_params, 3), live=True),
            )

    def test_a_failing_slab_leaves_the_step(self, small_params, fvec):
        # no fallback hides it: the episode loop logs it as an error outcome
        with mock.patch.object(consensus, "slab_ticks", side_effect=RuntimeError("boom")):
            with pytest.raises(RuntimeError, match="boom"):
                decide_step(
                    initial_state(small_params), SlabMemo(fvec, small_params), 0.75,
                    episode_perms(small_params, 3, 11), None, four_slab_window(small_params, 3),
                )

    def test_wait_one_can_widen_merge_set(self, small_params, fvec):
        perms = episode_perms(small_params, 4, 11)
        base, _ = decide_step(
            initial_state(small_params), SlabMemo(fvec, small_params), 0.2,
            perms, None, four_slab_window(small_params, 4, "off"),
        )
        wide, _ = decide_step(
            initial_state(small_params), SlabMemo(fvec, small_params), 0.2,
            perms, None, four_slab_window(small_params, 4, "one"),
        )
        assert len(base.contributors) == 1
        assert len(wide.contributors) in (1, 2)

    def test_seed_state_is_never_written(self, small_params, fvec):
        # run_branch and decide_step read the seed state without copying it
        seed = warm_state(small_params, fvec, 2, reset=True)
        unfrozen = BranchState(seed.z.copy(), seed.history.copy(), seed.sync.copy())
        for array in (seed.z, seed.history, seed.sync):
            array.flags.writeable = False
        before = [array.tobytes() for array in (seed.z, seed.history, seed.sync)]
        for branch_id in range(4):
            got = run_branch(seed, fvec, small_params, 0.75, 11, branch_id)
            want = run_branch(unfrozen, fvec, small_params, 0.75, 11, branch_id)
            assert_same_outcome(got[0], want[0])
            assert_same_state(got[1], want[1])
        window = no_cutoff(small_params, 4, deadline_ms=60_000.0)
        perms = episode_perms(small_params, 4, 11)
        want, want_seed = decide_step(
            unfrozen, SlabMemo(fvec, small_params), 0.75, perms, None, window
        )
        assert not want.fallback
        for live in (False, True):
            got, got_seed = decide_step(
                seed, SlabMemo(fvec, small_params), 0.75,
                perms, None, replace(window, live=live),
            )
            assert got.sync_merged.tobytes() == want.sync_merged.tobytes()
            assert got.contributors == want.contributors
            assert_same_state(got_seed, want_seed)
        assert [array.tobytes() for array in (seed.z, seed.history, seed.sync)] == before


    def test_interleaved_episodes_decide_as_each_alone(self, small_params):
        # each episode runs on a model of its own, so a step that took any
        # part of its model from anywhere but its memo would show; wait
        # policy "one" merges two halts, so the merge reads the model's head
        window = four_slab_window(small_params, 3, "one")

        def calls(episode_seed, f, params):
            """An episode's decision calls, one (result, next_seed) per resume."""
            perms, slabs = episode_perms(params, 3, episode_seed), SlabMemo(f, params)
            state, cache = initial_state(params), None
            for _ in range(5):
                result, next_seed = decide_step(state, slabs, 0.75, perms, cache, window)
                yield result, next_seed
                cache = cache if result.fallback else result
                state = reset_counters(next_seed or state)

        episodes = ((11, fusion_vector(3), small_params), (12, fusion_vector(4), make_ctm(seed=2)))
        alone = [list(calls(*args)) for args in episodes]
        with mock.patch.object(consensus, "branch_permutations", side_effect=AssertionError):
            interleaved = list(zip(*(calls(*args) for args in episodes)))
        # the two episodes decide differently, so a mix-up would show, and
        # each first decision is the one its own branch runs give on its model
        assert [r.sync_merged.tobytes() for r, _ in alone[0]] != [
            r.sync_merged.tobytes() for r, _ in alone[1]
        ]
        for (episode_seed, f, params), ((first, _), *_) in zip(episodes, alone):
            reference = reference_outcomes(initial_state(params), f, params, 0.75, 3, episode_seed)
            in_window = tick_window(
                reference.values(), params.config.ticks_per_slab, window.deadline_ticks
            )
            want, _ = select_step(in_window, params, None, window)
            assert len(want.contributors) == 2
            assert first.sync_merged.tobytes() == want.sync_merged.tobytes()
            assert (first.confidence_merged, first.contributors) == (
                want.confidence_merged, want.contributors
            )
        for (want_a, want_b), (got_a, got_b) in zip(zip(*alone), interleaved):
            for (want, want_seed), (got, got_seed) in ((want_a, got_a), (want_b, got_b)):
                assert got.sync_merged.tobytes() == want.sync_merged.tobytes()
                assert (got.confidence_merged, got.contributors, got.fallback) == (
                    want.confidence_merged, want.contributors, want.fallback
                )
                if want_seed is None:
                    assert got_seed is None
                else:
                    assert_same_state(got_seed, want_seed)


class TestLiveRace:
    def test_live_wait_one_merges_up_to_two(self, fvec):
        params = make_ctm(seed=3, max_slabs=2, ticks_per_slab=2)
        window = no_cutoff(params, 3, "one", deadline_ms=200.0, live=True)
        perms = episode_perms(params, 3, 7)
        result, _ = decide_step(
            initial_state(params), SlabMemo(fvec, params), 0.05, perms, None, window
        )
        assert not result.fallback
        assert 1 <= len(result.contributors) <= 2

    def test_exactly_one_result_smoke(self, fvec):
        params = make_ctm(seed=3, max_slabs=2, ticks_per_slab=2)
        seed_state = initial_state(params)
        window = no_cutoff(params, 2, deadline_ms=3.0, live=True)
        rng = np.random.default_rng(0)
        clock = LateStart()
        with (
            mock.patch.object(consensus, "merge", wraps=consensus.merge) as merged,
            mock.patch.object(
                consensus, "timeout_safe_pass", wraps=consensus.timeout_safe_pass
            ) as fell_back,
            mock.patch.object(consensus.time, "monotonic", clock),
        ):
            for trial in range(50):
                merged.reset_mock()
                fell_back.reset_mock()
                # the trajectory starts 0-8 ms late: the sum of two 0-4 ms draws
                clock.delay = float(rng.uniform(0, 0.004)) + float(rng.uniform(0, 0.004))
                perms = episode_perms(params, 2, trial)
                result, _ = decide_step(
                    seed_state, SlabMemo(fvec, params), 0.10, perms, None, window
                )
                fallback = result.fallback
                paths = (merged.call_count, fell_back.call_count)
                assert paths == ((0, 1) if fallback else (1, 0))
                if fallback:
                    assert result.contributors == ()
                else:
                    assert len(result.contributors) >= 1

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

        window, perms = no_cutoff(params, 4, deadline_ms=50.0, live=True), episode_perms(params, 4, 7)
        start = time.monotonic()
        result, next_seed = decide_step(
            initial_state(params), SlabMemo(fvec, params), 0.5, perms, None, window
        )
        elapsed = time.monotonic() - start
        assert result.fallback
        assert result.contributors == ()
        assert next_seed is None
        assert elapsed <= 0.050 + 4 * slab_s + 0.25, (
            f"returned after {elapsed * 1000:.0f} ms (one slab {slab_s * 1000:.2f} ms)"
        )


def warm_state(params, f, slabs, reset):
    """A seed state after ``slabs`` slabs; ``reset`` zeroes the step counters.

    Without the reset this is the rethink path (the slab counter carries on); with
    it, the start of a later decision step (the thought state carries on).
    """
    state = initial_state(params)
    for _ in range(slabs):
        state, _ = run_slab(state, f, params, epsilon=2.0)
    if reset:
        state = BranchState(state.z, state.history, state.sync)
    return state


def tick_window(outcomes, ticks_per_slab, limit):
    """Outcomes of separate branch runs as one trajectory gives them: sorted
    by (slab, branch id) and cut to the halts at most ``limit`` ticks after
    the first."""
    outcomes = sorted(outcomes, key=lambda o: (o.state.slab, o.branch_id))
    if not outcomes:
        return []
    first = outcomes[0].state.slab
    return [o for o in outcomes if (o.state.slab - first) * ticks_per_slab <= limit]


def reference_stop(reference, seed_state, params, limit, wait):
    """Branches the shared trajectory reports and slabs it runs, from the reference.

    Worked out from the ``run_branch`` outcomes alone: the trajectory ends
    after the slab that settles the decision (the first threshold halt in
    the window under OFF, the halt after it under ONE), after the last
    halt, or before a slab that would end past the cutoff.
    """
    n = params.config.ticks_per_slab
    in_time = tick_window(reference.values(), n, limit)
    if not in_time:
        return [], 0
    winner = next((i for i, o in enumerate(in_time) if o.reached_threshold), None)
    if winner is not None:
        settling = winner if wait == "off" else winner + 1
        if settling < len(in_time):
            settled = in_time[settling].state.slab
            kept = [o.branch_id for o in in_time if o.state.slab <= settled]
            return kept, settled - seed_state.slab
    kept = [o.branch_id for o in in_time]
    if len(in_time) == len(reference):
        return kept, in_time[-1].state.slab - seed_state.slab
    # A branch halts past the cutoff, so the cutoff comes before the slab
    # budget: every slab that ends by it runs.
    cutoff = (in_time[0].state.slab - seed_state.slab) * n + limit
    return kept, cutoff // n


def distinct_start_states(seed_state, f, params, slabs):
    """Distinct (z, history) start states of the reference's first ``slabs`` slabs.

    The trajectory is the same in every ``run_branch`` run.  Its float32
    state can come back to an earlier start state within one decision call,
    and the slab memo then serves that slab, so this is the number of slabs
    a decision step computes.
    """
    state, starts = seed_state, set()
    for _ in range(slabs):
        starts.add((state.z.tobytes(), state.history.tobytes()))
        state, _ = run_slab(state, f, params, epsilon=2.0)
    return len(starts)


@contextmanager
def counting_slab_ticks():
    """Count the slabs the decision step runs (calls of ``slab_ticks``)."""
    with mock.patch.object(consensus, "slab_ticks", wraps=slab_ticks) as counter:
        yield counter


def reference_outcomes(seed_state, f, params, epsilon, k, episode_seed):
    """run_branch's outcome for every branch that has one."""
    outcomes = {}
    for branch_id in range(k):
        outcome, state = run_branch(seed_state, f, params, epsilon, episode_seed, branch_id)
        if outcome is None:
            continue
        # the final state that run_branch returns is its outcome's
        assert outcome.state is state
        outcomes[branch_id] = outcome
    return outcomes


class TestSharedTrajectory:
    @given(
        params_seed=st.integers(0, 40),
        f_seed=st.integers(0, 1000),
        episode_seed=st.integers(0, 2**40),
        k=st.integers(1, 8),
        epsilon=st.floats(0.02, 1.2),
        wait=st.sampled_from(["off", "one"]),
        limit_slabs=st.one_of(st.none(), st.integers(0, 3)),
        limit_offset=st.integers(-1, 1),
        ticks_per_slab=st.integers(1, 4),
        max_slabs=st.integers(2, 6),
        warm_slabs=st.integers(0, 6),
        reset=st.booleans(),
        with_cache=st.booleans(),
    )
    @settings(max_examples=120, deadline=None)
    # a start state that repeats inside one decision call: the memo serves it
    @example(
        params_seed=0, f_seed=9, episode_seed=0, k=1, epsilon=1.0, wait="off",
        limit_slabs=None, limit_offset=0, ticks_per_slab=4, max_slabs=5, warm_slabs=5,
        reset=True, with_cache=False,
    )
    def test_equals_run_branch(
        self, params_seed, f_seed, episode_seed, k, epsilon, wait, limit_slabs,
        limit_offset, ticks_per_slab, max_slabs, warm_slabs, reset, with_cache,
    ):
        params = make_ctm(seed=params_seed, ticks_per_slab=ticks_per_slab, max_slabs=max_slabs)
        # Tick limits on, just before and just after slab boundaries; the
        # tick budget as a limit never binds.
        limit = ticks_per_slab * max_slabs
        if limit_slabs is not None:
            limit = max(0, limit_slabs * ticks_per_slab + limit_offset)
        f = fusion_vector(f_seed)
        seed_state = warm_state(params, f, min(warm_slabs, max_slabs), reset)
        cache = None
        if with_cache:
            cache = merge(random_outcomes(np.random.default_rng(f_seed), params, 2), params)

        window = ConsensusConfig(
            branches=k, wait_policy=wait, deadline_ticks=limit, deadline_ms=60_000
        )
        perms = episode_perms(params, k, episode_seed)
        shared = shared_branches(seed_state, SlabMemo(f, params), epsilon, perms, window)
        reference = reference_outcomes(seed_state, f, params, epsilon, k, episode_seed)

        # The trajectory orders and windows its halts, which select_step
        # relies on: (slab, branch id) increases strictly, and no halt comes
        # after the window's last slab.
        order = [(outcome.state.slab, outcome.branch_id) for outcome in shared]
        assert all(a < b for a, b in zip(order, order[1:]))
        if shared:
            last = shared[0].state.slab + limit // ticks_per_slab
            assert all(outcome.state.slab <= last for outcome in shared)

        # Every reported branch equals its own run, bit for bit: the halted
        # state's z, history and sync bytes, its slab and its certainty trace.
        for outcome in shared:
            assert_same_outcome(outcome, reference[outcome.branch_id])

        # Omitted: exactly the branches that halt after the cutoff or after
        # the slab that settles the decision.
        kept, slabs = reference_stop(reference, seed_state, params, limit, wait)
        assert [o.branch_id for o in shared] == kept

        # The decision is the one the same selection makes on all k runs,
        # sorted and windowed, in deterministic mode and in live mode with a
        # deadline that never expires; both run each distinct start state up
        # to the stop once.
        computed = distinct_start_states(seed_state, f, params, slabs)
        with counting_slab_ticks() as counter:
            decided = decide_step(
                seed_state, SlabMemo(f, params), epsilon, perms, cache, window
            )
        assert counter.call_count == computed
        with counting_slab_ticks() as counter:
            live = decide_step(
                seed_state, SlabMemo(f, params), epsilon,
                perms, cache, replace(window, live=True),
            )
        assert counter.call_count == computed
        in_window = tick_window(reference.values(), ticks_per_slab, limit)
        want, want_seed = select_step(in_window, params, cache, window)
        for got, got_seed in (decided, live):
            assert got.sync_merged.tobytes() == want.sync_merged.tobytes()
            assert got.confidence_merged == want.confidence_merged
            assert got.contributors == want.contributors
            assert got.fallback == want.fallback
            if want_seed is None:
                assert got_seed is None
            else:
                assert_same_state(got_seed, want_seed)

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
        for wait, contributors, slabs in (("off", (2,), 2), ("one", (1, 2), 5)):
            with counting_slab_ticks() as counter:
                result, next_seed = decide_step(
                    seed_state, SlabMemo(fvec, small_params), 0.75,
                    episode_perms(small_params, 3, 17), None,
                    four_slab_window(small_params, 3, wait),
                )
            assert result.contributors == contributors
            assert counter.call_count == slabs
            assert next_seed.slab == 2

    def test_a_spent_seed_runs_no_slab_and_logs_nothing(self, small_params, fvec, caplog):
        # Slab budget already spent: the budget stops the trajectory before
        # its first slab, and every branch's own run before its first slab.
        spent = replace(initial_state(small_params), slab=small_params.config.max_slabs)
        with caplog.at_level("DEBUG"), counting_slab_ticks() as counter:
            result, next_seed = decide_step(
                spent, SlabMemo(fvec, small_params), 0.75,
                episode_perms(small_params, 3, 11), None, four_slab_window(small_params, 3),
            )
            for branch_id in range(3):
                outcome, state = run_branch(spent, fvec, small_params, 0.75, 11, branch_id)
                assert outcome is None and state is spent
        assert caplog.records == []
        assert counter.call_count == 0
        assert result.fallback
        assert next_seed is None

    @given(
        seed=st.integers(0, 2**40),
        other_seed=st.integers(0, 2**40),
        pair_count=st.integers(1, 64),
        k=st.integers(1, 6),
        larger=st.integers(0, 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_branch_permutations_hold_one_episode(self, seed, other_seed, pair_count, k, larger):
        perms = branch_permutations(seed, pair_count, k)
        assert perms.shape == (k, pair_count)
        assert not perms.flags.writeable
        wider = branch_permutations(seed, pair_count, k + larger)
        assert not wider.flags.writeable
        for branch_id, perm in enumerate(perms):
            fresh = SplitMix64(derive_seed(seed, f"branch/{branch_id}")).permutation(pair_count)
            assert np.array_equal(perm, fresh)
            assert np.array_equal(wider[branch_id], fresh)
            assert not perm.flags.writeable
        # another episode seed draws other rows, and asking again after it
        # draws equal rows
        other = branch_permutations(other_seed + (other_seed == seed), pair_count, k)
        assert not other.flags.writeable
        if pair_count >= 8:
            assert not np.array_equal(other, perms)
        assert np.array_equal(branch_permutations(seed, pair_count, k), perms)


def reset_counters(state):
    """The start of the next decision step: the thought state carries on."""
    return replace(state, slab=0, certainty_trace=())


class TestSlabMemo:
    @given(
        params_seed=st.integers(0, 40),
        f_seeds=st.lists(st.integers(0, 1000), min_size=2, max_size=2, unique=True),
        episode_seed=st.integers(0, 2**40),
        k=st.integers(1, 6),
        epsilon=st.floats(0.02, 1.2),
        wait=st.sampled_from(["off", "one"]),
        ticks_per_slab=st.integers(1, 4),
        max_slabs=st.integers(2, 6),
        warm_slabs=st.integers(0, 6),
        live=st.lists(st.booleans(), min_size=6, max_size=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_shared_memo_equals_a_fresh_memo_per_call(
        self, params_seed, f_seeds, episode_seed, k, epsilon, wait, ticks_per_slab,
        max_slabs, warm_slabs, live,
    ):
        params = make_ctm(seed=params_seed, ticks_per_slab=ticks_per_slab, max_slabs=max_slabs)
        f_a, f_b = (fusion_vector(seed) for seed in f_seeds)
        start = warm_state(params, f_a, min(warm_slabs, max_slabs), reset=True)
        window = no_cutoff(params, k, wait, deadline_ms=60_000)
        perms = episode_perms(params, k, episode_seed)

        def run(shared):
            """A decision sequence; with ``shared`` a memo serves the calls
            until f changes, as in an episode, else each call gets a fresh one."""
            decisions, cache, memos = [], None, []

            def decide(seed_state, f):
                nonlocal cache
                if not (shared and memos and memos[-1][0] is f):
                    memos.append((f, SlabMemo(f, params)))
                result, next_seed = decide_step(
                    seed_state, memos[-1][1], epsilon, perms, cache,
                    replace(window, live=live[len(decisions)]),
                )
                decisions.append((result, next_seed))
                if not result.fallback:
                    cache = result
                return next_seed or seed_state

            seed = decide(start, f_a)
            seed = decide(seed, f_a)            # a rethink from next_seed
            decide(start, f_a)                  # a repeated seed
            decide(start, f_b)                  # f changes under the same seed
            decide(reset_counters(seed), f_b)
            decide(start, f_a)                  # and changes back
            return decisions

        with counting_slab_ticks() as counter:
            shared = run(True)
        computed_shared = counter.call_count
        with counting_slab_ticks() as counter:
            fresh = run(False)
        assert computed_shared < counter.call_count  # the repeated seed runs no slab

        for (got, got_seed), (want, want_seed) in zip(shared, fresh):
            assert got.sync_merged.tobytes() == want.sync_merged.tobytes()
            assert got.confidence_merged == want.confidence_merged
            assert got.contributors == want.contributors
            assert got.fallback == want.fallback
            if want_seed is None:
                assert got_seed is None
            else:
                assert_same_state(got_seed, want_seed)
                for array in (got_seed.z, got_seed.history):
                    with pytest.raises(ValueError):
                        array[0] = 0

    def test_lookup_equals_the_slab_and_is_read_only(self, small_params, fvec):
        state = warm_state(small_params, fvec, 2, reset=True)
        memo = SlabMemo(fvec, small_params)
        got = memo.lookup(state.z, state.history)
        states, history, carried = slab_ticks(state.z, state.history, fvec, small_params)
        want = (history, carried, consensus.slab_contribution(states, small_params))
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
            with pytest.raises(ValueError):
                a[0] = 0
        assert all(a is b for a, b in zip(got, memo.lookup(state.z, state.history)))
        assert len(memo) == 1

    def test_holds_one_params_and_f(self, small_params, fvec):
        state, other = initial_state(small_params), warm_state(small_params, fvec, 1, True)
        memo = SlabMemo(fvec, small_params)
        with counting_slab_ticks() as counter:
            for _ in range(2):
                memo.lookup(state.z, state.history)
                memo.lookup(other.z, other.history)
        assert counter.call_count == len(memo) == 2
