"""Branch readouts of one shared trajectory, and confidence-vote consensus.

A decision step has k branches.  They differ only in the order of their
synchrony pairs, a permutation drawn from a stream derived from (episode
seed, branch id); the pairs play no part in the tick math, so the hidden
state and depth history are the same in every branch.  The deterministic
step therefore runs one shared tick trajectory, slab by slab, and treats
the branches as readouts of it: a branch's accumulators are its decayed
accumulators plus the slab's pair-product contribution gathered through
its permutation, followed by its own certainty and halt decision.  The
trajectory stops after the slab in which the decision is settled, since
no later halt can enter it: under wait policy OFF that is the first slab
in which a branch halts at its threshold, under ONE the first slab in
which another halt also follows that winner.  It also stops once every
branch has halted, or before a slab that would end past the logical
cutoff (earliest halt plus the deadline's tick limit).  ``run_branch``
runs one branch on its own and is the reference that the readouts equal
bit for bit.  Outcomes are merged by entropy-based confidence weights
after a canonical sort, so the merge is bitwise order-independent.

Exactly one consensus result is produced per decision step: the normal path
and the timeout path are mutually exclusive, and the timeout path is total
(it falls back to the cached result, or to a zero no-op result on the first
step).

Live mode (``decide_step_live``) is the same step with a wall-clock stop:
the trajectory also ends before a slab that would start after the expiry,
so a step returns within its deadline plus one slab, and branches still
running then are left out.  With a deadline that does not expire, its
decision equals the deterministic one bit for bit.
"""

from __future__ import annotations

import enum
import logging
import time
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .engine import (
    BranchState,
    CtmParams,
    accumulate,
    certainty,
    halt_readout,
    run_until_halt,
    slab_contribution,
    slab_length,
    slab_ticks,
)
from .errors import BranchPanic, EmptyOutcomeList
from .rng import SplitMix64, derive_seed

logger = logging.getLogger("tickslab.consensus")

ZERO_CONFIDENCE = 1e-9


class WaitPolicy(enum.Enum):
    OFF = "off"
    ONE = "one"


@dataclass(frozen=True)
class BranchOutcome:
    branch_id: int
    sync: np.ndarray           # final synchrony vector
    logits: np.ndarray         # final scaled logits
    confidence: float
    ticks_used: int            # ticks spent in this run (not lifetime)
    reached_threshold: bool


@dataclass(frozen=True)
class ConsensusResult:
    sync_merged: np.ndarray
    confidence_merged: float
    contributors: tuple        # sorted branch ids; empty on the no-cache fallback
    fallback: bool


@dataclass(frozen=True)
class DecisionDeadline:
    """Deadline in logical ticks and/or wall-clock ms.

    Deterministic mode uses the tick limit only; live mode honours both.
    """

    logical_tick_limit: Optional[int] = None
    wall_clock_ms: Optional[float] = None

    def __post_init__(self):
        if self.logical_tick_limit is None and self.wall_clock_ms is None:
            raise ValueError("a deadline needs at least one limit")


class PermutationCache:
    """The branch pair permutations of the current episode, read-only.

    Only one (episode seed, pair count) is held at a time: asking for
    another replaces the arrays, so the cache never grows past k of them.
    The arrays are a pure function of that key, so sharing one cache
    between callers changes no result.
    """

    def __init__(self) -> None:
        self._key: tuple = ()
        self._perms: list[np.ndarray] = []

    def get(self, episode_seed: int, pair_count: int, k: int) -> list[np.ndarray]:
        """Permutations of branches 0..k-1."""
        if self._key != (episode_seed, pair_count):
            self._key, self._perms = (episode_seed, pair_count), []
        for branch_id in range(len(self._perms), k):
            stream = SplitMix64(derive_seed(episode_seed, f"branch/{branch_id}"))
            perm = stream.permutation(pair_count)
            perm.flags.writeable = False
            self._perms.append(perm)
        return self._perms[:k]


_PERMUTATIONS = PermutationCache()


def perturb_for_branch(params: CtmParams, episode_seed: int, branch_id: int) -> CtmParams:
    """Branch-specific params: synchrony pairs reshuffled by the branch stream.

    Accumulator k of branch b tracks pair perm_b[k]; the certainty head and
    everything downstream read the reshuffled vector, so branches read
    different certainties off the same trajectory while staying reproducible.
    """
    perm = _PERMUTATIONS.get(episode_seed, params.config.sync_pairs, branch_id + 1)[branch_id]
    return replace(params, pair_p=params.pair_p[perm], pair_q=params.pair_q[perm])


def run_branch(
    seed_state: BranchState,
    f: np.ndarray,
    params: CtmParams,
    epsilon: float,
    episode_seed: int,
    branch_id: int,
) -> tuple[BranchOutcome, BranchState]:
    """Run one branch on its own to its halt decision; pure given its arguments.

    The per-branch reference only; no decision step calls it.
    ``shared_branches`` reads the same outcome and final state out of the
    shared trajectory, and the tests compare the two.
    """
    branch_params = perturb_for_branch(params, episode_seed, branch_id)
    state, last = run_until_halt(seed_state.clone(), f, branch_params, epsilon)
    reached = last.certainty >= min(epsilon, params.config.halt_cap)
    outcome = BranchOutcome(
        branch_id=branch_id,
        sync=last.sync,
        logits=last.logits,
        confidence=last.certainty,
        ticks_used=state.tick - seed_state.tick,
        reached_threshold=reached,
    )
    return outcome, state


def shared_branches(
    seed_state: BranchState,
    f: np.ndarray,
    params: CtmParams,
    epsilon: float,
    k: int,
    episode_seed: int,
    wait_policy: WaitPolicy,
    tick_limit: Optional[int] = None,
    branch_hook: Optional[Callable[[int], None]] = None,
    expiry: Optional[float] = None,
) -> list[tuple[BranchOutcome, BranchState]]:
    """(outcome, final state) of each branch that halts before the stop.

    One tick trajectory is run from ``seed_state``; per slab, its pair
    contribution is computed once in the unpermuted order and each branch
    still running gathers it through its permutation, reads its certainty
    and makes its halt call.  Each pair equals ``run_branch``'s for that
    branch bit for bit.  The trajectory stops after the slab in which the
    decision under ``wait_policy`` is settled (see ``decision_settled``),
    or once every branch has halted.  With a ``tick_limit`` it also stops
    before a slab that would end past the cutoff (earliest halt plus the
    limit).  With an ``expiry`` (a ``time.monotonic()`` value) it also
    stops before a slab that would start at or after it.  Branches that
    would halt after the stop are left out.  Pairs come in
    (ticks_used, branch_id) order.

    ``branch_hook`` runs once per branch before the trajectory (tests
    inject faults there).  A branch whose hook raises, or that is still
    running when the trajectory raises, is logged as a ``BranchPanic`` and
    left out.
    """
    if k < 1:
        raise ValueError("need at least one branch")
    perms = _PERMUTATIONS.get(episode_seed, params.config.sync_pairs, k)
    running: dict[int, tuple[np.ndarray, tuple]] = {}   # id -> (sync, certainty trace)
    for branch_id in range(k):
        try:
            if branch_hook is not None:
                branch_hook(branch_id)
        except Exception as exc:
            logger.warning("%s", BranchPanic(branch_id, exc))
            continue
        running[branch_id] = (seed_state.sync, seed_state.certainty_trace)

    halted: list[tuple[BranchOutcome, BranchState]] = []
    trajectory = seed_state
    cutoff = None       # earliest halt + tick_limit, in ticks used this step
    while running:
        if expiry is not None and time.monotonic() >= expiry:
            break
        try:
            n = slab_length(trajectory, f, params)
            if cutoff is not None and trajectory.tick + n - seed_state.tick > cutoff:
                break
            states, history, carried = slab_ticks(
                trajectory.z, trajectory.history, f, params, n
            )
            contribution = slab_contribution(states, params)
        except Exception as exc:
            for branch_id in running:
                logger.warning("%s", BranchPanic(branch_id, exc))
            break
        trajectory = replace(
            trajectory, z=carried, history=history,
            tick=trajectory.tick + n, slab=trajectory.slab + 1,
        )
        ticks_used = trajectory.tick - seed_state.tick
        for branch_id, (sync, trace) in list(running.items()):
            sync = accumulate(sync, contribution[perms[branch_id]], n, params.config.decay)
            logits, c, trace, stop = halt_readout(sync, trace, trajectory.slab, epsilon, params)
            if not stop:
                running[branch_id] = (sync, trace)
                continue
            del running[branch_id]
            outcome = BranchOutcome(
                branch_id=branch_id,
                sync=sync,
                logits=logits,
                confidence=c,
                ticks_used=ticks_used,
                reached_threshold=c >= min(epsilon, params.config.halt_cap),
            )
            halted.append(
                (outcome, replace(trajectory, sync=sync, certainty_trace=trace))
            )
        if decision_settled(halted, wait_policy):
            break
        if cutoff is None and halted and tick_limit is not None:
            cutoff = ticks_used + tick_limit
    return halted


def merge(outcomes: list[BranchOutcome], params: CtmParams) -> ConsensusResult:
    """Confidence-weighted merge: S = sum(c_i s_i) / sum(c_i).

    Outcomes are sorted by branch id before any summation, so the result is
    bitwise independent of arrival order.  If every confidence is below
    1e-9 the weights fall back to the unweighted mean (avoids 0/0).  The
    merged confidence is re-read from the merged vector by the certainty
    head.
    """
    if not outcomes:
        raise EmptyOutcomeList("merge needs at least one outcome")
    if len({o.sync.shape[0] for o in outcomes}) > 1:
        raise ValueError("outcomes disagree on sync width")
    if len({o.logits.shape[0] for o in outcomes}) > 1:
        raise ValueError("outcomes disagree on logit width")
    ordered = sorted(outcomes, key=lambda o: o.branch_id)
    conf = np.array([o.confidence for o in ordered], dtype=np.float64)
    if np.all(conf < ZERO_CONFIDENCE):
        weights = np.full(len(ordered), 1.0 / len(ordered))
    else:
        weights = conf / np.sum(conf)
    stack = np.stack([o.sync for o in ordered]).astype(np.float64)
    merged = np.sum(weights[:, None] * stack, axis=0).astype(np.float32)
    _, conf_merged = certainty(merged, params.certainty_w, params)
    return ConsensusResult(
        sync_merged=merged,
        confidence_merged=conf_merged,
        contributors=tuple(o.branch_id for o in ordered),
        fallback=False,
    )


def timeout_safe_pass(
    cache: Optional[ConsensusResult], pair_count: int
) -> ConsensusResult:
    """Total fallback: cached consensus, or the zero no-op result.

    The zero result (silent sync vector, confidence 0) routes to the noop
    tool downstream; either way fallback=True.
    """
    if cache is not None:
        return replace(cache, fallback=True)
    return ConsensusResult(
        sync_merged=np.zeros(pair_count, dtype=np.float32),
        confidence_merged=0.0,
        contributors=(),
        fallback=True,
    )


@dataclass(frozen=True)
class StepDecision:
    """One decision step's consensus plus the state that seeds the next round."""

    result: ConsensusResult
    next_seed: Optional[BranchState]   # None if every branch failed
    slab_count: int
    ticks: int


def merge_set(
    pairs: list[tuple[BranchOutcome, BranchState]], wait_policy: WaitPolicy
) -> list[tuple[BranchOutcome, BranchState]]:
    """The pairs a decision merges; empty when none reached the threshold.

    ``pairs`` come in (ticks_used, branch_id) order, all inside the
    deadline window.  The first threshold-reaching pair is the winner.
    Under OFF it is merged alone; under ONE together with the pair right
    after it, if there is one, whether or not that pair reached the
    threshold.
    """
    for position, (outcome, _) in enumerate(pairs):
        if outcome.reached_threshold:
            return pairs[position : position + 1 + (wait_policy is WaitPolicy.ONE)]
    return []


def decision_settled(
    pairs: list[tuple[BranchOutcome, BranchState]], wait_policy: WaitPolicy
) -> bool:
    """True once no later halt can change ``select_step``'s decision.

    ``pairs`` are the halts so far, ordered and windowed as ``merge_set``
    needs them; any later halt sorts after them, so the decision is
    settled once the merge set is full.
    """
    return len(merge_set(pairs, wait_policy)) == 1 + (wait_policy is WaitPolicy.ONE)


def select_step(
    pairs: list[tuple[BranchOutcome, BranchState]],
    seed_state: BranchState,
    params: CtmParams,
    cache: Optional[ConsensusResult],
    wait_policy: WaitPolicy,
    tick_limit: Optional[int],
) -> StepDecision:
    """The decision over finished branches, raced on logical ticks.

    Completion order is canonicalized as (ticks_used, branch_id); the
    deadline window opens at the earliest completion and closes
    ``tick_limit`` ticks later.  ``merge_set`` picks the pairs to merge
    from the window, and the winner's final state seeds the next round with
    its accumulators overwritten by the merged vector.  With no winner the
    timeout path fires and the earliest branch seeds the next round; with
    no branch at all, nothing does.
    """
    pairs = sorted(pairs, key=lambda ps: (ps[0].ticks_used, ps[0].branch_id))
    if not pairs:
        result = timeout_safe_pass(cache, params.config.sync_pairs)
        return StepDecision(result, None, seed_state.slab, seed_state.tick)

    cutoff = None if tick_limit is None else pairs[0][0].ticks_used + tick_limit
    in_time = [ps for ps in pairs if cutoff is None or ps[0].ticks_used <= cutoff]
    merged = merge_set(in_time, wait_policy)
    if merged:
        result = merge([outcome for outcome, _ in merged], params)
        next_seed = replace(merged[0][1], sync=result.sync_merged.copy())
    else:
        result = timeout_safe_pass(cache, params.config.sync_pairs)
        _, next_seed = pairs[0]

    return StepDecision(result, next_seed, next_seed.slab, next_seed.tick)


def decide_step(
    seed_state: BranchState,
    f: np.ndarray,
    params: CtmParams,
    epsilon: float,
    k: int,
    episode_seed: int,
    cache: Optional[ConsensusResult],
    deadline: DecisionDeadline,
    wait_policy: WaitPolicy = WaitPolicy.OFF,
    branch_hook: Optional[Callable[[int], None]] = None,
) -> StepDecision:
    """Deterministic decision step over k branch readouts.

    One shared trajectory runs slab by slab and stops once the decision is
    settled or at the logical cutoff (see ``shared_branches``); the
    branches are readouts of it, and ``select_step`` makes the decision.
    The result is the one ``select_step`` gives on all k ``run_branch``
    runs: a branch that halts after either stop can never be chosen or
    merged.
    """
    limit = deadline.logical_tick_limit
    pairs = shared_branches(
        seed_state, f, params, epsilon, k, episode_seed, wait_policy, limit, branch_hook
    )
    return select_step(pairs, seed_state, params, cache, wait_policy, limit)


def decide_step_live(
    seed_state: BranchState,
    f: np.ndarray,
    params: CtmParams,
    epsilon: float,
    k: int,
    episode_seed: int,
    cache: Optional[ConsensusResult],
    deadline: DecisionDeadline,
    wait_policy: WaitPolicy = WaitPolicy.OFF,
    branch_hook: Optional[Callable[[int], None]] = None,
) -> StepDecision:
    """Live decision step: ``decide_step`` under a wall-clock stop.

    The shared trajectory stops as in ``decide_step``, or once
    ``deadline.wall_clock_ms`` has passed since the call, whichever comes
    first, so the call returns within the deadline plus one slab.  The
    branches that halted by then go through ``select_step``; if none
    reached the threshold, the timeout path gives the fallback.
    """
    if deadline.wall_clock_ms is None:
        raise ValueError("live mode needs a wall-clock deadline")
    expiry = time.monotonic() + deadline.wall_clock_ms / 1000.0
    limit = deadline.logical_tick_limit
    pairs = shared_branches(
        seed_state, f, params, epsilon, k, episode_seed, wait_policy, limit,
        branch_hook, expiry,
    )
    return select_step(pairs, seed_state, params, cache, wait_policy, limit)
