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
no later halt can enter it: under wait policy "off" that is the first slab
in which a branch halts at its threshold, under "one" the first slab in
which another halt also follows that winner.  It also stops once every
branch has halted, or before a slab past the deadline window, which ends
``consensus.deadline_ticks // ticks_per_slab`` slabs after the first halt's.
Each halt is one ``BranchOutcome`` that holds the branch's state at its
halt.  Halts come out in (slab, branch id) order, already windowed, so the
decision merges them as they come.  ``run_branch`` runs one branch on its
own and is the reference that the readouts equal bit for bit.  Outcomes
are merged by entropy-based confidence weights after a canonical sort, so
the merge is bitwise order-independent.

Exactly one consensus result is produced per decision step: the normal path
and the timeout path are mutually exclusive, and the timeout path is total
(it falls back to the cached result, or to a zero no-op result on the first
step).

With ``consensus.live`` set, a step also has a wall-clock stop
``consensus.deadline_ms`` after the call: the trajectory ends before a slab
that would start after that expiry, so a step returns within its deadline
plus one slab, and branches still running then are left out.  With a
deadline that does not expire, its decision equals the deterministic one
bit for bit.

When the world stops changing, f repeats and the float32 trajectory falls
into exact limit cycles (period 2 to 6) that repeat half the slabs of a
tasks50 run; a ``SlabMemo``, kept for one episode only, runs each once.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .config import ConsensusConfig
from .engine import (
    BranchState,
    CtmParams,
    accumulate,
    certainty,
    halt_decision,
    run_slab,
    slab_contribution,
    slab_ticks,
)
from .errors import BranchPanic, EmptySlab
from .rng import SplitMix64, derive_seed

logger = logging.getLogger("tickslab.consensus")

ZERO_CONFIDENCE = 1e-9


@dataclass(frozen=True)
class BranchOutcome:
    """One branch's halt: its state then, whose ``sync`` is its synchrony
    vector and whose last certainty is its confidence, and whether that
    confidence reached the halting threshold."""

    branch_id: int
    state: BranchState
    reached_threshold: bool


@dataclass(frozen=True)
class ConsensusResult:
    sync_merged: np.ndarray
    confidence_merged: float
    contributors: tuple        # sorted branch ids; empty on the no-cache fallback
    fallback: bool


def branch_permutations(episode_seed: int, pair_count: int, k: int) -> np.ndarray:
    """The pair permutations of branches 0..k-1 as one read-only (k, pair_count) array.

    Row b is drawn from the stream of (episode seed, branch b) alone, so it
    is the same for every k > b.  An episode derives them once, before its
    first decision step.
    """
    perms = np.stack([
        SplitMix64(derive_seed(episode_seed, f"branch/{branch_id}")).permutation(pair_count)
        for branch_id in range(k)
    ])
    perms.flags.writeable = False
    return perms


class SlabMemo:
    """Read-only slab results of one (params, f), keyed by the start state's
    (z, history) bytes.

    A lookup under another (params, f) empties the memo.  A slab is a pure
    function of its key, so a hit equals a fresh run bit for bit.
    """

    def __init__(self) -> None:
        self._scope, self._slabs = (None, b""), {}

    def __len__(self) -> int:
        return len(self._slabs)

    def lookup(self, z, history, f, params: CtmParams) -> tuple:
        """(history, carried, contribution) of the slab from (z, history)."""
        if params is not self._scope[0] or f.tobytes() != self._scope[1]:
            self._scope, self._slabs = (params, f.tobytes()), {}
        key = (z.tobytes(), history.tobytes())
        if key not in self._slabs:
            states, new_history, carried = slab_ticks(z, history, f, params)
            slab = (new_history, carried, slab_contribution(states, params))
            for array in slab:
                array.flags.writeable = False
            self._slabs[key] = slab
        return self._slabs[key]


def perturb_for_branch(params: CtmParams, episode_seed: int, branch_id: int) -> CtmParams:
    """Branch-specific params: synchrony pairs reshuffled by the branch stream.

    Accumulator k of branch b tracks pair perm_b[k]; the certainty head and
    everything downstream read the reshuffled vector, so branches read
    different certainties off the same trajectory while staying reproducible.
    """
    perm = branch_permutations(episode_seed, params.config.sync_pairs, branch_id + 1)[branch_id]
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
    ``shared_branches`` reads the same outcome out of the shared trajectory,
    and the tests compare the two.  The final state is also the outcome's.
    """
    branch_params = perturb_for_branch(params, episode_seed, branch_id)
    state, reason = seed_state, None
    while reason is None:
        state, reason = run_slab(state, f, branch_params, epsilon)
    return BranchOutcome(branch_id, state, reason == "threshold"), state


def shared_branches(
    seed_state: BranchState,
    f: np.ndarray,
    params: CtmParams,
    epsilon: float,
    perms: np.ndarray,
    consensus: ConsensusConfig,
    expiry: Optional[float] = None,
    slabs: Optional[SlabMemo] = None,
) -> list[BranchOutcome]:
    """The outcome of each branch that halts before the stop.

    One tick trajectory is run from ``seed_state`` for a branch per row of
    ``perms`` (``branch_permutations``, only read); per slab, its pair
    contribution is computed once in the unpermuted order, the running
    branches gather it through their permutations and read their
    certainties in one call, and each makes its own ``halt_decision``.  Each outcome equals
    ``run_branch``'s for that branch bit for bit.  The trajectory stops
    after the slab in which the decision under ``consensus.wait_policy`` is
    settled (see ``decision_settled``), once every branch has halted, or
    before a slab past the deadline window: its last slab is the first
    halt's slab plus ``consensus.deadline_ticks // ticks_per_slab``.  With
    an ``expiry`` (a ``time.monotonic()`` value) it also stops before a
    slab that would start at or after it.  Branches that would halt after
    the stop are left out.  Outcomes come in (slab, branch_id) order.
    Slabs come from ``slabs``, the episode's memo (a fresh one if omitted).

    A slab that would start at ``max_slabs`` raises ``EmptySlab``.  When
    the trajectory raises, each branch still running is logged as a
    ``BranchPanic`` and left out.
    """
    config = params.config
    slabs = SlabMemo() if slabs is None else slabs
    ids = list(range(len(perms)))   # the running branches; row r of each stack is ids[r]'s
    # one row, which the first accumulate broadcasts to a row per branch
    syncs = seed_state.sync[None]
    traces = [seed_state.certainty_trace] * len(ids)

    halted: list[BranchOutcome] = []
    # the shared trajectory, kept in locals; a BranchState is built only for
    # a branch that halts
    z, history, slab = seed_state.z, seed_state.history, seed_state.slab
    n = config.ticks_per_slab
    last = None         # the window's last slab, set at the first halt
    while ids:
        if expiry is not None and time.monotonic() >= expiry:
            break
        try:
            if slab >= config.max_slabs:
                raise EmptySlab("slab budget exhausted before the slab started")
            if last is not None and slab >= last:
                break
            history, z, contribution = slabs.lookup(z, history, f, params)
        except Exception as exc:
            for branch_id in ids:
                logger.warning("%s", BranchPanic(branch_id, exc))
            break
        slab += 1
        syncs = accumulate(syncs, contribution.take(perms), n, config.decay)
        _, cs = certainty(syncs, params.certainty_w, params)
        keep = []
        for row, (branch_id, c) in enumerate(zip(ids, cs)):
            traces[row] = trace = (traces[row] + (c,))[-config.plateau_window :]
            reason = halt_decision(c, epsilon, trace, config.max_slabs - slab, config)
            if reason is None:
                keep.append(row)
                continue
            state = BranchState(z, history, syncs[row], slab, trace)
            halted.append(BranchOutcome(branch_id, state, reason == "threshold"))
        if len(keep) < len(ids):
            ids, traces = [ids[r] for r in keep], [traces[r] for r in keep]
            syncs, perms = syncs[keep], perms[keep]
        if decision_settled(halted, consensus.wait_policy):
            break
        if last is None and halted:
            last = slab + consensus.deadline_ticks // n
    return halted


def merge(outcomes: list[BranchOutcome], params: CtmParams) -> ConsensusResult:
    """Confidence-weighted merge: S = sum(c_i s_i) / sum(c_i), where s_i is
    an outcome's ``state.sync`` and c_i its confidence, the last certainty.

    Outcomes are sorted by branch id before any summation, so the result is
    bitwise independent of arrival order.  If every confidence is below
    1e-9 the weights fall back to the unweighted mean (avoids 0/0).  The
    merged confidence is re-read from the merged vector by the certainty
    head.  A lone outcome with a finite confidence passes through as read:
    its weight is exactly 1, its confidence is already the certainty of its
    sync vector, and the sum (which starts from +0.0) only turns -0.0 to +0.0.
    """
    if len(outcomes) == 1 and math.isfinite(outcomes[0].state.certainty_trace[-1]):
        (o,) = outcomes
        sync = np.add(o.state.sync, 0.0, dtype=np.float32)
        return ConsensusResult(sync, o.state.certainty_trace[-1], (o.branch_id,), False)
    ordered = sorted(outcomes, key=lambda o: o.branch_id)
    conf = np.array([o.state.certainty_trace[-1] for o in ordered], dtype=np.float64)
    if np.all(conf < ZERO_CONFIDENCE):
        weights = np.full(len(ordered), 1.0 / len(ordered))
    else:
        weights = conf / np.sum(conf)
    stack = np.stack([o.state.sync for o in ordered]).astype(np.float64)
    merged = np.sum(weights[:, None] * stack, axis=0).astype(np.float32)
    _, conf_merged = certainty(merged, params.certainty_w, params)
    return ConsensusResult(merged, conf_merged, tuple(o.branch_id for o in ordered), False)


def timeout_safe_pass(
    cache: Optional[ConsensusResult], pair_count: int
) -> ConsensusResult:
    """Total fallback: cached consensus, or the zero no-op result.

    The zero result (silent sync vector, confidence 0) routes to the noop
    tool downstream; either way fallback=True.
    """
    if cache is not None:
        return ConsensusResult(cache.sync_merged, cache.confidence_merged, cache.contributors, True)
    return ConsensusResult(np.zeros(pair_count, dtype=np.float32), 0.0, (), True)


def merge_set(outcomes: list[BranchOutcome], wait_policy: str) -> list[BranchOutcome]:
    """The outcomes a decision merges; empty when none reached the threshold.

    ``outcomes`` come in (slab, branch_id) order, all inside the deadline
    window, as ``shared_branches`` returns them.  The first
    threshold-reaching outcome is the winner.  Under wait policy "off" it
    is merged alone; under "one" together with the outcome right after it,
    if there is one, whether or not that outcome reached the threshold.
    """
    for position, outcome in enumerate(outcomes):
        if outcome.reached_threshold:
            return outcomes[position : position + 1 + (wait_policy == "one")]
    return []


def decision_settled(outcomes: list[BranchOutcome], wait_policy: str) -> bool:
    """True once no later halt can change ``select_step``'s decision.

    ``outcomes`` are the halts so far, ordered and windowed as
    ``merge_set`` needs them; any later halt sorts after them, so the
    decision is settled once the merge set is full.
    """
    return len(merge_set(outcomes, wait_policy)) == 1 + (wait_policy == "one")


def select_step(
    outcomes: list[BranchOutcome],
    params: CtmParams,
    cache: Optional[ConsensusResult],
    consensus: ConsensusConfig,
) -> tuple[ConsensusResult, Optional[BranchState]]:
    """(result, next_seed): the decision over the halts of one trajectory,
    and the state that seeds the next round.

    ``outcomes`` come as ``shared_branches`` returns them: in (slab,
    branch_id) order and inside the deadline window.  ``merge_set`` picks
    the outcomes to merge, and the winner's state seeds the next round
    with its accumulators overwritten by the merged vector.  With no winner
    the timeout path fires and the earliest halt's state seeds the next
    round; with no halt at all, next_seed is None.
    """
    if not outcomes:
        return timeout_safe_pass(cache, params.config.sync_pairs), None

    merged = merge_set(outcomes, consensus.wait_policy)
    if not merged:
        return timeout_safe_pass(cache, params.config.sync_pairs), outcomes[0].state
    result = merge(merged, params)
    return result, replace(merged[0].state, sync=result.sync_merged.copy())


def decide_step(
    seed_state: BranchState,
    f: np.ndarray,
    params: CtmParams,
    epsilon: float,
    perms: np.ndarray,
    cache: Optional[ConsensusResult],
    consensus: ConsensusConfig,
    slabs: Optional[SlabMemo] = None,
) -> tuple[ConsensusResult, Optional[BranchState]]:
    """(result, next_seed) of a decision step over one branch readout per
    row of ``perms``; the step's state is its arguments alone.

    One shared trajectory runs slab by slab and stops once the decision is
    settled or at the end of the deadline window (see ``shared_branches``);
    the branches are readouts of it, and ``select_step`` makes the decision.
    The pair is the one ``select_step`` gives on every branch's
    ``run_branch`` outcome, sorted by (slab, branch_id) and cut to the window.
    With ``consensus.live`` set, the trajectory also stops once
    ``consensus.deadline_ms`` has passed since the call, so the call
    returns within the deadline plus one slab; if no halt by then reached
    the threshold, the timeout path gives the fallback.  Without it the
    clock is never read.
    """
    expiry = time.monotonic() + consensus.deadline_ms / 1000.0 if consensus.live else None
    outcomes = shared_branches(seed_state, f, params, epsilon, perms, consensus, expiry, slabs)
    return select_step(outcomes, params, cache, consensus)
