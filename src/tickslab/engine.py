"""Tick-slab thought engine.

One tick: project the previous hidden state and the fusion vector through
the synapse, push the candidate into the per-neuron depth history, then read
the new hidden state out of that history through the shared low-rank
factors.  A slab is a block of consecutive ticks; at each slab boundary the
synchrony accumulators absorb the slab's states, a certainty value is read
off them, and a halt/continue decision is made.  Hidden state crosses slab
boundaries through the gated carry blend.

Wiring order inside a tick (synapse -> history push -> low-rank readout ->
synchrony) is fixed here so the readout always sees a history that already
contains the current candidate.  Synchrony accumulates the post-readout
states.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .config import EngineConfig
from .errors import DimensionMismatch, EmptySlab
from .numerics import bounded_tanh, entropy, matvec, softmax


@dataclass(frozen=True)
class CtmParams:
    """Immutable engine parameters; shareable across branches."""

    config: EngineConfig
    synapse_w: np.ndarray      # (neurons, neurons + fusion_dim)
    factor_a: np.ndarray       # (history, rank)
    factor_b: np.ndarray       # (neurons, rank)
    bias: np.ndarray           # (neurons,)
    certainty_w: np.ndarray    # (logit_count, sync_pairs)
    pair_p: np.ndarray         # (sync_pairs,) int indices
    pair_q: np.ndarray

    def __post_init__(self):
        pairs = set(zip(self.pair_p.tolist(), self.pair_q.tolist()))
        if len(pairs) != self.config.sync_pairs:
            raise ValueError("synchrony pairs must be distinct ordered pairs")


@dataclass(frozen=True)
class BranchState:
    """One branch's mutable-by-replacement reasoning state."""

    z: np.ndarray                    # (neurons,) hidden state, |z| < 1
    history: np.ndarray              # (neurons, history), newest column last
    sync: np.ndarray                 # (pair_count,) synchrony accumulators
    tick: int = 0
    slab: int = 0
    certainty_trace: tuple = ()      # last few certainty values

    def clone(self) -> "BranchState":
        return replace(
            self, z=self.z.copy(), history=self.history.copy(), sync=self.sync.copy()
        )


def initial_state(params: CtmParams) -> BranchState:
    """Zeroed state: empty history, silent accumulators."""
    return BranchState(
        z=np.zeros(params.config.neurons, dtype=np.float32),
        history=np.zeros((params.config.neurons, params.config.history), dtype=np.float32),
        sync=np.zeros(params.config.sync_pairs, dtype=np.float32),
    )


@dataclass(frozen=True)
class SlabResult:
    sync: np.ndarray       # accumulators after the slab
    logits: np.ndarray     # (logit_count,) already scaled
    certainty: float       # in [0, 1]
    halted: bool
    ticks_used: int


def synapse(z_prev: np.ndarray, f: np.ndarray, synapse_w: np.ndarray) -> np.ndarray:
    """Candidate state tanh(W_s [z_prev || f])."""
    if z_prev.shape[0] + f.shape[0] != synapse_w.shape[1]:
        raise DimensionMismatch(
            f"synapse input {z_prev.shape[0]}+{f.shape[0]} != {synapse_w.shape[1]}"
        )
    if synapse_w.shape[0] != z_prev.shape[0]:
        raise DimensionMismatch(
            f"synapse output {synapse_w.shape[0]} != state width {z_prev.shape[0]}"
        )
    return bounded_tanh(matvec(synapse_w, np.concatenate([z_prev, f])))


def push_history(history: np.ndarray, z_new: np.ndarray) -> np.ndarray:
    """Shift columns left by one and append ``z_new`` as the newest column."""
    if history.shape[0] != z_new.shape[0]:
        raise DimensionMismatch(
            f"history rows {history.shape[0]} != state width {z_new.shape[0]}"
        )
    out = np.empty_like(history)
    out[:, :-1] = history[:, 1:]
    out[:, -1] = z_new
    return out


def mu_mlp(
    history: np.ndarray, factor_a: np.ndarray, factor_b: np.ndarray, bias: np.ndarray
) -> np.ndarray:
    """Low-rank readout: z_d = tanh(b_d + sum_m (sum_j A_mj B_dj) H_dm).

    Evaluated in factored form (history projected through A, then weighted
    by B) without materializing the dense (neurons, history) matrix.
    """
    d, m = history.shape
    if factor_a.shape[0] != m or factor_b.shape[0] != d:
        raise DimensionMismatch(
            f"factors {factor_a.shape}/{factor_b.shape} do not match history {history.shape}"
        )
    if factor_a.shape[1] != factor_b.shape[1]:
        raise DimensionMismatch("factor ranks differ")
    if bias.shape[0] != d:
        raise DimensionMismatch(f"bias width {bias.shape[0]} != neurons {d}")
    h64 = history.astype(np.float64)
    a64 = factor_a.astype(np.float64)
    b64 = factor_b.astype(np.float64)
    proj = np.einsum("dm,mr->dr", h64, a64)                    # (neurons, rank)
    pre = bias.astype(np.float64) + np.einsum("dr,dr->d", proj, b64)
    return bounded_tanh(pre)


def slab_contribution(slab_states: list[np.ndarray], params: CtmParams) -> np.ndarray:
    """One slab's decay-weighted pair products, float64 (pair_count,).

    C_k = sum_{j=1..L} decay^(L-j) * z_j[p_k] * z_j[q_k].  The sum over the
    slab runs column by column, so permuting the pairs permutes C exactly:
    the contribution under ``pair_p[perm]``/``pair_q[perm]`` is ``C[perm]``
    bit for bit.
    """
    n = len(slab_states)
    if n == 0:
        raise EmptySlab("a slab needs at least one state")
    stack = np.stack(slab_states).astype(np.float64)            # (L, neurons)
    prods = stack[:, params.pair_p] * stack[:, params.pair_q]   # (L, pair_count)
    w = params.config.decay ** np.arange(n - 1, -1, -1, dtype=np.float64)
    return np.sum(prods * w[:, None], axis=0)


def accumulate(sync: np.ndarray, contribution: np.ndarray, n: int, decay: float) -> np.ndarray:
    """Accumulators after an n-state slab: decay^n * S + C, stored as float32."""
    return ((decay**n) * sync.astype(np.float64) + contribution).astype(np.float32)


def sync_update(
    sync: np.ndarray, slab_states: list[np.ndarray], params: CtmParams
) -> np.ndarray:
    """Closed-form slab update of the synchrony accumulators.

    S'_k = decay^L * S_k + sum_{j=1..L} decay^(L-j) * z_j[p_k] * z_j[q_k]
    where L is the number of states actually collected this slab.
    """
    contribution = slab_contribution(slab_states, params)
    return accumulate(sync, contribution, len(slab_states), params.config.decay)


def sync_scan_tick(sync: np.ndarray, z: np.ndarray, params: CtmParams) -> np.ndarray:
    """Incremental per-tick form of the same accumulator update.

    Preserves the input dtype: feed float64 to carry full precision across
    a multi-tick scan (the closed form also rounds only once, at the end),
    float32 to mimic stored state.
    """
    s64 = params.config.decay * sync.astype(np.float64)
    z64 = z.astype(np.float64)
    out = s64 + z64[params.pair_p] * z64[params.pair_q]
    return out.astype(sync.dtype)


def certainty(
    sync: np.ndarray, certainty_w: np.ndarray, params: CtmParams
) -> tuple[np.ndarray, float]:
    """Scaled logits read from the sync vector and 1 - normalized entropy.

    c = 1 - H(softmax(h)) / ln(logit_count), h = logit_scale * (W_c S).
    Returns (h as float32, c as float in [0, 1]).
    """
    logits = (params.config.logit_scale * matvec(certainty_w, sync)).astype(np.float32)
    h = entropy(softmax(logits))
    c = 1.0 - h / np.log(params.config.logit_count)
    return logits, float(min(max(c, 0.0), 1.0))


def halt_decision(
    c: float,
    epsilon: float,
    certainty_trace: tuple,
    slab_budget_left: int,
    config: EngineConfig,
) -> bool:
    """True to halt: threshold reached, slab budget gone, or certainty plateau.

    The threshold is capped at ``config.halt_cap`` because the
    affect-modulated epsilon can exceed 1 while certainty cannot.
    ``certainty_trace`` must already include the current value.  The tick
    budget binds earlier, in the slab loop, by shortening the final slab.
    """
    if c >= min(epsilon, config.halt_cap):
        return True
    if slab_budget_left == 0:
        return True
    if len(certainty_trace) >= config.plateau_window:
        window = certainty_trace[-config.plateau_window :]
        if max(window) - min(window) < config.plateau_epsilon:
            return True
    return False


def gated_carry(z_a: np.ndarray, z_b: np.ndarray, beta: float) -> np.ndarray:
    """Convex blend beta * z_a + (1 - beta) * z_b, elementwise."""
    if z_a.shape != z_b.shape:
        raise DimensionMismatch(f"carry shapes differ: {z_a.shape} vs {z_b.shape}")
    if not (0.0 <= beta <= 1.0):
        raise ValueError(f"beta must be in [0, 1], got {beta}")
    out = beta * z_a.astype(np.float64) + (1.0 - beta) * z_b.astype(np.float64)
    return out.astype(np.float32)


def slab_length(state: BranchState, f: np.ndarray, params: CtmParams) -> int:
    """Ticks in the next slab: ticks_per_slab, fewer at the tick budget."""
    ticks_left = params.config.tick_budget - state.tick
    if ticks_left <= 0:
        raise EmptySlab("tick budget exhausted before the slab started")
    if state.z.shape[0] + f.shape[0] != params.synapse_w.shape[1]:
        raise DimensionMismatch(
            f"synapse input {state.z.shape[0]}+{f.shape[0]} != "
            f"{params.synapse_w.shape[1]}"
        )
    return min(params.config.ticks_per_slab, ticks_left)


def slab_ticks(
    z: np.ndarray, history: np.ndarray, f: np.ndarray, params: CtmParams, n: int
) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
    """Run n ticks from (z, history); the tick math lives only here.

    Returns the post-readout states, the new depth history (a fresh array;
    ``history`` is not touched) and the hidden state carried into the next
    slab through the gated carry.  The synchrony pairs play no part, so
    every branch of a decision step shares this trajectory.
    """
    # Inlined synapse -> push -> readout loop: float64 mirrors are hoisted
    # out of the loop, every reduction is the same einsum the public ops
    # use, so each tick is bit-identical to composing those ops directly
    # (see the composition test).  The history is kept in float64; its
    # entries are float32 values, so rounding it back on return is exact.
    d = params.config.neurons
    w64 = params.synapse_w.astype(np.float64)
    a64 = params.factor_a.astype(np.float64)
    b64 = params.factor_b.astype(np.float64)
    bias64 = params.bias.astype(np.float64)
    x64 = np.empty(w64.shape[1])
    x64[d:] = f.astype(np.float64)

    hist = history.astype(np.float64)
    states = []
    for _ in range(n):
        x64[:d] = z
        candidate = bounded_tanh(np.einsum("ij,j->i", w64, x64))
        hist[:, :-1] = hist[:, 1:]
        hist[:, -1] = candidate
        proj = np.einsum("dm,mr->dr", hist, a64)
        z = bounded_tanh(bias64 + np.einsum("dr,dr->d", proj, b64))
        states.append(z)
    carried = gated_carry(z, synapse(z, f, params.synapse_w), params.config.carry_beta)
    return states, hist.astype(np.float32), carried


def halt_readout(
    sync: np.ndarray,
    certainty_trace: tuple,
    slab: int,
    epsilon: float,
    params: CtmParams,
) -> tuple[np.ndarray, float, tuple, bool]:
    """Certainty read off the accumulators after a slab, and the halt call.

    Returns (logits, certainty, trailing certainty trace, halted); ``slab``
    is the slab counter after the slab.
    """
    config = params.config
    logits, c = certainty(sync, params.certainty_w, params)
    trace = (certainty_trace + (c,))[-config.plateau_window :]
    halted = halt_decision(c, epsilon, trace, config.max_slabs - slab, config)
    return logits, c, trace, halted


def run_slab(
    state: BranchState, f: np.ndarray, params: CtmParams, epsilon: float
) -> tuple[BranchState, SlabResult]:
    """Run one slab (up to ticks_per_slab ticks, fewer at the tick budget).

    Collects the post-readout states, folds them into the synchrony
    accumulators, reads certainty, decides halt/continue, and blends the
    hidden state for the next slab through the gated carry.
    """
    n = slab_length(state, f, params)
    states, hist, carried = slab_ticks(state.z, state.history, f, params, n)
    sync = sync_update(state.sync, states, params)
    tick = state.tick + n
    slab = state.slab + 1
    logits, c, trace, halted = halt_readout(sync, state.certainty_trace, slab, epsilon, params)
    new_state = BranchState(
        z=carried, history=hist, sync=sync, tick=tick, slab=slab, certainty_trace=trace
    )
    return new_state, SlabResult(sync, logits, c, halted, n)


def run_until_halt(
    state: BranchState, f: np.ndarray, params: CtmParams, epsilon: float
) -> tuple[BranchState, SlabResult]:
    """Run slabs until the halt decision fires; always terminates (budgets)."""
    while True:
        state, result = run_slab(state, f, params, epsilon)
        if result.halted:
            return state, result
