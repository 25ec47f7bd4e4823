"""Tick-slab thought engine.

One tick: project the previous hidden state and the fusion vector through
the synapse, push the candidate into the per-neuron depth history, then read
the new hidden state out of that history through the shared low-rank
factors.  A slab is a block of ``ticks_per_slab`` consecutive ticks, so a
decision step counts its ticks as slabs x ``ticks_per_slab``; at each slab
boundary the synchrony accumulators absorb the slab's states, a certainty
value is read off them, and a halt/continue decision is made.  Hidden state
crosses slab boundaries through the gated carry blend.

Wiring order inside a tick (synapse -> history push -> low-rank readout ->
synchrony) is fixed here so the readout always sees a history that already
contains the current candidate.  Synchrony accumulates the post-readout
states.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .config import EngineConfig
from .errors import NonFiniteState
from .numerics import F32_OVERFLOW, bounded_tanh, einsum, hold_float64, matvec


@dataclass(frozen=True)
class CtmParams:
    """Immutable engine parameters; shareable across branches.  The weights
    are held as read-only float64 arrays of float32 values."""

    config: EngineConfig
    synapse_w: np.ndarray      # (neurons, neurons + fusion_dim)
    factor_a: np.ndarray       # (history, rank)
    factor_b: np.ndarray       # (neurons, rank)
    bias: np.ndarray           # (neurons,)
    certainty_w: np.ndarray    # (logit_count, sync_pairs)
    pair_p: np.ndarray         # (sync_pairs,) int indices
    pair_q: np.ndarray

    def __post_init__(self):
        hold_float64(self, "synapse_w", "factor_a", "factor_b", "bias", "certainty_w")
        # certainty's normaliser ln(logit_count), the same np.log value
        object.__setattr__(self, "log_logit_count", np.log(self.config.logit_count))


@dataclass(frozen=True)
class BranchState:
    """One branch's mutable-by-replacement reasoning state."""

    z: np.ndarray                    # (neurons,) hidden state, |z| < 1
    history: np.ndarray              # (neurons, history), newest column last
    sync: np.ndarray                 # (pair_count,) synchrony accumulators
    slab: int = 0
    certainty_trace: tuple = ()      # last few certainty values


def initial_state(params: CtmParams) -> BranchState:
    """Zeroed state: empty history, silent accumulators."""
    return BranchState(
        z=np.zeros(params.config.neurons, dtype=np.float32),
        history=np.zeros((params.config.neurons, params.config.history), dtype=np.float32),
        sync=np.zeros(params.config.sync_pairs, dtype=np.float32),
    )


def slab_contribution(
    slab_states: list[np.ndarray] | np.ndarray, params: CtmParams
) -> np.ndarray:
    """One slab's decay-weighted pair products, float64 (pair_count,).

    ``slab_states`` is a non-empty list of states or an (L, neurons) array
    of them.  C_k = sum_{j=1..L} decay^(L-j) * z_j[p_k] * z_j[q_k].  The sum
    over the slab runs column by column, so permuting the pairs permutes C
    exactly: the contribution under ``pair_p[perm]``/``pair_q[perm]`` is
    ``C[perm]`` bit for bit.
    """
    n = len(slab_states)
    # One state per column: each pair's products lie contiguous in a row of
    # ``prods``, so add.reduce sums every row with the same pairwise order
    # that np.sum used on the column-major gather of the (L, neurons) stack.
    cols = np.asarray(slab_states).T.astype(np.float64, order="C")  # (neurons, L)
    prods = cols.take(params.pair_p, axis=0)                    # (pair_count, L)
    prods *= cols.take(params.pair_q, axis=0)
    prods *= _decay_weights(params.config.decay, n)
    return np.add.reduce(prods, axis=1)


@lru_cache(maxsize=64)
def _decay_weights(decay: float, n: int) -> np.ndarray:
    """Read-only weights decay^(n-1), ..., decay^0 of an n-state slab."""
    w = decay ** np.arange(n - 1, -1, -1, dtype=np.float64)
    w.flags.writeable = False
    return w


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


def certainty(sync: np.ndarray, params: CtmParams):
    """Certainty of the sync vector: 1 - normalized entropy of its logits.

    c = 1 - H(softmax(h)) / ln(logit_count), h = logit_scale * (W_c S), where
    W_c is ``params.certainty_w`` and h is rounded to float32.  Returns c in
    [0, 1] as a float; for a (rows, pair_count) stack of vectors, a list whose
    entries equal each vector's own result bit for bit.  A logit that the
    float32 cast would make inf, or a NaN, raises ``NonFiniteState``.
    """
    h = matvec(params.certainty_w, sync if sync.ndim == 2 else sync[None])
    # the largest scaled logit as a Python float: inf on overflow, no warning
    reach = float(np.maximum.reduce(np.abs(h), axis=None)) * abs(params.config.logit_scale)
    if not reach < F32_OVERFLOW:
        raise NonFiniteState(f"non-finite certainty: a logit reaches {reach!r}, past float32")
    h *= params.config.logit_scale
    # stable softmax of the float32 logits in float64, then sum p ln p with
    # 0 ln 0 taken as 0; a zero entry adds an exact zero, and numpy sums fewer
    # than 8 entries in order, so there that equals summing the nonzero terms
    p = h.astype(np.float32).astype(np.float64)
    p -= np.maximum.reduce(p, axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= np.add.reduce(p, axis=-1, keepdims=True)
    terms = np.where(p > 0.0, p, 1.0)
    np.log(terms, out=terms)
    terms *= p
    # 1 + (sum p ln p) / ln L equals 1 - H / ln L bit for bit, and the sum is
    # at most 0, so c needs no clamp at 1
    c = np.add.reduce(terms, axis=-1)
    c /= params.log_logit_count
    c += 1.0
    c = np.maximum(c, 0.0, out=c).tolist()
    return c[0] if sync.ndim == 1 else c


def halt_decision(
    c: float,
    epsilon: float,
    trace: tuple,
    slab_budget_left: int,
    config: EngineConfig,
) -> str | None:
    """Why a branch halts after this slab: "threshold" (reached), "budget"
    (no slab left) or "plateau" (certainty flat); None to go on.

    The threshold is capped at ``config.halt_cap`` because the
    affect-modulated epsilon can exceed 1 while certainty cannot.
    ``trace`` is the last ``plateau_window`` certainties, ending with c.
    """
    if c >= min(epsilon, config.halt_cap):
        return "threshold"
    if slab_budget_left == 0:
        return "budget"
    if len(trace) >= config.plateau_window and max(trace) - min(trace) < config.plateau_epsilon:
        return "plateau"
    return None


def gated_carry(z_a: np.ndarray, z_b: np.ndarray, beta: float) -> np.ndarray:
    """Convex blend beta * z_a + (1 - beta) * z_b, elementwise."""
    out = beta * z_a.astype(np.float64) + (1.0 - beta) * z_b.astype(np.float64)
    return out.astype(np.float32)


def slab_ticks(
    z: np.ndarray, history: np.ndarray, f: np.ndarray, params: CtmParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run one slab of ``ticks_per_slab`` ticks from (z, history); the tick
    math lives only here.

    Returns the post-readout states as one (ticks_per_slab, neurons) float32
    array, the new depth history (a fresh array; ``history`` is not touched)
    and the hidden state carried into the next slab through the gated carry.
    The synchrony pairs play no part, so every branch of a decision step
    shares this trajectory.
    """
    # Inlined synapse -> push -> readout loop on CtmParams' float64
    # weights.  Each reduction is the einsum of the per-op references in
    # tests/reference.py, written into a preallocated buffer, and
    # bounded_tanh runs in place on it, so every tick and the carry
    # equal composing those ops bit for bit (see the composition tests).
    # [z || f] is one float64 buffer with f written once.  The depth history
    # is a window over one float64 buffer holding the slab's candidates
    # (float32 values) after it, so a push moves the window instead of
    # shifting, and rounding the last window back is exact.
    d, m = history.shape
    w64, a64, b64 = params.synapse_w, params.factor_a, params.factor_b
    n = params.config.ticks_per_slab
    x64 = np.empty(w64.shape[1])
    x64[d:] = f

    window = np.empty((d, m + n))
    window[:, :m] = history
    states = np.empty((n, d), dtype=np.float32)
    pre, proj = np.empty(d), np.empty((d, a64.shape[1]))
    candidate = np.empty(d, dtype=np.float32)
    for t in range(n):
        x64[:d] = z
        bounded_tanh(einsum("ij,j->i", w64, x64, out=pre), out=candidate)
        window[:, m + t] = candidate
        einsum("dm,mr->dr", window[:, t + 1 : t + 1 + m], a64, out=proj)
        einsum("dr,dr->d", proj, b64, out=pre)
        pre += params.bias
        z = states[t]
        bounded_tanh(pre, out=z)
    x64[:d] = z
    bounded_tanh(einsum("ij,j->i", w64, x64, out=pre), out=candidate)
    carried = gated_carry(z, candidate, params.config.carry_beta)
    return states, window[:, n:].astype(np.float32), carried


def run_slab(
    state: BranchState, f: np.ndarray, params: CtmParams, epsilon: float
) -> tuple[BranchState, str | None]:
    """Run one slab of ticks_per_slab ticks from ``state``.

    Collects the post-readout states, folds them into the synchrony
    accumulators, reads certainty off them, and blends the hidden state for
    the next slab through the gated carry.  Returns the next state, whose
    certainty trace ends with this slab's certainty, and
    ``halt_decision``'s reason to halt (None to go on; never None at ``max_slabs``).
    """
    config = params.config
    states, hist, carried = slab_ticks(state.z, state.history, f, params)
    sync = sync_update(state.sync, states, params)
    slab = state.slab + 1
    c = certainty(sync, params)
    trace = (state.certainty_trace + (c,))[-config.plateau_window :]
    reason = halt_decision(c, epsilon, trace, config.max_slabs - slab, config)
    return BranchState(carried, hist, sync, slab, trace), reason
