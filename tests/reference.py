"""Reference math kept for the tests: the per-op tick references that
``engine.slab_ticks`` inlines (synapse, history push, low-rank readout) and
the per-tick synchrony scan, checked by acceptance C01/C02 and the
composition tests; and the softmax and entropy that the certainty readout
computes inline, with that readout's earlier composed form."""

import numpy as np

from tickslab.numerics import bounded_tanh, einsum, matvec


def synapse(z_prev: np.ndarray, f: np.ndarray, synapse_w: np.ndarray) -> np.ndarray:
    """Candidate state tanh(W_s [z_prev || f])."""
    if z_prev.shape[0] + f.shape[0] != synapse_w.shape[1]:
        raise ValueError(
            f"synapse input {z_prev.shape[0]}+{f.shape[0]} != {synapse_w.shape[1]}"
        )
    if synapse_w.shape[0] != z_prev.shape[0]:
        raise ValueError(
            f"synapse output {synapse_w.shape[0]} != state width {z_prev.shape[0]}"
        )
    return bounded_tanh(matvec(synapse_w, np.concatenate([z_prev, f])))


def push_history(history: np.ndarray, z_new: np.ndarray) -> np.ndarray:
    """Shift columns left by one and append ``z_new`` as the newest column."""
    if history.shape[0] != z_new.shape[0]:
        raise ValueError(
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
        raise ValueError(
            f"factors {factor_a.shape}/{factor_b.shape} do not match history {history.shape}"
        )
    if factor_a.shape[1] != factor_b.shape[1]:
        raise ValueError("factor ranks differ")
    if bias.shape[0] != d:
        raise ValueError(f"bias width {bias.shape[0]} != neurons {d}")
    h64 = history.astype(np.float64)
    a64 = factor_a.astype(np.float64)
    b64 = factor_b.astype(np.float64)
    proj = einsum("dm,mr->dr", h64, a64)                       # (neurons, rank)
    pre = bias.astype(np.float64) + einsum("dr,dr->d", proj, b64)
    return bounded_tanh(pre)


def sync_scan_tick(sync: np.ndarray, z: np.ndarray, params) -> np.ndarray:
    """Incremental per-tick form of ``engine.sync_update``.

    Preserves the input dtype: feed float64 to carry full precision across
    a multi-tick scan (the closed form also rounds only once, at the end),
    float32 to mimic stored state.
    """
    s64 = params.config.decay * sync.astype(np.float64)
    z64 = z.astype(np.float64)
    out = s64 + z64[params.pair_p] * z64[params.pair_q]
    return out.astype(sync.dtype)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Stable softmax in float64 (max-subtraction), along the last axis."""
    e = logits.astype(np.float64)       # a fresh array, worked on in place
    e -= np.maximum.reduce(e, axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=-1, keepdims=True)
    return e


def entropy(probs: np.ndarray):
    """Shannon entropy in nats along the last axis; 0 * log 0 treated as 0.

    A float for one distribution, an array for a stack of them.
    """
    terms = np.where(probs > 0.0, probs, 1.0)
    np.log(terms, out=terms)
    terms *= probs
    h = -np.add.reduce(terms, axis=-1)
    return float(h) if probs.ndim == 1 else h


def composed_certainty(sync: np.ndarray, certainty_w: np.ndarray, params):
    """``engine.certainty`` as it was composed from ``softmax`` and ``entropy``
    before they were inlined, frozen here as the readout's oracle."""
    h = matvec(certainty_w, np.atleast_2d(sync))
    h *= params.config.logit_scale
    logits = h.astype(np.float32)
    c = 1.0 - entropy(softmax(logits)) / np.log(params.config.logit_count)
    np.maximum(c, 0.0, out=c)
    c = np.minimum(c, 1.0, out=c).tolist()
    return (logits[0], c[0]) if sync.ndim == 1 else (logits, c)
