"""Reference math kept for the tests: the softmax and entropy that the
certainty readout computes inline, and that readout's earlier composed form."""

import numpy as np

from tickslab.numerics import matvec


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
